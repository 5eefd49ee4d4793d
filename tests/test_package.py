"""The package namespace: what ``racsim.__all__`` exports."""

import racsim


def test_every_export_resolves_once():
    assert len(set(racsim.__all__)) == len(racsim.__all__)
    missing = [name for name in racsim.__all__ if not hasattr(racsim, name)]
    assert missing == []
