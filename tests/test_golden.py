"""Byte-exact CLI output, pinned by the files under ``tests/golden/``.

Each case runs ``racsim.cli.main`` in a fresh working directory and compares
its exit status, its stdout and, when the case writes one, its
``--witness-out`` file with the committed copies.  Paths in the argument lists
are relative on purpose: ``--evaluate`` and ``--strategy`` paths are copied
into the JSON provenance.

A change that alters CLI output on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from racsim.cli import main

GOLDEN = Path(__file__).parent / "golden"
STRATEGY = "majority_2_4.txt"  # committed input for --evaluate and --strategy
WITNESS = "witness.txt"

# name -> (argv, exit status)
CASES = {
    "exact_full_d3_text": (["exact", "--task", "full", "--d", "3"], 0),
    "exact_full_d3_json": (["exact", "--task", "full", "--d", "3", "--format", "json"], 0),
    "exact_restricted_6_5_canonical_text": (
        ["exact", "--task", "restricted", "--d", "6", "--dprime", "5", "--variant", "canonical"], 0
    ),
    "exact_restricted_6_5_literal_json": (
        ["exact", "--task", "restricted", "--d", "6", "--dprime", "5", "--variant", "literal",
         "--format", "json"], 0
    ),
    "scan_d14_text": (["scan", "--dmax", "14"], 0),
    "scan_d14_csv": (["scan", "--dmax", "14", "--format", "csv"], 0),
    "scan_d14_json": (["scan", "--dmax", "14", "--format", "json"], 0),
    "oracle_2_3_text_witness": (["oracle", "--n", "2", "--d", "3", "--witness-out", WITNESS], 0),
    "oracle_2_3_json": (["oracle", "--n", "2", "--d", "3", "--format", "json"], 0),
    "oracle_4_2_text": (["oracle", "--n", "4", "--d", "2"], 0),
    "oracle_evaluate_text": (["oracle", "--evaluate", STRATEGY], 0),
    "oracle_evaluate_json": (["oracle", "--evaluate", STRATEGY, "--format", "json"], 0),
    "simulate_full_text": (
        ["simulate", "--task", "full", "--d", "3", "--trials", "5000", "--seed", "7"], 0
    ),
    "simulate_restricted_json": (
        ["simulate", "--task", "restricted", "--d", "6", "--dprime", "5", "--trials", "5000",
         "--seed", "7", "--format", "json"], 0
    ),
    "simulate_majority_text": (
        ["simulate", "--task", "majority", "--n", "3", "--d", "4", "--trials", "5000",
         "--seed", "7"], 0
    ),
    "simulate_strategy_json": (
        ["simulate", "--strategy", STRATEGY, "--trials", "5000", "--seed", "7", "--format", "json"], 0
    ),
    "verify_text": (["verify"], 0),
}


def run_case(argv: list[str], workdir: Path) -> tuple[int, bytes, bytes | None]:
    """Exit status, stdout and witness file of one CLI call made in ``workdir``."""
    shutil.copy(GOLDEN / STRATEGY, workdir / STRATEGY)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    witness = workdir / WITNESS
    return code, out.getvalue().encode(), witness.read_bytes() if witness.exists() else None


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    argv, want_code = CASES[name]
    monkeypatch.chdir(tmp_path)
    code, stdout, witness = run_case(argv, tmp_path)
    assert code == want_code
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()
    want_witness = GOLDEN / f"{name}.witness"
    assert witness == (want_witness.read_bytes() if want_witness.exists() else None)


def regenerate() -> None:
    """Rewrite every golden file from the current code."""
    for name, (argv, want_code) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            previous = os.getcwd()
            os.chdir(tmp)
            try:
                code, stdout, witness = run_case(argv, Path(tmp))
            finally:
                os.chdir(previous)
        if code != want_code:
            raise SystemExit(f"{name}: exit status {code}, expected {want_code}")
        (GOLDEN / f"{name}.out").write_bytes(stdout)
        if witness is not None:
            (GOLDEN / f"{name}.witness").write_bytes(witness)
        print(f"wrote {name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
