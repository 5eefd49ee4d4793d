"""The package namespace: what ``racsim.__all__`` exports, and what each process loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import racsim

SRC = str(Path(racsim.__file__).resolve().parent.parent)
WITNESS = str(Path(__file__).resolve().parent / "golden" / "oracle_2_3_text_witness.witness")

#: Runs ``racsim.cli.main`` on its arguments with stdout discarded, then prints
#: the exit status and every loaded ``racsim`` module.
MAIN_SCRIPT = """
import contextlib, io, sys
from racsim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(name for name in sys.modules if name.partition(".")[0] == "racsim"))
"""

CORE = {"racsim", "racsim.cli", "racsim.quantum", "racsim.qudit", "racsim.report"}


def fresh_process(*args: str) -> list[str]:
    path = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_every_export_resolves_once():
    assert len(set(racsim.__all__)) == len(racsim.__all__)
    missing = [name for name in racsim.__all__ if not hasattr(racsim, name)]
    assert missing == []


@pytest.mark.parametrize("name", racsim.__all__)
def test_export_is_the_object_its_module_defines(name):
    obj = getattr(racsim, name)
    assert obj.__module__.startswith("racsim.")
    assert getattr(sys.modules[obj.__module__], name) is obj
    assert vars(racsim)[name] is obj  # bound on first use, so later reads are plain lookups


def test_dir_lists_every_export():
    assert set(racsim.__all__) <= set(dir(racsim))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from racsim import *", namespace)
    assert {name: namespace[name] for name in racsim.__all__} == {
        name: getattr(racsim, name) for name in racsim.__all__
    }


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        racsim.no_such_name  # noqa: B018
    assert not hasattr(racsim, "no_such_name")


def test_search_error_is_one_class_in_report_and_classical():
    import racsim.classical
    import racsim.report

    assert racsim.InfeasibleSearchError is racsim.classical.InfeasibleSearchError
    assert racsim.InfeasibleSearchError is racsim.report.InfeasibleSearchError
    assert issubclass(racsim.InfeasibleSearchError, ValueError)


def test_bare_import_loads_no_module_and_not_numpy():
    script = "import sys, racsim; print(*sorted(m for m in sys.modules if m.startswith(('racsim', 'numpy'))))"
    assert fresh_process("-c", script) == ["racsim"]


def test_module_read_as_an_attribute_is_imported_alone():
    script = "import sys, racsim; racsim.qudit.root_of_unity; print(*sorted(m for m in sys.modules if 'racsim' in m))"
    assert fresh_process("-c", script) == ["racsim", "racsim.qudit", "racsim.report"]


#: Each command, and the racsim modules it loads besides CORE.
COMMANDS = {
    "version": (["--version"], set()),
    "exact-text": (["exact", "--task", "full", "--d", "3"], set()),
    "exact-json": (["exact", "--task", "restricted", "--d", "6", "--dprime", "5", "--format", "json"], set()),
    "scan": (["scan", "--dmax", "8"], {"advantage", "classical"}),
    "oracle": (["oracle", "--n", "2", "--d", "3"], {"classical"}),
    "oracle-evaluate": (["oracle", "--evaluate", WITNESS], {"classical"}),
    "simulate-full": (["simulate", "--task", "full", "--d", "3", "--trials", "10"], {"classical", "montecarlo"}),
    "simulate-majority": (["simulate", "--task", "majority", "--n", "2", "--d", "3", "--trials", "10"],
                          {"classical", "montecarlo"}),
    "simulate-strategy": (["simulate", "--strategy", WITNESS, "--trials", "10"], {"classical", "montecarlo"}),
    "verify": (["verify"], {"advantage", "classical"}),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_the_modules_it_calls(command):
    argv, extra = COMMANDS[command]
    code, *modules = fresh_process("-c", MAIN_SCRIPT, *argv)
    assert code == "0"
    assert set(modules) == CORE | {f"racsim.{name}" for name in extra}
