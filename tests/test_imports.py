"""The import boundary: the exact layers and commands run without NumPy.

The process tests start the CLI in a fresh interpreter, because the test
session itself has NumPy loaded long before any test runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cext_osc
from cext_osc import susy
from cext_osc.cli import EXIT_INVALID, main

SRC = str(Path(cext_osc.__file__).resolve().parents[1])
PROG = "python -m cext_osc.cli"
# Runs the CLI as `python -m cext_osc.cli` would, then reports on a last
# stderr line whether NumPy was loaded.  With "block" first, NumPy is made
# unimportable: `import numpy` raises ImportError.
RUN_CLI = """
import runpy, sys
if sys.argv.pop(1) == "block":
    sys.modules["numpy"] = None
try:
    runpy.run_module("cext_osc.cli", run_name="__main__", alter_sys=True)
finally:
    print(sys.modules.get("numpy") is not None, file=sys.stderr)
"""
EXACT_COMMANDS = [
    ["classify", "--alpha0", "0", "--alpha1", "6"],
    ["spectrum", "--alpha0", "2", "--alpha1", "8"],
    ["sweep", "--random", "20", "--seed", "0"],
    ["diagram", "--alpha0", "0", "--alpha1", "1/2", "--ascii"],
    ["diagram", "--alpha0", "2", "--alpha1", "8"],
    ["diagram", "--alpha0", "0", "--alpha1", "1/2", "--ascii", "--susy"],
    # susy decides the superalgebra in integers: no command calls fockrep or
    # verify_sqm, the library's float realization and NumPy's only users
    ["susy", "--alpha0", "0", "--alpha1", "1/2"],
    ["susy", "--alpha0", "0", "--alpha1", "1/2", "--truncation", "480"],
    ["--help"],
]


def python(*args, **kwargs):
    # click wraps the help to COLUMNS; in_process sets the same width
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120, **kwargs)


def cli_process(args, block_numpy=False):
    """(exit code, stdout, stderr, NumPy loaded) of the CLI in a fresh process."""
    proc = python("-c", RUN_CLI, "block" if block_numpy else "allow", *args)
    *stderr, loaded = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, stderr, loaded == "True"


@pytest.fixture
def in_process(capsys, monkeypatch):
    """Stdout of ``main`` run on the same arguments in this process.

    Not CliRunner: it wraps the help at 80 columns, which no terminal gets.
    """
    monkeypatch.setenv("COLUMNS", "80")

    def run(args):
        with pytest.raises(SystemExit) as done:
            main.main(args, prog_name=PROG)
        assert done.value.code == 0
        return capsys.readouterr().out
    return run


def test_importing_the_cli_does_not_load_numpy():
    proc = python("-c", "import sys, cext_osc.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_exact_susy_checks_run_without_numpy():
    code = """
import sys
sys.modules["numpy"] = None
from fractions import Fraction
import cext_osc.susy as susy
from cext_osc import new_params
h = susy.build_hierarchy(new_params(3, [0, Fraction(1, 2)]), 60)
print(susy.check_interlacing(h, 57), susy.projection_shift_identity(h),
      "cext_osc.fockrep" in sys.modules)
"""
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True False\n"


@pytest.mark.parametrize("args", EXACT_COMMANDS, ids=" ".join)
def test_exact_command_runs_without_numpy(args, in_process):
    code, stdout, stderr, loaded = cli_process(args, block_numpy=True)
    assert code == 0, stderr
    assert not loaded
    assert stdout == in_process(args)


def limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(sys.platform != "linux", reason="limits the child's address space")
def test_large_truncation_fits_in_bounded_memory():
    # dense K x K matrices at K = 20000 need about 3 GiB; the exact checks need little
    proc = python("-c", RUN_CLI, "allow", "susy", "--alpha0", "0", "--alpha1", "1/2",
                  "--truncation", "20000", preexec_fn=limit_address_space)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["susy"]["relations_pass"] is True
    assert proc.stderr.splitlines() == ["False"]


@pytest.mark.skipif(sys.platform != "linux", reason="limits the child's address space")
def test_large_lambda_fits_in_bounded_memory():
    # lambda + 1 members of K levels each would not fit; as ladders they hold lambda firsts each
    alphas = [f"--alpha={'-' if mu % 2 else ''}1/2" for mu in range(149)]
    proc = python("-c", RUN_CLI, "allow", "susy", "--lambda", "150", *alphas,
                  "--truncation", "1000000", preexec_fn=limit_address_space)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["susy"]["relations_pass"] is True


def test_susy_outside_window_is_one_error_line():
    # admissible (F(1), F(2) > 0) but 1 + alpha_2 = -5 <= 0: no hierarchy
    code, stdout, stderr, _ = cli_process(["susy", "--alpha0", "0", "--alpha1", "6"])
    assert code == EXIT_INVALID
    assert stdout == ""
    assert len(stderr) == 1 and stderr[0].startswith("error: ")


class TestLazyNames:
    """The package binds the exact layers' names; ``fockrep`` is imported only by name."""

    def test_package_names_resolve_without_numpy(self):
        code = """
import sys
sys.modules["numpy"] = None
import cext_osc
public = [name for name in dir(cext_osc) if not name.startswith("_")]
for name in public:
    getattr(cext_osc, name)
print({"new_params", "order_key", "verify_sqm", "susy"} <= set(public),
      "build_operators" in public, "cext_osc.fockrep" in sys.modules)
try:
    import cext_osc.fockrep
except ImportError:
    print("ImportError")
"""
        proc = python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True False False\nImportError\n"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cext_osc.no_such_name
        assert not hasattr(cext_osc, "NegativeStructureValue")

    def test_window_violation_is_one_class(self):
        assert cext_osc.WindowViolation is susy.WindowViolation
