"""The import boundary: the exact layers and commands run without NumPy, and
each command loads only the library modules it runs.  Every public name of
the library has a reader in the library or the benchmark.

The process tests start the CLI in a fresh interpreter, because the test
session itself has NumPy and every module loaded long before any test runs.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cext_osc
from cext_osc import susy
from cext_osc.cli import EXIT_INVALID, main
from conftest import PROG, Runner

SRC = str(Path(cext_osc.__file__).resolve().parents[1])
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
# Runs the CLI like RUN_CLI, then reports on a last stderr line, as JSON, the
# library modules it loaded, and click if it was loaded.
REPORT_MODULES = """
import json, runpy, sys
try:
    runpy.run_module("cext_osc.cli", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps(sorted(m for m in sys.modules
                            if m.startswith("cext_osc.") or m.partition(".")[0] == "click")),
          file=sys.stderr)
"""
# RUN_CLI with click made unimportable, as "block" makes NumPy
RUN_WITHOUT_CLICK = 'import sys\nsys.modules["click"] = None' + RUN_CLI
POINT = ["--alpha0", "0", "--alpha1", "1/2"]
# what each command loads besides the CLI itself; none loads click
MODULES_LOADED = [
    (["classify", *POINT], ["cext_osc.algebra", "cext_osc.spectrum"]),
    (["spectrum", *POINT], ["cext_osc.algebra"]),
    (["susy", *POINT], ["cext_osc.algebra", "cext_osc.susy"]),
    (["diagram", *POINT], ["cext_osc.algebra", "cext_osc.render", "cext_osc.spectrum"]),
    (["diagram", *POINT, "--ascii"], ["cext_osc.algebra", "cext_osc.render", "cext_osc.spectrum"]),
    (["diagram", *POINT, "--ascii", "--susy"],
     ["cext_osc.algebra", "cext_osc.render", "cext_osc.susy"]),
    # lambda != 3 has no label to title the diagram with
    (["diagram", "--lambda", "2", "--alpha", "1/2", "--ascii"],
     ["cext_osc.algebra", "cext_osc.render"]),
    (["sweep", "--random", "20", "--seed", "0"], ["cext_osc.algebra", "cext_osc.spectrum"]),
    (["sweep", "--grid", "0:1:1/2,0:1:1/2"], ["cext_osc.algebra", "cext_osc.spectrum"]),
    (["--help"], ["cext_osc.algebra"]),
    (["--version"], ["cext_osc.algebra"]),
]
# The package's listing when it imported every name of algebra, spectrum and susy
PUBLIC_NAMES = [
    "AlgebraParams", "DegeneracyPattern", "ExistenceViolation", "InadmissibleParams",
    "InvariantViolation", "Ladder", "NotPeriodic", "PatternDescriptor", "PeriodReport",
    "SpectrumType", "SqmReport", "SusyHierarchy", "UnsupportedLambda", "WindowViolation",
    "algebra", "build_hierarchy", "check_interlacing", "classify3", "classify_oracle",
    "cyclic_shift", "degeneracy_pattern", "detect_period", "expected_prefix",
    "label_from_key", "levels", "new_params",
    "oracle_agrees", "order_key", "projection_shift_identity", "representative_params",
    "shift_flags", "spectrum", "superalgebra_gap", "susy", "susy_window", "verify_sqm",
]
MODULE_ATTRIBUTES = [
    "__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__",
    "__package__", "__path__", "__spec__", "__version__",
]
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
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120, **kwargs)


def cli_process(args, block_numpy=False):
    """(exit code, stdout, stderr, NumPy loaded) of the CLI in a fresh process."""
    proc = python("-c", RUN_CLI, "block" if block_numpy else "allow", *args)
    *stderr, loaded = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, stderr, loaded == "True"


@pytest.fixture
def in_process():
    """Stdout of ``main`` run on the same arguments in this process."""
    def run(args):
        res = Runner().invoke(main, args, prog_name=PROG)
        assert res.exit_code == 0
        return res.stdout
    return run


def test_importing_the_cli_does_not_load_numpy():
    proc = python("-c", "import sys, cext_osc.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("args,loaded", MODULES_LOADED,
                         ids=[" ".join(args) for args, _ in MODULES_LOADED])
def test_command_loads_only_what_it_runs(args, loaded):
    proc = python("-c", REPORT_MODULES, *args)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == loaded


def test_importing_the_package_loads_no_submodule():
    proc = python("-c", "import sys, cext_osc; print(sorted(m for m in sys.modules "
                        "if m.startswith('cext_osc')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['cext_osc']\n"


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


@pytest.mark.parametrize("args", [["classify", *POINT], ["susy", *POINT], ["--help"]],
                         ids=" ".join)
def test_command_runs_without_click(args, in_process):
    proc = python("-c", RUN_WITHOUT_CLICK, "allow", *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == in_process(args)


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

    def test_listing_is_the_eager_packages(self):
        code = """
import json, cext_osc
listed = dir(cext_osc)
star = {}
exec("from cext_osc import *", star)
print(json.dumps([listed, sorted(name for name in star if name != "__builtins__")]))
"""
        proc = python("-c", code)
        assert proc.returncode == 0, proc.stderr
        listed, star = json.loads(proc.stdout)
        assert listed == sorted(PUBLIC_NAMES + MODULE_ATTRIBUTES)
        assert star == PUBLIC_NAMES

    def test_name_is_bound_on_first_read(self):
        code = """
import sys, cext_osc
before = "classify3" in vars(cext_osc)
cext_osc.classify3
print(before, "classify3" in vars(cext_osc), "cext_osc.spectrum" in sys.modules,
      "cext_osc.susy" in sys.modules)
"""
        proc = python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False True True False\n"

    def test_submodule_by_name(self):
        from cext_osc import fockrep, render

        assert fockrep.__name__ == "cext_osc.fockrep"
        assert render.__name__ == "cext_osc.render"
        assert cext_osc.algebra.__name__ == "cext_osc.algebra"


ROOT = Path(__file__).resolve().parents[1]


def reads(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree``: as a name, an attribute or a whole string."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1  # a name looked up by string, as bench/tracing.py does
    return found


def definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function and class, and of each method."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name, top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    yield f"{top.name}.{node.name}", node


def unread_public_names() -> list[str]:
    """The library's public functions, classes and methods that nothing outside their def reads.

    Readers are the library and ``bench/``; the package's ``__init__`` only lists names for
    export, so it reads none.  A function registered by a decorator that the library
    defines, such as a CLI command, counts as read.
    """
    def parse(directory):
        return {path: ast.parse(path.read_text()) for path in (ROOT / directory).glob("*.py")}

    library, bench = parse("src/cext_osc"), parse("bench")
    assert library and bench, f"no sources under {ROOT}"  # else every name would pass unread
    total = Counter()
    for path, tree in [*library.items(), *bench.items()]:
        if path != ROOT / "src/cext_osc/__init__.py":
            total += reads(tree)
    registrars = {node.name for tree in library.values() for node in tree.body
                  if isinstance(node, ast.FunctionDef)}
    unread = []
    for path, tree in sorted(library.items()):
        for name, node in definitions(tree):
            registered = any(isinstance(d, ast.Call) and getattr(d.func, "id", None) in registrars
                             for d in node.decorator_list)
            public = not node.name.startswith("_")
            if public and not registered and total[node.name] == reads(node)[node.name]:
                unread.append(f"{path.stem}.{name}")
    return unread


def test_every_public_name_has_a_reader():
    # a name only tests call belongs with the tests, as a reference, not in the library
    assert unread_public_names() == []
