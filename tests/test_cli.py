import json
import os
import select
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cext_osc
from cext_osc import new_params
from cext_osc.algebra import MAX_EXPONENT
from cext_osc.cli import EXIT_INVALID, EXIT_VERIFY_FAIL, MAX_BITS, SCHEMA_VERSION, main
from cext_osc.render import diagram_spec, render_ascii
from conftest import PROG, Runner


@pytest.fixture
def runner():
    return Runner()


def run(runner, *args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


SRC = str(Path(cext_osc.__file__).resolve().parents[1])
# Runs the CLI on the arguments that follow; at exit it prints the process's
# own peak RSS (VmHWM, in kB) as the last stderr line.
REPORT_VMHWM = """
import atexit, sys
from cext_osc.cli import main

def report():
    with open("/proc/self/status") as fh:
        print(next(l.split()[1] for l in fh if l.startswith("VmHWM:")), file=sys.stderr)

atexit.register(report)
main(sys.argv[1:])
"""


def fresh_cli(args, script="from cext_osc.cli import main; main()", **kwargs):
    """The CLI in a fresh interpreter, with stdout and stderr piped."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.Popen([sys.executable, "-c", script, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, **kwargs)


@pytest.mark.parametrize("args,env", [
    (["classify", "--levels", "0"], None),
    (["susy", "--truncation", "3"], None),
    (["susy", "--truncation", "0"], None),
    (["diagram", "--levels", "0"], None),
    (["diagram", "--levels", "0", "--susy", "--ascii"], None),
    (["sweep", "--random", "5", "--levels", "0"], None),
    (["susy"], {"CEXT_OSC_DEFAULT_TRUNCATION": "abc"}),
    (["spectrum", "--count", "0"], None),
    (["spectrum", "--count", "-3"], None),
    (["sweep", "--random", "0"], None),
    (["sweep", "--random", "-5"], None),
    (["--bogus"], None),
    (["bogus"], None),
    (["classify", "--format", "xml"], None),
    (["diagram", "--out", "no-such-dir/levels.svg"], None),
    (["diagram", "--out", "."], None),
    (["susy", "--alpha0", "0", "--alpha1", "1/2", "--tol", "nan"], None),
    (["susy", "--alpha0", "0", "--alpha1", "1/2", "--tol", "inf"], None),
    (["susy", "--alpha0", "0", "--alpha1", "1/2", "--tol", "-inf"], None),
    (["susy", "--alpha0", "0", "--alpha1", "1/2", "--tol", "-1"], None),
    (["classify", "--alpha", "1", "--alpha", "1", "--alpha0", "5"], None),
    (["classify", "--lambda", "2", "--alpha0", "1/2", "--alpha1", "5"], None),
    (["spectrum", "--alpha0", "0", "--alpha1", "1e400"], None),
    (["diagram", "--alpha0", "0", "--alpha1", "1e400"], None),
    # a grid spec is parsed whole before the first point is printed
    (["sweep", "--grid", "0:1"], None),
    (["sweep", "--grid", "0:1:1,0:1:0"], None),
    (["sweep", "--grid", "0:1:1,0:x:1"], None),
    (["sweep", "--grid", "0:1:1,0:1:1", "--random", "5"], None),
    # a truncation above 10**6 is refused: the cap is an input bound, not a cost bound
    (["susy", "--alpha0", "0", "--alpha1", "1/2", "--truncation", "1000001"], None),
    (["susy", "--alpha0", "0", "--alpha1", "1/2"], {"CEXT_OSC_DEFAULT_TRUNCATION": "1000001"}),
    # level counts are capped at 10**5, where each command fits in bounded memory
    (["classify", "--levels", "100001"], None),
    (["spectrum", "--count", "100001"], None),
    (["diagram", "--levels", "100001"], None),
    (["diagram", "--levels", "100001", "--susy", "--ascii"], None),
])
def test_invalid_input_exits_2(runner, args, env):
    # usage errors and the library's input errors end the same way
    res = run(runner, *args, env=env)
    assert res.exit_code == EXIT_INVALID
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("error: ")


def test_bare_command_prints_help(runner):
    # not an input error, but its exit code: the help goes to stderr, not stdout
    res = runner.invoke(main, [])
    assert res.exit_code == EXIT_INVALID
    assert res.stdout == ""
    assert "Commands:" in res.output
    assert "error:" not in res.output.lower()


@pytest.mark.parametrize("args,message", [
    (["classify", "--alph", "1/2"],
     "No such option '--alph'. (Did you mean one of: '--alpha', '--alpha0', '--alpha1'?)"),
    (["susy", "--tole=1"], "No such option '--tole'. Did you mean '--tol'?"),
    # '-xy' is read as the short options -x and -y, of which there are none
    (["classify", "-xy"], "No such option '-x'."),
    # a word after `--` that looks like an option is read again as one of the group's
    (["--", "-x"], "No such option '-x'."),
    (["clasify"], "No such command 'clasify'. Did you mean 'classify'?"),
    (["--vers"], "No such option '--vers'. Did you mean '--version'?"),
    (["--"], "Missing command."),
    (["spectrum", "x", "y"], "Got unexpected extra arguments (x y)"),
    # terminal codes are dropped from echoed text that does not go to a terminal
    (["spectrum", "\x1b[31mx"], "Got unexpected extra argument (x)"),
    (["spectrum", "--", "--count"], "Got unexpected extra argument (--count)"),
    (["susy", "--tol"], "Option '--tol' requires an argument."),
    (["diagram", "--ascii=yes"], "Option '--ascii' does not take a value."),
    (["classify", "--lambda", "three"],
     "Invalid value for '--lambda': 'three' is not a valid integer."),
    (["susy", "--tol", "small"], "Invalid value for '--tol': 'small' is not a valid float."),
    # options are checked in the order first given
    (["classify", "--format", "xml", "--levels", "0"],
     "Invalid value for '--format': 'xml' is not one of 'json', 'text'."),
    # the point rule, in the order of its refusals
    (["classify", "--alpha", "1", "--alpha0", "5"],
     "give the point by --alpha or by --alpha0, not both"),
    (["classify", "--lambda", "2", "--alpha0", "1/2", "--alpha1", "5"],
     "lambda=2 takes --alpha0 only, not --alpha1"),
    (["classify", "--lambda", "4", "--alpha", "1"], "--alpha given 1 times, lambda=4 needs 3"),
    (["classify", "--lambda", "4"], "lambda=4 needs 3 parameters; use repeated --alpha"),
    # the head is parsed before its length is checked
    (["classify", "--lambda", "4", "--alpha0", "x"], "cannot parse rational 'x'"),
    (["classify", "--lambda", "1"], "lambda must be >= 2, got 1"),
    (["classify", "--lambda", "1", "--alpha0", "x"], "cannot parse rational 'x'"),
    # a lambda below 2 is refused as such, not by the count of --alpha values
    (["classify", "--lambda", "0", "--alpha", "1"], "lambda must be >= 2, got 0"),
    (["classify", "--lambda", "-1", "--alpha", "1", "--alpha", "2"],
     "lambda must be >= 2, got -1"),
])
def test_usage_error_wording(runner, args, message):
    res = run(runner, *args)
    assert res.exit_code == EXIT_INVALID
    assert res.stdout == ""
    assert res.stderr == f"error: {message}\n"


@pytest.mark.parametrize("args", [
    # a value may start with "-", and may follow "="
    ["classify", "--alpha0", "-1/2", "--alpha1", "1/3"],
    ["classify", "--alpha0=-1/2", "--alpha1=1/3"],
    # a repeated option keeps its last value
    ["classify", "--alpha0", "5", "--alpha1", "1/3", "--alpha0", "-1/2"],
    ["classify", "--lambda=3", "--alpha", "-1/2", "--alpha=1/3"],
])
def test_option_forms(runner, args):
    res = run(runner, *args)
    assert res.exit_code == 0
    assert json.loads(res.stdout)["parameters"]["alphas"] == ["-1/2", "1/3", "1/6"]


@pytest.mark.parametrize("args", [
    ["classify", "--levels", "0", "--help"],
    ["sweep", "--random", "x", "--help", "--seed", "y"],
    ["diagram", "extra", "--help"],
])
def test_help_acts_first_wherever_it_stands(runner, args):
    res = run(runner, *args)
    assert res.exit_code == 0
    assert res.stdout.startswith(f"Usage: {PROG} {args[0]} [OPTIONS]\n")
    assert res.stderr == ""


@pytest.mark.parametrize("columns", ["40", "200"])
def test_help_width_does_not_follow_the_terminal(columns):
    env = {**os.environ, "COLUMNS": columns, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-m", "cext_osc.cli", "--help"], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (Path(__file__).parent / "golden" / "help.out").read_bytes()


def test_closed_pipe_exits_1_quietly():
    # `cext-osc sweep --random 100000 | head -1`: the reader leaves after one line
    proc = fresh_cli(["sweep", "--random", "100000"])
    try:
        assert json.loads(proc.stdout.readline())["label"]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
    assert err == ""


def test_interrupt_exits_1_with_one_line():
    proc = fresh_cli(["sweep", "--random", "100000"])
    try:
        assert json.loads(proc.stdout.readline())["label"]
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert err == "\nAborted!\n"


def _raise_value_error(*args):
    raise ValueError("internal fault")


@pytest.mark.parametrize("target,fault,exc_type", [
    ("cext_osc.spectrum.degeneracy_pattern", _raise_value_error, ValueError),
    ("cext_osc.spectrum.period3_omegas", lambda p, t: None, AssertionError),
])
def test_internal_fault_is_not_invalid_input(runner, monkeypatch, target, fault,
                                             exc_type):
    # a fault of the library is not the user's input error: no exit 2
    monkeypatch.setattr(target, fault)
    res = runner.invoke(main, ["classify", "--alpha0", "0", "--alpha1", "1/2"])
    assert res.exit_code != EXIT_INVALID
    assert isinstance(res.exception, exc_type)


class TestClassify:
    def test_json_report(self, runner):
        res = run(runner, "classify", "--alpha0", "0", "--alpha1", "6")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["spectrum_type"]["label"] == "I.1.2"
        assert doc["parameters"]["alphas"] == ["0", "6", "-6"]

    def test_exact_rational_option(self, runner):
        res = run(runner, "classify", "--alpha0", "1/3", "--alpha1", "1/3")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["parameters"]["alphas"][0] == "1/3"
        assert doc["spectrum_type"]["label"] == "I.1.1"

    def test_round_trip(self, runner):
        res = run(runner, "classify", "--alpha0", "2", "--alpha1", "8")
        doc = json.loads(res.output)
        assert json.loads(json.dumps(doc)) == doc
        assert doc["spectrum_type"]["label"] == "I.2.abc"
        groups = doc["degeneracy_groups"]
        assert groups[2]["indices"] == [1, 2, 6]
        assert groups[2]["energy"] == "15/2"

    def test_text_format(self, runner):
        res = run(runner, "classify", "--alpha0", "0", "--alpha1", "0",
                  "--format", "text")
        assert res.exit_code == 0
        assert "I.1.1" in res.output

    def test_period_report_when_periodic(self, runner):
        res = run(runner, "classify", "--alpha0", "0", "--alpha1", "1/2")
        doc = json.loads(res.output)
        assert doc["period"] is not None
        assert doc["period"]["omegas"] == ["5/4", "1", "3/4"]
        res = run(runner, "classify", "--alpha0", "0", "--alpha1", "10")
        assert json.loads(res.output)["period"] is None

    def test_short_prefix_reports_no_period(self, runner):
        # the first 9 levels look periodic; the spectrum is not
        res = run(runner, "classify", "--alpha0", "19", "--alpha1", "13",
                  "--levels", "9")
        assert res.exit_code == 0
        assert json.loads(res.output)["period"] is None

    def test_inadmissible_exits_2(self, runner):
        res = run(runner, "classify", "--alpha0", "-2", "--alpha1", "0")
        assert res.exit_code == EXIT_INVALID

    def test_decimal_input_is_exact(self, runner):
        res = run(runner, "classify", "--alpha0", "0.5", "--alpha1", "0")
        assert res.exit_code == 0
        assert json.loads(res.output)["parameters"]["alphas"][0] == "1/2"

    def test_general_lambda_has_no_label(self, runner):
        res = run(runner, "classify", "--lambda", "4",
                  "--alpha", "0", "--alpha", "0", "--alpha", "0")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["spectrum_type"] is None
        assert doc["period"]["omegas"] == ["1", "1", "1", "1"]


class TestSpectrum:
    def test_level_table(self, runner):
        res = run(runner, "spectrum", "--alpha0", "0", "--alpha1", "0",
                  "--count", "3")
        assert res.exit_code == 0
        assert "1/2" in res.output and "3/2" in res.output and "5/2" in res.output

    def test_general_lambda(self, runner):
        res = run(runner, "spectrum", "--lambda", "2",
                  "--alpha", "1/2", "--count", "4")
        assert res.exit_code == 0


class TestSusy:
    def test_pass_report(self, runner):
        res = run(runner, "susy", "--alpha0", "0", "--alpha1", "1/2")
        assert res.exit_code == 0
        doc = json.loads(res.output)["susy"]
        assert doc["omegas"] == ["1", "3/2", "1/2"]
        assert doc["ground_energies"] == ["0", "1", "5/2", "3"]
        assert doc["relations_pass"] is True
        assert doc["max_residual"] == 0.0

    @pytest.mark.parametrize("flags", [(False, True), (True, False)])
    def test_failed_shift_flag_exits_3(self, runner, monkeypatch, flags):
        # build_hierarchy makes both flags hold, so a failing one is patched in
        monkeypatch.setattr("cext_osc.susy.shift_flags", lambda h: flags)
        res = run(runner, "susy", "--alpha0", "0", "--alpha1", "1/2")
        assert res.exit_code == EXIT_VERIFY_FAIL
        doc = json.loads(res.output)["susy"]
        assert doc["relations_pass"] is False
        assert doc["hierarchy_shift_exact"] is flags[0]

    @pytest.mark.parametrize("tol,code", [(0.126, 0), (0.125, EXIT_VERIFY_FAIL)])
    def test_residual_is_held_to_a_strict_tol(self, runner, monkeypatch, tol, code):
        monkeypatch.setattr("cext_osc.susy.superalgebra_gap", lambda h: Fraction(1, 8))
        monkeypatch.setattr("cext_osc.susy.projection_shift_identity", lambda h, tol: True)
        res = run(runner, "susy", "--alpha0", "0", "--alpha1", "1/2", "--tol", str(tol))
        assert res.exit_code == code
        doc = json.loads(res.output)["susy"]
        assert doc["max_residual"] == 0.125
        assert doc["relations_pass"] is (code == 0)

    def test_window_violation_exits_2(self, runner):
        res = run(runner, "susy", "--alpha0", "0", "--alpha1", "6")
        assert res.exit_code == EXIT_INVALID
        assert "omega_2" in res.output

    def test_truncation_env_var(self, runner):
        res = run(runner, "susy", "--alpha0", "0", "--alpha1", "0",
                  env={"CEXT_OSC_DEFAULT_TRUNCATION": "24"})
        assert json.loads(res.output)["susy"]["truncation"] == 24

    def test_empty_truncation_env_var_counts_as_unset(self, runner):
        res = run(runner, "susy", "--alpha0", "0", "--alpha1", "0",
                  env={"CEXT_OSC_DEFAULT_TRUNCATION": ""})
        assert json.loads(res.output)["susy"]["truncation"] == 60

    def test_truncation_option_wins(self, runner):
        res = run(runner, "susy", "--alpha0", "0", "--alpha1", "0",
                  "--truncation", "16",
                  env={"CEXT_OSC_DEFAULT_TRUNCATION": "24"})
        assert json.loads(res.output)["susy"]["truncation"] == 16

    def test_impossible_tolerance_exits_3(self, runner):
        res = run(runner, "susy", "--alpha0", "0", "--alpha1", "1/2",
                  "--tol", "0")
        assert res.exit_code == EXIT_VERIFY_FAIL


class TestSweep:
    def test_grid(self, runner):
        res = run(runner, "sweep", "--grid", "0:1:1,0:1:1")
        assert res.exit_code == 0
        lines = [json.loads(l) for l in res.output.strip().splitlines()]
        summary = lines[-1]
        assert summary["points"] == 4
        assert summary["oracle_disagreements"] == 0
        assert sum(summary["labels"].values()) == 4
        point_lines = lines[:-1]
        assert len(point_lines) == 4
        assert all("label" in l and "alpha0" in l for l in point_lines)

    def test_grid_reports_inadmissible_points(self, runner):
        res = run(runner, "sweep", "--grid", "-1:0:1,0:0:1")
        assert res.exit_code == 0
        bad, good, summary = [json.loads(l) for l in res.output.strip().splitlines()]
        assert list(bad) == ["alpha0", "alpha1", "error"]
        assert (bad["alpha0"], bad["alpha1"]) == ("-1", "0")
        assert "F(1) = 0" in bad["error"]
        assert list(good) == ["alpha0", "alpha1", "label", "oracle_agrees"]
        assert summary["points"] == 2
        assert summary["labels"] == {good["label"]: 1}

    def test_random_deterministic(self, runner):
        a = run(runner, "sweep", "--random", "20", "--seed", "7")
        b = run(runner, "sweep", "--random", "20", "--seed", "7")
        assert a.output == b.output
        summary = json.loads(a.output.strip().splitlines()[-1])
        assert summary["points"] == 20
        assert summary["oracle_disagreements"] == 0

    def test_requires_mode(self, runner):
        res = run(runner, "sweep")
        assert res.exit_code == EXIT_INVALID

    def test_grid_axes_match_repeated_addition(self, runner):
        res = run(runner, "sweep", "--grid", "-1/3:7/12:1/4,1/7:1/7:1")
        lines = [json.loads(l) for l in res.output.strip().splitlines()]
        assert [l["alpha0"] for l in lines[:-1]] == ["-1/3", "-1/12", "1/6", "5/12"]
        assert {l["alpha1"] for l in lines[:-1]} == {"1/7"}
        assert run(runner, "sweep", "--grid", "1:0:1,0:1:1").output.splitlines() == [
            json.dumps({"summary": True, "points": 0, "labels": {},
                        "oracle_disagreements": 0})]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak RSS (VmHWM) from /proc")
    def test_memory_does_not_grow_with_the_point_count(self):
        # VmHWM, not ru_maxrss: a child's ru_maxrss starts at its parent's high-water mark
        def peak_kb(count):
            proc = fresh_cli(["sweep", "--random", str(count)], REPORT_VMHWM)
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            return int(err.split()[-1])

        small, large = peak_kb(2000), peak_kb(20000)
        assert abs(large - small) < 3 * 1024, (small, large)

    @pytest.mark.skipif(sys.platform != "linux", reason="limits the child's address space")
    def test_huge_grid_prints_its_first_line_at_once(self):
        # 10^9 + 1 values of alpha0: an axis built as a list would exhaust the limit
        import resource

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        proc = fresh_cli(["sweep", "--grid", "0:1:1/1000000000,0:0:1"],
                         preexec_fn=limit_address_space)
        try:
            assert select.select([proc.stdout], [], [], 10)[0], "no line within 10 s"
            first = proc.stdout.readline()
        finally:
            proc.kill()
            proc.communicate()
        assert json.loads(first) == {"alpha0": "0", "alpha1": "0", "label": "I.1.1",
                                     "oracle_agrees": True}


@pytest.mark.skipif(sys.platform != "linux", reason="limits the child's address space")
@pytest.mark.parametrize("args", [
    ["classify", "--levels", "100000"],
    ["spectrum", "--count", "100000"],
    ["diagram", "--levels", "100000", "--ascii"],
    ["diagram", "--levels", "100000", "--susy"],
], ids=" ".join)
def test_level_cap_fits_in_bounded_memory(args):
    # each command at its largest accepted level count finishes under a 1 GB address space
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = fresh_cli([*args, "--alpha0", "0", "--alpha1", "1/2"], preexec_fn=limit_address_space)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err[-2000:]
    assert err == ""
    assert out.count("\n") >= 100000


# two 3002-digit denominators: each is under the cap, their lcm is not
HUGE_A, HUGE_B = f"1/1{'0' * 3000}1", f"1/1{'0' * 3000}3"
HUGE_POINT = ["--alpha0", HUGE_A, "--alpha1", HUGE_B]


@pytest.mark.parametrize("args", [
    # 10**99999999 would take minutes to build
    ["classify", "--alpha0", "1e99999999"],
    # a 4401-digit denominator, beyond Python's int-to-str limit
    ["classify", "--alpha0", "1e-4400"],
    ["classify", *HUGE_POINT],
    ["spectrum", *HUGE_POINT],
    ["susy", *HUGE_POINT],
    ["diagram", *HUGE_POINT, "--ascii"],
    ["sweep", "--grid", f"0:1:{HUGE_A},0:1:{HUGE_B}"],
], ids=lambda args: " ".join(a[:12] for a in args))
def test_huge_rational_exits_2(args):
    # refused before any value is built or printed: no hang, no int-to-str traceback
    proc = fresh_cli(args)
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == EXIT_INVALID, err[-2000:]
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestIntegerFormCap:
    """A point or grid is refused iff its integer form needs more than MAX_BITS bits."""

    @pytest.mark.parametrize("alpha0,code", [
        (str(2**MAX_BITS - 1), 0),
        (str(2**MAX_BITS), EXIT_INVALID),
        (f"1/{2**MAX_BITS - 1}", 0),
        (f"1/{2**MAX_BITS}", EXIT_INVALID),
    ], ids=["numerator-at-cap", "numerator-past-cap", "denominator-at-cap",
            "denominator-past-cap"])
    def test_point(self, runner, alpha0, code):
        res = runner.invoke(main, ["classify", "--alpha0", alpha0, "--alpha1", "0"])
        assert res.exit_code == code, res.stderr
        if code:
            assert res.stdout == ""
            assert res.stderr == (
                f"error: the point needs more than {MAX_BITS} bits over one denominator\n")

    def test_sum_of_magnitudes_counts(self, runner):
        # each entry fits, their sum does not: the closing alpha would be -(alpha0 + alpha1)
        half = str(2**(MAX_BITS - 1))
        res = runner.invoke(main, ["classify", "--alpha0", half, "--alpha1", half])
        assert res.exit_code == EXIT_INVALID
        assert res.stdout == ""

    @pytest.mark.parametrize("step,code", [
        (f"1/{2**MAX_BITS - 1}", 0),
        (f"1/{2**MAX_BITS}", EXIT_INVALID),
    ], ids=["at-cap", "past-cap"])
    def test_grid(self, runner, step, code):
        # a one-point grid whose steps carry the large denominator
        res = runner.invoke(main, ["sweep", "--grid", f"0:0:{step},0:0:{step}"])
        assert res.exit_code == code, res.stderr
        assert len(res.stdout.splitlines()) == (0 if code else 2)

    def test_caps_are_in_the_help(self, runner):
        help_text = runner.invoke(main, ["--help"]).output
        assert f"{MAX_BITS} bits" in help_text
        assert f"at\n  most {MAX_EXPONENT} in magnitude" in help_text


def render_ascii_by_scan(spec):
    """The ASCII diagram as first written: each row scans every level of every column."""
    energies = sorted({e for col in spec.columns for _, e in col}, reverse=True)
    colw = 10
    lines = [" " * 10 + "".join(f"{name:^{colw}}" for name in spec.column_names)]
    for e in energies:
        cells = []
        for col in spec.columns:
            hits = [idx for idx, ce in col if ce == e]
            cells.append(f"--{hits[0]}--".center(colw) if hits else " " * colw)
        lines.append(f"{str(e):>9} " + "".join(cells).rstrip())
    return "\n".join(lines)


class TestDiagram:
    @pytest.mark.parametrize("head,susy_mode", [
        ([0, Fraction(1, 2)], False), ([0, 6], False), ([2, 8], False), ([10, 2], False),
        ([14, -10], False), ([Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4)], False),
        # the hierarchy needs a point inside the SUSY window
        ([0, Fraction(1, 2)], True), ([Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4)], True),
    ])
    @pytest.mark.parametrize("count", [1, 7, 40])
    def test_ascii_matches_the_scanning_renderer(self, head, susy_mode, count):
        spec = diagram_spec(new_params(len(head) + 1, head), count, susy_mode)
        assert render_ascii(spec) == render_ascii_by_scan(spec)

    def test_svg_output(self, runner, tmp_path):
        out = tmp_path / "d.svg"
        res = run(runner, "diagram", "--alpha0", "0", "--alpha1", "6",
                  "--out", str(out))
        assert res.exit_code == 0
        text = out.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert "I.1.2" in text

    def test_ascii_output(self, runner):
        res = run(runner, "diagram", "--alpha0", "0", "--alpha1", "1/2",
                  "--ascii")
        assert res.exit_code == 0
        assert res.output.count("--0--") == 1 and res.output.count("--") > 20

    def test_susy_mode_columns(self, runner):
        res = run(runner, "diagram", "--alpha0", "0", "--alpha1", "1/2",
                  "--ascii", "--susy")
        assert res.exit_code == 0
        header = res.output.splitlines()[0]
        assert header.split() == ["H(0)", "H(1)", "H(2)", "H(3)"]

    def test_wide_spread_thins_the_ticks(self):
        # a tick every 3 would be about 10**6 / 3 of them
        spec = diagram_spec(new_params(3, [0, 10**6]), 18)
        assert len(spec.ticks) <= 2 * 18 + 1
        stride = spec.ticks[1] - spec.ticks[0]
        assert stride > 3 and stride % 3 == 0
        assert all(b - a == stride for a, b in zip(spec.ticks, spec.ticks[1:]))
        # every level lies within one stride of the axis
        energies = [e for col in spec.columns for _, e in col]
        assert spec.ticks[0] == min(energies)
        assert max(energies) - spec.ticks[-1] < stride

    def test_susy_mode_outside_window_exits_2(self, runner):
        res = run(runner, "diagram", "--alpha0", "0", "--alpha1", "6",
                  "--ascii", "--susy")
        assert res.exit_code == EXIT_INVALID
