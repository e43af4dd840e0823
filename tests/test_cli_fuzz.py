"""Hypothesis fuzz of the command line, run in process.

Over a bounded argument space, valid and invalid alike, every command must
end with exit 0, 2 or 3; print strict JSON (no NaN or Infinity) wherever it
prints JSON and ends with 0 or 3; and end an invalid input with one
``error:`` line.  Nothing may raise but ``SystemExit``.
"""

import json
from fractions import Fraction

from hypothesis import event, given, settings, strategies as st

from cext_osc.cli import EXIT_INVALID, EXIT_VERIFY_FAIL, main
from conftest import Runner

JUNK = ["nan", "inf", "-inf", "1/0", "abc", "", "1e400", "-0", "2.5", "1//2"]


def rare(common, odd):
    """``common`` in nine draws of ten, else ``odd``."""
    return st.integers(0, 9).flatmap(lambda roll: odd if roll == 0 else common)


# mostly small exact rationals, so that most points are admissible and many lie
# in the SUSY window; sometimes a string that is not one
rationals = rare(
    st.one_of(st.fractions(-1, 1, max_denominator=4), st.fractions(-1, 6, max_denominator=4))
    .map(str),
    st.sampled_from(JUNK),
)
tolerances = st.one_of(
    st.sampled_from(["0", "1e-12", "1e-9", "0.5", "nan", "inf", "-inf", "-1"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


@st.composite
def point_args(draw):
    """The options that give a point, in three draws of four in a documented way.

    That is --alpha0/--alpha1 at lambda 2 or 3, or lambda - 1 repeats of
    --alpha.  Otherwise lambda and any mix of the three options are drawn freely.
    """
    if draw(st.integers(0, 3)) == 0:
        args = ["--lambda", str(draw(st.integers(-1, 6)))]
        names = draw(st.lists(st.sampled_from(["--alpha0", "--alpha1", "--alpha"]), max_size=6))
    else:
        lam = draw(st.sampled_from([3, 3, 2, 4, 5]))
        args = ["--lambda", str(lam)] if lam != 3 or draw(st.booleans()) else []
        names = (["--alpha"] * (lam - 1) if lam > 3 else
                 [name for name in ("--alpha0", "--alpha1")[:lam - 1] if draw(st.booleans())])
    for name in names:
        args += [name, draw(rationals)]
    return args


@st.composite
def window_point(draw):
    """--alpha0/--alpha1 of a lambda = 3 point in the SUSY window: every 1 + alpha_mu > 0."""
    spacings = [draw(st.fractions(Fraction(1, 4), 2, max_denominator=4)) for _ in range(3)]
    a0, a1 = (3 * w / sum(spacings) - 1 for w in spacings[:2])
    return ["--alpha0", str(a0), "--alpha1", str(a1)]


@st.composite
def commands(draw):
    """(argv, whether stdout is JSON when the command succeeds or fails its check)."""
    command = draw(st.sampled_from(["classify", "spectrum", "susy", "sweep", "diagram"]))
    args = [command]
    json_out = command in ("classify", "susy", "sweep")
    if command == "sweep":
        # neither mode, both, --random or --grid
        mode = draw(st.sampled_from(["", "random grid", "random", "random", "grid", "grid"]))
        if "random" in mode:
            args += ["--random", str(draw(st.integers(-2, 20)))]
        if "grid" in mode:
            axes = []
            for _ in range(2):
                lo = draw(st.fractions(-3, 3, max_denominator=3))
                span = draw(st.fractions(-1, 3, max_denominator=3))
                step = draw(rare(st.sampled_from(["1", "1/2", "1/3"]),
                                 st.sampled_from(["0", "-1", "x"])))
                axes.append(f"{lo}:{lo + span}:{step}")
            args += ["--grid", draw(rare(st.just(",".join(axes)), st.sampled_from([axes[0], "1:2"])))]
        if draw(st.booleans()):
            args += ["--seed", str(draw(st.integers(-5, 5)))]
        return args, json_out
    args += draw(window_point() if command == "susy" and draw(st.booleans()) else point_args())
    if command == "classify":
        if draw(st.booleans()):
            args += ["--levels", str(draw(st.integers(-1, 120)))]
        if draw(st.booleans()):
            fmt = draw(rare(st.sampled_from(["json", "text"]), st.just("xml")))
            args += ["--format", fmt]
            json_out = fmt == "json"
    elif command == "spectrum":
        if draw(st.booleans()):
            args += ["--count", str(draw(st.integers(-1, 40)))]
    elif command == "susy":
        if draw(st.booleans()):
            args += ["--truncation", str(draw(st.integers(-1, 120)))]
        if draw(st.booleans()):
            args += ["--tol", draw(tolerances)]
    else:
        if draw(st.booleans()):
            args += ["--levels", str(draw(st.integers(-1, 30)))]
        args += sorted(draw(st.sets(st.sampled_from(["--ascii", "--susy"]))))
    return args, json_out


def _no_constants(name):
    raise ValueError(f"not JSON: {name}")


@settings(max_examples=500, deadline=None)
@given(commands())
def test_cli_contract(case):
    args, json_out = case
    res = Runner().invoke(main, args)
    event(f"{args[0]} exits {res.exit_code}")
    if res.exception is not None:
        assert isinstance(res.exception, SystemExit), res.exc_info
    assert res.exit_code in (0, EXIT_INVALID, EXIT_VERIFY_FAIL), (res.exit_code, res.stderr)
    assert "Traceback" not in res.stderr
    if res.exit_code == EXIT_INVALID:
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error: ")
    elif json_out:
        # sweep prints JSON lines; the other commands print one document
        docs = res.stdout.splitlines() if args[0] == "sweep" else [res.stdout]
        for doc in docs:
            json.loads(doc, parse_constant=_no_constants)

