"""Command-line surface: classify, spectrum, susy, sweep, diagram."""

from __future__ import annotations

import json
import math
import os
import random
import re
import sys
from collections import Counter
from types import SimpleNamespace
from typing import NamedTuple

from . import __version__
# The error boundary needs only algebra's types: each command imports the
# layers it runs at the top of its body, so no command loads a layer it does
# not use.
from .algebra import (
    AlgebraParams,
    ExistenceViolation,
    InadmissibleParams,
    WindowViolation,
    _float,
    new_params,
    parse_rational,
)

SCHEMA_VERSION = 1
EXIT_INVALID = 2
EXIT_VERIFY_FAIL = 3
MAX_LEVELS = 10**5  # cap of classify --levels, spectrum --count and diagram --levels
# Cap of the integer form of the rationals that make a point or a grid: d, the lcm of
# their denominators, and d * sum(|v|).  Every value the CLI prints then has under
# 10100 bits, far below Python's int-to-str limit (4300 digits, about 14280 bits).
MAX_BITS = 10_000
# The library's errors for input outside its domain; any other exception is a fault.
INPUT_ERRORS = (InadmissibleParams, ExistenceViolation, WindowViolation)
HELP_WIDTH = 78  # the help is wrapped at this width, whatever the terminal's


class UsageError(Exception):
    """A command line that does not parse; like an input error, it ends in exit 2."""


class Option(NamedTuple):
    """One option of a command: how it parses, how it converts, and its help line."""

    flag: str
    dest: str
    # also what the help shows: TEXT or PATH (a string), INTEGER, FLOAT, INTEGER RANGE
    # (within bounds, None for an open end), [a|b] (one of a and b), or "" for a flag
    type: str = "TEXT"
    default: object = None
    help: str = ""
    show_default: bool = False
    bounds: tuple = (None, None)
    envvar: str | None = None  # read when the option is not given; empty counts as unset
    repeat: bool = False  # every value given is kept, in a list


HELP = Option("--help", "help", "", False, "Show this message and exit.")
VERSION = Option("--version", "version", "", False, "Show the version and exit.")
POINT = (
    Option("--lambda", "lam", "INTEGER", 3, "cyclic group order", show_default=True),
    Option("--alpha", "alphas", "TEXT", (), "full head parameter list (repeat lambda-1 times)",
           repeat=True),
    Option("--alpha1", "alpha1", "TEXT", "0", "alpha_1 as an exact rational 'p/q'"),
    Option("--alpha0", "alpha0", "TEXT", "0", "alpha_0 as an exact rational 'p/q'",
           show_default=True),
)
COMMANDS: dict = {}  # name -> (function, options)


def command(*options: Option):
    """Register a command: its name, docstring and options make its parser and its help."""
    def register(fn):
        COMMANDS[fn.__name__] = (fn, (*options, HELP))
        return fn
    return register


def _echo(text: str, err: bool = False) -> None:
    stream = sys.stderr if err else sys.stdout
    if "\x1b" in text and not stream.isatty():  # echoed user text: no terminal codes in a file
        text = re.sub(r"\x1b\[[;?0-9]*[a-zA-Z]", "", text)
    # flushed line by line, so a sweep streams and a closed pipe is seen at once
    print(text, file=stream, flush=True)


def _invalid(flag: str, message: str) -> UsageError:
    return UsageError(f"Invalid value for {flag!r}: {message}")


def _no_such(kind: str, name: str, known=()) -> UsageError:
    """The error for an unknown option or command, naming the known ones close to it."""
    from difflib import get_close_matches
    near = sorted(get_close_matches(name, known))
    names = ", ".join(map(repr, near))
    hint = f" (Did you mean one of: {names}?)" if len(near) > 1 else f" Did you mean {names}?"
    return UsageError(f"No such {kind} {name!r}.{hint if near else ''}")


def _range(bounds: tuple) -> str:
    lo, hi = bounds
    return f"x<={hi}" if lo is None else f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"


def _convert(opt: Option, value):
    if value is None or opt.type in ("TEXT", "PATH", ""):
        return value
    if opt.type[0] == "[":
        choices = opt.type[1:-1].split("|")
        if value in choices:
            return value
        raise _invalid(opt.flag, f"{value!r} is not one of {', '.join(map(repr, choices))}.")
    try:
        number = (float if opt.type == "FLOAT" else int)(value)
    except ValueError:
        raise _invalid(opt.flag, f"{value!r} is not a valid {opt.type.lower()}.") from None
    lo, hi = opt.bounds
    if lo is not None and number < lo or hi is not None and number > hi:
        raise _invalid(opt.flag, f"{number} is not in the range {_range(opt.bounds)}.")
    return number


def _parse(path: str, doc, options, args, commands=None):
    """(values, words left over) of ``args`` read against ``options``, as click read them."""
    table = {opt.flag: opt for opt in options}
    given: dict = {}  # dest -> raw value, in the order first given
    words, rest = iter(args), []
    for arg in words:
        if arg == "--":  # ends the options
            break
        if arg[:1] != "-" or arg == "-":
            rest.append(arg)
            if commands:  # the group stops at its first word that is not an option
                break
            continue
        name, eq, value = arg.partition("=")
        opt = table.get(name)
        if opt is None:  # '-xyz' is read as the short options -x, -y, -z: there are none
            raise _no_such("option", *([name, table] if arg[:2] == "--" else [arg[:2]]))
        if eq and not opt.type:
            raise UsageError(f"Option {name!r} does not take a value.")
        if opt.type and not eq and (value := next(words, None)) is None:  # even '-1/2' is one
            raise UsageError(f"Option {name!r} requires an argument.")
        value = value if opt.type else True  # a flag that is given is on
        given[opt.dest] = [*given.get(opt.dest, ()), value] if opt.repeat else value
    rest += words
    for dest in given:  # --help and --version act before any value is converted
        if dest in ("help", "version"):
            _echo(_help(path, doc, options, commands) if dest == "help"
                  else f"{path}, version {__version__}")
            sys.exit(0)
    # values convert in the order first given, so the first bad one is the one reported
    first = list(given)
    order = sorted(options, key=lambda o: first.index(o.dest) if o.dest in given else len(first))
    values = {o.dest: _convert(o, given[o.dest] if o.dest in given
                               else o.envvar and os.environ.get(o.envvar) or o.default)
              for o in order}
    return SimpleNamespace(**values, given=set(given)), rest


def _help(path: str, doc, options, commands=None) -> str:
    """The --help text: usage, docstring, options and commands, laid out as click did."""
    import textwrap

    def table(rows):  # the second column starts two spaces past the widest first one
        first = max(len(a) for a, _ in rows) + 2
        return [textwrap.fill(b, HELP_WIDTH, initial_indent=f"  {a:<{first}}",
                              subsequent_indent=" " * (first + 2)) or f"  {a}" for a, b in rows]

    out = [f"Usage: {path} [OPTIONS]{' COMMAND [ARGS]...' if commands else ''}"]
    for paragraph in doc.split("\n\n") if doc else ():
        out += ["", textwrap.fill(" ".join(paragraph.split()), HELP_WIDTH,
                                  initial_indent="  ", subsequent_indent="  ")]
    rows = []
    for opt in options:
        extra = "; ".join([f"default: {opt.default}"] * opt.show_default
                          + [_range(opt.bounds)] * (opt.type == "INTEGER RANGE"))
        rows.append((f"{opt.flag} {opt.type}".strip(),
                     "  ".join(filter(None, (opt.help, extra and f"[{extra}]")))))
    out += ["", "Options:", *table(rows)]
    if commands:
        limit = HELP_WIDTH - 6 - max(map(len, commands))
        out += ["", "Commands:", *table([
            (name, textwrap.shorten((fn.__doc__ or "").split("\n\n")[0], limit, placeholder="..."))
            for name, (fn, _) in sorted(commands.items())])]
    return "\n".join(out)


def _refuse_beyond_cap(values, what: str) -> None:
    """Raise ``InadmissibleParams`` if the integer form of ``values`` exceeds MAX_BITS."""
    message = f"{what} needs more than {MAX_BITS} bits over one denominator"
    d = 1
    for v in values:  # checked at each step: the lcm of many large denominators is costly
        d = math.lcm(d, v.denominator)
        if d.bit_length() > MAX_BITS:
            raise InadmissibleParams(message)
    if sum(abs(v.numerator) * (d // v.denominator) for v in values).bit_length() > MAX_BITS:
        raise InadmissibleParams(message)


def _collect_params(o: SimpleNamespace) -> AlgebraParams:
    # "given" is what the command line set; the defaults of --alpha0/--alpha1 are not
    given = [f"--{name}" for name in ("alpha0", "alpha1") if name in o.given]
    lam = o.lam
    if o.alphas and given:
        raise InadmissibleParams(f"give the point by --alpha or by {given[0]}, not both")
    if lam == 2 and "--alpha1" in given:
        raise InadmissibleParams("lambda=2 takes --alpha0 only, not --alpha1")
    # parsed before any count is checked, so a bad --alpha0 is reported first at any lambda
    head = [parse_rational(a) for a in o.alphas or (o.alpha0, o.alpha1)[:max(lam - 1, 1)]]
    # below lambda = 2 no count is right: new_params refuses the lambda itself
    if lam >= 2 and len(head) != lam - 1:
        raise InadmissibleParams(f"--alpha given {len(head)} times, lambda={lam} needs {lam - 1}"
                                 if o.alphas else
                                 f"lambda={lam} needs {lam - 1} parameters; use repeated --alpha")
    # before new_params, whose error message would print the point's values
    _refuse_beyond_cap(head, "the point")
    return new_params(lam, head)


def _base_report(p: AlgebraParams) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool_version": __version__,
        "lambda": p.lam,
        "parameters": {"alphas": [str(a) for a in p.alphas]},
    }


def classification_report(p: AlgebraParams, count: int) -> dict:
    """Full classification report; oracle descriptor for lambda != 3."""
    from .spectrum import (NotPeriodic, classify3, degeneracy_pattern, detect_period,
                           oracle_agrees, susy_window)
    rep = _base_report(p)
    pat = degeneracy_pattern(p, count)
    rep["degeneracy_groups"] = [{"energy": str(e), "indices": list(idx)} for e, idx in pat.groups]
    rep["descriptor"] = {
        "multiplicities": list(pat.multiplicities),
        "index_order": [i for _, idx in pat.groups for i in idx],
    }
    if p.lam == 3:
        t = classify3(p)
        rep["spectrum_type"] = {
            "label": t.label,
            "family": t.family,
            "variant": t.variant,
            "indices": {"m": t.m, "n": t.n},
        }
        rep["oracle_agrees"] = oracle_agrees(p, t)
    else:
        rep["spectrum_type"] = None
    try:
        period = detect_period(p, count)
        rep["period"] = {
            "omegas": [str(w) for w in period.omegas],
            "Omega": str(period.big_omega),
            "ground_order": list(period.ground_order),
        }
    except NotPeriodic:
        rep["period"] = None
    rep["susy_window"] = susy_window(p)
    return rep


def main(argv: list[str] | None = None, prog_name: str | None = None) -> None:
    """Spectra of cyclic-group-extended oscillator Hamiltonians.

    Each rational is exact: 'p/q', an integer, or a decimal whose exponent is at
    most 3000 in magnitude ('1.5e-3'). A point, or a sweep grid, whose rationals
    need more than 10000 bits over one common denominator is refused (exit 2).
    """
    # This docstring is the CLI's help.  ``argv`` defaults to sys.argv[1:], and
    # ``prog_name``, the name the help and --version print, to the script's name.
    prog = prog_name or os.path.basename(sys.argv[0])
    group = (prog, main.__doc__, (VERSION, HELP))
    args = sys.argv[1:] if argv is None else argv
    try:
        if not args:  # bare `cext-osc`: the help, on stderr, with the exit code of a usage error
            _echo(_help(*group, COMMANDS), err=True)
            sys.exit(EXIT_INVALID)
        rest = _parse(*group, args, COMMANDS)[1]
        if not rest:
            raise UsageError("Missing command.")
        name, *args = rest
        if name not in COMMANDS:
            if name[:1] and not name[:1].isalnum():  # `-- --help`: reread as the group's options
                _parse(*group, rest, COMMANDS)
            raise _no_such("command", name, COMMANDS)
        fn, options = COMMANDS[name]
        o, extra = _parse(f"{prog} {name}", fn.__doc__, options, args)
        if extra:
            s = "s" * (len(extra) > 1)
            raise UsageError(f"Got unexpected extra argument{s} ({' '.join(extra)})")
        fn(o)
    # the one validation boundary: a usage error or the library's input error ends in
    # exit 2 with one `error:` line on stderr; any other exception propagates
    except (UsageError, *INPUT_ERRORS) as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INVALID)
    except BrokenPipeError:
        # the reader of stdout has gone (`| head -1`): exit 1, and no traceback at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        _echo("\nAborted!", err=True)
        sys.exit(1)


@command(*POINT,
         Option("--levels", "count", "INTEGER RANGE", 30, show_default=True,
                bounds=(1, MAX_LEVELS)),
         Option("--format", "fmt", "[json|text]", "json"))
def classify(o):
    """Classify the spectrum type of a parameter point."""
    p = _collect_params(o)
    rep = classification_report(p, o.count)
    if o.fmt == "json":
        _echo(json.dumps(rep, indent=2))
    else:
        label = rep["spectrum_type"]["label"] if rep["spectrum_type"] else "(no named taxonomy)"
        _echo(f"alphas = ({', '.join(str(a) for a in p.alphas)})")
        _echo(f"type: {label}")
        _echo(f"multiplicities: {rep['descriptor']['multiplicities']}")
        _echo(f"susy window: {rep['susy_window']}")


@command(*POINT, Option("--count", "count", "INTEGER RANGE", 12, show_default=True,
                         bounds=(1, MAX_LEVELS)))
def spectrum(o):
    """Print the level table: index, subspace, exact and float energy."""
    p = _collect_params(o)
    # the whole table is built before any of it is printed, so an error prints none of it
    lines = [f"{'n':>4} {'sub':>4} {'energy':>12} {'float':>14}"]
    for n in range(o.count):
        e = p.energy(n)
        lines.append(f"{n:>4} {n % p.lam:>4} {str(e):>12} {_float(e):>14.6f}")
    _echo("\n".join(lines))


@command(*POINT,
         Option("--truncation", "trunc", "INTEGER RANGE", 60,
                "K, the level window n < K of the exact checks; each verdict holds for every n",
                bounds=(None, 10**6), envvar="CEXT_OSC_DEFAULT_TRUNCATION"),
         # projection_shift_identity refuses a tol outside [0, inf) before anything is printed
         Option("--tol", "tol", "FLOAT", 1e-12, show_default=True))
def susy(o):
    """Build and verify the supersymmetric hierarchy at a parameter point."""
    from .susy import (build_hierarchy, check_interlacing, projection_shift_identity,
                       shift_flags, superalgebra_gap)
    p = _collect_params(o)
    hier = build_hierarchy(p, o.trunc)
    # decided in integers, so max_residual reads exactly 0.0 on a passing point
    gap = superalgebra_gap(hier)
    shift_exact, periodic = shift_flags(hier)
    passed = gap < o.tol and shift_exact and periodic
    interlaced = check_interlacing(hier, o.trunc - p.lam)
    proj = projection_shift_identity(hier, o.tol)
    out = _base_report(p)
    out["susy"] = {
        "omegas": [str(w) for w in hier.omegas],
        "ground_energies": [str(e) for e in hier.ground_energies],
        "max_residual": float(gap),
        "relations_pass": passed,
        "hierarchy_shift_exact": shift_exact,
        "interlacing": interlaced,
        "projection_shift_identity": proj,
        "truncation": o.trunc,
        "tol": o.tol,
    }
    _echo(json.dumps(out, indent=2))
    if not (passed and interlaced and proj):
        sys.exit(EXIT_VERIFY_FAIL)


def _grid_points(spec: str):
    """The grid's parameter points, or the JSON line of an inadmissible one."""
    parts = spec.split(",")
    if len(parts) != 2:
        raise InadmissibleParams("grid spec must be 'a0min:a0max:step,a1min:a1max:step'")
    axes, values = [], ()
    for part in parts:
        pieces = part.split(":")
        if len(pieces) != 3:
            raise InadmissibleParams(f"bad grid axis {part!r}")
        lo, hi, step = (parse_rational(x) for x in pieces)
        if step <= 0:
            raise InadmissibleParams("grid step must be positive")
        # an axis is (lo, step, count): no value is built before it is reached
        axes.append((lo, step, math.floor((hi - lo) / step) + 1))
        values += (lo, hi, step)
    # every point is lo + i * step on both axes, so the spec's cap bounds each point's
    _refuse_beyond_cap(values, "the grid")
    # both axes are parsed before the first point is yielded, so a bad spec prints nothing
    (lo0, step0, n0), (lo1, step1, n1) = axes
    for a0 in (lo0 + i * step0 for i in range(n0)):
        for a1 in (lo1 + j * step1 for j in range(n1)):
            try:
                yield new_params(3, [a0, a1])
            except INPUT_ERRORS as exc:
                yield {"alpha0": str(a0), "alpha1": str(a1), "error": str(exc)}


@command(Option("--grid", "grid", help="a0min:a0max:step,a1min:a1max:step"),
         Option("--random", "n_random", "INTEGER RANGE", help="number of random points",
                bounds=(1, None)),
         Option("--seed", "seed", "INTEGER", 0, show_default=True))
def sweep(o):
    """Classify many lambda=3 points, JSON-lines output plus a summary line."""
    from .spectrum import classify3, oracle_agrees, random_admissible_params
    if (o.grid is None) == (o.n_random is None):
        raise InadmissibleParams("give exactly one of --grid / --random")
    # one pass: each point is drawn or stepped, classified and printed before the next
    if o.grid is not None:
        points = _grid_points(o.grid)
    else:
        rng = random.Random(o.seed)
        points = (random_admissible_params(rng) for _ in range(o.n_random))
    labels = Counter()
    count = disagreements = 0
    for p in points:
        count += 1
        if isinstance(p, dict):
            _echo(json.dumps(p))
            continue
        t = classify3(p)
        agrees = oracle_agrees(p, t)
        labels[t.label] += 1
        disagreements += not agrees
        _echo(json.dumps({"alpha0": str(p.alphas[0]), "alpha1": str(p.alphas[1]),
                          "label": t.label, "oracle_agrees": agrees}))
    summary = {
        "summary": True,
        "points": count,
        "labels": dict(sorted(labels.items())),
        "oracle_disagreements": disagreements,
    }
    _echo(json.dumps(summary))
    if disagreements:
        sys.exit(EXIT_VERIFY_FAIL)


@command(*POINT,
         Option("--levels", "count", "INTEGER RANGE", 18, "levels drawn per column",
                show_default=True, bounds=(1, MAX_LEVELS)),
         Option("--out", "out", "PATH", help="write SVG here"),
         Option("--ascii", "ascii_mode", "", False, "print an ASCII diagram"),
         Option("--susy", "susy_mode", "", False,
                "draw the hierarchy members instead of the Fock columns"))
def diagram(o):
    """Emit a level diagram (SVG file or ASCII on stdout)."""
    from .render import diagram_spec, render_ascii, render_svg
    spec = diagram_spec(_collect_params(o), o.count, o.susy_mode)
    text = (render_ascii if o.ascii_mode else render_svg)(spec)
    if o.ascii_mode or o.out is None:
        _echo(text)
        return
    try:
        with open(o.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _invalid("--out", f"cannot write {o.out}: {exc.strerror}") from exc
    _echo(f"wrote {o.out}")


if __name__ == "__main__":
    main(prog_name="python -m cext_osc.cli")
