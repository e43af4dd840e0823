"""Command-line surface: classify, spectrum, susy, sweep, diagram."""

from __future__ import annotations

import json
import math
import random
import sys
from contextlib import contextmanager

import click
from click.core import ParameterSource

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
# Bare `cext-osc` prints the help; click >= 8.2 raises that as a UsageError.
_PRINTS_HELP = getattr(click.exceptions, "NoArgsIsHelpError", ())


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


def _collect_params(lam, alpha0, alpha1, alphas):
    # "given" is what the command line set; the defaults of --alpha0/--alpha1 are not
    ctx = click.get_current_context()
    given = [f"--{name}" for name in ("alpha0", "alpha1")
             if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT]
    if alphas and given:
        raise InadmissibleParams(f"give the point by --alpha or by {given[0]}, not both")
    if lam == 2 and "--alpha1" in given:
        raise InadmissibleParams("lambda=2 takes --alpha0 only, not --alpha1")
    if alphas:
        head = [parse_rational(a) for a in alphas]
        if len(head) != lam - 1:
            raise InadmissibleParams(
                f"--alpha given {len(head)} times, lambda={lam} needs {lam - 1}"
            )
    else:
        head = [parse_rational(alpha0)]
        if lam >= 3:
            head.append(parse_rational(alpha1))
        if lam > 3:
            raise InadmissibleParams(
                f"lambda={lam} needs {lam - 1} parameters; use repeated --alpha"
            )
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


def classification_report(p: AlgebraParams, count: int = 30) -> dict:
    """Full classification report; oracle descriptor for lambda != 3."""
    from .spectrum import (NotPeriodic, classify3, degeneracy_pattern, detect_period,
                           oracle_agrees, susy_window)
    rep = _base_report(p)
    groups = degeneracy_pattern(p, count).groups
    rep["degeneracy_groups"] = [{"energy": str(e), "indices": list(idx)} for e, idx in groups]
    rep["descriptor"] = {
        "multiplicities": [len(idx) for _, idx in groups],
        "index_order": [i for _, idx in groups for i in idx],
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


def param_options(fn):
    fn = click.option("--alpha0", default="0", show_default=True,
                      help="alpha_0 as an exact rational 'p/q'")(fn)
    fn = click.option("--alpha1", default="0",
                      help="alpha_1 as an exact rational 'p/q'")(fn)
    fn = click.option("--alpha", "alphas", multiple=True,
                      help="full head parameter list (repeat lambda-1 times)")(fn)
    fn = click.option("--lambda", "lam", type=int, default=3, show_default=True,
                      help="cyclic group order")(fn)
    return fn


@contextmanager
def _invalid_input_exits_2():
    try:
        yield
    except _PRINTS_HELP:
        raise
    except (click.UsageError, *INPUT_ERRORS) as exc:
        message = exc.format_message() if isinstance(exc, click.UsageError) else exc
        click.echo(f"error: {message}", err=True)
        sys.exit(EXIT_INVALID)


class _Commands(click.Group):
    """Command group with the CLI's one validation boundary.

    Invalid input, whether click's usage error or the library's input error,
    ends in exit 2 with one ``error:`` line on stderr, never in a traceback;
    any other exception is left to propagate.
    """

    def parse_args(self, ctx, args):
        # the group's own options (`cext-osc --bogus`) are parsed before invoke
        with _invalid_input_exits_2():
            return super().parse_args(ctx, args)

    def invoke(self, ctx):
        with _invalid_input_exits_2():
            return super().invoke(ctx)


@click.group(cls=_Commands)
@click.version_option(version=__version__)
def main():
    """Spectra of cyclic-group-extended oscillator Hamiltonians.

    Each rational is exact: 'p/q', an integer, or a decimal whose exponent is at
    most 3000 in magnitude ('1.5e-3'). A point, or a sweep grid, whose rationals
    need more than 10000 bits over one common denominator is refused (exit 2).
    """


@main.command()
@param_options
@click.option("--levels", "count", type=click.IntRange(min=1, max=MAX_LEVELS), default=30,
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
def classify(alpha0, alpha1, alphas, lam, count, fmt):
    """Classify the spectrum type of a parameter point."""
    p = _collect_params(lam, alpha0, alpha1, alphas)
    rep = classification_report(p, count)
    if fmt == "json":
        click.echo(json.dumps(rep, indent=2))
    else:
        label = rep["spectrum_type"]["label"] if rep["spectrum_type"] else "(no named taxonomy)"
        click.echo(f"alphas = ({', '.join(str(a) for a in p.alphas)})")
        click.echo(f"type: {label}")
        click.echo(f"multiplicities: {rep['descriptor']['multiplicities']}")
        click.echo(f"susy window: {rep['susy_window']}")


@main.command()
@param_options
@click.option("--count", type=click.IntRange(min=1, max=MAX_LEVELS), default=12, show_default=True)
def spectrum(alpha0, alpha1, alphas, lam, count):
    """Print the level table: index, subspace, exact and float energy."""
    p = _collect_params(lam, alpha0, alpha1, alphas)
    # the whole table is built before any of it is printed, so an error prints none of it
    lines = [f"{'n':>4} {'sub':>4} {'energy':>12} {'float':>14}"]
    for n in range(count):
        e = p.energy(n)
        lines.append(f"{n:>4} {n % p.lam:>4} {str(e):>12} {_float(e):>14.6f}")
    click.echo("\n".join(lines))


@main.command()
@param_options
@click.option("--truncation", "trunc", type=click.IntRange(max=10**6), default=60,
              envvar="CEXT_OSC_DEFAULT_TRUNCATION", help="matrix truncation K")
# projection_shift_identity refuses a tol outside [0, inf) before anything is printed
@click.option("--tol", type=float, default=1e-12, show_default=True)
def susy(alpha0, alpha1, alphas, lam, trunc, tol):
    """Build and verify the supersymmetric hierarchy at a parameter point."""
    from .susy import (build_hierarchy, check_interlacing, projection_shift_identity,
                       shift_flags, superalgebra_gap)
    p = _collect_params(lam, alpha0, alpha1, alphas)
    hier = build_hierarchy(p, trunc)
    # decided in integers, so max_residual reads exactly 0.0 on a passing point
    gap = superalgebra_gap(hier)
    shift_exact, periodic = shift_flags(hier)
    passed = gap < tol and shift_exact and periodic
    interlaced = check_interlacing(hier, trunc - p.lam)
    proj = projection_shift_identity(hier, tol)
    out = _base_report(p)
    out["susy"] = {
        "omegas": [str(w) for w in hier.omegas],
        "ground_energies": [str(e) for e in hier.ground_energies],
        "max_residual": float(gap),
        "relations_pass": passed,
        "hierarchy_shift_exact": shift_exact,
        "interlacing": interlaced,
        "projection_shift_identity": proj,
        "truncation": trunc,
        "tol": tol,
    }
    click.echo(json.dumps(out, indent=2))
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


@main.command()
@click.option("--grid", default=None, help="a0min:a0max:step,a1min:a1max:step")
@click.option("--random", "n_random", type=click.IntRange(min=1), help="number of random points")
@click.option("--seed", type=int, default=0, show_default=True)
def sweep(grid, n_random, seed):
    """Classify many lambda=3 points, JSON-lines output plus a summary line."""
    from .spectrum import classify3, oracle_agrees, random_admissible_params
    if (grid is None) == (n_random is None):
        raise InadmissibleParams("give exactly one of --grid / --random")
    # one pass: each point is drawn or stepped, classified and printed before the next
    if grid is not None:
        points = _grid_points(grid)
    else:
        rng = random.Random(seed)
        points = (random_admissible_params(rng) for _ in range(n_random))
    histogram: dict[str, int] = {}
    count = disagreements = 0
    for p in points:
        count += 1
        if isinstance(p, dict):
            click.echo(json.dumps(p))
            continue
        t = classify3(p)
        agrees = oracle_agrees(p, t)
        line = {"alpha0": str(p.alphas[0]), "alpha1": str(p.alphas[1]),
                "label": t.label, "oracle_agrees": agrees}
        histogram[t.label] = histogram.get(t.label, 0) + 1
        if not agrees:
            disagreements += 1
        click.echo(json.dumps(line))
    summary = {
        "summary": True,
        "points": count,
        "labels": dict(sorted(histogram.items())),
        "oracle_disagreements": disagreements,
    }
    click.echo(json.dumps(summary))
    if disagreements:
        sys.exit(EXIT_VERIFY_FAIL)


@main.command()
@param_options
@click.option("--levels", "count", type=click.IntRange(min=1, max=MAX_LEVELS), default=18,
              show_default=True, help="levels drawn per column")
@click.option("--out", type=click.Path(), default=None, help="write SVG here")
@click.option("--ascii", "ascii_mode", is_flag=True, help="print an ASCII diagram")
@click.option("--susy", "susy_mode", is_flag=True,
              help="draw the hierarchy members instead of the Fock columns")
def diagram(alpha0, alpha1, alphas, lam, count, out, ascii_mode, susy_mode):
    """Emit a level diagram (SVG file or ASCII on stdout)."""
    from .render import diagram_spec, render_ascii, render_svg
    spec = diagram_spec(_collect_params(lam, alpha0, alpha1, alphas), count, susy_mode)
    if ascii_mode:
        click.echo(render_ascii(spec))
        return
    svg = render_svg(spec)
    if out is None:
        click.echo(svg)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise click.BadParameter(f"cannot write {out}: {exc.strerror}", param_hint="'--out'") from exc
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
