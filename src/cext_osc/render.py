"""Level diagrams of a parameter point: their geometry, drawn as SVG or as ASCII."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraParams, _float


@dataclass(frozen=True)
class DiagramSpec:
    """Geometry of a level diagram: one column per spectrum, exact energies."""

    columns: tuple[tuple[tuple[int, Fraction], ...], ...]
    column_names: tuple[str, ...]
    ticks: tuple[Fraction, ...]
    title: str = ""


def diagram_spec(p: AlgebraParams, count: int = 18, susy_mode: bool = False) -> DiagramSpec:
    lam = p.lam
    if susy_mode:
        from .susy import build_hierarchy  # each mode loads only the layer it draws from
        hier = build_hierarchy(p, max(count, 2 * lam))
        cols = tuple(tuple((n, m.at(n)) for n in range(count)) for m in hier.members)
        names = tuple(f"H({mu})" for mu in range(lam + 1))
    else:
        cols = tuple(
            tuple((lam * k + mu, p.energy(lam * k + mu)) for k in range(count))
            for mu in range(lam)
        )
        names = tuple(f"F{mu}" for mu in range(lam))
    # each column rises with its level index: a Fock column is E(mu) + lambda k, and a
    # member F(n + mu) rises in the window build_hierarchy enforces; so its ends bound it
    lo, hi = min(col[0][1] for col in cols), max(col[-1][1] for col in cols)
    # a tick every lambda, thinned so that a wide spread draws at most 2 * count + 1
    stride = lam * max(1, math.ceil((hi - lo) / (2 * lam * count)))
    ticks = tuple(lo + k * stride for k in range((hi - lo) // stride + 1))
    if susy_mode:
        title = "supersymmetric hierarchy"
    elif lam == 3:
        from .spectrum import classify3
        title = classify3(p).label
    else:
        title = ""
    return DiagramSpec(columns=cols, column_names=names, ticks=ticks, title=title)


def render_svg(spec: DiagramSpec) -> str:
    # a column's ends bound it, as in diagram_spec
    lo, hi = min(col[0][1] for col in spec.columns), max(col[-1][1] for col in spec.columns)
    span = _float(hi - lo) or 1.0
    width_col, bar, margin, height = 80, 50, 70, 480
    top, bottom = 30, height - 40

    def y(e: Fraction) -> float:
        return bottom - (float(e - lo) / span) * (bottom - top)

    ncol = len(spec.columns)
    width = margin + ncol * width_col + 20
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" font-family="sans-serif" font-size="11">',
        f'<line x1="{margin - 20}" y1="{top - 10}" x2="{margin - 20}" '
        f'y2="{bottom + 5}" stroke="black"/>',
    ]
    if spec.title:
        out.append(
            f'<text x="{width / 2:.0f}" y="16" text-anchor="middle" '
            f'font-weight="bold">{spec.title}</text>')
    for tick in spec.ticks:
        ty = y(tick)
        out.append(
            f'<line x1="{margin - 25}" y1="{ty:.1f}" x2="{margin - 15}" '
            f'y2="{ty:.1f}" stroke="black"/>')
        out.append(
            f'<text x="{margin - 30}" y="{ty + 4:.1f}" text-anchor="end">{tick}</text>')
    for c, (col, name) in enumerate(zip(spec.columns, spec.column_names)):
        x0 = margin + c * width_col
        out.append(
            f'<text x="{x0 + bar / 2}" y="{bottom + 25}" text-anchor="middle">{name}</text>')
        top_y = y(col[-1][1])  # its highest level
        out.append(
            f'<line x1="{x0}" y1="{top_y - 12:.1f}" x2="{x0 + bar}" '
            f'y2="{top_y - 12:.1f}" stroke="black" stroke-dasharray="4 3"/>')
        for idx, e in col:
            ly = y(e)
            out.append(
                f'<line x1="{x0}" y1="{ly:.1f}" x2="{x0 + bar}" y2="{ly:.1f}" '
                f'stroke="black" stroke-width="1.5"/>')
            out.append(
                f'<text x="{x0 + bar + 4}" y="{ly + 4:.1f}">{idx}</text>')
    out.append("</svg>")
    return "\n".join(out)


def render_ascii(spec: DiagramSpec) -> str:
    colw = 10
    # rows are keyed by d * energy, an integer, d the lcm of the diagram's few denominators:
    # sorting and hashing the exact energies themselves cost most of the drawing
    d = math.lcm(*{e.denominator for col in spec.columns for _, e in col})
    energies = {}  # key -> its energy, kept so that no row rebuilds (and reduces) a Fraction
    # the first level index of each key in each column, so each row is one lookup per column
    firsts = [{} for _ in spec.columns]
    for first, col in zip(firsts, spec.columns):
        for idx, e in col:
            key = e.numerator * (d // e.denominator)
            first.setdefault(key, idx)
            energies.setdefault(key, e)
    lines = [" " * 10 + "".join(f"{name:^{colw}}" for name in spec.column_names)]
    for key in sorted(energies, reverse=True):
        cells = (f"--{first[key]}--".center(colw) if key in first else " " * colw
                 for first in firsts)
        lines.append(f"{str(energies[key]):>9} " + "".join(cells).rstrip())
    return "\n".join(lines)
