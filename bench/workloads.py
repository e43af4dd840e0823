"""The benchmark's workloads: seeded inputs, one op, its checks and digest record.

Each workload object draws its inputs from a ``random.Random`` seeded by the
benchmark, so the library receives only the generated values.  ``run`` is
the timed op and calls only public functions of cext_osc, looked up on their
module at call time so that a traced run sees them.  ``check`` (untimed)
returns the problems found in the op's output, each tagged ``"check"`` (the
output disagrees with an independent reference) or ``"verdict"`` (one of
the library's own verification verdicts failed).  ``record`` is the exact
output summary that goes into the run's digest.  ``stats`` holds the
per-layer counters the workload measures from outside the library.
``reference`` times the workload's calibration kernel (see calibrate.py),
taken after every ``ref_every_ns`` of op time; an op is scaled by the
samples within ``ref_window`` places of it, about a tenth of a second.
"""

from __future__ import annotations

import dataclasses
import json
import random
import statistics
import subprocess
import sys
from fractions import Fraction

import numpy as np

import calibrate
import cext_osc
from cext_osc import fockrep, spectrum, susy

PREFIX = 30  # the CLI's level count, used for every descriptor and oracle
DEFAULT_BOX, WIDE_BOX = 30, 300  # max_numer of the CLI's box and of one ten times wider
CLI = [sys.executable, "-m", "cext_osc.cli"]
CLI_TIMEOUT_S = 60

RELATIONS = ("number_ladder", "deformed_commutator", "ladder_twist", "cyclic_order",
             "lowering_product", "raising_product", "projector_algebra",
             "projector_resolution", "cyclic_unitary")
SQM_RELATIONS = ("supercharge_nilpotent", "adjoint_nilpotent", "commutes_q",
                 "commutes_q_dag", "anticommutator_closes")


def susy_point(rng: random.Random, lam: int) -> tuple[cext_osc.AlgebraParams, tuple]:
    """A point inside the SUSY window: positive spacings rescaled to sum to lambda."""
    raw = [Fraction(rng.randint(1, 24), rng.randint(1, 8)) for _ in range(lam)]
    total = sum(raw)
    omegas = tuple(lam * r / total for r in raw)
    return cext_osc.new_params(lam, [w - 1 for w in omegas[:-1]]), omegas


def array_bytes(obj, seen: set | None = None) -> int:
    """Summed ``nbytes`` of the distinct arrays reachable through dataclass fields and tuples."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        return sum(array_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(x, seen) for x in obj)
    return 0


def _worst(stats: dict, key: str, value: float) -> None:
    stats[key] = max(stats[key], value)


class Sweep:
    """The path of ``cext-osc sweep``: classify, cross-check and period-test lambda=3 points.

    Four in five points come from the CLI's default box, one in five from a
    box ten times wider, whose labels have large indices and rarely repeat,
    so the ``expected_prefix`` cache is mostly hit on the first and mostly
    missed on the second.
    """

    digest_ops = 1000
    ref_every_ns = 20_000_000
    ref_window = 4
    ref_nominal_ns = calibrate.FRACTION_NOMINAL_NS
    reference = staticmethod(calibrate.fraction_kernel)

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.drawn = 0
        self.cache = spectrum.expected_prefix  # the lru_cache itself, even while traced
        self.labels: dict[spectrum.SpectrumType, int] = {}

    def new_stats(self) -> dict:
        return {"spectrum.oracle.disagreements": 0, "spectrum.oracle.vacuous_frac": 0.0,
                "spectrum.expected_prefix.hit_ratio": 0.0}

    def make_input(self):
        box = WIDE_BOX if self.drawn % 5 == 4 else DEFAULT_BOX
        self.drawn += 1
        return spectrum.random_admissible_params(self.rng, max_numer=box)

    def kind(self, p) -> str:
        return "bench.sweep"

    def start(self) -> None:
        """Each ``cext-osc sweep`` process starts with a cold cache, so each run does too."""
        self.cache.cache_clear()
        self.labels.clear()

    def run(self, p):
        t = spectrum.classify3(p)
        oracle = spectrum.classify_oracle(p, PREFIX)
        agrees = spectrum.expected_prefix(t, PREFIX) == oracle
        try:
            period = spectrum.detect_period(p, PREFIX)
        except spectrum.NotPeriodic:
            period = None
        return t, oracle, agrees, period

    def check(self, p, out, stats) -> list[tuple[str, str]]:
        t, oracle, agrees, period = out
        self.labels[t] = self.labels.get(t, 0) + 1
        problems = []
        if not agrees:
            stats["spectrum.oracle.disagreements"] += 1
            problems.append(("check", f"oracle disagrees with {t.label} at {p.alphas}"))
        if period is not None and period.big_omega != p.lam:
            problems.append(("check", f"spacings of {t.label} sum to {period.big_omega}"))
        return problems

    def record(self, p, out):
        t, oracle, agrees, period = out
        return [[str(a) for a in p.alphas], t.label, oracle.groups, agrees,
                None if period is None else [str(w) for w in period.omegas]]

    def finish(self, stats) -> None:
        """Cache hit ratio of the phase, and the share of ops whose oracle check is vacuous.

        A check is vacuous when the label's expected prefix equals that of a
        neighbouring label (n +- 1, same family and variant): the cross-check
        could then not tell the two apart.  Computed after the phase, on the
        uncached path, so it touches neither the timings nor the cache.
        """
        info = self.cache.cache_info()
        lookups = info.hits + info.misses
        stats["spectrum.expected_prefix.hit_ratio"] = info.hits / lookups if lookups else 0.0
        vacuous = 0
        for t, count in self.labels.items():
            own = self.cache.__wrapped__(t, PREFIX)
            for n in (t.n - 1, t.n + 1):
                try:
                    near = spectrum.SpectrumType(t.family, t.variant, n=n, m=t.m)
                    near_prefix = self.cache.__wrapped__(near, PREFIX)
                except ValueError:  # no such label, or its window is empty
                    continue
                if near_prefix == own:
                    vacuous += count
                    break
        ops = sum(self.labels.values())
        stats["spectrum.oracle.vacuous_frac"] = vacuous / ops if ops else 0.0


class Verify:
    """Build and verify the operators and the SUSY hierarchy at truncation K."""

    ref_every_ns = 0

    def __init__(self, rng: random.Random, trunc: int, lams: tuple[int, ...], digest_ops: int,
                 ref_window: int):
        self.rng = rng
        self.drawn = 0
        self.trunc = trunc
        self.lams = lams
        self.digest_ops = digest_ops
        self.ref_window = ref_window
        self.ref_nominal_ns = calibrate.MATMUL_NOMINAL_NS[2 * trunc]

    def reference(self) -> int:
        """Products at the size of the SUSY block matrices; the median of three,
        because one product is much shorter, and so noisier, than the op it scales."""
        return statistics.median(calibrate.matmul_kernel(2 * self.trunc) for _ in range(3))

    def new_stats(self) -> dict:
        stats = {"fockrep.operator_bytes": 0, "susy.hierarchy_bytes": 0,
                 "fockrep.verify_relations.max_residual": 0.0,
                 "susy.verify_sqm.max_residual": 0.0}
        for name in RELATIONS:
            stats[f"fockrep.relation.{name}.fail"] = 0
            stats[f"fockrep.relation.{name}.max_residual"] = 0.0
        for name in (*SQM_RELATIONS, "path_agreement"):
            stats[f"susy.relation.{name}.fail"] = 0
            stats[f"susy.relation.{name}.max_residual"] = 0.0
        for name in ("hierarchy_shift_exact", "shift_periodic"):
            stats[f"susy.relation.{name}.fail"] = 0
        return stats

    def make_input(self):
        """Lambda takes each value in turn, so every run has the same mix of op sizes.

        The op's cost grows with lambda.  Listing lambda = 3, the paper's
        case, twice puts the median and the 90th percentile inside the
        latency clusters of lambda = 3 and 5, not in a gap between two.
        """
        lam = self.lams[self.drawn % len(self.lams)]
        self.drawn += 1
        return susy_point(self.rng, lam)

    def kind(self, inp) -> str:
        return "bench.verify"

    def start(self) -> None:
        pass

    def run(self, inp):
        p, _ = inp
        k = self.trunc
        ops = fockrep.build_operators(p, k)
        relations = fockrep.verify_relations(ops, p)
        hier = susy.build_hierarchy(p, k)
        sqm = susy.verify_sqm(hier)
        interlaced = susy.check_interlacing(hier, k - p.lam)
        projection = susy.projection_shift_identity(hier)
        return ops, relations, hier, sqm, interlaced, projection

    def check(self, inp, out, stats) -> list[tuple[str, str]]:
        p, omegas = inp
        ops, relations, hier, sqm, interlaced, projection = out
        if not stats["fockrep.operator_bytes"]:
            stats["fockrep.operator_bytes"] = array_bytes(ops)
            stats["susy.hierarchy_bytes"] = array_bytes(hier)
        problems = []
        ground = [Fraction(0)]
        for w in omegas:
            ground.append(ground[-1] + w)
        if hier.omegas != omegas or hier.ground_energies != tuple(ground):
            problems.append(("check", f"spacings or ground energies wrong at {p.alphas}"))

        for name, value in relations.residuals.items():
            _worst(stats, f"fockrep.relation.{name}.max_residual", value)
            if value >= relations.tol:
                stats[f"fockrep.relation.{name}.fail"] += 1
        _worst(stats, "fockrep.verify_relations.max_residual", relations.max_residual)
        for name in SQM_RELATIONS:
            value = max(d[name] for d in sqm.per_mu)
            _worst(stats, f"susy.relation.{name}.max_residual", value)
            stats[f"susy.relation.{name}.fail"] += value >= sqm.tol
        path = max(sqm.path_agreement)
        _worst(stats, "susy.relation.path_agreement.max_residual", path)
        stats["susy.relation.path_agreement.fail"] += path >= sqm.tol
        stats["susy.relation.hierarchy_shift_exact.fail"] += not sqm.hierarchy_shift_exact
        stats["susy.relation.shift_periodic.fail"] += not sqm.shift_periodic
        _worst(stats, "susy.verify_sqm.max_residual", sqm.max_residual)

        verdicts = {"verify_relations": relations.all_pass, "verify_sqm": sqm.all_pass,
                    "check_interlacing": interlaced, "projection_shift_identity": projection}
        problems += [("verdict", f"{name} fails at lambda={p.lam}, K={self.trunc}")
                     for name, ok in verdicts.items() if not ok]
        return problems

    def record(self, inp, out):
        p, _ = inp
        ops, relations, hier, sqm, interlaced, projection = out
        return [[str(a) for a in p.alphas], [str(w) for w in hier.omegas],
                [str(e) for e in hier.ground_energies],
                [relations.all_pass, sqm.all_pass, interlaced, projection]]

    def finish(self, stats) -> None:
        pass


class CliCold:
    """One fresh ``python -m cext_osc.cli`` process per op, rotating through five commands."""

    commands = ("classify", "spectrum", "susy", "diagram", "sweep")
    digest_ops = 10
    ref_every_ns = 0
    ref_window = 1
    ref_nominal_ns = calibrate.SPAWN_NOMINAL_NS
    reference = staticmethod(calibrate.spawn_kernel)

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.drawn = 0

    def new_stats(self) -> dict:
        return {"cli.exit_nonzero": 0, "cli.bad_output": 0}

    def make_input(self) -> tuple[str, list[str], object]:
        """(command, arguments, expected label) for the next op.

        The label of a classify op is worked out here, so that the timed op
        is the CLI process alone.
        """
        command = self.commands[self.drawn % len(self.commands)]
        self.drawn += 1
        if command == "sweep":
            return command, ["sweep", "--random", "100", "--seed", str(self.rng.randrange(2**31))], None
        if command in ("classify", "spectrum"):
            p = spectrum.random_admissible_params(self.rng)
        else:
            p, _ = susy_point(self.rng, 3)
        args = [command, f"--alpha0={p.alphas[0]}", f"--alpha1={p.alphas[1]}"]
        if command == "classify":
            return command, args, spectrum.classify3(p).label
        if command == "diagram":
            args += ["--ascii", "--susy"]
        return command, args, None

    def kind(self, inp) -> str:
        return f"cli.{inp[0]}"

    def start(self) -> None:
        pass

    def run(self, inp) -> subprocess.CompletedProcess:
        return subprocess.run(CLI + inp[1], capture_output=True, text=True, timeout=CLI_TIMEOUT_S)

    def check(self, inp, proc, stats) -> list[tuple[str, str]]:
        command, args, label = inp
        if proc.returncode != 0:
            stats["cli.exit_nonzero"] += 1
            return [("check", f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-200:]}")]
        try:
            problems = getattr(self, f"_check_{command}")(proc.stdout, label)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [("check", f"unparsable output ({type(exc).__name__}: {exc})")]
        if any(kind == "check" for kind, _ in problems):
            stats["cli.bad_output"] += 1
        return [(kind, f"{' '.join(args)}: {msg}") for kind, msg in problems]

    @staticmethod
    def _check_classify(stdout: str, label: str):
        rep = json.loads(stdout)
        problems = []
        if rep["oracle_agrees"] is not True:
            problems.append(("check", "oracle_agrees is not true"))
        if rep["spectrum_type"]["label"] != label:
            problems.append(("check", f"label {rep['spectrum_type']['label']} != {label}"))
        return problems

    @staticmethod
    def _check_spectrum(stdout: str, label: None):
        rows = stdout.splitlines()[1:]
        if len(rows) != 12:
            return [("check", f"{len(rows)} level rows, expected 12")]
        for n, row in enumerate(rows):
            index, sub, exact, approx = row.split()
            energy = Fraction(exact)
            if int(index) != n or int(sub) != n % 3 or abs(float(approx) - energy) > 1e-6:
                return [("check", f"bad level row {row!r}")]
        return []

    @staticmethod
    def _check_susy(stdout: str, label: None):
        rep = json.loads(stdout)["susy"]
        if rep["relations_pass"] is not True:
            return [("verdict", "relations_pass is not true")]
        return []

    @staticmethod
    def _check_diagram(stdout: str, label: None):
        header, *rows = stdout.splitlines()
        if header.split() != ["H(0)", "H(1)", "H(2)", "H(3)"] or not rows:
            return [("check", f"bad diagram header {header!r}")]
        for row in rows:
            Fraction(row.split()[0])
        return []

    @staticmethod
    def _check_sweep(stdout: str, label: None):
        *points, summary = (json.loads(line) for line in stdout.splitlines())
        problems = []
        if not summary.get("summary") or summary["points"] != 100 or len(points) != 100:
            problems.append(("check", "summary line missing or wrong point count"))
        if summary["oracle_disagreements"] != 0:
            problems.append(("check", f"{summary['oracle_disagreements']} oracle disagreements"))
        return problems

    def record(self, inp, proc):
        command, args, _ = inp
        output = proc.stdout
        if command in ("classify", "susy"):
            try:
                output = json.loads(output)
                for field in ("schema", "tool_version"):
                    output.pop(field, None)
            except (ValueError, AttributeError):
                pass  # unparsable output is digested as it is; check() flags it
        return [args, proc.returncode, output]

    def finish(self, stats) -> None:
        pass


def input_stream(name: str, seed: int, part: int) -> str:
    """The seed of the input stream of ``part`` of a run of workload ``name``."""
    return f"{name}:{seed}:{part}"


def make(name: str, seed: int, part: int):
    """The workload ``name`` drawing its inputs from ``input_stream(name, seed, part)``."""
    rng = random.Random(input_stream(name, seed, part))
    if name == "sweep":
        return Sweep(rng)
    if name == "verify_k60":
        return Verify(rng, 60, (2, 3, 3, 4, 5), digest_ops=100, ref_window=4)
    if name == "verify_k240":
        return Verify(rng, 240, (3,), digest_ops=4, ref_window=1)
    if name == "cli_cold":
        return CliCold(rng)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep", "verify_k60", "verify_k240", "cli_cold")
