"""One workload process: set up, warm up, then run ops in a closed loop.

run.py starts it with ``PYTHONPATH=src`` and BLAS pinned to one thread::

    python3 bench/worker.py --workload sweep --seed 1 --part 0 --seconds 6.7 --trace 0

It prints one JSON line: the monotonic time of its first timed op (the
parent subtracts its own start time to get set-up time), the op latencies,
failure counts, peak RSS, a digest of the first ops' exact outputs and, with
``--trace 1``, the per-layer metrics of a traced replay of the same ops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy

import workloads
from calibrate import local_scale
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Phase:
    """What one closed-loop pass over a workload's ops observed."""

    inputs: list = field(default_factory=list)
    latencies_ns: list = field(default_factory=list)
    busy_ns: int = 0
    scales: list = field(default_factory=list)  # per op: nominal / local machine speed
    refs: list = field(default_factory=list)  # reference kernel samples, in time order
    failed: int = 0
    wrong: int = 0  # ops that raised or failed a "check" (not only a verdict)
    problems: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    digest_ops: int = 0
    digest: str = ""


def run_phase(wl, seconds: float | None = None, replay: list | None = None,
              tracer: Tracer | None = None, keep_inputs: bool = False) -> Phase:
    """Run ops one at a time until ``seconds`` of op time, or over ``replay``.

    Only the op itself is timed; drawing the input, checking the output,
    digesting it and sampling the reference kernel happen between ops.
    """
    wl.start()
    ph = Phase(stats=wl.new_stats())
    digest = hashlib.sha256()
    budget_ns = None if seconds is None else seconds * 1e9
    ref_after = []  # per op: index of the first reference sample taken after it
    since_ref = 0
    i = 0
    while (ph.busy_ns < budget_ns) if replay is None else (i < len(replay)):
        inp = wl.make_input() if replay is None else replay[i]
        if keep_inputs:
            ph.inputs.append(inp)
        out, problems = None, []
        start = perf_counter_ns()
        try:
            if tracer is None:
                out = wl.run(inp)
            else:
                tracer.op = i
                out = tracer.call(wl.kind(inp), wl.run, inp)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            problems = [("raised", f"{type(exc).__name__}: {exc}")]
        elapsed = perf_counter_ns() - start
        if out is not None:
            problems = wl.check(inp, out, ph.stats)
            if i < wl.digest_ops:
                digest.update(json.dumps(wl.record(inp, out), default=str).encode())
                ph.digest_ops += 1
        del out  # so the next op does not run while this one's arrays are still alive
        ph.latencies_ns.append(elapsed)
        ph.busy_ns += elapsed
        ref_after.append(len(ph.refs))
        since_ref += elapsed
        if since_ref >= wl.ref_every_ns:
            ph.refs.append(wl.reference())
            since_ref = 0
        if problems:
            ph.failed += 1
            ph.wrong += any(kind != "verdict" for kind, _ in problems)
            if len(ph.problems) < 5:
                ph.problems.append(problems)
        i += 1
    if not ph.refs:
        ph.refs.append(wl.reference())
    ph.scales = [local_scale(ph.refs, k, wl.ref_nominal_ns, wl.ref_window) for k in ref_after]
    ph.digest = digest.hexdigest()
    return ph


def scaled_busy(ph: Phase) -> float:
    return sum(ns * scale for ns, scale in zip(ph.latencies_ns, ph.scales))


def levels_observer(counts, result) -> None:
    counts["spectrum.levels.count"] += len(result)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    wl = workloads.make(args.workload, args.seed, args.part)
    wl.run(wl.make_input())  # warm-up op: the first call pays any lazy set-up
    first_op_at = time.monotonic()
    result = {"first_op_at": first_op_at, "python": platform.python_version(),
              "numpy": numpy.__version__,
              "input_stream": workloads.input_stream(args.workload, args.seed, args.part)}
    if not args.trace:
        ph = run_phase(wl, seconds=args.seconds)
    else:
        plain = run_phase(wl, seconds=args.seconds / 2, keep_inputs=True)
        tracer = Tracer(observers={"spectrum.levels": levels_observer})
        tracer.install()
        try:
            ph = run_phase(wl, replay=plain.inputs, tracer=tracer)
        finally:
            tracer.uninstall()
        wl.finish(ph.stats)
        metrics = tracer.metrics(ph.scales)
        metrics.update(ph.stats)
        metrics["bench.trace_overhead_frac"] = scaled_busy(ph) / scaled_busy(plain) - 1
        result["metrics"] = metrics
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        spans.write_text("".join(json.dumps(s) + "\n" for s in tracer.span_records()))
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["untraced"] = {"ops": len(plain.latencies_ns), "failed": plain.failed,
                              "wrong": plain.wrong}
    result.update(
        ops=len(ph.latencies_ns), failed=ph.failed, wrong=ph.wrong,
        latencies_ns=ph.latencies_ns, scales=ph.scales, refs=ph.refs, problems=ph.problems,
        digest=ph.digest, digest_ops=ph.digest_ops,
        rss_self_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        rss_children_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
