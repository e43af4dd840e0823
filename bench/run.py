"""The cext-osc benchmark: one workload, measured end to end or traced per layer.

Run from the root of the repository::

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Workloads, metrics and units are those named in BENCHMARK.json.  Each
workload is a closed loop: one process, one op at a time.  The workload
processes import the library from ``src`` with BLAS pinned to one thread.

``--trace 0`` starts the workload process five times, each measuring a
fifth of ``--seconds`` of op time on its own input stream, and prints the
end-to-end metrics: ``setup_s`` (median over the five processes of the
time from starting the process to its first timed op: interpreter start,
imports, the first input and a warm-up op), ``ops_per_s`` (ops per second
of op time), the median and 90th-percentile op latency, and the peak RSS of
the workload processes (for cli_cold, of the largest CLI process).

Times are given at a fixed nominal machine speed (see calibrate.py): each
op's wall time is scaled by how fast a reference kernel ran around it, and
each set-up by how fast a bare interpreter started just before it.  The
unscaled wall-clock figures are printed and kept in the run record too.

``attempted`` counts the timed ops and ``failed`` those that raised, whose
output failed a check, or for which one of the library's own verification
verdicts failed.  ``correct`` is false if any op raised or failed a check;
a failing verdict alone counts in ``failed`` but leaves ``correct`` true,
because it is the library's report about its input, not a wrong output.

``--trace 1`` starts one workload process that runs ops for half of
``--seconds`` untraced, then replays the same inputs with spans around every
public function of the library, and prints the per-layer metrics.  Metrics
of a layer that the workload does not reach read 0.

The last line of output is one JSON object; the lines before it are the
same figures for a reader, with sample counts, the failure fraction and the
run record written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PARTS = 5
DEADLINE_S = 170  # every run ends well inside three minutes
PROBES = 5
LAYERS = ("algebra", "spectrum", "fockrep", "susy", "cli")
IMPORT_PROBE = ("import json, sys, time; t = time.perf_counter(); import cext_osc.cli; "
                "print(json.dumps([(time.perf_counter() - t) * 1e3, 'numpy' in sys.modules]))")


class BenchError(RuntimeError):
    """The benchmark could not run: no library to measure, or a process failed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def python(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run ``python args`` in the repository root and return it; raise unless it exits 0."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def sloc(module: str) -> int:
    """Non-blank lines of a library module that are not comment lines."""
    lines = (ROOT / "src" / "cext_osc" / f"{module}.py").read_text().splitlines()
    return sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))


def start_probes(deadline: float) -> dict[str, float]:
    """Cold start of a bare interpreter and of ``import cext_osc.cli``, medians of several."""
    bare, imports = [], []
    for _ in range(PROBES):
        bare.append(calibrate.spawn_kernel(child_env()) / 1e6)
        imports.append(json.loads(python(["-c", IMPORT_PROBE], deadline).stdout))
    return {"cli.python_startup_ms": statistics.median(bare),
            "cli.import_ms": statistics.median(ms for ms, _ in imports),
            "cli.numpy_loaded": float(imports[-1][1])}


def end_to_end(workload: str, results: list[dict], setups: list[float]) -> dict[str, float]:
    latencies = [ns * scale / 1e6 for r in results
                 for ns, scale in zip(r["latencies_ns"], r["scales"])]
    rss_kb = max(r["rss_children_kb" if workload == "cli_cold" else "rss_self_kb"]
                 for r in results)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": quantile(latencies, 0.9),
        "peak_rss_mb": rss_kb / 1024,
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "loadavg_at_start": os.getloadavg(), "nproc": os.cpu_count(),
              "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
              "python": platform.python_version()}
    parts = 1 if trace else PARTS
    results, setups, raw_setups = [], [], []
    for part in range(parts):
        spawn_ns = statistics.median(calibrate.spawn_kernel(child_env()) for _ in range(3))
        started = time.monotonic()
        proc = python([str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
                       "--part", str(part), "--seconds", str(seconds / parts),
                       "--trace", str(trace)], deadline)
        res = json.loads(proc.stdout.splitlines()[-1])
        raw_setups.append(res["first_op_at"] - started)
        setups.append(raw_setups[-1] * calibrate.SPAWN_NOMINAL_NS / spawn_ns)
        results.append(res)
    ops = sum(len(r["latencies_ns"]) for r in results)
    attempted = ops + sum(r.get("untraced", {}).get("ops", 0) for r in results)
    failed = sum(r["failed"] + r.get("untraced", {}).get("failed", 0) for r in results)
    wrong = sum(r["wrong"] + r.get("untraced", {}).get("wrong", 0) for r in results)

    if trace:
        values = results[0]["metrics"]
        values.update({f"{layer}.sloc": sloc(layer) for layer in LAYERS})
        values.update(start_probes(deadline))
        wanted = spec["per_layer"]
        record["not_reached"] = [m["name"] for m in wanted if m["name"] not in values]
    else:
        values = end_to_end(workload, results, setups)
        unscaled = [dict(r, scales=[1.0] * len(r["scales"])) for r in results]
        record["unscaled"] = end_to_end(workload, unscaled, raw_setups)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    record.update(
        numpy=results[0]["numpy"], setups_s=setups, unscaled_setups_s=raw_setups,
        attempted=attempted, failed=failed, wrong=wrong, metrics=metrics,
        digest=[(r["digest_ops"], r["digest"]) for r in results],
        parts=results)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"run-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"{workload}: seed {seed}, {seconds} s of ops over {parts} process(es), "
          f"BLAS threads {record['blas_threads']}, load {record['loadavg_at_start'][0]:.2f}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        print(f"  (latencies over n={ops} ops, set-up over {parts} processes, "
              f"times at the nominal machine speed; unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in record["unscaled"].items()) + ")")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} ({failed} of {attempted} ops)")
    for problems in (p for r in results for p in r["problems"][:1]):
        print(f"  first failure: {problems}")
    print(f"  output digest over {sum(n for n, _ in record['digest'])} ops: "
          f"{' '.join(d[:16] for _, d in record['digest'])}")
    print(f"  run record: {path.relative_to(ROOT)}")
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.exists() else None
    names = [w["name"] for w in spec["workloads"]] if spec else []
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"] if spec else 0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "cext_osc" / "__init__.py").exists():
        print("error: no cext_osc sources under src/ to benchmark", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    try:
        # Compile the bytecode once, so no workload process pays it in its set-up.
        python(["-c", "import sys; sys.path.insert(0, 'bench'); import worker, cext_osc.cli"],
               time.monotonic() + DEADLINE_S)
        chosen = names if args.workload == "all" else [args.workload]
        results = {w: run_workload(spec, w, args.seed, args.seconds, args.trace) for w in chosen}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[chosen[0]] if len(chosen) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
