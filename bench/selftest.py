"""Self-test of the benchmark: every metric is reported, and every check can fail.

Run from the root of the repository (about two minutes)::

    python3 bench/selftest.py

1. Runs each workload briefly through run.py, untraced and traced,
   and asserts that the last line holds exactly ``correct``, ``attempted``,
   ``failed`` and ``metrics``, with every metric of BENCHMARK.json under its
   unit, and that each per-layer metric is produced by some workload.
2. In this process, corrupts what each check looks at (a swapped label,
   wrong spacings, a failing verdict, wrong ground energies, a CLI stub that
   prints no JSON or exits non-zero) and asserts that the fraction of failed
   ops rises from 0.
3. Runs the benchmark in a directory holding only BENCHMARK.json and bench/,
   and asserts that it exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import workloads  # noqa: E402
from cext_osc import spectrum, susy  # noqa: E402
from run import child_env  # noqa: E402
from worker import run_phase  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    seconds = 4 if workload == "cli_cold" else 1  # long enough to run each CLI command once
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_reports() -> None:
    produced = set()
    for workload in workloads.WORKLOADS:
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in wanted}, (workload, trace)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            if trace:
                record = ROOT / ".bench_out" / f"run-{workload}-seed{SEED}-trace1.json"
                not_reached = set(json.loads(record.read_text())["not_reached"])
                produced |= {m["name"] for m in wanted} - not_reached
            print(f"ok  {workload} --trace {trace}: {len(units)} metrics, "
                  f"{result['failed']} of {result['attempted']} ops failed")
    missing = {m["name"] for m in SPEC["per_layer"]} - produced
    assert not missing, f"per-layer metrics no workload produces: {sorted(missing)}"


@contextlib.contextmanager
def patched(owner, name: str, value):
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def failed_frac(workload: str, seconds: float, kind: str) -> float:
    """Share of ops that failed (``kind`` "verdict") or that failed a check (``"check"``)."""
    wl = workloads.make(workload, SEED, 0)
    ph = run_phase(wl, seconds=seconds)
    return (ph.wrong if kind == "check" else ph.failed) / len(ph.latencies_ns)


def check_faults() -> None:
    classify3, detect_period = spectrum.classify3, spectrum.detect_period
    build_hierarchy, verify_sqm = susy.build_hierarchy, susy.verify_sqm

    def swapped_label(p):
        t = classify3(p)
        return dataclasses.replace(t, n=t.n + 1)

    def wrong_spacings(p, count=30):
        report = detect_period(p, count)
        return dataclasses.replace(report, omegas=tuple(2 * w for w in report.omegas))

    def failing_sqm(h, tol=1e-12):
        return dataclasses.replace(verify_sqm(h, tol), shift_periodic=False)

    def wrong_ground(p, trunc=60):
        h = build_hierarchy(p, trunc)
        return dataclasses.replace(h, ground_energies=tuple(e + 1 for e in h.ground_energies))

    faults = [
        ("sweep", 1.0, "check", spectrum, "classify3", swapped_label),
        ("sweep", 1.0, "check", spectrum, "detect_period", wrong_spacings),
        ("verify_k60", 1.0, "verdict", susy, "verify_sqm", failing_sqm),
        ("verify_k60", 1.0, "check", susy, "build_hierarchy", wrong_ground),
        ("cli_cold", 1.5, "check", spectrum, "classify3", swapped_label),
        ("cli_cold", 1.5, "check", workloads, "CLI", [sys.executable, "-c", "print('not json')"]),
        ("cli_cold", 1.5, "check", workloads, "CLI", [sys.executable, "-c", "raise SystemExit(3)"]),
    ]
    clean = {w: failed_frac(w, s, "verdict") for w, s, *_ in faults}
    assert all(frac == 0 for frac in clean.values()), clean
    for workload, seconds, kind, owner, name, fault in faults:
        with patched(owner, name, fault):
            frac = failed_frac(workload, seconds, kind)
        label = fault.__name__ if callable(fault) else f"stub {fault[-1]!r}"
        assert frac > 0, f"{workload}: corrupting {name} ({label}) left failed_frac at 0"
        print(f"ok  {workload}: {name} -> {label}: failed_frac 0 -> {frac:.2f} ({kind})")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench("sweep", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without sources: exit {proc.returncode}, no result printed")


if __name__ == "__main__":
    os.environ.update(child_env())  # the CLI processes of the in-process checks import src/
    check_reports()
    check_faults()
    check_bare_directory()
    print("selftest passed")
