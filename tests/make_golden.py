"""Write the golden CLI corpus that tests/test_golden.py compares against.

Run from the root of the repository, on the tree whose output is the
contract::

    python3 tests/make_golden.py

Each case runs ``python -m cext_osc.cli`` in a fresh process and records its
exit code and stdout: non-empty stdout as ``tests/golden/<name>.out``, a
large one as its sha256 and line count, an empty one as nothing.  The cases
and what was recorded go to ``tests/golden/cases.json``.  The test suite
never runs this script; a change that rewrites a golden file names the file
and the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
TRUNCATION_VAR = "CEXT_OSC_DEFAULT_TRUNCATION"
# stdout larger than this is stored as a digest, not as a file
MAX_STORED_BYTES = 200_000


def _p(a0: str, a1: str) -> list[str]:
    return ["--alpha0", a0, "--alpha1", a1]


CASES: list[tuple[str, list[str], dict[str, str]]] = [
    ("classify_l3_figure", ["classify", *_p("0", "6")], {}),
    ("classify_l3_triple", ["classify", *_p("2", "8")], {}),
    ("classify_l3_class2", ["classify", *_p("10", "7")], {}),
    ("classify_l3_class3", ["classify", *_p("24", "-14")], {}),
    ("classify_l3_periodic", ["classify", *_p("0", "1/2")], {}),
    ("classify_l3_levels9", ["classify", *_p("19", "13"), "--levels", "9"], {}),
    ("classify_l3_levels90", ["classify", *_p("0", "60"), "--levels", "90"], {}),
    ("classify_l3_text", ["classify", *_p("1/3", "1/3"), "--format", "text"], {}),
    ("classify_l2", ["classify", "--lambda", "2", "--alpha", "1/2"], {}),
    ("classify_l4", ["classify", "--lambda", "4", "--alpha", "11/4", "--alpha", "6/7",
                     "--alpha", "-13/3"], {}),
    ("classify_l5", ["classify", "--lambda", "5", "--alpha", "3", "--alpha", "-1/2",
                     "--alpha", "7/3", "--alpha", "-4"], {}),
    ("spectrum_triple", ["spectrum", *_p("2", "8")], {}),
    ("susy_example", ["susy", *_p("0", "1/2")], {}),
    ("susy_k120", ["susy", *_p("1/3", "-1/4"), "--truncation", "120"], {}),
    ("susy_k240", ["susy", *_p("0", "1/2"), "--truncation", "240"], {}),
    ("susy_tol0_exits_3", ["susy", *_p("0", "1/2"), "--tol", "0"], {}),
    ("diagram_svg", ["diagram", *_p("0", "6")], {}),
    ("diagram_ascii_susy", ["diagram", *_p("0", "1/2"), "--ascii", "--susy"], {}),
    ("sweep_grid_inadmissible", ["sweep", "--grid", "-1:2:1/2,-2:1:1/2"], {}),
    ("sweep_grid_fine", ["sweep", "--grid", "-2:3:1/2,-4:4:1/3"], {}),
    # reaches a1 = -40, so every class III window type is pinned
    ("sweep_grid_class3", ["sweep", "--grid", "-1:40:1/2,-40:12:1/3"], {}),
    ("sweep_random_10000", ["sweep", "--random", "10000", "--seed", "0"], {}),
    # the exit-2 inputs of tests/test_cli.py::test_invalid_input_exits_2
    ("invalid_classify_levels_0", ["classify", "--levels", "0"], {}),
    ("invalid_susy_truncation_3", ["susy", "--truncation", "3"], {}),
    ("invalid_susy_truncation_0", ["susy", "--truncation", "0"], {}),
    ("invalid_diagram_levels_0", ["diagram", "--levels", "0"], {}),
    ("invalid_diagram_susy_levels_0", ["diagram", "--levels", "0", "--susy", "--ascii"], {}),
    ("invalid_sweep_levels_0", ["sweep", "--random", "5", "--levels", "0"], {}),
    ("invalid_truncation_env", ["susy"], {TRUNCATION_VAR: "abc"}),
    ("invalid_spectrum_count_0", ["spectrum", "--count", "0"], {}),
    ("invalid_spectrum_count_negative", ["spectrum", "--count", "-3"], {}),
    ("invalid_sweep_random_0", ["sweep", "--random", "0"], {}),
    ("invalid_sweep_random_negative", ["sweep", "--random", "-5"], {}),
    ("invalid_group_option", ["--bogus"], {}),
    ("invalid_command", ["bogus"], {}),
    ("invalid_format", ["classify", "--format", "xml"], {}),
    ("invalid_out_missing_dir", ["diagram", "--out", "no-such-dir/levels.svg"], {}),
    ("invalid_out_directory", ["diagram", "--out", "."], {}),
]


def record(name: str, args: list[str], env: dict[str, str]) -> dict:
    child_env = {k: v for k, v in os.environ.items() if k != TRUNCATION_VAR}
    child_env.update(env, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "cext_osc.cli", *args], env=child_env,
                          cwd=ROOT, capture_output=True, timeout=300)
    case = {"name": name, "args": args, "env": env, "exit_code": proc.returncode}
    out = proc.stdout
    if len(out) > MAX_STORED_BYTES:
        case["sha256"] = hashlib.sha256(out).hexdigest()
        case["lines"] = out.count(b"\n")
    elif out:
        case["file"] = f"{name}.out"
        (GOLDEN / case["file"]).write_bytes(out)
    return case


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.out"):
        old.unlink()
    cases = [record(*case) for case in CASES]
    lines = ",\n".join(json.dumps(case) for case in cases)
    (GOLDEN / "cases.json").write_text(f"[\n{lines}\n]\n")
    for case in cases:
        print(case["exit_code"], case["name"])


if __name__ == "__main__":
    main()
