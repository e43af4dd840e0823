"""The CLI contract: stdout and exit code of the golden corpus, byte for byte.

``tests/golden/cases.json`` lists each command with what it produced when the
corpus was recorded by ``tests/make_golden.py``.  The commands run here in
process, through click's test runner, with ``CEXT_OSC_DEFAULT_TRUNCATION``
unset unless the case sets it.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from cext_osc.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# the name the help and --version print, as tests/make_golden.py runs the CLI
PROG = "python -m cext_osc.cli"
# a process run with COLUMNS=80 wraps its help at 78 columns; click's runner would force 80
HELP_WIDTH = 78
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden(case, tmp_path):
    env = {"CEXT_OSC_DEFAULT_TRUNCATION": None, **case["env"]}
    runner = CliRunner()
    # relative --out paths resolve in an empty directory
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, case["args"], env=env, prog_name=PROG,
                            terminal_width=HELP_WIDTH)
    assert res.exit_code == case["exit_code"], res.stderr
    out = res.stdout_bytes
    if "sha256" in case:
        assert out.count(b"\n") == case["lines"]
        assert hashlib.sha256(out).hexdigest() == case["sha256"]
    elif "file" in case:
        assert out == (GOLDEN / case["file"]).read_bytes()
    else:
        assert out == b""
