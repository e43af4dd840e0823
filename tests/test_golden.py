"""The CLI contract: stdout, stderr and exit code of the golden corpus, byte for byte.

``tests/golden/cases.json`` lists each command with what it produced when the
corpus was recorded by ``tests/make_golden.py``.  The commands run here in
process, through the test runner of ``conftest.py``, with
``CEXT_OSC_DEFAULT_TRUNCATION`` unset unless the case sets it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cext_osc.cli import main
from conftest import PROG, Runner

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden(case, tmp_path, monkeypatch):
    env = {"CEXT_OSC_DEFAULT_TRUNCATION": None, **case["env"]}
    # relative --out paths resolve in an empty directory; PROG is how make_golden.py runs it
    monkeypatch.chdir(tmp_path)
    res = Runner().invoke(main, case["args"], env=env, prog_name=PROG)
    assert res.exit_code == case["exit_code"], res.stderr
    out = res.stdout_bytes
    if "sha256" in case:
        assert out.count(b"\n") == case["lines"]
        assert hashlib.sha256(out).hexdigest() == case["sha256"]
    elif "file" in case:
        assert out == (GOLDEN / case["file"]).read_bytes()
    else:
        assert out == b""
    err = (GOLDEN / case["err_file"]).read_bytes() if "err_file" in case else b""
    assert res.stderr_bytes == err
