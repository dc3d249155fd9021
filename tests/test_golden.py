"""Golden outputs, run in process: see `golden_cases.py` for the corpus.

To see what a case prints, run its argv in a directory holding its files.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from golden_cases import FILES, GOLDEN, digest
from mvtop.cli import main


def run_case(argv, directory, monkeypatch):
    for name, obj in FILES.items():
        (directory / name).write_text(json.dumps(obj), encoding="utf-8")
    monkeypatch.chdir(directory)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_output(case, tmp_path, monkeypatch):
    argv, expected = GOLDEN[case]
    assert digest(*run_case(argv, tmp_path, monkeypatch)) == expected
