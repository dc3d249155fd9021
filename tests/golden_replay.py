"""Replay the golden corpus through the CLI, one `python -S -m mvtop.cli` process per case.

Run it from any directory with the interpreter to check, which needs nothing
but the standard library:

    python tests/golden_replay.py

Each case runs in a fresh temporary directory holding the corpus files, with
the checkout's `src` as the only import path beyond the standard library.  It
prints one line per mismatching case and a summary, and exits 1 on any
mismatch, 0 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from golden_cases import FILES, GOLDEN, digest

SRC = Path(__file__).resolve().parent.parent / "src"


def replay(argv: list[str], directory: str) -> tuple[int, str, str]:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8"}
    done = subprocess.run(
        [sys.executable, "-S", "-m", "mvtop.cli", *argv], cwd=directory, env=env, capture_output=True
    )
    return done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")


def main() -> int:
    mismatches = 0
    for case, (argv, expected) in GOLDEN.items():
        with tempfile.TemporaryDirectory() as directory:
            for name, obj in FILES.items():
                Path(directory, name).write_text(json.dumps(obj), encoding="utf-8")
            outcome = replay(argv, directory)
        if digest(*outcome) != expected:
            mismatches += 1
            print(f"mismatch: {case}: exit {outcome[0]}, stderr {outcome[2]!r}")
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"golden replay on Python {version}: {len(GOLDEN) - mismatches} of {len(GOLDEN)} cases match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
