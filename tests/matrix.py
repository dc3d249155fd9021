"""Run tier-1 under another interpreter, with test packages it does not have.

    python tests/matrix.py INTERPRETER PACKAGES [pytest arguments]

INTERPRETER is the Python executable to test with.  PACKAGES is a directory of
pure-Python test packages that it can import: pytest, _pytest, pluggy,
iniconfig, packaging, hypothesis and the _hypothesis_* modules, attr and attrs,
sortedcontainers, pygments and py.py, with their .dist-info directories, which
register hypothesis's pytest plugin.  Symlinks to another interpreter's copies
serve.  The script runs tier-1 as CI does,

    INTERPRETER -X dev -W error -m pytest -q --continue-on-collection-errors

from the repository root, with `src`, then PACKAGES, then the inherited
PYTHONPATH on PYTHONPATH, and exits with pytest's exit code.  It needs only the
standard library, and CI does not run it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    interpreter, packages, *args = argv
    path = [str(ROOT / "src"), str(Path(packages).resolve()), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    command = [interpreter, "-X", "dev", "-W", "error", "-m", "pytest", "-q", "--continue-on-collection-errors"]
    return subprocess.run([*command, *args], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
