"""Run the twinreg CLI of this working tree, or of another revision, in one process.

``unpacked(rev)`` unpacks a git revision with ``git archive`` into a
temporary directory, and ``run_cli(root, argvs)`` runs ``twinreg.cli.main``
on each argv with that tree's ``src`` on PYTHONPATH, all in one Python
process.  The scripts beside this one import it; it uses only the standard
library and git.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# run with one tree's src on PYTHONPATH: reads a JSON list of argvs on stdin
# and writes [exit code, stdout, stderr] for each, all made by one process
DRIVER = """
import contextlib, io, json, sys
from twinreg.cli import main
runs = []
for argv in json.load(sys.stdin):
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    runs.append([code, out.buffer.getvalue().decode(), err.getvalue()])
json.dump(runs, sys.stdout)
"""


@contextlib.contextmanager
def unpacked(rev: str):
    """The files of git revision rev, in a temporary directory while the block runs."""
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", rev], capture_output=True, check=True
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        yield Path(tmp)


def run_cli(root: Path, argvs: list[list[str]]) -> list[list]:
    """[exit code, stdout, stderr] of the CLI of the tree at root, for each argv."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-c", DRIVER],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
        check=True,
    )
    return json.loads(done.stdout)
