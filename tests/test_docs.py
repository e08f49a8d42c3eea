"""The README's code runs as written, from the repository root."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_snippet_runs_as_written():
    readme = (ROOT / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    titles = [ln for ln in proc.stdout.splitlines() if ln.startswith("== ")]
    assert titles == [
        "== OLS Regression ==",
        "== Bayesian Posterior (89% CI) ==",
        "== Combined Verdict ==",
    ]
