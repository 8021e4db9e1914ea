"""Every demo, and README's quick start, runs to completion from the
repository root.

Demo 06 is left out: its z = 4 sweep point alone takes close to a
minute.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(
    p.name for p in (ROOT / "demos").glob("*.py") if not p.name.startswith("06_")
)


def run_from_root(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demo_set():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    result = run_from_root(str(ROOT / "demos" / name))
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    result = run_from_root("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("composed expected cost")
