"""Every demo, and README's quick start, runs to completion from the
repository root.

Demo 06 is left out: its z = 4 sweep point alone takes close to a
minute.
"""

import hashlib
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


# sha256 of demo 03's stdout: its per-copy price table is printed to four
# decimals, so a wrong price changes the bytes
COPY_ECONOMICS_STDOUT = "897a484fd07c1cfb973834d3601bd73a90ad3bdf5f40083caaa2808122c43ade"


def test_copy_economics_output_pinned():
    result = run_from_root(str(ROOT / "demos" / "03_copy_economics.py"))
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == COPY_ECONOMICS_STDOUT, result.stdout


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    result = run_from_root("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("composed expected cost")
