"""Every demo, and README's quick start, runs to completion from the
repository root, and the demos with a pinned digest print the same
bytes."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))

# sha256 of each pinned demo's stdout. Each prints its figures to four
# or six decimals, so a wrong copy price (03), reservation sweep row
# (04), sweep optimum (06) or baseline cost or stage breakdown (07)
# changes the bytes.
PINNED = {
    "03_copy_economics.py": "897a484fd07c1cfb973834d3601bd73a90ad3bdf5f40083caaa2808122c43ade",
    "04_reservation_phase.py": "41353aca502f7defc1e13dcf9129c5c89db7eaff133cb06c5d1a87c3d5dc29f6",
    "06_stage_depth_sweep.py": "2b7ba6034a995744ff1d1e8767e2e2a279207859933b1d2841c5f5083a0c0210",
    "07_baseline_comparison.py": "0cb06f596dff737e5be1a50cd17af59e25cd1749011d5ec73cb0ca733db040ac",
}


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
    assert len(DEMOS) == 8
    assert set(PINNED) <= set(DEMOS)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    result = run_from_root(str(ROOT / "demos" / name))
    assert result.returncode == 0, result.stderr
    if name in PINNED:
        digest = hashlib.sha256(result.stdout.encode()).hexdigest()
        assert digest == PINNED[name], result.stdout


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    result = run_from_root("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("composed expected cost")
