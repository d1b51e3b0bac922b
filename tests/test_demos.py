import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          env=env, timeout=120)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr


def test_demo_witness_counts():
    proc = run_demo(ROOT / "demos" / "04_towers_and_counting.py")
    counts = re.findall(r"m=(\d+): point ~ [\d.]+ has exactly (\d+) expansions", proc.stdout)
    assert counts == [(str(m), str(m)) for m in (1, 2, 3, 4)]
