"""The demo scripts run to completion, each in a fresh interpreter.

They run from an empty directory with the package on PYTHONPATH, so a
demo that writes files cannot touch the checkout.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catpurify import sweeps
from test_sweeps import FIGURE_DIGESTS

ROOT = Path(__file__).resolve().parents[1]
FIGURE_DEMO = ROOT / "demos" / "figure_datasets.py"
DEMOS = sorted(set((ROOT / "demos").glob("*.py")) - {FIGURE_DEMO})


def run_demo(demo: Path, cwd: Path, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_figure_datasets_match_recorded_digests(tmp_path):
    run_demo(FIGURE_DEMO, tmp_path, str(tmp_path / "out"))
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (tmp_path / "out").iterdir()
    }
    assert written == {sweeps.csv_name(f): digest for f, digest in FIGURE_DIGESTS.items()}
