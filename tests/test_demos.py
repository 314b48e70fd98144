"""Every script in demos/ runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_exits_zero():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (demo.name, proc.stderr)
        if demo.name.startswith("05_"):
            # the mixed-sign boundary witness of acceptance criterion 5
            assert "defects: d_G = 9 - 7 = 2, d_G-e = 9 - 5 = 4" in proc.stdout
