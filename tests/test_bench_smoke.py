"""The benchmark's smoke check passes: every workload's oracles hold at
tiny size, so a change that breaks a benchmark verdict fails here."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMOKE = ROOT / "perfbench" / "smoke.py"


@pytest.mark.skipif(not SMOKE.exists(), reason="perfbench/ is absent")
def test_benchmark_smoke_passes():
    proc = subprocess.run([sys.executable, str(SMOKE)], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
