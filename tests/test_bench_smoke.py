"""The benchmark's smoke check passes: every workload's oracles hold at
tiny size, so a change that breaks a benchmark verdict fails here."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMOKE = ROOT / "perfbench" / "smoke.py"
RUN = ROOT / "perfbench" / "run.py"


@pytest.mark.skipif(not SMOKE.exists(), reason="perfbench/ is absent")
def test_benchmark_smoke_passes():
    proc = subprocess.run([sys.executable, str(SMOKE)], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.skipif(not RUN.exists(), reason="perfbench/ is absent")
def test_a_traced_prove_run_times_every_front_end_layer():
    """The tracer wraps names in the modules that call them, so a layer
    whose code moves to another module must still be reached there."""
    proc = subprocess.run([sys.executable, str(RUN), "--workload", "prove", "--seed", "7",
                           "--seconds", "0.5", "--trace", "1", "--size", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    layers = ("cli.parse_s", "extract.prove_corec_s", "logic.check_proof_s",
              "logic.normalize_s", "logic.sp_scan_s", "extract.extract_s")
    assert {name: result["metrics"][name]["value"] > 0 for name in layers} == \
        dict.fromkeys(layers, True)
