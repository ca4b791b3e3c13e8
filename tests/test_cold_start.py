"""A fresh interpreter loads scipy.optimize only when an NNLS or a search runs.

The check needs its own interpreter: this process has scipy.optimize loaded
already (test_coefficients and test_kernels import it). The probe's results
must match the same calls made here.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cold_start_probe

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_pure_work_never_loads_the_optimizer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(TESTS / "cold_start_probe.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    if got["linalg_loads_optimizer"]:
        pytest.skip("import scipy.linalg alone loads scipy.optimize in this environment")
    assert not got["loaded_after_pure"]
    assert got["loaded_after_mixed"]
    assert got["pure"] == cold_start_probe.pure_fingerprints()
    assert got["mixed"] == cold_start_probe.mixed_fingerprint()
