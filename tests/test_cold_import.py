"""Importing and running the pipeline loads ``numpy`` but never ``scipy``.

``scipy.linalg.expm`` serves only the reference ``matrix_exponential``, so
``memtensor.linalg`` imports it on first use. The check runs in a fresh
interpreter: the test process itself may already hold ``scipy``.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import memtensor
from memtensor import cli
from memtensor.kernel import ProjectorChoice, nz_kernel_direct
from memtensor.models import TimeGrid, example_initial_state, example_model
from memtensor.tomography import FixedState, TrueEnvironment, reconstruct_family
from memtensor.transfer import MemoryConfig, build_tensors, propagate

model, rho0 = example_model(), example_initial_state()
grid = TimeGrid(0.0, model.period / 4, 8)
family = reconstruct_family(model, grid, FixedState(np.eye(2) / 2), substeps=8, band=3)
tensors = build_tensors(family, MemoryConfig(dt=grid.dt, m=2, c=4))
propagate(tensors, [np.eye(2) / 2] * 2, 12)
nz_kernel_direct(model, ProjectorChoice(TrueEnvironment()), 0.25, 0.75, 8, rho_se0=rho0)
assert cli.main(["validate"]) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

import scipy.linalg
from memtensor import linalg

m = np.random.default_rng(7).standard_normal((4, 4))
error = np.abs(linalg.matrix_exponential(m, 0.3) - linalg.taylor_exponential(m[None], 0.3)[0]).max()
print(json.dumps({"loaded": loaded, "error": float(error),
                  "bound": linalg.expm is scipy.linalg.expm}))
"""


def test_the_pipeline_never_loads_scipy_and_the_reference_still_does(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(SRC)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["loaded"] == []
    assert result["error"] < 1e-13
    assert result["bound"]
