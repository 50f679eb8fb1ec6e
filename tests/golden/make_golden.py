"""Regenerate ``cli_headlines.json``: headline numbers of small CLI runs.

Each case is a ``memtensor`` command line plus a config; the file stores the
cases together with every value of the CSV rows they write, so
``tests/test_golden.py`` re-runs exactly what was recorded. Regenerate only
when a change of the numbers is intended, and say why in ``CHANGES.md``:

    PYTHONPATH=src python tests/golden/make_golden.py [NAME ...]

With case names, only those cases are (re)recorded and every other case keeps
the rows already in the file, so a new case can be added without rewriting
the old ones.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("cli_headlines.json")


# the benchmark's spin-bath model builder; importing it only reads perfbench
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))
from workloads import spin_bath_config  # noqa: E402


def spin_bath_case() -> dict:
    """The benchmark's spin bath on two bath qubits, from ``|0><0| (x) tau``.

    ``tau`` is a full-rank diagonal bath state, so the reference state is not
    the maximally mixed one the benchmark uses.
    """
    tau = np.diag([4.0, 3.0, 2.0, 1.0]) / 10
    rho0 = np.kron(np.diag([1.0, 0.0]), tau).astype(complex)
    return {"model": spin_bath_config((3.0, 2.9)),
            "initial_state": [[[z.real, z.imag] for z in row] for row in rho0]}


CASES = [
    {
        "name": "tensors-periodic",
        "argv": ["tensors"],
        "config": {"grid": {"dt": math.pi / 4}, "memory": {"m": 3}, "substeps": 12},
        "csv": "tensor_norms.csv",
    },
    {
        "name": "propagate-oracle-dt0.625",
        "argv": ["propagate", "--oracle"],
        "config": {"grid": {"dt": 0.625, "steps": 16}, "memory": {"m": 4}, "substeps": 16},
        "csv": "propagate.csv",
    },
    {
        "name": "propagate-oracle-dt-pi/5",
        "argv": ["propagate", "--oracle"],
        "config": {"grid": {"dt": math.pi / 5, "steps": 24}, "memory": {"m": 4}, "substeps": 16},
        "csv": "propagate.csv",
    },
    {
        "name": "tensors-true-env",
        "argv": ["tensors", "--policy", "true-env"],
        "config": {"grid": {"dt": math.pi / 4, "steps": 8}, "memory": {"m": 3}, "substeps": 12},
        "csv": "tensor_norms.csv",
    },
    {
        "name": "propagate-oracle-true-env",
        "argv": ["propagate", "--oracle", "--policy", "true-env"],
        "config": {"grid": {"dt": math.pi / 5, "steps": 16}, "memory": {"m": 4}, "substeps": 16},
        "csv": "propagate.csv",
    },
    {
        "name": "error-sweep-one-cell",
        "argv": ["error-sweep"],
        "config": {
            "sweep": {"c_values": [4], "tm_targets": [2.5], "horizon": 15.0},
            "substeps": 16,
        },
        "csv": "error_sweep.csv",
    },
    {
        "name": "kernel-norms",
        "argv": ["kernel-norms"],
        "config": {"grid": {"dt": 0.5, "steps": 2}, "substeps": 8},
        "csv": "kernel_norms.csv",
    },
    {
        "name": "convergence",
        "argv": ["convergence"],
        "config": {
            "convergence": {"t_values": [1.25], "n_values": [4, 8], "kernel_substeps": 128},
            "substeps": 16,
        },
        "csv": "convergence.csv",
    },
    {
        # d = 8, so n = 64 Liouville entries per column; all 21 maps of 6
        # steps with 5 step phases: the shape of a larger bath
        "name": "tomography-spin-bath",
        "argv": ["tomography"],
        "config": {**spin_bath_case(), "grid": {"dt": math.pi / 5, "steps": 6}, "substeps": 8},
        "csv": "tomography_report.csv",
    },
]


def csv_rows(path: Path) -> list[list]:
    """Data rows of a CLI CSV, numbers as floats and labels as strings."""
    rows = []
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    for line in lines[1:]:
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return rows


def run_case(case: dict, workdir: Path) -> list[list]:
    """Runs one case through ``memtensor.cli.main`` and returns its CSV rows."""
    from memtensor import cli

    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(case["config"]))
    out = workdir / "out"
    code = cli.main([*case["argv"], "--config", str(cfg), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"case {case['name']} exited {code}")
    return csv_rows(out / case["csv"])


def main(names: list[str]) -> int:
    unknown = set(names) - {case["name"] for case in CASES}
    if unknown:
        raise SystemExit(f"error: no golden case named {sorted(unknown)}")
    recorded = {}
    if names:
        recorded = {c["name"]: c["rows"] for c in json.loads(GOLDEN.read_text(encoding="utf-8"))}
    with tempfile.TemporaryDirectory() as tmp:
        doc = [
            {**case, "rows": recorded[case["name"]]}
            if names and case["name"] not in names
            else {**case, "rows": run_case(case, Path(tmp) / str(n))}
            for n, case in enumerate(CASES)
        ]
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(GOLDEN)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
