"""Regenerate ``cli_headlines.json``: headline numbers of small CLI runs.

Each case is a ``memtensor`` command line plus a config; the file stores the
cases together with every value of the CSV rows they write, so
``tests/test_golden.py`` re-runs exactly what was recorded. Regenerate only
when a change of the numbers is intended, and say why in ``CHANGES.md``:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("cli_headlines.json")

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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        doc = [
            {**case, "rows": run_case(case, Path(tmp) / str(n))}
            for n, case in enumerate(CASES)
        ]
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(GOLDEN)
    return 0


if __name__ == "__main__":
    sys.exit(main())
