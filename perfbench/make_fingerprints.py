"""Regenerate ``fingerprints.json`` from the current code.

Usage (from the repository root)::

    python3 perfbench/make_fingerprints.py

Runs one untraced pass of each workload and records the values its checks
compare against, with their tolerances. ``large_bath`` depends on the seed,
so it is recorded for seeds ``0 .. LARGE_BATH_SEEDS - 1``; other seeds of it
are checked for CPTP maps only. Rerun only when a change is meant to move
these numbers, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LARGE_BATH_SEEDS = 32


def main() -> int:
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads
    from tracing import NullTracer

    fingerprints = {}
    for name, cls in workloads.WORKLOADS.items():
        seeds = range(LARGE_BATH_SEEDS) if name == "large_bath" else [0]
        recorded = {}
        for seed in seeds:
            workload = cls(seed)
            results = workload.run(NullTracer())
            fingerprint = workload.fingerprint(results)
            recorded[str(seed)] = fingerprint
            print(f"{name} seed {seed}: recorded", file=sys.stderr)
        if name == "large_bath":
            fingerprints[name] = {"rtol": 1e-9, "seeds": recorded}
        else:
            fingerprints[name] = recorded["0"]
        # a fresh fingerprint must pass its own check
        golden = fingerprints[name]
        failures = workload.check(results, golden).failures
        if failures:
            raise SystemExit(f"{name}: fresh fingerprint fails its check: {failures}")
    (HERE / "fingerprints.json").write_text(json.dumps(fingerprints, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
