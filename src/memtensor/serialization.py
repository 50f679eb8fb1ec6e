"""Text (JSON) export and import of map families and transfer-tensor sets.

Binary-free interchange: complex matrices are nested row-major lists of
``[re, im]`` pairs, and every document carries a convention header naming the
vectorization and norm conventions it was produced under. Floats survive the
round trip exactly (shortest-repr JSON), comfortably inside the 1e-15
contract.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .models import TimeGrid, complex_matrix_from_json
from .tomography import (
    DynamicalMapFamily,
    FixedState,
    FrozenSystem,
    ReferencePolicy,
    TrueEnvironment,
    check_cptp,
    policy_label,
)
from .transfer import MemoryConfig, TransferTensorSet

CONVENTIONS = {
    "vectorization": "column-stacking",
    "matrix_entries": "row-major nested lists of [re, im] pairs",
    "operator_norm": "largest singular value",
}


def complex_matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), -1).tolist()  # [[[re, im], ...], ...]


def _check_header(doc: dict, fmt: str) -> None:
    if doc.get("format") != fmt:
        raise ValueError(f"not a {fmt} document: format={doc.get('format')!r}")
    if doc.get("conventions") != CONVENTIONS:
        raise ValueError(
            f"conventions {doc.get('conventions')!r} differ from this package's {CONVENTIONS!r}"
        )


def _matrices(doc: dict, section: str, parts: int, shape=None, superop=False):
    """Complex matrices of ``doc[section]`` keyed by ``parts`` integers.

    All are square and of one shape: ``shape``, or else the first entry's;
    ``superop`` also requires a size ``d**2``. A one-integer key is stored as
    a plain int. Returns the matrices and their common shape.
    """
    entries = doc.get(section)
    if not isinstance(entries, dict):
        raise ValueError(f"document has no {section!r} object")
    out = {}
    for key, rows in entries.items():
        try:
            index = tuple(int(part) for part in key.split(","))
            matrix = complex_matrix_from_json(rows)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{section} entry {key!r}: {exc}") from None
        if len(index) != parts:
            raise ValueError(f"{section} key {key!r} is not {parts} integer(s)")
        n = len(matrix)
        if matrix.shape != (shape or (n, n)) or (superop and math.isqrt(n) ** 2 != n):
            expected = shape or ("square of size d_S**2" if superop else "square")
            raise ValueError(
                f"{section} entry {key!r} has shape {matrix.shape}, expected {expected}"
            )
        shape = matrix.shape
        out[index if parts > 1 else index[0]] = matrix
    return out, shape


def _fields(doc: dict, section: str, cls):
    """``cls(**doc[section])``, with a malformed section as ``ValueError``."""
    try:
        return cls(**doc[section])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"document {section!r}: {exc!r}") from None


def _policy_to_json(policy: ReferencePolicy) -> dict:
    descriptor = {"kind": policy_label(policy)}
    if isinstance(policy, FixedState):
        descriptor["tau"] = complex_matrix_to_json(policy.tau)
    return descriptor


def _policy_from_json(descriptor: dict) -> ReferencePolicy:
    kind = descriptor["kind"]
    if kind == "fixed":
        return FixedState(complex_matrix_from_json(descriptor["tau"]))
    if kind == "true-env":
        return TrueEnvironment()
    if kind == "frozen":
        # the frozen-system profile is a callable and is not serialized;
        # imported families carry their stored reference states instead
        return FrozenSystem(sigma=None)
    raise ValueError(f"unknown policy kind {kind!r}")


def family_to_json(family: DynamicalMapFamily) -> dict:
    return {
        "format": "memtensor-map-family",
        "version": 1,
        "conventions": CONVENTIONS,
        "grid": {
            "t0": family.grid.t0,
            "dt": family.grid.dt,
            "steps": family.grid.steps,
        },
        "policy": _policy_to_json(family.policy),
        "maps": {f"{i},{j}": complex_matrix_to_json(m) for (i, j), m in family.maps.items()},
        "reference_states": {
            str(j): complex_matrix_to_json(tau)
            for j, tau in sorted(family.reference_states.items())
        },
    }


def family_from_json(doc: dict) -> DynamicalMapFamily:
    _check_header(doc, "memtensor-map-family")
    try:
        policy = _policy_from_json(doc["policy"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"document 'policy': {exc!r}") from None
    grid = _fields(doc, "grid", TimeGrid)
    maps, shape = _matrices(doc, "maps", 2, superop=True)
    if not maps:
        raise ValueError("document 'maps' holds no map")
    for i, j in sorted(maps):
        if not 0 <= i < j <= grid.steps:
            raise ValueError(f"maps key '{i},{j}' is not a map of the {grid.steps}-step grid")
        if check_cptp(maps[i, j]).trace_dev > 1e-8:
            raise ValueError(f"maps key '{i},{j}' is not trace preserving to 1e-8")
    # a family is the full band of its grid: every map (i, j) with
    # 0 <= i < j <= min(i + band, steps), the band being its longest map
    band = max(j - i for i, j in maps)
    for i in range(grid.steps):
        for j in range(i + 1, min(i + band, grid.steps) + 1):
            if (i, j) not in maps:
                raise ValueError(
                    f"maps lack key '{i},{j}' of the band {band} of the {grid.steps}-step grid"
                )
    stack = np.zeros((grid.steps, band + 1, *shape), dtype=complex)
    for (i, j), matrix in maps.items():
        stack[i, j - i] = matrix
    # one reference state per grid point 0 .. steps, and no other
    references, _ = _matrices(doc, "reference_states", 1)
    points = range(grid.steps + 1)
    missing = [j for j in points if j not in references]
    if missing:
        raise ValueError(
            f"reference_states lack key '{missing[0]}' of the {grid.steps}-step grid"
        )
    extra = sorted(set(references) - set(points))
    if extra:
        raise ValueError(
            f"reference_states key '{extra[0]}' is not a point of the {grid.steps}-step grid"
        )
    references = {j: references[j] for j in points}
    return DynamicalMapFamily(grid, policy, stack, references)


def tensors_to_json(tensor_set: TransferTensorSet) -> dict:
    config = tensor_set.config
    doc = {
        "format": "memtensor-transfer-tensors",
        "version": 1,
        "conventions": CONVENTIONS,
        "config": {
            "dt": config.dt,
            "m": config.m,
            "c": config.c,
            "transient_steps": config.transient_steps,
        },
        "tensors": {
            f"{p},{l}": complex_matrix_to_json(t)
            for (p, l), t in sorted(tensor_set.tensors.items())
        },
        "residuals": {
            str(k): complex_matrix_to_json(r) for k, r in sorted(tensor_set.residuals.items())
        },
    }
    if tensor_set.dense:
        # written only for dense sets: periodic documents keep the original format
        doc["dense"] = True
    return doc


def tensors_from_json(doc: dict) -> TransferTensorSet:
    """Tensor set from its JSON document: dense when its ``dense`` flag is
    ``true``, periodic when the flag is ``false`` or absent. A flag that is
    not a JSON boolean is a ``ValueError``, and so is a periodic document
    that stores a start past its phases ``0 .. transient_steps + c - 1``."""
    _check_header(doc, "memtensor-transfer-tensors")
    dense = doc.get("dense", False)
    if not isinstance(dense, bool):
        raise ValueError(f"document 'dense' must be a JSON boolean, got {dense!r}")
    config = _fields(doc, "config", MemoryConfig)
    tensors, shape = _matrices(doc, "tensors", 2, superop=True)
    ds = None if shape is None else math.isqrt(shape[0])
    residuals, _ = _matrices(doc, "residuals", 1, None if ds is None else (ds, ds))
    return TransferTensorSet(config=config, tensors=tensors, residuals=residuals, dense=dense)


def save_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
