"""Time-dependent Lindblad models on the joint system-environment space.

A model is a Hamiltonian function of time plus a list of jump operators with
rates, all on the joint space (system factor first). The generator is the
usual Lindblad form

    d rho / dt = -i [H_t, rho] + sum_k  rate_k (L rho L^dag - {L^dag L, rho}/2)

and propagators over an interval are ordered products of exponentials of
midpoint-sampled generators (second order in the substep size). Time-ordered
products rather than single exponentials are required because the driving
makes generators at different times non-commuting.

One primitive, :func:`ordered_exponential`, forms every such product in the
package: joint propagators here, reference-state integration in
``tomography`` and the ``Q L`` exponential of the direct kernel route. It
asks a callback for the generator stack ``(K, n, n)`` at a chunk of substep
midpoints and exponentiates each chunk in one batched call; chunks are
bounded in bytes. :func:`generator_stack` builds joint generators as such
stacks, the jump part computed once per model. :class:`PropagatorCache`
builds each grid step once and, for a declared period commensurate with the
grid, only the steps of the first period.

The driven, dissipative two-qubit model used throughout the test-suite and
demos is provided by :func:`example_model` / :func:`example_initial_state`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import (
    SpaceLayout,
    hermiticity_defect,
    left_mult_superop,
    matrix_exponential,
    right_mult_superop,
    sandwich_superop,
    validate_density_operator,
    vectorize,
    devectorize,
)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid ``t_j = t0 + j*dt`` for ``j = 0..steps``."""

    t0: float
    dt: float
    steps: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    def time(self, j: int) -> float:
        return self.t0 + j * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.steps + 1)


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Joint-space Lindblad model with optional periodic driving.

    Parameters
    ----------
    layout : SpaceLayout
        System / environment dimensions.
    hamiltonian : callable
        ``t -> ndarray``, Hermitian on the joint space.
    jump_terms : list of (ndarray, float)
        Jump operators with non-negative rates (units 1/time).
    period : float, optional
        Driving period of the generator, if periodic.
    """

    layout: SpaceLayout
    hamiltonian: Callable[[float], np.ndarray]
    jump_terms: list = field(default_factory=list)
    period: float | None = None

    def __post_init__(self):
        for _, rate in self.jump_terms:
            if rate < 0:
                raise ValueError(f"jump rate must be non-negative, got {rate}")
        if self.period is not None and self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")

    def validate(self, sample_times=(0.0, 0.31, 1.7), tol: float = 1e-12) -> None:
        """Spot-check Hermiticity and declared periodicity at sample times."""
        d = self.layout.dim_joint
        for t in sample_times:
            h = self.hamiltonian(t)
            if h.shape != (d, d):
                raise ValueError(f"hamiltonian({t}) has shape {h.shape}, expected {(d, d)}")
            if hermiticity_defect(h) > tol:
                raise ValueError(f"hamiltonian({t}) is not Hermitian to {tol:.1e}")
            if self.period is not None:
                if np.max(np.abs(self.hamiltonian(t + self.period) - h)) > tol:
                    raise ValueError(f"hamiltonian not periodic with period {self.period}")

    @cached_property
    def dissipator(self) -> np.ndarray:
        """Static jump-term part of the generator, built on first use."""
        d2 = self.layout.dim_joint ** 2
        diss = np.zeros((d2, d2), dtype=complex)
        for op, rate in self.jump_terms:
            op = np.asarray(op)
            opdop = op.conj().T @ op
            diss += rate * (
                sandwich_superop(op, op)
                - 0.5 * (left_mult_superop(opdop) + right_mult_superop(opdop))
            )
        return diss


# Byte cap of one ``(K, n, n)`` generator or exponential stack: whole substep
# batches for small joint spaces, one matrix at a time for large ones, so the
# peak memory of a batched product stays that of the unbatched loop.
_STACK_BYTES = 256 * 1024


def steps_per_period(period: float, dt: float) -> int | None:
    """Grid steps in one driving period, or ``None`` when ``period / dt`` is
    not a positive integer to within 1e-9 (grid incommensurate with the drive)."""
    ratio = period / dt
    c = round(ratio)
    return c if c >= 1 and abs(ratio - c) <= 1e-9 else None


def midpoints(s: float, t: float, substeps: int) -> tuple[np.ndarray, float]:
    """Substep midpoints of ``[s, t]`` and the substep size."""
    h = (t - s) / substeps
    return s + (np.arange(substeps) + 0.5) * h, h


def ordered_exponential(
    generators: Callable[[np.ndarray], np.ndarray],
    times: np.ndarray,
    h: float,
    start: np.ndarray,
) -> np.ndarray:
    """Time-ordered product ``exp(h G(t_K)) ... exp(h G(t_1)) start``.

    The midpoint-sampled, piecewise-constant ordered exponential (second
    order in ``h``) on which every propagator of the package is built.
    ``generators(times)`` returns the generator stack ``(K, n, n)`` at the
    given midpoints; it is called on consecutive chunks of ``times``, each
    exponentiated in one batched call. ``start`` is an ``n``-vector or an
    ``(n, m)`` matrix (the identity gives the propagator itself).
    """
    out = np.asarray(start, dtype=complex)
    n = out.shape[0]
    chunk = max(1, _STACK_BYTES // (16 * n * n))
    for lo in range(0, len(times), chunk):
        for step in matrix_exponential(generators(times[lo : lo + chunk]), h):
            out = step @ out
    return out


def generator_stack(model: LindbladModel, times) -> np.ndarray:
    """Generator superoperators ``(K, d^2, d^2)`` at each of ``times``.

    The commutator part ``-i (I (x) H - H^T (x) I)`` is broadcast over the
    stack of sampled Hamiltonians, each checked Hermitian to 1e-12; the
    static jump part is the model's cached :attr:`~LindbladModel.dissipator`.
    """
    hs = np.stack([np.asarray(model.hamiltonian(t), dtype=complex) for t in times])
    defect = np.abs(hs - hs.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = np.flatnonzero(defect > 1e-12)
    if bad.size:
        raise ValueError(f"hamiltonian({times[bad[0]]}) is not Hermitian to 1e-12")
    k, d = hs.shape[0], hs.shape[-1]
    eye = np.eye(d)
    # entry [(j, i), (l, k)] is delta_jl H_ik for I (x) H and H_lj delta_ik
    # for H^T (x) I (column stacking: the column index is the outer one)
    left = eye[None, :, None, :, None] * hs[:, None, :, None, :]
    right = hs.swapaxes(-1, -2)[:, :, None, :, None] * eye[None, None, :, None, :]
    return (-1j * (left - right)).reshape(k, d * d, d * d) + model.dissipator


def liouvillian(model: LindbladModel, t: float) -> np.ndarray:
    """Generator superoperator at time ``t`` (trace-annihilating)."""
    return generator_stack(model, [t])[0]


def propagator(model: LindbladModel, s: float, t: float, substeps: int = 64) -> np.ndarray:
    """Ordered-product propagator superoperator for ``[s, t]``.

    Midpoint-sampled piecewise-constant exponentials; error is second order
    in ``(t - s)/substeps``. ``propagator(model, s, s, k)`` is the identity.
    """
    if t < s:
        raise ValueError(f"need t >= s, got s={s}, t={t}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    u = np.eye(model.layout.dim_joint ** 2, dtype=complex)
    if t == s:
        return u
    times, h = midpoints(s, t, substeps)
    return ordered_exponential(lambda ts: generator_stack(model, ts), times, h, u)


class PropagatorCache:
    """Single-step propagators on a grid, built once each.

    Products of ``adjacent`` steps give the propagator between any two grid
    points, so divisibility ``U(j,k) @ U(i,j) = U(i,k)`` holds exactly for
    such products.

    Phase reuse: when the model declares a ``period`` that is an integer
    number ``c`` of grid steps (to within 1e-9), step ``i`` is the step
    ``i mod c`` of the first period and only ``c`` steps are ever built. The
    reuse rests on the generator's periodicity alone, whatever reference
    policy the propagators later serve. Before the first reuse the declared
    period is checked once: the Hamiltonian at the midpoints of step 0 must
    equal its value one period later to 1e-12, else ``ValueError``.
    """

    def __init__(self, model: LindbladModel, grid: TimeGrid, substeps: int = 64):
        self.model = model
        self.grid = grid
        self.substeps = substeps
        self._adjacent: dict[int, np.ndarray] = {}
        self._phases = None if model.period is None else steps_per_period(model.period, grid.dt)
        self._period_checked = False

    def adjacent(self, i: int) -> np.ndarray:
        """Propagator over the single step ``[t_i, t_{i+1}]``."""
        if not 0 <= i < self.grid.steps:
            raise ValueError(f"step index {i} outside grid of {self.grid.steps} steps")
        if self._phases is not None and i >= self._phases:
            if not self._period_checked:
                step0, _ = midpoints(self.grid.time(0), self.grid.time(1), self.substeps)
                self.model.validate(sample_times=step0)
                self._period_checked = True
            i %= self._phases
        if i not in self._adjacent:
            self._adjacent[i] = propagator(
                self.model, self.grid.time(i), self.grid.time(i + 1), self.substeps
            )
        return self._adjacent[i]


def evolve_state(
    rho0: np.ndarray,
    model: LindbladModel,
    grid: TimeGrid,
    substeps: int = 64,
    cache: PropagatorCache | None = None,
) -> list[np.ndarray]:
    """Joint trajectory ``[rho(t_0), ..., rho(t_N)]`` from initial state ``rho0``."""
    validate_density_operator(rho0)
    d = model.layout.dim_joint
    if rho0.shape != (d, d):
        raise ValueError(f"state shape {rho0.shape} does not match joint dimension {d}")
    if cache is None:
        cache = PropagatorCache(model, grid, substeps)
    trajectory = [np.array(rho0, dtype=complex)]
    vec = vectorize(rho0)
    for j in range(grid.steps):
        vec = cache.adjacent(j) @ vec
        trajectory.append(devectorize(vec, d))
    return trajectory


# ---------------------------------------------------------------------------
# Built-in example: driven, dissipative pair of qubits
# ---------------------------------------------------------------------------

EXAMPLE_PARAMETERS = {
    "omega": 1.0,       # system splitting; sets the time unit
    "omega_env": 16.0,  # environment splitting
    "coupling": 2.0,    # XX / YY exchange strength
    "drive_freq": 2.0,  # frequency of the cos-modulated YY term
    "pump_rate": 1.0,   # incoherent pumping of the environment
}


def example_model() -> LindbladModel:
    """Driven, dissipative two-qubit model (system qubit + environment qubit).

    ``H(t) = (w/2) Z(x)1 + (w'/2) 1(x)Z + g [X(x)X + cos(W t) Y(x)Y]`` with
    ``w = 1, w' = 16, g = 2, W = 2``, plus a jump ``1(x)|0><1|`` at rate 1
    that pumps the environment to its excited state. The generator is
    periodic with period ``2 pi / W = pi``.
    """
    p = EXAMPLE_PARAMETERS
    zi = np.kron(PAULI["Z"], PAULI["I"])
    iz = np.kron(PAULI["I"], PAULI["Z"])
    xx = np.kron(PAULI["X"], PAULI["X"])
    yy = np.kron(PAULI["Y"], PAULI["Y"])

    def hamiltonian(t: float) -> np.ndarray:
        return (
            0.5 * p["omega"] * zi
            + 0.5 * p["omega_env"] * iz
            + p["coupling"] * (xx + math.cos(p["drive_freq"] * t) * yy)
        )

    pump = np.kron(PAULI["I"], np.array([[0, 1], [0, 0]], dtype=complex))  # |0><1| on E
    return LindbladModel(
        layout=SpaceLayout(2, 2),
        hamiltonian=hamiltonian,
        jump_terms=[(pump, p["pump_rate"])],
        period=2 * math.pi / p["drive_freq"],
    )


def example_initial_state() -> np.ndarray:
    """Correlated initial joint state ``3/4 |0><0|(x)|+><+| + 1/4 |1><1|(x)|-><-|``."""
    ket0 = np.array([1.0, 0.0])
    ket1 = np.array([0.0, 1.0])
    plus = (ket0 + ket1) / np.sqrt(2)
    minus = (ket0 - ket1) / np.sqrt(2)
    rho = 0.75 * np.kron(np.outer(ket0, ket0), np.outer(plus, plus)) + 0.25 * np.kron(
        np.outer(ket1, ket1), np.outer(minus, minus)
    )
    return rho.astype(complex)


# ---------------------------------------------------------------------------
# Config-file loading
# ---------------------------------------------------------------------------
#
# Schema (JSON):
#   dim_system, dim_environment : int
#   period                      : float, optional
#   hamiltonian                 : list of terms; each term has either
#                                   "pauli": string of I/X/Y/Z, one char per
#                                            qubit factor (system first), or
#                                   "matrix": joint-space complex matrix,
#                                 plus "coefficient": float and optional
#                                 "envelope": {"type": "cosine",
#                                              "frequency": float,
#                                              "phase": float (default 0)}
#   jumps                       : list of {"matrix": ..., "rate": float}
# Complex matrices are nested row-major lists of [re, im] pairs.


def _complex_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _pauli_string(label: str, layout: SpaceLayout) -> np.ndarray:
    if layout.dim_system != 2 or layout.dim_environment != 2 ** (len(label) - 1):
        raise ValueError(
            f"pauli string {label!r} needs qubit factors matching the layout"
        )
    op = PAULI[label[0]]
    for ch in label[1:]:
        op = np.kron(op, PAULI[ch])
    return op


def model_from_config(config: dict) -> LindbladModel:
    """Build a :class:`LindbladModel` from a parsed config dictionary."""
    try:
        layout = SpaceLayout(int(config["dim_system"]), int(config["dim_environment"]))
        terms = []
        for term in config["hamiltonian"]:
            if "pauli" in term:
                op = _pauli_string(term["pauli"], layout)
            else:
                op = _complex_matrix(term["matrix"])
            coeff = float(term["coefficient"])
            env = term.get("envelope")
            if env is None:
                terms.append((op, coeff, None, None))
            elif env["type"] == "cosine":
                terms.append((op, coeff, float(env["frequency"]), float(env.get("phase", 0.0))))
            else:
                raise ValueError(f"unknown envelope type {env['type']!r}")
        jumps = [
            (_complex_matrix(j["matrix"]), float(j["rate"]))
            for j in config.get("jumps", [])
        ]
        period = config.get("period")
        period = float(period) if period is not None else None
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed model config: {exc}") from exc

    def hamiltonian(t: float) -> np.ndarray:
        h = np.zeros((layout.dim_joint, layout.dim_joint), dtype=complex)
        for op, coeff, freq, phase in terms:
            factor = coeff if freq is None else coeff * math.cos(freq * t + phase)
            h = h + factor * op
        return h

    model = LindbladModel(layout, hamiltonian, jumps, period)
    model.validate()
    return model


def load_model(path) -> LindbladModel:
    """Load a model from a JSON config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_config(json.load(fh))
