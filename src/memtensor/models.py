"""Driven Lindblad models on the joint system-environment space.

A model is a Hamiltonian ``H(t) = H_0 + sum_k cos(w_k t + phi_k) H_k`` plus a
list of jump operators with rates, all on the joint space (system factor
first). The generator is the usual Lindblad form

    d rho / dt = -i [H_t, rho] + sum_k  rate_k (L rho L^dag - {L^dag L, rho}/2)

and propagators over an interval are ordered products of exponentials of
midpoint-sampled generators (second order in the substep size). Time-ordered
products rather than single exponentials are required because the driving
makes generators at different times non-commuting.

Every generator preserves Hermiticity, so it is real in the Hermitian
coordinates of :mod:`~memtensor.linalg`; a model stores its superoperators
there and :func:`generator_stack` contracts them into real stacks. One
primitive, :func:`ordered_exponential`, forms every time-ordered product in
coordinates (joint propagators here, ``Q L`` in the direct kernel route):
:func:`hermitian_step_chunks` exponentiates chunks of generators as batched
Taylor series, which ``tomography``'s reference states walk through too, or
each substep acts on a block as a truncated Taylor action.
:class:`PropagatorCache` stores real grid steps, each built once, and only
one period of them when the generator repeats on the grid, which
:func:`steps_per_period` alone decides: after 1 step without drives, after
``period / dt`` on a grid commensurate with a declared period, else never.
``act`` steps a coordinate block without building one; :func:`liouvillian`,
:func:`propagator` and ``adjacent`` return operator space.

The driven, dissipative two-qubit model used throughout the test-suite and
demos is provided by :func:`example_model` / :func:`example_initial_state`.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import (
    SpaceLayout,
    _integer,
    expm_action,
    from_coordinates,
    hermiticity_defect,
    left_mult_superop,
    right_mult_superop,
    sandwich_superop,
    superop_from_coordinates,
    superop_to_coordinates,
    taylor_exponential,
    to_coordinates,
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


def _finite(value, name: str) -> float:
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid ``t_j = t0 + j*dt`` for ``j = 0..steps``."""

    t0: float
    dt: float
    steps: int

    def __post_init__(self):
        _finite(self.t0, "t0")
        if _finite(self.dt, "dt") <= 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        _integer(self.steps, "steps", 1)

    def time(self, j: int) -> float:
        return self.t0 + j * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.steps + 1)


def _operator(value, name: str, d: int) -> np.ndarray:
    """``value`` as a finite complex ``(d, d)`` array, else ``ValueError`` naming it."""
    try:
        op = np.array(value, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not a complex matrix: {exc}") from None
    if op.shape != (d, d):
        raise ValueError(f"{name} has shape {op.shape}, expected {(d, d)}")
    if not np.isfinite(op).all():
        raise ValueError(f"{name} has non-finite entries")
    return op


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Joint-space Lindblad model ``H(t) = H_0 + sum_k cos(w_k t + phi_k) H_k``.

    Parameters
    ----------
    layout : SpaceLayout
        System / environment dimensions.
    static : ndarray
        ``H_0``, Hermitian on the joint space.
    jump_terms : sequence of (ndarray, float)
        Jump operators with non-negative rates (units 1/time).
    period : float, optional
        Driving period, if periodic: each ``w_k * period / 2 pi`` an integer.
    drives : sequence of (ndarray, float, float)
        Driven terms ``(H_k, w_k, phi_k)``; those sharing an envelope
        ``(w, phi)`` sum to a Hermitian matrix.

    All is checked here, once, to 1e-12 (the period relative), else
    ``ValueError`` naming the parameter; and the superoperators are built in
    real Hermitian coordinates, refused if an imaginary part there exceeds
    1e-12 of their largest entry: dissipator plus ``-i[H_0, .]``, and
    ``-i[H_g, .]`` per envelope group.
    """

    layout: SpaceLayout
    static: np.ndarray
    jump_terms: tuple = ()
    period: float | None = None
    drives: tuple = ()

    def __post_init__(self):
        d = self.layout.dim_joint
        if callable(self.static):
            raise ValueError("static must be the matrix H_0, not a function of time; pass "
                             "each cosine-driven term as drives=[(H_k, w_k, phi_k), ...]")
        static = _operator(self.static, "static", d)
        jumps = []
        for k, (op, rate) in enumerate(self.jump_terms):
            if _finite(rate, f"jumps[{k}].rate") < 0:
                raise ValueError(f"jumps[{k}].rate must be non-negative, got {rate}")
            jumps.append((_operator(op, f"jumps[{k}]", d), float(rate)))
        drives = [(_operator(op, f"drives[{k}]", d), _finite(w, f"drives[{k}].frequency"),
                   _finite(phi, f"drives[{k}].phase"))
                  for k, (op, w, phi) in enumerate(self.drives)]
        groups = {}  # (w, phi) -> the sum of the drives with that envelope
        for op, w, phi in drives:
            groups[w, phi] = groups[w, phi] + op if (w, phi) in groups else op
        named = {"static": static, **{f"drives at (w, phi) = {e}": h for e, h in groups.items()}}
        for name, h in named.items():
            if hermiticity_defect(h) > 1e-12:
                raise ValueError(f"{name}: not Hermitian to 1e-12")
        if self.period is not None:
            if _finite(self.period, "period") <= 0:
                raise ValueError(f"period must be positive, got {self.period}")
            for w, _ in groups:
                cycles = w * self.period / (2 * math.pi)
                if abs(cycles - round(cycles)) > 1e-12 * abs(cycles):
                    raise ValueError(f"frequency {w} is not periodic with period {self.period}")
        dissipator = np.zeros((d * d, d * d), dtype=complex)
        for op, rate in jumps:
            opdop = op.conj().T @ op
            dissipator += rate * (
                sandwich_superop(op, op)
                - 0.5 * (left_mult_superop(opdop) + right_mult_superop(opdop))
            )
        commutators = [-1j * (left_mult_superop(h) - right_mult_superop(h))
                       for h in [static, *groups.values()]]
        superops = superop_to_coordinates(np.stack([commutators[0] + dissipator, *commutators[1:]]))
        defect = float(np.abs(superops.imag).max())
        if defect > 1e-12 * float(np.abs(superops).max()):
            raise ValueError(
                f"generator stack does not preserve Hermiticity: its imaginary part in "
                f"Hermitian coordinates reaches {defect:.1e}"
            )
        superops = np.ascontiguousarray(superops.real)
        # the checked terms replace the given ones (the dataclass is frozen)
        self.__dict__.update(
            static=static, jump_terms=tuple(jumps), drives=tuple(drives),
            _static_superop=superops[0],
            _drive_superops=superops[1:],
            _envelopes=np.reshape(list(groups), (-1, 2)).T,  # rows w and phi
        )

    def hamiltonian(self, t: float) -> np.ndarray:
        """``H(t) = H_0 + sum_k cos(w_k t + phi_k) H_k``."""
        return self.static + sum(math.cos(w * t + phi) * op for op, w, phi in self.drives)


# Byte cap of one real ``(K, n, n)`` generator or exponential stack: whole
# substep batches for small joint spaces, one matrix at a time for large ones,
# so the peak memory of a batched product stays that of the unbatched loop.
_STACK_BYTES = 128 * 1024


def steps_per_period(model: LindbladModel, dt: float) -> int | None:
    """Grid steps after which the generator of ``model`` repeats on a grid of
    spacing ``dt``: 1 for a model without drives, ``period / dt`` when that is
    a positive integer to within 1e-9, else ``None`` (no declared period, or a
    grid incommensurate with it). The one rule of phase reuse."""
    if not model.drives:
        return 1
    if model.period is None:
        return None
    ratio = model.period / dt
    c = round(ratio)
    return c if c >= 1 and abs(ratio - c) <= 1e-9 else None


def midpoints(s: float, t: float, substeps: int) -> tuple[np.ndarray, float]:
    """Substep midpoints of ``[s, t]`` and the substep size (``substeps >= 1``)."""
    h = (t - s) / _integer(substeps, "substeps", 1)
    return s + (np.arange(substeps) + 0.5) * h, h


def hermitian_step_chunks(generators, times: np.ndarray, h, n: int, stack_dim: int | None = None):
    """Yield the real steps ``exp(h_k G(t_k))`` of the midpoints ``times``,
    one stack ``(K, n, n)`` per chunk of consecutive midpoints.

    ``generators(times)`` returns the real generators ``(K, n, n)`` at a
    chunk of midpoints; ``h`` is one substep size or one per midpoint. A
    chunk holds as many midpoints as fit real ``stack_dim x stack_dim``
    matrices (default ``n``; larger when the callback builds bigger ones) in
    the byte cap, and is scaled and exponentiated as one batched Taylor series.
    """
    sizes = np.broadcast_to(np.asarray(h, dtype=float), len(times))[:, None, None]
    chunk = max(1, _STACK_BYTES // (8 * (stack_dim or n) ** 2))
    for lo in range(0, len(times), chunk):
        # the scaled stack is not held while the caller builds the next chunk
        yield taylor_exponential(generators(times[lo : lo + chunk]) * sizes[lo : lo + chunk])


def ordered_exponential(
    generators, times: np.ndarray, h: float, start: np.ndarray, action: bool = False
) -> np.ndarray:
    """Time-ordered product ``exp(h G(t_K)) ... exp(h G(t_1)) start``.

    The midpoint-sampled, piecewise-constant ordered exponential (second
    order in ``h``) on which every propagator of the package is built, in
    Hermitian coordinates: ``generators(times)`` returns the real generators
    ``(K, n, n)`` at chunks of the midpoints, and ``start`` and the result
    are coordinates, an ``n``-vector or ``(n, m)`` matrix (the identity gives
    the propagator itself). The steps of :func:`hermitian_step_chunks` apply
    in order; with ``action`` each substep is a truncated Taylor action
    (:func:`~memtensor.linalg.expm_action`) instead, the same product to
    rounding for ``d`` products of ``n x n`` by ``n x m`` per substep (a
    degree-``d`` series). A complex block is carried as its interleaved real
    view, so every product is real.
    """
    out = np.array(start, dtype=np.result_type(start, float), order="C")
    block = out.reshape(len(out), -1)
    if np.iscomplexobj(block):
        block = block.view(np.float64)  # (n, 2m): real and imaginary parts interleaved
    if action:
        chunk = max(1, _STACK_BYTES // (8 * len(out) ** 2))
        for lo in range(0, len(times), chunk):
            for generator in generators(times[lo : lo + chunk]):
                block = expm_action(generator, block, h)
    else:
        for steps in hermitian_step_chunks(generators, times, h, len(out)):
            for step in steps:
                block = step @ block
    return block.view(out.dtype).reshape(out.shape)


def generator_stack(model: LindbladModel, times) -> np.ndarray:
    """Real generators ``(K, d^2, d^2)`` at each of ``times``, in Hermitian
    coordinates: the model's static superoperator plus ``cos(w t + phi)``
    times the commutator superoperator of each envelope group."""
    frequencies, phases = model._envelopes
    envelopes = np.cos(np.outer(times, frequencies) + phases)
    return model._static_superop + np.tensordot(envelopes, model._drive_superops, axes=1)


def liouvillian(model: LindbladModel, t: float) -> np.ndarray:
    """Operator-space generator superoperator at ``t`` (trace-annihilating)."""
    return superop_from_coordinates(generator_stack(model, [t])[0])


def propagator(model: LindbladModel, s: float, t: float, substeps: int = 64) -> np.ndarray:
    """Ordered-product propagator superoperator for ``[s, t]``.

    Midpoint-sampled piecewise-constant exponentials; error is second order
    in ``(t - s)/substeps``. ``propagator(model, s, s, k)`` is the identity.
    """
    if t < s:
        raise ValueError(f"need t >= s, got s={s}, t={t}")
    _integer(substeps, "substeps", 1)
    u = np.eye(model.layout.dim_joint ** 2)
    if t == s:
        return u.astype(complex)
    times, h = midpoints(s, t, substeps)
    steps = ordered_exponential(functools.partial(generator_stack, model), times, h, u)
    return superop_from_coordinates(steps)


class PropagatorCache:
    """Single-step propagators on a grid as real coordinate matrices, built once each.

    Products of steps give the propagator between any two grid points, so
    divisibility ``U(j,k) @ U(i,j) = U(i,k)`` holds exactly for such
    products. :meth:`act` applies a step to a coordinate block without
    building it; :meth:`adjacent` is a step in operator space.

    Phase reuse: ``phases`` is :func:`steps_per_period` of the model on the
    grid (1 without drives). Unless it is ``None``, step ``i`` is the step
    ``i mod phases`` and only ``phases`` steps are ever built. The reuse
    rests on the generator's periodicity alone, whatever reference policy
    the propagators later serve; the model checked its declared period when
    it was built.
    """

    def __init__(self, model: LindbladModel, grid: TimeGrid, substeps: int = 64):
        _integer(substeps, "substeps", 1)
        self.model = model
        self.grid = grid
        self.substeps = substeps
        self._steps: dict[int, np.ndarray] = {}
        self.phases = steps_per_period(model, grid.dt)

    def _phase(self, i: int) -> int:
        """The step whose propagator serves step ``i``: ``i`` or ``i mod c``."""
        if not 0 <= i < self.grid.steps:
            raise ValueError(f"step index {i} outside grid of {self.grid.steps} steps")
        return i if self.phases is None else i % self.phases

    def unbuilt(self, steps: int) -> int:
        """How many distinct step phases among steps ``0 .. steps - 1`` have
        no propagator built yet."""
        phases = steps if self.phases is None else min(steps, self.phases)
        return sum(p not in self._steps for p in range(phases))

    def _ordered(self, i: int, start: np.ndarray, action: bool = False) -> np.ndarray:
        """The midpoint product of step ``i``'s phase applied to ``start``."""
        times, h = midpoints(self.grid.time(i), self.grid.time(i + 1), self.substeps)
        generators = functools.partial(generator_stack, self.model)
        return ordered_exponential(generators, times, h, start, action)

    def step(self, i: int) -> np.ndarray:
        """Real ``(d^2, d^2)`` coordinate matrix of the step ``[t_i, t_{i+1}]``."""
        p = self._phase(i)
        if p not in self._steps:
            self._steps[p] = self._ordered(p, np.eye(self.model.layout.dim_joint ** 2))
        return self._steps[p]

    def adjacent(self, i: int) -> np.ndarray:
        """``step(i)`` as an operator-space superoperator, converted per call."""
        return superop_from_coordinates(self.step(i))

    def act(self, i: int, block: np.ndarray) -> np.ndarray:
        """``step(i) @ block`` of a ``(d^2, w)`` coordinate block, each substep
        a truncated Taylor action (see :func:`ordered_exponential`): the same
        product to rounding. Nothing is built or cached: cheaper than ``step``
        when ``w`` is small beside ``d^2`` and the step is unbuilt."""
        return self._ordered(self._phase(i), block, action=True)


def cache_for(
    model: LindbladModel, grid: TimeGrid, substeps: int, cache: PropagatorCache | None
) -> PropagatorCache:
    """``cache`` if it serves ``model`` on ``grid`` (same ``t0`` and ``dt``, at
    least as many steps; its own substeps are used), a new cache when it is
    None, else ``ValueError``."""
    if cache is None:
        return PropagatorCache(model, grid, substeps)
    if cache.model is not model:
        raise ValueError("propagator cache was built for another model")
    own = cache.grid
    if own.t0 != grid.t0 or own.dt != grid.dt or own.steps < grid.steps:
        raise ValueError(f"propagator cache on {own} does not cover {grid}")
    return cache


def evolve_state(
    rho0: np.ndarray,
    model: LindbladModel,
    grid: TimeGrid,
    substeps: int = 64,
    cache: PropagatorCache | None = None,
) -> np.ndarray:
    """Joint trajectory ``rho(t_0), ..., rho(t_N)`` from initial state ``rho0``:
    one complex ``(N + 1, d, d)`` array, headed by a copy of ``rho0`` as given.

    A passed ``cache`` must serve ``model`` on ``grid`` (see :func:`cache_for`).
    The state walks the cache's real steps; the later states are exactly Hermitian.
    """
    rho0 = np.asarray(rho0)
    validate_density_operator(rho0)
    d = model.layout.dim_joint
    if rho0.shape != (d, d):
        raise ValueError(f"state shape {rho0.shape} does not match joint dimension {d}")
    cache = cache_for(model, grid, substeps, cache)
    coords = np.empty((grid.steps + 1, d * d))
    coords[0] = to_coordinates(vectorize(rho0)).real  # of its Hermitian part
    for j in range(grid.steps):
        coords[j + 1] = cache.step(j) @ coords[j]
    states = devectorize(from_coordinates(coords), d)
    states[0] = rho0
    return states


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
    zi, iz, xx, yy = (np.kron(PAULI[a], PAULI[b]) for a, b in ("ZI", "IZ", "XX", "YY"))
    pump = np.kron(PAULI["I"], np.array([[0, 1], [0, 0]], dtype=complex))  # |0><1| on E
    return LindbladModel(
        layout=SpaceLayout(2, 2),
        static=0.5 * p["omega"] * zi + 0.5 * p["omega_env"] * iz + p["coupling"] * xx,
        jump_terms=[(pump, p["pump_rate"])],
        period=2 * math.pi / p["drive_freq"],
        drives=[(p["coupling"] * yy, p["drive_freq"], 0.0)],
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


def complex_matrix_from_json(rows) -> np.ndarray:
    """Complex matrix of nested row-major lists of ``[re, im]`` pairs."""
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
    """Build a :class:`LindbladModel` from a parsed config dictionary.

    Terms without an envelope sum to ``H_0``; each cosine term is a drive. A
    malformed number or matrix raises ``ValueError`` naming its key, such as
    ``hamiltonian[0].coefficient``.
    """
    try:
        layout = SpaceLayout(config["dim_system"], config["dim_environment"])
        d = layout.dim_joint
        static = np.zeros((d, d), dtype=complex)
        drives = []
        for i, term in enumerate(config["hamiltonian"]):
            key = f"hamiltonian[{i}]"
            if "pauli" in term:
                op = _pauli_string(term["pauli"], layout)
            else:
                # checked here, as a sum of terms would broadcast a wrong shape
                op = _operator(complex_matrix_from_json(term["matrix"]), f"{key}.matrix", d)
            op = _finite(term["coefficient"], f"{key}.coefficient") * op
            env = term.get("envelope")
            if env is None:
                static = static + op
            elif env["type"] == "cosine":
                frequency = _finite(env["frequency"], f"{key}.envelope.frequency")
                phase = _finite(env.get("phase", 0.0), f"{key}.envelope.phase")
                drives.append((op, frequency, phase))
            else:
                raise ValueError(f"unknown envelope type {env['type']!r}")
        jumps = [
            (complex_matrix_from_json(j["matrix"]), j["rate"]) for j in config.get("jumps", [])
        ]
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed model config: {exc}") from exc
    # the model checks the jumps and the period under their config names
    return LindbladModel(layout, static, jumps, config.get("period"), drives)


def load_model(path) -> LindbladModel:
    """Load a model from a JSON config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_config(json.load(fh))
