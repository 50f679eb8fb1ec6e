"""Numerical process tomography of reduced dynamics.

A dynamical map between two times is assembled by propagating a complete
operator basis of the system through the joint dynamics against a reference
environment state:

    map(s -> t) rho = tr_E{ U(s -> t) (rho (x) tau(s)) }

The reference state ``tau(t)`` is set by a policy: a fixed operator, the true
(freely evolved) environment marginal, or the marginal generated while the
system is frozen in a given state. Different policies give different map
families (and hence different memory kernels) for the same physical process.

Also here: CPTP verification via the Choi matrix, the superchannel for
initially correlated states, and the decomposition of a correlated joint
state into uncorrelated branches (one per element of a positive tomographic
frame), which lets correlated dynamics be propagated without ever forming an
inhomogeneous term.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import (
    SpaceLayout,
    devectorize,
    embed_environment_superop,
    embed_system_superop,
    partial_trace,
    trace_out_superop,
    validate_density_operator,
    vectorize,
)
from .models import (
    LindbladModel,
    PropagatorCache,
    TimeGrid,
    generator_stack,
    midpoints,
    ordered_exponential,
)


# ---------------------------------------------------------------------------
# Reference-state policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FixedState:
    """Time-independent reference environment state."""

    tau: np.ndarray

    def __post_init__(self):
        validate_density_operator(self.tau)


@dataclass(frozen=True)
class TrueEnvironment:
    """Reference state = the freely evolved environment marginal."""


@dataclass(frozen=True)
class FrozenSystem:
    """Reference state generated with the system held in ``sigma(t)``.

    The environment marginal then follows the averaged generator
    ``d tau/dt = tr_S{ L(t) (sigma(t) (x) tau) }``, the limit of resetting
    the system to ``sigma(t)`` infinitely often. A policy loaded from JSON
    has ``sigma=None``: its family carries the stored reference states, and
    nothing can be integrated from it.
    """

    sigma: Callable[[float], np.ndarray] | None


ReferencePolicy = FixedState | TrueEnvironment | FrozenSystem


def policy_label(policy: ReferencePolicy) -> str:
    if isinstance(policy, FixedState):
        return "fixed"
    if isinstance(policy, TrueEnvironment):
        return "true-env"
    if isinstance(policy, FrozenSystem):
        return "frozen"
    raise TypeError(f"unknown policy {policy!r}")


class ReferenceStates:
    """Evaluates ``tau(t)`` for a policy at arbitrary times ``t >= t0``.

    Time-dependent policies are integrated with
    :func:`~memtensor.models.ordered_exponential`, the primitive behind the
    propagators, caching along the way so that repeated or monotone queries
    stay cheap.
    """

    def __init__(
        self,
        policy: ReferencePolicy,
        model: LindbladModel,
        rho_se0: np.ndarray | None = None,
        t0: float = 0.0,
        substep: float = 1 / 64,
    ):
        self.policy = policy
        self.model = model
        self.t0 = t0
        self.substep = substep
        self._layout = model.layout
        if isinstance(policy, FixedState):
            return
        if isinstance(policy, FrozenSystem) and policy.sigma is None:
            raise ValueError(
                "frozen policy has no sigma profile (a policy loaded from JSON "
                "keeps only its family's stored reference states)"
            )
        if rho_se0 is None:
            raise ValueError(f"{policy_label(policy)} policy needs the initial joint state")
        validate_density_operator(rho_se0)
        self._trace_s = trace_out_superop(self._layout, "environment")
        if isinstance(policy, TrueEnvironment):
            # cache of vectorized joint states, keyed by time
            self._times = [t0]
            self._cache = {t0: vectorize(np.array(rho_se0, dtype=complex))}
        else:
            validate_density_operator(policy.sigma(t0))
            env0 = partial_trace(rho_se0, self._layout, "environment")
            self._times = [t0]
            self._cache = {t0: vectorize(env0)}

    def state(self, t: float) -> np.ndarray:
        """Reference environment state at time ``t``."""
        if isinstance(self.policy, FixedState):
            return self.policy.tau
        if t < self.t0 - 1e-12:
            raise ValueError(f"reference state requested at t={t} before t0={self.t0}")
        t = max(t, self.t0)
        vec = self._advance(t)
        de = self._layout.dim_environment
        if isinstance(self.policy, TrueEnvironment):
            joint = devectorize(vec, self._layout.dim_joint)
            return partial_trace(joint, self._layout, "environment")
        return devectorize(vec, de)

    def _advance(self, t: float) -> np.ndarray:
        pos = bisect.bisect_right(self._times, t) - 1
        t_start = self._times[pos]
        vec = self._cache[t_start]
        if t - t_start < 1e-13:
            return vec
        n = max(1, int(np.ceil((t - t_start) / self.substep - 1e-9)))
        times, h = midpoints(t_start, t, n)
        # cache a waypoint every 32 substeps so later queries below t stay
        # cheap regardless of the access pattern
        for lo in range(0, n, 32):
            vec = ordered_exponential(self._generators, times[lo : lo + 32], h, vec)
            waypoint = t_start + (lo + 32) * h
            if lo + 32 < n and waypoint not in self._cache:
                bisect.insort(self._times, waypoint)
                self._cache[waypoint] = vec
        if t not in self._cache:
            bisect.insort(self._times, t)
            self._cache[t] = vec
        return vec

    def _generators(self, times: np.ndarray) -> np.ndarray:
        joint = generator_stack(self.model, times)
        if isinstance(self.policy, TrueEnvironment):
            return joint
        embeds = np.stack(
            [embed_system_superop(self.policy.sigma(t), self._layout) for t in times]
        )
        return self._trace_s @ joint @ embeds


def reference_state(
    policy: ReferencePolicy,
    model: LindbladModel,
    t: float,
    joint_trajectory: list[np.ndarray] | None = None,
    grid: TimeGrid | None = None,
    rho_se0: np.ndarray | None = None,
    substep: float = 1 / 64,
) -> np.ndarray:
    """Reference environment state of ``policy`` at time ``t``.

    ``TrueEnvironment`` takes either a precomputed ``joint_trajectory`` on
    ``grid`` (``t`` must be a grid point) or the initial joint state to
    integrate from; ``FrozenSystem`` needs ``rho_se0``.
    """
    if isinstance(policy, FixedState):
        return policy.tau
    if isinstance(policy, TrueEnvironment) and joint_trajectory is not None:
        if grid is None:
            raise ValueError("a joint trajectory needs its grid")
        j = round((t - grid.t0) / grid.dt)
        if not 0 <= j <= grid.steps or abs(grid.time(j) - t) > 1e-9:
            raise ValueError(f"t={t} is not a point of the trajectory grid")
        return partial_trace(joint_trajectory[j], model.layout, "environment")
    if rho_se0 is None:
        raise ValueError(
            f"{policy_label(policy)} policy needs a joint trajectory or initial state"
        )
    return ReferenceStates(policy, model, rho_se0, substep=substep).state(t)


# ---------------------------------------------------------------------------
# Dynamical maps
# ---------------------------------------------------------------------------


def dynamical_map(
    model: LindbladModel,
    s: float,
    t: float,
    tau: np.ndarray,
    substeps: int = 64,
) -> np.ndarray:
    """Map superoperator on the system for ``[s, t]`` with reference state ``tau``.

    Columns are the vectorized images of the system matrix units propagated
    jointly with ``tau``; the result is completely positive and trace
    preserving whenever ``tau`` is a valid state.
    """
    from .models import propagator  # local import keeps module init light

    if t < s:
        raise ValueError(f"need t >= s, got s={s}, t={t}")
    validate_density_operator(tau)
    u = propagator(model, s, t, substeps)
    trace_e = trace_out_superop(model.layout, "system")
    embed = embed_environment_superop(tau, model.layout)
    return trace_e @ u @ embed


@dataclass(eq=False)
class DynamicalMapFamily:
    """Grid-indexed family of dynamical maps ``(i, j) -> map(t_i -> t_j)``."""

    grid: TimeGrid
    policy: ReferencePolicy
    maps: dict = field(default_factory=dict)
    reference_states: dict = field(default_factory=dict)

    def map(self, i: int, j: int) -> np.ndarray:
        try:
            return self.maps[(i, j)]
        except KeyError:
            raise KeyError(
                f"map ({i}, {j}) not in family (steps={self.grid.steps}, "
                f"{len(self.maps)} maps stored)"
            ) from None


def reconstruct_family(
    model: LindbladModel,
    grid: TimeGrid,
    policy: ReferencePolicy,
    substeps: int = 64,
    rho_se0: np.ndarray | None = None,
    band: int | None = None,
    cache: PropagatorCache | None = None,
) -> DynamicalMapFamily:
    """Tomographically reconstruct maps for every grid pair ``i < j``.

    ``band`` restricts to pairs with ``j - i <= band`` (enough for transfer
    tensors up to that memory length). Time-dependent policies require the
    initial joint state ``rho_se0``.
    """
    if cache is None:
        cache = PropagatorCache(model, grid, substeps)
    refs = ReferenceStates(
        policy, model, rho_se0, t0=grid.t0, substep=grid.dt / substeps
    )
    layout = model.layout
    trace_e = trace_out_superop(layout, "system")
    family = DynamicalMapFamily(grid=grid, policy=policy)
    embeds = {}
    for i in range(grid.steps + 1):
        tau = refs.state(grid.time(i))
        family.reference_states[i] = tau
        if i < grid.steps:
            embeds[i] = embed_environment_superop(tau, layout)
    for i in range(grid.steps):
        j_max = grid.steps if band is None else min(grid.steps, i + band)
        u = None
        for j in range(i + 1, j_max + 1):
            u = cache.adjacent(j - 1) @ u if u is not None else cache.adjacent(i)
            family.maps[(i, j)] = trace_e @ u @ embeds[i]
    return family


# ---------------------------------------------------------------------------
# CPTP verification
# ---------------------------------------------------------------------------


def choi_matrix(s: np.ndarray) -> np.ndarray:
    """Unnormalized Choi matrix ``sum_ij E_ij (x) S(E_ij)``."""
    d2 = s.shape[0]
    d = int(round(np.sqrt(d2)))
    if d * d != d2:
        raise ValueError(f"superoperator size {d2} is not a perfect square")
    # s[(l, k), (j, i)] = S(E_ij)[k, l] under column stacking; the Choi
    # entry at ((i, k), (j, l)) is that same number
    s4 = np.asarray(s, dtype=complex).reshape(d, d, d, d)
    return s4.transpose(3, 1, 2, 0).reshape(d2, d2)


@dataclass(frozen=True)
class CptpReport:
    trace_dev: float
    choi_min_eig: float
    passed: bool


def check_cptp(s: np.ndarray, tol: float = 1e-8) -> CptpReport:
    """Trace preservation and complete positivity of a superoperator matrix."""
    d = int(round(np.sqrt(s.shape[0])))
    costate = vectorize(np.eye(d)).conj()
    trace_dev = float(np.max(np.abs(costate @ s - costate)))
    choi = choi_matrix(s)
    choi_min = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min())
    return CptpReport(trace_dev, choi_min, trace_dev <= tol and choi_min >= -tol)


# ---------------------------------------------------------------------------
# Superchannel with initial correlations
# ---------------------------------------------------------------------------


def extend_to_joint(a: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """Joint-space matrix of a system superoperator acting as ``A (x) id``."""
    ds, de = layout.dim_system, layout.dim_environment
    d = layout.dim_joint
    # a4[a, b, c, d]: weight of X[c, d] in A(X)[a, b]; joint vec indices are
    # (column b, f; row a, e) with the environment pair passed through
    a4 = np.asarray(a, dtype=complex).reshape(ds, ds, ds, ds, order="F")
    eye_e = np.eye(de)
    mat = np.einsum("abCD,fF,eE->bfaeDFCE", a4, eye_e, eye_e)
    return mat.reshape(d * d, d * d)


def superchannel_apply(
    model: LindbladModel,
    preparation: np.ndarray,
    rho_se0: np.ndarray,
    t: float,
    substeps: int = 64,
    t0: float = 0.0,
) -> np.ndarray:
    """System state at ``t`` after preparing with superoperator ``preparation``.

    ``preparation`` acts on the system at ``t0``; the identity preparation
    gives the freely evolved state. Not trace preserving in general, so the
    output is whatever operator the linear dynamics produces.
    """
    from .models import propagator

    layout = model.layout
    ds = layout.dim_system
    if preparation.shape != (ds * ds, ds * ds):
        raise ValueError(
            f"preparation must be {ds * ds}x{ds * ds} on the system, got {preparation.shape}"
        )
    validate_density_operator(rho_se0)
    prepared = extend_to_joint(preparation, layout) @ vectorize(rho_se0)
    evolved = propagator(model, t0, t, substeps) @ prepared
    return partial_trace(devectorize(evolved, layout.dim_joint), layout, "system")


# ---------------------------------------------------------------------------
# Correlated-state decomposition (uncorrelated branches)
# ---------------------------------------------------------------------------


def tomography_frame(d: int) -> list[np.ndarray]:
    """``d**2`` positive operators spanning Hermitian ``d x d`` space.

    For a qubit, the tetrahedral (symmetric informationally complete) frame
    ``(1 + n_k . sigma)/4``: its symmetry keeps the dual frame well
    conditioned and the conditional environment states of a decomposition
    away from pure extremes, which shortens branch memory times. For larger
    ``d``, diagonal projectors plus projectors onto ``(|k> + |l>)/sqrt2`` and
    ``(|k> + i|l>)/sqrt2`` (the standard state-tomography set).
    """
    if d == 2:
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1.0, -1.0]).astype(complex)
        directions = np.array(
            [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
        ) / np.sqrt(3)
        return [
            (np.eye(2) + n[0] * sx + n[1] * sy + n[2] * sz) / 4 for n in directions
        ]
    frame = []
    for k in range(d):
        ket = np.zeros(d, dtype=complex)
        ket[k] = 1.0
        frame.append(np.outer(ket, ket.conj()))
    for k in range(d):
        for l in range(k + 1, d):
            for amp in (1.0, 1.0j):
                ket = np.zeros(d, dtype=complex)
                ket[k] = 1.0
                ket[l] = amp
                ket /= np.sqrt(2)
                frame.append(np.outer(ket, ket.conj()))
    return frame


@dataclass(frozen=True, eq=False)
class StateDecomposition:
    """``rho_joint = sum_a c_a X_a (x) tau_a`` with valid states ``tau_a``."""

    layout: SpaceLayout
    terms: tuple  # of (coefficient, system_operator, environment_state)

    def reassemble(self) -> np.ndarray:
        total = np.zeros((self.layout.dim_joint,) * 2, dtype=complex)
        for c, x, tau in self.terms:
            total = total + c * np.kron(x, tau)
        return total


def decompose_initial_state(rho_se0: np.ndarray, layout: SpaceLayout) -> StateDecomposition:
    """Exact decomposition into uncorrelated branches.

    Against a positive tomographic frame ``{M_a}`` the environment factors
    ``tr_S{(M_a (x) 1) rho}`` are automatically positive, so each branch has
    a valid environment state; the system operators are the dual frame, which
    is linearly independent with exactly ``d_S**2`` elements.
    """
    validate_density_operator(rho_se0)
    ds, de = layout.dim_system, layout.dim_environment
    if rho_se0.shape != (layout.dim_joint,) * 2:
        raise ValueError(
            f"state shape {rho_se0.shape} does not factor as {ds}x{de}"
        )
    frame = tomography_frame(ds)
    # dual frame: columns of B are vec(M_a^T); X_a = devec(row a of B^-1)
    b = np.column_stack([vectorize(m.T) for m in frame])
    duals = np.linalg.inv(b)
    rho4 = rho_se0.reshape(ds, de, ds, de)
    terms = []
    for a, m in enumerate(frame):
        y = np.einsum("sr,resf->ef", m, rho4)
        c = complex(np.trace(y))
        if abs(c) > 1e-14:
            tau = (y / c + (y / c).conj().T) / 2
        else:
            c = 0.0
            tau = np.eye(de) / de
        terms.append((c, devectorize(duals[a], ds), tau))
    decomp = StateDecomposition(layout=layout, terms=tuple(terms))
    defect = np.max(np.abs(decomp.reassemble() - rho_se0))
    if defect > 1e-12:
        raise ValueError(f"decomposition reassembly defect {defect:.3e}")
    return decomp
