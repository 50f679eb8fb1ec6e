"""Numerical process tomography of reduced dynamics.

A dynamical map between two times is assembled by propagating a complete
operator basis of the system through the joint dynamics against a reference
environment state:

    map(s -> t) rho = tr_E{ U(s -> t) (rho (x) tau(s)) }

The reference state ``tau(t)`` is set by a policy: a fixed operator, the true
(freely evolved) environment marginal, or the marginal generated while the
system is frozen in a given state. Different policies give different map
families (and hence different memory kernels) for the same physical process.

A map needs only the images of the ``d_S**2`` embedded Hermitian basis
operators, so :func:`reconstruct_family` steps narrow real ``(d**2, w)``
blocks of their coordinates, never whole propagator products, and only one
period of starts when a fixed reference state makes the maps periodic. Each
step is applied either as the cached real step or, when most steps are still
unbuilt and the blocks are narrow beside ``d**2``, as a truncated Taylor
action of the same midpoint product
(:meth:`~memtensor.models.PropagatorCache.act`); :func:`steps_by_action`
holds the rule.

The family is one banded array, ``stack[i, g] = map(t_i -> t_{i+g})``
(:class:`DynamicalMapFamily`): the steps write it, and the transfer-tensor
recursion reads it as it stands.

Also here: CPTP verification via the Choi matrix, the joint extension
``A (x) id`` of a system superoperator, and the decomposition of a correlated
joint state into uncorrelated branches (one per element of a positive
tomographic frame), which lets correlated dynamics be propagated without ever
forming an inhomogeneous term.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import (
    SpaceLayout,
    _integer,
    devectorize,
    embed_environment_superop,
    embed_system_superop,
    from_coordinates,
    superop_from_coordinates,
    superop_to_coordinates,
    to_coordinates,
    trace_out_superop,
    validate_density_operator,
    vectorize,
)
from .models import (
    LindbladModel,
    PropagatorCache,
    TimeGrid,
    _finite,
    cache_for,
    generator_stack,
    hermitian_step_chunks,
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
    nothing can be integrated from it. ``sigma(t)`` enters through its
    Hermitian part.
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

    A time-dependent policy is integrated by the midpoint rule of
    :func:`~memtensor.models.ordered_exponential`, in its Hermitian
    coordinates, from cached states. A query at ``t`` starts from the latest
    cached time ``<= t``, takes the fewest equal substeps of at most
    ``substep`` up to ``t``, and caches ``t`` and a waypoint every 32
    substeps, so repeated or monotone queries stay cheap. The midpoints
    therefore follow the queries: a true-environment state depends on the
    order of earlier queries at about 1e-5 relative. A ``substep`` that is
    not a finite positive number (or is a bool) is a ``ValueError`` naming it.

    :meth:`states` serves a whole list of queries with the result of asking
    them one by one, in order. It plans every substep first (earlier queries
    of the call count as cached), in plain floats by the operations of
    :func:`~memtensor.models.midpoints`, and converts the planned midpoints
    and substep sizes to one array each. It then walks the states through
    the chunks of :func:`~memtensor.models.hermitian_step_chunks`, each
    generator scaled by its own substep, caching each state as it is built
    (the times are committed last). The frozen-system generator
    ``tr_S L (sigma (x) .)`` is assembled from real pieces built once. The
    initial joint state and ``sigma(t)`` enter through their Hermitian parts.

    :meth:`coordinates` returns the cached real coordinates of ``tau`` (the
    true-environment marginal and the frozen start through one real ``tr_S``
    matrix); the kernel route reads them, and :meth:`states` is their
    operator-space view (a fixed policy's own ``tau``).
    """

    def __init__(
        self,
        policy: ReferencePolicy,
        model: LindbladModel,
        rho_se0: np.ndarray | None = None,
        t0: float = 0.0,
        substep: float = 1 / 64,
    ):
        if _finite(substep, "substep") <= 0:
            raise ValueError(f"substep must be positive, got {substep!r}")
        self.policy = policy
        self.model = model
        self.t0 = t0
        self.substep = substep
        self._layout = layout = model.layout
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
        # tr_S in coordinates: the true-environment marginal and the frozen start
        self._trace_s = superop_to_coordinates(trace_out_superop(layout, "environment")).real
        start = to_coordinates(vectorize(rho_se0)).real  # of its Hermitian part
        if isinstance(policy, FrozenSystem):
            validate_density_operator(policy.sigma(t0))
            start = self._trace_s @ start
            ds = layout.dim_system
            elements = devectorize(from_coordinates(np.eye(ds * ds)), ds)
            self._embeds = superop_to_coordinates(embed_system_superop(elements, layout)).real
        self._n = start.size
        # cached states by time, as the real coordinates of their Hermitian part
        self._times = [t0]
        self._cache = {t0: start}

    def state(self, t: float) -> np.ndarray:
        """Reference environment state at time ``t``."""
        return self.states([t])[0]

    def states(self, times) -> np.ndarray:
        """Stack ``(len(times), d_E, d_E)`` of the reference states at each
        of ``times``: a fixed policy's ``tau`` itself, else the exactly
        Hermitian operator-space view of :meth:`coordinates`."""
        if isinstance(self.policy, FixedState):
            return np.repeat(np.asarray(self.policy.tau)[None], len(list(times)), axis=0)
        return devectorize(from_coordinates(self.coordinates(times)), self._layout.dim_environment)

    def coordinates(self, times) -> np.ndarray:
        """Real ``(len(times), d_E**2)`` Hermitian coordinates of the reference
        states at each of ``times``, as :meth:`state` queried at each in order
        would give. A time before ``t0 - 1e-12`` is a ``ValueError``."""
        times = [float(t) for t in times]
        if isinstance(self.policy, FixedState):
            return to_coordinates(vectorize(self.states(times))).real
        for t in times:
            if t < self.t0 - 1e-12:
                raise ValueError(f"reference state requested at t={t} before t0={self.t0}")
        known = list(self._times)
        keys = []  # the cached time that answers each query
        runs, mids, sizes = [], [], []  # mids and sizes: one entry per substep
        for t in times:
            t = max(t, self.t0)
            t_start = known[bisect.bisect_right(known, t) - 1]
            if t - t_start < 1e-13:
                keys.append(t_start)
                continue
            # the float operations of models.midpoints, one substep at a time
            n = max(1, math.ceil((t - t_start) / self.substep - 1e-9))
            h = (t - t_start) / n
            for k in [*range(32, n, 32), n]:  # waypoints, then t itself
                bisect.insort(known, t if k == n else t_start + k * h)
            runs.append((t_start, t, n, h))
            mids += [t_start + (i + 0.5) * h for i in range(n)]
            sizes += [h] * n
            keys.append(t)
        if runs:
            # a chunk's joint generators, not its exponentials, are the largest stack
            chunks = hermitian_step_chunks(
                self._generators, np.array(mids), np.array(sizes),
                self._n, stack_dim=self._layout.dim_joint ** 2,
            )
            steps = (step for chunk in chunks for step in chunk)
            for t_start, t, n, h in runs:
                state = self._cache[t_start]
                for k in range(1, n + 1):
                    state = next(steps) @ state
                    if k == n or k % 32 == 0:
                        self._cache[t if k == n else t_start + k * h] = state
        # the new times become reachable only once every state is built
        self._times = known
        coords = np.reshape([self._cache[key] for key in keys], (-1, self._n))
        return coords @ self._trace_s.T if isinstance(self.policy, TrueEnvironment) else coords

    def _generators(self, times: np.ndarray) -> np.ndarray:
        joint = generator_stack(self.model, times)
        if isinstance(self.policy, TrueEnvironment):
            return joint
        sigmas = to_coordinates(vectorize(np.stack([self.policy.sigma(t) for t in times]))).real
        return self._trace_s @ joint @ np.tensordot(sigmas, self._embeds, axes=1)


# ---------------------------------------------------------------------------
# Dynamical maps
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DynamicalMapFamily:
    """Banded family of dynamical maps on a grid, stored as one array.

    ``stack[i, g] = map(t_i -> t_{i+g})`` for ``1 <= g <= min(band, steps - i)``
    and zero elsewhere, where ``band = stack.shape[1] - 1``: the array
    tomography writes and the transfer-tensor recursion reads. ``map(i, j)``
    indexes it and ``maps`` is a read-only ``(i, j)``-keyed view in order of
    ``(i, j)``. ``reference_states`` holds ``tau(t_j)`` for ``j = 0 .. steps``.
    """

    grid: TimeGrid
    policy: ReferencePolicy
    stack: np.ndarray
    reference_states: dict = field(default_factory=dict)

    def __post_init__(self):
        shape = np.shape(self.stack)
        if len(shape) != 4 or shape[0] != self.grid.steps or shape[1] < 2 or shape[2] != shape[3]:
            raise ValueError(
                f"stack must have shape (steps={self.grid.steps}, band + 1 >= 2, n, n), "
                f"got {shape}"
            )

    @property
    def band(self) -> int:
        return self.stack.shape[1] - 1

    def map(self, i: int, j: int) -> np.ndarray:
        if not 0 <= i < j <= min(i + self.band, self.grid.steps):
            raise KeyError(
                f"map ({i}, {j}) not in family (steps={self.grid.steps}, band={self.band})"
            )
        return self.stack[i, j - i]

    @property
    def maps(self) -> Mapping:
        return _MapView(self)


class _MapView(Mapping):
    """A family's maps keyed by ``(i, j)``, looked up through ``map(i, j)``,
    counted by arithmetic and iterated in order of ``(i, j)``: no dict."""

    def __init__(self, family: DynamicalMapFamily):
        self._family = family

    def __getitem__(self, key):
        try:
            return self._family.map(*key)
        except (TypeError, IndexError):  # not a pair of grid indices
            raise KeyError(key) from None

    def __iter__(self):
        steps, band = self._family.grid.steps, self._family.band
        return ((i, j) for i in range(steps) for j in range(i + 1, min(i + band, steps) + 1))

    def __len__(self):
        steps = self._family.grid.steps
        band = min(self._family.band, steps)
        return band * (steps - band) + band * (band + 1) // 2


def steps_by_action(n: int, width: int, unbuilt: int) -> bool:
    """Whether a family call steps its images by Taylor action.

    ``n = d^2`` is the Liouville dimension, ``width`` the real image columns
    the call steps (the maps of its stepped starts times ``d_S^2``) and
    ``unbuilt`` the step phases its cache has not built. In real coordinates
    a dense step costs, per substep, a Taylor series of about eight ``n^3``
    products; an action substep about 17 products of ``sum n_s^2`` per
    column, over the model's sectors (``n^2 / 2`` on the spin bath). The rule,
    ``2 * width = unbuilt * n``, still counts ``n^2`` on purpose: no workload
    sits near it, so a cheaper action moves no route.
    """
    return 2 * width < unbuilt * n


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
    initial joint state ``rho_se0``. A passed ``cache`` must serve ``model``
    on ``grid`` (see :func:`~memtensor.models.cache_for`); its own substeps
    then serve both the propagators and the reference states, whatever
    ``substeps`` says.

    Only the real ``(d^2, d_S^2)`` coordinate images of ``X_a (x) tau(t_i)``,
    ``X_a`` the system's Hermitian basis, are propagated: at step ``k`` those
    of every start still inside its band form one block, stepped in one call
    as ``cache.step(k) @ block`` or ``cache.act(k, block)``, and ``tr_E`` of
    it gives the maps ending at ``k + 1``, converted to operator space there.
    The route is chosen once per call by :func:`steps_by_action` from the
    Liouville dimension, the image columns and the step phases the cache has
    not built; both give the same maps to rounding. Under a fixed policy with
    phase reuse only the starts ``0 .. c - 1`` are stepped; later ones copy.
    """
    _integer(substeps, "substeps", 1)
    if band is not None:
        _integer(band, "band", 1)
    cache = cache_for(model, grid, substeps, cache)
    refs = ReferenceStates(
        policy, model, rho_se0, t0=grid.t0, substep=grid.dt / cache.substeps
    )
    layout = model.layout
    trace_e = superop_to_coordinates(trace_out_superop(layout, "system")).real
    # every reference state first, in ascending time: a time-dependent policy
    # integrates its state forward through the queries
    taus = refs.states([grid.time(i) for i in range(grid.steps + 1)])
    fixed = isinstance(policy, FixedState) and cache.phases is not None
    starts = min(cache.phases, grid.steps) if fixed else grid.steps
    embeds = superop_to_coordinates(embed_environment_superop(taus[:starts], layout)).real
    band = grid.steps if band is None else min(band, grid.steps)
    ends = [min(grid.steps, i + band) for i in range(starts)]
    ds2 = layout.dim_system ** 2
    width = ds2 * sum(end - i for i, end in enumerate(ends))  # the image columns stepped
    by_action = steps_by_action(layout.dim_joint ** 2, width, cache.unbuilt(grid.steps))
    stack = np.zeros((grid.steps, band + 1, ds2, ds2), dtype=complex)
    block = np.empty((layout.dim_joint ** 2, 0))
    first = 0  # the block holds the images of starts first .. min(k, starts) - 1, ds2 each
    for k in range(ends[-1]):
        gone = sum(ends[i] <= k for i in range(first, min(k, starts)))  # bands end in order
        first += gone
        # start k joins while it is a stepped start: embeds[k : k + 1] is empty past them
        block = np.concatenate([block[:, gone * ds2 :], *embeds[k : k + 1]], axis=1)
        block = cache.act(k, block) if by_action else cache.step(k) @ block
        live = np.arange(first, min(k + 1, starts))
        images = (trace_e @ block).reshape(ds2, len(live), ds2).transpose(1, 0, 2)
        stack[live, k + 1 - live] = superop_from_coordinates(images)
    for i in range(starts, grid.steps):  # a fixed policy's later starts
        reach = min(band, grid.steps - i) + 1
        stack[i, :reach] = stack[i % starts, :reach]
    return DynamicalMapFamily(grid, policy, stack, dict(enumerate(taus)))


# ---------------------------------------------------------------------------
# CPTP verification
# ---------------------------------------------------------------------------


def choi_matrix(s: np.ndarray) -> np.ndarray:
    """Unnormalized Choi matrix ``sum_ij E_ij (x) S(E_ij)``."""
    s = np.asarray(s, dtype=complex)
    d2 = s.shape[0]
    d = int(round(np.sqrt(d2)))
    if d * d != d2:
        raise ValueError(f"superoperator size {d2} is not a perfect square")
    # s[(l, k), (j, i)] = S(E_ij)[k, l] under column stacking; the Choi
    # entry at ((i, k), (j, l)) is that same number
    s4 = s.reshape(d, d, d, d)
    return s4.transpose(3, 1, 2, 0).reshape(d2, d2)


@dataclass(frozen=True)
class CptpReport:
    trace_dev: float
    choi_min_eig: float
    passed: bool


def check_cptp(s: np.ndarray, tol: float = 1e-8) -> CptpReport:
    """Trace preservation and complete positivity of a superoperator matrix."""
    s = np.asarray(s)
    d = int(round(np.sqrt(s.shape[0])))
    costate = vectorize(np.eye(d)).conj()
    trace_dev = float(np.max(np.abs(costate @ s - costate)))
    choi = choi_matrix(s)
    choi_min = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min())
    return CptpReport(trace_dev, choi_min, trace_dev <= tol and choi_min >= -tol)


# ---------------------------------------------------------------------------
# Joint extension of system superoperators
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
    rho_se0 = np.asarray(rho_se0)
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
