"""Transfer tensors: discrete-time memory kernels built from dynamical maps.

A map family over a short window determines a set of transfer tensors via the
recursion

    T(1, end k)  =  map(k-1 -> k)
    T(l, end k)  =  map(k-l -> k) - sum_{l' < l} T(l', end k) map(k-l -> k-l')

after which the state at any step decomposes over its own history,

    rho_k  =  sum_{l=1..k} T(l, end k) rho_{k-l}  +  residual_k,

exactly. The residual carries the influence of initial system-environment
correlations and decays with k; tensors with length beyond a memory cutoff
``m`` become negligible when the kernel decays. For a generator and reference
state that are periodic with period ``c`` steps, tensors depend on their
start step only through its phase mod ``c`` (after transients), so a finite
set propagates the system to arbitrary times with a cost independent of the
horizon and an error that does not grow with it.

Tensors are stored keyed by ``(start step, length)``. Lookups in a periodic
set fall back from the literal start step to its phase, so the same
propagation loop serves both the periodic-reuse regime and densely built sets
(used when the grid spacing is incommensurate with the driving period). A
dense set never wraps: a start past its window is a ``KeyError``.

Propagation runs in real coordinates over an orthonormal basis of Hermitian
matrices (:func:`~memtensor.linalg.hermitian_basis`), where a tensor followed
by taking the Hermitian part is one real matrix: every propagated state is
Hermitian by construction. Row ``k`` of the recursion,
``[T(k-m, m) ... T(k-1, 1)]``, maps the window of the ``m`` previous states
to state ``k``; ``L = c*ceil(m/c)`` rows compose into a block that maps a
window straight to the next ``L`` states. Past the literally stored starts of
a periodic set every row depends only on its phase and every block is the
same matrix, each built once, so the cost per step does not grow with the
horizon. The same block gives :func:`stability_radius`, the growth per period
of the truncated propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import hermitian_basis, hermitize, operator_norm
from .models import LindbladModel, TimeGrid
from .tomography import (
    DynamicalMapFamily,
    FixedState,
    ReferencePolicy,
    StateDecomposition,
    reconstruct_family,
)


@dataclass(frozen=True)
class MemoryConfig:
    """Memory cutoff and periodic-reuse parameters on a fixed grid.

    ``m`` memory steps (cutoff time ``m*dt``), driving period ``c`` steps
    (``c*dt`` should equal the generator period for phase reuse to be exact),
    and ``transient_steps`` start steps that are stored literally before the
    periodic identification applies.
    """

    dt: float
    m: int
    c: int
    transient_steps: int = 0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.m < 1 or self.c < 1 or self.transient_steps < 0:
            raise ValueError(
                f"need m >= 1, c >= 1, transient_steps >= 0, got "
                f"m={self.m}, c={self.c}, transient_steps={self.transient_steps}"
            )


@dataclass(eq=False)
class TransferTensorSet:
    """Transfer tensors keyed by ``(start step, length)`` plus residuals.

    ``dense`` marks a set stored per start step over a window (no periodic
    reuse): its starts are never identified by phase.
    """

    config: MemoryConfig
    tensors: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    dense: bool = False
    # stored key -> (tensor, operator norm); an entry counts only while the
    # stored array is the same object
    _norms: dict = field(default_factory=dict, init=False, repr=False)

    def phase_of(self, j: int) -> int:
        """Start step identified by periodicity (literal inside transients
        and in a dense set)."""
        base = self.config.transient_steps
        if self.dense or 0 <= j < base + self.config.c:
            return j
        return (j - base) % self.config.c + base

    def _key_of(self, start: int, length: int) -> tuple[int, int]:
        """Stored key serving ``(start, length)``: the literal key if stored,
        else the one at its phase."""
        key = (start, length)
        if key in self.tensors:
            return key
        wrapped = (self.phase_of(start), length)
        if wrapped in self.tensors:
            return wrapped
        where = "past the window of a dense set" if self.dense else f"phase {wrapped[0]}"
        raise KeyError(f"no transfer tensor for start={start} ({where}), length={length}")

    def tensor(self, start: int, length: int) -> np.ndarray:
        """Tensor for the given start step, falling back to its phase."""
        return self.tensors[self._key_of(start, length)]

    def _norm(self, start: int, length: int) -> float:
        """Operator norm of :meth:`tensor`, computed once per stored tensor."""
        key = self._key_of(start, length)
        t = self.tensors[key]
        cached = self._norms.get(key)
        if cached is None or cached[0] is not t:
            cached = self._norms[key] = (t, operator_norm(t))
        return cached[1]


def build_tensors(
    family: DynamicalMapFamily,
    config: MemoryConfig,
    max_length: int | None = None,
    starts=None,
    exact_states: list[np.ndarray] | None = None,
    dense_window: int | None = None,
) -> TransferTensorSet:
    """Build transfer tensors from a dynamical map family.

    Parameters
    ----------
    family : DynamicalMapFamily
        Must contain every map inside the windows ``[p, p + max_length]`` for
        the requested start steps ``p``.
    config : MemoryConfig
        Grid/cutoff/period bookkeeping carried by the result.
    max_length : int, optional
        Longest tensor to store (default ``config.m``; the error bound needs
        ``2*m - 1``).
    starts : iterable of int, optional
        Start steps to store (default ``range(c + transient_steps)``).
    exact_states : list of ndarray, optional
        Exact system states at steps ``0..k``; stores the correlation
        residuals for steps ``1..min(m, k)``.
    dense_window : int, optional
        Store every tensor with ``start + length <= dense_window`` instead of
        the ``starts x lengths`` grid; for propagation without periodic reuse
        (incommensurate grids) and for full-memory exact reconstruction. The
        result is marked ``dense`` and refuses starts past the window.
    """
    if max_length is None:
        max_length = config.m
    if dense_window is not None:
        requested = {
            (p, l)
            for l in range(1, max_length + 1)
            for p in range(dense_window - l + 1)
        }
    else:
        if starts is None:
            starts = range(config.c + config.transient_steps)
        requested = {(p, l) for p in starts for l in range(1, max_length + 1)}
    tensor_set = TransferTensorSet(config=config, dense=dense_window is not None)

    # group by end step: the recursion at end k needs every shorter length
    # at the same end
    length_at_end: dict[int, int] = {}
    for p, l in requested:
        length_at_end[p + l] = max(length_at_end.get(p + l, 0), l)
    for k in sorted(length_at_end):
        at_end: list[np.ndarray] = []
        for l in range(1, min(k, length_at_end[k]) + 1):
            try:
                t_l = np.array(family.map(k - l, k))
                for lp in range(1, l):
                    t_l -= at_end[lp - 1] @ family.map(k - l, k - lp)
            except KeyError as exc:
                raise KeyError(
                    f"map family does not cover tensor (start={k - l}, "
                    f"length={l}): {exc}"
                ) from exc
            at_end.append(t_l)
            if (k - l, l) in requested:
                tensor_set.tensors[(k - l, l)] = t_l

    if exact_states is not None:
        k_max = min(config.m, len(exact_states) - 1)
        for k in range(1, k_max + 1):
            tensor_set.residuals[k] = inhomogeneous_residual(exact_states, tensor_set, k)
    return tensor_set


def inhomogeneous_residual(
    exact_states: list[np.ndarray], tensors: TransferTensorSet, k: int
) -> np.ndarray:
    """Correlation residual ``rho_k - sum_l T(l, end k) rho_{k-l}``.

    Traceless whenever the maps behind the tensors are trace preserving.
    """
    if k < 1:
        raise ValueError(f"residual is undefined for k={k}")
    if k >= len(exact_states):
        raise ValueError(
            f"residual at k={k} needs exact states up to step {k}, "
            f"got {len(exact_states)}"
        )
    acc = np.array(exact_states[k], dtype=complex)
    for l in range(1, k + 1):
        t = tensors.tensor(k - l, l)
        rho = exact_states[k - l]
        acc -= (t @ rho.reshape(-1, order="F")).reshape(rho.shape, order="F")
    return acc


class _Rows:
    """Rows and blocks of the truncated recursion in real Hermitian coordinates.

    Row ``k`` is the real ``(n, m*n)`` matrix ``[T(k-m, m) ... T(k-1, 1)]``
    (zeros where ``k - l < 0``), each tensor as ``Re(B^dag T B)``; it maps the
    window of the ``m`` states before step ``k`` to state ``k``. Tensors
    resolve through :meth:`TransferTensorSet._key_of`. From step ``literal``
    on (never in a dense set) every lookup falls back to a phase, so rows and
    blocks there depend only on ``(k - literal) mod c`` and are built once.
    """

    def __init__(self, tensors: TransferTensorSet, d: int):
        config = tensors.config
        self.tensors, self.m, self.c = tensors, config.m, config.c
        self.basis = hermitian_basis(d)
        self.n = d * d
        # a whole number of periods covering the memory window
        self.block_steps = config.c * -(-config.m // config.c)
        max_start = max((p for p, _ in tensors.tensors), default=0)
        self.literal = None if tensors.dense else max(
            max_start + config.m + 1, config.transient_steps + config.m + config.c
        )
        # stored key -> Re(B^dag T B), for every length a row can use
        keys = [key for key in tensors.tensors if key[1] <= config.m]
        stack = np.zeros((0, self.n, self.n))
        if keys:
            stack = np.array([tensors.tensors[key] for key in keys])
        self._real = dict(zip(keys, (self.basis.conj().T @ stack @ self.basis).real))
        self._rows: dict = {}  # phase past `literal` -> row
        self._blocks: dict = {}  # phase past `literal` -> block

    def coordinates(self, ops) -> np.ndarray:
        """``Re(B^dag vec X)`` for each operator of a stack ``(K, d, d)``."""
        vecs = np.asarray(ops).transpose(0, 2, 1).reshape(len(ops), self.n)
        return (vecs @ self.basis.conj()).real

    def _phase(self, k: int):
        if self.literal is None or k < self.literal:
            return None
        return (k - self.literal) % self.c

    def row(self, k: int) -> np.ndarray:
        phase = self._phase(k)
        if phase in self._rows:
            return self._rows[phase]
        m, n = self.m, self.n
        row = np.zeros((n, m * n))
        for l in range(1, min(k, m) + 1):
            row[:, (m - l) * n : (m - l + 1) * n] = self._real[self.tensors._key_of(k - l, l)]
        if phase is not None:
            self._rows[phase] = row
        return row

    def block(self, k: int) -> np.ndarray:
        """``(L*n, m*n)`` map from the window before step ``k`` to the states
        ``k .. k + L - 1`` (``L = block_steps``); its last ``m*n`` rows are
        the window map over ``L / c`` periods."""
        phase = self._phase(k)
        if phase in self._blocks:
            return self._blocks[phase]
        m, n, steps = self.m, self.n, self.block_steps
        # rows 0..m*n-1: the window itself; then each state in window terms
        ext = np.zeros(((m + steps) * n, m * n))
        ext[: m * n] = np.eye(m * n)
        for i in range(steps):
            ext[(m + i) * n : (m + i + 1) * n] = self.row(k + i) @ ext[i * n : (i + m) * n]
        block = ext[m * n :]
        if phase is not None:
            self._blocks[phase] = block
        return block


def propagate(
    tensors: TransferTensorSet,
    seed_states: list[np.ndarray],
    total_steps: int,
    include_residuals: bool = False,
) -> list[np.ndarray]:
    """Propagate to ``total_steps`` using the memory-truncated decomposition.

    ``seed_states`` are exact states at steps ``0..len(seed)-1``. For each
    later step ``rho_k = sum_{l=1}^{min(k, m)} T(l) rho_{k-l}`` plus, when
    ``include_residuals``, the tracked residual for ``k <= m`` (untracked
    residuals count as zero, which is exact for uncorrelated starts whose
    reference state matches the initial environment). Without residuals the
    seed must span the full memory window. Outputs are never re-positivized:
    positivity loss diagnoses a too-severe memory cutoff.

    Every step runs in real coordinates over a Hermitian basis, where a
    tensor followed by :func:`~memtensor.linalg.hermitize` is one real
    matrix, so each output is Hermitian by construction (the seed states are
    returned as given). Steps that add a residual, and the last
    ``< L = c*ceil(m/c)`` steps, run one row at a time; the rest run in
    blocks that map the ``m``-state window straight to the next ``L``
    states. Past the literally stored starts of a periodic set every block is
    the same matrix and is built once, so the cost per step does not depend
    on the horizon; a dense set builds each block from its own rows.
    """
    m = tensors.config.m
    n_seed = len(seed_states)
    if n_seed < 1:
        raise ValueError("need at least the initial state as seed")
    if not include_residuals and n_seed < min(m, total_steps + 1):
        raise ValueError(
            f"seed of {n_seed} states does not cover the memory window of {m} "
            f"steps; provide more seed states or include residuals"
        )
    seeds = [np.array(s, dtype=complex) for s in seed_states[: total_steps + 1]]
    d = seeds[0].shape[0]
    rows = _Rows(tensors, d)
    n, steps = rows.n, rows.block_steps
    residuals = {
        k: rows.coordinates([r])[0]
        for k, r in tensors.residuals.items()
        if include_residuals and k <= m
    }
    # flat history: state k at entries (m + k)*n .. (m + k + 1)*n, behind m
    # zero states, so the window before step k starts at k*n
    hist = np.zeros((total_steps + 1 + m) * n)
    hist[m * n : (m + len(seeds)) * n] = rows.coordinates(seeds).reshape(-1)

    def single(k):
        state = hist[(m + k) * n : (m + k + 1) * n]
        rows.row(k).dot(hist[k * n : (k + m) * n], out=state)
        if k in residuals:
            state += residuals[k]

    k = n_seed
    while k <= min(max(residuals, default=0), total_steps):
        single(k)
        k += 1
    while k + steps - 1 <= total_steps:
        out = hist[(m + k) * n : (m + k + steps) * n]
        rows.block(k).dot(hist[k * n : (k + m) * n], out=out)
        k += steps
    while k <= total_steps:
        single(k)
        k += 1
    # back to d x d once; the real and imaginary parts are formed separately
    # so that conjugate entries come out exactly conjugate
    row_vecs = rows.basis.reshape(d, d, n).transpose(1, 0, 2).reshape(n, n)
    coords = hist[(m + len(seeds)) * n :].reshape(-1, n)
    states = coords @ row_vecs.real.T + 1j * (coords @ row_vecs.imag.T)
    return seeds + list(states.reshape(-1, d, d))


def propagate_correlation_free(
    model: LindbladModel,
    decomposition: StateDecomposition,
    grid: TimeGrid,
    policy: ReferencePolicy | None,
    config: MemoryConfig,
    total_steps: int,
    substeps: int = 64,
    max_length: int | None = None,
) -> list[np.ndarray]:
    """Tensor-propagate a correlated initial state without residual terms.

    Each decomposition branch starts uncorrelated, so with the branch's own
    environment state as reference (``policy=None``, the default) its
    residuals vanish identically and plain tensor propagation applies; the
    branches are then recombined with the decomposition coefficients. An
    explicit ``policy`` is used verbatim for every branch instead (not
    residual-free in general).

    ``grid`` must cover the tensor-construction window (period + memory);
    propagation continues to ``total_steps`` regardless of the grid length.
    """
    combined = None
    for coeff, sys_op, tau in decomposition.terms:
        if coeff == 0:
            continue
        branch_policy = FixedState(tau) if policy is None else policy
        rho_branch0 = np.kron(sys_op, tau)
        family = reconstruct_family(
            model,
            grid,
            branch_policy,
            substeps=substeps,
            rho_se0=None if policy is None else rho_branch0,
            band=max_length or config.m,
        )
        tensors = build_tensors(family, config, max_length=max_length)
        branch = propagate(tensors, [sys_op], total_steps, include_residuals=True)
        if combined is None:
            combined = [coeff * rho for rho in branch]
        else:
            combined = [acc + coeff * rho for acc, rho in zip(combined, branch)]
    if combined is None:
        raise ValueError("decomposition has no nonzero terms")
    return [hermitize(rho) for rho in combined]


def error_bound(tensors: TransferTensorSet, config: MemoryConfig, k: int) -> float:
    """Memory-cutoff error bound at step ``k``.

    Sums the operator norms of the tensors in the second memory window,
    ``sum_{l=1}^{m} ||T(start = phase(k - 2m) + l, length = 2m - l)||``,
    which bounds the distance between the propagated and exact states up to
    contributions from later memory windows. Needs tensors out to length
    ``2m - 1``.
    """
    m = config.m
    if k < 2 * m:
        raise ValueError(f"bound needs k >= 2m = {2 * m}, got {k}")
    base = tensors.phase_of(k - 2 * m)
    total = 0.0
    for l in range(1, m + 1):
        try:
            total += tensors._norm(base + l, 2 * m - l)
        except KeyError as exc:
            raise KeyError(
                f"error bound needs tensors to length {2 * m - 1}: {exc}"
            ) from exc
    return total


def memory_cutoff_heuristic(tensors: TransferTensorSet, config: MemoryConfig) -> float:
    """Largest norm of the longest kept tensors across stored phases.

    Empirically a much tighter indicator of the propagation error than the
    conservative second-window bound.
    """
    norms = [tensors._norm(p, l) for p, l in tensors.tensors if l == config.m]
    if not norms:
        raise KeyError(f"no stored tensors of length m={config.m}")
    return max(norms)


def tensor_norm_profile(tensors: TransferTensorSet) -> dict:
    """Operator norm of every stored tensor, keyed by ``(length, start)``."""
    return {(l, p): tensors._norm(p, l) for p, l in sorted(tensors.tensors)}


def stability_radius(tensors: TransferTensorSet) -> float:
    """Spectral radius per driving period of memory-truncated propagation.

    The window map sends the ``m`` states before a step past the literally
    stored starts to the ``m`` states ``L = c*ceil(m/c)`` steps later: the
    last ``m*d^2`` rows of the block :func:`propagate` caches there. Its
    spectral radius, to the power ``c/L``, is the growth per period. Trace
    preservation pins an eigenvalue at 1, so a stable truncation gives 1 and
    a radius above 1 flags a cutoff whose propagation diverges, without an
    oracle. A dense set has no period map and raises ``ValueError``.
    """
    if tensors.dense:
        raise ValueError("a dense tensor set has no period map")
    if not tensors.tensors:
        raise ValueError("empty tensor set")
    n = next(iter(tensors.tensors.values())).shape[0]
    rows = _Rows(tensors, math.isqrt(n))
    window_map = rows.block(rows.literal)[-rows.m * n :]
    radius = float(np.abs(np.linalg.eigvals(window_map)).max())
    return radius ** (rows.c / rows.block_steps)
