"""Transfer tensors: discrete-time memory kernels built from dynamical maps.

A map family over a short window determines a set of transfer tensors via the
recursion

    T(1, end k)  =  map(k-1 -> k)
    T(l, end k)  =  map(k-l -> k) - sum_{l' < l} T(l', end k) map(k-l -> k-l')

(Cerrillo and Cao, PRL 112, 110401 (2014)). For a fixed end ``k`` it is a
unit upper-triangular system in the tensors ``T(1 .. L, end k)``, and the
systems of different ends are independent. :func:`build_tensors` solves them
all at once by forward substitution, one length per step: it keeps the row
``[T(L, k) ... T(1, k)]`` of every end in one array and reads the family's
array ``stack[i, g] = map(i -> i + g)`` as it stands, so the tensors of one
length, for every end, cost one batched product of the rows' filled parts
with the stacked maps from their starts. The same rows give the residuals.
After that the state at any step decomposes over its own history,

    rho_k  =  sum_{l=1..k} T(l, end k) rho_{k-l}  +  residual_k,

exactly. The residual carries the influence of initial system-environment
correlations and decays with k; tensors with length beyond a memory cutoff
``m`` become negligible when the kernel decays. For a generator and reference
state that are periodic with period ``c`` steps, tensors depend on their
start step only through its phase mod ``c`` (after transients), so a finite
set propagates the system to arbitrary times with a cost independent of the
horizon and an error that does not grow with it.

Tensors are stored keyed by ``(start step, length)``, and one rule,
:meth:`TransferTensorSet.phase_of`, decides which stored start serves a start
step. A periodic set stores exactly the starts ``0 .. transient_steps + c - 1``
and serves every later start from its phase mod ``c``; a dense set (used when
the grid spacing is incommensurate with the driving period) stores every start
of a window and never wraps: a start past its window is a ``KeyError``. A set
copies its tensors once into one read-only stack, and its residuals into
another, which every reader slices.

Propagation runs in the real Hermitian coordinates of :mod:`~memtensor.linalg`,
where a tensor followed by taking the Hermitian part is one real matrix:
every propagated state is Hermitian by construction. Row ``k`` of the recursion,
``[T(k-m, m) ... T(k-1, 1)]``, maps the window of the ``m`` previous states
to state ``k``; ``L = c*ceil(m/c)`` rows compose into a block that maps a
window straight to the next ``L`` states. Once a row reaches back no further
than the transients of a periodic set, it depends only on its phase; as ``L``
is a whole number of periods, every block from there on is one matrix, built
once, so the cost per step does not grow with the horizon. The same block
gives :func:`stability_radius`, the growth per period of the truncated
propagation.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .linalg import (
    _integer,
    devectorize,
    from_coordinates,
    hermitize,
    operator_norm,
    superop_to_coordinates,
    to_coordinates,
    vectorize,
)
from .models import LindbladModel, PropagatorCache, TimeGrid, _finite, steps_per_period
from .tomography import (
    DynamicalMapFamily,
    FixedState,
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
        if _finite(self.dt, "dt") <= 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        _integer(self.m, "m", 1)
        _integer(self.c, "c", 1)
        _integer(self.transient_steps, "transient_steps", 0)


@dataclass(frozen=True, eq=False)
class TransferTensorSet:
    """Transfer tensors keyed by ``(start step, length)`` plus residuals.

    A periodic set stores the starts ``0 .. transient_steps + c - 1``, one
    per phase; a start past them is a ``ValueError``. ``dense`` marks a set
    stored per start step over a window (no periodic reuse). Each mapping is
    copied once into a read-only complex stack, ``(count, n, n)`` tensors and
    ``(count, d, d)`` residuals (``n = d**2``), and maps its keys to the rows,
    so a caller's arrays stay the caller's. A key that is not an integer pair
    ``(start >= 0, length >= 1)`` and tensors or residuals of another shape
    are a ``ValueError`` naming the key, ``tensors`` or ``residuals``.
    """

    config: MemoryConfig
    tensors: Mapping = field(default_factory=dict)
    residuals: Mapping = field(default_factory=dict)
    dense: bool = False

    def __post_init__(self):
        for key in self.tensors:
            try:
                start, length = map(operator.index, key)
            except (TypeError, ValueError):
                start = length = -1
            if start < 0 or length < 1:
                raise ValueError(
                    f"tensor key {key!r} is not an integer pair (start >= 0, length >= 1)"
                )
        phases = self.config.transient_steps + self.config.c
        if not self.dense and any(p >= phases for p, _ in self.tensors):
            raise ValueError(
                f"a periodic set stores only starts below transient_steps + c = {phases}"
            )
        # d from the tensors (n = d**2), else from the residuals, else 1
        shapes = sorted({np.shape(t) for t in self.tensors.values()})
        n = shapes[0][-1] if shapes and shapes[0] else 1
        if shapes and (shapes != [(n, n)] or n < 1 or math.isqrt(n) ** 2 != n):
            raise ValueError(f"tensors must all be one d**2 x d**2 shape, got shapes {shapes}")
        residual_shapes = sorted({np.shape(r) for r in self.residuals.values()})
        if not shapes and residual_shapes and residual_shapes[0]:
            n = residual_shapes[0][-1] ** 2
        d = math.isqrt(n)
        if residual_shapes and (residual_shapes != [(d, d)] or d < 1):
            raise ValueError(f"residuals must all be {d}x{d}, got shapes {residual_shapes}")
        # one read-only copy per mapping, `_tensors_stack` or `_residuals_stack`
        for name, size in (("tensors", n), ("residuals", d)):
            arrays = getattr(self, name)
            stack = np.array([*arrays.values()], dtype=complex).reshape(-1, size, size)
            stack.flags.writeable = False
            object.__setattr__(self, f"_{name}_stack", stack)
            object.__setattr__(self, name, MappingProxyType(dict(zip(arrays, stack))))

    def phase_of(self, j: int) -> int:
        """Stored start serving start step ``j``: ``j`` itself in a dense set and
        below ``transient_steps + c``, where a negative ``j`` has no tensor."""
        base = self.config.transient_steps
        if self.dense or j < base + self.config.c:
            return j
        return (j - base) % self.config.c + base

    def _key_of(self, start: int, length: int) -> tuple[int, int]:
        key = (self.phase_of(start), length)
        if key not in self.tensors:
            where = "past the window of a dense set" if self.dense else f"phase {key[0]}"
            raise KeyError(f"no transfer tensor for start={start} ({where}), length={length}")
        return key

    def tensor(self, start: int, length: int) -> np.ndarray:
        """Tensor serving the given start step."""
        return self.tensors[self._key_of(start, length)]

    @cached_property
    def _norm_table(self) -> dict:
        """Operator norm of every stored tensor, by key, built on first use."""
        return dict(zip(self.tensors, operator_norm(self._tensors_stack).tolist()))

    @cached_property
    def _bounds(self) -> dict:  # error_bound's sums by (m, phase of k - 2m), filled on use
        return {}


def build_tensors(
    family: DynamicalMapFamily,
    config: MemoryConfig,
    max_length: int | None = None,
    exact_states: np.ndarray | list | None = None,
    dense_window: int | None = None,
) -> TransferTensorSet:
    """Build transfer tensors from a dynamical map family.

    Parameters
    ----------
    family : DynamicalMapFamily
        Its grid and band must cover the windows ``[p, p + max_length]`` of
        the stored start steps ``p``.
    config : MemoryConfig
        Grid/cutoff/period bookkeeping carried by the result.
    max_length : int, optional
        Longest tensor to store (default ``config.m``; the error bound needs
        ``2*m - 1``).
    exact_states : ndarray ``(k + 1, d_S, d_S)`` or list of ndarray, optional
        Exact system states at steps ``0..k``; stores the
        residuals ``rho_j - sum_l T(l, end j) rho_{j-l}``, ``j = 1..min(m, k)``
        (tensors at their own starts; traceless if the maps preserve trace).
    dense_window : int, optional
        Store every tensor with ``start + length <= dense_window``; for
        propagation without periodic reuse (incommensurate grids) and for
        full-memory exact reconstruction. The result is marked ``dense`` and
        refuses starts past the window. Without it the set is periodic: it
        stores the starts ``0 .. transient_steps + c - 1`` and serves every
        later start from its phase.

    The rows ``[T(L, k) ... T(1, k)]`` of every end ``k`` are one array,
    filled by forward substitution over the lengths from slices of
    ``family.stack`` (:func:`_end_rows`). The set copies the tensors out of
    the rows, which are freed on return, and the residuals are one product
    of each row with the exact states before it. ``max_length`` and ``dense_window`` must
    be integers of at least ``config.m``, and each exact state ``d_S x d_S``
    (``ValueError`` naming the argument); a tensor longer than the family's
    band or ending past its grid is a ``KeyError`` naming the first such
    tensor, end by end.
    """
    if max_length is None:
        max_length = config.m
    for name, value in (("max_length", max_length), ("dense_window", dense_window)):
        if value is not None:
            _integer(value, name, config.m)  # the memory window must be covered
    stack = family.stack
    steps, band, n = len(stack), stack.shape[1] - 1, stack.shape[-1]
    d = math.isqrt(n)
    for k, rho in enumerate(() if exact_states is None else exact_states):
        if np.shape(rho) != (d, d):
            raise ValueError(f"exact_states must be {d}x{d}, got {np.shape(rho)} at step {k}")
    phases = config.transient_steps + config.c
    dense = dense_window is not None
    last_end = dense_window if dense else phases - 1 + max_length
    top = min(max_length, last_end)
    past_grid, past_band = last_end > steps, top > band
    if past_grid or past_band:
        # the first in end-by-end order: length 1 past the grid, or band + 1
        i, l = (steps, 1) if past_grid and (not past_band or steps <= band) else (0, band + 1)
        raise KeyError(
            f"map family does not cover tensor (start={i}, length={l}): "
            f"its grid has {steps} steps and its band is {band}"
        )
    rows = _end_rows(stack, range(last_end + 1), top)  # rows[k]: end k
    tensors = {
        (k - l, l): rows[k, :, (top - l) * n : (top - l + 1) * n]
        for k in range(1, last_end + 1)
        for l in range(1 if dense else max(1, k - phases + 1), min(k, top) + 1)
    }
    if exact_states is None:
        return TransferTensorSet(config=config, tensors=tensors, dense=dense)
    states = np.asarray(exact_states[: config.m + 1], dtype=complex).reshape(-1, d, d)
    history = vectorize(states)
    residuals = {
        k: states[k] - devectorize(rows[k, :, (top - k) * n :] @ history[:k].reshape(-1), d)
        for k in range(1, len(states))
    }
    return TransferTensorSet(config=config, tensors=tensors, residuals=residuals, dense=dense)


def _end_rows(stack: np.ndarray, ends: range, top: int) -> np.ndarray:
    """Rows ``[T(top, k) ... T(1, k)]`` of the ends ``k`` in ``ends``, one
    ``(n, top*n)`` row per end, from a family's ``stack``; ``top`` is at most
    the last end.

    Forward substitution, one length at a time: ``T(l, k)`` for every end
    ``k >= l`` of the range is ``map(k-l -> k)`` minus one batched product
    of the ``l - 1`` entries already in each row with the maps
    ``map(k-l -> k-l+g)``, ``g = l-1 .. 1``. The columns of lengths above
    ``k`` are left unset. The systems of different ends are independent, so
    a range of one end costs that end's row alone and gives the same bits.
    """
    n = stack.shape[-1]
    first, stop = ends.start, ends.stop
    rows = np.empty((len(ends), n, top * n), dtype=complex)
    for l in range(1, top + 1):
        lo = max(l, first)  # the first end with a tensor of length l
        starts = slice(lo - l, stop - l)
        t_l = stack[starts, l]
        if l > 1:  # minus the filled part of each row times map(k-l -> k-l+g)
            maps = stack[starts, 1:l].reshape(stop - lo, (l - 1) * n, n)
            t_l = t_l - rows[lo - first :, :, (top - l + 1) * n :] @ maps
        rows[lo - first :, :, (top - l) * n : (top - l + 1) * n] = t_l
    return rows


class _Rows:
    """Rows and blocks of the truncated recursion in real Hermitian coordinates.

    Row ``k`` is the real ``(n, m*n)`` matrix ``[T(k-m, m) ... T(k-1, 1)]``
    (zeros where ``k - l < 0``) of tensors in real coordinates, each followed
    by taking the Hermitian part; it maps the ``m`` states before step ``k``
    to state ``k``. Tensors resolve through :meth:`TransferTensorSet._key_of`.
    From step ``periodic_from = transient_steps + m`` on (never in a dense
    set) every start in a row is served by its phase, so rows and blocks
    there depend only on ``k mod c``; rows are built once per phase, and a
    block is built where it is asked for.
    """

    def __init__(self, tensors: TransferTensorSet, d: int):
        config = tensors.config
        self.tensors, self.m, self.c = tensors, config.m, config.c
        self.n = d * d
        # a whole number of periods covering the memory window
        self.block_steps = config.c * -(-config.m // config.c)
        self.periodic_from = None if tensors.dense else config.transient_steps + config.m
        # stored key -> real coordinates, for every length a row can use
        keys = [key for key in tensors.tensors if key[1] <= config.m]
        kept = np.array([l <= config.m for _, l in tensors.tensors], dtype=bool)
        self._real = dict(zip(keys, superop_to_coordinates(tensors._tensors_stack[kept]).real))
        self._rows: dict = {}  # phase past `periodic_from` -> row

    def _phase(self, k: int):
        if self.periodic_from is None or k < self.periodic_from:
            return None
        return (k - self.periodic_from) % self.c

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
        m, n, steps = self.m, self.n, self.block_steps
        # rows 0..m*n-1: the window itself; then each state in window terms
        ext = np.zeros(((m + steps) * n, m * n))
        ext[: m * n] = np.eye(m * n)
        for i in range(steps):
            ext[(m + i) * n : (m + i + 1) * n] = self.row(k + i) @ ext[i * n : (i + m) * n]
        return ext[m * n :]


def propagate(
    tensors: TransferTensorSet,
    seed_states: np.ndarray | list,
    total_steps: int,
    include_residuals: bool = False,
) -> np.ndarray:
    """Propagate to ``total_steps`` using the memory-truncated decomposition.

    ``seed_states`` are exact states at steps ``0..len(seed)-1``. For each
    later step ``rho_k = sum_{l=1}^{min(k, m)} T(l) rho_{k-l}`` plus, when
    ``include_residuals``, the tracked residual for ``k <= m`` (untracked
    residuals count as zero, which is exact for uncorrelated starts whose
    reference state matches the initial environment). Without residuals the
    seed must span the full memory window. Outputs are never re-positivized:
    positivity loss diagnoses a too-severe memory cutoff.

    Returns one complex ``(total_steps + 1, d, d)`` array: a copy of the
    seeds, then the propagated states. Every seed must be ``d x d``, of one
    shape, with ``d**2`` the tensors' size, else ``ValueError`` naming
    ``seed_states``.

    Every step runs in real Hermitian coordinates, where a tensor followed by
    :func:`~memtensor.linalg.hermitize` is one real matrix, so each output is
    Hermitian by construction (seed states are returned as given). Steps
    adding a residual, and the last ``< L = c*ceil(m/c)`` steps, run one row
    at a time; the rest run in blocks mapping the ``m``-state window straight
    to the next ``L`` states. Past the transients of a periodic set every
    block has the same phase, so one block, fetched once, serves the whole
    periodic stretch and the cost per step does not depend on the horizon; a
    dense set, and the transients, build each block from its own rows.
    """
    _integer(total_steps, "total_steps", 0)
    m = tensors.config.m
    n_seed = len(seed_states)
    if n_seed < 1:
        raise ValueError("need at least the initial state as seed")
    if not include_residuals and n_seed < min(m, total_steps + 1):
        raise ValueError(
            f"seed of {n_seed} states does not cover the memory window of {m} "
            f"steps; provide more seed states or include residuals"
        )
    shapes = {np.shape(s) for s in seed_states}
    first = np.shape(seed_states[0])
    d = first[0] if len(first) == 2 else 0
    if shapes != {(d, d)} or d < 1:
        raise ValueError(
            f"seed_states must be d x d matrices of one shape, got shapes {sorted(shapes)}"
        )
    size = tensors._tensors_stack.shape[-1]
    if tensors.tensors and size != d * d:
        raise ValueError(
            f"seed_states are {d}x{d}, but the tensors act on {size}-dimensional vectors"
        )
    seeds = np.array(seed_states[: total_steps + 1], dtype=complex)
    rows = _Rows(tensors, d)
    n, steps = rows.n, rows.block_steps
    coordinates = to_coordinates(vectorize(tensors._residuals_stack)).real
    by_step = zip(tensors.residuals, coordinates)
    residuals = {k: r for k, r in by_step if include_residuals and k <= m}
    # flat history: state k at entries (m + k)*n .. (m + k + 1)*n, behind m
    # zero states, so the window before step k starts at k*n
    hist = np.zeros((total_steps + 1 + m) * n)
    hist[m * n : (m + len(seeds)) * n] = to_coordinates(vectorize(seeds)).real.reshape(-1)

    def single(k):
        state = hist[(m + k) * n : (m + k + 1) * n]
        rows.row(k).dot(hist[k * n : (k + m) * n], out=state)
        if k in residuals:
            state += residuals[k]

    k = n_seed
    while k <= min(max(residuals, default=0), total_steps):
        single(k)
        k += 1
    stop = total_steps - steps + 2  # a block starting below it ends by total_steps
    periodic_from = stop if rows.periodic_from is None else min(rows.periodic_from, stop)
    while k < periodic_from:  # transients and dense sets: each block from its own rows
        out = hist[(m + k) * n : (m + k + steps) * n]
        rows.block(k).dot(hist[k * n : (k + m) * n], out=out)
        k += steps
    if k < stop:  # L is a whole number of periods: every later block has this phase
        dot, count = rows.block(k).dot, -(-(stop - k) // steps)
        # block j reads the m states before step k + j*L and writes the L from there
        windows = hist[k * n : (k + count * steps) * n].reshape(count, -1)[:, : m * n]
        outs = hist[(m + k) * n : (m + k + count * steps) * n].reshape(count, -1)
        for window, out in zip(windows, outs):
            dot(window, out=out)
        k += count * steps
    while k <= total_steps:
        single(k)
        k += 1
    # back to d x d, each state exactly Hermitian, headed by the seeds as given
    trajectory = devectorize(from_coordinates(hist[m * n :].reshape(-1, n)), d)
    trajectory[: len(seeds)] = seeds
    return trajectory


def propagate_correlation_free(
    model: LindbladModel,
    decomposition: StateDecomposition,
    grid: TimeGrid,
    config: MemoryConfig,
    total_steps: int,
    substeps: int = 64,
) -> np.ndarray:
    """Tensor-propagate a correlated initial state without residual terms.

    Each decomposition branch ``X_a (x) tau_a`` starts uncorrelated, and its
    tensors are built against the fixed reference state ``tau_a``
    (:class:`~memtensor.tomography.FixedState`), so its residuals vanish
    identically and plain tensor propagation applies; the branches are then
    recombined with the decomposition coefficients. Only this fixed
    reference keeps a branch residual-free.

    The tensors reuse one period of starts, so ``config.c`` must be a
    multiple of :func:`~memtensor.models.steps_per_period` on ``grid.dt``
    and ``config.dt`` must equal ``grid.dt`` to 1e-12 relative, else
    ``ValueError`` naming the field. ``grid`` must cover the
    tensor-construction window (period + memory); propagation continues to
    ``total_steps`` regardless of the grid length. The joint steps do not
    depend on the branch, so every branch reads one
    :class:`~memtensor.models.PropagatorCache`. Returns one complex
    ``(total_steps + 1, d, d)`` array, as :func:`propagate` does.
    """
    if abs(config.dt - grid.dt) > 1e-12 * grid.dt:
        raise ValueError(f"config.dt={config.dt!r} differs from the grid's dt={grid.dt!r}")
    period = steps_per_period(model, grid.dt)
    if period is None or config.c % period:
        repeats = f"repeats every {period} steps" if period else "never repeats"
        raise ValueError(f"config.c={config.c} must be a multiple of the steps per period, "
                         f"but at dt={grid.dt!r} the generator {repeats}")
    combined = None
    cache = PropagatorCache(model, grid, substeps)
    for coeff, sys_op, tau in decomposition.terms:
        if coeff == 0:
            continue
        family = reconstruct_family(
            model, grid, FixedState(tau), substeps=substeps, band=config.m, cache=cache
        )
        tensors = build_tensors(family, config)
        branch = coeff * propagate(tensors, [sys_op], total_steps, include_residuals=True)
        combined = branch if combined is None else combined + branch
    if combined is None:
        raise ValueError("decomposition has no nonzero terms")
    return hermitize(combined)


def error_bound(tensors: TransferTensorSet, config: MemoryConfig, k: int) -> float:
    """Memory-cutoff error bound at step ``k``.

    Sums the operator norms of the tensors in the second memory window,
    ``sum_{l=1}^{m} ||T(start = phase(k - 2m) + l, length = 2m - l)||``,
    which bounds the distance between the propagated and exact states up to
    contributions from later memory windows. Needs tensors out to length
    ``2m - 1``. The sum is memoized on the set by ``m`` and the phase.
    """
    m = config.m
    if k < 2 * m:
        raise ValueError(f"bound needs k >= 2m = {2 * m}, got {k}")
    base = tensors.phase_of(k - 2 * m)
    if (m, base) not in tensors._bounds:
        total = 0.0
        for l in range(1, m + 1):
            try:
                total += tensors._norm_table[tensors._key_of(base + l, 2 * m - l)]
            except KeyError as exc:
                raise KeyError(f"error bound needs tensors to length {2 * m - 1}: {exc}") from exc
        tensors._bounds[m, base] = total
    return tensors._bounds[m, base]


def memory_cutoff_heuristic(tensors: TransferTensorSet, config: MemoryConfig) -> float:
    """Largest norm of the longest kept tensors across stored phases.

    Empirically a much tighter indicator of the propagation error than the
    conservative second-window bound.
    """
    norms = [norm for (_, l), norm in tensors._norm_table.items() if l == config.m]
    if not norms:
        raise KeyError(f"no stored tensors of length m={config.m}")
    return max(norms)


def tensor_norm_profile(tensors: TransferTensorSet) -> dict:
    """Operator norm of every stored tensor, keyed by ``(length, start)``."""
    table = tensors._norm_table
    return {(l, p): table[(p, l)] for p, l in sorted(table)}


def stability_radius(tensors: TransferTensorSet) -> float:
    """Spectral radius per driving period of memory-truncated propagation.

    The window map sends the ``m`` states before a step past the transients
    to the ``m`` states ``L = c*ceil(m/c)`` steps later: the
    last ``m*d^2`` rows of the block :func:`propagate` steps with there. Its
    spectral radius, to the power ``c/L``, is the growth per period. Trace
    preservation pins an eigenvalue at 1, so a stable truncation gives 1 and
    a radius above 1 flags a cutoff whose propagation diverges, without an
    oracle. A dense set has no period map and raises ``ValueError``.
    """
    if tensors.dense:
        raise ValueError("a dense tensor set has no period map")
    if not tensors.tensors:
        raise ValueError("empty tensor set")
    n = tensors._tensors_stack.shape[-1]
    rows = _Rows(tensors, math.isqrt(n))
    window_map = rows.block(rows.periodic_from)[-rows.m * n :]
    radius = float(np.abs(np.linalg.eigvals(window_map)).max())
    return radius ** (rows.c / rows.block_steps)
