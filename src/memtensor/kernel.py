"""Memory kernels: discrete limits of transfer tensors and the direct
projection-operator construction.

On a grid of spacing ``dt`` the map family and transfer tensors estimate the
pieces of a continuous memory-kernel master equation,

    d rho/dt  =  L_t rho_t  +  integral_s K_{t,s} rho_s  +  J_{t,t0},

via ``L ~ (map(one step) - 1)/dt``, ``K ~ T/(dt**2)``, ``J ~ residual/dt``.
The same objects follow directly from the joint dynamics with time-dependent
projection superoperators ``P_t X = tr_E{X} (x) tau(t)``:

    L_t    = tr_E{ P_t L_t^SE P_t (. (x) x) }
    K_{t,s}= tr_E{ P_t L_t^SE G_{t,s} (Q_s L_s^SE P_s - dP_s/ds) (. (x) x) }
    J_{t,t0}= tr_E{ P_t L_t^SE G_{t,t0} Q_{t0} A rho^SE_{t0} }

with ``G`` the time-ordered exponential of ``Q L^SE`` and ``x`` an arbitrary
unit-trace environment operator (it is hit by a projector immediately, so the
result cannot depend on it). Matching the two routes as the grid refines is
the continuum-limit check; their disagreement at finite ``dt`` measures the
discretization of the reconstructed master equation.

All direct objects share one assembly: ``tr_E P_t L_t`` on the left
(``_KernelContext.left``), the injection ``Q_s L_s P_s - dP_s/ds`` on the
right (``_KernelContext.inject``) and, in between, ``models.ordered_exponential``
of ``Q L``. ``nz_kernel_slice`` is the kernel route; ``nz_kernel_direct`` is its
one-point case and ``kernel_norm_curve`` grows the exponential step by step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    _integer,
    apply_superop,
    devectorize,
    embed_environment_superop,
    from_coordinates,
    operator_norm,
    superop_from_coordinates,
    superop_to_coordinates,
    to_coordinates,
    trace_out_superop,
    vectorize,
)
from .models import (
    LindbladModel,
    TimeGrid,
    _finite,
    generator_stack,
    midpoints,
    ordered_exponential,
)
from .tomography import (
    DynamicalMapFamily,
    ReferencePolicy,
    ReferenceStates,
    extend_to_joint,
    policy_label,
    reconstruct_family,
)
from .transfer import MemoryConfig, TransferTensorSet, build_tensors


@dataclass(frozen=True)
class ProjectorChoice:
    """Reference-state policy plus the finite-difference step for ``dP/dt``."""

    policy: ReferencePolicy
    derivative_step: float = 1 / 64

    def __post_init__(self):
        if _finite(self.derivative_step, "derivative_step") <= 0:
            raise ValueError(f"derivative_step must be positive, got {self.derivative_step}")


def projector_superop(tau: np.ndarray, layout) -> tuple[np.ndarray, np.ndarray]:
    """Joint-space projector pair for reference state ``tau``: ``P X = tr_E X (x) tau``."""
    p = embed_environment_superop(tau, layout) @ trace_out_superop(layout, "system")
    return p, np.eye(p.shape[0]) - p


class _KernelContext:
    """Shared machinery for direct projection-operator evaluations, in real
    Hermitian coordinates: ``P_t`` weights the embeddings ``X -> X (x) e_k``
    of the environment's basis elements by the coordinates of ``tau(t)``."""

    def __init__(self, model, choice, rho_se0, t0, substep, x_env=None):
        self.model = model
        self.choice = choice
        layout = model.layout
        self.refs = ReferenceStates(choice.policy, model, rho_se0, t0=t0, substep=substep)
        de = layout.dim_environment
        elements = devectorize(from_coordinates(np.eye(de * de)), de)
        self.trace_e = superop_to_coordinates(trace_out_superop(layout, "system")).real
        self.embeds = superop_to_coordinates(embed_environment_superop(elements, layout)).real
        self.eye = np.eye(layout.dim_joint ** 2)
        x = np.eye(de) / de if x_env is None else np.asarray(x_env)
        if x.shape != (de, de) or abs(np.trace(x) - 1) > 1e-12:
            raise ValueError(f"x_env must be a {de}x{de} operator of unit trace to 1e-12")
        self.embed_x = superop_to_coordinates(embed_environment_superop(x, layout))

    def projectors(self, times):
        """Stack of ``P_t`` at each of ``times``, from one reference-state query."""
        return np.tensordot(self.refs.coordinates(times), self.embeds, axes=1) @ self.trace_e

    def left(self, t):
        """``tr_E P_t L_t``: the end of every kernel-route object."""
        return self.trace_e @ self.projectors([t])[0] @ generator_stack(self.model, [t])[0]

    def inject(self, s):
        """``Q_s L_s P_s - dP_s/ds``, ``dP/ds`` by central differences
        (second-order one-sided at ``t0``)."""
        p_s = self.projectors([s])[0]
        out = (self.eye - p_s) @ generator_stack(self.model, [s])[0] @ p_s
        h, tau = self.choice.derivative_step, lambda t: self.refs.coordinates([t])[0]
        if s - h >= self.refs.t0 - 1e-12:
            d_tau = (tau(s + h) - tau(s - h)) / (2 * h)
        else:  # second-order one-sided difference at the start of the window
            d_tau = (-3 * tau(s) + 4 * tau(s + h) - tau(s + 2 * h)) / (2 * h)
        return out - np.tensordot(d_tau, self.embeds, axes=1) @ self.trace_e

    def q_generators(self, times):
        """Stack of ``Q_t L_t`` at each of ``times``."""
        return (self.eye - self.projectors(times)) @ generator_stack(self.model, times)


def nz_generator_direct(
    model: LindbladModel,
    choice: ProjectorChoice,
    t: float,
    rho_se0: np.ndarray | None = None,
) -> np.ndarray:
    """Time-local generator ``tr_E{P_t L_t P_t (. (x) x)}`` on the system,
    with reference states started from ``rho_se0`` at time 0."""
    ctx = _KernelContext(model, choice, rho_se0, 0.0, choice.derivative_step)
    return superop_from_coordinates(ctx.left(t) @ ctx.projectors([t])[0] @ ctx.embed_x)


def nz_kernel_direct(
    model: LindbladModel,
    choice: ProjectorChoice,
    s: float,
    t: float,
    substeps: int = 64,
    rho_se0: np.ndarray | None = None,
    x_env: np.ndarray | None = None,
) -> np.ndarray:
    """Memory kernel ``K(t, s)`` on the system from the joint dynamics.

    Builds the ordered exponential of ``Q L`` over ``[s, t]`` with
    midpoint-sampled projectors and differentiates the projector family by
    central differences (one-sided at time 0, where ``rho_se0`` starts the
    reference states). The unit trace operator ``x_env`` is arbitrary (else
    ``ValueError``). This is the one-point case of :func:`nz_kernel_slice`.
    """
    return nz_kernel_slice(model, choice, t, [s], substeps, rho_se0, x_env)[0][1]


def nz_kernel_slice(
    model: LindbladModel,
    choice: ProjectorChoice,
    t: float,
    s_values,
    substeps: int = 16,
    rho_se0: np.ndarray | None = None,
    x_env: np.ndarray | None = None,
) -> list[tuple[float, np.ndarray]]:
    """Kernels ``K(t, s)`` for many lower arguments ``s`` in a single sweep.

    The ordered exponential composes across segments, so the suffix products
    ``G(t, s_j)`` for all requested ``s_j < t`` cost one pass of ``substeps``
    exponentials per segment instead of one full integration per pair. This
    is the natural building block for quadratures of the memory integral.
    Reference states are integrated at the resolution of the ordered
    exponential (longest segment over ``substeps``), so both carry
    consistent second-order errors; they start from ``rho_se0`` at time 0.
    """
    s_sorted = sorted(float(s) for s in s_values)
    if not s_sorted:
        return []
    if s_sorted[-1] >= t:
        raise ValueError(f"kernel needs every s < t, got max s={s_sorted[-1]}, t={t}")
    segment = max(
        b - a for a, b in zip(s_sorted, s_sorted[1:] + [t])
    )
    ctx = _KernelContext(
        model, choice, rho_se0, 0.0, segment / _integer(substeps, "substeps", 1), x_env
    )
    # warm the reference-state cache in ascending order; the suffix loop
    # below walks backwards (time-dependent reference states depend on the
    # order of queries at the 1e-5 level, so this order is part of the result)
    ctx.refs.coordinates(s_sorted)
    left = ctx.left(t)
    # suffix ordered exponentials, built from the latest segment backwards
    suffix = ctx.eye
    kernels = {}
    upper = t
    for s in reversed(s_sorted):
        times, h = midpoints(s, upper, substeps)
        suffix = suffix @ ordered_exponential(ctx.q_generators, times, h, ctx.eye)
        upper = s
        kernels[s] = left @ suffix @ ctx.inject(s) @ ctx.embed_x
    return [(s, superop_from_coordinates(kernels[s])) for s in s_sorted]


def nz_inhomogeneity(
    model: LindbladModel,
    choice: ProjectorChoice,
    preparation: np.ndarray,
    rho_se0: np.ndarray,
    t: float,
    substeps: int = 64,
) -> np.ndarray:
    """Inhomogeneity ``J(t, 0)`` for a preparation applied to ``rho_se0`` at
    time 0.

    Vanishes when the post-preparation joint state is a product whose
    environment factor matches the reference state (the complement projector
    annihilates it). A ``t`` below 0 is a ``ValueError``.
    """
    if _finite(t, "t") < 0:
        raise ValueError(f"t must be >= 0 (the preparation time), got {t}")
    count = _integer(substeps, "substeps", 1)
    # at t = 0 every reference state asked for is the start, so any substep serves
    substep = t / count if t > 0 else choice.derivative_step
    ctx = _KernelContext(model, choice, rho_se0, 0.0, substep)
    prepared = to_coordinates(extend_to_joint(preparation, model.layout) @ vectorize(rho_se0))
    vec = (ctx.eye - ctx.projectors([0.0])[0]) @ prepared
    vec = ordered_exponential(ctx.q_generators, *midpoints(0.0, t, substeps), vec)
    return devectorize(from_coordinates(ctx.left(t) @ vec), model.layout.dim_system)


# ---------------------------------------------------------------------------
# Discrete estimates from maps / tensors / residuals
# ---------------------------------------------------------------------------


def discrete_generator(family: DynamicalMapFamily, j: int) -> np.ndarray:
    """First-order generator estimate ``(map(j -> j+1) - 1)/dt`` at ``t_j``."""
    lam = family.map(j, j + 1)
    return (lam - np.eye(lam.shape[0])) / family.grid.dt


def discrete_kernel(tensors: TransferTensorSet, j_pair: tuple[int, int]) -> np.ndarray:
    """Kernel estimate ``K(t_j, t_i) ~ T(length j - i, end j)/dt**2``."""
    i, j = j_pair
    if j - i < 1:
        raise ValueError(f"kernel estimate needs i < j, got {j_pair}")
    return tensors.tensor(i, j - i) / tensors.config.dt ** 2


def discrete_inhomogeneity(residual: np.ndarray, dt: float) -> np.ndarray:
    """Inhomogeneity estimate ``residual/dt``."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return residual / dt


@dataclass(eq=False)
class KernelSeries:
    """Sampled master-equation pieces on a grid.

    ``generator[j]`` acts at ``t_j``; ``kernel[(j, i)]`` couples the state at
    ``t_i`` into the derivative at ``t_j`` (separations of at least two
    steps: the adjacent step is the generator term); ``inhomogeneity[j]`` is
    the correlation term at ``t_j``.
    """

    grid: TimeGrid
    generator: dict = field(default_factory=dict)
    kernel: dict = field(default_factory=dict)
    inhomogeneity: dict = field(default_factory=dict)


def discrete_kernel_series(
    family: DynamicalMapFamily,
    exact_states: list[np.ndarray],
    j_max: int | None = None,
) -> KernelSeries:
    """Estimate the full kernel series from a map family (no memory cutoff).

    Tensors reach lengths up to ``j_max``, which must lie in
    ``1 .. grid.steps``; the default ``grid.steps - 1`` needs a family of at
    least two steps.
    """
    grid = family.grid
    if j_max is None:
        j_max = grid.steps - 1
    if not 1 <= j_max <= grid.steps:
        raise ValueError(
            f"j_max must be in 1 .. {grid.steps} (the grid's steps), got j_max={j_max}"
        )
    config = MemoryConfig(dt=grid.dt, m=j_max, c=max(j_max, 1))
    tensors = build_tensors(
        family, config, dense_window=j_max, exact_states=exact_states
    )
    series = KernelSeries(grid=grid)
    for j in range(grid.steps):
        series.generator[j] = discrete_generator(family, j)
    for p, l in tensors.tensors:
        if l >= 2:
            series.kernel[(p + l, p)] = discrete_kernel(tensors, (p, p + l))
    for k, residual in tensors.residuals.items():
        series.inhomogeneity[k] = discrete_inhomogeneity(residual, grid.dt)
    return series


def master_equation_rhs(
    series: KernelSeries, trajectory: np.ndarray | list, j: int
) -> np.ndarray:
    """Discrete master-equation right-hand side at step ``j``.

    ``generator[j] rho_j + dt * sum_i kernel[(j, i)] rho_i + inhomogeneity[j]``
    over the ``(N + 1, d_S, d_S)`` array (or list) ``trajectory``, matching the
    forward difference ``(rho_{j+1} - rho_j)/dt`` to first order in ``dt``.
    """
    if j < 1 or j not in series.generator:
        raise ValueError(f"right-hand side needs 1 <= j < grid steps, got {j}")
    if len(trajectory) <= j:
        raise ValueError(
            f"trajectory of {len(trajectory)} states does not reach step {j}"
        )
    out = apply_superop(series.generator[j], trajectory[j])
    for i in range(j - 1):
        kernel = series.kernel.get((j, i))
        if kernel is not None:
            out = out + series.grid.dt * apply_superop(kernel, trajectory[i])
    inhom = series.inhomogeneity.get(j)
    if inhom is not None:
        out = out + inhom
    return out


# ---------------------------------------------------------------------------
# Kernel-norm curves and the continuum-limit study
# ---------------------------------------------------------------------------


def kernel_norm_curve(
    model: LindbladModel,
    choices: list[ProjectorChoice],
    grid: TimeGrid,
    rho_se0: np.ndarray | None = None,
    substeps: int = 64,
) -> list[tuple[str, float, float]]:
    """Norm of ``K(t, t0)`` along the grid for each projector choice.

    Returns rows ``(policy label, t, operator norm)``; the ordered
    exponential is applied to the injection step by step over the grid, so a
    full curve costs no more than one kernel at the final time. The basis of
    the coordinates is orthonormal, so they give the operator norms.
    """
    rows = []
    substep = grid.dt / _integer(substeps, "substeps", 1)
    for choice in choices:
        ctx = _KernelContext(model, choice, rho_se0, grid.t0, substep)
        block = ctx.inject(grid.t0) @ ctx.embed_x  # stepped on as G(t, t0) grows
        label = policy_label(choice.policy)
        for j in range(1, grid.steps + 1):
            times, h = midpoints(grid.time(j - 1), grid.time(j), substeps)
            block = ordered_exponential(ctx.q_generators, times, h, block)
            t = grid.time(j)
            rows.append((label, t, operator_norm(ctx.left(t) @ block)))
    return rows


def convergence_study(
    model: LindbladModel,
    t_values: list[float],
    n_values: list[int],
    choice: ProjectorChoice,
    rho_se0: np.ndarray | None = None,
    map_substeps: int = 64,
    kernel_substeps: int = 512,
) -> list[tuple[float, int, float]]:
    """Relative difference between ``dt**2 K(t, 0)`` and the full-length tensor.

    For each evolution time ``t`` and grid refinement ``N`` (``dt = t/N``),
    returns ``(t, N, ||dt^2 K - T(N)|| / ||T(N)||)``; the joint state
    ``rho_se0`` is taken at time 0. The tensor route and the
    projection-operator route agree in the ``N -> infinity`` limit.
    ``kernel_substeps`` and ``map_substeps`` must be integers of at least 1
    (``ValueError`` naming the argument).
    """
    _integer(kernel_substeps, "kernel_substeps", 1)
    _integer(map_substeps, "map_substeps", 1)
    rows = []
    for t in t_values:
        kernel = nz_kernel_direct(
            model, choice, 0.0, t, substeps=kernel_substeps, rho_se0=rho_se0
        )
        for n in n_values:
            if n < 2:
                raise ValueError(f"tensor recursion needs at least 2 grid points, got N={n}")
            grid = TimeGrid(0.0, t / n, n)
            family = reconstruct_family(
                model, grid, choice.policy, substeps=map_substeps, rho_se0=rho_se0
            )
            config = MemoryConfig(dt=grid.dt, m=n, c=n)
            tensors = build_tensors(family, config, dense_window=n)
            t_n = tensors.tensor(0, n)
            scaled_kernel = grid.dt ** 2 * kernel
            rows.append((t, n, operator_norm(scaled_kernel - t_n) / operator_norm(t_n)))
    return rows
