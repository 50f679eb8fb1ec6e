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
right (``_KernelContext.inject``) and the ordered exponential of ``Q L`` in
between. ``nz_kernel_slice`` is the kernel route; ``nz_kernel_direct`` is its
one-point case and ``kernel_norm_curve`` grows the exponential step by step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    apply_superop,
    devectorize,
    embed_environment_superop,
    operator_norm,
    trace_out_superop,
    vectorize,
)
from .models import (
    LindbladModel,
    TimeGrid,
    generator_stack,
    liouvillian,
    midpoints,
    ordered_exponential,
)
from .tomography import (
    DynamicalMapFamily,
    ReferencePolicy,
    ReferenceStates,
    extend_to_joint,
    policy_label,
)
from .transfer import MemoryConfig, TransferTensorSet, build_tensors


@dataclass(frozen=True)
class ProjectorChoice:
    """Reference-state policy plus the finite-difference step for ``dP/dt``."""

    policy: ReferencePolicy
    derivative_step: float = 1 / 64

    def __post_init__(self):
        if self.derivative_step <= 0:
            raise ValueError(f"derivative_step must be positive, got {self.derivative_step}")


def projector_superop(tau: np.ndarray, layout) -> tuple[np.ndarray, np.ndarray]:
    """Joint-space projector pair for reference state ``tau``: ``P X = tr_E X (x) tau``."""
    p = embed_environment_superop(tau, layout) @ trace_out_superop(layout, "system")
    return p, np.eye(p.shape[0]) - p


class _KernelContext:
    """Shared machinery for direct projection-operator evaluations."""

    def __init__(self, model, choice, rho_se0, t0, integration_substep=None, x_env=None):
        self.model = model
        self.choice = choice
        self.layout = model.layout
        self.t0 = t0
        if integration_substep is None:
            integration_substep = choice.derivative_step
        self.refs = ReferenceStates(
            choice.policy, model, rho_se0, t0=t0, substep=integration_substep
        )
        self.trace_e = trace_out_superop(self.layout, "system")
        self.eye = np.eye(self.layout.dim_joint ** 2)
        de = self.layout.dim_environment
        x = np.eye(de) / de if x_env is None else x_env
        self.embed_x = embed_environment_superop(x, self.layout)

    def projector(self, t):
        return embed_environment_superop(self.refs.state(t), self.layout) @ self.trace_e

    def left(self, t):
        """``tr_E P_t L_t``: the end of every kernel-route object."""
        return self.trace_e @ self.projector(t) @ liouvillian(self.model, t)

    def inject(self, s, derivative_term=True):
        """``Q_s L_s P_s - dP_s/ds``; ``derivative_term=False`` drops ``dP/ds``."""
        p_s = self.projector(s)
        out = (self.eye - p_s) @ liouvillian(self.model, s) @ p_s
        if not derivative_term:
            return out
        h, tau = self.choice.derivative_step, self.refs.state
        if s - h >= self.t0 - 1e-12:
            d_tau = (tau(s + h) - tau(s - h)) / (2 * h)
        else:  # second-order one-sided difference at the start of the window
            d_tau = (-3 * tau(s) + 4 * tau(s + h) - tau(s + 2 * h)) / (2 * h)
        return out - embed_environment_superop(d_tau, self.layout) @ self.trace_e

    def q_generators(self, times):
        """Stack of ``Q_t L_t`` at each of ``times``."""
        qs = np.stack([self.eye - self.projector(t) for t in times])
        return qs @ generator_stack(self.model, times)

    def ordered_q_exponential(self, s, t, substeps):
        """Time-ordered exponential of ``Q L`` over ``[s, t]``."""
        g = np.eye(self.layout.dim_joint ** 2, dtype=complex)
        if t == s:
            return g
        times, h = midpoints(s, t, substeps)
        return ordered_exponential(self.q_generators, times, h, g)


def nz_generator_direct(
    model: LindbladModel,
    choice: ProjectorChoice,
    t: float,
    rho_se0: np.ndarray | None = None,
    x_env: np.ndarray | None = None,
    t0: float = 0.0,
) -> np.ndarray:
    """Time-local generator ``tr_E{P_t L_t P_t (. (x) x)}`` on the system."""
    ctx = _KernelContext(model, choice, rho_se0, t0, x_env=x_env)
    return ctx.left(t) @ ctx.projector(t) @ ctx.embed_x


def nz_kernel_direct(
    model: LindbladModel,
    choice: ProjectorChoice,
    s: float,
    t: float,
    substeps: int = 64,
    rho_se0: np.ndarray | None = None,
    x_env: np.ndarray | None = None,
    t0: float = 0.0,
    derivative_term: bool = True,
) -> np.ndarray:
    """Memory kernel ``K(t, s)`` on the system from the joint dynamics.

    Builds the ordered exponential of ``Q L`` over ``[s, t]`` with
    midpoint-sampled projectors and differentiates the projector family by
    central differences (one-sided at the start of the window). The unit
    trace operator ``x_env`` is arbitrary; ``derivative_term=False`` drops
    ``dP/ds`` (identically zero for a fixed reference state). This is the
    one-point case of :func:`nz_kernel_slice`.
    """
    return nz_kernel_slice(
        model, choice, t, [s], substeps, rho_se0, x_env, t0, derivative_term
    )[0][1]


def nz_kernel_slice(
    model: LindbladModel,
    choice: ProjectorChoice,
    t: float,
    s_values,
    substeps: int = 16,
    rho_se0: np.ndarray | None = None,
    x_env: np.ndarray | None = None,
    t0: float = 0.0,
    derivative_term: bool = True,
) -> list[tuple[float, np.ndarray]]:
    """Kernels ``K(t, s)`` for many lower arguments ``s`` in a single sweep.

    The ordered exponential composes across segments, so the suffix products
    ``G(t, s_j)`` for all requested ``s_j < t`` cost one pass of ``substeps``
    exponentials per segment instead of one full integration per pair. This
    is the natural building block for quadratures of the memory integral.
    Reference states are integrated at the resolution of the ordered
    exponential (longest segment over ``substeps``), so both carry
    consistent second-order errors.
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
        model, choice, rho_se0, t0, integration_substep=segment / substeps, x_env=x_env
    )
    # warm the reference-state cache in ascending order; the suffix loop
    # below walks backwards (time-dependent reference states depend on the
    # order of queries at the 1e-5 level, so this order is part of the result)
    for s in s_sorted:
        ctx.refs.state(s)
    left = ctx.left(t)
    # suffix ordered exponentials, built from the latest segment backwards
    suffix = np.eye(model.layout.dim_joint ** 2, dtype=complex)
    kernels = {}
    upper = t
    for s in reversed(s_sorted):
        suffix = suffix @ ctx.ordered_q_exponential(s, upper, substeps)
        upper = s
        kernels[s] = left @ suffix @ ctx.inject(s, derivative_term) @ ctx.embed_x
    return [(s, kernels[s]) for s in s_sorted]


def nz_inhomogeneity(
    model: LindbladModel,
    choice: ProjectorChoice,
    preparation: np.ndarray,
    rho_se0: np.ndarray,
    t: float,
    substeps: int = 64,
    t0: float = 0.0,
) -> np.ndarray:
    """Inhomogeneity ``J(t, t0)`` for a preparation applied at ``t0``.

    Vanishes when the post-preparation joint state is a product whose
    environment factor matches the reference state (the complement projector
    annihilates it).
    """
    ctx = _KernelContext(
        model, choice, rho_se0, t0, integration_substep=(t - t0) / substeps if t > t0 else None
    )
    prepared = extend_to_joint(preparation, model.layout) @ vectorize(rho_se0)
    vec = (ctx.eye - ctx.projector(t0)) @ prepared
    vec = ctx.ordered_q_exponential(t0, t, substeps) @ vec
    return devectorize(ctx.left(t) @ vec, model.layout.dim_system)


# ---------------------------------------------------------------------------
# Discrete estimates from maps / tensors / residuals
# ---------------------------------------------------------------------------


def discrete_generator(family: DynamicalMapFamily, j: int) -> np.ndarray:
    """First-order generator estimate ``(map(j -> j+1) - 1)/dt`` at ``t_j``."""
    dt = family.grid.dt
    if dt <= 0:
        raise ValueError("grid spacing must be positive")
    lam = family.map(j, j + 1)
    return (lam - np.eye(lam.shape[0])) / dt


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
    choice: ProjectorChoice
    generator: dict = field(default_factory=dict)
    kernel: dict = field(default_factory=dict)
    inhomogeneity: dict = field(default_factory=dict)


def discrete_kernel_series(
    family: DynamicalMapFamily,
    exact_states: list[np.ndarray],
    j_max: int | None = None,
) -> KernelSeries:
    """Estimate the full kernel series from a map family (no memory cutoff)."""
    grid = family.grid
    if j_max is None:
        j_max = grid.steps - 1
    config = MemoryConfig(dt=grid.dt, m=j_max, c=max(j_max, 1))
    tensors = build_tensors(
        family, config, dense_window=j_max, exact_states=exact_states
    )
    series = KernelSeries(
        grid=grid,
        choice=ProjectorChoice(family.policy, derivative_step=grid.dt / 16),
    )
    eye = np.eye(next(iter(family.maps.values())).shape[0])
    for j in range(grid.steps):
        series.generator[j] = (family.map(j, j + 1) - eye) / grid.dt
    for (p, l), t in tensors.tensors.items():
        if l >= 2:
            series.kernel[(p + l, p)] = t / grid.dt ** 2
    for k, residual in tensors.residuals.items():
        series.inhomogeneity[k] = residual / grid.dt
    return series


def master_equation_rhs(
    series: KernelSeries, trajectory: list[np.ndarray], j: int
) -> np.ndarray:
    """Discrete master-equation right-hand side at step ``j``.

    ``generator[j] rho_j + dt * sum_i kernel[(j, i)] rho_i + inhomogeneity[j]``,
    matching the forward difference ``(rho_{j+1} - rho_j)/dt`` to first order
    in the grid spacing.
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
    x_env: np.ndarray | None = None,
) -> list[tuple[str, float, float]]:
    """Norm of ``K(t, t0)`` along the grid for each projector choice.

    Returns rows ``(policy label, t, operator norm)``; the ordered
    exponential is accumulated incrementally over the grid, so a full curve
    costs the same as a single kernel evaluation at the final time.
    """
    rows = []
    for choice in choices:
        ctx = _KernelContext(
            model, choice, rho_se0, grid.t0, integration_substep=grid.dt / substeps, x_env=x_env
        )
        inject = ctx.inject(grid.t0) @ ctx.embed_x
        g = np.eye(model.layout.dim_joint ** 2, dtype=complex)
        label = policy_label(choice.policy)
        for j in range(1, grid.steps + 1):
            g = ctx.ordered_q_exponential(grid.time(j - 1), grid.time(j), substeps) @ g
            t = grid.time(j)
            rows.append((label, t, operator_norm(ctx.left(t) @ g @ inject)))
    return rows


def convergence_study(
    model: LindbladModel,
    t_values: list[float],
    n_values: list[int],
    choice: ProjectorChoice,
    rho_se0: np.ndarray | None = None,
    map_substeps: int = 64,
    kernel_substeps: int = 512,
    t0: float = 0.0,
) -> list[tuple[float, int, float]]:
    """Relative difference between ``dt**2 K(t, t0)`` and the full-length tensor.

    For each evolution time ``t`` and grid refinement ``N`` (``dt = t/N``),
    returns ``(t, N, ||dt^2 K - T(N)|| / ||T(N)||)``. The tensor route and
    the projection-operator route agree in the ``N -> infinity`` limit.
    """
    from .tomography import reconstruct_family

    rows = []
    for t in t_values:
        kernel = nz_kernel_direct(
            model, choice, t0, t, substeps=kernel_substeps, rho_se0=rho_se0, t0=t0
        )
        for n in n_values:
            if n < 2:
                raise ValueError(f"tensor recursion needs at least 2 grid points, got N={n}")
            grid = TimeGrid(t0, (t - t0) / n, n)
            family = reconstruct_family(
                model, grid, choice.policy, substeps=map_substeps, rho_se0=rho_se0
            )
            config = MemoryConfig(dt=grid.dt, m=n, c=n)
            tensors = build_tensors(family, config, starts=[0], max_length=n)
            t_n = tensors.tensor(0, n)
            scaled_kernel = grid.dt ** 2 * kernel
            rows.append((t, n, operator_norm(scaled_kernel - t_n) / operator_norm(t_n)))
    return rows
