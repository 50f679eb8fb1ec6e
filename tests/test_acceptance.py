"""Acceptance criteria, one test per criterion, with a PASS/FAIL line each.

Shared heavy artifacts (the long-horizon propagator cache and exact
trajectories on the paper grid) are module-scoped fixtures; each criterion
re-derives the rest from the library so it exercises the public surfaces.
"""

import math
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from memtensor.linalg import (
    SpaceLayout,
    devectorize,
    operator_norm,
    partial_trace,
    trace_distance,
    vectorize,
)
from memtensor.models import (
    LindbladModel,
    PropagatorCache,
    TimeGrid,
    evolve_state,
    example_initial_state,
    example_model,
)
from memtensor.tomography import (
    FixedState,
    FrozenSystem,
    ReferenceStates,
    TrueEnvironment,
    check_cptp,
    decompose_initial_state,
    reconstruct_family,
)
from memtensor.transfer import (
    MemoryConfig,
    build_tensors,
    error_bound,
    propagate,
    propagate_correlation_free,
)
from memtensor.kernel import (
    ProjectorChoice,
    convergence_study,
    kernel_norm_curve,
    nz_kernel_direct,
    projector_superop,
)

LAYOUT = SpaceLayout(2, 2)
SUBSTEPS = 48
KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = (KET0 + KET1) / np.sqrt(2)
MINUS = (KET0 - KET1) / np.sqrt(2)
TAU0 = 0.75 * np.outer(PLUS, PLUS) + 0.25 * np.outer(MINUS, MINUS)  # tr_S of rho0


@contextmanager
def criterion(label):
    try:
        yield
    except AssertionError:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


@pytest.fixture(scope="module")
def paper_grid():
    """Fig. 2 grid: dt = 5/8, horizon wt = 100, shared propagator cache."""
    model = example_model()
    rho0 = example_initial_state()
    grid = TimeGrid(0.0, 0.625, 160)
    cache = PropagatorCache(model, grid, substeps=SUBSTEPS)
    joint = evolve_state(rho0, model, grid, cache=cache)
    sys_traj = [partial_trace(r, LAYOUT, "system") for r in joint]
    return SimpleNamespace(
        model=model, rho0=rho0, grid=grid, cache=cache, sys_traj=sys_traj
    )


@pytest.fixture(scope="module")
def short_family(paper_grid):
    """Full map family over the first 17 grid points (wt in [0, 10])."""
    grid16 = TimeGrid(0.0, 0.625, 16)
    return reconstruct_family(
        paper_grid.model,
        grid16,
        FixedState(TAU0),
        substeps=SUBSTEPS,
        cache=paper_grid.cache,
    )


def test_criterion_1_exact_decomposition_identity(paper_grid, short_family):
    with criterion(
        "criterion 1: full-memory propagation with residuals is exact to 1e-10 "
        "over wt in [0, 10]"
    ):
        n = 16
        config = MemoryConfig(dt=0.625, m=n, c=n)
        tensors = build_tensors(
            short_family, config, dense_window=n, exact_states=paper_grid.sys_traj[: n + 1]
        )
        trajectory = propagate(
            tensors, [paper_grid.sys_traj[0]], n, include_residuals=True
        )
        worst = max(
            trace_distance(trajectory[k], paper_grid.sys_traj[k]) for k in range(n + 1)
        )
        assert worst <= 1e-10, f"max deviation {worst:.3e}"


def test_criterion_2_semigroup_null():
    with criterion(
        "criterion 2: semigroup transfer tensors vanish beyond one step and "
        "m=1 propagation is exact to 1e-10"
    ):
        h = 0.3 * np.array([[1, 0], [0, -1]], dtype=complex)
        decay = np.array([[0, 1], [0, 0]], dtype=complex)
        model = LindbladModel(SpaceLayout(2, 1), h, [(decay, 0.5)])
        grid = TimeGrid(0.0, 0.4, 12)
        cache = PropagatorCache(model, grid, substeps=32)
        family = reconstruct_family(
            model, grid, FixedState(np.eye(1, dtype=complex)), substeps=32, cache=cache
        )
        config = MemoryConfig(dt=grid.dt, m=6, c=1, transient_steps=3)
        tensors = build_tensors(family, config)
        long_norms = [
            operator_norm(t) for (p, l), t in tensors.tensors.items() if l >= 2
        ]
        assert max(long_norms) <= 1e-10, f"longest surviving norm {max(long_norms):.3e}"
        rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
        joint = evolve_state(rho0, model, grid, cache=cache)
        exact = [partial_trace(r, model.layout, "system") for r in joint]
        one_step = build_tensors(family, MemoryConfig(dt=grid.dt, m=1, c=1))
        trajectory = propagate(one_step, [rho0], grid.steps, include_residuals=True)
        worst = max(
            trace_distance(trajectory[k], exact[k]) for k in range(grid.steps + 1)
        )
        assert worst <= 1e-10, f"m=1 propagation deviates by {worst:.3e}"


def test_criterion_3_long_time_stability(paper_grid):
    with criterion(
        "criterion 3: propagation error over wt in [10, 100] stays within 3x "
        "its maximum over wt in [5, 10] (dt = 5/8, m = 8)"
    ):
        m, total = 8, 160
        family = reconstruct_family(
            paper_grid.model,
            paper_grid.grid,
            FixedState(TAU0),
            substeps=SUBSTEPS,
            band=m,
            cache=paper_grid.cache,
        )
        config = MemoryConfig(dt=0.625, m=m, c=total)
        tensors = build_tensors(
            family, config, dense_window=total, exact_states=paper_grid.sys_traj[: m + 1]
        )
        trajectory = propagate(
            tensors, paper_grid.sys_traj[:m], total, include_residuals=True
        )
        errors = [
            trace_distance(trajectory[k], paper_grid.sys_traj[k])
            for k in range(total + 1)
        ]
        early = max(errors[8:17])   # wt in [5, 10]
        late = max(errors[16:])     # wt in [10, 100]
        assert late <= 3 * early, f"late max {late:.3e} vs early max {early:.3e}"


def test_criterion_4_error_bound_sweep():
    with criterion(
        "criterion 4: cutoff error within the second-window bound in every "
        "physical cell; unphysical cells at the smallest memory time"
    ):
        model = example_model()
        rho0 = example_initial_state()
        policy = FixedState(TAU0)
        horizon = 100.0
        cells = []
        for c in (6, 8, 12, 14):
            dt = math.pi / c
            total = int(round(horizon / dt))
            grid_long = TimeGrid(0.0, dt, total)
            cache = PropagatorCache(model, grid_long, substeps=SUBSTEPS)
            joint = evolve_state(rho0, model, grid_long, cache=cache)
            exact = [partial_trace(r, LAYOUT, "system") for r in joint]
            for target in (1.25, 2.5, 5.0, 10.0):
                m = max(1, round(target / dt))
                if not 1.24 <= m * dt <= 10.01:
                    continue
                memory = MemoryConfig(dt=dt, m=m, c=c)
                max_length = 2 * m - 1
                family = reconstruct_family(
                    model,
                    TimeGrid(0.0, dt, c + max_length),
                    policy,
                    substeps=SUBSTEPS,
                    band=max_length,
                    cache=cache,
                )
                tensors = build_tensors(
                    family, memory, max_length=max_length, exact_states=exact[: m + 1]
                )
                trajectory = propagate(tensors, exact[:m], total, include_residuals=True)
                start = max(2 * m, total // 2)
                err = max(
                    trace_distance(trajectory[k], exact[k])
                    for k in range(start, total + 1)
                )
                bound = max(
                    error_bound(tensors, memory, k) for k in range(start, total + 1)
                )
                cells.append(SimpleNamespace(
                    c=c, m=m, t_m=m * dt, dt=dt, error=err, bound=bound,
                    unphysical=err > 2.0,
                ))
        assert len({cell.dt for cell in cells}) >= 4
        assert len({round(cell.t_m, 3) for cell in cells}) >= 4
        for cell in cells:
            if not cell.unphysical:
                assert cell.error <= cell.bound, (
                    f"cell (c={cell.c}, m={cell.m}): error {cell.error:.3e} "
                    f"exceeds bound {cell.bound:.3e}"
                )
        t_m_min = min(cell.t_m for cell in cells)
        assert any(
            cell.unphysical for cell in cells if cell.t_m <= t_m_min + 1e-9
        ), "no unphysical cell at the smallest memory time"
        # qualitative landscape: error drops from the shortest to the longest
        # memory inside every column
        for c in (6, 8, 12, 14):
            column = sorted(
                (cell for cell in cells if cell.c == c), key=lambda cell: cell.t_m
            )
            assert column[-1].error < column[0].error


def test_criterion_5_tensor_periodicity():
    with criterion(
        "criterion 5: tensors at phases p and p+c agree to 1e-8 (T = pi, c = 5)"
    ):
        model = example_model()
        dt = math.pi / 5
        grid = TimeGrid(0.0, dt, 18)
        family = reconstruct_family(model, grid, FixedState(TAU0), substeps=SUBSTEPS)
        config = MemoryConfig(dt=dt, m=8, c=5, transient_steps=5)
        tensors = build_tensors(family, config)
        worst = max(
            operator_norm(tensors.tensors[(p, l)] - tensors.tensors[(p + 5, l)])
            for p in range(5)
            for l in range(1, 9)
        )
        assert worst <= 1e-8, f"max phase mismatch {worst:.3e}"


def test_criterion_6_projector_identities():
    with criterion(
        "criterion 6: projector identities hold to 1e-12 over 100 random time "
        "pairs for all three policies"
    ):
        model = example_model()
        rho0 = example_initial_state()
        rng = np.random.default_rng(20260811)
        policies = [
            FixedState(TAU0),
            TrueEnvironment(),
            FrozenSystem(lambda t: np.outer(KET0, KET0).astype(complex)),
        ]
        worst = 0.0
        for policy in policies:
            refs = ReferenceStates(policy, model, rho0, substep=1 / 32)
            for _ in range(100):
                t, s = np.sort(rng.uniform(0.0, 5.0, size=2))[::-1]
                p_t, q_t = projector_superop(refs.state(t), LAYOUT)
                p_s, q_s = projector_superop(refs.state(s), LAYOUT)
                worst = max(
                    worst,
                    np.max(np.abs(p_t @ p_s - p_t)),
                    np.max(np.abs(q_t @ q_s - q_s)),
                    np.max(np.abs(p_t @ q_s)),
                    np.max(np.abs(q_t @ p_s - (p_s - p_t))),
                )
        assert worst <= 1e-12, f"max identity defect {worst:.3e}"


def test_criterion_7_discrete_continuum_convergence():
    with criterion(
        "criterion 7: dt^2-scaled kernel matches the full-length tensor better "
        "at N=64 than N=8, and worse at wt=5 than wt=2.5"
    ):
        model = example_model()
        rho0 = example_initial_state()
        choice = ProjectorChoice(FixedState(TAU0))
        rows = convergence_study(
            model,
            [2.5, 5.0],
            [8, 64],
            choice,
            rho0,
            map_substeps=SUBSTEPS,
            kernel_substeps=1024,
        )
        diffs = {(t, n): rel for t, n, rel in rows}
        # strict ordering with 5% slack
        assert diffs[(2.5, 64)] < 1.05 * diffs[(2.5, 8)]
        assert diffs[(5.0, 64)] < 1.05 * diffs[(5.0, 8)]
        assert diffs[(5.0, 8)] > 0.95 * diffs[(2.5, 8)]
        assert diffs[(5.0, 64)] > 0.95 * diffs[(2.5, 64)]


def test_criterion_8_projector_choice_ordering():
    with criterion(
        "criterion 8: the true-environment kernel norm at wt=5 is below the "
        "fixed-state one; all three curves finite"
    ):
        model = example_model()
        rho0 = example_initial_state()
        grid = TimeGrid(0.0, 0.625, 8)
        h = grid.dt / 16
        choices = [
            ProjectorChoice(FixedState(TAU0), h),
            ProjectorChoice(FrozenSystem(lambda t: np.outer(KET0, KET0).astype(complex)), h),
            ProjectorChoice(TrueEnvironment(), h),
        ]
        rows = kernel_norm_curve(model, choices, grid, rho0, substeps=SUBSTEPS)
        assert all(np.isfinite(norm) and norm > 0 for _, _, norm in rows)
        at_final = {label: norm for label, t, norm in rows if t == grid.time(8)}
        assert at_final["true-env"] < at_final["fixed"], (
            f"true-env {at_final['true-env']:.3f} not below fixed "
            f"{at_final['fixed']:.3f}"
        )


def test_criterion_9_correlated_state_decomposition(paper_grid):
    with criterion(
        "criterion 9: branch decomposition reassembles (1e-12), exact branch "
        "recombination matches (1e-9), tensor branches track to 2e-2 at wt<=100"
    ):
        model = paper_grid.model
        rho0 = paper_grid.rho0
        decomp = decompose_initial_state(rho0, LAYOUT)
        assert np.max(np.abs(decomp.reassemble() - rho0)) <= 1e-12

        # exact per-branch integration recombines to the correlated dynamics
        worst = 0.0
        branch_vecs = [
            (c, vectorize(np.kron(x, tau))) for c, x, tau in decomp.terms
        ]
        for k in range(17):  # wt in [0, 10]
            combined = np.zeros((2, 2), dtype=complex)
            for coeff, vec in branch_vecs:
                combined += coeff * partial_trace(devectorize(vec, 4), LAYOUT, "system")
            worst = max(worst, trace_distance(combined, paper_grid.sys_traj[k]))
            if k < 16:
                branch_vecs = [
                    (c, paper_grid.cache.adjacent(k) @ vec) for c, vec in branch_vecs
                ]
        assert worst <= 1e-9, f"exact branch recombination deviates by {worst:.3e}"

        # tensor-propagated branches with m = 8 on a period-commensurate grid
        dt = math.pi / 4
        config = MemoryConfig(dt=dt, m=8, c=4)
        total = int(round(100.0 / dt))
        window = TimeGrid(0.0, dt, 13)
        combined = propagate_correlation_free(
            model, decomp, window, config, total, substeps=SUBSTEPS
        )
        grid_long = TimeGrid(0.0, dt, total)
        joint = evolve_state(rho0, model, grid_long, substeps=SUBSTEPS)
        exact = [partial_trace(r, LAYOUT, "system") for r in joint]
        worst = max(
            trace_distance(combined[k], exact[k]) for k in range(total + 1)
        )
        assert worst <= 2e-2, f"tensor branch combination deviates by {worst:.3e}"


def test_criterion_10_x_independence():
    with criterion(
        "criterion 10: kernels built from two different unit-trace auxiliary "
        "operators agree to 1e-10 at 10 time pairs"
    ):
        model = example_model()
        rho0 = example_initial_state()
        x_a = np.eye(2) / 2
        x_b = np.array([[0.8, 0.15 - 0.05j], [0.15 + 0.05j, 0.2]])
        pairs = [(0.0, 0.5), (0.0, 1.25), (0.5, 1.0), (1.0, 2.5), (2.0, 2.5),
                 (0.25, 3.0), (1.5, 3.5), (3.0, 4.0), (0.0, 4.5), (2.5, 5.0)]
        worst = 0.0
        for i, (s, t) in enumerate(pairs):
            policy = FixedState(TAU0) if i % 2 else TrueEnvironment()
            choice = ProjectorChoice(policy)
            k_a = nz_kernel_direct(model, choice, s, t, 24, rho_se0=rho0, x_env=x_a)
            k_b = nz_kernel_direct(model, choice, s, t, 24, rho_se0=rho0, x_env=x_b)
            worst = max(worst, operator_norm(k_a - k_b))
        assert worst <= 1e-10, f"max x-dependence {worst:.3e}"


def test_criterion_11_family_cptp(short_family):
    with criterion(
        "criterion 11: every map of the 17-point example family passes the "
        "CPTP check at 1e-8"
    ):
        assert len(short_family.maps) == 16 * 17 // 2
        for key, lam in short_family.maps.items():
            report = check_cptp(lam, tol=1e-8)
            assert report.passed, f"map {key}: {report}"
