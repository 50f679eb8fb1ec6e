"""Projection superoperators, NZ kernels, discrete-continuum consistency."""

import numpy as np
import pytest

from memtensor.linalg import (
    SpaceLayout,
    apply_superop,
    devectorize,
    left_mult_superop,
    operator_norm,
    partial_trace,
    right_mult_superop,
    trace_norm,
    trace_out_superop,
    vectorize,
)
from memtensor.models import (
    EXAMPLE_PARAMETERS,
    PAULI,
    LindbladModel,
    TimeGrid,
    evolve_state,
    example_initial_state,
    example_model,
    liouvillian,
    propagator,
)
from memtensor.tomography import (
    FixedState,
    FrozenSystem,
    ReferenceStates,
    TrueEnvironment,
    decompose_initial_state,
    reconstruct_family,
)
from memtensor.kernel import (
    KernelSeries,
    ProjectorChoice,
    convergence_study,
    discrete_generator,
    discrete_inhomogeneity,
    discrete_kernel,
    discrete_kernel_series,
    kernel_norm_curve,
    master_equation_rhs,
    nz_generator_direct,
    nz_inhomogeneity,
    nz_kernel_direct,
    nz_kernel_slice,
    projector_superop,
)
from memtensor.transfer import MemoryConfig, build_tensors

RNG = np.random.default_rng(77003)
LAYOUT = SpaceLayout(2, 2)
KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = (KET0 + KET1) / np.sqrt(2)
MINUS = (KET0 - KET1) / np.sqrt(2)
TAU0 = 0.75 * np.outer(PLUS, PLUS) + 0.25 * np.outer(MINUS, MINUS)


def random_state(d):
    a = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def decoupled_model():
    p = EXAMPLE_PARAMETERS
    h = 0.5 * p["omega"] * np.kron(PAULI["Z"], PAULI["I"]) + 0.5 * p["omega_env"] * np.kron(
        PAULI["I"], PAULI["Z"]
    )
    pump = np.kron(PAULI["I"], np.array([[0, 1], [0, 0]], dtype=complex))
    return LindbladModel(LAYOUT, h, [(pump, p["pump_rate"])])


def all_policies():
    return [
        FixedState(TAU0),
        TrueEnvironment(),
        FrozenSystem(lambda t: np.outer(KET0, KET0).astype(complex)),
    ]


POLICY_IDS = ["fixed", "true-env", "frozen"]


def cross_route_tolerance(policy, reference):
    """Agreement of two kernel routes that sample the same reference states.

    True-env states are integrated with waypoints cached along the first
    path of queries, so a state depends on the order of earlier queries at
    about 1e-5; two routes then agree only to that level (measured 4.7e-8
    and 4.4e-7 relative below). Fixed and frozen routes agree to rounding.
    """
    if isinstance(policy, TrueEnvironment):
        return 1e-6 * operator_norm(reference)
    return 1e-12


# --- projectors -------------------------------------------------------------


def test_projector_superop_basics():
    tau = random_state(2)
    p, q = projector_superop(tau, LAYOUT)
    np.testing.assert_array_equal(p + q, np.eye(16))
    assert np.max(np.abs(p @ p - p)) < 1e-12
    rho = random_state(2)
    product = np.kron(rho, tau)
    np.testing.assert_allclose(apply_superop(p, product), product, atol=1e-12)
    assert np.max(np.abs(apply_superop(q, product))) < 1e-12


def test_projector_identities_all_policies():
    model = example_model()
    rho0 = example_initial_state()
    for policy in all_policies():
        refs = ReferenceStates(policy, model, rho0, substep=1 / 32)
        for _ in range(5):
            t, s = sorted(RNG.uniform(0.0, 5.0, size=2))[::-1]
            p_t, q_t = projector_superop(refs.state(t), LAYOUT)
            p_s, q_s = projector_superop(refs.state(s), LAYOUT)
            assert np.max(np.abs(p_t @ p_s - p_t)) < 1e-12
            assert np.max(np.abs(q_t @ q_s - q_s)) < 1e-12
            assert np.max(np.abs(p_t @ q_s)) < 1e-12
            assert np.max(np.abs(q_t @ p_s - (p_s - p_t))) < 1e-12


# --- direct NZ objects ------------------------------------------------------


def test_kernel_x_independence():
    model = example_model()
    rho0 = example_initial_state()
    x_a = np.eye(2) / 2
    x_b = np.array([[0.3, 0.1j], [-0.1j, 0.7]])
    for policy in (FixedState(TAU0), TrueEnvironment()):
        choice = ProjectorChoice(policy)
        k_a = nz_kernel_direct(model, choice, 0.5, 1.5, 32, rho_se0=rho0, x_env=x_a)
        k_b = nz_kernel_direct(model, choice, 0.5, 1.5, 32, rho_se0=rho0, x_env=x_b)
        assert operator_norm(k_a - k_b) < 1e-10


@pytest.mark.parametrize("x_env", [np.eye(2), np.eye(3) / 3, np.ones(2) / 2],
                         ids=["trace-2", "3x3", "vector"])
def test_kernel_refuses_x_env_without_unit_trace_or_shape(x_env):
    choice = ProjectorChoice(FixedState(TAU0))
    with pytest.raises(ValueError, match="x_env"):
        nz_kernel_direct(example_model(), choice, 0.5, 1.5, 32, x_env=x_env)


def test_kernel_vanishes_for_decoupled_model():
    model = decoupled_model()
    choice = ProjectorChoice(FixedState(TAU0))
    k = nz_kernel_direct(model, choice, 0.0, 1.3, 32)
    scale = operator_norm(nz_generator_direct(model, choice, 0.0))
    assert operator_norm(k) < 1e-8 * max(scale, 1.0)


def test_generator_direct_decoupled_is_system_commutator():
    model = decoupled_model()
    choice = ProjectorChoice(FixedState(TAU0))
    gen = nz_generator_direct(model, choice, 0.7)
    sz = PAULI["Z"]
    oracle = -1j * (left_mult_superop(0.5 * sz) - right_mult_superop(0.5 * sz))
    np.testing.assert_allclose(gen, oracle, atol=1e-12)


def test_reference_inputs_enter_through_their_hermitian_part():
    # an anti-Hermitian part of 5e-13 passes validation; the kernel route
    # uses the Hermitian part, here the clean input exactly, so the kernel
    # is the clean one to the bit
    skew = 5e-13j * PAULI["X"]
    model = example_model()
    rho0 = example_initial_state()
    ket0 = np.outer(KET0, KET0).astype(complex)
    cases = [
        (FixedState(TAU0), FixedState(TAU0 + skew), rho0),
        (TrueEnvironment(), TrueEnvironment(), rho0 + np.kron(skew, PAULI["I"])),
        (FrozenSystem(lambda t: ket0), FrozenSystem(lambda t: ket0 + skew), rho0),
    ]
    for clean, skewed, rho in cases:
        want = nz_kernel_direct(model, ProjectorChoice(clean), 0.0, 1.0, 16, rho_se0=rho0)
        got = nz_kernel_direct(model, ProjectorChoice(skewed), 0.0, 1.0, 16, rho_se0=rho)
        np.testing.assert_array_equal(got, want)


def test_kernel_rejects_bad_interval():
    with pytest.raises(ValueError):
        nz_kernel_direct(example_model(), ProjectorChoice(FixedState(TAU0)), 1.0, 1.0)


FIXED = ProjectorChoice(FixedState(TAU0))
KERNEL_ROUTES = {
    "nz_kernel_direct": lambda n: nz_kernel_direct(example_model(), FIXED, 0.5, 1.5, n),
    "nz_kernel_slice": lambda n: nz_kernel_slice(example_model(), FIXED, 1.5, [0.5, 1.0], n),
    "nz_inhomogeneity": lambda n: nz_inhomogeneity(
        example_model(), FIXED, np.eye(4), example_initial_state(), 1.0, n
    ),
    "kernel_norm_curve": lambda n: kernel_norm_curve(
        example_model(), [FIXED], TimeGrid(0.0, 0.5, 2), substeps=n
    ),
    "convergence_study": lambda n: convergence_study(
        example_model(), [1.0], [2], FIXED, map_substeps=4, kernel_substeps=n
    ),
}


@pytest.mark.parametrize("substeps", [0, -1, 2.5, True, "4"])
@pytest.mark.parametrize("route", KERNEL_ROUTES)
def test_kernel_routes_refuse_a_substep_count_that_is_not_a_positive_integer(route, substeps):
    # a fractional count would stretch the interval, and 0 would divide by zero
    with pytest.raises(ValueError, match="substeps must be an integer >= 1"):
        KERNEL_ROUTES[route](substeps)


@pytest.mark.parametrize("argument", ["kernel_substeps", "map_substeps"])
def test_convergence_study_names_the_bad_substep_count(argument):
    with pytest.raises(ValueError, match=f"^{argument} must be an integer >= 1"):
        convergence_study(example_model(), [1.0], [2], FIXED, **{argument: 0})


@pytest.mark.parametrize("step", [0.0, -0.1, float("nan"), float("inf"), True, "0.1"])
def test_projector_choice_refuses_a_derivative_step_that_is_not_a_positive_number(step):
    with pytest.raises(ValueError, match="derivative_step must be"):
        ProjectorChoice(FixedState(TAU0), step)


@pytest.mark.parametrize("policy", all_policies(), ids=POLICY_IDS)
def test_inhomogeneity_refuses_a_time_before_the_preparation(policy):
    rho0 = example_initial_state()
    for t, message in [(-1.0, "t must be >= 0"), (float("nan"), "t must be a finite number")]:
        with pytest.raises(ValueError, match=message):
            nz_inhomogeneity(example_model(), ProjectorChoice(policy), np.eye(4), rho0, t)


@pytest.mark.parametrize("policy", all_policies(), ids=POLICY_IDS)
def test_inhomogeneity_at_the_preparation_time(policy):
    # J(0, 0) = tr_E P_0 L_0 Q_0 A rho: the ordered exponential is the identity
    model, rho0 = example_model(), example_initial_state()
    tau = getattr(policy, "tau", partial_trace(rho0, LAYOUT, "environment"))
    p, q = projector_superop(tau, LAYOUT)
    want = trace_out_superop(LAYOUT, "system") @ p @ liouvillian(model, 0.0) @ q @ vectorize(rho0)
    got = nz_inhomogeneity(model, ProjectorChoice(policy), np.eye(4), rho0, 0.0)
    np.testing.assert_allclose(vectorize(got), want, atol=1e-12)


def test_kernel_derivative_step_richardson():
    # halving the finite-difference step must not move the kernel by more
    # than its quadratic error estimate
    model = example_model()
    rho0 = example_initial_state()
    k_h = nz_kernel_direct(
        model, ProjectorChoice(TrueEnvironment(), 1 / 256), 0.5, 1.5, 128, rho_se0=rho0
    )
    k_h2 = nz_kernel_direct(
        model, ProjectorChoice(TrueEnvironment(), 1 / 512), 0.5, 1.5, 128, rho_se0=rho0
    )
    assert operator_norm(k_h - k_h2) < 1e-2 * operator_norm(k_h)


def test_inhomogeneity_zero_for_matched_product_state():
    model = example_model()
    tau = np.array(TAU0)
    rho_se0 = np.kron(np.diag([0.6, 0.4]).astype(complex), tau)
    choice = ProjectorChoice(FixedState(tau))
    j = nz_inhomogeneity(model, choice, np.eye(4), rho_se0, 1.0, 32)
    assert trace_norm(j) < 1e-12


def test_inhomogeneity_zero_for_entanglement_breaking_preparation():
    model = example_model()
    rho0 = example_initial_state()
    # replace the system with |0><0|: the post-preparation state is a product
    # with environment factor tr_S rho0, matching the reference state
    replace = np.outer(vectorize(np.outer(KET0, KET0)), vectorize(np.eye(2)).conj())
    choice = ProjectorChoice(FixedState(TAU0))
    j = nz_inhomogeneity(model, choice, replace, rho0, 1.0, 32)
    assert trace_norm(j) < 1e-12


@pytest.mark.parametrize("policy", all_policies(), ids=POLICY_IDS)
def test_kernel_slice_matches_direct_evaluation(policy):
    model = example_model()
    rho0 = example_initial_state()
    t = 1.5
    choice = ProjectorChoice(policy)
    pairs = nz_kernel_slice(model, choice, t, [0.5, 1.0], substeps=32, rho_se0=rho0)
    for s, kernel in pairs:
        direct = nz_kernel_direct(
            model, choice, s, t, substeps=int(round((t - s) / 0.5 * 32)), rho_se0=rho0
        )
        assert operator_norm(kernel - direct) < cross_route_tolerance(policy, direct)
    with pytest.raises(ValueError):
        nz_kernel_slice(model, choice, t, [t], substeps=8)
    # no lower arguments, no kernels
    assert nz_kernel_slice(model, choice, t, [], substeps=8, rho_se0=rho0) == []


def test_master_equation_closure_every_policy():
    # the assembled equation of motion (generator + memory integral +
    # inhomogeneity) must reproduce the true reduced derivative for every
    # projector choice, since all choices describe the same process
    model = example_model()
    rho0 = example_initial_state()
    t_eval, h_fd = 1.0, 1e-4

    def sys_state(t, substeps_per_unit=512):
        n = max(1, int(round(substeps_per_unit * t)))
        u = propagator(model, 0.0, t, n)
        return partial_trace(
            devectorize(u @ vectorize(rho0), 4), LAYOUT, "system"
        )

    rho_dot = (sys_state(t_eval + h_fd) - sys_state(t_eval - h_fd)) / (2 * h_fd)
    signal = trace_norm(rho_dot)

    def assembled_rhs(policy, n_s):
        choice = ProjectorChoice(policy, derivative_step=1 / 256)
        ds = t_eval / n_s
        midpoints = [(j + 0.5) * ds for j in range(n_s)]
        slice_k = nz_kernel_slice(
            model, choice, t_eval, midpoints, substeps=24, rho_se0=rho0
        )
        gen = nz_generator_direct(model, choice, t_eval, rho_se0=rho0)
        rhs = apply_superop(gen, sys_state(t_eval))
        rhs = rhs + nz_inhomogeneity(model, choice, np.eye(4), rho0, t_eval, 512)
        vec, prev = vectorize(rho0), 0.0
        for s, kernel in slice_k:
            vec = propagator(model, prev, s, max(4, int(round((s - prev) * 128)))) @ vec
            prev = s
            rho_s = partial_trace(devectorize(vec, 4), LAYOUT, "system")
            rhs = rhs + ds * apply_superop(kernel, rho_s)
        return rhs

    # midpoint quadrature converges quadratically for the constant projector
    coarse = trace_norm(assembled_rhs(FixedState(TAU0), 24) - rho_dot)
    fine = trace_norm(assembled_rhs(FixedState(TAU0), 48) - rho_dot)
    assert coarse / fine > 3.0
    assert fine < 0.01 * signal
    # the time-dependent projectors close the same equation (floor set by
    # the projector-derivative stencil, well under 1%)
    for policy in (
        TrueEnvironment(),
        FrozenSystem(lambda t: np.outer(KET0, KET0).astype(complex)),
    ):
        err = trace_norm(assembled_rhs(policy, 48) - rho_dot)
        assert err < 0.01 * signal


def test_inhomogeneity_decays_with_time():
    # the initial-correlation influence fades as the environment is pumped
    model = example_model()
    rho0 = example_initial_state()
    choice = ProjectorChoice(FixedState(TAU0))
    early = nz_inhomogeneity(model, choice, np.eye(4), rho0, 1.25, substeps=128)
    late = nz_inhomogeneity(model, choice, np.eye(4), rho0, 5.0, substeps=256)
    assert trace_norm(late) < trace_norm(early)


def test_semigroup_kernel_route_is_consistent():
    # trivial environment: the projector is the identity, so the kernel
    # vanishes exactly and the one-step map carries the whole generator at
    # first order
    from memtensor.models import liouvillian

    h = 0.3 * np.array([[1, 0], [0, -1]], dtype=complex)
    decay = np.array([[0, 1], [0, 0]], dtype=complex)
    model = LindbladModel(SpaceLayout(2, 1), h, [(decay, 0.5)])
    tau = np.eye(1, dtype=complex)
    choice = ProjectorChoice(FixedState(tau))
    kernel = nz_kernel_direct(model, choice, 0.0, 1.0, 16)
    assert operator_norm(kernel) < 1e-12
    errors = []
    for dt in (0.1, 0.05):
        grid = TimeGrid(0.0, dt, 1)
        family = reconstruct_family(model, grid, FixedState(tau), substeps=32)
        errors.append(
            operator_norm(discrete_generator(family, 0) - liouvillian(model, 0.0))
        )
    assert errors[1] < errors[0]
    assert 1.5 < errors[0] / errors[1] < 2.6


def test_inhomogeneity_matches_residual_series():
    # J(t) is the dt -> 0 limit of residual/dt at fixed physical time
    model = example_model()
    rho0 = example_initial_state()
    t = 1.25
    choice = ProjectorChoice(FixedState(TAU0))
    target = nz_inhomogeneity(model, choice, np.eye(4), rho0, t, substeps=1024)
    assert trace_norm(target) > 1e-3
    errors = []
    for n in (32, 64, 128):
        grid = TimeGrid(0.0, t / n, n)
        family = reconstruct_family(model, grid, FixedState(TAU0), substeps=32)
        joint = evolve_state(rho0, model, grid, substeps=32)
        sys_traj = [partial_trace(r, LAYOUT, "system") for r in joint]
        config = MemoryConfig(dt=grid.dt, m=n, c=n)
        tensors = build_tensors(family, config, dense_window=n, exact_states=sys_traj)
        estimate = discrete_inhomogeneity(tensors.residuals[n], grid.dt)
        errors.append(trace_norm(estimate - target))
    # first order in dt
    assert 1.5 < errors[0] / errors[1] < 2.6
    assert 1.5 < errors[1] / errors[2] < 2.6


# --- discrete estimates -----------------------------------------------------


def test_discrete_generator_converges_to_direct():
    # dt must resolve the fast environment splitting before the first-order
    # asymptotics show
    model = example_model()
    choice = ProjectorChoice(FixedState(TAU0))
    target = nz_generator_direct(model, choice, 0.0)
    errors = []
    for dt in (0.05, 0.025, 0.0125):
        grid = TimeGrid(0.0, dt, 1)
        family = reconstruct_family(model, grid, FixedState(TAU0), substeps=64)
        errors.append(operator_norm(discrete_generator(family, 0) - target))
    assert 1.5 < errors[0] / errors[1] < 2.6
    assert 1.5 < errors[1] / errors[2] < 2.6


def test_discrete_estimates_zero_dynamics():
    model = LindbladModel(LAYOUT, np.zeros((4, 4)))
    grid = TimeGrid(0.0, 0.25, 4)
    family = reconstruct_family(model, grid, FixedState(np.eye(2) / 2), substeps=4)
    assert operator_norm(discrete_generator(family, 0)) < 1e-12
    joint = evolve_state(example_initial_state(), model, grid, substeps=4)
    sys_traj = [partial_trace(r, LAYOUT, "system") for r in joint]
    config = MemoryConfig(dt=grid.dt, m=4, c=4)
    tensors = build_tensors(family, config, dense_window=4, exact_states=sys_traj)
    assert operator_norm(discrete_kernel(tensors, (0, 2))) < 1e-12
    assert trace_norm(discrete_inhomogeneity(tensors.residuals[2], grid.dt)) < 1e-12
    with pytest.raises(ValueError):
        discrete_kernel(tensors, (2, 2))


# --- kernel series and master-equation RHS ----------------------------------


@pytest.fixture(scope="module")
def example_series():
    model = example_model()
    rho0 = example_initial_state()
    grid = TimeGrid(0.0, 0.125, 16)
    family = reconstruct_family(model, grid, FixedState(TAU0), substeps=32)
    joint = evolve_state(rho0, model, grid, substeps=32)
    sys_traj = [partial_trace(r, LAYOUT, "system") for r in joint]
    series = discrete_kernel_series(family, sys_traj)
    return series, sys_traj


def test_kernel_series_refuses_j_max_outside_the_grid():
    model = example_model()
    rho0 = example_initial_state()
    for steps, j_max in [(1, None), (4, 0), (4, 5), (4, 9)]:
        grid = TimeGrid(0.0, 0.5, steps)
        family = reconstruct_family(model, grid, FixedState(TAU0), substeps=8)
        joint = evolve_state(rho0, model, grid, substeps=8)
        sys_traj = [partial_trace(r, LAYOUT, "system") for r in joint]
        named = steps - 1 if j_max is None else j_max
        with pytest.raises(ValueError, match=rf"1 \.\. {steps} .*j_max={named}"):
            discrete_kernel_series(family, sys_traj, j_max)
    # the whole grid is a valid length: the full-memory series
    assert (4, 0) in discrete_kernel_series(family, sys_traj, 4).kernel


def test_series_trace_annihilation(example_series):
    series, _ = example_series
    costate = vectorize(np.eye(2)).conj()
    for j, gen in series.generator.items():
        assert np.max(np.abs(costate @ gen)) < 1e-9
    for (j, i), k in list(series.kernel.items())[:20]:
        rho = random_state(2)
        assert abs(np.trace(apply_superop(k, rho))) < 1e-8 * operator_norm(k)


def test_master_equation_rhs_discrepancy_halves_with_dt():
    model = example_model()
    rho0 = example_initial_state()
    t_probe = 1.0
    discrepancies = []
    fd_norms = []
    for n in (20, 40, 80):
        grid = TimeGrid(0.0, 1.25 / n, n)
        family = reconstruct_family(model, grid, FixedState(TAU0), substeps=32)
        joint = evolve_state(rho0, model, grid, substeps=32)
        sys_traj = [partial_trace(r, LAYOUT, "system") for r in joint]
        series = discrete_kernel_series(family, sys_traj)
        j = round(t_probe / grid.dt)
        rhs = master_equation_rhs(series, sys_traj, j)
        fd = (sys_traj[j + 1] - sys_traj[j]) / grid.dt
        discrepancies.append(trace_norm(rhs - fd))
        fd_norms.append(trace_norm(fd))
    assert 1.4 < discrepancies[0] / discrepancies[1] < 3.0
    assert 1.4 < discrepancies[1] / discrepancies[2] < 3.0
    assert discrepancies[2] < fd_norms[2]


def test_master_equation_rhs_decoupled(example_series):
    model = decoupled_model()
    rho0 = example_initial_state()
    grid = TimeGrid(0.0, 0.05, 8)
    family = reconstruct_family(model, grid, FixedState(TAU0), substeps=32)
    joint = evolve_state(rho0, model, grid, substeps=32)
    sys_traj = [partial_trace(r, LAYOUT, "system") for r in joint]
    series = discrete_kernel_series(family, sys_traj)
    rho = sys_traj[3]
    rhs = master_equation_rhs(series, sys_traj, 3)
    sz = PAULI["Z"]
    oracle = -0.5j * (sz @ rho - rho @ sz)
    assert trace_norm(rhs - oracle) < 0.1


def test_master_equation_rhs_argument_errors(example_series):
    series, sys_traj = example_series
    with pytest.raises(ValueError):
        master_equation_rhs(series, sys_traj, 0)
    with pytest.raises(ValueError):
        master_equation_rhs(series, sys_traj[:3], 5)
    with pytest.raises(ValueError):
        master_equation_rhs(series, sys_traj, 16)  # no generator at the last point


# --- curves and convergence ---------------------------------------------------


@pytest.mark.parametrize("policy", all_policies(), ids=POLICY_IDS)
def test_kernel_norm_curve_matches_direct_evaluation(policy):
    model = example_model()
    rho0 = example_initial_state()
    grid = TimeGrid(0.0, 0.5, 3)
    choice = ProjectorChoice(policy)
    rows = kernel_norm_curve(model, [choice], grid, rho0, substeps=16)
    assert [r[1] for r in rows] == [0.5, 1.0, 1.5]
    direct = nz_kernel_direct(model, choice, 0.0, 1.5, substeps=48, rho_se0=rho0)
    assert abs(rows[-1][2] - operator_norm(direct)) < cross_route_tolerance(policy, direct)
    for _, _, norm in rows:
        assert np.isfinite(norm) and norm > 0


def test_kernel_norm_curve_zero_for_decoupled():
    rows = kernel_norm_curve(
        decoupled_model(),
        [ProjectorChoice(FixedState(TAU0))],
        TimeGrid(0.0, 0.5, 2),
        substeps=16,
    )
    for _, _, norm in rows:
        assert norm < 1e-10


def test_convergence_study_decreases_with_refinement():
    model = example_model()
    rho0 = example_initial_state()
    choice = ProjectorChoice(FixedState(TAU0))
    rows = convergence_study(
        model, [2.5], [8, 32], choice, rho0, map_substeps=32, kernel_substeps=256
    )
    diffs = {n: rel for _, n, rel in rows}
    assert diffs[32] < diffs[8]


def test_convergence_monotone_with_slack():
    # non-increasing in N up to 5% wiggle room (the example wobbles +4.8%
    # between the two coarsest grids at wt = 5)
    model = example_model()
    rho0 = example_initial_state()
    choice = ProjectorChoice(FixedState(TAU0))
    n_values = [8, 16, 32, 64]
    rows = convergence_study(
        model, [5.0], n_values, choice, rho0, map_substeps=32, kernel_substeps=512
    )
    diffs = [rel for _, _, rel in rows]
    for coarse, fine in zip(diffs, diffs[1:]):
        assert fine < 1.05 * coarse


def test_direct_kernel_outputs_are_traceless():
    model = example_model()
    rho0 = example_initial_state()
    for policy in (FixedState(TAU0), TrueEnvironment()):
        k = nz_kernel_direct(model, ProjectorChoice(policy), 0.5, 2.0, 32, rho_se0=rho0)
        gen = nz_generator_direct(model, ProjectorChoice(policy), 0.7, rho_se0=rho0)
        for _ in range(3):
            rho = random_state(2)
            assert abs(np.trace(apply_superop(k, rho))) < 1e-8 * operator_norm(k)
            assert abs(np.trace(apply_superop(gen, rho))) < 1e-9 * max(operator_norm(gen), 1)


def test_convergence_study_rejects_degenerate_grid():
    with pytest.raises(ValueError):
        convergence_study(
            example_model(), [1.0], [1], ProjectorChoice(FixedState(TAU0))
        )


def test_array_holding_classes_compare_and_hash_by_identity():
    # dataclass value equality would compare numpy arrays and raise
    grid = TimeGrid(0.0, 0.5, 4)
    tau = np.eye(2, dtype=complex) / 2
    config = MemoryConfig(dt=0.5, m=2, c=2)
    factories = [
        example_model,
        lambda: FixedState(np.eye(2, dtype=complex) / 2),
        lambda: reconstruct_family(example_model(), grid, FixedState(tau), substeps=4),
        lambda: build_tensors(
            reconstruct_family(example_model(), grid, FixedState(tau), substeps=4), config
        ),
        lambda: decompose_initial_state(example_initial_state(), LAYOUT),
        lambda: KernelSeries(grid, generator={0: np.eye(4)}),
    ]
    for make in factories:
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b, a}) == 2
    policy = FixedState(tau)
    choice = ProjectorChoice(policy)
    assert choice == ProjectorChoice(policy) and hash(choice) == hash(ProjectorChoice(policy))
    assert choice != ProjectorChoice(FixedState(tau))
