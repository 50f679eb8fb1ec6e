"""Map reconstruction, reference-state policies, CPTP checks, decomposition."""

import bisect
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from memtensor.linalg import (
    SpaceLayout,
    apply_superop,
    devectorize,
    embed_environment_superop,
    embed_system_superop,
    from_coordinates,
    hermitian_basis,
    hermitize,
    operator_norm,
    partial_trace,
    sandwich_superop,
    to_coordinates,
    trace_distance,
    trace_out_superop,
    vectorize,
)
from memtensor.models import (
    EXAMPLE_PARAMETERS,
    PAULI,
    LindbladModel,
    PropagatorCache,
    TimeGrid,
    evolve_state,
    example_initial_state,
    example_model,
    liouvillian,
    midpoints,
    model_from_config,
    ordered_exponential,
    propagator,
)
from memtensor.tomography import (
    DynamicalMapFamily,
    FixedState,
    FrozenSystem,
    ReferenceStates,
    TrueEnvironment,
    check_cptp,
    choi_matrix,
    decompose_initial_state,
    extend_to_joint,
    reconstruct_family,
    steps_by_action,
    tomography_frame,
)

# the benchmark's spin-bath model builder is not a package module; import it by path
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import spin_bath_config  # noqa: E402

RNG = np.random.default_rng(33011)
LAYOUT = SpaceLayout(2, 2)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = (KET0 + KET1) / np.sqrt(2)
MINUS = (KET0 - KET1) / np.sqrt(2)


def projector(ket):
    return np.outer(ket, ket.conj())


def random_state(d):
    a = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_superop(d):
    return RNG.standard_normal((d * d, d * d)) + 1j * RNG.standard_normal((d * d, d * d))


def decoupled_model():
    """Example model with the qubit-qubit coupling switched off."""
    p = EXAMPLE_PARAMETERS
    h = 0.5 * p["omega"] * np.kron(PAULI["Z"], PAULI["I"]) + 0.5 * p["omega_env"] * np.kron(
        PAULI["I"], PAULI["Z"]
    )
    pump = np.kron(PAULI["I"], np.array([[0, 1], [0, 0]], dtype=complex))
    return LindbladModel(LAYOUT, h, [(pump, p["pump_rate"])])


# --- reference states -------------------------------------------------------


def test_fixed_state_policy():
    tau = random_state(2)
    provider = ReferenceStates(FixedState(tau), example_model())
    for t in (0.0, 1.3, 9.4):
        np.testing.assert_array_equal(provider.state(t), tau)


def test_true_environment_at_t0():
    target = 0.75 * projector(PLUS) + 0.25 * projector(MINUS)
    got = ReferenceStates(TrueEnvironment(), example_model(), example_initial_state()).state(0.0)
    np.testing.assert_allclose(got, target, atol=1e-13)


def test_true_environment_from_trajectory_matches_provider():
    # the true-env reference state is the environment marginal of the joint trajectory
    model = example_model()
    grid = TimeGrid(0.0, 0.25, 4)
    traj = evolve_state(example_initial_state(), model, grid, substeps=16)
    from_traj = partial_trace(traj[3], model.layout, "environment")
    provider = ReferenceStates(
        TrueEnvironment(), model, example_initial_state(), substep=0.25 / 16
    )
    np.testing.assert_allclose(from_traj, provider.state(grid.time(3)), atol=1e-12)


def test_true_environment_requires_input():
    with pytest.raises(ValueError, match="initial joint state"):
        ReferenceStates(TrueEnvironment(), example_model())


@pytest.mark.parametrize("substep", [0, 0.0, -0.1, math.nan, math.inf, True, "0.1"])
@pytest.mark.parametrize("policy", [FixedState(np.eye(2) / 2), TrueEnvironment()],
                         ids=["fixed", "true-env"])
def test_reference_states_refuse_a_substep_that_is_not_a_positive_number(policy, substep):
    # unchecked, 0 would divide by zero and a negative or boolean step would integrate
    with pytest.raises(ValueError, match="substep must be"):
        ReferenceStates(policy, example_model(), example_initial_state(), substep=substep)


def test_frozen_system_matches_rapid_reset_limit():
    # oracle: joint evolution with the system reset to sigma every delta,
    # extrapolating the reset interval to zero
    model = example_model()
    rho0 = example_initial_state()
    sigma = projector(KET0)
    t_final = 0.5

    def reset_run(delta):
        state = rho0
        steps = round(t_final / delta)
        for k in range(steps):
            env = partial_trace(state, LAYOUT, "environment")
            state = np.kron(sigma, env)
            u = propagator(model, k * delta, (k + 1) * delta, substeps=8)
            state = devectorize(u @ vectorize(state), 4)
        return partial_trace(state, LAYOUT, "environment")

    provider = ReferenceStates(FrozenSystem(lambda t: sigma), model, rho0, substep=1 / 256)
    target = provider.state(t_final)
    runs = {d: reset_run(d) for d in (0.05, 0.025, 0.0125)}
    errors = [trace_distance(runs[d], target) for d in (0.05, 0.025, 0.0125)]
    # first order in the reset interval, so extrapolation lands on the target
    assert 1.7 < errors[0] / errors[1] < 2.3
    assert 1.7 < errors[1] / errors[2] < 2.3
    extrapolated = 2 * runs[0.0125] - runs[0.025]
    assert trace_distance(extrapolated, target) < 0.01


def test_frozen_system_preserves_trace_and_positivity():
    provider = ReferenceStates(
        FrozenSystem(lambda t: projector(KET0)), example_model(), example_initial_state()
    )
    for t in (0.5, 1.7, 4.0):
        tau = provider.state(t)
        assert abs(np.trace(tau) - 1) < 1e-9
        assert np.linalg.eigvalsh(tau).min() > -1e-9


class PerQueryStates:
    """Oracle for :meth:`ReferenceStates.states`: the loop that served one
    query at a time. Each query integrates from the latest cached time
    ``<= t`` with its own ordered exponentials of at most 32 substeps,
    caching the state after each of them and at ``t``; the generators are
    built one time at a time in operator space, and changed to the oracle's
    own Hermitian coordinates."""

    def __init__(self, policy, model, rho0, t0, substep):
        self.policy, self.model, self.t0, self.substep = policy, model, t0, substep
        layout = model.layout
        if isinstance(policy, TrueEnvironment):
            generator = lambda t: liouvillian(model, t)  # noqa: E731
            vec = vectorize(rho0)
        else:
            trace_s = trace_out_superop(layout, "environment")
            generator = lambda t: (  # noqa: E731
                trace_s @ liouvillian(model, t)
                @ embed_system_superop(hermitize(policy.sigma(t)), layout)
            )
            vec = vectorize(partial_trace(rho0, layout, "environment"))
        self.basis = basis = hermitian_basis(math.isqrt(vec.size))
        self.generators = lambda ts: np.stack(
            [(basis.conj().T @ generator(t) @ basis).real for t in ts]
        )
        self.times, self.cache = [t0], {t0: (basis.conj().T @ vec).real}

    def state(self, t):
        t = max(t, self.t0)
        t_start = self.times[bisect.bisect_right(self.times, t) - 1]
        vec = self.cache[t_start]
        if t - t_start >= 1e-13:
            n = max(1, int(np.ceil((t - t_start) / self.substep - 1e-9)))
            mids, h = midpoints(t_start, t, n)
            for lo in range(0, n, 32):
                vec = ordered_exponential(self.generators, mids[lo : lo + 32], h, vec)
                if lo + 32 < n:
                    waypoint = t_start + (lo + 32) * h
                    bisect.insort(self.times, waypoint)
                    self.cache[waypoint] = vec
            bisect.insort(self.times, t)
            self.cache[t] = vec
        vec = self.basis @ vec
        if isinstance(self.policy, TrueEnvironment):
            return partial_trace(devectorize(vec, 4), LAYOUT, "environment")
        return devectorize(vec, 2)


def rotating_state(t):
    ket = np.array([np.cos(t / 2), np.exp(0.3j * t) * np.sin(t / 2)])
    return np.outer(ket, ket.conj())


@pytest.mark.parametrize("policy", [TrueEnvironment(), FrozenSystem(rotating_state)])
def test_states_match_one_query_at_a_time(policy):
    model, rho0, t0, substep = example_model(), example_initial_state(), 0.25, 1 / 32
    refs = ReferenceStates(policy, model, rho0, t0=t0, substep=substep)
    oracle = PerQueryStates(policy, model, rho0, t0, substep)
    calls = [
        # a repeat, a jump of 56 substeps (a waypoint at 1.6), queries below
        # the latest cached time from the waypoint and from 0.6, one just
        # before t0 and a cached time
        [0.6, 0.6, 2.35, 1.9, 1.4, t0 - 1e-13, 0.6, 0.61, 1.4],
        # times cached by the earlier call, then past and between them
        [2.35, t0, 3.9, 1.0, 6.5, 6.5],
    ]
    for times in calls:
        got = refs.states(times)
        assert got.shape == (len(times), 2, 2)
        want = [oracle.state(t) for t in times]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert len(refs._times) == len(oracle.times)
    np.testing.assert_allclose(refs._times, oracle.times, rtol=0, atol=0)
    with pytest.raises(ValueError, match="before t0"):
        refs.states([1.0, t0 - 2e-12])
    assert refs.states([]).shape == (0, 2, 2)


@pytest.mark.parametrize(
    "policy",
    [FixedState(0.6 * projector(KET0) + 0.4 * projector(PLUS)), TrueEnvironment(),
     FrozenSystem(rotating_state)],
    ids=["fixed", "true-env", "frozen"],
)
def test_coordinates_are_the_real_view_of_the_states(policy):
    model, rho0 = example_model(), example_initial_state()
    times = [0.6, 0.6, 2.35, 1.4, 0.0, 3.1]
    refs = ReferenceStates(policy, model, rho0, substep=1 / 32)
    coords = refs.coordinates(times)
    assert coords.dtype == np.float64 and coords.shape == (len(times), 4)
    if isinstance(policy, FixedState):
        for tau in refs.states(times):
            np.testing.assert_array_equal(tau, policy.tau)
    else:  # served from the cache: the operator-space view of the same coordinates
        np.testing.assert_array_equal(refs.states(times), devectorize(from_coordinates(coords), 2))
    # a second provider, asked the same queries through states
    other = ReferenceStates(policy, model, rho0, substep=1 / 32)
    np.testing.assert_allclose(
        to_coordinates(vectorize(other.states(times))).real, coords, rtol=0, atol=1e-15
    )


# --- dynamical maps ---------------------------------------------------------


def one_step_map(model, s, t, tau, substeps):
    """``map(s -> t)`` with reference ``tau``, reconstructed on a one-step grid."""
    family = reconstruct_family(model, TimeGrid(s, t - s, 1), FixedState(tau), substeps=substeps)
    return family.map(0, 1)


def test_decoupled_map_is_system_unitary_for_any_reference():
    model = decoupled_model()
    s, t = 0.3, 1.4
    u_sys = np.array(
        [[np.exp(-0.5j * (t - s)), 0], [0, np.exp(0.5j * (t - s))]], dtype=complex
    )
    expected = sandwich_superop(u_sys, u_sys)
    for tau in (projector(KET0), random_state(2), np.eye(2) / 2):
        got = one_step_map(model, s, t, tau, substeps=128)
        np.testing.assert_allclose(got, expected, atol=1e-9)


def test_example_one_step_map_is_cptp():
    tau = 0.75 * projector(PLUS) + 0.25 * projector(MINUS)
    lam = one_step_map(example_model(), 0.0, 0.625, tau, substeps=64)
    report = check_cptp(lam, tol=1e-8)
    assert report.passed
    assert report.trace_dev <= 1e-10
    assert report.choi_min_eig >= -1e-8
    # trace preservation forces a unit singular value
    assert operator_norm(lam) >= 1 - 1e-10


def test_family_two_point_grid():
    model = example_model()
    grid = TimeGrid(0.0, 0.625, 1)
    tau = 0.75 * projector(PLUS) + 0.25 * projector(MINUS)
    family = reconstruct_family(model, grid, FixedState(tau), substeps=32)
    assert set(family.maps) == {(0, 1)}
    # oracle: the whole joint propagator between the embedding and the trace
    want = (
        trace_out_superop(LAYOUT, "system")
        @ propagator(model, 0.0, 0.625, 32)
        @ embed_environment_superop(tau, LAYOUT)
    )
    np.testing.assert_allclose(family.map(0, 1), want, atol=1e-12)


def test_family_maps_do_not_compose_for_driven_model():
    # the reduced dynamics is not divisible: composing maps misses memory
    model = example_model()
    grid = TimeGrid(0.0, 0.625, 2)
    tau = 0.75 * projector(PLUS) + 0.25 * projector(MINUS)
    family = reconstruct_family(model, grid, FixedState(tau), substeps=64)
    deviation = operator_norm(family.map(0, 2) - family.map(1, 2) @ family.map(0, 1))
    assert deviation > 1e-3


def test_decoupled_fixed_family_composes_exactly():
    model = decoupled_model()
    grid = TimeGrid(0.0, 0.5, 3)
    family = reconstruct_family(model, grid, FixedState(np.eye(2) / 2), substeps=32)
    np.testing.assert_allclose(
        family.map(0, 2), family.map(1, 2) @ family.map(0, 1), atol=1e-10
    )
    comm = family.map(0, 1) @ family.map(1, 2) - family.map(1, 2) @ family.map(0, 1)
    assert np.max(np.abs(comm)) < 1e-10


def test_family_cptp_sweep_and_reference_records():
    model = example_model()
    grid = TimeGrid(0.0, 0.625, 4)
    family = reconstruct_family(
        model, grid, TrueEnvironment(), substeps=32, rho_se0=example_initial_state()
    )
    assert len(family.maps) == 10
    for key, lam in family.maps.items():
        report = check_cptp(lam, tol=1e-8)
        assert report.passed, f"map {key} failed CPTP: {report}"
    for j in range(5):
        assert abs(np.trace(family.reference_states[j]) - 1) < 1e-12


@pytest.mark.parametrize(
    "kwargs",
    [{"band": 2.5}, {"band": True}, {"substeps": 2.5}, {"substeps": True}],
    ids=["band=2.5", "band=True", "substeps=2.5", "substeps=True"],
)
def test_reconstruct_family_refuses_non_integer_arguments(kwargs):
    (name,) = kwargs
    policy = FixedState(np.eye(2) / 2)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        reconstruct_family(example_model(), TimeGrid(0.0, 0.625, 3), policy, **kwargs)


def test_family_banded():
    model = example_model()
    grid = TimeGrid(0.0, 0.625, 5)
    family = reconstruct_family(model, grid, FixedState(np.eye(2) / 2), substeps=8, band=2)
    assert all(j - i <= 2 for (i, j) in family.maps)
    assert family.band == 2 and family.stack.shape == (5, 3, 4, 4)
    for i, j in [(0, 4), (2, 1), (3, 3), (-1, 1), (4, 6)]:
        with pytest.raises(KeyError, match=r"steps=5, band=2"):
            family.map(i, j)
    with pytest.raises(TypeError):
        family.maps[(0, 1)] = np.eye(4)
    with pytest.raises(ValueError, match="stack"):
        DynamicalMapFamily(grid, family.policy, family.stack[:4])


def test_policy_consistency_for_product_initial_state():
    # TrueEnvironment projector is compatible with the real trajectory at t0
    # when the initial state is a product
    model = example_model()
    rho_s = np.diag([0.6, 0.4]).astype(complex)
    tau = random_state(2)
    rho_se0 = np.kron(rho_s, tau)
    grid = TimeGrid(0.0, 0.625, 4)
    cache = PropagatorCache(model, grid, substeps=32)
    family = reconstruct_family(
        model, grid, TrueEnvironment(), substeps=32, rho_se0=rho_se0, cache=cache
    )
    traj = evolve_state(rho_se0, model, grid, cache=cache)
    for j in range(1, 5):
        predicted = apply_superop(family.map(0, j), rho_s)
        actual = partial_trace(traj[j], LAYOUT, "system")
        assert trace_distance(predicted, actual) < 1e-9


def test_mismatched_propagator_cache_is_refused():
    model = example_model()
    rho0 = example_initial_state()
    policy = FixedState(partial_trace(rho0, LAYOUT, "environment"))
    grid = TimeGrid(0.0, 0.5, 4)
    mismatched = [
        PropagatorCache(model, TimeGrid(0.0, 0.25, 8), 4),  # another dt
        PropagatorCache(model, TimeGrid(0.5, 0.5, 4), 4),  # another t0
        PropagatorCache(model, TimeGrid(0.0, 0.5, 3), 4),  # too short
        PropagatorCache(example_model(), grid, 4),  # another model
    ]
    for cache in mismatched:
        with pytest.raises(ValueError, match="cache"):
            evolve_state(rho0, model, grid, 4, cache=cache)
        with pytest.raises(ValueError, match="cache"):
            reconstruct_family(model, grid, policy, 4, cache=cache)
    # a longer cache on the same t0 and dt serves the shorter grid
    longer = PropagatorCache(model, TimeGrid(0.0, 0.5, 6), 4)
    np.testing.assert_array_equal(
        evolve_state(rho0, model, grid, 4, cache=longer), evolve_state(rho0, model, grid, 4)
    )
    family = reconstruct_family(model, grid, policy, 4, cache=longer)
    np.testing.assert_array_equal(
        family.map(0, 4), reconstruct_family(model, grid, policy, 4).map(0, 4)
    )


def test_reference_states_use_the_substeps_of_a_passed_cache():
    # the cache's own substeps serve the propagators and the reference states alike
    model, rho0, grid = example_model(), example_initial_state(), TimeGrid(0.0, 0.625, 4)

    def family(substeps):
        cache = PropagatorCache(model, grid, 16)
        return reconstruct_family(model, grid, TrueEnvironment(), substeps, rho0, cache=cache)

    coarse, fine = family(4), family(16)
    np.testing.assert_array_equal(coarse.stack, fine.stack)
    for j in range(grid.steps + 1):
        np.testing.assert_array_equal(coarse.reference_states[j], fine.reference_states[j])


def reference_reconstruct_family(model, grid, policy, substeps, rho_se0=None, band=None):
    """The per-chain dense loop: each start's images stepped on their own
    through ``cache.adjacent``, one start after the other."""
    cache = PropagatorCache(model, grid, substeps)
    refs = ReferenceStates(policy, model, rho_se0, t0=grid.t0, substep=grid.dt / substeps)
    trace_e = trace_out_superop(model.layout, "system")
    maps = {}
    for i in range(grid.steps):
        v = embed_environment_superop(refs.state(grid.time(i)), model.layout)
        for j in range(i + 1, (grid.steps if band is None else min(grid.steps, i + band)) + 1):
            v = cache.adjacent(j - 1) @ v
            maps[(i, j)] = trace_e @ v
    return maps


def by_route(action):
    """Forces the route of every ``reconstruct_family`` call in its scope."""
    return mock.patch("memtensor.tomography.steps_by_action", lambda *shape: action)


@pytest.mark.parametrize("fixed, band, action", [
    # ids: the true-env cases as "<band>-<route>", the fixed ones prefixed "fixed-"
    pytest.param(fixed, band, action, id=f"{'fixed-' * fixed}{band}-{('dense', 'action')[action]}")
    for fixed in (False, True) for band in (None, 2) for action in (False, True)
])
def test_both_routes_match_the_per_chain_loop(fixed, band, action):
    model = example_model()
    rho0 = example_initial_state()
    c = 4
    grid = TimeGrid(0.0, model.period / c, 7)  # phase reuse from step 4 on
    tau = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    policy = FixedState(tau) if fixed else TrueEnvironment()
    want = reference_reconstruct_family(model, grid, policy, 8, rho0, band)
    with by_route(action):
        family = reconstruct_family(model, grid, policy, 8, rho0, band=band)
    assert list(family.maps) == sorted(want)
    for key, lam in want.items():
        np.testing.assert_allclose(family.map(*key), lam, rtol=0, atol=1e-13, err_msg=f"{key}")
    if fixed:  # one period of starts is stepped; later starts are copies of their phase
        for i, j in family.maps:
            if i >= c:
                np.testing.assert_array_equal(family.map(i, j), family.map(i % c, j - i + i % c))


def test_route_rule_on_the_benchmark_shapes():
    # n = d^2; width = stepped maps * d_S^2; unbuilt step phases of the
    # call's cache. Under a fixed policy on a grid of c step phases only the
    # starts 0 .. c - 1 are stepped; later starts copy their phase's maps.
    def width(steps, band, starts=None):
        return 4 * sum(min(steps, i + band) - i for i in range(starts or steps))

    # error-sweep cells (fixed): evolve_state has built every step of the cache
    for c, m in [(6, 2), (14, 45)]:
        assert not steps_by_action(16, width(c + 2 * m - 1, 2 * m - 1, c), 0)
    # one fixed tensor set over c = 5, m = 8: 20 steps, band 15, 5 phases
    assert width(20, 15, 5) == 300 and not steps_by_action(16, 300, 5)
    # convergence_study: N steps incommensurate with the period, full band
    for n_steps in (8, 16, 32, 64):
        assert not steps_by_action(16, width(n_steps, n_steps), n_steps)
    # d_E = 8 spin bath: 10 steps, band 4, 5 phases, n = 256; its fixed
    # policy steps 20 of the 34 maps
    assert width(10, 4) == 136 and steps_by_action(256, 136, 5)
    assert width(10, 4, 5) == 80 and steps_by_action(256, 80, 5)
    # the golden spin-bath case (fixed): d_E = 4, 6 steps, full band, 5 phases
    assert width(6, 6, 5) == 80 and steps_by_action(64, 80, 5)


def test_family_of_a_16_level_bath_steps_by_action():
    # 4 bath qubits: 1024 x 1024 generators, too large to exponentiate
    config = spin_bath_config((3.0, 2.9, 3.1, 2.95))
    model = model_from_config(config)
    assert model.layout.dim_environment == 16
    grid = TimeGrid(0.0, model.period / 5, 2)
    tau = np.diag(np.arange(16, 0, -1) / 136).astype(complex)
    with mock.patch.object(PropagatorCache, "step", side_effect=AssertionError("dense")):
        family = reconstruct_family(model, grid, FixedState(tau), substeps=4, band=2)
    assert sorted(family.maps) == [(0, 1), (0, 2), (1, 2)]
    for key, lam in family.maps.items():
        report = check_cptp(lam, tol=1e-8)
        assert report.passed, f"map {key}: {report}"


@pytest.mark.parametrize(
    "kwargs", [{"substeps": 0}, {"band": 0}, {"band": -1}], ids=["substeps=0", "band=0", "band=-1"]
)
def test_bad_family_arguments_are_refused_by_name(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        reconstruct_family(example_model(), TimeGrid(0.0, 0.5, 3), FixedState(np.eye(2) / 2), **kwargs)


# --- CPTP checks ------------------------------------------------------------


def test_check_cptp_identity():
    report = check_cptp(np.eye(4))
    assert report.passed and report.trace_dev == 0
    assert abs(report.choi_min_eig) < 1e-12


def test_check_cptp_transpose_map():
    d = 2
    transpose = np.zeros((4, 4))
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d))
            unit[i, j] = 1.0
            transpose[:, i + d * j] = vectorize(unit.T)
    report = check_cptp(transpose)
    assert not report.passed
    assert report.trace_dev < 1e-14
    assert abs(report.choi_min_eig + 1.0) < 1e-12


def test_choi_matrix_of_conjugation():
    # Choi of rho -> V rho V^dag is |vec-ish V><V| with eigenvalue tr(V V^dag)
    v = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
    choi = choi_matrix(sandwich_superop(v, v))
    eigs = np.linalg.eigvalsh(choi)
    assert abs(eigs[-1] - np.trace(v @ v.conj().T).real) < 1e-10
    assert np.max(np.abs(eigs[:-1])) < 1e-10


# --- joint extension --------------------------------------------------------


def test_extend_to_joint_action():
    a = random_superop(2)
    x = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    # oracle: apply A to the system factor of each product term of x
    x4 = x.reshape(2, 2, 2, 2)
    expected = np.zeros((4, 4), dtype=complex)
    for e in range(2):
        for f in range(2):
            sys_block = x4[:, e, :, f]
            out_block = apply_superop(a, sys_block)
            expected += np.kron(out_block, np.outer(np.eye(2)[e], np.eye(2)[f]))
    got = devectorize(extend_to_joint(a, LAYOUT) @ vectorize(x), 4)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def choi_loop(s):
    """Reference: ``sum_ij E_ij (x) S(E_ij)`` one matrix unit at a time."""
    d = int(round(np.sqrt(s.shape[0])))
    choi = np.zeros_like(s, dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d))
            unit[i, j] = 1.0
            choi += np.kron(unit, devectorize(s @ vectorize(unit), d))
    return choi


def extend_loop(a, layout):
    """Reference: ``A (x) id`` applied to each joint matrix unit."""
    ds, de, d = layout.dim_system, layout.dim_environment, layout.dim_joint
    cols = []
    for k in range(d * d):
        x4 = devectorize(np.eye(d * d)[:, k], d).reshape(ds, de, ds, de)
        out = np.zeros((ds, de, ds, de), dtype=complex)
        for e in range(de):
            for f in range(de):
                out[:, e, :, f] = apply_superop(a, x4[:, e, :, f])
        cols.append(vectorize(out.reshape(d, d)))
    return np.column_stack(cols)


@pytest.mark.parametrize("ds,de", [(ds, de) for ds in (2, 3) for de in (1, 2, 3)])
def test_choi_and_joint_extension_match_loops(ds, de):
    rng = np.random.default_rng(ds * 10 + de)
    layout = SpaceLayout(ds, de)
    d2 = layout.dim_joint ** 2
    s = rng.standard_normal((d2, d2)) + 1j * rng.standard_normal((d2, d2))
    np.testing.assert_array_equal(choi_matrix(s), choi_loop(s))
    a = rng.standard_normal((ds * ds, ds * ds)) + 1j * rng.standard_normal((ds * ds, ds * ds))
    np.testing.assert_allclose(extend_to_joint(a, layout), extend_loop(a, layout), atol=1e-13)


# --- state decomposition ----------------------------------------------------


def test_tomography_frame_properties():
    for d in (2, 3):
        frame = tomography_frame(d)
        assert len(frame) == d * d
        for m in frame:
            assert np.linalg.eigvalsh(m).min() > -1e-14
        stack = np.column_stack([vectorize(m) for m in frame])
        assert np.linalg.matrix_rank(stack) == d * d


def test_decompose_product_state():
    rho, tau = random_state(2), random_state(2)
    decomp = decompose_initial_state(np.kron(rho, tau), LAYOUT)
    assert len(decomp.terms) == 4
    for c, _, tau_a in decomp.terms:
        if abs(c) > 1e-12:
            np.testing.assert_allclose(tau_a, tau, atol=1e-10)
    np.testing.assert_allclose(decomp.reassemble(), np.kron(rho, tau), atol=1e-12)


def test_decompose_example_state():
    rho0 = example_initial_state()
    decomp = decompose_initial_state(rho0, LAYOUT)
    assert len(decomp.terms) == 4
    assert np.max(np.abs(decomp.reassemble() - rho0)) < 1e-12
    xs = np.column_stack([vectorize(x) for _, x, _ in decomp.terms])
    assert np.linalg.matrix_rank(xs) == 4
    for _, _, tau in decomp.terms:
        assert abs(np.trace(tau) - 1) < 1e-12
        assert np.linalg.eigvalsh(tau).min() > -1e-10


def test_decompose_maximally_mixed():
    decomp = decompose_initial_state(np.eye(4) / 4, LAYOUT)
    for c, _, tau in decomp.terms:
        if abs(c) > 1e-12:
            np.testing.assert_allclose(tau, np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda op: evolve_state(op(example_initial_state()), example_model(), TimeGrid(0, 1, 2), 4),
        lambda op: decompose_initial_state(op(example_initial_state()), LAYOUT).terms,
        lambda op: check_cptp(op(sandwich_superop(PAULI["X"], PAULI["X"]))),
        lambda op: choi_matrix(op(sandwich_superop(PAULI["Y"], PAULI["Y"]))),
    ],
    ids=["evolve_state", "decompose_initial_state", "check_cptp", "choi_matrix"],
)
def test_nested_list_operators_give_what_arrays_give(call):
    # each reads the operator's shape after np.asarray, never off a list
    np.testing.assert_equal(call(np.ndarray.tolist), call(np.asarray))


def test_decompose_rejects_bad_shapes():
    with pytest.raises(ValueError):
        decompose_initial_state(np.eye(4) / 4, SpaceLayout(2, 3))
    with pytest.raises(ValueError):
        decompose_initial_state(np.eye(4), LAYOUT)
