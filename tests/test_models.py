"""Lindblad models, Liouvillians, time-ordered propagators, example model."""

import math

import numpy as np
import pytest

from memtensor.linalg import (
    SpaceLayout,
    apply_superop,
    devectorize,
    from_coordinates,
    hermitian_basis,
    hermiticity_defect,
    matrix_exponential,
    partial_trace,
    superop_from_coordinates,
    superop_to_coordinates,
    to_coordinates,
    trace_distance,
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
    generator_stack,
    liouvillian,
    midpoints,
    model_from_config,
    ordered_exponential,
    propagator,
    steps_per_period,
)

RNG = np.random.default_rng(8451)


def random_state(d):
    a = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def hermiticity_preserving(k, n):
    """``k`` random generators that preserve Hermiticity, in Hermitian
    coordinates, where they are real matrices: what ``ordered_exponential``
    takes."""
    return 0.7 * RNG.standard_normal((k, n, n))


def lindblad_rhs(model, t, rho):
    """Direct elementwise Lindblad right-hand side; oracle for the superoperator."""
    h = model.hamiltonian(t)
    out = -1j * (h @ rho - rho @ h)
    for op, rate in model.jump_terms:
        opdop = op.conj().T @ op
        out = out + rate * (op @ rho @ op.conj().T - 0.5 * (opdop @ rho + rho @ opdop))
    return out


def superop_from_action(action, d):
    """Assemble a superoperator matrix column by column from its action."""
    mat = np.empty((d * d, d * d), dtype=complex)
    for col in range(d * d):
        unit = np.zeros(d * d)
        unit[col] = 1.0
        mat[:, col] = vectorize(action(devectorize(unit, d)))
    return mat


def test_time_grid():
    grid = TimeGrid(0.0, 0.5, 4)
    np.testing.assert_allclose(grid.times(), [0, 0.5, 1.0, 1.5, 2.0])
    assert grid.time(3) == 1.5
    with pytest.raises(ValueError):
        TimeGrid(0.0, -0.1, 4)
    # each malformed field is refused by name
    for args, name in [
        ((0.0, math.nan, 3), "dt"),
        ((0.0, math.inf, 3), "dt"),
        ((0.0, True, 3), "dt"),
        ((math.inf, 0.5, 2), "t0"),
        ((math.nan, 0.5, 2), "t0"),
        ((0.0, 0.5, 2.5), "steps"),
        ((0.0, 0.5, True), "steps"),
        ((0.0, 0.5, 0), "steps"),
    ]:
        with pytest.raises(ValueError, match=name):
            TimeGrid(*args)


def test_liouvillian_zero_model():
    model = LindbladModel(SpaceLayout(2, 2), np.zeros((4, 4)))
    assert np.all(liouvillian(model, 0.3) == 0)


def test_liouvillian_trace_annihilating():
    model = example_model()
    for t in (0.0, 0.7, 2.9):
        gen = liouvillian(model, t)
        for _ in range(3):
            rho = random_state(4)
            assert abs(np.trace(apply_superop(gen, rho))) < 1e-12
        # identity left-costate maps to zero
        assert np.max(np.abs(vectorize(np.eye(4)).conj() @ gen)) < 1e-12


def test_liouvillian_matches_elementwise_assembly():
    model = example_model()
    for t in (0.0, 1.3):
        oracle = superop_from_action(lambda x: lindblad_rhs(model, t, x), 4)
        np.testing.assert_allclose(liouvillian(model, t), oracle, atol=1e-13)


def test_liouvillian_rejects_non_hermitian():
    # refused when the model is built, before any generator exists
    h = np.diag([1, 2, 3, 4]).astype(complex)
    LindbladModel(SpaceLayout(2, 2), h, drives=[(np.eye(4), 2.0, 0.0)])
    with pytest.raises(ValueError):
        LindbladModel(SpaceLayout(2, 2), h + 0.5j * np.eye(4))
    with pytest.raises(ValueError):
        LindbladModel(SpaceLayout(2, 2), h, drives=[(1j * np.eye(4), 2.0, 0.0)])


def test_propagator_identity_at_zero_interval():
    model = example_model()
    np.testing.assert_array_equal(propagator(model, 1.2, 1.2, 16), np.eye(16))


def test_propagator_rejects_reversed_interval():
    with pytest.raises(ValueError):
        propagator(example_model(), 1.0, 0.5, 8)


def test_propagator_time_independent_equals_expm():
    # static model: propagator must reduce to a single exponential
    h = 0.5 * np.kron(PAULI["Z"], PAULI["I"]) + 1.5 * np.kron(PAULI["X"], PAULI["X"])
    pump = np.kron(PAULI["I"], np.array([[0, 1], [0, 0]], dtype=complex))
    model = LindbladModel(SpaceLayout(2, 2), h, [(pump, 0.8)])
    gen = liouvillian(model, 0.0)
    np.testing.assert_allclose(
        propagator(model, 0.2, 1.7, 32), matrix_exponential(gen, 1.5), atol=1e-10
    )


def test_propagator_trace_preserving():
    model = example_model()
    u = propagator(model, 0.0, 0.625, 64)
    costate = vectorize(np.eye(4)).conj()
    assert np.max(np.abs(costate @ u - costate)) < 1e-10


def test_propagator_composition_against_fine_run():
    model = example_model()
    t0, t1, t2 = 0.0, 0.625, 1.25
    u_a = propagator(model, t0, t1, 64)
    u_b = propagator(model, t1, t2, 64)
    u_fine = propagator(model, t0, t2, 128)
    assert np.max(np.abs(u_b @ u_a - u_fine)) < 1e-9


def test_propagator_second_order_convergence():
    model = example_model()
    ref = propagator(model, 0.0, 0.625, 1024)
    err = [np.max(np.abs(propagator(model, 0.0, 0.625, n) - ref)) for n in (16, 32, 64)]
    # halving the substep size should cut the error by ~4
    assert err[0] / err[1] > 3.0
    assert err[1] / err[2] > 3.0


def test_propagator_cache_divisibility():
    model = example_model()
    grid = TimeGrid(0.0, 0.625, 4)
    cache = PropagatorCache(model, grid, substeps=16)
    u_13 = cache.adjacent(2) @ cache.adjacent(1)
    lhs = u_13 @ cache.adjacent(0)
    # t_0 -> t_3 in one ordered exponential with the same substep size
    np.testing.assert_allclose(lhs, propagator(model, grid.time(0), grid.time(3), 48), atol=1e-10)


@pytest.mark.parametrize("k", [1, 40, 64, 150])
@pytest.mark.parametrize("vector_start", [False, True])
def test_ordered_exponential_matches_one_exponential_per_substep(k, vector_start):
    # n = 16 puts 64 generators in a chunk: K = 1, below, equal to and not
    # a multiple of the chunk
    n, h = 16, 0.1
    gens = hermiticity_preserving(k, n)
    start = RNG.standard_normal(n) if vector_start else np.eye(n)
    calls = []

    def generators(times):
        calls.append(len(times))
        return gens[times.astype(int)]

    got = ordered_exponential(generators, np.arange(k) + 0.5, h, start)
    want = start.astype(complex)
    for g in gens:
        want = matrix_exponential(g, h) @ want
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
    assert sum(calls) == k and max(calls) == min(k, 64)


def test_model_refuses_generators_that_break_hermiticity():
    # 1e-13 times a non-Hermitian matrix passes the 1e-12 check of H_0, but its
    # commutator is not real in Hermitian coordinates: refused when built
    layout = SpaceLayout(2, 2)
    a = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    assert hermiticity_defect(1e-13 * a) < 1e-12
    LindbladModel(layout, 1e-13 * (a + a.conj().T))
    with pytest.raises(ValueError, match="does not preserve Hermiticity"):
        LindbladModel(layout, 1e-13 * a)
    # the bound is relative to the largest entry of the model's superoperators
    static = example_model().static
    LindbladModel(layout, static + 1e-13 * a, drives=[(static, 2.0, 0.0)])
    with pytest.raises(ValueError, match="does not preserve Hermiticity"):
        LindbladModel(layout, 1e-13 * static, drives=[(1e-13 * a, 2.0, 0.0)])


def test_propagators_need_no_pade_exponential(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy expm called")

    monkeypatch.setattr("memtensor.linalg.expm", refuse)
    u = propagator(example_model(), 0.0, 0.5)
    with pytest.raises(AssertionError):
        matrix_exponential(np.eye(2))
    monkeypatch.undo()
    times, h = midpoints(0.0, 0.5, 64)
    want = np.eye(16)
    for t in times:
        want = matrix_exponential(liouvillian(example_model(), t), h) @ want
    np.testing.assert_allclose(u, want, rtol=0, atol=1e-13)


def test_propagator_cache_builds_one_period_and_reuses_it():
    model = example_model()
    c, substeps = 4, 16
    grid = TimeGrid(0.0, model.period / c, 11)
    cache = PropagatorCache(model, grid, substeps)
    steps = [cache.step(i) for i in range(grid.steps)]
    assert len({id(u) for u in steps}) == c
    for i in range(grid.steps - c):
        literal = propagator(model, grid.time(i + c), grid.time(i + c + 1), substeps)
        np.testing.assert_allclose(cache.adjacent(i + c), literal, rtol=0, atol=1e-12)
        # the operator-space view is the stored real step, converted
        np.testing.assert_array_equal(cache.adjacent(i), superop_from_coordinates(steps[i]))
    assert steps[0].dtype == float and cache.adjacent(0) is not cache.adjacent(0)


def test_propagator_cache_no_reuse_without_commensurate_period():
    static_h = np.kron(PAULI["Z"], PAULI["I"]) + np.kron(PAULI["X"], PAULI["X"])
    models_grids = [
        (example_model(), TimeGrid(0.0, 0.625, 7)),  # period pi, incommensurate
        (without_period(example_model()), TimeGrid(0.0, math.pi / 4, 7)),
    ]
    for model, grid in models_grids:
        cache = PropagatorCache(model, grid, substeps=4)
        assert len({id(cache.step(i)) for i in range(grid.steps)}) == grid.steps
    # a model without drives repeats after every step: one step is built
    cache = PropagatorCache(LindbladModel(SpaceLayout(2, 2), static_h), TimeGrid(0.0, 0.5, 7), 4)
    assert len({id(cache.step(i)) for i in range(7)}) == 1


def without_period(model):
    """``model`` with the same terms and no declared period."""
    return LindbladModel(model.layout, model.static, model.jump_terms, None, model.drives)


# without drives; driven with its period declared; the same without it
RULE_MODELS = {
    "static": lambda: LindbladModel(SpaceLayout(2, 2), example_model().static,
                                    example_model().jump_terms),
    "driven": example_model,
    "driven-no-period": lambda: without_period(example_model()),
}
RULE_GRIDS = {"commensurate": math.pi / 4, "incommensurate": 0.625}
RULE = {  # (model, grid) -> steps per period
    ("static", "commensurate"): 1, ("static", "incommensurate"): 1,
    ("driven", "commensurate"): 4, ("driven", "incommensurate"): None,
    ("driven-no-period", "commensurate"): None, ("driven-no-period", "incommensurate"): None,
}


@pytest.mark.parametrize("model_name, grid_name", sorted(RULE))
def test_one_period_rule_serves_the_cache_and_the_command_line(model_name, grid_name):
    from memtensor.cli import resolve_memory
    from memtensor.tomography import FixedState

    model, dt = RULE_MODELS[model_name](), RULE_GRIDS[grid_name]
    phases = RULE[model_name, grid_name]
    assert steps_per_period(model, dt) == phases
    grid, substeps = TimeGrid(0.0, dt, 6), 8
    cache = PropagatorCache(model, grid, substeps)
    assert cache.phases == phases
    for i in range(grid.steps):
        literal = propagator(model, grid.time(i), grid.time(i + 1), substeps)
        np.testing.assert_allclose(cache.step(i), superop_to_coordinates(literal).real,
                                   rtol=0, atol=1e-12)
    assert len({id(cache.step(i)) for i in range(grid.steps)}) == (phases or grid.steps)
    for policy in (None, FixedState(np.eye(2) / 2)):
        memory, reuse = resolve_memory({}, model, dt, policy)
        assert reuse == (phases is not None) and memory.c == (phases or 1)


def test_propagator_cache_refuses_wrong_declared_period():
    # cos(t) has period 2 pi, not the declared pi: the model refuses it when
    # built, so no cache can ever reuse a wrong phase
    h = np.kron(PAULI["Z"], PAULI["I"]) + np.kron(PAULI["X"], PAULI["X"])
    with pytest.raises(ValueError, match="periodic"):
        LindbladModel(SpaceLayout(2, 2), 0 * h, period=math.pi, drives=[(h, 1.0, 0.0)])
    model = LindbladModel(SpaceLayout(2, 2), 0 * h, period=2 * math.pi, drives=[(h, 1.0, 0.0)])
    cache = PropagatorCache(model, TimeGrid(0.0, math.pi / 4, 9), substeps=4)
    assert cache.step(8) is cache.step(0)


@pytest.mark.parametrize(
    "k, complex_start", [(1, False), (70, False), (1, True), (70, True)],
    ids=["1", "70", "1-complex", "70-complex"],
)
def test_ordered_exponential_action_matches_the_dense_product(k, complex_start):
    # the two routes share the chunking (64 generators at n = 16) and differ
    # only in how a substep is applied; a complex start is carried as its
    # interleaved real view
    n, h = 16, 0.1
    gens = hermiticity_preserving(k, n)
    start = RNG.standard_normal((n, 3))
    if complex_start:
        start = start + 1j * RNG.standard_normal((n, 3))
    calls = []

    def generators(times):
        calls.append(len(times))
        return gens[times.astype(int)]

    times = np.arange(k) + 0.5
    want = ordered_exponential(generators, times, h, start)
    got = ordered_exponential(generators, times, h, start, action=True)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
    assert calls[: len(calls) // 2] == calls[len(calls) // 2 :]


def test_propagator_cache_act_is_the_step_on_a_block():
    model = example_model()
    c, substeps = 4, 16
    grid = TimeGrid(0.0, model.period / c, 7)
    block = RNG.standard_normal((16, 8))  # coordinates of 8 Hermitian operators
    vecs = from_coordinates(block.T).T
    cache = PropagatorCache(model, grid, substeps)
    assert cache.unbuilt(grid.steps) == c
    # act builds nothing; past the first period it serves the step's phase
    acted = [cache.act(i, block) for i in range(grid.steps)]
    assert cache.unbuilt(grid.steps) == c and cache.unbuilt(2) == 2
    for i, got in enumerate(acted):
        assert got.dtype == float and got.shape == block.shape
        np.testing.assert_allclose(got, cache.step(i) @ block, rtol=0, atol=1e-13)
        # through the conversions, the operator-space step on the vecs
        np.testing.assert_allclose(from_coordinates(got.T).T, cache.adjacent(i) @ vecs,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(got, to_coordinates((cache.adjacent(i) @ vecs).T).T.real,
                                   rtol=0, atol=1e-13)
    assert cache.unbuilt(grid.steps) == 0
    # without a commensurate period every step is its own phase
    cache = PropagatorCache(model, TimeGrid(0.0, 0.625, 5), substeps)
    cache.adjacent(3)
    assert cache.unbuilt(5) == 4 and cache.unbuilt(3) == 3


def test_propagator_cache_act_checks_the_declared_period():
    h = np.kron(PAULI["Z"], PAULI["I"]) + np.kron(PAULI["X"], PAULI["X"])
    with pytest.raises(ValueError, match="periodic"):
        LindbladModel(SpaceLayout(2, 2), 0 * h, period=math.pi, drives=[(h, 1.0, 0.0)])
    model = LindbladModel(SpaceLayout(2, 2), 0 * h, period=math.pi, drives=[(h, 2.0, 0.0)])
    cache = PropagatorCache(model, TimeGrid(0.0, math.pi / 4, 8), substeps=4)
    block = np.eye(16)[:, :4]  # coordinates of four basis operators
    np.testing.assert_array_equal(cache.act(4, block), cache.act(0, block))
    with pytest.raises(ValueError, match="outside grid"):
        cache.act(8, block)


@pytest.mark.parametrize("substeps", [0, -1])
def test_propagator_cache_refuses_substeps_below_one(substeps):
    with pytest.raises(ValueError, match="substeps"):
        PropagatorCache(example_model(), TimeGrid(0.0, 0.5, 2), substeps)


@pytest.mark.parametrize("substeps", [2.5, True, 0, "4"])
@pytest.mark.parametrize("build", ["propagator", "cache", "midpoints"])
def test_substeps_must_be_an_integer(build, substeps):
    model = example_model()
    with pytest.raises(ValueError, match="substeps must be an integer"):
        if build == "propagator":
            propagator(model, 0.0, 0.5, substeps)
        elif build == "cache":
            PropagatorCache(model, TimeGrid(0.0, 0.5, 2), substeps)
        else:  # every time-ordered product lays out its substeps here
            midpoints(0.0, 0.5, substeps)


def test_propagator_rejects_non_hermitian_hamiltonian_at_a_midpoint():
    h = np.kron(PAULI["Z"], PAULI["I"])
    xx = np.kron(PAULI["X"], PAULI["X"])
    # Hermitian at t = pi/4 but not at the midpoints of [0, 1]: refused when
    # the model is built, before any propagator samples it
    with pytest.raises(ValueError, match="Hermitian"):
        LindbladModel(SpaceLayout(2, 2), h, drives=[(1j * xx, 2.0, 0.0)])
    # the anti-Hermitian parts of one envelope group may cancel
    LindbladModel(SpaceLayout(2, 2), h, drives=[(1j * xx, 2.0, 0.0), (-1j * xx, 2.0, 0.0)])


def test_evolve_state_zero_generator_is_constant():
    model = LindbladModel(SpaceLayout(2, 2), np.zeros((4, 4)))
    rho0 = example_initial_state()
    traj = evolve_state(rho0, model, TimeGrid(0.0, 0.5, 5), substeps=4)
    for rho in traj:
        np.testing.assert_allclose(rho, rho0, atol=1e-12)


def test_evolve_state_environment_pumping():
    # no coupling: the jump pumps the environment to its excited state |0>
    p = EXAMPLE_PARAMETERS
    zi = np.kron(PAULI["Z"], PAULI["I"])
    iz = np.kron(PAULI["I"], PAULI["Z"])
    h = 0.5 * p["omega"] * zi + 0.5 * p["omega_env"] * iz
    pump = np.kron(PAULI["I"], np.array([[0, 1], [0, 0]], dtype=complex))
    model = LindbladModel(SpaceLayout(2, 2), h, [(pump, p["pump_rate"])])
    traj = evolve_state(example_initial_state(), model, TimeGrid(0.0, 1.0, 12), substeps=16)
    env_pops = [partial_trace(rho, model.layout, "environment")[0, 0].real for rho in traj]
    assert env_pops[-1] > 1 - 1e-4
    assert all(b >= a - 1e-9 for a, b in zip(env_pops, env_pops[1:]))


def test_evolve_state_step_halving_oracle():
    model = example_model()
    rho0 = example_initial_state()
    coarse = evolve_state(rho0, model, TimeGrid(0.0, 0.625, 8), substeps=4096)
    fine = evolve_state(rho0, model, TimeGrid(0.0, 0.625, 8), substeps=8192)
    assert trace_distance(coarse[-1], fine[-1]) < 1e-8


def test_evolve_state_preserves_hermiticity_and_trace():
    model = example_model()
    rho0 = example_initial_state()
    traj = evolve_state(rho0, model, TimeGrid(0.0, 0.625, 8), substeps=32)
    # one complex array, headed by a copy of rho0 as given
    assert isinstance(traj, np.ndarray)
    assert traj.shape == (9, 4, 4) and traj.dtype == complex
    np.testing.assert_array_equal(traj[0], rho0)
    assert not np.shares_memory(traj, rho0)
    for rho in traj:
        assert hermiticity_defect(rho) < 1e-10
        assert abs(np.trace(rho) - 1) < 1e-10


def test_evolve_state_rejects_invalid_state():
    with pytest.raises(ValueError):
        evolve_state(np.eye(4), example_model(), TimeGrid(0.0, 0.5, 2), substeps=4)
    # a valid density operator of the wrong dimension
    with pytest.raises(ValueError, match="does not match joint dimension 4"):
        evolve_state(np.eye(2) / 2, example_model(), TimeGrid(0.0, 0.5, 2), substeps=4)


def test_example_parameter_ratios():
    p = EXAMPLE_PARAMETERS
    assert p["omega"] == p["pump_rate"] == p["omega_env"] / 16
    assert p["omega"] == p["coupling"] / 2 == p["drive_freq"] / 2
    assert example_model().period == pytest.approx(math.pi)


def test_example_generator_periodicity():
    model = example_model()
    for t in (0.0, 0.4, 2.2):
        np.testing.assert_allclose(
            model.hamiltonian(t + math.pi), model.hamiltonian(t), atol=1e-12
        )
        np.testing.assert_allclose(
            liouvillian(model, t + math.pi), liouvillian(model, t), atol=1e-12
        )


ZI = np.kron(PAULI["Z"], PAULI["I"])

MALFORMED_MODELS = {
    # cos(t) has period 2 pi, not the declared pi
    "wrong-period": ({"period": math.pi, "drives": [(ZI, 1.0, 0.0)]}, "not periodic with period"),
    "infinite-period": ({"period": math.inf}, "period must be a finite number"),
    "negative-period": ({"period": -1.0}, "period must be positive"),
    "callable-static": ({"static": lambda t: ZI}, "static.*drives="),
    "static-shape": ({"static": ZI[:2, :2]}, r"static has shape \(2, 2\)"),
    "nan-static": ({"static": np.full((4, 4), np.nan)}, "static has non-finite"),
    "jump-shape": ({"jump_terms": [(np.eye(1), 1.0)]}, r"jumps\[0\] has shape \(1, 1\)"),
    "nan-rate": ({"jump_terms": [(ZI, math.nan)]}, r"jumps\[0\]\.rate"),
    "negative-rate": ({"jump_terms": [(ZI, -1.0)]}, r"jumps\[0\]\.rate must be non-negative"),
    "infinite-frequency": ({"drives": [(ZI, math.inf, 0.0)]}, r"drives\[0\]\.frequency"),
    "phase-not-a-number": ({"drives": [(ZI, 1.0, "x")]}, r"drives\[0\]\.phase"),
    "drive-shape": ({"drives": [(np.eye(2), 1.0, 0.0)]}, r"drives\[0\] has shape"),
}


@pytest.mark.parametrize("case", MALFORMED_MODELS)
def test_model_refuses_malformed_input_naming_it(case):
    # every check runs when the model is built; nothing escapes as a TypeError
    kwargs, match = MALFORMED_MODELS[case]
    with pytest.raises(ValueError, match=match):
        LindbladModel(**{"layout": SpaceLayout(2, 2), "static": ZI, **kwargs})


def test_example_initial_state_properties():
    rho0 = example_initial_state()
    assert abs(np.trace(rho0) - 1) < 1e-14
    assert hermiticity_defect(rho0) == 0
    eigs = np.linalg.eigvalsh(rho0)
    assert np.sum(eigs > 1e-12) == 2 and eigs.min() > -1e-14
    np.testing.assert_allclose(
        partial_trace(rho0, SpaceLayout(2, 2), "system"), np.diag([0.75, 0.25]), atol=1e-14
    )


EXAMPLE_CONFIG = {
    "dim_system": 2,
    "dim_environment": 2,
    "period": math.pi,
    "hamiltonian": [
        {"pauli": "ZI", "coefficient": 0.5},
        {"pauli": "IZ", "coefficient": 8.0},
        {"pauli": "XX", "coefficient": 2.0},
        {"pauli": "YY", "coefficient": 2.0, "envelope": {"type": "cosine", "frequency": 2.0}},
    ],
    "jumps": [
        {
            "matrix": [
                [[0, 0], [1, 0], [0, 0], [0, 0]],
                [[0, 0], [0, 0], [0, 0], [0, 0]],
                [[0, 0], [0, 0], [0, 0], [1, 0]],
                [[0, 0], [0, 0], [0, 0], [0, 0]],
            ],
            "rate": 1.0,
        }
    ],
}


def test_model_from_config_matches_builtin():
    loaded = model_from_config(EXAMPLE_CONFIG)
    builtin = example_model()
    for t in (0.0, 0.9, 3.7):
        np.testing.assert_allclose(
            liouvillian(loaded, t), liouvillian(builtin, t), atol=1e-13
        )


def test_load_model_from_file(tmp_path):
    import json

    path = tmp_path / "model.json"
    path.write_text(json.dumps(EXAMPLE_CONFIG))
    from memtensor.models import load_model

    loaded = load_model(path)
    np.testing.assert_allclose(
        liouvillian(loaded, 1.1), liouvillian(example_model(), 1.1), atol=1e-13
    )


def test_model_from_config_rejects_bad_input():
    bad = dict(EXAMPLE_CONFIG, jumps=[{"matrix": [[[0, 0]]], "rate": -1.0}])
    with pytest.raises(ValueError):
        model_from_config(bad)
    with pytest.raises(ValueError):
        model_from_config({"dim_system": 2})
