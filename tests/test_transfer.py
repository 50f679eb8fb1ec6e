"""Transfer tensor construction, propagation, residuals, error bound."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtensor.linalg import (
    SpaceLayout,
    apply_superop,
    hermiticity_defect,
    hermitize,
    operator_norm,
    partial_trace,
    trace_distance,
    trace_norm,
)
from memtensor.models import (
    LindbladModel,
    PropagatorCache,
    TimeGrid,
    evolve_state,
    example_initial_state,
    example_model,
)
from memtensor.tomography import FixedState, reconstruct_family
from memtensor.transfer import (
    MemoryConfig,
    TransferTensorSet,
    build_tensors,
    error_bound,
    memory_cutoff_heuristic,
    propagate,
    propagate_correlation_free,
    stability_radius,
    tensor_norm_profile,
)

LAYOUT = SpaceLayout(2, 2)
KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = (KET0 + KET1) / np.sqrt(2)
MINUS = (KET0 - KET1) / np.sqrt(2)
TAU0 = 0.75 * np.outer(PLUS, PLUS) + 0.25 * np.outer(MINUS, MINUS)


def semigroup_model():
    """Single qubit with a trivial environment: exactly divisible dynamics."""
    h = 0.3 * np.array([[1, 0], [0, -1]], dtype=complex)
    decay = np.array([[0, 1], [0, 0]], dtype=complex)
    return LindbladModel(SpaceLayout(2, 1), h, [(decay, 0.5)])


@pytest.fixture(scope="module")
def example_setup():
    """Example-model family on a period-commensurate grid (dt = pi/5, c = 5)."""
    model = example_model()
    rho0 = example_initial_state()
    dt = math.pi / 5
    grid = TimeGrid(0.0, dt, 18)
    cache = PropagatorCache(model, grid, substeps=48)
    family = reconstruct_family(
        model, grid, FixedState(TAU0), substeps=48, band=None, cache=cache
    )
    joint = evolve_state(rho0, model, grid, cache=cache)
    sys_traj = [partial_trace(rho, LAYOUT, "system") for rho in joint]
    return model, rho0, grid, cache, family, sys_traj


def test_memory_config_validation():
    with pytest.raises(ValueError):
        MemoryConfig(dt=-0.1, m=2, c=2)
    with pytest.raises(ValueError):
        MemoryConfig(dt=0.1, m=0, c=2)
    # each malformed field is refused by name
    good = {"dt": 0.1, "m": 2, "c": 2, "transient_steps": 0}
    for name, value in [
        ("dt", math.nan), ("dt", math.inf), ("dt", True), ("dt", 0.0),
        ("m", 2.5), ("m", True), ("m", 0),
        ("c", 1.0), ("c", False), ("c", 0),
        ("transient_steps", 0.5), ("transient_steps", True), ("transient_steps", -1),
    ]:
        with pytest.raises(ValueError, match=name):
            MemoryConfig(**dict(good, **{name: value}))


@pytest.mark.parametrize("total_steps", [-1, 2.5, True])
def test_propagate_refuses_a_malformed_total_steps(example_setup, total_steps):
    _, _, grid, _, family, sys_traj = example_setup
    tensors = build_tensors(family, MemoryConfig(dt=grid.dt, m=2, c=5))
    with pytest.raises(ValueError, match="total_steps"):
        propagate(tensors, sys_traj[:2], total_steps)


def test_single_step_config(example_setup):
    _, _, grid, _, family, _ = example_setup
    config = MemoryConfig(dt=grid.dt, m=1, c=5)
    tensors = build_tensors(family, config)
    assert set(tensors.tensors) == {(p, 1) for p in range(5)}
    for p in range(5):
        np.testing.assert_array_equal(tensors.tensor(p, 1), family.map(p, p + 1))


def test_recursion_explicit_form(example_setup):
    _, _, grid, _, family, _ = example_setup
    config = MemoryConfig(dt=grid.dt, m=3, c=5)
    tensors = build_tensors(family, config)
    t2 = family.map(0, 2) - family.map(1, 2) @ family.map(0, 1)
    np.testing.assert_allclose(tensors.tensor(0, 2), t2, atol=1e-13)
    t1_end3 = family.map(2, 3)
    t2_end3 = family.map(1, 3) - t1_end3 @ family.map(1, 2)
    t3_end3 = (
        family.map(0, 3) - t1_end3 @ family.map(0, 2) - t2_end3 @ family.map(0, 1)
    )
    np.testing.assert_allclose(tensors.tensor(0, 3), t3_end3, atol=1e-13)


def test_recursion_self_consistency(example_setup):
    # substituting the tensors back must reproduce every map exactly
    _, _, grid, _, family, _ = example_setup
    config = MemoryConfig(dt=grid.dt, m=6, c=5)
    tensors = build_tensors(family, config)
    for start in range(3):
        for length in range(1, 7):
            k = start + length
            acc = tensors.tensor(start, length).copy()
            for lp in range(1, length):
                acc += tensors.tensor(k - lp, lp) @ family.map(start, k - lp)
            assert operator_norm(acc - family.map(start, k)) < 1e-12


def test_missing_map_raises_coverage_error(example_setup):
    _, _, grid, _, _, _ = example_setup
    model = example_model()
    banded = reconstruct_family(model, grid, FixedState(TAU0), substeps=8, band=2)
    with pytest.raises(KeyError, match=r"does not cover tensor \(start=0, length=3\)"):
        build_tensors(banded, MemoryConfig(dt=grid.dt, m=4, c=5))
    # a tensor ending past the grid: the periodic set needs ends up to 5 - 1 + 2
    short = reconstruct_family(model, TimeGrid(0.0, grid.dt, 3), FixedState(TAU0), substeps=8)
    with pytest.raises(KeyError, match=r"\(start=3, length=1\).* 3 steps .* band is 3"):
        build_tensors(short, MemoryConfig(dt=grid.dt, m=2, c=5))


def reference_build_tensors(family, config, max_length=None, dense_window=None):
    """The double loop of the recursion: one small product per shorter tensor.

    Returns the stored tensors and every tensor at its own start. A map the
    family lacks is a ``KeyError`` naming the first tensor it stops at.
    """
    if max_length is None:
        max_length = config.m
    phases = config.transient_steps + config.c
    dense = dense_window is not None
    last_end = dense_window if dense else phases - 1 + max_length
    tensors, every = {}, {}
    for k in range(1, last_end + 1):
        at_end = []
        for l in range(1, min(k, max_length) + 1):
            try:
                t_l = np.array(family.map(k - l, k))
            except KeyError:
                raise KeyError(f"(start={k - l}, length={l})") from None
            for lp in range(1, l):
                t_l -= at_end[lp - 1] @ family.map(k - l, k - lp)
            at_end.append(t_l)
            every[(k - l, l)] = t_l
            if dense or k - l < phases:
                tensors[(k - l, l)] = t_l
    return tensors, every


def reference_residuals(every, states, m):
    """``rho_k - sum_l T(l, end k) rho_{k-l}``, term by term, for k = 1 .. m."""
    return {
        k: states[k] - sum(apply_superop(every[(k - l, l)], states[k - l]) for l in range(1, k + 1))
        for k in range(1, min(m, len(states) - 1) + 1)
    }


@pytest.fixture(scope="module")
def families(example_setup):
    """Families by name, each with exact-state stand-ins for the residuals:
    the example family (band 18), a banded one (band 8) and a d_S = 3 one."""
    model, _, grid, _, family, sys_traj = example_setup
    banded = reconstruct_family(model, grid, FixedState(TAU0), substeps=8, band=8)
    rng = np.random.default_rng(3)
    qutrit = LindbladModel(
        SpaceLayout(3, 2), _random_hermitian(rng, 6), [(_random_hermitian(rng, 6) / 3, 0.4)]
    )
    qutrit_family = reconstruct_family(
        qutrit, TimeGrid(0.0, 0.3, 10), FixedState(np.eye(2, dtype=complex) / 2), substeps=8
    )
    states = [_random_hermitian(rng, 3) for _ in range(11)]
    return {
        "example": (family, sys_traj),
        "banded": (banded, sys_traj),
        "qutrit": (qutrit_family, states),
    }


@pytest.mark.parametrize(
    "name, memory, kwargs",
    [
        ("example", (4, 5, 1), {"max_length": 7}),  # periodic, transients, max_length > c
        ("example", (4, 5, 0), {"max_length": 7, "dense_window": 18}),
        ("example", (18, 18, 0), {"dense_window": 18}),  # full length, as convergence_study
        ("example", (4, 5, 2), {"max_length": 6, "dense_window": 12}),
        ("example", (4, 5, 0), {"max_length": 9, "dense_window": 6}),  # max_length clamped to 6
        ("qutrit", (3, 2, 1), {"max_length": 5}),  # n = 9
        ("banded", (3, 4, 0), {"max_length": 4}),  # max_length < band = 8
    ],
    ids=["periodic", "dense", "full-length", "dense-transients", "clamped", "qutrit", "banded"],
)
def test_recursion_matches_reference_loop(families, name, memory, kwargs):
    family, states = families[name]
    m, c, transient = memory
    config = MemoryConfig(dt=family.grid.dt, m=m, c=c, transient_steps=transient)
    expected, every = reference_build_tensors(family, config, **kwargs)
    built = build_tensors(family, config, exact_states=states, **kwargs)
    assert built.tensors.keys() == expected.keys()
    for key, t in expected.items():
        np.testing.assert_allclose(built.tensors[key], t, rtol=0, atol=1e-12, err_msg=f"{key}")
    residuals = reference_residuals(every, states, m)
    assert built.residuals.keys() == residuals.keys() == set(range(1, m + 1))
    for k, r in residuals.items():
        np.testing.assert_allclose(built.residuals[k], r, rtol=0, atol=1e-14, err_msg=f"k={k}")


@pytest.mark.parametrize(
    "steps, band, max_length, dense_window, c, transient",
    [
        (6, None, 3, None, 5, 0),  # an end past the grid
        (10, 2, 3, None, 2, 0),  # a length past the band
        (5, 3, 4, 7, 1, 0),  # both; the band is reached first
        (6, 2, 4, None, 3, 1),  # both, with transients; the band first
        (3, 3, 5, 5, 1, 0),  # both at the same end: length 1 first
        (4, 4, 2, None, 2, 2),  # transients push the last end past the grid
    ],
)
def test_coverage_error_names_the_first_tensor_the_end_by_end_loop_misses(
    steps, band, max_length, dense_window, c, transient
):
    family = reconstruct_family(
        example_model(), TimeGrid(0.0, 0.3, steps), FixedState(TAU0), substeps=2, band=band
    )
    config = MemoryConfig(dt=0.3, m=2, c=c, transient_steps=transient)
    kwargs = {"max_length": max_length, "dense_window": dense_window}
    with pytest.raises(KeyError) as first:
        reference_build_tensors(family, config, **kwargs)
    with pytest.raises(KeyError, match=re.escape(first.value.args[0])):
        build_tensors(family, config, **kwargs)


@pytest.mark.parametrize(
    "kwargs", [{"max_length": 3}, {"dense_window": 3}], ids=["max_length", "dense_window"]
)
def test_a_set_shorter_than_its_memory_window_is_refused(example_setup, kwargs):
    _, _, grid, _, family, _ = example_setup
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 4"):
        build_tensors(family, MemoryConfig(dt=grid.dt, m=4, c=5), **kwargs)


def test_exact_states_of_the_wrong_size_are_refused(example_setup):
    _, _, grid, _, family, sys_traj = example_setup
    states = sys_traj[:2] + [np.eye(3) / 3] + sys_traj[3:]
    with pytest.raises(ValueError, match=r"exact_states must be 2x2, got \(3, 3\) at step 2"):
        build_tensors(family, MemoryConfig(dt=grid.dt, m=4, c=5), exact_states=states)


def test_a_history_of_at_most_one_state_stores_no_residuals(example_setup):
    _, _, grid, _, family, sys_traj = example_setup
    for states in ([], sys_traj[:1]):
        tensors = build_tensors(family, MemoryConfig(dt=grid.dt, m=4, c=5), exact_states=states)
        assert not tensors.residuals


@pytest.mark.parametrize(
    "kwargs",
    [{"max_length": 0}, {"max_length": -1}, {"dense_window": 0}],
    ids=["max_length=0", "max_length=-1", "dense_window=0"],
)
def test_empty_tensor_sets_are_refused(example_setup, kwargs):
    _, _, grid, _, family, _ = example_setup
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        build_tensors(family, MemoryConfig(dt=grid.dt, m=4, c=5), **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [{"max_length": 2.5}, {"max_length": True}, {"dense_window": 2.5}, {"dense_window": True}],
    ids=["max_length=2.5", "max_length=True", "dense_window=2.5", "dense_window=True"],
)
def test_non_integer_lengths_are_refused(example_setup, kwargs):
    _, _, grid, _, family, _ = example_setup
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        build_tensors(family, MemoryConfig(dt=grid.dt, m=4, c=5), **kwargs)


def test_semigroup_tensors_vanish_beyond_one_step():
    model = semigroup_model()
    grid = TimeGrid(0.0, 0.4, 10)
    family = reconstruct_family(
        model, grid, FixedState(np.eye(1, dtype=complex)), substeps=32
    )
    config = MemoryConfig(dt=grid.dt, m=6, c=1, transient_steps=3)
    tensors = build_tensors(family, config)
    for (p, l), t in tensors.tensors.items():
        if l >= 2:
            assert operator_norm(t) < 1e-10, (p, l)


def test_semigroup_one_step_propagation_exact():
    model = semigroup_model()
    grid = TimeGrid(0.0, 0.4, 10)
    cache = PropagatorCache(model, grid, substeps=32)
    family = reconstruct_family(
        model, grid, FixedState(np.eye(1, dtype=complex)), substeps=32, cache=cache
    )
    config = MemoryConfig(dt=grid.dt, m=1, c=1)
    tensors = build_tensors(family, config)
    rho0 = np.array([[0.2, 0.3j], [-0.3j, 0.8]], dtype=complex)
    traj = propagate(tensors, [rho0], 10, include_residuals=True)
    rho, lam = rho0, family.map(0, 1)
    for k in range(1, 11):
        rho = apply_superop(lam, rho)
        assert trace_distance(traj[k], rho) < 1e-10


def test_example_tensor_norms_decay_on_paper_grid():
    # dt = 5/8 is incommensurate with the driving period; tensors at the
    # initial start step only
    model = example_model()
    grid = TimeGrid(0.0, 0.625, 8)
    family = reconstruct_family(model, grid, FixedState(TAU0), substeps=48)
    config = MemoryConfig(dt=0.625, m=8, c=8)
    tensors = build_tensors(family, config, dense_window=8)
    norms = {l: operator_norm(tensors.tensor(0, l)) for l in range(1, 9)}
    assert norms[8] < norms[2]
    assert norms[8] < 0.1 * norms[1]


def test_residual_zero_for_matched_uncorrelated_start(example_setup):
    model, _, grid, cache, _, _ = example_setup
    tau = np.array(TAU0)
    rho_s = np.diag([0.3, 0.7]).astype(complex)
    product = np.kron(rho_s, tau)
    family = reconstruct_family(
        model, grid, FixedState(tau), substeps=48, cache=cache
    )
    joint = evolve_state(product, model, grid, cache=cache)
    sys_traj = [partial_trace(r, LAYOUT, "system") for r in joint]
    config = MemoryConfig(dt=grid.dt, m=4, c=5)
    tensors = build_tensors(family, config, exact_states=sys_traj)
    assert trace_norm(tensors.residuals[1]) < 1e-10
    assert trace_norm(tensors.residuals[4]) < 1e-10


def test_residuals_of_correlated_start(example_setup):
    _, _, grid, _, family, sys_traj = example_setup
    config = MemoryConfig(dt=grid.dt, m=8, c=5)
    tensors = build_tensors(family, config, exact_states=sys_traj)
    norms = {k: trace_norm(tensors.residuals[k]) for k in range(1, 9)}
    assert norms[1] > 1e-3  # correlations actually matter at short times
    assert norms[8] < norms[1]
    # definition at k=1 and tracelessness
    direct = sys_traj[1] - apply_superop(family.map(0, 1), sys_traj[0])
    np.testing.assert_allclose(tensors.residuals[1], direct, atol=1e-12)
    for k in range(1, 9):
        assert abs(np.trace(tensors.residuals[k])) < 1e-10


def test_full_memory_propagation_is_exact(example_setup):
    # with the whole window kept and residuals included the decomposition is
    # an identity, not an approximation
    _, _, grid, _, family, sys_traj = example_setup
    n = 12
    config = MemoryConfig(dt=grid.dt, m=n, c=n)
    tensors = build_tensors(family, config, dense_window=n, exact_states=sys_traj)
    traj = propagate(tensors, [sys_traj[0]], n, include_residuals=True)
    for k in range(n + 1):
        assert trace_distance(traj[k], sys_traj[k]) < 1e-10


def test_dense_and_periodic_sets_propagate_identically(example_setup):
    # on a commensurate grid the propagator cache reuses the steps of the
    # first period, so shifted maps and tensors are bit-identical and the
    # storage choice cannot change a trajectory
    _, _, grid, _, family, sys_traj = example_setup
    config = MemoryConfig(dt=grid.dt, m=4, c=5)
    dense = build_tensors(family, config, dense_window=grid.steps, exact_states=sys_traj)
    periodic = build_tensors(family, config, exact_states=sys_traj)
    assert dense.dense and not periodic.dense
    assert len(periodic.tensors) < len(dense.tensors)
    traj_dense = propagate(dense, sys_traj[:4], grid.steps, include_residuals=True)
    traj_periodic = propagate(periodic, sys_traj[:4], grid.steps, include_residuals=True)
    np.testing.assert_array_equal(np.array(traj_dense), np.array(traj_periodic))


def test_dense_set_refuses_starts_past_its_window():
    # incommensurate grid (dt = 0.625, period pi): no phase exists to wrap to
    model = example_model()
    rho0 = example_initial_state()
    grid = TimeGrid(0.0, 0.625, 20)
    cache = PropagatorCache(model, grid, substeps=16)
    tau = partial_trace(rho0, LAYOUT, "environment")
    family = reconstruct_family(model, grid, FixedState(tau), substeps=16, band=4, cache=cache)
    joint = evolve_state(rho0, model, grid, cache=cache)
    sys_traj = [partial_trace(r, LAYOUT, "system") for r in joint]
    config = MemoryConfig(dt=grid.dt, m=4, c=1)
    tensors = build_tensors(family, config, dense_window=grid.steps, exact_states=sys_traj[:5])
    inside = propagate(tensors, sys_traj[:4], grid.steps, include_residuals=True)
    assert max(trace_distance(a, b) for a, b in zip(inside, sys_traj)) < 0.5
    with pytest.raises(KeyError, match="dense"):
        tensors.tensor(25, 1)
    with pytest.raises(KeyError):
        propagate(tensors, sys_traj[:4], 40, include_residuals=True)


def test_negative_starts_have_no_tensor_in_either_kind_of_set(example_setup):
    # only starts past the first period wrap: -3 is not phase 2 of a c = 5 set
    _, _, grid, _, family, _ = example_setup
    config = MemoryConfig(dt=grid.dt, m=4, c=5)
    periodic = build_tensors(family, config)
    dense = build_tensors(family, config, dense_window=grid.steps)
    assert periodic.phase_of(7) == 2 and periodic.phase_of(-3) == -3
    for tensors in (periodic, dense):
        with pytest.raises(KeyError, match=r"start=-3 .*length=1"):
            tensors.tensor(-3, 1)


def test_propagate_seed_validation(example_setup):
    _, _, grid, _, family, sys_traj = example_setup
    config = MemoryConfig(dt=grid.dt, m=4, c=5)
    tensors = build_tensors(family, config)
    with pytest.raises(ValueError, match="seed"):
        propagate(tensors, sys_traj[:2], 10, include_residuals=False)
    with pytest.raises(ValueError):
        propagate(tensors, [], 10)


@pytest.mark.parametrize(
    "seeds",
    [
        [np.eye(3) / 3],
        [np.eye(2) / 2, np.eye(3) / 3],
        [np.ones((2, 3)) / 2],
        [np.ones(4) / 4],
        [np.eye(1)],  # 1 divides every tensor count: the 4x4 tensors would reshape to 1x1
    ],
    ids=["3x3", "ragged", "2x3", "vector", "1x1"],
)
def test_propagate_refuses_malformed_seeds_by_name(example_setup, seeds):
    _, _, grid, _, family, _ = example_setup
    tensors = build_tensors(family, MemoryConfig(dt=grid.dt, m=2, c=5))
    with pytest.raises(ValueError, match="seed_states"):
        propagate(tensors, seeds, 10, include_residuals=True)


def test_propagate_returns_one_complex_array_and_copies_the_seeds(example_setup):
    _, _, grid, _, family, sys_traj = example_setup
    tensors = build_tensors(family, MemoryConfig(dt=grid.dt, m=4, c=5), exact_states=sys_traj)
    seeds = [np.array(rho) for rho in sys_traj[:4]]
    kept = [rho.copy() for rho in seeds]
    for total in (0, 2, 3, 40):  # fewer steps than seeds, as many, more
        trajectory = propagate(tensors, seeds, total, include_residuals=True)
        assert isinstance(trajectory, np.ndarray)
        assert trajectory.shape == (total + 1, 2, 2) and trajectory.dtype == complex
        np.testing.assert_array_equal(trajectory[: len(seeds)], kept[: total + 1])
        trajectory[:] = 0
        for rho, want in zip(seeds, kept):
            np.testing.assert_array_equal(rho, want)
    # real seeds come back as complex copies too
    trajectory = propagate(tensors, [np.eye(2) / 2], 12, include_residuals=True)
    assert trajectory.dtype == complex and trajectory.shape == (13, 2, 2)


def test_periodic_propagation_fetches_its_block_once(example_setup, monkeypatch):
    from memtensor import transfer

    _, _, grid, _, family, sys_traj = example_setup
    tensors = build_tensors(family, MemoryConfig(dt=grid.dt, m=4, c=5, transient_steps=3))
    calls = []
    block = transfer._Rows.block

    def counting(self, k):
        calls.append(k)
        return block(self, k)

    monkeypatch.setattr(transfer._Rows, "block", counting)
    counts = []
    for total in (10**3, 10**4):
        calls.clear()
        propagate(tensors, sys_traj[:4], total)
        counts.append(len(calls))
    # the transient blocks before step transient_steps + m = 7, then one
    assert counts[0] == counts[1] == 2


def test_propagate_outputs_hermitian_unit_trace(example_setup):
    _, _, grid, _, family, sys_traj = example_setup
    config = MemoryConfig(dt=grid.dt, m=6, c=5)
    tensors = build_tensors(family, config, exact_states=sys_traj)
    traj = propagate(tensors, sys_traj[:6], 40, include_residuals=True)
    for rho in traj:
        assert hermiticity_defect(rho) < 1e-12
        assert abs(np.trace(rho) - 1) < 1e-9


def test_tensor_periodicity_across_one_period(example_setup):
    _, _, grid, _, family, _ = example_setup
    config = MemoryConfig(dt=grid.dt, m=8, c=5, transient_steps=5)
    tensors = build_tensors(family, config)
    for p in range(5):
        for l in range(1, 9):
            diff = operator_norm(tensors.tensor(p, l) - tensors.tensors[(p + 5, l)])
            assert diff < 1e-8, (p, l, diff)


def test_norm_profile_and_heuristic(example_setup):
    _, _, grid, _, family, _ = example_setup
    config = MemoryConfig(dt=grid.dt, m=8, c=5)
    tensors = build_tensors(family, config)
    profile = tensor_norm_profile(tensors)
    assert set(profile) == {(l, p) for p in range(5) for l in range(1, 9)}
    # decay with length at every phase
    for p in range(5):
        assert profile[(8, p)] < profile[(1, p)]
    heuristic = memory_cutoff_heuristic(tensors, config)
    assert heuristic == pytest.approx(max(profile[(8, p)] for p in range(5)))


def test_error_bound_semigroup_vanishes():
    model = semigroup_model()
    grid = TimeGrid(0.0, 0.4, 12)
    family = reconstruct_family(
        model, grid, FixedState(np.eye(1, dtype=complex)), substeps=32
    )
    config = MemoryConfig(dt=grid.dt, m=3, c=1, transient_steps=3)
    tensors = build_tensors(family, config, max_length=5)
    assert error_bound(tensors, config, 12) < 1e-9


def test_error_bound_requirements(example_setup):
    _, _, grid, _, family, _ = example_setup
    config = MemoryConfig(dt=grid.dt, m=4, c=5)
    short = build_tensors(family, config)  # only lengths <= m stored
    with pytest.raises(KeyError, match="length"):
        error_bound(short, config, 20)
    # a failed sum is not memoized: the same phase one period later fails alike
    with pytest.raises(KeyError, match="error bound needs tensors to length 7"):
        error_bound(short, config, 25)
    with pytest.raises(ValueError):
        error_bound(short, config, 3)
    full = build_tensors(family, config, max_length=7)
    assert error_bound(full, config, 20) > 0


def test_error_bound_decreases_with_memory_length():
    # beyond the memory-decay onset, keeping more steps shrinks the bound
    model = example_model()
    dt = math.pi / 6
    grid = TimeGrid(0.0, dt, 6 + 37)
    family = reconstruct_family(model, grid, FixedState(TAU0), substeps=32, band=37)
    bounds = []
    for m in (5, 10, 19):
        config = MemoryConfig(dt=dt, m=m, c=6)
        tensors = build_tensors(family, config, max_length=2 * m - 1)
        bounds.append(max(error_bound(tensors, config, k) for k in range(2 * m, 2 * m + 6)))
    assert bounds[1] < bounds[0] and bounds[2] < bounds[1]


def test_propagation_error_is_bounded(example_setup):
    # cutoff propagation error vs the exact trajectory, checked against the
    # second-window bound on the same run
    model, rho0, grid, cache, family, sys_traj = example_setup
    config = MemoryConfig(dt=grid.dt, m=4, c=5)
    tensors = build_tensors(family, config, max_length=7, exact_states=sys_traj)
    total = grid.steps
    traj = propagate(tensors, sys_traj[:4], total, include_residuals=True)
    for k in range(2 * config.m, total + 1):
        measured = trace_distance(traj[k], sys_traj[k])
        assert measured <= error_bound(tensors, config, k) + 1e-12


def test_correlation_free_product_state_reduces_to_plain_propagation(example_setup):
    model, _, grid, cache, _, _ = example_setup
    from memtensor.tomography import decompose_initial_state

    rho_s = np.diag([0.3, 0.7]).astype(complex)
    tau = np.array(TAU0)
    decomp = decompose_initial_state(np.kron(rho_s, tau), LAYOUT)
    config = MemoryConfig(dt=grid.dt, m=6, c=5)
    total = 14
    combined = propagate_correlation_free(model, decomp, grid, config, total, substeps=48)
    family = reconstruct_family(model, grid, FixedState(tau), substeps=48, cache=cache)
    tensors = build_tensors(family, config)
    direct = propagate(tensors, [rho_s], total, include_residuals=True)
    for k in range(total + 1):
        assert trace_distance(combined[k], direct[k]) < 1e-9


def test_correlation_free_tracks_exact_and_preserves_trace():
    # dt = pi/4 so the 8-step memory window spans two driving periods
    from memtensor.tomography import decompose_initial_state

    model = example_model()
    rho0 = example_initial_state()
    dt = math.pi / 4
    decomp = decompose_initial_state(rho0, LAYOUT)
    config = MemoryConfig(dt=dt, m=8, c=4)
    total = 38  # out to wt ~ 30; the full-horizon run lives in acceptance
    window = TimeGrid(0.0, dt, 13)
    combined = propagate_correlation_free(model, decomp, window, config, total, substeps=48)
    grid_long = TimeGrid(0.0, dt, total)
    joint = evolve_state(rho0, model, grid_long, substeps=48)
    sys_traj = [partial_trace(r, LAYOUT, "system") for r in joint]
    for k in range(total + 1):
        assert abs(np.trace(combined[k]) - 1) < 1e-10
        assert trace_distance(combined[k], sys_traj[k]) < 2e-2


def test_correlation_free_builds_one_cache_for_all_branches(monkeypatch):
    from memtensor.tomography import decompose_initial_state

    model, dt, total = example_model(), math.pi / 4, 60
    decomp = decompose_initial_state(example_initial_state(), LAYOUT)
    config = MemoryConfig(dt=dt, m=8, c=4)
    window = TimeGrid(0.0, dt, 13)
    # the branches one by one, each on a cache of its own
    want = sum(
        coeff * np.array(propagate(build_tensors(reconstruct_family(
            model, window, FixedState(tau), substeps=48, band=config.m), config),
            [sys_op], total, include_residuals=True))
        for coeff, sys_op, tau in decomp.terms if coeff != 0
    )
    built = []
    init = PropagatorCache.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PropagatorCache, "__init__", counting)
    combined = propagate_correlation_free(model, decomp, window, config, total, substeps=48)
    assert len(built) == 1 and sum(c != 0 for c, _, _ in decomp.terms) == 4
    np.testing.assert_array_equal(combined, hermitize(want))


def test_correlation_free_returns_the_stacked_branch_sum():
    # the per-state combination, state by state: one array, bit for bit
    from memtensor.tomography import decompose_initial_state

    model, dt, total = example_model(), math.pi / 4, 30
    decomp = decompose_initial_state(example_initial_state(), LAYOUT)
    config = MemoryConfig(dt=dt, m=8, c=4)
    window = TimeGrid(0.0, dt, 13)
    combined = None
    for coeff, sys_op, tau in decomp.terms:
        family = reconstruct_family(model, window, FixedState(tau), substeps=48, band=config.m)
        branch = propagate(build_tensors(family, config), [sys_op], total, include_residuals=True)
        terms = [coeff * rho for rho in branch]
        combined = terms if combined is None else [a + b for a, b in zip(combined, terms)]
    want = np.array([hermitize(rho) for rho in combined])
    got = propagate_correlation_free(model, decomp, window, config, total, substeps=48)
    assert isinstance(got, np.ndarray) and got.shape == (total + 1, 2, 2)
    np.testing.assert_array_equal(got, want)


def test_correlation_free_skips_a_branch_of_zero_weight(monkeypatch):
    # rho_S antipodal to the first tetrahedral frame direction: tr(M_0 rho_S)
    # is exactly 0, so that branch gets the maximally mixed placeholder tau
    # and no family is reconstructed for it
    from memtensor import transfer
    from memtensor.tomography import decompose_initial_state, tomography_frame

    model = example_model()
    rho_s = np.eye(2) - 2 * tomography_frame(2)[0]  # (1 - n_0 . sigma) / 2
    tau = np.eye(2) / 2
    rho0 = np.kron(rho_s, tau)
    decomp = decompose_initial_state(rho0, LAYOUT)
    coefficients = [c for c, _, _ in decomp.terms]
    assert coefficients[0] == 0 and all(abs(c) > 0.1 for c in coefficients[1:])
    np.testing.assert_array_equal(decomp.terms[0][2], np.eye(2) / 2)
    assert np.max(np.abs(decomp.reassemble() - rho0)) < 1e-12
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return reconstruct_family(*args, **kwargs)

    monkeypatch.setattr(transfer, "reconstruct_family", counting)
    dt, total = math.pi / 4, 38
    config = MemoryConfig(dt=dt, m=8, c=4)
    window = TimeGrid(0.0, dt, 13)
    combined = propagate_correlation_free(model, decomp, window, config, total, substeps=48)
    assert len(calls) == 3
    # every branch shares tau, so the skipped branch loses nothing against
    # plain propagation of rho_S
    family = reconstruct_family(model, window, FixedState(tau), substeps=48, band=config.m)
    direct = propagate(build_tensors(family, config), [rho_s], total, include_residuals=True)
    joint = evolve_state(rho0, model, TimeGrid(0.0, dt, total), substeps=48)
    for k, rho in enumerate(joint):
        assert trace_distance(combined[k], direct[k]) < 1e-9
        assert trace_distance(combined[k], partial_trace(rho, LAYOUT, "system")) < 2e-2


@pytest.mark.parametrize(
    "model, dt, config, match",
    [
        # 4 steps per period: c = 3 would miss the exact states by a trace distance of 0.356
        (example_model(), math.pi / 4, MemoryConfig(dt=math.pi / 4, m=8, c=3), "config.c=3"),
        (example_model(), math.pi / 4, MemoryConfig(dt=math.pi / 4, m=8, c=6), "every 4 steps"),
        (example_model(), 0.625, MemoryConfig(dt=0.625, m=8, c=5), "never repeats"),
        (
            LindbladModel(LAYOUT, example_model().static, example_model().jump_terms,
                          None, example_model().drives),
            math.pi / 4, MemoryConfig(dt=math.pi / 4, m=8, c=4), "never repeats",
        ),
        (example_model(), math.pi / 4, MemoryConfig(dt=1.1 * math.pi / 4, m=8, c=4), "config.dt"),
    ],
    ids=["c-not-a-multiple", "c-above-the-period", "incommensurate-grid",
         "no-declared-period", "dt-off-the-grid"],
)
def test_correlation_free_refuses_a_config_it_cannot_honour(model, dt, config, match):
    from memtensor.tomography import decompose_initial_state

    decomp = decompose_initial_state(example_initial_state(), LAYOUT)
    with pytest.raises(ValueError, match=match):
        propagate_correlation_free(model, decomp, TimeGrid(0.0, dt, 13), config, 38, substeps=48)


def test_empty_sets_refuse_the_radius_and_the_heuristic():
    config = MemoryConfig(dt=0.1, m=2, c=2)
    with pytest.raises(ValueError, match="empty tensor set"):
        stability_radius(TransferTensorSet(config))
    # tensors of length 1 only: none of the memory length m = 2
    with pytest.raises(KeyError, match="no stored tensors of length m=2"):
        memory_cutoff_heuristic(TransferTensorSet(config, {(0, 1): np.eye(4)}), config)


def reference_propagate(tensors, seed_states, total_steps, include_residuals=False):
    """The per-step loop: a dict lookup per tensor, re-Hermitized each step."""
    m = tensors.config.m
    n_seed = len(seed_states)
    if n_seed < 1:
        raise ValueError("need at least the initial state as seed")
    if not include_residuals and n_seed < min(m, total_steps + 1):
        raise ValueError("seed does not cover the memory window")
    trajectory = [np.array(s, dtype=complex) for s in seed_states[: total_steps + 1]]
    d = trajectory[0].shape[0]
    for k in range(n_seed, total_steps + 1):
        acc = np.zeros(d * d, dtype=complex)
        for l in range(1, min(k, m) + 1):
            acc += tensors.tensor(k - l, l) @ trajectory[k - l].reshape(-1, order="F")
        out = acc.reshape((d, d), order="F")
        if include_residuals and k <= m and k in tensors.residuals:
            out = out + tensors.residuals[k]
        trajectory.append(hermitize(out))
    return trajectory


def _random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return hermitize(a)


@st.composite
def tensor_sets(draw):
    """Random tensor sets (periodic or dense), seeds and horizons.

    Every tensor has operator norm 1/m, so trajectories stay bounded. A
    periodic set stores at most its ``transient_steps + c`` phases, so a
    missing phase must fail alike in both loops.
    """
    d = draw(st.sampled_from([2, 3]))
    c = draw(st.sampled_from([1, 2, 5, 7]))
    m = draw(st.integers(1, 9))
    transient = draw(st.sampled_from([0, 2]))
    dense = draw(st.sampled_from([False, False, True]))
    block = c * -(-m // c)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dense:
        window = draw(st.integers(m, m + 3 * block))
        keys = [(p, l) for l in range(1, m + 1) for p in range(window - l + 1)]
    else:
        starts = c + transient - draw(st.sampled_from([0, 0, 1]))
        keys = [(p, l) for p in range(starts) for l in range(1, m + 1)]
    tensors = {}
    for key in keys:
        t = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        tensors[key] = t / (m * operator_norm(t))
    residuals = {}
    if draw(st.booleans()):
        residuals = {k: 0.1 * _random_hermitian(rng, d) for k in range(1, m + 1)}
    tensor_set = TransferTensorSet(
        config=MemoryConfig(dt=0.1, m=m, c=c, transient_steps=transient),
        tensors=tensors,
        residuals=residuals,
        dense=dense,
    )
    seeds = [_random_hermitian(rng, d) for _ in range(draw(st.integers(1, m + 3)))]
    total = draw(st.integers(0, 2 * c + 4 * block + 2 * m + 4))
    return tensor_set, seeds, total, draw(st.booleans())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tensor_sets())
def test_propagate_matches_reference_loop(case):
    tensors, seeds, total, include_residuals = case
    try:
        expected = reference_propagate(tensors, seeds, total, include_residuals)
    except (KeyError, ValueError) as exc:
        with pytest.raises(type(exc)):
            propagate(tensors, seeds, total, include_residuals)
        return
    trajectory = propagate(tensors, seeds, total, include_residuals)
    assert len(trajectory) == len(expected) == total + 1
    for k, (got, want) in enumerate(zip(trajectory, expected)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"step {k}")
        if k >= len(seeds):
            np.testing.assert_array_equal(got, got.conj().T)


def test_norm_table_serves_phases_and_the_set_is_read_only(example_setup):
    _, _, grid, _, family, sys_traj = example_setup
    config = MemoryConfig(dt=grid.dt, m=4, c=5)
    tensors = build_tensors(family, config, max_length=7, exact_states=sys_traj)
    direct = sum(
        operator_norm(tensors.tensor(tensors.phase_of(20 - 8) + l, 8 - l))
        for l in range(1, 5)
    )
    assert error_bound(tensors, config, 20) == direct
    # one period later the same stored tensors serve, from the memoized sum
    assert error_bound(tensors, config, 25) == direct
    assert tensors._bounds == {(4, tensors.phase_of(12)): direct}
    profile = tensor_norm_profile(tensors)
    assert all(profile[(l, p)] == operator_norm(t) for (p, l), t in tensors.tensors.items())
    with pytest.raises(TypeError):
        tensors.tensors[(2, 2)] = 2 * tensors.tensors[(2, 2)]
    with pytest.raises(TypeError):
        tensors.residuals[1] = tensors.residuals[2]
    with pytest.raises(ValueError, match="read-only"):
        tensors.tensors[(2, 2)][0, 0] = 0
    with pytest.raises(AttributeError):
        tensors.tensors = {}


def test_stored_arrays_refuse_writes_and_a_callers_arrays_stay_writable(example_setup):
    _, _, grid, _, family, sys_traj = example_setup
    config = MemoryConfig(dt=grid.dt, m=4, c=5)
    tensors = build_tensors(family, config, max_length=7, exact_states=sys_traj)
    built = [*tensors.tensors.values(), *tensors.residuals.values()]
    assert tensors.residuals and not any(a.flags.writeable for a in built)
    # read-only arrays are stored as they are
    again = TransferTensorSet(config=config, tensors=dict(tensors.tensors))
    assert all(again.tensors[key] is t for key, t in tensors.tensors.items())
    # writable ones through read-only views, leaving the caller's arrays writable
    mine = {key: np.array(t) for key, t in tensors.tensors.items()}
    residuals = {k: np.array(r) for k, r in tensors.residuals.items()}
    copy = TransferTensorSet(config=config, tensors=mine, residuals=residuals)
    assert all(a.flags.writeable for a in [*mine.values(), *residuals.values()])
    stored = [*copy.tensors.values(), *copy.residuals.values()]
    assert not any(a.flags.writeable for a in stored)
    for key, t in copy.tensors.items():
        np.testing.assert_array_equal(t, tensors.tensors[key])
    for array in stored:
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0


def test_periodic_set_refuses_starts_past_its_phases(example_setup):
    _, _, grid, _, family, _ = example_setup
    config = MemoryConfig(dt=grid.dt, m=4, c=5, transient_steps=1)
    tensors = build_tensors(family, config)
    assert {p for p, _ in tensors.tensors} == set(range(6))
    extra = dict(tensors.tensors)
    extra[(6, 1)] = tensors.tensor(1, 1)
    with pytest.raises(ValueError, match="transient_steps"):
        TransferTensorSet(config=config, tensors=extra)
    assert TransferTensorSet(config=config, tensors=extra, dense=True).dense


def test_stability_radius_flags_the_unphysical_sweep_cells():
    # the cells of the default `error-sweep` (fixed policy, 64 substeps);
    # it flags (c, m) = (12, 5), (14, 6) and (14, 11) unphysical (error > 2)
    model = example_model()
    tau = partial_trace(example_initial_state(), LAYOUT, "environment")
    radii = {}
    for c in (6, 8, 12, 14):
        dt = model.period / c
        ms = [max(1, round(t / dt)) for t in (1.25, 2.5, 5.0, 10.0)]
        ms = [m for m in ms if 1.24 <= m * dt <= 10.01]
        cache = PropagatorCache(model, TimeGrid(0.0, dt, c + max(ms)), 64)
        for m in ms:
            grid = TimeGrid(0.0, dt, c + m)
            family = reconstruct_family(model, grid, FixedState(tau), 64, band=m, cache=cache)
            radii[(c, m)] = stability_radius(build_tensors(family, MemoryConfig(dt, m, c)))
    assert len(radii) == 13
    assert {key for key, r in radii.items() if r > 1 + 1e-6} == {(12, 5), (14, 6), (14, 11)}
    # trace preservation pins the radius of a stable truncation at 1
    assert all(abs(r - 1) < 1e-9 for key, r in radii.items() if r <= 1 + 1e-6)


def test_stability_radius_refuses_dense_sets(example_setup):
    _, _, grid, _, family, _ = example_setup
    config = MemoryConfig(dt=grid.dt, m=4, c=5)
    with pytest.raises(ValueError, match="dense"):
        stability_radius(build_tensors(family, config, dense_window=grid.steps))
    assert stability_radius(build_tensors(family, config)) == pytest.approx(1.0, abs=1e-9)
