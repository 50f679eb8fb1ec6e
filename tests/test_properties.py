"""The paper's exact identities as properties over random layouts and models."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtensor.linalg import (
    SpaceLayout,
    embed_environment_superop,
    from_coordinates,
    hermitian_basis,
    partial_trace,
    superop_from_coordinates,
    superop_to_coordinates,
    to_coordinates,
    trace_out_superop,
    vectorize,
)
from memtensor.models import LindbladModel, PropagatorCache, TimeGrid, evolve_state, liouvillian
from memtensor.serialization import (
    family_from_json,
    family_to_json,
    tensors_from_json,
    tensors_to_json,
)
from memtensor.tomography import FixedState, check_cptp, reconstruct_family
from memtensor.transfer import MemoryConfig, build_tensors, propagate
from test_models import lindblad_rhs, superop_from_action
from test_tomography import by_route, reference_reconstruct_family

GRID = TimeGrid(0.0, 0.3, 6)
SUBSTEPS = 8


def _random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _through_text(doc):
    return json.loads(json.dumps(doc))


def _assert_same_matrices(got, want):
    assert got.keys() == want.keys()
    for key, matrix in want.items():
        np.testing.assert_array_equal(got[key], matrix, err_msg=f"{key}")


def _random_state(rng, d):
    a = _random_matrix(rng, d)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _random_hermitian(rng, d):
    a = _random_matrix(rng, d)
    return 0.5 * (a + a.conj().T)


def _drives(draw, hermitian):
    """0 to 2 drives ``(hermitian(), w, phi)`` with ``w`` in {2, 4} and a random
    phase, the second one sharing the first's envelope when so drawn, and the
    period pi when there is a drive."""
    drives = []
    for k in range(draw(st.integers(0, 2))):
        if k and draw(st.booleans()):
            envelope = drives[0][1:]
        else:
            envelope = (draw(st.sampled_from([2.0, 4.0])), draw(st.floats(0, 2 * math.pi)))
        drives.append((hermitian(), *envelope))
    return drives, (math.pi if drives else None)


@st.composite
def random_models(draw):
    """A d_S = 2 model with a d_E in {1, 2, 3, 4} environment, a random
    Hermitian H_0 plus 0 to 2 random cosine drives and one random jump
    operator, plus a random correlated joint state and a random reference
    environment state."""
    de = draw(st.sampled_from([1, 2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = 2 * de
    drives, period = _drives(draw, lambda: _random_hermitian(rng, d))
    jump = (_random_matrix(rng, d) / d, float(rng.uniform(0.1, 1.0)))
    model = LindbladModel(SpaceLayout(2, de), _random_hermitian(rng, d), [jump], period, drives)
    return model, _random_state(rng, d), _random_state(rng, de)


@st.composite
def uncoupled_models(draw):
    """A d_S = 2 system and a d_E in {2, 3, 4} environment that never
    interact: every term of H (static or driven) is ``H_S (x) 1 + 1 (x) H_E``,
    and one random jump acts on one factor only; plus a random reference state."""
    de = draw(st.sampled_from([2, 3, 4]))
    on_system = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eye_s, eye_e = np.eye(2), np.eye(de)

    def uncoupled():
        h_s, h_e = _random_hermitian(rng, 2), _random_hermitian(rng, de)
        return np.kron(h_s, eye_e) + np.kron(eye_s, h_e)

    drives, period = _drives(draw, uncoupled)
    if on_system:
        jump = np.kron(_random_matrix(rng, 2) / 2, eye_e)
    else:
        jump = np.kron(eye_s, _random_matrix(rng, de) / de)
    rate = float(rng.uniform(0.1, 1.0))
    model = LindbladModel(SpaceLayout(2, de), uncoupled(), [(jump, rate)], period, drives)
    return model, _random_state(rng, de)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(random_models(), st.lists(st.floats(-10, 10), min_size=1, max_size=3))
def test_liouvillian_is_the_elementwise_lindblad_rhs(case, times):
    model = case[0]
    d = model.layout.dim_joint
    for t in times:
        oracle = superop_from_action(lambda x: lindblad_rhs(model, t, x), d)
        np.testing.assert_allclose(liouvillian(model, t), oracle, rtol=0, atol=1e-13)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(random_models())
def test_paper_identities_hold_for_random_models(case):
    model, rho0, tau = case
    cache = PropagatorCache(model, GRID, SUBSTEPS)
    family = reconstruct_family(model, GRID, FixedState(tau), SUBSTEPS, rho0, cache=cache)
    for key, lam in family.maps.items():
        assert check_cptp(lam, tol=1e-8).passed, key

    joint = evolve_state(rho0, model, GRID, SUBSTEPS, cache=cache)
    exact = [partial_trace(r, model.layout, "system") for r in joint]
    memory = MemoryConfig(dt=GRID.dt, m=GRID.steps, c=1)
    tensors = build_tensors(family, memory, exact_states=exact, dense_window=GRID.steps)

    # trace preservation: tr T(1)X = tr X, and tr T(l)X = 0 for l >= 2
    costate = vectorize(np.eye(2)).conj()
    for (start, length), t in tensors.tensors.items():
        expected = costate if length == 1 else 0 * costate
        np.testing.assert_allclose(costate @ t, expected, rtol=0, atol=1e-10)

    # full memory plus residuals reproduces the exact states from rho(0) alone
    trajectory = propagate(tensors, exact[:1], GRID.steps, include_residuals=True)
    for k, (got, want) in enumerate(zip(trajectory, exact)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, err_msg=f"step {k}")

    # the family and the dense set survive their JSON documents bit for bit,
    # and so does the trajectory propagated from the loaded set
    loaded_family = family_from_json(_through_text(family_to_json(family)))
    _assert_same_matrices(loaded_family.maps, family.maps)
    _assert_same_matrices(loaded_family.reference_states, family.reference_states)
    doc = _through_text(tensors_to_json(tensors))
    loaded = tensors_from_json(doc)
    assert loaded.dense and loaded.config == memory
    _assert_same_matrices(loaded.tensors, tensors.tensors)
    _assert_same_matrices(loaded.residuals, tensors.residuals)
    reloaded = propagate(loaded, exact[:1], GRID.steps, include_residuals=True)
    np.testing.assert_array_equal(np.array(reloaded), np.array(trajectory))
    # without its flag the document is periodic, and its later starts refused
    del doc["dense"]
    with pytest.raises(ValueError, match="periodic"):
        tensors_from_json(doc)

    # a trivial environment leaves a divisible family: no memory at all
    if model.layout.dim_environment == 1:
        for (start, length), t in tensors.tensors.items():
            if length >= 2:
                np.testing.assert_allclose(t, 0, rtol=0, atol=1e-10)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(uncoupled_models())
def test_uncoupled_environment_leaves_no_memory(case):
    # the reduced maps are the system's own, a divisible family whatever the
    # reference state: every tensor of length 2 or more vanishes
    model, tau = case
    family = reconstruct_family(model, GRID, FixedState(tau), SUBSTEPS)
    memory = MemoryConfig(dt=GRID.dt, m=GRID.steps, c=1)
    tensors = build_tensors(family, memory, dense_window=GRID.steps)
    assert {l for _, l in tensors.tensors} == set(range(1, GRID.steps + 1))
    for (start, length), t in tensors.tensors.items():
        if length >= 2:
            np.testing.assert_allclose(t, 0, rtol=0, atol=1e-10, err_msg=f"{(start, length)}")


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(random_models(), st.sampled_from([None, 1, 3]))
def test_action_route_matches_the_per_chain_dense_loop(case, band):
    model, _, tau = case
    policy = FixedState(tau)
    want = reference_reconstruct_family(model, GRID, policy, SUBSTEPS, band=band)
    with by_route(action=True):
        family = reconstruct_family(model, GRID, policy, SUBSTEPS, band=band)
    assert family.maps.keys() == want.keys()
    for key, lam in want.items():
        np.testing.assert_allclose(family.maps[key], lam, rtol=0, atol=1e-12, err_msg=f"{key}")


@st.composite
def hermiticity_preserving_maps(draw):
    """A layout with d_S in {2, 3} and d_E in {1, ..., 4}, and the maps that
    the package converts there: a random square ``B R B^dag`` with ``R``
    real, ``tr_E`` and ``X -> X (x) tau`` for a random state ``tau``; plus a
    random Hermitian joint operator."""
    layout = SpaceLayout(draw(st.sampled_from([2, 3])), draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = layout.dim_joint
    basis = hermitian_basis(d)  # the test's own basis
    square = basis @ rng.normal(size=(d * d, d * d)) @ basis.conj().T
    tau = _random_state(rng, layout.dim_environment)
    maps = [square, trace_out_superop(layout, "system"), embed_environment_superop(tau, layout)]
    return maps, _random_hermitian(rng, d)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(hermiticity_preserving_maps())
def test_coordinate_conversions_round_trip_across_layouts(case):
    maps, x = case
    for s in maps:
        coords = superop_to_coordinates(s)
        assert coords.shape == s.shape
        np.testing.assert_allclose(coords.imag, 0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(superop_from_coordinates(coords.real), s, rtol=0, atol=1e-13)
    coords = to_coordinates(vectorize(x))
    np.testing.assert_allclose(coords.imag, 0, rtol=0, atol=1e-13)
    back = from_coordinates(coords.real)
    np.testing.assert_allclose(back, vectorize(x), rtol=0, atol=1e-13)
    op = back.reshape(len(x), len(x)).T
    np.testing.assert_array_equal(op, op.conj().T)  # real coordinates give exact Hermiticity
