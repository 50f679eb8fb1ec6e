"""The paper's exact identities as properties over random layouts and models."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from memtensor.linalg import SpaceLayout, partial_trace, vectorize
from memtensor.models import LindbladModel, PropagatorCache, TimeGrid, evolve_state
from memtensor.tomography import FixedState, check_cptp, reconstruct_family
from memtensor.transfer import MemoryConfig, build_tensors, propagate

GRID = TimeGrid(0.0, 0.3, 6)
SUBSTEPS = 8


def _random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _random_state(rng, d):
    a = _random_matrix(rng, d)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


@st.composite
def random_models(draw):
    """A d_S = 2 model with a d_E in {1, 2, 3} environment, a random static or
    cos(2t)-driven Hermitian H and one random jump operator, plus a random
    correlated joint state and a random reference environment state."""
    de = draw(st.sampled_from([1, 2, 3]))
    driven = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = 2 * de
    h0, h1 = (0.5 * (a + a.conj().T) for a in (_random_matrix(rng, d), _random_matrix(rng, d)))
    if driven:
        hamiltonian, period = (lambda t: h0 + math.cos(2 * t) * h1), math.pi
    else:
        hamiltonian, period = (lambda t: h0), None
    jump = (_random_matrix(rng, d) / d, float(rng.uniform(0.1, 1.0)))
    model = LindbladModel(SpaceLayout(2, de), hamiltonian, [jump], period)
    return model, _random_state(rng, d), _random_state(rng, de)


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

    # a trivial environment leaves a divisible family: no memory at all
    if model.layout.dim_environment == 1:
        for (start, length), t in tensors.tensors.items():
            if length >= 2:
                np.testing.assert_allclose(t, 0, rtol=0, atol=1e-10)
