"""Vectorization conventions, partial trace, norms."""

import numpy as np
import pytest

from memtensor.linalg import (
    SpaceLayout,
    apply_superop,
    devectorize,
    embed_environment_superop,
    embed_system_superop,
    coordinate_basis,
    hermitian_basis,
    hermitize,
    left_mult_superop,
    expm_action,
    from_coordinates,
    matrix_exponential,
    operator_norm,
    partial_trace,
    right_mult_superop,
    sandwich_superop,
    taylor_exponential,
    trace_distance,
    trace_norm,
    trace_out_superop,
    validate_density_operator,
    vectorize,
)

RNG = np.random.default_rng(20260811)


def random_complex(rows, cols=None):
    cols = rows if cols is None else cols
    return RNG.standard_normal((rows, cols)) + 1j * RNG.standard_normal((rows, cols))


def random_state(d):
    a = random_complex(d)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
KET_MINUS = np.array([1.0, -1.0]) / np.sqrt(2)


def projector(ket):
    return np.outer(ket, ket.conj())


def test_vectorize_identity_column_stacking():
    assert np.array_equal(vectorize(np.eye(2)), [1, 0, 0, 1])
    # off-diagonal placement pins the column convention
    e01 = np.zeros((2, 2))
    e01[0, 1] = 1.0
    assert np.array_equal(vectorize(e01), [0, 0, 1, 0])


def test_vectorize_round_trip_exact():
    for rows, cols in [(4, 4), (3, 5), (2, 2), (1, 7)]:
        x = random_complex(rows, cols)
        assert np.array_equal(devectorize(vectorize(x), rows, cols), x)


def test_devectorize_size_error():
    with pytest.raises(ValueError):
        devectorize(np.arange(5), 2, 2)


def test_sandwich_superop_matches_direct_product():
    # oracle: explicit A X B^dag
    for _ in range(5):
        a, b, x = random_complex(3), random_complex(3), random_complex(3)
        direct = a @ x @ b.conj().T
        via_superop = devectorize(sandwich_superop(a, b) @ vectorize(x), 3)
        np.testing.assert_allclose(via_superop, direct, atol=1e-13)


def test_sandwich_identity_is_identity_superop():
    np.testing.assert_array_equal(sandwich_superop(np.eye(2), np.eye(2)), np.eye(4))


def test_commutator_from_left_right_superops():
    for _ in range(5):
        a, x = random_complex(2), random_complex(2)
        comm = left_mult_superop(a) - right_mult_superop(a)
        np.testing.assert_allclose(
            devectorize(comm @ vectorize(x), 2), a @ x - x @ a, atol=1e-13
        )


def test_sandwich_jump_operator_on_state():
    # L = 1 (x) |0><1| acting on a joint two-qubit state
    l_op = np.kron(np.eye(2), np.outer(KET0, KET1))
    rho = random_state(4)
    np.testing.assert_allclose(
        apply_superop(sandwich_superop(l_op, l_op), rho),
        l_op @ rho @ l_op.conj().T,
        atol=1e-13,
    )


def test_partial_trace_product_state():
    layout = SpaceLayout(2, 3)
    rho, tau = random_state(2), random_state(3)
    np.testing.assert_allclose(
        partial_trace(np.kron(rho, tau), layout, "system"), rho, atol=1e-13
    )
    np.testing.assert_allclose(
        partial_trace(np.kron(rho, tau), layout, "environment"), tau, atol=1e-13
    )


def test_partial_trace_bell_state():
    bell = np.zeros((4, 4), dtype=complex)
    phi = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
    bell = np.outer(phi, phi.conj())
    np.testing.assert_allclose(
        partial_trace(bell, SpaceLayout(2, 2), "system"), np.eye(2) / 2, atol=1e-13
    )


def test_partial_trace_correlated_two_qubit_state():
    rho_se = 0.75 * np.kron(projector(KET0), projector(KET_PLUS)) + 0.25 * np.kron(
        projector(KET1), projector(KET_MINUS)
    )
    reduced = partial_trace(rho_se, SpaceLayout(2, 2), "system")
    np.testing.assert_allclose(reduced, np.diag([0.75, 0.25]), atol=1e-13)


def test_partial_trace_preserves_trace_and_linearity():
    layout = SpaceLayout(2, 2)
    for _ in range(5):
        x, y = random_complex(4), random_complex(4)
        a, b = RNG.standard_normal(2)
        for keep in ("system", "environment"):
            assert abs(np.trace(partial_trace(x, layout, keep)) - np.trace(x)) < 1e-12
            np.testing.assert_allclose(
                partial_trace(a * x + b * y, layout, keep),
                a * partial_trace(x, layout, keep) + b * partial_trace(y, layout, keep),
                atol=1e-12,
            )


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(3), SpaceLayout(2, 2), "system")


def test_trace_out_superop_matches_partial_trace():
    layout = SpaceLayout(2, 2)
    mat = trace_out_superop(layout, "system")
    x = random_complex(4)
    np.testing.assert_allclose(
        devectorize(mat @ vectorize(x), 2), partial_trace(x, layout, "system"), atol=1e-13
    )


def test_embed_environment_superop():
    layout = SpaceLayout(2, 2)
    tau = random_state(2)
    mat = embed_environment_superop(tau, layout)
    x = random_complex(2)
    np.testing.assert_allclose(
        devectorize(mat @ vectorize(x), 4), np.kron(x, tau), atol=1e-13
    )


# Column-loop definitions of the superoperator builders: column ``k`` is the
# image of the ``k``-th matrix unit under the map. The builders themselves
# are single reshapes/einsums and must agree exactly.


def column_loop(fn, dim_in):
    cols = []
    for k in range(dim_in * dim_in):
        unit = np.zeros(dim_in * dim_in)
        unit[k] = 1.0
        cols.append(vectorize(fn(devectorize(unit, dim_in))))
    return np.column_stack(cols)


LAYOUTS = [SpaceLayout(ds, de) for ds in (2, 3) for de in (1, 2, 3)]


@pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: f"{l.dim_system}x{l.dim_environment}")
def test_superop_builders_match_column_loops(layout):
    ds, de = layout.dim_system, layout.dim_environment
    tau = random_complex(de)
    sigma = random_complex(ds)
    for keep in ("system", "environment"):
        want = column_loop(lambda x: partial_trace(x, layout, keep), layout.dim_joint)
        np.testing.assert_array_equal(trace_out_superop(layout, keep), want)
    np.testing.assert_array_equal(
        embed_environment_superop(tau, layout), column_loop(lambda x: np.kron(x, tau), ds)
    )
    np.testing.assert_array_equal(
        embed_system_superop(sigma, layout), column_loop(lambda y: np.kron(sigma, y), de)
    )


def test_trace_out_superop_rejects_unknown_factor():
    with pytest.raises(ValueError):
        trace_out_superop(SpaceLayout(2, 2), "bath")


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hermitian_basis(d):
    b = hermitian_basis(d)
    np.testing.assert_allclose(b.conj().T @ b, np.eye(d * d), atol=1e-15)
    for col in b.T:
        element = devectorize(col, d)
        np.testing.assert_array_equal(element, element.conj().T)
    # real coordinates of a Hermitian operator, and the tensor-then-hermitize
    # map as one real matrix
    x = hermitize(random_complex(d))
    coords = b.conj().T @ vectorize(x)
    assert np.abs(coords.imag).max() < 1e-15
    np.testing.assert_allclose(devectorize(b @ coords.real, d), x, atol=1e-14)
    t = random_complex(d * d)
    real_t = (b.conj().T @ t @ b).real
    expected = (b.conj().T @ vectorize(hermitize(apply_superop(t, x)))).real
    np.testing.assert_allclose(real_t @ coords.real, expected, atol=1e-13)
    # the cached basis of the coordinate conversions, for Liouville dimension d^2 only
    cached = coordinate_basis(d * d)
    np.testing.assert_array_equal(cached, b)
    assert not cached.flags.writeable
    with pytest.raises(ValueError, match="not a square"):
        coordinate_basis(d * d + 1)


@pytest.mark.parametrize("dtype", [float, complex])
def test_from_coordinates_of_a_long_stack_gives_each_row_its_own_bits(dtype):
    # 2,500 rows convert in chunks: the same bits as one row at a time
    rng = np.random.default_rng(7)
    coords = rng.normal(size=(2500, 4)).astype(dtype)
    if dtype is complex:
        coords += 1j * rng.normal(size=coords.shape)
    whole = from_coordinates(coords)
    assert whole.shape == coords.shape and whole.dtype == complex
    np.testing.assert_array_equal(whole, [from_coordinates(row) for row in coords])
    stacked = from_coordinates(coords.reshape(50, 50, 4))
    np.testing.assert_array_equal(stacked, whole.reshape(50, 50, 4))


def test_matrix_exponential_of_a_stack():
    stack = np.stack([random_complex(3) for _ in range(4)])
    batched = matrix_exponential(stack, 0.3)
    for m, e in zip(stack, batched):
        np.testing.assert_array_equal(e, matrix_exponential(m, 0.3))
    with pytest.raises(ValueError):
        matrix_exponential(np.zeros((2, 3)))


def test_matrix_exponential_small_cases():
    np.testing.assert_array_equal(matrix_exponential(np.zeros((3, 3)), 1.0), np.eye(3))
    thetas = np.array([0.3, -1.2, 2.5])
    np.testing.assert_allclose(
        matrix_exponential(np.diag(1j * thetas), 1.0),
        np.diag(np.exp(1j * thetas)),
        atol=1e-13,
    )


def test_matrix_exponential_antihermitian_is_unitary():
    a = random_complex(4)
    m = a - a.conj().T
    u = matrix_exponential(m, 0.7)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)


def test_matrix_exponential_commuting_composition():
    a = random_complex(4)
    m = a + a.conj().T
    np.testing.assert_allclose(
        matrix_exponential(m, 0.9),
        matrix_exponential(m, 0.4) @ matrix_exponential(m, 0.5),
        atol=1e-10,
    )


@pytest.mark.parametrize("coordinates", ["real", "complex"])
@pytest.mark.parametrize("k", [1, 7, 64])
@pytest.mark.parametrize("norm", [1e-4, 0.05, 1.0, 5.0, 20.0])
def test_taylor_exponential_matches_the_pade_exponential(norm, k, coordinates):
    # Hermiticity-preserving generators B R B^dag: the real stack R is what
    # ordered_exponential exponentiates, the complex one the same in operator
    # space; 1-norms from no squaring to four squarings
    basis = hermitian_basis(4)
    real = RNG.standard_normal((k, 16, 16))
    real *= norm / np.abs(real).sum(axis=1).max()
    stack = real if coordinates == "real" else basis @ real @ basis.conj().T
    got = taylor_exponential(stack, 0.5)
    assert got.shape == stack.shape and got.dtype == stack.dtype
    for m, e in zip(stack, got):
        want = matrix_exponential(m, 0.5)
        np.testing.assert_allclose(e, want, rtol=0, atol=1e-13 * np.abs(want).max())


def test_taylor_exponential_small_cases():
    np.testing.assert_array_equal(taylor_exponential(np.zeros((2, 3, 3))), np.stack([np.eye(3)] * 2))
    thetas = np.array([0.3, -1.2, 2.5])
    np.testing.assert_allclose(
        taylor_exponential(np.diag(1j * thetas)[None]),
        np.diag(np.exp(1j * thetas))[None],
        rtol=0,
        atol=1e-15,
    )
    # one ulp above theta[18] * 2^4, where log2 of the ratio rounds to exactly 4
    x = np.nextafter(1.09 * 16, np.inf)
    np.testing.assert_allclose(
        taylor_exponential(np.diag([x, 0.0])[None])[0], np.diag([np.exp(x), 1.0]), rtol=1e-13
    )
    for bad in (np.zeros((3, 3)), np.zeros((2, 3, 4))):
        with pytest.raises(ValueError, match="stack of square matrices"):
            taylor_exponential(bad)
    with pytest.raises(ValueError, match="non-finite"):
        taylor_exponential(np.full((1, 2, 2), np.inf))


@pytest.mark.parametrize("norm", [0.05, 0.8, 3.0, 40.0])
def test_expm_action_matches_the_exponential(norm):
    # one-norms from a short series to several scaling sub-intervals
    m = random_complex(12)
    m *= norm / np.abs(m).sum(axis=0).max()
    block = random_complex(12, 3)
    want = matrix_exponential(m, 0.5) @ block
    got = expm_action(m, block, 0.5)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
    vector = block[:, 0]
    np.testing.assert_allclose(
        expm_action(m, vector, 0.5), want[:, 0], rtol=0, atol=1e-13 * np.abs(want).max()
    )


def test_expm_action_edge_cases():
    block = random_complex(4, 2)
    np.testing.assert_array_equal(expm_action(np.zeros((4, 4)), block), block)
    np.testing.assert_array_equal(expm_action(random_complex(4), block, 0.0), block)
    out = expm_action(np.eye(4), block, 0.0)
    assert out is not block  # the input is never returned or changed
    with pytest.raises(ValueError):
        expm_action(random_complex(4), random_complex(3, 2))
    with pytest.raises(ValueError):
        expm_action(np.zeros((4, 3)), random_complex(3, 2))


def test_norms_trivial_values():
    assert abs(operator_norm(np.eye(4)) - 1.0) < 1e-14
    rho = random_state(3)
    assert trace_distance(rho, rho) < 1e-14
    assert abs(trace_distance(projector(KET0), projector(KET1)) - 2.0) < 1e-13


def test_trace_norm_is_sum_of_singular_values():
    x = random_complex(3)
    assert abs(trace_norm(x) - np.linalg.svd(x, compute_uv=False).sum()) < 1e-12


def test_trace_norm_of_a_stack_is_that_of_each_matrix():
    stack = np.array([random_complex(3) for _ in range(6)]).reshape(2, 3, 3, 3)
    assert isinstance(trace_norm(stack[0, 0]), float)
    assert isinstance(trace_distance(stack[0, 0], stack[1, 2]), float)
    norms = trace_norm(stack)
    assert norms.shape == (2, 3)
    np.testing.assert_array_equal(norms, [[trace_norm(x) for x in row] for row in stack])
    distances = trace_distance(stack, stack[::-1])
    want = [[trace_distance(x, y) for x, y in zip(a, b)] for a, b in zip(stack, stack[::-1])]
    np.testing.assert_array_equal(distances, want)


def test_trace_distance_symmetry_and_triangle():
    for _ in range(5):
        a, b, c = (random_state(3) for _ in range(3))
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


def test_validate_density_operator():
    validate_density_operator(np.diag([0.5, 0.5]))
    with pytest.raises(ValueError):
        validate_density_operator(np.diag([0.6, 0.6]))
    with pytest.raises(ValueError):
        validate_density_operator(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        validate_density_operator(np.diag([1.5, -0.5]))
    validate_density_operator(hermitize(random_state(4)))
