"""Vectorization conventions, partial trace, norms."""

import math

import numpy as np
import pytest

from memtensor.linalg import (
    _TAYLOR_THETA,
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
from memtensor.models import PAULI, LindbladModel, generator_stack

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


def _inf_norm(x):
    """Max row sum of ``|x|``; a vector counts as one column."""
    return float(np.abs(x).reshape(len(x), -1).sum(axis=1).max())


def _expm_action_testing_every_term(m, b, scale):
    """The series of ``expm_action`` with the sum's norm taken after every
    term; also returns how many sub-intervals stopped early."""
    out = np.array(b, dtype=np.result_type(m, b, float))
    norm = abs(scale) * float(np.abs(m).sum(axis=0).max())
    degree, s = min(
        ((d, int(np.ceil(norm / theta))) for d, theta in _TAYLOR_THETA.items()),
        key=lambda pair: pair[0] * pair[1],
    )
    stops, term = 0, out
    for _ in range(s):
        previous = _inf_norm(term)
        for j in range(1, degree + 1):
            term = m @ term
            term *= scale / (s * j)
            current = _inf_norm(term)
            out += term
            if previous + current <= 2.0**-53 * _inf_norm(out):
                stops += 1
                break
            previous = current
        term = out
    return out, stops, s


def _random_generator(norm, decay):
    """A complex 12x12 ``M`` of 1-norm ``norm``, the scale 1 and the generator
    for the block; a decaying ``M`` makes the sum far smaller than its terms'
    norms."""
    rng = np.random.default_rng(1)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    m *= (1 - decay) * norm / np.abs(m).sum(axis=0).max()
    m -= decay * norm * np.eye(12)
    return m, 1.0, rng


def _spin_bath_generator():
    """The real 256x256 generator, in Hermitian coordinates, of a qubit with
    XX and cos(2t) YY exchange to each qubit of a d_E = 8 spin bath (Z fields
    2.9, 3.0, 3.1, amplitude damping at rate 0.5), at the first midpoint of
    a pi/5 step in 16 substeps, with the substep pi/80 as the scale and a
    generator for the block."""

    def on(system, k, op):
        factors = [PAULI["I"]] * 3
        factors[k] = op
        return np.kron(system, np.kron(factors[0], np.kron(factors[1], factors[2])))

    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    static = 0.5 * on(PAULI["Z"], 0, PAULI["I"])
    static = static + sum(
        0.5 * field * on(PAULI["I"], k, PAULI["Z"]) + on(PAULI["X"], k, PAULI["X"])
        for k, field in enumerate([2.9, 3.0, 3.1])
    )
    model = LindbladModel(
        SpaceLayout(2, 8), static,
        jump_terms=[(on(PAULI["I"], k, lower), 0.5) for k in range(3)],
        period=math.pi,
        drives=[(on(PAULI["Y"], k, PAULI["Y"]), 2.0, 0.0) for k in range(3)],
    )
    return generator_stack(model, [math.pi / 160])[0], math.pi / 80, np.random.default_rng(2)


STOP_CASES = {
    "full-degree": (lambda: _random_generator(1e-3, 0.0), lambda s: 0),
    "early-stop": (lambda: _random_generator(0.8, 0.0), lambda s: 1),
    "sub-intervals": (lambda: _random_generator(40.0, 0.0), lambda s: s),
    "cancelling-sum": (lambda: _random_generator(10.0, 0.9), lambda s: 0),
    "spin-bath": (_spin_bath_generator, lambda s: s),
}


@pytest.mark.parametrize(
    "case, width",
    [(case, width) for case in STOP_CASES for width in (3, 4, 16)],
    ids=[case + ("" if width == 3 else f"-real-{width}") for case in STOP_CASES for width in (3, 4, 16)],
)
def test_expm_action_stops_where_a_test_of_every_term_stops(case, width):
    # exact norms are taken only where the stop may fire; the stop, and so
    # every bit, is kept. Width 3 is a complex block, 4 and 16 real ones.
    generator, stops = STOP_CASES[case]
    m, scale, rng = generator()
    block = rng.standard_normal((len(m), width))
    if width == 3:
        block = block + 0j
    want, stopped, intervals = _expm_action_testing_every_term(m, block, scale)
    assert stopped == stops(intervals)
    assert (intervals > 1) == (abs(scale) * np.abs(m).sum(axis=0).max() > 10)
    np.testing.assert_array_equal(expm_action(m, block, scale), want)
    vector = block[:, 0]
    np.testing.assert_array_equal(
        expm_action(m, vector, scale), _expm_action_testing_every_term(m, vector, scale)[0]
    )


@pytest.mark.parametrize(
    "which, value", [("M", np.nan), ("M", np.inf), ("B", np.nan), ("B", -np.inf)]
)
def test_expm_action_refuses_non_finite_input_naming_it(which, value):
    m, block = random_complex(4), random_complex(4, 2)
    (m if which == "M" else block)[1, 1] = value
    with pytest.raises(ValueError, match=f"^{which} has non-finite entries$"):
        expm_action(m, block, 0.5)


@pytest.mark.parametrize("scale", [np.inf, np.nan])
def test_expm_action_refuses_a_non_finite_scale(scale):
    with pytest.raises(ValueError, match="scale"):
        expm_action(random_complex(4), random_complex(4, 2), scale)


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


def _sector_blocks(sizes, norm, rng):
    """Random real diagonal blocks of ``sizes``, scaled to the 1-norm
    ``norm``; a random order of the rows that tiles them; and the dense
    matrix that acts as the blocks do on the rows in that order."""
    blocks = [rng.standard_normal((k, k)) for k in sizes]
    largest = max(np.abs(x).sum(axis=0).max() for x in blocks)
    blocks = [x * norm / largest for x in blocks]
    order = rng.permutation(sum(sizes))
    dense = np.zeros((len(order),) * 2)
    for x, rows in zip(blocks, np.split(order, np.cumsum(sizes)[:-1])):
        dense[np.ix_(rows, rows)] = x
    return blocks, order, dense


@pytest.mark.parametrize("norm", [0.05, 3.0, 40.0])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("width", [None, 5], ids=["vector", "block"])
def test_expm_action_on_blocks_matches_the_permuted_dense_call(norm, kind, width):
    # the blocks act on the rows in sector order; the dense matrix on the rows
    # as they stand. Only the products differ: each block multiplies its rows.
    rng = np.random.default_rng(31)
    blocks, order, dense = _sector_blocks([5, 3, 8], norm, rng)
    b = rng.standard_normal((16,) if width is None else (16, width))
    if kind == "complex":
        b = b + 1j * rng.standard_normal(b.shape)
    want = expm_action(dense, b, 0.5)
    got = np.empty_like(want)
    got[order] = expm_action(blocks, b[order], 0.5)
    assert got.dtype == want.dtype
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())


def test_expm_action_of_one_block_is_the_dense_call_bit_for_bit():
    blocks, _, _ = _sector_blocks([12], 3.0, np.random.default_rng(5))
    b = random_complex(12, 4)
    np.testing.assert_array_equal(expm_action(blocks, b, 0.5), expm_action(blocks[0], b, 0.5))


@pytest.mark.parametrize("which", [0, 1, 2])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_expm_action_refuses_a_non_finite_block(which, value):
    blocks, _, _ = _sector_blocks([5, 3, 8], 1.0, np.random.default_rng(7))
    blocks[which][1, 0] = value
    with pytest.raises(ValueError, match="^M has non-finite entries$"):
        expm_action(blocks, random_complex(16, 2), 0.5)


@pytest.mark.parametrize("sizes, rows", [([5, 3, 8], 15), ([5, 3, 8], 17), ([5, 3], 16)])
def test_expm_action_refuses_blocks_that_do_not_tile_b(sizes, rows):
    blocks, _, _ = _sector_blocks(sizes, 1.0, np.random.default_rng(9))
    with pytest.raises(ValueError, match="tile"):
        expm_action(blocks, random_complex(rows, 2), 0.5)


def test_expm_action_refuses_a_block_that_is_not_square():
    blocks, _, _ = _sector_blocks([5, 3, 8], 1.0, np.random.default_rng(11))
    blocks[1] = np.zeros((3, 4))
    with pytest.raises(ValueError, match="square"):
        expm_action(blocks, random_complex(16, 2), 0.5)


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
