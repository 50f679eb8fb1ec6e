"""Dense linear algebra on Liouville (operator) space.

Operators are plain complex ``numpy`` arrays. Superoperators are matrices
acting on vectorized operators, with a single global convention:

* **Column-stacking vectorization.** ``vectorize(X)[i + rows*j] = X[i, j]``,
  i.e. the columns of ``X`` are stacked top to bottom. Under this convention
  the map ``X -> A X B`` has matrix ``kron(B.T, A)``.
* **Tensor ordering.** Joint system-environment operators put the system
  factor first: a joint basis index is ``s * dim_env + e``.
* **Hermitian coordinates.** Hermitian operators and the maps that preserve
  Hermiticity are real in the basis of :func:`coordinate_basis`, used here only.

Everything here is a pure function of its inputs; nothing is mutated. The
module needs ``numpy`` alone: ``scipy.linalg.expm``, which only the reference
:func:`matrix_exponential` calls, is imported the first time something reads
``memtensor.linalg.expm`` (a module ``__getattr__``), so importing the package
does not load ``scipy``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np


def __getattr__(name: str):
    """Import ``scipy.linalg.expm`` as the module global ``expm`` on first
    read; it stays rebindable like any global."""
    if name != "expm":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.linalg import expm

    globals()["expm"] = expm
    return expm


def _integer(value, name: str, low: int) -> int:
    """``value`` as an ``int`` of at least ``low`` (never a bool), else
    ``ValueError`` naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SpaceLayout:
    """Dimensions of the system / environment factors of a joint space."""

    dim_system: int
    dim_environment: int

    def __post_init__(self):
        _integer(self.dim_system, "dim_system", 2)
        _integer(self.dim_environment, "dim_environment", 1)

    @property
    def dim_joint(self) -> int:
        return self.dim_system * self.dim_environment


def vectorize(x: np.ndarray) -> np.ndarray:
    """Column-stack a matrix, or each matrix of a stack, into a vector."""
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError(f"expected a matrix, got shape {x.shape}")
    return np.swapaxes(x, -1, -2).reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1])


def devectorize(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`vectorize`, along the last axis; exact round trip."""
    v = np.asarray(v)
    if cols is None:
        cols = rows
    if v.shape[-1:] != (rows * cols,):
        raise ValueError(f"vectors of shape {v.shape} are not {rows}x{cols}")
    return np.swapaxes(v.reshape(*v.shape[:-1], cols, rows), -1, -2)


def sandwich_superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of the map ``X -> A X B^dag`` on vectorized operators."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"need square matrices of equal size, got {a.shape}, {b.shape}")
    return np.kron(b.conj(), a)


def left_mult_superop(a: np.ndarray) -> np.ndarray:
    """Matrix of ``X -> A X``."""
    a = np.asarray(a)
    return np.kron(np.eye(a.shape[0]), a)


def right_mult_superop(b: np.ndarray) -> np.ndarray:
    """Matrix of ``X -> X B``."""
    b = np.asarray(b)
    return np.kron(b.T, np.eye(b.shape[0]))


def apply_superop(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply a superoperator matrix to an operator, returning an operator."""
    d = x.shape[0]
    return devectorize(s @ vectorize(x), d, x.shape[1])


def partial_trace(x: np.ndarray, layout: SpaceLayout, keep: str = "system") -> np.ndarray:
    """Trace out one tensor factor of a joint-space operator.

    Parameters
    ----------
    x : ndarray
        Operator on the joint space, shape ``(d_S*d_E, d_S*d_E)``, or a
        stack ``(..., d_S*d_E, d_S*d_E)`` of them.
    layout : SpaceLayout
        Factor dimensions; system factor first.
    keep : {"system", "environment"}
        Which factor survives.
    """
    ds, de = layout.dim_system, layout.dim_environment
    x = np.asarray(x)
    if x.shape[-2:] != (ds * de, ds * de):
        raise ValueError(f"operator shape {x.shape} does not match layout {ds}x{de}")
    x4 = x.reshape(*x.shape[:-2], ds, de, ds, de)
    if keep == "system":
        return np.einsum("...aebe->...ab", x4)
    if keep == "environment":
        return np.einsum("...aeaf->...ef", x4)
    raise ValueError(f"keep must be 'system' or 'environment', got {keep!r}")


def trace_out_superop(layout: SpaceLayout, keep: str = "system") -> np.ndarray:
    """Matrix form of :func:`partial_trace` (joint vec -> factor vec)."""
    ds, de = layout.dim_system, layout.dim_environment
    eye_s, eye_e = np.eye(ds), np.eye(de)
    # axes: (column, row) of the kept factor, then the joint column and row,
    # each split into (system, environment); identities on the kept pairs,
    # and one on the traced pair that performs the trace
    if keep == "system":
        mat = np.einsum("bB,aA,fe->baBfAe", eye_s, eye_s, eye_e)
        return mat.reshape(ds * ds, -1).astype(complex)
    if keep == "environment":
        mat = np.einsum("fF,eE,ba->febFaE", eye_e, eye_e, eye_s)
        return mat.reshape(de * de, -1).astype(complex)
    raise ValueError(f"keep must be 'system' or 'environment', got {keep!r}")


def embed_environment_superop(tau: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """Matrix of ``X -> X (x) tau`` (system vec -> joint vec); a stack of
    ``tau`` gives the stack of matrices, in one contraction."""
    ds, d = layout.dim_system, layout.dim_joint
    eye_s = np.eye(ds)
    tau = np.asarray(tau, dtype=complex)
    mat = np.einsum("bB,aA,...ef->...bfaeBA", eye_s, eye_s, tau)
    return mat.reshape(*tau.shape[:-2], d * d, ds * ds)


def embed_system_superop(sigma: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """Matrix of ``Y -> sigma (x) Y`` (environment vec -> joint vec); a stack
    of ``sigma`` gives the stack of matrices, in one contraction."""
    de, d = layout.dim_environment, layout.dim_joint
    eye_e = np.eye(de)
    sigma = np.asarray(sigma, dtype=complex)
    mat = np.einsum("...ab,fF,eE->...bfaeFE", sigma, eye_e, eye_e)
    return mat.reshape(*sigma.shape[:-2], d * d, de * de)


def matrix_exponential(m: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """``exp(scale * M)`` via scaling-and-squaring Pade approximation.

    ``M`` may be a stack ``(K, n, n)``; each matrix is exponentiated on its
    own, in one call of the module's ``expm``, ``scipy.linalg.expm`` imported
    on the first call. The package's ordered exponentials use
    :func:`taylor_exponential` instead; this is its reference, and the only
    function that loads ``scipy``.
    """
    m = np.asarray(m)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    expm = globals().get("expm") or __getattr__("expm")
    return expm(scale * m)


# Largest 1-norm ``theta[m]`` of ``A`` for which the degree-``m`` Taylor
# polynomial gives ``exp(A) B`` to double precision (unit roundoff 2**-53):
# Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1.
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.70, 40: 6.00,
    45: 7.20, 50: 8.50, 55: 9.90,
}


def _block_coefficients(degree: int) -> np.ndarray:
    """Paterson-Stockmeyer split of the degree-``degree`` Taylor polynomial,
    ``p(A) = sum_i (A^q)^i C_i`` with ``q = ceil(sqrt(degree))``: row ``i``
    holds the coefficients ``1/(iq + j)!`` of ``A^j``, ``j < q``, in ``C_i``."""
    q = math.isqrt(degree - 1) + 1
    coefficients = np.zeros((degree // q + 1) * q)
    coefficients[: degree + 1] = [1 / math.factorial(k) for k in range(degree + 1)]
    return coefficients.reshape(-1, q)


# the degrees taylor_exponential uses: at most 18, as its scaling stops at theta[18]
_TAYLOR_BLOCKS = {degree: _block_coefficients(degree) for degree in range(1, 19)}


def taylor_exponential(m: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """``exp(scale * M)`` of every matrix of a stack ``(K, n, n)`` at once.

    One truncated Taylor series with scaling and squaring (Al-Mohy and
    Higham 2011) over the whole stack, by matrix products alone: no loop
    over the matrices and no LU solve. The largest 1-norm of ``scale * M``
    sets ``s`` squarings, the fewest that bring it to ``theta[18]``, and
    then the lowest degree ``d`` with ``||scale * M||_1 / 2^s <= theta[d]``;
    the polynomial is evaluated by Paterson-Stockmeyer, ``ceil(sqrt(d)) - 1
    + d // ceil(sqrt(d))`` products. ``scale * M / 2^s`` is the only copy of
    the stack made. A real stack stays real.
    """
    m = np.asarray(m)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {m.shape}")
    # column sums by one contiguous reduction, the bits of ``sum(axis=1)``
    norm = abs(scale) * float(np.einsum("kij->kj", np.abs(m)).max(initial=0.0))
    if not math.isfinite(norm):
        raise ValueError("stack has non-finite entries")
    squarings = 0
    while norm > _TAYLOR_THETA[18]:  # halving is exact: no rounding past theta[18]
        norm /= 2.0
        squarings += 1
    degree = next(d for d in range(1, 19) if _TAYLOR_THETA[d] >= norm)
    coefficients = _TAYLOR_BLOCKS[degree]
    r, q = coefficients.shape[0] - 1, coefficients.shape[1]
    powers = np.empty((q + 1, *m.shape), dtype=np.result_type(m, scale))  # I, A, ..., A^q
    powers[0] = np.eye(m.shape[1])
    a = np.multiply(m, scale / 2.0**squarings, out=powers[1])
    for j in range(2, q + 1):
        np.matmul(powers[j - 1], a, out=powers[j])
    flat = powers[:q].reshape(q, -1)
    out = (coefficients[r] @ flat).reshape(m.shape)
    for i in reversed(range(r)):
        out = out @ powers[q]
        out += (coefficients[i] @ flat).reshape(m.shape)
    for _ in range(squarings):
        out = out @ out
    return out


def expm_action(m: np.ndarray | list | tuple, b: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """``exp(scale * M) @ B`` without forming the exponential.

    Truncated Taylor series with scaling (Al-Mohy and Higham 2011): the
    degree ``d`` and the number ``s`` of sub-intervals minimise ``d * s``
    subject to ``||scale * M||_1 <= s * theta[d]``, with the exact 1-norm,
    and each sub-interval's series stops at the first term ``T_j`` with
    ``||T_j-1|| + ||T_j|| <= 2^-53 ||sum||`` (infinity norms). ``B`` is an
    ``n``-vector or an ``(n, w)`` block; the cost is ``d * s`` products of
    ``M`` with ``B``, against about ten ``n x n`` products for ``expm``.
    ``M`` is a square matrix or a sequence of square diagonal blocks that
    tile ``B``'s rows in order: each product is then one per block, of its
    rows alone, and the 1-norm the largest over the blocks; everything else
    is taken over the whole ``B``, as for the dense matrix.

    Besides its product, a term costs one scaling, one addition and the
    largest entry ``e_j`` of ``|T_j|``, taken into one real buffer that the
    call allocates once: ``e_j <= ||T_j|| <= w e_j``, so ``||T_0|| + w sum
    e_j`` bounds the norm of the sum. The exact norms, row sums of the
    buffer, are taken only when the two latest terms' floors fall below
    2^-53 of that bound (with a 1e-9 margin for rounding), so the series
    stops where a test with every norm exact would stop it, bit for bit.
    A real ``M`` and ``B`` stay real; the result is C-ordered. A non-finite
    ``M``, ``B`` or ``scale * M`` is a ``ValueError`` naming it, read off
    the 1-norm and the first norm of ``B``, which the series needs anyway.
    """
    blocks = [np.asarray(x) for x in ((m,) if np.ndim(m[0]) < 2 else m)]
    out = np.array(b, dtype=np.result_type(*blocks, b, float), order="C")
    ends = np.cumsum([len(x) for x in blocks])
    if any(x.ndim != 2 or x.shape[0] != x.shape[1] for x in blocks) or ends[-1] != len(out):
        raise ValueError(f"need square diagonal blocks that tile the rows of B, got "
                         f"{[x.shape for x in blocks]}, {out.shape}")
    parts = [slice(end - len(x), end) for x, end in zip(blocks, ends)]
    norm_m = float(np.max([np.abs(x).sum(axis=0).max() for x in blocks]))
    if not math.isfinite(norm_m):
        raise ValueError("M has non-finite entries")
    absolute = np.empty(out.shape)  # |term| or |out|, one at a time
    rows = absolute.reshape(len(out), -1)  # a vector is one column
    width = rows.shape[1]

    def inf_norm(x: np.ndarray) -> float:
        np.abs(x, out=absolute)
        return float(rows.sum(axis=1).max())

    previous = inf_norm(out)
    if not math.isfinite(previous):
        raise ValueError("B has non-finite entries")
    norm = abs(scale) * norm_m
    if not math.isfinite(norm):
        raise ValueError(f"scale * M is not finite (scale = {scale!r})")
    if norm == 0.0:
        return out
    degree, s = min(
        ((d, math.ceil(norm / theta)) for d, theta in _TAYLOR_THETA.items()),
        key=lambda pair: pair[0] * pair[1],
    )
    for interval in range(s):
        if interval:
            previous = inf_norm(out)
        # ``previous`` is the last term's norm, or only its floor while that
        # term is ``held``; ``ceiling`` bounds the sum's norm
        ceiling, term, held = previous, out, None
        for j in range(1, degree + 1):
            term, previous_term = np.empty_like(out), term
            for block, part in zip(blocks, parts):
                np.matmul(block, previous_term[part], out=term[part])
            term *= scale / (s * j)
            floor = float(np.abs(term, out=absolute).max())
            out += term
            ceiling += width * floor
            if previous + floor > 2.0**-53 * ceiling * (1 + 1e-9):
                previous, held = floor, term
                continue
            if held is not None:
                previous = inf_norm(held)
            current = inf_norm(term)
            if previous + current <= 2.0**-53 * inf_norm(out):
                break
            previous, held = current, None
    return out


def operator_norm(s: np.ndarray) -> float | np.ndarray:
    """Largest singular value of a (super)operator matrix, or their array for a
    stack: ``sqrt(max(eigvalsh(S^dag S)[-1], 0))``, one batched Hermitian
    eigensolve (cheaper than SVDs), the same computation for a matrix as for
    each matrix of a stack."""
    s = np.asarray(s)
    gram = np.swapaxes(s.conj(), -1, -2) @ s
    norms = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
    return float(norms) if s.ndim == 2 else norms


def trace_norm(x: np.ndarray) -> float | np.ndarray:
    """Sum of singular values, ``tr|X|``, or their array for a stack
    ``(..., d, d)``: one batched SVD, the same computation for a matrix as
    for each matrix of a stack."""
    x = np.asarray(x)
    norms = np.linalg.svd(x, compute_uv=False).sum(axis=-1)
    return float(norms) if x.ndim == 2 else norms


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """``tr|rho - sigma|`` (no factor 1/2; orthogonal pure states give 2), or
    their array for stacks of states."""
    return trace_norm(np.asarray(rho) - np.asarray(sigma))


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the ``d x d`` Hermitian matrices, as vecs.

    Returns the unitary ``(d*d, d*d)`` matrix ``B`` whose columns are the
    column-stacked basis elements: the diagonal units ``E_jj``, then for each
    ``j < k`` the pair ``(E_jk + E_kj)/sqrt2`` and ``i(E_kj - E_jk)/sqrt2``.
    Any ``X`` has coordinates ``z = B^dag vec(X)``, and ``Re z`` are the
    (real) coordinates of its Hermitian part, so a superoperator ``T`` acts
    on Hermitian coordinates, followed by :func:`hermitize`, as the real
    matrix ``Re(B^dag T B)``.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    basis = np.zeros((d, d, d * d), dtype=complex)  # (row, column, element)
    diag = np.arange(d)
    basis[diag, diag, diag] = 1.0
    j, k = np.triu_indices(d, 1)  # the pairs j < k, in row-major order
    col = d + 2 * np.arange(len(j))
    basis[j, k, col] = basis[k, j, col] = 1 / np.sqrt(2)
    basis[j, k, col + 1], basis[k, j, col + 1] = -1j / np.sqrt(2), 1j / np.sqrt(2)
    return basis.transpose(1, 0, 2).reshape(d * d, d * d)


@functools.lru_cache(maxsize=None)
def coordinate_basis(n: int) -> np.ndarray:
    """``hermitian_basis(sqrt(n))``, read-only and built once per Liouville
    dimension ``n``; a dimension that is not a square is a ``ValueError``."""
    d = math.isqrt(n)
    if d * d != n:
        raise ValueError(f"Liouville dimension {n} is not a square")
    basis = hermitian_basis(d)
    basis.flags.writeable = False
    return basis


def to_coordinates(vecs: np.ndarray) -> np.ndarray:
    """``B^dag v`` of operator vectors along the last axis; the real part is
    that of the Hermitian part."""
    return vecs @ coordinate_basis(vecs.shape[-1]).conj()


def from_coordinates(coords: np.ndarray) -> np.ndarray:
    """Operator vectors ``B z`` of coordinates along the last axis; real ones
    give exactly Hermitian operators (``Re B`` and ``Im B`` apply apart). A
    stack converts 1,024 rows at a time, each to the bits it gets alone:
    temporaries that stay in cache make 10^4 rows about twice as fast."""
    basis = coordinate_basis(coords.shape[-1])
    rows = coords.reshape(-1, coords.shape[-1])
    out = np.empty(rows.shape, dtype=complex)
    chunk = 1024
    for lo in range(0, len(rows), chunk):
        block = rows[lo : lo + chunk]
        out[lo : lo + chunk] = block @ basis.real.T + 1j * (block @ basis.imag.T)
    return out.reshape(coords.shape)


def superop_to_coordinates(s: np.ndarray) -> np.ndarray:
    """``B_out^dag S B_in`` of each ``(n_out, n_in)`` superoperator (such as
    ``tr_E``); its real part is ``S`` followed by :func:`hermitize`."""
    return coordinate_basis(s.shape[-2]).conj().T @ s @ coordinate_basis(s.shape[-1])


def superop_from_coordinates(r: np.ndarray) -> np.ndarray:
    """``B_out R B_in^dag``: the inverse of :func:`superop_to_coordinates`."""
    return coordinate_basis(r.shape[-2]) @ r @ coordinate_basis(r.shape[-1]).conj().T


def hermitize(x: np.ndarray) -> np.ndarray:
    """Hermitian part ``(X + X^dag)/2``, of each matrix of a stack."""
    return 0.5 * (x + np.conj(np.swapaxes(x, -1, -2)))


def hermiticity_defect(x: np.ndarray) -> float:
    """Max elementwise ``|X - X^dag|``."""
    return float(np.max(np.abs(x - x.conj().T)))


def validate_density_operator(rho: np.ndarray) -> None:
    """Check Hermiticity and unit trace to 1e-12 and positivity down to an
    eigenvalue of -1e-10; raise ``ValueError`` on failure.

    Validation is deliberately explicit rather than baked into construction:
    cutoff-propagated states can legitimately leave the physical set and must
    still be representable.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density operator must be square, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density operator has non-finite entries")
    defect = hermiticity_defect(rho)
    if defect > 1e-12:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {defect:.3e}")
    tr_err = abs(np.trace(rho) - 1.0)
    if tr_err > 1e-12:
        raise ValueError(f"trace deviates from 1 by {tr_err:.3e}")
    min_eig = float(np.linalg.eigvalsh(hermitize(rho)).min())
    if min_eig < -1e-10:
        raise ValueError(f"negative eigenvalue {min_eig:.3e} below floor -1.0e-10")
