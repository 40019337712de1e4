"""Dense symmetric linear algebra used by every estimator in the package.

All routines take plain ``numpy`` arrays and need nothing else.  Symmetric
inputs are validated at the public entry points.  :func:`factor_solve` is
the one Cholesky kernel: it factors a single matrix or a whole stack of
simulated machines' matrices, solves against a shared right-hand side by
forward and back substitution on the stacked factors and returns the
log-determinants, so positive definiteness failures surface as
:class:`~detavg.errors.NotPositiveDefinite` instead of silently wrong
results.  It skips the symmetry check, which :func:`solve_psd` and
:func:`adjugate` make before calling it.  :func:`inverse_forms` shares its
forward substitution and stops there, reading ``v^T M^-1 v = ||L^-1 v||^2``.

Determinants and adjugates come in two deliberately independent flavors:
a cofactor-expansion path that is exact (up to rounding) for arbitrary
symmetric matrices of dimension at most five, including singular and
indefinite ones, and a Cholesky-based path for larger positive definite
matrices.  The enumeration oracle leans on the cofactor path, which takes a
stack of shape (..., d, d) and expands every matrix of it at once; the two
paths are cross-checked in the test suite rather than sharing code.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NegativeQuadraticForm, NonFiniteResult, NotPositiveDefinite

# Largest dimension for which the O(d!) cofactor expansion is the default.
_COFACTOR_MAX_DIM = 5

_SYM_RTOL = 1e-10


def require_symmetric(M: np.ndarray) -> np.ndarray:
    """Validate that ``M`` is a square symmetric matrix and return it as float."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.abs(M).max()) if M.size else 1.0)
    if not np.allclose(M, M.T, rtol=0.0, atol=_SYM_RTOL * scale):
        raise ValueError("matrix is not symmetric")
    return M


def require_finite(values: np.ndarray, what: str) -> np.ndarray:
    """Return ``values``, or raise :class:`~detavg.errors.NonFiniteResult`
    naming ``what`` if an entry is infinite or NaN."""
    if not np.isfinite(values).all():
        raise NonFiniteResult(f"{what} is not finite")
    return values


def factor_solve(M: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``M[i] x[i] = rhs`` for a stack of matrices with one Cholesky call.

    ``np.linalg.cholesky`` factors the whole stack ``M = L L^T`` in one call
    (:func:`_cholesky`), each log-determinant is read off its
    factor's diagonal, and one forward substitution ``L y = rhs`` and one
    back substitution ``L^T x = y`` run over every factor of the stack at
    once (:func:`_substitute`).  Every slice of ``x`` and of the
    log-determinants is bit-identical to factoring and solving that matrix
    on its own.  A single matrix of shape (d, d) is accepted too.  A solve
    that overflows reads inf or NaN, without a warning, for the caller to
    refuse.

    The matrices must be exactly symmetric, as every Gram matrix that
    ``objective.gram`` writes (syrk's mirrored triangle) is.  The
    symmetry check is left to the public routines: the fleets build their
    matrices symmetric, and one ``allclose`` per matrix would cost more
    than its factorization at small d.

    Parameters
    ----------
    M : ndarray of shape (b, d, d) or (d, d)
        Stack of symmetric positive definite matrices, or one of them.
    rhs : ndarray of shape (d,) or (d, r)
        Right-hand side shared by every matrix of the stack.

    Returns
    -------
    x : ndarray of shape (b, *rhs.shape), or of ``rhs.shape`` for one matrix
        For a stack, a view that swaps the first two axes of the stack-last
        solution.
    log_dets : ndarray of shape (b,), or a scalar for one matrix
        ``log det M[i]``.

    Raises
    ------
    NotPositiveDefinite
        If a matrix fails the factorization; for a stack, ``index`` is the
        first such matrix.
    """
    L = _cholesky(M)
    log_dets = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
    if M.ndim == 2:
        return _substitute(L[None], rhs)[:, 0], log_dets
    return _substitute(L, rhs).swapaxes(0, 1), log_dets


def inverse_forms(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Quadratic forms ``v^T M^-1 v`` of the columns of V, shape (d, r), for
    a symmetric positive definite M, shape (d, d): the squared norms of
    ``L^-1 V``, for the Cholesky factor L.  One forward substitution against
    the d columns of I gives ``L^-1``, without the back substitution a solve
    would add, and one product applies it to all r columns, so the
    substitution's cost does not grow with r.

    Raises
    ------
    NotPositiveDefinite
        If ``M`` fails the Cholesky factorization.
    """
    L = _cholesky(require_symmetric(M))
    Y = _substitute(L[None], np.eye(len(L)), back=False)[:, 0] @ V
    return np.einsum("ij,ij->j", Y, Y)


def _cholesky(M: np.ndarray) -> np.ndarray:
    """Cholesky factor of one matrix, or of each matrix of a stack, in one
    ``np.linalg.cholesky`` call; NotPositiveDefinite names the first matrix
    of a stack that fails."""
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        if M.ndim == 2:
            raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc
        # the stacked call does not say which matrix failed
        index = next(i for i, Mi in enumerate(M) if not _is_positive_definite(Mi))
        raise NotPositiveDefinite(
            f"matrix {index} of the stack is not positive definite: {exc}", index=index
        ) from exc


def _substitute(L: np.ndarray, rhs: np.ndarray, back: bool = True) -> np.ndarray:
    """``x[:, i]`` with ``L[i] L[i]^T x[:, i] = rhs``, or with ``L[i] x[:, i]
    = rhs`` if not ``back``, for a stack of lower triangular factors with
    positive diagonals D, shape (b, d, d), which it overwrites with their
    unit lower triangular parts ``U = L D^-1``.

    x is held stack-last, shape (d, b), or (d, b, r) for rhs of shape
    (d, r).  It solves ``U z = rhs`` forward and divides by D, which gives
    ``L^-1 rhs``; to go back it divides by D once more and solves ``U^T x =
    z / D``.  Each step subtracts an entry of x, once final, from the rows
    still open: it writes the products into one buffer that every step
    reuses and subtracts them from the open rows, whose entries for the
    whole stack lie next to each other.  Every operation is elementwise
    across the stack, so no slice depends on another.  An overflowing solve reads inf or NaN, without a warning.
    """
    diag = np.diagonal(L, axis1=1, axis2=2).copy()
    x = np.empty((L.shape[1], len(L), *rhs.shape[1:]))
    x[...] = rhs[:, None]
    products = np.empty(x.shape)
    with np.errstate(all="ignore"):
        L *= (1.0 / diag)[:, None, :]
        U, diag = L.transpose(1, 2, 0), diag.T
        if x.ndim == 3:  # broadcast over the columns of rhs
            U, diag = U[..., None], diag[..., None]
        for k in range(len(x) - 1):
            rest = x[k + 1:]
            rest -= np.multiply(U[k + 1:, k], x[k], products[k + 1:])
        x /= diag
        if back:
            x /= diag
            for k in range(len(x) - 1, 0, -1):
                rest = x[:k]
                rest -= np.multiply(U[k, :k], x[k], products[:k])
    return x


def _is_positive_definite(M: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def det_cofactor(M: np.ndarray) -> float | np.ndarray:
    """Determinant by recursive cofactor expansion along the first row.

    Exact up to rounding for any square matrix, including singular and
    indefinite ones.  ``M`` may be one (d, d) matrix, which gives a
    ``float``, or a stack of shape (..., d, d), which gives an array of the
    leading shape; the recursion runs over the whole stack at once, and each
    slice is bit-identical to expanding that matrix on its own.  Cost grows
    factorially in d, so this is reserved for the small dimensions the
    enumeration oracle works at.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[-1]
    if d == 0:
        det = np.ones(M.shape[:-2])
    elif d == 1:
        det = M[..., 0, 0].copy()
    elif d == 2:
        det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    else:
        det = np.zeros(M.shape[:-2])
        rest = M[..., 1:, :]
        cols = np.arange(d)
        for j in range(d):
            term = M[..., 0, j] * det_cofactor(rest[..., cols != j])
            if j % 2 == 0:
                det += term
            else:
                det -= term
    return float(det) if M.ndim == 2 else det


def adjugate_cofactor(M: np.ndarray) -> np.ndarray:
    """Adjugate via cofactor minors: ``adj(M)[i, j] = (-1)^{i+j} det(M with
    row j and column i removed)``.  Valid for singular matrices.

    Accepts one (d, d) matrix or a stack of shape (..., d, d) and returns an
    array of the same shape; each slice is bit-identical to the adjugate of
    that matrix on its own.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[-1]
    if d == 1:
        return np.ones(M.shape)
    adj = np.empty(M.shape)
    rows = np.arange(d)
    for i in range(d):
        without_row = M[..., rows != i, :]
        for j in range(d):
            adj[..., j, i] = (-1) ** (i + j) * det_cofactor(without_row[..., rows != j])
    return adj


def adjugate(M: np.ndarray) -> np.ndarray:
    """Adjugate (transposed cofactor matrix) of a symmetric matrix.

    For ``d <= 5`` the cofactor expansion is used, which handles singular
    and indefinite inputs exactly up to rounding.  Larger matrices must be
    positive definite: the adjugate is then assembled as
    ``det(M) * inv(M)`` through a Cholesky factorization.

    Satisfies ``adj(M) @ M == det(M) * I`` in all supported regimes.
    """
    M = require_symmetric(M)
    d = M.shape[0]
    if d <= _COFACTOR_MAX_DIM:
        return adjugate_cofactor(M)
    inv, log_det = factor_solve(M, np.eye(d))
    adj = np.exp(log_det) * inv
    return 0.5 * (adj + adj.T)


def solve_psd(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve ``M x = v`` for symmetric positive definite ``M``.

    Parameters
    ----------
    M : ndarray of shape (d, d)
    v : ndarray of shape (d,) or (d, r)

    Raises
    ------
    NotPositiveDefinite
        If ``M`` fails the Cholesky factorization.
    """
    M = require_symmetric(M)
    v = np.asarray(v, dtype=float)
    if v.shape[0] != M.shape[0]:
        raise ValueError(f"shape mismatch: {M.shape} vs {v.shape}")
    return factor_solve(M, v)[0]


def _scaled_back(f, v: np.ndarray):
    """``f(v)`` for ``f`` with ``f(c v) = c f(v)``, c > 0, without a warning:
    the plain form, or where it is not finite though ``v`` is, ``s f(v / s)``
    with ``s = max|v|``, so a finite result keeps its bytes and one that fits
    in a float reads finite.  The overflow rule of :func:`norm`,
    :func:`mahalanobis_norm` and ``averaging.weighted_means``."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = f(v)
        if not np.isfinite(result).all():
            scale = float(np.abs(v).max())
            if 0.0 < scale < math.inf:
                result = scale * f(v / scale)
    return result


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector ``v``.

    The plain form is ``np.linalg.norm``'s ``dot``.  A norm past sqrt(float
    max), about 1.34e154, overflows it and is recomputed as
    :func:`_scaled_back` says, so a norm that fits in a float reads finite;
    past float max it reads inf, without a warning.
    """
    return float(_scaled_back(np.linalg.norm, np.asarray(v, dtype=float)))


def mahalanobis_norm(v: np.ndarray, M: np.ndarray) -> float:
    """Norm ``sqrt(v^T M v)`` induced by a positive semidefinite matrix.

    A norm that fits in a float reads finite although its quadratic form
    overflows (see :func:`_scaled_back`).  Tiny negative quadratic forms
    from rounding are clamped to zero; a finite value below ``-1e-12``
    signals an indefinite ``M`` and raises
    :class:`~detavg.errors.NegativeQuadraticForm`.  A form that is not
    finite, -inf included, is an overflow and is rescaled; a norm that is
    still NaN or past float max raises
    :class:`~detavg.errors.NonFiniteResult`.
    """
    return _mahalanobis_norm(np.asarray(v, dtype=float), require_symmetric(M))


def _mahalanobis_norm(v: np.ndarray, M: np.ndarray) -> float:
    """:func:`mahalanobis_norm` of a float vector and of a matrix that
    :func:`require_symmetric` has passed, for a caller that takes many norms
    in one matrix and checks it once."""

    def root(u: np.ndarray) -> float:
        q = float(u @ M @ u)
        if not math.isfinite(q):
            return abs(q)  # inf or NaN: _scaled_back rescales
        if q < -1e-12:
            raise NegativeQuadraticForm(f"v^T M v = {q} < -1e-12")
        return math.sqrt(max(q, 0.0))

    result = _scaled_back(root, v)
    if not math.isfinite(result):
        raise NonFiniteResult(f"the norm sqrt(v^T M v) is not finite: {result}")
    return result
