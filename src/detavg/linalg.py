"""Dense symmetric linear algebra used by every estimator in the package.

All routines take plain ``numpy`` arrays.  Symmetric inputs are validated
at the public entry points.  :func:`factor_solve` is the one Cholesky
kernel: it factors a single matrix or a whole stack of simulated
machines' matrices, solves against a shared right-hand side and returns
the log-determinants, so positive definiteness failures surface as
:class:`~detavg.errors.NotPositiveDefinite` instead of silently wrong
results.  It skips the symmetry check, which :func:`solve_psd` and
:func:`adjugate` make before calling it.

Determinants and adjugates come in two deliberately independent flavors:
a cofactor-expansion path that is exact (up to rounding) for arbitrary
symmetric matrices of dimension at most five, including singular and
indefinite ones, and a Cholesky-based path for larger positive definite
matrices.  The enumeration oracle leans on the cofactor path; the two are
cross-checked in the test suite rather than sharing code.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NegativeQuadraticForm, NotPositiveDefinite

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


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return (M + M^T)/2; used when building Gram matrices so rounding
    cannot leave the result asymmetric."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


def factor_solve(M: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``M[i] x[i] = rhs`` for a stack of matrices with one Cholesky call.

    The package's only Cholesky: ``np.linalg.cholesky`` factors the whole
    stack in one call, ``scipy.linalg.cho_solve`` solves it (SciPy
    loops over the slices in Python, one ``potrs`` each), and each
    log-determinant is read off its factor's diagonal.  Every slice of
    ``x`` and of the log-determinants is bit-identical to factoring and
    solving that matrix on its own.  A single matrix of shape (d, d) is
    accepted too.

    The matrices must be exactly symmetric, as every matrix built by
    :func:`symmetrize` plus a ridge is.  The symmetry check is left to the
    public routines: the fleets build their matrices symmetric, and one
    ``allclose`` per matrix would cost more than its factorization at
    small d.

    Parameters
    ----------
    M : ndarray of shape (b, d, d) or (d, d)
        Stack of symmetric positive definite matrices, or one of them.
    rhs : ndarray of shape (d,) or (d, r)
        Right-hand side shared by every matrix of the stack.

    Returns
    -------
    x : ndarray of shape (b, *rhs.shape), or of ``rhs.shape`` for one matrix
    log_dets : ndarray of shape (b,), or a scalar for one matrix
        ``log det M[i]``.

    Raises
    ------
    NotPositiveDefinite
        If a matrix fails the factorization; for a stack, ``index`` is the
        first such matrix.
    """
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        if M.ndim == 2:
            raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc
        # the stacked call does not say which matrix failed
        index = next(i for i, Mi in enumerate(M) if not _is_positive_definite(Mi))
        raise NotPositiveDefinite(
            f"matrix {index} of the stack is not positive definite: {exc}", index=index
        ) from exc
    x = scipy.linalg.cho_solve((L, True), rhs, check_finite=False)
    log_dets = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
    return x, log_dets


def _is_positive_definite(M: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def det_cofactor(M: np.ndarray) -> float:
    """Determinant by recursive cofactor expansion.

    Exact up to rounding for any square matrix, including singular and
    indefinite ones.  Cost grows factorially, so this is reserved for the
    small dimensions the enumeration oracle works at.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    if d == 0:
        return 1.0
    if d == 1:
        return float(M[0, 0])
    if d == 2:
        return float(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    total = 0.0
    rest = M[1:]
    cols = np.arange(d)
    for j in range(d):
        minor = rest[:, cols != j]
        term = M[0, j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return float(total)


def adjugate_cofactor(M: np.ndarray) -> np.ndarray:
    """Adjugate via cofactor minors: ``adj(M)[i, j] = (-1)^{i+j} det(M with
    row j and column i removed)``.  Valid for singular matrices."""
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    if d == 1:
        return np.ones((1, 1))
    adj = np.empty((d, d))
    rows = np.arange(d)
    for i in range(d):
        keep_r = rows != i
        for j in range(d):
            minor = M[np.ix_(keep_r, rows != j)]
            adj[j, i] = (-1) ** (i + j) * det_cofactor(minor)
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
    return symmetrize(np.exp(log_det) * inv)


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


def mahalanobis_norm(v: np.ndarray, M: np.ndarray) -> float:
    """Norm ``sqrt(v^T M v)`` induced by a positive semidefinite matrix.

    Tiny negative quadratic forms from rounding are clamped to zero; a
    value below ``-1e-12`` signals an indefinite ``M`` and raises
    :class:`~detavg.errors.NegativeQuadraticForm`.
    """
    v = np.asarray(v, dtype=float)
    M = require_symmetric(M)
    q = float(v @ M @ v)
    if q < -1e-12:
        raise NegativeQuadraticForm(f"v^T M v = {q} < -1e-12")
    return float(np.sqrt(max(q, 0.0)))
