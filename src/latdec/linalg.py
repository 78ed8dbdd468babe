"""Dense real linear algebra primitives: QR, its rank rule and the complex-to-real embedding.

Matrices are plain numpy arrays (float64, row-major); complex inputs are
numpy complex128 arrays.  All functions are pure.
"""

import math

import numpy as np

from .errors import RankDeficient

QR_TOL = 1e-10  # relative rank threshold on the R diagonal
# |x| < 2^SAFE_EXPONENT and x^2 stay finite, and 2^-SAFE_EXPONENT and its
# square stay normal, with 1/QR_TOL to spare
SAFE_EXPONENT = 400


def qr_decompose(A):
    """Thin QR factorization with a strictly positive R diagonal.

    Requires rows >= cols, finite entries and full numerical column rank.
    The positive diagonal fixes the sign ambiguity, so the factorization is
    unique.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] < A.shape[1]:
        raise RankDeficient(f"need rows >= cols, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise RankDeficient("non-finite entries")
    Q, R = np.linalg.qr(A, mode="reduced")
    if not full_rank(A, R):
        raise RankDeficient("R diagonal below rank tolerance")
    signs = np.where(R.diagonal() < 0.0, -1.0, 1.0)
    return Q * signs, R * signs[:, np.newaxis]


def full_rank(A, R):
    """The one rank rule: whether R, the triangular factor of a QR of A,
    has a row per column of A and every |r_ii| at least QR_TOL times A's
    largest column norm.  False when A or R has a NaN or an infinite entry."""
    if A.shape[1] == 0 or R.shape[0] < A.shape[1]:
        return False
    # |r_11| is the norm of A's first column, within 1/QR_TOL of the largest
    # when the rule holds.  Past SAFE_EXPONENT the squares of A could under-
    # or overflow, so the rule is taken of A 2^-e and R 2^-e, an exact scale
    # that puts A's largest |entry| in [1/2, 1) (NaN and inf keep e = 0)
    e = 0
    if not -SAFE_EXPONENT < math.frexp(R[0, 0])[1] < SAFE_EXPONENT:
        e = math.frexp(np.abs(A).max())[1]
        A = np.ldexp(A, -e)
    # the largest column norm: sqrt is correctly rounded and monotone, so
    # sqrt(max) is max(sqrt), the value np.linalg.norm(A, axis=0).max() gives
    scale = math.sqrt((A * A).sum(axis=0).max())
    return 0.0 < scale < math.inf and \
        math.ldexp(np.abs(R.diagonal()).min(), -e) >= QR_TOL * scale  # NaN: False


def complex_to_real_matrix(M):
    """Embed a complex matrix as the 2x2-block real matrix [[Re,-Im],[Im,Re]]."""
    M = np.asarray(M, dtype=complex)
    n, m = M.shape
    out = np.empty((2 * n, 2 * m))
    out[:n, :m] = out[n:, m:] = M.real
    out[:n, m:], out[n:, :m] = -M.imag, M.imag
    return out


def triangular_columns(A):
    """A's columns as lists if A is finite, square upper triangular and
    positive on its diagonal; else None."""
    n = A.shape[1]
    if A.shape == (n, n) and np.isfinite(A).all():
        cols = A.T.tolist()
        if all(c[j] > 0.0 and not any(c[j + 1:]) for j, c in enumerate(cols)):
            return cols
    return None
