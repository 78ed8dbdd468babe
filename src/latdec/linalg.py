"""Dense real linear algebra primitives: QR and the complex-to-real embedding.

Matrices are plain numpy arrays (float64, row-major); complex inputs are
numpy complex128 arrays.  All functions are pure.
"""

import math

import numpy as np

from .errors import RankDeficient

QR_TOL = 1e-10  # relative rank threshold on the R diagonal


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
    d = R.diagonal()
    # the largest column norm: sqrt is correctly rounded and monotone, so
    # sqrt(max) is max(sqrt), the value np.linalg.norm(A, axis=0).max() gives
    scale = math.sqrt((A * A).sum(axis=0).max()) if A.shape[1] else 0.0
    if not (scale > 0.0 and np.abs(d).min() >= QR_TOL * scale):  # so a NaN fails
        raise RankDeficient("R diagonal below rank tolerance")
    signs = np.where(d < 0.0, -1.0, 1.0)
    return Q * signs, R * signs[:, np.newaxis]


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
