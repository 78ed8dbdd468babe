"""Lattice codes and basis manipulation: Construction A and LLL.

Unimodular bookkeeping is exact.  Records hold int64 entries when every
entry fits and arbitrary-precision Python ints (numpy object arrays)
otherwise; LLL accumulates them in Python ints, and a product of records
(verification, back-mapping a label) runs in int64 only when no sum can
overflow.  So T @ T_inv == I holds exactly and the reduced basis
generates the same integer lattice as the input.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .linalg import SAFE_EXPONENT, qr_decompose, triangular_columns

_INT64_SAFE = 2.0 ** 62  # int64 holds 2**63 - 1; results bounded by half that are safe


def _int_array(rows):
    """Integer array of (nested) lists of Python ints: int64 when every
    entry fits (numpy raises OverflowError otherwise), else an object array."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _exact_matmul(A, B):
    """A @ B of integer arrays: in int64 when no sum can overflow, else in Python ints."""
    if A.dtype == np.int64 and B.dtype == np.int64 and A.size and B.size:
        if A.shape[1] * _max_abs(A) * _max_abs(B) < _INT64_SAFE:
            return A @ B
    return A.astype(object) @ B.astype(object)


def _max_abs(A):
    """Largest |entry| of an int64 array, as a float.  np.abs(-2**63) wraps
    to -2**63, whose uint64 view is the true magnitude 2**63."""
    return float(np.abs(A).view(np.uint64).max())


def _frozen(a):
    """A read-only copy of the array a, so that nothing can write a record's entries."""
    a = np.array(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class UnimodularRecord:
    """Exact integer change-of-basis pair with T @ T_inv == I.

    Entries are int64, or Python ints in object arrays where int64 could
    overflow.  A record is immutable: it keeps read-only copies of the
    arrays it is given.  So `bound`, n * max|T_inv| of an int64 record
    (None for any other), is decided once, when the record is built.
    """

    T: np.ndarray
    T_inv: np.ndarray
    bound: float | None = field(init=False, repr=False)

    def __post_init__(self):
        T_inv = _frozen(self.T_inv)
        object.__setattr__(self, "T", _frozen(self.T))
        object.__setattr__(self, "T_inv", T_inv)
        bound = None
        if T_inv.dtype == np.int64 and T_inv.size:
            bound = T_inv.shape[1] * _max_abs(T_inv)  # the first product of _exact_matmul's test
        object.__setattr__(self, "bound", bound)

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64))

    def permuted(self, perm):
        """The record of the basis with its columns in the order perm.  A
        permutation keeps max|T_inv|, so the new record keeps this bound."""
        T, T_inv = self.T[perm], self.T_inv[:, perm]  # new arrays that nothing else holds
        T.flags.writeable = T_inv.flags.writeable = False
        rec = object.__new__(UnimodularRecord)
        for name, value in (("T", T), ("T_inv", T_inv), ("bound", self.bound)):
            object.__setattr__(rec, name, value)
        return rec

    def verify(self):
        n = self.T.shape[0]
        return bool(np.array_equal(_exact_matmul(self.T, self.T_inv), np.eye(n, dtype=np.int64)))

    def inverse_times(self, z):
        """T_inv @ z, exactly, for a sequence z of integers.

        It reaches the decision of _exact_matmul(T_inv, z) from the record's
        bound and max|z|, taken from z's entries as Python ints: int64 when
        bound * max|z| < 2**62.  Any other z goes to _exact_matmul itself,
        and a z past int64, however large, is never converted to a float."""
        bound = self.bound
        if bound is not None and len(z):
            zmax = max(int(max(z)), -int(min(z)))
            if zmax < 2**63 and bound * zmax < _INT64_SAFE:
                return self.T_inv @ np.array(z, dtype=np.int64)
        return _exact_matmul(self.T_inv, _int_array(z))


@dataclass
class InfoSet:
    """Constraint set for the integer labels of a lattice code.

    kind is one of "hypercube" (labels in {0..q-1}^m), "unconstrained"
    (all of Z^m, i.e. lattice decoding), or "explicit" (enumerated label
    list, for oracles and small coded systems; its rows are kept in
    lexicographic order, the order exhaustive ML settles ties by).
    """

    kind: str
    q: int | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("hypercube", "unconstrained", "explicit"):
            raise ValueError(f"unknown info set kind {self.kind!r}")
        if self.kind == "hypercube" and (self.q is None or self.q < 2):
            raise ValueError("hypercube info set needs q >= 2")
        if self.kind == "explicit":
            labels = np.asarray(self.labels)
            if labels.ndim != 2:
                raise ValueError("explicit info set needs a 2-dimensional label array")
            self.labels = labels[np.lexsort(labels.T[::-1])]

    def size(self, dim):
        if self.kind == "hypercube":
            return self.q**dim
        if self.kind == "explicit":
            return len(self.labels)
        return None


@dataclass
class LatticeCode:
    """A translated lattice restricted to an information set.

    Codewords are generator @ x for integer labels x; the channel input is
    codeword + translate.
    """

    generator: np.ndarray
    translate: np.ndarray
    info_set: InfoSet = field(default_factory=lambda: InfoSet("unconstrained"))

    def __post_init__(self):
        self.generator = np.asarray(self.generator, dtype=float)
        self.translate = np.asarray(self.translate, dtype=float)
        m = self.generator.shape[0]
        if self.generator.shape != (m, m) or self.translate.shape != (m,):
            raise DimensionMismatch("generator must be square, translate length m")

    @property
    def dim(self):
        return self.generator.shape[0]


def construction_a(P, q):
    """Lift a systematic mod-q code [I; P] to the integer lattice basis [[I,0],[P,qI]].

    P is the (m-k) x k parity block with entries in {0..q-1}; an empty P
    (k == m) yields the identity.
    """
    P = np.atleast_2d(np.asarray(P, dtype=int))
    if P.size == 0:
        k = P.shape[1] if P.ndim == 2 else 0
        return np.eye(k, dtype=int)
    if np.any(P < 0) or np.any(P >= q):
        raise DimensionMismatch("P entries must lie in {0..q-1}")
    r, k = P.shape
    m = r + k
    G = np.zeros((m, m), dtype=int)
    G[:k, :k] = np.eye(k, dtype=int)
    G[k:, :k] = P
    G[k:, k:] = q * np.eye(r, dtype=int)
    return G


def lll_reduce(B, delta=0.99, deep=False):
    """LLL-reduce the columns of B, optionally with deep insertions.

    Returns (B_reduced, record) where B_reduced == B @ record.T_inv spans
    the same lattice and record.T undoes the change of basis
    (B == B_reduced @ record.T up to float rounding).

    The reduction runs on the triangular factor R of B = Q R (effective
    LLL, Ling and Howgrave-Graham, ISIT 2007): an upper-triangular B with a
    positive diagonal is its own R, and any other B is factored once.  The
    plain step size-reduces only the entry r_{k-1,k} that the Lovasz test
    reads and, when delta * r_{k-1,k-1}^2 > r_{k-1,k}^2 + r_{k,k}^2, swaps
    columns k-1 and k in place and restores R by one Givens rotation.  The
    deep step size-reduces the whole column k, inserts it at the first
    position whose test fails and undoes the insertion by Givens rotations.
    One full size reduction at the end gives the same basis as
    size-reducing everything inside the loop.  The records are kept in
    Python ints while the loop runs, so they are exact.
    """
    if not 0.25 < delta <= 1.0:
        raise ValueError("delta must lie in (0.25, 1]")
    B = np.asarray(B, dtype=float)
    n = B.shape[1]
    R = triangular_columns(B)
    if R is None:
        R = qr_decompose(B)[1].T.tolist()  # raises RankDeficient, on a non-finite entry too
    # the loop squares entries of R; past SAFE_EXPONENT (the trigger of
    # linalg.full_rank) it runs on R 2^-e, an exact scale that puts the
    # largest |entry| in [1/2, 1): each step is then a ratio, comparison,
    # hypot or a - q*b of exactly scaled values, so T is the same
    if not -SAFE_EXPONENT < math.frexp(R[0][0])[1] < SAFE_EXPONENT:
        e = math.frexp(max(abs(v) for col in R for v in col))[1]
        R = [[math.ldexp(v, -e) for v in col] for col in R]
    # R[c] is column c of the triangular factor; Ti[c] is column c of T_inv
    # and T[c] row c of T, so moving a basis column moves one list each
    unit = [0] * (n - 1) + [1] + [0] * (n - 1)  # unit[n-1-c:][:n] is e_c
    Ti = [unit[n - 1 - c:2 * n - 1 - c] for c in range(n)]
    T = [unit[n - 1 - c:2 * n - 1 - c] for c in range(n)]

    def subtract(k, j, q):
        # basis column k -= q * column j
        Rk = R[k]
        Rk[:j + 1] = [a - q * b for a, b in zip(Rk, R[j][:j + 1])]
        Ti[k] = [a - q * b for a, b in zip(Ti[k], Ti[j])]
        T[j] = [a + q * b for a, b in zip(T[j], T[k])]

    k = 1
    while k < n:
        Rk = R[k]
        if deep:
            for j in range(k - 1, -1, -1):
                q = round(Rk[j] / R[j][j])
                if q:
                    subtract(k, j, q)
            # insert column k at the first position i where the squared length
            # of its projection orthogonal to columns 0..i-1 is below delta * r_ii^2
            c = sum(v * v for v in Rk[:k + 1])
            for i in range(k):
                if delta * R[i][i] ** 2 > c:
                    break
                c -= Rk[i] ** 2
            else:
                k += 1
                continue
            # move basis column k to position i; column i of R then has a spike
            # in rows i+1..k, cleared by rotating row pairs from the bottom up
            for lst in (R, Ti, T):
                lst.insert(i, lst.pop(k))
            Ri = R[i]
            for r in range(k, i, -1):
                r1 = r - 1
                a, b = Ri[r1], Ri[r]
                rho = math.hypot(a, b)  # > 0: b is r_kk, then the previous rho
                c, s = a / rho, b / rho
                for col in R[i:]:
                    u = col[r1]
                    v = col[r]
                    col[r1] = c * u + s * v
                    col[r] = c * v - s * u
                Ri[r] = 0.0
        else:
            i = k - 1
            d = R[i][i]
            q = round(Rk[i] / d)
            if q:
                subtract(k, i, q)
            x, y = Rk[i], Rk[k]
            if not delta * d ** 2 > x * x + y * y:
                k += 1
                continue
            R[i], R[k], Ti[i], Ti[k], T[i], T[k] = Rk, R[i], Ti[k], Ti[i], T[k], T[i]
            rho = math.hypot(x, y)  # > 0: y is r_kk
            c, s = x / rho, y / rho
            Rk[i], Rk[k] = c * x + s * y, 0.0
            for col in R[k:]:
                u, v = col[i], col[k]
                col[i], col[k] = c * u + s * v, c * v - s * u
        k = max(i, 1)
    for j in range(n - 2, -1, -1):
        d = R[j][j]
        for k in range(j + 1, n):
            q = round(R[k][j] / d)
            if q:
                subtract(k, j, q)
    record = UnimodularRecord(T=_int_array(T), T_inv=_int_array(Ti).T.copy())
    if not record.verify():
        raise ArithmeticError("LLL records are not inverse to each other")
    return B @ record.T_inv.astype(float), record
