"""Reference implementations the library's fast kernels are tested against.

These are the textbook forms the library started from: LLL on the
Gram-Schmidt coefficients with exact Python-int records, recomputing the
whole Gram-Schmidt data after each deep insertion, the greedy ordering
with one pseudo-inverse per detected column, and exhaustive ML that forms
every candidate's channel output again on each call, from integer labels.
The Fano decoder is the form that builds a fresh child generator on every
forward move, revisits included, and keeps a set of the labels visited.
They are slow and kept only as oracles.

The bit-identity oracles are earlier forms of the library's per-frame
preprocessing that a leaner form must match bit for bit: the QR with its
sign and norm bookkeeping in separate numpy calls, the effective LLL
loop whose adjacent step goes through the general insertion scan, the
greedy ordering with array gains and np.outer downdates, and the
permutation record composed by integer matrix products.  So are the
loop forms of the ISI channel and convolutional code construction: the
Toeplitz matrix column by column, the polynomial taps by right shifts,
the code matrix entry by entry and the GF(2) reduction with a row scan
for each pivot.  The search's ACTIVE lists have theirs too: one deque
for lifo and fifo, and the level-cost heap of (level, g, seq, node)
that marks popped and g2-pruned nodes dead and ranks only a level's live
nodes when g2 bounds it.

The exact checks work in Python ints: the Bareiss determinant, the
unimodularity test, the Hermite normal form with its unimodular record
and the composition of two records.  The closest-point oracles enumerate
directly, without the branch-and-bound engine: a box certified to hold the
closest point with the exhaustive search over it, and the exact node set
of a Pohst or maximum-cost condition.  The sparsity index of R and a
triangular back substitution complete them.

The sweep's per-decode tally is the form that counts each decode's frame
error, bit errors and record as it is decoded, frame by frame, with
small numpy calls on one label at a time.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from latdec import channels, oracle, sim
from latdec.errors import DimensionMismatch, LatdecError, RankDeficient, TooLarge
from latdec.lattice import UnimodularRecord, _exact_matmul, _int_array
from latdec.linalg import QR_TOL
from latdec.oracle import ENUM_GUARD
from latdec.preprocess import ORDER_TIE_RTOL, RIGHT_MODES
from latdec.search import _finish

# Labels per vectorized batch of the reference enumerations, apart from the
# library's block size, so that they compare two different blockings.
REF_CHUNK = 4096


class SingularDiagonal(LatdecError):
    """Triangular matrix has a zero diagonal entry."""


def _int_matrix(M):
    """Copy into an object-dtype array of Python ints; rejects non-integers."""
    M = np.asarray(M)
    out = np.empty(M.shape, dtype=object)
    flat_in, flat_out = M.reshape(-1), out.reshape(-1)
    for i, v in enumerate(flat_in):
        iv = int(v)
        if iv != v:
            raise DimensionMismatch(f"non-integer entry {v!r}")
        flat_out[i] = iv
    return out


def _int_eye(n):
    out = np.zeros((n, n), dtype=object)
    for i in range(n):
        out[i, i] = 1
    return out


def int_det(M):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    A = [[int(v) for v in row] for row in np.asarray(M, dtype=object)]
    n = len(A)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for r in range(k + 1, n):
                if A[r][k] != 0:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def is_unimodular(T):
    """True iff the integer matrix has determinant +-1."""
    T = np.asarray(T)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        return False
    return abs(int_det(T)) == 1


def compose_left(a, b):
    """Record for applying `a` after `b`: total T = a.T @ b.T."""
    return UnimodularRecord(_exact_matmul(a.T, b.T), _exact_matmul(b.T_inv, a.T_inv))


def hnf_transform(A):
    """Column-reduce an integer matrix to upper-triangular form with a
    dominant diagonal: A == R @ T with T unimodular and
    r[i,i] > r[i,j] >= 0 for j > i.  Exact integer arithmetic throughout.
    """
    A = _int_matrix(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatch("A must be square")
    R = A.copy()
    T = _int_eye(n)       # R @ T == A
    Tinv = _int_eye(n)    # A @ Tinv == R

    def col_op(dst, src, q):
        # column dst -= q * column src, mirrored on the records
        R[:, dst] -= q * R[:, src]
        Tinv[:, dst] -= q * Tinv[:, src]
        T[src, :] += q * T[dst, :]

    def col_swap(a, b):
        R[:, [a, b]] = R[:, [b, a]]
        Tinv[:, [a, b]] = Tinv[:, [b, a]]
        T[[a, b], :] = T[[b, a], :]

    for i in range(n - 1, -1, -1):
        # Euclidean elimination of entries left of the diagonal in row i.
        while True:
            nz = [j for j in range(i) if R[i, j] != 0]
            if not nz:
                break
            j = min(nz + [i], key=lambda c: abs(R[i, c]) if R[i, c] != 0 else 1 << 62)
            if j != i:
                col_swap(i, j)
            for c in range(i):
                if R[i, c] != 0:
                    col_op(c, i, R[i, c] // R[i, i])
        if R[i, i] == 0:
            raise RankDeficient("zero diagonal during HNF reduction")
        if R[i, i] < 0:
            R[:, i] = -R[:, i]
            Tinv[:, i] = -Tinv[:, i]
            T[i, :] = -T[i, :]
    # Normalize entries right of each diagonal into [0, r_ii).
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            q = R[i, j] // R[i, i]
            if q != 0:
                col_op(j, i, q)
    return R.astype(object), UnimodularRecord(T=T, T_inv=Tinv)


def sparsity_index(R):
    """Max over rows of off-diagonal row energy divided by the squared diagonal."""
    R = np.asarray(R, dtype=float)
    n = R.shape[0]
    if R.shape != (n, n):
        raise DimensionMismatch("R must be square")
    d = np.diag(R)
    if np.any(d == 0.0):
        raise SingularDiagonal("zero diagonal entry")
    worst = 0.0
    for i in range(n):
        off = R[i, i + 1:]
        worst = max(worst, float(off @ off) / float(d[i] * d[i]))
    return worst


def back_substitute(R, y):
    """Solve R x = y for square upper-triangular R."""
    R = np.asarray(R, dtype=float)
    y = np.asarray(y, dtype=float)
    n = R.shape[0]
    if R.shape != (n, n) or y.shape != (n,):
        raise SingularDiagonal(f"incompatible shapes {R.shape}, {y.shape}")
    if np.any(np.diag(R) == 0.0):
        raise SingularDiagonal("zero entry on the diagonal")
    x = np.empty(n)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - R[i, i + 1:] @ x[i + 1:]) / R[i, i]
    return x


def gso(B):
    """Gram-Schmidt data for the columns of B: coefficient matrix mu and
    squared norms of the orthogonalized vectors."""
    n = B.shape[1]
    mu = np.zeros((n, n))
    Bstar = np.zeros_like(B)
    norms = np.zeros(n)
    for i in range(n):
        v = B[:, i].copy()
        for j in range(i):
            if norms[j] == 0.0:
                raise RankDeficient("rank-deficient basis")
            mu[i, j] = (B[:, i] @ Bstar[:, j]) / norms[j]
            v -= mu[i, j] * Bstar[:, j]
        Bstar[:, i] = v
        norms[i] = v @ v
        if norms[i] <= 0.0:
            raise RankDeficient("rank-deficient basis")
    return mu, norms


def lll_reduce_gso(B, delta=0.99, deep=False):
    """LLL (optionally with deep insertions) on the Gram-Schmidt data of B.

    Same contract as latdec.lattice.lll_reduce; records are object arrays
    of Python ints.
    """
    B = np.asarray(B, dtype=float).copy()
    n = B.shape[1]
    T = _int_eye(n)       # reduced -> original coordinates
    Tinv = _int_eye(n)    # original -> reduced coordinates
    mu, norms = gso(B)

    def size_reduce(k, j):
        q = round(mu[k, j])
        if q != 0:
            B[:, k] -= q * B[:, j]
            Tinv[:, k] -= q * Tinv[:, j]
            T[j, :] += q * T[k, :]
            mu[k, :j] -= q * mu[j, :j]
            mu[k, j] -= q

    def swap_update(k):
        # O(n) Gram-Schmidt update for swapping columns k-1 and k
        mu_k = mu[k, k - 1]
        b_new = norms[k] + mu_k * mu_k * norms[k - 1]
        mu_prime = mu_k * norms[k - 1] / b_new
        norms[k] = norms[k - 1] * norms[k] / b_new
        norms[k - 1] = b_new
        mu[[k - 1, k], : k - 1] = mu[[k, k - 1], : k - 1]
        for i in range(k + 1, n):
            t = mu[i, k]
            mu[i, k] = mu[i, k - 1] - mu_k * t
            mu[i, k - 1] = t + mu_prime * mu[i, k]
        mu[k, k - 1] = mu_prime

    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            size_reduce(k, j)
        if deep:
            # Deep insertion: move column k to the first position i where it
            # would shorten the orthogonalized vector by the delta margin.
            c = float(B[:, k] @ B[:, k])
            inserted = False
            for i in range(k):
                if delta * norms[i] <= c:
                    c -= mu[k, i] ** 2 * norms[i]
                else:
                    col = B[:, k].copy()
                    B[:, i + 1: k + 1] = B[:, i:k]
                    B[:, i] = col
                    ticol = Tinv[:, k].copy()
                    Tinv[:, i + 1: k + 1] = Tinv[:, i:k]
                    Tinv[:, i] = ticol
                    trow = T[k, :].copy()
                    T[i + 1: k + 1, :] = T[i:k, :]
                    T[i, :] = trow
                    mu, norms = gso(B)
                    k = max(i, 1)
                    inserted = True
                    break
            if inserted:
                continue
            k += 1
        else:
            if norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1]:
                k += 1
            else:
                B[:, [k - 1, k]] = B[:, [k, k - 1]]
                Tinv[:, [k - 1, k]] = Tinv[:, [k, k - 1]]
                T[[k - 1, k], :] = T[[k, k - 1], :]
                swap_update(k)
                k = max(k - 1, 1)
    return B, UnimodularRecord(T=T, T_inv=Tinv)


def greedy_order_pinv(A):
    """Greedy detection ordering with one pseudo-inverse per detected column.

    Same contract and tie rule as latdec.preprocess.vblast_greedy_order.
    """
    A = np.asarray(A, dtype=float)
    m = A.shape[1]
    if np.linalg.matrix_rank(A) < m:
        raise RankDeficient("ordering needs full column rank")
    remaining = list(range(m))
    perm = [0] * m
    for slot in range(m - 1, -1, -1):
        pinv = np.linalg.pinv(A[:, remaining])
        gains = 1.0 / np.sum(pinv * pinv, axis=1)
        best = int(np.flatnonzero(gains >= gains.max() * (1.0 - ORDER_TIE_RTOL))[-1])
        perm[slot] = remaining.pop(best)
    return perm


def qr_decompose_signs(A):
    """Thin QR with a positive R diagonal; same contract as
    latdec.linalg.qr_decompose."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] < A.shape[1]:
        raise RankDeficient(f"need rows >= cols, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise RankDeficient("non-finite entries")
    Q, R = np.linalg.qr(A, mode="reduced")
    signs = np.sign(np.diag(R))
    signs[signs == 0.0] = 1.0
    Q = Q * signs[np.newaxis, :]
    R = R * signs[:, np.newaxis]
    col_norms = np.linalg.norm(A, axis=0)
    scale = col_norms.max() if col_norms.size else 0.0
    if not (scale > 0.0 and np.abs(np.diag(R)).min() >= QR_TOL * scale):  # so a NaN fails
        raise RankDeficient("R diagonal below rank tolerance")
    return Q, R


def lll_reduce_scan(B, delta=0.99, deep=False):
    """Effective LLL on the R factor, each step through the insertion scan.

    Same contract as latdec.lattice.lll_reduce, with the same floating-point
    and integer operations in the same order.
    """
    if not 0.25 < delta <= 1.0:
        raise ValueError("delta must lie in (0.25, 1]")
    B = np.asarray(B, dtype=float)
    n = B.shape[1]
    if B.shape == (n, n) and np.all(np.diag(B) > 0) and not np.tril(B, -1).any() \
            and np.isfinite(B).all():
        R = B.T.tolist()
    else:
        R = qr_decompose_signs(B)[1].T.tolist()
    Ti = [[int(i == c) for i in range(n)] for c in range(n)]
    T = [[int(i == c) for i in range(n)] for c in range(n)]

    def subtract(k, j, q):
        Rk, Rj = R[k], R[j]
        for i in range(j + 1):
            Rk[i] -= q * Rj[i]
        Ti[k] = [a - q * b for a, b in zip(Ti[k], Ti[j])]
        T[j] = [a + q * b for a, b in zip(T[j], T[k])]

    def insert(k, i):
        for lst in (R, Ti, T):
            lst.insert(i, lst.pop(k))
        for r in range(k, i, -1):
            a, b = R[i][r - 1], R[i][r]
            rho = math.hypot(a, b)
            c, s = a / rho, b / rho
            for col in R[i:]:
                u, v = col[r - 1], col[r]
                col[r - 1], col[r] = c * u + s * v, c * v - s * u
            R[i][r] = 0.0

    k = 1
    while k < n:
        lo = 0 if deep else k - 1
        Rk = R[k]
        for j in range(k - 1, lo - 1, -1):
            q = round(Rk[j] / R[j][j])
            if q:
                subtract(k, j, q)
        c = sum(v * v for v in Rk[lo:k + 1])
        for i in range(lo, k):
            if delta * R[i][i] ** 2 > c:
                insert(k, i)
                k = max(i, 1)
                break
            c -= Rk[i] ** 2
        else:
            k += 1
    for j in range(n - 2, -1, -1):
        for k in range(j + 1, n):
            q = round(R[k][j] / R[j][j])
            if q:
                subtract(k, j, q)
    record = UnimodularRecord(T=_int_array(T), T_inv=_int_array(Ti).T.copy())
    if not record.verify():
        raise ArithmeticError("LLL records are not inverse to each other")
    return B @ record.T_inv.astype(float), record


def greedy_order_outer(A):
    """Greedy ordering by rank-one downdates of (A' A)^-1, in array form.

    Same contract as latdec.preprocess.vblast_greedy_order, with the same
    floating-point operations.
    """
    A = np.asarray(A, dtype=float)
    m = A.shape[1]
    R = np.linalg.qr(A, mode="r")
    col_norms = np.linalg.norm(A, axis=0)
    scale = col_norms.max() if col_norms.size else 0.0
    if R.shape[0] < m or not (0.0 < scale < math.inf
                              and np.abs(np.diag(R)).min() >= QR_TOL * scale):
        raise RankDeficient("ordering needs full column rank")
    R_inv = np.linalg.inv(R)
    P = R_inv @ R_inv.T
    remaining = np.ones(m, dtype=bool)
    perm = [0] * m
    for slot in range(m - 1, -1, -1):
        gains = np.divide(1.0, P.diagonal(), out=np.zeros(m), where=remaining)
        best = int(np.flatnonzero(gains >= gains.max() * (1.0 - ORDER_TIE_RTOL))[-1])
        perm[slot] = best
        remaining[best] = False
        p = P[:, best] / np.sqrt(P[best, best])
        P -= np.outer(p, p)
    return perm


def perm_record(perm):
    """Unimodular record of the column permutation A -> A[:, perm]."""
    m = len(perm)
    P = np.zeros((m, m), dtype=np.int64)
    P[perm, np.arange(m)] = 1
    return UnimodularRecord(T=P.T.copy(), T_inv=P)


def right_preprocess_composed(A, mode="none", lll_delta=0.99, lll_deep=False):
    """latdec.preprocess.right_preprocess built from the oracles above, the
    permutation record composed with the LLL record by matrix products."""
    A = np.asarray(A, dtype=float)
    m = A.shape[1]
    if mode not in RIGHT_MODES:
        raise ValueError(f"unknown right preprocessing mode {mode!r}")
    record = UnimodularRecord.identity(m)
    work = A
    if mode in ("lll", "lll+permute"):
        work, record = lll_reduce_scan(A, delta=lll_delta, deep=lll_deep)
    if mode in ("permute", "lll+permute"):
        perm = greedy_order_outer(work)
        work = work[:, perm]
        record = compose_left(perm_record(perm), record)
    if work.shape[0] == m and np.all(np.diag(work) > 0) \
            and not np.tril(work, -1).any():
        Q, R = np.eye(m), work
    else:
        Q, R = qr_decompose_signs(work)
    return Q, R, record


def isi_toeplitz_loop(taps, frame_len):
    """latdec.channels.isi_toeplitz filled one column at a time."""
    taps = np.asarray(taps, dtype=float)
    L = len(taps) - 1
    H = np.zeros((frame_len + L, frame_len))
    for j in range(frame_len):
        H[j:j + L + 1, j] = taps
    return H


def poly_bits_shift(p):
    """latdec.channels._poly_bits by right shifts, one bit at a time."""
    val = int(str(p), 8)
    if val < 0:  # its right shifts would never reach 0
        raise ValueError(f"generator polynomial {p!r} is negative")
    bits = []
    while val:
        bits.append(val & 1)
        val >>= 1
    bits = bits[::-1]
    while bits and bits[-1] == 0:
        bits.pop()
    return bits or [0]


def conv_generator_matrix_loop(gen_polys, info_len):
    """latdec.channels.conv_generator_matrix entry by entry, over time steps,
    outputs and tap bits."""
    taps = [poly_bits_shift(p) for p in gen_polys]
    mem = max(len(t) for t in taps) - 1
    n_out = len(gen_polys)
    k = info_len
    M = np.zeros((n_out * (k + mem), k), dtype=int)
    for t in range(k + mem):
        for p, tap in enumerate(taps):
            row = t * n_out + p
            for d, bit in enumerate(tap):
                i = t - d
                if bit and 0 <= i < k:
                    M[row, i] = 1
    return M


def gf2_row_reduce_scan(M):
    """latdec.channels.gf2_row_reduce with a row scan for each pivot and a
    row-by-row elimination."""
    A = (np.asarray(M, dtype=int) % 2).copy()
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = None
        for i in range(r, rows):
            if A[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            A[[pivot, r]] = A[[r, pivot]]
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] ^= A[r]
        pivots.append(c)
        r += 1
    return A, pivots


class ActiveDeque:
    """lifo / fifo ACTIVE list: one deque whose top is the newest / oldest node."""

    def __init__(self, root, lifo):
        self.nodes = deque([root])
        self.end = -1 if lifo else 0
        self.drop = self.nodes.pop if lifo else self.nodes.popleft
        self.push = self.nodes.append

    def top(self):
        return self.nodes[self.end] if self.nodes else None


class ActiveLevelHeap:
    """level-cost ACTIVE list: lowest level first, then lowest path metric,
    then generation order.  When the first node of a new level appears, rule
    g2 bounds the level above it (M best live nodes, or within T of the best
    live one) and marks the nodes beyond dead; popped nodes are dead too."""

    def __init__(self, root, policy, t):
        self.heap = [(0, 0.0, 0, root)]
        self.seq = 1
        self.t = t
        self.g2, self.g2_param = policy.g2, policy.g2_param
        self.by_level = [[] for _ in t]
        self.deepest = 0
        self.dead = set()  # the nodes themselves, so no id is reused while marked

    def top(self):
        heap = self.heap
        while heap and heap[0][3] in self.dead:
            heapq.heappop(heap)
        return heap[0][3] if heap else None

    def drop(self):
        self.dead.add(heapq.heappop(self.heap)[3])

    def push(self, child):
        heapq.heappush(self.heap, (child.level, child.g, self.seq, child))
        self.seq += 1
        self.by_level[child.level].append(child)
        if child.level > self.deepest:
            self.deepest = child.level
            if self.g2 is not None and child.level > 1:
                self._g2(child.level - 1)

    def _g2(self, level):
        peers = sorted((nd for nd in self.by_level[level] if nd not in self.dead),
                       key=lambda nd: nd.g)
        if self.g2 == "m-alg":
            if len(peers) <= self.g2_param:
                return
            self.t[level] = peers[self.g2_param - 1].g
        else:  # t-alg
            self.t[level] = peers[0].g + self.g2_param
        for nd in peers:
            if nd.g > self.t[level]:
                self.dead.add(nd)


def _label_chunks(info_set, m, chunk=REF_CHUNK):
    """Candidate labels of an explicit or hypercube information set, in
    lexicographic order for a hypercube, as int arrays of at most `chunk` rows."""
    if info_set.kind == "explicit":
        for i in range(0, len(info_set.labels), chunk):
            yield np.asarray(info_set.labels[i:i + chunk], dtype=int)
        return
    q = info_set.q
    weights = q ** np.arange(m - 1, -1, -1)
    for start in range(0, q**m, chunk):
        idx = np.arange(start, min(start + chunk, q**m))
        yield (idx[:, None] // weights[None, :]) % q


def exhaustive_ml_loop(instance):
    """Exhaustive ML recomputing X @ (H G)' for every chunk on every call.

    Same contract and tie rule as latdec.oracle.exhaustive_ml: ties on the
    distance go to the lexicographically smallest label.  Returns
    (label, distance).
    """
    D = instance.H @ instance.code.generator
    base = instance.received - instance.H @ instance.code.translate
    best_d = math.inf
    best_label = None
    for X in _label_chunks(instance.code.info_set, instance.code.dim):
        diff = base[None, :] - X @ D.T
        dists = np.einsum("ij,ij->i", diff, diff)
        d = float(dists.min())
        rows = X[dists == d]
        cand = rows[np.lexsort(rows.T[::-1])[0]].copy()
        if d < best_d:
            best_d, best_label = d, cand
        elif d == best_d and tuple(cand) < tuple(best_label):
            best_label = cand
    return best_label, best_d


def _zigzag(problem, label):
    """The children of node `label` in the Schnorr-Euchner zigzag order, as a
    function of the rank: (coord, w), or None past the last one of a box."""
    k = len(label)
    row = problem.lev_rows[k]
    resid = problem.lev_y[k]
    for j in range(k):
        resid -= row[j] * label[j]
    diag = row[k]
    c = resid / diag
    a = math.floor(c + 0.5)
    delta = 1 if (c - a) >= 0 else -1

    def coord(rank):
        t = (rank + 1) // 2
        return a + t * delta if rank % 2 == 1 else a - t * delta

    q = problem.boundary_q
    if q is not None:
        box = []
        rank = 0
        while len(box) < q:
            if 0 <= coord(rank) < q:
                box.append(coord(rank))
            rank += 1

    def child(rank):
        if q is not None and rank >= q:
            return None
        x = coord(rank) if q is None else box[rank]
        d = resid - diag * x
        return x, d * d

    return child


def fano_decode_visited(problem, bias=1.0, step=1.0, node_budget=None, on_node=None):
    """Fano decoding with a new child generator per forward move and a set
    of the labels visited.

    Same contract as latdec.search.fano_decode: unique_nodes is one plus
    the number of distinct labels entered.
    """
    m = problem.m
    path = []
    gs = [0.0]
    fs = [0.0]
    kids = [_zigzag(problem, path)]
    ranks = [0]  # ranks[k]: the rank of the level-k node's candidate child
    t_mult = 0  # threshold T = t_mult * step
    evals = 0
    visited = set()
    budget_hit = False
    k = 0

    while True:
        if node_budget is not None and evals >= node_budget:
            budget_hit = True
            break
        T = t_mult * step
        got = kids[k](ranks[k])
        evals += 1
        if got is None:
            f_cand = math.inf
        else:
            coord, w = got
            g_cand = gs[k] + w
            f_cand = g_cand - bias * (k + 1)
        if f_cand <= T:
            path.append(coord)
            gs.append(g_cand)
            fs.append(f_cand)
            k += 1
            visited.add(tuple(path))
            if on_node is not None:
                on_node((k, tuple(path), g_cand, f_cand, T))
            if k == m:
                break
            if fs[k - 1] > T - step:  # first visit: pull T down as far as allowed
                while fs[k] <= (t_mult - 1) * step:
                    t_mult -= 1
            kids.append(_zigzag(problem, path))
            ranks.append(0)
        elif k == 0 or fs[k - 1] > T:
            t_mult += 1  # cannot move back: relax and look forward again
            ranks[k] = 0
        else:
            path.pop()  # move back, try the next-best sibling
            gs.pop()
            fs.pop()
            kids.pop()
            ranks.pop()
            k -= 1
            ranks[k] += 1

    return _finish(problem, "fano", None if budget_hit else tuple(path), gs[-1], evals,
                   budget_hit, unique=1 + len(visited))


@dataclass
class OracleBox:
    """Integer search box in level order: center +- radius per coordinate."""

    center: np.ndarray
    radius: np.ndarray


def babai_box(problem):
    """Box certified to contain the closest lattice point.

    Any point at least as close as the successive-rounding point z_B
    satisfies |z_i - z*_i| <= ||row_i(R^-1)|| * d_B around the real
    least-squares solution z*, which gives a per-coordinate radius.
    """
    R = problem.R
    y = problem.y
    m = problem.m
    # successive rounding in level order (bottom row first)
    z_babai = []
    for k in range(m):
        row = problem.lev_rows[k]
        resid = problem.lev_y[k]
        for j in range(k):
            resid -= row[j] * z_babai[j]
        z_babai.append(math.floor(resid / row[k] + 0.5))
    z_phys = np.array(z_babai[::-1], dtype=float)
    d_babai = float(np.linalg.norm(y - R @ z_phys))
    Rinv = np.linalg.inv(R)
    z_star = Rinv @ y
    center_phys = np.floor(z_star + 0.5).astype(int)
    row_norms = np.linalg.norm(Rinv, axis=1)
    radius_phys = np.floor(row_norms * d_babai + 0.5 + 1e-12).astype(int)
    return OracleBox(center=center_phys[::-1].copy(), radius=radius_phys[::-1].copy())


def box_clps(problem, box):
    """Exact closest point over the box by direct enumeration.

    For constrained problems the box is clipped to {0..Q-1}.  Returns
    (label, distance) with lexicographic tie resolution.
    """
    lo = box.center - box.radius
    hi = box.center + box.radius
    if problem.boundary_q is not None:
        lo = np.maximum(lo, 0)
        hi = np.minimum(hi, problem.boundary_q - 1)
    widths = np.maximum(hi - lo + 1, 0)
    total = int(np.prod(widths.astype(object)))
    if total > ENUM_GUARD:
        raise TooLarge(f"box volume {total} exceeds guard {ENUM_GUARD}")
    if total == 0:
        raise TooLarge("empty box")
    R = problem.R
    y = problem.y
    best_d = math.inf
    best_label = None
    weights = np.concatenate([np.cumprod(widths[::-1])[::-1][1:], [1]]).astype(np.int64)
    for start in range(0, total, REF_CHUNK):
        idx = np.arange(start, min(start + REF_CHUNK, total), dtype=np.int64)
        Z = lo[None, :] + (idx[:, None] // weights[None, :]) % widths[None, :]
        Zphys = Z[:, ::-1]
        diff = y[None, :] - Zphys @ R.T
        dists = np.einsum("ij,ij->i", diff, diff)
        i = int(np.argmin(dists))
        if dists[i] < best_d:
            best_d = float(dists[i])
            best_label = tuple(int(v) for v in Z[i])
    return best_label, best_d


@dataclass
class PohstBudget:
    """Node condition: every prefix path metric stays <= C0."""

    C0: float


@dataclass
class MaxCost:
    """Node condition: max over prefixes of (path metric - b*level) < delta."""

    b: float
    delta: float


def enumerate_node_set(problem, condition, guard=ENUM_GUARD):
    """Exact set of node labels (levels 1..m) satisfying the condition.

    Direct recursive enumeration; the prefix structure of both conditions
    makes children of failing nodes fail too, so the recursion only visits
    members.  Raises TooLarge past `guard` nodes.
    """
    m = problem.m
    q = problem.boundary_q
    out = set()

    def allowed(level, cum):
        # remaining metric budget for the child at `level` (1-based)
        if isinstance(condition, PohstBudget):
            return condition.C0 - cum, False
        return condition.delta + condition.b * level - cum, True

    def recurse(label, cum):
        k = len(label)
        if k == m:
            return
        rem, strict = allowed(k + 1, cum)
        if rem < 0 or (strict and rem <= 0):
            return
        row = problem.lev_rows[k]
        resid = problem.lev_y[k]
        for j in range(k):
            resid -= row[j] * label[j]
        diag = row[k]
        s = math.sqrt(rem)
        lo = math.ceil((resid - s) / diag)
        hi = math.floor((resid + s) / diag)
        if q is not None:
            lo = max(lo, 0)
            hi = min(hi, q - 1)
        for x in range(lo, hi + 1):
            d = resid - diag * x
            w = d * d
            if (w >= rem) if strict else (w > rem):
                continue
            child = label + (x,)
            out.add(child)
            if len(out) > guard:
                raise TooLarge(f"node set exceeds guard {guard}")
            recurse(child, cum + w)

    recurse((), 0.0)
    return out


def _bit_errors(decoded, truth, q, info_len):
    dec = np.clip(np.asarray(decoded[:info_len], dtype=int), 0, q - 1)
    tru = np.asarray(truth[:info_len], dtype=int)
    x = np.bitwise_xor(dec, tru)
    return int(sum(int(v).bit_count() for v in x))


def run_frames_per_decode(cfgs, snr_db, point_idx, start, count, collect_frames, dump_limit):
    """sim._run_frames with the tally made per decode, frame by frame.

    Same contract: one PointStats per config, per config the frame records
    when collect_frames is set, and the first dump_limit failing decodes in
    (frame, config) order.
    """
    base = cfgs[0]
    kind = sim._KIND_OF_CONFIG[type(base.channel)]
    sample = getattr(channels, kind.sampler)
    ch_cfg = replace(base.channel, rho=10.0 ** (snr_db / 10.0))
    sample_kwargs = {"noiseless": base.noiseless}
    if base.fixed_channel and not kind.static:
        sample_kwargs["channel"] = channels.draw_mimo_channel(
            ch_cfg, channels.frame_rng(base.seed, point_idx))
    plans = {}
    static_channel = base.fixed_channel or kind.static
    stats = [sim.PointStats(snr_db=snr_db) for _ in cfgs]
    frames = [[] for _ in cfgs]
    failures = []
    for frame in range(start, start + count):
        rng = channels.frame_rng(base.seed, point_idx, frame)
        inst = sample(ch_cfg, rng, **sample_kwargs)
        info_len = inst.info_len or inst.code.dim
        ml_res = None
        ml_plan = None  # the frame's own MlPlan, built when a config first needs it
        if not static_channel:
            plans.clear()
        for ci, cfg in enumerate(cfgs):
            if (cfg.decoder.name == "ml" or cfg.shadow_oracle) and ml_plan is None:
                ml_plan = oracle.MlPlan(inst.H, inst.code)
            if cfg.decoder.name == "ml":
                problem = ml_plan
            else:
                if cfg.preproc not in plans:
                    plans[cfg.preproc] = cfg.preproc.plan(inst.H, inst.code)
                problem = plans[cfg.preproc].problem_for(inst.received)
            res = sim.decode_frame(inst, problem, cfg.decoder)
            err = not np.array_equal(res.info, inst.x_true)
            st = stats[ci]
            st.dim = inst.code.dim
            st.trials += 1
            st.frame_errors += int(err)
            st.bit_errors += _bit_errors(res.info, inst.x_true, cfg.channel.Q, info_len)
            st.info_bits += info_len * sim._bits_per_symbol(cfg.channel.Q)
            st.nc_values.append(res.nc)
            st.restarts += res.restarts
            st.budget_hits += int(res.budget_hit)
            if cfg.shadow_oracle:
                if ml_res is None:
                    ml_res = oracle.exhaustive_ml(inst, ml_plan)
                d_dec = sim._channel_distance(inst, res.info)
                if d_dec > ml_res.distance * (1 + 1e-9) + 1e-9:
                    st.shadow_disagreements += 1
            if err and len(failures) < dump_limit:
                failures.append((point_idx, frame, ci, inst.to_json()))
            if collect_frames:
                frames[ci].append((point_idx, frame, int(err), res.nc, res.unique, res.distance,
                                   tuple(int(v) for v in res.info)))
    return stats, frames, failures
