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
permutation record composed by integer matrix products.
"""

import math

import numpy as np

from latdec.errors import RankDeficient
from latdec.lattice import UnimodularRecord, _int_array
from latdec.linalg import QR_TOL
from latdec.preprocess import ORDER_TIE_RTOL, RIGHT_MODES
from latdec.search import _finish


def _int_eye(n):
    out = np.zeros((n, n), dtype=object)
    for i in range(n):
        out[i, i] = 1
    return out


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
    Q, R = np.linalg.qr(A, mode="reduced")
    signs = np.sign(np.diag(R))
    signs[signs == 0.0] = 1.0
    Q = Q * signs[np.newaxis, :]
    R = R * signs[:, np.newaxis]
    col_norms = np.linalg.norm(A, axis=0)
    scale = col_norms.max() if col_norms.size else 0.0
    if scale == 0.0 or np.abs(np.diag(R)).min() < QR_TOL * scale:
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
    if B.shape == (n, n) and np.all(np.diag(B) > 0) and not np.tril(B, -1).any():
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
    d = np.abs(np.diag(R))
    if R.shape[0] < m or d.min() <= d.max() * max(A.shape) * np.finfo(float).eps:
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
        record = perm_record(perm).compose_left(record)
    if work.shape[0] == m and np.all(np.diag(work) > 0) \
            and not np.tril(work, -1).any():
        Q, R = np.eye(m), work
    else:
        Q, R = qr_decompose_signs(work)
    return Q, R, record


def _label_chunks(info_set, m, chunk=4096):
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
    distance go to the lexicographically smallest label and are flagged.
    Returns (label, distance, tie).
    """
    D = instance.H @ instance.code.generator
    base = instance.received - instance.H @ instance.code.translate
    best_d = math.inf
    best_label = None
    tie = False
    for X in _label_chunks(instance.code.info_set, instance.code.dim):
        diff = base[None, :] - X @ D.T
        dists = np.einsum("ij,ij->i", diff, diff)
        d = float(dists.min())
        rows = X[dists == d]
        cand = rows[np.lexsort(rows.T[::-1])[0]].copy()
        if d < best_d:
            best_d, best_label, tie = d, cand, len(rows) > 1
        elif d == best_d:
            tie = True
            if tuple(cand) < tuple(best_label):
                best_label = cand
    return best_label, best_d, tie


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
    t_mult_max = 0
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
            t_mult_max = max(t_mult_max, t_mult)
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
                   budget_hit, unique=1 + len(visited), max_threshold=t_mult_max * step)
