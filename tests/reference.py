"""Reference implementations the library's fast kernels are tested against.

These are the textbook forms the library started from: LLL on the
Gram-Schmidt coefficients with exact Python-int records, recomputing the
whole Gram-Schmidt data after each deep insertion, the greedy ordering
with one pseudo-inverse per detected column, and exhaustive ML that forms
every candidate's channel output again on each call, from integer labels.
The Fano decoder is the form that builds a fresh child generator on every
forward move, revisits included, and keeps a set of the labels visited.
They are slow and kept only as oracles.
"""

import math

import numpy as np

from latdec.errors import RankDeficient
from latdec.lattice import UnimodularRecord
from latdec.preprocess import ORDER_TIE_RTOL
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
