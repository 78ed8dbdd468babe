"""Preprocessing pipeline: DFE front-ends, basis change, and tree forming.

The pipeline turns a noisy linear-channel observation of a lattice codeword
into an upper-triangular integer least-squares problem.  Stages:

  1. left preprocessing  - QR of the channel (ZF) or of the augmented
     matrix [H; I] (MMSE), which is always full rank and well conditioned;
  2. right preprocessing - unimodular change of basis of the combined
     filter/code matrix (LLL reduction, greedy column ordering, or both);
  3. tree forming        - final QR and reverse level numbering, so the
     metric at level k depends only on the first k label symbols.

Levels are numbered from the bottom row of R upward: level 1 is the last
physical row, level m the first.  A search label (x_1 .. x_k) fixes the
last k entries of the integer solution vector.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IncompatibleBoundary, RankDeficient
from .lattice import LatticeCode, UnimodularRecord
from .linalg import qr_decompose

LEFT_MODES = ("zf", "mmse")
RIGHT_MODES = ("none", "lll", "permute", "lll+permute")


@dataclass
class LeftPreprocResult:
    """Forward filter Q1 (n x m) and backward filter R1 (m x m upper triangular)."""

    Q1: np.ndarray
    R1: np.ndarray
    mode: str


def left_preprocess(H, mode="mmse"):
    """Compute the DFE front-end filters for the channel matrix H.

    MMSE mode factors the augmented matrix [H; I], so R1' R1 = I + H' H and
    the result exists for any H (including wide matrices).  ZF mode is the
    plain QR of H and requires full column rank.
    """
    H = np.asarray(H, dtype=float)
    n, m = H.shape
    if mode == "mmse":
        aug = np.vstack([H, np.eye(m)])
        Qa, R1 = qr_decompose(aug)
        return LeftPreprocResult(Q1=Qa[:n], R1=R1, mode="mmse")
    if mode == "zf":
        Q1, R1 = qr_decompose(H)  # raises RankDeficient when rank < m
        return LeftPreprocResult(Q1=Q1, R1=R1, mode="zf")
    raise ValueError(f"unknown left preprocessing mode {mode!r}")


def vblast_greedy_order(A):
    """Greedy detection ordering: returns perm with A[:, perm] the reordered matrix.

    Detection proceeds bottom row of R first.  At each step the column with
    the largest post-nulling gain (smallest pseudo-inverse row norm) among
    the remaining ones is detected next and placed in the lowest free
    position.  Ties keep the natural column order.
    """
    A = np.asarray(A, dtype=float)
    m = A.shape[1]
    if np.linalg.matrix_rank(A) < m:
        raise RankDeficient("ordering needs full column rank")
    remaining = list(range(m))
    perm = [0] * m
    for slot in range(m - 1, -1, -1):
        sub = A[:, remaining]
        pinv = np.linalg.pinv(sub)
        gains = 1.0 / np.sum(pinv * pinv, axis=1)
        # last occurrence of the max, so exact ties keep the natural order
        best = len(gains) - 1 - int(np.argmax(gains[::-1]))
        perm[slot] = remaining.pop(best)
    return perm


def _perm_record(perm):
    """Unimodular record of the column permutation A -> A[:, perm]."""
    m = len(perm)
    P = np.zeros((m, m), dtype=object)
    for i, p in enumerate(perm):
        P[p, i] = 1
    return UnimodularRecord(T=P.T.copy(), T_inv=P)


def right_preprocess(A, mode="none", lll_delta=0.99, lll_deep=False):
    """Factor A = Q R T with T unimodular chosen to sparsify R.

    mode "none" is a plain QR; "lll" reduces the basis first; "permute"
    applies the greedy detection ordering; "lll+permute" reduces and then
    orders the reduced basis.
    """
    from .lattice import lll_reduce

    A = np.asarray(A, dtype=float)
    m = A.shape[1]
    if mode not in RIGHT_MODES:
        raise ValueError(f"unknown right preprocessing mode {mode!r}")
    record = UnimodularRecord.identity(m)
    work = A
    if mode in ("lll", "lll+permute"):
        work, record = lll_reduce(A, delta=lll_delta, deep=lll_deep)
    if mode in ("permute", "lll+permute"):
        perm = vblast_greedy_order(work)
        work = work[:, perm]
        record = _perm_record(perm).compose_left(record)
    if work.shape[0] == m and np.all(np.diag(work) > 0) \
            and not np.tril(work, -1).any():
        Q, R = np.eye(m), work  # already upper triangular, QR is trivial
    else:
        Q, R = qr_decompose(work)
    return Q, R, record


@dataclass
class BackMap:
    """Inverse bookkeeping from search labels to information symbols."""

    record: UnimodularRecord


def apply_back_map(label, back_map):
    """Map a search label back to the information vector (an int array).

    The label is in level order (level 1 first); the integer inverse of the
    basis change is applied exactly.  Lattice decoding does not enforce the
    code's information set, so the result may lie outside it; such a vector
    differs from every transmitted one and counts as a frame error.
    """
    z = np.array(list(label)[::-1], dtype=object)  # physical coordinate order
    info = back_map.record.T_inv @ z
    return np.array([int(v) for v in info], dtype=int)


@dataclass
class TreeProblem:
    """Upper-triangular integer least-squares problem ready for tree search.

    R and y are in physical (top-down) orientation; lev_rows / lev_y expose
    the reverse-numbered view used by the search: lev_rows[k-1][j-1] is the
    coefficient of label symbol x_j in the level-k residual.
    boundary_q is None for lattice decoding or the alphabet size Q when the
    labels are constrained to {0..Q-1}.
    """

    R: np.ndarray
    y: np.ndarray
    back_map: BackMap
    boundary_q: int | None

    def __post_init__(self):
        m = self.R.shape[0]
        self.m = m
        self.lev_y = tuple(float(self.y[m - k]) for k in range(1, m + 1))
        self.lev_rows = tuple(
            tuple(float(self.R[m - k, m - j]) for j in range(1, k + 1))
            for k in range(1, m + 1)
        )

    def path_metric(self, label):
        """Total squared distance accumulated by a (partial) label."""
        return sum(node_metric(self, label[: k + 1]) for k in range(len(label)))


def node_metric(problem, label):
    """Squared level-k residual of the partial label (x_1 .. x_k)."""
    k = len(label)
    row = problem.lev_rows[k - 1]
    s = problem.lev_y[k - 1]
    for j in range(k):
        s -= row[j] * label[j]
    return s * s


@dataclass
class TreePlan:
    """Receiver-side preprocessing of (H, code); reusable across received frames.

    problem_for maps a received vector r to y = forward @ r - offset: the
    left filter and the final rotation folded into one matrix, and the
    code's translate carried through both.
    """

    R: np.ndarray
    back_map: BackMap
    boundary_q: int | None
    forward: np.ndarray
    offset: np.ndarray

    def problem_for(self, received):
        received = np.asarray(received, dtype=float)
        if not np.isfinite(received).all():
            raise ValueError("received: non-finite entries")
        y = self.forward @ received - self.offset
        return TreeProblem(R=self.R, y=y, back_map=self.back_map, boundary_q=self.boundary_q)


def prepare_tree(H, code: LatticeCode, left_mode="mmse", right_mode="none",
                 boundary="lattice", lll_delta=0.99, lll_deep=False):
    """Run the channel-dependent preprocessing once; see form_tree."""
    H = np.asarray(H, dtype=float)
    if not np.isfinite(H).all():
        raise ValueError("H: non-finite entries")
    m = H.shape[1]
    if code.dim != m:
        raise DimensionMismatch(f"code dimension {code.dim} != channel columns {m}")
    if left_mode not in LEFT_MODES:
        raise ValueError(f"unknown left preprocessing mode {left_mode!r}")
    if boundary not in ("lattice", "constrained"):
        raise ValueError(f"unknown boundary mode {boundary!r}")
    if boundary == "constrained":
        if right_mode not in ("none", "permute"):
            raise IncompatibleBoundary(
                "constrained search is only possible when the basis change is a permutation")
        if code.info_set.kind != "hypercube":
            raise IncompatibleBoundary("constrained search needs a hypercube information set")
    lp = left_preprocess(H, left_mode)
    B = lp.R1 @ code.generator
    Q2, R, record = right_preprocess(B, right_mode, lll_delta=lll_delta, lll_deep=lll_deep)
    boundary_q = code.info_set.q if boundary == "constrained" else None
    return TreePlan(R=R, back_map=BackMap(record), boundary_q=boundary_q,
                    forward=Q2.T @ lp.Q1.T, offset=Q2.T @ (lp.R1 @ code.translate))


def form_tree(received, H, code: LatticeCode, left_mode="mmse", right_mode="none",
              boundary="lattice", lll_delta=0.99, lll_deep=False):
    """Full preprocessing of one received frame into a TreeProblem.

    All transformations are folded into (R, y): the search minimizes
    |y - R z|^2 over integer z, and the back map recovers the information
    vector from the minimizer.
    """
    plan = prepare_tree(H, code, left_mode=left_mode, right_mode=right_mode,
                        boundary=boundary, lll_delta=lll_delta, lll_deep=lll_deep)
    return plan.problem_for(received)
