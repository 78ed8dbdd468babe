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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, IncompatibleBoundary, RankDeficient
from .lattice import LatticeCode, UnimodularRecord
from .linalg import full_rank, qr_decompose, triangular_columns

LEFT_MODES = ("zf", "mmse")
RIGHT_MODES = ("none", "lll", "permute", "lll+permute")
BOX_RIGHT_MODES = ("none", "permute")  # the right modes that keep a box: permutations
BOUNDARIES = ("lattice", "constrained")
ORDER_TIE_RTOL = 1e-9  # relative gain difference below which ordering counts a tie


@dataclass
class LeftPreprocResult:
    """Forward filter Q1 (n x m) and backward filter R1 (m x m upper triangular)."""

    Q1: np.ndarray
    R1: np.ndarray


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
        return LeftPreprocResult(Q1=Qa[:n], R1=R1)
    if mode == "zf":
        Q1, R1 = qr_decompose(H)  # raises RankDeficient when rank < m
        return LeftPreprocResult(Q1=Q1, R1=R1)
    raise ValueError(f"unknown left preprocessing mode {mode!r}")


def vblast_greedy_order(A):
    """Greedy detection ordering: returns perm with A[:, perm] the reordered matrix.

    Detection proceeds bottom row of R first.  At each step the column with
    the largest post-nulling gain (smallest pseudo-inverse row norm) among
    the remaining ones is detected next and placed in the lowest free
    position.  Gains within a relative ORDER_TIE_RTOL of the largest count
    as tied, and a tie keeps the natural column order: the last tied
    column is detected first.  The tolerance matters because the
    complex-to-real embedding gives the Re and Im columns of one symbol
    exactly equal gains, which rounding would otherwise tell apart.

    The squared pseudo-inverse row norms of the remaining columns are the
    diagonal of P = (A_S' A_S)^-1, so P is formed once from the QR factor
    of A and each detected column is removed by a rank-one downdate of P
    (Benesty, Huang and Chen, IEEE TSP 2003): O(m^3) in all.  Each step
    reads the diagonal once as Python floats, picks among the remaining
    columns there, and downdates P with one outer product; the column left
    last is detected first without a step.  A basis that fails
    linalg.full_rank, the rank rule of qr_decompose (a NaN or an infinite
    entry fails it too), raises RankDeficient, and so does one that is rank
    deficient in floating point even where |diag R| does not show it: some
    downdated diagonal entry of P is then not positive and finite.
    """
    A = np.asarray(A, dtype=float)
    m = A.shape[1]
    R = np.linalg.qr(A, mode="r")
    if not full_rank(A, R):
        raise RankDeficient("ordering needs full column rank")
    R_inv = np.linalg.inv(R)
    P = R_inv @ R_inv.T
    remaining = list(range(m))
    perm = [0] * m
    for slot in range(m - 1, 0, -1):
        diag = P.diagonal().tolist()
        rest = [diag[j] for j in remaining]
        # each must be positive and finite: min catches <= 0, the sum inf and NaN
        if not (min(rest) > 0.0 and sum(rest) < math.inf):
            raise RankDeficient("ordering needs full column rank")
        gains = [1.0 / v for v in rest]
        cut = max(gains) * (1.0 - ORDER_TIE_RTOL)
        best = [j for j, g in zip(remaining, gains) if g >= cut][-1]
        perm[slot] = best
        remaining.remove(best)
        p = P[:, best] / math.sqrt(diag[best])
        P -= p[:, None] * p
    perm[0] = remaining[0]  # the last column left needs no gain
    return perm


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
    if mode in ("lll", "lll+permute"):
        work, record = lll_reduce(A, delta=lll_delta, deep=lll_deep)
    else:
        work, record = A, UnimodularRecord.identity(m)
    if mode in ("permute", "lll+permute"):
        perm = vblast_greedy_order(work)
        work = work[:, perm]
        record = record.permuted(perm)
    if triangular_columns(work) is not None:
        return np.eye(m), work, record  # already upper triangular, QR is trivial
    return (*qr_decompose(work), record)


def apply_back_map(label, back_map):
    """Map a search label back to the information vector (an int array).

    The label is in level order (level 1 first); the integer inverse of the
    basis change, the UnimodularRecord back_map, is applied exactly.  Lattice
    decoding does not enforce the code's information set, so the result may
    lie outside it; such a vector differs from every transmitted one and
    counts as a frame error.
    """
    info = back_map.inverse_times(list(label)[::-1])  # physical coordinate order
    return np.asarray(info, dtype=int)


def level_rows(R):
    """Reverse-numbered rows of the upper-triangular R, as Python floats:
    entry [k-1][j-1] is R[m-k, m-j], the coefficient of label symbol x_j in
    the level-k residual (j <= k)."""
    rows = np.asarray(R, dtype=float)[::-1, ::-1].tolist()
    return tuple(tuple(row[:k]) for k, row in enumerate(rows, 1))


@dataclass
class TreeProblem:
    """Upper-triangular integer least-squares problem ready for tree search.

    R is upper triangular with a positive, finite diagonal; a problem that
    builds its own level view from an R that breaks this raises ValueError.
    R and y are in physical (top-down) orientation; lev_rows / lev_y expose
    the reverse-numbered view used by the search: lev_rows[k-1][j-1] is the
    coefficient of label symbol x_j in the level-k residual (see
    level_rows), and lev_y[k-1] is y[m-k].  A TreePlan passes the lev_rows
    of its R, shared by all of its problems; otherwise they are built here.
    boundary_q is None for lattice decoding or the alphabet size Q when the
    labels are constrained to {0..Q-1}.
    """

    R: np.ndarray
    y: np.ndarray
    back_map: UnimodularRecord
    boundary_q: int | None
    lev_rows: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        self.m = self.R.shape[0]
        if self.lev_rows is None:
            self.lev_rows = level_rows(self.R)
            if not all(0.0 < row[-1] < math.inf for row in self.lev_rows):
                raise ValueError("R needs a positive, finite diagonal")
        self.lev_y = tuple(np.asarray(self.y, dtype=float)[::-1].tolist())


@dataclass
class TreePlan:
    """Receiver-side preprocessing of (H, code); reusable across received frames.

    problem_for maps a received vector r to y = forward @ r - offset: the
    left filter and the final rotation folded into one matrix, and the
    code's translate carried through both.  The level view of R is built
    once here and shared by every problem of the plan.
    """

    R: np.ndarray
    back_map: UnimodularRecord
    boundary_q: int | None
    forward: np.ndarray
    offset: np.ndarray
    lev_rows: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.lev_rows = level_rows(self.R)

    def problem_for(self, received):
        received = np.asarray(received, dtype=float)
        if not np.isfinite(received).all():
            raise ValueError("received: non-finite entries")
        y = self.forward @ received - self.offset
        return TreeProblem(R=self.R, y=y, back_map=self.back_map, boundary_q=self.boundary_q,
                           lev_rows=self.lev_rows)


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
    if boundary not in BOUNDARIES:
        raise ValueError(f"unknown boundary mode {boundary!r}")
    if boundary == "constrained":
        if right_mode not in BOX_RIGHT_MODES:
            raise IncompatibleBoundary(
                "constrained search is only possible when the basis change is a permutation")
        if code.info_set.kind != "hypercube":
            raise IncompatibleBoundary("constrained search needs a hypercube information set")
    lp = left_preprocess(H, left_mode)
    B = lp.R1 @ code.generator
    Q2, R, record = right_preprocess(B, right_mode, lll_delta=lll_delta, lll_deep=lll_deep)
    boundary_q = code.info_set.q if boundary == "constrained" else None
    return TreePlan(R=R, back_map=record, boundary_q=boundary_q,
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
