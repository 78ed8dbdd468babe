"""Brute-force reference decoders, independent of the tree search engine.

Everything here enumerates candidate sets directly (vectorized numpy over
explicit candidate lists); none of the branch-and-bound machinery is
reused, so these functions certify the search results at desk scale.
Exhaustive ML splits like the tree preprocessing: an MlPlan holds what
depends only on the channel and the code (for an explicit information
set, every candidate's noiseless output), so a sweep builds it once per
static channel and each frame only measures distances.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooLarge
from .preprocess import TreeProblem

ENUM_GUARD = 2**20
ENUM_CHUNK = 4096  # candidate labels per vectorized batch


@dataclass
class MlResult:
    label: np.ndarray
    distance: float
    tie: bool


def _enumerate_labels(info_set, m):
    """Yield candidate label chunks (arrays of shape (B, m))."""
    if info_set.kind == "explicit":
        labels = info_set.labels
        for i in range(0, len(labels), ENUM_CHUNK):
            yield np.asarray(labels[i:i + ENUM_CHUNK], dtype=int)
        return
    if info_set.kind != "hypercube":
        raise TooLarge("cannot enumerate an unconstrained information set")
    q = info_set.q
    total = q**m
    weights = q ** np.arange(m - 1, -1, -1)
    for start in range(0, total, ENUM_CHUNK):
        idx = np.arange(start, min(start + ENUM_CHUNK, total))
        yield (idx[:, None] // weights[None, :]) % q


class MlPlan:
    """The channel-dependent part of exhaustive ML for (H, code), reusable
    across received frames while the channel stays the same.

    It holds the noiseless translate H v and D = H G.  An explicit
    information set also keeps its candidate outputs X D' in float64, one
    matrix per chunk of labels: those labels are in memory already, and the
    outputs take memory of the same order.  A hypercube set (up to
    ENUM_GUARD candidates) is never materialized; its chunks are formed
    on every call.
    """

    def __init__(self, H, code):
        self.info_set = code.info_set
        self.m = code.dim
        size = self.info_set.size(self.m)
        if size is None or size > ENUM_GUARD:
            raise TooLarge(f"information set size {size} exceeds guard {ENUM_GUARD}")
        self.D = H @ code.generator
        self.offset = H @ code.translate
        self.candidates = None
        if self.info_set.kind == "explicit":
            self.candidates = list(self._outputs())

    def _outputs(self):
        for X in _enumerate_labels(self.info_set, self.m):
            yield X, X.astype(float) @ self.D.T

    def chunks(self):
        """(labels, noiseless outputs) of every chunk of candidate labels."""
        return self.candidates if self.candidates is not None else self._outputs()


def exhaustive_ml(instance, plan=None):
    """Exact maximum-likelihood decision by full enumeration of the code.

    plan is an MlPlan of the instance's channel and code, built here when
    None.  Ties on the distance resolve to the lexicographically smallest
    label and are flagged in the result.
    """
    if plan is None:
        plan = MlPlan(instance.H, instance.code)
    base = instance.received - plan.offset
    best_d = math.inf
    best_label = None
    tie = False
    for X, outputs in plan.chunks():
        diff = base[None, :] - outputs
        dists = np.einsum("ij,ij->i", diff, diff)
        i = int(np.argmin(dists))
        d = float(dists[i])
        if d < best_d:
            tie = bool(np.sum(dists == d) > 1)
            if tie:
                rows = X[dists == d]
                order = np.lexsort(rows.T[::-1])
                best_label = rows[order[0]].copy()
            else:
                best_label = X[i].copy()
            best_d = d
        elif d == best_d:
            tie = True
            rows = X[dists == d]
            order = np.lexsort(rows.T[::-1])
            cand = rows[order[0]]
            if tuple(cand) < tuple(best_label):
                best_label = cand.copy()
    return MlResult(label=best_label, distance=best_d, tie=tie)


@dataclass
class OracleBox:
    """Integer search box in level order: center +- radius per coordinate."""

    center: np.ndarray
    radius: np.ndarray


def babai_box(problem: TreeProblem):
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


def box_clps(problem: TreeProblem, box: OracleBox):
    """Exact closest point over the box by direct enumeration.

    For constrained problems the box is clipped to {0..Q-1}.  Returns
    (label, distance) with lexicographic tie resolution.
    """
    m = problem.m
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
    for start in range(0, total, ENUM_CHUNK):
        idx = np.arange(start, min(start + ENUM_CHUNK, total), dtype=np.int64)
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


def enumerate_node_set(problem: TreeProblem, condition, guard=ENUM_GUARD):
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
