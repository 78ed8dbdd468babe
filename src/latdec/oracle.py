"""Exhaustive maximum-likelihood decoding, independent of the tree search engine.

It enumerates the code's candidate labels directly, in lexicographic
order, with vectorized numpy; none of the branch-and-bound machinery is
reused, so the `ml` decoder and the shadow oracle certify the search
results at desk scale.  Exhaustive ML splits like the tree preprocessing:
an MlPlan holds what depends only on the channel and the code (for an
explicit information set, every candidate's noiseless output), so a sweep
builds it once per static channel and each frame only measures distances.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooLarge

ENUM_GUARD = 2**20
ENUM_CHUNK = 4096  # candidate labels per vectorized batch


@dataclass
class MlResult:
    label: np.ndarray
    distance: float
    tie: bool


def _enumerate_labels(info_set, m):
    """Yield candidate label chunks (arrays of shape (B, m)) in lexicographic order."""
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
        if not np.isfinite(H).all():
            raise ValueError("H: non-finite entries")
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
    None.  The candidates come in lexicographic order, so the first label
    at the least distance, the one kept, is the lexicographically smallest
    of those tied; a tie is flagged in the result.  A non-finite received
    vector raises ValueError.
    """
    if plan is None:
        plan = MlPlan(instance.H, instance.code)
    if not np.isfinite(instance.received).all():
        raise ValueError("received: non-finite entries")
    base = instance.received - plan.offset
    best_d, best_label, tie = math.inf, None, False
    for X, outputs in plan.chunks():
        diff = base[None, :] - outputs
        dists = np.einsum("ij,ij->i", diff, diff)
        i = int(np.argmin(dists))
        d = float(dists[i])
        if d < best_d:  # an earlier chunk keeps its label on an equal distance
            best_d, best_label, tie = d, X[i].copy(), np.count_nonzero(dists == d) > 1
        elif d == best_d:
            tie = True
    return MlResult(label=best_label, distance=best_d, tie=bool(tie))
