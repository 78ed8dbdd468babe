"""Exhaustive maximum-likelihood decoding, independent of the tree search engine.

It enumerates the code's candidate labels directly, in lexicographic
order, with vectorized numpy; none of the branch-and-bound machinery is
reused, so the `ml` decoder and the shadow oracle certify the search
results at desk scale.  Exhaustive ML splits like the tree preprocessing:
an MlPlan holds what depends only on the channel and the code, so a sweep
builds it once per static channel.  A plan streams the candidates' noiseless
outputs one chunk at a time, each chunk turned into the frame's residuals in
place, until it is used a second time: from then on it keeps the outputs of
an explicit information set and each frame only measures distances.  The
one-shot call exhaustive_ml(instance) thus never stores a candidate list.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooLarge

ENUM_GUARD = 2**20
# Candidate labels per vectorized batch.  256-label chunks sped up the
# streamed one-shot call on the isi_static benchmark workload, but a stored
# plan then reads 16 times as many chunks per frame, which cost that
# workload's sweep 7 % of its frames/s; so it stays at 4096.
ENUM_CHUNK = 4096


def enumerable(size):
    """Whether exhaustive ML enumerates an information set of size labels
    (None for an unconstrained set); MlPlan raises TooLarge otherwise."""
    return size is not None and size <= ENUM_GUARD


@dataclass
class MlResult:
    label: np.ndarray
    distance: float


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

    It holds the noiseless translate H v and D = H G.  The candidate
    outputs X D' come in float64, one matrix per chunk of labels.  A plan
    forms them on every call until its second use; from then on an
    explicit information set keeps them in `candidates` (those labels are
    in memory already, and the outputs take memory of the same order), so
    only a plan that is reused stores them.  A hypercube set (up to
    ENUM_GUARD candidates) is never stored.
    """

    def __init__(self, H, code):
        self.info_set = code.info_set
        self.m = code.dim
        if not np.isfinite(H).all():
            raise ValueError("H: non-finite entries")
        size = self.info_set.size(self.m)
        if not enumerable(size):
            raise TooLarge(f"information set size {size} exceeds guard {ENUM_GUARD}")
        self.D = H @ code.generator
        self.offset = H @ code.translate
        self.candidates = None
        self._used = False

    def _outputs(self):
        for X in _enumerate_labels(self.info_set, self.m):
            yield X, X.astype(float) @ self.D.T

    def chunks(self):
        """(labels, noiseless outputs) of every chunk of candidate labels.

        Stored outputs are read-only; outputs formed for this call are the
        caller's to overwrite.
        """
        if self._used and self.candidates is None and self.info_set.kind == "explicit":
            self.candidates = list(self._outputs())
            for _, outputs in self.candidates:
                outputs.flags.writeable = False
        self._used = True
        return self.candidates if self.candidates is not None else self._outputs()


def exhaustive_ml(instance, plan=None):
    """Exact maximum-likelihood decision by full enumeration of the code.

    plan is an MlPlan of the instance's channel and code, built here when
    None; that plan is used once, so it streams its candidates and stores
    none.  The candidates come in lexicographic order, so the first label
    at the least distance, the one kept, is the lexicographically smallest
    of those tied.  A non-finite received vector raises ValueError.
    """
    if plan is None:
        plan = MlPlan(instance.H, instance.code)
    if not np.isfinite(instance.received).all():
        raise ValueError("received: non-finite entries")
    base = instance.received - plan.offset
    best_d, best_label = math.inf, None
    for X, outputs in plan.chunks():
        # a chunk formed for this call becomes its residuals in place
        diff = np.subtract(base, outputs, out=outputs if outputs.flags.writeable else None)
        dists = np.einsum("ij,ij->i", diff, diff)
        i = int(np.argmin(dists))
        d = float(dists[i])
        if d < best_d:  # an earlier chunk keeps its label on an equal distance
            best_d, best_label = d, X[i].copy()
    return MlResult(label=best_label, distance=best_d)
