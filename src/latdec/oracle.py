"""Exhaustive maximum-likelihood decoding, independent of the tree search engine.

It enumerates the code's candidate labels directly, in lexicographic
order, with vectorized numpy; none of the branch-and-bound machinery is
reused, so the `ml` decoder and the shadow oracle certify the search
results at desk scale.  Exhaustive ML splits like the tree preprocessing:
an MlPlan holds what depends only on the channel and the code, so a sweep
builds it once per static channel.  The candidates come in blocks small
enough that no call hands memory back to the system and faults it in
again; an explicit code's noiseless outputs are formed once, when the plan
is built.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooLarge

ENUM_GUARD = 2**20
# Bytes per array of one block of candidates, with room for the allocator's
# header.  glibc maps a buffer of 128 KiB or more afresh, and freeing one of
# 64 KiB or more trims the heap's top back to the system once that top
# passes 128 KiB; either way the next call faults the same pages in again.
BLOCK_BYTES = 2**16 - 2**10


def enumerable(size):
    """Whether exhaustive ML enumerates an information set of size labels
    (None for an unconstrained set); MlPlan raises TooLarge otherwise."""
    return size is not None and size <= ENUM_GUARD


@dataclass
class MlResult:
    label: np.ndarray
    distance: float


class MlPlan:
    """The channel-dependent part of exhaustive ML for (H, code), reusable
    across received frames while the channel stays the same.

    It holds the noiseless translate H v and D = H G, and takes the
    candidate labels X in blocks of `rows` labels, each with its outputs
    X D' in float64; `rows` is the most for which every array of a block
    (labels, outputs, residuals) fits in BLOCK_BYTES.  An explicit
    information set keeps its blocks, read-only, in `blocks` from
    construction on: those labels are in memory already, and the outputs
    take memory of the same order.  A hypercube set (up to ENUM_GUARD
    candidates) is never stored, so `blocks` is None and each call forms
    the blocks anew.
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
        self.rows = max(1, BLOCK_BYTES // (8 * max(self.D.shape)))
        self.blocks = None
        if self.info_set.kind == "explicit":
            labels = np.asarray(self.info_set.labels, dtype=int)
            self.blocks = [self._block(labels[i:i + self.rows])
                           for i in range(0, len(labels), self.rows)]
            for block in self.blocks:
                for a in block:
                    a.flags.writeable = False

    def _block(self, X):
        return X, X.astype(float) @ self.D.T

    def iter_blocks(self):
        """(labels, noiseless outputs) of every block, in lexicographic order."""
        if self.blocks is not None:
            yield from self.blocks
            return
        q, m = self.info_set.q, self.m
        total = q**m
        weights = q ** np.arange(m - 1, -1, -1)
        for start in range(0, total, self.rows):
            idx = np.arange(start, min(start + self.rows, total))
            yield self._block((idx[:, None] // weights) % q)


def exhaustive_ml(instance, plan=None):
    """Exact maximum-likelihood decision by full enumeration of the code.

    plan is an MlPlan of the instance's channel and code, built here for
    this call when None.  The candidates come in lexicographic order, so
    the first label at the least distance, the one kept, is the
    lexicographically smallest of those tied.  A non-finite received vector
    raises ValueError.
    """
    if plan is None:
        plan = MlPlan(instance.H, instance.code)
    if not np.isfinite(instance.received).all():
        raise ValueError("received: non-finite entries")
    base = instance.received - plan.offset
    best_d, best_label = math.inf, None
    for X, outputs in plan.iter_blocks():
        diff = base - outputs
        dists = np.einsum("ij,ij->i", diff, diff)
        i = dists.argmin()
        d = float(dists[i])
        if d < best_d:  # an earlier block keeps its label on an equal distance
            best_d, best_label = d, X[i].copy()
    return MlResult(label=best_label, distance=best_d)
