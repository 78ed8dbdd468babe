"""Exhaustive maximum-likelihood decoding, independent of the tree search engine.

It enumerates the code's candidate labels directly, in lexicographic
order, with vectorized numpy; none of the branch-and-bound machinery is
reused, so the `ml` decoder and the shadow oracle certify the search
results at desk scale.  An MlPlan holds what depends only on the channel
and the code, and forms the candidates block by block when a call reaches
them.  On a static channel a sweep narrows one plan per chunk of frames,
in one pass, to each frame's shortlist (MlPlan.narrow), and exhaustive_ml
then decides each frame exactly, with its one loop, on that shortlist.
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

    It holds the noiseless translate H v and D = H G.  iter_blocks() forms
    the candidate labels X (an explicit code's by slice) and their outputs
    X D' when a call reaches them, in blocks of `rows` labels, the most for
    which every array of a block (labels, outputs, residuals) fits in
    BLOCK_BYTES.  A plan from narrow iterates its frame's shortlist instead.
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
        self.shortlist = None  # a narrowed plan's (labels, outputs) pieces

    def iter_blocks(self):
        """(labels, noiseless outputs) of every block, in lexicographic order."""
        if self.shortlist is not None:
            yield from self.shortlist
            return
        info, size = self.info_set, self.info_set.size(self.m)
        weights = info.q ** np.arange(self.m - 1, -1, -1) if info.kind == "hypercube" else None
        for s in range(0, size, self.rows):
            if weights is None:  # explicit labels, by slice
                X = np.asarray(info.labels[s:s + self.rows], dtype=int)
            else:  # a hypercube label's base-q digits, from its index
                X = (np.arange(s, min(s + self.rows, size))[:, None] // weights) % info.q
            yield X, X.astype(float) @ self.D.T

    def narrow(self, received):
        """One plan per received vector, holding only its ML shortlist.

        received holds the received vectors of this plan's channel, one per
        frame (a frames x outputs array or a sequence of vectors).  A
        frame's plan has this plan's offset and iterates, in lexicographic
        order, only the candidates within a provable tolerance tol of the
        frame's least expanded distance, so exhaustive_ml decides on it,
        label and distance bit for bit, what it decides on this plan.

        The tolerance.  Let b = received - offset (exhaustive_ml's base, the
        same floats), o a candidate's noiseless output, n = len(b),
        u = eps / 2 and g = (n + 2) u / (1 - (n + 2) u).  exhaustive_ml
        computes D(o) = sum fl(b_i - o_i)^2, within g |b - o|^2 of
        d(o) = |b - o|^2.  Here E(o) = fl(|o|^2 - 2 b.o), with the dot
        products of a batch of frames from one GEMM, is within
        g (|o|^2 + 2 |b| |o|) of e(o) = d(o) - |b|^2.  With rho >= |o| for
        every candidate (rho = sum_j s_j |D_j| over the columns of D, s_j
        the largest |label entry| of coordinate j), each error is at most
        g (|b| + rho)^2, so their sum err is at most 4 g (|b|^2 + rho^2).
        If exhaustive_ml keeps o* and E is least at o', then E(o*) <=
        e(o*) + err(o*) <= D(o*) - |b|^2 + err(o*) <= D(o') - |b|^2 +
        err(o*) <= E(o') + err(o*) + err(o'), i.e. E(o*) <= E(o') +
        8 g (|b|^2 + rho^2); tol is twice that, to cover the rounding of
        tol and of the comparison.

        The pass forms each block's E once and keeps a candidate while
        E <= least + tol, least the frame's least E so far; a last filter
        keeps those with E <= L, the final least + tol.  Each of those was
        kept when its block was seen, as float addition is monotone and the
        least then was at least the final one.  So the shortlist holds o*,
        in lexicographic order, and every candidate before o* in it has a
        larger D: o* is its first least D again.  A frame without a finite
        L (an overflow, or a non-finite received vector, which exhaustive_ml
        rejects) gets this plan itself.  Frames go in batches of
        BLOCK_BYTES // (8 max(rows, n)), so every array formed here stays
        under BLOCK_BYTES, like those of exhaustive_ml.
        """
        frames, n = len(received), len(self.offset)
        batch = max(1, BLOCK_BYTES // (8 * max(self.rows, n)))
        bases = [np.asarray(received[s:s + batch], dtype=float) - self.offset
                 for s in range(0, frames, batch)]
        if self.info_set.kind == "explicit":  # max |label| per coordinate, without an |X| copy
            labels = self.info_set.labels
            span = np.maximum(labels.max(axis=0), -labels.min(axis=0))
        else:
            span = np.full(self.m, self.info_set.q - 1.0)
        rho = float(span @ np.sqrt(np.einsum("ij,ij->j", self.D, self.D)))
        u = np.finfo(float).eps / 2
        g = (n + 2) * u / (1 - (n + 2) * u)
        tols = [16 * g * (np.einsum("ij,ij->i", B, B) + rho * rho) for B in bases]
        least = [np.full(len(B), math.inf) for B in bases]
        kept = [[] for _ in range(frames)]  # per frame, (labels, outputs, E, least E) pieces
        for X, outputs in self.iter_blocks():
            scaled = np.multiply(outputs.T, -2.0, order="C")  # a contiguous GEMM operand
            norms = np.einsum("ij,ij->i", outputs, outputs)
            for k, B in enumerate(bases):
                E = B @ scaled  # E[f, c] = |o_c|^2 - 2 b_f.o_c
                E += norms
                low = E.min(axis=1)
                np.minimum(least[k], low, out=least[k])
                limit = least[k] + tols[k]
                lows, limits = low.tolist(), limit.tolist()
                for f in np.flatnonzero(low <= limit).tolist():
                    row = (E[f] <= limits[f]).nonzero()[0]
                    kept[k * batch + f].append((X.take(row, axis=0), outputs.take(row, axis=0),
                                                E[f].take(row), lows[f]))
        limits = [x for lows, tol in zip(least, tols) for x in (lows + tol).tolist()]
        plans = [self] * frames
        for f, (pieces, limit) in enumerate(zip(kept, limits)):
            if math.isfinite(limit):  # the last filter; a piece it empties is dropped
                plans[f] = object.__new__(type(self))
                plans[f].__dict__ = {**vars(self), "shortlist": [
                    (X, outputs) if len(E) == 1 else (X[E <= limit], outputs[E <= limit])
                    for X, outputs, E, low in pieces if low <= limit]}
        return plans


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
