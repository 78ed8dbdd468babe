"""Exhaustive maximum-likelihood decoding, independent of the tree search engine.

It enumerates the code's candidate labels directly, in lexicographic
order, with vectorized numpy; none of the branch-and-bound machinery is
reused, so the `ml` decoder and the shadow oracle certify the search
results at desk scale.  Exhaustive ML splits like the tree preprocessing:
an MlPlan holds what depends only on the channel and the code, so a sweep
builds it once per static channel.  The candidates come in blocks small
enough that no call hands memory back to the system and faults it in
again; an explicit code's noiseless outputs are formed once, when the plan
is built.  On a static channel a sweep also narrows the plan once per
chunk of frames (MlPlan.narrow): one GEMM per block and batch of frames
gives their expanded distances, in two passes (each frame's least one,
then its shortlist), and exhaustive_ml then decides each frame exactly,
with its one loop, on the frame's shortlist.
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

    def narrow(self, received):
        """One plan per received vector, holding only its ML shortlist.

        received holds the received vectors of this plan's channel, one per
        frame (a frames x outputs array or a sequence of vectors).  A
        frame's plan has this plan's offset and iter_blocks(), but its
        blocks hold, in lexicographic order, only the candidates within a
        provable tolerance of the frame's least expanded distance.  So
        exhaustive_ml(instance, plan) runs its one loop over the shortlist
        and decides, label and distance bit for bit, what it decides on
        this plan.

        The tolerance.  Let b = received - offset (exhaustive_ml's base, the
        same floats), o a candidate's noiseless output, n = len(b),
        u = eps / 2 and g = (n + 2) u / (1 - (n + 2) u).  exhaustive_ml
        computes D(o) = sum fl(b_i - o_i)^2, within g |b - o|^2 of
        d(o) = |b - o|^2.  Here E(o) = fl(|o|^2 - 2 b.o), with the dot
        products of a batch of frames from one GEMM, is within
        g (|o|^2 + 2 |b| |o|) of e(o) = d(o) - |b|^2.  With rho >= |o| for
        every candidate, each error is at most g (|b| + rho)^2, so their sum
        err is at most 4 g (|b|^2 + rho^2).  If exhaustive_ml keeps o* and E
        is least at o', then E(o*) <= e(o*) + err(o*) <= D(o*) - |b|^2 +
        err(o*) <= D(o') - |b|^2 + err(o*) <= E(o') + err(o*) + err(o'),
        i.e. E(o*) <= E(o') + 8 g (|b|^2 + rho^2).  The tolerance is twice
        that, which covers the rounding of the tolerance and of the
        comparison.  The shortlist thus holds o*, and every candidate it
        holds before o* has a larger D, so o* is its first least D again.
        rho is sum_j s_j |D_j| over the columns of D, s_j the largest
        |label entry| of coordinate j.  A frame without a finite tolerance
        (an overflow, or a non-finite received vector, which exhaustive_ml
        rejects) gets this plan itself.

        Frames go in batches of BLOCK_BYTES // (8 max(rows, n)), so every
        array formed here stays under BLOCK_BYTES, like those of
        exhaustive_ml.
        """
        frames, n = len(received), len(self.offset)
        batch = max(1, BLOCK_BYTES // (8 * max(self.rows, n)))
        bases = [np.asarray(received[s:s + batch], dtype=float) - self.offset
                 for s in range(0, frames, batch)]
        if self.blocks is None:
            span = np.full(self.m, self.info_set.q - 1.0)
        else:
            span = np.abs(self.info_set.labels).max(axis=0)
        rho = float(span @ np.sqrt(np.einsum("ij,ij->j", self.D, self.D)))
        u = np.finfo(float).eps / 2
        g = (n + 2) * u / (1 - (n + 2) * u)
        limits = [np.full(len(B), math.inf) for B in bases]
        for k, _, _, E in self._expanded(bases):  # each frame's least E
            np.minimum(limits[k], E.min(axis=1), out=limits[k])
        for B, limit in zip(bases, limits):
            limit += 16 * g * (np.einsum("ij,ij->i", B, B) + rho * rho)
        kept = [[] for _ in range(frames)]
        for k, X, outputs, E in self._expanded(bases):
            limit = limits[k]
            for f in np.flatnonzero(E.min(axis=1) <= limit).tolist():
                row = (E[f] <= limit[f]).nonzero()[0]
                kept[k * batch + f].append((X.take(row, axis=0), outputs.take(row, axis=0)))
        finite = [math.isfinite(x) for limit in limits for x in limit.tolist()]
        return [self._with_blocks(blocks) if ok else self for blocks, ok in zip(kept, finite)]

    def _expanded(self, bases):
        """(k, labels, outputs, E) for every block and every batch k of
        received bases, E[f, c] = |o_c|^2 - 2 b_f.o_c from one GEMM."""
        for X, outputs in self.iter_blocks():
            scaled = np.multiply(outputs.T, -2.0, order="C")  # a contiguous GEMM operand
            norms = np.einsum("ij,ij->i", outputs, outputs)
            for k, B in enumerate(bases):
                E = B @ scaled
                E += norms
                yield k, X, outputs, E

    def _with_blocks(self, blocks):
        plan = object.__new__(type(self))
        plan.__dict__ = {**self.__dict__, "blocks": blocks}
        return plan


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
