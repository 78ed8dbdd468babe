"""A fixed reference computation that tracks how fast the machine runs.

On a shared 2-core virtual machine the same work runs up to 2x slower
for spells that last from a fraction of a second to minutes.  CPU time
equals wall time through such a spell and steal time stays near zero, so
the guest cannot see the slowdown; only a known piece of work can.  The
benchmark runs ``reference()`` between its timed pieces and scales each
piece's wall time by ``NOMINAL_S`` over the reference times around it,
which gives the piece's time on the machine at its nominal speed.

The reference does what a latdec frame spends most of its time on: scalar
indexing and column updates on a small numpy array in a Python loop (as in
LLL and the searches), and small LAPACK calls (as in the QR
decompositions), about half and half.  Over ten minutes of such spells,
with a reference of this mix, the 30-second medians of scaled frame times
of three workloads stayed within 2-4 % of each other (largest over
smallest), against 19-29 % unscaled; a pure-Python loop as the reference
left 11-17 %.  It runs none of latdec's code, so a change to latdec cannot
move it.
"""

import bisect
import statistics
import time

import numpy as np

# Wall time of reference() on an idle 2-core x86-64 virtual machine (Xeon
# at 2.0 GHz, Python 3.11, numpy 2.4) in its fast spells.  Only ratios to it
# matter: it turns scaled times back into seconds of that machine.
NOMINAL_S = 0.0075
MARK_EVERY_S = 0.25  # reference runs at least this often in a timed stretch
NEIGHBOURS = 6  # reference runs on each side of a timed piece that scale it

_rng = np.random.default_rng(20050601)
_SQUARES = [_rng.standard_normal((16, 16)) for _ in range(80)]
_BASIS = _rng.standard_normal((16, 16))


def reference():
    """Fixed work of about NOMINAL_S; returns its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(8):
        B = _BASIS.copy()
        for k in range(1, 16):
            for j in range(k):
                q = round(B[k, j])
                B[:, k] -= 1e-3 * q * B[:, j]
                B[k, j] *= 0.999
    for A in _SQUARES:
        Q, R = np.linalg.qr(A)
        np.linalg.solve(R + 16.0 * np.eye(16), Q[:, 0])
    return time.perf_counter() - t0


class Yardstick:
    """Reference times along a run, to scale the wall times measured between them."""

    def __init__(self):
        self.ends = []   # perf_counter() at the end of each reference run
        self.secs = []   # its wall time

    def mark(self):
        secs = reference()
        self.ends.append(time.perf_counter())
        self.secs.append(secs)

    def mark_if_due(self):
        if not self.ends or time.perf_counter() - self.ends[-1] >= MARK_EVERY_S:
            self.mark()

    def scale(self, start, end):
        """NOMINAL_S over the median of the NEIGHBOURS last references before
        ``start`` and the NEIGHBOURS first after ``end``.

        Single reference runs read up to 4x slow, for instance right after a
        set-up probe's interpreter exits, and they wander by about 10 % from
        one to the next where the timed work does not; the median over about
        3 s of references ignores both.  In a run on a steady machine, a
        sweep block's scaled times varied by 6 % (coefficient of variation)
        over the passes with 6 references a side, 8 % with 2, 13 % with the
        single nearest on each side, and 9 % unscaled."""
        before = bisect.bisect_right(self.ends, start)
        after = bisect.bisect_left(self.ends, end)
        picks = self.secs[max(0, before - NEIGHBOURS):before] + self.secs[after:after + NEIGHBOURS]
        return NOMINAL_S / statistics.median(picks)
