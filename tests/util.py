"""Shared helpers for building small test problems and reading results."""

import math

import numpy as np

from latdec.errors import LatdecError
from latdec.lattice import UnimodularRecord
from latdec.preprocess import TreeProblem
from latdec.search import INF, _Children


class AlignmentError(LatdecError):
    """Reports cannot be joined because their SNR grids differ."""


def make_problem(R, y, q=None):
    """TreeProblem with an identity back map, for hand-set R and y."""
    R = np.asarray(R, dtype=float)
    m = R.shape[0]
    return TreeProblem(R=R, y=np.asarray(y, dtype=float),
                       back_map=UnimodularRecord.identity(m), boundary_q=q)


def transmitted_label(problem, x_true):
    """Search-coordinate label of the transmitted info vector."""
    z = np.asarray(problem.back_map.T @ np.asarray(x_true, dtype=object))
    return tuple(int(v) for v in z[::-1])


def transmitted(instance):
    """The channel input G x_true + v of a ChannelInstance."""
    return instance.code.generator @ instance.x_true + instance.code.translate


def contains(info_set, x):
    """True iff the label x lies in the InfoSet."""
    x = np.asarray(x)
    if info_set.kind == "unconstrained":
        return True
    if info_set.kind == "hypercube":
        return bool(np.all(x >= 0) and np.all(x < info_set.q))
    return any(np.array_equal(x, row) for row in info_set.labels)


def complex_to_real_vector(u):
    """Stack real over imaginary parts: u -> [Re(u); Im(u)]."""
    u = np.asarray(u, dtype=complex)
    return np.concatenate([u.real, u.imag])


def node_metric(problem, label):
    """Squared level-k residual of the partial label (x_1 .. x_k)."""
    k = len(label)
    row = problem.lev_rows[k - 1]
    s = problem.lev_y[k - 1]
    for j in range(k):
        s -= row[j] * label[j]
    return s * s


def path_metric(problem, label):
    """Total squared distance accumulated by a (partial) label."""
    return sum(node_metric(problem, label[: k + 1]) for k in range(len(label)))


def child_interval(problem, parent_label, budget):
    """Admissible integer interval for the next label symbol.

    Returns (a0, a1) with a0 > a1 when the remaining budget is exhausted,
    or None when the budget is infinite (the interval is unbounded and the
    caller should use zigzag generation instead).  The interval is clipped
    to {0..Q-1} when the problem is constrained.
    """
    if budget == INF:
        return None
    parent_label = tuple(parent_label)
    kids = _Children(problem, parent_label, "vb", budget - path_metric(problem, parent_label))
    return kids.a, kids.hi  # "vb" ascends from a to hi


def se_child_order(problem, parent_label, count=None):
    """Child coordinates of a node in nondecreasing metric order.

    Yields (coord, w) pairs following the zigzag rule; for unconstrained
    problems the stream is infinite unless `count` limits it.
    """
    kids = _Children(problem, tuple(parent_label))
    while count is None or kids.rank < count:
        got = kids.peek(INF, True)
        if got is None:
            return
        kids.rank += 1
        yield got


def sign_test_p(wins, total):
    """One-sided exact sign test: P[Binomial(total, 1/2) >= wins]."""
    if total == 0:
        return 1.0
    acc = 0
    for i in range(wins, total + 1):
        acc += math.comb(total, i)
    return acc / 2.0**total


def gamma_ratio(report_a, report_b):
    """Per-SNR ratio of mean node generations between two SweepReports."""
    snrs_a = [p.snr_db for p in report_a.points]
    snrs_b = [p.snr_db for p in report_b.points]
    if snrs_a != snrs_b:
        raise AlignmentError(f"SNR grids differ: {snrs_a} vs {snrs_b}")
    out = {}
    for pa, pb in zip(report_a.points, report_b.points):
        mean_a = np.mean(pa.nc_values) if pa.nc_values else float("nan")
        mean_b = np.mean(pb.nc_values) if pb.nc_values else float("nan")
        out[pa.snr_db] = float(mean_a / mean_b)
    return out
