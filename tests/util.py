"""Shared helpers for building small test problems."""

import numpy as np

from latdec.lattice import UnimodularRecord
from latdec.preprocess import TreeProblem


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
