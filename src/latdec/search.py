"""Tree search engine for upper-triangular integer least-squares problems.

One generic branch-and-bound loop (gbb_run) covers every decoder here.  It
inspects the top node of the ACTIVE list: a leaf updates the incumbent and
tightens the bound (rule g1); an invalid node (path metric beyond its
level's bound) and an exhausted node (no child left within the bound) are
removed; otherwise the node generates exactly one more child, the counter
and rule g2 are applied, and the list is re-sorted.  A decoder is a
SearchPolicy bundle of:

  * a sort rule for the ACTIVE list ("lifo" depth-first, "fifo" breadth-
    first, "cost" best-first, "level-cost" breadth-first by level), each one
    small class: a deque, a cost heap, or a level heap that applies g2;
  * a child generation order ("se" zigzag around the unconstrained
    minimizer, "vb" ascending from the low end of the admissible interval);
  * a bounding vector t (per level, +inf allowed) with a strict or
    non-strict validity comparison;
  * tightening rules: g1 shrinks the bound when a leaf is reached
    ("min"), g2 implements the per-level pruning of the M- and
    T-algorithms;
  * a bias b used by the best-first cost f = path_metric - b * level;
  * first_leaf_exit: the first leaf on top ends the search (Babai, stack).

Children come from one lazy generator per node (_Children) that yields the
next-level coordinates in the policy's order, each with its level metric.
The same generator serves gbb_run, the Fano decoder, se_child_order and
child_interval.  The memory-free Fano decoder (fano_decode) keeps only the
current path, one generator per level, and revisits nodes as its threshold
moves in multiples of the step size.  Every search returns through one
epilogue (_finish): the Babai fallback on a budget hit, EmptySearchSpace
when no leaf was found, and the SearchOutcome.

Complexity is counted in node generations: the root counts as one, and the
counter increments once per child placed in ACTIVE.  For the Fano decoder
node_generations counts every look-forward evaluation (revisits included)
while unique_nodes counts distinct labels.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass, replace

from .errors import EmptySearchSpace
from .preprocess import TreeProblem

INF = math.inf

DEFAULT_NODE_BUDGET = 10**6


# ---------------------------------------------------------------------------
# child generation


def _nearest_int(c):
    # nearest integer, half-way ties rounded up
    return math.floor(c + 0.5)


def _se_coord(a, delta, rank):
    if rank == 0:
        return a
    t = (rank + 1) // 2
    return a + t * delta if rank % 2 == 1 else a - t * delta


def _boxed_se_order(c, q):
    """All of {0..q-1} ordered by the zigzag rule around c."""
    a = _nearest_int(c)
    if a < 0:
        return list(range(q))
    if a >= q:
        return list(range(q - 1, -1, -1))
    delta = 1 if (c - a) >= 0 else -1
    out = []
    rank = 0
    while len(out) < q:
        x = _se_coord(a, delta, rank)
        rank += 1
        if 0 <= x < q:
            out.append(x)
    return out


class _Children:
    """Lazy generator of the children of the node with partial label `label`.

    Children are coordinates x of the next label symbol, each with its level
    metric w = (resid - diag * x)^2.  Order "se" is the Schnorr-Euchner
    zigzag around resid / diag: all of {0..Q-1} when the problem is boxed,
    an endless stream otherwise; w never decreases along it.  Order "vb"
    ascends over the Pohst interval of the remaining budget `rem` (the box
    when rem is infinite).  `rank` is the position of the next child; the
    caller advances it to consume that child.
    """

    __slots__ = ("resid", "diag", "order", "zigzag", "a", "delta", "rank")

    def __init__(self, problem, label, gen="se", rem=INF):
        k = len(label)
        row = problem.lev_rows[k]
        resid = problem.lev_y[k]
        for j in range(k):
            resid -= row[j] * label[j]
        diag = row[k]
        q = problem.boundary_q
        self.resid, self.diag, self.rank = resid, diag, 0
        self.zigzag = zigzag = gen == "se"
        self.order = None  # explicit coordinate sequence, or None for the free zigzag
        if zigzag:
            c = resid / diag
            if q is None:
                self.a = _nearest_int(c)
                self.delta = 1 if (c - self.a) >= 0 else -1
            else:
                self.order = _boxed_se_order(c, q)
        elif rem == INF:
            if q is None:
                raise ValueError("interval generation needs a finite bound or a box")
            self.order = range(q)
        elif rem < 0:
            self.order = range(0)
        else:
            s = math.sqrt(rem)
            lo = math.ceil((resid - s) / diag)
            hi = math.floor((resid + s) / diag)
            if q is not None:
                lo = max(lo, 0)
                hi = min(hi, q - 1)
            self.order = range(lo, hi + 1)

    def peek(self, rem, strict):
        """Next child (coord, w) with w within rem, not consumed; None when exhausted."""
        order, rank = self.order, self.rank
        while True:
            if order is None:
                x = _se_coord(self.a, self.delta, rank)
            elif rank < len(order):
                x = order[rank]
            else:
                return None
            d = self.resid - self.diag * x
            w = d * d
            if (w < rem) if strict else (w <= rem):
                return x, w
            if self.zigzag:
                return None  # ordered by w: nothing further fits either
            rank = self.rank = rank + 1  # vb: skip the coordinate that no longer fits


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
    order = _Children(problem, parent_label, "vb",
                      budget - problem.path_metric(parent_label)).order
    return order.start, order.stop - 1


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


# ---------------------------------------------------------------------------
# policies


@dataclass(frozen=True)
class SearchPolicy:
    """Parameter bundle consumed by gbb_run; see module docstring."""

    name: str
    sort: str                 # "lifo" | "fifo" | "cost" | "level-cost"
    gen: str                  # "se" | "vb"
    bound: object             # scalar or per-level sequence, +inf allowed
    g1: str = "none"          # "none" | "min"
    g2: str | None = None     # None | "m-alg" | "t-alg"
    g2_param: float | None = None
    bias: float = 0.0
    strict: bool = True       # validity test f < t (strict) vs f <= t
    first_leaf_exit: bool = False
    node_budget: int | None = DEFAULT_NODE_BUDGET


def policy_pohst(C0):
    """Breadth-first enumeration of every node with path metric <= C0."""
    return SearchPolicy("pohst", sort="fifo", gen="vb", bound=float(C0), strict=False)


def policy_ir(t):
    """Breadth-first search with fixed per-level bounds t_k (statistical pruning)."""
    return SearchPolicy("ir", sort="fifo", gen="vb", bound=tuple(float(v) for v in t))


def policy_ep(e):
    """Elliptical pruning: per-level weights e_k on the cumulative metric."""
    return SearchPolicy("ep", sort="fifo", gen="vb", bound=tuple(float(v) for v in e))


def policy_vb(C0):
    """Depth-first search, children low coordinate first, shrinking radius C0."""
    return SearchPolicy("vb", sort="lifo", gen="vb", bound=float(C0), g1="min")


def policy_se():
    """Depth-first zigzag search from an infinite radius; exact closest point."""
    return SearchPolicy("se", sort="lifo", gen="se", bound=INF, g1="min")


def policy_babai():
    """Single depth-first descent: successive rounding, first leaf wins."""
    return SearchPolicy("babai", sort="lifo", gen="se", bound=INF, g1="min",
                        first_leaf_exit=True)


def policy_stack(b=0.0):
    """Best-first search ordered by path_metric - b*level; b=0 is exact.

    A node's cost is that of its best ungenerated child and a leaf's is
    -inf, so the first leaf on top of the list is the decision."""
    return SearchPolicy("stack", sort="cost", gen="se", bound=INF, g1="min",
                        bias=float(b), first_leaf_exit=True)


def policy_m_algorithm(M):
    """Level-synchronous search keeping the M best nodes per level (needs a box)."""
    return SearchPolicy("m-alg", sort="level-cost", gen="vb", bound=INF,
                        g2="m-alg", g2_param=int(M), strict=False)


def policy_t_algorithm(T):
    """Level-synchronous search keeping nodes within T of the per-level best."""
    return SearchPolicy("t-alg", sort="level-cost", gen="vb", bound=INF,
                        g2="t-alg", g2_param=float(T), strict=False)


# ---------------------------------------------------------------------------
# outcomes


@dataclass
class SearchOutcome:
    decoded_label: tuple | None
    distance: float | None
    node_generations: int
    unique_nodes: int
    restarts: int = 0
    budget_hit: bool = False
    gen_per_level: list | None = None
    trace: list | None = None
    max_threshold: float | None = None  # Fano only: largest T reached


def trace_lines(trace):
    """Render a node trace in the documented text format:
    level <tab> label-csv <tab> path_metric <tab> cost <tab> bound."""
    out = []
    for level, label, g, f, bound in trace:
        lab = ",".join(str(v) for v in label)
        out.append(f"{level}\t{lab}\t{g:.12g}\t{f:.12g}\t{bound:.12g}")
    return out


def _bounds_vector(policy, m):
    b = policy.bound
    if isinstance(b, (tuple, list)):
        if len(b) != m:
            raise ValueError(f"bound vector length {len(b)} != problem dimension {m}")
        return [INF] + [float(v) for v in b]
    return [INF] + [float(b)] * m


def _babai_descent(problem):
    """Straight rounding descent; used as the fallback decision on budget hits."""
    label = ()
    g = 0.0
    for _ in range(problem.m):
        x, w = _Children(problem, label).peek(INF, True)
        label += (x,)
        g += w
    return label, g


def _finish(problem, name, label, distance, n_c, budget_hit, unique=None, **extra):
    """The epilogue of every search: Babai fallback when the node budget ran
    out before a leaf, EmptySearchSpace when no leaf was found at all."""
    if label is None and budget_hit:
        label, distance = _babai_descent(problem)
    if label is None:
        err = EmptySearchSpace(f"policy {name}: no leaf within the bounds")
        err.node_generations = n_c
        raise err
    return SearchOutcome(decoded_label=label, distance=distance, node_generations=n_c,
                         unique_nodes=n_c if unique is None else unique,
                         budget_hit=budget_hit, **extra)


# ---------------------------------------------------------------------------
# the ACTIVE list: one class per sort rule


class _Node:
    __slots__ = ("label", "level", "g", "f", "kids", "dead")

    def __init__(self, label, level, g):
        self.label = label
        self.level = level
        self.g = g
        self.f = g        # sort cost; the cost heap replaces it
        self.kids = None  # _Children, made at the first look at a child
        self.dead = False  # level heap: removed or pruned by g2


class _Deque:
    """lifo / fifo: the top is the newest / oldest node."""

    def __init__(self, root, lifo):
        self.nodes = deque([root])
        self.end = -1 if lifo else 0
        self.drop = self.nodes.pop if lifo else self.nodes.popleft
        self.push = self.nodes.append

    def top(self):
        return self.nodes[self.end] if self.nodes else None


class _LevelHeap:
    """level-cost: lowest level first, then lowest path metric.  When the
    first node of a new level appears, rule g2 bounds the level above it
    (M best nodes, or within T of the best) and prunes the nodes beyond."""

    def __init__(self, root, policy, t):
        self.heap = [(0, 0.0, 0, root)]
        self.seq = 1
        self.t = t
        self.g2, self.g2_param = policy.g2, policy.g2_param
        self.by_level = [[] for _ in t]
        self.deepest = 0

    def top(self):
        heap = self.heap
        while heap and heap[0][3].dead:
            heapq.heappop(heap)
        return heap[0][3] if heap else None

    def drop(self):
        heapq.heappop(self.heap)[3].dead = True

    def push(self, child):
        heapq.heappush(self.heap, (child.level, child.g, self.seq, child))
        self.seq += 1
        self.by_level[child.level].append(child)
        if child.level > self.deepest:
            self.deepest = child.level
            if self.g2 is not None and child.level > 1:
                self._g2(child.level - 1)

    def _g2(self, level):
        peers = sorted((nd for nd in self.by_level[level] if not nd.dead),
                       key=lambda nd: nd.g)
        if self.g2 == "m-alg":
            if len(peers) <= self.g2_param:
                return
            self.t[level] = peers[self.g2_param - 1].g
        else:  # t-alg
            self.t[level] = peers[0].g + self.g2_param
        for nd in peers:
            if nd.g > self.t[level]:
                nd.dead = True


class _CostHeap:
    """cost: lowest biased cost f first.  A node's f is that of its best
    ungenerated child, so it is recomputed (and the node re-pushed) each
    time the node generates a child; a leaf's f is -inf."""

    def __init__(self, root, problem, policy):
        self.problem, self.policy = problem, policy
        self.heap = [(self._cost(root), 0, root)]
        self.seq = 1

    def _cost(self, node):
        p = self.policy
        if node.level == self.problem.m:
            node.f = -INF
        else:
            if node.kids is None:
                node.kids = _Children(self.problem, node.label, p.gen)
            got = node.kids.peek(INF, p.strict)
            node.f = INF if got is None else node.g + got[1] - p.bias * (node.level + 1)
        return node.f

    def top(self):
        return self.heap[0][2] if self.heap else None

    def drop(self):
        heapq.heappop(self.heap)

    def push(self, child):
        # the parent is the top node: replace it by the child, re-push it with its new cost
        parent = self.heap[0][2]
        heapq.heapreplace(self.heap, (self._cost(child), self.seq, child))
        self.seq += 1
        if self._cost(parent) < INF:
            heapq.heappush(self.heap, (parent.f, self.seq, parent))
            self.seq += 1


# ---------------------------------------------------------------------------
# the generic engine


def gbb_run(problem: TreeProblem, policy: SearchPolicy, collect_trace=False):
    """Run the branch-and-bound loop under the given policy.

    The loop inspects the top of ACTIVE; a leaf updates the incumbent and
    the bound (rule g1) and is removed; an invalid node is removed; an
    exhausted node is removed; otherwise one more child is generated in
    the policy's order, the counter and rule g2 are applied, and the list
    is re-sorted.  Raises EmptySearchSpace when no leaf was found.
    """
    m = problem.m
    t = _bounds_vector(policy, m)
    root = _Node((), 0, 0.0)
    if policy.sort in ("lifo", "fifo"):
        active = _Deque(root, policy.sort == "lifo")
    elif policy.sort == "level-cost":
        active = _LevelHeap(root, policy, t)
    elif policy.sort == "cost":
        active = _CostHeap(root, problem, policy)
    else:
        raise ValueError(f"unknown sort rule {policy.sort!r}")
    strict = policy.strict
    g1_min = policy.g1 == "min"
    budget_cap = policy.node_budget
    n_c = 1
    gen_per_level = [1] + [0] * m
    trace = [] if collect_trace else None
    best_label = None
    best_g = INF
    budget_hit = False

    while (node := active.top()) is not None:
        lvl = node.level
        if lvl == m:  # leaf: new incumbent, rule g1
            if g1_min:
                for i in range(1, m + 1):
                    if node.g < t[i]:
                        t[i] = node.g
            if node.g < best_g:
                best_g = node.g
                best_label = node.label
            active.drop()
            if policy.first_leaf_exit:
                break
            continue
        if lvl > 0 and not ((node.g < t[lvl]) if strict else (node.g <= t[lvl])):
            active.drop()  # invalid
            continue
        rem = t[lvl + 1] - node.g
        kids = node.kids
        if kids is None:
            kids = node.kids = _Children(problem, node.label, policy.gen, rem)
        got = kids.peek(rem, strict)
        if got is None:
            active.drop()  # exhausted
            continue
        kids.rank += 1
        coord, w = got
        child = _Node(node.label + (coord,), lvl + 1, node.g + w)
        active.push(child)  # re-sort; the level heap applies rule g2
        n_c += 1
        gen_per_level[lvl + 1] += 1
        if collect_trace:
            trace.append((lvl + 1, child.label, child.g, child.f, t[lvl + 1]))
        if budget_cap is not None and n_c >= budget_cap:
            budget_hit = True
            break

    return _finish(problem, policy.name, best_label, best_g, n_c, budget_hit,
                   gen_per_level=gen_per_level, trace=trace)


def restart_schedule(problem, policy, factor=2.0, max_restarts=64, collect_trace=False):
    """Run gbb_run, relaxing finite bounds by `factor` whenever the search
    space turns out to be empty; restarts and node counts accumulate."""
    total = 0
    restarts = 0
    pol = policy
    while True:
        try:
            out = gbb_run(problem, pol, collect_trace=collect_trace)
            out.node_generations += total
            out.restarts = restarts
            return out
        except EmptySearchSpace as err:
            total += err.node_generations
            restarts += 1
            if restarts > max_restarts:
                raise
            if isinstance(pol.bound, (tuple, list)):
                new_bound = tuple(v * factor if v != INF else v for v in pol.bound)
            else:
                new_bound = pol.bound * factor if pol.bound != INF else pol.bound
            if new_bound == pol.bound:
                raise  # nothing to relax
            pol = replace(pol, bound=new_bound)


# ---------------------------------------------------------------------------
# the Fano decoder


def fano_decode(problem: TreeProblem, bias=1.0, step=1.0, node_budget=None,
                collect_trace=False):
    """Iterative best-first search with a running threshold.

    Keeps only the current path in memory.  The threshold T moves in
    multiples of `step`: it is tightened when a node is visited for the
    first time and relaxed when neither a forward nor a backward move is
    possible.  Terminates at the first leaf whose cost is within T.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    m = problem.m
    b = bias

    # per-level state along the current path; kids[k].rank is the rank of
    # the level-k node's candidate child (the next path entry, when there is one)
    path = []
    gs = [0.0]
    fs = [0.0]
    kids = [_Children(problem, path)]
    t_mult = 0  # threshold T = t_mult * step: always an exact multiple
    t_mult_max = 0
    evals = 0
    visited = set()
    trace = [] if collect_trace else None
    budget_hit = False
    k = 0

    while True:
        if node_budget is not None and evals >= node_budget:
            budget_hit = True
            break
        T = t_mult * step
        got = kids[k].peek(INF, True)
        evals += 1
        if got is None:
            f_cand = INF
        else:
            coord, w = got
            g_cand = gs[k] + w
            f_cand = g_cand - b * (k + 1)
        if f_cand <= T:
            path.append(coord)
            gs.append(g_cand)
            fs.append(f_cand)
            k += 1
            visited.add(tuple(path))
            if collect_trace:
                trace.append((k, tuple(path), g_cand, f_cand, T))
            if k == m:
                break
            if fs[k - 1] > T - step:  # first visit: pull T down as far as allowed
                while fs[k] <= (t_mult - 1) * step:
                    t_mult -= 1
            kids.append(_Children(problem, path))
        elif k == 0 or fs[k - 1] > T:
            t_mult += 1  # cannot move back: relax and look forward again
            t_mult_max = max(t_mult_max, t_mult)
            kids[k].rank = 0
        else:
            path.pop()  # move back, try the next-best sibling
            gs.pop()
            fs.pop()
            kids.pop()
            k -= 1
            kids[k].rank += 1

    return _finish(problem, "fano", None if budget_hit else tuple(path), gs[-1], evals,
                   budget_hit, unique=1 + len(visited), trace=trace,
                   max_threshold=t_mult_max * step)
