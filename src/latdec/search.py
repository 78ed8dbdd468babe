"""Tree search engine for upper-triangular integer least-squares problems.

One generic branch-and-bound loop (gbb_run) covers every decoder here.  It
inspects the top node of the ACTIVE list: a leaf that beats the incumbent
replaces it and tightens every level's bound to its metric (rule g1); an
invalid node (path metric beyond its level's bound) and an exhausted node
(no child left within the bound) are removed; otherwise the node generates
exactly one more child, the counter and rule g2 are applied, and the list
is re-sorted.  Rule g1 holds for every decoder: the breadth-first ones meet
leaves only after every inner node, and Babai and stack stop at their
first leaf.  A decoder is a SearchPolicy bundle: the sort rule of the
ACTIVE list (kept in a container whose order is its tie rule: a list
stack, a cost heap, or one level list that level-cost sorts and bounds by
g2), the child order, the bounding vector t and its strictness, rule g2,
the bias b of the best-first cost f = path_metric - b * level, and
first_leaf_exit.  README's decoder table gives each policy_* bundle.

Children come from one lazy generator per node (_Children) that yields the
next-level coordinates in the policy's order, each with its level metric.
The same generator serves gbb_run and the Fano decoder.  The Fano decoder
(fano_decode) walks one path through a memoized node tree, revisiting
nodes as its threshold moves in multiples of the step size.
restart_schedule reruns the loop with every bound doubled while an attempt
finds no leaf, with no cap: it stops at a leaf, when the attempts together
spend the node budget, or when doubling leaves the bounds unchanged.  Every
search returns through one epilogue (_finish): the Babai descent (gbb_run
under policy_babai) on a budget hit, EmptySearchSpace when no leaf was
found, and the SearchOutcome.

A search calls its optional hook on_node with (level, label, path_metric,
cost, bound) for each child generated (each forward move of Fano); e.g.
trace = []; gbb_run(problem, policy, on_node=trace.append); trace_lines(trace).

Complexity is counted in node generations: the root counts as one, and the
counter increments once per child placed in ACTIVE.  For the Fano decoder
node_generations counts every look-forward evaluation (revisits included)
while unique_nodes counts distinct labels.
"""

import heapq
import math
import sys
from collections import deque
from dataclasses import dataclass

from .errors import EmptySearchSpace
from .preprocess import TreeProblem

INF = math.inf
_FLOAT_MAX = sys.float_info.max

DEFAULT_NODE_BUDGET = 10**6


# ---------------------------------------------------------------------------
# child generation


class _Children:
    """Lazy generator of the children of the node with partial label `label`.

    Children are coordinates x of the next label symbol, each with its level
    metric w = (resid - diag * x)^2, in one of two lazy orders.  "se" is the
    Schnorr-Euchner zigzag a, a + delta, a - delta, a + 2 delta, ... from
    the nearest integer a to c = resid / diag, delta towards c; endless on
    a lattice boundary.  On a box {0..Q-1}, a is clamped to the nearer edge
    and the zigzag runs on along one side once the other has left the box,
    until both have.  w never decreases along it, so it ends at the first
    child that does not fit.  "vb" ascends from a to hi, two Python ints
    bounding the Pohst interval of the remaining budget `rem` in the box
    (the box when rem is infinite), skipping children that no longer fit.
    `rank` is the position of the next child; the caller advances it.
    The residual resid is the level's y less the products of its row and
    the label, subtracted one by one in label order; c and the interval
    ends are clamped to +-_FLOAT_MAX (a NaN c passes through unchanged).
    """

    __slots__ = ("resid", "diag", "a", "delta", "hi", "reach", "rank")

    def __init__(self, problem, label, gen="se", rem=INF):
        k = len(label)
        row = problem.lev_rows[k]
        resid = problem.lev_y[k]
        for r, x in zip(row, label):  # row holds k + 1 coefficients, the last one diag
            resid -= r * x
        diag = row[k]
        q = problem.boundary_q
        self.resid, self.diag, self.rank = resid, diag, 0
        if gen == "se":
            c = resid / diag  # clamped like the vb interval; a NaN passes through
            if c > _FLOAT_MAX:
                c = _FLOAT_MAX
            elif c < -_FLOAT_MAX:
                c = -_FLOAT_MAX
            a = math.floor(c + 0.5)  # nearest integer, half-way ties rounded up
            self.delta = 1 if (c - a) >= 0 else -1
            self.a, self.hi = a, None
            if q is not None:  # clamp a into the box; the zigzag alternates up to rank `reach`
                hi = q - 1
                self.a = a = 0 if a < 0 else hi if a > hi else a
                self.hi, self.reach = hi, 2 * (a if 2 * a < hi else hi - a)
            return
        if rem == INF:
            if q is None:
                raise ValueError("interval generation needs a finite bound or a box")
            lo, hi = 0, q - 1
        elif rem < 0:
            lo, hi = 0, -1
        else:
            s = math.sqrt(rem)  # an overflowing quotient is clamped to a huge int, not an error
            lo = math.ceil(min(max((resid - s) / diag, -_FLOAT_MAX), _FLOAT_MAX))
            hi = math.floor(min(max((resid + s) / diag, -_FLOAT_MAX), _FLOAT_MAX))
            if q is not None:
                lo, hi = max(lo, 0), min(hi, q - 1)
        self.a, self.delta, self.hi, self.reach = lo, 0, hi, -1  # delta 0 marks "vb"

    def peek(self, rem, strict):
        """Next child (coord, w) with w within rem, not consumed; None when exhausted."""
        rank = self.rank
        if self.hi is None or rank <= self.reach:
            t = (rank + 1) // 2  # zigzag: a, a + delta, a - delta, a + 2 delta, ...
            x = self.a + t * self.delta if rank % 2 else self.a - t * self.delta
        elif not self.delta:
            return self._ascend(rem, strict)
        elif rank > self.hi:
            return None  # both sides have left the box
        else:  # one side has left the box (ranks 0..reach took 0..2a or 2a-hi..hi)
            x = rank if 2 * self.a < self.hi else self.hi - rank
        d = self.resid - self.diag * x
        w = d * d
        return (x, w) if ((w < rem) if strict else (w <= rem)) else None

    def _ascend(self, rem, strict):
        """peek for "vb": the first child from a + rank up to hi that fits.  Below
        c, w falls as x rises, so bisection crosses any width in log2(width) steps."""
        a, hi, resid, diag = self.a, self.hi, self.resid, self.diag
        x = a + self.rank
        while x <= hi:
            d = resid - diag * x
            w = d * d
            if (w < rem) if strict else (w <= rem):
                self.rank = x - a
                return x, w
            if d * diag <= 0.0:
                return None  # x is at or above c: w only grows from here
            # bisect for the first child that fits or reaches c
            low, high = x + 1, hi + 1
            while low < high:
                mid = (low + high) // 2
                d = resid - diag * mid
                if d * diag <= 0.0 or ((d * d < rem) if strict else (d * d <= rem)):
                    high = mid
                else:
                    low = mid + 1
            x = low
        return None


# ---------------------------------------------------------------------------
# policies


@dataclass(frozen=True)
class SearchPolicy:
    """Parameter bundle consumed by gbb_run; see module docstring."""

    name: str
    sort: str                 # "lifo" | "fifo" | "cost" | "level-cost"
    gen: str                  # "se" | "vb"
    bound: object             # scalar or per-level sequence, +inf allowed
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
    return SearchPolicy("vb", sort="lifo", gen="vb", bound=float(C0))


def policy_se():
    """Depth-first zigzag search from an infinite radius; exact closest point."""
    return SearchPolicy("se", sort="lifo", gen="se", bound=INF)


def policy_babai():
    """Single depth-first descent: successive rounding, first leaf wins."""
    return SearchPolicy("babai", sort="lifo", gen="se", bound=INF, first_leaf_exit=True)


def policy_stack(b=0.0):
    """Best-first search ordered by path_metric - b*level; b=0 is exact.

    A node's cost is that of its best ungenerated child and a leaf's is
    -inf, so the first leaf on top of the list is the decision."""
    return SearchPolicy("stack", sort="cost", gen="se", bound=INF, bias=float(b),
                        first_leaf_exit=True)


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
        t = [INF] + [float(v) for v in b]
    else:
        t = [INF] + [float(b)] * m
    if any(math.isnan(v) for v in t):
        raise ValueError(f"policy {policy.name}: NaN bound {b!r}")
    return t


def _finish(problem, name, label, distance, n_c, budget_hit, unique=None, restarts=0):
    """The epilogue of every search: Babai fallback when the node budget ran
    out before a leaf, EmptySearchSpace when no leaf was found at all."""
    if label is None and budget_hit:
        fallback = gbb_run(problem, policy_babai())
        label, distance = fallback.decoded_label, fallback.distance
    if label is None:
        err = EmptySearchSpace(f"policy {name}: no leaf within the bounds")
        err.node_generations = n_c
        raise err
    return SearchOutcome(decoded_label=label, distance=distance, node_generations=n_c,
                         unique_nodes=n_c if unique is None else unique,
                         restarts=restarts, budget_hit=budget_hit)


# ---------------------------------------------------------------------------
# the ACTIVE list: one class per sort rule


class _Node:
    __slots__ = ("label", "level", "g", "f", "kids")

    def __init__(self, label, level, g):
        self.label = label
        self.level = level
        self.g = g
        self.f = g        # sort cost; the cost heap replaces it
        self.kids = None  # _Children, made at the first look at a child


class _Stack(list):
    """lifo: a list of nodes whose top is the newest."""

    drop, push = list.pop, list.append

    def top(self):
        return self[-1] if self else None


class _Levels:
    """fifo / level-cost: the current level in a deque, the next in a list,
    in generation order.  level-cost sorts a level stably by g when it
    becomes current.  When the next level gets its first child, rule g2
    bounds the rest of the current level (expanding node first) by the first
    g plus T, or by the M-th g if more than M remain; the nodes beyond go."""

    def __init__(self, root, policy, t):
        self.cur, self.next, self.t = deque([root]), [], t
        self.by_cost = policy.sort == "level-cost"
        self.g2 = policy.g2 if self.by_cost else None
        self.g2_param = policy.g2_param

    def top(self):
        if not self.cur:
            if not self.next:
                return None
            if self.by_cost:
                self.next.sort(key=lambda nd: nd.g)
            self.cur, self.next = deque(self.next), []
        return self.cur[0]

    def drop(self):
        self.cur.popleft()

    def push(self, child):
        if not self.next and self.g2 is not None and child.level > 1:
            cur, level = self.cur, child.level - 1
            if self.g2 == "t-alg":
                self.t[level] = cur[0].g + self.g2_param
            elif len(cur) > self.g2_param:  # m-alg
                self.t[level] = cur[self.g2_param - 1].g
            while cur and cur[-1].g > self.t[level]:
                cur.pop()
        self.next.append(child)


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


def gbb_run(problem: TreeProblem, policy: SearchPolicy, on_node=None):
    """Run the branch-and-bound loop (see the module docstring) once under
    the policy's bounds.  Raises EmptySearchSpace when no leaf was found."""
    label, distance, n_c, budget_hit = _attempt(
        problem, policy, _bounds_vector(policy, problem.m), policy.node_budget, on_node)
    return _finish(problem, policy.name, label, distance, n_c, budget_hit)


def _attempt(problem, policy, t, budget_cap, on_node):
    """One run of the loop under the bound vector t (changed in place by
    g1 and g2) that generates at most budget_cap nodes, the root included
    (no limit when None).  Returns (label or None, distance, n_c,
    budget_hit)."""
    m = problem.m
    n_c = 1
    if budget_cap is not None and budget_cap <= 1:  # the root spends it all
        return None, INF, n_c, True
    root = _Node((), 0, 0.0)
    if policy.sort == "lifo":
        active = _Stack([root])
    elif policy.sort in ("fifo", "level-cost"):
        active = _Levels(root, policy, t)
    elif policy.sort == "cost":
        active = _CostHeap(root, problem, policy)
    else:
        raise ValueError(f"unknown sort rule {policy.sort!r}")
    strict = policy.strict
    best_label = None
    best_g = INF
    budget_hit = False

    while (node := active.top()) is not None:
        lvl = node.level
        if lvl == m:  # leaf: a new incumbent tightens every bound to its metric, rule g1
            if node.g < best_g:
                best_g = node.g
                best_label = node.label
                for i in range(1, m + 1):
                    if best_g < t[i]:
                        t[i] = best_g
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
        active.push(child)  # re-sort; the level list applies rule g2
        n_c += 1
        if on_node is not None:
            on_node((lvl + 1, child.label, child.g, child.f, t[lvl + 1]))
        if budget_cap is not None and n_c >= budget_cap:
            budget_hit = True
            break

    return best_label, best_g, n_c, budget_hit


def restart_schedule(problem, policy, on_node=None):
    """Run the loop, doubling the bounds after every attempt that finds no
    leaf, until one finds a leaf, the node budget runs out, or doubling
    leaves the bounds unchanged (all infinite or zero).  Node counts add
    up over the attempts, and the node budget counts the nodes of all
    attempts together: each attempt gets what the earlier ones left, so n_c
    never exceeds the budget, and the search ends with budget_hit once n_c
    reaches it.  Every attempt calls the one hook on_node, so it sees every
    child of every attempt: n_c is their number plus one root per attempt."""
    t = _bounds_vector(policy, problem.m)
    budget = policy.node_budget
    n_c = restarts = 0
    while True:
        cap = None if budget is None else budget - n_c
        label, distance, n, budget_hit = _attempt(problem, policy, list(t), cap, on_node)
        n_c += n
        wider = [2.0 * v for v in t]
        if label is not None or budget_hit or wider == t:
            break
        t = wider
        restarts += 1
    return _finish(problem, policy.name, label, distance, n_c, budget_hit, restarts=restarts)


# ---------------------------------------------------------------------------
# the Fano decoder


def fano_decode(problem: TreeProblem, bias=1.0, step=1.0, node_budget=None, on_node=None):
    """Iterative best-first search with a running threshold.

    Walks one path through a memoized node tree: each node record holds its
    child generator, a memo of its child records by rank, and its own path
    metric g, cost f and coordinate, so each child is evaluated once per
    decode and a revisit reads the memo.  The threshold T moves in multiples
    of `step`: it is tightened when a node is visited for the first time and
    relaxed when neither a forward nor a backward move (which needs the
    parent's f within T) is possible.  Terminates at the first leaf whose
    cost is within T.
    """
    for name, value in (("bias", bias), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if step <= 0:
        raise ValueError("step must be positive")
    m = problem.m
    limit = INF if node_budget is None else node_budget

    # the path: its labels and its node records [generator (None until entered),
    # memo, rank of the child the path went through, g, f, coord]; memo[r] is
    # the rank-r child record, or None once the order is exhausted.  The rank
    # under consideration is the local `rank`, written to a record only when
    # the walk moves forward from it, so a backward move resumes after it.
    path = []
    node = [_Children(problem, path), [], 0, 0.0, 0.0, None]
    memo = node[1]
    nodes = [node]
    unique = 1  # the root and each distinct node entered
    t_mult = 0  # threshold T = t_mult * step: always an exact multiple
    T = t_mult * step
    T_low = T - step  # a parent f above it marks its child's first visit
    evals = k = rank = 0

    while evals < limit:
        if rank < len(memo):
            child = memo[rank]
        else:  # each (node, rank) is evaluated once
            kids = node[0]
            got = kids.peek(INF, True)
            kids.rank += 1
            if got is None:
                child = None
            else:
                cg = node[3] + got[1]
                child = [None, [], 0, cg, cg - bias * (k + 1), got[0]]
            memo.append(child)
        evals += 1
        if child is not None and child[4] <= T:
            node[2] = rank
            path.append(child[5])
            nodes.append(child)
            k += 1
            f = child[4]
            if on_node is not None:
                on_node((k, tuple(path), child[3], f, T))
            if k == m:
                unique += 1
                break
            if node[4] > T_low and f <= (t_mult - 1) * step:
                t_mult -= 1  # first visit: pull T down as far as allowed
                while f <= (t_mult - 1) * step:
                    t_mult -= 1
                T = t_mult * step
                T_low = T - step
            if child[0] is None:
                child[0] = _Children(problem, path)
                unique += 1
            node = child
            memo = child[1]
            rank = 0
        elif k == 0 or nodes[k - 1][4] > T:
            t_mult += 1  # cannot move back: relax and look forward again
            T = t_mult * step
            T_low = T - step
            rank = 0
        else:
            path.pop()  # move back, try the next-best sibling
            nodes.pop()
            k -= 1
            node = nodes[k]
            memo = node[1]
            rank = node[2] + 1

    budget_hit = k < m  # the walk ends at a leaf unless the budget runs out first
    return _finish(problem, "fano", None if budget_hit else tuple(path), nodes[-1][3], evals,
                   budget_hit, unique=unique)
