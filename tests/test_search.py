import math
from dataclasses import replace

import numpy as np
import pytest
from reference import (ActiveDeque, ActiveLevelHeap, MaxCost, PohstBudget, _zigzag, babai_box,
                       box_clps, enumerate_node_set, fano_decode_visited)
from util import (child_interval, make_problem, node_metric, path_metric, se_child_order,
                  transmitted_label)

import latdec
from latdec import search
from latdec.errors import EmptySearchSpace, TooLarge
from latdec.preprocess import apply_back_map, form_tree
from latdec.search import (SearchPolicy, fano_decode, gbb_run, policy_babai, policy_ep,
                           policy_ir, policy_m_algorithm, policy_pohst, policy_se, policy_stack,
                           policy_t_algorithm, policy_vb, restart_schedule)


def _random_problem(seed, M=3, Q=2, rho_db=10.0, right="lll", boundary="lattice"):
    cfg = latdec.VblastConfig(M=M, N=M, Q=Q, rho=10.0 ** (rho_db / 10.0))
    inst = latdec.sample_vblast(cfg, latdec.frame_rng(seed, 0))
    prob = form_tree(inst.received, inst.H, inst.code, "mmse", right, boundary)
    return inst, prob


# ---------------------------------------------------------------------------
# metric and child generation


def test_node_metric_examples():
    prob = make_problem([[1.0]], [0.4])
    assert node_metric(prob, (0,)) == pytest.approx(0.16)
    prob0 = make_problem(np.eye(2), [0.0, 0.0])
    assert node_metric(prob0, (0,)) == 0.0
    assert node_metric(prob0, (0, 0)) == 0.0


def test_node_metric_sums_to_vector_norm():
    _, prob = _random_problem(0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = tuple(int(v) for v in rng.integers(-3, 4, size=prob.m))
        total = sum(node_metric(prob, x[: k + 1]) for k in range(prob.m))
        z = np.array(x[::-1], dtype=float)
        assert total == pytest.approx(float(np.sum((prob.y - prob.R @ z) ** 2)), abs=1e-9)


def test_child_interval_examples():
    prob = make_problem(np.eye(2), [0.0, 0.4])  # level-1 residual is y[1] = 0.4
    assert child_interval(prob, (), math.inf) is None
    a0, a1 = child_interval(prob, (), 1.0)
    assert (a0, a1) == (0, 1)
    a0, a1 = child_interval(prob, (), -0.5)
    assert a0 > a1


def test_child_interval_respects_box():
    prob = make_problem(np.eye(2), [0.0, 0.4], q=2)
    assert child_interval(prob, (), 100.0) == (0, 1)


def test_se_child_order_zero_residual_tiebreak():
    prob = make_problem([[1.0]], [0.0])
    coords = [c for c, _ in se_child_order(prob, (), count=4)]
    assert coords == [0, 1, -1, 2]


def test_se_child_order_examples():
    prob = make_problem([[1.0]], [0.4])
    coords = [c for c, _ in se_child_order(prob, (), count=5)]
    assert coords == [0, 1, -1, 2, -2]
    prob_box = make_problem([[1.0]], [0.4], q=2)
    coords = [c for c, _ in se_child_order(prob_box, ())]
    assert coords == [0, 1]


def test_se_child_order_nondecreasing_metric():
    rng = np.random.default_rng(1)
    for _ in range(50):
        prob = make_problem([[rng.uniform(0.2, 3.0)]], [rng.normal() * 3])
        ws = [w for _, w in se_child_order(prob, (), count=9)]
        assert ws == sorted(ws)


@pytest.mark.parametrize("q", [None, 2, 3, 4, 8])
def test_children_follow_the_reference_zigzag_rank_by_rank(q):
    # c far below, inside and far above the box, and on half-integers, where
    # the tie goes up; powers of two keep c = resid / diag exact
    cs = [-40.3, -2.5, -0.5, 0.0, 0.49, 0.5, 1.5, 2.2, 2.5, 3.5, 6.5, 7.5, 37.9]
    kids_seen = 0
    for c in cs:
        for diag in (1.0, 0.25, 4.0):
            prob = make_problem([[diag]], [c * diag], q)
            problems = [(prob, ())]
            R = np.array([[1.5, -0.3, 0.7], [0.0, 0.8, 0.4], [0.0, 0.0, diag]])
            deep = make_problem(R, [1.1, -0.6, c * diag], q)
            problems += [(deep, ()), (deep, (0,)), (deep, (1, 2))]
            for problem, label in problems:
                kids, want = search._Children(problem, label), _zigzag(problem, label)
                for rank in range(12 if q is None else q + 1):
                    got = kids.peek(math.inf, True)
                    assert got == want(rank), (c, diag, label, rank)
                    if got is None:
                        break
                    kids.rank += 1
                    kids_seen += 1
    assert kids_seen > 100


# ---------------------------------------------------------------------------
# the generic engine


def test_gbb_one_dimensional_se():
    prob = make_problem([[1.0]], [0.4])
    out = gbb_run(prob, policy_se())
    assert out.decoded_label == (0,)
    assert out.distance == pytest.approx(0.16)
    assert out.node_generations == 2  # root plus the single surviving child


def test_noiseless_decode_is_exact():
    cfg = latdec.VblastConfig(M=3, N=3, Q=2, rho=10.0)
    inst = latdec.sample_vblast(cfg, latdec.frame_rng(2, 0), noiseless=True)
    prob = form_tree(inst.received, inst.H, inst.code, "zf", "none", "constrained")
    truth = transmitted_label(prob, inst.x_true)
    for policy in (policy_se(), policy_stack(0.0), policy_babai()):
        out = gbb_run(prob, policy)
        assert out.decoded_label == truth
        assert out.distance == pytest.approx(0.0, abs=1e-15)


def test_pohst_below_minimum_raises_and_restarts():
    _, prob = _random_problem(3, M=2)
    d_min = gbb_run(prob, policy_se()).distance
    with pytest.raises(EmptySearchSpace):
        gbb_run(prob, policy_pohst(d_min / 2))
    out = restart_schedule(prob, policy_pohst(d_min / 2))
    assert out.restarts >= 1
    assert out.distance == pytest.approx(d_min)


def test_restart_schedule_counts_cover_every_attempt():
    # ten empty attempts before a leaf: n_c and the trace must add up over
    # all of them, with one root per attempt
    _, prob = _random_problem(4, M=2, right="lll+permute")
    trace = []
    out = restart_schedule(prob, policy_pohst(1e-3), on_node=trace.append)
    assert (out.node_generations, out.restarts) == (15, 10)
    assert out.node_generations == len(trace) + out.restarts + 1


def test_restart_schedule_infinite_radius_no_restarts():
    _, prob = _random_problem(4, M=2)
    out = restart_schedule(prob, policy_se())
    assert out.restarts == 0


def test_nan_bound_is_rejected():
    # restarts have no cap, so a NaN bound, which doubling never changes
    # into an equal one, must fail before the first attempt
    _, prob = _random_problem(4, M=2)
    for policy in (policy_pohst(float("nan")),
                   policy_ir([1.0] * (prob.m - 1) + [float("nan")])):
        for run in (gbb_run, restart_schedule):
            with pytest.raises(ValueError, match="NaN bound"):
                run(prob, policy)


def test_restart_schedule_zero_radius_makes_one_attempt():
    # doubling a zero radius leaves it unchanged: one attempt, then
    # EmptySearchSpace carrying that attempt's n_c
    _, prob = _random_problem(4, M=2)
    with pytest.raises(EmptySearchSpace) as single:
        gbb_run(prob, policy_pohst(0.0))
    trace = []
    with pytest.raises(EmptySearchSpace) as err:
        restart_schedule(prob, policy_pohst(0.0), on_node=trace.append)
    assert err.value.node_generations == single.value.node_generations == len(trace) + 1


def test_restart_schedule_budget_counts_every_attempt():
    # the unbudgeted search takes 11 attempts and 15 nodes; a budget covers
    # the nodes of all attempts together, so n_c never exceeds it, and a
    # search that reaches it ends with budget_hit
    from dataclasses import replace
    _, prob = _random_problem(4, M=2, right="lll+permute")
    free = restart_schedule(prob, policy_pohst(1e-3))
    assert (free.node_generations, free.restarts, free.budget_hit) == (15, 10, False)
    for budget in range(1, 20):
        trace = []
        out = restart_schedule(prob, replace(policy_pohst(1e-3), node_budget=budget),
                               on_node=trace.append)
        assert out.node_generations == min(budget, 15)
        assert out.node_generations == len(trace) + out.restarts + 1
        assert out.budget_hit == (budget <= 15)
        if budget > 15:
            assert (out.decoded_label, out.restarts) == (free.decoded_label, free.restarts)


def test_budget_hit_flags_and_falls_back():
    from dataclasses import replace
    _, prob = _random_problem(5, M=4, rho_db=0.0)
    policy = replace(policy_se(), node_budget=6)
    out = gbb_run(prob, policy)
    assert out.budget_hit
    assert out.decoded_label is not None
    # the restart wrapper must not retry a budget-terminated run
    out2 = restart_schedule(prob, replace(policy_pohst(1e9), node_budget=6))
    assert out2.budget_hit and out2.restarts == 0


def test_an_overflowing_interval_runs_into_the_node_budget():
    # (0.3 -+ 1e154) / 1e-160 overflows a float: the interval's ends are
    # clamped to huge ints, so the search spends its budget instead of raising
    prob = make_problem([[1e-160]], [0.3])
    for policy in (policy_pohst(1e308), policy_vb(1e308)):
        out = restart_schedule(prob, replace(policy, node_budget=10_000))
        assert out.budget_hit and out.decoded_label is not None


def test_an_overflowing_zigzag_centre_still_decides():
    # 1e10 / 1e-300 overflows a float: the se centre is clamped to a huge int
    # like the vb interval, so the searches decide and Fano, whose every
    # child fits, ends on its node budget with the Babai fallback
    prob = make_problem([[1e-300]], [1e10])
    for out in (gbb_run(prob, policy_se()), restart_schedule(prob, policy_se())):
        assert out.decoded_label is not None and not out.budget_hit
    out = fano_decode(prob, bias=1.0, node_budget=1000)
    assert out.budget_hit
    assert out.decoded_label == gbb_run(prob, policy_babai()).decoded_label


def test_optimal_policies_agree_with_each_other_and_box_oracle():
    agreements = 0
    for seed in range(60):
        _, prob = _random_problem(seed, M=int(2 + seed % 3), rho_db=8.0,
                                  right="lll+permute")
        se = gbb_run(prob, policy_se())
        st = gbb_run(prob, policy_stack(0.0))
        d_bab = gbb_run(prob, policy_babai()).distance
        C0 = d_bab * (1 + 1e-9) + 1e-12
        vb = restart_schedule(prob, policy_vb(C0))
        po = restart_schedule(prob, policy_pohst(C0))
        dists = [se.distance, st.distance, vb.distance, po.distance]
        try:
            _, d_box = box_clps(prob, babai_box(prob))
            dists.append(d_box)
        except TooLarge:
            pass
        assert max(dists) - min(dists) < 1e-9
        agreements += 1
    assert agreements == 60


def test_stack_generates_fewest_nodes():
    for seed in range(40):
        _, prob = _random_problem(seed + 100, M=int(2 + seed % 3), rho_db=9.0,
                                  right="lll+permute")
        st = gbb_run(prob, policy_stack(0.0))
        se = gbb_run(prob, policy_se())
        d_bab = gbb_run(prob, policy_babai()).distance
        C0 = d_bab * (1 + 1e-9) + 1e-12
        vb = restart_schedule(prob, policy_vb(C0))
        po = restart_schedule(prob, policy_pohst(C0))
        assert st.unique_nodes <= min(se.unique_nodes, vb.unique_nodes, po.unique_nodes)


def test_stack_path_minimizes_max_biased_cost():
    # best-first chooses the path whose running max of (metric - b*level) is least
    for seed in range(15):
        _, prob = _random_problem(seed + 200, M=2, rho_db=6.0, right="lll")
        b = 0.7
        st = gbb_run(prob, policy_stack(b))
        box = babai_box(prob)

        def max_h(label):
            return max(path_metric(prob, label[: j + 1]) - b * (j + 1)
                       for j in range(len(label)))

        chosen = max_h(st.decoded_label)
        lo = box.center - box.radius
        hi = box.center + box.radius
        widths = hi - lo + 1
        if int(np.prod(widths)) > 20000:
            continue
        for idx in range(int(np.prod(widths))):
            lab = []
            r = idx
            for w, l in zip(widths, lo):
                lab.append(int(l + r % w))
                r //= w
            assert chosen <= max_h(tuple(lab)) + 1e-9


def test_stack_trace_within_ir_node_set():
    for seed in range(20):
        _, prob = _random_problem(seed + 300, M=2, rho_db=8.0, right="lll")
        for b in (0.5, 1.0, 2.0):
            trace = []
            st = gbb_run(prob, policy_stack(b), on_node=trace.append)
            generated = {t[1] for t in trace}
            delta = max(path_metric(prob, st.decoded_label[: j + 1]) - b * (j + 1)
                        for j in range(prob.m)) + 1e-9
            ir_set = enumerate_node_set(prob, MaxCost(b, delta))
            assert generated <= ir_set


def test_ir_policy_trace_equals_oracle_set():
    _, prob = _random_problem(6, M=2, rho_db=8.0, right="lll")
    b, delta = 1.0, 6.0
    bounds = [b * k + delta for k in range(1, prob.m + 1)]
    trace = []
    out = gbb_run(prob, policy_ir(bounds), on_node=trace.append)
    generated = {t[1] for t in trace}
    assert generated == enumerate_node_set(prob, MaxCost(b, delta))
    assert out.decoded_label is not None


def test_pohst_trace_equals_oracle_set():
    _, prob = _random_problem(7, M=2, rho_db=8.0, right="lll")
    d_bab = gbb_run(prob, policy_babai()).distance
    C0 = d_bab * 1.5
    trace = []
    gbb_run(prob, policy_pohst(C0), on_node=trace.append)
    generated = {t[1] for t in trace}
    assert generated == enumerate_node_set(prob, PohstBudget(C0))


def test_ep_matches_pohst_with_constant_weights():
    _, prob = _random_problem(8, M=2, rho_db=8.0, right="lll")
    d_bab = gbb_run(prob, policy_babai()).distance
    C0 = d_bab * 1.3
    po_trace, ep_trace = [], []
    po = gbb_run(prob, policy_pohst(C0), on_node=po_trace.append)
    ep = gbb_run(prob, policy_ep([C0] * prob.m), on_node=ep_trace.append)
    assert {t[1] for t in po_trace} == {t[1] for t in ep_trace}
    assert po.distance == pytest.approx(ep.distance)


def test_babai_counts_root_plus_straight_descent():
    _, prob = _random_problem(9, M=3)
    out = gbb_run(prob, policy_babai())
    assert out.node_generations == prob.m + 1
    assert len(out.decoded_label) == prob.m


def test_m_algorithm_extremes():
    inst, prob = _random_problem(10, M=3, Q=2, rho_db=8.0, right="none",
                                 boundary="constrained")
    wide = gbb_run(prob, policy_m_algorithm(2 ** prob.m))
    se = gbb_run(prob, policy_se())
    assert wide.distance == pytest.approx(se.distance)
    narrow = gbb_run(prob, policy_m_algorithm(1))
    bab = gbb_run(prob, policy_babai())
    assert narrow.decoded_label == bab.decoded_label


def test_t_algorithm_large_parameter_is_optimal():
    _, prob = _random_problem(11, M=3, Q=2, rho_db=8.0, right="none",
                              boundary="constrained")
    out = gbb_run(prob, policy_t_algorithm(1e9))
    se = gbb_run(prob, policy_se())
    assert out.distance == pytest.approx(se.distance)


def _level_cost(g2, param, bound):
    return SearchPolicy(f"level-cost-{g2}", sort="level-cost", gen="vb", bound=bound, g2=g2,
                        g2_param=param, strict=False)


ACTIVE_POLICIES = [
    lambda m: policy_se(), lambda m: policy_babai(), lambda m: policy_vb(0.5 * m),
    lambda m: policy_pohst(0.5 * m), lambda m: policy_ir([1.0 * k + 2.0 for k in range(1, m + 1)]),
    lambda m: policy_ep([0.25 * m + 0.5 * k for k in range(1, m + 1)]),
    lambda m: policy_m_algorithm(1), lambda m: policy_m_algorithm(2),
    lambda m: policy_m_algorithm(4), lambda m: policy_t_algorithm(3.0),
    # a finite level-cost bound leaves nodes without children, which g2 must not rank
    lambda m: _level_cost("m-alg", 2, [k + 1.0 for k in range(1, m + 1)]),
    lambda m: _level_cost("t-alg", 1.0, 3.0), lambda m: _level_cost(None, None, 0.5 * m),
]


def test_active_lists_match_the_deque_and_level_heap(monkeypatch):
    # the list stack and the level list against the one deque and the level
    # heap they replaced: labels or EmptySearchSpace, n_c, per-level counts
    # and traces agree with and without a node budget (half the unbudgeted
    # n_c).  Applying g2 to a level when it becomes current, instead of when
    # the next level gets its first child, fails here: it also ranks the
    # front nodes that a finite bound leaves without a child
    problems = []
    for M in (3, 4):
        cfg = latdec.VblastConfig(M=M, N=M, Q=4, rho=10.0 ** 0.8)  # 8 dB
        for frame in range(20):
            inst = latdec.sample_vblast(cfg, latdec.frame_rng(7, M, frame))
            problems.append(form_tree(inst.received, inst.H, inst.code, "zf", "none",
                                      "constrained"))
    cases = [(prob, policy(prob.m)) for prob in problems for policy in ACTIVE_POLICIES]

    def run(search_fn, prob, policy):
        trace = []
        try:
            out = search_fn(prob, policy, on_node=trace.append)
        except EmptySearchSpace as err:
            return err.node_generations, None, trace
        return out.node_generations, vars(out), trace

    def run_all():
        got = []
        for prob, policy in cases:
            for search_fn in (gbb_run, restart_schedule):
                got.append(run(search_fn, prob, policy))
                budget = max(2, got[-1][0] // 2)
                got.append(run(search_fn, prob, replace(policy, node_budget=budget)))
        return got

    got = run_all()
    monkeypatch.setattr(search, "_Stack", lambda nodes: ActiveDeque(nodes[0], lifo=True))
    monkeypatch.setattr(search, "_Levels", lambda root, policy, t: (
        ActiveDeque(root, lifo=False) if policy.sort == "fifo"
        else ActiveLevelHeap(root, policy, t)))
    want = run_all()
    assert got == want
    assert any(out is None for _, out, _ in got)  # some searches find no leaf
    assert any(out is not None and out["budget_hit"] for _, out, _ in got)


# ---------------------------------------------------------------------------
# the Fano decoder


def test_fano_noiseless_never_relaxes():
    cfg = latdec.VblastConfig(M=3, N=3, Q=2, rho=10.0)
    inst = latdec.sample_vblast(cfg, latdec.frame_rng(12, 0), noiseless=True)
    prob = form_tree(inst.received, inst.H, inst.code, "zf", "none", "constrained")
    trace = []
    out = fano_decode(prob, bias=1.0, step=1.0, on_node=trace.append)
    assert out.decoded_label == transmitted_label(prob, inst.x_true)
    assert max(bound for *_, bound in trace) == 0.0


def test_fano_matches_stack_on_handset_problem():
    prob = make_problem([[1.0, 0.3], [0.0, 0.8]], [0.9, -0.2])
    st = gbb_run(prob, policy_stack(1.0))
    fa = fano_decode(prob, bias=1.0, step=1.0)
    assert fa.decoded_label == st.decoded_label


def test_fano_huge_bias_reduces_to_babai():
    for seed in range(10):
        _, prob = _random_problem(seed + 400, M=3, rho_db=8.0)
        fa = fano_decode(prob, bias=1e6, step=1.0)
        bab = gbb_run(prob, policy_babai())
        assert fa.decoded_label == bab.decoded_label


def test_fano_properties_on_noisy_frames():
    # property 1: accepted nodes satisfy f <= T at acceptance time;
    # property 2: T stays below (max cost along the transmitted path) + step
    for seed in range(20):
        inst, prob = _random_problem(seed + 500, M=3, rho_db=6.0, right="lll+permute")
        b, step = 1.0, 0.75
        trace = []
        out = fano_decode(prob, bias=b, step=step, on_node=trace.append)
        for level, label, g, f, bound in trace:
            assert f <= bound + 1e-12
        truth = transmitted_label(prob, inst.x_true)
        f_max = max(path_metric(prob, truth[: j + 1]) - b * (j + 1)
                    for j in range(prob.m))
        f_max = max(f_max, 0.0)
        assert max(bound for *_, bound in trace) < f_max + step + 1e-9


def test_fano_counts_revisits():
    # n_c counts every look-forward evaluation, the trace every forward move
    # and unique_nodes the root plus every distinct label entered; checked
    # on a frame with revisits, run to its leaf and cut by a budget
    _, prob = _random_problem(13, M=3, rho_db=4.0, right="lll")
    for budget in (None, 12):
        trace = []
        out = fano_decode(prob, bias=1.0, step=0.25, node_budget=budget, on_node=trace.append)
        labels = [label for _, label, *_ in trace]
        assert len(labels) > len(set(labels))  # the frame has revisits
        assert out.budget_hit == (budget is not None)
        assert out.unique_nodes == 1 + len(set(labels))
        assert len(trace) <= out.node_generations


@pytest.mark.parametrize("param, value", [
    ("step", math.nan), ("step", math.inf), ("bias", math.nan), ("bias", math.inf),
    ("bias", -math.inf)])
def test_fano_rejects_non_finite_parameters(param, value):
    # each of these used to loop forever with no node budget
    _, prob = _random_problem(13, M=3, rho_db=4.0)
    with pytest.raises(ValueError, match=f"^{param} must be finite"):
        fano_decode(prob, **{param: value})


ISI_TAPS = [0.848, -0.424, 0.2545, -0.1696, 0.0848]


def _isi_problems(n):
    cfg = latdec.IsiConfig(taps=ISI_TAPS, frame_len=24, rho=10.0 ** 0.5, gen_polys=(5, 7))
    plan = None
    for frame in range(n):
        inst = latdec.build_isi_instance(cfg, latdec.frame_rng(3, frame))
        plan = plan or latdec.prepare_tree(inst.H, inst.code, "mmse", "lll+permute", "lattice")
        yield plan.problem_for(inst.received)


def _vblast_problems(n, M, Q, rho_db, right, boundary):
    cfg = latdec.VblastConfig(M=M, N=M, Q=Q, rho=10.0 ** (rho_db / 10.0))
    for frame in range(n):
        inst = latdec.sample_vblast(cfg, latdec.frame_rng(3, frame))
        yield form_tree(inst.received, inst.H, inst.code, "mmse", right, boundary)


@pytest.mark.parametrize("family", [
    lambda: _isi_problems(100),
    lambda: _vblast_problems(100, 8, 2, 10.0, "lll", "lattice"),
    lambda: _vblast_problems(100, 4, 4, 14.0, "permute", "constrained"),
], ids=["isi", "v8-lattice", "v4q4-constrained"])
def test_fano_matches_the_visited_set_reference(family):
    # the memoized node tree changes no outcome field and no trace tuple.
    # (1, 0.25) revisits heavily; with the budget of 50 some frames end on
    # the Babai fallback.  A budget equal to a frame's unbudgeted n_c reaches
    # the leaf on its last evaluation, which is not a budget hit; one less is.
    def same(prob, bias, step, budget):
        got, want = [], []
        out = fano_decode(prob, bias, step, budget, on_node=got.append)
        ref = fano_decode_visited(prob, bias, step, budget, on_node=want.append)
        assert vars(out) == vars(ref)
        assert got == want
        return out

    problems = list(family())
    hits = 0
    for bias, step, budget in [(1.0, 1.0, None), (0.5, 0.25, None), (2.0, 3.0, None),
                               (1.0, 0.25, None), (1.0, 1.0, 50)]:
        for prob in problems:
            hits += same(prob, bias, step, budget).budget_hit
    assert hits > 0
    for prob in problems:
        n_c = fano_decode(prob).node_generations
        assert not same(prob, 1.0, 1.0, n_c).budget_hit
        assert same(prob, 1.0, 1.0, n_c - 1).budget_hit


def test_fano_evaluates_each_child_once_per_decode(monkeypatch):
    # pins the memo itself, which the bit-identity tests cannot see: on ISI
    # frames with revisits, peek runs at most once per (generator, rank), and
    # one generator is built per distinct non-leaf node entered, the root too
    init, peek = search._Children.__init__, search._Children.peek
    built, peeked = [], []

    def counting_init(self, problem, label, *args):
        built.append(tuple(label))
        init(self, problem, label, *args)

    def counting_peek(self, rem, strict):
        peeked.append((self, self.rank))
        return peek(self, rem, strict)

    monkeypatch.setattr(search._Children, "__init__", counting_init)
    monkeypatch.setattr(search._Children, "peek", counting_peek)
    revisits = 0
    for prob in _isi_problems(100):
        built.clear()
        peeked.clear()
        trace = []
        out = fano_decode(prob, 1.0, 0.25, on_node=trace.append)
        assert len(set(peeked)) == len(peeked)
        entered = {label for _, label, *_ in trace if len(label) < prob.m}
        assert sorted(built) == sorted(entered | {()})
        revisits += out.node_generations - len(peeked)
    assert revisits > 1000


def test_monotone_bias_endpoints():
    # plain ZF exposes the tradeoff clearly: large bias loses frames but
    # touches far fewer nodes than the exact best-first search
    errors = {0.0: 0, 8.0: 0}
    nodes = {0.0: 0, 8.0: 0}
    for seed in range(300):
        cfg = latdec.VblastConfig(M=4, N=4, Q=2, rho=10.0 ** 1.4)
        inst = latdec.sample_vblast(cfg, latdec.frame_rng(seed + 600, 0))
        prob = form_tree(inst.received, inst.H, inst.code, "zf", "none", "lattice")
        for b in (0.0, 8.0):
            out = gbb_run(prob, policy_stack(b))
            info = apply_back_map(out.decoded_label, prob.back_map)
            errors[b] += int(not np.array_equal(info, inst.x_true))
            nodes[b] += out.unique_nodes
    assert errors[8.0] >= errors[0.0]
    assert nodes[8.0] <= nodes[0.0]
