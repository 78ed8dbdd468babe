import math

import numpy as np
import pytest
from util import make_problem, transmitted_label

import latdec
from latdec import oracle
from latdec.errors import EmptySearchSpace, TooLarge
from latdec.preprocess import apply_back_map, form_tree, node_metric
from latdec.search import (child_interval, fano_decode, gbb_run, policy_babai,
                           policy_ep, policy_ir, policy_m_algorithm,
                           policy_pohst, policy_se, policy_stack,
                           policy_t_algorithm, policy_vb, restart_schedule,
                           se_child_order)


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


def test_restart_schedule_infinite_radius_no_restarts():
    _, prob = _random_problem(4, M=2)
    out = restart_schedule(prob, policy_se())
    assert out.restarts == 0


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


def test_optimal_policies_agree_with_each_other_and_box_oracle():
    from latdec.search import _babai_descent
    agreements = 0
    for seed in range(60):
        _, prob = _random_problem(seed, M=int(2 + seed % 3), rho_db=8.0,
                                  right="lll+permute")
        se = gbb_run(prob, policy_se())
        st = gbb_run(prob, policy_stack(0.0))
        _, d_bab = _babai_descent(prob)
        C0 = d_bab * (1 + 1e-9) + 1e-12
        vb = restart_schedule(prob, policy_vb(C0))
        po = restart_schedule(prob, policy_pohst(C0))
        dists = [se.distance, st.distance, vb.distance, po.distance]
        try:
            _, d_box = oracle.box_clps(prob, oracle.babai_box(prob))
            dists.append(d_box)
        except TooLarge:
            pass
        assert max(dists) - min(dists) < 1e-9
        agreements += 1
    assert agreements == 60


def test_stack_generates_fewest_nodes():
    from latdec.search import _babai_descent
    for seed in range(40):
        _, prob = _random_problem(seed + 100, M=int(2 + seed % 3), rho_db=9.0,
                                  right="lll+permute")
        st = gbb_run(prob, policy_stack(0.0))
        se = gbb_run(prob, policy_se())
        _, d_bab = _babai_descent(prob)
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
        box = oracle.babai_box(prob)

        def max_h(label):
            return max(prob.path_metric(label[: j + 1]) - b * (j + 1)
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
            st = gbb_run(prob, policy_stack(b), collect_trace=True)
            generated = {t[1] for t in st.trace}
            delta = max(prob.path_metric(st.decoded_label[: j + 1]) - b * (j + 1)
                        for j in range(prob.m)) + 1e-9
            ir_set = oracle.enumerate_node_set(prob, oracle.MaxCost(b, delta))
            assert generated <= ir_set


def test_ir_policy_trace_equals_oracle_set():
    _, prob = _random_problem(6, M=2, rho_db=8.0, right="lll")
    b, delta = 1.0, 6.0
    bounds = [b * k + delta for k in range(1, prob.m + 1)]
    out = gbb_run(prob, policy_ir(bounds))
    generated = {t[1] for t in gbb_run(prob, policy_ir(bounds), collect_trace=True).trace}
    assert generated == oracle.enumerate_node_set(prob, oracle.MaxCost(b, delta))
    assert out.decoded_label is not None


def test_pohst_trace_equals_oracle_set():
    _, prob = _random_problem(7, M=2, rho_db=8.0, right="lll")
    from latdec.search import _babai_descent
    _, d_bab = _babai_descent(prob)
    C0 = d_bab * 1.5
    out = gbb_run(prob, policy_pohst(C0), collect_trace=True)
    generated = {t[1] for t in out.trace}
    assert generated == oracle.enumerate_node_set(prob, oracle.PohstBudget(C0))


def test_ep_matches_pohst_with_constant_weights():
    _, prob = _random_problem(8, M=2, rho_db=8.0, right="lll")
    from latdec.search import _babai_descent
    _, d_bab = _babai_descent(prob)
    C0 = d_bab * 1.3
    po = gbb_run(prob, policy_pohst(C0), collect_trace=True)
    ep = gbb_run(prob, policy_ep([C0] * prob.m), collect_trace=True)
    assert {t[1] for t in po.trace} == {t[1] for t in ep.trace}
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


# ---------------------------------------------------------------------------
# the Fano decoder


def test_fano_noiseless_never_relaxes():
    cfg = latdec.VblastConfig(M=3, N=3, Q=2, rho=10.0)
    inst = latdec.sample_vblast(cfg, latdec.frame_rng(12, 0), noiseless=True)
    prob = form_tree(inst.received, inst.H, inst.code, "zf", "none", "constrained")
    out = fano_decode(prob, bias=1.0, step=1.0)
    assert out.decoded_label == transmitted_label(prob, inst.x_true)
    assert out.max_threshold == 0.0


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
        out = fano_decode(prob, bias=b, step=step, collect_trace=True)
        for level, label, g, f, bound in out.trace:
            assert f <= bound + 1e-12
        truth = transmitted_label(prob, inst.x_true)
        f_max = max(prob.path_metric(truth[: j + 1]) - b * (j + 1)
                    for j in range(prob.m))
        f_max = max(f_max, 0.0)
        assert out.max_threshold < f_max + step + 1e-9


def test_fano_counts_revisits():
    _, prob = _random_problem(13, M=3, rho_db=4.0, right="lll")
    out = fano_decode(prob, bias=1.0, step=0.25)
    assert out.node_generations >= out.unique_nodes - 1


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
