import itertools
from dataclasses import replace

import numpy as np
import pytest
from reference import (OracleBox, PohstBudget, babai_box, box_clps, enumerate_node_set,
                       exhaustive_ml_loop)
from util import make_problem, path_metric, transmitted_label

import latdec
from latdec import oracle
from latdec.errors import TooLarge
from latdec.lattice import InfoSet, LatticeCode
from latdec.preprocess import form_tree


def test_exhaustive_ml_noiseless():
    cfg = latdec.VblastConfig(M=2, N=2, Q=2)
    inst = latdec.sample_vblast(cfg, latdec.frame_rng(0, 0), noiseless=True)
    res = oracle.exhaustive_ml(inst)
    assert np.array_equal(res.label, inst.x_true)
    assert res.distance == pytest.approx(0.0, abs=1e-18)


def test_exhaustive_ml_hand_enumeration():
    # m=2, Q=2: check against a literal four-term evaluation
    H = np.array([[1.0, 0.4], [0.0, 0.9]])
    code = LatticeCode(np.eye(2), np.array([-0.5, -0.5]), InfoSet("hypercube", q=2))
    received = np.array([0.35, 0.41])
    inst = latdec.ChannelInstance(H=H, code=code, x_true=np.array([1, 1]),
                                  received=received)
    dists = {}
    for x0 in (0, 1):
        for x1 in (0, 1):
            c = np.array([x0, x1]) + code.translate
            dists[(x0, x1)] = float(np.sum((received - H @ c) ** 2))
    expect = min(dists, key=dists.get)
    res = oracle.exhaustive_ml(inst)
    assert tuple(res.label) == expect
    assert res.distance == pytest.approx(dists[expect])


def test_exhaustive_ml_guard():
    cfg = latdec.VblastConfig(M=16, N=16, Q=4)
    inst = latdec.sample_vblast(cfg, latdec.frame_rng(1, 0))
    with pytest.raises(TooLarge):
        oracle.exhaustive_ml(inst)  # 4^32 candidates


def test_exhaustive_ml_tie_keeps_smallest_label():
    # symmetric received point: both labels at the same distance
    H = np.eye(1)
    code = LatticeCode(np.eye(1), np.array([0.0]), InfoSet("hypercube", q=2))
    inst = latdec.ChannelInstance(H=H, code=code, x_true=np.array([0]),
                                  received=np.array([0.5]))
    res = oracle.exhaustive_ml(inst)
    assert tuple(res.label) == (0,)  # lexicographically smallest
    assert res.distance == 0.25


ISI_TAPS = (0.848, -0.424, 0.2545, -0.1696, 0.0848)


def _assert_plan_matches_reference(inst, plan):
    # the call with the plan and the one-shot call, which builds its own
    label, distance = exhaustive_ml_loop(inst)
    for res in (oracle.exhaustive_ml(inst, plan), oracle.exhaustive_ml(inst)):
        assert np.array_equal(res.label, label)
        assert res.distance == distance


@pytest.mark.parametrize("snr_db", [4.0, 10.0])
def test_ml_plan_reused_on_static_isi_channel_matches_reference(snr_db):
    cfg = latdec.IsiConfig(taps=ISI_TAPS, frame_len=24, gen_polys=(5, 7),
                           rho=10.0 ** (snr_db / 10.0))
    plan = None
    for frame in range(300):
        inst = latdec.build_isi_instance(cfg, latdec.frame_rng(9, 0, frame))
        if plan is None:
            plan = oracle.MlPlan(inst.H, inst.code)
        _assert_plan_matches_reference(inst, plan)
    assert sum(len(X) for X, _ in plan.blocks) == len(inst.code.info_set.labels)


def test_ml_plan_on_fixed_vblast_hypercube_matches_reference():
    for cfg, frames in ((latdec.VblastConfig(M=3, N=3, Q=2, rho=10.0), 100),
                        (latdec.VblastConfig(M=4, N=4, Q=4, rho=30.0), 10)):
        channel = latdec.channels.draw_mimo_channel(cfg, latdec.frame_rng(10, 0))
        plan = None
        for frame in range(frames):
            inst = latdec.sample_vblast(cfg, latdec.frame_rng(10, 0, frame), channel=channel)
            if plan is None:
                plan = oracle.MlPlan(inst.H, inst.code)
            _assert_plan_matches_reference(inst, plan)
        assert plan.blocks is None  # a hypercube is enumerated per call


def _block_arrays(plan, inst):
    """The arrays each block of an exhaustive_ml call works on: its float
    labels, its noiseless outputs and its residuals."""
    base = inst.received - plan.offset
    for X, outputs in plan.iter_blocks():
        yield from (X.astype(float), outputs, base - outputs)


def test_ml_plan_forms_explicit_blocks_once_in_arrays_under_64_kib():
    # an explicit plan holds its blocks, read-only, from construction on; a
    # hypercube plan holds none.  Every per-call array stays under 64 KiB with
    # room for the allocator's header, so that freeing it never trims the heap
    # and no call faults its pages in again
    cfg = latdec.IsiConfig(taps=ISI_TAPS, frame_len=24, gen_polys=(5, 7), rho=10.0)
    insts = [latdec.build_isi_instance(cfg, latdec.frame_rng(9, 1, f)) for f in range(3)]
    plan = oracle.MlPlan(insts[0].H, insts[0].code)
    assert len(plan.blocks) == 4  # 1024 codewords of 28 outputs, 288 rows a block
    for X, outputs in plan.blocks:
        for a in (X, outputs):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0
    for inst in insts:
        _assert_plan_matches_reference(inst, plan)
    assert all(a.nbytes <= 2**16 - 2**10 for a in _block_arrays(plan, insts[0]))

    vblast = latdec.sample_vblast(latdec.VblastConfig(M=8, N=8, Q=2, rho=10.0),
                                  latdec.frame_rng(9, 2))
    m = 20  # the widest hypercube that exhaustive ML enumerates
    assert oracle.enumerable(2**m) and not oracle.enumerable(2**(m + 1))
    widest = latdec.ChannelInstance(
        H=np.eye(m), code=LatticeCode(np.eye(m), np.zeros(m), InfoSet("hypercube", q=2)),
        x_true=np.zeros(m, dtype=int), received=np.zeros(m))
    for inst in (vblast, widest):
        plan = oracle.MlPlan(inst.H, inst.code)
        assert plan.blocks is None
        first_two = itertools.islice(_block_arrays(plan, inst), 6)
        assert all(a.nbytes <= 2**16 - 2**10 for a in first_two)
    _assert_plan_matches_reference(vblast, oracle.MlPlan(vblast.H, vblast.code))


@pytest.mark.parametrize("rest, order", [(0.5, None), (-1.0, None), (-1.0, "descending"),
                                         (0.5, "shuffled")],
                         ids=["0.5", "-1.0", "-1.0-explicit-descending", "0.5-explicit-shuffled"])
def test_ml_plan_ties_across_chunks_match_reference(rest, order):
    # 2^13 labels in blocks of plan.rows labels.  rest=0.5: every label is
    # at the same distance.  rest=-1: exactly two closest labels at the same
    # distance, (0,..,0) and `tied`, the first label of the second block.  H
    # then ties each of tied's ones to the next, holds every other coordinate
    # at 0 (received -1), and puts tied's first one half-way between 0 and 1.
    # The hypercube comes in lexicographic order; the same labels listed
    # explicitly in descending or shuffled order come out of InfoSet in
    # lexicographic order too
    m = 13
    if order is None:
        info_set = InfoSet("hypercube", q=2)
    else:
        idx = np.arange(2**m)[::-1] if order == "descending" \
            else np.random.default_rng(5).permutation(2**m)
        info_set = InfoSet("explicit", labels=(idx[:, None] >> np.arange(m - 1, -1, -1)) & 1)
        assert info_set.labels.tolist() == sorted(info_set.labels.tolist())
    code = LatticeCode(np.eye(m), np.zeros(m), info_set)
    H = np.eye(m)
    rows = oracle.MlPlan(H, code).rows  # the same for the H below, of the same shape
    assert rows < 2**m
    tied = (rows >> np.arange(m - 1, -1, -1)) & 1
    received = np.full(m, rest)
    if rest < 0:
        ones = np.flatnonzero(tied)
        H[ones[1:], ones[:-1]] = 1.0
        H[ones[1:], ones[1:]] = -1.0
        received[ones] = 0.0
        received[ones[0]] = 0.5
    inst = latdec.ChannelInstance(H=H, code=code, x_true=np.zeros(m, dtype=int),
                                  received=received)
    plan = oracle.MlPlan(inst.H, inst.code)
    res = oracle.exhaustive_ml(inst, plan)
    assert not res.label.any()
    assert res.distance == (received - H @ tied) @ (received - H @ tied)
    labels = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    dists = ((received - labels @ H.T) ** 2).sum(axis=1)
    assert np.flatnonzero(dists == dists.min()).tolist() == \
        (list(range(2**m)) if rest > 0 else [0, rows])
    _assert_plan_matches_reference(inst, plan)  # the plan's second use


def test_exhaustive_ml_rejects_non_finite_inputs():
    # a NaN distance would never be the least one, so no label would be kept
    inst = latdec.sample_vblast(latdec.VblastConfig(M=2, N=2, Q=2), latdec.frame_rng(0, 0))
    H = inst.H.copy()
    H[0, 0] = np.nan
    with pytest.raises(ValueError, match="^H: non-finite entries$"):
        oracle.MlPlan(H, inst.code)
    with pytest.raises(ValueError, match="^H: non-finite entries$"):
        oracle.exhaustive_ml(replace(inst, H=H))
    inst.received[1] = np.inf
    with pytest.raises(ValueError, match="^received: non-finite entries$"):
        oracle.exhaustive_ml(inst)


def test_ml_plan_guard():
    cfg = latdec.VblastConfig(M=16, N=16, Q=4)
    inst = latdec.sample_vblast(cfg, latdec.frame_rng(1, 0))
    with pytest.raises(TooLarge):
        oracle.MlPlan(inst.H, inst.code)


def test_exhaustive_matches_se_on_zf_constrained():
    cfg = latdec.VblastConfig(M=2, N=2, Q=2, rho=10.0)
    for i in range(200):
        inst = latdec.sample_vblast(cfg, latdec.frame_rng(2, i))
        prob = form_tree(inst.received, inst.H, inst.code, "zf", "none", "constrained")
        se = latdec.gbb_run(prob, latdec.policy_se())
        ml = oracle.exhaustive_ml(inst)
        assert np.array_equal(transmitted_label(prob, ml.label), se.decoded_label) \
            or se.distance == pytest.approx(ml.distance, abs=1e-9)


def test_box_radius_zero_evaluates_center_only():
    prob = make_problem(np.eye(2), [0.3, -0.2])
    box = OracleBox(center=np.array([4, 7]), radius=np.array([0, 0]))
    label, dist = box_clps(prob, box)
    assert label == (4, 7)


def test_box_one_dimensional_example():
    prob = make_problem([[1.0]], [0.4])
    box = OracleBox(center=np.array([0]), radius=np.array([2]))
    label, dist = box_clps(prob, box)
    assert label == (0,)
    assert dist == pytest.approx(0.16)


def test_box_clps_agrees_with_stack_on_random_problems():
    count = 0
    for i in range(100):
        m = 1 + i % 4
        cfg = latdec.VblastConfig(M=m, N=m, Q=2, rho=10.0 ** 0.9)
        inst = latdec.sample_vblast(cfg, latdec.frame_rng(3, i))
        prob = form_tree(inst.received, inst.H, inst.code, "mmse", "lll", "lattice")
        try:
            label, dist = box_clps(prob, babai_box(prob))
        except TooLarge:
            continue
        st = latdec.gbb_run(prob, latdec.policy_stack(0.0))
        assert st.distance == pytest.approx(dist, abs=1e-9)
        count += 1
    assert count >= 80


def test_constrained_box_oracle_reproduces_ml_decisions():
    # exhaustive search over the boxed tree problem (ZF, no basis change)
    # must agree with direct ML enumeration on every instance
    cfg = latdec.VblastConfig(M=2, N=2, Q=2, rho=10.0 ** 0.8)
    for i in range(100):
        inst = latdec.sample_vblast(cfg, latdec.frame_rng(5, i))
        prob = form_tree(inst.received, inst.H, inst.code, "zf", "none", "constrained")
        box = OracleBox(center=np.zeros(prob.m, dtype=int),
                        radius=np.full(prob.m, 2))  # clipped to {0,1}
        label, dist = box_clps(prob, box)
        ml = oracle.exhaustive_ml(inst)
        assert label == transmitted_label(prob, ml.label)
        assert dist == pytest.approx(ml.distance, abs=1e-9)  # square Q: isometry


def test_enumerate_zero_budget_on_noisy_instance_is_empty():
    cfg = latdec.VblastConfig(M=2, N=2, Q=2, rho=10.0)
    inst = latdec.sample_vblast(cfg, latdec.frame_rng(4, 0))
    prob = form_tree(inst.received, inst.H, inst.code, "mmse", "none", "lattice")
    assert enumerate_node_set(prob, PohstBudget(0.0)) == set()


def test_enumerate_node_set_guard():
    prob = make_problem(np.eye(2) * 1e-3, [0.0, 0.0])
    with pytest.raises(TooLarge):
        enumerate_node_set(prob, PohstBudget(10.0), guard=100)


def test_enumerate_matches_direct_check_small():
    prob = make_problem([[1.0, 0.4], [0.0, 0.8]], [0.3, -0.6])
    C0 = 2.0
    got = enumerate_node_set(prob, PohstBudget(C0))
    # independent re-check over a generous integer window
    want = set()
    for x1 in range(-5, 6):
        w1 = path_metric(prob, (x1,))
        if w1 <= C0:
            want.add((x1,))
            for x2 in range(-5, 6):
                if path_metric(prob, (x1, x2)) <= C0:
                    want.add((x1, x2))
    assert got == want
