import itertools
import sys
import tracemalloc
import types
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
    assert _stores_no_outputs(plan)
    assert sum(len(X) for X, _ in plan.iter_blocks()) == len(inst.code.info_set.labels)


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
        assert _stores_no_outputs(plan)


def _stores_no_outputs(plan):
    """A full plan holds no candidate and no output: its arrays are D and
    the offset, and it has no shortlist."""
    arrays = {k for k, v in vars(plan).items() if isinstance(v, np.ndarray)}
    return arrays == {"D", "offset"} and plan.shortlist is None


def test_full_ml_plan_stores_no_outputs_and_forms_blocks_under_64_kib():
    # a full plan forms each block when a call reaches it: an explicit
    # code's labels by slice, a hypercube's from their indices.  Every
    # array of a call stays under 64 KiB, so that freeing it never trims
    # the heap and no call faults its pages in again
    cfg = latdec.IsiConfig(taps=ISI_TAPS, frame_len=24, gen_polys=(5, 7), rho=10.0)
    insts = [latdec.build_isi_instance(cfg, latdec.frame_rng(9, 1, f)) for f in range(3)]
    plan = oracle.MlPlan(insts[0].H, insts[0].code)
    assert _stores_no_outputs(plan)
    blocks = list(plan.iter_blocks())
    assert [len(X) for X, _ in blocks] == [288, 288, 288, 160]  # 1024 codewords, 28 outputs
    assert np.array_equal(np.vstack([X for X, _ in blocks]), insts[0].code.info_set.labels)
    for inst in insts:
        _assert_plan_matches_reference(inst, plan)
        _, largest = _largest_allocations(oracle.exhaustive_ml, inst, plan)
        assert max(largest.values()) == 288 * 28 * 8  # it sees the block's outputs

    vblast = latdec.sample_vblast(latdec.VblastConfig(M=8, N=8, Q=2, rho=10.0),
                                  latdec.frame_rng(9, 2))
    plan = oracle.MlPlan(vblast.H, vblast.code)
    assert _stores_no_outputs(plan)
    _assert_plan_matches_reference(vblast, plan)
    _, largest = _largest_allocations(oracle.exhaustive_ml, vblast, plan)
    assert max(largest.values()) <= oracle.BLOCK_BYTES
    m = 20  # the widest hypercube that exhaustive ML enumerates
    assert oracle.enumerable(2**m) and not oracle.enumerable(2**(m + 1))
    code = LatticeCode(np.eye(m), np.zeros(m), InfoSet("hypercube", q=2))
    plan = oracle.MlPlan(np.eye(m), code)
    _, largest = _largest_allocations(lambda: list(itertools.islice(plan.iter_blocks(), 2)))
    assert max(largest.values()) <= oracle.BLOCK_BYTES


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


def _assert_narrowed_match_reference(insts, plan, received=None):
    """Every frame's narrowed plan decides like the reference loop; returns
    the shortlists' labels, one list of label tuples per frame."""
    if received is None:
        received = [inst.received for inst in insts]
    narrowed = plan.narrow(received)
    assert len(narrowed) == len(insts)
    shortlists = []
    for inst, short in zip(insts, narrowed):
        assert short is not plan and short.offset is plan.offset
        label, distance = exhaustive_ml_loop(inst)
        res = oracle.exhaustive_ml(inst, short)
        assert np.array_equal(res.label, label) and res.distance == distance
        shortlists.append([tuple(x) for X, _ in short.iter_blocks() for x in X.tolist()])
        assert shortlists[-1] == sorted(shortlists[-1])  # lexicographic, like the plan
    return shortlists


@pytest.mark.parametrize("snr_db", [-5.0, 4.0, 20.0])
def test_narrowed_isi_frames_match_reference(snr_db):
    cfg = latdec.IsiConfig(taps=ISI_TAPS, frame_len=24, gen_polys=(5, 7),
                           rho=10.0 ** (snr_db / 10.0))
    insts = [latdec.build_isi_instance(cfg, latdec.frame_rng(11, 0, f)) for f in range(100)]
    plan = oracle.MlPlan(insts[0].H, insts[0].code)
    # a chunk's received vectors as a list, as a sweep passes them, and as an array
    shortlists = _assert_narrowed_match_reference(insts, plan)
    assert _assert_narrowed_match_reference(
        insts, plan, np.array([inst.received for inst in insts])) == shortlists
    assert max(map(len, shortlists)) == 1


def test_narrowed_frames_far_from_every_candidate_match_reference():
    # |b| far above the distance gaps, so the tolerance (which grows with
    # |b|^2) spans many candidates; and a huge code translate, which the
    # plan's offset cancels before the base is formed
    cfg = latdec.IsiConfig(taps=ISI_TAPS, frame_len=24, gen_polys=(5, 7), rho=10.0)
    insts = [latdec.build_isi_instance(cfg, latdec.frame_rng(12, 0, f)) for f in range(40)]
    direction = np.random.default_rng(12).standard_normal(insts[0].H.shape[0])
    plan = oracle.MlPlan(insts[0].H, insts[0].code)
    longest = []
    for shift in (1e4, 1e9, 1e13):
        far = [replace(inst, received=inst.received + shift * direction) for inst in insts]
        longest.append(max(map(len, _assert_narrowed_match_reference(far, plan))))
    assert longest[0] == 1 and longest[-1] > 1
    code = replace(insts[0].code, translate=insts[0].code.translate + 1e9)
    moved = [replace(inst, code=code, received=inst.received + inst.H @ np.full(24, 1e9))
             for inst in insts]
    _assert_narrowed_match_reference(moved, oracle.MlPlan(moved[0].H, code))


def test_narrowing_keeps_an_exact_tie_across_blocks():
    # labels 0 and `tied`, the first label of the second block, at exactly
    # the same distance from b = o/2, o the plan's own output of `tied`
    # (then b - o = -b bit for bit); every other label is farther: H'H is
    # I - J/(2t) on tied's t ones, so each proper sub-label of tied is
    # farther.  With this rotation the expanded distance of `tied` rounds
    # away from that of 0, so narrowing with no tolerance keeps one label
    m = 13
    code = LatticeCode(np.eye(m), np.zeros(m), InfoSet("hypercube", q=2))
    rows = oracle.MlPlan(np.eye(m), code).rows
    tied = (rows >> np.arange(m - 1, -1, -1)) & 1
    ones = np.flatnonzero(tied)
    gram = np.eye(m)
    gram[np.ix_(ones, ones)] -= 0.5 / len(ones)
    rotation = np.linalg.qr(np.random.default_rng(6).standard_normal((m, m)))[0]
    H = rotation @ np.linalg.cholesky(gram).T
    plan = oracle.MlPlan(H, code)
    second = next(itertools.islice(plan.iter_blocks(), 1, None))
    assert np.array_equal(second[0][0], tied)
    inst = latdec.ChannelInstance(H=H, code=code, x_true=np.zeros(m, dtype=int),
                                  received=second[1][0] / 2)
    labels = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    diff = inst.received - labels @ H.T
    dists = np.einsum("ij,ij->i", diff, diff)
    assert np.flatnonzero(dists == dists.min()).tolist() == [0, rows]
    shortlist, = _assert_narrowed_match_reference([inst], plan)
    assert shortlist[0] == (0,) * m and tuple(tied) in shortlist
    assert not oracle.exhaustive_ml(inst, plan).label.any()


def test_narrowing_drops_what_an_earlier_block_kept():
    # the frame's least distance lies in the second block; the first
    # block's least candidate was kept while the least so far was its own,
    # and the final filter drops it
    m = 13
    code = LatticeCode(np.eye(m), np.zeros(m), InfoSet("hypercube", q=2))
    plan = oracle.MlPlan(np.eye(m), code)
    target = ((plan.rows + 5) >> np.arange(m - 1, -1, -1)) & 1
    inst = latdec.ChannelInstance(H=np.eye(m), code=code, x_true=target,
                                  received=target + 0.1)
    first, _ = next(plan.iter_blocks())
    assert len(first) == plan.rows and not (first == target).all(axis=1).any()
    shortlist, = _assert_narrowed_match_reference([inst], plan)
    assert shortlist == [tuple(target)]


def test_narrowed_fixed_vblast_channel_matches_reference():
    cfg = latdec.VblastConfig(M=3, N=3, Q=4, rho=10.0)
    channel = latdec.channels.draw_mimo_channel(cfg, latdec.frame_rng(13, 0))
    insts = [latdec.sample_vblast(cfg, latdec.frame_rng(13, 0, f), channel=channel)
             for f in range(60)]
    plan = oracle.MlPlan(insts[0].H, insts[0].code)
    assert _stores_no_outputs(plan) and len(list(plan.iter_blocks())) > 1
    _assert_narrowed_match_reference(insts, plan)
    # a batch of one frame, and of none
    _assert_narrowed_match_reference(insts[:1], plan)
    assert plan.narrow(np.empty((0, len(plan.offset)))) == []


def test_narrowing_hands_back_the_full_plan_without_a_finite_tolerance():
    inst = latdec.sample_vblast(latdec.VblastConfig(M=2, N=2, Q=2), latdec.frame_rng(0, 0))
    plan = oracle.MlPlan(inst.H, inst.code)
    bad = inst.received.copy()
    bad[0] = np.nan
    short, full = plan.narrow([inst.received, bad])
    assert short is not plan and full is plan
    with pytest.raises(ValueError, match="^received: non-finite entries$"):
        oracle.exhaustive_ml(replace(inst, received=bad), full)


def _largest_allocations(fn, *args):
    """fn(*args), and per line that allocated it the size of the largest
    block of memory that MlPlan.narrow, MlPlan.iter_blocks or exhaustive_ml
    held at one of their bytecodes: every array they name, and every
    temporary that a bytecode leaves for the next.  A bytecode is looked at
    when tracemalloc's peak rose by 16 KiB or more over the one before."""
    codes = [oracle.MlPlan.narrow.__code__, oracle.MlPlan.iter_blocks.__code__,
             oracle.exhaustive_ml.__code__]
    for code in codes:  # and the comprehensions and generator expressions in them
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    in_oracle = [tracemalloc.Filter(True, oracle.__file__, all_frames=True)]
    largest = {}
    before = [0]

    def look(frame, event, arg):
        frame.f_trace_opcodes = True
        current, peak = tracemalloc.get_traced_memory()
        if peak - before[0] >= 2**14:
            for trace in tracemalloc.take_snapshot().filter_traces(in_oracle).traces:
                line = [f.lineno for f in trace.traceback if f.filename == oracle.__file__][-1]
                largest[line] = max(largest.get(line, 0), trace.size)
        tracemalloc.reset_peak()
        before[0] = tracemalloc.get_traced_memory()[0]
        return look

    tracemalloc.start(4)
    sys.settrace(lambda frame, event, arg: look(frame, event, arg)
                 if frame.f_code in codes else None)
    try:
        out = fn(*args)
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return out, largest


def test_narrowing_allocates_no_array_of_64_kib():
    # freeing an array of 64 KiB or more trims the heap, and the next chunk
    # faults its pages in again; so narrowing stays in blocks like
    # exhaustive_ml, frames in batches of BLOCK_BYTES // (8 max(rows, outputs)),
    # and takes the labels' largest magnitudes without a copy of |labels|;
    # on the tall channel (400 outputs, 20 rows) the outputs bound the batch
    isi = latdec.IsiConfig(taps=ISI_TAPS, frame_len=24, gen_polys=(5, 7), rho=10.0)
    chunks = [[latdec.build_isi_instance(isi, latdec.frame_rng(14, 0, f)) for f in range(30)]]
    for vblast in (latdec.VblastConfig(M=6, N=6, Q=2, rho=10.0),
                   latdec.VblastConfig(M=2, N=200, Q=2, rho=10.0)):
        channel = latdec.channels.draw_mimo_channel(vblast, latdec.frame_rng(14, 0))
        chunks.append([latdec.sample_vblast(vblast, latdec.frame_rng(14, 0, f), channel=channel)
                       for f in range(30)])
    for insts in chunks:
        plan = oracle.MlPlan(insts[0].H, insts[0].code)
        width = max(plan.rows, len(plan.offset))
        batch = oracle.BLOCK_BYTES // (8 * width)
        assert 8 * batch * width <= oracle.BLOCK_BYTES < len(insts) * 8 * width
        narrowed, largest = _largest_allocations(plan.narrow,
                                                 [inst.received for inst in insts])
        assert 8 * batch * width in largest.values()  # it sees the batch's GEMM or bases
        assert max(largest.values()) <= oracle.BLOCK_BYTES
        for inst, short in zip(insts, narrowed):
            assert oracle.exhaustive_ml(inst, short).distance == \
                oracle.exhaustive_ml(inst, plan).distance


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
