"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy Monte Carlo criteria (6 and 7) run multi-minute sweeps; the whole
module is sized for roughly ten minutes on two cores.  Tolerances are fixed
here and nowhere else.
"""

import time

import numpy as np

import latdec
from latdec import oracle, sim
from latdec.errors import TooLarge
from latdec.preprocess import apply_back_map, form_tree
from latdec.search import _babai_descent


def _ok(n, text):
    print(f"[acceptance] criterion {n}: PASS ({text})")


def _fer_points(report):
    return [(p.snr_db, p.trials, p.frame_errors) for p in report.points]


def _loglog_slope(points, tail=3):
    xs, ys = [], []
    for snr_db, trials, errs in points[-tail:]:
        assert errs > 0, "need errors at every regression point"
        xs.append(snr_db / 10.0)  # log10 of linear SNR
        ys.append(np.log10(errs / trials))
    return float(np.polyfit(xs, ys, 1)[0])


def _crossing(rows, level, key="fer"):
    """SNR where the log-FER curve crosses the level (linear interpolation)."""
    pts = [(r["snr_db"], r[key]) for r in rows if r[key] > 0]
    for (s0, f0), (s1, f1) in zip(pts, pts[1:]):
        if f0 >= level >= f1:
            t = (np.log10(level) - np.log10(f0)) / (np.log10(f1) - np.log10(f0))
            return s0 + t * (s1 - s0)
    return None


def test_criterion_1_ml_equivalence():
    # SE over the constrained box after plain ZF reproduces exact ML decisions
    t0 = time.time()
    cfg = latdec.VblastConfig(M=4, N=4, Q=2, rho=10.0)
    mismatches = 0
    for i in range(1000):
        inst = latdec.sample_vblast(cfg, latdec.frame_rng(101, i))
        prob = form_tree(inst.received, inst.H, inst.code, "zf", "none", "constrained")
        se = latdec.gbb_run(prob, latdec.policy_se())
        ml = oracle.exhaustive_ml(inst)
        if abs(se.distance - ml.distance) > 1e-9 * (1.0 + ml.distance):
            mismatches += 1
    took = time.time() - t0
    assert mismatches == 0
    assert took < 60.0
    _ok(1, f"0/1000 distance mismatches in {took:.1f}s")


def test_criterion_2_stack_generates_fewest_nodes():
    violations = 0
    for i in range(500):
        M = 2 + i % 5  # m in {4, 6, 8, 10, 12}
        cfg = latdec.VblastConfig(M=M, N=M, Q=2, rho=10.0 ** 0.9)
        inst = latdec.sample_vblast(cfg, latdec.frame_rng(102, i))
        prob = form_tree(inst.received, inst.H, inst.code, "mmse", "lll+permute",
                         "lattice")
        st = latdec.gbb_run(prob, latdec.policy_stack(0.0))
        se = latdec.gbb_run(prob, latdec.policy_se())
        _, d_bab = _babai_descent(prob)
        C0 = d_bab * (1 + 1e-9) + 1e-12
        vb = latdec.restart_schedule(prob, latdec.policy_vb(C0))
        po = latdec.restart_schedule(prob, latdec.policy_pohst(C0))
        if st.unique_nodes > min(se.unique_nodes, vb.unique_nodes, po.unique_nodes):
            violations += 1
    assert violations == 0
    _ok(2, "stack(b=0) minimal on 500/500 instances")


def test_criterion_3_stack_subset_of_ir():
    violations = 0
    checked = 0
    for i in range(200):
        M = 2 + i % 2
        cfg = latdec.VblastConfig(M=M, N=M, Q=2, rho=10.0 ** 0.8)
        inst = latdec.sample_vblast(cfg, latdec.frame_rng(103, i))
        prob = form_tree(inst.received, inst.H, inst.code, "mmse", "lll", "lattice")
        for b in (0.5, 1.0, 2.0):
            st = latdec.gbb_run(prob, latdec.policy_stack(b), collect_trace=True)
            generated = {t[1] for t in st.trace}
            delta = max(prob.path_metric(st.decoded_label[: j + 1]) - b * (j + 1)
                        for j in range(prob.m)) + 1e-9
            try:
                ir_set = oracle.enumerate_node_set(prob, oracle.MaxCost(b, delta))
            except TooLarge:
                continue
            checked += 1
            if not generated <= ir_set:
                violations += 1
    assert violations == 0
    assert checked >= 550
    _ok(3, f"containment on {checked} (instance, bias) runs")


def test_criterion_4_fano_stack_agreement():
    b, step = 1.0, 1e-3
    frames = 1000
    same = 0
    near_tie_discrepancies = 0
    for i in range(frames):
        cfg = latdec.VblastConfig(M=4, N=4, Q=2, rho=10.0 ** 1.2)
        inst = latdec.sample_vblast(cfg, latdec.frame_rng(104, i))
        prob = form_tree(inst.received, inst.H, inst.code, "mmse", "lll+permute",
                         "lattice")
        st = latdec.gbb_run(prob, latdec.policy_stack(b))
        fa = latdec.fano_decode(prob, bias=b, step=step)
        if fa.decoded_label == st.decoded_label:
            same += 1
        else:
            def max_h(label):
                return max(prob.path_metric(label[: j + 1]) - b * (j + 1)
                           for j in range(prob.m))
            if abs(max_h(fa.decoded_label) - max_h(st.decoded_label)) < 10 * step:
                near_tie_discrepancies += 1
    assert same + near_tie_discrepancies == frames
    assert same >= 0.99 * frames
    _ok(4, f"{same}/{frames} identical labels, {near_tie_discrepancies} near ties")


def test_criterion_5_mmse_dfe_identity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        H = rng.standard_normal((n, m)) * rng.uniform(0.05, 30.0)
        lp = latdec.left_preprocess(H, "mmse")
        err = np.abs(lp.R1.T @ lp.R1 - (np.eye(m) + H.T @ H)).max()
        worst = max(worst, err)
    assert worst < 1e-9
    _ok(5, f"worst deviation {worst:.2e} over 1000 shapes incl. wide")


def test_criterion_6_diversity_slope():
    base = {
        "channel": {"type": "vblast", "M": 2, "N": 2, "Q": 2},
        "preproc": {"left": "zf", "right": "none", "boundary": "constrained"},
        "decoder": {"name": "se"},
        "snr_grid_db": [8.0, 12.0, 16.0, 20.0, 24.0],
        "trials": 600000,
        "target_frame_errors": 100,
        "seed": 106,
    }
    cfg_se = sim.parse_config(base)
    cfg_fa = sim.parse_config({**base, "decoder": {"name": "fano", "bias": 1.0,
                                                   "step": 1.0}})
    rep_se, rep_fa = sim.compare_decoders([cfg_se, cfg_fa], workers=2)
    slope_se = _loglog_slope(_fer_points(rep_se))
    slope_fa = _loglog_slope(_fer_points(rep_fa))
    bottom = rep_se.points[-1]
    assert bottom.frame_errors / bottom.trials < 5e-4  # reached the deep-FER region
    assert abs(slope_fa - slope_se) <= 0.15 * abs(slope_se)
    _ok(6, f"slopes se={slope_se:.2f} fano={slope_fa:.2f} "
           f"({sum(p.trials for p in rep_se.points)} frames)")


def test_criterion_7_babai_gap():
    base = {
        "channel": {"type": "vblast", "M": 4, "N": 4, "Q": 2},
        "preproc": {"left": "mmse", "right": "lll+permute", "boundary": "lattice"},
        "decoder": {"name": "babai"},
        "snr_grid_db": [12.0, 14.0, 16.0],
        "trials": 25000,
        "target_frame_errors": 80,
        "seed": 107,
    }
    cfg_b = sim.parse_config(base)
    cfg_ml = sim.parse_config({**base,
                               "preproc": {"left": "zf", "right": "none",
                                           "boundary": "constrained"},
                               "decoder": {"name": "ml"}})
    rb, rml = sim.compare_decoders([cfg_b, cfg_ml], workers=2)
    gap = _crossing(rb.rows(), 1e-2) - _crossing(rml.rows(), 1e-2)
    # interval-aware bound: most favorable crossings within the 95% CIs
    gap_lo = _crossing(rb.rows(), 1e-2, key="fer_ci_lo") \
        - _crossing(rml.rows(), 1e-2, key="fer_ci_hi")
    assert gap <= 1.0
    assert gap_lo <= 1.0
    _ok(7, f"SNR gap at FER 1e-2: {gap:.2f} dB (CI-low {gap_lo:.2f} dB)")


def test_criterion_8_linear_complexity_trend():
    eta0 = 10.0 ** 1.4 / 8.0  # calibrated so m=8 runs at 14 dB
    per_dim = {}
    for M in (4, 8, 12, 16):
        m = 2 * M
        cfg = sim.parse_config({
            "channel": {"type": "vblast", "M": M, "N": M, "Q": 2},
            "preproc": {"left": "zf", "right": "none", "boundary": "constrained"},
            "decoder": {"name": "stack", "bias": 8.0},
            "snr_grid_db": [10.0 * np.log10(eta0 * m)],
            "trials": 400,
            "target_frame_errors": None,
            "seed": 108,
        })
        rep = sim.run_sweep(cfg)
        per_dim[m] = float(np.mean(rep.points[0].nc_values)) / m
    assert per_dim[32] <= 2.0 * per_dim[8]
    _ok(8, "mean n_c/m: " + " ".join(f"m={m}:{v:.2f}" for m, v in per_dim.items()))


def test_criterion_9_preprocessing_benefit():
    base = {
        "channel": {"type": "vblast", "M": 8, "N": 8, "Q": 2},
        "preproc": {"left": "mmse", "right": "lll+permute", "boundary": "lattice"},
        "decoder": {"name": "fano", "bias": 1.0, "step": 1.0},
        "snr_grid_db": [13.0],
        "trials": 400,
        "target_frame_errors": None,
        "seed": 109,
    }
    cfg_m = sim.parse_config(base)
    cfg_z = sim.parse_config({**base, "preproc": {"left": "zf", "right": "none",
                                                  "boundary": "lattice"}})
    rm, rz = sim.compare_decoders([cfg_m, cfg_z], collect_frames=True)
    nc_m = np.array([f[3] for f in rm.frames])
    nc_z = np.array([f[3] for f in rz.frames])
    assert nc_m.mean() < nc_z.mean()
    wins = int(np.sum(nc_m < nc_z))
    ties = int(np.sum(nc_m == nc_z))
    p = sim.sign_test_p(wins, len(nc_m) - ties)
    assert p < 0.01
    pm, pz = rm.points[0], rz.points[0]
    lo_m, hi_m = sim.wilson_ci(pm.frame_errors, pm.trials)
    lo_z, hi_z = sim.wilson_ci(pz.frame_errors, pz.trials)
    assert hi_m >= lo_z or pm.frame_errors <= pz.frame_errors
    _ok(9, f"mean n_c {nc_m.mean():.0f} vs {nc_z.mean():.0f}, sign test p={p:.1e}")


def test_criterion_10_underdetermined_ld():
    gen_seed = 9
    gen = sim.random_unitary(9, gen_seed)
    ld = latdec.LdCodeConfig(generator_c=gen, M=3, N=2, T=3, Q=2,
                             rho=10.0 ** 2.0)
    ok = 0
    for i in range(300):
        inst = latdec.build_ld_instance(ld, latdec.frame_rng(110, i), noiseless=True)
        prob = form_tree(inst.received, inst.H, inst.code, "mmse", "lll+permute",
                         "lattice")
        out = latdec.gbb_run(prob, latdec.policy_stack(0.0))
        info = apply_back_map(out.decoded_label, prob.back_map)
        ok += int(np.array_equal(info, inst.x_true))
    assert ok >= 0.99 * 300

    cfg = sim.parse_config({
        "channel": {"type": "ld", "M": 3, "N": 2, "T": 3, "Q": 2,
                    "generator_seed": gen_seed},
        "preproc": {"left": "mmse", "right": "lll+permute", "boundary": "lattice"},
        "decoder": {"name": "fano", "bias": 1.0, "step": 1.0},
        "snr_grid_db": [12.0, 15.0, 18.0],
        "trials": 1200,
        "target_frame_errors": 100,
        "seed": 111,
    })
    rep = sim.run_sweep(cfg, workers=2)
    fers = [p.frame_errors / p.trials for p in rep.points]
    assert fers[0] > fers[1] > fers[2]
    _ok(10, f"noiseless {ok}/300, FER sweep {['%.3f' % f for f in fers]}")


def test_criterion_11_isi_pipeline():
    base = {
        "channel": {"type": "isi",
                    "taps": [0.848, -0.424, 0.2545, -0.1696, 0.0848],
                    "frame_len": 24, "gen_polys": [5, 7]},
        "preproc": {"left": "mmse", "right": "lll+permute", "boundary": "lattice"},
        "decoder": {"name": "fano", "bias": 1.0, "step": 1.0},
        "snr_grid_db": [2.0, 6.5],
        "trials": 25000,
        "target_frame_errors": 60,
        "seed": 112,
    }
    cfg_f = sim.parse_config(base)
    cfg_ml = sim.parse_config({**base, "decoder": {"name": "ml"}})
    rf, rml = sim.compare_decoders([cfg_f, cfg_ml], workers=2)
    for pf, pml in zip(rf.rows(), rml.rows()):
        # 95% interval overlap at each of the two points
        assert pf["fer_ci_lo"] <= pml["fer_ci_hi"] and pml["fer_ci_lo"] <= pf["fer_ci_hi"], \
            (pf, pml)
    fers = [(r["snr_db"], round(r["fer"], 4)) for r in rf.rows()]
    _ok(11, f"fano FER {fers} within ML confidence overlap")
