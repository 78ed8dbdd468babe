import json

import numpy as np
import pytest

import latdec
from latdec import cli, sim
from latdec.errors import AlignmentError, ConfigError


def _base_config(**over):
    cfg = {
        "channel": {"type": "vblast", "M": 2, "N": 2, "Q": 2},
        "preproc": {"left": "mmse", "right": "lll+permute", "boundary": "lattice"},
        "decoder": {"name": "se"},
        "snr_grid_db": [8.0, 12.0],
        "trials": 200,
        "target_frame_errors": None,
        "seed": 5,
    }
    cfg.update(over)
    return cfg


def test_parse_config_rejects_unknown_keys():
    bad = _base_config()
    bad["typo"] = 1
    with pytest.raises(ConfigError, match="typo"):
        sim.parse_config(bad)
    bad2 = _base_config()
    bad2["decoder"] = {"name": "se", "bias": 1.0}
    with pytest.raises(ConfigError, match="bias"):
        sim.parse_config(bad2)
    bad3 = _base_config()
    bad3["channel"] = {"type": "warp"}
    with pytest.raises(ConfigError, match="warp"):
        sim.parse_config(bad3)


def _tiny_plan():
    inst = latdec.sample_vblast(latdec.VblastConfig(M=2, N=2), latdec.frame_rng(1, 0))
    return inst, latdec.prepare_tree(inst.H, inst.code)


def _with_nan(a):
    a = np.array(a, dtype=float)
    a.flat[0] = np.nan
    return a


@pytest.mark.parametrize("build, error, match", [
    (lambda: _base_config(decoder={"name": "pohst"}), ConfigError, "'radius'"),
    (lambda: _base_config(decoder={"name": "vb"}), ConfigError, "'radius'"),
    (lambda: _base_config(decoder={"name": "ir"}), ConfigError, "'bounds'"),
    (lambda: _base_config(decoder={"name": "ep"}), ConfigError, "'weights'"),
    (lambda: _base_config(decoder={"name": "m-alg"}), ConfigError, "'M'"),
    (lambda: _base_config(decoder={"name": "t-alg"}), ConfigError, "'T'"),
    (lambda: _base_config(decoder={"name": "m-alg", "M": 4}), ConfigError, "'boundary'"),
    (lambda: _base_config(decoder={"name": "t-alg", "T": 2.0}), ConfigError, "'boundary'"),
    (lambda: _base_config(decoder={"name": "fano", "step": 0}), ConfigError, "'step'"),
    (lambda: _base_config(decoder={"name": "fano", "step": -1.0}), ConfigError, "'step'"),
    (lambda: _base_config(decoder={"name": "fano", "step": float("inf")}), ConfigError, "'step'"),
    (lambda: _base_config(decoder={"name": "fano", "bias": float("nan")}), ConfigError, "'bias'"),
    (lambda: _base_config(decoder={"name": "stack", "bias": float("inf")}), ConfigError, "'bias'"),
    (lambda: _tiny_plan()[1].problem_for(_with_nan(_tiny_plan()[0].received)),
     ValueError, "^received"),
    (lambda: latdec.prepare_tree(_with_nan(_tiny_plan()[0].H), _tiny_plan()[0].code),
     ValueError, "^H:"),
], ids=["pohst-radius", "vb-radius", "ir-bounds", "ep-weights", "m-alg-M", "t-alg-T",
        "m-alg-lattice", "t-alg-lattice", "fano-step-0", "fano-step-negative",
        "fano-step-inf", "fano-bias-nan", "stack-bias-inf", "received-nan", "H-nan"])
def test_bad_input_fails_early_naming_the_field(build, error, match):
    with pytest.raises(error, match=match):
        built = build()
        if isinstance(built, dict):
            sim.parse_config(built)


def test_zero_trials_gives_empty_rows():
    cfg = sim.parse_config(_base_config(trials=0))
    report = sim.run_sweep(cfg)
    for row in report.rows():
        assert row["trials"] == 0
        assert np.isnan(row["fer"])


def test_noiseless_sweep_has_zero_fer():
    for decoder in ({"name": "stack", "bias": 0.0},
                    {"name": "pohst", "radius": 0.5},
                    {"name": "babai"}):
        cfg = sim.parse_config(_base_config(noiseless=True, trials=25,
                                            decoder=decoder))
        report = sim.run_sweep(cfg)
        for row in report.rows():
            assert row["frame_errors"] == 0
            assert row["ber"] == 0.0


def test_reproducible_csv_across_runs_and_workers():
    cfg = sim.parse_config(_base_config(trials=120, snr_grid_db=[9.0]))
    a = sim.run_sweep(cfg).to_csv()
    b = sim.run_sweep(cfg).to_csv()
    assert a == b
    c = sim.run_sweep(cfg, workers=2).to_csv()
    assert a == c


def test_dump_failures_independent_of_worker_count(tmp_path):
    # a few failures per point, spread over two chunks per point, and more
    # failures in all than the dump keeps
    cfg = sim.parse_config(_base_config(trials=600, snr_grid_db=[16.0, 14.0]))
    dumped = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        sim.run_sweep(cfg, workers=workers, dump_failures=str(out))
        dumped.append({p.name: p.read_text() for p in out.glob("*.json")})
    assert len(dumped[0]) == sim.DUMP_LIMIT
    assert dumped[0] == dumped[1]


def test_stopping_rule_applies_at_chunk_boundaries():
    cfg = sim.parse_config(_base_config(trials=5000, snr_grid_db=[0.0],
                                        target_frame_errors=5))
    report = sim.run_sweep(cfg)
    point = report.points[0]
    assert point.frame_errors >= 5
    assert point.trials < 5000
    assert point.trials % sim.CHUNK == 0


def test_shadow_oracle_agrees_with_ml_path():
    cfg = sim.parse_config(_base_config(
        trials=200, snr_grid_db=[10.0],
        preproc={"left": "zf", "right": "none", "boundary": "constrained"},
        shadow_oracle=True))
    report = sim.run_sweep(cfg)
    assert sum(p.shadow_disagreements for p in report.points) == 0


def test_compare_same_decoder_twice_identical():
    cfg = sim.parse_config(_base_config(trials=80, snr_grid_db=[9.0]))
    cfg2 = sim.parse_config(_base_config(trials=80, snr_grid_db=[9.0]))
    ra, rb = sim.compare_decoders([cfg, cfg2])
    assert ra.to_csv() == rb.to_csv()


def test_compare_stack_and_se_equal_distances():
    cfg_se = sim.parse_config(_base_config(trials=60, snr_grid_db=[8.0]))
    cfg_st = sim.parse_config(_base_config(trials=60, snr_grid_db=[8.0],
                                           decoder={"name": "stack", "bias": 0.0}))
    ra, rb = sim.compare_decoders([cfg_se, cfg_st], collect_frames=True)
    assert len(ra.frames) == len(rb.frames) == 60
    for fa, fb in zip(ra.frames, rb.frames):
        assert fa[1] == fb[1]  # same frame index
        assert fa[5] == pytest.approx(fb[5], abs=1e-9)  # same distance


def test_compare_fano_cheaper_than_se_at_high_snr():
    # direction-only check on a scaled-down 16-QAM array; plain ZF leaves
    # enough backtracking for the iterative search to show its advantage
    base = _base_config(trials=100, snr_grid_db=[28.0],
                        channel={"type": "vblast", "M": 8, "N": 8, "Q": 4},
                        preproc={"left": "zf", "right": "none",
                                 "boundary": "lattice"})
    cfg_se = sim.parse_config(base)
    cfg_fa = sim.parse_config({**base, "decoder": {"name": "fano", "bias": 1.0,
                                                   "step": 1.0}})
    rse, rfa = sim.compare_decoders([cfg_se, cfg_fa])
    mean_se = np.mean(rse.points[0].nc_values)
    mean_fa = np.mean(rfa.points[0].nc_values)
    assert mean_fa < mean_se


def test_compare_requires_shared_channel():
    cfg_a = sim.parse_config(_base_config())
    cfg_b = sim.parse_config(_base_config(channel={"type": "vblast", "M": 3, "N": 3, "Q": 2}))
    with pytest.raises(ConfigError):
        sim.compare_decoders([cfg_a, cfg_b])


def test_gamma_ratio():
    cfg = sim.parse_config(_base_config(trials=50, snr_grid_db=[9.0]))
    rep = sim.run_sweep(cfg)
    ratios = sim.gamma_ratio(rep, rep)
    assert ratios[9.0] == pytest.approx(1.0)
    cfg2 = sim.parse_config(_base_config(trials=50, snr_grid_db=[10.0]))
    rep2 = sim.run_sweep(cfg2)
    with pytest.raises(AlignmentError):
        sim.gamma_ratio(rep, rep2)


def test_wilson_interval_brackets_fer():
    lo, hi = sim.wilson_ci(10, 100)
    assert lo < 0.1 < hi
    assert sim.wilson_ci(0, 0) == (0.0, 1.0)


def test_sign_test_values():
    assert sim.sign_test_p(0, 0) == 1.0
    assert sim.sign_test_p(10, 10) == pytest.approx(2.0 ** -10)
    assert sim.sign_test_p(5, 10) > 0.5


def test_csv_column_order():
    cfg = sim.parse_config(_base_config(trials=10, snr_grid_db=[9.0]))
    text = sim.run_sweep(cfg).to_csv()
    header = text.splitlines()[0]
    assert header == ("snr_db,trials,frame_errors,fer,fer_ci_lo,fer_ci_hi,"
                      "bit_errors,ber,mean_nc,mean_nc_per_dim,median_nc,"
                      "p99_nc,restarts,budget_hits")


# ---------------------------------------------------------------------------
# CLI


def test_cli_simulate_and_decode_roundtrip(tmp_path, capsys):
    cfg = _base_config(trials=30, snr_grid_db=[6.0], target_frame_errors=None)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_csv = tmp_path / "sweep.csv"
    fails = tmp_path / "fails"
    rc = cli.main(["simulate", str(cfg_path), "--out", str(out_csv),
                   "--dump-failures", str(fails)])
    assert rc == 0
    text = out_csv.read_text()
    assert text.startswith("snr_db,")
    dumped = sorted(fails.glob("*.json"))
    if dumped:  # replay the first failing frame
        rc = cli.main(["decode", str(dumped[0]), "--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        result = json.loads(out[out.index("{"):])
        assert result["frame_error"] in (True, False)


def test_cli_decode_trace_runs_the_same_decode(tmp_path, capsys):
    # a radius below the closest point needs restarts; the trace must come
    # from the decode it explains, restarts included
    inst = latdec.sample_vblast(latdec.VblastConfig(M=2, N=2, Q=2, rho=10.0),
                                latdec.frame_rng(4, 0))
    path = tmp_path / "frame.json"
    path.write_text(json.dumps({
        "instance": json.loads(inst.to_json()),
        "preproc": {"left": "mmse", "right": "lll+permute", "boundary": "lattice"},
        "decoder": {"name": "pohst", "radius": 1e-3},
    }))
    assert cli.main(["decode", str(path)]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert plain["restarts"] > 0
    assert cli.main(["decode", str(path), "--trace"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):]) == plain
    lines = out[:out.index("{")].splitlines()
    assert lines and all(len(line.split("\t")) == 5 for line in lines)


def test_cli_compare(tmp_path):
    a = _base_config(trials=30, snr_grid_db=[8.0])
    b = _base_config(trials=30, snr_grid_db=[8.0],
                     decoder={"name": "fano", "bias": 1.0, "step": 1.0})
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    out = tmp_path / "cmp.csv"
    rc = cli.main(["compare", str(pa), str(pb), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("decoder,snr_db,")
    assert len(lines) == 3


def test_cli_reduce(tmp_path, capsys):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"basis": [[1.0, 100.0], [0.0, 1.0]]}))
    rc = cli.main(["reduce", str(basis)])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    T = np.array(rec["T"])
    assert abs(round(np.linalg.det(T.astype(float)))) == 1
    reduced = np.array(rec["reduced"])
    assert (np.linalg.norm(reduced, axis=0) <= np.linalg.norm([[1, 100], [0, 1]], axis=0).max()).all()


def test_cli_simulate_isi_fano(tmp_path):
    cfg = {
        "channel": {"type": "isi", "taps": [0.848, -0.424, 0.2545, -0.1696, 0.0848],
                    "frame_len": 12, "gen_polys": [5, 7]},
        "preproc": {"left": "mmse", "right": "lll+permute", "boundary": "lattice"},
        "decoder": {"name": "fano", "bias": 1.0, "step": 1.0},
        "snr_grid_db": [7.0],
        "trials": 40,
        "target_frame_errors": None,
        "seed": 3,
    }
    p = tmp_path / "isi.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "isi.csv"
    assert cli.main(["simulate", str(p), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2
