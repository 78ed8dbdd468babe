import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from reference import run_frames_per_decode
from util import AlignmentError, gamma_ratio, sign_test_p

import latdec
from latdec import cli, sim
from latdec.errors import ConfigError, RankDeficient


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
    # the SNR of every point comes from snr_grid_db, so a channel rho did nothing
    with pytest.raises(ConfigError, match="'rho'"):
        sim.parse_config(_base_config(channel={"type": "vblast", "M": 2, "N": 2, "rho": 1e6}))


ISI_ML_CHANNEL = {"type": "isi", "taps": [0.848, -0.424, 0.2545, -0.1696, 0.0848],
                  "frame_len": 12, "gen_polys": [5, 7]}
BOX = {"left": "zf", "right": "none", "boundary": "constrained"}
LD_1X1 = {"type": "ld", "M": 1, "N": 1, "T": 1}
ZF_LATTICE = {"left": "zf", "right": "none", "boundary": "lattice"}
FANO = {"name": "fano", "bias": 1.0}
ISI_UNLISTED = {"type": "isi", "taps": [1.0, 0.5], "frame_len": 40, "gen_polys": [5, 7]}
VBLAST_11 = {"type": "vblast", "M": 11, "N": 11, "Q": 2}


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
    (lambda: _base_config(decoder={"name": "pohst", "radius": 0}), ConfigError, "'radius'"),
    (lambda: _base_config(decoder={"name": "vb", "radius": -2.0}), ConfigError, "'radius'"),
    (lambda: _base_config(decoder={"name": "pohst", "radius": float("nan")}), ConfigError,
     "'radius'"),
    (lambda: _base_config(decoder={"name": "ir", "bounds": [1, 2]}), ConfigError, "'bounds'"),
    (lambda: _base_config(decoder={"name": "ep", "weights": [1, 2, 3, 4, 5]}), ConfigError,
     "'weights'"),
    (lambda: _base_config(channel=dict(ISI_ML_CHANNEL, frame_len=25)), ConfigError,
     "'frame_len'"),
    (lambda: _base_config(channel=dict(ISI_ML_CHANNEL, frame_len=0)), ConfigError,
     "'frame_len'"),
    (lambda: _base_config(channel=dict(ISI_ML_CHANNEL, Q=1)), ConfigError, "'Q'"),
    (lambda: _base_config(channel={"type": "ld", "M": 2, "N": 2, "T": 0}), ConfigError, "'T'"),
    (lambda: _base_config(channel={"type": "vblast", "M": 2, "N": 2, "Q": 1}), ConfigError,
     "'Q'"),
    (lambda: _base_config(preproc={"right": "lll", "lll_delta": 2.0}), ConfigError,
     "'lll_delta'"),
    (lambda: _base_config(decoder={"name": "ir", "bounds": ["a", "b", "c", "d"]}),
     ConfigError, "'bounds'"),
    (lambda: _base_config(preproc=BOX, decoder={"name": "m-alg", "M": 0}), ConfigError, "'M'"),
    (lambda: _base_config(preproc=BOX, decoder={"name": "t-alg", "T": -1}), ConfigError,
     "'T'"),
    (lambda: _base_config(decoder={"name": "se", "budget": 0}), ConfigError, "'budget'"),
    (lambda: _base_config(trials=-3), ConfigError, "'trials'"),
    (lambda: _base_config(channel={"type": []}), ConfigError, "'type'"),
    (lambda: _base_config(decoder={"name": ["se"]}), ConfigError, "'name'"),
    (lambda: sim.parse_preproc([1]), ConfigError, "^preproc must be an object"),
    (lambda: _base_config(noiseless="no"), ConfigError, "'noiseless'"),
    (lambda: _base_config(fixed_channel="no"), ConfigError, "'fixed_channel'"),
    (lambda: _base_config(shadow_oracle="no"), ConfigError, "'shadow_oracle'"),
    (lambda: _base_config(seed=1.5), ConfigError, "'seed'"),
    (lambda: _base_config(seed="x"), ConfigError, "'seed'"),
    (lambda: _base_config(seed=-1), ConfigError, "'seed'"),
    (lambda: _base_config(snr_grid_db=[float("nan")]), ConfigError, "'snr_grid_db'"),
    (lambda: _base_config(snr_grid_db=10.0), ConfigError, "'snr_grid_db'"),
    (lambda: _base_config(target_frame_errors="x"), ConfigError, "'target_frame_errors'"),
    (lambda: _base_config(target_frame_errors=-1), ConfigError, "'target_frame_errors'"),
    (lambda: _base_config(channel=dict(ISI_ML_CHANNEL, taps=[1, float("inf")])), ConfigError,
     "'taps'"),
    (lambda: _base_config(channel=dict(ISI_ML_CHANNEL, taps=[0, 0])), ConfigError, "'taps'"),
    (lambda: _base_config(channel=dict(ISI_ML_CHANNEL, taps=[])), ConfigError, "'taps'"),
    (lambda: _base_config(channel=dict(ISI_ML_CHANNEL, gen_polys=[0])), ConfigError,
     "'gen_polys'"),
    (lambda: _base_config(channel=dict(ISI_ML_CHANNEL, gen_polys=[5, 8])), ConfigError,
     "'gen_polys'"),
    (lambda: _base_config(channel=dict(ISI_ML_CHANNEL, gen_polys=[-5])), ConfigError,
     r"^isi channel field 'gen_polys' must be a non-empty list of octal numbers or null, "
     r"got \[-5\]$"),
    (lambda: _base_config(channel=dict(LD_1X1, generator=5)), ConfigError, "'generator'"),
    (lambda: _base_config(channel=dict(LD_1X1, generator=[[1, 2]])), ConfigError,
     "'generator'"),
    (lambda: _base_config(channel=dict(LD_1X1, generator=[[[1, 0]], [1]])), ConfigError,
     "'generator'"),
    (lambda: _base_config(channel={"type": "vblast", "N": 2}), ConfigError,
     "^missing vblast channel field 'M'$"),
    (lambda: _base_config(channel=dict(LD_1X1, generator_seed=-1)), ConfigError,
     "'generator_seed'"),
    (lambda: _base_config(channel=dict(LD_1X1, generator_seed=1.5)), ConfigError,
     "'generator_seed'"),
    (lambda: _base_config(channel=dict(LD_1X1, generator=[[[1, 0]]], generator_seed=3)),
     ConfigError, "'generator_seed'"),
    # exhaustive ML cannot enumerate 2^18 codewords (past EXPLICIT_LABEL_LIMIT, so
    # unconstrained) nor the 4^11 labels of VBLAST 11x11 (past ENUM_GUARD)
    (lambda: _base_config(channel=ISI_UNLISTED, decoder={"name": "ml"}), ConfigError,
     "^decoder 'ml' .* an unconstrained information set$"),
    (lambda: _base_config(channel=VBLAST_11, decoder={"name": "ml"}), ConfigError,
     "^decoder 'ml' .* 4194304 labels$"),
    (lambda: _base_config(channel=ISI_UNLISTED, shadow_oracle=True), ConfigError,
     "^config field 'shadow_oracle' "),
    (lambda: _base_config(channel=VBLAST_11, shadow_oracle=True), ConfigError,
     "^config field 'shadow_oracle' "),
    (lambda: _base_config(channel=ISI_UNLISTED, decoder=FANO, shadow_oracle=True),
     ConfigError, "^config field 'shadow_oracle' "),
    (lambda: _base_config(channel=VBLAST_11, decoder=FANO, shadow_oracle=True), ConfigError,
     "^config field 'shadow_oracle' "),
    (lambda: _tiny_plan()[1].problem_for(_with_nan(_tiny_plan()[0].received)),
     ValueError, "^received"),
    (lambda: latdec.prepare_tree(_with_nan(_tiny_plan()[0].H), _tiny_plan()[0].code),
     ValueError, "^H:"),
    # configs that prepare_tree rejects on every frame fail when parsed
    (lambda: _base_config(preproc=dict(BOX, right="lll")), ConfigError,
     "^preproc field 'right' .* 'constrained'"),
    (lambda: _base_config(preproc=dict(BOX, right="lll+permute")), ConfigError,
     "^preproc field 'right' .* 'constrained'"),
    (lambda: _base_config(preproc=dict(BOX, right="lll"), decoder={"name": "m-alg", "M": 2}),
     ConfigError, "^preproc field 'right'"),
    (lambda: _base_config(preproc=dict(BOX, right="lll+permute"),
                          decoder={"name": "t-alg", "T": 2.0}), ConfigError,
     "^preproc field 'right'"),
    (lambda: _base_config(channel=ISI_ML_CHANNEL, preproc=dict(BOX, left="mmse")),
     ConfigError, "^preproc field 'boundary' .*'gen_polys'"),
    (lambda: _base_config(channel={"type": "vblast", "M": 3, "N": 2},
                          preproc=dict(BOX, boundary="lattice")), ConfigError, "^preproc field 'left' 'zf' .* got 4 for 6"),
    (lambda: _base_config(channel={"type": "ld", "M": 2, "N": 1, "T": 2}, preproc=BOX),
     ConfigError, "^preproc field 'left' 'zf' .* got 4 for 8"),
    # json.load reads Infinity; a search bound must be finite
    (lambda: _base_config(decoder=json.loads('{"name": "pohst", "radius": Infinity}')),
     ConfigError, "'radius'"),
    (lambda: _base_config(decoder={"name": "vb", "radius": float("inf")}), ConfigError,
     "'radius'"),
    (lambda: _base_config(decoder=json.loads('{"name": "ir", "bounds": [1, Infinity, 1, 1]}')),
     ConfigError, "'bounds'"),
    (lambda: _base_config(decoder={"name": "ep", "weights": [1, 1, 1, float("inf")]}),
     ConfigError, "'weights'"),
], ids=["pohst-radius", "vb-radius", "ir-bounds", "ep-weights", "m-alg-M", "t-alg-T",
        "m-alg-lattice", "t-alg-lattice", "fano-step-0", "fano-step-negative",
        "fano-step-inf", "fano-bias-nan", "stack-bias-inf", "pohst-radius-0",
        "vb-radius-negative", "pohst-radius-nan", "ir-bounds-length", "ep-weights-length",
        "isi-frame-len-code", "isi-frame-len-0", "isi-Q-1", "ld-T-0", "vblast-Q-1",
        "lll-delta-2", "ir-bounds-text", "m-alg-M-0", "t-alg-T-negative", "budget-0",
        "trials-negative", "channel-type-list", "decoder-name-list", "preproc-list",
        "noiseless-text", "fixed-channel-text", "shadow-oracle-text",
        "seed-fraction", "seed-text", "seed-negative", "snr-nan", "snr-scalar",
        "target-text", "target-negative", "isi-taps-inf", "isi-taps-zero", "isi-taps-empty",
        "isi-gen-polys-0", "isi-gen-polys-digit-8", "isi-gen-polys-negative",
        "ld-generator-scalar",
        "ld-generator-shape", "ld-generator-ragged", "vblast-M-missing",
        "ld-generator-seed-negative", "ld-generator-seed-fraction",
        "ld-generator-and-seed", "ml-isi-unlisted", "ml-vblast-11", "shadow-se-isi-unlisted",
        "shadow-se-vblast-11", "shadow-fano-isi-unlisted", "shadow-fano-vblast-11",
        "received-nan", "H-nan", "constrained-lll", "constrained-lll-permute",
        "m-alg-constrained-lll", "t-alg-constrained-lll-permute", "constrained-isi-coded",
        "zf-vblast-n-below-m", "zf-ld-n-below-m", "pohst-radius-inf", "vb-radius-inf",
        "ir-bounds-inf", "ep-weights-inf"])
def test_bad_input_fails_early_naming_the_field(build, error, match):
    with pytest.raises(error, match=match):
        built = build()
        if isinstance(built, dict):
            sim.parse_config(built)


LD_2X2_GENERATOR = {"type": "ld", "M": 1, "N": 1, "T": 2}
ZERO_GENERATOR = [[[0, 0]] * 2] * 2
RANK_ONE_GENERATOR = [[[1, 0], [2, 0]], [[2, 0], [4, 0]]]


@pytest.mark.parametrize("over, field", [
    # at -400 dB the back map lands past int64; the exact ints run through the tally
    *[(dict(preproc=ZF_LATTICE, snr_grid_db=[-400], decoder=d), None)
      for d in ({"name": "se"}, FANO, {"name": "babai"})],
    # 1e-200 squares to 0: the rank rule takes the exact power-of-two scale
    *[(dict(channel={"type": "isi", "taps": [1e-200], "frame_len": 4}, preproc=ZF_LATTICE,
            snr_grid_db=[-10.0], decoder=d), None) for d in ({"name": "se"}, FANO)],
    (dict(channel=dict(LD_2X2_GENERATOR, generator=ZERO_GENERATOR)), "generator"),
    (dict(channel=dict(LD_2X2_GENERATOR, generator=RANK_ONE_GENERATOR)), "generator"),
    (dict(snr_grid_db=[4000]), "snr_grid_db"),
    (dict(snr_grid_db=[-4000]), "snr_grid_db"),
    (dict(channel={"type": "isi", "taps": [1e308, 1.0], "frame_len": 4}, snr_grid_db=[10.0]),
     "taps"),
    # sqrt(rho) 1e-200 underflows to 0 at -3000 dB: the sampled channel is all zero
    (dict(channel={"type": "isi", "taps": [1e-200], "frame_len": 4}, preproc=ZF_LATTICE,
          snr_grid_db=[-3000.0]), "taps"),
], ids=["vblast-past-int64-se", "vblast-past-int64-fano", "vblast-past-int64-babai",
        "isi-tap-1e-200-se", "isi-tap-1e-200-fano", "ld-generator-zero",
        "ld-generator-rank-one", "snr-4000", "snr-minus-4000", "isi-taps-1e308",
        "isi-taps-1e-200-at-minus-3000"])
def test_numeric_edge_fails_at_parse_naming_its_field_or_runs(over, field):
    d = _base_config(**{"trials": 3, "seed": 1, **over})
    if field is not None:
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            sim.parse_config(d)
        return
    report = sim.run_sweep(sim.parse_config(d), collect_frames=True)
    assert report.points[0].trials == 3
    if d["snr_grid_db"] == [-400]:
        assert report.rows()[0]["fer"] == 1.0
        assert max(abs(v) for rec in report.frames for v in rec[-1]) >= 2**63


# one small channel or more of every type in sim.CHANNELS: N >= M and N < M,
# a hypercube and a coded information set
SMALL_CHANNELS = [
    {"type": "vblast", "M": 2, "N": 2, "Q": 2},
    {"type": "vblast", "M": 2, "N": 1, "Q": 4},
    {"type": "ld", "M": 1, "N": 2, "T": 2, "generator_seed": 3},
    {"type": "isi", "taps": [1.0, 0.5], "frame_len": 3},
    ISI_ML_CHANNEL,
]
# a sample value of every decoder parameter, given the lattice dimension
DECODER_SAMPLES = {"bias": lambda m: 0.5, "step": lambda m: 1.0, "radius": lambda m: 1.0,
                   "bounds": lambda m: [2.0] * m, "weights": lambda m: [1.0] * m,
                   "M": lambda m: 2, "T": lambda m: 1.0}
FIELD_NAMES = set(sim._CONFIG_FIELD_RULES) | set(sim._PREPROC_FIELD_RULES) | \
    set(sim._DECODER_FIELD_RULES) | {k for kind in sim.CHANNELS.values() for k in kind.rules}


def _generated_configs():
    """Every config of the product of the rule tables on the small channels:
    each decoder with its default and a tiny node budget, every preproc
    mode and flag, with and without the shadow oracle and a fixed channel."""
    assert {ch["type"] for ch in SMALL_CHANNELS} == set(sim.CHANNELS)
    for channel in SMALL_CHANNELS:
        kind = sim.CHANNELS[channel["type"]]
        m = kind.dim(sim.parse_channel(channel))
        for name, dec in sim.DECODERS.items():
            params = {k: DECODER_SAMPLES[k](m) for k in dec.fields}
            for budget in ({}, {"budget": 3}):
                for left, right, boundary, deep, shadow, fixed in itertools.product(
                        latdec.preprocess.LEFT_MODES, latdec.preprocess.RIGHT_MODES,
                        latdec.preprocess.BOUNDARIES, (False, True), (False, True),
                        (False, True)):
                    yield _base_config(
                        channel=channel, decoder={"name": name, **params, **budget},
                        preproc={"left": left, "right": right, "boundary": boundary,
                                 "lll_deep": deep},
                        snr_grid_db=[6.0], trials=1, shadow_oracle=shadow,
                        fixed_channel=fixed)


def test_every_generated_config_fails_naming_a_field_or_decodes():
    # a config either fails at parse time, naming the field, or runs; the
    # configs that parse run in one compare_decoders call per channel and
    # fixed_channel setting, and on a failure one by one, to name the config
    parsed, rejected = {}, 0
    for d in _generated_configs():
        try:
            cfg = sim.parse_config(d)
        except ConfigError as err:
            named = re.search(r"field '(\w+)'", str(err))
            assert named and named.group(1) in FIELD_NAMES, (d, err)
            rejected += 1
            continue
        parsed.setdefault((json.dumps(d["channel"]), d["fixed_channel"]), []).append(cfg)
    assert len(parsed) == 2 * len(SMALL_CHANNELS) and 0 < rejected
    for cfgs in parsed.values():
        try:
            reports = sim.compare_decoders(cfgs)
        except Exception:
            for cfg in cfgs:
                try:
                    sim.run_sweep(cfg)
                except Exception as err:
                    raise AssertionError(f"{cfg} raised {err!r}") from err
            raise
        assert all(rep.points[0].trials == 1 for rep in reports)


def _flag_product_sample():
    """A fixed sample of the generated configs that parse, one per decoder:
    the i-th decoder of sim.DECODERS runs on the i-th small channel (the
    next one where none of its configs parses), as its config number
    37 * i + 11 there (modulo their count), at 0 dB over 16 frames, so
    that frames fail."""
    groups = {}
    for d in _generated_configs():
        try:
            sim.parse_config(d)
        except ConfigError:
            continue
        groups.setdefault((d["decoder"]["name"], json.dumps(d["channel"])), []).append(d)
    sample = []
    for i, name in enumerate(sim.DECODERS):
        group = next(groups[key] for j in range(len(SMALL_CHANNELS))
                     if (key := (name, json.dumps(SMALL_CHANNELS[(i + j) % len(SMALL_CHANNELS)])))
                     in groups)
        sample.append(dict(group[(37 * i + 11) % len(group)], snr_grid_db=[0.0], trials=16))
    return sample


def test_sampled_configs_run_under_every_flag(tmp_path, capsys):
    # the north star's flag product on a sample: two workers write the one
    # worker's CSV and dump, and `latdec decode --trace` replays each dumped
    # decode to the sweep's label and n_c, with one trace line per node the
    # decode counted (a tree search: n_c less one untraced root per attempt;
    # Fano: each distinct node entered, the root aside; ml traces nothing)
    sample = _flag_product_sample()
    static = {(d["channel"]["type"], d["fixed_channel"]) for d in sample}
    assert len(sample) == len(sim.DECODERS) and {("isi", False), ("vblast", False)} <= static
    budget_hits = replays = 0
    for n, d in enumerate(sample):
        cfg = sim.parse_config(d)
        dumps, csv = [], []
        for workers in (1, 2):
            out = tmp_path / f"c{n}w{workers}"
            rep = sim.run_sweep(cfg, workers=workers, collect_frames=True,
                                dump_failures=str(out))
            csv.append(rep.to_csv())
            dumps.append({p.name: p.read_text() for p in out.glob("*.json")})
        assert csv[0] == csv[1] and dumps[0] == dumps[1] and dumps[0], d
        budget_hits += rep.points[0].budget_hits
        frames = {(point, frame): (nc, uniq, list(info))
                  for point, frame, _err, nc, uniq, _dist, info in rep.frames}
        for name in sorted(dumps[0]):
            point, frame = map(int, re.match(r"fail_p(\d+)_f(\d+)_d0", name).groups())
            nc, uniq, info = frames[point, frame]
            assert cli.main(["decode", str(tmp_path / f"c{n}w1" / name), "--trace"]) == 0
            out = capsys.readouterr().out
            res = json.loads(out[out.index("{"):])
            lines = [line.split("\t") for line in out[:out.index("{")].splitlines()]
            assert (res["decoded_info"], res["node_generations"]) == (info, nc), (d, name)
            if cfg.decoder.name == "ml":
                assert lines == []
            elif cfg.decoder.name == "fano":
                assert len({label for _, label, *_ in lines}) == uniq - 1
            else:
                assert len(lines) == nc - res["restarts"] - 1
            replays += 1
    assert budget_hits > 0 and replays >= len(sample)


def test_ml_parses_up_to_the_enumeration_guard():
    # 4^10 = ENUM_GUARD labels, and the 2^16 codewords an ISI code still lists
    for channel in ({"type": "vblast", "M": 10, "N": 10, "Q": 2},
                    dict(ISI_UNLISTED, frame_len=36)):
        sim.parse_config(_base_config(channel=channel, decoder={"name": "ml"},
                                      shadow_oracle=True))


def test_cli_shadow_oracle_flag_is_checked_at_parse_time(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_base_config(channel=VBLAST_11, trials=1)))
    with pytest.raises(ConfigError, match="^config field 'shadow_oracle' "):
        cli.main(["simulate", str(p), "--shadow-oracle", "--out", str(tmp_path / "o.csv")])
    assert not (tmp_path / "o.csv").exists()


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


def test_ld_explicit_generator_matches_its_seed():
    # the [re, im] pairs of the generator that generator_seed 3 draws give
    # the same sweep, byte for byte
    M, T = 1, 2
    gen = latdec.channels.random_unitary(M * T, 3)
    pairs = np.stack([gen.real, gen.imag], axis=-1).tolist()
    a, b = (sim.run_sweep(sim.parse_config(_base_config(
        channel=dict(type="ld", M=M, N=1, T=T, **extra)))).to_csv()
        for extra in ({"generator": pairs}, {"generator_seed": 3}))
    assert a == b


def test_tiny_radius_sweep_restarts_until_a_leaf():
    # restarts have no cap: from a radius of 1e-300 every frame doubles it
    # about a thousand times before a leaf, and the sweep decodes them all
    cfg = sim.parse_config(_base_config(decoder={"name": "pohst", "radius": 1e-300},
                                        trials=5, snr_grid_db=[10.0]))
    assert sim.run_sweep(cfg).points[0].trials == 5
    ch = replace(cfg.channel, rho=10.0)
    for frame in range(5):
        inst = latdec.sample_vblast(ch, latdec.frame_rng(cfg.seed, 0, frame))
        problem = cfg.preproc.plan(inst.H, inst.code).problem_for(inst.received)
        assert sim.decode_frame(inst, problem, cfg.decoder).restarts > 64


def test_node_budget_caps_the_whole_restart_schedule():
    # without a budget these frames take about a thousand attempts and
    # 1,006-1,021 nodes; a budget of 50 covers every attempt, so each ends
    # after 50 nodes on the Babai fallback
    dec = {"name": "pohst", "radius": 1e-300, "budget": 50}
    cfg = sim.parse_config(_base_config(decoder=dec, trials=5, snr_grid_db=[10.0]))
    ch = replace(cfg.channel, rho=10.0)
    for frame in range(3):
        inst = latdec.sample_vblast(ch, latdec.frame_rng(cfg.seed, 0, frame))
        problem = cfg.preproc.plan(inst.H, inst.code).problem_for(inst.received)
        res = sim.decode_frame(inst, problem, cfg.decoder)
        assert (res.nc, res.restarts, res.budget_hit) == (50, 49, True)
        babai = latdec.gbb_run(problem, latdec.policy_babai()).decoded_label
        assert np.array_equal(res.info, latdec.apply_back_map(babai, problem.back_map))
        free = sim.decode_frame(inst, problem, replace(cfg.decoder, budget=None))
        assert free.nc > 1000 and not free.budget_hit


@pytest.mark.parametrize("name", ["pohst", "vb"])
def test_huge_radius_sweep_ends_on_the_node_budget(name):
    # the interval of a radius of 1e308 on a lattice boundary spans about
    # 1e154 coordinates: the search runs into its node budget and the Babai
    # fallback decides every frame
    dec = {"name": name, "radius": 1e308, "budget": 300}
    report = sim.run_sweep(sim.parse_config(_base_config(decoder=dec, trials=5,
                                                         snr_grid_db=[10.0])))
    point = report.points[0]
    assert point.trials == point.budget_hits == 5 and point.nc_values == [300] * 5


def test_one_process_pool_per_sweep(monkeypatch):
    pools = []

    class CountingPool(sim.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", CountingPool)
    cfg = sim.parse_config(_base_config(trials=60, snr_grid_db=[6.0, 9.0, 12.0]))
    assert sim.run_sweep(cfg, workers=2).to_csv() == sim.run_sweep(cfg).to_csv()
    assert len(pools) == 1


@pytest.mark.parametrize("channel, per_point", [
    (ISI_ML_CHANNEL, 1),  # static: one plan per chunk of frames
    ({"type": "vblast", "M": 2, "N": 2, "Q": 2}, 30),  # fading: one per frame
])
def test_ml_plan_kept_while_the_channel_is_static(monkeypatch, channel, per_point):
    built = []
    plan_class = latdec.oracle.MlPlan

    def counting_plan(H, code):
        built.append(H)
        return plan_class(H, code)

    monkeypatch.setattr(latdec.oracle, "MlPlan", counting_plan)
    cfgs = [sim.parse_config(_base_config(channel=channel, decoder=decoder, trials=30,
                                          snr_grid_db=[4.0, 8.0], shadow_oracle=True))
            for decoder in ({"name": "ml"}, {"name": "fano", "bias": 1.0})]
    reports = sim.compare_decoders(cfgs, collect_frames=True)
    assert len(built) == 2 * per_point  # the shadow oracle reuses the decoder's plan
    assert sum(p.shadow_disagreements for p in reports[0].points) == 0
    monkeypatch.setattr(latdec.oracle, "MlPlan", plan_class)
    ch = sim.parse_channel(channel)
    sample = getattr(latdec.channels, sim.CHANNELS[channel["type"]].sampler)
    for point, frame, _err, _nc, _uniq, dist, info in reports[0].frames:
        rho = 10.0 ** (cfgs[0].snr_grid_db[point] / 10.0)
        inst = sample(replace(ch, rho=rho), latdec.frame_rng(5, point, frame))
        res = latdec.exhaustive_ml(inst)  # the library path: a plan per call
        assert tuple(int(v) for v in res.label) == info and res.distance == dist


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


def test_dump_failures_of_two_configs_in_frame_then_config_order(tmp_path):
    # both configs fail on shared frames, in both chunks of point 0; the dump
    # limit falls between the two configs of one frame of point 1
    cfgs = [sim.parse_config(_base_config(trials=600, snr_grid_db=[16.0, 16.0], **over))
            for over in ({}, {"preproc": BOX, "decoder": {"name": "fano", "bias": 1.0}})]
    reports = sim.compare_decoders(cfgs, collect_frames=True)
    failed = sorted((point, frame, ci) for ci, rep in enumerate(reports)
                    for point, frame, err, *_ in rep.frames if err)
    kept = failed[:sim.DUMP_LIMIT]
    assert any(frame >= sim.CHUNK for _, frame, _ in kept)
    assert any((p, f, 0) in kept and (p, f, 1) in kept for p, f, _ in kept)
    assert kept[-1][2] == 0 and failed[sim.DUMP_LIMIT] == (*kept[-1][:2], 1)
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        sim.compare_decoders(cfgs, workers=workers, dump_failures=str(out))
        assert sorted(p.name for p in out.glob("*.json")) == sorted(
            f"fail_p{p}_f{f}_d{ci}.json" for p, f, ci in kept)


def test_dump_failures_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # decoder parameters are written in the decoder table's order, so a Fano
    # record reads the same under any PYTHONHASHSEED
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_base_config(
        trials=60, snr_grid_db=[4.0], decoder={"name": "fano", "bias": 1.0, "step": 0.5})))
    src = os.path.dirname(os.path.dirname(os.path.abspath(latdec.__file__)))
    dumped = []
    for seed in ("1", "2"):
        out = tmp_path / f"hashseed{seed}"
        subprocess.run([sys.executable, "-m", "latdec.cli", "simulate", str(cfg),
                        "--out", str(tmp_path / "sweep.csv"), "--dump-failures", str(out)],
                       env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src), check=True)
        dumped.append({p.name: p.read_bytes() for p in out.glob("*.json")})
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


VBLAST_4X4_Q4 = {"type": "vblast", "M": 4, "N": 4, "Q": 4}


def _labels_outside_alphabet(stats, frames):
    return any(v < 0 or v >= 4 for recs in frames for rec in recs for v in rec[6])


@pytest.mark.parametrize("snr_db, configs, check", [
    # lattice decoding at 0 dB: decoded labels outside {0..Q-1}, which the
    # bit count clips
    (0.0, [dict(channel=VBLAST_4X4_Q4, preproc=ZF_LATTICE, decoder={"name": "se"}),
           dict(channel=VBLAST_4X4_Q4, preproc=ZF_LATTICE, decoder=FANO)],
     _labels_outside_alphabet),
    # coded ISI: bits of 4 information symbols of 12
    (4.0, [dict(channel=ISI_ML_CHANNEL, decoder=FANO),
           dict(channel=ISI_ML_CHANNEL, decoder={"name": "ml"})],
     lambda stats, frames: stats[0].info_bits == 60 * 4 and len(frames[0][0][6]) == 12),
    (6.0, [dict(decoder=FANO, shadow_oracle=True),
           dict(preproc=BOX, decoder={"name": "se"}, shadow_oracle=True)],
     lambda stats, frames: any(st.shadow_disagreements for st in stats)),
], ids=["clipped", "coded", "shadow"])
def test_chunk_tally_matches_the_per_decode_tally(snr_db, configs, check):
    cfgs = [sim.parse_config(_base_config(snr_grid_db=[snr_db], **c)) for c in configs]
    for collect_frames, dump_limit in ((True, 1000), (False, 3), (True, 0)):
        args = (cfgs, snr_db, 1, 7, 60, collect_frames, dump_limit)
        got, want = sim._run_frames(*args), run_frames_per_decode(*args)
        for a, b in zip(got[0], want[0]):  # repr: every field, with its type
            assert repr(a) == repr(b)
        assert repr(got[1:]) == repr(want[1:])
    stats, frames, _ = got
    assert any(st.frame_errors for st in stats) and check(stats, frames)


def test_shadow_oracle_agrees_with_ml_path():
    cfg = sim.parse_config(_base_config(
        trials=200, snr_grid_db=[10.0],
        preproc={"left": "zf", "right": "none", "boundary": "constrained"},
        shadow_oracle=True))
    report = sim.run_sweep(cfg)
    assert sum(p.shadow_disagreements for p in report.points) == 0


def test_ml_decode_is_its_frames_shadow_oracle(monkeypatch):
    from latdec import oracle
    calls = []
    exhaustive_ml = oracle.exhaustive_ml
    monkeypatch.setattr(oracle, "exhaustive_ml",
                        lambda *args: calls.append(args) or exhaustive_ml(*args))
    ml = {"name": "ml"}

    def sweep(shadow):
        calls.clear()
        cfg = sim.parse_config(_base_config(decoder=ml, trials=10, snr_grid_db=[6.0],
                                            shadow_oracle=shadow))
        return sim.run_sweep(cfg), len(calls)

    (plain, plain_calls), (shadowed, shadowed_calls) = sweep(False), sweep(True)
    assert plain_calls == shadowed_calls == 10
    assert shadowed.to_csv() == plain.to_csv()
    assert [p.shadow_disagreements for p in shadowed.points] == [0]
    # the per-decode form calls the oracle again for each shadow check; the
    # counts agree, with a tree decoder's shadow check on the same frames too
    cfgs = [sim.parse_config(_base_config(decoder=d, snr_grid_db=[6.0], shadow_oracle=True))
            for d in (ml, FANO)]
    calls.clear()
    got = sim._run_frames(cfgs, 6.0, 0, 0, 10, True, 10)
    assert len(calls) == 10
    want = run_frames_per_decode(cfgs, 6.0, 0, 0, 10, True, 10)
    assert len(calls) == 30
    for a, b in zip(got[0], want[0]):
        assert repr(a) == repr(b)
    assert repr(got[1:]) == repr(want[1:])


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


def test_compare_requires_a_shared_stopping_rule():
    # the first config's target used to stop every config's points
    cfg_a = sim.parse_config(_base_config(target_frame_errors=1))
    cfg_b = sim.parse_config(_base_config(target_frame_errors=None))
    shared = ("channel, seed, snr_grid_db, trials, target_frame_errors, noiseless, "
              "fixed_channel")
    with pytest.raises(ConfigError, match=shared):
        sim.compare_decoders([cfg_a, cfg_b])


def test_gamma_ratio():
    cfg = sim.parse_config(_base_config(trials=50, snr_grid_db=[9.0]))
    rep = sim.run_sweep(cfg)
    ratios = gamma_ratio(rep, rep)
    assert ratios[9.0] == pytest.approx(1.0)
    cfg2 = sim.parse_config(_base_config(trials=50, snr_grid_db=[10.0]))
    rep2 = sim.run_sweep(cfg2)
    with pytest.raises(AlignmentError):
        gamma_ratio(rep, rep2)


def test_wilson_interval_brackets_fer():
    lo, hi = sim.wilson_ci(10, 100)
    assert lo < 0.1 < hi
    assert sim.wilson_ci(0, 0) == (0.0, 1.0)


def test_sign_test_values():
    assert sign_test_p(0, 0) == 1.0
    assert sign_test_p(10, 10) == pytest.approx(2.0 ** -10)
    assert sign_test_p(5, 10) > 0.5


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


def test_cli_decode_trace_explains_every_restart(tmp_path, capsys):
    # pohst with a tiny radius on a 2x2 frame: ten empty attempts, then a
    # leaf.  n_c counts the nodes of all eleven attempts; the unique count
    # and the trace must too (the trace has every child, and each attempt
    # has one untraced root)
    inst = latdec.sample_vblast(latdec.VblastConfig(M=2, N=2, Q=2, rho=10.0 ** 0.5),
                                latdec.frame_rng(8, 0, 0))
    preproc = {"left": "zf", "right": "permute", "boundary": "lattice"}
    decoder = {"name": "pohst", "radius": 1e-3}
    path = tmp_path / "frame.json"
    path.write_text(json.dumps({"instance": json.loads(inst.to_json()),
                                "preproc": preproc, "decoder": decoder}))
    assert cli.main(["decode", str(path), "--trace"]) == 0
    out = capsys.readouterr().out
    rec = json.loads(out[out.index("{"):])
    assert (rec["node_generations"], rec["restarts"]) == (20, 10)
    assert len(out[:out.index("{")].splitlines()) == 20 - 11
    problem = latdec.form_tree(inst.received, inst.H, inst.code, "zf", "permute", "lattice")
    trace = []
    res = sim.decode_frame(inst, problem, sim.parse_decoder(decoder), on_node=trace.append)
    assert res.unique == res.nc == 20 and len(trace) == 9


def test_cli_decode_rejects_what_parse_config_rejects(tmp_path):
    # a dumped frame edited by hand must meet the same decoder checks, and a
    # record or an instance without one of its keys, or with a malformed
    # value, fails naming that key
    inst = json.loads(latdec.sample_vblast(latdec.VblastConfig(M=2, N=2, Q=2, rho=10.0),
                                           latdec.frame_rng(4, 0)).to_json())
    full = {"instance": inst,
            "preproc": {"left": "mmse", "right": "lll+permute", "boundary": "lattice"},
            "decoder": {"name": "se"}}
    cases = [
        (dict(full, decoder={"name": "m-alg", "M": 4}), "'boundary'"),
        ({"preproc": None}, "^missing decode record field 'instance'$"),
        ({"instance": inst, "preproc": None}, "^missing decode record field 'decoder'$"),
        ({"instance": {}, "decoder": {"name": "se"}}, "^missing instance field 'H'$"),
        ([full], "^decode record must be an object"),
        (dict(full, instance=[inst]), "^instance must be an object"),
        (dict(full, instance=dict(inst, info_set={"q": 2})),
         "^instance field 'info_set' must be an object with a 'kind'$"),
        (dict(full, instance=dict(inst, info_set={"kind": "box"})),
         "^instance field 'info_set': unknown info set kind 'box'$"),
        (dict(full, instance=dict(inst, H="x")),
         "^instance field 'H' must be a 2-dimensional numeric array$"),
        (dict(full, instance=dict(inst, x_true=[0, 1])),
         "^instance field 'x_true' has 2 entries, not the code dimension 4$"),
        (dict(full, instance=dict(inst, x_true=[0.5, 1, 1, 0])),
         "^instance field 'x_true' must hold integers$"),
        (dict(full, instance=dict(inst, received=inst["received"][:2])),
         "^instance field 'received' has 2 entries, not the 4 rows of H$"),
        (dict(full, decoder={"name": "ml"},
              instance=dict(inst, H=[[1, 0, 0], [0, 1, 0]], generator=[[1, 0], [0, 1]],
                            translate=[0, 0], x_true=[0, 1], received=[0, 1])),
         "^instance field 'H' has 3 columns, not the code dimension 2$"),
        (dict(full, decoder={"name": "ml"}, instance=dict(
            inst, info_set={"kind": "explicit", "labels": [[0, 1, 0], [1, 1, 0]]})),
         "^instance field 'info_set' has labels 3 wide, not the code dimension 4$"),
        (dict(full, decoder={"name": "ml"},
              instance=dict(inst, info_set={"kind": "unconstrained"})),
         "^decoder 'ml' .* an unconstrained information set$"),
    ]
    nan_h = [row[:] for row in inst["H"]]
    nan_h[0][0] = math.nan
    inf_g = [row[:] for row in inst["generator"]]
    inf_g[1][1] = math.inf
    for name, key, value in (("ml", "H", nan_h), ("ml", "received", [math.nan] * 4),
                             ("ml", "translate", [0.0, math.nan, 0.0, 0.0]),
                             ("se", "generator", inf_g), ("se", "H", nan_h)):
        cases.append((dict(full, decoder={"name": name}, instance=dict(inst, **{key: value})),
                      f"^instance field {key!r} must hold finite numbers$"))
    for key in ("H", "generator", "translate", "info_set", "x_true", "received"):
        cases.append((dict(full, instance={k: v for k, v in inst.items() if k != key}),
                      f"^missing instance field {key!r}$"))
    path = tmp_path / "frame.json"
    for rec, match in cases:
        path.write_text(json.dumps(rec))
        with pytest.raises(ConfigError, match=match):
            cli.main(["decode", str(path)])


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


def test_cli_simulate_json_carries_every_count(tmp_path, capsys):
    # restarts (a radius too small), budget hits and shadow-oracle
    # disagreements (the Babai point a budget hit ends on) per point, in the
    # JSON report as well as on stderr
    cfg = _base_config(trials=60, snr_grid_db=[4.0, 8.0],
                       decoder={"name": "pohst", "radius": 0.05, "budget": 8})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    js = tmp_path / "report.json"
    assert cli.main(["simulate", str(path), "--shadow-oracle", "--out",
                     str(tmp_path / "o.csv"), "--json", str(js)]) == 0
    rows = json.loads(js.read_text())["rows"]
    points = sim.run_sweep(sim.parse_config(dict(cfg, shadow_oracle=True))).points
    counts = ("restarts", "budget_hits", "shadow_disagreements")
    assert [[row[k] for k in counts] for row in rows] == \
        [[getattr(p, k) for k in counts] for p in points]
    assert all(sum(row[k] for row in rows) > 0 for k in counts)
    shadows = sum(row["shadow_disagreements"] for row in rows)
    assert f"shadow oracle disagreements: {shadows}" in capsys.readouterr().err


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


def test_cli_reduce_rejects_malformed_records(tmp_path):
    # each malformed record fails naming the basis; a well-formed basis of
    # lower rank still raises RankDeficient
    path = tmp_path / "basis.json"
    for text in ('{}', '[]', '{"basis": [1, 2]}', '{"basis": [[1, 2], [3]]}',
                 '{"basis": [[1, "x"], [0, 1]]}', '{"basis": [[1, NaN], [0, 1]]}'):
        path.write_text(text)
        with pytest.raises(ConfigError, match="basis"):
            cli.main(["reduce", str(path)])
    path.write_text('{"basis": [[1, 2], [2, 4]]}')
    with pytest.raises(RankDeficient):
        cli.main(["reduce", str(path)])


def test_cli_flags_are_checked_at_parse_time(tmp_path, capsys):
    # each bad value exits with a usage error naming its flag, before any
    # file is read or any worker is started
    path = str(tmp_path / "missing.json")
    for argv, flag in ((["reduce", path, "--delta", "2"], "--delta"),
                       (["reduce", path, "--delta", "0.1"], "--delta"),
                       (["reduce", path, "--delta", "nan"], "--delta"),
                       (["simulate", path, "--workers", "0"], "--workers"),
                       (["simulate", path, "--workers", "-2"], "--workers"),
                       (["compare", path, "--workers", "0"], "--workers")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err


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
