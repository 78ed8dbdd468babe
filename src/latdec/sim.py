"""Monte Carlo experiment runner: SNR sweeps, decoder comparisons, reports.

A sweep draws one channel instance per frame (quasi-static fading),
preprocesses it, decodes, and compares the decoded information symbols to
the transmitted ones.  Every frame gets its own RNG substream keyed by
(seed, point index, frame index), so results are reproducible bit-for-bit
regardless of the worker count; the stopping rule is evaluated at fixed
chunk boundaries for the same reason.

Frame errors count any difference in the information symbols; bit errors
use the natural binary map of each symbol value (decoded symbols outside
{0..Q-1} are clamped first).  Confidence intervals on the frame error rate
are Wilson 95% intervals.
"""

import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import channels, oracle, search
from .errors import AlignmentError, ConfigError, DimensionMismatch
from .preprocess import apply_back_map, prepare_tree

CHUNK = 512  # stopping-rule granularity (fixed: determinism across workers)
DUMP_LIMIT = 10  # failing decodes written per sweep by dump_failures


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class PreprocSpec:
    """Receiver preprocessing; hashable, so the spec itself keys plan caches."""

    left: str = "mmse"
    right: str = "none"
    boundary: str = "lattice"
    lll_delta: float = 0.99
    lll_deep: bool = False

    def plan(self, H, code):
        """The TreePlan of (H, code) under this preprocessing."""
        return prepare_tree(H, code, left_mode=self.left, right_mode=self.right,
                            boundary=self.boundary, lll_delta=self.lll_delta,
                            lll_deep=self.lll_deep)


@dataclass
class DecoderSpec:
    name: str
    bias: float = 0.0
    step: float = 1.0
    radius: float | None = None
    bounds: tuple | None = None
    weights: tuple | None = None
    M: int | None = None
    T: float | None = None
    budget: int | None = search.DEFAULT_NODE_BUDGET

    def label(self):
        shown = {"bias": "b", "step": "step"}  # the parameters a report label names
        return " ".join([self.name] + [f"{shown[k]}={getattr(self, k):g}"
                                       for k in DECODERS[self.name][1] if k in shown])


# name -> (tree-search policy factory, or None for the decoders with their own
# call, and the decoder's parameter fields in order).  The factory takes the
# fields as positional arguments; a field whose DecoderSpec default is None
# is required.
DECODERS = {
    "se": (search.policy_se, ()),
    "babai": (search.policy_babai, ()),
    "stack": (search.policy_stack, ("bias",)),
    "fano": (None, ("bias", "step")),
    "pohst": (search.policy_pohst, ("radius",)),
    "vb": (search.policy_vb, ("radius",)),
    "ir": (search.policy_ir, ("bounds",)),
    "ep": (search.policy_ep, ("weights",)),
    "m-alg": (search.policy_m_algorithm, ("M",)),
    "t-alg": (search.policy_t_algorithm, ("T",)),
    "ml": (None, ()),
}


@dataclass
class ExperimentConfig:
    channel: object
    preproc: PreprocSpec
    decoder: DecoderSpec
    snr_grid_db: tuple
    trials: int
    target_frame_errors: int | None = 100
    seed: int = 0
    noiseless: bool = False
    fixed_channel: bool = False
    shadow_oracle: bool = False


_CHANNEL_KEYS = {
    "vblast": {"type", "M", "N", "Q", "rho"},
    "ld": {"type", "M", "N", "T", "Q", "rho", "generator", "generator_seed"},
    "isi": {"type", "taps", "frame_len", "Q", "rho", "gen_polys"},
}
_CHANNEL_MINIMA = {"M": 1, "N": 1, "T": 1, "frame_len": 1, "Q": 2}  # integer fields
_PREPROC_KEYS = {"left", "right", "boundary", "lll_delta", "lll_deep"}
_TOP_KEYS = {"channel", "preproc", "decoder", "snr_grid_db", "trials",
             "target_frame_errors", "seed", "noiseless", "fixed_channel",
             "shadow_oracle"}


def _check_keys(d, allowed, where):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def random_unitary(s, seed):
    """Deterministic complex unitary via QR of a seeded Gaussian matrix."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))[np.newaxis, :]


def parse_channel(d):
    if not isinstance(d, dict) or "type" not in d:
        raise ConfigError("channel config must be an object with a 'type'")
    typ = d["type"]
    if typ not in _CHANNEL_KEYS:
        raise ConfigError(f"unknown channel type {typ!r}")
    _check_keys(d, _CHANNEL_KEYS[typ], f"{typ} channel config")
    for key, least in _CHANNEL_MINIMA.items():
        if key in d and not (_is_int(d[key]) and d[key] >= least):
            raise ConfigError(f"channel field {key!r} must be an integer >= {least}, "
                              f"got {d[key]!r}")
    try:
        if typ == "vblast":
            return channels.VblastConfig(M=d["M"], N=d["N"], Q=d.get("Q", 2),
                                         rho=d.get("rho", 10.0))
        if typ == "ld":
            s = d["M"] * d["T"]
            if "generator" in d:
                gen = np.asarray(d["generator"], dtype=float)
                gen_c = gen[..., 0] + 1j * gen[..., 1]
            else:
                gen_c = random_unitary(s, d.get("generator_seed", 0))
            return channels.LdCodeConfig(generator_c=gen_c, M=d["M"], N=d["N"],
                                         T=d["T"], Q=d.get("Q", 2), rho=d.get("rho", 10.0))
        ch = channels.IsiConfig(taps=tuple(d["taps"]), frame_len=d["frame_len"],
                                Q=d.get("Q", 2), rho=d.get("rho", 10.0),
                                gen_polys=tuple(d["gen_polys"]) if d.get("gen_polys") else None)
    except KeyError as err:
        raise ConfigError(f"missing channel field {err.args[0]!r}") from None
    if ch.gen_polys is not None:
        try:
            channels.conv_info_len(ch.gen_polys, ch.frame_len)
        except DimensionMismatch as err:
            raise ConfigError(f"channel field 'frame_len': {err}") from None
    return ch


def parse_preproc(d):
    d = d or {}
    _check_keys(d, _PREPROC_KEYS, "preproc config")
    spec = PreprocSpec(**d)
    if spec.left not in ("zf", "mmse"):
        raise ConfigError(f"unknown left mode {spec.left!r}")
    if spec.right not in ("none", "lll", "permute", "lll+permute"):
        raise ConfigError(f"unknown right mode {spec.right!r}")
    if spec.boundary not in ("lattice", "constrained"):
        raise ConfigError(f"unknown boundary {spec.boundary!r}")
    if not (_is_number(spec.lll_delta) and 0.25 < spec.lll_delta <= 1):
        raise ConfigError(f"preproc field 'lll_delta' must lie in (0.25, 1], "
                          f"got {spec.lll_delta!r}")
    if not isinstance(spec.lll_deep, bool):
        raise ConfigError(f"preproc field 'lll_deep' must be true or false, "
                          f"got {spec.lll_deep!r}")
    return spec


def parse_decoder(d):
    if not isinstance(d, dict) or "name" not in d:
        raise ConfigError("decoder config must be an object with a 'name'")
    name = d["name"]
    if name not in DECODERS:
        raise ConfigError(f"unknown decoder {name!r}")
    params = DECODERS[name][1]
    _check_keys(d, {"name", "budget", *params}, f"decoder {name!r} config")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in d.items() if k != "name"}
    spec = DecoderSpec(name=name, **kwargs)
    for key in params:
        if getattr(spec, key) is None:
            raise ConfigError(f"decoder {name!r} needs the field {key!r}")
    for key, (what, ok) in _DECODER_FIELD_RULES.items():
        value = getattr(spec, key)
        if value is not None and not ok(value):
            raise ConfigError(f"decoder field {key!r} must be {what}, got {value!r}")
    return spec


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _positive(value):
    return _is_number(value) and value > 0  # False for NaN


def _positive_list(value):
    return isinstance(value, tuple) and all(map(_positive, value))


# what a decoder field must be when it is set: (description, test)
_DECODER_FIELD_RULES = {
    "bias": ("a finite number", lambda v: _is_number(v) and math.isfinite(v)),
    "step": ("a positive finite number", lambda v: _positive(v) and math.isfinite(v)),
    "radius": ("a positive number", _positive),
    "bounds": ("a list of positive numbers", _positive_list),
    "weights": ("a list of positive numbers", _positive_list),
    "M": ("a positive integer", lambda v: _is_int(v) and v >= 1),
    "T": ("a non-negative number", lambda v: _is_number(v) and v >= 0),
    "budget": ("a positive integer or null", lambda v: _is_int(v) and v >= 1),
}


def check_decoder(decoder, preproc, dim):
    """Check a parsed decoder against its preprocessing and the channel's
    lattice dimension dim; raises ConfigError naming the field.

    parse_config runs this, and so does the replay of a dumped frame.
    """
    if decoder.name in ("m-alg", "t-alg") and preproc.boundary != "constrained":
        raise ConfigError(f"decoder {decoder.name!r} needs the preproc field 'boundary' "
                          f"to be 'constrained'")
    for key in ("bounds", "weights"):
        value = getattr(decoder, key)
        if value is not None and len(value) != dim:
            raise ConfigError(f"decoder field {key!r} needs one entry per lattice dimension "
                              f"({dim}), got {len(value)}")


def parse_config(d):
    """Validate and build an ExperimentConfig from a JSON-style dict."""
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(d, _TOP_KEYS, "config")
    for req in ("channel", "decoder", "snr_grid_db", "trials"):
        if req not in d:
            raise ConfigError(f"missing config field {req!r}")
    channel = parse_channel(d["channel"])
    preproc = parse_preproc(d.get("preproc"))
    decoder = parse_decoder(d["decoder"])
    check_decoder(decoder, preproc, _problem_dim(channel))
    if not (_is_int(d["trials"]) and d["trials"] >= 0):
        raise ConfigError(f"config field 'trials' must be a non-negative integer, "
                          f"got {d['trials']!r}")
    return ExperimentConfig(
        channel=channel,
        preproc=preproc,
        decoder=decoder,
        snr_grid_db=tuple(float(s) for s in d["snr_grid_db"]),
        trials=d["trials"],
        target_frame_errors=d.get("target_frame_errors", 100),
        seed=int(d.get("seed", 0)),
        noiseless=bool(d.get("noiseless", False)),
        fixed_channel=bool(d.get("fixed_channel", False)),
        shadow_oracle=bool(d.get("shadow_oracle", False)),
    )


# ---------------------------------------------------------------------------
# statistics helpers


def wilson_ci(k, n, z=1.959963984540054):
    """Wilson 95% interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def sign_test_p(wins, total):
    """One-sided exact sign test: P[Binomial(total, 1/2) >= wins]."""
    if total == 0:
        return 1.0
    acc = 0
    for i in range(wins, total + 1):
        acc += math.comb(total, i)
    return acc / 2.0**total


# ---------------------------------------------------------------------------
# decoding plumbing


def _bits_per_symbol(q):
    return max(1, (q - 1).bit_length())


def _bit_errors(decoded, truth, q, info_len):
    dec = np.clip(np.asarray(decoded[:info_len], dtype=int), 0, q - 1)
    tru = np.asarray(truth[:info_len], dtype=int)
    x = np.bitwise_xor(dec, tru)
    return int(sum(int(v).bit_count() for v in x))


@dataclass
class FrameResult:
    info: np.ndarray
    nc: int
    unique: int
    restarts: int
    budget_hit: bool
    distance: float
    trace: list | None = None  # node trace of the search, when asked for


def decode_frame(instance, problem, dec: DecoderSpec, trace=False):
    """Decode one preprocessed frame with the configured decoder.

    problem is the frame's TreeProblem for a tree search; for exhaustive
    ML it is an oracle.MlPlan of the frame's channel, or None to build one.
    Every branch-and-bound decoder runs through search.restart_schedule,
    which relaxes a finite bound while the search space is empty and makes
    one attempt otherwise.  With trace=True the tree search also records
    its node trace (see search.trace_lines); exhaustive ML has none.
    """
    if dec.name == "ml":
        res = oracle.exhaustive_ml(instance, problem)
        return FrameResult(info=res.label, nc=int(instance.code.info_set.size(instance.code.dim)),
                           unique=0, restarts=0, budget_hit=False, distance=res.distance)
    if dec.name == "fano":
        out = search.fano_decode(problem, bias=dec.bias, step=dec.step,
                                 node_budget=dec.budget, collect_trace=trace)
    else:
        factory, params = DECODERS[dec.name]
        policy = replace(factory(*(getattr(dec, k) for k in params)), node_budget=dec.budget)
        out = search.restart_schedule(problem, policy, collect_trace=trace)
    return FrameResult(info=apply_back_map(out.decoded_label, problem.back_map),
                       nc=out.node_generations, unique=out.unique_nodes,
                       restarts=out.restarts, budget_hit=out.budget_hit,
                       distance=out.distance, trace=out.trace)


def _sample_instance(ch_cfg, rng, noiseless, fixture):
    if isinstance(ch_cfg, channels.VblastConfig):
        return channels.sample_vblast(ch_cfg, rng, noiseless=noiseless, channel=fixture)
    if isinstance(ch_cfg, channels.LdCodeConfig):
        return channels.build_ld_instance(ch_cfg, rng, noiseless=noiseless, channel=fixture)
    return channels.build_isi_instance(ch_cfg, rng, noiseless=noiseless)


def _channel_distance(instance, info):
    d = instance.received - instance.H @ (instance.code.generator @ info.astype(float)
                                          + instance.code.translate)
    return float(d @ d)


# ---------------------------------------------------------------------------
# the sweep engine


@dataclass
class PointStats:
    snr_db: float
    trials: int = 0
    frame_errors: int = 0
    bit_errors: int = 0
    info_bits: int = 0  # information bits compared, over all frames
    nc_values: list = field(default_factory=list)
    restarts: int = 0
    budget_hits: int = 0
    shadow_disagreements: int = 0
    dim: int = 1

    def add(self, other):
        """Add the counts of other, more frames of the same point."""
        for f in fields(self):
            if f.name not in ("snr_db", "dim"):
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def row(self):
        n = self.trials
        fer = self.frame_errors / n if n else float("nan")
        lo, hi = wilson_ci(self.frame_errors, n)
        ber = self.bit_errors / self.info_bits if n else float("nan")
        nc = np.asarray(self.nc_values, dtype=float) if self.nc_values else np.array([float("nan")])
        return {
            "snr_db": self.snr_db,
            "trials": n,
            "frame_errors": self.frame_errors,
            "fer": fer,
            "fer_ci_lo": lo if n else float("nan"),
            "fer_ci_hi": hi if n else float("nan"),
            "bit_errors": self.bit_errors,
            "ber": ber,
            "mean_nc": float(np.mean(nc)),
            "mean_nc_per_dim": float(np.mean(nc)) / self.dim,
            "median_nc": float(np.median(nc)),
            "p99_nc": float(np.percentile(nc, 99)),
            "restarts": self.restarts,
            "budget_hits": self.budget_hits,
        }


CSV_COLUMNS = ["snr_db", "trials", "frame_errors", "fer", "fer_ci_lo", "fer_ci_hi",
               "bit_errors", "ber", "mean_nc", "mean_nc_per_dim", "median_nc",
               "p99_nc", "restarts", "budget_hits"]


@dataclass
class SweepReport:
    decoder: str
    points: list
    frames: list | None = None  # per frame (point, frame, err, nc, unique, distance, info)

    def rows(self):
        return [p.row() for p in self.points]

    def csv_lines(self):
        """The header and one line per point; floats as repr, so no bit is lost."""
        cells = ([repr(v) if isinstance(v, float) else str(v) for v in map(row.get, CSV_COLUMNS)]
                 for row in self.rows())
        return [",".join(CSV_COLUMNS)] + [",".join(c) for c in cells]

    def to_csv(self):
        return "".join(line + "\n" for line in self.csv_lines())

    def fer_curve(self):
        return [(p.snr_db, p.frame_errors / p.trials if p.trials else float("nan"))
                for p in self.points]


def _run_frames(cfgs, snr_db, point_idx, start, count, collect_frames, dump_limit=0):
    """Decode frames [start, start+count) of one SNR point for every config.

    Returns one PointStats per config, per config the frame records
    (point_idx, frame, err, nc, unique, distance, info) when collect_frames
    is set (else empty lists), and (point_idx, frame, config index,
    instance JSON) of the first `dump_limit` failing decodes in frame order.
    """
    base = cfgs[0]
    ch_cfg = replace(base.channel, rho=10.0 ** (snr_db / 10.0))
    fixture = None
    if base.fixed_channel and not isinstance(ch_cfg, channels.IsiConfig):
        fixture = channels.draw_mimo_channel(ch_cfg, channels.frame_rng(base.seed, point_idx))
    plans = {}  # TreePlans keyed by PreprocSpec, shared between configs; "ml": MlPlan
    static_channel = base.fixed_channel or isinstance(ch_cfg, channels.IsiConfig)
    stats = [PointStats(snr_db=snr_db) for _ in cfgs]
    frames = [[] for _ in cfgs]
    failures = []
    for frame in range(start, start + count):
        rng = channels.frame_rng(base.seed, point_idx, frame)
        inst = _sample_instance(ch_cfg, rng, base.noiseless, fixture)
        info_len = inst.info_len or inst.code.dim
        ml_res = None
        if not static_channel:
            plans.clear()
        for ci, cfg in enumerate(cfgs):
            if cfg.decoder.name == "ml":
                problem = _ml_plan(plans, inst)
            else:
                if cfg.preproc not in plans:
                    plans[cfg.preproc] = cfg.preproc.plan(inst.H, inst.code)
                problem = plans[cfg.preproc].problem_for(inst.received)
            res = decode_frame(inst, problem, cfg.decoder)
            err = not np.array_equal(res.info, inst.x_true)
            st = stats[ci]
            st.trials += 1
            st.frame_errors += int(err)
            st.bit_errors += _bit_errors(res.info, inst.x_true, cfg.channel.Q, info_len)
            st.info_bits += info_len * _bits_per_symbol(cfg.channel.Q)
            st.nc_values.append(res.nc)
            st.restarts += res.restarts
            st.budget_hits += int(res.budget_hit)
            if cfg.shadow_oracle:
                if ml_res is None:
                    ml_res = oracle.exhaustive_ml(inst, _ml_plan(plans, inst))
                d_dec = _channel_distance(inst, res.info)
                if d_dec > ml_res.distance * (1 + 1e-9) + 1e-9:
                    st.shadow_disagreements += 1
            if err and len(failures) < dump_limit:
                failures.append((point_idx, frame, ci, inst.to_json()))
            if collect_frames:
                frames[ci].append((point_idx, frame, int(err), res.nc, res.unique, res.distance,
                                   tuple(int(v) for v in res.info)))
    return stats, frames, failures


def _ml_plan(plans, inst):
    """The MlPlan of the frame's channel, kept in plans like the TreePlans."""
    if "ml" not in plans:
        plans["ml"] = oracle.MlPlan(inst.H, inst.code)
    return plans["ml"]


def compare_decoders(cfgs, workers=1, collect_frames=False, dump_failures=None):
    """Run several configs on identical frame streams (same channel, same seed).

    All configs must share the channel section, seed, SNR grid, and trial
    budget; they may differ in preprocessing and decoder.  Returns one
    SweepReport per config with aligned per-frame records.
    """
    base = cfgs[0]
    for cfg in cfgs[1:]:
        if not _same_channel(cfg.channel, base.channel) or cfg.seed != base.seed \
                or cfg.snr_grid_db != base.snr_grid_db or cfg.trials != base.trials \
                or cfg.noiseless != base.noiseless or cfg.fixed_channel != base.fixed_channel:
            raise ConfigError("compared configs must share channel, seed, grid, and trials")
    reports = [SweepReport(decoder=c.decoder.label(), points=[],
                           frames=[] if collect_frames else None) for c in cfgs]
    failures = []  # the first DUMP_LIMIT failing decodes, in frame order
    dump_limit = DUMP_LIMIT if dump_failures is not None else 0
    # one pool for the whole sweep: starting a pool costs more than the work
    # of a point when frames take a millisecond
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for point_idx, snr_db in enumerate(base.snr_grid_db):
            stats = _sweep_point(cfgs, pool, workers, point_idx, snr_db, collect_frames,
                                 reports, failures, dump_limit)
            for rep, st in zip(reports, stats):
                rep.points.append(st)
    if dump_failures is not None:
        _write_failures(dump_failures, failures, cfgs)
    return reports


def _sweep_point(cfgs, pool, workers, point_idx, snr_db, collect_frames, reports, failures,
                 dump_limit):
    """Decode the frames of one SNR point, CHUNK frames per job, until the
    trial budget or the stopping rule ends it; returns one PointStats per
    config and appends to the reports' frames and to failures."""
    base = cfgs[0]
    stats = [PointStats(snr_db=snr_db, dim=_problem_dim(c.channel)) for c in cfgs]
    target = base.target_frame_errors
    start = 0
    while start < base.trials:
        jobs = []
        for _ in range(max(1, workers)):
            if start >= base.trials:
                break
            count = min(CHUNK, base.trials - start)
            jobs.append((cfgs, snr_db, point_idx, start, count, collect_frames,
                         dump_limit - len(failures)))
            start += count
        if pool is None:
            chunk_results = [_run_frames(*a) for a in jobs]
        else:
            futs = [pool.submit(_run_frames, *a) for a in jobs]
            chunk_results = [f.result() for f in futs]
        for chunk_stats, chunk_frames, fails in chunk_results:
            failures.extend(fails[:dump_limit - len(failures)])
            for st, chunk_st in zip(stats, chunk_stats):
                st.add(chunk_st)
            if collect_frames:
                for rep, recs in zip(reports, chunk_frames):
                    rep.frames.extend(recs)
            if target is not None and all(st.frame_errors >= target for st in stats):
                return stats
    return stats


def _same_channel(a, b):
    if type(a) is not type(b):
        return False
    for key, va in vars(a).items():
        vb = getattr(b, key)
        if isinstance(va, np.ndarray):
            if not np.array_equal(va, vb):
                return False
        elif va != vb:
            return False
    return True


def _problem_dim(ch_cfg):
    if isinstance(ch_cfg, channels.VblastConfig):
        return 2 * ch_cfg.M
    if isinstance(ch_cfg, channels.LdCodeConfig):
        return 2 * ch_cfg.M * ch_cfg.T
    return ch_cfg.frame_len


def _write_failures(path, records, cfgs):
    import os
    os.makedirs(path, exist_ok=True)
    for point_idx, frame, ci, inst_json in records:
        cfg = cfgs[ci]
        dec = cfg.decoder
        rec = {
            "instance": json.loads(inst_json),
            "preproc": vars(cfg.preproc),
            "decoder": {"name": dec.name, "budget": dec.budget,
                        **{k: getattr(dec, k) for k in DECODERS[dec.name][1]}},
            "point": point_idx,
            "frame": frame,
        }
        name = f"fail_p{point_idx}_f{frame}_d{ci}.json"
        with open(os.path.join(path, name), "w") as fh:
            json.dump(rec, fh, indent=1)


def run_sweep(cfg: ExperimentConfig, workers=1, collect_frames=False, dump_failures=None):
    """SNR sweep of a single experiment config; see compare_decoders."""
    return compare_decoders([cfg], workers=workers, collect_frames=collect_frames,
                            dump_failures=dump_failures)[0]


def gamma_ratio(report_a: SweepReport, report_b: SweepReport):
    """Per-SNR ratio of mean node generations between two reports."""
    snrs_a = [p.snr_db for p in report_a.points]
    snrs_b = [p.snr_db for p in report_b.points]
    if snrs_a != snrs_b:
        raise AlignmentError(f"SNR grids differ: {snrs_a} vs {snrs_b}")
    out = {}
    for pa, pb in zip(report_a.points, report_b.points):
        mean_a = np.mean(pa.nc_values) if pa.nc_values else float("nan")
        mean_b = np.mean(pb.nc_values) if pb.nc_values else float("nan")
        out[pa.snr_db] = float(mean_a / mean_b)
    return out
