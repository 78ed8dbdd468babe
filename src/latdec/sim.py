"""Monte Carlo experiment runner: SNR sweeps, decoder comparisons, reports.

A sweep draws one channel instance per frame (quasi-static fading),
preprocesses it, decodes, and compares the decoded information symbols to
the transmitted ones.  Every frame gets its own RNG substream keyed by
(seed, point index, frame index), so results are reproducible bit-for-bit
regardless of the worker count; the stopping rule is evaluated at fixed
chunk boundaries for the same reason.

A chunk of frames runs in stages: sample every frame; then, frame by
frame and config by config, the plan (one per preprocessing, kept for the
chunk on a static channel and rebuilt per frame on a fading one), the
frame's problem, the decode and the shadow-oracle check; last, the tally
of each config over the whole chunk, on the stacked decoded and true
labels.

Frame errors count any difference in the information symbols; bit errors
use the natural binary map of each symbol value (decoded symbols outside
{0..Q-1} are clamped first).  Confidence intervals on the frame error rate
are Wilson 95% intervals.
"""

import inspect
import json
import math
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import channels, oracle, search
from .errors import ConfigError, DimensionMismatch, RankDeficientCode
from .preprocess import (BOUNDARIES, BOX_RIGHT_MODES, LEFT_MODES, RIGHT_MODES, apply_back_map,
                         prepare_tree)

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
                                       for k in DECODERS[self.name].fields if k in shown])


# name -> (tree-search policy factory, or None for the decoders with their own
# call, the decoder's parameter fields in order, and whether it needs the
# constrained boundary).  The factory takes the fields as positional
# arguments; a field whose DecoderSpec default is None is required.
DecoderKind = namedtuple("DecoderKind", "policy fields needs_box")
DECODERS = {
    "se": DecoderKind(search.policy_se, (), False),
    "babai": DecoderKind(search.policy_babai, (), False),
    "stack": DecoderKind(search.policy_stack, ("bias",), False),
    "fano": DecoderKind(None, ("bias", "step"), False),
    "pohst": DecoderKind(search.policy_pohst, ("radius",), False),
    "vb": DecoderKind(search.policy_vb, ("radius",), False),
    "ir": DecoderKind(search.policy_ir, ("bounds",), False),
    "ep": DecoderKind(search.policy_ep, ("weights",), False),
    "m-alg": DecoderKind(search.policy_m_algorithm, ("M",), True),
    "t-alg": DecoderKind(search.policy_t_algorithm, ("T",), True),
    "ml": DecoderKind(None, (), False),
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


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_finite(value):
    return _is_number(value) and 0 < value < math.inf  # False for NaN


def _numbers(value, test):
    return isinstance(value, (list, tuple)) and all(_is_number(v) and test(v) for v in value)


def _octal(value):
    return _is_int(value) and set(str(value)) <= set("01234567")  # False when negative


def _at_least(least):
    return f"an integer >= {least}", lambda v: _is_int(v) and v >= least


def _one_of(*choices):
    return " or ".join(map(repr, choices)), lambda v: v in choices


_FLAG = ("true or false", lambda v: isinstance(v, bool))


def _build(section, rules, build, d):
    """build(**d), lists as tuples, once each key of d has a rule (what the value
    must be, test) that its value meets and each required parameter is given."""
    if not isinstance(d, dict):
        raise ConfigError(f"{section} must be an object, got {d!r}")
    for key, value in d.items():
        if key not in rules:
            raise ConfigError(f"unknown {section} field {key!r}")
        what, ok = rules[key]
        if not ok(value):
            raise ConfigError(f"{section} field {key!r} must be {what}, got {value!r}")
    for p in inspect.signature(build).parameters.values():
        if p.default is p.empty and p.name not in d:
            raise ConfigError(f"missing {section} field {p.name!r}")
    return build(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


def _ld_config(M, N, T, Q=2, generator=None, generator_seed=None):
    if generator is None:
        gen_c = channels.random_unitary(M * T, generator_seed or 0)
    elif generator_seed is not None:
        raise ConfigError("ld channel fields 'generator' and 'generator_seed' exclude each other")
    else:
        try:
            gen = np.asarray(generator, dtype=float)
        except (TypeError, ValueError):  # ragged, or not numbers
            gen = np.empty(0)
        if gen.shape != (M * T, M * T, 2) or not np.isfinite(gen).all():
            raise ConfigError(f"ld channel field 'generator' must be M*T x M*T [re, im] pairs "
                              f"of finite numbers, shape {(M * T, M * T, 2)}, got {generator!r}")
        gen_c = gen[..., 0] + 1j * gen[..., 1]
    return channels.LdCodeConfig(generator_c=gen_c, M=M, N=N, T=T, Q=Q)


def _isi_config(taps, frame_len, Q=2, gen_polys=None):
    if gen_polys is not None:
        try:
            channels.conv_code_systematic(gen_polys, channels.conv_info_len(gen_polys, frame_len))
        except DimensionMismatch as err:
            raise ConfigError(f"isi channel field 'frame_len': {err}") from None
        except RankDeficientCode as err:
            raise ConfigError(f"isi channel field 'gen_polys' must give a full-rank code: "
                              f"{err}") from None
    return channels.IsiConfig(taps=taps, frame_len=frame_len, Q=Q, gen_polys=gen_polys)


# type -> (config class, its build function from the checked fields, rules
# of each key but "type", sampler name in channels, lattice dimension, number
# of channel outputs (rows of H), number of code labels (None when
# unconstrained), whether the information set is a hypercube, static)
ChannelKind = namedtuple("ChannelKind", "config build rules sampler dim outputs labels box static")
_MIMO_RULES = {"M": _at_least(1), "N": _at_least(1), "Q": _at_least(2)}
CHANNELS = {
    "vblast": ChannelKind(channels.VblastConfig, channels.VblastConfig, _MIMO_RULES,
                          "sample_vblast", lambda ch: 2 * ch.M, lambda ch: 2 * ch.N,
                          lambda ch: ch.Q ** (2 * ch.M), lambda ch: True, False),
    "ld": ChannelKind(channels.LdCodeConfig, _ld_config,
                      {**_MIMO_RULES, "T": _at_least(1),
                       "generator": ("a list", lambda v: isinstance(v, (list, tuple))),
                       "generator_seed": _at_least(0)},
                      "build_ld_instance", lambda ch: 2 * ch.M * ch.T, lambda ch: 2 * ch.N * ch.T,
                      lambda ch: ch.Q ** (2 * ch.M * ch.T), lambda ch: True, False),
    "isi": ChannelKind(channels.IsiConfig, _isi_config,
                       {"taps": ("a list of finite numbers, not all zero",
                                 lambda v: _numbers(v, math.isfinite) and any(v)),
                        "frame_len": _at_least(1), "Q": _at_least(2),
                        "gen_polys": ("a non-empty list of octal numbers or null",
                                      lambda v: v is None or _numbers(v, _octal) and len(v) > 0)},
                       "build_isi_instance", lambda ch: ch.frame_len,
                       lambda ch: ch.frame_len + len(ch.taps) - 1, channels.isi_label_count,
                       lambda ch: ch.gen_polys is None, True),
}
_KIND_OF_CONFIG = {kind.config: kind for kind in CHANNELS.values()}


def parse_channel(d):
    if not isinstance(d, dict) or d.get("type") not in tuple(CHANNELS):
        raise ConfigError(f"channel config must be an object whose 'type' is one of "
                          f"{list(CHANNELS)}, got {d!r}")
    typ = d["type"]
    fields_given = {k: v for k, v in d.items() if k != "type"}
    return _build(f"{typ} channel", CHANNELS[typ].rules, CHANNELS[typ].build, fields_given)


_PREPROC_FIELD_RULES = {
    "left": _one_of(*LEFT_MODES),
    "right": _one_of(*RIGHT_MODES),
    "boundary": _one_of(*BOUNDARIES),
    "lll_delta": ("a number in (0.25, 1]", lambda v: _is_number(v) and 0.25 < v <= 1),
    "lll_deep": _FLAG,
}


def parse_preproc(d):
    spec = _build("preproc", _PREPROC_FIELD_RULES, PreprocSpec, d or {})
    if spec.boundary == "constrained" and spec.right not in BOX_RIGHT_MODES:
        raise ConfigError(f"preproc field 'right' must be {_one_of(*BOX_RIGHT_MODES)[0]} when "
                          f"'boundary' is 'constrained': any other basis change loses the box, "
                          f"got {spec.right!r}")
    return spec


def _check_preproc(preproc, kind, channel):
    """ConfigError naming the preproc field that prepare_tree would reject on
    every frame of channel, a parsed channel config of kind."""
    if preproc.boundary == "constrained" and not kind.box(channel):
        raise ConfigError("preproc field 'boundary' 'constrained' needs a hypercube information "
                          "set, which a coded channel ('gen_polys') does not have")
    outputs, dim = kind.outputs(channel), kind.dim(channel)
    if preproc.left == "zf" and outputs < dim:
        raise ConfigError(f"preproc field 'left' 'zf' needs at least as many channel outputs as "
                          f"lattice dimensions (N >= M), got {outputs} for {dim}; 'mmse' has no "
                          f"such need")


# what a decoder field must be when it is given
_DECODER_FIELD_RULES = {
    "name": _one_of(*DECODERS),
    "bias": ("a finite number", lambda v: _is_number(v) and math.isfinite(v)),
    "step": ("a positive finite number", _positive_finite),
    "radius": ("a positive finite number", _positive_finite),
    "bounds": ("a list of positive finite numbers", lambda v: _numbers(v, _positive_finite)),
    "weights": ("a list of positive finite numbers", lambda v: _numbers(v, _positive_finite)),
    "M": _at_least(1),
    "T": ("a non-negative number", lambda v: _is_number(v) and v >= 0),
    "budget": ("an integer >= 1 or null", lambda v: v is None or _is_int(v) and v >= 1),
}


def parse_decoder(d):
    if not isinstance(d, dict) or d.get("name") not in tuple(DECODERS):
        raise ConfigError(f"decoder config must be an object whose 'name' is one of "
                          f"{list(DECODERS)}, got {d!r}")
    name = d["name"]
    params = DECODERS[name].fields
    rules = {key: _DECODER_FIELD_RULES[key] for key in ("name", "budget", *params)}
    spec = _build(f"decoder {name!r}", rules, DecoderSpec, d)
    for key in params:
        if getattr(spec, key) is None:
            raise ConfigError(f"decoder {name!r} needs the field {key!r}")
    return spec


def _check_enumerable(field, labels):
    """ConfigError naming field unless exhaustive ML can enumerate a code of
    `labels` labels (None: an unconstrained information set)."""
    if not oracle.enumerable(labels):
        code = "an unconstrained information set" if labels is None else f"{labels} labels"
        raise ConfigError(f"{field} enumerates the code for exhaustive ML, at most "
                          f"{oracle.ENUM_GUARD} labels, but the code has {code}")


def check_decoder(decoder, preproc, dim, labels):
    """Check a parsed decoder against its preprocessing, the channel's
    lattice dimension dim and the code's number of labels (None when
    unconstrained); raises ConfigError naming the field.

    parse_config runs this, and so does the replay of a dumped frame.
    """
    if decoder.name == "ml":
        _check_enumerable("decoder 'ml'", labels)
    if DECODERS[decoder.name].needs_box and preproc.boundary != "constrained":
        raise ConfigError(f"decoder {decoder.name!r} needs the preproc field 'boundary' "
                          f"to be 'constrained'")
    for key in ("bounds", "weights"):
        value = getattr(decoder, key)
        if value is not None and len(value) != dim:
            raise ConfigError(f"decoder field {key!r} needs one entry per lattice dimension "
                              f"({dim}), got {len(value)}")


_CONFIG_FIELD_RULES = {
    "channel": ("an object", lambda v: isinstance(v, dict)),
    "preproc": ("an object or null", lambda v: v is None or isinstance(v, dict)),
    "decoder": ("an object", lambda v: isinstance(v, dict)),
    "snr_grid_db": ("a list of finite numbers", lambda v: _numbers(v, math.isfinite)),
    "trials": _at_least(0),
    "target_frame_errors": ("an integer >= 1 or null",
                            lambda v: v is None or _is_int(v) and v >= 1),
    "seed": _at_least(0),
    "noiseless": _FLAG,
    "fixed_channel": _FLAG,
    "shadow_oracle": _FLAG,
}


def parse_config(d):
    """Validate and build an ExperimentConfig from a JSON-style dict."""
    cfg = _build("config", _CONFIG_FIELD_RULES, partial(ExperimentConfig, preproc=None), d)
    cfg.channel = parse_channel(cfg.channel)
    cfg.preproc = parse_preproc(cfg.preproc)
    cfg.decoder = parse_decoder(cfg.decoder)
    cfg.snr_grid_db = tuple(float(s) for s in cfg.snr_grid_db)
    kind = _KIND_OF_CONFIG[type(cfg.channel)]
    _check_preproc(cfg.preproc, kind, cfg.channel)
    labels = kind.labels(cfg.channel)
    check_decoder(cfg.decoder, cfg.preproc, kind.dim(cfg.channel), labels)
    if cfg.shadow_oracle:
        _check_enumerable("config field 'shadow_oracle'", labels)
    return cfg


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


# ---------------------------------------------------------------------------
# decoding plumbing


def _bits_per_symbol(q):
    return max(1, (q - 1).bit_length())


@dataclass
class FrameResult:
    info: np.ndarray
    nc: int
    unique: int
    restarts: int
    budget_hit: bool
    distance: float


def decode_frame(instance, problem, dec: DecoderSpec, on_node=None):
    """Decode one preprocessed frame with the configured decoder.

    problem is the frame's TreeProblem for a tree search; for exhaustive
    ML it is an oracle.MlPlan of the frame's channel, or None to build one
    for this call only.
    Every branch-and-bound decoder runs through search.restart_schedule,
    which relaxes a finite bound while the search space is empty and makes
    one attempt otherwise.  on_node goes to the tree search, which calls it
    per generated node (see search.trace_lines); exhaustive ML has none.
    """
    if dec.name == "ml":
        res = oracle.exhaustive_ml(instance, problem)
        return FrameResult(info=res.label, nc=int(instance.code.info_set.size(instance.code.dim)),
                           unique=0, restarts=0, budget_hit=False, distance=res.distance)
    if dec.name == "fano":
        out = search.fano_decode(problem, bias=dec.bias, step=dec.step,
                                 node_budget=dec.budget, on_node=on_node)
    else:
        kind = DECODERS[dec.name]
        policy = replace(kind.policy(*(getattr(dec, k) for k in kind.fields)),
                         node_budget=dec.budget)
        out = search.restart_schedule(problem, policy, on_node=on_node)
    return FrameResult(info=apply_back_map(out.decoded_label, problem.back_map),
                       nc=out.node_generations, unique=out.unique_nodes,
                       restarts=out.restarts, budget_hit=out.budget_hit,
                       distance=out.distance)


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


def _run_frames(cfgs, snr_db, point_idx, start, count, collect_frames, dump_limit):
    """Decode frames [start, start+count) of one SNR point for every config.

    Returns one PointStats per config, per config the frame records
    (point_idx, frame, err, nc, unique, distance, info) when collect_frames
    is set (else empty lists), and (point_idx, frame, config index,
    instance JSON) of the first `dump_limit` failing decodes in (frame,
    config) order.
    """
    base = cfgs[0]
    kind = _KIND_OF_CONFIG[type(base.channel)]
    sample = getattr(channels, kind.sampler)
    ch_cfg = replace(base.channel, rho=10.0 ** (snr_db / 10.0))
    sample_kwargs = {"noiseless": base.noiseless}
    if base.fixed_channel and not kind.static:
        sample_kwargs["channel"] = channels.draw_mimo_channel(
            ch_cfg, channels.frame_rng(base.seed, point_idx))
    frame_ids = range(start, start + count)
    insts = [sample(ch_cfg, channels.frame_rng(base.seed, point_idx, frame), **sample_kwargs)
             for frame in frame_ids]
    plans = {}  # TreePlans keyed by PreprocSpec, shared between configs; "ml": MlPlan
    static_channel = base.fixed_channel or kind.static
    results = [[] for _ in cfgs]
    shadow = [0] * len(cfgs)
    for inst in insts:
        ml_dist = None  # the frame's ML distance, from an ml decode or one oracle call
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
            results[ci].append(res)
            if cfg.decoder.name == "ml":
                ml_dist = res.distance
            if cfg.shadow_oracle:
                if ml_dist is None:
                    ml_dist = oracle.exhaustive_ml(inst, _ml_plan(plans, inst)).distance
                d_dec = _channel_distance(inst, res.info)
                shadow[ci] += d_dec > ml_dist * (1 + 1e-9) + 1e-9
    # tally; the configs share the channel, so Q and info_len hold for all
    q, bits = base.channel.Q, _bits_per_symbol(base.channel.Q)
    info_len = insts[0].info_len or insts[0].code.dim
    truth = np.array([inst.x_true for inst in insts])
    stats, frames, errs = [], [], []
    for ci, res in enumerate(results):
        dec = np.array([r.info for r in res])
        err = (dec != truth).any(axis=1)
        xor = np.clip(dec[:, :info_len], 0, q - 1) ^ truth[:, :info_len]
        stats.append(PointStats(
            snr_db=snr_db, trials=count, frame_errors=int(err.sum()),
            bit_errors=sum(int(((xor >> b) & 1).sum()) for b in range(bits)),
            info_bits=count * info_len * bits, nc_values=[r.nc for r in res],
            restarts=sum(r.restarts for r in res), budget_hits=sum(r.budget_hit for r in res),
            shadow_disagreements=shadow[ci]))
        frames.append([(point_idx, frame, int(e), r.nc, r.unique, r.distance, tuple(info))
                       for frame, e, r, info in zip(frame_ids, err, res, dec.tolist())]
                      if collect_frames else [])
        errs.append(err)
    failing = np.argwhere(np.array(errs).T)[:dump_limit]  # in (frame, config) order
    failures = [(point_idx, start + f, ci, insts[f].to_json()) for f, ci in failing.tolist()]
    return stats, frames, failures


def _ml_plan(plans, inst):
    """The MlPlan of the frame's channel, kept in plans like the TreePlans."""
    if "ml" not in plans:
        plans["ml"] = oracle.MlPlan(inst.H, inst.code)
    return plans["ml"]


_SHARED_FIELDS = ("channel", "seed", "snr_grid_db", "trials", "target_frame_errors",
                  "noiseless", "fixed_channel")


def compare_decoders(cfgs, workers=1, collect_frames=False, dump_failures=None):
    """Run several configs on identical frame streams (same channel, same seed).

    All configs must share the fields in _SHARED_FIELDS, the stopping rule
    included; they may differ in preprocessing and decoder.  Returns one
    SweepReport per config with aligned per-frame records.
    """
    base = cfgs[0]
    for cfg in cfgs[1:]:
        if not _same_channel(cfg.channel, base.channel) \
                or any(getattr(cfg, k) != getattr(base, k) for k in _SHARED_FIELDS[1:]):
            raise ConfigError(f"compared configs must share {', '.join(_SHARED_FIELDS)}")
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
    dim = _KIND_OF_CONFIG[type(base.channel)].dim(base.channel)
    stats = [PointStats(snr_db=snr_db, dim=dim) for _ in cfgs]
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
    """Field-by-field equality of channel configs; an LD dispersion map is an array."""
    return type(a) is type(b) and all(np.array_equal(va, getattr(b, key))
                                      for key, va in vars(a).items())


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
                        **{k: getattr(dec, k) for k in DECODERS[dec.name].fields}},
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
