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

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import channels, oracle, search
from .errors import AlignmentError, ConfigError, TooLarge
from .preprocess import apply_back_map, prepare_tree

CHUNK = 512  # stopping-rule granularity (fixed: determinism across workers)
DUMP_LIMIT = 10  # failing decodes written per sweep by dump_failures


# ---------------------------------------------------------------------------
# configuration


@dataclass
class PreprocSpec:
    left: str = "mmse"
    right: str = "none"
    boundary: str = "lattice"
    lll_delta: float = 0.99
    lll_deep: bool = False


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
        bits = [self.name]
        if self.name in ("stack", "fano"):
            bits.append(f"b={self.bias:g}")
        if self.name == "fano":
            bits.append(f"step={self.step:g}")
        return " ".join(bits)


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
_PREPROC_KEYS = {"left", "right", "boundary", "lll_delta", "lll_deep"}
_DECODER_KEYS = {
    "se": set(), "babai": set(), "ml": set(),
    "stack": {"bias"}, "fano": {"bias", "step"},
    "pohst": {"radius"}, "vb": {"radius"},
    "ir": {"bounds"}, "ep": {"weights"},
    "m-alg": {"M"}, "t-alg": {"T"},
}
_REQUIRED = {"pohst": "radius", "vb": "radius", "ir": "bounds", "ep": "weights",
             "m-alg": "M", "t-alg": "T"}
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
        return channels.IsiConfig(taps=tuple(d["taps"]), frame_len=d["frame_len"],
                                  Q=d.get("Q", 2), rho=d.get("rho", 10.0),
                                  gen_polys=tuple(d["gen_polys"]) if d.get("gen_polys") else None)
    except KeyError as err:
        raise ConfigError(f"missing channel field {err.args[0]!r}") from None


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
    return spec


def parse_decoder(d):
    if not isinstance(d, dict) or "name" not in d:
        raise ConfigError("decoder config must be an object with a 'name'")
    name = d["name"]
    if name not in _DECODER_KEYS:
        raise ConfigError(f"unknown decoder {name!r}")
    _check_keys(d, _DECODER_KEYS[name] | {"name", "budget"}, f"decoder {name!r} config")
    kwargs = {k: v for k, v in d.items() if k != "name"}
    if "bounds" in kwargs:
        kwargs["bounds"] = tuple(kwargs["bounds"])
    if "weights" in kwargs:
        kwargs["weights"] = tuple(kwargs["weights"])
    spec = DecoderSpec(name=name, **kwargs)
    if name in _REQUIRED and getattr(spec, _REQUIRED[name]) is None:
        raise ConfigError(f"decoder {name!r} needs the field {_REQUIRED[name]!r}")
    for key in ("bias", "step"):
        value = getattr(spec, key)
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ConfigError(f"decoder field {key!r} must be a finite number, got {value!r}")
    if spec.step <= 0:
        raise ConfigError(f"decoder field 'step' must be positive, got {spec.step!r}")
    return spec


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
    if decoder.name in ("m-alg", "t-alg") and preproc.boundary != "constrained":
        raise ConfigError(f"decoder {decoder.name!r} needs the preproc field 'boundary' "
                          f"to be 'constrained'")
    return ExperimentConfig(
        channel=channel,
        preproc=preproc,
        decoder=decoder,
        snr_grid_db=tuple(float(s) for s in d["snr_grid_db"]),
        trials=int(d["trials"]),
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


def _policy_for(dec: DecoderSpec):
    if dec.name == "se":
        return search.policy_se()
    if dec.name == "babai":
        return search.policy_babai()
    if dec.name == "stack":
        return search.policy_stack(dec.bias)
    if dec.name == "pohst":
        return search.policy_pohst(dec.radius)
    if dec.name == "vb":
        return search.policy_vb(dec.radius)
    if dec.name == "ir":
        return search.policy_ir(dec.bounds)
    if dec.name == "ep":
        return search.policy_ep(dec.weights)
    if dec.name == "m-alg":
        return search.policy_m_algorithm(dec.M)
    if dec.name == "t-alg":
        return search.policy_t_algorithm(dec.T)
    raise ConfigError(f"decoder {dec.name!r} has no tree policy")


def decode_frame(instance, problem, dec: DecoderSpec, trace=False):
    """Decode one preprocessed frame with the configured decoder.

    With trace=True the tree search also records its node trace (see
    search.trace_lines); exhaustive ML has none.
    """
    if dec.name == "ml":
        res = oracle.exhaustive_ml(instance)
        return FrameResult(info=res.label, nc=int(instance.code.info_set.size(instance.code.dim)),
                           unique=0, restarts=0, budget_hit=False, distance=res.distance)
    if dec.name == "fano":
        out = search.fano_decode(problem, bias=dec.bias, step=dec.step,
                                 node_budget=dec.budget, collect_trace=trace)
    else:
        policy = _policy_for(dec)
        if dec.budget != search.DEFAULT_NODE_BUDGET:
            policy = replace(policy, node_budget=dec.budget)
        if dec.name in ("pohst", "vb", "ir", "ep"):
            out = search.restart_schedule(problem, policy, collect_trace=trace)
        else:
            out = search.gbb_run(problem, policy, collect_trace=trace)
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
    nc_values: list = field(default_factory=list)
    restarts: int = 0
    budget_hits: int = 0
    shadow_disagreements: int = 0
    dim: int = 1
    info_bits: int = 1  # bits per frame

    def row(self):
        n = self.trials
        fer = self.frame_errors / n if n else float("nan")
        lo, hi = wilson_ci(self.frame_errors, n)
        ber = self.bit_errors / (n * self.info_bits) if n else float("nan")
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
    frames: list | None = None  # per-frame (point_idx, frame_idx, err, nc, distance)

    def rows(self):
        return [p.row() for p in self.points]

    def to_csv(self):
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        w.writeheader()
        for row in self.rows():
            w.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
        return buf.getvalue()

    def fer_curve(self):
        return [(p.snr_db, p.frame_errors / p.trials if p.trials else float("nan"))
                for p in self.points]


def _run_frames(cfgs, rho, point_idx, start, count, collect_frames, dump_limit=0):
    """Decode frames [start, start+count) of one SNR point for every config.

    Returns per-config lists of compact frame tuples
    (err, bit_errs, nc, unique, restarts, budget_hit, distance, shadow_bad,
    info), and (point_idx, frame, config index, instance JSON) of the first
    `dump_limit` failing decodes in frame order.
    """
    base = cfgs[0]
    ch_cfg = replace(base.channel, rho=rho)
    fixture = None
    if base.fixed_channel and not isinstance(ch_cfg, channels.IsiConfig):
        fixture = channels.draw_mimo_channel(ch_cfg, channels.frame_rng(base.seed, point_idx))
    plans = {}  # keyed by preproc spec: shared between identical configs
    static_channel = base.fixed_channel or isinstance(ch_cfg, channels.IsiConfig)
    results = [[] for _ in cfgs]
    failures = []
    for frame in range(start, start + count):
        rng = channels.frame_rng(base.seed, point_idx, frame)
        inst = _sample_instance(ch_cfg, rng, base.noiseless, fixture)
        info_len = inst.info_len or inst.code.dim
        ml_res = None
        if not static_channel:
            plans.clear()
        for ci, cfg in enumerate(cfgs):
            dec = cfg.decoder
            problem = None
            if dec.name != "ml":
                key = (cfg.preproc.left, cfg.preproc.right, cfg.preproc.boundary,
                       cfg.preproc.lll_delta, cfg.preproc.lll_deep)
                if key not in plans:
                    plans[key] = prepare_tree(
                        inst.H, inst.code, left_mode=cfg.preproc.left,
                        right_mode=cfg.preproc.right, boundary=cfg.preproc.boundary,
                        lll_delta=cfg.preproc.lll_delta, lll_deep=cfg.preproc.lll_deep)
                problem = plans[key].problem_for(inst.received)
            res = decode_frame(inst, problem, dec)
            err = not np.array_equal(res.info, inst.x_true)
            bits = _bit_errors(res.info, inst.x_true, cfg.channel.Q, info_len)
            shadow_bad = 0
            if cfg.shadow_oracle:
                if ml_res is None:
                    size = inst.code.info_set.size(inst.code.dim)
                    if size is None or size > oracle.ENUM_GUARD:
                        raise TooLarge("shadow oracle needs an enumerable information set")
                    ml_res = oracle.exhaustive_ml(inst)
                d_dec = _channel_distance(inst, res.info)
                if d_dec > ml_res.distance * (1 + 1e-9) + 1e-9:
                    shadow_bad = 1
            if err and len(failures) < dump_limit:
                failures.append((point_idx, frame, ci, inst.to_json()))
            results[ci].append((err, bits, res.nc, res.unique, res.restarts,
                                int(res.budget_hit), res.distance, shadow_bad,
                                tuple(int(v) for v in res.info) if collect_frames else None))
    return results, failures


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
    for point_idx, snr_db in enumerate(base.snr_grid_db):
        rho = 10.0 ** (snr_db / 10.0)
        stats = [PointStats(snr_db=snr_db) for _ in cfgs]
        target = base.target_frame_errors
        done = False
        start = 0
        pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
        try:
            while start < base.trials and not done:
                jobs = []
                for _ in range(max(1, workers)):
                    if start >= base.trials:
                        break
                    count = min(CHUNK, base.trials - start)
                    jobs.append((start, count))
                    start += count
                limit = DUMP_LIMIT - len(failures) if dump_failures is not None else 0
                args = [(cfgs, rho, point_idx, s, c, collect_frames, limit) for s, c in jobs]
                if pool is None:
                    chunk_results = [_run_frames(*a) for a in args]
                else:
                    futs = [pool.submit(_run_frames, *a) for a in args]
                    chunk_results = [f.result() for f in futs]
                for (s, c), (per_cfg, fails) in zip(jobs, chunk_results):
                    failures.extend(fails[:DUMP_LIMIT - len(failures)])
                    for ci, rows in enumerate(per_cfg):
                        st = stats[ci]
                        for fi, (err, bits, nc, uniq, rs, bh, dist, sb, info) in enumerate(rows):
                            st.trials += 1
                            st.frame_errors += int(err)
                            st.bit_errors += bits
                            st.nc_values.append(nc)
                            st.restarts += rs
                            st.budget_hits += bh
                            st.shadow_disagreements += sb
                            if collect_frames:
                                reports[ci].frames.append(
                                    (point_idx, s + fi, int(err), nc, uniq, dist, info))
                    if target is not None and all(st.frame_errors >= target for st in stats):
                        done = True
                        break
        finally:
            if pool is not None:
                pool.shutdown()
        # fill metadata
        for ci, cfg in enumerate(cfgs):
            stats[ci].dim = _problem_dim(cfg.channel)
            q = cfg.channel.Q
            info_syms = _info_symbols(cfg.channel)
            stats[ci].info_bits = info_syms * _bits_per_symbol(q)
            reports[ci].points.append(stats[ci])
    if dump_failures is not None:
        _write_failures(dump_failures, failures, cfgs)
    return reports


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


def _info_symbols(ch_cfg):
    if isinstance(ch_cfg, channels.IsiConfig) and ch_cfg.gen_polys is not None:
        taps = [channels._poly_bits(p) for p in ch_cfg.gen_polys]
        mem = max(len(t) for t in taps) - 1
        return ch_cfg.frame_len // len(ch_cfg.gen_polys) - mem
    return _problem_dim(ch_cfg)


def _write_failures(path, records, cfgs):
    import os
    os.makedirs(path, exist_ok=True)
    for point_idx, frame, ci, inst_json in records:
        cfg = cfgs[ci]
        dec = cfg.decoder
        dec_rec = {"name": dec.name, "budget": dec.budget}
        for key in _DECODER_KEYS[dec.name]:
            if getattr(dec, key) is not None:
                dec_rec[key] = getattr(dec, key)
        rec = {
            "instance": json.loads(inst_json),
            "preproc": vars(cfg.preproc),
            "decoder": dec_rec,
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
