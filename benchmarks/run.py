"""Decoding benchmark for latdec: frames/s, frame latency and node counts.

    python3 benchmarks/run.py --workload mimo_lll --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; latdec is imported from its ``src``.  The
workloads are in workloads.py and the reasons for each in README.md.

``--trace 0`` measures the end-to-end metrics with tracing off.  Each sweep
block is one ``sim.compare_decoders`` call (the path ``latdec simulate``
runs), timed from outside; after it the library path of the README decodes
the block's frames again, one timed frame at a time.  Times are scaled to
the machine's nominal speed by a reference computation run between them
(yardstick.py).  Set-up time is measured in fresh interpreters
(setup_probe.py).  ``--trace 1`` is a
separate run that wraps latdec's public functions (tracer.py) and reports
per-layer self times and counts, plus the tracing overhead.

Outputs are checked, and a frame that raises or fails a check counts as
failed.  Every metric is printed by name, unit and sample count, with the
run environment and a behaviour digest; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# One BLAS thread per process, set before numpy loads: latdec's matrices are
# small, so a second thread does not shorten a frame on a 2-core box, but it
# would compete with the 2-worker sweep and tie a frame's time to the load
# on the other core.  Set-up probes inherit this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import libpath  # noqa: E402
import tracer as tracing  # noqa: E402
import yardstick  # noqa: E402
from libpath import sim  # noqa: E402
from workloads import WORKLOADS, block_seed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
# The untraced run makes passes over all of its sweep blocks and library-path
# frames until --seconds have gone by.  A shared machine runs the same work
# up to 2x slower for spells of a fraction of a second to minutes, so
# every timed piece is scaled to the machine's nominal speed by the
# reference runs around it (yardstick.py), and a block's or a frame's time
# is the median over its passes.
SETUP_PROBES = 7  # fresh interpreters per run, spread evenly over the passes
TRACE_BLOCKS = 2  # sweep blocks of a traced run
TRACE_REPEATS = 2  # passes of a traced run, at least; more until --seconds are up
WARM_UP_BLOCK = 63  # block seed index never used by a measured block
TOL = 1e-9


# ---------------------------------------------------------------------------
# output checks


def channel_distance(inst, info):
    d = inst.received - inst.H @ (inst.code.generator @ np.asarray(info, dtype=float)
                                  + inst.code.translate)
    return float(d @ d)


def check_se_stack(inst, results):
    """se and stack are both exact: equal distances, neither beyond the transmitted point."""
    se, stack = results
    d_true = channel_distance(inst, inst.x_true)
    return (math.isclose(se.distance, stack.distance, rel_tol=TOL, abs_tol=TOL)
            and all(channel_distance(inst, r.info) <= d_true * (1 + TOL) + TOL
                    for r in results))


class FanoMlCheck:
    """A Fano decision inside the code is never closer than exhaustive ML.

    A lattice-decoded label outside the code is a frame error with no
    distance claim, so it passes.  Membership is looked up in a set of the
    code's explicit labels, built once per code object."""

    def __init__(self):
        self.codes = {}  # id(info set) -> (info set, set of label tuples)

    def __call__(self, inst, results):
        fano, ml = results
        iset = inst.code.info_set
        if id(iset) not in self.codes:
            self.codes[id(iset)] = (iset, {tuple(int(v) for v in row) for row in iset.labels})
        if tuple(int(v) for v in fano.info) not in self.codes[id(iset)][1]:
            return True
        return channel_distance(inst, fano.info) >= ml.distance * (1 - TOL) - TOL


def frame_check(name):
    """The per-frame output check of a workload, beyond the sweep/library comparison."""
    if name == "mimo_search":
        return check_se_stack
    if name == "isi_static":
        return FanoMlCheck()
    return lambda inst, results: True


# ---------------------------------------------------------------------------
# helpers


def sweep(cfgs, workers):
    """One sweep block through sim.compare_decoders; returns (reports, seconds)."""
    t0 = time.perf_counter()
    reports = sim.compare_decoders(cfgs, workers=workers, collect_frames=True)
    return reports, time.perf_counter() - t0


def csv_text(reports):
    return "".join(f"# {r.decoder}\n{r.to_csv()}" for r in reports)


def frame_records(reports):
    """{(point, frame): ((info, n_c) for every config)} of a sweep with collected frames."""
    out = {}
    for rep in reports:
        for point, frame, _err, nc, _uniq, _dist, info in rep.frames:
            out.setdefault((point, frame), []).append((info, nc))
    return {k: tuple(v) for k, v in out.items()}


def library_record(results):
    return tuple((tuple(int(v) for v in r.info), r.nc) for r in results)


def setup_seconds(name, seed):
    """Fresh interpreter to first decoded frame, timed by the shared monotonic clock."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1]) - t0


def warm_up(workload, seed):
    """Decode a few frames outside the measured blocks so lazy set-up is done."""
    cfgs = libpath.configs(workload, block_seed(seed, WARM_UP_BLOCK), 8)
    sweep(cfgs, 1)
    for _ in libpath.library_block(cfgs, 8):
        pass


def reference_ms():
    """Median of 5 runs of the speed reference; a slow reading flags a busy machine."""
    return round(1e3 * statistics.median(yardstick.reference() for _ in range(5)), 3)


def environment(seed):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "loadavg_start": os.getloadavg(),
        "reference_ms_start": reference_ms(),
        "seed": seed,
    }


def median(values):
    """Median, or NaN when every block failed (the run then reports failures)."""
    return statistics.median(values) if values else math.nan


def emit(name, metrics, names, env, extra, ok, attempted, failed):
    """Print the workload, the environment, every metric and the result line."""
    env["loadavg_end"] = os.getloadavg()
    env["reference_ms_end"] = reference_ms()
    workload = WORKLOADS[name]
    print(f"# workload {name}: {workload['why']} (ROADMAP items "
          f"{', '.join(map(str, workload['roadmap']))})")
    print("# env " + json.dumps(env))
    for key, value in extra.items():
        print(f"# {key} {value}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit:10s} n={n}")
    print(json.dumps({
        "correct": bool(ok and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }))


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


END_TO_END = ["frames_per_s", "frame_ms_p50", "frame_ms_p99", "setup_s",
              "peak_rss_mb", "nodes_per_frame"]


def timing_metrics(sweeps, frames, points, per_block, seconds):
    """frames_per_s and frame_ms_p50/p99 of timed samples.

    Samples are ``(start, end, wall seconds)``; ``seconds`` maps one to the
    seconds it counts for.  A block's and a frame's time is the median over
    the passes that timed it."""
    block_s = [statistics.median(map(seconds, ts)) for ts in sweeps if ts]
    lat_ms = 1e3 * np.array([statistics.median(map(seconds, ts)) for ts in frames.values()])
    return {
        "frames_per_s": (len(block_s) * points * per_block / sum(block_s) if block_s
                         else math.nan, "1/s", len(block_s) * points * per_block),
        "frame_ms_p50": (float(np.percentile(lat_ms, 50)), "ms", lat_ms.size),
        "frame_ms_p99": (float(np.percentile(lat_ms, 99)), "ms", lat_ms.size),
    }


def run_plain(name, workload, seed, seconds):
    env = environment(seed)
    warm_up(workload, seed)
    frames, lib_frames = workload["sweep_frames"], workload["lib_frames"]
    points = len(workload["snr_grid_db"])
    workers = workload["workers"]
    check = frame_check(name)
    blocks = [libpath.configs(workload, block_seed(seed, b), frames)
              for b in range(workload["blocks"])]
    ys = yardstick.Yardstick()
    # timed samples (start, end, wall seconds): per block of its sweeps and
    # per (block, point, frame) of its library-path decodes
    sweep_t = [[] for _ in blocks]
    frame_t = {}
    setups = []
    texts, records, failed = {}, {}, set()
    nodes = errors = decodes = 0
    start = time.monotonic()
    passes = 0
    while passes == 0 or time.monotonic() < start + seconds:
        for b, cfgs in enumerate(blocks):
            now = time.monotonic()
            if passes > 0 and now >= start + seconds:
                break
            if len(setups) < SETUP_PROBES and now >= start + seconds * len(setups) / SETUP_PROBES:
                setups.append(setup_seconds(name, seed))
            ys.mark()
            try:
                t0 = time.perf_counter()
                reports, dt = sweep(cfgs, workers)
                sample = (t0, time.perf_counter(), dt)
                ys.mark()
                text = csv_text(reports)
                if b not in texts:
                    texts[b], records[b] = text, frame_records(reports)
                    if b == 0 and workers > 1 and csv_text(sweep(cfgs, 1)[0]) != text:
                        raise AssertionError(f"1-worker CSV differs from the "
                                             f"{workers}-worker CSV")
                elif text != texts[b]:
                    raise AssertionError("CSV differs between passes")
                sweep_t[b].append(sample)
            except Exception:  # a sweep that raises or fails a check fails its block
                print(f"benchmark: block {b}:", file=sys.stderr)
                traceback.print_exc()
                failed |= {(b, p, f) for p in range(points) for f in range(frames)}
            ys.mark_if_due()
            for p, f, secs, inst, results in libpath.library_block(cfgs, lib_frames):
                end = time.perf_counter()
                key = (b, p, f)
                frame_t.setdefault(key, []).append((end - secs, end, secs))
                if results is None or not check(inst, results) or (
                        f < frames and library_record(results) != records.get(b, {}).get((p, f))):
                    failed.add(key)
                elif passes == 0:
                    nodes += sum(r.nc for r in results)
                    errors += sum(not np.array_equal(r.info, inst.x_true) for r in results)
                    decodes += len(results)
                ys.mark_if_due()
        passes += 1
    while len(setups) < SETUP_PROBES:  # a first pass longer than --seconds
        setups.append(setup_seconds(name, seed))
    ys.mark()
    digest = hashlib.sha256()
    for b in sorted(texts):
        digest.update(texts[b].encode())
        digest.update(repr(sorted(records[b].items())).encode())
    attempted = len(blocks) * points * max(frames, lib_frames)
    metrics = timing_metrics(sweep_t, frame_t, points, frames,
                             lambda s: s[2] * ys.scale(s[0], s[1]))
    metrics.update({
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "nodes_per_frame": (nodes * len(blocks[0]) / decodes if decodes else 0.0, "nodes",
                            decodes // len(blocks[0])),
        "fer": (errors / decodes if decodes else 0.0, "1", decodes),
        "failed_frac": (len(failed) / attempted, "1", attempted),
    })
    raw = timing_metrics(sweep_t, frame_t, points, frames, lambda s: s[2])
    extra = {
        "passes": passes,
        "reference_ms": f"median {1e3 * statistics.median(ys.secs):.4g}, "
                        f"nominal {1e3 * yardstick.NOMINAL_S:.4g}, n={len(ys.secs)}",
        "unscaled": " ".join(f"{k}={v[0]:.6g}" for k, v in raw.items()),
        "digest": digest.hexdigest(),
    }
    emit(name, metrics, END_TO_END, env, extra, True, attempted, len(failed))


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


PER_LAYER_UNITS = {
    "lattice.lll_ms": "ms/frame", "lattice.lll_calls": "1/frame",
    "preprocess.left_ms": "ms/frame", "preprocess.order_ms": "ms/frame",
    "preprocess.plan_ms": "ms/frame", "preprocess.plans_built": "1/frame",
    "preprocess.problem_for_ms": "ms/frame", "preprocess.back_map_ms": "ms/frame",
    "linalg.qr_ms": "ms/frame", "linalg.qr_calls": "1/frame",
    "channels.sample_ms": "ms/frame",
    "search.search_ms": "ms/frame", "search.nodes": "nodes/frame",
    "search.us_per_node": "us/node", "search.nc_p99": "nodes",
    "search.fano_revisit_ratio": "ratio", "search.budget_hits": "count",
    "search.restarts": "count",
    "oracle.ml_ms": "ms/frame", "oracle.ml_calls": "1/frame",
    "sim.self_ms": "ms/frame", "sim.pools_created": "count/sweep",
    "sim.jobs_submitted": "count/sweep", "sim.job_kib": "KiB/job",
    "sim.speedup_2w": "ratio", "sim.trace_overhead_pct": "%",
    "sim.traced_frame_ms": "ms/frame",
}


def wrap_point_errors(tr, cfgs, blocks, frames, records):
    """Check that every wrap point saw the calls the traced sweep must make."""
    counts = tr.counts()
    total = blocks * len(cfgs[0].snr_grid_db) * frames
    tree = [c for c in cfgs if c.decoder.name != "ml"]
    keys = {(c.preproc.left, c.preproc.right, c.preproc.boundary) for c in tree}
    if isinstance(cfgs[0].channel, libpath.channels.IsiConfig):
        per_key = blocks * len(cfgs[0].snr_grid_db) * -(-frames // sim.CHUNK)
    else:
        per_key = total
    want = {
        "sim.frame": total,
        "sim.decode_frame": total * len(cfgs),
        "preprocess.apply_back_map": total * len(tree),
        "oracle.exhaustive_ml": total * (len(cfgs) - len(tree)),
        "preprocess.prepare_tree": per_key * len(keys),
        "preprocess.left_preprocess": per_key * len(keys),
        "lattice.lll_reduce": per_key * sum("lll" in k[1] for k in keys),
        "preprocess.vblast_greedy_order": per_key * sum("permute" in k[1] for k in keys),
    }
    errors = [f"{k}: {counts.get(k, 0)} calls, expected {v}"
              for k, v in want.items() if counts.get(k, 0) != v]
    if counts.get("linalg.qr_decompose", 0) < want["preprocess.left_preprocess"]:
        errors.append("linalg.qr_decompose: fewer calls than left preprocessings")
    if len(tr.searches) != total * len(tree):
        errors.append(f"{len(tr.searches)} searches, expected {total * len(tree)}")
    tree_nodes = sum(nc for recs in records for (_, nc), c in zip(recs, cfgs)
                     if c.decoder.name != "ml")
    if sum(s[0] for s in tr.searches) != tree_nodes:
        errors.append("search spans and sweep records disagree on n_c")
    sweep_s = tr.sweep_seconds()
    if not math.isclose(sum(s[6] for s in tr.spans), sweep_s, rel_tol=1e-6):
        errors.append("span self times do not add up to the sweep time")
    return errors


def run_traced(name, workload, seed, seconds):
    env = environment(seed)
    warm_up(workload, seed)
    frames = workload["sweep_frames"]
    points = len(workload["snr_grid_db"])
    blocks = [libpath.configs(workload, block_seed(seed, b), frames)
              for b in range(min(TRACE_BLOCKS, workload["blocks"]))]
    per_block = points * frames
    tr = tracing.Tracer()
    pool_tr = tracing.Tracer()  # pool counters, from one sweep at 2 or more workers
    plain1, traced1 = [math.inf] * len(blocks), [math.inf] * len(blocks)
    plain2, texts, records, failed = {}, {}, [], set()
    start = time.monotonic()
    passes = 0
    # Each pass sweeps every block untraced and traced with 1 worker; the
    # first also sweeps each block with 2 workers, and block 0 traced with 2
    # for the pool counters.
    while passes < TRACE_REPEATS or time.monotonic() < start + seconds:
        for b, cfgs in enumerate(blocks):
            if any(key[0] == b for key in failed):
                continue
            try:
                if passes == 0:
                    two, plain2[b] = sweep(cfgs, 2)
                    texts[b] = {csv_text(two)}
                    if b == 0:
                        with pool_tr:
                            texts[b].add(csv_text(sweep(cfgs, max(2, workload["workers"]))[0]))
                # odd passes sweep traced first, so that neither side always
                # follows a sweep of the same block
                for traced_side in (passes % 2 == 1, passes % 2 == 0):
                    if traced_side:
                        with tr:
                            traced, dt = sweep(cfgs, 1)
                        traced1[b] = min(traced1[b], dt)
                    else:
                        ref, dt = sweep(cfgs, 1)
                        plain1[b] = min(plain1[b], dt)
                texts[b] |= {csv_text(ref), csv_text(traced)}
                records.extend(frame_records(traced).values())
                if len(texts[b]) != 1:
                    raise AssertionError("traced, untraced, 1- and 2-worker CSVs differ")
            except Exception:  # a sweep that raises or differs fails all of its frames
                print(f"benchmark: block {b}:", file=sys.stderr)
                traceback.print_exc()
                failed |= {(b, p, f) for p in range(points) for f in range(frames)}
        passes += 1
    attempted = len(blocks) * per_block
    traced_frames = attempted * passes
    errors = []
    if not failed:
        errors = wrap_point_errors(tr, blocks[-1], len(blocks) * passes, frames, records)
    for err in errors:
        print(f"benchmark: trace check: {err}", file=sys.stderr)
    if errors:
        failed = {(b, p, f) for b in range(len(blocks)) for p in range(points)
                  for f in range(frames)}
    plain1 = [per_block / t for t in plain1 if t < math.inf]
    traced1 = [per_block / t for t in traced1 if t < math.inf]
    plain2 = [per_block / t for t in plain2.values()]
    values = tr.layer_metrics(traced_frames)
    values.update({
        "sim.pools_created": pool_tr.pools,
        "sim.jobs_submitted": pool_tr.jobs,
        "sim.job_kib": sum(pool_tr.job_bytes) / 1024.0 / pool_tr.jobs if pool_tr.jobs else 0.0,
        "sim.speedup_2w": median(plain2) / median(plain1),
        "sim.trace_overhead_pct": 100.0 * (median(plain1) / median(traced1) - 1.0),
        "sim.traced_frame_ms": 1e3 * tr.sweep_seconds() / traced_frames,
    })
    layer_sum = sum(v for k, v in values.items()
                    if k.endswith("_ms") and k != "sim.traced_frame_ms")
    metrics = {k: (values[k], unit, traced_frames) for k, unit in PER_LAYER_UNITS.items()}
    extra = {
        "untraced_frames_per_s": f"{median(plain1):.6g} (1 worker, median over "
                                 f"{len(plain1)} blocks of the fastest of {passes})",
        "traced_frames_per_s": f"{median(traced1):.6g}",
        "layer_self_ms_sum": f"{layer_sum:.6g} of {values['sim.traced_frame_ms']:.6g} "
                             "traced ms/frame",
        "spans": f"{len(tr.spans)} written to {os.path.relpath(trace_path(name))}",
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    tr.write(trace_path(name))
    emit(name, metrics, list(PER_LAYER_UNITS), env, extra, not errors, attempted, len(failed))


def trace_path(name):
    return os.path.join(OUT_DIR, f"trace_{name}.tsv")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    run = run_traced if args.trace else run_plain
    run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds)


if __name__ == "__main__":
    main()
