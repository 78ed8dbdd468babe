"""Spans around latdec's public functions, recorded from outside the library.

``Tracer.install()`` replaces each function at the module attribute its
caller resolves at call time (see WRAPS) with a wrapper that records a
span: name, start, end, parent span and frame id.  Spans stay in memory
until ``write()``.  A span's self time is its duration minus that of its
children; calls in this module run nested on one thread, so children never
overlap.

Frames are delimited from outside: ``sim`` starts every frame by calling
``channels.frame_rng(seed, point, frame)``, so each such call closes the
open ``sim.frame`` span and opens the next; ``sim.compare_decoders``
closes the last one.  Pool workers inherit the wrappers when they fork;
there the wrappers only pass calls through, so only the parent's spans
are recorded.
"""

import os
import pickle
import time

import numpy as np
from latdec import channels, lattice, oracle, preprocess, search, sim

# (owner, attribute, span name).  The owner is where the caller looks the
# name up: sim binds prepare_tree and apply_back_map by name, preprocess
# binds qr_decompose by name (it covers the left and the final QR), and
# right_preprocess imports lll_reduce from latdec.lattice inside the call.
WRAPS = [
    (channels, "sample_vblast", "channels.sample_vblast"),
    (channels, "build_isi_instance", "channels.build_isi_instance"),
    (sim, "prepare_tree", "preprocess.prepare_tree"),
    (preprocess, "left_preprocess", "preprocess.left_preprocess"),
    (preprocess, "right_preprocess", "preprocess.right_preprocess"),
    (preprocess, "vblast_greedy_order", "preprocess.vblast_greedy_order"),
    (preprocess, "qr_decompose", "linalg.qr_decompose"),
    (preprocess.TreePlan, "problem_for", "preprocess.problem_for"),
    (lattice, "lll_reduce", "lattice.lll_reduce"),
    (sim, "decode_frame", "sim.decode_frame"),
    (sim, "apply_back_map", "preprocess.apply_back_map"),
    (search, "gbb_run", "search.gbb_run"),
    (search, "fano_decode", "search.fano_decode"),
    (search, "restart_schedule", "search.restart_schedule"),
    (oracle, "exhaustive_ml", "oracle.exhaustive_ml"),
]

# per-layer self-time metric (ms per frame) of every span name
SELF_METRIC = {
    "channels.frame_rng": "channels.sample_ms",
    "channels.sample_vblast": "channels.sample_ms",
    "channels.build_isi_instance": "channels.sample_ms",
    "preprocess.prepare_tree": "preprocess.plan_ms",
    "preprocess.right_preprocess": "preprocess.plan_ms",
    "preprocess.left_preprocess": "preprocess.left_ms",
    "preprocess.vblast_greedy_order": "preprocess.order_ms",
    "preprocess.problem_for": "preprocess.problem_for_ms",
    "preprocess.apply_back_map": "preprocess.back_map_ms",
    "lattice.lll_reduce": "lattice.lll_ms",
    "linalg.qr_decompose": "linalg.qr_ms",
    "search.gbb_run": "search.search_ms",
    "search.fano_decode": "search.search_ms",
    "search.restart_schedule": "search.search_ms",
    "oracle.exhaustive_ml": "oracle.ml_ms",
    "sim.compare_decoders": "sim.self_ms",
    "sim.frame": "sim.self_ms",
    "sim.decode_frame": "sim.self_ms",
}
SEARCH_SPANS = ("search.gbb_run", "search.fano_decode", "search.restart_schedule")


class Tracer:
    """Records spans of the calling process while installed."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []      # (id, parent, frame, name, start, end, self) in seconds
        self.stack = []      # open spans: [id, name, start, child seconds]
        self.frame = -1
        self.opened = 0
        self.searches = []   # (n_c, unique, restarts, budget_hit) of top-level searches
        self.pools = 0
        self.jobs = 0
        self.job_bytes = []  # pickled size of each job's arguments and of each result
        self._saved = []

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        self.stack.append([self.opened, name, time.perf_counter(), 0.0])
        self.opened += 1

    def _close(self):
        end = time.perf_counter()
        sid, name, start, child = self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, parent[0] if parent else -1, self.frame, name,
                           start, end, dur - child))

    def _span(self, name, fn):
        tracer = self
        search_span = name in SEARCH_SPANS

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            outer = search_span and not any(s[1] in SEARCH_SPANS for s in tracer.stack)
            tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if outer:
                tracer.searches.append((out.node_generations, out.unique_nodes,
                                        out.restarts, out.budget_hit))
            return out
        return traced

    def _frame_rng(self, fn):
        tracer = self

        def traced(seed, *key):
            if os.getpid() != tracer.pid or len(key) != 2:
                return fn(seed, *key)
            if tracer.stack and tracer.stack[-1][1] == "sim.frame":
                tracer._close()
            tracer.frame += 1
            tracer._open("sim.frame")
            tracer._open("channels.frame_rng")
            try:
                return fn(seed, *key)
            finally:
                tracer._close()
        return traced

    def _sweep(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._open("sim.compare_decoders")
            try:
                return fn(*args, **kwargs)
            finally:
                if tracer.stack[-1][1] == "sim.frame":
                    tracer._close()
                tracer._close()
        return traced

    def _pool_class(self, base):
        tracer = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                tracer.pools += 1
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                tracer.jobs += 1
                tracer.job_bytes.append(len(pickle.dumps((fn, args, kwargs))))
                fut = super().submit(fn, *args, **kwargs)
                fut.add_done_callback(
                    lambda f: tracer.job_bytes.append(len(pickle.dumps(f.result()))))
                return fut
        return CountingPool

    # -- installation -------------------------------------------------------

    def install(self):
        def put(owner, attr, new):
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for owner, attr, name in WRAPS:
            put(owner, attr, self._span(name, getattr(owner, attr)))
        put(channels, "frame_rng", self._frame_rng(channels.frame_rng))
        put(sim, "compare_decoders", self._sweep(sim.compare_decoders))
        put(sim, "ProcessPoolExecutor", self._pool_class(sim.ProcessPoolExecutor))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------

    def counts(self):
        out = {}
        for span in self.spans:
            out[span[3]] = out.get(span[3], 0) + 1
        return out

    def layer_metrics(self, frames):
        """Per-layer self time (ms per frame) and call counts of the recorded spans."""
        selfs = dict.fromkeys(sorted(set(SELF_METRIC.values())), 0.0)
        for span in self.spans:
            selfs[SELF_METRIC[span[3]]] += span[6]
        m = {k: 1e3 * v / frames for k, v in selfs.items()}
        counts = self.counts()
        nc = np.array([s[0] for s in self.searches], dtype=float)
        nodes = float(nc.sum())
        unique = float(sum(s[1] for s in self.searches))
        m.update({
            "lattice.lll_calls": counts.get("lattice.lll_reduce", 0) / frames,
            "linalg.qr_calls": counts.get("linalg.qr_decompose", 0) / frames,
            "preprocess.plans_built": counts.get("preprocess.prepare_tree", 0) / frames,
            "oracle.ml_calls": counts.get("oracle.exhaustive_ml", 0) / frames,
            "search.nodes": nodes / frames,
            "search.us_per_node": 1e3 * m["search.search_ms"] * frames / nodes if nodes else 0.0,
            "search.nc_p99": float(np.percentile(nc, 99)) if nc.size else 0.0,
            "search.fano_revisit_ratio": nodes / unique if unique else 0.0,
            "search.budget_hits": sum(int(s[3]) for s in self.searches),
            "search.restarts": sum(s[2] for s in self.searches),
        })
        return m

    def sweep_seconds(self):
        return sum(s[5] - s[4] for s in self.spans if s[3] == "sim.compare_decoders")

    def write(self, path):
        """Write the spans as tab-separated text, times in microseconds."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tframe\tname\tstart_us\tend_us\tself_us\n")
            t0 = self.spans[0][4] if self.spans else 0.0
            for sid, parent, frame, name, start, end, own in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{frame}\t{name}\t{1e6 * (start - t0):.1f}\t"
                         f"{1e6 * (end - t0):.1f}\t{1e6 * own:.1f}\n")
