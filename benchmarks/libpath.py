"""latdec from this checkout, and the library path of latdec's README.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
imports latdec from there; it exits with an error when the checkout has no
latdec sources, so the benchmark never measures some other installed copy.
"""

import os
import sys
import time
from dataclasses import replace

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if not os.path.isfile(os.path.join(SRC, "latdec", "__init__.py")):
    raise SystemExit(f"benchmark: no latdec sources under {SRC}")
sys.path.insert(0, SRC)

from latdec import channels, preprocess, sim  # noqa: E402

if not os.path.abspath(sim.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"benchmark: imported latdec from {sim.__file__}, not from {SRC}")


def configs(workload, seed, frames):
    """Parsed ExperimentConfigs of one sweep block, one per decoder of the workload."""
    return [sim.parse_config({
        "channel": workload["channel"],
        "preproc": preproc,
        "decoder": decoder,
        "snr_grid_db": workload["snr_grid_db"],
        "trials": frames,
        "target_frame_errors": None,
        "seed": seed,
    }) for preproc, decoder in workload["decoders"]]


def channel_at(cfg, snr_db):
    """The config's channel at one SNR point, as the sweep builds it."""
    return replace(cfg.channel, rho=10.0 ** (snr_db / 10.0))


def draw_frame(ch, seed, point, frame):
    """Frame ``frame`` of SNR point ``point``: the sweep's RNG substream and sampler."""
    rng = channels.frame_rng(seed, point, frame)
    if isinstance(ch, channels.IsiConfig):
        return channels.build_isi_instance(ch, rng)
    return channels.sample_vblast(ch, rng)


def decode(inst, cfgs, plans):
    """Decode one frame with every config: plan (cached in ``plans`` by
    preprocessing spec), ``problem_for`` and ``decode_frame``."""
    results = []
    for cfg in cfgs:
        problem = None
        if cfg.decoder.name != "ml":
            p = cfg.preproc
            key = (p.left, p.right, p.boundary, p.lll_delta, p.lll_deep)
            if key not in plans:
                plans[key] = preprocess.prepare_tree(
                    inst.H, inst.code, left_mode=p.left, right_mode=p.right,
                    boundary=p.boundary, lll_delta=p.lll_delta, lll_deep=p.lll_deep)
            problem = plans[key].problem_for(inst.received)
        results.append(sim.decode_frame(inst, problem, cfg.decoder))
    return results


def library_block(cfgs, frames):
    """Decode frames [0, frames) of every SNR point of one sweep block.

    The plan is reused while the channel is static (ISI) and rebuilt for
    every frame otherwise.  Yields ``(point, frame, seconds, inst, results)``
    with the wall time from sampling through the last decode; a frame that
    raises yields ``results=None``.
    """
    base = cfgs[0]
    static = isinstance(base.channel, channels.IsiConfig)
    for point, snr_db in enumerate(base.snr_grid_db):
        ch = channel_at(base, snr_db)
        plans = {}
        for frame in range(frames):
            t0 = time.perf_counter()
            inst = results = None
            try:
                if not static:
                    plans = {}
                inst = draw_frame(ch, base.seed, point, frame)
                results = decode(inst, cfgs, plans)
            except Exception as err:  # a frame that raises counts as failed
                print(f"benchmark: frame {point}/{frame} raised {err!r}", file=sys.stderr)
            yield point, frame, time.perf_counter() - t0, inst, results
