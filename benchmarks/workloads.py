"""The benchmark's workloads: latdec experiment configs and the work per run.

Plain data, no latdec import, so that the set-up probe can time the import
of latdec itself.  Each workload names the ROADMAP items it serves and why
it exists; README.md in this directory repeats the reasons in prose.
BENCHMARK.json gates ``mimo_lll`` and ``isi_static``; README.md says why
``mimo_search`` and ``sweep_parallel`` run the same way but are not gated.

One pass of a run is fixed work: ``blocks`` sweep blocks, each one
``sim.compare_decoders`` call over all SNR points with its own config seed,
of ``sweep_frames`` frames per point; the library-path loop decodes frames
[0, ``lib_frames``) of every point of every block, the same frames where
the two ranges overlap.  run.py repeats passes for ``--seconds``.  The
library path has at least 1000 frames a pass, so that p99 has ten samples
beyond it, and ``sweep_parallel`` has two 512-frame chunks per point, so
that both workers get one.
"""

ISI_TAPS = [0.848, -0.424, 0.2545, -0.1696, 0.0848]

_MMSE_LLL = {"left": "mmse", "right": "lll+permute", "boundary": "lattice"}
_ZF_BOX = {"left": "zf", "right": "none", "boundary": "constrained"}
_FANO = {"name": "fano", "bias": 1.0, "step": 1.0}

WORKLOADS = {
    "mimo_lll": {
        "why": "per-frame preprocessing dominates (LLL about two thirds of a frame); "
               "search is a few percent",
        "roadmap": [1, 2],
        "channel": {"type": "vblast", "M": 8, "N": 8, "Q": 2},
        "decoders": [(_MMSE_LLL, _FANO)],
        "snr_grid_db": [13.0],
        "workers": 1,
        "blocks": 5,
        "sweep_frames": 30,
        "lib_frames": 200,
    },
    "mimo_search": {
        "why": "tree search is the largest layer, with a heavy n_c tail; depth-first (se) "
               "and best-first (stack) drivers on the same frames; no LLL",
        "roadmap": [1, 3],
        "channel": {"type": "vblast", "M": 10, "N": 10, "Q": 2},
        "decoders": [(_ZF_BOX, {"name": "se"}), (_ZF_BOX, {"name": "stack", "bias": 0.0})],
        "snr_grid_db": [13.0],
        "workers": 1,
        "blocks": 5,
        "sweep_frames": 300,
        "lib_frames": 450,
    },
    "isi_static": {
        "why": "static channel: one plan per chunk, so the back-map scan and "
               "exhaustive ML dominate instead of per-frame planning",
        "roadmap": [1, 3],
        "channel": {"type": "isi", "taps": ISI_TAPS, "frame_len": 24, "gen_polys": [5, 7]},
        "decoders": [(_MMSE_LLL, _FANO), (_MMSE_LLL, {"name": "ml"})],
        "snr_grid_db": [4.0, 6.5],
        "workers": 1,
        "blocks": 4,
        "sweep_frames": 64,
        "lib_frames": 384,
    },
    "sweep_parallel": {
        "why": "cheap frames over four SNR points with 2 workers, so the process "
               "pool and chunk pickling of sim are a visible cost",
        "roadmap": [1, 5],
        "channel": {"type": "vblast", "M": 4, "N": 4, "Q": 2},
        "decoders": [(_ZF_BOX, {"name": "se"})],
        "snr_grid_db": [6.0, 9.0, 12.0, 15.0],
        "workers": 2,
        "blocks": 3,
        "sweep_frames": 1024,
        "lib_frames": 128,
    },
}


def block_seed(seed, block):
    """Config seed of one sweep block; distinct for every (seed, block) pair."""
    return seed * 64 + block
