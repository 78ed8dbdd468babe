"""Golden behaviour of the experiment runner, sweep by sweep.

sim_golden.json was recorded from the runner as it stood before its
per-decoder lookups were merged into one decoder table.  Each case runs
one small ``run_sweep`` with the shadow oracle on and collected frame
records, and must reproduce one sha256 over the CSV bytes and every frame
record (point, frame, error, n_c, unique nodes, distance, decided
information symbols) and the shadow-oracle disagreement counts.  The ISI
case hashes the CSV and JSON that ``latdec compare`` writes for a
fano/ml/pohst triple.  A change that alters any of them must name the rule
it changed and re-record the fixture with ``python tests/test_sim_golden.py``.
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

from latdec import cli, sim

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sim_golden.json")

# name: (channel section, lattice dimension, SNR grid in dB)
CHANNELS = {
    "v2": ({"type": "vblast", "M": 2, "N": 2, "Q": 2}, 4, [6.0, 12.0]),
    "ld": ({"type": "ld", "M": 2, "N": 2, "T": 2, "Q": 2, "generator_seed": 3}, 8, [8.0, 14.0]),
}
BOUNDARIES = {
    "constrained": {"left": "zf", "right": "permute", "boundary": "constrained"},
    "lattice": {"left": "mmse", "right": "lll+permute", "boundary": "lattice"},
}


def _decoders(m):
    """Every decoder name once, with parameters sized for dimension m."""
    return {
        "se": {"name": "se"},
        "babai": {"name": "babai"},
        "stack": {"name": "stack", "bias": 0.5},
        "fano": {"name": "fano", "bias": 1.0, "step": 0.5},
        "pohst": {"name": "pohst", "radius": 0.5 * m},
        "vb": {"name": "vb", "radius": 0.5 * m},
        "ir": {"name": "ir", "bounds": [1.0 * k + 2.0 for k in range(1, m + 1)]},
        "ep": {"name": "ep", "weights": [0.25 * m + 0.5 * k for k in range(1, m + 1)]},
        "m-alg": {"name": "m-alg", "M": 3},
        "t-alg": {"name": "t-alg", "T": 3.0},
        "ml": {"name": "ml"},
    }


# budget-hit and restart paths, on the VBLAST channel
EXTRA = {
    "se-budget": {"name": "se", "budget": 5},
    "stack-budget": {"name": "stack", "bias": 0.5, "budget": 6},
    "fano-budget": {"name": "fano", "bias": 0.5, "step": 0.5, "budget": 9},
    "pohst-budget": {"name": "pohst", "radius": 1e9, "budget": 12},
    "t-alg-budget": {"name": "t-alg", "T": 3.0, "budget": 7},
    "pohst-restart": {"name": "pohst", "radius": 1e-3},
    "ir-restart": {"name": "ir", "bounds": [0.01 * k for k in range(1, 5)]},
}

ISI = {"type": "isi", "taps": [0.848, -0.424, 0.2545, -0.1696, 0.0848],
       "frame_len": 12, "gen_polys": [5, 7]}
ISI_DECODERS = [{"name": "fano", "bias": 1.0, "step": 1.0}, {"name": "ml"},
                {"name": "pohst", "radius": 4.0}]


def _config(channel, preproc, decoder, snr_grid_db, **over):
    cfg = {"channel": channel, "preproc": preproc, "decoder": decoder,
           "snr_grid_db": snr_grid_db, "trials": 24, "target_frame_errors": None,
           "seed": 7, "shadow_oracle": True}
    cfg.update(over)
    return cfg


def _cases():
    """(case name, config dict) of every sweep case."""
    for ch_name, (channel, m, grid) in CHANNELS.items():
        for boundary, preproc in BOUNDARIES.items():
            for dec_name, decoder in _decoders(m).items():
                if dec_name in ("m-alg", "t-alg") and boundary != "constrained":
                    continue  # these need a box
                yield f"{ch_name}/{boundary}/{dec_name}", _config(channel, preproc, decoder, grid)
    channel, _, grid = CHANNELS["v2"]
    for dec_name, decoder in EXTRA.items():
        yield f"v2/constrained/{dec_name}", _config(channel, BOUNDARIES["constrained"],
                                                     decoder, grid)
    yield "v2/lattice/se-fixed-channel", _config(channel, BOUNDARIES["lattice"],
                                                 {"name": "se"}, grid, fixed_channel=True)


def sweep_digest(cfg_dict):
    report = sim.run_sweep(sim.parse_config(cfg_dict), collect_frames=True)
    frames = [(p, f, int(err), int(nc), int(uniq), float(dist).hex(), tuple(int(v) for v in info))
              for p, f, err, nc, uniq, dist, info in report.frames]
    shadows = [p.shadow_disagreements for p in report.points]
    blob = report.to_csv().encode() + repr((frames, shadows)).encode()
    return hashlib.sha256(blob).hexdigest()


def compare_digest():
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, decoder in enumerate(ISI_DECODERS):
            path = os.path.join(tmp, f"cfg{i}.json")
            with open(path, "w") as fh:
                json.dump(_config(ISI, BOUNDARIES["lattice"], decoder, [5.0, 8.0],
                                  shadow_oracle=False), fh)
            paths.append(path)
        out, js = os.path.join(tmp, "out.csv"), os.path.join(tmp, "out.json")
        assert cli.main(["compare", *paths, "--out", out, "--json", js]) == 0
        with open(out, "rb") as fh_out, open(js, "rb") as fh_js:
            return hashlib.sha256(fh_out.read() + fh_js.read()).hexdigest()


CASES = list(_cases())
COMPARE_CASE = "isi/lattice/compare-fano-ml-pohst"


def _load():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_every_case():
    assert sorted(_load()) == sorted([c[0] for c in CASES] + [COMPARE_CASE])


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_sweep_matches_golden(case):
    name, cfg = case
    assert sweep_digest(cfg) == _load()[name]


def test_compare_matches_golden():
    assert compare_digest() == _load()[COMPARE_CASE]


if __name__ == "__main__":
    golden = {name: sweep_digest(cfg) for name, cfg in CASES}
    golden[COMPARE_CASE] = compare_digest()
    with open(sys.argv[1] if len(sys.argv) > 1 else FIXTURE, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
