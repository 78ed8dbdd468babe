"""Golden bytes of ``latdec decode --trace``.

cli_decode_golden.json pins, for each record below, the number of trace
lines and the sha256 of everything the command writes to stdout: the trace
lines and the result JSON.  The records cover a pohst search that restarts,
the Fano decoder, a search that hits its node budget, a constrained
M-algorithm search and exhaustive ML, which prints no trace lines.  A
change that alters any of them must name the rule it changed and re-record
the fixture with ``python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

import latdec
from latdec import cli

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_decode_golden.json")

LATTICE = {"left": "mmse", "right": "lll+permute", "boundary": "lattice"}
CONSTRAINED = {"left": "zf", "right": "permute", "boundary": "constrained"}

# name: (frame index, preproc, decoder, what the result must show)
CASES = {
    "pohst-restart": (0, LATTICE, {"name": "pohst", "radius": 1e-3}, "restarts"),
    "fano": (5, LATTICE, {"name": "fano", "bias": 1.0, "step": 0.5}, None),
    "se-budget": (2, LATTICE, {"name": "se", "budget": 4}, "budget_hit"),
    "m-alg-constrained": (3, CONSTRAINED, {"name": "m-alg", "M": 2}, None),
    "ml": (4, LATTICE, {"name": "ml"}, None),
}


def _record(frame, preproc, decoder):
    """A decode record of one 3x3 VBLAST frame at 8 dB."""
    cfg = latdec.VblastConfig(M=3, N=3, Q=2, rho=10.0 ** 0.8)
    inst = latdec.sample_vblast(cfg, latdec.frame_rng(23, frame))
    return {"instance": json.loads(inst.to_json()), "preproc": preproc, "decoder": decoder}


def decode_stdout(name, tmpdir):
    """The stdout text of ``latdec decode --trace`` on the record of case name."""
    frame, preproc, decoder, _ = CASES[name]
    path = os.path.join(tmpdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(_record(frame, preproc, decoder), fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["decode", path, "--trace"]) == 0
    return out.getvalue()


def summary(out):
    """(trace lines, sha256 of the stdout bytes)."""
    return len(out[:out.index("{")].splitlines()), hashlib.sha256(out.encode()).hexdigest()


def test_fixture_covers_every_case():
    with open(FIXTURE) as fh:
        assert sorted(json.load(fh)) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_decode_trace_matches_golden(name, tmp_path):
    with open(FIXTURE) as fh:
        want = json.load(fh)[name]
    out = decode_stdout(name, str(tmp_path))
    shows = CASES[name][3]
    if shows is not None:  # the case still exercises the path it was chosen for
        assert json.loads(out[out.index("{"):])[shows]
    lines, digest = summary(out)
    assert lines == want["trace_lines"]
    assert digest == want["sha256"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = []
        for name in CASES:
            lines, digest = summary(decode_stdout(name, tmp))
            rows.append(f'{json.dumps(name)}: '
                        f'{json.dumps({"trace_lines": lines, "sha256": digest})}')
    with open(sys.argv[1] if len(sys.argv) > 1 else FIXTURE, "w") as fh:
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")
