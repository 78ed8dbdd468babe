"""Golden behaviour of the tree searches, frame by frame.

search_golden.json was recorded from the search engine as it stood before
its three search loops were merged into one.  Each case runs one decoder on
a few VBLAST frames and must reproduce, exactly, the node counts stored in
clear and one sha256 over every frame's label, distance, n_c, unique nodes,
restarts, budget flag and trace lines.  A change that alters any of them must name the rule it changed and
re-record the fixture with ``python tests/test_search_golden.py``.

Re-recorded since:
  * greedy ordering tie rule: post-nulling gains within a relative 1e-9 of
    the largest count as tied, and the last tied column is detected first
    (the embedding's Re/Im column pairs have exactly equal gains).
  * effective LLL and O(m^3) ordering: node counts, labels and traces are
    unchanged, but the LLL-reduced basis is now B @ T_inv, so distances
    and path metrics moved in the last bits (at most 6.9e-15 relative).
  * restart_schedule keeps the trace and unique-node count of every
    attempt, not only the last one: the 22 cases with at least one restart
    were re-recorded; their node counts and labels did not change.
  * restart_schedule also sums the per-level counts of every attempt, so
    they add up to n_c: the same 22 cases were re-recorded; node counts,
    labels and trace lines did not change.
  * the per-level counts and the largest Fano threshold left the search
    outcome, and so the digest; every digest was re-recorded, the n_c lists
    did not change, and the earlier code gives the same digests when its
    records leave out those two fields.
"""

import hashlib
import json
import os
import sys
from dataclasses import replace

import pytest

import latdec
from latdec import search
from latdec.errors import EmptySearchSpace

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "search_golden.json")

# (name, VBLAST config, SNR in dB, frames)
CHANNELS = [
    ("v4q2", dict(M=4, N=4, Q=2), 4.0, 8),
    ("v4q4", dict(M=4, N=4, Q=4), 11.0, 6),
    ("v8q2", dict(M=8, N=8, Q=2), 6.0, 5),
]
BOUNDARIES = {"constrained": ("mmse", "permute"), "lattice": ("mmse", "lll+permute")}


def _restarted(policy):
    return lambda p, on_node: search.restart_schedule(p, policy(p.m), on_node=on_node)


def _plain(policy):
    return lambda p, on_node: search.gbb_run(p, policy(p.m), on_node=on_node)


DECODERS = {
    "se": _plain(lambda m: search.policy_se()),
    "babai": _plain(lambda m: search.policy_babai()),
    "stack0": _plain(lambda m: search.policy_stack(0.0)),
    "stack1": _plain(lambda m: search.policy_stack(1.0)),
    "fano": lambda p, on_node: search.fano_decode(p, bias=1.0, step=1.0, on_node=on_node),
    "pohst": _restarted(lambda m: search.policy_pohst(0.5 * m)),
    "vb": _restarted(lambda m: search.policy_vb(0.5 * m)),
    "ir": _restarted(lambda m: search.policy_ir([1.0 * k + 2.0 for k in range(1, m + 1)])),
    "ep": _restarted(lambda m: search.policy_ep([0.25 * m + 0.5 * k for k in range(1, m + 1)])),
    "m-alg": _plain(lambda m: search.policy_m_algorithm(3)),
    "t-alg": _plain(lambda m: search.policy_t_algorithm(3.0)),
}

# budget-hit and restart paths, on the 8x8 frames
EXTRA = {
    "se-budget": _plain(lambda m: replace(search.policy_se(), node_budget=6)),
    "se-late-budget": _plain(lambda m: replace(search.policy_se(), node_budget=30)),
    "stack-budget": _plain(lambda m: replace(search.policy_stack(0.5), node_budget=12)),
    "fano-budget": lambda p, on_node: search.fano_decode(p, bias=0.5, step=0.5, node_budget=20,
                                                         on_node=on_node),
    "pohst-budget": _restarted(lambda m: replace(search.policy_pohst(1e9), node_budget=40)),
    "t-alg-budget": _plain(lambda m: replace(search.policy_t_algorithm(3.0), node_budget=9)),
    "pohst-restart": _restarted(lambda m: search.policy_pohst(1e-3)),
    "ir-restart": _restarted(lambda m: search.policy_ir([0.01 * k for k in range(1, m + 1)])),
    "pohst-empty": _plain(lambda m: search.policy_pohst(0.3)),
}


def _problems(channel, boundary):
    _, kwargs, snr_db, frames = next(c for c in CHANNELS if c[0] == channel)
    cfg = latdec.VblastConfig(rho=10.0 ** (snr_db / 10.0), **kwargs)
    left, right = BOUNDARIES[boundary]
    for frame in range(frames):
        inst = latdec.sample_vblast(cfg, latdec.frame_rng(17, frame))
        yield latdec.form_tree(inst.received, inst.H, inst.code, left_mode=left,
                               right_mode=right, boundary=boundary)


def _cases():
    for channel, *_ in CHANNELS:
        for boundary in BOUNDARIES:
            for dec in DECODERS:
                yield f"{channel}/{boundary}/{dec}", channel, boundary, DECODERS[dec]
    for boundary in BOUNDARIES:
        for dec in EXTRA:
            yield f"v8q2/{boundary}/{dec}", "v8q2", boundary, EXTRA[dec]


def _frame_record(run, problem):
    """(n_c, everything the digest covers) of one search; errors are outcomes too."""
    trace = []
    try:
        out = run(problem, trace.append)
    except EmptySearchSpace as err:
        return err.node_generations, ("EmptySearchSpace", err.node_generations)
    except ValueError as err:
        return None, ("ValueError", str(err))
    return out.node_generations, (
        out.decoded_label, repr(out.distance), out.node_generations, out.unique_nodes,
        out.restarts, out.budget_hit, search.trace_lines(trace))


def run_case(channel, boundary, run):
    """n_c list and sha256 digest of one case."""
    ncs, records = [], []
    for problem in _problems(channel, boundary):
        nc, rec = _frame_record(run, problem)
        ncs.append(nc)
        records.append(rec)
    return ncs, hashlib.sha256(repr(records).encode()).hexdigest()


def _load():
    with open(FIXTURE) as fh:
        return json.load(fh)


CASES = list(_cases())


def test_fixture_covers_every_case():
    assert sorted(_load()) == sorted(c[0] for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_search_matches_golden(case):
    key, channel, boundary, run = case
    want = _load()[key]
    ncs, digest = run_case(channel, boundary, run)
    assert ncs == want["n_c"]
    assert digest == want["sha256"]


if __name__ == "__main__":
    lines = []
    for key, channel, boundary, run in CASES:
        ncs, digest = run_case(channel, boundary, run)
        lines.append(f'{json.dumps(key)}: {json.dumps({"n_c": ncs, "sha256": digest})}')
    with open(sys.argv[1] if len(sys.argv) > 1 else FIXTURE, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
