"""Command line front-end.

Subcommands:
  simulate <config.json>     SNR sweep; CSV to --out, machine report to --json
  compare  <config.json>...  same frames through several configs, joined CSV
  decode   <instance.json>   replay a dumped frame as the sweep decoded it (--trace)
  reduce   <basis.json>      LLL utility: {"basis": [[...]]} -> reduced + T

Config schema (JSON object; unknown keys are rejected):
  channel   {"type": "vblast", "M", "N", "Q"}
            {"type": "ld", "M", "N", "Q", "T", "generator" | "generator_seed"}
            {"type": "isi", "taps", "frame_len", "Q", "gen_polys"}
            (no SNR field: the SNR of each point comes from snr_grid_db)
  preproc   {"left": "zf"|"mmse", "right": "none"|"lll"|"permute"|"lll+permute",
             "boundary": "lattice"|"constrained", "lll_delta", "lll_deep"}
  decoder   {"name": "se"|"babai"|"stack"|"fano"|"pohst"|"vb"|"ir"|"ep"|
             "m-alg"|"t-alg"|"ml", ...decoder parameters..., "budget"}
  snr_grid_db [..], trials, target_frame_errors, seed, noiseless,
  fixed_channel, shadow_oracle

The decoder names and their parameters come from one table, sim.DECODERS;
the channel types and their fields from another, sim.CHANNELS.  A bad
config, record or basis ends in one line, `latdec: error: ...`, status 2.
"""

import argparse
import json
import sys

import numpy as np

from . import sim
from .channels import _fields, _record_array
from .errors import LatdecError
from .lattice import lll_reduce
from .search import trace_lines


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _report_json(report):
    """The report's rows, each with its point's restarts, budget hits and
    shadow-oracle disagreements, so that no count reaches only stderr."""
    return {"decoder": report.decoder,
            "rows": [{**p.row(), "shadow_disagreements": p.shadow_disagreements}
                     for p in report.points]}


def _write_outputs(args, csv_text, report_json):
    """CSV to --out (default stdout), the machine report to --json if given."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report_json, fh, indent=1)


def cmd_simulate(args):
    d = _load_json(args.config)
    if args.shadow_oracle and isinstance(d, dict):
        d = {**d, "shadow_oracle": True}  # checked by parse_config like the config field
    cfg = sim.parse_config(d)
    report = sim.run_sweep(cfg, workers=args.workers, dump_failures=args.dump_failures)
    _write_outputs(args, report.to_csv(), _report_json(report))
    shadows = sum(p.shadow_disagreements for p in report.points)
    if cfg.shadow_oracle:
        print(f"shadow oracle disagreements: {shadows}", file=sys.stderr)
    return 0


def cmd_compare(args):
    cfgs = [sim.parse_config(_load_json(p)) for p in args.configs]
    reports = sim.compare_decoders(cfgs, workers=args.workers)
    lines = [f"decoder,{reports[0].csv_lines()[0]}"]
    lines += [f"{rep.decoder},{line}" for rep in reports for line in rep.csv_lines()[1:]]
    _write_outputs(args, "\n".join(lines) + "\n", [_report_json(r) for r in reports])
    return 0


def cmd_decode(args):
    trace = []
    inst, res = sim.replay(_load_json(args.instance), on_node=trace.append if args.trace else None)
    for line in trace_lines(trace):
        print(line)
    result = {
        "decoded_info": [int(v) for v in res.info],
        "x_true": [int(v) for v in inst.x_true],
        "frame_error": bool(not np.array_equal(res.info, inst.x_true)),
        "node_generations": res.nc,
        "distance": res.distance,
        "restarts": res.restarts,
        "budget_hit": res.budget_hit,
    }
    print(json.dumps(result, indent=1))
    return 0


def cmd_reduce(args):
    rec = _fields("basis record", _load_json(args.basis), ("basis",))
    B = _record_array(rec, "basis", 2, section="basis record")
    reduced, record = lll_reduce(B, delta=args.delta, deep=args.deep)
    print(json.dumps({
        "reduced": reduced.tolist(),
        "T": [[int(v) for v in row] for row in record.T],
        "T_inv": [[int(v) for v in row] for row in record.T_inv],
    }, indent=1))
    return 0


def _checked(kind, rule):
    """argparse type: kind(text) if it meets a (what, predicate) rule of sim's config tables."""
    what, ok = rule

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_WORKERS = _checked(int, sim._at_least(1))


def main(argv=None):
    ap = argparse.ArgumentParser(prog="latdec", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run an SNR sweep")
    p.add_argument("config")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--json", help="machine-readable report path")
    p.add_argument("--workers", type=_WORKERS, default=1)
    p.add_argument("--shadow-oracle", action="store_true",
                   help="cross-check every frame against exhaustive ML")
    p.add_argument("--dump-failures", help="directory for replayable failing frames")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="run several configs on identical frames")
    p.add_argument("configs", nargs="+")
    p.add_argument("--out")
    p.add_argument("--json")
    p.add_argument("--workers", type=_WORKERS, default=1)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("decode", help="replay one exported frame")
    p.add_argument("instance")
    p.add_argument("--trace", action="store_true", help="dump one line per generated node")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("reduce", help="LLL-reduce a basis")
    p.add_argument("basis")
    p.add_argument("--delta", type=_checked(float, sim._PREPROC_FIELD_RULES["lll_delta"]),
                   default=0.99)
    p.add_argument("--deep", action="store_true")
    p.set_defaults(fn=cmd_reduce)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except LatdecError as err:  # a bad config, record or basis: one line, usage status
        print(f"latdec: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
