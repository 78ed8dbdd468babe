"""Command line front-end.

Subcommands:
  simulate <config.json>     SNR sweep; CSV to --out, machine report to --json
  compare  <config.json>...  same frames through several configs, joined CSV
  decode   <instance.json>   replay a single exported frame (with --trace)
  reduce   <basis.json>      LLL utility: {"basis": [[...]]} -> reduced + T

Config schema (JSON object; unknown keys are rejected):
  channel   {"type": "vblast", "M", "N", "Q", "rho"}
            {"type": "ld", "M", "N", "T", "Q", "generator_seed" | "generator"}
            {"type": "isi", "taps", "frame_len", "Q", "gen_polys"}
  preproc   {"left": "zf"|"mmse", "right": "none"|"lll"|"permute"|"lll+permute",
             "boundary": "lattice"|"constrained", "lll_delta", "lll_deep"}
  decoder   {"name": "se"|"babai"|"stack"|"fano"|"pohst"|"vb"|"ir"|"ep"|
             "m-alg"|"t-alg"|"ml", ...decoder parameters..., "budget"}
  snr_grid_db [..], trials, target_frame_errors, seed, noiseless,
  fixed_channel, shadow_oracle
"""

import argparse
import json
import sys

import numpy as np

from . import sim
from .channels import ChannelInstance
from .lattice import lll_reduce
from .preprocess import form_tree
from .search import trace_lines


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _report_json(report):
    return {"decoder": report.decoder, "rows": report.rows()}


def cmd_simulate(args):
    cfg = sim.parse_config(_load_json(args.config))
    if args.shadow_oracle:
        cfg.shadow_oracle = True
    report = sim.run_sweep(cfg, workers=args.workers, dump_failures=args.dump_failures)
    csv_text = report.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(_report_json(report), fh, indent=1)
    shadows = sum(p.shadow_disagreements for p in report.points)
    if cfg.shadow_oracle:
        print(f"shadow oracle disagreements: {shadows}", file=sys.stderr)
    return 0


def cmd_compare(args):
    cfgs = [sim.parse_config(_load_json(p)) for p in args.configs]
    reports = sim.compare_decoders(cfgs, workers=args.workers)
    lines = ["decoder," + ",".join(sim.CSV_COLUMNS)]
    for rep in reports:
        for row in rep.rows():
            cells = [repr(v) if isinstance(v, float) else str(v)
                     for v in (row[c] for c in sim.CSV_COLUMNS)]
            lines.append(rep.decoder + "," + ",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump([_report_json(r) for r in reports], fh, indent=1)
    return 0


def cmd_decode(args):
    rec = _load_json(args.instance)
    inst = ChannelInstance.from_json(json.dumps(rec["instance"]))
    pre = sim.parse_preproc(rec.get("preproc"))
    dec = sim.parse_decoder(rec["decoder"])
    problem = None
    if dec.name != "ml":
        problem = form_tree(inst.received, inst.H, inst.code, left_mode=pre.left,
                            right_mode=pre.right, boundary=pre.boundary,
                            lll_delta=pre.lll_delta, lll_deep=pre.lll_deep)
    res = sim.decode_frame(inst, problem, dec, trace=args.trace)
    if res.trace is not None:
        for line in trace_lines(res.trace):
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
    rec = _load_json(args.basis)
    B = np.asarray(rec["basis"], dtype=float)
    reduced, record = lll_reduce(B, delta=args.delta, deep=args.deep)
    print(json.dumps({
        "reduced": reduced.tolist(),
        "T": [[int(v) for v in row] for row in record.T],
        "T_inv": [[int(v) for v in row] for row in record.T_inv],
    }, indent=1))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="latdec", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run an SNR sweep")
    p.add_argument("config")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--json", help="machine-readable report path")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--shadow-oracle", action="store_true",
                   help="cross-check every frame against exhaustive ML")
    p.add_argument("--dump-failures", help="directory for replayable failing frames")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="run several configs on identical frames")
    p.add_argument("configs", nargs="+")
    p.add_argument("--out")
    p.add_argument("--json")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("decode", help="replay one exported frame")
    p.add_argument("instance")
    p.add_argument("--trace", action="store_true", help="dump one line per generated node")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("reduce", help="LLL-reduce a basis")
    p.add_argument("basis")
    p.add_argument("--delta", type=float, default=0.99)
    p.add_argument("--deep", action="store_true")
    p.set_defaults(fn=cmd_reduce)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
