"""Time from a fresh interpreter to the first decoded frame of a workload.

run.py starts ``python3 setup_probe.py <workload> <seed>`` and notes the
moment it did.  The probe imports latdec from the checkout, parses the
workload's configs, draws the first frame of the first sweep block (for
ISI this builds the lru-cached Construction-A lattice and its explicit
label list), builds the first plan and decodes the frame with every
config.  Then it prints ``time.monotonic()``, a clock that all processes
on Linux share, so the parent can subtract its own start time.
"""

import sys
import time


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    import libpath
    from workloads import WORKLOADS, block_seed

    cfgs = libpath.configs(WORKLOADS[name], block_seed(seed, 0), 1)
    ch = libpath.channel_at(cfgs[0], cfgs[0].snr_grid_db[0])
    inst = libpath.draw_frame(ch, cfgs[0].seed, 0, 0)
    libpath.decode(inst, cfgs, {})
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
