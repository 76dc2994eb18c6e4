#!/usr/bin/env python3
"""Sweep the Trotter step size and record exchange fidelity as CSV.

Reproduces the plateau-then-collapse shape of fidelity vs dt.
"""

import argparse
import os
import sys
import tempfile

from isingbraid.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--values", default="0.1,0.2,0.4,0.6,0.8,1.0,1.2")
    ap.add_argument("--out", default="fidelity_vs_dt.csv")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--update-mode", default="linear",
                    choices=["stepped", "linear"])
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "trotter_step_sweep.cfg")
        with open(cfg, "w") as f:
            f.write(f"scenario = braid\ninit = ALL_UP\n"
                    f"update_mode = {args.update_mode}\n"
                    f"axis = dt\nvalues = {args.values}\n")
        rc = cli_main(["sweep", "--config", cfg, "--out", args.out,
                       "--seed", str(args.seed), "--jobs", str(args.jobs)])
    if rc == 0:
        print(f"wrote {args.out}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
