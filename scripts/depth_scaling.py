#!/usr/bin/env python3
"""Emit circuit depth vs system size (no simulation) as CSV.

Uses the sweep command in depth-only mode, so the output matches the CLI's
CSV schema exactly.
"""

import argparse
import os
import sys
import tempfile

from isingbraid.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="6,10,14,18,22")
    ap.add_argument("--out", default="depth_scaling.csv")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "depth_scaling.cfg")
        with open(cfg, "w") as f:
            f.write(f"scenario = braid\ninit = ALL_UP\n"
                    f"axis = N_s\nvalues = {args.sizes}\n")
        rc = cli_main(["sweep", "--config", cfg, "--out", args.out,
                       "--depth-only"])
    if rc == 0:
        print(f"wrote {args.out}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
