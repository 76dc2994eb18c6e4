#!/usr/bin/env python3
"""Sweep the per-gate Pauli error rate and record mean trajectory fidelity.

Writes a small CSV: eps,mean_fidelity,stderr,trajectories. Each point's
wall-clock seconds go to stdout only, so the CSV stays deterministic for a
seed.
"""

import argparse
import math
import time

from isingbraid.noise import NoiseModel, noisy_fidelity
from isingbraid.protocol import LogicalLabel, ProtocolParams


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", default="0,1e-6,1e-5,1e-4,1e-3")
    ap.add_argument("--trajectories", type=int, default=200)
    ap.add_argument("--out", default="fidelity_vs_eps.csv")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    # efficient (shallow-circuit) parameter row keeps this tractable
    params = ProtocolParams(dt=0.7, h_para=1.5, dh=0.1, Gamma=math.pi / 2,
                            update_mode="linear")
    rows = []
    for tok in args.eps.split(","):
        eps = float(tok)
        model = NoiseModel(eps_bitflip=eps, eps_phase=eps,
                           trajectories=args.trajectories)
        start = time.perf_counter()
        mean, stderr = noisy_fidelity(params, "braid", LogicalLabel.ALL_UP,
                                      model, seed=args.seed)
        seconds = time.perf_counter() - start
        rows.append((eps, mean, stderr))
        print(f"eps={eps:g}  F={mean:.4f} +/- {stderr:.4f}  {seconds:.3f} s")

    with open(args.out, "w") as f:
        f.write("eps,mean_fidelity,stderr,trajectories\n")
        for eps, mean, stderr in rows:
            f.write(f"{eps:.12g},{mean:.12g},{stderr:.12g},"
                    f"{args.trajectories}\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
