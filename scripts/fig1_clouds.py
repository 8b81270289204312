#!/usr/bin/env python3
"""Draw the planar point-cloud trio for a truncated exponential-type
radial kernel: an independent (Poisson) cloud, the determinantal cloud
(repulsion) and the permanental cloud (clumping), written as one CSV for
external plotting.

Example:
    python scripts/fig1_clouds.py --terms 12 --grid-h 0.2 --radius 4.5 \
        --seed 7 --out clouds.csv
"""

import argparse
import sys

import detperm as dp


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--terms", type=int, default=12, help="kernel degree count")
    parser.add_argument("--grid-h", type=float, default=0.2)
    parser.add_argument("--radius", type=float, default=4.5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="clouds.csv")
    args = parser.parse_args()

    spec = dp.ginibre_spec(args.terms)
    kernel, clamp = dp.discretize_radial_kernel(spec, args.grid_h, args.radius)
    print(f"grid: {kernel.size} cells, eigenvalue clamp {clamp:.2e}", file=sys.stderr)

    clouds = dp.sample_clouds(kernel, dp.stream(args.seed))
    with open(args.out, "w") as fh:
        fh.write("process,re,im\n")
        for name, config in clouds.items():
            for z in config.labels(kernel.ground):
                fh.write(f"{name},{z.real:.12g},{z.imag:.12g}\n")
    counts = {name: len(config) for name, config in clouds.items()}
    print(f"wrote {args.out}: {counts}", file=sys.stderr)


if __name__ == "__main__":
    main()
