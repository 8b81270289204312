"""Write the seeded input files of a workload into a directory.

    python3 perfbench/prepare.py <workload> <seed> <out_dir> <smoke 0|1>

dense_kernel gets ``kernel.json`` in the program's kernel file format: a
complex kernel whose spectrum in the weighted inner product is 30
eigenvalues at 0.95 and 20 at 0.3 (smoke size: 8 and 4), over atoms with
weights drawn uniformly from [0.5, 2].  ust_grid gets ``grid.txt``: a
10 x 10 grid (smoke size 4 x 4) with conductances drawn uniformly from
[0.5, 2].  The other workloads take no input files.
"""

import json
import os
import sys

import numpy as np


def dense_kernel(out_dir, rng, smoke):
    n, spectrum = (80, [0.95] * 8 + [0.3] * 4) if smoke else (400, [0.95] * 30 + [0.3] * 20)
    weights = rng.uniform(0.5, 2.0, n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    # columns of q / sqrt(w) are orthonormal in the weighted inner product
    phi = q[:, : len(spectrum)] / np.sqrt(weights)[:, None]
    matrix = (phi * spectrum) @ phi.conj().T
    matrix = (matrix + matrix.conj().T) / 2
    kernel = {"ground": {"labels": list(range(n)), "weights": weights.tolist()},
              "matrix": [[[z.real, z.imag] for z in row] for row in matrix.tolist()]}
    with open(os.path.join(out_dir, "kernel.json"), "w") as fh:
        json.dump(kernel, fh)
    with open(os.path.join(out_dir, "kernel.meta.json"), "w") as fh:
        json.dump({"rank": len(spectrum), "eigenvalues": spectrum}, fh)


def ust_grid(out_dir, rng, smoke):
    side = 4 if smoke else 10
    lines = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                lines.append(f"v{r}_{c} v{r}_{c + 1} {rng.uniform(0.5, 2.0)!r}")
            if r + 1 < side:
                lines.append(f"v{r}_{c} v{r + 1}_{c} {rng.uniform(0.5, 2.0)!r}")
    with open(os.path.join(out_dir, "grid.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv):
    workload, seed, out_dir, smoke = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, 20050311])
    {"dense_kernel": dense_kernel, "ust_grid": ust_grid}[workload](out_dir, rng, smoke)


if __name__ == "__main__":
    main(sys.argv[1:])
