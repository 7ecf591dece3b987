#!/usr/bin/env python3
"""Generate a synthetic hyperspectral corpus: smooth random cubes + manifest.

The output directory holds full-resolution cubes (``cube00.hsc`` ...) and a
``manifest.txt`` assigning train/test roles, ready for ``hssr prepare``.

Example:
    python3 scripts/make_toy_dataset.py --out toy_raw --cubes 8 --test 2
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hssr.hsdata import DatasetManifest, random_smooth_cube, write_cube, write_manifest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--cubes", type=int, default=8, help="total cubes (default: 8)")
    ap.add_argument("--test", type=int, default=2,
                    help="how many of them are held out as test (default: 2)")
    ap.add_argument("--bands", type=int, default=31)
    ap.add_argument("--size", type=int, default=64, help="height = width (default: 64)")
    ap.add_argument("--seed", type=int, default=20240819)
    args = ap.parse_args()
    if not 0 <= args.test < args.cubes:
        ap.error("--test must be in [0, --cubes)")

    out = Path(args.out)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    man = DatasetManifest()
    n_train = args.cubes - args.test
    for i in range(args.cubes):
        cube = random_smooth_cube(args.bands, args.size, args.size, rng,
                                  name=f"cube{i:02d}")
        write_cube(cube, out / f"{cube.name}.hsc")
        role = "train" if i < n_train else "test"
        man.entries.append((f"{cube.name}.hsc", role))
    write_manifest(man, out / "manifest.txt")
    print(f"wrote {n_train} train + {args.test} test cubes under {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
