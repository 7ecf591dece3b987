#!/usr/bin/env python3
"""Depth and consistency-loss ablation sweep on the synthetic toy corpus.

Trains small models over a grid of (stages, lambda) arms and several seeds,
scores each with deterministic expectation-mode inference on the held-out
cubes, and prints a per-seed MPSNR table with the two headline margins:
stages 4 vs 2, and lambda 1 vs 0.

Example:
    python3 scripts/run_ablations.py --workdir ablations --seeds 1 2 3
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hssr.evaluate import mpsnr
from hssr.hsdata import DatasetManifest, extract_patches, make_lr, random_smooth_cube, write_cube
from hssr.model import NetConfig, forward
from hssr.tensor import Tensor
from hssr.train import TrainConfig, train

ARMS = ((2, 1.0), (4, 1.0), (4, 0.0))  # (stages, lambda)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--scale", type=int, default=4)
    ap.add_argument("--noise-sigma", type=float, default=0.05)
    ap.add_argument("--channels", type=int, default=16)
    ap.add_argument("--units-per-stage", type=int, default=2)
    args = ap.parse_args()

    root = Path(args.workdir)
    rng = np.random.default_rng(np.random.SeedSequence(20240819))
    cubes = [random_smooth_cube(31, 64, 64, rng, name=f"cube{i}") for i in range(8)]
    noise_rng = np.random.default_rng(np.random.SeedSequence(7))
    man = DatasetManifest(scale=args.scale, patch=32, stride=16, seed=0)
    for cube in cubes[:6]:
        for patch in extract_patches(cube, 32, 16):
            write_cube(patch, root / "hr/train" / f"{patch.name}.hsc")
            write_cube(make_lr(patch, args.scale, args.noise_sigma, noise_rng),
                       root / "lr/train" / f"{patch.name}.hsc")
            man.entries.append((f"hr/train/{patch.name}.hsc", "train"))
    test = [(c, make_lr(c, args.scale, args.noise_sigma, noise_rng)) for c in cubes[6:]]

    def score(net):
        vals = []
        for hr, lr in test:
            y_hat, _ = forward(net, Tensor(lr.values[None]), "expect")
            vals.append(mpsnr(np.clip(y_hat.data[0], 0.0, 1.0), hr))
        return float(np.mean(vals))

    results = {}
    for seed in args.seeds:
        for stages, lam in ARMS:
            cfg = NetConfig(bands=31, scale=args.scale, stages=stages,
                            units_per_stage=args.units_per_stage, channels=args.channels)
            tcfg = TrainConfig(lr0=1e-3, warmup_epochs=5, main_epochs=20,
                               batch=4, seed=seed, lam=lam)
            net, _ = train(man, cfg, tcfg,
                           root / f"run_T{stages}_lam{int(lam)}_s{seed}", base_dir=root)
            results[(stages, lam, seed)] = score(net)
            print(f"seed={seed} stages={stages} lambda={lam:g}: "
                  f"{results[(stages, lam, seed)]:.3f} dB")

    print("\nseed  T=2,l=1  T=4,l=1  T=4,l=0   T4-T2   l1-l0")
    for seed in args.seeds:
        t2, t4, t4l0 = (results[(s, l, seed)] for s, l in ARMS)
        print(f"{seed:4d}  {t2:7.3f}  {t4:7.3f}  {t4l0:7.3f}  {t4 - t2:+6.3f}  {t4 - t4l0:+6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
