#!/usr/bin/env python3
"""Depth and consistency-loss ablation sweep on the synthetic toy corpus.

Trains small models over a grid of (stages, lambda) arms and several seeds,
scores each with deterministic expectation-mode inference on the held-out
cubes, and prints a per-seed MPSNR table with the two headline margins:
stages 4 vs 2, and lambda 1 vs 0.

The corpus, pair writer, scorer and sweep are importable functions; the
acceptance tests build their toy data and run criterion 07 through them.

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


def toy_corpus(n: int = 8) -> list:
    """`n` smooth random 31-band 64x64 cubes `cube0`, `cube1`, ... drawn in
    order from one generator: 0-5 train, 6-7 test, later ones extra."""
    rng = np.random.default_rng(np.random.SeedSequence(20240819))
    return [random_smooth_cube(31, 64, 64, rng, name=f"cube{i}") for i in range(n)]


def write_pairs(root: Path, cubes: list, scale: int, sigma: float) -> tuple:
    """Write the 32/16 HR/LR patch pairs of `cubes[:6]` under `root`.

    Returns the manifest and one (HR, LR) pair per later cube. One noise
    generator draws for every training patch in order, then for those cubes;
    at `sigma` 0 nothing draws from it.
    """
    noise_rng = np.random.default_rng(np.random.SeedSequence(7))
    man = DatasetManifest(scale=scale, patch=32, stride=16, seed=0)
    for cube in cubes[:6]:
        for patch in extract_patches(cube, 32, 16):
            write_cube(patch, root / "hr/train" / f"{patch.name}.hsc")
            write_cube(make_lr(patch, scale, sigma, noise_rng),
                       root / "lr/train" / f"{patch.name}.hsc")
            man.entries.append((f"hr/train/{patch.name}.hsc", "train"))
    return man, [(c, make_lr(c, scale, sigma, noise_rng)) for c in cubes[6:]]


def expect_score(net, test: list) -> float:
    """Deterministic expectation-mode MPSNR averaged over the (HR, LR) pairs."""
    vals = []
    for hr, lr in test:
        y_hat, _ = forward(net, Tensor(lr.values[None]), "expect")
        vals.append(mpsnr(np.clip(y_hat.data[0], 0.0, 1.0), hr))
    return float(np.mean(vals))


def sweep(root: Path, man, test: list, seeds, scale: int, channels: int,
          units_per_stage: int):
    """Train every arm of ARMS for each seed, runs under `root`; yield
    ((stages, lambda, seed), expect_score) as each run finishes."""
    for seed in seeds:
        for stages, lam in ARMS:
            cfg = NetConfig(bands=31, scale=scale, stages=stages,
                            units_per_stage=units_per_stage, channels=channels)
            tcfg = TrainConfig(lr0=1e-3, warmup_epochs=5, main_epochs=20,
                               batch=4, seed=seed, lam=lam)
            net, _ = train(man, cfg, tcfg,
                           root / f"run_T{stages}_lam{int(lam)}_s{seed}", base_dir=root)
            yield (stages, lam, seed), expect_score(net, test)


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
    man, test = write_pairs(root, toy_corpus(), args.scale, args.noise_sigma)
    results = {}
    for (stages, lam, seed), score in sweep(root, man, test, args.seeds, args.scale,
                                            args.channels, args.units_per_stage):
        results[(stages, lam, seed)] = score
        print(f"seed={seed} stages={stages} lambda={lam:g}: {score:.3f} dB")

    print("\nseed  T=2,l=1  T=4,l=1  T=4,l=0   T4-T2   l1-l0")
    for seed in args.seeds:
        t2, t4, t4l0 = (results[(s, l, seed)] for s, l in ARMS)
        print(f"{seed:4d}  {t2:7.3f}  {t4:7.3f}  {t4l0:7.3f}  {t4 - t2:+6.3f}  {t4 - t4l0:+6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
