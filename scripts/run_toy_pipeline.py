#!/usr/bin/env python3
"""End-to-end demo on synthetic data: prepare, train, infer, score.

Takes the toy corpus of `run_ablations.py` (eight smooth random cubes),
degrades it (x4 with additive noise), trains the default network briefly,
super-resolves the held-out cubes with Monte-Carlo gate sampling, exports
uncertainty maps, and prints the metric report next to a plain-bicubic
baseline.  Everything runs through the same CLI entry points a user would
call by hand.

Example:
    python3 scripts/run_toy_pipeline.py --out toy_run
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hssr.cli import main as hssr
from hssr.hsdata import DatasetManifest, make_lr, write_cube, write_manifest
from run_ablations import toy_corpus


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="working directory")
    ap.add_argument("--scale", type=int, default=4)
    ap.add_argument("--noise-sigma", type=float, default=0.05)
    ap.add_argument("--warmup-epochs", type=int, default=5)
    ap.add_argument("--main-epochs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    out = Path(args.out)
    raw = out / "raw"

    # 6 train cubes are patched by `prepare`; 2 test cubes are degraded whole
    cubes = toy_corpus()
    man = DatasetManifest()
    for cube in cubes[:6]:
        write_cube(cube, raw / f"{cube.name}.hsc")
        man.entries.append((f"{cube.name}.hsc", "train"))
    write_manifest(man, raw / "manifest.txt")

    noise_rng = np.random.default_rng(np.random.SeedSequence(7))
    for cube in cubes[6:]:
        write_cube(cube, out / "test_hr" / f"{cube.name}.hsc")
        write_cube(make_lr(cube, args.scale, args.noise_sigma, noise_rng),
                   out / "test_lr" / f"{cube.name}.hsc")

    data, run = out / "data", out / "run"
    steps = [
        ["prepare", "--manifest", str(raw / "manifest.txt"),
         "--scale", str(args.scale), "--patch", "32", "--stride", "16",
         "--noise-sigma", str(args.noise_sigma), "--seed", "7", "--out", str(data)],
    ]
    (data).mkdir(exist_ok=True)
    (data / "run.cfg").write_text(
        "manifest=manifest.txt\n"
        f"lr0=1e-3\nwarmup_epochs={args.warmup_epochs}\nmain_epochs={args.main_epochs}\n"
        f"batch=4\nseed={args.seed}\n"
    )
    steps += [
        ["train", "--config", str(data / "run.cfg"), "--out", str(run)],
        ["sr", "--checkpoint", str(run / "checkpoint.pdec"),
         "--input", str(out / "test_lr"), "--n-samples", "10", "--seed", "0",
         "--out", str(out / "pred")],
        ["uncertainty", "--checkpoint", str(run / "checkpoint.pdec"),
         "--input", str(out / "test_lr"), "--n-samples", "10", "--seed", "0",
         "--out", str(out / "umap")],
        ["eval", "--pred-dir", str(out / "pred"), "--gt-dir", str(out / "test_hr"),
         "--report", str(out / "report.csv"),
         "--baseline-bicubic", str(out / "test_lr")],
    ]
    for argv in steps:
        print("+ hssr", " ".join(argv))
        code = hssr(argv)
        if code != 0:
            print(f"step failed with exit code {code}", file=sys.stderr)
            return code
    print(f"\nartifacts under {out}: run/checkpoint.pdec, pred/, umap/, report.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
