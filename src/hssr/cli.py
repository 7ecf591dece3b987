"""Batch command-line pipeline: prepare, train, sr, eval, uncertainty.

Every command validates its inputs before it writes, writes outputs atomically
(temp file + rename), and is deterministic given its seeds. Exit codes:
0 success, 1 runtime failure (e.g. divergence), 2 configuration or
validation error, 3 I/O error. Output directories appear when their first
file is written (`hsdata.atomic_write` makes them), so a command that
exits 2 before its first write leaves no output behind. A data error found
mid-run (say, a bad later cube in an `--input` directory, or a cube too
small for `prepare`'s patch) exits 2 and keeps the files of the cubes
already done.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import DimensionError, FormatError, ParameterError, TrainingError
from .evaluate import evaluate_pairs, mc_mean, mc_samples, mc_uncertainty, report_csv, report_text
from .hsdata import (
    DatasetManifest,
    HSCube,
    atomic_write,
    extract_patches,
    make_lr,
    read_cube,
    read_cube_header,
    read_manifest,
    read_text,
    write_cube,
    write_manifest,
)
from .model import NetConfig, chain_plan
from .tensor import bicubic_resize_array
from .train import TrainConfig, load_checkpoint, train

__all__ = ["main", "read_run_config", "CONFIG_SCHEMA"]


def _hparams(cls) -> dict:
    """Config key -> field, for the fields of `cls` declared with
    `model.hparam`; the other fields come from the data or the manifest."""
    return {f.metadata["key"] or f.name: f for f in fields(cls) if "help" in f.metadata}


# config-file schema: key -> (type, default or REQUIRED, help)
_REQ = object()
CONFIG_SCHEMA = {
    "manifest": (str, _REQ, "dataset manifest path, relative to the config file"),
    **{
        key: (get_type_hints(cls)[f.name], f.default, f.metadata["help"])
        for cls in (NetConfig, TrainConfig)
        for key, f in _hparams(cls).items()
    },
}

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_value(key: str, raw: str):
    typ = CONFIG_SCHEMA[key][0]
    if typ is bool:
        word = raw.strip().lower()
        if word not in _BOOL_WORDS:
            raise ParameterError(f"config key {key!r}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[word]
    try:
        return typ(raw.strip())
    except ValueError:
        raise ParameterError(
            f"config key {key!r}: expected {typ.__name__}, got {raw!r}"
        ) from None


def read_run_config(path, overrides=()) -> dict:
    """Parse a key=value config file; unknown keys are rejected."""
    path = Path(path)
    values = {}
    for ln, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        key = key.strip()
        if not sep:
            raise FormatError(f"{path}:{ln}: expected key=value, got {line!r}")
        if key not in CONFIG_SCHEMA:
            raise FormatError(f"{path}:{ln}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw)
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or key not in CONFIG_SCHEMA:
            raise ParameterError(f"--set expects known key=value, got {item!r}")
        values[key] = _parse_value(key, raw)
    for key, (_, default, _help) in CONFIG_SCHEMA.items():
        if key not in values:
            if default is _REQ:
                raise ParameterError(f"config is missing required key {key!r}")
            values[key] = default
    return values


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ParameterError(f"--seed must be >= 0, got {seed}")


def _cube_files(path: Path) -> list:
    if path.is_dir():
        files = sorted(path.glob("*.hsc"))
        if not files:
            raise ParameterError(f"no .hsc cubes found in {path}")
        return files
    return [path]


# ---------------------------------------------------------------------------
# commands


def cmd_prepare(args) -> int:
    _check_seed(args.seed)
    src = read_manifest(Path(args.manifest))
    if not src.entries:
        raise ParameterError(f"{args.manifest}: manifest lists no cubes")
    src_dir = Path(args.manifest).parent
    out = Path(args.out)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    derived = DatasetManifest(
        scale=args.scale, patch=args.patch, stride=args.stride, seed=args.seed
    )
    for rel, role in src.entries:
        cube = read_cube(src_dir / rel)
        for patch in extract_patches(cube, args.patch, args.stride):
            lr = make_lr(patch, args.scale, args.noise_sigma, rng)
            write_cube(patch, out / "hr" / role / f"{patch.name}.hsc")
            write_cube(lr, out / "lr" / role / f"{patch.name}.hsc")
            derived.entries.append((f"hr/{role}/{patch.name}.hsc", role))
    write_manifest(derived, out / "manifest.txt")
    print(f"prepared {len(derived.entries)} patch pairs under {out}")
    return 0


def cmd_train(args) -> int:
    cfg_path = Path(args.config)
    values = read_run_config(cfg_path, args.set or ())
    man_path = (cfg_path.parent / values["manifest"]).resolve()
    man = read_manifest(man_path)
    train_rel = man.paths("train")
    if not train_rel:
        raise ParameterError(f"{man_path}: manifest has no train entries")
    bands, _, _ = read_cube_header(man_path.parent / train_rel[0])
    net_cfg = NetConfig(bands=bands, scale=man.scale,
                        **{f.name: values[k] for k, f in _hparams(NetConfig).items()})
    tcfg = TrainConfig(**{f.name: values[k] for k, f in _hparams(TrainConfig).items()})
    train(man, net_cfg, tcfg, args.out, base_dir=man_path.parent, log_cb=print)
    print(f"checkpoint written to {Path(args.out) / 'checkpoint.pdec'}")
    return 0


def _infer_inputs(args):
    """The checkpoint's net and one (LR cube file, output file) pair per cube.
    The seed and N are checked by `evaluate`, at the first cube."""
    net = load_checkpoint(Path(args.checkpoint))
    in_path, out = Path(args.input), Path(args.out)
    files = _cube_files(in_path)
    return net, [(f, out / f.name if in_path.is_dir() else out) for f in files]


def cmd_sr(args) -> int:
    net, jobs = _infer_inputs(args)
    chains = {}  # LR extents -> chain_plan, shared by every cube of those extents
    for f, target in jobs:
        cube = read_cube(f)
        extents = (cube.height, cube.width)
        if extents not in chains:
            chains[extents] = chain_plan(net, *extents)
        write_cube(mc_mean(net, cube, args.n_samples, args.seed, chains[extents]), target)
        if args.save_samples:
            for s in mc_samples(net, cube, args.n_samples, args.seed):
                np.clip(s.values, 0.0, 1.0, out=s.values)
                write_cube(s, Path(args.save_samples) / f"{s.name}.hsc")
    print(f"super-resolved {len(jobs)} cube(s) -> {args.out}")
    return 0


def cmd_uncertainty(args) -> int:
    net, jobs = _infer_inputs(args)
    for f, target in jobs:
        counts = mc_uncertainty(net, read_cube(f), args.n_samples, args.seed)
        # HSC1 stores [0,1]: the fraction of disagreeing samples, a band at a time
        frac = np.empty(counts.shape, dtype=np.float32)
        for b in range(frac.shape[0]):
            frac[b] = counts[b] / args.n_samples
        del counts
        write_cube(HSCube(frac, name=f.stem), target)
        del frac
    print(f"wrote {len(jobs)} uncertainty map(s) -> {args.out}")
    return 0


def _eval_pairs(files: list, gt_dir: Path):
    """(name, prediction, ground truth) per file, read one pair at a time."""
    for f in files:
        gt_file = gt_dir / f.name
        if not gt_file.exists():
            raise ParameterError(f"no ground-truth cube for {f.name} in {gt_dir}")
        yield f.stem, read_cube(f), read_cube(gt_file)


def _bicubic_pairs(files: list, gt_dir: Path, lr_dir: Path):
    """(name, clamped bicubic upsampling of the LR cube, ground truth) per file."""
    for f in files:
        lr_file = lr_dir / f"{f.stem}.hsc"
        if not lr_file.exists():
            raise ParameterError(f"no LR cube for {f.stem} in {lr_dir}")
        gt, lr = read_cube(gt_dir / f.name), read_cube(lr_file)
        if gt.height % lr.height or gt.width % lr.width:
            raise DimensionError(
                f"{f.stem}: ground truth {gt.height}x{gt.width} is not an integer "
                f"multiple of LR {lr.height}x{lr.width}"
            )
        up = bicubic_resize_array(lr.values, gt.height, gt.width)
        yield f.stem, HSCube(np.clip(up, 0.0, 1.0, out=up)), gt


def cmd_eval(args) -> int:
    gt_dir = Path(args.gt_dir)
    files = _cube_files(Path(args.pred_dir))
    rep = evaluate_pairs(_eval_pairs(files, gt_dir))
    base_rep = None  # scored, like rep, before either report is written
    if args.baseline_bicubic:
        base_rep = evaluate_pairs(_bicubic_pairs(files, gt_dir, Path(args.baseline_bicubic)))
    report_path = Path(args.report)
    atomic_write(report_path, [report_csv(rep).encode()])
    sys.stdout.write(report_text(rep))
    if base_rep is not None:
        base_path = report_path.with_name(report_path.stem + "_bicubic" + report_path.suffix)
        atomic_write(base_path, [report_csv(base_rep).encode()])
        sys.stdout.write("bicubic baseline:\n" + report_text(base_rep))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hssr",
        description="Hyperspectral image super-resolution with stochastic channel gating.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    keys = "\n".join(
        f"  {k} ({t.__name__}, default: {'required' if d is _REQ else d}): {h}"
        for k, (t, d, h) in CONFIG_SCHEMA.items()
    )

    sp = sub.add_parser("prepare", help="patch HR cubes and synthesize LR mates")
    sp.add_argument("--manifest", required=True, help="source manifest of raw cubes")
    sp.add_argument("--scale", type=int, default=4, help="downscaling factor (default: 4)")
    sp.add_argument("--patch", type=int, default=32, help="HR patch size (default: 32)")
    sp.add_argument("--stride", type=int, default=32, help="patch stride (default: 32)")
    sp.add_argument("--noise-sigma", type=float, default=0.0,
                    help="additive Gaussian noise on LR patches (default: 0)")
    sp.add_argument("--seed", type=int, default=0, help="noise seed (default: 0)")
    sp.add_argument("--out", required=True, help="output dataset directory")
    sp.set_defaults(func=cmd_prepare)

    st = sub.add_parser(
        "train",
        help="run warm-up + main training",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="config file keys (key=value lines, '#' comments):\n" + keys,
    )
    st.add_argument("--config", required=True, help="key=value run configuration file")
    st.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a config key (repeatable)")
    st.add_argument("--out", required=True, help="output directory for checkpoint and log")
    st.set_defaults(func=cmd_train)

    def mc_parser(name, summary, n_note="", out_note=""):
        """A subcommand that draws Monte-Carlo samples from a checkpoint."""
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--checkpoint", required=True)
        sp.add_argument("--input", required=True, help="LR cube file or directory of .hsc files")
        sp.add_argument("--n-samples", type=int, default=10,
                        help=f"Monte-Carlo forward passes{n_note} (default: 10)")
        sp.add_argument("--seed", type=int, default=0, help="sampling seed (default: 0)")
        sp.add_argument("--out", required=True, help=f"output cube file or directory{out_note}")
        return sp

    ss = mc_parser("sr", "super-resolve LR cubes with MC gate sampling")
    ss.add_argument("--save-samples", default=None,
                    help="also write the individual samples into this directory")
    ss.set_defaults(func=cmd_sr)

    se = sub.add_parser("eval", help="score predictions against ground truth")
    se.add_argument("--pred-dir", required=True)
    se.add_argument("--gt-dir", required=True)
    se.add_argument("--report", required=True, help="CSV report path (cube,mpsnr,mssim,sam)")
    se.add_argument("--baseline-bicubic", default=None, metavar="LR_DIR",
                    help="also score plain bicubic upsampling of these LR cubes")
    se.set_defaults(func=cmd_eval)

    su = mc_parser("uncertainty", "export per-pixel epistemic uncertainty maps",
                   n_note=", >= 2", out_note=" (values are percent/100)")
    su.set_defaults(func=cmd_uncertainty)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, DimensionError, FormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3
    except TrainingError as e:
        print(f"training error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
