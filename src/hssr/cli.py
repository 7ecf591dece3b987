"""Batch command-line pipeline: prepare, train, sr, eval, uncertainty.

Every command validates its inputs up front, writes outputs atomically
(temp file + rename), and is deterministic given its seeds. Exit codes:
0 success, 1 runtime failure (e.g. divergence), 2 configuration or
validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import DimensionError, FormatError, ParameterError, TrainingError
from .evaluate import evaluate_pairs, mc_infer, mc_mean, report_csv, report_text, uncertainty
from .hsdata import (
    DatasetManifest,
    HSCube,
    atomic_write,
    extract_patches,
    make_lr,
    read_cube,
    read_manifest,
    read_text,
    write_cube,
    write_manifest,
)
from .model import NetConfig
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
    "scale": (int, None, "upscaling factor; default: taken from the manifest"),
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
        (out / "hr" / role).mkdir(parents=True, exist_ok=True)
        (out / "lr" / role).mkdir(parents=True, exist_ok=True)
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
    scale = values["scale"] if values["scale"] is not None else man.scale
    train_rel = man.paths("train")
    if not train_rel:
        raise ParameterError(f"{man_path}: manifest has no train entries")
    bands = read_cube(man_path.parent / train_rel[0]).bands
    net_cfg = NetConfig(bands=bands, scale=scale,
                        **{f.name: values[k] for k, f in _hparams(NetConfig).items()})
    tcfg = TrainConfig(**{f.name: values[k] for k, f in _hparams(TrainConfig).items()})
    train(man, net_cfg, tcfg, args.out, base_dir=man_path.parent, log_cb=print)
    print(f"checkpoint written to {Path(args.out) / 'checkpoint.pdec'}")
    return 0


def _infer_inputs(args):
    _check_seed(args.seed)
    net = load_checkpoint(Path(args.checkpoint))
    in_path = Path(args.input)
    files = _cube_files(in_path)
    out = Path(args.out)
    if in_path.is_dir():
        out.mkdir(parents=True, exist_ok=True)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
    return net, in_path, files, out


def cmd_sr(args) -> int:
    net, in_path, files, out = _infer_inputs(args)
    if args.save_samples:
        Path(args.save_samples).mkdir(parents=True, exist_ok=True)
    for f in files:
        cube = read_cube(f)
        target = out / f.name if in_path.is_dir() else out
        write_cube(mc_mean(net, cube, args.n_samples, args.seed), target)
        if args.save_samples:
            _, samples = mc_infer(net, cube, args.n_samples, args.seed)
            for i, s in enumerate(samples):
                clipped = HSCube(np.clip(s.values, 0.0, 1.0), name=s.name)
                write_cube(clipped, Path(args.save_samples) / f"{f.stem}_s{i}.hsc")
            # drop this cube's N-sample stack before the next mc_infer allocates its own
            del samples
    print(f"super-resolved {len(files)} cube(s) -> {out}")
    return 0


def cmd_uncertainty(args) -> int:
    if args.n_samples < 2:
        raise ParameterError(f"uncertainty needs --n-samples >= 2, got {args.n_samples}")
    net, in_path, files, out = _infer_inputs(args)
    for f in files:
        cube = read_cube(f)
        mean, samples = mc_infer(net, cube, args.n_samples, args.seed)
        umap = uncertainty(samples, mean)
        del mean, samples  # the N-sample stack is not alive while the map is written
        # HSC1 stores [0,1]; percentages are scaled down by 100
        frac = np.empty(umap.values.shape, dtype=np.float32)
        np.divide(umap.values, 100.0, out=frac, casting="unsafe")
        del umap
        target = out / f.name if in_path.is_dir() else out
        write_cube(HSCube(frac, name=f.stem), target)
        del frac
    print(f"wrote {len(files)} uncertainty map(s) -> {out}")
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
    report_path = Path(args.report)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(report_path, [report_csv(rep).encode()])
    sys.stdout.write(report_text(rep))
    if args.baseline_bicubic:
        base_rep = evaluate_pairs(_bicubic_pairs(files, gt_dir, Path(args.baseline_bicubic)))
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

    ss = sub.add_parser("sr", help="super-resolve LR cubes with MC gate sampling")
    ss.add_argument("--checkpoint", required=True)
    ss.add_argument("--input", required=True, help="LR cube file or directory of .hsc files")
    ss.add_argument("--n-samples", type=int, default=10,
                    help="Monte-Carlo forward passes (default: 10)")
    ss.add_argument("--seed", type=int, default=0, help="sampling seed (default: 0)")
    ss.add_argument("--out", required=True, help="output cube file or directory")
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

    su = sub.add_parser("uncertainty", help="export per-pixel epistemic uncertainty maps")
    su.add_argument("--checkpoint", required=True)
    su.add_argument("--input", required=True, help="LR cube file or directory")
    su.add_argument("--n-samples", type=int, default=10,
                    help="Monte-Carlo forward passes, >= 2 (default: 10)")
    su.add_argument("--seed", type=int, default=0, help="sampling seed (default: 0)")
    su.add_argument("--out", required=True,
                    help="output cube file or directory (values are percent/100)")
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
