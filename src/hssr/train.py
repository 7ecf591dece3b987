"""Two-phase Adam training, checkpointing, and the learning-rate schedule.

Phase 1 warms the backbone up with every gate forced open; phase 2 trains
conv weights and gate logits jointly with relaxed (soft) gate samples. All
randomness flows from one seed through named SeedSequence children, so a
rerun with the same seed reproduces initial weights, shuffles, and gate
noise bit-exactly.

Checkpoints use a small binary container (magic ``PDEC``): u32 format
version, u32 entry count, then per entry a length-prefixed utf-8 name, u32
rank, u32 dims, and a little-endian float32 payload. Every `NetConfig` field
rides along first, in declaration order, as a scalar ``config.<field>``
entry, so a checkpoint is self-contained.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import DimensionError, FormatError, ParameterError, TrainingError
from .hsdata import (
    DatasetManifest,
    HSCube,
    atomic_write,
    augment,
    f32le,
    lr_counterpart,
    read_cube,
    read_cube_header,
)
from .model import (
    NetConfig,
    SRNet,
    assemble,
    build_net,
    check_field_types,
    forward,
    hparam,
    loss,
    parameters,
)
from .tensor import Graph, Param, Tensor, backward

__all__ = [
    "TrainConfig",
    "OptimizerState",
    "init_adam",
    "adam_step",
    "lr_at",
    "train",
    "check_pairs",
    "save_checkpoint",
    "load_checkpoint",
]

_CKPT_MAGIC = b"PDEC"
_CKPT_VERSION = 1
_CKPT_MAX_RANK = 4  # conv kernels; config entries are scalars

# Adam's moment decay rates and epsilon, at Kingma & Ba's defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = hparam(5e-4, "initial Adam learning rate")
    halve_every: int = hparam(25, "halve the learning rate every N main epochs")
    warmup_epochs: int = hparam(50, "gate-open warm-up epochs")
    main_epochs: int = hparam(100, "joint training epochs")
    batch: int = hparam(4, "patches per optimization step")
    lam: float = hparam(1.0, "weight of the source-consistency loss term", key="lambda")
    seed: int = hparam(0, "training seed")
    augment: bool = hparam(True, "random rotations/flips during training")
    checkpoint_every: int = hparam(0, "periodic checkpoint interval; 0 = final only")

    def __post_init__(self):
        check_field_types(self)
        # the chained comparisons below are false for nan as well
        if not 0 < self.lr0 < np.inf:
            raise ParameterError(f"lr0 must be finite and > 0, got {self.lr0}")
        if not 0 <= self.lam < np.inf:
            raise ParameterError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.warmup_epochs < 0 or self.main_epochs < 0:
            raise ParameterError("epoch counts must be >= 0")
        if self.batch < 1:
            raise ParameterError(f"batch must be >= 1, got {self.batch}")
        if self.halve_every < 1:
            raise ParameterError(f"halve_every must be >= 1, got {self.halve_every}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.checkpoint_every < 0:
            raise ParameterError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")


@dataclass
class OptimizerState:
    m: list  # first moments, one array per parameter
    v: list  # second moments
    step: int = 0


def init_adam(params: list) -> OptimizerState:
    """Zero moments for `params`."""
    return OptimizerState(m=[np.zeros_like(p.data) for p in params],
                          v=[np.zeros_like(p.data) for p in params])


def adam_step(state: OptimizerState, params: list, grads: list, lr: float) -> None:
    """One bias-corrected Adam update, in place on every parameter.

    `grads` aligns with `params`; a None entry means the parameter did not
    participate in the step and is treated as zero gradient (its moments
    decay but a zero moment stays zero, so the value is untouched).
    """
    if len(grads) != len(params):
        raise ParameterError(f"{len(grads)} gradients for {len(params)} parameters")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            state.m[i] *= b1
            state.v[i] *= b2
            continue
        g = np.asarray(g)
        if g.shape != p.data.shape:
            raise DimensionError(
                f"gradient shape {g.shape} != parameter {p.name} shape {p.data.shape}"
            )
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {p.name}")
        m = state.m[i]
        v = state.v[i]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= (lr / c1) * m / (np.sqrt(v / c2) + ADAM_EPS)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Halving schedule over main-training epochs: lr0 * 0.5^(epoch // k)."""
    if epoch < 0:
        raise ParameterError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * 0.5 ** (epoch // cfg.halve_every)


# ---------------------------------------------------------------------------
# data plumbing


def check_pairs(man: DatasetManifest, base_dir) -> tuple:
    """The HR patch shape [B, H, W] that every train pair of the manifest shares.

    Entries point at HR cubes under ``hr/``; the LR mate lives at the same
    path under ``lr/``. Each pair is read once and dropped, so `read_cube`'s
    checks run here along with the band, scale and uniform-shape checks.
    """
    base = Path(base_dir)
    shape = None
    for rel in man.paths("train"):
        hr = read_cube(base / rel)
        lr = read_cube(base / lr_counterpart(rel))
        if lr.bands != hr.bands:
            raise DimensionError(f"{rel}: LR has {lr.bands} bands, HR has {hr.bands}")
        if lr.height * man.scale != hr.height or lr.width * man.scale != hr.width:
            raise DimensionError(
                f"{rel}: LR {lr.height}x{lr.width} is not HR {hr.height}x{hr.width} "
                f"downscaled by {man.scale}"
            )
        if shape is None:
            shape = hr.values.shape
        elif hr.values.shape != shape:
            raise DimensionError(
                f"{rel}: patch shape {hr.values.shape} differs from {shape}; "
                "the training set must be uniform"
            )
    return shape


def _patch(path: Path, shape: tuple, code: int) -> np.ndarray:
    """The cube at `path`, augmented by `code`; its shape must still be the
    `shape` that `check_pairs` saw."""
    vals = read_cube(path).values
    if vals.shape != shape:
        raise FormatError(f"{path}: shape {vals.shape} differs from the {shape} checked "
                          "before training; the file changed")
    return _augmented(vals, code)


def _augmented(arr: np.ndarray, code: int) -> np.ndarray:
    return augment(HSCube(arr), code).values if code else arr


# ---------------------------------------------------------------------------
# the loop


def train(man: DatasetManifest, net_cfg: NetConfig, cfg: TrainConfig, out_dir, base_dir,
          log_cb=None):
    """Run warm-up then main training; returns (net, history).

    Reads the manifest's cubes under base_dir: `check_pairs` checks every
    pair once before anything is written, then each step reads its batch's
    pairs again, so no pair's payload is held between steps. A file whose
    shape changed since the check raises FormatError at its step.

    Writes ``train.log`` (one ``epoch=<i> lr=<f> loss=<f> secs=<f>`` line
    per epoch, epochs numbered continuously across both phases) and
    ``checkpoint.pdec`` into out_dir, plus periodic checkpoints when
    configured. On divergence the last checkpoint already on disk is left
    in place and a TrainingError is raised.
    """
    rels = man.paths("train")
    if not rels:
        raise ParameterError("manifest has no train entries")
    if man.scale != net_cfg.scale:
        raise ParameterError(
            f"manifest was prepared for scale {man.scale}, config says {net_cfg.scale}"
        )
    base = Path(base_dir)
    _, h, w = read_cube_header(base / rels[0])
    if cfg.augment and min(cfg.batch, len(rels)) > 1 and h != w:
        raise DimensionError(
            f"augmentation rotates the {h}x{w} training patches, so a batch would mix "
            f"{h}x{w} and {w}x{h}; use square patches, batch=1 or augment=false"
        )
    b, h, w = check_pairs(man, base)
    hr_shape, lr_shape = (b, h, w), (b, h // man.scale, w // man.scale)

    root = np.random.SeedSequence(cfg.seed)
    init_ss, order_ss, gate_ss = root.spawn(3)
    net = build_net(net_cfg, np.random.default_rng(init_ss))
    params = parameters(net)
    state = init_adam(params)
    order_rng = np.random.default_rng(order_ss)
    gate_rng = np.random.default_rng(gate_ss)

    history = []
    total = cfg.warmup_epochs + cfg.main_epochs
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # only after every input check
    with open(out_dir / "train.log", "w") as log:
        for epoch in range(total):
            t0 = time.perf_counter()
            main_i = epoch - cfg.warmup_epochs
            warm = main_i < 0
            lr = cfg.lr0 if warm else lr_at(main_i, cfg)
            mode = "warmup" if warm else "train"
            order = order_rng.permutation(len(rels))
            codes = (
                order_rng.integers(0, 8, size=len(rels))
                if cfg.augment
                else np.zeros(len(rels), dtype=int)
            )
            epoch_losses = []
            for lo in range(0, len(order), cfg.batch):
                idx = order[lo:lo + cfg.batch]
                x = np.stack([_patch(base / lr_counterpart(rels[i]), lr_shape, int(codes[i]))
                              for i in idx])
                y = np.stack([_patch(base / rels[i], hr_shape, int(codes[i])) for i in idx])
                graph = Graph()
                y_hat, x_hat = forward(net, Tensor(x), mode, rng=gate_rng, graph=graph)
                step_loss = loss(y_hat, Tensor(y), x_hat, Tensor(x), cfg.lam)
                lval = float(step_loss.data)
                if not np.isfinite(lval):
                    raise TrainingError(
                        f"loss diverged to {lval} at epoch {epoch}; "
                        "last checkpoint on disk retained"
                    )
                node_grads = backward(step_loss)
                grads = [node_grads.get(graph.leaf_id(p)) for p in params]
                adam_step(state, params, grads, lr)
                epoch_losses.append(lval)
                # backward has already released the tape's closures and the
                # forward arrays they held; this frees the loss tensors and the
                # gradients now, not when the next forward returns
                del graph, y_hat, x_hat, step_loss, node_grads, grads
            record = {"epoch": epoch, "phase": mode, "lr": lr,
                      "loss": float(np.mean(epoch_losses)), "secs": time.perf_counter() - t0}
            line = "epoch={epoch} lr={lr:.8g} loss={loss:.8g} secs={secs:.3f}".format(**record)
            log.write(line + "\n")
            log.flush()
            if log_cb is not None:
                log_cb(line)
            history.append(record)
            if cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
                save_checkpoint(net, out_dir / f"checkpoint_ep{epoch:04d}.pdec")
    save_checkpoint(net, out_dir / "checkpoint.pdec")
    return net, history


# ---------------------------------------------------------------------------
# checkpoint container


def save_checkpoint(net: SRNet, path) -> None:
    """Serialize config scalars and every parameter; atomic write."""
    entries = [(f"config.{f.name}", np.asarray(getattr(net.cfg, f.name), dtype=np.float32))
               for f in fields(NetConfig)]
    entries += [(p.name, p.data) for p in parameters(net)]
    blob = [_CKPT_MAGIC, struct.pack("<II", _CKPT_VERSION, len(entries))]
    for name, arr in entries:
        nb = name.encode("utf-8")
        # rank and dims from arr itself: f32le gives a 0-d config scalar shape (1,)
        blob += [struct.pack("<I", len(nb)), nb,
                 struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape), f32le(arr)]
    atomic_write(path, blob)


def _read_exact(buf: bytes, off: int, n: int, path, what: str):
    if off + n > len(buf):
        raise FormatError(f"{path}: truncated checkpoint while reading {what}")
    return buf[off:off + n], off + n


def load_checkpoint(path) -> SRNet:
    """Rebuild a network from a PDEC file; every parameter must be present
    with the right shape, and unknown entries are rejected."""
    path = Path(path)
    buf = path.read_bytes()
    raw, off = _read_exact(buf, 0, 4, path, "magic")
    if raw != _CKPT_MAGIC:
        raise FormatError(f"{path}: bad magic {raw!r}, expected {_CKPT_MAGIC!r}")
    raw, off = _read_exact(buf, off, 8, path, "header")
    version, count = struct.unpack("<II", raw)
    if version != _CKPT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    entries = {}
    for _ in range(count):
        raw, off = _read_exact(buf, off, 4, path, "name length")
        (nlen,) = struct.unpack("<I", raw)
        raw, off = _read_exact(buf, off, nlen, path, "name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: entry name {raw[:32]!r} is not valid utf-8") from None
        raw, off = _read_exact(buf, off, 4, path, "rank")
        (ndim,) = struct.unpack("<I", raw)
        if ndim > _CKPT_MAX_RANK:
            raise FormatError(f"{path}: entry {name!r} has rank {ndim}, at most "
                              f"{_CKPT_MAX_RANK} is allowed")
        raw, off = _read_exact(buf, off, 4 * ndim, path, "shape")
        shape = struct.unpack(f"<{ndim}I", raw)
        n = math.prod(shape)  # a Python int: a wrapped count could pass the size check
        raw, off = _read_exact(buf, off, 4 * n, path, f"payload of {name}")
        entries[name] = np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(shape)
    if off != len(buf):
        raise FormatError(f"{path}: {len(buf) - off} trailing bytes after last entry")

    conf = {}
    types = get_type_hints(NetConfig)
    for f in fields(NetConfig):
        arr = entries.pop(f"config.{f.name}", None)
        if arr is None:
            raise FormatError(f"{path}: missing config entry {f.name!r}")
        if arr.size != 1 or not np.isfinite(arr).all():
            raise FormatError(f"{path}: config entry {f.name!r} must be one finite value")
        val = float(arr.reshape(()))
        if types[f.name] is int and val != int(val):
            raise FormatError(f"{path}: config entry {f.name!r} = {val} is not an integer")
        conf[f.name] = types[f.name](val)

    def take(name, shape, init):
        arr = entries.pop(name, None)
        if arr is None:
            raise FormatError(f"{path}: missing parameter {name!r}")
        if arr.shape != shape:
            raise FormatError(
                f"{path}: parameter {name!r} has shape {arr.shape}, expected {shape}"
            )
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: parameter {name!r} has non-finite values")
        return Param(name, arr)

    net = assemble(NetConfig(**conf), take)
    if entries:
        raise FormatError(f"{path}: unknown entries {sorted(entries)[:3]}")
    return net
