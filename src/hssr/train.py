"""Two-phase Adam training, checkpointing, and the learning-rate schedule.

Phase 1 warms the backbone up with every gate forced open; phase 2 trains
conv weights and gate logits jointly with relaxed (soft) gate samples. All
randomness flows from one seed through named SeedSequence children, so a
rerun with the same seed reproduces initial weights, shuffles, and gate
noise bit-exactly.

Checkpoints use a small binary container (magic ``PDEC``): u32 format
version, u32 entry count, then per entry a length-prefixed utf-8 name, u32
rank, u32 dims, and a little-endian float32 payload. Network hyperparameters
ride along as scalar ``config.*`` entries so a checkpoint is self-contained.
"""

from __future__ import annotations

import os
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError, ParameterError, TrainingError
from .hsdata import DatasetManifest, HSCube, augment, lr_counterpart, read_cube
from .model import NetConfig, SRNet, build_net, forward, loss, parameters
from .tensor import Graph, Tensor, backward

__all__ = [
    "TrainConfig",
    "OptimizerState",
    "init_adam",
    "adam_step",
    "lr_at",
    "train",
    "load_pairs",
    "save_checkpoint",
    "load_checkpoint",
]

_CKPT_MAGIC = b"PDEC"
_CKPT_VERSION = 1

_CONFIG_KEYS = ("bands", "scale", "stages", "units_per_stage", "channels", "tau")


@dataclass
class TrainConfig:
    lr0: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    halve_every: int = 25
    warmup_epochs: int = 50  # desk-scale runs use much smaller values
    main_epochs: int = 100
    batch: int = 4
    lam: float = 1.0  # weight of the source-consistency term
    seed: int = 0
    tau: float = 2.0 / 3.0
    augment: bool = True  # random dihedral transform per sample per epoch
    checkpoint_every: int = 0  # extra periodic checkpoints; 0 = final only

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ParameterError(f"lr0 must be positive, got {self.lr0}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ParameterError(f"betas must lie in [0,1), got {self.beta1}, {self.beta2}")
        if self.eps <= 0:
            raise ParameterError(f"eps must be positive, got {self.eps}")
        if self.warmup_epochs < 0 or self.main_epochs < 0:
            raise ParameterError("epoch counts must be >= 0")
        if self.batch < 1:
            raise ParameterError(f"batch must be >= 1, got {self.batch}")
        if self.halve_every < 1:
            raise ParameterError(f"halve_every must be >= 1, got {self.halve_every}")


@dataclass
class OptimizerState:
    m: list  # first moments, one array per parameter
    v: list  # second moments
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(params: list, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> OptimizerState:
    return OptimizerState(
        m=[np.zeros_like(p.data) for p in params],
        v=[np.zeros_like(p.data) for p in params],
        step=0,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
    )


def adam_step(state: OptimizerState, params: list, grads: list, lr: float) -> None:
    """One bias-corrected Adam update, in place on every parameter.

    `grads` aligns with `params`; a None entry means the parameter did not
    participate in the step and is treated as zero gradient (its moments
    decay but a zero moment stays zero, so the value is untouched).
    """
    if len(grads) != len(params):
        raise ParameterError(f"{len(grads)} gradients for {len(params)} parameters")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
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
        p.data -= (lr / c1) * m / (np.sqrt(v / c2) + state.eps)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Halving schedule over main-training epochs: lr0 * 0.5^(epoch // k)."""
    if epoch < 0:
        raise ParameterError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * 0.5 ** (epoch // cfg.halve_every)


# ---------------------------------------------------------------------------
# data plumbing


def load_pairs(man: DatasetManifest, base_dir, role: str = "train") -> list:
    """(lr, hr) array pairs for every manifest entry of the given role.

    Entries point at HR cubes under ``hr/``; the LR mate lives at the same
    path under ``lr/``. All pairs must share one patch geometry.
    """
    base = Path(base_dir)
    pairs = []
    for rel in man.paths(role):
        hr = read_cube(base / rel)
        lr = read_cube(base / lr_counterpart(rel))
        if lr.bands != hr.bands:
            raise DimensionError(f"{rel}: LR has {lr.bands} bands, HR has {hr.bands}")
        if lr.height * man.scale != hr.height or lr.width * man.scale != hr.width:
            raise DimensionError(
                f"{rel}: LR {lr.height}x{lr.width} is not HR {hr.height}x{hr.width} "
                f"downscaled by {man.scale}"
            )
        pairs.append((lr.values, hr.values))
    if pairs:
        shape = pairs[0][1].shape
        for (lrv, hrv), rel in zip(pairs, man.paths(role)):
            if hrv.shape != shape:
                raise DimensionError(
                    f"{rel}: patch shape {hrv.shape} differs from {shape}; "
                    "the training set must be uniform"
                )
    return pairs


def _augmented(arr: np.ndarray, code: int) -> np.ndarray:
    return augment(HSCube(arr), code).values if code else arr


# ---------------------------------------------------------------------------
# the loop


def train(man: DatasetManifest, net_cfg: NetConfig, cfg: TrainConfig, out_dir,
          base_dir=None, log_cb=None):
    """Run warm-up then main training; returns (net, history).

    Writes ``train.log`` (one ``epoch=<i> lr=<f> loss=<f> secs=<f>`` line per
    epoch, epochs numbered continuously across both phases) and
    ``checkpoint.pdec`` into out_dir, plus periodic checkpoints when
    configured. On divergence the last checkpoint already on disk is left in
    place and a TrainingError is raised.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = Path(base_dir) if base_dir is not None else out_dir
    pairs = load_pairs(man, base, "train")
    if not pairs:
        raise ParameterError("manifest has no train entries")
    if man.scale != net_cfg.scale:
        raise ParameterError(
            f"manifest was prepared for scale {man.scale}, config says {net_cfg.scale}"
        )

    root = np.random.SeedSequence(cfg.seed)
    init_ss, order_ss, gate_ss = root.spawn(3)
    net = build_net(net_cfg, np.random.default_rng(init_ss), tau=cfg.tau)
    params = parameters(net)
    state = init_adam(params, cfg.beta1, cfg.beta2, cfg.eps)
    order_rng = np.random.default_rng(order_ss)
    gate_rng = np.random.default_rng(gate_ss)

    history = []
    total = cfg.warmup_epochs + cfg.main_epochs
    log_path = out_dir / "train.log"
    with open(log_path, "w") as log:
        for epoch in range(total):
            t0 = time.perf_counter()
            main_i = epoch - cfg.warmup_epochs
            warm = main_i < 0
            lr = cfg.lr0 if warm else lr_at(main_i, cfg)
            mode = "warmup" if warm else "train"
            order = order_rng.permutation(len(pairs))
            codes = (
                order_rng.integers(0, 8, size=len(pairs))
                if cfg.augment
                else np.zeros(len(pairs), dtype=int)
            )
            epoch_losses = []
            for lo in range(0, len(order), cfg.batch):
                idx = order[lo:lo + cfg.batch]
                x = np.stack([_augmented(pairs[i][0], int(codes[i])) for i in idx])
                y = np.stack([_augmented(pairs[i][1], int(codes[i])) for i in idx])
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
                grads = []
                for p in params:
                    nid = graph.leaf_id(p)
                    grads.append(None if nid is None else node_grads.get(nid))
                adam_step(state, params, grads, lr)
                epoch_losses.append(lval)
            secs = time.perf_counter() - t0
            mean_loss = float(np.mean(epoch_losses))
            line = f"epoch={epoch} lr={lr:.8g} loss={mean_loss:.8g} secs={secs:.3f}"
            log.write(line + "\n")
            log.flush()
            if log_cb is not None:
                log_cb(line)
            history.append(
                {"epoch": epoch, "phase": mode, "lr": lr, "loss": mean_loss, "secs": secs}
            )
            if cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
                save_checkpoint(net, out_dir / f"checkpoint_ep{epoch:04d}.pdec")
    save_checkpoint(net, out_dir / "checkpoint.pdec")
    return net, history


# ---------------------------------------------------------------------------
# checkpoint container


def _scalar_entries(net: SRNet) -> list:
    cfg = net.cfg
    vals = {
        "bands": cfg.bands,
        "scale": cfg.scale,
        "stages": cfg.stages,
        "units_per_stage": cfg.units_per_stage,
        "channels": cfg.channels,
        "tau": net.tau,
    }
    return [(f"config.{k}", np.asarray(vals[k], dtype=np.float32)) for k in _CONFIG_KEYS]


def save_checkpoint(net: SRNet, path) -> None:
    """Serialize config scalars and every parameter; atomic write."""
    path = Path(path)
    entries = _scalar_entries(net) + [(p.name, p.data) for p in parameters(net)]
    blob = [_CKPT_MAGIC, struct.pack("<II", _CKPT_VERSION, len(entries))]
    for name, arr in entries:
        nb = name.encode("utf-8")
        arr = np.asarray(arr)
        blob.append(struct.pack("<I", len(nb)))
        blob.append(nb)
        blob.append(struct.pack("<I", arr.ndim))
        blob.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        blob.append(arr.astype("<f4").tobytes())
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(b"".join(blob))
    os.replace(tmp, path)


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
        raw, off = _read_exact(buf, off, 4 * ndim, path, "shape")
        shape = struct.unpack(f"<{ndim}I", raw) if ndim else ()
        n = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        raw, off = _read_exact(buf, off, 4 * n, path, f"payload of {name}")
        entries[name] = np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(shape)
    if off != len(buf):
        raise FormatError(f"{path}: {len(buf) - off} trailing bytes after last entry")

    conf = {}
    for key in _CONFIG_KEYS:
        arr = entries.pop(f"config.{key}", None)
        if arr is None:
            raise FormatError(f"{path}: missing config entry {key!r}")
        if arr.size != 1 or not np.isfinite(arr).all():
            raise FormatError(f"{path}: config entry {key!r} must be one finite value")
        val = float(arr.reshape(()))
        if key != "tau" and val != int(val):
            raise FormatError(f"{path}: config entry {key!r} = {val} is not an integer")
        conf[key] = val if key == "tau" else int(val)
    tau = conf.pop("tau")
    net = build_net(NetConfig(**conf), np.random.default_rng(0), tau=tau)
    for p in parameters(net):
        if p.name not in entries:
            raise FormatError(f"{path}: missing parameter {p.name!r}")
        arr = entries.pop(p.name)
        if arr.shape != p.data.shape:
            raise FormatError(
                f"{path}: parameter {p.name!r} has shape {arr.shape}, expected {p.data.shape}"
            )
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: parameter {p.name!r} has non-finite values")
        p.data = arr
    if entries:
        raise FormatError(f"{path}: unknown entries {sorted(entries)[:3]}")
    return net
