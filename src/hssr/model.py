"""Multi-stage super-resolution network with gated units and a learned
degradation layer.

Each stage maps an LR-sized residual to an HR-sized correction: a 1x1 stem
lifts the input to C channels, J embedding units refine features (each unit
fed by a gated dense aggregation of everything before it), and a head conv +
pixel shuffle + 3x3 tail emit the correction image. Stage 1 corrects plain
bicubic upsampling; every later stage corrects the running estimate using
the mismatch between the network input and the re-degraded estimate, through
one degradation conv shared across all stages and the loss.

Only the LR half of a stage is gated; the head, shuffle, tail and
degradation are affine, which `mean_estimate` uses to average Monte-Carlo
samples without building any of them at HR. Without a tape, a stage's HR
half runs in bands of rows and adds each band into the estimate in place
(`finish_stage`), so no whole HR cube is built beside the estimate itself.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import get_type_hints

import numpy as np

from .errors import DimensionError, ParameterError
from .gating import GateParams, mask_for
from .tensor import (
    Graph,
    Param,
    Tensor,
    absolute,
    add,
    bicubic_resize,
    concat_channels,
    conv2d,
    conv_block_rows,
    gate_channels,
    mean_all,
    mul,
    pixel_shuffle,
    relu,
    scale,
    sub,
)

__all__ = [
    "NetConfig",
    "ConvLayer",
    "EmbedUnit",
    "AggBlock",
    "StageNet",
    "SRNet",
    "hparam",
    "check_field_types",
    "assemble",
    "build_net",
    "parameters",
    "unit_forward",
    "aggregate",
    "stage_features",
    "stage_upsample",
    "finish_stage",
    "degrade",
    "refine",
    "forward",
    "chain_kernels",
    "chain_plan",
    "mean_estimate",
    "loss",
]

_DEGRADE_KERNEL = {2: 3, 4: 5, 8: 9}
_KEEP_PROB = 0.9  # every gate channel's keep probability in a fresh network


def hparam(default, help: str, key: str = None):
    """A hyperparameter field of `NetConfig` or `TrainConfig`: its default,
    and the help text `hssr train --help` lists. The run configuration file
    names it by the field name, or by `key` where that name cannot serve."""
    return field(default=default, metadata={"help": help, "key": key})


_FIELD_KINDS = {int: numbers.Integral, float: numbers.Real, bool: bool}


def check_field_types(cfg) -> None:
    """ParameterError unless every field of the config dataclass `cfg` holds
    its annotated type: an int field an integral number and a float field a
    real one, neither of them a bool, and a bool field a bool."""
    for name, typ in get_type_hints(type(cfg)).items():
        value = getattr(cfg, name)
        if not isinstance(value, _FIELD_KINDS[typ]) or (typ is not bool and isinstance(value, bool)):
            raise ParameterError(f"{name} must be {typ.__name__}, got {value!r}")


@dataclass(frozen=True)
class NetConfig:
    """The architecture. `bands` comes from the data and `hssr train` takes
    `scale` from the dataset manifest; each checkpoint stores every field.
    Frozen, since `assemble` copies tau into every gate."""

    bands: int
    scale: int = 4
    stages: int = hparam(4, "refinement stages T")
    units_per_stage: int = hparam(3, "embedding units J per stage")
    channels: int = hparam(32, "feature channels C")
    tau: float = hparam(2.0 / 3.0, "gate relaxation temperature")

    def __post_init__(self):
        check_field_types(self)
        if self.bands < 1:
            raise ParameterError(f"bands must be >= 1, got {self.bands}")
        if self.scale not in _DEGRADE_KERNEL:
            raise ParameterError(f"scale must be one of {sorted(_DEGRADE_KERNEL)}, got {self.scale}")
        if self.stages < 1:
            raise ParameterError(f"stages must be >= 1, got {self.stages}")
        if self.units_per_stage < 1:
            raise ParameterError(f"units_per_stage must be >= 1, got {self.units_per_stage}")
        if self.channels < 4:
            raise ParameterError(f"channels must be >= 4, got {self.channels}")
        # checkpoints store tau as float32; round it now so a save/load round
        # trip leaves every forward bit-identical
        with np.errstate(over="ignore"):
            tau = float(np.float32(self.tau))
        if not 0 < tau < np.inf:  # also false for nan
            raise ParameterError(f"tau must be finite and > 0 in float32, got {self.tau}")
        object.__setattr__(self, "tau", tau)

    @property
    def degrade_kernel(self) -> int:
        return _DEGRADE_KERNEL[self.scale]


@dataclass
class ConvLayer:
    kernel: Param  # [cout, cin/groups, kh, kw]
    bias: Param  # [cout]
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def apply(self, x: Tensor, graph: Graph = None) -> Tensor:
        if graph is not None:
            k, b = graph.leaf_for(self.kernel), graph.leaf_for(self.bias)
        else:
            k, b = Tensor(self.kernel.data), Tensor(self.bias.data)
        return conv2d(x, k, b, stride=self.stride, padding=self.padding, groups=self.groups)


@dataclass
class EmbedUnit:
    spe: ConvLayer  # pointwise, cross-channel
    spa: ConvLayer  # depthwise 3x3, per-channel
    gate_l: GateParams  # 2C logits: first C gate spe, last C gate spa


@dataclass
class AggBlock:
    gate_k: GateParams  # j*C logits, one block per prior feature
    compress: ConvLayer  # 1x1, j*C -> C


@dataclass
class StageNet:
    stem: ConvLayer
    units: list
    aggs: list
    head: ConvLayer
    tail: ConvLayer


@dataclass
class SRNet:
    cfg: NetConfig
    stages: list
    degrade_layer: ConvLayer
    _params: list = field(repr=False)  # parameters() order


def _uniform(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    bound = 1.0 / np.sqrt(np.prod(shape[1:]))  # 1/sqrt(fan_in) of a conv kernel
    return rng.uniform(-bound, bound, size=shape)


def _zeros(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    return np.zeros(shape)


def _keep_logits(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    return np.full(shape, np.log(_KEEP_PROB / (1.0 - _KEEP_PROB)))


def _box(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    b, _, k, _ = shape
    box = np.zeros(shape)
    box[np.arange(b), np.arange(b)] = 1.0 / (k * k)
    return box


def assemble(cfg: NetConfig, param) -> SRNet:
    """The network `cfg` describes, with each parameter made by
    `param(name, shape, init)` in `parameters` order; `init(rng, shape)`
    draws the parameter's fresh value in float64.

    `build_net` passes a `param` that draws; `load_checkpoint` passes one
    that takes the file's arrays, so a file that does not match its config
    is rejected before anything sized by that config is allocated.
    """
    made = []

    def new(name, shape, init):
        made.append(param(name, shape, init))
        return made[-1]

    def conv(name, cout, cin_g, k, **conv_kw):
        return ConvLayer(new(f"{name}.kernel", (cout, cin_g, k, k), _uniform),
                         new(f"{name}.bias", (cout,), _zeros), **conv_kw)

    def gate(name, channels):
        return GateParams(new(name, (channels,), _keep_logits), cfg.tau)

    b, c, a = cfg.bands, cfg.channels, cfg.scale
    stages = []
    for t in range(1, cfg.stages + 1):
        pre = f"stage{t}"
        stem = conv(f"{pre}.stem", c, b, 1)
        units, aggs = [], []
        for j in range(1, cfg.units_per_stage + 1):
            aggs.append(AggBlock(gate(f"{pre}.agg{j}.gate_k", j * c),
                                 conv(f"{pre}.agg{j}.compress", c, j * c, 1)))
            units.append(EmbedUnit(conv(f"{pre}.unit{j}.spe", c, c, 1),
                                   conv(f"{pre}.unit{j}.spa", c, 1, 3, padding=1, groups=c),
                                   gate(f"{pre}.unit{j}.gate_l", 2 * c)))
        head = conv(f"{pre}.head", b * a * a, c, 3, padding=1)
        tail = conv(f"{pre}.tail", b, b, 3, padding=1)
        stages.append(StageNet(stem, units, aggs, head, tail))
    k = cfg.degrade_kernel
    deg = ConvLayer(new("degrade.kernel", (b, b, k, k), _box), new("degrade.bias", (b,), _zeros),
                    stride=a, padding=(k - 1) // 2)
    names = [p.name for p in made]
    assert len(names) == len(set(names)), "parameter names must be unique"
    return SRNet(cfg, stages, deg, _params=made)


def build_net(cfg: NetConfig, rng: np.random.Generator) -> SRNet:
    """Fresh float32 network: uniform(-1/sqrt(fan_in)) conv weights, zero
    biases, box-filter degradation kernel, every gate logit at logit(0.9)."""
    return assemble(cfg, lambda name, shape, init:
                    Param(name, init(rng, shape).astype(np.float32)))


def parameters(net: SRNet) -> list:
    """All trainable parameters (conv weights, biases, gate logits) in a
    fixed traversal order; the order defines checkpoint and optimizer layout."""
    return list(net._params)


# ---------------------------------------------------------------------------
# forward pieces


def unit_forward(unit: EmbedUnit, x: Tensor, mode: str, rng=None, graph: Graph = None) -> Tensor:
    """Residual spectral then spatial mixing, each branch gated per channel
    by one half of the 2C mask m: O = x + spe(x) * m[:C];
    out = O + spa(O) * m[C:]."""
    m = mask_for(unit.gate_l, mode, rng, graph)
    o = add(x, gate_channels(unit.spe.apply(x, graph), m))
    return add(o, gate_channels(unit.spa.apply(o, graph), m, x.shape[1]))


def aggregate(stage: StageNet, j: int, feats: list, mode: str, rng=None,
              graph: Graph = None) -> Tensor:
    """Gated dense reuse feeding unit j: mask each of the j earlier features
    per channel, concatenate, compress back to C with a 1x1 conv, relu."""
    if not 1 <= j <= len(stage.aggs):
        raise ParameterError(f"unit index {j} out of range 1..{len(stage.aggs)}")
    if len(feats) != j:
        raise DimensionError(f"aggregation for unit {j} needs {j} features, got {len(feats)}")
    blk = stage.aggs[j - 1]
    # off the tape the concatenation is a temporary, dead before compress runs
    gated = gate_channels(feats[0] if j == 1 else concat_channels(feats),
                          mask_for(blk.gate_k, mode, rng, graph))
    return relu(blk.compress.apply(gated, graph))


def stage_features(stage: StageNet, x: Tensor, mode: str, rng=None,
                   graph: Graph = None) -> Tensor:
    """The gated half of a stage at LR: the stem, then every aggregation and
    unit in turn; returns the last unit's C-channel features."""
    feats = [stage.stem.apply(x, graph)]
    for j in range(1, len(stage.units) + 1):
        a = aggregate(stage, j, feats[:j], mode, rng, graph)
        feats.append(unit_forward(stage.units[j - 1], a, mode, rng, graph))
    return feats[-1]


def stage_upsample(stage: StageNet, f: Tensor, alpha: int, graph: Graph = None) -> Tensor:
    """The affine, gate-free half of a stage: head conv at LR, pixel shuffle,
    tail conv at HR; a correction image exactly alpha times f's extents."""
    r = pixel_shuffle(stage.head.apply(f, graph), alpha)
    return stage.tail.apply(r, graph)


def finish_stage(stage: StageNet, f: np.ndarray, alpha: int, y: np.ndarray) -> None:
    """y += stage_upsample(stage, f, alpha), in place and without a tape, a
    band of rows at a time, for f [N, C, h, w].

    The head and the tail run as valid convs over exactly the row blocks
    that `conv2d` runs them in on the whole cube (`conv_block_rows`, sized
    by its byte budget), so every matmul and every bit is the same as in
    `stage_upsample`. f is zero-padded once; the tail input buffer's side
    columns stay zero. One loop walks the tail blocks, keeping buffer rows
    top..end-1 the next tail block's input, from its first row. Only when
    fewer than its t + kt - 1 rows are on hand do they move to the top, and
    head blocks are shuffled in below them (zeros below the cube); so a move
    is never longer than a tail block's input. No head row is made twice,
    and the buffer holds a tail block's input and a head block.
    """
    head = ConvLayer(stage.head.kernel, stage.head.bias)  # valid convs: padding is done here
    tail = ConvLayer(stage.tail.kernel, stage.tail.bias)
    ph, pt = stage.head.padding, stage.tail.padding
    n, c, h, w = f.shape
    b, _, kt, _ = tail.kernel.data.shape
    kh = head.kernel.data.shape[2]
    hrows = conv_block_rows(c, h, w, kh, kh, 1, ph, f.itemsize)
    trows = conv_block_rows(b, alpha * h, alpha * w, kt, kt, 1, pt, f.itemsize)
    fp = np.pad(f, ((0, 0), (0, 0), (ph, ph), (ph, ph)))
    buf = np.zeros((n, b, trows + kt - 1 + alpha * hrows, alpha * w + 2 * pt), dtype=f.dtype)
    top, end, s0 = 0, pt, 0  # the first tail block's input starts with pt zero rows above the cube
    for t0 in range(0, alpha * h, trows):
        t = min(trows, alpha * h - t0)
        if end - top < t + kt - 1:  # too few rows on hand: move them to the top of buf
            buf[:, :, :end - top] = buf[:, :, top:end]
            top, end = 0, end - top
        while end < t + kt - 1 and s0 < h:
            s = min(hrows, h - s0)
            pixel_shuffle(head.apply(Tensor(fp[:, :, s0:s0 + s + kh - 1])), alpha,
                          out=buf[:, :, end:end + alpha * s, pt:pt + alpha * w])
            end, s0 = end + alpha * s, s0 + s
        buf[:, :, end:top + t + kt - 1] = 0  # rows below the cube
        y[:, :, t0:t0 + t] += tail.apply(Tensor(buf[:, :, top:top + t + kt - 1])).data
        top, end = top + t, max(end, top + t + kt - 1)


def degrade(net: SRNet, hr: Tensor, graph: Graph = None) -> Tensor:
    """Learned HR->LR map: the shared stride-alpha convolution."""
    a = net.cfg.scale
    if hr.shape[2] % a or hr.shape[3] % a:
        raise DimensionError(
            f"degrade input extents {hr.shape[2]}x{hr.shape[3]} not divisible by {a}"
        )
    return net.degrade_layer.apply(hr, graph)


def _as_input(net: SRNet, x) -> Tensor:
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.ndim != 4:
        raise DimensionError(f"forward input must be [N,B,h,w], got {x.shape}")
    if x.shape[1] != net.cfg.bands:
        raise DimensionError(f"input has {x.shape[1]} bands, config says {net.cfg.bands}")
    return x


def refine(net: SRNet, x, y: np.ndarray, mode: str, rng=None) -> np.ndarray:
    """`forward`'s HR reconstruction without a tape, written into
    y [N, B, alpha*h, alpha*w]: y starts as the bicubic base, and each stage
    adds its correction into it band by band (`finish_stage`). Returns y."""
    x = _as_input(net, x)
    a = net.cfg.scale
    _, _, h, w = x.shape
    bicubic_resize(x.detach(), h * a, w * a, out=y)
    for t, stage in enumerate(net.stages):
        inp = x if t == 0 else sub(x, degrade(net, Tensor(y)))
        finish_stage(stage, stage_features(stage, inp, mode, rng).data, a, y)
    return y


def forward(net: SRNet, x, mode: str, rng=None, graph: Graph = None):
    """Full multi-stage estimate.

    Returns (y_hat, x_hat): the HR reconstruction and its re-degraded LR
    image (the source-consistency side of the loss). The first stage
    corrects bicubic upsampling; stage t >= 2 sees the residual between the
    network input and degrade(previous estimate) and adds its correction to
    the running estimate. y_hat is not clamped here; clamping happens only
    at image export. With a graph, each stage's correction is a whole taped
    cube; without one, y_hat is made by `refine`.
    """
    x = _as_input(net, x)
    a = net.cfg.scale
    n, b, h, w = x.shape
    if graph is None:
        y = Tensor(refine(net, x, np.empty((n, b, h * a, w * a), dtype=x.dtype), mode, rng))
        return y, degrade(net, y)
    y = bicubic_resize(x.detach(), h * a, w * a)
    for t, stage in enumerate(net.stages):
        inp = x if t == 0 else sub(x, degrade(net, y, graph))
        y = add(stage_upsample(stage, stage_features(stage, inp, mode, rng, graph), a, graph), y)
    return y, degrade(net, y, graph)


# ---------------------------------------------------------------------------
# Monte-Carlo mean through the affine half of each stage
#
# Everything after a stage's last gated unit is affine: stage_upsample, and
# the shared degrade that feeds the next stage. So the mean over samples of a
# stage's correction is stage_upsample of its mean LR features, and a
# sample's degrade(y) is degrade(bicubic base) plus, per finished stage, the
# chain degrade_lin(stage_upsample(f)): one C->B conv of f at LR plus a
# constant. The tail's and degrade's zero padding cuts taps of that chain
# near the borders, so its kernel and constant depend on which HR border
# cells an LR position's chain reaches. Positions that reach the same ones
# form a class, and each (row class, column class) pair gets its own kernel,
# composed in float64 straight from the head, tail and degrade weights. A
# kernel spans only the f offsets its class's chain reads: 5x5 in the
# interior at x2, 4x4 (offsets -2..1) at x4 and x8, less on the borders.
# The kernels depend on the weights and the LR extents only, so `chain_plan`
# builds them once for every cube of one extent. The HR half then runs once
# per stage through `finish_stage`, in conv row blocks added into the output
# in place: beyond the output cube, a stage holds a head block, a tail block
# and its halo, and the zero-padded LR features.


def _axis_classes(n: int, alpha: int, deg: ConvLayer, stage: StageNet):
    """Classes of LR positions 0..n-1 along one axis, with 0/1 tap routing.

    Along an axis, degrade tap d reads HR cell alpha*i + d - pd, and tail tap
    e then reads HR cell alpha*i + u[d, e]. That cell is sub-position
    s = u mod alpha of head pixel i + u // alpha, so its value comes from the
    head channels of sub-position s at pixel i + q0 + q, q = u // alpha - q0.
    Positions whose degrade and tail taps hit the same in-bounds HR cells
    form a class; only positions within reach of an HR border differ from
    the interior.

    Returns (q0, classes); each class is (positions, m, route, qs) with
    m[d] = 1 where degrade tap d is in bounds,
    route[d*kt + e, q*alpha + s] = 1 where tail tap e is in bounds too and
    lands on sub-position s of head pixel q, and qs the range of head pixels
    q that some route reaches.
    """
    kd, pd = deg.kernel.data.shape[-1], deg.padding
    kt, pt = stage.tail.kernel.data.shape[-1], stage.tail.padding
    du = np.arange(kd) - pd
    u = (du[:, None] + np.arange(kt) - pt).ravel()  # [kd*kt], d-major
    q0 = int(u.min()) // alpha
    hit = u[:, None] - q0 * alpha == np.arange((u.max() // alpha - q0 + 1) * alpha)
    hr = alpha * np.arange(n)[:, None]
    m = (0 <= hr + du) & (hr + du < alpha * n)  # [n, kd]
    ok = np.repeat(m, kt, axis=1) & (0 <= hr + u) & (hr + u < alpha * n)  # [n, kd*kt]
    # ok[:, d*kt + pt] == m[:, d] (the centre tail tap), so ok alone keys the classes
    starts = np.flatnonzero(np.r_[True, (ok[1:] != ok[:-1]).any(axis=1)]).tolist()
    classes = []
    for i, j in zip(starts, starts[1:] + [n]):
        route = hit & ok[i, :, None]
        qs = np.flatnonzero(route.reshape(kd * kt, -1, alpha).any(axis=(0, 2)))
        classes.append((slice(i, j), m[i].astype(np.float64), route.astype(np.float64),
                        range(qs[0], qs[-1] + 1)))
    return q0, classes


def chain_kernels(net: SRNet, stage: StageNet, h: int, w: int, dtype=np.float64):
    """degrade_lin(stage_upsample(f)) on an h x w LR grid as class convs.

    Returns (radius, classes): each class is (rows, cols, (oy, ox), kernel,
    const), and at LR position (i, j) of the class the chain equals
    sum_{v,u} kernel[:, :, v, u] * f[:, i + oy + v, j + ox + u] + const, with
    f zero outside the grid. A kernel [B, C, ky, kx] spans exactly the f
    offsets the class's chain reads, so its extents may be even; `radius` is
    the zero extension of f that every class's window fits in. The degrade
    bias is left out: it is part of degrade(base). Kernel and const [B] are
    composed in float64 straight from the head, tail and degrade weights,
    then cast to `dtype`.
    """
    a = net.cfg.scale
    deg = net.degrade_layer
    d = deg.kernel.data.astype(np.float64)  # [B, B, kd, kd]
    t = stage.tail.kernel.data.astype(np.float64)  # [B, B, kt, kt]
    hk = stage.head.kernel.data.astype(np.float64)  # [B*a*a, C, kh, kh], rows (B, s_y, s_x)
    b, c, kh, ph = t.shape[0], hk.shape[1], hk.shape[2], stage.head.padding
    kd, kt = d.shape[-1], t.shape[-1]
    q0, rows = _axis_classes(h, a, deg, stage)
    _, cols = _axis_classes(w, a, deg, stage)
    nq = rows[0][2].shape[1] // a
    # dt[o, B, (d_y, e_y), (d_x, e_x)]: degrade tap times tail tap
    dt = np.einsum("obyx,bBef->oByexf", d, t, optimize=True).reshape(b, b, kd * kt, kd * kt)
    hmat = hk.reshape(b * a * a, c * kh * kh)
    hb = np.tile(stage.head.bias.data.astype(np.float64), nq * nq)
    tb = stage.tail.bias.data.astype(np.float64)
    classes = []
    radius = 0
    for ys, my, ry, qys in rows:
        for xs, mx, rx, qxs in cols:
            # m[(o, q_y, q_x), (B, s_y, s_x)]: weight of each head output
            # channel at each head pixel offset
            m = (ry.T @ dt @ rx).reshape(b, b, nq, a, nq, a).transpose(0, 2, 4, 1, 3, 5)
            m = m.reshape(b * nq * nq, b * a * a)
            k = (m @ hmat).reshape(b, nq, nq, c, kh, kh)
            kernel = np.zeros((b, c, len(qys) + kh - 1, len(qxs) + kh - 1))
            for vy, qy in enumerate(qys):
                for vx, qx in enumerate(qxs):
                    kernel[:, :, vy:vy + kh, vx:vx + kh] += k[:, qy, qx]
            const = (d * my[:, None] * mx).sum(axis=(2, 3)) @ tb + m.reshape(b, -1) @ hb
            oy, ox = q0 + qys[0] - ph, q0 + qxs[0] - ph
            ky, kx = kernel.shape[2:]
            radius = max(radius, -oy, -ox, oy + ky - 1, ox + kx - 1)
            classes.append((ys, xs, (oy, ox), kernel.astype(dtype, copy=False),
                            const.astype(dtype, copy=False)))
    return radius, classes


def _chain_apply(radius: int, classes: list, f: np.ndarray) -> np.ndarray:
    """The class convs of `chain_kernels` on f [N, C, h, w]: each class is a
    valid cross-correlation of its window of f zero-extended by `radius`."""
    n, c, h, w = f.shape
    fp = np.zeros((n, c, h + 2 * radius, w + 2 * radius), dtype=f.dtype)
    fp[:, :, radius:radius + h, radius:radius + w] = f
    out = np.empty((n, classes[0][3].shape[0], h, w), dtype=f.dtype)
    for ys, xs, (oy, ox), k, e in classes:
        y0, x0 = radius + ys.start + oy, radius + xs.start + ox
        win = fp[:, :, y0:y0 + ys.stop - ys.start + k.shape[2] - 1,
                 x0:x0 + xs.stop - xs.start + k.shape[3] - 1]
        out[:, :, ys, xs] = conv2d(Tensor(win), Tensor(k), Tensor(e)).data
    return out


def chain_plan(net: SRNet, h: int, w: int, dtype=np.float32) -> list:
    """`chain_kernels` of every stage but the last on an h x w LR grid, in
    `dtype`: what `mean_estimate` needs for every cube of that extent."""
    return [chain_kernels(net, stage, h, w, dtype) for stage in net.stages[:-1]]


def mean_estimate(net: SRNet, x, rngs, chains: list = None) -> Tensor:
    """Mean over `rngs` of forward(net, x, "sample", rng)[0], with no HR sample.

    Each generator draws its gates in `forward`'s order, but a sample runs
    only the gated LR halves of the stages; its next-stage input comes from
    degrade(base) plus the chain convs of its finished stages. The HR head
    and tail then run once per stage, on the stage's mean features, adding
    band by band into a bicubic base made after the loop, so no HR cube is
    alive while the samples run. `chains` is `chain_plan` for x's extents
    and dtype, built here when not given.
    """
    x = _as_input(net, x)
    a = net.cfg.scale
    n, b, h, w = x.shape
    xhat0 = degrade(net, bicubic_resize(x, h * a, w * a)).data
    if chains is None:
        chains = chain_plan(net, h, w, x.dtype)
    fsum = np.zeros((len(net.stages), n, net.cfg.channels, h, w))
    count = 0
    for rng in rngs:
        count += 1
        xhat = xhat0
        for t, stage in enumerate(net.stages):
            inp = x if t == 0 else Tensor(x.data - xhat)
            f = stage_features(stage, inp, "sample", rng).data
            fsum[t] += f
            if t < len(chains):
                xhat = xhat + _chain_apply(*chains[t], f)
    if not count:
        raise ParameterError("need at least one generator")
    means = [(s / count).astype(x.dtype) for s in fsum]
    del fsum, f, xhat, inp  # only the float32 means outlive the sample loop
    base = bicubic_resize(x, h * a, w * a)
    for stage, m in zip(net.stages, means):
        finish_stage(stage, m, a, base.data)
    return base


def loss(y_hat: Tensor, y: Tensor, x_hat: Tensor, x: Tensor, lam: float = 1.0) -> Tensor:
    """mean |y_hat - y| + lam * mean (x_hat - x)^2, means over all elements."""
    y = y if isinstance(y, Tensor) else Tensor(y)
    x = x if isinstance(x, Tensor) else Tensor(x)
    if y_hat.shape != y.shape:
        raise DimensionError(f"HR shapes differ: {y_hat.shape} vs {y.shape}")
    if x_hat.shape != x.shape:
        raise DimensionError(f"LR shapes differ: {x_hat.shape} vs {x.shape}")
    l1 = mean_all(absolute(sub(y_hat, y)))
    d = sub(x_hat, x)
    l2 = mean_all(mul(d, d))
    return add(l1, scale(l2, float(lam)))
