"""Multi-stage super-resolution network with gated units and a learned
degradation layer.

Each stage maps an LR-sized residual to an HR-sized correction: a 1x1 stem
lifts the input to C channels, J embedding units refine features (each unit
fed by a gated dense aggregation of everything before it), and a head conv +
pixel shuffle + 3x3 tail emit the correction image. Stage 1 corrects plain
bicubic upsampling; every later stage corrects the running estimate using
the mismatch between the network input and the re-degraded estimate, through
one degradation conv shared across all stages and the loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError
from .gating import MODES, GateParams, init_gate, mask_for
from .tensor import (
    Graph,
    Param,
    Tensor,
    absolute,
    add,
    bicubic_resize,
    concat_channels,
    conv2d,
    mean_all,
    mul,
    pixel_shuffle,
    relu,
    reshape,
    scale,
    slice1d,
    sub,
)

__all__ = [
    "NetConfig",
    "ConvLayer",
    "EmbedUnit",
    "AggBlock",
    "StageNet",
    "SRNet",
    "build_net",
    "parameters",
    "unit_forward",
    "aggregate",
    "stage_forward",
    "degrade",
    "forward",
    "loss",
]

_DEGRADE_KERNEL = {2: 3, 4: 5, 8: 9}


@dataclass
class NetConfig:
    bands: int
    scale: int = 4
    stages: int = 4
    units_per_stage: int = 3
    channels: int = 32

    def __post_init__(self):
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
    tau: float = 2.0 / 3.0
    _params: list = field(default_factory=list, repr=False)


def _init_conv(name: str, cout: int, cin_g: int, kh: int, kw: int,
               rng: np.random.Generator, dtype, **conv_kw) -> ConvLayer:
    bound = 1.0 / np.sqrt(cin_g * kh * kw)
    kernel = rng.uniform(-bound, bound, size=(cout, cin_g, kh, kw)).astype(dtype)
    return ConvLayer(
        Param(f"{name}.kernel", kernel),
        Param(f"{name}.bias", np.zeros(cout, dtype=dtype)),
        **conv_kw,
    )


def build_net(cfg: NetConfig, rng: np.random.Generator, keep_prob: float = 0.9,
              tau: float = 2.0 / 3.0, dtype=np.float32) -> SRNet:
    """Fresh network: uniform(-1/sqrt(fan_in)) conv weights, zero biases,
    box-filter degradation kernel, all gate logits at sigmoid^-1(keep_prob)."""
    # tau is stored as float32 in checkpoints; canonicalize now so a
    # save/load round trip leaves forward computations bit-identical.
    tau = float(np.float32(tau))
    b, c, a = cfg.bands, cfg.channels, cfg.scale
    stages = []
    for t in range(1, cfg.stages + 1):
        pre = f"stage{t}"
        stem = _init_conv(f"{pre}.stem", c, b, 1, 1, rng, dtype)
        units, aggs = [], []
        for j in range(1, cfg.units_per_stage + 1):
            aggs.append(AggBlock(
                init_gate(f"{pre}.agg{j}.gate_k", j * c, keep_prob, tau, dtype),
                _init_conv(f"{pre}.agg{j}.compress", c, j * c, 1, 1, rng, dtype),
            ))
            units.append(EmbedUnit(
                _init_conv(f"{pre}.unit{j}.spe", c, c, 1, 1, rng, dtype),
                _init_conv(f"{pre}.unit{j}.spa", c, 1, 3, 3, rng, dtype,
                           padding=1, groups=c),
                init_gate(f"{pre}.unit{j}.gate_l", 2 * c, keep_prob, tau, dtype),
            ))
        head = _init_conv(f"{pre}.head", b * a * a, c, 3, 3, rng, dtype, padding=1)
        tail = _init_conv(f"{pre}.tail", b, b, 3, 3, rng, dtype, padding=1)
        stages.append(StageNet(stem, units, aggs, head, tail))

    k = cfg.degrade_kernel
    box = np.zeros((b, b, k, k), dtype=dtype)
    for i in range(b):
        box[i, i] = 1.0 / (k * k)
    deg = ConvLayer(
        Param("degrade.kernel", box),
        Param("degrade.bias", np.zeros(b, dtype=dtype)),
        stride=a,
        padding=(k - 1) // 2,
    )
    net = SRNet(cfg, stages, deg, tau=tau)
    net._params = _collect_params(net)
    return net


def _collect_params(net: SRNet) -> list:
    out = []
    for st in net.stages:
        out += [st.stem.kernel, st.stem.bias]
        for agg, unit in zip(st.aggs, st.units):
            out += [agg.gate_k.logits, agg.compress.kernel, agg.compress.bias]
            out += [unit.spe.kernel, unit.spe.bias, unit.spa.kernel, unit.spa.bias,
                    unit.gate_l.logits]
        out += [st.head.kernel, st.head.bias, st.tail.kernel, st.tail.bias]
    out += [net.degrade_layer.kernel, net.degrade_layer.bias]
    names = [p.name for p in out]
    assert len(names) == len(set(names)), "parameter names must be unique"
    return out


def parameters(net: SRNet) -> list:
    """All trainable parameters (conv weights, biases, gate logits) in a
    fixed traversal order; the order defines checkpoint and optimizer layout."""
    return list(net._params)


# ---------------------------------------------------------------------------
# mask plumbing
#
# A gate yields one [1,C,1,1] mask broadcast over the batch. Monte-Carlo
# inference runs one single-sample forward per substream, so every sample
# draws its own hard masks.


def _agg_mask(gate: GateParams, mode: str, rng, graph: Graph):
    m = mask_for(gate, mode, rng, graph)
    return reshape(m, (1, gate.channels, 1, 1))


def _unit_masks(gate: GateParams, mode: str, rng, graph: Graph):
    c2 = gate.channels
    c = c2 // 2
    m = mask_for(gate, mode, rng, graph)
    m1 = reshape(slice1d(m, 0, c), (1, c, 1, 1))
    m2 = reshape(slice1d(m, c, c2), (1, c, 1, 1))
    return m1, m2


# ---------------------------------------------------------------------------
# forward pieces


def unit_forward(unit: EmbedUnit, x: Tensor, mode: str, rng=None, graph: Graph = None) -> Tensor:
    """Residual spectral then spatial mixing, each branch gated per channel:
    O = x + spe(x) * m1; out = O + spa(O) * m2."""
    c = unit.spe.kernel.data.shape[0]
    if x.shape[1] != c:
        raise DimensionError(f"unit expects {c} channels, got {x.shape[1]}")
    m1, m2 = _unit_masks(unit.gate_l, mode, rng, graph)
    o = add(x, mul(unit.spe.apply(x, graph), m1))
    return add(o, mul(unit.spa.apply(o, graph), m2))


def aggregate(stage: StageNet, j: int, feats: list, mode: str, rng=None,
              graph: Graph = None) -> Tensor:
    """Gated dense reuse feeding unit j: mask each of the j earlier features
    per channel, concatenate, compress back to C with a 1x1 conv, relu."""
    if not 1 <= j <= len(stage.aggs):
        raise ParameterError(f"unit index {j} out of range 1..{len(stage.aggs)}")
    if len(feats) != j:
        raise DimensionError(f"aggregation for unit {j} needs {j} features, got {len(feats)}")
    blk = stage.aggs[j - 1]
    cat = feats[0] if j == 1 else concat_channels(feats)
    mask = _agg_mask(blk.gate_k, mode, rng, graph)
    return relu(blk.compress.apply(mul(cat, mask), graph))


def stage_forward(stage: StageNet, x: Tensor, alpha: int, mode: str, rng=None,
                  graph: Graph = None) -> Tensor:
    """One stage's correction image: exactly alpha times the input extents."""
    feats = [stage.stem.apply(x, graph)]
    for j in range(1, len(stage.units) + 1):
        a = aggregate(stage, j, feats[:j], mode, rng, graph)
        feats.append(unit_forward(stage.units[j - 1], a, mode, rng, graph))
    r = stage.head.apply(feats[-1], graph)
    r = pixel_shuffle(r, alpha)
    return stage.tail.apply(r, graph)


def degrade(net: SRNet, hr: Tensor, graph: Graph = None) -> Tensor:
    """Learned HR->LR map: the shared stride-alpha convolution."""
    a = net.cfg.scale
    if hr.shape[2] % a or hr.shape[3] % a:
        raise DimensionError(
            f"degrade input extents {hr.shape[2]}x{hr.shape[3]} not divisible by {a}"
        )
    return net.degrade_layer.apply(hr, graph)


def forward(net: SRNet, x, mode: str, rng=None, graph: Graph = None):
    """Full multi-stage estimate.

    Returns (y_hat, x_hat): the HR reconstruction and its re-degraded LR
    image (the source-consistency side of the loss). The first stage
    corrects bicubic upsampling; stage t >= 2 sees the residual between the
    network input and degrade(previous estimate) and adds its correction to
    the running estimate. Output is not clamped here; clamping happens only
    at image export.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}; expected one of {MODES}")
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.ndim != 4:
        raise DimensionError(f"forward input must be [N,B,h,w], got {x.shape}")
    if x.shape[1] != net.cfg.bands:
        raise DimensionError(f"input has {x.shape[1]} bands, config says {net.cfg.bands}")
    if mode in ("train", "sample") and not isinstance(rng, np.random.Generator):
        raise ParameterError(f"{mode} mode needs a numpy Generator, got {type(rng).__name__}")
    a = net.cfg.scale
    n, b, h, w = x.shape
    base = bicubic_resize(x.detach(), h * a, w * a)
    y = add(stage_forward(net.stages[0], x, a, mode, rng, graph), base)
    for t in range(1, net.cfg.stages):
        resid = sub(x, degrade(net, y, graph))
        y = add(stage_forward(net.stages[t], resid, a, mode, rng, graph), y)
    return y, degrade(net, y, graph)


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
