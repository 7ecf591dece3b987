"""Gradient-check machinery, test-only constructors, the reference uncertainty
map and a loader for files outside the package, shared by the tests."""

import importlib.util
from pathlib import Path

import numpy as np

from hssr.errors import DimensionError, ParameterError
from hssr.evaluate import _bins, _values
from hssr.gating import GateParams
from hssr.model import NetConfig, assemble, build_net, forward, loss, parameters
from hssr.tensor import (
    Graph,
    Param,
    Tensor,
    absolute,
    add,
    backward,
    concat_channels,
    conv2d,
    gate_channels,
    mean_all,
    mul,
    pixel_shuffle,
    relu,
    scale,
    sigmoid,
    sub,
)


def load_module(rel_path: str):
    """The repository's file `rel_path`, imported as a module named after its stem."""
    path = Path(__file__).resolve().parent.parent / rel_path
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def rel_err(a: np.ndarray, n: np.ndarray) -> float:
    scale = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0), 1e-6)
    return float(np.abs(a - n).max(initial=0.0) / scale)


def numeric_grad(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central differences of scalar f() w.r.t. x, mutating x in place."""
    flat = x.reshape(-1)
    out = np.zeros(flat.size)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        out[i] = (fp - fm) / (2.0 * h)
    return out.reshape(x.shape)


def check_op_grad(op, args, wrt: int, rng: np.random.Generator,
                  h: float = 1e-4) -> float:
    """Max relative error between reverse-mode and FD gradients of one op.

    `args` are float64 arrays; the op output is reduced to a scalar through a
    fixed random weighting so every output element influences the check.
    """
    args = [np.ascontiguousarray(a, dtype=np.float64) for a in args]
    probe = op(*[Tensor(a) for a in args])
    w = rng.standard_normal(probe.data.shape)

    g = Graph()
    ts = [g.leaf(a) if i == wrt else Tensor(a) for i, a in enumerate(args)]
    s = mean_all(mul(op(*ts), Tensor(w)))
    ana = backward(s).get(ts[wrt].node_id)
    assert ana is not None, "op produced no gradient for the checked input"

    def f():
        return float((op(*[Tensor(a) for a in args]).data * w).mean())

    return rel_err(ana, numeric_grad(f, args[wrt], h))


# ---------------------------------------------------------------------------
# one gradcheck case per differentiable op and input slot


def _u(rng, *shape):
    return rng.uniform(-1.0, 1.0, size=shape)


def _away_from_zero(rng, *shape, margin=0.05):
    # keeps |x| >= margin so FD steps cannot straddle the relu/|.| kink
    return rng.uniform(margin, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def _plain_conv(x, k, b):
    return conv2d(x, k, b, stride=1, padding=1)


def _strided_conv(x, k, b):
    return conv2d(x, k, b, stride=2, padding=2)


def _depthwise_conv(x, k, b):
    return conv2d(x, k, b, stride=1, padding=1, groups=4)


def _pointwise_conv(x, k, b):
    return conv2d(x, k, b)


OP_CASES = [
    ("add.a", lambda rng: (add, [_u(rng, 2, 3, 4, 4), _u(rng, 2, 3, 4, 4)], 0)),
    ("sub.a", lambda rng: (sub, [_u(rng, 2, 3, 4, 4), _u(rng, 2, 3, 4, 4)], 0)),
    ("sub.b", lambda rng: (sub, [_u(rng, 2, 3, 4, 4), _u(rng, 2, 3, 4, 4)], 1)),
    ("mul.a", lambda rng: (mul, [_u(rng, 2, 3, 4, 4), _u(rng, 2, 3, 4, 4)], 0)),
    ("scale", lambda rng: (lambda t: scale(t, 0.7), [_u(rng, 3, 5)], 0)),
    ("relu", lambda rng: (relu, [_away_from_zero(rng, 3, 4, 4)], 0)),
    ("sigmoid", lambda rng: (sigmoid, [_u(rng, 40) * 4.0], 0)),
    ("absolute", lambda rng: (absolute, [_away_from_zero(rng, 3, 4, 4)], 0)),
    ("mean_all", lambda rng: (mean_all, [_u(rng, 2, 3, 4, 4)], 0)),
    ("gate_channels.x", lambda rng: (gate_channels, [_u(rng, 2, 3, 4, 4), _u(rng, 3)], 0)),
    ("gate_channels.mask", lambda rng: (
        lambda x, m: gate_channels(x, m, 2), [_u(rng, 2, 3, 4, 4), _u(rng, 7)], 1)),
    ("concat.first", lambda rng: (
        lambda a, b: concat_channels([a, b]),
        [_u(rng, 2, 2, 3, 3), _u(rng, 2, 3, 3, 3)], 0)),
    ("concat.second", lambda rng: (
        lambda a, b: concat_channels([a, b]),
        [_u(rng, 2, 2, 3, 3), _u(rng, 2, 3, 3, 3)], 1)),
    ("pixel_shuffle", lambda rng: (lambda t: pixel_shuffle(t, 2), [_u(rng, 2, 8, 3, 3)], 0)),
    ("conv2d.x", lambda rng: (
        _plain_conv, [_u(rng, 2, 3, 5, 5), _u(rng, 4, 3, 3, 3), _u(rng, 4)], 0)),
    ("conv2d.kernel", lambda rng: (
        _plain_conv, [_u(rng, 2, 3, 5, 5), _u(rng, 4, 3, 3, 3), _u(rng, 4)], 1)),
    ("conv2d.bias", lambda rng: (
        _plain_conv, [_u(rng, 2, 3, 5, 5), _u(rng, 4, 3, 3, 3), _u(rng, 4)], 2)),
    ("conv2d.head.x", lambda rng: (
        _plain_conv, [_u(rng, 1, 2, 4, 4), _u(rng, 8, 2, 3, 3), _u(rng, 8)], 0)),
    ("conv2d.head.kernel", lambda rng: (
        _plain_conv, [_u(rng, 1, 2, 4, 4), _u(rng, 8, 2, 3, 3), _u(rng, 8)], 1)),
    ("conv2d.strided.x", lambda rng: (
        _strided_conv, [_u(rng, 1, 2, 7, 7), _u(rng, 3, 2, 5, 5), _u(rng, 3)], 0)),
    ("conv2d.strided.kernel", lambda rng: (
        _strided_conv, [_u(rng, 1, 2, 7, 7), _u(rng, 3, 2, 5, 5), _u(rng, 3)], 1)),
    ("conv2d.depthwise.x", lambda rng: (
        _depthwise_conv, [_u(rng, 2, 4, 5, 5), _u(rng, 4, 1, 3, 3), _u(rng, 4)], 0)),
    ("conv2d.depthwise.kernel", lambda rng: (
        _depthwise_conv, [_u(rng, 2, 4, 5, 5), _u(rng, 4, 1, 3, 3), _u(rng, 4)], 1)),
    ("conv2d.pointwise.x", lambda rng: (
        _pointwise_conv, [_u(rng, 2, 4, 4, 4), _u(rng, 5, 4, 1, 1), _u(rng, 5)], 0)),
    ("conv2d.pointwise.kernel", lambda rng: (
        _pointwise_conv, [_u(rng, 2, 4, 4, 4), _u(rng, 5, 4, 1, 1), _u(rng, 5)], 1)),
]


def gradcheck_all_ops(trials: int, rng: np.random.Generator, tol: float = 1e-3) -> dict:
    """Run every op case `trials` times; returns {case name: worst rel err}."""
    worst = {}
    for name, build in OP_CASES:
        errs = []
        for _ in range(trials):
            op, args, wrt = build(rng)
            errs.append(check_op_grad(op, args, wrt, rng))
        worst[name] = max(errs)
        assert worst[name] < tol, f"{name}: rel err {worst[name]:.2e} >= {tol}"
    return worst


def net_loss_and_grad(net, x, y, lam, mode, gate_seed):
    """Scalar loss and flat parameter gradient for one fixed noise draw."""
    graph = Graph()
    rng = np.random.default_rng(gate_seed)
    y_hat, x_hat = forward(net, Tensor(x), mode, rng=rng, graph=graph)
    lval = loss(y_hat, Tensor(y), x_hat, Tensor(x), lam)
    node_grads = backward(lval)
    flat = []
    for p in parameters(net):
        nid = graph.leaf_id(p)
        g = node_grads.get(nid) if nid is not None else None
        flat.append(np.zeros(p.data.size) if g is None else g.reshape(-1))
    return float(lval.data), np.concatenate(flat)


def net_loss_value(net, x, y, lam, mode, gate_seed) -> float:
    rng = np.random.default_rng(gate_seed)
    y_hat, x_hat = forward(net, Tensor(x), mode, rng=rng)
    return float(loss(y_hat, Tensor(y), x_hat, Tensor(x), lam).data)


def directional_fd_check(net, x, y, lam, mode, gate_seed,
                         rng: np.random.Generator,
                         steps=(1e-4, 3e-5), tol: float = 1e-3) -> float:
    """Compare <grad, v> with central FD along one random direction v.

    Gate noise is held fixed across evaluations (common random numbers).
    relu and the L1 term are piecewise linear, so an FD step can straddle a
    kink; the check therefore passes if ANY step size agrees within tol --
    a real gradient bug disagrees at every step size.
    """
    params = parameters(net)
    _, grad = net_loss_and_grad(net, x, y, lam, mode, gate_seed)
    v = rng.standard_normal(grad.size)
    v /= np.linalg.norm(v)
    analytic = float(grad @ v)

    saved = [p.data.copy() for p in params]

    def assign(scale_h):
        off = 0
        for p, s in zip(params, saved):
            n = p.data.size
            p.data = (s.reshape(-1) + scale_h * v[off:off + n]).reshape(s.shape)
            off += n

    best = np.inf
    for h in steps:
        assign(+h)
        fp = net_loss_value(net, x, y, lam, mode, gate_seed)
        assign(-h)
        fm = net_loss_value(net, x, y, lam, mode, gate_seed)
        numeric = (fp - fm) / (2.0 * h)
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        best = min(best, err)
        if best < tol:
            break
    for p, s in zip(params, saved):
        p.data = s
    return best


def affine_net(scale: int, stages: int = 2, seed: int = 0):
    """A small net whose affine stage halves and degrade layer carry random
    weights and non-zero biases, so every term of the degrade chain shows."""
    cfg = NetConfig(bands=3, scale=scale, stages=stages, units_per_stage=1, channels=4)
    net = build_net(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    layers = [net.degrade_layer] + [layer for st in net.stages for layer in (st.head, st.tail)]
    for layer in layers:
        layer.bias.data = rng.uniform(-0.2, 0.2, layer.bias.data.shape).astype(np.float32)
    k = net.degrade_layer.kernel.data
    net.degrade_layer.kernel.data = rng.uniform(0, 2, k.shape).astype(np.float32) / k[0].size
    return net


def float64_net(cfg: NetConfig, rng: np.random.Generator):
    """`build_net`'s network, from the same draws, kept in float64."""
    return assemble(cfg, lambda name, shape, init:
                    Param(name, init(rng, shape).astype(np.float64)))


def init_gate(name: str, channels: int, keep_prob: float, tau: float) -> GateParams:
    """Float32 gate whose channels all start at the given keep probability."""
    if channels < 1:
        raise ParameterError(f"gate needs at least one channel, got {channels}")
    if not 0.0 < keep_prob < 1.0:
        raise ParameterError(f"keep probability must be in (0,1), got {keep_prob}")
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    logit = float(np.log(keep_prob / (1.0 - keep_prob)))
    return GateParams(Param(name, np.full(channels, logit, dtype=np.float32)), tau=tau)


def percent(counts: np.ndarray, n: int) -> np.ndarray:
    """Disagreement counts out of n samples as float64 percentages in
    [0, 100], each a multiple of 100/n."""
    return 100.0 * counts / n


def uncertainty(samples: list, mean) -> np.ndarray:
    """Per pixel, how many samples have a 1/255-discretized value that
    disagrees with the discretized mean, as `evaluate.mc_uncertainty`
    counts them ([B, H, W] of dtype np.min_scalar_type(N)); a NaN or
    infinite sample value always disagrees. Consumes no ground truth.

    Bins are compared as the integers round(v * 255): for a mean in [0, 1],
    as `mc_infer` returns it, they are equal exactly when the bins i/255 are.
    Only a direct caller can pass a mean outside [0, 1]; where it and a
    sample both exceed about 3.5e13, unequal integers can count a
    disagreement that comparing their float64 quotients by 255 would miss.

    Works one band at a time in float64, so its temporaries are band-sized."""
    if len(samples) < 2:
        raise ParameterError(f"uncertainty needs >= 2 samples, got {len(samples)}")
    ref = _values(mean)
    vals = [_values(s) for s in samples]
    for v in vals:
        if v.shape != ref.shape:
            raise DimensionError(f"sample shape {v.shape} != mean shape {ref.shape}")
    n = len(samples)
    counts = np.zeros(ref.shape, dtype=np.min_scalar_type(n))
    ref_bin, bins = np.empty(ref.shape[1:]), np.empty(ref.shape[1:])
    for b in range(ref.shape[0]):
        _bins(ref[b], ref_bin)
        for v in vals:
            counts[b] += _bins(v[b], bins) != ref_bin
    return counts
