"""Gradient-check machinery shared by the op and network tests."""

import numpy as np

from hssr.model import forward, loss, parameters
from hssr.tensor import (
    Graph,
    Tensor,
    absolute,
    add,
    backward,
    concat_channels,
    conv2d,
    mean_all,
    mul,
    pixel_shuffle,
    relu,
    reshape,
    scale,
    sigmoid,
    slice1d,
    sub,
    sum_all,
)


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
    s = sum_all(mul(op(*ts), Tensor(w)))
    ana = backward(s).get(ts[wrt].node_id)
    assert ana is not None, "op produced no gradient for the checked input"

    def f():
        return float((op(*[Tensor(a) for a in args]).data * w).sum())

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
    ("add.b_channel", lambda rng: (add, [_u(rng, 2, 3, 4, 4), _u(rng, 1, 3, 1, 1)], 1)),
    ("sub.a", lambda rng: (sub, [_u(rng, 2, 3, 4, 4), _u(rng, 2, 3, 4, 4)], 0)),
    ("sub.b", lambda rng: (sub, [_u(rng, 2, 3, 4, 4), _u(rng, 2, 3, 4, 4)], 1)),
    ("mul.a", lambda rng: (mul, [_u(rng, 2, 3, 4, 4), _u(rng, 2, 3, 4, 4)], 0)),
    ("mul.mask", lambda rng: (mul, [_u(rng, 2, 3, 4, 4), _u(rng, 1, 3, 1, 1)], 1)),
    ("scale", lambda rng: (lambda t: scale(t, 0.7), [_u(rng, 3, 5)], 0)),
    ("relu", lambda rng: (relu, [_away_from_zero(rng, 3, 4, 4)], 0)),
    ("sigmoid", lambda rng: (sigmoid, [_u(rng, 40) * 4.0], 0)),
    ("absolute", lambda rng: (absolute, [_away_from_zero(rng, 3, 4, 4)], 0)),
    ("mean_all", lambda rng: (mean_all, [_u(rng, 2, 3, 4, 4)], 0)),
    ("sum_all", lambda rng: (sum_all, [_u(rng, 5, 6)], 0)),
    ("reshape", lambda rng: (lambda t: reshape(t, (2, 12)), [_u(rng, 2, 3, 4)], 0)),
    ("slice1d", lambda rng: (lambda t: slice1d(t, 2, 7), [_u(rng, 10)], 0)),
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
