"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a tape (`Graph`) records every operation
that touches a grad-enabled tensor, and `backward` replays the tape in
reverse append order, accumulating gradients additively for nodes with
multiple consumers. Only the operations the super-resolution network needs
are provided; there is no general broadcasting beyond per-channel masks and
no GPU path.

Tensors are plain numpy arrays underneath. float32 is the working precision;
float64 is supported throughout so gradients can be checked against central
finite differences.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "Tensor",
    "Param",
    "Graph",
    "backward",
    "add",
    "sub",
    "mul",
    "scale",
    "relu",
    "sigmoid",
    "absolute",
    "sum_all",
    "mean_all",
    "reshape",
    "slice1d",
    "concat_channels",
    "conv2d",
    "pixel_shuffle",
    "bicubic_resize",
    "bicubic_resize_array",
]

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """N-dimensional float array, optionally recorded on a computation graph.

    A tensor is grad-enabled exactly when it carries a (graph, node_id)
    pair; bare tensors are constants and ops on constants stay off-tape.
    """

    __slots__ = ("data", "graph", "node_id")

    def __init__(self, data, graph: Optional["Graph"] = None, node_id: Optional[int] = None):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.graph = graph
        self.node_id = node_id

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def requires_grad(self) -> bool:
        return self.graph is not None

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:  # pragma: no cover
        tag = f" node={self.node_id}" if self.graph is not None else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"


class Param:
    """Named trainable array. `Graph.leaf_for` hands out one shared leaf per
    instance, so gradients from every use site accumulate together."""

    __slots__ = ("name", "data")

    def __init__(self, name: str, data):
        self.name = name
        self.data = np.asarray(data)
        if self.data.dtype not in _FLOAT_DTYPES:
            self.data = self.data.astype(np.float32)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Param({self.name!r}, shape={self.data.shape})"


class _Node:
    """One tape record: where the output came from and how to push gradients back."""

    __slots__ = ("op", "inputs", "grad_fn")

    def __init__(self, op: str, inputs: tuple, grad_fn: Optional[Callable]):
        self.op = op
        self.inputs = inputs  # node ids; None marks a constant input
        self.grad_fn = grad_fn  # None marks a leaf


class Graph:
    """Append-only operation tape.

    Append order is the topological order, so the backward pass is a single
    reverse sweep. One graph instance must not be shared between threads.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        # id(param) -> node id. Node ids, not Tensors: a cached Tensor would
        # point back at this graph, and that cycle would leave every dead
        # tape (and the arrays its closures hold) to the cyclic collector.
        self._leaf_ids: dict[int, int] = {}

    def leaf(self, data) -> Tensor:
        """Register a grad-enabled leaf holding a copy-free view of `data`."""
        t = Tensor(data, graph=self, node_id=len(self.nodes))
        self.nodes.append(_Node("leaf", (), None))
        return t

    def leaf_for(self, param) -> Tensor:
        """Leaf for a parameter object; repeated calls return the same node.

        Reusing one node per parameter is what makes gradients accumulate
        when a layer (e.g. the shared degradation layer) is applied several
        times in one forward pass.
        """
        nid = self._leaf_ids.get(id(param))
        if nid is None:
            nid = self.leaf(param.data).node_id
            self._leaf_ids[id(param)] = nid
        return Tensor(param.data, graph=self, node_id=nid)

    def leaf_id(self, param) -> Optional[int]:
        """Node id of the leaf registered for `param`, or None if the param
        never entered this graph (its gradient is identically zero)."""
        return self._leaf_ids.get(id(param))

    def _record(self, op: str, data: np.ndarray, inputs: tuple, grad_fn: Callable) -> Tensor:
        t = Tensor(data, graph=self, node_id=len(self.nodes))
        self.nodes.append(_Node(op, inputs, grad_fn))
        return t


def backward(loss: Tensor) -> dict[int, np.ndarray]:
    """Reverse sweep from a scalar loss; returns {leaf node_id: gradient}.

    Every node is visited at most once, in reverse append order; a node's
    gradient is complete before its own grad_fn runs because all consumers
    appear later on the tape.
    """
    if loss.graph is None:
        raise ParameterError("backward target is detached from any graph")
    if loss.data.size != 1:
        raise ParameterError(f"backward target must be scalar, got shape {loss.data.shape}")
    g = loss.graph
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    leaf_grads: dict[int, np.ndarray] = {}
    for nid in range(loss.node_id, -1, -1):
        gout = grads.pop(nid, None)
        if gout is None:
            continue
        node = g.nodes[nid]
        if node.grad_fn is None:
            leaf_grads[nid] = gout
            continue
        for iid, gin in zip(node.inputs, node.grad_fn(gout)):
            if iid is None or gin is None:
                continue
            acc = grads.get(iid)
            grads[iid] = gin if acc is None else acc + gin
    return leaf_grads


# ---------------------------------------------------------------------------
# op plumbing


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _common_graph(*tensors: Tensor) -> Optional[Graph]:
    g = None
    for t in tensors:
        if t.graph is None:
            continue
        if g is None:
            g = t.graph
        elif g is not t.graph:
            raise ParameterError("operands belong to different graphs")
    return g


def _check_dtypes(op: str, *tensors: Tensor) -> None:
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise ParameterError(f"{op}: mixed dtypes {dt} and {t.dtype}")


def _emit(op: str, data: np.ndarray, inputs: Sequence[Tensor], grad_fn_factory) -> Tensor:
    """Return a constant when no input is tracked, else record on the tape."""
    g = _common_graph(*inputs)
    if g is None:
        return Tensor(data)
    ids = tuple(t.node_id if t.graph is not None else None for t in inputs)
    return g._record(op, data, ids, grad_fn_factory())


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _broadcast_check(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# elementwise operations


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_dtypes("add", a, b)
    _broadcast_check("add", a, b)
    out = a.data + b.data
    ash, bsh = a.shape, b.shape

    def factory():
        return lambda g: (_unbroadcast(g, ash), _unbroadcast(g, bsh))

    return _emit("add", out, (a, b), factory)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_dtypes("sub", a, b)
    _broadcast_check("sub", a, b)
    out = a.data - b.data
    ash, bsh = a.shape, b.shape

    def factory():
        return lambda g: (_unbroadcast(g, ash), _unbroadcast(-g, bsh))

    return _emit("sub", out, (a, b), factory)


def mul(a, b) -> Tensor:
    """Elementwise product; either side may be a per-channel [1,C,1,1] mask."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_dtypes("mul", a, b)
    _broadcast_check("mul", a, b)
    out = a.data * b.data
    ad, bd, ash, bsh = a.data, b.data, a.shape, b.shape

    def factory():
        return lambda g: (_unbroadcast(g * bd, ash), _unbroadcast(g * ad, bsh))

    return _emit("mul", out, (a, b), factory)


def scale(a, s: float) -> Tensor:
    a = _as_tensor(a)
    s = float(s)
    out = a.data * a.dtype.type(s)

    def factory():
        return lambda g: (g * g.dtype.type(s),)

    return _emit("scale", out, (a,), factory)


def relu(a) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken as 0."""
    a = _as_tensor(a)
    out = np.maximum(a.data, 0)
    mask = a.data > 0

    def factory():
        return lambda g: (g * mask,)

    return _emit("relu", out, (a,), factory)


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out = _sigmoid_stable(a.data)

    def factory():
        return lambda g: (g * out * (1 - out),)

    return _emit("sigmoid", out, (a,), factory)


def absolute(a) -> Tensor:
    a = _as_tensor(a)
    out = np.abs(a.data)
    sgn = np.sign(a.data)

    def factory():
        return lambda g: (g * sgn,)

    return _emit("abs", out, (a,), factory)


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    out = np.asarray(a.data.sum(), dtype=a.dtype)
    shape = a.shape

    def factory():
        return lambda g: (np.full(shape, g, dtype=g.dtype),)

    return _emit("sum", out, (a,), factory)


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    out = np.asarray(a.data.mean(), dtype=a.dtype)
    shape, n = a.shape, a.data.size

    def factory():
        return lambda g: (np.full(shape, g / n, dtype=g.dtype),)

    return _emit("mean", out, (a,), factory)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"reshape: cannot view {a.shape} as {shape}") from None
    old = a.shape

    def factory():
        return lambda g: (g.reshape(old),)

    return _emit("reshape", out, (a,), factory)


def slice1d(a, start: int, stop: int) -> Tensor:
    """Contiguous slice of a 1-D tensor; the gradient scatters back into place."""
    a = _as_tensor(a)
    if a.data.ndim != 1:
        raise DimensionError(f"slice1d: input must be 1-D, got {a.shape}")
    n = a.shape[0]
    if not (0 <= start < stop <= n):
        raise ParameterError(f"slice1d: bad range [{start}, {stop}) for length {n}")
    out = a.data[start:stop].copy()

    def factory():
        def grad_fn(g):
            gi = np.zeros(n, dtype=g.dtype)
            gi[start:stop] = g
            return (gi,)

        return grad_fn

    return _emit("slice1d", out, (a,), factory)


def concat_channels(tensors: Sequence) -> Tensor:
    """Concatenate [N,C_i,H,W] tensors along the channel axis."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ParameterError("concat_channels: empty input list")
    _check_dtypes("concat_channels", *ts)
    first = ts[0].shape
    for t in ts[1:]:
        if len(t.shape) != 4 or t.shape[0] != first[0] or t.shape[2:] != first[2:]:
            raise DimensionError(
                f"concat_channels: incompatible shapes {first} and {t.shape}"
            )
    out = np.concatenate([t.data for t in ts], axis=1)
    sizes = [t.shape[1] for t in ts]

    def factory():
        bounds = np.cumsum([0] + sizes)

        def grad_fn(g):
            return tuple(g[:, bounds[i]:bounds[i + 1]] for i in range(len(sizes)))

        return grad_fn

    return _emit("concat", out, ts, factory)


# ---------------------------------------------------------------------------
# convolution


def _conv_out_extent(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def _gather(src: np.ndarray, taps: list, cols: np.ndarray) -> np.ndarray:
    """Copy each tap of `src` [..., C, Hp, Wp] into `cols` [..., T, C, Ho, Wo]."""
    for t, (ys, xs) in enumerate(taps):
        cols[..., t, :, :, :] = src[..., ys, xs]
    return cols


def conv2d(x, kernel, bias, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2-D cross-correlation with zero padding (no kernel flip).

    Args:
        x: input tensor [N, Cin, H, W].
        kernel: weights [Cout, Cin, kh, kw] (dense) or [C, 1, kh, kw]
            (depthwise); kh and kw must be odd.
        bias: per-output-channel offsets [Cout].
        stride: sampling step of the output grid (>= 1).
        padding: zero rows/cols added on every side.
        groups: 1 (dense) or Cin == Cout (depthwise); nothing in between.

    Output extent per axis is floor((size + 2*padding - k)/stride) + 1.

    Forward and both gradients walk the same kernel taps: tap (i, j) is the
    strided slice padded[..., i::stride, j::stride] of output extent. Dense
    convs copy one sample's taps into a [kh*kw*Cin, Ho*Wo] column buffer for
    one matmul, sample by sample so that a sample's result does not depend
    on its batch; depthwise convs do one multiply-add per tap.
    """
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    _check_dtypes("conv2d", x, kernel, bias)
    if x.data.ndim != 4:
        raise DimensionError(f"conv2d: input must be 4-D [N,C,H,W], got {x.shape}")
    if kernel.data.ndim != 4:
        raise DimensionError(f"conv2d: kernel must be 4-D, got {kernel.shape}")
    if not isinstance(stride, int) or stride < 1:
        raise ParameterError(f"conv2d: stride must be a positive int, got {stride}")
    if padding < 0:
        raise ParameterError(f"conv2d: padding must be non-negative, got {padding}")
    if groups < 1:
        raise ParameterError(f"conv2d: groups must be positive, got {groups}")
    n, cin, h, w = x.shape
    cout, cin_k, kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ParameterError(f"conv2d: kernel extents must be odd, got {kh}x{kw}")
    depthwise = groups > 1
    if depthwise and not groups == cin == cout:
        raise DimensionError(f"conv2d: groups={groups} is neither 1 (dense) nor equal to "
                             f"both channel counts (depthwise: {cin} in, {cout} out)")
    if cin_k != (1 if depthwise else cin):
        raise DimensionError(
            f"conv2d: kernel has {cin_k} input channels, expected {1 if depthwise else cin}"
        )
    if bias.shape != (cout,):
        raise DimensionError(f"conv2d: bias shape {bias.shape} != ({cout},)")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise DimensionError(
            f"conv2d: padded input {h + 2 * padding}x{w + 2 * padding} smaller than kernel {kh}x{kw}"
        )

    xd, kd = x.data, kernel.data
    padded = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else xd
    ho = _conv_out_extent(h, kh, stride, padding)
    wo = _conv_out_extent(w, kw, stride, padding)
    taps = [(slice(i, i + stride * ho, stride), slice(j, j + stride * wo, stride))
            for i in range(kh) for j in range(kw)]
    ntap = len(taps)
    if depthwise:
        ktap = kd.reshape(cout, ntap).T[:, None, :, None, None]  # [T, 1, C, 1, 1] view
        out = np.zeros((n, cout, ho, wo), dtype=xd.dtype)
        for (ys, xs), k_t in zip(taps, ktap):
            out += padded[:, :, ys, xs] * k_t
    else:
        kmat = kd.transpose(0, 2, 3, 1).reshape(cout, ntap * cin)
        out = np.empty((n, cout, ho, wo), dtype=xd.dtype)
        cols = np.empty((ntap, cin, ho, wo), dtype=xd.dtype)
        for b in range(n):
            _gather(padded[b], taps, cols)
            np.matmul(kmat, cols.reshape(ntap * cin, ho * wo), out=out[b].reshape(cout, ho * wo))
    out += bias.data.reshape(1, cout, 1, 1)

    def factory():
        need_x = x.graph is not None
        need_k = kernel.graph is not None
        need_b = bias.graph is not None

        # keeps `padded` and the kernel data only; column buffers and the
        # permuted kernel are rebuilt here, so the tape does not hold them
        def grad_fn(go):
            gb = go.sum(axis=(0, 2, 3)) if need_b else None
            gk = gx = None
            go3 = go.reshape(n, cout, ho * wo)
            if need_k and depthwise:
                gk = np.stack([np.einsum("nchw,nchw->c", padded[:, :, ys, xs], go)
                               for ys, xs in taps], axis=1).reshape(kd.shape)
            elif need_k:
                cols = _gather(padded, taps, np.empty((n, ntap, cin, ho, wo), dtype=go.dtype))
                gkm = (go3 @ cols.reshape(n, ntap * cin, ho * wo).transpose(0, 2, 1)).sum(axis=0)
                gk = gkm.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2)
            if need_x:
                if depthwise:
                    parts = (go * k_t for k_t in ktap)
                else:
                    kmat = kd.transpose(0, 2, 3, 1).reshape(cout, ntap * cin)
                    parts = np.matmul(kmat.T, go3).reshape(n, ntap, cin, ho, wo).swapaxes(0, 1)
                gpad = np.zeros_like(padded)
                for (ys, xs), part in zip(taps, parts):
                    gpad[:, :, ys, xs] += part
                gx = gpad[:, :, padding:padding + h, padding:padding + w]
            return (gx, gk, gb)

        return grad_fn

    return _emit("conv2d", out, (x, kernel, bias), factory)


def pixel_shuffle(x, r: int) -> Tensor:
    """Depth-to-space: [N, C*r*r, H, W] -> [N, C, rH, rW].

    out[n, c, h*r+i, w*r+j] == x[n, c*r*r + i*r + j, h, w]; a bijection on
    elements, so the gradient is the inverse rearrangement.
    """
    x = _as_tensor(x)
    if not isinstance(r, int) or r < 1:
        raise ParameterError(f"pixel_shuffle: factor must be a positive int, got {r}")
    if x.data.ndim != 4:
        raise DimensionError(f"pixel_shuffle: input must be 4-D, got {x.shape}")
    n, c2, h, w = x.shape
    if c2 % (r * r):
        raise ParameterError(f"pixel_shuffle: {c2} channels not divisible by {r}^2")
    c = c2 // (r * r)
    out = (
        x.data.reshape(n, c, r, r, h, w)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, c, h * r, w * r)
    )

    def factory():
        def grad_fn(g):
            gi = (
                g.reshape(n, c, h, r, w, r)
                .transpose(0, 1, 3, 5, 2, 4)
                .reshape(n, c2, h, w)
            )
            return (gi,)

        return grad_fn

    return _emit("pixel_shuffle", np.ascontiguousarray(out), (x,), factory)


# ---------------------------------------------------------------------------
# bicubic resampling (not differentiable; stays off the tape)


def _cubic_weights(t: np.ndarray) -> np.ndarray:
    # Keys kernel with a = -0.5
    at = np.abs(t)
    at2 = at * at
    at3 = at2 * at
    return np.where(
        at <= 1.0,
        1.5 * at3 - 2.5 * at2 + 1.0,
        np.where(at < 2.0, -0.5 * at3 + 2.5 * at2 - 4.0 * at + 2.0, 0.0),
    )


def _resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic [n_out, n_in] operator: half-pixel centers, edge replicate."""
    span = n_in / n_out
    dst = np.arange(n_out)
    src = (dst + 0.5) * span - 0.5
    base = np.floor(src).astype(np.int64)
    mat = np.zeros((n_out, n_in), dtype=np.float64)
    for t in range(-1, 3):
        idx = np.clip(base + t, 0, n_in - 1)
        np.add.at(mat, (dst, idx), _cubic_weights(src - (base + t)))
    return mat


def bicubic_resize_array(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bicubic resample of the trailing two axes of `arr`.

    Weights are computed in float64 and applied slice by slice, so a given
    plane resamples identically no matter how it is batched.
    """
    if out_h < 1 or out_w < 1:
        raise ParameterError(f"bicubic_resize: target {out_h}x{out_w} must be positive")
    if arr.ndim < 2:
        raise DimensionError("bicubic_resize: need at least 2 dims")
    h, w = arr.shape[-2], arr.shape[-1]
    row_op = _resize_matrix(h, out_h)
    col_op = _resize_matrix(w, out_w).T
    flat = arr.reshape(-1, h, w)
    out = np.empty((flat.shape[0], out_h, out_w), dtype=np.float64)
    for i in range(flat.shape[0]):
        out[i] = row_op @ flat[i].astype(np.float64) @ col_op
    return out.reshape(arr.shape[:-2] + (out_h, out_w)).astype(arr.dtype)


def bicubic_resize(x, out_h: int, out_w: int) -> Tensor:
    """Tensor wrapper over `bicubic_resize_array`; rejects tracked inputs."""
    x = _as_tensor(x)
    if x.graph is not None:
        raise ParameterError("bicubic_resize is not differentiable; detach the input first")
    return Tensor(bicubic_resize_array(x.data, out_h, out_w))
