"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a tape (`Graph`) records every operation
that touches a grad-enabled tensor, and `backward` replays the tape in
reverse append order, accumulating gradients additively for nodes with
multiple consumers. The sweep consumes the tape: it releases each node it
visits before running it, so the forward arrays only that node held are
freed once its input gradients are out, and a graph can be backpropagated
once. Only the operations the super-resolution network needs are provided,
and there is no GPU path. Elementwise ops take operands of equal shape;
`gate_channels`, which scales each channel of a feature map by one entry of
a gate's mask, is the only per-channel op.

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
    "mean_all",
    "gate_channels",
    "concat_channels",
    "conv2d",
    "conv_block_rows",
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
        self.nodes: list[Optional[_Node]] = []  # None once backward has run it
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
    appear later on the tape. Each visited node's slot in `graph.nodes` is
    set to None before its grad_fn runs, so the sweep frees the tape as it
    goes and the list keeps its length. A graph is therefore backpropagated
    once: reaching a released node raises ParameterError.
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
        node, g.nodes[nid] = g.nodes[nid], None
        if node is None:
            raise ParameterError(f"graph was already backpropagated: an earlier backward "
                                 f"released node {nid}")
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


def _emit(op: str, data: np.ndarray, inputs: Sequence[Tensor], grad_fn: Callable) -> Tensor:
    """Return a constant when no input is tracked, else record on the tape.

    `grad_fn` must not hold a Tensor: a tracked one points back at the tape,
    and that cycle would leave every dead tape to the cyclic collector.
    """
    g = _common_graph(*inputs)
    if g is None:
        return Tensor(data)
    ids = tuple(t.node_id if t.graph is not None else None for t in inputs)
    return g._record(op, data, ids, grad_fn)


def _check_shapes(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# elementwise operations


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_dtypes("add", a, b)
    _check_shapes("add", a, b)
    return _emit("add", a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_dtypes("sub", a, b)
    _check_shapes("sub", a, b)
    return _emit("sub", a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_dtypes("mul", a, b)
    _check_shapes("mul", a, b)
    ad, bd = a.data, b.data
    return _emit("mul", ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(a, s: float) -> Tensor:
    a = _as_tensor(a)
    s = float(s)
    return _emit("scale", a.data * a.dtype.type(s), (a,), lambda g: (g * g.dtype.type(s),))


def relu(a) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken as 0."""
    a = _as_tensor(a)
    mask = a.data > 0
    return _emit("relu", np.maximum(a.data, 0), (a,), lambda g: (g * mask,))


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
    return _emit("sigmoid", out, (a,), lambda g: (g * out * (1 - out),))


def absolute(a) -> Tensor:
    a = _as_tensor(a)
    sgn = np.sign(a.data)
    return _emit("abs", np.abs(a.data), (a,), lambda g: (g * sgn,))


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    out = np.asarray(a.data.mean(), dtype=a.dtype)
    shape, n = a.shape, a.data.size
    return _emit("mean", out, (a,), lambda g: (np.full(shape, g / n, dtype=g.dtype),))


def gate_channels(x, m, start: int = 0) -> Tensor:
    """Scale channel c of x [N, C, H, W] by m[start + c], for a gate's 1-D
    mask m; the mask gradient is zero outside m[start:start + C]."""
    x, m = _as_tensor(x), _as_tensor(m)
    _check_dtypes("gate_channels", x, m)
    if x.data.ndim != 4 or m.data.ndim != 1:
        raise DimensionError(f"gate_channels: need [N,C,H,W] and a 1-D mask, got {x.shape} "
                             f"and {m.shape}")
    c, n = x.shape[1], m.shape[0]
    if not 0 <= start <= n - c:
        raise ParameterError(f"gate_channels: {c} channels from {start} overrun a mask of {n}")
    xd, mc = x.data, m.data[start:start + c].reshape(1, c, 1, 1)

    def grad_fn(g):
        gm = np.zeros(n, dtype=g.dtype)
        gm[start:start + c] = (g * xd).sum(axis=(0, 2, 3))
        return (g * mc, gm)

    return _emit("gate_channels", xd * mc, (x, m), grad_fn)


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
    sizes = [t.shape[1] for t in ts]

    def grad_fn(g):
        bounds = np.cumsum([0] + sizes)
        return tuple(g[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))

    return _emit("concat", np.concatenate([t.data for t in ts], axis=1), ts, grad_fn)


# ---------------------------------------------------------------------------
# convolution


# Byte budget of the dense conv's column buffer, forward and backward, plus
# the zero-bordered strip of input rows it is gathered from: half of a 2 MiB
# per-core L2, so the gathered block is still in cache when the matmul reads
# it. Swept at the sr tail, head and degrade shapes on 1 BLAS thread (medians
# in CHANGES.md): 512 KiB ran the head ~13% slower (narrower matmuls), 2 MiB
# ran the 128x128 tail ~8% slower, and a whole-plane buffer ran it 1.9x slower.
_COLS_BYTES = 1 << 20


def _conv_out_extent(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def conv_block_rows(cin: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int,
                    itemsize: int) -> int:
    """Output rows per block of a dense `conv2d` of an [N, cin, h, w] input
    with a kh x kw kernel, which runs one column-buffer matmul per block and
    sample: the fewest equal blocks whose column buffer and input strip
    (when that is a copy) fit in _COLS_BYTES. The last block may be shorter.
    The plan depends on the layer and output shapes only."""
    ho, wo = _conv_out_extent(h, kh, stride, padding), _conv_out_extent(w, kw, stride, padding)
    sw, copied = w + 2 * padding, int(padding > 0)
    room = _COLS_BYTES // (cin * itemsize) - copied * (kh - stride) * sw
    rows = max(1, room // (kh * kw * wo + copied * stride * sw))
    return -(-ho // -(-ho // rows))


def _clip(off: int, stride: int, padding: int, size: int, n: int):
    """Outputs 0 <= o < n whose input stride*o + off - padding lies in
    [0, size), as (input slice, output slice); both empty if there are none."""
    a = max(0, -((off - padding) // stride))
    b = max(a, min(n, (size - 1 + padding - off) // stride + 1))
    s0 = stride * a + off - padding
    return slice(s0, s0 + stride * (b - a), stride), slice(a, b)


def _strip(src: np.ndarray, top: int, rows: int, padding: int, buf) -> np.ndarray:
    """Rows top..top+rows-1 (top may be negative) of `src` [C, H, W] zero-padded
    by `padding` on every side: a view at padding 0, else written into `buf`
    [C, >= rows, W + 2*padding], whose side borders must already be zero."""
    if not padding:
        return src[:, top:top + rows]
    lo, hi = min(max(-top, 0), rows), max(min(src.shape[1] - top, rows), 0)
    strip = buf[:, :rows]
    strip[:, :lo] = strip[:, hi:] = 0
    strip[:, lo:hi, padding:-padding] = src[:, top + lo:top + hi]
    return strip


def conv2d(x, kernel, bias, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2-D cross-correlation with zero padding (no kernel flip).

    Args:
        x: input tensor [N, Cin, H, W].
        kernel: weights [Cout, Cin, kh, kw] (dense) or [C, 1, kh, kw]
            (depthwise); kh and kw must be odd when padding > 0, and may be
            even for a valid correlation (padding 0), which needs no centre.
        bias: per-output-channel offsets [Cout].
        stride: sampling step of the output grid (>= 1).
        padding: zero rows/cols added on every side.
        groups: 1 (dense) or Cin == Cout (depthwise); nothing in between.

    Output extent per axis is floor((size + 2*padding - k)/stride) + 1.

    Every kernel tap (i, j) reads one strided slice of zero-padded input:
    rows i, i + stride, ... and columns j, j + stride, ..., one per output.
    The depthwise forward zero-pads the whole input once (not at all when
    padding is 0) and, tap by tap in row-major order, multiplies one such
    slice into a reused product buffer and adds that into the output; its
    input gradient adds each tap's products into the same slice of one
    zero-padded gradient, which is then cropped.
    Dense convs work sample by sample in blocks of output rows
    (`conv_block_rows`), the fewest equal blocks whose [kh*kw*Cin, rows*Wo]
    column buffer and input strip fit in _COLS_BYTES (the last block may be
    shorter), so the buffer is still in cache when the matmul reads it. Per
    block and sample, the input rows the block reads are copied into a
    zero-bordered strip (a view when padding is 0), each tap's slice of it
    fills the tap's rows of the buffer, and one matmul writes the output
    rows. The backward gathers the same columns for the kernel gradient,
    multiplies the output gradient back into the buffer and adds each tap's
    rows into its slice of one zero-padded input gradient for the whole
    batch. A 1x1 stride-1 unpadded conv builds no buffer: its matmuls read
    the block's rows of x and write the input gradient's rows in place, the
    same products in the same blocks. The block plan depends
    on the layer and output shapes only, never on the batch size, so a
    sample's result does not depend on its batch. The depthwise kernel
    gradient sums each tap over the outputs whose input is in bounds only.
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
    if padding and (kh % 2 == 0 or kw % 2 == 0):
        raise ParameterError(f"conv2d: padded kernel extents must be odd, got {kh}x{kw}")
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
    ho = _conv_out_extent(h, kh, stride, padding)
    wo = _conv_out_extent(w, kw, stride, padding)
    ntap = kh * kw
    padded = (n, cin, h + 2 * padding, w + 2 * padding)

    def tap(a, t, rows=ho, top=0):  # what tap t = i*kw + j reads from padded row top on
        i, j = divmod(t, kw)
        return a[..., top + i:top + i + stride * (rows - 1) + 1:stride,
                 j:j + stride * (wo - 1) + 1:stride]

    if depthwise:
        ktap = kd.reshape(cout, ntap).T[:, None, :, None, None]  # [T, 1, C, 1, 1] view
        xp = xd
        if padding:
            xp = np.zeros(padded, dtype=xd.dtype)
            xp[:, :, padding:padding + h, padding:padding + w] = xd
        out = tap(xp, 0) * ktap[0]
        prod = np.empty_like(out)
        for t in range(1, ntap):
            np.multiply(tap(xp, t), ktap[t], out=prod)
            out += prod
    else:
        rows = conv_block_rows(cin, h, w, kh, kw, stride, padding, xd.itemsize)
        sw = w + 2 * padding
        blocks = [(r0, min(rows, ho - r0)) for r0 in range(0, ho, rows)]
        pointwise = ntap == 1 and stride == 1 and not padding  # the columns are x's own rows

        def gather(b, r0, r, buf, sbuf):  # the [ntap*cin, r*wo] columns of sample b's rows r0..
            if pointwise:
                return xd[b, :, r0:r0 + r].reshape(cin, r * wo)
            cols = buf[:ntap * cin * r * wo].reshape(ntap, cin, r, wo)
            strip = _strip(xd[b], stride * r0 - padding, stride * (r - 1) + kh, padding, sbuf)
            for t in range(ntap):
                cols[t] = tap(strip, t, r)
            return cols.reshape(ntap * cin, r * wo)

        kmat = kd.transpose(0, 2, 3, 1).reshape(cout, ntap * cin)
        out = np.empty((n, cout, ho, wo), dtype=xd.dtype)
        buf = None if pointwise else np.empty(ntap * cin * rows * wo, dtype=xd.dtype)
        sbuf = np.zeros((cin, stride * (rows - 1) + kh, sw), dtype=xd.dtype) if padding else None
        for r0, r in blocks:
            for b in range(n):
                np.matmul(kmat, gather(b, r0, r, buf, sbuf),
                          out=out[b].reshape(cout, ho * wo)[:, r0 * wo:(r0 + r) * wo])
    out += bias.data.reshape(1, cout, 1, 1)

    need_x, need_k, need_b = x.requires_grad, kernel.requires_grad, bias.requires_grad

    # keeps the unpadded input and the kernel data only; strips, column
    # buffers and the permuted kernel are rebuilt here, so the tape does
    # not hold them
    def grad_fn(go):
        gb = go.sum(axis=(0, 2, 3)) if need_b else None
        gk = None
        gxp = np.zeros(padded, dtype=xd.dtype) if need_x else None
        if depthwise:
            if need_k:
                gk = np.zeros((cout, ntap), dtype=go.dtype)
                for t in range(ntap):
                    (yi, yo), (xi, xo) = (_clip(t // kw, stride, padding, h, ho),
                                          _clip(t % kw, stride, padding, w, wo))
                    gk[:, t] = np.einsum("nchw,nchw->c", xd[:, :, yi, xi], go[:, :, yo, xo])
                gk = gk.reshape(kd.shape)
            if need_x:
                for t in range(ntap):
                    view = tap(gxp, t)
                    view += go * ktap[t]
        else:
            kmat = kd.transpose(0, 2, 3, 1).reshape(cout, ntap * cin)
            gkm = np.zeros((cout, ntap * cin), dtype=go.dtype) if need_k else None
            go3 = go.reshape(n, cout, ho * wo)
            buf = None if pointwise else np.empty(ntap * cin * rows * wo, dtype=go.dtype)
            sbuf = np.zeros((cin, stride * (rows - 1) + kh, sw), dtype=xd.dtype) if padding else None
            for r0, r in blocks:
                for b in range(n):
                    go_blk = go3[b, :, r0 * wo:(r0 + r) * wo]
                    if need_k:
                        gkm += go_blk @ gather(b, r0, r, buf, sbuf).T
                    if need_x and pointwise:
                        np.matmul(kmat.T, go_blk, out=gxp[b, :, r0:r0 + r].reshape(cin, r * wo))
                    elif need_x:
                        cols = buf[:ntap * cin * r * wo].reshape(ntap, cin, r, wo)
                        np.matmul(kmat.T, go_blk, out=cols.reshape(ntap * cin, r * wo))
                        for t in range(ntap):
                            view = tap(gxp[b], t, r, stride * r0)
                            view += cols[t]
            if need_k:
                gk = gkm.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2)
            buf = sbuf = cols = None  # free the column buffer (cols views it) before the crop
        if need_x and padding:  # contiguous: sums over a strided view would round differently
            gxp = np.ascontiguousarray(gxp[:, :, padding:-padding, padding:-padding])
        return (gxp, gk, gb)

    return _emit("conv2d", out, (x, kernel, bias), grad_fn)


def pixel_shuffle(x, r: int, out=None) -> Tensor:
    """Depth-to-space: [N, C*r*r, H, W] -> [N, C, rH, rW].

    out[n, c, h*r+i, w*r+j] == x[n, c*r*r + i*r + j, h, w]; a bijection on
    elements, so the gradient is the inverse rearrangement. For an input off
    the tape, `out` (an array of the result's shape, which may be a strided
    view) receives the result instead of a new array.
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
    src = x.data.reshape(n, c, r, r, h, w).transpose(0, 1, 4, 2, 5, 3)  # [n, c, h, r, w, r]
    if out is None:
        def grad_fn(g):
            return (g.reshape(n, c, h, r, w, r).transpose(0, 1, 3, 5, 2, 4).reshape(n, c2, h, w),)

        return _emit("pixel_shuffle", np.ascontiguousarray(src.reshape(n, c, h * r, w * r)),
                     (x,), grad_fn)
    if x.graph is not None:
        raise ParameterError("pixel_shuffle: out= is for inputs off the tape")
    if out.shape != (n, c, h * r, w * r):
        raise DimensionError(f"pixel_shuffle: out has shape {out.shape}, expected "
                             f"{(n, c, h * r, w * r)}")
    s0, s1, s2, s3 = out.strides
    np.lib.stride_tricks.as_strided(out, (n, c, h, r, w, r), (s0, s1, r * s2, s2, r * s3, s3),
                                    writeable=True)[...] = src
    return Tensor(out)


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


def bicubic_resize_array(arr: np.ndarray, out_h: int, out_w: int, out=None) -> np.ndarray:
    """Bicubic resample of the trailing two axes of `arr`, into `out` if given.

    Weights are computed in float64 and applied slice by slice, so a given
    plane resamples identically no matter how it is batched; each float64
    plane is rounded straight into the result, which has the input's dtype
    unless `out` (of the result's shape) has another.
    """
    if out_h < 1 or out_w < 1:
        raise ParameterError(f"bicubic_resize: target {out_h}x{out_w} must be positive")
    if arr.ndim < 2:
        raise DimensionError("bicubic_resize: need at least 2 dims")
    h, w = arr.shape[-2], arr.shape[-1]
    shape = arr.shape[:-2] + (out_h, out_w)
    if out is None:
        out = np.empty(shape, dtype=arr.dtype)
    elif out.shape != shape:
        raise DimensionError(f"bicubic_resize: out has shape {out.shape}, expected {shape}")
    row_op = _resize_matrix(h, out_h)
    col_op = _resize_matrix(w, out_w).T
    for i in np.ndindex(arr.shape[:-2]):
        out[i] = row_op @ arr[i].astype(np.float64) @ col_op
    return out


def bicubic_resize(x, out_h: int, out_w: int, out=None) -> Tensor:
    """Tensor wrapper over `bicubic_resize_array`; rejects tracked inputs."""
    x = _as_tensor(x)
    if x.graph is not None:
        raise ParameterError("bicubic_resize is not differentiable; detach the input first")
    return Tensor(bicubic_resize_array(x.data, out_h, out_w, out))
