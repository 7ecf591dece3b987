"""In-memory span tracer that hooks hssr from outside the package.

`install(tracer)` replaces the module-level names the package calls through
(and `ConvLayer.apply`, plus the `grad_fn` of every conv tape node) with
wrappers that record spans; the returned callable puts the originals back.
Nothing inside `src/` carries a timer, so an untraced run executes exactly
the package's own code.

A span is [name, op, parent, start_ns, end_ns]. Spans of one benchmark
operation share `op`; `parent` is the index of the enclosing span or -1.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from pathlib import Path

CONV_KINDS = ("pw1x1", "dw3x3", "head3x3", "tail3x3", "degrade")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = 0
        self.net = None  # network of the forward pass in progress
        self._stack = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.op, parent, time.perf_counter_ns(), 0])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> int:
        end = time.perf_counter_ns()
        self.spans[idx][4] = end
        self._stack.pop()
        return end - self.spans[idx][3]

    def wrap(self, fn, name: str, after=None):
        """`fn` inside a span; `after(result, args, ns)` may record counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                ns = self.exit(idx)
            if after is not None:
                after(out, args, ns)
            return out

        return traced

    def totals(self) -> tuple:
        """Inclusive and self nanoseconds per span name, over every span."""
        incl, self_ns = defaultdict(int), defaultdict(int)
        for name, _, parent, start, end in self.spans:
            dur = end - start
            incl[name] += dur
            self_ns[name] += dur
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= dur
        return dict(incl), dict(self_ns)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("name\top\tparent\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(str(v) for v in span) + "\n")


def conv_kind(layer) -> str:
    cout, cin_g, kh, _ = layer.kernel.data.shape
    if getattr(layer, "stride", 1) > 1:
        return "degrade"
    if getattr(layer, "groups", 1) > 1:
        return "dw3x3"
    if kh == 1:
        return "pw1x1"
    return "tail3x3" if cout == cin_g else "head3x3"


def _stage1_stem(net):
    try:
        return net.stages[0].stem
    except (AttributeError, IndexError):
        return None


class _StackTimingNumpy:
    """numpy stand-in for `hssr.train.np` whose `stack` (batch assembly) is traced."""

    def __init__(self, np_mod, stack):
        self._np = np_mod
        self.stack = stack

    def __getattr__(self, name):
        return getattr(self._np, name)


def install(tr: Tracer):
    """Hook every traced call site; returns a callable that removes the hooks."""
    # import_module, not `import hssr.train as ...`: the package re-exports
    # a function named `train` that shadows the submodule attribute
    cli, evaluate, model, train = (
        importlib.import_module(f"hssr.{name}") for name in ("cli", "evaluate", "model", "train")
    )

    undo = []

    def patch(owner, attr, new):
        if not hasattr(owner, attr):
            return  # the call site is gone; its spans read zero
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def span(owner, attr, name, after=None):
        fn = getattr(owner, attr, None)
        if fn is not None:
            patch(owner, attr, tr.wrap(fn, name, after))

    c = tr.counts
    apply = model.ConvLayer.apply

    def conv_apply(layer, x, graph=None):
        kind = conv_kind(layer)
        idx = tr.enter(f"tensor.conv2d.fwd.{kind}")
        try:
            out = apply(layer, x, graph)
        finally:
            ns = tr.exit(idx)
        if tr.net is not None and layer is _stage1_stem(tr.net):
            c["model.stage1_prefix_ns"] += ns
        _, cin_g, kh, kw = layer.kernel.data.shape
        n, cout, ho, wo = out.data.shape
        item = out.data.itemsize
        c["conv.calls"] += 1
        c[f"conv.flop.{kind}"] += 2 * n * cout * ho * wo * cin_g * kh * kw
        c[f"conv.bytes.{kind}"] += item * (
            x.data.size + layer.kernel.data.size + layer.bias.data.size + out.data.size
        )
        graph_ = getattr(out, "graph", None)
        if graph_ is not None:
            node = graph_.nodes[out.node_id]
            if getattr(node, "grad_fn", None) is not None:
                node.grad_fn = tr.wrap(node.grad_fn, f"tensor.conv2d.bwd.{kind}")
        return out

    patch(model.ConvLayer, "apply", conv_apply)

    def forward_wrapper(fn):
        def traced_forward(net, *args, **kwargs):
            tr.net = net
            c["model.forwards"] += 1
            idx = tr.enter("model.forward")
            try:
                return fn(net, *args, **kwargs)
            finally:
                tr.exit(idx)
                tr.net = None

        return traced_forward

    for mod in (train, evaluate):
        if hasattr(mod, "forward"):
            patch(mod, "forward", forward_wrapper(mod.forward))

    def count(key):
        return lambda out, args, ns: c.update({key: 1})

    def prefix_bicubic(out, args, ns):
        c["model.stage1_prefix_ns"] += ns

    def tape(out, args, ns):
        graph_ = getattr(args[0], "graph", None)
        if graph_ is not None:
            c["tensor.tape_nodes_max"] = max(c["tensor.tape_nodes_max"], len(graph_.nodes))
        c["train.steps"] += 1

    def bytes_read(out, args, ns):
        c["hsdata.bytes_read"] += Path(args[0]).stat().st_size

    def bytes_written(out, args, ns):
        c["hsdata.bytes_written"] += 16 + 4 * args[0].values.size

    span(model, "mask_for", "gating.draw", count("gating.draws"))
    span(model, "sample_hard", "gating.draw", count("gating.draws"))
    span(model, "bicubic_resize", "tensor.bicubic", prefix_bicubic)
    span(cli, "bicubic_resize_array", "tensor.bicubic")
    span(train, "loss", "model.loss")
    span(train, "backward", "tensor.backward", tape)
    span(train, "adam_step", "train.adam")
    span(train, "_augmented", "train.batch")
    patch(train, "np", _StackTimingNumpy(train.np, tr.wrap(train.np.stack, "train.batch")))
    span(train, "save_checkpoint", "train.checkpoint")
    span(train, "read_cube", "hsdata.read_cube", bytes_read)
    span(cli, "read_cube", "hsdata.read_cube", bytes_read)
    span(cli, "write_cube", "hsdata.write_cube", bytes_written)
    span(cli, "load_checkpoint", "train.load_checkpoint")
    span(cli, "mc_infer", "evaluate.mc_infer")
    span(cli, "uncertainty", "evaluate.uncertainty")
    span(cli, "evaluate_pairs", "evaluate.evaluate_pairs")
    for metric in ("mpsnr", "mssim", "sam"):
        span(evaluate, metric, f"evaluate.{metric}")

    def remove():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
        undo.clear()

    return remove
