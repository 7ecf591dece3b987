"""Re-measure the ROADMAP re-anchor table with the benchmark's settings.

    python3 perfbench/reconcile.py [--repeats 3]

Prints, as one JSON object: the training step (batch 4, 8x8 -> 32x32,
forward + loss + backward + Adam) and its tape size; `mc_infer` at 16x16,
32x32 and 64x64 LR with N=10; and the HR tail conv's share of conv time in
a training step (forward + backward) and of `mc_infer` time at 32x32. Each
time is the median of --repeats runs after one warm-up run, on one BLAS
thread. NOTES.md compares the output with the re-anchor numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

from tracer import Tracer, install  # noqa: E402


def _median_time(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _traced(fn) -> dict:
    tr = Tracer()
    remove = install(tr)
    try:
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
    finally:
        remove()
    incl, self_ns = tr.totals()
    return {"wall": wall, "incl": incl, "self": self_ns}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    model, train = run._hssr("model"), run._hssr("train")
    evaluate, tensor = run._hssr("evaluate"), run._hssr("tensor")

    net = model.build_net(model.NetConfig(bands=run.BANDS), np.random.default_rng(0))
    params = model.parameters(net)
    state = train.init_adam(params)
    rng = np.random.default_rng(1)
    x = rng.random((4, run.BANDS, 8, 8)).astype(np.float32)
    y = rng.random((4, run.BANDS, 32, 32)).astype(np.float32)
    nodes = []

    def step():
        g = tensor.Graph()
        y_hat, x_hat = model.forward(net, tensor.Tensor(x), "train", rng=rng, graph=g)
        loss = model.loss(y_hat, tensor.Tensor(y), x_hat, tensor.Tensor(x))
        grads = tensor.backward(loss)
        train.adam_step(state, params, [grads.get(g.leaf_id(p)) for p in params], 1e-5)
        nodes.append(len(g.nodes))

    out = {"environment": run.environment(0, "reconcile"),
           "train_step_s": _median_time(step, args.repeats), "tape_nodes": nodes[-1]}
    s = _traced(step)
    conv = {k: v for k, v in s["incl"].items() if k.startswith("tensor.conv2d.")}
    tail = sum(v for k, v in conv.items() if k.endswith(".tail3x3"))
    out["train_step_tail_share_of_conv"] = tail / sum(conv.values())

    for size in (16, 32, 64):
        cube = rng.random((run.BANDS, size, size)).astype(np.float32)
        out[f"mc_infer_{size}_n10_s"] = _median_time(
            lambda: evaluate.mc_infer(net, cube, 10, 0), args.repeats)
        if size == 32:
            s = _traced(lambda: evaluate.mc_infer(net, cube, 10, 0))
            conv = sum(v for k, v in s["incl"].items() if k.startswith("tensor.conv2d."))
            tail = s["incl"]["tensor.conv2d.fwd.tail3x3"]
            out["mc_infer_32_conv_share"] = conv / 1e9 / s["wall"]
            out["mc_infer_32_tail_share"] = tail / 1e9 / s["wall"]
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
