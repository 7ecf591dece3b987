"""hssr benchmark: training, Monte-Carlo super-resolution and wide-cube evaluation.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Workloads (all on the default net: 31 bands, x4, C=32, T=4, J=3):

    train    `hssr.train.train` on 32x32 HR / 8x8 LR patches, batch 4,
             augmentation on, one warm-up epoch then soft-gate epochs
    sr       `hssr sr` at N=10 over a directory of 32x32 LR cubes
    sr_wide  one 64x64 LR cube through `hssr sr` and `hssr uncertainty`
             at N=2, then `hssr eval --baseline-bicubic`

Each run builds its inputs from --seed with the hsdata writers, runs one
untimed canary operation on fixed inputs under tracemalloc (peak memory,
warm-up, and a check against reference.json), then repeats the workload's
operation until --seconds of operation time have passed, checking every
output. Set-up is repeated and timed between operations. The gated times
are reference seconds: wall seconds scaled by a fixed calibration kernel
timed around each operation, because the shared host changes speed while it
runs (see calibrate and NOTES.md). With --trace 1 it
alternates untraced and traced operations instead and reports per-layer
metrics from the spans tracer.py records.

Standard output ends with a full report line ({"report": ...}) and then a
one-line summary: correct, attempted, failed and the metrics BENCHMARK.json
declares. Both, plus the spans, are
also written under .perfbench_work/results/. --profile tiny shrinks every
workload for the smoke test; --record-reference rewrites reference.json.
"""

from __future__ import annotations

import os

# One BLAS thread: two threads varied 18% run to run in the sizing runs,
# one thread 4%. Must be set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import math
import platform
import shutil
import statistics
import struct
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
from tracer import CONV_KINDS, Tracer, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("train", "sr", "sr_wide")
BANDS, SCALE, PATCH = 31, 4, 32
CANARY_SEED = 20220530  # fixed inputs of the reference check
# Set-up is timed again after every operation, so that its median samples
# the whole run the way the operation metrics do, and at least this often.
SETUPS_PER_OP = 2
SETUP_REPEATS = 9
CKPT_PATCHES = 4  # patches behind the checkpoint the sr workloads load

PROFILES = {
    "full": {
        "train": {"patches": 16, "warmup": 1, "main": 2, "batch": 4},
        "sr": {"cubes": 3, "lr": 32, "n": 10},
        "sr_wide": {"cubes": 1, "lr": 64, "n": 2},
    },
    "tiny": {
        "train": {"patches": 4, "warmup": 1, "main": 1, "batch": 4},
        "sr": {"cubes": 2, "lr": 8, "n": 2},
        "sr_wide": {"cubes": 1, "lr": 16, "n": 2},
    },
}

# Output checks: (key prefix, absolute tolerance, relative tolerance); the
# first matching prefix applies. Loose enough for a change of summation
# order (a shifted-GEMM conv moved outputs by <= 3e-6), tight enough that a
# wrong kernel fails; NOTES.md records both checks.
TOLERANCE = (
    ("umap/", 1e-3, 0.0),  # hits/N can flip where a value sits on a 1/255 step
    ("loss/", 0.0, 1e-4),
    ("params/", 0.0, 1e-3),
    ("report/", 0.0, 2e-4),
    ("", 2e-5, 0.0),  # output cube statistics, values in [0, 1]
)


class CheckError(Exception):
    """An output broke an invariant or left the reference tolerance."""


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, profile: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "seed": seed,
        "profile": profile,
    }


# ---------------------------------------------------------------------------
# machine speed

# The shared host runs the same code at two speeds some 1.6x apart and
# switches between them every few seconds to minutes. The gated times are
# therefore scaled by the speed of a fixed kernel, shaped like the package's
# conv hot path, timed right before and after them:
#     reference seconds = wall seconds * CALIBRATION_REF_S / kernel seconds
# The kernel does not touch the package, so a change to the package moves
# the scaled times as much as the wall times.
CALIBRATION_REF_S = 0.045  # about the kernel's median on the 2-vCPU Xeon test host
CALIBRATION_REPEATS = 3
_CAL_RNG = np.random.default_rng(0)
_CAL_INPUTS = [  # (plane, kernel, depthwise kernel) at C=32
    (_CAL_RNG.standard_normal((32, size, size)).astype(np.float32),
     _CAL_RNG.standard_normal((32, 32 * 9)).astype(np.float32),
     _CAL_RNG.standard_normal((32, 3, 3)).astype(np.float32))
    for size in (32, 128)  # a training patch and an sr output plane
]


def _calibration_kernel() -> float:
    """Seconds of one dense 3x3 conv (im2col and matmul), one depthwise 3x3
    conv and a per-channel elementwise loop, at C=32 on each plane size."""
    t0 = time.perf_counter()
    for x, k, d in _CAL_INPUTS:
        size = x.shape[1]
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        win = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))
        cols = win.transpose(1, 2, 0, 3, 4).reshape(size * size, 32 * 9)
        y = (cols @ k.T).T.reshape(32, size, size)
        z = np.einsum("chwij,cij->chw", win, d)
        for c in range(32):
            y[c] += z[c] * 0.5 + 1.0
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median seconds of the calibration kernel over CALIBRATION_REPEATS runs."""
    return statistics.median(_calibration_kernel() for _ in range(CALIBRATION_REPEATS))


# ---------------------------------------------------------------------------
# inputs


def _hssr(name: str):
    # the package re-exports a function `train` that shadows the submodule
    return importlib.import_module(f"hssr.{name}")


def _write_patches(d: Path, count: int, rng) -> Path:
    hs = _hssr("hsdata")
    man = hs.DatasetManifest(scale=SCALE, patch=PATCH, stride=PATCH, seed=0)
    for role in ("hr", "lr"):
        (d / role / "train").mkdir(parents=True, exist_ok=True)
    for i in range(count):
        hr = hs.random_smooth_cube(BANDS, PATCH, PATCH, rng, name=f"p{i:03d}")
        rel = f"hr/train/{hr.name}.hsc"
        hs.write_cube(hr, d / rel)
        hs.write_cube(hs.make_lr(hr, SCALE), d / "lr" / "train" / f"{hr.name}.hsc")
        man.entries.append((rel, "train"))
    hs.write_manifest(man, d / "manifest.txt")
    return d / "manifest.txt"


def setup(workload: str, p: dict, seed: int, d: Path) -> dict:
    """Write the workload's inputs under `d`, derived from `seed` alone."""
    hs, tr, model = _hssr("hsdata"), _hssr("train"), _hssr("model")
    shutil.rmtree(d, ignore_errors=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    n_patches = p["patches"] if workload == "train" else CKPT_PATCHES
    man_path = _write_patches(d / "data", n_patches, rng)
    inputs = {"dir": d, "data": d / "data", "manifest": hs.read_manifest(man_path)}
    if workload == "train":
        return inputs
    # an untrained checkpoint written by train(): its gates and weights do
    # not depend on conv arithmetic, so the reference check stays exact
    tr.train(inputs["manifest"], model.NetConfig(bands=BANDS, scale=SCALE),
             tr.TrainConfig(warmup_epochs=0, main_epochs=0, seed=seed), d / "ckpt",
             base_dir=inputs["data"])
    inputs["ckpt"] = d / "ckpt" / "checkpoint.pdec"
    for sub in ("lr", "gt"):
        (d / sub).mkdir()
    size = SCALE * p["lr"]
    for i in range(p["cubes"]):
        hr = hs.random_smooth_cube(BANDS, size, size, rng, name=f"cube{i}")
        hs.write_cube(hs.make_lr(hr, SCALE), d / "lr" / f"{hr.name}.hsc")
        if workload == "sr_wide":
            hs.write_cube(hr, d / "gt" / f"{hr.name}.hsc")
    return inputs


def tree_digest(d: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(x for x in d.rglob("*") if x.is_file()):
        h.update(str(f.relative_to(d)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output statistics


def _sign(shape) -> np.ndarray:
    return np.random.default_rng(0).choice((-1.0, 1.0), size=shape)


def _read_hsc(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if raw[:4] != b"HSC1" or len(raw) < 16:
        raise CheckError(f"{path.name}: not an HSC1 cube")
    b, h, w = struct.unpack("<III", raw[4:16])
    if len(raw) != 16 + 4 * b * h * w:
        raise CheckError(f"{path.name}: payload size does not match its header")
    return np.frombuffer(raw, "<f4", offset=16).reshape(b, h, w).astype(np.float64)


def cube_stats(prefix: str, path: Path, shape: tuple, lo=0.0, hi=1.0) -> dict:
    v = _read_hsc(path)
    if v.shape != shape:
        raise CheckError(f"{path.name}: shape {v.shape}, expected {shape}")
    if not np.isfinite(v).all() or v.min() < lo or v.max() > hi:
        raise CheckError(f"{path.name}: values outside [{lo}, {hi}]")
    return {
        f"{prefix}.mean": float(v.mean()),
        f"{prefix}.std": float(v.std()),
        f"{prefix}.min": float(v.min()),
        f"{prefix}.max": float(v.max()),
        f"{prefix}.proj": float((v * _sign(v.shape)).mean()),
    }


def umap_stats(prefix: str, path: Path, shape: tuple, n: int) -> dict:
    v = _read_hsc(path)
    if v.shape != shape:
        raise CheckError(f"{path.name}: shape {v.shape}, expected {shape}")
    hits = v * n  # stored as (disagreeing samples / N)
    if np.abs(hits - np.round(hits)).max() > 1e-4 or hits.min() < 0 or hits.max() > n:
        raise CheckError(f"{path.name}: values are not multiples of 1/{n}")
    return {f"{prefix}.mean": float(v.mean()), f"{prefix}.proj": float((v * _sign(v.shape)).mean())}


def report_stats(prefix: str, path: Path, cubes: int) -> dict:
    lines = path.read_text().splitlines()
    if lines[0] != "cube,mpsnr,mssim,sam" or len(lines) != cubes + 2:
        raise CheckError(f"{path.name}: unexpected report layout")
    out = {}
    for line in lines[1:]:
        name, *vals = line.split(",")
        for metric, val in zip(("mpsnr", "mssim", "sam"), vals):
            x = float(val)
            if not math.isfinite(x):
                raise CheckError(f"{path.name}: non-finite {metric}")
            out[f"{prefix}/{name}.{metric}"] = x
    return out


def train_stats(history: list, out: Path, epochs: int) -> dict:
    tr, model = _hssr("train"), _hssr("model")
    if len(history) != epochs:
        raise CheckError(f"{len(history)} epochs logged, expected {epochs}")
    if len((out / "train.log").read_text().splitlines()) != epochs:
        raise CheckError("train.log does not hold one line per epoch")
    stats = {f"loss/epoch{h['epoch']}": float(h["loss"]) for h in history}
    flat = np.concatenate([p.data.ravel() for p in
                           model.parameters(tr.load_checkpoint(out / "checkpoint.pdec"))])
    flat = flat.astype(np.float64)
    stats.update({
        "params/sum_sq": float((flat * flat).sum()),
        "params/proj": float((flat * _sign(flat.shape)).sum()),
    })
    if not all(math.isfinite(v) for v in stats.values()):
        raise CheckError("non-finite loss or parameter")
    return stats


def compare(stats: dict, ref: dict) -> None:
    if set(stats) != set(ref):
        raise CheckError(f"output keys differ from the reference: {sorted(set(stats) ^ set(ref))[:4]}")
    for key, want in ref.items():
        got = stats[key]
        atol, rtol = next((a, r) for pre, a, r in TOLERANCE if key.startswith(pre))
        if abs(got - want) > atol + rtol * abs(want):
            raise CheckError(f"{key} = {got!r}, reference {want!r}")


# ---------------------------------------------------------------------------
# operations


class Op:
    """One benchmark operation: the commands it ran and what they produced."""

    def __init__(self):
        self.cmds = []  # (command, seconds, exit code)
        self.items = 0  # patches (train) or cubes
        # one value per operation, so a run's median is over operations:
        # mean epoch seconds (train) or seconds per cube
        self.latency = None
        self.scale = 1.0  # reference seconds per wall second (see calibrate)
        self.stats = {}
        self.error = None

    @property
    def seconds(self) -> float:
        return sum(s for _, s, _ in self.cmds)


@contextlib.contextmanager
def _span(tracer, name):
    """The benchmark's own span around a call into the package."""
    if tracer is None:
        yield
        return
    idx = tracer.enter(name)
    try:
        yield
    finally:
        tracer.exit(idx)


def _cli(op: Op, name: str, argv: list, tracer) -> None:
    cli = _hssr("cli")
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with _span(tracer, "cli.main"), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as e:  # argparse rejected the arguments
        code = e.code if isinstance(e.code, int) else 2
    op.cmds.append((name, time.perf_counter() - t0, code))
    if code != 0:
        raise CheckError(f"hssr {name} exited {code}: {sink.getvalue().strip()[-300:]}")


def run_op(workload: str, p: dict, inputs: dict, seed: int, out: Path, tracer=None) -> Op:
    """Run the workload's operation once; exceptions are recorded, not raised."""
    op = Op()
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        if workload == "train":
            _op_train(op, p, inputs, seed, out, tracer)
        elif workload == "sr":
            _op_sr(op, p, inputs, seed, out, tracer)
        else:
            _op_sr_wide(op, p, inputs, seed, out, tracer)
    except Exception as e:  # noqa: BLE001 -- a failed operation is counted, not fatal
        if not isinstance(e, CheckError):
            traceback.print_exc(file=sys.stderr)
        op.error = f"{type(e).__name__}: {e}"
    return op


def _op_train(op, p, inputs, seed, out, tracer):
    tr, model = _hssr("train"), _hssr("model")
    epochs = p["warmup"] + p["main"]
    cfg = tr.TrainConfig(warmup_epochs=p["warmup"], main_epochs=p["main"], batch=p["batch"],
                         augment=True, seed=seed)
    t0 = time.perf_counter()
    try:
        with _span(tracer, "train.train"):
            _, history = tr.train(inputs["manifest"], model.NetConfig(bands=BANDS, scale=SCALE),
                                  cfg, out, base_dir=inputs["data"])
    finally:
        op.cmds.append(("train", time.perf_counter() - t0, 0))
    op.items = p["patches"] * epochs
    op.latency = statistics.fmean(h["secs"] for h in history)
    op.stats = train_stats(history, out, epochs)


def _sr_argv(cmd, inputs, n, seed, out):
    return [cmd, "--checkpoint", str(inputs["ckpt"]), "--input", str(inputs["dir"] / "lr"),
            "--n-samples", str(n), "--seed", str(seed), "--out", str(out)]


def _op_sr(op, p, inputs, seed, out, tracer):
    _cli(op, "sr", _sr_argv("sr", inputs, p["n"], seed, out / "pred"), tracer)
    op.items = p["cubes"]
    op.latency = op.seconds / p["cubes"]
    shape = (BANDS, SCALE * p["lr"], SCALE * p["lr"])
    for i in range(p["cubes"]):
        op.stats.update(cube_stats(f"pred/cube{i}", out / "pred" / f"cube{i}.hsc", shape))


def _op_sr_wide(op, p, inputs, seed, out, tracer):
    _cli(op, "sr", _sr_argv("sr", inputs, p["n"], seed, out / "pred"), tracer)
    _cli(op, "uncertainty", _sr_argv("uncertainty", inputs, p["n"], seed, out / "umap"), tracer)
    _cli(op, "eval", ["eval", "--pred-dir", str(out / "pred"), "--gt-dir", str(inputs["dir"] / "gt"),
                      "--report", str(out / "report.csv"),
                      "--baseline-bicubic", str(inputs["dir"] / "lr")], tracer)
    op.items = p["cubes"]
    op.latency = op.seconds / p["cubes"]
    shape = (BANDS, SCALE * p["lr"], SCALE * p["lr"])
    for i in range(p["cubes"]):
        op.stats.update(cube_stats(f"pred/cube{i}", out / "pred" / f"cube{i}.hsc", shape))
        op.stats.update(umap_stats(f"umap/cube{i}", out / "umap" / f"cube{i}.hsc", shape, p["n"]))
    op.stats.update(report_stats("report/model", out / "report.csv", p["cubes"]))
    op.stats.update(report_stats("report/bicubic", out / "report_bicubic.csv", p["cubes"]))


# ---------------------------------------------------------------------------
# measurement


def distribution(samples: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond it
    (the maximum when there are fewer than twenty samples)."""
    s = sorted(samples)
    n = len(s)
    pct = next((q for q in (99.9, 99, 95, 90, 75, 50) if n * (1 - q / 100) >= 10), 100)
    tail = s[max(0, math.ceil(pct / 100 * n) - 1)]
    return {"median": statistics.median(s), f"p{pct:g}": tail, "n": n}


def peak_pass(workload, p, inputs, out) -> tuple:
    """The canary operation under tracemalloc: (Op, peak MB per command)."""
    peaks = {}
    cli, tr = _hssr("cli"), _hssr("train")
    entries = [(cli, "main", lambda args: args[0][0]), (tr, "train", lambda args: "train")]

    def measured(fn, command):
        def entry(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[command(args)] = tracemalloc.get_traced_memory()[1] / 1e6
        return entry

    originals = [(mod, name, getattr(mod, name)) for mod, name, _ in entries]
    tracemalloc.start()
    try:
        for (mod, name, command), (_, _, fn) in zip(entries, originals):
            setattr(mod, name, measured(fn, command))
        op = run_op(workload, p, inputs, CANARY_SEED, out)
    finally:
        for mod, name, fn in originals:
            setattr(mod, name, fn)
        tracemalloc.stop()
    return op, peaks


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok: bool, error: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(error)

    def add(self, op: Op, ref: dict = None) -> bool:
        self.attempted += max(1, len(op.cmds))
        error = op.error
        if error is None and ref is not None:
            try:
                compare(op.stats, ref)
            except CheckError as e:
                error = str(e)
        if error is not None:
            self.failed += max(1, len(op.cmds))
            self.errors.append(error)
            return False
        return True


def measure(workload: str, profile: str, seed: int, seconds: float, trace: bool) -> tuple:
    p = PROFILES[profile][workload]
    run_dir = WORK / f"{workload}-{profile}-s{seed}-t{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    tally = Tally()

    setup_s, setup_ref_s, calibrations = [], [], [calibrate()]

    def rescale() -> float:
        """Reference seconds per wall second since the previous calibration."""
        calibrations.append(calibrate())
        return 2 * CALIBRATION_REF_S / (calibrations[-2] + calibrations[-1])

    def timed_setup(d: Path) -> tuple:
        t0 = time.perf_counter()
        out = setup(workload, p, seed, d)
        return out, time.perf_counter() - t0

    def add_setups(walls: list, scale: float) -> None:
        setup_s.extend(walls)
        setup_ref_s.extend(w * scale for w in walls)

    inputs, wall = timed_setup(run_dir / "inputs")
    add_setups([wall], rescale())
    digest = tree_digest(run_dir / "inputs")
    same_inputs = True

    def repeat_setup(times: int) -> list:
        nonlocal same_inputs
        walls = []
        for _ in range(times):
            walls.append(timed_setup(run_dir / "setup")[1])
            same_inputs &= tree_digest(run_dir / "setup") == digest
        return walls

    canary_in = setup(workload, p, CANARY_SEED, run_dir / "canary")
    canary, peaks = peak_pass(workload, p, canary_in, run_dir / "canary-out")
    reference = json.loads(REFERENCE.read_text())[profile][workload]
    tally.add(canary, reference)

    ops, traced, first = [], [], None
    tracer = Tracer() if trace else None
    rescale()  # the first operation is timed from here
    while not ops or sum(o.seconds for o in ops) + sum(t.seconds for _, t in traced) < seconds:
        op = run_op(workload, p, inputs, seed, run_dir / "out")
        if tally.add(op, first) and first is None:
            first = op.stats  # every later operation must reproduce it
        ops.append(op)
        if trace:
            tracer.op += 1
            remove = install(tracer)
            try:
                top = run_op(workload, p, inputs, seed, run_dir / "out", tracer)
            finally:
                remove()
            tally.add(top, first)
            traced.append((op, top))
        # the operation and its set-ups share the calibrations around them
        walls = repeat_setup(SETUPS_PER_OP)
        op.scale = rescale()
        add_setups(walls, op.scale)
    walls = repeat_setup(SETUP_REPEATS - len(setup_s))
    if walls:
        add_setups(walls, rescale())
    tally.check(same_inputs, "set-up wrote different inputs for the same seed")

    report = {
        "workload": workload,
        "environment": environment(seed, profile),
        "ops": {"attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors[:5],
                "seconds": [o.seconds for o in ops], "scale": [o.scale for o in ops]},
        "setup_s": distribution(setup_s),
        "setup_ref_s": distribution(setup_ref_s),
        "calibration": {"kernel_s": distribution(calibrations),
                        "reference_s": CALIBRATION_REF_S},
        "peak_mb": peaks,
    }
    good = [o for o in ops if o.error is None]
    if not good:
        raise SystemExit(f"every {workload} operation failed: {tally.errors[:3]}")
    if trace:
        report["per_layer"] = per_layer(tracer, traced)
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "results" / f"spans-{run_dir.name}.tsv")
    else:
        report["end_to_end"] = {
            "setup_s": {**report["setup_s"], "unit": "s"},
            **end_to_end(workload, good, peaks),
            "ops.attempted": {"value": tally.attempted, "unit": "count"},
            "ops.failed": {"value": tally.failed, "unit": "count"},
        }
    summary_metrics = (
        gated_per_layer(report["per_layer"]) if trace
        else gated_end_to_end(report, good, peaks)
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    return report, {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": summary_metrics,
    }


def _throughput(ops, cmd=None) -> float:
    secs = sum(s for o in ops for c, s, _ in o.cmds if cmd in (None, c))
    return sum(o.items for o in ops) / secs


def end_to_end(workload: str, ops: list, peaks: dict) -> dict:
    """The named end-to-end table (see NOTES.md for how it maps to the gated metrics)."""
    lat = [o.latency for o in ops]
    if workload == "train":
        return {
            "train.patches_per_s": {"value": _throughput(ops), "unit": "1/s"},
            "train.epoch_s": {**distribution(lat), "unit": "s"},
            "train.peak_mb": {"value": peaks.get("train"), "unit": "MB"},
        }
    out = {
        "sr.cubes_per_s": {"value": _throughput(ops, "sr"), "unit": "1/s"},
        "sr.cube_s": {**distribution([s / o.items for o in ops for c, s, _ in o.cmds if c == "sr"]),
                      "unit": "s"},
        "sr.peak_mb": {"value": peaks.get("sr"), "unit": "MB"},
    }
    if workload == "sr_wide":
        for cmd in ("uncertainty", "eval"):
            out[f"{cmd}.cubes_per_s"] = {"value": _throughput(ops, cmd), "unit": "1/s"}
            out[f"{cmd}.peak_mb"] = {"value": peaks.get(cmd), "unit": "MB"}
        out["pipeline.cube_s"] = {**distribution(lat), "unit": "s"}
    return out


def gated_end_to_end(report: dict, ops: list, peaks: dict) -> dict:
    """The metrics BENCHMARK.json declares: medians over the run's operations
    (set-ups for setup_s), in reference seconds."""
    return {
        "setup_s": {"value": report["setup_ref_s"]["median"], "unit": "s"},
        "items_per_s": {"value": statistics.median(o.items / (o.seconds * o.scale) for o in ops),
                        "unit": "1/s"},
        "item_s": {"value": statistics.median(o.latency * o.scale for o in ops), "unit": "s"},
        "peak_mb": {"value": max(peaks.values()), "unit": "MB"},
    }


def per_layer(tracer, traced: list) -> dict:
    """Per-operation means over the traced operations, plus exact counts."""
    k = len(traced)
    incl, self_ns = tracer.totals()
    c = tracer.counts

    def sec(table, name):
        return table.get(name, 0) / 1e9 / k

    m = {}
    for kind in CONV_KINDS:
        m[f"tensor.conv2d.fwd_s.{kind}"] = sec(incl, f"tensor.conv2d.fwd.{kind}")
        m[f"tensor.conv2d.bwd_s.{kind}"] = sec(incl, f"tensor.conv2d.bwd.{kind}")
        m[f"tensor.conv2d.gflop.{kind}"] = c[f"conv.flop.{kind}"] / 1e9 / k
        m[f"tensor.conv2d.bytes.{kind}"] = c[f"conv.bytes.{kind}"] / k
    forwards = c["model.forwards"]
    m.update({
        "tensor.conv2d.calls_per_forward": c["conv.calls"] / forwards if forwards else 0,
        "tensor.backward_s": sec(incl, "tensor.backward"),
        "tensor.backward_self_s": sec(self_ns, "tensor.backward"),
        "tensor.tape_nodes": c["tensor.tape_nodes_max"],
        "tensor.bicubic_s": sec(incl, "tensor.bicubic"),
        "gating.draw_s": sec(incl, "gating.draw"),
        "gating.draws": c["gating.draws"] / k,
        "model.forwards": forwards / k,
        "model.forward_s": sec(incl, "model.forward"),
        "model.forward_self_s": sec(self_ns, "model.forward"),
        "model.stage1_prefix_s": c["model.stage1_prefix_ns"] / 1e9 / k,
        "model.loss_s": sec(incl, "model.loss"),
        "train.steps": c["train.steps"] / k,
        "train.adam_s": sec(incl, "train.adam"),
        "train.batch_s": sec(incl, "train.batch"),
        "train.checkpoint_s": sec(incl, "train.checkpoint"),
        "train.load_checkpoint_s": sec(incl, "train.load_checkpoint"),
        "train.self_s": sec(self_ns, "train.train"),
        "evaluate.mc_infer_s": sec(incl, "evaluate.mc_infer"),
        "evaluate.mc_infer_self_s": sec(self_ns, "evaluate.mc_infer"),
        "evaluate.uncertainty_s": sec(incl, "evaluate.uncertainty"),
        "evaluate.mpsnr_s": sec(incl, "evaluate.mpsnr"),
        "evaluate.mssim_s": sec(incl, "evaluate.mssim"),
        "evaluate.sam_s": sec(incl, "evaluate.sam"),
        "hsdata.read_cube_s": sec(incl, "hsdata.read_cube"),
        "hsdata.write_cube_s": sec(incl, "hsdata.write_cube"),
        "hsdata.bytes_read": c["hsdata.bytes_read"] / k,
        "hsdata.bytes_written": c["hsdata.bytes_written"] / k,
        "cli.self_s": sec(self_ns, "cli.main"),
    })
    traced_wall = sum(t.seconds for _, t in traced) / k
    untraced_wall = sum(u.seconds for u, _ in traced) / k
    attributed = sum(self_ns.values()) / 1e9 / k
    m.update({
        "trace.ops": k,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.attributed_s": attributed,
        "trace.unattributed_s": traced_wall - attributed,
    })
    table = {name: {"value": value, "unit": _unit(name)} for name, value in m.items()}
    table["self_s"] = {name: ns / 1e9 / k for name, ns in sorted(self_ns.items())}
    return table


def _unit(name: str) -> str:
    parts = name.split(".")
    if "gflop" in parts:
        return "GFLOP"
    if "bytes" in parts or any(x.startswith("bytes_") for x in parts):
        return "B"
    return "s" if any(x.endswith("_s") for x in parts) else "count"


def gated_per_layer(table: dict) -> dict:
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return {name: table[name] for name in names}


# ---------------------------------------------------------------------------
# entry point


def record_reference() -> None:
    refs = {}
    for profile, workloads in PROFILES.items():
        refs[profile] = {}
        for workload, p in workloads.items():
            d = WORK / "reference" / f"{profile}-{workload}"
            inputs = setup(workload, p, CANARY_SEED, d / "in")
            op = run_op(workload, p, inputs, CANARY_SEED, d / "out")
            if op.error:
                raise SystemExit(f"{profile}/{workload}: {op.error}")
            refs[profile][workload] = op.stats
            print(f"recorded {profile}/{workload}: {len(op.stats)} values", file=sys.stderr)
    shutil.rmtree(WORK / "reference", ignore_errors=True)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=sorted(PROFILES), default="full")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "hssr" / "__init__.py").is_file():
        print(f"error: no hssr package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    report, summary = measure(args.workload, args.profile, args.seed, args.seconds,
                              bool(args.trace))
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{args.profile}-s{args.seed}-t{args.trace}"
    (WORK / "results" / f"{tag}.json").write_text(
        json.dumps({"report": report, "summary": summary}, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
