"""Smoke test for the benchmark: every workload runs at a tiny size and prints
valid JSON that names every metric. It makes no timing assertion.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
KINDS = ("pw1x1", "dw3x3", "head3x3", "tail3x3", "degrade")

NAMED_END_TO_END = {
    "train": ("train.patches_per_s", "train.epoch_s", "train.peak_mb"),
    "sr": ("sr.cubes_per_s", "sr.cube_s", "sr.peak_mb"),
    "sr_wide": ("sr.cubes_per_s", "sr.cube_s", "sr.peak_mb", "uncertainty.cubes_per_s",
                "eval.cubes_per_s", "pipeline.cube_s"),
}
NAMED_PER_LAYER = (
    [f"tensor.conv2d.{m}.{k}" for m in ("fwd_s", "bwd_s", "gflop", "bytes") for k in KINDS]
    + ["tensor.conv2d.calls_per_forward", "tensor.backward_self_s", "tensor.tape_nodes",
       "tensor.bicubic_s", "gating.draw_s", "gating.draws", "model.forward_self_s",
       "model.stage1_prefix_s", "train.adam_s", "train.batch_s", "train.checkpoint_s",
       "evaluate.mc_infer_s", "evaluate.uncertainty_s", "evaluate.mpsnr_s", "evaluate.mssim_s",
       "evaluate.sam_s", "hsdata.read_cube_s", "hsdata.write_cube_s", "hsdata.bytes_read",
       "hsdata.bytes_written", "cli.self_s", "trace.overhead_s", "trace.wall_s",
       "trace.attributed_s", "trace.unattributed_s"]
)
ENVIRONMENT = ("cpu", "nproc", "python", "numpy", "blas", "blas_threads", "seed")


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--profile", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, trace: int):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    report, summary = json.loads(lines[-2])["report"], json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True, report["ops"]
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    assert set(ENVIRONMENT) <= set(report["environment"])
    assert report["calibration"]["kernel_s"]["median"] > 0
    return report, summary


def _check_declared(summary: dict, declared: list) -> None:
    assert set(summary["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        value = summary["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_names_every_end_to_end_metric(workload):
    report, summary = _result(workload, 0)
    _check_declared(summary, BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in summary["metrics"].values())
    for name in NAMED_END_TO_END[workload]:
        assert "unit" in report["end_to_end"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_names_every_per_layer_metric(workload):
    report, summary = _result(workload, 1)
    _check_declared(summary, BENCH["per_layer"])
    table = report["per_layer"]
    for name in NAMED_PER_LAYER:
        assert "unit" in table[name], name
    assert table["trace.attributed_s"]["value"] > 0


def test_exits_nonzero_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = _run(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
