"""The example scripts under scripts/, run as a user would run them.

`make_toy_dataset.py` and `run_toy_pipeline.py` run here at small sizes.
`run_ablations.py` trains for minutes, so only its command line runs here;
its sweep runs in full as acceptance criterion 07.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300)


def test_make_toy_dataset(tmp_path):
    out = tmp_path / "raw"
    res = _run("make_toy_dataset.py", "--out", str(out), "--cubes", "3", "--test", "1",
               "--size", "16")
    assert res.returncode == 0, res.stderr
    entries = [ln for ln in (out / "manifest.txt").read_text().splitlines()
               if not ln.startswith("#")]
    assert entries == ["train cube00.hsc", "train cube01.hsc", "test cube02.hsc"]
    assert sorted(p.name for p in out.glob("*.hsc")) == ["cube00.hsc", "cube01.hsc", "cube02.hsc"]


def test_run_toy_pipeline(tmp_path):
    res = _run("run_toy_pipeline.py", "--out", str(tmp_path), "--warmup-epochs", "0",
               "--main-epochs", "1")
    assert res.returncode == 0, res.stderr
    names = ["cube6.hsc", "cube7.hsc"]
    assert sorted(p.name for p in (tmp_path / "pred").iterdir()) == names
    assert sorted(p.name for p in (tmp_path / "umap").iterdir()) == names
    rows = (tmp_path / "report.csv").read_text().splitlines()
    assert rows[0] == "cube,mpsnr,mssim,sam"
    assert [r.split(",")[0] for r in rows[1:]] == ["cube6", "cube7", "MEAN"]
    assert (tmp_path / "run" / "checkpoint.pdec").exists()


def test_run_ablations_help():
    res = _run("run_ablations.py", "--help")
    assert res.returncode == 0, res.stderr
    for flag in ("--workdir", "--seeds", "--scale", "--noise-sigma", "--channels",
                 "--units-per-stage"):
        assert flag in res.stdout
