"""End-to-end command-line pipeline: prepare, train, sr, uncertainty, eval."""

import gc
import re
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hssr import cli
from hssr.cli import CONFIG_SCHEMA, _parse_value, main, read_run_config
from hssr.errors import FormatError, ParameterError
from hssr.evaluate import mc_infer, mc_mean
from hssr.hsdata import (
    DatasetManifest,
    HSCube,
    make_lr,
    random_smooth_cube,
    read_cube,
    read_manifest,
    write_cube,
    write_manifest,
)
from hssr.model import NetConfig, build_net, chain_plan, parameters
from hssr.train import load_checkpoint, save_checkpoint


def _make_raw(root, names_roles, hw=32, seed=0):
    rng = np.random.default_rng(seed)
    (root / "cubes").mkdir(parents=True)
    man = DatasetManifest()
    for name, role in names_roles:
        cube = random_smooth_cube(3, hw, hw, rng, name=name)
        write_cube(cube, root / "cubes" / f"{name}.hsc")
        man.entries.append((f"cubes/{name}.hsc", role))
    write_manifest(man, root / "manifest.txt")
    return root / "manifest.txt"


@pytest.fixture(scope="module")
def raw_manifest(tmp_path_factory):
    return _make_raw(
        tmp_path_factory.mktemp("raw"),
        [("alpha", "train"), ("beta", "train"), ("gamma", "test")],
    )


@pytest.fixture(scope="module")
def data_dir(raw_manifest, tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main([
        "prepare", "--manifest", str(raw_manifest), "--scale", "2",
        "--patch", "16", "--stride", "16", "--out", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def run_dir(data_dir, tmp_path_factory):
    cfg = data_dir / "run.cfg"
    cfg.write_text(
        "# tiny smoke-test run\n"
        "manifest=manifest.txt\n"
        "stages=1\nunits_per_stage=1\nchannels=4\n"
        "warmup_epochs=1\nmain_epochs=2\nbatch=4\nseed=3\n"
    )
    out = tmp_path_factory.mktemp("run")
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestPrepare:
    def test_patch_inventory(self, data_dir):
        man = read_manifest(data_dir / "manifest.txt")
        assert man.scale == 2 and man.patch == 16 and man.stride == 16
        assert len(man.paths("train")) == 8  # two 32x32 cubes, four tiles each
        assert len(man.paths("test")) == 4
        hr = read_cube(data_dir / "hr" / "train" / "alpha_y000x000.hsc")
        lr = read_cube(data_dir / "lr" / "train" / "alpha_y000x000.hsc")
        assert hr.values.shape == (3, 16, 16)
        assert lr.values.shape == (3, 8, 8)

    def test_lr_is_clean_downsample_of_hr(self, data_dir):
        from hssr.hsdata import make_lr

        hr = read_cube(data_dir / "hr" / "test" / "gamma_y016x016.hsc")
        lr = read_cube(data_dir / "lr" / "test" / "gamma_y016x016.hsc")
        np.testing.assert_array_equal(lr.values, make_lr(hr, 2).values)

    def test_rerun_is_byte_identical(self, raw_manifest, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = main([
                "prepare", "--manifest", str(raw_manifest), "--scale", "2",
                "--patch", "16", "--stride", "8", "--noise-sigma", "0.01",
                "--seed", "5", "--out", str(out),
            ])
            assert rc == 0
            outs.append(out)
        files_a = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
        assert files_a == files_b and files_a
        for rel in files_a:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

    def test_indivisible_patch_is_config_error(self, raw_manifest, tmp_path):
        rc = main([
            "prepare", "--manifest", str(raw_manifest), "--scale", "2",
            "--patch", "15", "--stride", "15", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2

    def test_missing_manifest_is_io_error(self, tmp_path):
        rc = main([
            "prepare", "--manifest", str(tmp_path / "nope.txt"),
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 3

    def test_undecodable_manifest_is_config_error(self, raw_manifest, tmp_path):
        bad = tmp_path / "manifest.txt"
        bad.write_bytes(raw_manifest.read_bytes() + b"# \xff\n")
        rc = main(["prepare", "--manifest", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_negative_seed_is_config_error(self, raw_manifest, tmp_path):
        rc = main([
            "prepare", "--manifest", str(raw_manifest), "--scale", "2",
            "--patch", "16", "--stride", "16", "--seed", "-1", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert not (tmp_path / "x").exists()


class TestRunConfig:
    def test_defaults_and_types(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("manifest=m.txt\nlambda=0.5\naugment=no\n# comment\n\nseed=7\n")
        values = read_run_config(cfg)
        assert values["manifest"] == "m.txt"
        assert values["lambda"] == 0.5
        assert values["augment"] is False
        assert values["seed"] == 7
        assert values["stages"] == 4 and values["tau"] == 2.0 / 3.0

    def test_set_overrides_file(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("manifest=m.txt\nseed=7\n")
        values = read_run_config(cfg, ["seed=9", "augment=false"])
        assert values["seed"] == 9 and values["augment"] is False

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("manifest=m.txt\nlearning_rate=1\n")
        with pytest.raises(FormatError, match="unknown config key"):
            read_run_config(cfg)

    def test_bad_values_rejected(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("manifest=m.txt\nseed=abc\n")
        with pytest.raises(ParameterError, match="expected int"):
            read_run_config(cfg)
        cfg.write_text("manifest=m.txt\naugment=maybe\n")
        with pytest.raises(ParameterError, match="boolean"):
            read_run_config(cfg)
        cfg.write_text("manifest=m.txt\nno equals sign\n")
        with pytest.raises(FormatError, match="key=value"):
            read_run_config(cfg)

    def test_missing_required_key(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("seed=1\n")
        with pytest.raises(ParameterError, match="manifest"):
            read_run_config(cfg)
        with pytest.raises(ParameterError, match="--set"):
            read_run_config(cfg, ["bogus=1"])

    def test_help_lists_schema(self, capsys):
        with pytest.raises(SystemExit) as ex:
            main(["train", "--help"])
        assert ex.value.code == 0
        out = capsys.readouterr().out
        listed = {}
        for line in out.splitlines():
            m = re.match(r"  (\w+) \((\w+), default: (.*?)\): ", line)
            if m:
                listed[m.group(1)] = (m.group(2), m.group(3))
        assert list(listed) == list(CONFIG_SCHEMA)
        for key, (typ, default, _help) in CONFIG_SCHEMA.items():
            shown = "required" if key == "manifest" else str(default)
            assert listed[key] == (typ.__name__, shown), key
        assert listed["halve_every"] == ("int", "25") and listed["lambda"] == ("float", "1.0")

    def test_readme_table_matches_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Training configuration", 1)[1].split("\n## ", 1)[0]
        rows = dict(re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", section, flags=re.M))
        assert list(rows) == list(CONFIG_SCHEMA)
        for key, cell in rows.items():
            typ, default, _help = CONFIG_SCHEMA[key]
            if key == "manifest":
                assert cell == "required"
            elif typ is float:  # written as a decimal or a fraction such as 2/3
                assert float(Fraction(cell)) == default, key
            else:
                assert _parse_value(key, cell) == default and type(default) is typ, key


class TestTrainCommand:
    def test_outputs_exist(self, run_dir):
        assert (run_dir / "checkpoint.pdec").exists()
        log = (run_dir / "train.log").read_text().splitlines()
        assert len(log) == 3 and log[0].startswith("epoch=0 ")

    def test_streams_progress(self, data_dir, tmp_path, capsys):
        cfg = data_dir / "run.cfg"
        rc = main([
            "train", "--config", str(cfg),
            "--set", "warmup_epochs=1", "--set", "main_epochs=0",
            "--out", str(tmp_path / "run"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "epoch=0 " in out and "checkpoint written" in out

    def test_reads_only_the_first_cube_header(self, data_dir, tmp_path, monkeypatch):
        # the band count comes from the header; train() loads the cubes itself
        def no_payload(path):
            raise AssertionError(f"cmd_train decoded {path}")

        monkeypatch.setattr(cli, "read_cube", no_payload)
        rc = main(["train", "--config", str(data_dir / "run.cfg"), "--set", "main_epochs=0",
                   "--out", str(tmp_path / "run")])
        assert rc == 0

    def test_bad_config_exit_code(self, data_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("manifest=manifest.txt\nbogus=1\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2

    def test_undecodable_config_exit_code(self, data_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"manifest=manifest.txt\n# \xff\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2

    def test_negative_seed_exit_code(self, run_dir, data_dir, tmp_path):
        rc = main([
            "train", "--config", str(data_dir / "run.cfg"), "--set", "seed=-1",
            "--out", str(tmp_path / "r"),
        ])
        assert rc == 2
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("setting", ["lr0=nan", "lr0=inf", "lambda=-1",
                                         "lambda=nan", "tau=nan", "tau=0"])
    def test_bad_float_hyperparameter_exit_code(self, run_dir, data_dir, tmp_path, setting):
        rc = main([
            "train", "--config", str(data_dir / "run.cfg"), "--set", setting,
            "--out", str(tmp_path / "r"),
        ])
        assert rc == 2
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("line, extra", [
        # the manifest's own scale: the key is gone, not just checked
        pytest.param("scale=2", [], id="scale"),
        pytest.param("", ["--set", "beta1=0.5"], id="beta1"),
        pytest.param("", ["--set", "eps=1e-7"], id="eps"),
    ])
    def test_removed_keys_exit_code(self, run_dir, data_dir, tmp_path, line, extra):
        # the scale comes from the manifest and Adam's constants are fixed
        cfg = tmp_path / "run.cfg"
        cfg.write_text((data_dir / "run.cfg").read_text().replace(
            "manifest=manifest.txt", f"manifest={data_dir / 'manifest.txt'}\n{line}"))
        rc = main(["train", "--config", str(cfg), *extra, "--out", str(tmp_path / "r")])
        assert rc == 2
        assert not (tmp_path / "r").exists()

    def test_non_square_patches_need_augment_off(self, tmp_path, capsys):
        # a 90-degree rotation transposes a 8x16 patch, so an augmented batch
        # of several patches cannot be stacked
        rng = np.random.default_rng(0)
        man = DatasetManifest(scale=2, patch=8, stride=8)
        for d in ("hr", "lr"):
            (tmp_path / d / "train").mkdir(parents=True)
        for i in range(4):
            hr = HSCube(rng.uniform(size=(3, 8, 16)).astype(np.float32), name=f"p{i}")
            write_cube(hr, tmp_path / "hr" / "train" / f"p{i}.hsc")
            write_cube(make_lr(hr, 2), tmp_path / "lr" / "train" / f"p{i}.hsc")
            man.entries.append((f"hr/train/p{i}.hsc", "train"))
        write_manifest(man, tmp_path / "manifest.txt")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("manifest=manifest.txt\nstages=1\nunits_per_stage=1\nchannels=4\n"
                       "warmup_epochs=1\nmain_epochs=1\nbatch=4\n")
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "a")])
        assert rc == 2
        assert not (tmp_path / "a").exists()
        assert "augment=false" in capsys.readouterr().err
        rc = main(["train", "--config", str(cfg), "--set", "augment=false",
                   "--out", str(tmp_path / "b")])
        assert rc == 0
        assert (tmp_path / "b" / "checkpoint.pdec").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_exit_code(self, data_dir, tmp_path):
        rc = main([
            "train", "--config", str(data_dir / "run.cfg"),
            "--set", "lr0=1e9", "--set", "warmup_epochs=0", "--set", "main_epochs=40",
            "--out", str(tmp_path / "run"),
        ])
        assert rc == 1


class TestInferenceCommands:
    def test_sr_directory_mode(self, run_dir, data_dir, tmp_path):
        out = tmp_path / "pred"
        rc = main([
            "sr", "--checkpoint", str(run_dir / "checkpoint.pdec"),
            "--input", str(data_dir / "lr" / "test"),
            "--n-samples", "3", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        files = sorted(p.name for p in out.glob("*.hsc"))
        assert len(files) == 4
        cube = read_cube(out / files[0])
        assert cube.values.shape == (3, 16, 16)
        assert cube.values.min() >= 0.0 and cube.values.max() <= 1.0

    def test_sr_single_file_with_samples(self, run_dir, data_dir, tmp_path):
        src = next(iter(sorted((data_dir / "lr" / "test").glob("*.hsc"))))
        out = tmp_path / "one.hsc"
        sdir = tmp_path / "samples"
        rc = main([
            "sr", "--checkpoint", str(run_dir / "checkpoint.pdec"),
            "--input", str(src), "--n-samples", "2", "--out", str(out),
            "--save-samples", str(sdir),
        ])
        assert rc == 0
        assert read_cube(out).values.shape == (3, 16, 16)
        assert sorted(p.name for p in sdir.glob("*.hsc")) == [
            f"{src.stem}_s0.hsc", f"{src.stem}_s1.hsc",
        ]

    def test_sr_save_samples_keeps_the_mean_bytes(self, run_dir, data_dir, tmp_path):
        src = next(iter(sorted((data_dir / "lr" / "test").glob("*.hsc"))))
        outs = []
        for sub, extra in (("plain.hsc", []), ("with.hsc", ["--save-samples", str(tmp_path / "s")])):
            rc = main([
                "sr", "--checkpoint", str(run_dir / "checkpoint.pdec"),
                "--input", str(src), "--n-samples", "3", "--seed", "5",
                "--out", str(tmp_path / sub), *extra,
            ])
            assert rc == 0
            outs.append((tmp_path / sub).read_bytes())
        assert outs[0] == outs[1]
        assert len(list((tmp_path / "s").glob("*.hsc"))) == 3

    def test_sr_saved_samples_are_clipped_mc_infer_samples(self, run_dir, data_dir, tmp_path):
        src = next(iter(sorted((data_dir / "lr" / "test").glob("*.hsc"))))
        # shift two bands of the output bias, so the samples leave [0, 1] and need clipping
        net = load_checkpoint(run_dir / "checkpoint.pdec")
        bias = next(p for p in parameters(net) if p.name == "stage1.tail.bias")
        bias.data += np.array([2.0, -2.0, 0.0], dtype=np.float32)
        ckpt = tmp_path / "shifted.pdec"
        save_checkpoint(net, ckpt)
        rc = main(["sr", "--checkpoint", str(ckpt), "--input", str(src), "--n-samples", "3",
                   "--seed", "5", "--out", str(tmp_path / "m.hsc"),
                   "--save-samples", str(tmp_path / "s")])
        assert rc == 0
        _, samples = mc_infer(load_checkpoint(ckpt), read_cube(src), 3, 5)
        assert all(s.values.max() > 1.0 and s.values.min() < 0.0 for s in samples)
        for i, s in enumerate(samples):
            saved = read_cube(tmp_path / "s" / f"{src.stem}_s{i}.hsc")
            assert np.array_equal(saved.values, np.clip(s.values, 0.0, 1.0)), i
            assert saved.clamped == 0  # the file holds clipped values; the loader clipped none

    def test_sr_is_seed_deterministic(self, run_dir, data_dir, tmp_path):
        src = next(iter(sorted((data_dir / "lr" / "test").glob("*.hsc"))))
        outs = []
        for sub in ("a.hsc", "b.hsc"):
            rc = main([
                "sr", "--checkpoint", str(run_dir / "checkpoint.pdec"),
                "--input", str(src), "--n-samples", "2", "--seed", "9",
                "--out", str(tmp_path / sub),
            ])
            assert rc == 0
            outs.append((tmp_path / sub).read_bytes())
        assert outs[0] == outs[1]

    def test_sr_builds_chain_kernels_once_per_extent(self, tmp_path, monkeypatch):
        # a two-stage net, so the first stage's chain feeds the second
        net = build_net(NetConfig(bands=3, scale=2, stages=2, units_per_stage=1, channels=4),
                        np.random.default_rng(0))
        save_checkpoint(net, tmp_path / "ck.pdec")
        rng = np.random.default_rng(5)
        (tmp_path / "in").mkdir()
        for name, hw in (("a", 8), ("b", 12), ("c", 8)):
            cube = random_smooth_cube(3, hw, hw, rng, name=name)
            write_cube(cube, tmp_path / "in" / f"{name}.hsc")
        plans = []

        def counted(*args, **kwargs):
            plans.append(args[1:])
            return chain_plan(*args, **kwargs)

        monkeypatch.setattr(cli, "chain_plan", counted)
        assert main(["sr", "--checkpoint", str(tmp_path / "ck.pdec"), "--input",
                     str(tmp_path / "in"), "--n-samples", "3", "--out", str(tmp_path / "out")]) == 0
        assert plans == [(8, 8), (12, 12)]
        for name in ("a", "b", "c"):  # the shared plan gives mc_mean's own bits
            want = mc_mean(net, read_cube(tmp_path / "in" / f"{name}.hsc"), 3, 0)
            got = read_cube(tmp_path / "out" / f"{name}.hsc")
            assert got.values.tobytes() == want.values.tobytes()

    def test_sr_peak_memory_does_not_grow_with_cube_count(self, run_dir, tmp_path):
        # 32x32 LR cubes: one output cube (3x64x64 float32, 48 KiB) is large
        # against interpreter bookkeeping, and N=8 samples make a stack kept
        # from the previous cube show as 8 cubes
        rng = np.random.default_rng(4)
        dirs = {}
        for names in (["a"], ["a", "b"]):
            d = dirs[len(names)] = tmp_path / f"in{len(names)}"
            d.mkdir()
            for name in names:
                write_cube(random_smooth_cube(3, 32, 32, rng, name=name), d / f"{name}.hsc")

        def peak(n_cubes):
            gc.collect()
            tracemalloc.start()
            try:
                assert main([
                    "sr", "--checkpoint", str(run_dir / "checkpoint.pdec"),
                    "--input", str(dirs[n_cubes]), "--n-samples", "8",
                    "--out", str(tmp_path / f"pred{n_cubes}"),
                ]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm up lazily built state
        one, two = peak(1), peak(2)
        assert two <= one + 4 * 3 * 64 * 64, (one, two)

    def test_sr_save_samples_peak_memory_does_not_grow_with_n(self, run_dir, tmp_path):
        # 32x32 LR: one HR sample (3x64x64 float32, 48 KiB) is large against
        # interpreter bookkeeping, and a stack of the samples grows by six of
        # them from N=2 to N=8
        src = tmp_path / "a.hsc"
        write_cube(random_smooth_cube(3, 32, 32, np.random.default_rng(4), name="a"), src)

        def peak(n):
            gc.collect()
            tracemalloc.start()
            try:
                assert main([
                    "sr", "--checkpoint", str(run_dir / "checkpoint.pdec"), "--input", str(src),
                    "--n-samples", str(n), "--out", str(tmp_path / f"m{n}.hsc"),
                    "--save-samples", str(tmp_path / f"s{n}"),
                ]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # warm up lazily built state
        two, eight = peak(2), peak(8)
        assert eight - two <= 3 * 64 * 64 * 4 + 16 * 1024, (two, eight)

    def test_uncertainty_map(self, run_dir, data_dir, tmp_path):
        src = next(iter(sorted((data_dir / "lr" / "test").glob("*.hsc"))))
        out = tmp_path / "umap.hsc"
        rc = main([
            "uncertainty", "--checkpoint", str(run_dir / "checkpoint.pdec"),
            "--input", str(src), "--n-samples", "4", "--out", str(out),
        ])
        assert rc == 0
        umap = read_cube(out)
        assert umap.values.shape == (3, 16, 16)
        counts = umap.values.astype(np.float64) * 4
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-5)

    def test_uncertainty_writes_with_only_the_map_alive(self, run_dir, tmp_path, monkeypatch):
        # 32x32 LR, N=8: the stored sample bins, the float32 sum and slot and
        # the float64 map would add several output cubes (3x64x64 float32,
        # 48 KiB each) at the write
        src = tmp_path / "a.hsc"
        write_cube(random_smooth_cube(3, 32, 32, np.random.default_rng(4), name="a"), src)
        held = {}

        def spy(fn, key):
            def call(*args):
                held[key] = tracemalloc.get_traced_memory()[0]
                return fn(*args)
            return call

        monkeypatch.setattr(cli, "mc_uncertainty", spy(cli.mc_uncertainty, "infer"))
        monkeypatch.setattr(cli, "write_cube", spy(cli.write_cube, "write"))
        gc.collect()
        tracemalloc.start()
        try:
            assert main([
                "uncertainty", "--checkpoint", str(run_dir / "checkpoint.pdec"),
                "--input", str(src), "--n-samples", "8", "--out", str(tmp_path / "u.hsc"),
            ]) == 0
        finally:
            tracemalloc.stop()
        assert held["write"] - held["infer"] <= 2 * 3 * 64 * 64 * 4, held

    def test_uncertainty_needs_two_samples(self, run_dir, data_dir, tmp_path):
        rc = main([
            "uncertainty", "--checkpoint", str(run_dir / "checkpoint.pdec"),
            "--input", str(data_dir / "lr" / "test"),
            "--n-samples", "1", "--out", str(tmp_path / "u"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("command", ["sr", "uncertainty"])
    def test_negative_seed_is_config_error(self, run_dir, data_dir, tmp_path, command):
        rc = main([
            command, "--checkpoint", str(run_dir / "checkpoint.pdec"),
            "--input", str(data_dir / "lr" / "test"), "--seed", "-1",
            "--out", str(tmp_path / "p"),
        ])
        assert rc == 2
        assert not (tmp_path / "p").exists()

    def test_missing_checkpoint_is_io_error(self, data_dir, tmp_path):
        rc = main([
            "sr", "--checkpoint", str(tmp_path / "nope.pdec"),
            "--input", str(data_dir / "lr" / "test"), "--out", str(tmp_path / "p"),
        ])
        assert rc == 3

    def test_corrupt_checkpoint_is_config_error(self, data_dir, tmp_path):
        bad = tmp_path / "bad.pdec"
        bad.write_bytes(b"JUNKJUNKJUNK")
        rc = main([
            "sr", "--checkpoint", str(bad),
            "--input", str(data_dir / "lr" / "test"), "--out", str(tmp_path / "p"),
        ])
        assert rc == 2

    def test_undecodable_checkpoint_entry_is_config_error(self, run_dir, data_dir, tmp_path):
        blob = (run_dir / "checkpoint.pdec").read_bytes()
        bad = tmp_path / "bad.pdec"
        bad.write_bytes(blob.replace(b"stage1.stem.bias", b"stage1.stem.b\xffas"))
        rc = main([
            "sr", "--checkpoint", str(bad),
            "--input", str(data_dir / "lr" / "test"), "--out", str(tmp_path / "p"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("dims", [(1 << 31, 1 << 31, 4), (1,) * 65],
                             ids=["count_wraps_int64", "rank_65"])
    def test_oversized_checkpoint_entry_is_config_error(self, data_dir, tmp_path, dims):
        # a header and one entry "a" with these dims; the first one's int64
        # element count wraps to 0
        bad = tmp_path / "bad.pdec"
        bad.write_bytes(b"PDEC" + struct.pack(f"<IIIcI{len(dims)}I", 1, 1, 1, b"a", len(dims),
                                              *dims))
        rc = main([
            "sr", "--checkpoint", str(bad),
            "--input", str(data_dir / "lr" / "test"), "--out", str(tmp_path / "p"),
        ])
        assert rc == 2


class TestEvalCommand:
    def test_perfect_prediction_scores(self, data_dir, tmp_path, capsys):
        report = tmp_path / "scores.csv"
        rc = main([
            "eval", "--pred-dir", str(data_dir / "hr" / "test"),
            "--gt-dir", str(data_dir / "hr" / "test"), "--report", str(report),
        ])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "cube,mpsnr,mssim,sam"
        assert len(lines) == 6  # four cubes + MEAN
        for line in lines[1:]:
            name, m, s, a = line.split(",")
            assert (m, s, a) == ("100.000000", "1.000000", "0.000000")
        out = capsys.readouterr().out
        assert "mean mpsnr=100.000000" in out

    def test_bicubic_baseline_sibling_report(self, run_dir, data_dir, tmp_path, capsys):
        pred = tmp_path / "pred"
        main([
            "sr", "--checkpoint", str(run_dir / "checkpoint.pdec"),
            "--input", str(data_dir / "lr" / "test"),
            "--n-samples", "2", "--out", str(pred),
        ])
        report = tmp_path / "scores.csv"
        rc = main([
            "eval", "--pred-dir", str(pred), "--gt-dir", str(data_dir / "hr" / "test"),
            "--report", str(report), "--baseline-bicubic", str(data_dir / "lr" / "test"),
        ])
        assert rc == 0
        base = tmp_path / "scores_bicubic.csv"
        assert report.exists() and base.exists()
        assert base.read_text().splitlines()[0] == "cube,mpsnr,mssim,sam"
        assert "bicubic baseline:" in capsys.readouterr().out

    def test_peak_memory_holds_one_pair_at_a_time(self, tmp_path):
        # 31x64x64 pairs, 1 MiB each: scoring four with the bicubic baseline
        # may peak at most one pair above scoring one
        rng = np.random.default_rng(6)
        pair = 2 * 4 * 31 * 64 * 64
        for n in (1, 4):
            for i in range(n):
                hr = random_smooth_cube(31, 64, 64, rng, name=f"c{i}")
                for sub, cube in (("gt", hr), ("pred", hr), ("lr", make_lr(hr, 2))):
                    (tmp_path / f"{sub}{n}").mkdir(exist_ok=True)
                    write_cube(cube, tmp_path / f"{sub}{n}" / f"c{i}.hsc")

        def peak(n):
            gc.collect()
            tracemalloc.start()
            try:
                assert main([
                    "eval", "--pred-dir", str(tmp_path / f"pred{n}"),
                    "--gt-dir", str(tmp_path / f"gt{n}"),
                    "--report", str(tmp_path / f"r{n}.csv"),
                    "--baseline-bicubic", str(tmp_path / f"lr{n}"),
                ]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm up lazily built state
        one, four = peak(1), peak(4)
        assert four <= one + pair, (one, four)

    def test_missing_ground_truth(self, data_dir, tmp_path):
        rc = main([
            "eval", "--pred-dir", str(data_dir / "hr" / "test"),
            "--gt-dir", str(data_dir / "hr"), "--report", str(tmp_path / "r.csv"),
        ])
        assert rc == 2

    def test_empty_pred_dir(self, data_dir, tmp_path):
        (tmp_path / "empty").mkdir()
        rc = main([
            "eval", "--pred-dir", str(tmp_path / "empty"),
            "--gt-dir", str(data_dir / "hr" / "test"), "--report", str(tmp_path / "r.csv"),
        ])
        assert rc == 2


class TestExitTwoLeavesNoOutput:
    """A command that fails validation writes nothing: output directories
    appear only when their first file is written."""

    @pytest.mark.parametrize("flag, value", [
        ("--scale", "3"), ("--patch", "0"), ("--stride", "0"),
        ("--noise-sigma", "-1"), ("--noise-sigma", "nan"), ("--noise-sigma", "inf"),
    ])
    def test_prepare(self, raw_manifest, tmp_path, flag, value):
        opts = {"--scale": "2", "--patch": "16", "--stride": "16", flag: value}
        rc = main(["prepare", "--manifest", str(raw_manifest),
                   *[w for kv in opts.items() for w in kv], "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_sr_with_zero_samples(self, run_dir, data_dir, tmp_path):
        src = next(iter(sorted((data_dir / "lr" / "test").glob("*.hsc"))))
        rc = main([
            "sr", "--checkpoint", str(run_dir / "checkpoint.pdec"),
            "--input", str(src), "--n-samples", "0",
            "--out", str(tmp_path / "o" / "p.hsc"), "--save-samples", str(tmp_path / "s"),
        ])
        assert rc == 2
        assert not (tmp_path / "o").exists() and not (tmp_path / "s").exists()

    def test_sr_with_negative_seed_and_save_samples(self, run_dir, data_dir, tmp_path):
        rc = main([
            "sr", "--checkpoint", str(run_dir / "checkpoint.pdec"),
            "--input", str(data_dir / "lr" / "test"), "--seed", "-1",
            "--out", str(tmp_path / "p"), "--save-samples", str(tmp_path / "s"),
        ])
        assert rc == 2
        assert not (tmp_path / "p").exists() and not (tmp_path / "s").exists()

    def test_eval_baseline_without_lr_cubes(self, data_dir, tmp_path):
        (tmp_path / "no_lr").mkdir()
        rc = main([
            "eval", "--pred-dir", str(data_dir / "hr" / "test"),
            "--gt-dir", str(data_dir / "hr" / "test"), "--report", str(tmp_path / "r.csv"),
            "--baseline-bicubic", str(tmp_path / "no_lr"),
        ])
        assert rc == 2
        assert not (tmp_path / "r.csv").exists()
        assert not (tmp_path / "r_bicubic.csv").exists()


@pytest.mark.parametrize("command", ["sr", "uncertainty"])
def test_bad_later_cube_keeps_the_cubes_done(run_dir, tmp_path, command):
    """A data error found mid-run exits 2 and keeps what the earlier cubes wrote."""
    rng = np.random.default_rng(4)
    for name, bands in (("a", 3), ("b", 4)):  # the net takes 3 bands
        cube = HSCube(rng.uniform(0.0, 1.0, (bands, 8, 8)).astype(np.float32), name=name)
        write_cube(cube, tmp_path / "in" / f"{name}.hsc")
    ckpt = ["--checkpoint", str(run_dir / "checkpoint.pdec"), "--n-samples", "2"]
    assert main([command, *ckpt, "--input", str(tmp_path / "in"),
                 "--out", str(tmp_path / "out")]) == 2
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["a.hsc"]
    assert main([command, *ckpt, "--input", str(tmp_path / "in" / "a.hsc"),
                 "--out", str(tmp_path / "alone.hsc")]) == 0
    assert (tmp_path / "out" / "a.hsc").read_bytes() == (tmp_path / "alone.hsc").read_bytes()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hssr", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "prepare" in proc.stdout and "uncertainty" in proc.stdout
