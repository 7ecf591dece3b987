"""Optimizer, schedule, checkpoint container, and the training loop."""

import re
import struct

import numpy as np
import pytest

from oracles import adam_single_step

from hssr.errors import DimensionError, FormatError, ParameterError, TrainingError
from hssr.hsdata import DatasetManifest, make_lr, random_smooth_cube, write_cube
from hssr.model import NetConfig, build_net, forward, parameters
from hssr.tensor import Param, Tensor
from hssr.train import (
    TrainConfig,
    adam_step,
    init_adam,
    load_checkpoint,
    load_pairs,
    lr_at,
    save_checkpoint,
    train,
)

GATE_SUFFIXES = ("gate_k", "gate_l")


def _params(*arrays):
    return [Param(f"p{i}", np.asarray(a, dtype=np.float32)) for i, a in enumerate(arrays)]


class TestAdam:
    def test_zero_gradient_leaves_value_unchanged(self):
        params = _params([1.0, -2.0, 3.0])
        state = init_adam(params)
        adam_step(state, params, [np.zeros(3)], lr=0.1)
        np.testing.assert_array_equal(params[0].data, [1.0, -2.0, 3.0])

    def test_none_gradient_decays_moments_only(self):
        params = _params([1.0])
        state = init_adam(params)
        adam_step(state, params, [np.ones(1)], lr=0.1)
        m, v, val = state.m[0].copy(), state.v[0].copy(), params[0].data.copy()
        adam_step(state, params, [None], lr=0.1)
        np.testing.assert_array_equal(params[0].data, val)
        np.testing.assert_allclose(state.m[0], m * 0.9)
        np.testing.assert_allclose(state.v[0], v * 0.999)
        assert state.step == 2

    def test_first_step_closed_form(self):
        params = _params([0.0])
        state = init_adam(params)
        adam_step(state, params, [np.ones(1)], lr=0.1)
        want = adam_single_step(theta=0.0, g=1.0, lr=0.1)
        np.testing.assert_allclose(params[0].data[0], want, rtol=1e-6)
        assert abs(params[0].data[0] + 0.1) < 1e-6

    def test_converges_on_quadratic(self):
        params = _params([0.0])
        state = init_adam(params)
        for _ in range(300):
            g = 2.0 * (params[0].data - 3.0)
            adam_step(state, params, [g], lr=0.1)
        assert abs(float(params[0].data[0]) - 3.0) < 0.05

    def test_bad_inputs_rejected(self):
        params = _params([1.0], [2.0])
        state = init_adam(params)
        with pytest.raises(ParameterError):
            adam_step(state, params, [np.zeros(1)], lr=0.1)
        with pytest.raises(DimensionError):
            adam_step(state, params, [np.zeros(3), np.zeros(1)], lr=0.1)
        with pytest.raises(TrainingError):
            adam_step(state, params, [np.array([np.nan]), np.zeros(1)], lr=0.1)


class TestSchedule:
    def test_halving_points(self):
        cfg = TrainConfig(lr0=5e-4, halve_every=25)
        assert lr_at(0, cfg) == 5e-4
        assert lr_at(24, cfg) == 5e-4
        assert lr_at(25, cfg) == 2.5e-4
        assert lr_at(50, cfg) == 1.25e-4
        assert lr_at(99, cfg) == 5e-4 * 0.125

    def test_non_increasing(self):
        cfg = TrainConfig(halve_every=7)
        lrs = [lr_at(e, cfg) for e in range(200)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_negative_epoch_rejected(self):
        with pytest.raises(ParameterError):
            lr_at(-1, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(lr0=0.0)
        with pytest.raises(ParameterError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ParameterError):
            TrainConfig(batch=0)
        with pytest.raises(ParameterError):
            TrainConfig(warmup_epochs=-1)
        with pytest.raises(ParameterError):
            TrainConfig(halve_every=0)


class TestCheckpoint:
    def _net(self, seed=0):
        cfg = NetConfig(bands=3, scale=2, stages=2, units_per_stage=1, channels=4)
        return build_net(cfg, np.random.default_rng(seed))

    def test_round_trip_bit_exact(self, tmp_path, rng):
        net = self._net()
        path = tmp_path / "ck.pdec"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.cfg == net.cfg
        assert loaded.tau == net.tau
        for a, b in zip(parameters(net), parameters(loaded)):
            assert a.name == b.name
            np.testing.assert_array_equal(a.data, b.data)
        # the round trip must not perturb inference, down to the bit, in
        # every mode including the noise-driven ones
        x = rng.uniform(size=(1, 3, 6, 6)).astype(np.float32)
        for mode, seed in (("warmup", None), ("expect", None), ("train", 7)):
            r1 = None if seed is None else np.random.default_rng(seed)
            r2 = None if seed is None else np.random.default_rng(seed)
            ya, _ = forward(net, x, mode, rng=r1)
            yb, _ = forward(loaded, x, mode, rng=r2)
            np.testing.assert_array_equal(ya.data, yb.data)

    def test_serialization_is_canonical(self, tmp_path):
        net = self._net(seed=5)
        p1, p2 = tmp_path / "a.pdec", tmp_path / "b.pdec"
        save_checkpoint(net, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        net = self._net()
        path = tmp_path / "ck.pdec"
        save_checkpoint(net, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        net = self._net()
        path = tmp_path / "ck.pdec"
        save_checkpoint(net, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        net = self._net()
        path = tmp_path / "ck.pdec"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        for cut in (2, 10, len(blob) // 2, len(blob) - 3):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError, match="truncated"):
                load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        net = self._net()
        path = tmp_path / "ck.pdec"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    def test_missing_parameter(self, tmp_path):
        net = self._net()
        path = tmp_path / "ck.pdec"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        name = b"stage1.stem.bias"
        assert blob.count(name) == 1
        path.write_bytes(blob.replace(name, b"stage1.stem.bIas"))
        with pytest.raises(FormatError, match="missing parameter"):
            load_checkpoint(path)

    def test_unknown_entry_rejected(self, tmp_path):
        net = self._net()
        path = tmp_path / "ck.pdec"
        save_checkpoint(net, path)
        blob = bytearray(path.read_bytes())
        (count,) = struct.unpack("<I", blob[8:12])
        blob[8:12] = struct.pack("<I", count + 1)
        name = b"mystery"
        extra = struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 2)
        extra += np.zeros(2, dtype="<f4").tobytes()
        path.write_bytes(bytes(blob) + extra)
        with pytest.raises(FormatError, match="unknown"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        net = self._net()
        path = tmp_path / "ck.pdec"
        net.stages[0].stem.bias.data = np.zeros(4, dtype=np.float32)
        save_checkpoint(net, path)
        blob = path.read_bytes()
        # shrink the stem bias from rank-1 [4] to rank-1 [3]
        i = blob.index(b"stage1.stem.bias") + len(b"stage1.stem.bias")
        blob = blob[: i + 4] + struct.pack("<I", 3) + blob[i + 8 : len(blob) - 4]
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mutate,match", [
        (lambda b: b.replace(b"stage1.stem.bias", b"stage1.stem.b\xffas"), "utf-8"),
        (lambda b: _with_first_value(b, b"config.bands", 3.7), "not an integer"),
        (lambda b: _with_first_value(b, b"stage1.stem.bias", float("nan")), "non-finite"),
    ], ids=["name_not_utf8", "config_not_integral", "param_not_finite"])
    def test_malformed_entry_rejected(self, tmp_path, mutate, match):
        path = tmp_path / "ck.pdec"
        save_checkpoint(self._net(), path)
        path.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)


def _with_first_value(blob: bytes, name: bytes, value: float) -> bytes:
    """PDEC bytes with the first payload value of entry `name` replaced."""
    i = blob.index(name) + len(name)
    (ndim,) = struct.unpack("<I", blob[i:i + 4])
    at = i + 4 + 4 * ndim
    return blob[:at] + struct.pack("<f", value) + blob[at + 4:]


def make_dataset(root, n=3, bands=3, hw=16, scale=2, seed=0):
    rng = np.random.default_rng(seed)
    (root / "hr" / "train").mkdir(parents=True, exist_ok=True)
    (root / "lr" / "train").mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(n):
        cube = random_smooth_cube(bands, hw, hw, rng, name=f"c{i}")
        write_cube(cube, root / "hr" / "train" / f"c{i}.hsc")
        write_cube(make_lr(cube, scale), root / "lr" / "train" / f"c{i}.hsc")
        entries.append((f"hr/train/c{i}.hsc", "train"))
    return DatasetManifest(entries, scale=scale, patch=hw, stride=hw, seed=seed)


NET3 = NetConfig(bands=3, scale=2, stages=2, units_per_stage=1, channels=4)


class TestTrainLoop:
    def test_smoke_run_learns(self, tmp_path):
        man = make_dataset(tmp_path)
        cfg = TrainConfig(warmup_epochs=3, main_epochs=5, batch=2, seed=1)
        net, history = train(man, NET3, cfg, tmp_path / "run", base_dir=tmp_path)
        assert len(history) == 8
        assert [h["phase"] for h in history] == ["warmup"] * 3 + ["train"] * 5
        assert all(h["lr"] == cfg.lr0 for h in history)  # halve_every=25 > 5
        assert history[-1]["loss"] < history[0]["loss"]
        assert (tmp_path / "run" / "checkpoint.pdec").exists()

    def test_log_format_and_numbering(self, tmp_path):
        man = make_dataset(tmp_path)
        cfg = TrainConfig(warmup_epochs=2, main_epochs=3, batch=4, seed=0)
        train(man, NET3, cfg, tmp_path / "run", base_dir=tmp_path)
        lines = (tmp_path / "run" / "train.log").read_text().splitlines()
        pat = re.compile(r"^epoch=(\d+) lr=[0-9.e+-]+ loss=[0-9.e+-]+ secs=\d+\.\d{3}$")
        assert len(lines) == 5
        for i, line in enumerate(lines):
            m = pat.match(line)
            assert m, f"malformed log line: {line!r}"
            assert int(m.group(1)) == i

    def test_checkpoint_matches_returned_network(self, tmp_path, rng):
        man = make_dataset(tmp_path)
        cfg = TrainConfig(warmup_epochs=1, main_epochs=2, batch=4, seed=3)
        net, _ = train(man, NET3, cfg, tmp_path / "run", base_dir=tmp_path)
        loaded = load_checkpoint(tmp_path / "run" / "checkpoint.pdec")
        x = rng.uniform(size=(1, 3, 8, 8)).astype(np.float32)
        ya, _ = forward(net, x, "warmup")
        yb, _ = forward(loaded, x, "warmup")
        np.testing.assert_array_equal(ya.data, yb.data)

    def test_zero_epochs_checkpoint_is_initialization(self, tmp_path):
        man = make_dataset(tmp_path)
        cfg = TrainConfig(warmup_epochs=0, main_epochs=0, seed=9)
        train(man, NET3, cfg, tmp_path / "run", base_dir=tmp_path)
        loaded = load_checkpoint(tmp_path / "run" / "checkpoint.pdec")
        init_ss = np.random.SeedSequence(9).spawn(3)[0]
        fresh = build_net(NET3, np.random.default_rng(init_ss), tau=cfg.tau)
        for a, b in zip(parameters(fresh), parameters(loaded)):
            np.testing.assert_array_equal(a.data, b.data, err_msg=a.name)

    def test_same_seed_runs_are_identical(self, tmp_path):
        man = make_dataset(tmp_path)
        cfg = TrainConfig(warmup_epochs=2, main_epochs=3, batch=2, seed=11)
        train(man, NET3, cfg, tmp_path / "a", base_dir=tmp_path)
        train(man, NET3, cfg, tmp_path / "b", base_dir=tmp_path)
        ck_a = (tmp_path / "a" / "checkpoint.pdec").read_bytes()
        ck_b = (tmp_path / "b" / "checkpoint.pdec").read_bytes()
        assert ck_a == ck_b

        def stripped(p):
            return [
                " ".join(f for f in line.split() if not f.startswith("secs="))
                for line in (p / "train.log").read_text().splitlines()
            ]

        assert stripped(tmp_path / "a") == stripped(tmp_path / "b")

    def test_different_seed_diverges(self, tmp_path):
        man = make_dataset(tmp_path)
        train(man, NET3, TrainConfig(warmup_epochs=1, main_epochs=1, seed=1),
              tmp_path / "a", base_dir=tmp_path)
        train(man, NET3, TrainConfig(warmup_epochs=1, main_epochs=1, seed=2),
              tmp_path / "b", base_dir=tmp_path)
        assert (tmp_path / "a" / "checkpoint.pdec").read_bytes() != (
            tmp_path / "b" / "checkpoint.pdec"
        ).read_bytes()

    def test_warmup_never_moves_gate_logits(self, tmp_path):
        man = make_dataset(tmp_path)
        cfg = TrainConfig(warmup_epochs=3, main_epochs=0, batch=2, seed=5)
        net, _ = train(man, NET3, cfg, tmp_path / "run", base_dir=tmp_path)
        logit0 = float(np.log(0.9 / 0.1))
        moved = 0
        for p in parameters(net):
            if p.name.endswith(GATE_SUFFIXES):
                np.testing.assert_allclose(p.data, logit0, atol=1e-6, err_msg=p.name)
            else:
                moved += not np.allclose(p.data, 0.0)
        assert moved > 0

    def test_main_phase_moves_gate_logits(self, tmp_path):
        man = make_dataset(tmp_path)
        cfg = TrainConfig(warmup_epochs=0, main_epochs=3, batch=2, seed=5)
        net, _ = train(man, NET3, cfg, tmp_path / "run", base_dir=tmp_path)
        logit0 = float(np.log(0.9 / 0.1))
        gates = [p for p in parameters(net) if p.name.endswith(GATE_SUFFIXES)]
        assert any(not np.allclose(p.data, logit0, atol=1e-9) for p in gates)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_raises_training_error(self, tmp_path):
        man = make_dataset(tmp_path)
        cfg = TrainConfig(lr0=1e9, warmup_epochs=0, main_epochs=50, batch=4, seed=0)
        with pytest.raises(TrainingError):
            train(man, NET3, cfg, tmp_path / "run", base_dir=tmp_path)

    def test_scale_mismatch_rejected(self, tmp_path):
        man = make_dataset(tmp_path)
        cfg = TrainConfig(warmup_epochs=1, main_epochs=0)
        bad = NetConfig(bands=3, scale=4, stages=1, units_per_stage=1, channels=4)
        with pytest.raises(ParameterError):
            train(man, bad, cfg, tmp_path / "run", base_dir=tmp_path)

    def test_empty_manifest_rejected(self, tmp_path):
        man = DatasetManifest([], scale=2)
        with pytest.raises(ParameterError):
            train(man, NET3, TrainConfig(), tmp_path / "run", base_dir=tmp_path)

    def test_periodic_checkpoints(self, tmp_path):
        man = make_dataset(tmp_path)
        cfg = TrainConfig(warmup_epochs=1, main_epochs=3, checkpoint_every=2, seed=0)
        train(man, NET3, cfg, tmp_path / "run", base_dir=tmp_path)
        names = sorted(p.name for p in (tmp_path / "run").glob("*.pdec"))
        assert names == ["checkpoint.pdec", "checkpoint_ep0001.pdec", "checkpoint_ep0003.pdec"]


class TestLoadPairs:
    def test_pairs_align(self, tmp_path):
        man = make_dataset(tmp_path, n=2, hw=16, scale=2)
        pairs = load_pairs(man, tmp_path, "train")
        assert len(pairs) == 2
        for lr, hr in pairs:
            assert lr.shape == (3, 8, 8) and hr.shape == (3, 16, 16)

    def test_scale_pairing_enforced(self, tmp_path):
        man = make_dataset(tmp_path, n=1, hw=16, scale=2)
        bad = DatasetManifest(man.entries, scale=4, patch=16, stride=16)
        with pytest.raises(DimensionError):
            load_pairs(bad, tmp_path, "train")

    def test_uniform_shape_enforced(self, tmp_path):
        man = make_dataset(tmp_path, n=1, hw=16, scale=2)
        rng = np.random.default_rng(0)
        big = random_smooth_cube(3, 32, 32, rng, name="big")
        write_cube(big, tmp_path / "hr" / "train" / "big.hsc")
        write_cube(make_lr(big, 2), tmp_path / "lr" / "train" / "big.hsc")
        man.entries.append(("hr/train/big.hsc", "train"))
        with pytest.raises(DimensionError, match="uniform"):
            load_pairs(man, tmp_path, "train")
