"""Optimizer, schedule, checkpoint container, and the training loop."""

import gc
import importlib
import re
import struct
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from oracles import adam_single_step

from hssr.cli import main
from hssr.errors import DimensionError, FormatError, ParameterError, TrainingError
from hssr.hsdata import (
    DatasetManifest,
    make_lr,
    random_smooth_cube,
    write_cube,
    write_manifest,
)
from hssr.model import NetConfig, build_net, forward, parameters
from hssr.tensor import Param, Tensor
from hssr.train import (
    TrainConfig,
    adam_step,
    check_pairs,
    init_adam,
    load_checkpoint,
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
            TrainConfig(batch=0)
        with pytest.raises(ParameterError):
            TrainConfig(warmup_epochs=-1)
        with pytest.raises(ParameterError):
            TrainConfig(halve_every=0)
        with pytest.raises(ParameterError):
            TrainConfig(seed=-1)
        nan, inf = float("nan"), float("inf")
        bad = [("lr0", nan), ("lr0", inf), ("lr0", -inf), ("lam", nan), ("lam", inf),
               ("lam", -1.0)]
        for key, value in bad:
            with pytest.raises(ParameterError, match=key[:3]):
                TrainConfig(**{key: value})
        TrainConfig(lam=0.0)  # a zero weight switches the consistency term off
        # each field takes its annotated type; bools are not numbers here
        wrong = [("batch", 2.5), ("seed", 1.5), ("warmup_epochs", True), ("augment", "no"),
                 ("augment", 1), ("lr0", "0.1"), ("lam", True), ("checkpoint_every", -3)]
        for key, value in wrong:
            with pytest.raises(ParameterError, match=key):
                TrainConfig(**{key: value})
        for kwargs in ({"bands": 2.5}, {"bands": 3, "channels": 8.5}, {"bands": 3, "stages": True},
                       {"bands": 3, "scale": 4.0}, {"bands": 3, "tau": "0.5"}):
            with pytest.raises(ParameterError, match=list(kwargs)[-1]):
                NetConfig(**kwargs)
        TrainConfig(lr0=1, batch=np.int64(2))  # an int is a real number; numpy ints are ints
        # tau lives in NetConfig, which rounds it to float32 as checkpoints do
        for tau in (nan, inf, 0.0, -1.0, 1e-50, 1e39):
            with pytest.raises(ParameterError, match="tau"):
                NetConfig(3, tau=tau)
        assert NetConfig(3, tau=0.1).tau == float(np.float32(0.1))

    def test_config_is_frozen(self):
        # frozen, so no field can step around the range checks after construction
        cfg = TrainConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.lr0 = -1.0
        assert cfg.lr0 == 5e-4


class TestCheckpoint:
    def _net(self, seed=0, **cfg_kw):
        cfg = NetConfig(bands=3, scale=2, stages=2, units_per_stage=1, channels=4, **cfg_kw)
        return build_net(cfg, np.random.default_rng(seed))

    def test_round_trip_bit_exact(self, tmp_path, rng):
        net = self._net()
        path = tmp_path / "ck.pdec"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.cfg == net.cfg
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

    def test_round_trip_keeps_the_gate_temperature(self, tmp_path, rng):
        # the relaxed train-mode masks depend on tau, which only NetConfig
        # carries into the file and which no built net can change
        net = self._net(seed=2, tau=0.3)
        for f in fields(NetConfig):
            with pytest.raises(FrozenInstanceError):
                setattr(net.cfg, f.name, getattr(net.cfg, f.name))
        with pytest.raises(FrozenInstanceError):
            net.stages[0].units[0].gate_l.tau = 0.25
        save_checkpoint(net, tmp_path / "ck.pdec")
        loaded = load_checkpoint(tmp_path / "ck.pdec")
        assert loaded.cfg == net.cfg
        taus = {blk.gate_k.tau for n in (net, loaded) for st in n.stages for blk in st.aggs}
        taus |= {u.gate_l.tau for n in (net, loaded) for st in n.stages for u in st.units}
        assert taus == {net.cfg.tau}
        x = rng.uniform(size=(2, 3, 6, 6)).astype(np.float32)
        ya, xa = forward(net, x, "train", rng=np.random.default_rng(4))
        yb, xb = forward(loaded, x, "train", rng=np.random.default_rng(4))
        np.testing.assert_array_equal(ya.data, yb.data)
        np.testing.assert_array_equal(xa.data, xb.data)

    def test_bytes_follow_the_container_layout(self, tmp_path):
        # rank and dims come from each entry itself, so a config scalar is rank 0
        net = self._net(seed=6)
        save_checkpoint(net, tmp_path / "ck.pdec")
        entries = [(f"config.{f.name}", np.float32(getattr(net.cfg, f.name)))
                   for f in fields(NetConfig)]
        entries += [(p.name, p.data) for p in parameters(net)]
        want = b"PDEC" + struct.pack("<II", 1, len(entries))
        for name, arr in entries:
            arr = np.asarray(arr)
            want += struct.pack(f"<I{len(name)}sI{arr.ndim}I", len(name), name.encode(),
                                arr.ndim, *arr.shape) + arr.astype("<f4").tobytes()
        assert (tmp_path / "ck.pdec").read_bytes() == want

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
        # one entry whose dims (2^31, 2^31, 4) wrap an int64 element count to 0
        (lambda b: _one_entry_file((1 << 31, 1 << 31, 4)), "truncated"),
        (lambda b: _one_entry_file((1,) * 65), "rank 65"),
    ], ids=["name_not_utf8", "config_not_integral", "param_not_finite", "count_wraps_int64",
            "rank_65"])
    def test_malformed_entry_rejected(self, tmp_path, mutate, match):
        path = tmp_path / "ck.pdec"
        save_checkpoint(self._net(), path)
        path.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)


    @pytest.mark.parametrize("channels,stages", [(2048, 1), (10**6, 1), (32, 10**6)])
    def test_oversized_config_rejected_before_allocating(self, tmp_path, channels, stages):
        # a file of config entries alone: the parameters its config needs
        # (about 28 MB of float32 at 2048 channels) are missing, so loading
        # must fail on the first of them without building the network
        conf = {"bands": 31, "scale": 4, "stages": stages, "units_per_stage": 1,
                "channels": channels, "tau": 0.5}
        blob = [b"PDEC", struct.pack("<II", 1, len(conf))]
        for key, value in conf.items():
            name = f"config.{key}".encode()
            blob += [struct.pack("<I", len(name)), name, struct.pack("<If", 0, value)]
        path = tmp_path / "ck.pdec"
        path.write_bytes(b"".join(blob))
        if channels == 2048:
            assert path.stat().st_size == 168
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="missing parameter 'stage1.stem.kernel'"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_config_entries_follow_net_config_fields(self, tmp_path):
        net = self._net(tau=0.25)
        path = tmp_path / "ck.pdec"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        off, conf = 12, {}
        for _ in range(6):
            (nlen,) = struct.unpack("<I", blob[off:off + 4])
            name = blob[off + 4:off + 4 + nlen].decode()
            off += 4 + nlen
            assert struct.unpack("<I", blob[off:off + 4]) == (0,)
            (conf[name],) = struct.unpack("<f", blob[off + 4:off + 8])
            off += 8
        assert conf == {"config.bands": 3, "config.scale": 2, "config.stages": 2,
                        "config.units_per_stage": 1, "config.channels": 4, "config.tau": 0.25}
        assert load_checkpoint(path).cfg == net.cfg


def _with_first_value(blob: bytes, name: bytes, value: float) -> bytes:
    """PDEC bytes with the first payload value of entry `name` replaced."""
    i = blob.index(name) + len(name)
    (ndim,) = struct.unpack("<I", blob[i:i + 4])
    at = i + 4 + 4 * ndim
    return blob[:at] + struct.pack("<f", value) + blob[at + 4:]


def _one_entry_file(dims) -> bytes:
    """A PDEC file of one entry named "a" with these dims and no payload."""
    return b"PDEC" + struct.pack(f"<IIIcI{len(dims)}I", 1, 1, 1, b"a", len(dims), *dims)


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
        fresh = build_net(NET3, np.random.default_rng(init_ss))
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

    def test_step_tape_is_freed_before_the_next_forward(self, tmp_path, monkeypatch):
        # only one step's tape may be alive at a time: the previous graph must
        # be gone, without the cycle collector, when the next forward starts
        man = make_dataset(tmp_path)
        train_mod = importlib.import_module("hssr.train")  # `train` here is the function
        real_forward = train_mod.forward
        refs = []

        def spy(*args, graph=None, **kwargs):
            if refs:
                assert refs[-1]() is None, f"step {len(refs) - 1}'s tape is still alive"
            refs.append(weakref.ref(graph))
            return real_forward(*args, graph=graph, **kwargs)

        monkeypatch.setattr(train_mod, "forward", spy)
        cfg = TrainConfig(warmup_epochs=1, main_epochs=1, batch=2, seed=0)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            train(man, NET3, cfg, tmp_path / "run", base_dir=tmp_path)
        finally:
            if was_enabled:
                gc.enable()
        assert len(refs) == 4  # 3 pairs, batch 2: two steps per epoch


class TestLoadPairs:
    def test_pairs_align(self, tmp_path, monkeypatch):
        man = make_dataset(tmp_path, n=2, hw=16, scale=2)
        train_mod = importlib.import_module("hssr.train")
        real_read = train_mod.read_cube
        shapes = []

        def spy(path):
            cube = real_read(path)
            shapes.append(cube.values.shape)
            return cube

        monkeypatch.setattr(train_mod, "read_cube", spy)
        assert check_pairs(man, tmp_path) == (3, 16, 16)
        assert shapes == [(3, 16, 16), (3, 8, 8)] * 2  # each cube read once

    def test_scale_pairing_enforced(self, tmp_path):
        man = make_dataset(tmp_path, n=1, hw=16, scale=2)
        bad = DatasetManifest(man.entries, scale=4, patch=16, stride=16)
        with pytest.raises(DimensionError):
            check_pairs(bad, tmp_path)

    def test_uniform_shape_enforced(self, tmp_path):
        man = make_dataset(tmp_path, n=1, hw=16, scale=2)
        rng = np.random.default_rng(0)
        big = random_smooth_cube(3, 32, 32, rng, name="big")
        write_cube(big, tmp_path / "hr" / "train" / "big.hsc")
        write_cube(make_lr(big, 2), tmp_path / "lr" / "train" / "big.hsc")
        man.entries.append(("hr/train/big.hsc", "train"))
        with pytest.raises(DimensionError, match="uniform"):
            check_pairs(man, tmp_path)


class TestTrainingSetOnDisk:
    """`train()` checks every pair up front and reads each batch at its step."""

    @staticmethod
    def _peak(root, n, epochs):
        man = make_dataset(root, n=n, hw=16, scale=2)
        cfg = TrainConfig(warmup_epochs=epochs, main_epochs=0, batch=4, seed=0)
        net_cfg = NetConfig(bands=3, scale=2, stages=1, units_per_stage=1, channels=4)
        gc.collect()
        tracemalloc.start()
        try:
            train(man, net_cfg, cfg, root / "run", base_dir=root)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_the_training_set(self, tmp_path):
        # both runs take 16 steps: traced memory also rises with the step
        # count while CPython's free lists fill, whatever the set's size.
        # Holding the 56 extra pairs would add 56 * 3.75 kB; only their
        # shuffle order and augmentation codes may grow
        hr_patch = 3 * 16 * 16 * 4
        small = self._peak(tmp_path / "few", 8, epochs=8)
        large = self._peak(tmp_path / "many", 64, epochs=1)
        assert large - small < hr_patch, (small, large)

    def test_nan_patch_listed_last_exits_2_with_no_output(self, tmp_path, capsys):
        man = make_dataset(tmp_path, n=4)
        last = tmp_path / man.paths("train")[-1]
        blob = bytearray(last.read_bytes())
        blob[-4:] = struct.pack("<f", float("nan"))
        last.write_bytes(bytes(blob))
        write_manifest(man, tmp_path / "manifest.txt")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("manifest=manifest.txt\nstages=1\nunits_per_stage=1\nchannels=4\n"
                       "warmup_epochs=1\nmain_epochs=0\n")
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "NaN" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_file_reshaped_after_the_check_raises_format_error(self, tmp_path):
        man = make_dataset(tmp_path, n=2)
        target = tmp_path / man.paths("train")[0]

        def reshape_after_first_epoch(line):
            if line.startswith("epoch=0 "):
                cube = random_smooth_cube(3, 32, 32, np.random.default_rng(1), name="c0")
                write_cube(cube, target)

        cfg = TrainConfig(warmup_epochs=1, main_epochs=1, batch=2, seed=0)
        with pytest.raises(FormatError, match=re.escape(str(target))):
            train(man, NET3, cfg, tmp_path / "run", base_dir=tmp_path,
                  log_cb=reshape_after_first_epoch)

    def test_config_mistakes_are_reported_before_any_payload_is_read(self, tmp_path,
                                                                     monkeypatch):
        man = make_dataset(tmp_path, n=2)
        train_mod = importlib.import_module("hssr.train")

        def no_payload(path):
            raise AssertionError(f"train() decoded {path}")

        monkeypatch.setattr(train_mod, "read_cube", no_payload)
        wrong_scale = NetConfig(bands=3, scale=4, stages=1, units_per_stage=1, channels=4)
        with pytest.raises(ParameterError, match="scale"):
            train(man, wrong_scale, TrainConfig(), tmp_path / "a", base_dir=tmp_path)
        wide = random_smooth_cube(3, 16, 32, np.random.default_rng(2), name="wide")
        write_cube(wide, tmp_path / "hr" / "train" / "wide.hsc")
        first_wide = DatasetManifest([("hr/train/wide.hsc", "train"), *man.entries], scale=2)
        with pytest.raises(DimensionError, match="augment=false"):
            train(first_wide, NET3, TrainConfig(batch=2), tmp_path / "b", base_dir=tmp_path)
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()
