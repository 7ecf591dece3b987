"""Network wiring: units, aggregation, stages, degradation, full forward, loss."""

import gc
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import affine_net, float64_net, net_loss_and_grad
from oracles import affine_chain_impulses, conv2d_loop
from reference_net import extract_params, reference_forward

from hssr import model, tensor
from hssr.errors import DimensionError, ParameterError
from hssr.evaluate import mc_infer
from hssr.model import (
    NetConfig,
    aggregate,
    build_net,
    chain_kernels,
    degrade,
    finish_stage,
    forward,
    loss,
    mean_estimate,
    parameters,
    stage_features,
    stage_upsample,
    unit_forward,
)
from hssr.tensor import Graph, Tensor, backward, bicubic_resize_array, conv_block_rows
from hssr.train import adam_step, init_adam


def small_net(bands=3, scale=2, stages=2, units=2, channels=8, seed=0, make=build_net):
    cfg = NetConfig(bands, scale, stages, units, channels)
    return make(cfg, np.random.default_rng(seed))


def _zero_convs(net):
    for p in parameters(net):
        if not p.name.endswith(("gate_k", "gate_l")):
            p.data = np.zeros_like(p.data)


class TestConfigAndBuild:
    def test_config_validation(self):
        with pytest.raises(ParameterError):
            NetConfig(0)
        with pytest.raises(ParameterError):
            NetConfig(3, scale=3)
        with pytest.raises(ParameterError):
            NetConfig(3, stages=0)
        with pytest.raises(ParameterError):
            NetConfig(3, units_per_stage=0)
        with pytest.raises(ParameterError):
            NetConfig(3, channels=2)

    def test_degrade_kernel_per_scale(self):
        assert NetConfig(3, scale=2).degrade_kernel == 3
        assert NetConfig(3, scale=4).degrade_kernel == 5
        assert NetConfig(3, scale=8).degrade_kernel == 9

    def test_parameter_count(self):
        # per stage: stem(2) + J*(gate_k + compress(2) + spe(2) + spa(2) + gate_l)
        #          + head(2) + tail(2); plus the shared degradation conv(2)
        net = small_net(stages=2, units=2)
        assert len(parameters(net)) == (2 + 2 * 8 + 4) * 2 + 2 == 46
        net = small_net(stages=4, units=3)
        assert len(parameters(net)) == (2 + 3 * 8 + 4) * 4 + 2 == 122

    def test_parameter_names_unique_and_shaped(self):
        net = small_net(bands=3, scale=2, channels=8)
        by_name = {p.name: p for p in parameters(net)}
        assert len(by_name) == len(parameters(net))
        assert by_name["stage1.stem.kernel"].data.shape == (8, 3, 1, 1)
        assert by_name["stage1.agg2.compress.kernel"].data.shape == (8, 16, 1, 1)
        assert by_name["stage1.agg2.gate_k"].data.shape == (16,)
        assert by_name["stage1.unit1.spa.kernel"].data.shape == (8, 1, 3, 3)
        assert by_name["stage1.unit1.gate_l"].data.shape == (16,)
        assert by_name["stage2.head.kernel"].data.shape == (3 * 4, 8, 3, 3)
        assert by_name["stage2.tail.kernel"].data.shape == (3, 3, 3, 3)
        assert by_name["degrade.kernel"].data.shape == (3, 3, 3, 3)

    def test_degradation_box_init(self):
        net = small_net(bands=4, scale=4)
        k = net.degrade_layer.kernel.data
        assert k.shape == (4, 4, 5, 5)
        for i in range(4):
            np.testing.assert_allclose(k[i, i], 1.0 / 25.0)
            for j in range(4):
                if j != i:
                    np.testing.assert_array_equal(k[i, j], 0.0)
        assert net.degrade_layer.stride == 4
        assert net.degrade_layer.padding == 2
        np.testing.assert_array_equal(net.degrade_layer.bias.data, 0.0)

    def test_gate_logits_init_at_keep_prob(self):
        net = small_net()
        logit = float(np.log(0.9 / 0.1))
        for p in parameters(net):
            if p.name.endswith(("gate_k", "gate_l")):
                np.testing.assert_allclose(p.data, logit, atol=1e-6)

    def test_build_is_seed_deterministic(self):
        a = {p.name: p.data for p in parameters(small_net(seed=7))}
        b = {p.name: p.data for p in parameters(small_net(seed=7))}
        c = {p.name: p.data for p in parameters(small_net(seed=8))}
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
        assert any(not np.array_equal(a[n], c[n]) for n in a)

    def test_all_params_respect_dtype(self):
        # build_net makes float32 nets; the float64 ones exist for tests only
        assert all(p.data.dtype == np.float32 for p in parameters(small_net()))
        net = small_net(make=float64_net)
        assert all(p.data.dtype == np.float64 for p in parameters(net))


class TestEmbedUnit:
    def test_zero_weights_identity_in_warmup(self, rng):
        net = small_net()
        unit = net.stages[0].units[0]
        for layer in (unit.spe, unit.spa):
            layer.kernel.data = np.zeros_like(layer.kernel.data)
            layer.bias.data = np.zeros_like(layer.bias.data)
        x = rng.uniform(-1, 1, (2, 8, 5, 5)).astype(np.float32)
        out = unit_forward(unit, Tensor(x), "warmup")
        np.testing.assert_array_equal(out.data, x)

    def test_closed_gates_identity_in_sample_mode(self, rng):
        net = small_net()
        unit = net.stages[0].units[0]
        unit.gate_l.logits.data = np.full_like(unit.gate_l.logits.data, -30.0)
        x = rng.uniform(-1, 1, (1, 8, 4, 4)).astype(np.float32)
        out = unit_forward(unit, Tensor(x), "sample", rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x)

    def test_warmup_matches_conv_oracle_composition(self, rng):
        net = small_net()
        unit = net.stages[0].units[1]
        x = rng.uniform(-1, 1, (2, 8, 6, 6)).astype(np.float32)
        out = unit_forward(unit, Tensor(x), "warmup").data

        o = x + conv2d_loop(x, unit.spe.kernel.data, unit.spe.bias.data)
        want = o + conv2d_loop(o, unit.spa.kernel.data, unit.spa.bias.data,
                               padding=1, groups=8)
        np.testing.assert_allclose(out, want, atol=1e-5)

    def test_channel_mismatch_rejected(self, rng):
        net = small_net()
        x = Tensor(rng.uniform(size=(1, 5, 4, 4)).astype(np.float32))
        with pytest.raises(DimensionError):
            unit_forward(net.stages[0].units[0], x, "warmup")


class TestAggregate:
    def test_identity_compress_is_relu(self, rng):
        net = small_net()
        blk = net.stages[0].aggs[0]
        eye = np.zeros_like(blk.compress.kernel.data)
        for c in range(8):
            eye[c, c, 0, 0] = 1.0
        blk.compress.kernel.data = eye
        blk.compress.bias.data = np.zeros_like(blk.compress.bias.data)
        f0 = rng.uniform(-1, 1, (2, 8, 4, 4)).astype(np.float32)
        out = aggregate(net.stages[0], 1, [Tensor(f0)], "warmup")
        np.testing.assert_array_equal(out.data, np.maximum(f0, 0.0))

    def test_closed_gates_leave_only_bias(self, rng):
        net = small_net()
        blk = net.stages[0].aggs[1]
        blk.gate_k.logits.data = np.full_like(blk.gate_k.logits.data, -30.0)
        blk.compress.bias.data = rng.uniform(-1, 1, 8).astype(np.float32)
        feats = [Tensor(rng.uniform(size=(2, 8, 4, 4)).astype(np.float32)) for _ in range(2)]
        out = aggregate(net.stages[0], 2, feats, "sample", rng=np.random.default_rng(1)).data
        want = np.maximum(blk.compress.bias.data, 0.0)
        for ch in range(8):
            np.testing.assert_array_equal(out[:, ch], want[ch])

    def test_three_way_warmup_matches_oracle(self, rng):
        net = small_net(units=3)
        stage = net.stages[0]
        feats = [rng.uniform(-1, 1, (2, 8, 4, 4)).astype(np.float32) for _ in range(3)]
        out = aggregate(stage, 3, [Tensor(f) for f in feats], "warmup").data
        blk = stage.aggs[2]
        want = np.maximum(
            conv2d_loop(np.concatenate(feats, axis=1),
                        blk.compress.kernel.data, blk.compress.bias.data),
            0.0,
        )
        np.testing.assert_allclose(out, want, atol=1e-5)

    def test_argument_validation(self, rng):
        net = small_net()
        f = Tensor(rng.uniform(size=(1, 8, 4, 4)).astype(np.float32))
        with pytest.raises(ParameterError):
            aggregate(net.stages[0], 3, [f, f, f], "warmup")
        with pytest.raises(DimensionError):
            aggregate(net.stages[0], 2, [f], "warmup")


class TestStageAndDegrade:
    @pytest.mark.parametrize("scale", [2, 4])
    def test_stage_output_extents(self, rng, scale):
        net = small_net(bands=3, scale=scale, units=1, channels=4)
        x = Tensor(rng.uniform(size=(2, 3, 5, 7)).astype(np.float32))
        f = stage_features(net.stages[0], x, "warmup")
        assert f.shape == (2, 4, 5, 7)
        out = stage_upsample(net.stages[0], f, scale)
        assert out.shape == (2, 3, 5 * scale, 7 * scale)

    @pytest.mark.parametrize("scale,hw", [(2, 8), (4, 16), (8, 16)])
    def test_degrade_output_extents(self, rng, scale, hw):
        net = small_net(bands=3, scale=scale)
        y = Tensor(rng.uniform(size=(1, 3, hw, hw)).astype(np.float32))
        assert degrade(net, y).shape == (1, 3, hw // scale, hw // scale)

    def test_degrade_box_preserves_constant_interior(self):
        net = small_net(bands=2, scale=2)
        y = Tensor(np.full((1, 2, 8, 8), 0.7, dtype=np.float32))
        out = degrade(net, y).data
        # interior windows see nine 0.7 samples; the corner window loses
        # a padded row and column and keeps only four of nine
        np.testing.assert_allclose(out[:, :, 1:, 1:], 0.7, atol=1e-6)
        np.testing.assert_allclose(out[0, 0, 0, 0], 0.7 * 4 / 9, atol=1e-6)

    def test_degrade_requires_divisible_extents(self, rng):
        net = small_net(scale=2)
        with pytest.raises(DimensionError):
            degrade(net, Tensor(rng.uniform(size=(1, 3, 7, 8)).astype(np.float32)))


class TestChainKernels:
    @pytest.mark.parametrize("scale", [2, 4, 8])
    @pytest.mark.parametrize("hw", [(1, 1), (1, 5), (2, 2), (3, 3), (5, 7)])
    def test_class_kernels_match_impulse_oracle(self, scale, hw):
        net = affine_net(scale)
        st = net.stages[0]
        h, w = hw
        resp, const = affine_chain_impulses(
            st.head.kernel.data, st.head.bias.data, st.tail.kernel.data, st.tail.bias.data,
            net.degrade_layer.kernel.data, scale, h, w)
        r, classes = chain_kernels(net, st, h, w)
        covered = np.zeros((h, w), dtype=int)
        for ys, xs, (oy, ox), kernel, bias in classes:
            ky, kx = kernel.shape[2:]
            for i in range(h)[ys]:
                for j in range(w)[xs]:
                    covered[i, j] += 1
                    # kernel tap (v, u) reads f at (i + oy + v, j + ox + u)
                    placed = np.zeros(kernel.shape[:2] + (h + 2 * r, w + 2 * r))
                    placed[:, :, r + i + oy:r + i + oy + ky, r + j + ox:r + j + ox + kx] = kernel
                    assert np.abs(placed[:, :, r:r + h, r:r + w] - resp[:, i, j]).max() < 1e-6
                    assert np.abs(bias - const[:, i, j]).max() < 1e-6
        np.testing.assert_array_equal(covered, 1)

    @pytest.mark.parametrize("scale,edges", [(2, [0, 1, 31, 32]), (4, [0, 1, 32]), (8, [0, 1, 32])])
    def test_only_border_positions_get_their_own_class(self, scale, edges):
        # at x2 the 3-tap degrade and the tail reach past the last HR cell
        # from LR position 31; at x4 and x8 they stop short of it
        net = small_net(scale=scale)
        _, classes = chain_kernels(net, net.stages[0], 32, 32)
        rows = sorted({(ys.start, ys.stop) for ys, *_ in classes})
        cols = sorted({(xs.start, xs.stop) for _, xs, *_ in classes})
        assert rows == cols == list(zip(edges[:-1], edges[1:]))

    @pytest.mark.parametrize("scale,interior", [(2, 5), (4, 4), (8, 4)])
    @pytest.mark.parametrize("hw", [(1, 1), (3, 3), (5, 7), (32, 32)])
    def test_class_kernels_span_only_the_offsets_they_read(self, scale, interior, hw):
        # a valid correlation over a zero outermost row or column is wasted work
        net = affine_net(scale)
        _, classes = chain_kernels(net, net.stages[0], *hw)
        for _, _, _, kernel, _ in classes:
            for axis in (2, 3):
                edges = np.take(kernel, [0, -1], axis=axis)
                assert (np.abs(edges).sum(axis=tuple({0, 1, 2, 3} - {axis})) > 0).all()
        if hw == (32, 32):  # one interior class, at the chain's full reach
            assert max(k.shape[2:] for *_, k, _ in classes) == (interior, interior)


def _budget(cin, w, rows):
    """A `tensor._COLS_BYTES` under which `conv2d` runs a padded 3x3 conv of
    cin float32 channels and width w in blocks of at most `rows` rows."""
    return 4 * cin * (rows * (10 * w + 2) + 2 * (w + 2))


def _whole_cube_finish(stage, f, alpha, y):
    y += stage_upsample(stage, Tensor(f), alpha).data


class TestFinishStage:
    @settings(max_examples=25)
    @given(st.sampled_from([2, 4, 8]), st.integers(1, 9), st.integers(1, 9), st.integers(0, 99))
    def test_every_band_height_matches_the_whole_cube_path(self, scale, h, w, seed):
        # head bands of 1..h LR rows, from one per row to the whole cube: the
        # finisher, mean_estimate and mc_infer keep the whole-cube bits
        net = affine_net(scale, stages=2, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, (1, 3, h, w)).astype(np.float32)
        f = rng.standard_normal((2, 4, h, w)).astype(np.float32)
        y0 = rng.uniform(0, 1, (2, 3, h * scale, w * scale)).astype(np.float32)
        for rows in range(1, h + 1):
            with mock.patch.object(tensor, "_COLS_BYTES", _budget(4, w, rows)):
                assert conv_block_rows(4, h, w, 3, 3, 1, 1, 4) <= rows
                y = y0.copy()
                finish_stage(net.stages[0], f, scale, y)
                np.testing.assert_array_equal(y, y0 + stage_upsample(net.stages[0], Tensor(f),
                                                                      scale).data)
                got = mean_estimate(net, x, [np.random.default_rng(i) for i in range(2)]).data
                with mock.patch.object(model, "finish_stage", _whole_cube_finish):
                    want = mean_estimate(net, x, [np.random.default_rng(i) for i in range(2)])
                np.testing.assert_array_equal(got, want.data)
                _, samples = mc_infer(net, x[0], 2, seed)
                for s, ss in zip(samples, np.random.SeedSequence(seed).spawn(2)):
                    taped = forward(net, x, "sample", np.random.default_rng(ss), graph=Graph())[0]
                    np.testing.assert_array_equal(s.values, taped.data[0])

    def test_peak_memory_grows_with_band_height_not_cube_height(self):
        net = build_net(NetConfig(bands=8, scale=4, stages=1, units_per_stage=1, channels=4),
                        np.random.default_rng(0))
        stage = net.stages[0]

        def peak(h, rows):
            f = np.random.default_rng(1).standard_normal((1, 4, h, 32)).astype(np.float32)
            y = np.zeros((1, 8, 4 * h, 128), dtype=np.float32)
            with mock.patch.object(tensor, "_COLS_BYTES", _budget(4, 32, rows)):
                finish_stage(stage, f, 4, y)  # warm up lazily built state
                gc.collect()
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    finish_stage(stage, f, 4, y)
                    return tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()

        # 32 -> 256 LR rows adds 224 rows of zero-padded f (4 x 34 floats
        # each, 119 KiB) and no HR row; a whole-cube head, shuffle and tail
        # would add three HR cubes of 224 LR rows (3.5 MiB each)
        tall, short = peak(256, 8), peak(32, 8)
        assert tall - short <= 224 * 4 * 34 * 4 + 16 * 1024, (short, tall)
        # twice the head band: its head output and the tail input it is
        # shuffled into each grow by 8 LR rows (128 KiB), the head's column
        # buffer by a quarter of that
        band = 8 * 16 * 8 * 32 * 4
        assert 2 * band <= peak(32, 16) - short <= 3 * band, (short, peak(32, 16))


def test_finisher_matches_the_whole_cube_under_every_block_plan():
    # every pair of head and tail row-block plans a `_COLS_BYTES` budget can
    # give, on every small extent: plans change only at the budgets where
    # one more row fits a head or a tail block, so those budgets reach them all
    plans = 0
    for scale in (2, 4, 8):
        net = affine_net(scale, seed=scale)
        for h in range(1, 10):
            for w in (1, 2, 5, 9):
                rng = np.random.default_rng(h * 10 + w)
                f = rng.standard_normal((1, 4, h, w)).astype(np.float32)
                y0 = rng.uniform(0, 1, (1, 3, h * scale, w * scale)).astype(np.float32)
                budgets = sorted({_budget(4, w, r) for r in range(1, h + 1)}
                                 | {_budget(3, scale * w, r) for r in range(1, scale * h + 1)})
                seen = set()
                for cols_bytes in budgets:
                    with mock.patch.object(tensor, "_COLS_BYTES", cols_bytes):
                        plan = (conv_block_rows(4, h, w, 3, 3, 1, 1, 4),
                                conv_block_rows(3, scale * h, scale * w, 3, 3, 1, 1, 4))
                        if plan in seen:
                            continue
                        seen.add(plan)
                        y = y0.copy()
                        finish_stage(net.stages[0], f, scale, y)
                        want = y0 + stage_upsample(net.stages[0], Tensor(f), scale).data
                    assert np.array_equal(y, want), (scale, h, w, plan)
                plans += len(seen)
    assert plans > 1000


class TestForward:
    def test_shapes_and_dtypes(self, rng):
        net = small_net(bands=3, scale=2)
        x = rng.uniform(size=(2, 3, 6, 6)).astype(np.float32)
        y_hat, x_hat = forward(net, x, "warmup")
        assert y_hat.shape == (2, 3, 12, 12)
        assert x_hat.shape == (2, 3, 6, 6)
        assert y_hat.data.dtype == np.float32

    def test_zero_network_reduces_to_bicubic(self, rng):
        net = small_net()
        _zero_convs(net)
        x = rng.uniform(size=(2, 3, 6, 6)).astype(np.float32)
        y_hat, x_hat = forward(net, x, "warmup")
        np.testing.assert_array_equal(y_hat.data, bicubic_resize_array(x, 12, 12))
        np.testing.assert_array_equal(x_hat.data, 0.0)

    def test_single_stage_is_correction_plus_bicubic(self, rng):
        net = small_net(stages=1)
        x = rng.uniform(size=(1, 3, 6, 6)).astype(np.float32)
        y_hat, x_hat = forward(net, x, "warmup")
        st = net.stages[0]
        corr = stage_upsample(st, stage_features(st, Tensor(x), "warmup"), 2)
        want = corr.data + bicubic_resize_array(x, 12, 12)
        np.testing.assert_array_equal(y_hat.data, want)
        np.testing.assert_array_equal(x_hat.data, degrade(net, Tensor(want)).data)

    def test_matches_reference_network(self, rng):
        # same parameters, independently coded forward pass, float64
        net = small_net(seed=3, make=float64_net)
        x = rng.uniform(0, 1, (2, 3, 8, 8))
        y_hat, x_hat = forward(net, x, "warmup")
        ref_y, ref_x = reference_forward(
            extract_params(net),
            {"scale": 2, "stages": 2, "units_per_stage": 2, "channels": 8},
            x,
        )
        assert np.max(np.abs(y_hat.data - ref_y)) < 1e-9
        assert np.max(np.abs(x_hat.data - ref_x)) < 1e-9

    def test_warmup_is_deterministic(self, rng):
        net = small_net()
        x = rng.uniform(size=(1, 3, 6, 6)).astype(np.float32)
        a, _ = forward(net, x, "warmup")
        b, _ = forward(net, x, "warmup")
        np.testing.assert_array_equal(a.data, b.data)

    def test_input_validation(self, rng):
        net = small_net()
        x = rng.uniform(size=(1, 3, 6, 6)).astype(np.float32)
        with pytest.raises(ParameterError):
            forward(net, x, "test")
        with pytest.raises(DimensionError):
            forward(net, x[0], "warmup")
        with pytest.raises(DimensionError):
            forward(net, rng.uniform(size=(1, 5, 6, 6)).astype(np.float32), "warmup")

    @pytest.mark.parametrize("mode", ["train", "sample"])
    def test_rng_must_be_a_generator(self, rng, mode):
        net = small_net()
        x = rng.uniform(size=(1, 3, 6, 6)).astype(np.float32)
        for bad in (None, 0, np.random.SeedSequence(0), [np.random.default_rng(0)]):
            with pytest.raises(ParameterError):
                forward(net, x, mode, rng=bad)


class TestLoss:
    def test_perfect_prediction_is_zero(self, rng):
        y = rng.uniform(size=(2, 3, 8, 8)).astype(np.float32)
        x = rng.uniform(size=(2, 3, 4, 4)).astype(np.float32)
        assert float(loss(Tensor(y), y, Tensor(x), x).data) == 0.0

    def test_uniform_offset(self, rng):
        y = rng.uniform(size=(1, 2, 4, 4)).astype(np.float64)
        x = rng.uniform(size=(1, 2, 2, 2)).astype(np.float64)
        val = float(loss(Tensor(y + 0.1), y, Tensor(x), x).data)
        assert abs(val - 0.1) < 1e-12

    def test_matches_numpy_oracle(self, rng):
        y_hat = rng.normal(size=(2, 3, 8, 8))
        y = rng.normal(size=(2, 3, 8, 8))
        x_hat = rng.normal(size=(2, 3, 4, 4))
        x = rng.normal(size=(2, 3, 4, 4))
        for lam in (0.0, 0.5, 1.0):
            got = float(loss(Tensor(y_hat), y, Tensor(x_hat), x, lam).data)
            want = np.mean(np.abs(y_hat - y)) + lam * np.mean((x_hat - x) ** 2)
            assert abs(got - want) < 1e-12

    def test_lambda_zero_ignores_consistency(self, rng):
        y_hat = rng.normal(size=(1, 2, 4, 4))
        y = rng.normal(size=(1, 2, 4, 4))
        x = rng.normal(size=(1, 2, 2, 2))
        got = float(loss(Tensor(y_hat), y, Tensor(x + 9.0), x, lam=0.0).data)
        assert abs(got - np.mean(np.abs(y_hat - y))) < 1e-12

    def test_shape_mismatch_rejected(self, rng):
        y = rng.uniform(size=(1, 2, 4, 4))
        x = rng.uniform(size=(1, 2, 2, 2))
        with pytest.raises(DimensionError):
            loss(Tensor(y), y[:, :, :2], Tensor(x), x)
        with pytest.raises(DimensionError):
            loss(Tensor(y), y, Tensor(x), x[:, :1])

    def test_every_parameter_receives_gradient_in_train_mode(self, rng):
        net = small_net(bands=3, scale=2, stages=2, units=2, channels=8, seed=1)
        x = rng.uniform(0.1, 0.9, (2, 3, 6, 6)).astype(np.float32)
        y = rng.uniform(0.1, 0.9, (2, 3, 12, 12)).astype(np.float32)
        _, grad = net_loss_and_grad(net, x, y, lam=1.0, mode="train", gate_seed=5)
        assert np.all(np.isfinite(grad))
        off = 0
        for p in parameters(net):
            piece = grad[off:off + p.data.size]
            off += p.data.size
            assert np.linalg.norm(piece) > 0.0, f"no gradient reached {p.name}"

    def test_warmup_gives_gate_logits_no_gradient(self, rng):
        net = small_net(seed=1)
        x = rng.uniform(0.1, 0.9, (1, 3, 6, 6)).astype(np.float32)
        y = rng.uniform(0.1, 0.9, (1, 3, 12, 12)).astype(np.float32)
        _, grad = net_loss_and_grad(net, x, y, lam=1.0, mode="warmup", gate_seed=5)
        off = 0
        for p in parameters(net):
            piece = grad[off:off + p.data.size]
            off += p.data.size
            if p.name.endswith(("gate_k", "gate_l")):
                np.testing.assert_array_equal(piece, 0.0)
            else:
                assert np.linalg.norm(piece) > 0.0

    def test_train_step_tape_gates_each_site_once(self, rng):
        # default net, train shape: every gate site's mask reaches its
        # features through one gate_channels node per gated map, with no
        # reshaping or slicing of the mask on the tape
        net = build_net(NetConfig(bands=31), np.random.default_rng(0))
        x = rng.uniform(0.1, 0.9, (4, 31, 8, 8)).astype(np.float32)
        y = rng.uniform(0.1, 0.9, (4, 31, 32, 32)).astype(np.float32)
        graph = Graph()
        y_hat, x_hat = forward(net, x, "train", rng=np.random.default_rng(5), graph=graph)
        loss(y_hat, y, x_hat, x)
        ops = [node.op for node in graph.nodes]
        assert len(ops) == 345
        assert ops.count("gate_channels") == 4 * (3 + 2 * 3)  # per stage: 3 aggs, 3 units
        assert not {"reshape", "slice1d"} & set(ops)

    @staticmethod
    def _traced_train_step(rng):
        """(bytes live after backward, leaf-gradient bytes, step peak), each
        above the bytes live before the forward, for one default-net step at
        batch 4, 8x8 -> 32x32, with the graph referenced until the step ends
        as train() holds it until its del."""
        net = build_net(NetConfig(bands=31), np.random.default_rng(0))
        params = parameters(net)
        state = init_adam(params)
        x = rng.uniform(0.1, 0.9, (4, 31, 8, 8)).astype(np.float32)
        y = rng.uniform(0.1, 0.9, (4, 31, 32, 32)).astype(np.float32)

        def step():
            graph = Graph()
            y_hat, x_hat = forward(net, x, "train", rng=np.random.default_rng(5), graph=graph)
            step_loss = loss(y_hat, y, x_hat, x)
            grads = backward(step_loss)
            held = tracemalloc.get_traced_memory()[0]
            adam_step(state, params, [grads.get(graph.leaf_id(p)) for p in params], 1e-5)
            return held, sum(g.nbytes for g in grads.values())

        step()  # warm up lazily built state
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            held, grad_bytes = step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return held - base, grad_bytes, peak - base

    def test_backward_frees_the_tape_while_the_graph_is_held(self, rng):
        # only the leaf gradients and the loss tensors outlive the sweep; a
        # tape kept until the step's end held about 11.1 MB here
        held, grad_bytes, _ = self._traced_train_step(rng)
        assert held <= grad_bytes + 2**20, (held, grad_bytes)

    def test_train_step_peak_is_below_a_whole_tape_step(self, rng):
        # Adam included; the step reached 12.8 MB while the tape lived
        # through backward and the optimizer
        _, _, peak = self._traced_train_step(rng)
        assert peak <= 11.2e6, peak

    def test_tape_is_freed_without_the_cycle_collector(self, rng):
        # a training step's tape must die with its last reference, not wait
        # for gc: every array its backward closures hold lives as long as it
        net = small_net(seed=1)
        x = rng.uniform(0.1, 0.9, (1, 3, 6, 6)).astype(np.float32)
        y = rng.uniform(0.1, 0.9, (1, 3, 12, 12)).astype(np.float32)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            graph = Graph()
            y_hat, x_hat = forward(net, x, "train", rng=np.random.default_rng(5), graph=graph)
            step_loss = loss(y_hat, y, x_hat, x)
            grads = backward(step_loss)
            assert graph.leaf_id(parameters(net)[0]) in grads
            ref = weakref.ref(graph)
            del graph, y_hat, x_hat, step_loss
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
