"""Network wiring: units, aggregation, stages, degradation, full forward, loss."""

import gc
import weakref

import numpy as np
import pytest

from helpers import net_loss_and_grad
from oracles import conv2d_loop
from reference_net import extract_params, reference_forward

from hssr.errors import DimensionError, ParameterError
from hssr.model import (
    NetConfig,
    aggregate,
    build_net,
    degrade,
    forward,
    loss,
    parameters,
    stage_forward,
    unit_forward,
)
from hssr.tensor import Graph, Tensor, backward, bicubic_resize_array


def small_net(bands=3, scale=2, stages=2, units=2, channels=8, seed=0, dtype=np.float32):
    cfg = NetConfig(bands, scale, stages, units, channels)
    return build_net(cfg, np.random.default_rng(seed), dtype=dtype)


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
        net = small_net(dtype=np.float32)
        assert all(p.data.dtype == np.float32 for p in parameters(net))


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
        out = stage_forward(net.stages[0], x, scale, "warmup")
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
        corr = stage_forward(net.stages[0], Tensor(x), 2, "warmup")
        want = corr.data + bicubic_resize_array(x, 12, 12)
        np.testing.assert_array_equal(y_hat.data, want)
        np.testing.assert_array_equal(x_hat.data, degrade(net, Tensor(want)).data)

    def test_matches_reference_network(self, rng):
        # same parameters, independently coded forward pass, float64
        net = small_net(seed=3, dtype=np.float64)
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

    def test_batched_sampling_equals_per_row(self, rng):
        net = small_net()
        x = rng.uniform(size=(3, 3, 6, 6)).astype(np.float32)
        batched, _ = forward(net, x, "sample",
                             rng=[np.random.default_rng(s) for s in (5, 6, 7)])
        for i, s in enumerate((5, 6, 7)):
            row, _ = forward(net, x[i:i + 1], "sample",
                             rng=[np.random.default_rng(s)])
            np.testing.assert_array_equal(batched.data[i], row.data[0])

    def test_input_validation(self, rng):
        net = small_net()
        x = rng.uniform(size=(1, 3, 6, 6)).astype(np.float32)
        with pytest.raises(ParameterError):
            forward(net, x, "test")
        with pytest.raises(DimensionError):
            forward(net, x[0], "warmup")
        with pytest.raises(DimensionError):
            forward(net, rng.uniform(size=(1, 5, 6, 6)).astype(np.float32), "warmup")
        with pytest.raises(ParameterError):
            forward(net, x, "sample", rng=[np.random.default_rng(0)] * 2)


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
