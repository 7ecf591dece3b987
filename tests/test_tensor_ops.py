"""Tensor op semantics: forward values against loop oracles, gradients
against finite differences, shape/error contracts, determinism."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import check_op_grad, gradcheck_all_ops, rel_err
from oracles import bicubic_direct, conv2d_loop, pixel_shuffle_loop

from hssr.errors import DimensionError, ParameterError
from hssr.tensor import (
    Graph,
    Tensor,
    absolute,
    add,
    backward,
    bicubic_resize,
    bicubic_resize_array,
    concat_channels,
    conv2d,
    mean_all,
    mul,
    pixel_shuffle,
    relu,
    reshape,
    scale,
    sigmoid,
    slice1d,
    sub,
    sum_all,
)


class TestConv2d:
    def test_degradation_shape_alpha4(self, rng):
        x = Tensor(rng.random((1, 1, 64, 64), dtype=np.float32))
        k = Tensor(rng.random((1, 1, 5, 5), dtype=np.float32))
        out = conv2d(x, k, Tensor(np.zeros(1, np.float32)), stride=4, padding=2)
        assert out.shape == (1, 1, 16, 16)

    def test_degradation_shape_alpha8(self, rng):
        x = Tensor(rng.random((1, 1, 64, 64), dtype=np.float32))
        k = Tensor(rng.random((1, 1, 9, 9), dtype=np.float32))
        out = conv2d(x, k, Tensor(np.zeros(1, np.float32)), stride=8, padding=4)
        assert out.shape == (1, 1, 8, 8)

    def test_identity_kernel(self, rng):
        x = rng.random((2, 1, 6, 6), dtype=np.float32)
        k = np.ones((1, 1, 1, 1), dtype=np.float32)
        out = conv2d(Tensor(x), Tensor(k), Tensor(np.zeros(1, np.float32)))
        np.testing.assert_array_equal(out.data, x)

    def test_matches_loop_oracle(self, rng):
        x = rng.uniform(-1, 1, (1, 2, 5, 5))
        k = rng.uniform(-1, 1, (3, 2, 3, 3))
        b = rng.uniform(-1, 1, 3)
        out = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=1, padding=1)
        assert np.abs(out.data - conv2d_loop(x, k, b, 1, 1)).max() < 1e-5

    @pytest.mark.parametrize("stride,padding,groups,cin,cout,kk", [
        (1, 0, 1, 3, 4, 3),
        (2, 2, 1, 2, 3, 5),
        (1, 1, 4, 4, 4, 3),  # depthwise
        (1, 0, 1, 4, 5, 1),  # pointwise
        (4, 2, 1, 1, 1, 5),
    ])
    def test_loop_oracle_sweep(self, rng, stride, padding, groups, cin, cout, kk):
        x = rng.uniform(-1, 1, (2, cin, 9, 9))
        k = rng.uniform(-1, 1, (cout, cin // groups, kk, kk))
        b = rng.uniform(-1, 1, cout)
        out = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=stride,
                     padding=padding, groups=groups)
        ref = conv2d_loop(x, k, b, stride, padding, groups)
        assert out.shape == ref.shape
        assert np.abs(out.data - ref).max() < 1e-10

    def test_depthwise_equals_per_channel_correlation(self, rng):
        x = rng.uniform(-1, 1, (1, 3, 6, 6))
        k = rng.uniform(-1, 1, (3, 1, 3, 3))
        out = conv2d(Tensor(x), Tensor(k), Tensor(np.zeros(3)), padding=1, groups=3)
        for c in range(3):
            single = conv2d_loop(x[:, c:c + 1], k[c:c + 1], np.zeros(1), 1, 1, 1)
            assert np.abs(out.data[:, c:c + 1] - single).max() < 1e-10

    def test_pointwise_equals_channel_matmul(self, rng):
        x = rng.uniform(-1, 1, (2, 4, 3, 3))
        k = rng.uniform(-1, 1, (5, 4, 1, 1))
        b = rng.uniform(-1, 1, 5)
        out = conv2d(Tensor(x), Tensor(k), Tensor(b))
        ref = np.einsum("oc,nchw->nohw", k[:, :, 0, 0], x) + b[None, :, None, None]
        assert np.abs(out.data - ref).max() < 1e-10

    def test_batch_row_independence(self, rng):
        # row i of a batched run must be bit-identical to a lone run of row i
        for cin, cout, kk, stride, padding, groups in [
            (2, 4, 3, 1, 1, 1),
            (4, 4, 3, 1, 1, 4),  # depthwise
            (3, 3, 5, 4, 2, 1),  # degradation-like: strided dense
        ]:
            x = rng.random((3, cin, 12, 12), dtype=np.float32)
            k = rng.random((cout, cin // groups, kk, kk), dtype=np.float32)
            b = rng.random(cout, dtype=np.float32)
            kw = dict(stride=stride, padding=padding, groups=groups)
            full = conv2d(Tensor(x), Tensor(k), Tensor(b), **kw).data
            for i in range(3):
                solo = conv2d(Tensor(x[i:i + 1]), Tensor(k), Tensor(b), **kw).data
                np.testing.assert_array_equal(full[i:i + 1], solo)

    def test_determinism(self, rng):
        x = rng.random((2, 3, 7, 7), dtype=np.float32)
        k = rng.random((4, 3, 3, 3), dtype=np.float32)
        b = rng.random(4, dtype=np.float32)
        a = conv2d(Tensor(x), Tensor(k), Tensor(b), padding=1).data
        c = conv2d(Tensor(x), Tensor(k), Tensor(b), padding=1).data
        np.testing.assert_array_equal(a, c)

    def test_errors(self, rng):
        x = Tensor(rng.random((1, 2, 5, 5), dtype=np.float32))
        k = Tensor(rng.random((3, 2, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(3, np.float32))
        with pytest.raises(ParameterError):
            conv2d(x, k, b, stride=0)
        with pytest.raises(ParameterError):
            conv2d(x, Tensor(rng.random((3, 2, 2, 2), dtype=np.float32)), b)
        with pytest.raises(DimensionError):
            conv2d(x, k, Tensor(np.zeros(4, np.float32)))
        with pytest.raises(DimensionError):
            conv2d(x, k, b, groups=2)  # cout=3 not divisible
        with pytest.raises(DimensionError):  # grouped, neither dense nor depthwise
            conv2d(Tensor(rng.random((2, 4, 9, 9), dtype=np.float32)),
                   Tensor(rng.random((6, 2, 3, 3), dtype=np.float32)),
                   Tensor(np.zeros(6, np.float32)), stride=3, padding=1, groups=2)
        with pytest.raises(DimensionError):
            conv2d(Tensor(rng.random((1, 2, 2, 2), dtype=np.float32)), k, b)  # smaller than kernel
        with pytest.raises(ParameterError):
            conv2d(x, Tensor(k.data.astype(np.float64)), b)  # mixed dtypes


class TestPixelShuffle:
    def test_definitional_layout(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0], np.float32).reshape(1, 4, 1, 1))
        out = pixel_shuffle(x, 2)
        np.testing.assert_array_equal(out.data[0, 0], [[1, 2], [3, 4]])

    def test_r1_identity(self, rng):
        x = rng.random((2, 3, 4, 4), dtype=np.float32)
        np.testing.assert_array_equal(pixel_shuffle(Tensor(x), 1).data, x)

    def test_matches_loop_oracle(self, rng):
        x = rng.uniform(-1, 1, (2, 8, 3, 3))
        out = pixel_shuffle(Tensor(x), 2)
        np.testing.assert_array_equal(out.data, pixel_shuffle_loop(x, 2))

    def test_round_trip(self, rng):
        x = rng.random((2, 8, 3, 3), dtype=np.float32)
        out = pixel_shuffle(Tensor(x), 2).data
        back = (
            out.reshape(2, 2, 3, 2, 3, 2)
            .transpose(0, 1, 3, 5, 2, 4)
            .reshape(2, 8, 3, 3)
        )
        np.testing.assert_array_equal(back, x)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4))
    def test_preserves_multiset_and_sum(self, r, c, h):
        rng = np.random.default_rng(42 + r * 100 + c * 10 + h)
        x = rng.random((2, c * r * r, h, h), dtype=np.float32)
        out = pixel_shuffle(Tensor(x), r).data
        assert sorted(out.reshape(-1).tolist()) == sorted(x.reshape(-1).tolist())
        assert out.sum(dtype=np.float64) == pytest.approx(x.sum(dtype=np.float64), abs=0)

    def test_errors(self, rng):
        x = Tensor(rng.random((1, 6, 2, 2), dtype=np.float32))
        with pytest.raises(ParameterError):
            pixel_shuffle(x, 2)  # 6 not divisible by 4
        with pytest.raises(ParameterError):
            pixel_shuffle(x, 0)


class TestBicubic:
    def test_constant_preserved(self):
        x = np.full((2, 3, 8, 8), 0.37, dtype=np.float32)
        out = bicubic_resize(Tensor(x), 20, 12)
        assert np.abs(out.data - 0.37).max() < 1e-6

    def test_identity_exact(self, rng):
        x = rng.random((1, 2, 9, 7), dtype=np.float32)
        np.testing.assert_array_equal(bicubic_resize(Tensor(x), 9, 7).data, x)

    def test_ramp_up4_matches_direct_oracle(self):
        ramp = (np.arange(64, dtype=np.float64).reshape(8, 8) / 63.0)
        fast = bicubic_resize_array(ramp, 32, 32)
        direct = bicubic_direct(ramp, 32, 32)
        assert np.abs(fast - direct).max() < 1e-5

    def test_random_resizes_match_oracle(self, rng):
        for oh, ow in [(4, 4), (13, 5), (16, 16), (7, 21)]:
            img = rng.uniform(0, 1, (10, 12))
            assert np.abs(bicubic_resize_array(img, oh, ow) - bicubic_direct(img, oh, ow)).max() < 1e-10

    def test_slice_batching_independence(self, rng):
        arr = rng.random((4, 3, 8, 8))
        full = bicubic_resize_array(arr, 16, 16)
        for i in range(4):
            np.testing.assert_array_equal(full[i], bicubic_resize_array(arr[i], 16, 16))

    def test_rejects_tracked_input(self, rng):
        g = Graph()
        x = g.leaf(rng.random((1, 1, 4, 4)))
        with pytest.raises(ParameterError):
            bicubic_resize(x, 8, 8)

    def test_bad_target(self, rng):
        with pytest.raises(ParameterError):
            bicubic_resize_array(rng.random((4, 4)), 0, 4)


class TestElementwise:
    def test_sigmoid_zero(self):
        assert float(sigmoid(Tensor(np.zeros(1, np.float32))).data[0]) == 0.5

    def test_sigmoid_stable_extremes(self):
        out = sigmoid(Tensor(np.array([-500.0, 500.0]))).data
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_relu_values(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0], np.float32)))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_mask_mul_and_its_gradient(self):
        g = Graph()
        mask = g.leaf(np.array([0.0, 1.0, 0.5]).reshape(1, 3, 1, 1))
        x = np.ones((1, 3, 2, 2))
        out = mul(Tensor(x), mask)
        assert np.allclose(out.data[0, 0], 0.0)
        assert np.allclose(out.data[0, 1], 1.0)
        assert np.allclose(out.data[0, 2], 0.5)
        upstream = np.arange(12, dtype=np.float64).reshape(1, 3, 2, 2)
        s = sum_all(mul(out, Tensor(upstream)))
        grad = backward(s)[mask.node_id]
        # per-channel: sum of that channel's upstream gradient (x is ones)
        np.testing.assert_allclose(grad[0, :, 0, 0], upstream.sum(axis=(0, 2, 3)))

    def test_scale(self, rng):
        x = rng.random(5, dtype=np.float32)
        np.testing.assert_allclose(scale(Tensor(x), -2.5).data, x * np.float32(-2.5))

    def test_broadcast_error(self, rng):
        with pytest.raises(DimensionError):
            add(Tensor(rng.random((2, 3), dtype=np.float32)),
                Tensor(rng.random((2, 4), dtype=np.float32)))

    def test_mixed_dtype_error(self, rng):
        with pytest.raises(ParameterError):
            add(Tensor(rng.random(3, dtype=np.float32)), Tensor(rng.random(3)))


class TestGraphAndBackward:
    def test_sum_gradient_ones(self, rng):
        g = Graph()
        x = g.leaf(rng.uniform(-1, 1, (3, 4)))
        grads = backward(sum_all(x))
        np.testing.assert_array_equal(grads[x.node_id], np.ones((3, 4)))

    def test_half_square_gradient_is_x(self, rng):
        xv = rng.uniform(-1, 1, (4, 5))
        g = Graph()
        x = g.leaf(xv)
        s = scale(sum_all(mul(x, x)), 0.5)
        np.testing.assert_allclose(backward(s)[x.node_id], xv, atol=1e-12)

    def test_multi_consumer_accumulation(self, rng):
        # y = x + x (two consumers of the same node): dy/dx = 2
        g = Graph()
        x = g.leaf(rng.uniform(-1, 1, 6))
        grads = backward(sum_all(add(x, x)))
        np.testing.assert_array_equal(grads[x.node_id], np.full(6, 2.0))

    def test_leaf_for_shares_one_node(self):
        from hssr.tensor import Param

        p = Param("w", np.ones(3))
        g = Graph()
        a = g.leaf_for(p)
        b = g.leaf_for(p)
        assert a.node_id == b.node_id
        grads = backward(sum_all(add(a, b)))
        np.testing.assert_array_equal(grads[a.node_id], np.full(3, 2.0))

    def test_backward_requires_scalar(self, rng):
        g = Graph()
        x = g.leaf(rng.random((2, 2)))
        with pytest.raises(ParameterError):
            backward(add(x, x))

    def test_backward_requires_graph(self):
        with pytest.raises(ParameterError):
            backward(Tensor(np.zeros(())))

    def test_cross_graph_mixing_rejected(self, rng):
        g1, g2 = Graph(), Graph()
        a = g1.leaf(rng.random(3))
        b = g2.leaf(rng.random(3))
        with pytest.raises(ParameterError):
            add(a, b)

    def test_constants_stay_off_tape(self, rng):
        out = add(Tensor(rng.random(3)), Tensor(rng.random(3)))
        assert out.graph is None and not out.requires_grad

    def test_finite_outputs_on_finite_inputs(self, rng):
        x = rng.uniform(-50, 50, (2, 4, 6, 6))
        k = rng.uniform(-5, 5, (4, 4, 3, 3))
        for t in (
            conv2d(Tensor(x), Tensor(k), Tensor(np.zeros(4)), padding=1),
            sigmoid(Tensor(x)),
            relu(Tensor(x)),
            bicubic_resize(Tensor(x), 9, 9),
        ):
            assert np.isfinite(t.data).all()


class TestReshapeSliceConcat:
    def test_reshape_round_trip(self, rng):
        xv = rng.uniform(-1, 1, (2, 3, 4))
        g = Graph()
        x = g.leaf(xv)
        grads = backward(sum_all(reshape(x, (6, 4))))
        assert grads[x.node_id].shape == (2, 3, 4)

    def test_reshape_bad_size(self, rng):
        with pytest.raises(DimensionError):
            reshape(Tensor(rng.random(6)), (4,))

    def test_slice1d_values_and_bounds(self, rng):
        x = rng.uniform(-1, 1, 10)
        np.testing.assert_array_equal(slice1d(Tensor(x), 2, 7).data, x[2:7])
        with pytest.raises(ParameterError):
            slice1d(Tensor(x), 7, 2)
        with pytest.raises(DimensionError):
            slice1d(Tensor(rng.random((2, 3))), 0, 1)

    def test_concat_values_and_errors(self, rng):
        a = rng.random((2, 2, 3, 3), dtype=np.float32)
        b = rng.random((2, 5, 3, 3), dtype=np.float32)
        out = concat_channels([Tensor(a), Tensor(b)])
        np.testing.assert_array_equal(out.data, np.concatenate([a, b], axis=1))
        with pytest.raises(DimensionError):
            concat_channels([Tensor(a), Tensor(rng.random((2, 2, 4, 4), dtype=np.float32))])
        with pytest.raises(ParameterError):
            concat_channels([])


class TestGradients:
    def test_all_ops_match_finite_differences(self):
        rng = np.random.default_rng(7)
        worst = gradcheck_all_ops(trials=8, rng=rng)
        assert max(worst.values()) < 1e-3

    def test_mean_abs_composite(self, rng):
        # the L1 half of the training loss: mean |a - b|
        a = rng.uniform(-1, 1, (2, 3, 4, 4))
        b = a + rng.choice([-1.0, 1.0], a.shape) * rng.uniform(0.1, 0.5, a.shape)
        err = check_op_grad(lambda t, u: mean_all(absolute(sub(t, u))), [a, b], 0, rng)
        assert err < 1e-3
