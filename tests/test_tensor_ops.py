"""Tensor op semantics: forward values against loop oracles, gradients
against finite differences, shape/error contracts, determinism."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import check_op_grad, gradcheck_all_ops, rel_err
from oracles import (
    bicubic_direct,
    conv2d_loop,
    conv2d_loop_grads,
    dense_clipped_taps,
    depthwise_clipped_taps,
    pixel_shuffle_loop,
)

from hssr import tensor
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
    gate_channels,
    mean_all,
    mul,
    pixel_shuffle,
    relu,
    scale,
    sigmoid,
    sub,
)


def _two_row_budget(x, kk, stride, padding, wo):
    """Bytes of a two-output-row column buffer plus the strip it is gathered from."""
    _, cin, _, w = x.shape
    strip = (stride + kk) * (w + 2 * padding) if padding else 0
    return (2 * kk * kk * wo + strip) * cin * x.itemsize


def _spy_strips(monkeypatch, kk, stride):
    """Record the output rows of each per-block, per-sample strip the dense conv reads."""
    rows = []
    strip = tensor._strip

    def spy(src, top, n_rows, padding, buf):
        rows.append((n_rows - kk) // stride + 1)
        return strip(src, top, n_rows, padding, buf)

    monkeypatch.setattr(tensor, "_strip", spy)
    return rows


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
        (1, 0, 1, 2, 3, 4),  # even extents, valid correlation
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

    @pytest.mark.parametrize("stride,padding,cin,cout,kk,size,blocks", [
        (1, 1, 3, 4, 3, 9, (2, 2, 2, 2, 1)),  # 3x3 pad 1
        (4, 2, 3, 2, 5, 25, (2, 2, 2, 1)),  # degradation-like
    ])
    def test_row_blocks_match_loop_oracle(self, rng, monkeypatch, stride, padding,
                                          cin, cout, kk, size, blocks):
        x = rng.uniform(-1, 1, (2, cin, size, size))
        k = rng.uniform(-1, 1, (cout, cin, kk, kk))
        b = rng.uniform(-1, 1, cout)
        wo = (size + 2 * padding - kk) // stride + 1
        # a budget of two output rows' column buffer and input strip
        monkeypatch.setattr(tensor, "_COLS_BYTES", _two_row_budget(x, kk, stride, padding, wo))
        rows = _spy_strips(monkeypatch, kk, stride)
        out = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=stride, padding=padding)
        assert sorted(rows) == sorted(blocks * 2)  # per sample, one strip per block
        ref = conv2d_loop(x, k, b, stride, padding)
        assert out.shape == ref.shape
        assert np.abs(out.data - ref).max() < 1e-10

    @pytest.mark.parametrize("stride,padding,groups,cin,cout,kk,h,w", [
        (1, 1, 1, 3, 4, 3, 9, 7),  # 3x3 pad 1
        (4, 2, 1, 3, 2, 5, 25, 21),  # degradation-like
        (1, 2, 1, 2, 3, 5, 3, 3),  # some taps read only padding in a block
        (1, 1, 4, 4, 4, 3, 5, 6),  # depthwise, every edge clipped
    ])
    def test_backward_matches_loop_oracle(self, rng, monkeypatch, stride, padding, groups,
                                          cin, cout, kk, h, w):
        x = rng.uniform(-1, 1, (2, cin, h, w))
        k = rng.uniform(-1, 1, (cout, cin // groups, kk, kk))
        b = rng.uniform(-1, 1, cout)
        wo = (w + 2 * padding - kk) // stride + 1
        # a budget of two output rows' column buffer and input strip
        monkeypatch.setattr(tensor, "_COLS_BYTES", _two_row_budget(x, kk, stride, padding, wo))
        rows = _spy_strips(monkeypatch, kk, stride)
        g = Graph()
        xt, kt, bt = g.leaf(x), g.leaf(k), g.leaf(b)
        out = conv2d(xt, kt, bt, stride=stride, padding=padding, groups=groups)
        go = rng.uniform(-1, 1, out.shape)
        grads = backward(mean_all(mul(out, Tensor(go))))
        assert groups > 1 or max(rows) == 2  # the backward runs in the forward's blocks
        for t, ref in zip((xt, kt, bt), conv2d_loop_grads(x, k, go, stride, padding, groups)):
            assert grads[t.node_id].shape == ref.shape
            assert np.abs(grads[t.node_id] - ref / go.size).max() < 1e-10

    def test_column_buffer_fits_the_budget(self, rng):
        # at the sr tail shape the dense forward allocates, beyond its
        # output, at most one _COLS_BYTES column buffer: no padded copy
        x = Tensor(rng.random((2, 31, 128, 128), dtype=np.float32))
        k = Tensor(rng.random((31, 31, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(31, np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, k, b, padding=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - out.data.nbytes <= tensor._COLS_BYTES

    def test_pointwise_builds_no_column_buffer(self, rng):
        # a 1x1 conv's matmuls read x's rows and write the input gradient's
        # rows: beyond its results it allocates a few kernel-sized arrays
        g = Graph()
        x = g.leaf(rng.random((2, 96, 64, 64), dtype=np.float32))
        k = g.leaf(rng.random((32, 96, 1, 1), dtype=np.float32))
        b = g.leaf(np.zeros(32, np.float32))
        grad_fn = g.nodes[conv2d(x, k, b).node_id].grad_fn
        go = rng.random((2, 32, 64, 64), dtype=np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, k, b)
            fwd = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            gx, gk, _ = grad_fn(go)
            bwd = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert fwd - out.data.nbytes <= 4 * k.data.nbytes, fwd
        assert bwd - gx.nbytes - gk.nbytes <= 4 * k.data.nbytes, bwd

    def test_dense_backward_fits_two_buffers(self, rng):
        # at the train tail shape the dense backward allocates, beyond its
        # input and kernel gradients, at most two _COLS_BYTES buffers
        g = Graph()
        x = g.leaf(rng.random((4, 31, 32, 32), dtype=np.float32))
        k = g.leaf(rng.random((31, 31, 3, 3), dtype=np.float32))
        b = g.leaf(np.zeros(31, np.float32))
        out = conv2d(x, k, b, padding=1)
        grad_fn = g.nodes[out.node_id].grad_fn
        go = rng.random(out.shape, dtype=np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gx, gk, _ = grad_fn(go)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert gx.shape == x.shape and gk.shape == k.shape
        assert peak - gx.nbytes - gk.nbytes <= 2 * tensor._COLS_BYTES

    def test_strided_backward_frees_its_buffers_before_the_crop(self, rng):
        # the train degrade: while the padded input gradient is cropped, at
        # most the block's column buffer and input strip may be alive with it
        g = Graph()
        x = g.leaf(rng.random((4, 31, 32, 32), dtype=np.float32))
        k = g.leaf(rng.random((31, 31, 5, 5), dtype=np.float32))
        b = g.leaf(np.zeros(31, np.float32))
        out = conv2d(x, k, b, stride=4, padding=2)
        grad_fn = g.nodes[out.node_id].grad_fn
        go = rng.random(out.shape, dtype=np.float32)
        grad_fn(go)  # warm up lazily built state
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gx, gk, _ = grad_fn(go)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        rows = tensor.conv_block_rows(31, 32, 32, 5, 5, 4, 2, 4)
        cols = 5 * 5 * 31 * rows * out.shape[3] * 4
        strip = 31 * (4 * (rows - 1) + 5) * 36 * 4
        padded = 4 * 31 * 36 * 36 * 4
        assert gx.shape == x.shape and gk.shape == k.shape
        assert peak - padded - gx.nbytes - gk.nbytes <= cols + strip, peak

    def test_depthwise_equals_per_channel_correlation(self, rng):
        x = rng.uniform(-1, 1, (1, 3, 6, 6))
        k = rng.uniform(-1, 1, (3, 1, 3, 3))
        out = conv2d(Tensor(x), Tensor(k), Tensor(np.zeros(3)), padding=1, groups=3)
        for c in range(3):
            single = conv2d_loop(x[:, c:c + 1], k[c:c + 1], np.zeros(1), 1, 1, 1)
            assert np.abs(out.data[:, c:c + 1] - single).max() < 1e-10

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("kk", [3, 5])
    @pytest.mark.parametrize("stride,padding", itertools.product((1, 2, 3), (0, 1, 2)))
    def test_depthwise_forward_matches_clipped_taps_exactly(self, rng, dtype, n, kk,
                                                             stride, padding):
        # same products, added in the same order, on every non-square plane
        for h, w in [(7, 11), (12, 5), (kk, kk + 3)]:
            x = rng.uniform(-1, 1, (n, 4, h, w)).astype(dtype)
            k = rng.uniform(-1, 1, (4, 1, kk, kk)).astype(dtype)
            b = rng.uniform(-1, 1, 4).astype(dtype)
            out = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=stride, padding=padding, groups=4)
            ref = depthwise_clipped_taps(x, k, b, stride, padding)
            assert out.data.dtype == ref.dtype
            np.testing.assert_array_equal(out.data, ref)

    @pytest.mark.parametrize("cols_bytes", [None, 20_000])
    @pytest.mark.parametrize("n,cin,cout,kk,stride,padding,size", [
        (4, 32, 496, 3, 1, 1, 8),  # train head
        (4, 31, 31, 3, 1, 1, 32),  # train tail
        (4, 31, 31, 5, 4, 2, 32),  # train degrade
        (4, 96, 32, 1, 1, 0, 8),  # train 1x1
        (1, 32, 496, 3, 1, 1, 32),  # sr head
        (1, 31, 31, 3, 1, 1, 128),  # sr tail
        (1, 31, 31, 5, 4, 2, 128),  # sr degrade
    ])
    def test_dense_matches_clipped_taps_exactly(self, rng, monkeypatch, cols_bytes, n, cin,
                                                cout, kk, stride, padding, size):
        # forward and both gradients: same products, summed in the same
        # order, in the same row blocks as the clipped-tap column buffer
        if cols_bytes:
            monkeypatch.setattr(tensor, "_COLS_BYTES", cols_bytes)
        rows = _spy_strips(monkeypatch, kk, stride)  # none at 1x1, whose matmuls read x's rows
        x = rng.uniform(-1, 1, (n, cin, size, size)).astype(np.float32)
        k = rng.uniform(-1, 1, (cout, cin, kk, kk)).astype(np.float32)
        b = rng.uniform(-1, 1, cout).astype(np.float32)
        g = Graph()
        out = conv2d(g.leaf(x), g.leaf(k), g.leaf(b), stride=stride, padding=padding)
        block = tensor.conv_block_rows(cin, size, size, kk, kk, stride, padding, x.itemsize)
        assert kk == 1 or max(rows) == block
        assert cols_bytes is None or block < out.shape[2]  # several blocks
        go = rng.uniform(-1, 1, out.shape).astype(np.float32)
        got = (out.data,) + tuple(g.nodes[out.node_id].grad_fn(go))
        ref = dense_clipped_taps(x, k, b, go, stride, padding, rows=block)
        for a, r in zip(got, ref):
            assert a.dtype == r.dtype
            np.testing.assert_array_equal(a, r)

    def test_pointwise_equals_channel_matmul(self, rng):
        x = rng.uniform(-1, 1, (2, 4, 3, 3))
        k = rng.uniform(-1, 1, (5, 4, 1, 1))
        b = rng.uniform(-1, 1, 5)
        out = conv2d(Tensor(x), Tensor(k), Tensor(b))
        ref = np.einsum("oc,nchw->nohw", k[:, :, 0, 0], x) + b[None, :, None, None]
        assert np.abs(out.data - ref).max() < 1e-10

    def test_batch_row_independence(self, rng, monkeypatch):
        # row i of a batched run must be bit-identical to a lone run of row i,
        # also when the dense forward runs in row blocks (2000 B: one row each)
        for cols_bytes, (cin, cout, kk, stride, padding, groups) in itertools.product(
            (tensor._COLS_BYTES, 2000),
            [
                (2, 4, 3, 1, 1, 1),
                (4, 4, 3, 1, 1, 4),  # depthwise
                (3, 3, 5, 4, 2, 1),  # degradation-like: strided dense
            ],
        ):
            monkeypatch.setattr(tensor, "_COLS_BYTES", cols_bytes)
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
        with pytest.raises(ParameterError):  # even extents have no centre to pad around
            conv2d(x, Tensor(rng.random((3, 2, 2, 2), dtype=np.float32)), b, padding=1)
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

    def test_into_a_strided_view(self, rng):
        x = rng.random((2, 12, 3, 4), dtype=np.float32)
        buf = np.zeros((2, 3, 9, 11), dtype=np.float32)
        got = pixel_shuffle(Tensor(x), 2, out=buf[:, :, 1:7, 2:10])
        assert np.shares_memory(got.data, buf)
        np.testing.assert_array_equal(buf[:, :, 1:7, 2:10], pixel_shuffle_loop(x, 2))
        buf[:, :, 1:7, 2:10] = 0
        np.testing.assert_array_equal(buf, 0)  # nothing outside the view was written

    def test_out_errors(self, rng):
        x = rng.random((1, 4, 2, 2), dtype=np.float32)
        with pytest.raises(DimensionError):
            pixel_shuffle(Tensor(x), 2, out=np.empty((1, 1, 4, 5), np.float32))
        with pytest.raises(ParameterError):
            pixel_shuffle(Graph().leaf(x), 2, out=np.empty((1, 1, 4, 4), np.float32))


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

    def test_result_is_the_only_cube_allocated(self, rng):
        # float64 planes are rounded straight into the float32 result: beyond
        # it, resampling 64x64 -> 256x256 holds at most two float64 planes
        lr = rng.random((31, 64, 64), dtype=np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            up = bicubic_resize_array(lr, 256, 256)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert up.dtype == np.float32
        assert peak - up.nbytes <= 2 * 256 * 256 * 8

    @staticmethod
    def _plane_loop(arr, oh, ow, dtype):
        row = tensor._resize_matrix(arr.shape[-2], oh)
        col = tensor._resize_matrix(arr.shape[-1], ow).T
        want = np.empty(arr.shape[:-2] + (oh, ow), dtype)
        for i in np.ndindex(arr.shape[:-2]):
            want[i] = row @ arr[i].astype(np.float64) @ col
        return want

    @pytest.mark.parametrize("planes", [1, 2, 3])
    def test_chunks_equal_a_plane_loop(self, rng, monkeypatch, planes):
        # 5 planes per leading index: chunks of 1, 2+2+1 and 3+2
        per_plane = 8 * (6 * 7 + 9 * 7 + 9 * 11)
        monkeypatch.setattr(tensor, "_COLS_BYTES", planes * per_plane + per_plane - 1)
        for arr in (rng.random((2, 5, 6, 7), dtype=np.float32), rng.random((2, 5, 6, 7)),
                    rng.random((2, 10, 12, 21), dtype=np.float32)[:, ::2, ::2, ::3],
                    rng.random((6, 7), dtype=np.float32)):
            got = bicubic_resize_array(arr, 9, 11)
            assert got.dtype == arr.dtype
            np.testing.assert_array_equal(got, self._plane_loop(arr, 9, 11, arr.dtype))
        arr = rng.random((2, 5, 6, 7), dtype=np.float32)
        stack = np.full((2, 8, 9, 11), np.nan)
        bicubic_resize_array(arr, 9, 11, out=stack[:, 2:7])
        np.testing.assert_array_equal(stack[:, 2:7], self._plane_loop(arr, 9, 11, np.float64))
        assert np.isnan(stack[:, :2]).all() and np.isnan(stack[:, 7:]).all()

    def test_cached_operator_is_read_only(self):
        op = tensor._resize_matrix(7, 13)
        assert tensor._resize_matrix(7, 13) is op
        with pytest.raises(ValueError):
            op[0, 0] = 1.0

    def test_holds_one_chunk_of_float64_temporaries(self, rng):
        # all 31 bands of a sample fit in one chunk; the batch is not cast whole
        x = rng.random((4, 31, 8, 8), dtype=np.float32)
        bicubic_resize_array(x, 32, 32)  # the operator is cached from here on
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            up = bicubic_resize_array(x, 32, 32)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - up.nbytes <= 31 * 8 * (8 * 8 + 32 * 8 + 32 * 32)

    def test_rejects_tracked_input(self, rng):
        g = Graph()
        x = g.leaf(rng.random((1, 1, 4, 4)))
        with pytest.raises(ParameterError):
            bicubic_resize(x, 8, 8)

    def test_into_a_given_array(self, rng):
        arr = rng.random((2, 3, 5, 4), dtype=np.float32)
        stack = np.empty((4, 3, 10, 8), dtype=np.float32)
        bicubic_resize(Tensor(arr), 10, 8, out=stack[1:3])
        np.testing.assert_array_equal(stack[1:3], bicubic_resize_array(arr, 10, 8))
        with pytest.raises(DimensionError):
            bicubic_resize_array(arr, 10, 8, out=stack[:1])

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

    def test_gate_channels_two_consumers(self):
        # one 2C mask gates two C-channel maps, as in an embedding unit: each
        # map takes its half, and each half of the gradient comes from its map
        g = Graph()
        mask = g.leaf(np.array([0.0, 1.0, 0.5, 2.0, -1.0, 0.25]))
        a = np.arange(12, dtype=np.float64).reshape(1, 3, 2, 2)
        b = np.ones((1, 3, 2, 2))
        ga, gb = gate_channels(Tensor(a), mask), gate_channels(Tensor(b), mask, 3)
        np.testing.assert_array_equal(ga.data, a * mask.data[:3].reshape(1, 3, 1, 1))
        np.testing.assert_array_equal(gb.data, b * mask.data[3:].reshape(1, 3, 1, 1))
        grad = backward(mean_all(add(ga, gb)))[mask.node_id]
        # per channel: that map's channel sum, over the 12 elements of the mean
        np.testing.assert_allclose(grad[:3], a.sum(axis=(0, 2, 3)) / 12)
        np.testing.assert_allclose(grad[3:], b.sum(axis=(0, 2, 3)) / 12)

    def test_gate_channels_errors(self, rng):
        x = Tensor(rng.random((2, 3, 4, 4)))
        with pytest.raises(DimensionError):
            gate_channels(x, Tensor(rng.random((1, 3))))
        for start in (-1, 2, 5):
            with pytest.raises(ParameterError):
                gate_channels(x, Tensor(rng.random(4)), start)
        with pytest.raises(ParameterError):
            gate_channels(x, Tensor(rng.random(3, dtype=np.float32)))

    def test_scale(self, rng):
        x = rng.random(5, dtype=np.float32)
        np.testing.assert_allclose(scale(Tensor(x), -2.5).data, x * np.float32(-2.5))

    def test_broadcast_error(self, rng):
        with pytest.raises(DimensionError):
            add(Tensor(rng.random((2, 3), dtype=np.float32)),
                Tensor(rng.random((2, 4), dtype=np.float32)))
        # shapes numpy would broadcast are rejected too: operands match exactly
        for op in (add, sub, mul):
            with pytest.raises(DimensionError):
                op(Tensor(rng.random((2, 3, 4, 4))), Tensor(rng.random((1, 3, 1, 1))))

    def test_mixed_dtype_error(self, rng):
        with pytest.raises(ParameterError):
            add(Tensor(rng.random(3, dtype=np.float32)), Tensor(rng.random(3)))


class TestGraphAndBackward:
    def test_mean_gradient_is_uniform(self, rng):
        g = Graph()
        x = g.leaf(rng.uniform(-1, 1, (3, 4)))
        grads = backward(mean_all(x))
        np.testing.assert_array_equal(grads[x.node_id], np.full((3, 4), 1 / 12))

    def test_half_square_gradient_is_x(self, rng):
        xv = rng.uniform(-1, 1, (4, 5))
        g = Graph()
        x = g.leaf(xv)
        s = scale(mean_all(mul(x, x)), 0.5 * xv.size)
        np.testing.assert_allclose(backward(s)[x.node_id], xv, atol=1e-12)

    def test_multi_consumer_accumulation(self, rng):
        # mean(x + x) (two consumers of the same node): 2/6 per element
        g = Graph()
        x = g.leaf(rng.uniform(-1, 1, 6))
        grads = backward(mean_all(add(x, x)))
        np.testing.assert_array_equal(grads[x.node_id], np.full(6, 2 / 6))

    def test_leaf_for_shares_one_node(self):
        from hssr.tensor import Param

        p = Param("w", np.ones(3))
        g = Graph()
        a = g.leaf_for(p)
        b = g.leaf_for(p)
        assert a.node_id == b.node_id
        grads = backward(mean_all(add(a, b)))
        np.testing.assert_array_equal(grads[a.node_id], np.full(3, 2 / 3))

    def test_backward_releases_the_nodes_it_runs(self, rng):
        # the list keeps its length (tape-node counts read it afterwards);
        # every node the sweep reached is released, a branch it never
        # reached is kept
        g = Graph()
        x = g.leaf(rng.random(4))
        y = g.leaf(rng.random(4))
        r = relu(x)
        off = sigmoid(y)  # not on the loss's path
        m = mul(x, r)
        s = mean_all(m)
        n = len(g.nodes)
        backward(s)
        assert len(g.nodes) == n
        assert all(g.nodes[t.node_id] is None for t in (x, r, m, s))
        assert g.nodes[y.node_id] is not None and g.nodes[off.node_id] is not None

    def test_backward_twice_is_rejected(self, rng):
        g = Graph()
        x = g.leaf(rng.random(3))
        s = mean_all(mul(x, x))
        backward(s)
        with pytest.raises(ParameterError, match="already backpropagated"):
            backward(s)

    def test_new_loss_on_a_consumed_graph_is_rejected(self, rng):
        g = Graph()
        x = g.leaf(rng.random(3))
        h = relu(x)
        backward(mean_all(h))
        with pytest.raises(ParameterError, match="already backpropagated"):
            backward(mean_all(scale(h, 2.0)))

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
