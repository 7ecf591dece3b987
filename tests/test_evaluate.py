"""Monte-Carlo inference, uncertainty maps, metrics, and reports."""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import affine_net, uncertainty
from oracles import mpsnr_loop, mssim_loop, sam_loop, uncertainty_loop

from hssr import evaluate, model, tensor
from hssr.errors import DimensionError, ParameterError
from hssr.evaluate import (
    MetricsReport,
    evaluate_pairs,
    mc_infer,
    mc_mean,
    mc_samples,
    mc_uncertainty,
    mpsnr,
    mssim,
    report_csv,
    report_text,
    sam,
)
from hssr.hsdata import HSCube
from hssr.model import NetConfig, build_net, forward, parameters


def small_net(seed=0):
    cfg = NetConfig(bands=3, scale=2, stages=2, units_per_stage=2, channels=8)
    return build_net(cfg, np.random.default_rng(seed))


def _cube(rng, b=3, h=8, w=8, name="c"):
    return HSCube(rng.uniform(0.1, 0.9, (b, h, w)).astype(np.float32), name=name)


def _bin_edge_samples():
    """Samples [1, 2, 772] at exact midpoints between 1/255 bins and one ulp
    either side of them, outside [0, 1], NaN and +-inf, and their mean
    clamped as mc_infer's is."""
    k = np.arange(256.0)
    mids = np.concatenate([(k - 0.5) / 255.0, (k + 0.5) / 255.0])
    odd = [-1.0, -0.5 / 255.0, 1.0 + 0.5 / 255.0, 1.5, 300.0, np.nan, np.inf, -np.inf]
    v = np.concatenate([mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf), odd])
    v = v.reshape(1, 2, -1)
    mean = np.nan_to_num(np.clip(v, 0.0, 1.0), nan=0.5)
    return [v, np.roll(v, 1), np.roll(v, -1), v.astype(np.float32)], mean


class TestMcInfer:
    def test_single_sample_mean_is_clipped_sample(self, rng):
        net = small_net()
        mean, samples = mc_infer(net, _cube(rng), n=1, seed=0)
        assert len(samples) == 1
        np.testing.assert_array_equal(
            mean.values, np.clip(samples[0].values, 0.0, 1.0).astype(np.float32)
        )

    def test_open_gates_make_sampling_deterministic(self, rng):
        net = small_net()
        for p in parameters(net):
            if p.name.endswith(("gate_k", "gate_l")):
                p.data = np.full_like(p.data, 30.0)
        cube = _cube(rng)
        _, samples = mc_infer(net, cube, n=4, seed=1)
        ref, _ = forward(net, cube.values[None], "warmup")
        for s in samples:
            np.testing.assert_array_equal(s.values, ref.data[0])

    def test_batched_equals_sequential(self, rng, monkeypatch):
        net = small_net()
        cube = _cube(rng)
        # 5184 B: 2 rows of the HR tail conv's column buffer and strip (8 blocks of 2)
        for cols_bytes in (tensor._COLS_BYTES, 5184):
            monkeypatch.setattr(tensor, "_COLS_BYTES", cols_bytes)
            mean_b, samp_b = mc_infer(net, cube, n=5, seed=7)
            # sequential reference: one single-sample forward per substream
            seq = []
            for ss in np.random.SeedSequence(7).spawn(5):
                y, _ = forward(net, cube.values[None], "sample",
                               rng=np.random.default_rng(ss))
                seq.append(y.data[0])
            for a, b in zip(samp_b, seq):
                np.testing.assert_array_equal(a.values, b)
            np.testing.assert_array_equal(
                mean_b.values,
                np.clip(np.mean(np.stack(seq), axis=0), 0.0, 1.0).astype(np.float32))

    def test_peak_memory_grows_only_by_the_output_cubes(self, rng):
        # one sample's activations at a time: going from N=1 to N=8 adds the
        # 7 extra cubes of the returned stack, plus one cube of slack for
        # interpreter bookkeeping
        net = small_net()
        cube = _cube(rng, h=32, w=32)
        mc_infer(net, cube, n=1, seed=0)  # warm up lazily built state
        peaks = {}
        for n in (1, 8):
            gc.collect()
            tracemalloc.start()
            try:
                mc_infer(net, cube, n=n, seed=0)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        out_cube = 4 * 3 * 64 * 64
        assert peaks[8] - peaks[1] <= 8 * out_cube, peaks

    def test_seed_reproducibility(self, rng):
        net = small_net()
        cube = _cube(rng)
        a, _ = mc_infer(net, cube, n=3, seed=5)
        b, _ = mc_infer(net, cube, n=3, seed=5)
        c, _ = mc_infer(net, cube, n=3, seed=6)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_names_and_shapes(self, rng):
        net = small_net()
        mean, samples = mc_infer(net, _cube(rng, name="scene"), n=2, seed=0)
        assert mean.name == "scene"
        assert [s.name for s in samples] == ["scene_s0", "scene_s1"]
        assert mean.values.shape == (3, 16, 16)
        assert mean.values.dtype == np.float32

    def test_argument_validation(self, rng):
        net = small_net()
        with pytest.raises(ParameterError):
            mc_infer(net, _cube(rng), n=0, seed=0)
        with pytest.raises(DimensionError):
            mc_infer(net, rng.uniform(size=(3, 8)), n=1, seed=0)


class TestMcMean:
    @pytest.mark.parametrize("scale", [2, 4, 8])
    @pytest.mark.parametrize("hw", [(1, 1), (1, 5), (2, 2), (3, 3), (5, 7), (32, 32)])
    def test_matches_mc_infer_mean(self, rng, scale, hw):
        net = affine_net(scale, stages=3)
        cube = _cube(rng, h=hw[0], w=hw[1], name="m")
        want, _ = mc_infer(net, cube, n=3, seed=4)
        got = mc_mean(net, cube, n=3, seed=4)
        assert got.name == "m" and got.values.dtype == np.float32
        assert got.values.shape == want.values.shape
        assert np.abs(got.values - want.values).max() <= 1e-5

    @pytest.mark.parametrize("scale", [2, 4, 8])
    @pytest.mark.parametrize("hw", [(1, 1), (1, 5), (2, 2), (3, 3), (5, 7), (32, 32)])
    def test_open_gates_give_the_warmup_forward(self, rng, scale, hw):
        net = affine_net(scale, stages=3)
        for p in parameters(net):
            if p.name.endswith(("gate_k", "gate_l")):
                p.data = np.full_like(p.data, 30.0)
        cube = _cube(rng, h=hw[0], w=hw[1])
        ref, _ = forward(net, cube.values[None], "warmup")
        got = mc_mean(net, cube, n=4, seed=2)
        assert np.abs(got.values - np.clip(ref.data[0], 0.0, 1.0)).max() <= 1e-6

    def test_peak_memory_does_not_grow_with_n(self, rng):
        net = small_net()
        cube = _cube(rng, h=32, w=32)
        mc_mean(net, cube, n=1, seed=0)  # warm up lazily built state
        peaks = {}
        for n in (1, 8):
            gc.collect()
            tracemalloc.start()
            try:
                mc_mean(net, cube, n=n, seed=0)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        out_cube = 4 * 3 * 64 * 64
        assert peaks[8] - peaks[1] < out_cube, peaks

    def test_later_stages_add_no_hr_cube_to_the_peak(self, rng):
        # each stage's correction is added into the output cube in place, so
        # a second stage costs LR-sized state only, not another HR cube
        cube = _cube(rng, b=8, h=32, w=32)
        hr_cube = 4 * 8 * 128 * 128
        peaks = {}
        for stages in (1, 2):
            net = build_net(NetConfig(bands=8, scale=4, stages=stages, units_per_stage=1,
                                      channels=4), np.random.default_rng(0))
            mc_mean(net, cube, n=2, seed=0)
            gc.collect()
            tracemalloc.start()
            try:
                mc_mean(net, cube, n=2, seed=0)
                peaks[stages] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2] - peaks[1] < hr_cube / 2, (peaks, hr_cube)

    def test_sample_loop_holds_no_hr_cube(self, rng, monkeypatch):
        # the output base is made after the LR sample loop, so what is alive
        # when a sample's stage starts is the LR state (x, degrade(base), the
        # feature sums, the chain kernels: under half an HR cube here), not
        # also the 8x128x128 output cube
        cube = _cube(rng, b=8, h=32, w=32)
        hr_cube = 4 * 8 * 128 * 128
        net = build_net(NetConfig(bands=8, scale=4, stages=2, units_per_stage=1, channels=4),
                        np.random.default_rng(0))
        mc_mean(net, cube, n=2, seed=0)  # warm up lazily built state
        held = []
        features = model.stage_features

        def traced(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return features(*args, **kwargs)

        monkeypatch.setattr(model, "stage_features", traced)
        gc.collect()
        tracemalloc.start()
        try:
            mc_mean(net, cube, n=2, seed=0)
        finally:
            tracemalloc.stop()
        assert len(held) == 4
        assert max(held) < hr_cube, (held, hr_cube)

    def test_argument_validation(self, rng):
        net = small_net()
        with pytest.raises(ParameterError):
            mc_mean(net, _cube(rng), n=0, seed=0)
        with pytest.raises(DimensionError):
            mc_mean(net, rng.uniform(size=(3, 8)), n=1, seed=0)
        with pytest.raises(DimensionError):
            mc_mean(net, _cube(rng, b=4), n=1, seed=0)


class TestMcSamples:
    def test_yields_mc_infer_samples_in_one_buffer(self, rng):
        net = small_net()
        cube = _cube(rng, name="scene")
        _, want = mc_infer(net, cube, n=4, seed=2)
        seen = []
        for i, s in enumerate(mc_samples(net, cube, n=4, seed=2)):
            # each sample is compared before the next draw overwrites it
            assert s.name == want[i].name == f"scene_s{i}"
            assert s.values.dtype == np.float32
            assert s.values.tobytes() == want[i].values.tobytes(), i
            seen.append(s.values)
        assert len(seen) == 4
        assert all(np.shares_memory(v, seen[0]) for v in seen[1:])

    @pytest.mark.parametrize("n, seed, shape, err", [
        (2, -1, (3, 8, 8), ParameterError),
        (0, 0, (3, 8, 8), ParameterError),
        (1, 0, (3, 8), DimensionError),
    ], ids=["negative_seed", "no_samples", "2d_cube"])
    def test_argument_errors_come_at_the_first_draw(self, rng, n, seed, shape, err):
        samples = mc_samples(small_net(), rng.uniform(size=shape), n=n, seed=seed)
        with pytest.raises(err):
            next(samples)


@pytest.mark.parametrize("fn", [mc_mean, mc_infer, mc_uncertainty],
                         ids=["mc_mean", "mc_infer", "mc_uncertainty"])
def test_negative_seed_is_parameter_error(rng, fn):
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        fn(small_net(), _cube(rng), n=2, seed=-1)


class TestMcUncertainty:
    @pytest.mark.parametrize("n", [2, 3, 10, 255, 256])
    def test_counts_equal_uncertainty_of_mc_infer(self, rng, n):
        net = small_net()
        cube = _cube(rng)
        want = uncertainty(*reversed(mc_infer(net, cube, n, seed=3)))
        got = mc_uncertainty(net, cube, n, seed=3)
        assert got.n_samples == n and got.counts.dtype == want.counts.dtype
        np.testing.assert_array_equal(got.counts, want.counts)
        assert want.counts.any()

    def test_stored_bins_disagree_as_uncertainty_does(self):
        samples, mean = _bin_edge_samples()
        ref_bin = evaluate._bins(mean[0], np.empty(mean.shape[1:]))
        counts = np.zeros(mean.shape, dtype=np.uint8)
        for bins, bits in map(evaluate._store_bins, samples):
            counts[0] += evaluate._stored_disagree(bins[0], bits[0], ref_bin)
        np.testing.assert_array_equal(counts, uncertainty(samples, mean).counts)

    def test_odd_samples_count_as_in_uncertainty_of_mc_infer(self, monkeypatch):
        # the same samples, each written by a stand-in for refine, so the mean
        # itself is NaN or out of range at some pixels before it is clamped
        samples, _ = _bin_edge_samples()
        feed = itertools.cycle(samples)

        def refine(net, x, y, mode, rng):
            y[0] = next(feed)
            return y

        monkeypatch.setattr(evaluate, "refine", refine)
        net = build_net(NetConfig(bands=1, scale=2, stages=1, units_per_stage=1, channels=4),
                        np.random.default_rng(0))
        cube = np.zeros((1, 1, 386), dtype=np.float32)
        with np.errstate(invalid="ignore"):
            want = uncertainty(*reversed(mc_infer(net, cube, 4, seed=0)))
            got = mc_uncertainty(net, cube, 4, seed=0)
        np.testing.assert_array_equal(got.counts, want.counts)
        assert len(np.unique(want.counts)) >= 3

    def test_memory_grows_by_one_byte_and_one_bit_per_hr_value_and_sample(self, rng):
        # two float32 HR cubes whatever N is; each sample but the last keeps
        # 1.125 bytes per HR value, where mc_infer keeps its 4-byte float
        net = small_net()
        cube = _cube(rng, h=32, w=32)
        mc_uncertainty(net, cube, n=2, seed=0)  # warm up lazily built state
        peaks = {}
        for n in (2, 10):
            gc.collect()
            tracemalloc.start()
            try:
                mc_uncertainty(net, cube, n=n, seed=0)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        values, band = 3 * 64 * 64, 64 * 64 * 8
        assert peaks[10] - peaks[2] <= (10 - 1) * 1.125 * values + band, peaks

    def test_argument_validation(self, rng):
        net = small_net()
        with pytest.raises(ParameterError):
            mc_uncertainty(net, _cube(rng), n=1, seed=0)
        with pytest.raises(DimensionError):
            mc_uncertainty(net, rng.uniform(size=(3, 8)), n=2, seed=0)


class TestUncertainty:
    def test_identical_samples_score_zero(self, rng):
        v = rng.uniform(size=(2, 4, 4)).astype(np.float32)
        umap = uncertainty([HSCube(v.copy()) for _ in range(3)], HSCube(v))
        np.testing.assert_array_equal(umap.values, 0.0)
        assert umap.n_samples == 3

    def test_one_dissenting_sample_of_four(self):
        base = np.full((1, 2, 2), 100.0 / 255.0, dtype=np.float64)
        odd = base.copy()
        odd[0, 0, 0] = 104.0 / 255.0
        umap = uncertainty([base, base, base, odd], base)
        assert umap.values[0, 0, 0] == 25.0
        assert np.count_nonzero(umap.values) == 1

    def test_sub_bin_jitter_is_invisible(self):
        base = (np.arange(16, dtype=np.float64).reshape(1, 4, 4) * 10 + 3) / 255.0
        jitter = base + 0.4 / 255.0
        umap = uncertainty([base, jitter], base)
        np.testing.assert_array_equal(umap.values, 0.0)

    def test_non_finite_sample_values_disagree(self):
        base = np.full((1, 1, 4), 100.0 / 255.0, dtype=np.float32)
        odd = base.copy()
        odd[0, 0, :3] = [np.nan, np.inf, -np.inf]
        umap = uncertainty([base, odd], base)
        np.testing.assert_array_equal(umap.counts, [[[1, 1, 1, 0]]])
        np.testing.assert_array_equal(umap.values, [[[50.0, 50.0, 50.0, 0.0]]])

    @pytest.mark.parametrize("n", [2, 255, 256])
    def test_counts_are_the_smallest_unsigned_type(self, n):
        v = np.zeros((1, 1, 1))
        umap = uncertainty([v + 1.0] * (n - 1) + [v], v)
        assert umap.counts.dtype == np.min_scalar_type(n)
        assert umap.counts[0, 0, 0] == n - 1

    def test_matches_loop_oracle_exactly(self, rng):
        mean = rng.integers(0, 256, (3, 6, 6)).astype(np.float64) / 255.0
        samples = [
            np.clip(mean + rng.choice([-3, 0, 2], mean.shape) / 255.0, 0, 1)
            for _ in range(5)
        ]
        umap = uncertainty(samples, mean)
        np.testing.assert_array_equal(umap.values, uncertainty_loop(samples, mean))

    def test_matches_loop_oracle_at_bin_edges_and_non_finite_values(self):
        samples, mean = _bin_edge_samples()
        umap = uncertainty(samples, mean)
        want = uncertainty_loop(samples, mean)
        np.testing.assert_array_equal(umap.values, want)
        assert len(np.unique(want)) >= 3  # the samples agree at some pixels, not at others

    def test_written_fraction_equals_percent_over_100(self):
        # `hssr uncertainty` writes float32(counts / N); for every count of
        # every N up to 4096 that is the float32 of the percentage over 100
        for n in range(2, 4097):
            c = np.arange(n + 1, dtype=np.min_scalar_type(n))
            np.testing.assert_array_equal((c / n).astype(np.float32),
                                          (100.0 * c / n / 100.0).astype(np.float32))

    @given(st.integers(2, 9), st.integers(0, 100))
    def test_values_are_multiples_of_quantum(self, n, seed):
        rng = np.random.default_rng(seed)
        mean = rng.uniform(size=(2, 3, 3))
        samples = [mean + rng.normal(0, 0.01, mean.shape) for _ in range(n)]
        umap = uncertainty(samples, mean)
        counts = umap.values * n / 100.0
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)
        assert umap.values.min() >= 0.0 and umap.values.max() <= 100.0

    def test_peak_memory_is_the_map_plus_band_temporaries(self, rng):
        # float32 cubes as `hssr uncertainty` passes them; nothing cube-sized
        # beyond the returned one-byte counts: two float64 bands of bins and
        # one bool band of disagreements
        mean = rng.uniform(size=(16, 64, 64)).astype(np.float32)
        samples = [HSCube(np.clip(mean + rng.normal(0, 0.01, mean.shape).astype(np.float32),
                                  0, 1)) for _ in range(3)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            umap = uncertainty(samples, HSCube(mean))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        band = 64 * 64 * np.dtype(np.float64).itemsize
        assert umap.counts.nbytes == 16 * 64 * 64
        assert peak - umap.counts.nbytes <= 2.5 * band, peak

    def test_argument_validation(self, rng):
        v = rng.uniform(size=(1, 2, 2))
        with pytest.raises(ParameterError):
            uncertainty([v], v)
        with pytest.raises(DimensionError):
            uncertainty([v, rng.uniform(size=(1, 2, 3))], v)


class TestMpsnr:
    def test_identity_is_cap(self, rng):
        v = rng.uniform(size=(4, 8, 8)).astype(np.float32)
        assert mpsnr(v, v) == 100.0

    def test_uniform_offset_closed_form(self):
        ref = np.full((2, 8, 8), 0.5)
        assert abs(mpsnr(ref + 0.1, ref) - 20.0) < 1e-10

    def test_band_averaging(self, rng):
        ref = rng.uniform(0.2, 0.8, (2, 8, 8))
        pred = ref.copy()
        pred[1] += 0.1  # band 0 perfect (cap), band 1 at 20 dB
        assert abs(mpsnr(pred, ref) - 60.0) < 1e-10

    def test_matches_loop_oracle(self, rng):
        for _ in range(5):
            ref = rng.uniform(size=(3, 9, 7))
            pred = ref + rng.normal(0, 0.05, ref.shape)
            assert abs(mpsnr(pred, ref) - mpsnr_loop(pred, ref)) < 1e-6

    def test_monotone_in_noise(self, rng):
        ref = rng.uniform(0.3, 0.7, (3, 16, 16))
        noise = rng.normal(0, 1, ref.shape)
        scores = [mpsnr(ref + a * noise, ref) for a in (0.01, 0.05, 0.1)]
        assert scores[0] > scores[1] > scores[2]

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            mpsnr(rng.uniform(size=(1, 4, 4)), rng.uniform(size=(1, 4, 5)))


class TestMssim:
    def test_identity_is_one(self, rng):
        v = rng.uniform(size=(3, 12, 12))
        assert mssim(v, v) == 1.0

    def test_constant_images_luminance_form(self):
        a, b = 0.4, 0.6
        pred = np.full((1, 12, 12), a)
        ref = np.full((1, 12, 12), b)
        want = (2 * a * b + 0.01 ** 2) / (a * a + b * b + 0.01 ** 2)
        assert abs(mssim(pred, ref) - want) < 1e-12

    def test_matches_loop_oracle(self, rng):
        for _ in range(3):
            ref = rng.uniform(size=(2, 13, 15))
            pred = np.clip(ref + rng.normal(0, 0.08, ref.shape), 0, 1)
            assert abs(mssim(pred, ref) - mssim_loop(pred, ref)) < 1e-5

    def test_degrades_with_noise(self, rng):
        ref = rng.uniform(0.3, 0.7, (2, 16, 16))
        noise = rng.normal(0, 1, ref.shape)
        a = mssim(np.clip(ref + 0.02 * noise, 0, 1), ref)
        b = mssim(np.clip(ref + 0.10 * noise, 0, 1), ref)
        assert a > b

    def test_small_extent_rejected(self, rng):
        v = rng.uniform(size=(1, 10, 12))
        with pytest.raises(ParameterError):
            mssim(v, v)


class TestSam:
    def test_identity_is_exact_zero(self, rng):
        v = rng.uniform(size=(5, 6, 6)).astype(np.float32)
        assert sam(v, v) == 0.0

    def test_orthogonal_spectra(self):
        pred = np.zeros((2, 3, 3))
        ref = np.zeros((2, 3, 3))
        pred[0] = 0.8
        ref[1] = 0.5
        assert abs(sam(pred, ref) - 90.0) < 1e-10

    def test_known_angle(self):
        # spectra (1, 0) vs (1, 1): 45 degrees at every pixel
        pred = np.stack([np.ones((4, 4)), np.zeros((4, 4))])
        ref = np.ones((2, 4, 4))
        assert abs(sam(pred, ref) - 45.0) < 1e-10

    def test_matches_loop_oracle(self, rng):
        for _ in range(5):
            ref = rng.uniform(0.1, 1.0, (4, 5, 5))
            pred = np.abs(ref + rng.normal(0, 0.1, ref.shape))
            assert abs(sam(pred, ref) - sam_loop(pred, ref)) < 1e-6

    def test_scale_invariance(self, rng):
        ref = rng.uniform(0.1, 1.0, (4, 6, 6))
        pred = np.abs(ref + rng.normal(0, 0.1, ref.shape))
        base = sam(pred, ref)
        assert sam(4.0 * pred, ref) == base  # power-of-two: bitwise
        assert abs(sam(3.7 * pred, ref) - base) < 1e-6
        assert abs(sam(pred, 0.1 * ref) - base) < 1e-6

    def test_requires_three_dims(self, rng):
        with pytest.raises(DimensionError):
            sam(rng.uniform(size=(4, 4)), rng.uniform(size=(4, 4)))


class TestReports:
    def _report(self, rng):
        ref = _cube(rng, h=12, w=12, name="a")
        pred = HSCube(
            np.clip(ref.values + rng.normal(0, 0.02, ref.values.shape), 0, 1).astype(
                np.float32
            ),
            name="a",
        )
        return evaluate_pairs([("a", pred, ref), ("b", ref, ref)])

    def test_mean_row_is_column_mean(self, rng):
        rep = self._report(rng)
        assert rep.mpsnr == pytest.approx(np.mean([r[1] for r in rep.rows]))
        assert rep.rows[1][1] == 100.0 and rep.rows[1][2] == 1.0 and rep.rows[1][3] == 0.0

    def test_scoring_memory_does_not_grow_with_band_count(self, rng):
        # the metrics work one float64 band at a time: scoring 31 bands takes
        # no more transient memory than scoring 2, up to one float64 band
        peaks = {}
        for bands in (2, 31):
            ref = rng.random((bands, 64, 64), dtype=np.float32)
            pred = np.clip(ref + rng.normal(0, 0.05, ref.shape), 0, 1).astype(np.float32)
            evaluate_pairs([("a", pred, ref)])  # warm up lazily built state
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                evaluate_pairs([("a", pred, ref)])
                peaks[bands] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peaks[31] - peaks[2] <= 64 * 64 * 8, peaks

    def test_csv_layout(self, rng):
        lines = report_csv(self._report(rng)).splitlines()
        assert lines[0] == "cube,mpsnr,mssim,sam"
        assert len(lines) == 4
        assert lines[1].startswith("a,") and lines[2].startswith("b,")
        assert lines[3].startswith("MEAN,")
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 4
            for cell in cells[1:]:
                assert len(cell.split(".")[1]) == 6  # %.6f fields

    def test_text_layout(self, rng):
        text = report_text(self._report(rng))
        lines = text.splitlines()
        assert lines[0].startswith("cube=a mpsnr=")
        assert lines[-1].startswith("mean mpsnr=")

    def test_empty_report(self):
        assert report_csv(MetricsReport()).splitlines()[0] == "cube,mpsnr,mssim,sam"
