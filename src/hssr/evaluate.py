"""Monte-Carlo inference, epistemic uncertainty, and image-quality metrics.

Inference draws N hard gate configurations (independent substreams spawned
from one seed) and averages the N reconstructions. `mc_mean` returns only
the clamped mean: each sample runs the gated LR half of every stage, and the
affine HR half (head, pixel shuffle, tail) runs once per stage on the mean
features, so no HR sample is built and memory does not grow with N; its
output cube is made after the samples, so the sample loop holds no HR cube.
`mc_samples` is the one loop that builds HR samples one at a time: it
refines sample i into one reused float32 slot and yields it, so a consumer
holds one sample whatever N is. `hssr sr --save-samples` writes each
sample as it comes, and `mc_uncertainty` counts the samples' disagreement
with their clamped mean from a running float32 sum, keeping each earlier
sample only as its 1/255 bins, 1.125 bytes per value. `mc_infer` returns
the mean and every sample, refined in their slots of one [N, B, H, W]
stack, so it grows with N by the N output cubes. All of them add each
stage's HR half into their output in bands of rows (`model.finish_stage`),
so beyond the output cubes the HR side holds a few band-sized buffers, not
whole cubes.

All metrics are computed in float64, one band at a time, so their
temporaries are band-sized; MSSIM filters its five moment maps (x, y, x^2,
y^2, xy) one at a time. MPSNR averages per-band PSNR (peak 1), MSSIM
averages per-band SSIM with the reference 11x11 Gaussian window, and SAM is
the mean per-pixel spectral angle in degrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError
from .hsdata import HSCube
from .model import SRNet, mean_estimate, refine
from .tensor import Tensor

__all__ = [
    "UncertaintyMap",
    "MetricsReport",
    "mc_mean",
    "mc_infer",
    "mc_samples",
    "mc_uncertainty",
    "mpsnr",
    "mssim",
    "sam",
    "evaluate_pairs",
    "report_text",
    "report_csv",
]

_PSNR_CAP = 100.0  # dB assigned when the error is exactly zero
_SSIM_WINDOW = 11  # extent and spread of the reference SSIM's Gaussian window
_SSIM_SIGMA = 1.5


@dataclass
class UncertaintyMap:
    """Per-pixel counts of samples that disagree with the mean; `hssr
    uncertainty` writes counts / n_samples."""

    counts: np.ndarray  # [B, H, W] in 0..n_samples, dtype np.min_scalar_type(n_samples)
    n_samples: int

    @property
    def values(self) -> np.ndarray:
        """The whole map as float64 percentages, [B, H, W] in [0, 100],
        each a multiple of 100/N."""
        return 100.0 * self.counts / self.n_samples


@dataclass
class MetricsReport:
    rows: list = field(default_factory=list)  # (cube name, mpsnr, mssim, sam)

    def _mean(self, col: int) -> float:
        return float(np.mean([r[col] for r in self.rows])) if self.rows else float("nan")

    @property
    def mpsnr(self) -> float:
        return self._mean(1)

    @property
    def mssim(self) -> float:
        return self._mean(2)

    @property
    def sam(self) -> float:
        return self._mean(3)


def _values(x) -> np.ndarray:
    return x.values if isinstance(x, HSCube) else np.asarray(x)


# ---------------------------------------------------------------------------
# inference


def _lr_input(cube, n: int, seed):
    if n < 1:
        raise ParameterError(f"need at least one sample, got {n}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    x = _values(cube)
    if x.ndim != 3:
        raise DimensionError(f"expected a [B,h,w] cube, got shape {x.shape}")
    name = cube.name if isinstance(cube, HSCube) else ""
    return Tensor(x[None].astype(np.float32)), name


def _sample_rngs(n: int, seed):
    return (np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(n))


def mc_mean(net: SRNet, cube, n: int, seed, chains: list = None) -> HSCube:
    """The clamped mean of `mc_infer`'s N samples, without building them.

    Sample i draws its gates from the i-th substream of SeedSequence(seed),
    as in `mc_infer`; the result matches `mc_infer`'s mean to float32
    rounding (the affine half runs once, on the mean features). `chains`,
    `model.chain_plan` for the cube's extents, can be shared by every cube
    of those extents.
    """
    xb, name = _lr_input(cube, n, seed)
    y = mean_estimate(net, xb, _sample_rngs(n, seed), chains).data[0]
    return HSCube(np.clip(y, 0.0, 1.0, out=y), name=name)


def mc_infer(net: SRNet, cube, n: int, seed):
    """N stochastic reconstructions and their clamped mean.

    Returns (mean HSCube, list of N sample HSCubes): `mc_samples`' samples,
    each refined in its own slot of one float32 [N,B,H,W] stack and kept
    there as a view.
    """
    xb, name = _lr_input(cube, n, seed)
    _, b, h, w = xb.shape
    a = net.cfg.scale
    stack = np.empty((n, b, h * a, w * a), dtype=np.float32)
    for i, rng in enumerate(_sample_rngs(n, seed)):
        refine(net, xb, stack[i:i + 1], "sample", rng)
    mean = np.mean(stack, axis=0)
    samples = [HSCube(stack[i], name=f"{name}_s{i}") for i in range(n)]
    return HSCube(np.clip(mean, 0.0, 1.0, out=mean), name=name), samples


def mc_samples(net: SRNet, cube, n: int, seed):
    """The N stochastic reconstructions, one at a time.

    Sample i is one single-sample HR estimate on the i-th substream of
    SeedSequence(seed), so it does not depend on N. It is refined into one
    reused float32 slot and yielded as an HSCube view of it named
    `<cube>_s<i>`, valid until the next draw. The arguments are checked at
    the first draw.
    """
    xb, name = _lr_input(cube, n, seed)
    _, b, h, w = xb.shape
    a = net.cfg.scale
    slot = np.empty((1, b, h * a, w * a), dtype=np.float32)
    for i, rng in enumerate(_sample_rngs(n, seed)):
        yield HSCube(refine(net, xb, slot, "sample", rng)[0], name=f"{name}_s{i}")


def _bins(plane: np.ndarray, out: np.ndarray) -> np.ndarray:
    """round(plane * 255) in float64, written into `out`."""
    out[...] = plane
    out *= 255.0
    return np.round(out, out=out)


def _store_bins(v: np.ndarray) -> tuple:
    """The bins round(v * 255) of a [B, H, W] sample in one byte plus one bit
    per value: (uint8 bins, per band np.packbits of where the bin is NaN or
    outside 0..255, which no clamped mean's bin can equal)."""
    bins = np.empty(v.shape, dtype=np.uint8)
    bits = np.empty((v.shape[0], (v[0].size + 7) // 8), dtype=np.uint8)
    f = np.empty(v.shape[1:])
    for c in range(v.shape[0]):
        _bins(v[c], f)
        odd = ~((f >= 0.0) & (f <= 255.0))  # NaN too
        bits[c] = np.packbits(odd)
        f[odd] = 0.0
        bins[c] = f
    return bins, bits


def _stored_disagree(bins: np.ndarray, bits: np.ndarray, ref_bin: np.ndarray) -> np.ndarray:
    """Where one band of a `_store_bins` sample disagrees with the mean's bins."""
    odd = np.unpackbits(bits, count=ref_bin.size).reshape(ref_bin.shape)
    return (bins != ref_bin) | odd.view(bool)


def mc_uncertainty(net: SRNet, cube, n: int, seed) -> UncertaintyMap:
    """Per pixel, how many of `mc_samples`' N samples have a 1/255 bin
    round(v * 255) unequal to that of their clamped mean, as `mc_infer`
    makes it; a NaN or infinite sample value always disagrees. Holds two
    float32 HR cubes instead of N + 1.

    Sample 0 is copied into a running float32 sum and every later one added
    to it: the sums `np.mean` makes over `mc_infer`'s stack, in its order.
    Just before a sample's float values are lost, its bins are kept in one
    byte plus one bit per value (`_store_bins`). The last sample is compared
    from the stream's slot, after the sum has become the clamped mean; the
    counts are made band by band.
    """
    if n < 2:
        raise ParameterError(f"uncertainty needs >= 2 samples, got {n}")
    samples = mc_samples(net, cube, n, seed)
    acc, stored = next(samples).values.copy(), []
    for i, s in enumerate(samples, start=1):
        if i == 1:
            stored.append(_store_bins(acc))  # sample 0, before the sum takes in sample 1
        acc += s.values
        if i < n - 1:
            stored.append(_store_bins(s.values))  # before the next draw overwrites it
    acc /= n
    np.clip(acc, 0.0, 1.0, out=acc)
    counts = np.zeros(acc.shape, dtype=np.min_scalar_type(n))
    ref_bin, last_bin = np.empty(acc.shape[1:]), np.empty(acc.shape[1:])
    for c in range(acc.shape[0]):
        _bins(acc[c], ref_bin)
        counts[c] += _bins(s.values[c], last_bin) != ref_bin
        for bins, bits in stored:
            counts[c] += _stored_disagree(bins[c], bits[c], ref_bin)
    return UncertaintyMap(counts, n_samples=n)


# ---------------------------------------------------------------------------
# metrics


def _pair(a, b, op: str):
    av, bv = _values(a), _values(b)
    if av.shape != bv.shape:
        raise DimensionError(f"{op}: shapes {av.shape} and {bv.shape} differ")
    if av.ndim != 3:
        raise DimensionError(f"{op}: expected [B,H,W] cubes, got {av.shape}")
    return av, bv


def mpsnr(pred, ref) -> float:
    """Mean over bands of PSNR against peak 1.0; zero error scores 100 dB."""
    p, r = _pair(pred, ref, "mpsnr")
    mse = np.array([np.mean((p[b].astype(np.float64) - r[b].astype(np.float64)) ** 2)
                    for b in range(p.shape[0])])
    out = np.where(mse > 0, 10.0 * np.log10(1.0 / np.maximum(mse, 1e-300)), _PSNR_CAP)
    return float(np.mean(out))


_SMOOTH_BLOCK = 32  # output rows per Toeplitz block in _smooth_valid


def _toeplitz_block(w: np.ndarray) -> np.ndarray:
    """[B, B+k-1] operator whose row i holds the window at columns i..i+k-1."""
    k = w.size
    blk = np.zeros((_SMOOTH_BLOCK, _SMOOTH_BLOCK + k - 1))
    rows = np.arange(_SMOOTH_BLOCK)
    for t in range(k):
        blk[rows, rows + t] = w[t]
    return blk


def _smooth_valid(plane: np.ndarray, blk: np.ndarray) -> np.ndarray:
    """Separable valid-region filtering of one map [H, W].

    Each axis is filtered in blocks of up to B outputs: a block of r outputs
    is the top-left [r, r+k-1] corner of the Toeplitz block times the r+k-1
    inputs it reads, so no multiply touches the operator's zero band.
    """
    ext = blk.shape[1] - blk.shape[0]  # k - 1
    h, wd = plane.shape
    ho, wo = h - ext, wd - ext
    rows = np.empty((ho, wd))
    for r0 in range(0, ho, _SMOOTH_BLOCK):
        r = min(_SMOOTH_BLOCK, ho - r0)
        rows[r0:r0 + r] = blk[:r, :r + ext] @ plane[r0:r0 + r + ext]
    out = np.empty((ho, wo))
    for c0 in range(0, wo, _SMOOTH_BLOCK):
        c = min(_SMOOTH_BLOCK, wo - c0)
        out[:, c0:c0 + c] = rows[:, c0:c0 + c + ext] @ blk[:c, :c + ext].T
    return out


def mssim(pred, ref) -> float:
    """Mean over bands of SSIM (11x11 Gaussian window, sigma 1.5,
    C1=0.01^2, C2=0.03^2, valid-region averaging, unit dynamic range)."""
    p, r = _pair(pred, ref, "mssim")
    if p.shape[1] < _SSIM_WINDOW or p.shape[2] < _SSIM_WINDOW:
        raise ParameterError(
            f"mssim needs extents >= {_SSIM_WINDOW}, got {p.shape[1]}x{p.shape[2]}"
        )
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    t = np.arange(_SSIM_WINDOW, dtype=np.float64) - (_SSIM_WINDOW - 1) / 2.0
    w = np.exp(-(t * t) / (2.0 * _SSIM_SIGMA * _SSIM_SIGMA))
    blk = _toeplitz_block(w / w.sum())
    scores = []
    for b in range(p.shape[0]):
        x, y = p[b].astype(np.float64), r[b].astype(np.float64)
        mu_x, mu_y = _smooth_valid(x, blk), _smooth_valid(y, blk)
        var_x = _smooth_valid(x * x, blk) - mu_x * mu_x
        var_y = _smooth_valid(y * y, blk) - mu_y * mu_y
        cov = _smooth_valid(x * y, blk) - mu_x * mu_y
        num = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
        den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        scores.append(np.mean(num / den))
    return float(np.mean(scores))


def sam(pred, ref) -> float:
    """Mean per-pixel spectral angle in degrees.

    The denominator is floored at 1e-8 (rather than adding the guard to it)
    so the cosine of aligned spectra is not biased below 1, and pixels whose
    spectra are exactly equal score an exact zero angle -- sqrt rounding in
    the norms must not manufacture a positive angle out of identical inputs.
    """
    p, r = _pair(pred, ref, "sam")
    x, y = p[0].astype(np.float64), r[0].astype(np.float64)
    dot, pp, rr, same = x * y, x * x, y * y, x == y
    for b in range(1, p.shape[0]):
        x, y = p[b].astype(np.float64), r[b].astype(np.float64)
        dot += x * y
        pp += x * x
        rr += y * y
        same &= x == y
    den = np.maximum(np.sqrt(pp) * np.sqrt(rr), 1e-8)
    ang = np.degrees(np.arccos(np.clip(dot / den, -1.0, 1.0)))
    ang = np.where(same, 0.0, ang)
    return float(np.mean(ang))


# ---------------------------------------------------------------------------
# reports


def evaluate_pairs(pairs) -> MetricsReport:
    """pairs: an iterable of (name, predicted cube, reference cube) triples."""
    rep = MetricsReport()
    for name, pred, ref in pairs:
        rep.rows.append((name, mpsnr(pred, ref), mssim(pred, ref), sam(pred, ref)))
        del pred, ref  # a lazy `pairs` then holds one pair at a time
    return rep


def report_text(rep: MetricsReport) -> str:
    lines = [
        f"cube={name} mpsnr={m:.6f} mssim={s:.6f} sam={a:.6f}"
        for name, m, s, a in rep.rows
    ]
    lines.append(
        f"mean mpsnr={rep.mpsnr:.6f} mssim={rep.mssim:.6f} sam={rep.sam:.6f}"
    )
    return "\n".join(lines) + "\n"


def report_csv(rep: MetricsReport) -> str:
    lines = ["cube,mpsnr,mssim,sam"]
    for name, m, s, a in rep.rows:
        lines.append(f"{name},{m:.6f},{s:.6f},{a:.6f}")
    lines.append(f"MEAN,{rep.mpsnr:.6f},{rep.mssim:.6f},{rep.sam:.6f}")
    return "\n".join(lines) + "\n"
