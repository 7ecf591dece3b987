"""Monte-Carlo inference, epistemic uncertainty, and image-quality metrics.

Inference draws N hard gate configurations (independent substreams spawned
from one seed) and averages the N reconstructions, computed as one batch.
Because convolutions and resampling operate sample-by-sample, the batch
gives bit-identical results to N single-sample forward passes, one per
substream.

All metrics are computed in float64. MPSNR averages per-band PSNR (peak 1),
MSSIM averages per-band SSIM with the reference 11x11 Gaussian window, and
SAM is the mean per-pixel spectral angle in degrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError
from .hsdata import HSCube
from .model import SRNet, forward
from .tensor import Tensor

__all__ = [
    "UncertaintyMap",
    "MetricsReport",
    "mc_infer",
    "uncertainty",
    "mpsnr",
    "mssim",
    "sam",
    "evaluate_pairs",
    "report_text",
    "report_csv",
]

_PSNR_CAP = 100.0  # dB assigned when the error is exactly zero


@dataclass
class UncertaintyMap:
    """Per-pixel disagreement percentages; every value is a multiple of 100/N."""

    values: np.ndarray  # [B, H, W] in [0, 100]
    n_samples: int


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


def mc_infer(net: SRNet, cube, n: int, seed):
    """N stochastic reconstructions and their clamped mean.

    Returns (mean HSCube, list of N sample HSCubes). Sample i consumes the
    i-th substream of SeedSequence(seed), so it does not depend on N or on
    being computed in a batch.
    """
    if n < 1:
        raise ParameterError(f"need at least one sample, got {n}")
    x = _values(cube)
    if x.ndim != 3:
        raise DimensionError(f"expected a [B,h,w] cube, got shape {x.shape}")
    name = cube.name if isinstance(cube, HSCube) else ""
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)]
    xb = np.repeat(x[None].astype(np.float32), n, axis=0)
    stack = forward(net, Tensor(xb), "sample", rng=rngs)[0].data
    mean = np.clip(np.mean(stack, axis=0), 0.0, 1.0)
    samples = [HSCube(np.ascontiguousarray(stack[i]), name=f"{name}_s{i}") for i in range(n)]
    return HSCube(mean.astype(np.float32), name=name), samples


def uncertainty(samples: list, mean) -> UncertaintyMap:
    """Percentage of samples whose 1/255-discretized value disagrees with the
    discretized mean, per pixel. Consumes no ground truth."""
    if len(samples) < 2:
        raise ParameterError(f"uncertainty needs >= 2 samples, got {len(samples)}")
    ref = _values(mean).astype(np.float64)
    ref_bin = np.round(ref * 255.0) / 255.0
    hits = np.zeros(ref.shape, dtype=np.float64)
    for s in samples:
        v = _values(s).astype(np.float64)
        if v.shape != ref.shape:
            raise DimensionError(f"sample shape {v.shape} != mean shape {ref.shape}")
        hits += np.round(v * 255.0) / 255.0 != ref_bin
    return UncertaintyMap(100.0 * hits / len(samples), n_samples=len(samples))


# ---------------------------------------------------------------------------
# metrics


def _pair(a, b, op: str):
    av, bv = _values(a).astype(np.float64), _values(b).astype(np.float64)
    if av.shape != bv.shape:
        raise DimensionError(f"{op}: shapes {av.shape} and {bv.shape} differ")
    if av.ndim != 3:
        raise DimensionError(f"{op}: expected [B,H,W] cubes, got {av.shape}")
    return av, bv


def mpsnr(pred, ref) -> float:
    """Mean over bands of PSNR against peak 1.0; zero error scores 100 dB."""
    p, r = _pair(pred, ref, "mpsnr")
    mse = np.mean((p - r) ** 2, axis=(1, 2))
    out = np.where(mse > 0, 10.0 * np.log10(1.0 / np.maximum(mse, 1e-300)), _PSNR_CAP)
    return float(np.mean(out))


def _gauss_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    t = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    w = np.exp(-(t * t) / (2.0 * sigma * sigma))
    return w / w.sum()


def _smooth_valid(img: np.ndarray, w: np.ndarray) -> np.ndarray:
    # separable valid-region filtering via banded operator matrices
    k = w.size
    h, wd = img.shape
    rows = np.zeros((h - k + 1, h))
    for i in range(h - k + 1):
        rows[i, i:i + k] = w
    cols = np.zeros((wd - k + 1, wd))
    for i in range(wd - k + 1):
        cols[i, i:i + k] = w
    return rows @ img @ cols.T


def mssim(pred, ref, window: int = 11, sigma: float = 1.5) -> float:
    """Mean over bands of SSIM (Gaussian window, C1=0.01^2, C2=0.03^2,
    valid-region averaging, unit dynamic range)."""
    p, r = _pair(pred, ref, "mssim")
    if p.shape[1] < window or p.shape[2] < window:
        raise ParameterError(
            f"mssim needs extents >= {window}, got {p.shape[1]}x{p.shape[2]}"
        )
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    w = _gauss_window(window, sigma)
    scores = []
    for b in range(p.shape[0]):
        x, y = p[b], r[b]
        mu_x = _smooth_valid(x, w)
        mu_y = _smooth_valid(y, w)
        var_x = _smooth_valid(x * x, w) - mu_x * mu_x
        var_y = _smooth_valid(y * y, w) - mu_y * mu_y
        cov = _smooth_valid(x * y, w) - mu_x * mu_y
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
    dot = np.sum(p * r, axis=0)
    den = np.maximum(np.linalg.norm(p, axis=0) * np.linalg.norm(r, axis=0), 1e-8)
    ang = np.degrees(np.arccos(np.clip(dot / den, -1.0, 1.0)))
    ang = np.where((p == r).all(axis=0), 0.0, ang)
    return float(np.mean(ang))


# ---------------------------------------------------------------------------
# reports


def evaluate_pairs(pairs: list) -> MetricsReport:
    """pairs: (name, predicted cube, reference cube) triples."""
    rep = MetricsReport()
    for name, pred, ref in pairs:
        rep.rows.append((name, mpsnr(pred, ref), mssim(pred, ref), sam(pred, ref)))
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
