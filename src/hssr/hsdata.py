"""Hyperspectral cube storage, dataset preparation, and LR synthesis.

Cubes live in a small binary container (magic ``HSC1``): 4 ASCII magic bytes,
three unsigned little-endian 32-bit integers B, H, W, then B*H*W little-endian
IEEE-754 float32 values, band-sequential and row-major within each band.
Round-trips are bit-exact for in-range data; the loader clamps anything
outside [0, 1] and counts how many values it touched.

Dataset manifests are flat text, one ``<role> <path>`` entry per line with
``#`` comments; preparation metadata rides along in recognized comment lines
so a manifest is self-describing.
"""

from __future__ import annotations

import os
import secrets
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError, ParameterError
from .tensor import bicubic_resize_array

__all__ = [
    "HSCube",
    "DatasetManifest",
    "read_cube",
    "read_cube_header",
    "write_cube",
    "read_manifest",
    "write_manifest",
    "atomic_write",
    "f32le",
    "read_text",
    "lr_counterpart",
    "extract_patches",
    "augment",
    "make_lr",
    "random_smooth_cube",
]

_MAGIC = b"HSC1"
_MAX_ELEMENTS = 1 << 31  # dim-overflow guard for the u32 header fields

_ROLES = ("train", "test")


@dataclass
class HSCube:
    """One hyperspectral image: values[B, H, W] in nominal range [0, 1]."""

    values: np.ndarray
    name: str = ""
    clamped: int = 0  # values the loader had to clip into [0, 1]

    @property
    def bands(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


@dataclass
class DatasetManifest:
    """Cube roster plus the preparation settings that produced it.

    entries hold (path, role) with paths relative to the manifest location;
    role is "train" or "test".
    """

    entries: list = field(default_factory=list)
    scale: int = 4
    patch: int = 32
    stride: int = 32
    seed: int = 0

    def paths(self, role: str) -> list:
        return [p for p, r in self.entries if r == role]


def atomic_write(path, chunks) -> None:
    """Write the bytes-like `chunks` (bytes or contiguous arrays) to `path` all or nothing.

    They go to a new temp file next to `path` (a random name opened with
    O_EXCL, mode 0o666 less the umask), which then replaces `path`; if the
    write or the rename fails, the temp file is removed. Missing parent
    directories are made first, so a directory appears with its first file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def f32le(arr) -> np.ndarray:
    """`arr` as the C-contiguous little-endian float32 payload both binary
    containers hand to atomic_write; no copy if it is one already."""
    with np.errstate(over="ignore"):
        return np.ascontiguousarray(arr, dtype="<f4")


def read_text(path) -> str:
    """The text of `path` decoded as UTF-8, the encoding atomic_write's
    text callers write; FormatError if it is not valid UTF-8."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not valid UTF-8 ({e.reason} at byte {e.start})") from None


def write_cube(cube: HSCube, path) -> None:
    """Serialize to the HSC1 container; the write is atomic (see atomic_write)."""
    vals = np.asarray(cube.values)
    if vals.ndim != 3:
        raise DimensionError(f"cube must be 3-D [B,H,W], got shape {vals.shape}")
    b, h, w = vals.shape
    if min(b, h, w) < 1:
        raise DimensionError(f"cube extents must be positive, got {vals.shape}")
    payload = f32le(vals)
    # min and max are nan or inf if any value is, and need no temporary
    if not (np.isfinite(payload.min()) and np.isfinite(payload.max())):
        raise ParameterError("cube has values not finite in float32; refusing to write")
    atomic_write(path, (_MAGIC, struct.pack("<III", b, h, w), payload))


def _header(fh, path: Path) -> tuple:
    """(B, H, W) from the HSC1 header at the start of the open file `fh`,
    checked against the file's size; leaves `fh` at the payload."""
    head = fh.read(16)
    if len(head) < 16:
        raise FormatError(f"{path}: file too short for an HSC1 header")
    if head[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic {head[:4]!r}, expected {_MAGIC!r}")
    b, h, w = struct.unpack("<III", head[4:16])
    for label, v in (("bands", b), ("height", h), ("width", w)):
        if v < 1:
            raise FormatError(f"{path}: header field {label} is zero")
    if b * h * w > _MAX_ELEMENTS:
        raise FormatError(f"{path}: header bands*height*width overflows ({b}x{h}x{w})")
    expected, size = 16 + 4 * b * h * w, os.fstat(fh.fileno()).st_size
    if size != expected:
        kind = "truncated" if size < expected else "oversized"
        raise FormatError(
            f"{path}: {kind} payload, header {b}x{h}x{w} needs {expected} bytes, file has {size}"
        )
    return b, h, w


def read_cube_header(path) -> tuple:
    """(bands, height, width) of an HSC1 cube, validated as `read_cube`
    validates it, without reading the payload."""
    path = Path(path)
    with open(path, "rb") as fh:
        return _header(fh, path)


def read_cube(path) -> HSCube:
    """Load an HSC1 cube, validating the header against the payload size.

    The payload is read straight into the returned float32 array, and NaN
    and out-of-range values are found by its min and max, so the only
    cube-sized allocation is the cube itself."""
    path = Path(path)
    with open(path, "rb") as fh:
        b, h, w = _header(fh, path)
        vals = np.empty((b, h, w), dtype="<f4")
        got = fh.readinto(vals.reshape(-1).view(np.uint8))
    if got != vals.nbytes:  # the file shrank after its size was checked
        raise FormatError(f"{path}: truncated payload, header {b}x{h}x{w} needs "
                          f"{16 + vals.nbytes} bytes, file has {16 + got}")
    vals = vals.astype(np.float32, copy=False)  # a copy only on big-endian hosts
    lo, hi = vals.min(), vals.max()
    if np.isnan(lo):  # the min is NaN if any value is
        raise FormatError(f"{path}: payload contains NaN values")
    out_of_range = 0
    if lo < 0.0 or hi > 1.0:
        for band in vals:
            out_of_range += int(np.count_nonzero((band < 0.0) | (band > 1.0)))
        np.clip(vals, 0.0, 1.0, out=vals)
    return HSCube(vals, name=path.stem, clamped=out_of_range)


def write_manifest(man: DatasetManifest, path) -> None:
    lines = [
        "# hyperspectral dataset manifest",
        f"# scale={man.scale}",
        f"# patch={man.patch}",
        f"# stride={man.stride}",
        f"# seed={man.seed}",
    ]
    for p, role in man.entries:
        if role not in _ROLES:
            raise ParameterError(f"manifest role must be one of {_ROLES}, got {role!r}")
        lines.append(f"{role} {p}")
    atomic_write(path, ["\n".join(lines).encode() + b"\n"])


def read_manifest(path) -> DatasetManifest:
    path = Path(path)
    man = DatasetManifest()
    seen = set()
    meta_keys = {"scale", "patch", "stride", "seed"}
    for ln, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, sep, value = body.partition("=")
            if sep and key.strip() in meta_keys:
                try:
                    setattr(man, key.strip(), int(value.strip()))
                except ValueError:
                    raise FormatError(f"{path}:{ln}: bad integer for {key.strip()!r}") from None
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise FormatError(f"{path}:{ln}: expected '<role> <path>', got {line!r}")
        role, rel = parts
        if role not in _ROLES:
            raise FormatError(f"{path}:{ln}: unknown role {role!r}")
        if rel in seen:
            raise FormatError(f"{path}:{ln}: duplicate path {rel!r}")
        seen.add(rel)
        man.entries.append((rel, role))
    return man


def lr_counterpart(relpath: str) -> str:
    """Map a manifest HR path (``hr/...``) to its paired LR path (``lr/...``)."""
    parts = Path(relpath).parts
    if not parts or parts[0] != "hr":
        raise ParameterError(f"expected a path under 'hr/', got {relpath!r}")
    return str(Path("lr", *parts[1:]))


# ---------------------------------------------------------------------------
# preparation


def _window_starts(extent: int, patch: int, stride: int) -> list:
    starts = list(range(0, extent - patch + 1, stride))
    if starts[-1] != extent - patch:
        starts.append(extent - patch)  # anchor the last window to the far edge
    return starts


def extract_patches(cube: HSCube, patch: int, stride: int) -> list:
    """Row-major sliding-window patches covering the whole cube.

    The trailing window in each axis is anchored at the far edge, so borders
    are always covered even when stride does not divide the extent.
    """
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    if patch < 1 or patch > min(cube.height, cube.width):
        raise ParameterError(
            f"patch {patch} exceeds cube extent {cube.height}x{cube.width}"
        )
    out = []
    for top in _window_starts(cube.height, patch, stride):
        for left in _window_starts(cube.width, patch, stride):
            vals = np.ascontiguousarray(cube.values[:, top:top + patch, left:left + patch])
            out.append(HSCube(vals, name=f"{cube.name}_y{top:03d}x{left:03d}"))
    return out


def augment(cube: HSCube, code: int) -> HSCube:
    """Dihedral-group transform of the spatial axes.

    Codes 0-3 rotate clockwise by 90deg*code; codes 4-7 mirror horizontally
    first and then rotate by 90deg*(code-4). Codes 4-7 are involutions.
    """
    if not isinstance(code, int) or not 0 <= code <= 7:
        raise ParameterError(f"augment code must be in 0..7, got {code}")
    vals = cube.values
    if code >= 4:
        vals = vals[:, :, ::-1]
    k = code % 4
    if k:
        vals = np.rot90(vals, k=-k, axes=(1, 2))
    return HSCube(np.ascontiguousarray(vals), name=cube.name)


def make_lr(hr: HSCube, alpha: int, noise_sigma: float = 0.0, rng=None) -> HSCube:
    """Degrade an HR cube: per-band bicubic downsample, optional noise, clamp.

    noise_sigma=0 (the default) reproduces the pure-bicubic protocol; with
    noise the caller must pass a numpy Generator, and draws are made in
    float64 before clamping so the result is reproducible bit-exactly for a
    fixed seed.
    """
    if alpha not in (2, 4, 8):
        raise ParameterError(f"scale factor must be 2, 4 or 8, got {alpha}")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ParameterError(f"noise sigma must be finite and >= 0, got {noise_sigma}")
    if hr.height % alpha or hr.width % alpha:
        raise ParameterError(
            f"extents {hr.height}x{hr.width} not divisible by scale {alpha}"
        )
    lr = bicubic_resize_array(
        hr.values.astype(np.float64), hr.height // alpha, hr.width // alpha
    )
    if noise_sigma > 0:
        if rng is None:
            raise ParameterError("noise_sigma > 0 requires an rng")
        lr = lr + rng.normal(0.0, noise_sigma, size=lr.shape)
    np.clip(lr, 0.0, 1.0, out=lr)
    return HSCube(lr.astype(np.float32), name=hr.name)


def random_smooth_cube(bands: int, height: int, width: int, rng: np.random.Generator,
                       name: str = "") -> HSCube:
    """Synthetic cube with smooth spectra and two spatial scales.

    Spatial content mixes four bicubically-upsampled 8x8 coarse fields with
    a half-resolution detail layer of weight 0.35, so a downsample-upsample
    round trip loses real information (otherwise plain interpolation would
    already be a near-perfect reconstruction and there would be nothing to
    learn). Band profiles are low-order cosine envelopes, giving the strong
    inter-band correlation typical of hyperspectral data. Values land in
    [0.05, 0.95].
    """
    if bands < 1 or height < 8 or width < 8:
        raise ParameterError(f"cube extents too small: {bands}x{height}x{width}")
    components = 4
    coarse = bicubic_resize_array(rng.random((components, 8, 8)), height, width)
    fine = bicubic_resize_array(
        rng.random((components, max(height // 2, 4), max(width // 2, 4))) - 0.5,
        height,
        width,
    )
    fields = coarse + 0.35 * fine  # [components, H, W]
    t = np.linspace(0.0, 1.0, bands)
    env = np.empty((components, bands))
    for k in range(components):
        amp = rng.normal(size=3)
        ph = rng.random(2) * np.pi
        env[k] = amp[0] + amp[1] * np.cos(np.pi * t + ph[0]) + 0.5 * amp[2] * np.cos(
            2 * np.pi * t + ph[1]
        )
    cube = np.einsum("kb,khw->bhw", env, fields)
    lo, hi = cube.min(), cube.max()
    cube = 0.05 + 0.9 * (cube - lo) / max(hi - lo, 1e-9)
    return HSCube(cube.astype(np.float32), name=name)
