"""Independent slow-path oracles.

Everything here is written the dumb, obviously-correct way: explicit Python
loops, direct formula transcription, float64 throughout. Nothing imports the
package's fast-path numerics, so agreement between the two routes is
meaningful evidence.
"""

import math

import numpy as np


def conv2d_loop(x, k, b, stride=1, padding=0, groups=1):
    """Direct cross-correlation: one window sum per output element."""
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, cin, h, w = x.shape
    cout, cg, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    cpg_out = cout // groups
    out = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for co in range(cout):
            g = co // cpg_out
            xs = xp[ni, g * cg:(g + 1) * cg]
            for i in range(ho):
                for j in range(wo):
                    win = xs[:, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[ni, co, i, j] = float((win * k[co]).sum()) + float(b[co])
    return out


def conv2d_loop_grads(x, k, go, stride=1, padding=0, groups=1):
    """Gradients of sum(conv2d(x, k, b) * go) with respect to x, k and b,
    accumulated one output window at a time."""
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    go = np.asarray(go, dtype=np.float64)
    n, cin, h, w = x.shape
    cout, cg, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    gb = np.zeros(cout)
    _, _, ho, wo = go.shape
    cpg_out = cout // groups
    for ni in range(n):
        for co in range(cout):
            g = co // cpg_out
            for i in range(ho):
                for j in range(wo):
                    rows = slice(i * stride, i * stride + kh)
                    cols = slice(j * stride, j * stride + kw)
                    d = go[ni, co, i, j]
                    gk[co] += d * xp[ni, g * cg:(g + 1) * cg, rows, cols]
                    gxp[ni, g * cg:(g + 1) * cg, rows, cols] += d * k[co]
                    gb[co] += d
    return gxp[:, :, padding:padding + h, padding:padding + w], gk, gb


def depthwise_clipped_taps(x, k, b, stride=1, padding=0):
    """Depthwise cross-correlation as a sum of per-tap multiply-adds, each
    over only the outputs whose input lies inside the unpadded plane.

    Unlike the oracles above it keeps the input dtype: taps add into a
    zeroed output in row-major tap order and the bias comes last, so it
    fixes the exact rounding a depthwise forward must reproduce.
    """
    n, c, h, w = x.shape
    _, _, kh, kw = k.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1

    def span(off, size, n_out):  # outputs o with stride*o + off - padding in [0, size)
        inside = [o for o in range(n_out) if 0 <= stride * o + off - padding < size]
        if not inside:
            return None
        o0, o1 = inside[0], inside[-1]
        s0 = stride * o0 + off - padding
        return slice(s0, s0 + stride * (o1 - o0) + 1, stride), slice(o0, o1 + 1)

    out = np.zeros((n, c, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            ys, xs = span(i, h, ho), span(j, w, wo)
            if ys and xs:
                out[:, :, ys[1], xs[1]] += x[:, :, ys[0], xs[0]] * k[:, 0, i, j].reshape(1, c, 1, 1)
    out += b.reshape(1, c, 1, 1)
    return out


def pixel_shuffle_loop(x, r):
    n, c2, h, w = x.shape
    c = c2 // (r * r)
    out = np.zeros((n, c, h * r, w * r), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for i in range(r):
                for j in range(r):
                    for y in range(h):
                        for z in range(w):
                            out[ni, ci, y * r + i, z * r + j] = x[ni, ci * r * r + i * r + j, y, z]
    return out


def _cubic(t):
    at = abs(float(t))
    if at <= 1.0:
        return 1.5 * at ** 3 - 2.5 * at ** 2 + 1.0
    if at < 2.0:
        return -0.5 * at ** 3 + 2.5 * at ** 2 - 4.0 * at + 2.0
    return 0.0


def bicubic_direct(img, oh, ow):
    """Per-output-pixel 4x4 kernel sum; half-pixel centers, edge replication."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    out = np.zeros((oh, ow))
    for oy in range(oh):
        sy = (oy + 0.5) * h / oh - 0.5
        by = math.floor(sy)
        for ox in range(ow):
            sx = (ox + 0.5) * w / ow - 0.5
            bx = math.floor(sx)
            acc = 0.0
            for dy in range(-1, 3):
                yy = min(max(by + dy, 0), h - 1)
                wy = _cubic(sy - (by + dy))
                for dx in range(-1, 3):
                    xx = min(max(bx + dx, 0), w - 1)
                    acc += wy * _cubic(sx - (bx + dx)) * img[yy, xx]
            out[oy, ox] = acc
    return out


def enumerate_windows(extent, patch, stride):
    """All legal window starts, trailing one pinned to the far edge."""
    starts, pos = [], 0
    while pos + patch <= extent:
        starts.append(pos)
        pos += stride
    if starts[-1] + patch < extent:
        starts.append(extent - patch)
    return starts


def mpsnr_loop(pred, ref):
    pred = np.asarray(pred, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    vals = []
    for b in range(pred.shape[0]):
        se = 0.0
        for y in range(pred.shape[1]):
            for x in range(pred.shape[2]):
                d = pred[b, y, x] - ref[b, y, x]
                se += d * d
        mse = se / (pred.shape[1] * pred.shape[2])
        vals.append(100.0 if mse == 0.0 else 10.0 * math.log10(1.0 / mse))
    return sum(vals) / len(vals)


def _gauss_kernel_2d(size=11, sigma=1.5):
    c = (size - 1) / 2.0
    k = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            k[i, j] = math.exp(-((i - c) ** 2 + (j - c) ** 2) / (2 * sigma * sigma))
    return k / k.sum()


def mssim_loop(pred, ref, window=11, sigma=1.5):
    pred = np.asarray(pred, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    k = _gauss_kernel_2d(window, sigma)
    band_scores = []
    for b in range(pred.shape[0]):
        x, y = pred[b], ref[b]
        h, w = x.shape
        scores = []
        for i in range(h - window + 1):
            for j in range(w - window + 1):
                wx = x[i:i + window, j:j + window]
                wy = y[i:i + window, j:j + window]
                mx = float((k * wx).sum())
                my = float((k * wy).sum())
                vx = float((k * wx * wx).sum()) - mx * mx
                vy = float((k * wy * wy).sum()) - my * my
                cxy = float((k * wx * wy).sum()) - mx * my
                scores.append(
                    ((2 * mx * my + c1) * (2 * cxy + c2))
                    / ((mx * mx + my * my + c1) * (vx + vy + c2))
                )
        band_scores.append(sum(scores) / len(scores))
    return sum(band_scores) / len(band_scores)


def sam_loop(pred, ref):
    pred = np.asarray(pred, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    b, h, w = pred.shape
    total = 0.0
    for y in range(h):
        for x in range(w):
            dot = na = nb = 0.0
            for i in range(b):
                dot += pred[i, y, x] * ref[i, y, x]
                na += pred[i, y, x] ** 2
                nb += ref[i, y, x] ** 2
            den = max(math.sqrt(na) * math.sqrt(nb), 1e-8)
            total += math.degrees(math.acos(min(max(dot / den, -1.0), 1.0)))
    return total / (h * w)


def uncertainty_loop(samples, mean):
    """Brute-force per-pixel disagreement count against the mean's bin."""
    mean = np.asarray(mean, dtype=np.float64)
    b, h, w = mean.shape
    out = np.zeros((b, h, w))
    for bi in range(b):
        for y in range(h):
            for x in range(w):
                ref_bin = np.round(mean[bi, y, x] * 255.0) / 255.0
                hits = 0
                for s in samples:
                    if np.round(float(s[bi, y, x]) * 255.0) / 255.0 != ref_bin:
                        hits += 1
                out[bi, y, x] = 100.0 * hits / len(samples)
    return out


def adam_single_step(theta, g, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Closed-form first Adam update from zero moments."""
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    mhat = m / (1 - b1)
    vhat = v / (1 - b2)
    return theta - lr * mhat / (math.sqrt(vhat) + eps)


def _conv_taps(x, k, stride=1, padding=0):
    """Dense cross-correlation as a sum over kernel taps of zero-padded,
    strided input windows; float64, vectorized over batch and positions."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    for i in range(kh):
        for j in range(kw):
            win = xp[:, :, i:i + stride * (ho - 1) + 1:stride, j:j + stride * (wo - 1) + 1:stride]
            out += np.einsum("oc,nchw->nohw", k[:, :, i, j], win)
    return out


def affine_chain_impulses(head_k, head_b, tail_k, tail_b, deg_k, alpha, h, w):
    """Impulse responses of degrade_lin(tail(shuffle(head(f)))) on an h x w grid.

    head is a 3x3 pad-1 conv to B*alpha^2 channels, shuffle is depth-to-space
    by alpha, tail a 3x3 pad-1 conv at HR, degrade_lin the bias-free
    stride-alpha conv with padding (k-1)/2. Pushes the zero input and one
    impulse per (channel, row, col) of f through the chain in float64.
    Returns (resp, const): resp[o, i, j, c, y, x] is output (o, i, j)'s
    weight on f[c, y, x], const[o, i, j] the output for f = 0.
    """
    head_k, tail_k, deg_k = (np.asarray(a, dtype=np.float64) for a in (head_k, tail_k, deg_k))
    c = head_k.shape[1]
    b = tail_k.shape[0]
    f = np.concatenate([np.zeros((1, c * h * w)), np.eye(c * h * w)]).reshape(-1, c, h, w)
    r = _conv_taps(f, head_k, padding=1) + np.asarray(head_b, np.float64).reshape(1, -1, 1, 1)
    hr = np.zeros((len(f), b, h * alpha, w * alpha))
    for i in range(alpha):
        for j in range(alpha):
            hr[:, :, i::alpha, j::alpha] = r[:, i * alpha + j::alpha * alpha]
    hr = _conv_taps(hr, tail_k, padding=1) + np.asarray(tail_b, np.float64).reshape(1, -1, 1, 1)
    out = _conv_taps(hr, deg_k, stride=alpha, padding=(deg_k.shape[-1] - 1) // 2)
    const = out[0]
    resp = (out[1:] - const).reshape(c, h, w, b, h, w).transpose(3, 4, 5, 0, 1, 2)
    return resp, const
