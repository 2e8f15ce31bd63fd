"""Naive reference implementations used to cross-check the library.

The kernels here are written as plain nested loops over scalars, directly
from the defining formulas, and share no code with the package under test.
``copying_trunk_forward`` and ``copying_trunk_backward`` are the exception:
they compose ``ops`` layer calls, to hold the trunk walk itself (its cache,
its in-place relu) to them; ``kink_margin`` reads that forward's inputs.
``spoil_entry`` is not an oracle: it is the one corruption helper the
checkpoint and bank loader tests share.
``naive_render_face`` is vectorised too: it is the face renderer with every
grid, background and glyph mask rebuilt on each call, to hold the cached
renderer to it.
``lrn_expr_forward`` and ``lrn_expr_backward`` are vectorised too: each LRN
kernel written as one expression, temporaries and all, whose bits the
library's scratch-reusing kernels must keep.
"""

import numpy as np

from facerel import ops, synth


def naive_conv(x, w, b, stride=1):
    c_in, h, wd = x.shape
    f, _, k, _ = w.shape
    ho = (h - k) // stride + 1
    wo = (wd - k) // stride + 1
    out = np.zeros((f, ho, wo))
    for fi in range(f):
        for oy in range(ho):
            for ox in range(wo):
                acc = 0.0
                for c in range(c_in):
                    for i in range(k):
                        for j in range(k):
                            acc += w[fi, c, i, j] * x[c, oy * stride + i, ox * stride + j]
                out[fi, oy, ox] = acc + b[fi]
    return out


def naive_conv_backward(x, w, upstream, stride=1):
    """Gradients of ``naive_conv`` w.r.t. x, w and b for one (C,H,W) sample."""
    c_in, h, wd = x.shape
    f, _, k, _ = w.shape
    _, ho, wo = upstream.shape
    dx = np.zeros((c_in, h, wd))
    dw = np.zeros((f, c_in, k, k))
    db = np.zeros(f)
    for fi in range(f):
        for oy in range(ho):
            for ox in range(wo):
                g = upstream[fi, oy, ox]
                db[fi] += g
                for c in range(c_in):
                    for i in range(k):
                        for j in range(k):
                            iy, ix = oy * stride + i, ox * stride + j
                            dw[fi, c, i, j] += g * x[c, iy, ix]
                            dx[c, iy, ix] += g * w[fi, c, i, j]
    return dx, dw, db


def naive_maxpool(x, kernel, stride):
    c_in, h, wd = x.shape
    ho = (h - kernel) // stride + 1
    wo = (wd - kernel) // stride + 1
    out = np.zeros((c_in, ho, wo))
    arg = np.zeros((c_in, ho, wo), dtype=np.int64)
    for c in range(c_in):
        for oy in range(ho):
            for ox in range(wo):
                best = -np.inf
                best_flat = -1
                for i in range(kernel):
                    for j in range(kernel):
                        iy, ix = oy * stride + i, ox * stride + j
                        v = x[c, iy, ix]
                        if v > best:  # strict: ties keep the earliest (lowest flat)
                            best = v
                            best_flat = c * h * wd + iy * wd + ix
                out[c, oy, ox] = best
                arg[c, oy, ox] = best_flat
    return out, arg


def pool_stack(x, kernel, stride):
    """Every pooling window of an (N,C,H,W) batch, copied out: shape
    (N, C, Ho, Wo, kernel * kernel), the window elements in (dy, dx) order."""
    _, _, h, wd = x.shape
    ho = (h - kernel) // stride + 1
    wo = (wd - kernel) // stride + 1
    return np.stack([x[:, :, dy : dy + ho * stride : stride, dx : dx + wo * stride : stride]
                     for dy in range(kernel) for dx in range(kernel)], axis=-1)


def stack_maxpool(x, kernel, stride):
    """Max-pool of an (N,C,H,W) batch by copying out every window.

    ``argmax`` over the ``pool_stack`` windows picks the winner: the first
    maximum, or the first NaN.  Unlike ``naive_maxpool``, whose ``v > best``
    loop never lets a NaN win, this holds the library's NaN semantics.
    Returns (out, the winner's position ``dy * kernel + dx`` in its window,
    flat per-sample index).
    """
    _, c, h, wd = x.shape
    stack = pool_stack(x, kernel, stride)
    _, _, ho, wo, _ = stack.shape
    win_arg = stack.argmax(axis=-1)
    out = np.take_along_axis(stack, win_arg[..., None], axis=-1)[..., 0]
    oy = np.arange(ho)[None, None, :, None]
    ox = np.arange(wo)[None, None, None, :]
    ch = np.arange(c)[None, :, None, None]
    flat = ch * (h * wd) + (oy * stride + win_arg // kernel) * wd + (ox * stride + win_arg % kernel)
    return out, win_arg, flat.astype(np.int64)


def naive_lrn(x, n, k, alpha, beta):
    c_n, h, wd = x.shape
    half = n // 2
    out = np.zeros_like(x, dtype=np.float64)
    for c in range(c_n):
        for y in range(h):
            for xx in range(wd):
                s = 0.0
                for d in range(max(0, c - half), min(c_n, c + half + 1)):
                    s += x[d, y, xx] * x[d, y, xx]
                out[c, y, xx] = x[c, y, xx] / (k + alpha * s) ** beta
    return out


def _channel_window_sum(v, n):
    """Sum an (N, C, ...) array over the clipped window of ``n`` channels,
    each channel's terms added in ascending channel order onto 0.0."""
    half = n // 2
    c = v.shape[1]
    out = np.zeros_like(v)
    for ch in range(c):
        for d in range(max(0, ch - half), min(c, ch + half + 1)):
            out[:, ch] += v[:, d]
    return out


def lrn_base(x, n, k, alpha):
    """``k + alpha * window sum of squares`` as one expression: the LRN
    base with the library's operation order."""
    return k + alpha * _channel_window_sum(x * x, n)


def lrn_expr_forward(x, n, k, alpha, beta):
    """The LRN forward as one expression."""
    return x / lrn_base(x, n, k, alpha) ** beta


def lrn_expr_backward(x, base, up, n, alpha, beta):
    """The LRN input gradient as one expression, from the forward's input
    ``x`` and its ``base``."""
    inv_pow = np.power(base, -beta)
    t = up * x * inv_pow / base
    return up * inv_pow - 2.0 * alpha * beta * x * _channel_window_sum(t, n)


def copying_trunk_forward(spec, params, images, h):
    """The trunk's forward over a batch, from ``ops`` calls.

    Every activation is copied before the next layer reads it, a relu keeps
    its full float pre-activation, and an lrn keeps its base
    ``k + alpha * window sum of squares``.  Returns (output, one
    ``(step, the step's input, ctx)`` per layer) for
    ``copying_trunk_backward``.
    """
    x = np.array(images, dtype=np.float64)
    kept = []
    for step in spec.plan:
        layer = step.layer
        if step.flatten:
            x = x.reshape(len(x), -1)
            if spec.bridge_dim:
                x = np.concatenate([x, h], axis=1)
        x = x.copy()
        if layer.kind in ("conv", "fc"):
            w, b = params[f"trunk.{step.name}.w"].data, params[f"trunk.{step.name}.b"].data
            if layer.kind == "conv":
                out, ctx = ops.conv_forward(x, w, b, layer.stride)
            else:
                out, ctx = ops.fc_forward(x, w, b, exact=False)
        elif layer.kind == "maxpool":
            out, ctx = ops.maxpool_forward(x, layer.kernel, layer.stride)
        elif layer.kind == "lrn":
            out, _ = ops.lrn_forward(x, layer.lrn_n, layer.lrn_k, layer.lrn_alpha, layer.lrn_beta)
            ctx = lrn_base(x, layer.lrn_n, layer.lrn_k, layer.lrn_alpha)
        else:
            out, ctx = ops.relu(x), None
        kept.append((step, x, ctx))
        x = out
    return x, kept


def copying_trunk_backward(spec, kept, upstream):
    """The backward of ``copying_trunk_forward``: a relu gates by its input
    ``> 0`` and an lrn differentiates with its kept base.  Returns
    (d_images, d_h, {parameter name: gradient}), each gradient added onto
    zeros as ``trunk_backward`` adds it onto fresh grads."""
    grad, d_h, grads = np.array(upstream, dtype=np.float64), None, {}
    for step, x, ctx in reversed(kept):
        layer = step.layer
        if layer.kind in ("conv", "fc"):
            backward = ops.conv_backward if layer.kind == "conv" else ops.fc_backward
            grad, dw, db = backward(ctx, grad)
            for name, g in ((f"trunk.{step.name}.w", dw), (f"trunk.{step.name}.b", db)):
                grads[name] = np.zeros(g.shape)
                grads[name] += g
        elif layer.kind == "maxpool":
            grad = ops.maxpool_backward(ctx, grad)
        elif layer.kind == "lrn":
            grad = lrn_expr_backward(x, ctx, grad, layer.lrn_n, layer.lrn_alpha, layer.lrn_beta)
        else:
            grad = grad * (x > 0)
        if step.flatten:
            if spec.bridge_dim:
                d_h = grad[:, -spec.bridge_dim:]
                grad = grad[:, : -spec.bridge_dim]
            grad = grad.reshape((len(grad),) + step.in_shape)
    return grad, d_h, grads


def kink_margin(spec, params, images, h=None):
    """Distance of the trunk's forward on ``images`` from its nearest kink.

    The least ``|x|`` over every relu input, and the least gap between the
    top two values over every pooling window.  A window whose top two are
    both exactly 0.0 holds upstream relu clips, frozen in a neighborhood;
    the relu term already guards them.  Finite differences are trustworthy
    only where this margin well exceeds the probe step.
    """
    _, kept = copying_trunk_forward(spec, params, images, h)
    margin = np.inf
    for step, x, _ in kept:
        if step.layer.kind == "relu":
            margin = min(margin, float(np.min(np.abs(x))))
        elif step.layer.kind == "maxpool" and step.layer.kernel >= 2:
            top2 = np.sort(pool_stack(x, step.layer.kernel, step.layer.stride), axis=-1)[..., -2:]
            gap = top2[..., 1] - top2[..., 0]
            live = gap[(gap != 0.0) | (top2[..., 1] != 0.0)]
            if live.size:
                margin = min(margin, float(np.min(live)))
    return margin


def naive_fc(x, w, b):
    d_in, d_out = w.shape
    out = np.zeros(d_out)
    for j in range(d_out):
        acc = 0.0
        for i in range(d_in):
            acc += x[i] * w[i, j]
        out[j] = acc + b[j]
    return out


def central_diff_grad(loss_fn, array, h=1e-5):
    """Central-difference gradient of a scalar loss w.r.t. ``array`` (mutated in place)."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss_fn()
        flat[i] = orig - h
        lm = loss_fn()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2.0 * h)
    return grad


def max_rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def assert_forward_matches(got, want, exact):
    """Bitwise on the exact forward path; on the GEMM path, within 1e-12 of
    ``want``'s largest magnitude (elementwise relative error can be larger
    where terms cancel)."""
    if exact:
        np.testing.assert_array_equal(got, want)
    else:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def spoil_entry(arrays, name, value):
    """Replace ``arrays[name]`` by a copy whose last element is ``value``:
    the corruption the loaders' finiteness and sign checks must name."""
    spoiled = arrays[name].copy()
    spoiled.flat[-1] = value
    arrays[name] = spoiled


def naive_hog(img, cell, block, bins, eps):
    """HOG of one 2-D image, pixel by pixel and block by block.

    Gradients are central differences inside and one-sided at the borders;
    each pixel's magnitude is added to its cell's orientation bin in
    row-major pixel order.  A block's squared entries are summed by
    ``np.sum`` over its flat (cell row, cell column, bin) vector: that
    summation order is part of the recipe the library must match bit for bit.
    """
    h, w = img.shape
    cy, cx = h // cell, w // cell
    hist = np.zeros((cy, cx, bins))
    for y in range(cy * cell):
        for x in range(cx * cell):
            if y == 0:
                gy = img[1, x] - img[0, x]
            elif y == h - 1:
                gy = img[h - 1, x] - img[h - 2, x]
            else:
                gy = (img[y + 1, x] - img[y - 1, x]) / 2.0
            if x == 0:
                gx = img[y, 1] - img[y, 0]
            elif x == w - 1:
                gx = img[y, w - 1] - img[y, w - 2]
            else:
                gx = (img[y, x + 1] - img[y, x - 1]) / 2.0
            theta = np.mod(np.arctan2(gy, gx), np.pi)
            b = min(int(theta / (np.pi / bins)), bins - 1)
            hist[y // cell, x // cell, b] += np.hypot(gx, gy)
    out = []
    for by in range(cy - block + 1):
        for bx in range(cx - block + 1):
            v = np.array([hist[by + i, bx + j, k]
                          for i in range(block) for j in range(block) for k in range(bins)])
            out.extend(v / np.sqrt(np.sum(v * v) + eps * eps))
    return np.array(out)


def naive_render_face(lat, rng, size):
    """``synth.render_face`` built from scratch on every call: its own grids,
    background and glyph mask, nothing cached.  Draws the same noise from
    ``rng``, so both leave the generator in the same state."""

    def rect(img, y0, y1, x0, x1, value):
        s_y, s_x = img.shape
        img[int(y0 * s_y) : int(y1 * s_y), int(x0 * s_x) : int(x1 * s_x)] = value

    yy, xx = np.meshgrid(np.linspace(0, 1, size, endpoint=False),
                         np.linspace(0, 1, size, endpoint=False), indexing="ij")
    theta = np.deg2rad(-80.0 + 160.0 * lat.mode / (synth.POSE_MODES - 1))
    phase = np.cos(theta) * xx + np.sin(theta) * yy
    img = 0.45 + 0.18 * np.sin(2 * np.pi * phase / 0.18)

    rect(img, 0.0, 0.5, 0.0, 0.125, 0.9 if lat.gender else 0.1)
    rect(img, 0.0, 0.5, 0.875, 1.0, 0.9 if lat.young else 0.1)

    ys = slice(int(0.58 * size), int(0.79 * size))
    xs = slice(int(0.3 * size), int(0.7 * size))
    g_h, g_w = img[ys, xs].shape
    gy, gx = np.meshgrid(np.linspace(0, 1, g_h, endpoint=False),
                         np.linspace(0, 1, g_w, endpoint=False), indexing="ij")
    masks = [
        (np.abs(gy - gx) < 0.18) | (np.abs(gy - (1 - gx)) < 0.18),  # angry: X cross
        np.sin(2 * np.pi * 3 * gy) > 0,                            # disgust: horizontal bars
        np.sin(2 * np.pi * 3 * gx) > 0,                            # fear: vertical bars
        gy > 0.5,                                                  # happy: lower half
        gy < 0.5,                                                  # sad: upper half
        (np.hypot(gy - 0.5, gx - 0.5) > 0.22) & (np.hypot(gy - 0.5, gx - 0.5) < 0.42),  # ring
        np.abs(gy - 0.5) < 0.12,                                   # neutral: middle line
    ]
    region = img[ys, xs]
    region[masks[lat.expr]] = 0.98
    img[ys, xs] = region

    rect(img, 0.6, 0.7, 0.16, 0.27, 0.98 if lat.smiling else 0.02)
    rect(img, 0.6, 0.7, 0.73, 0.84, 0.98 if lat.smiling else 0.02)
    if lat.mouth_open:
        rect(img, 0.82, 0.9, 0.38, 0.62, 0.02)

    if lat.beard == 1:
        rect(img, 0.92, 1.0, 0.4, 0.6, 0.05)
    elif lat.beard == 2:
        rect(img, 0.8, 1.0, 0.0, 0.125, 0.05)
        rect(img, 0.8, 1.0, 0.875, 1.0, 0.05)
    elif lat.beard == 3:
        band = img[int(0.92 * size) :, int(0.16 * size) : int(0.84 * size)]
        checker = np.add.outer(np.arange(band.shape[0]), np.arange(band.shape[1])) % 2
        band[:] = np.where(checker, 0.25, 0.6)

    img = img + rng.normal(0.0, synth.NOISE, size=img.shape)
    return np.clip(img, 0.0, 1.0)
