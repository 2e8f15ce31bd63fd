"""Layer primitives: valid (unpadded) stride-1 convolution, max-pooling,
cross-channel response normalization, fully-connected maps, and the two activations.

Every forward returns ``(output, ctx)`` where ``ctx`` carries exactly what the
matching backward needs.  The layer ops take and return batches only:
conv, max-pooling and lrn use ``(N, C, H, W)``, fc uses ``(N, D)``, and each,
forward and backward, refuses any other rank with a ``ValueError`` that names
it (the activations are elementwise and take any shape).

What a ctx keeps.  No ctx holds its own forward's output: conv and fc keep
their input and weights (one ``LinearCtx`` type serves both), lrn its input
and scalars (``lrn_backward`` recomputes the normalization base from the
input with the forward's exact expression, so it sees the same bits),
max-pooling keeps only its ``PoolArgmax``, one small unsigned tap per
output, and relu has no ctx: its backward takes the bool
mask ``relu(x) > 0``, which equals ``x > 0`` (a NaN is inactive either way),
and the caller may store that mask as it likes (the trunk packs it to bits).
So a caller may let ``relu`` write its output over an input that nothing
else holds (``relu(x, out=x)``) without spoiling any ctx.  Likewise
``relu_backward(active, up)`` gates its upstream in place and returns it; it
casts the mask to the gradient's dtype one sample block at a time, so its
scratch stays within ``SCRATCH_BYTES``.

LRN scratch.  ``lrn_forward`` works in two input-sized arrays, its output
and the base, and ``lrn_backward`` in three, its output among them: every
step writes into one of them (``out=`` or in place), and the one windowed
sum, ``_window_sum``, writes into a given array.  Each keeps its
expressions' operation order, ``x / base**beta`` forward and
``up * p - (c * x) * S(((up * x) * p) / base)`` backward, with
``p = base**-beta``, ``c = 2 * alpha * beta`` and ``S`` the window sum
added in ascending channel order onto 0.0, so the bits do not depend on
the scratch.

Determinism contract.  Every layer forward has one path.  It agrees with the
naive loops to within 1e-12 of the output's largest magnitude (elementwise
relative error can be larger where terms cancel; max-pooling and lrn keep
the stronger contracts above and below), and at a fixed BLAS thread count it
is bitwise batch invariant.  A conv makes one GEMM per sample, of the
filter matrix with the sample's tap columns.  An fc makes one GEMV per row
per chunk of at most ``FC_CHUNK_BYTES`` of weight rows, and adds each row's
partial sums in ascending chunk order; a weight that fits one chunk is one
GEMV per row.  Bias is added last.  The BLAS picks the summation order, but
it is the same call whatever the batch and whatever sample blocks the conv
cuts the batch into; its bits may change with the thread count.

The backward passes are BLAS GEMMs; the tests hold them to the naive loops
at a relative tolerance, not bitwise, and their bits may change with the
BLAS thread count.  The conv backward makes one GEMM per sample on the
forward's tap columns, so ``dw`` sums the samples in ascending order
whatever the sample blocks.  Its ``dx`` adds no strided views.  Per sample,
one GEMM multiplies the filters, rows in tap-major (i, j, c) order, by the
upstream widened with zero columns to the input's row width W, into one
reused ``(k*k, C, H*W)`` buffer whose columns from ``Ho*W`` on stay zero.  Then
each tap (i, j) adds the buffer's ``C*H*W`` values as one contiguous run at
flat offset ``i*W + j`` of the sample's ``dx``, taps in ascending order.
The zero columns and rows add exact zeros only, and spill at most
``(k-1)*(W+1)`` zeros past the sample, onto the next sample's still-zero
gradient or a spare tail that the returned view leaves out.  So ``dx`` is
batch invariant.  ``input_grad=False`` forms no ``dx`` (it is ``None``)
and leaves the bits of ``dw`` and ``db`` as they are.

Pooling contract.  ``maxpool_forward`` is bitwise equal, output bytes and
taps alike, to stacking every window's k*k elements in (dy, dx) order and
taking ``argmax``: each output is the window's first maximum, so among tied
maxima (``0.0`` and ``-0.0`` tie) the lowest flat index wins and the output
carries that element's exact bits; a window holding a NaN outputs its first
NaN.  It is batch invariant.  It copies no window out: it walks the k*k taps
as strided views of the input, one compare each, and keeps the latest
winning tap as a running maximum, with one bool mask and one small-int array
of output shape as scratch beyond its outputs.  It then gathers the
winners' bits by flat source index, one sample block of indices at a time,
so no index array of the whole output's size exists.  ``maxpool_backward``
rebuilds the same indices from the taps and sums the upstream gradient into
them with one ``bincount``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


@dataclass
class LinearCtx:
    """What ``conv_backward`` and ``fc_backward`` read: the layer's input and weights."""
    x: np.ndarray          # conv (N, C, H, W), fc (N, D)
    w: np.ndarray


def _as_batched_images(x: np.ndarray, who: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"{who}: expected an (N,C,H,W) batch, got ndim={x.ndim}")
    return x


#: Bytes of per-block scratch held by the conv forward and backward, the
#: max-pool gather's source indices, ``relu_backward``'s cast of its mask to
#: the gradient's dtype and the batched HOG.  They walk their inputs in
#: blocks of as many samples as fit, so scratch stays bounded at any batch.
SCRATCH_BYTES = 1 << 21


def sample_blocks(n: int, per_sample_bytes: int):
    """Yield ``(lo, hi)`` sample ranges whose scratch fits ``SCRATCH_BYTES``."""
    step = max(1, SCRATCH_BYTES // max(1, per_sample_bytes))
    for lo in range(0, n, step):
        yield lo, min(n, lo + step)


def _conv_columns(x4, k):
    """Yield ``(lo, hi, cols)``: a sample block's taps copied into one reused
    ``(hi - lo, C·k·k, Ho·Wo)`` buffer, rows in (c, i, j) order, of at most ``SCRATCH_BYTES``."""
    n, c_in = x4.shape[:2]
    windows = np.lib.stride_tricks.sliding_window_view(x4, (k, k), axis=(2, 3))
    taps = windows.transpose(0, 1, 4, 5, 2, 3)
    ho, wo = taps.shape[4:]
    buf = None
    for lo, hi in sample_blocks(n, c_in * k * k * ho * wo * x4.itemsize):
        if buf is None:
            buf = np.empty((hi - lo, c_in * k * k, ho * wo), dtype=x4.dtype)
        cols = buf[: hi - lo]
        np.copyto(cols.reshape(hi - lo, c_in, k, k, ho, wo), taps[lo:hi])
        yield lo, hi, cols


def conv_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, LinearCtx]:
    """Valid (no padding), stride-1 cross-correlation with square kernels.

    ``w`` has shape (filters, in_channels, k, k); ``b`` has shape (filters,).
    Output extent per spatial axis is ``in - k + 1``.  Each sample is one
    GEMM (the module's determinism contract).
    """
    x4 = _as_batched_images(x, "conv_forward")
    w = np.asarray(w)
    b = np.asarray(b)
    if w.ndim != 4 or w.shape[2] != w.shape[3]:
        raise ValueError(f"conv_forward: weights must be (F,C,k,k), got {w.shape}")
    n, c_in, h, wd = x4.shape
    f, c_w, k, _ = w.shape
    if c_w != c_in:
        raise ValueError(
            f"conv_forward: channel axis mismatch, input has {c_in} channels "
            f"but weights expect {c_w}"
        )
    if b.shape != (f,):
        raise ValueError(f"conv_forward: bias must have shape ({f},), got {b.shape}")
    if h < k:
        raise ValueError(f"conv_forward: height axis {h} admits no {k}x{k} kernel placement")
    if wd < k:
        raise ValueError(f"conv_forward: width axis {wd} admits no {k}x{k} kernel placement")

    ho, wo = h - k + 1, wd - k + 1
    out = np.empty((n, f, ho * wo), dtype=np.result_type(x4, w, b))
    filters = w.reshape(f, -1)
    for lo, hi, cols in _conv_columns(x4, k):
        np.matmul(filters, cols, out=out[lo:hi])
    out += b[:, None]
    return out.reshape(n, f, ho, wo), LinearCtx(x4, w)


def conv_backward(
    ctx: LinearCtx, upstream: np.ndarray, *, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of ``conv_forward`` w.r.t. input, weights, and bias; with
    ``input_grad=False`` the input gradient is not formed and is ``None``."""
    if ctx is None:
        raise ValueError("conv_backward: forward context is required")
    up4 = _as_batched_images(upstream, "conv_backward")
    x4, w = ctx.x, ctx.w
    n, _, h, wd = x4.shape
    f, c_in, k, _ = w.shape
    ho, wo = h - k + 1, wd - k + 1
    if up4.shape != (n, f, ho, wo):
        raise ValueError(
            f"conv_backward: upstream shape {up4.shape} does not match "
            f"forward output {(n, f, ho, wo)}"
        )

    # dx comes first, its output allocated before its scratch: the other
    # orders raised the peak RSS of a 32-face paper48 training process by
    # 2-8 MB, from heap layout alone
    dx = _conv_input_grad(w, up4, x4.shape) if input_grad else None
    db = up4.sum(axis=(0, 2, 3))
    dw = np.zeros((f, c_in * k * k), dtype=w.dtype)
    up3 = up4.reshape(n, f, ho * wo)
    for lo, hi, cols in _conv_columns(x4, k):
        for i in range(lo, hi):
            dw += up3[i] @ cols[i - lo].T
    return dx, dw.reshape(w.shape), db


def _conv_input_grad(w: np.ndarray, up4: np.ndarray, x_shape) -> np.ndarray:
    """The conv's ``dx`` by the module's contiguous-add layout."""
    n, c_in, h, wd = x_shape
    f, _, k, _ = w.shape
    ho, wo = up4.shape[2:]
    size = c_in * h * wd
    dtype = np.result_type(w, up4)
    taps = w.transpose(2, 3, 1, 0).reshape(k * k * c_in, f)  # rows in (i, j, c) order
    flat = np.zeros(n * size + (k - 1) * (wd + 1), dtype=dtype)
    wide = np.zeros((f, ho, wd), dtype=dtype)  # columns wo.. of each row stay zero
    buf = np.zeros((k * k, size), dtype=dtype)  # (k·k, C, H·W): each channel's ho·W.. stay zero
    rows = buf.reshape(k * k * c_in, h * wd)[:, : ho * wd]
    for s in range(n):
        wide[:, :, :wo] = up4[s]
        np.matmul(taps, wide.reshape(f, ho * wd), out=rows)
        for t, (i, j) in enumerate(np.ndindex(k, k)):
            at = s * size + i * wd + j
            flat[at : at + size] += buf[t]
    return flat[: n * size].reshape(x_shape)


# ---------------------------------------------------------------------------
# max-pooling
# ---------------------------------------------------------------------------


@dataclass
class PoolArgmax:
    """Where every pooled output came from, for ``maxpool_backward``.

    ``taps[s, c, oy, ox]`` is the position ``dy * kernel + dx`` inside its
    window of the value that output took: the window's first maximum in
    (dy, dx) order, which is the lowest flat index among tied maxima, or its
    first NaN.  It is stored in the smallest unsigned type that holds
    ``kernel * kernel - 1`` (one byte up to a 16x16 window).  ``kernel`` and
    ``stride`` place the windows; ``input_shape`` is the input's (N, C, H, W).
    """

    taps: np.ndarray       # (N, C, Ho, Wo), unsigned
    kernel: int
    stride: int
    input_shape: tuple[int, int, int, int]


def _pool_taps(x: np.ndarray, kernel: int, stride: int):
    """Yield, in (dy, dx) order, the strided view of ``x`` (pooled over its
    last two axes) that holds tap (dy, dx) of every window; nothing is copied."""
    h, wd = x.shape[-2:]
    ho = (h - kernel) // stride + 1
    wo = (wd - kernel) // stride + 1
    for dy, dx in np.ndindex(kernel, kernel):
        yield x[..., dy : dy + ho * stride : stride, dx : dx + wo * stride : stride]


def _pool_sources(taps: np.ndarray, kernel: int, stride: int, input_shape) -> np.ndarray:
    """The flat index into each sample's ``C*H*W`` input of every output of
    ``taps``, a block of ``PoolArgmax.taps``: the tap's offset inside its
    window, ``dy * W + dx = t + dy * (W - kernel)``, plus the window's origin.
    Returns an intp array of the block's shape; nothing else it allocates is
    larger than one sample's indices."""
    _, c, h, wd = input_shape
    _, _, ho, wo = taps.shape
    sources = np.floor_divide(taps, kernel, out=np.empty(taps.shape, dtype=np.intp))
    sources *= wd - kernel
    sources += taps
    sources += ((np.arange(c) * (h * wd))[:, None, None]
                + (np.arange(ho) * (stride * wd))[:, None] + np.arange(wo) * stride)
    return sources


def maxpool_forward(
    x: np.ndarray, kernel: int, stride: int
) -> tuple[np.ndarray, PoolArgmax]:
    """Window maxima with argmax bookkeeping (see the module's pooling contract)."""
    x4 = _as_batched_images(x, "maxpool_forward")
    n, c, h, wd = x4.shape
    if kernel < 1 or stride < 1:
        raise ValueError("maxpool_forward: kernel and stride must be >= 1")
    if kernel > h or kernel > wd:
        raise ValueError(
            f"maxpool_forward: kernel {kernel} exceeds input extent ({h}x{wd})"
        )

    # One compare per tap: a later tap wins a window only when strictly
    # greater, so ``tap`` ends on the window's first maximum.  Taps come in
    # ascending order, so the maximum of ``tap`` and ``wins * t`` records the
    # latest winner.  ``out`` holds the NaN-propagating running max, so it
    # ends NaN exactly in the windows that hold a NaN.
    taps = _pool_taps(x4, kernel, stride)
    out = next(taps).copy()
    tap = np.zeros(out.shape, dtype=np.min_scalar_type(kernel * kernel - 1))
    wins = np.empty(out.shape, dtype=bool)
    won = np.empty_like(tap)
    for t, view in enumerate(taps, start=1):
        np.greater(view, out, out=wins)
        np.maximum(tap, np.multiply(wins, t, out=won, dtype=tap.dtype), out=tap)
        np.maximum(out, view, out=out)
    if np.isnan(out, out=wins).any():
        # as in argmax, a window's first NaN wins: walk the taps backwards
        # so the first NaN is written last
        for t, view in reversed(list(enumerate(_pool_taps(x4, kernel, stride)))):
            np.copyto(tap, t, where=np.isnan(view) & wins)

    # The gather gives the winners' exact bits, -0.0 included, one sample
    # block of source indices at a time; every index is in range, and
    # "clip" lets take write to ``out`` without buffering.
    flat = x4.reshape(n, c * h * wd)
    for lo, hi in sample_blocks(n, c * tap.shape[2] * tap.shape[3] * np.dtype(np.intp).itemsize):
        sources = _pool_sources(tap[lo:hi], kernel, stride, x4.shape)
        sources += (np.arange(hi - lo) * flat.shape[1])[:, None, None, None]
        np.take(flat[lo:hi], sources, out=out[lo:hi], mode="clip")
        del sources  # freed before the next block builds its own

    return out, PoolArgmax(tap, kernel, stride, (n, c, h, wd))


def maxpool_backward(argmax: PoolArgmax, upstream: np.ndarray) -> np.ndarray:
    """Route upstream gradient to the recorded argmax positions."""
    if argmax is None:
        raise ValueError("maxpool_backward: argmax record is required")
    up4 = _as_batched_images(upstream, "maxpool_backward")
    taps, k = argmax.taps, argmax.kernel
    if up4.shape != taps.shape:
        raise ValueError(
            f"maxpool_backward: upstream shape {up4.shape} does not match "
            f"argmax shape {taps.shape}"
        )
    if taps.size and (taps.min() < 0 or taps.max() >= k * k):
        raise ValueError(f"maxpool_backward: argmax tap out of range for a {k}x{k} window")

    # One bincount over sample-offset indices sums where windows overlap.
    n, c, h, wd = argmax.input_shape
    flat = _pool_sources(taps, k, argmax.stride, argmax.input_shape)
    flat += (np.arange(n) * (c * h * wd))[:, None, None, None]
    dx = np.bincount(flat.reshape(-1), weights=up4.reshape(-1), minlength=n * c * h * wd)
    return dx.astype(up4.dtype, copy=False).reshape(n, c, h, wd)


# ---------------------------------------------------------------------------
# local response normalization (cross-channel)
# ---------------------------------------------------------------------------


@dataclass
class LrnCtx:
    x: np.ndarray
    n: int
    k: float
    alpha: float
    beta: float


def _window_sum(v: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` the sum of ``v`` over the clipped channel window
    [c - n//2, c + n//2], each channel's terms added in ascending channel
    order onto 0.0; ``out`` must not share memory with ``v``."""
    c = v.shape[1]
    half = n // 2
    out.fill(0.0)
    for d in range(-half, half + 1):
        lo = max(0, -d)
        hi = min(c, c - d)
        if lo < hi:
            out[:, lo:hi] += v[:, lo + d : hi + d]
    return out


def _lrn_base(x4: np.ndarray, n: int, k: float, alpha: float, sq: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """Write ``k + alpha * windowed sum of squares`` into ``out``, with ``sq``
    as scratch for the squares: one expression for the forward and for the
    backward, which recomputes it, so both see the same bits."""
    base = _window_sum(np.multiply(x4, x4, out=sq), n, out)
    base *= alpha
    base += k
    return base


def lrn_forward(
    x: np.ndarray, n: int, k: float, alpha: float, beta: float
) -> tuple[np.ndarray, LrnCtx]:
    """Cross-channel normalization: ``x_c / (k + alpha * sum sq)**beta``.

    The window around channel ``c`` spans ``n // 2`` channels to either side,
    clipped at the tensor edges.
    """
    x4 = _as_batched_images(x, "lrn_forward")
    if n < 1:
        raise ValueError(f"lrn_forward: window depth must be >= 1, got {n}")
    out = np.empty_like(x4)
    base = _lrn_base(x4, n, k, alpha, sq=out, out=np.empty_like(x4))
    if np.any(base <= 0):
        raise ValueError("lrn_forward: non-positive normalization denominator")
    np.divide(x4, np.power(base, beta, out=base), out=out)
    return out, LrnCtx(x4, n, k, alpha, beta)


def lrn_backward(ctx: LrnCtx, upstream: np.ndarray) -> np.ndarray:
    if ctx is None:
        raise ValueError("lrn_backward: forward context is required")
    up4 = _as_batched_images(upstream, "lrn_backward")
    x = ctx.x
    if up4.shape != x.shape:
        raise ValueError(
            f"lrn_backward: upstream shape {up4.shape} does not match input {x.shape}"
        )
    # the module's LRN scratch: a holds the squares, then p, then dx; b the
    # base, then the window sum; t the summand, then c * x times that sum
    a, b, t = (np.empty(x.shape, dtype=np.result_type(x, up4)) for _ in range(3))
    base = _lrn_base(x, ctx.n, ctx.k, ctx.alpha, sq=a, out=b)
    inv_pow = np.power(base, -ctx.beta, out=a)
    np.multiply(up4, x, out=t)
    t *= inv_pow
    t /= base
    ws = _window_sum(t, ctx.n, out=b)
    cx = np.multiply(2.0 * ctx.alpha * ctx.beta, x, out=t)
    cx *= ws
    dx = np.multiply(up4, inv_pow, out=a)
    dx -= cx
    return dx


# ---------------------------------------------------------------------------
# fully connected
# ---------------------------------------------------------------------------


#: Bytes of weight rows per chunk of ``fc_forward``.  Every row of the batch
#: reads a chunk before the next chunk is read, so the chunk comes from cache
#: for all rows but the first.  A weight of at most this size is one chunk.
FC_CHUNK_BYTES = 1 << 20


def fc_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, LinearCtx]:
    """Affine map ``out = w^T x + b`` with ``w`` of shape (in, out), one GEMV
    per row per weight chunk (the module's determinism contract)."""
    x = np.asarray(x)
    w = np.asarray(w)
    b = np.asarray(b)
    if x.ndim != 2:
        raise ValueError(f"fc_forward: expected an (N,D) batch, got ndim={x.ndim}")
    if w.ndim != 2:
        raise ValueError(f"fc_forward: weights must be 2-D (in,out), got {w.shape}")
    d_in, d_out = w.shape
    if x.shape[1] != d_in:
        raise ValueError(
            f"fc_forward: input length {x.shape[1]} does not match weight "
            f"inner extent {d_in}"
        )
    if b.shape != (d_out,):
        raise ValueError(f"fc_forward: bias must have shape ({d_out},), got {b.shape}")

    rows = max(1, FC_CHUNK_BYTES // (d_out * w.itemsize))
    out = np.matmul(x[:, None, :rows], w[:rows])[:, 0]
    for lo in range(rows, d_in, rows):
        out += np.matmul(x[:, None, lo : lo + rows], w[lo : lo + rows])[:, 0]
    return out + b, LinearCtx(x, w)


def fc_backward(ctx: LinearCtx, upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if ctx is None:
        raise ValueError("fc_backward: forward context is required")
    up = np.asarray(upstream)
    if up.shape != (ctx.x.shape[0], ctx.w.shape[1]):
        raise ValueError(
            f"fc_backward: upstream shape {up.shape} does not match output "
            f"({ctx.x.shape[0]}, {ctx.w.shape[1]})"
        )
    return up @ ctx.w.T, ctx.x.T @ up, up.sum(axis=0)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``max(x, 0)``; with ``out=x`` it overwrites its input."""
    return np.maximum(np.asarray(x), 0.0, out=out)


def relu_backward(active: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gate ``upstream`` in place by ``active``, the forward's bool mask
    ``x > 0`` (equivalently ``relu(x) > 0``; a NaN input is inactive), and
    return it."""
    active = np.asarray(active)
    up = np.asarray(upstream)
    if active.dtype != bool:
        raise ValueError(f"relu_backward: expected a bool mask, got dtype {active.dtype}")
    if up.shape != active.shape:
        raise ValueError(f"relu_backward: shape mismatch {up.shape} vs {active.shape}")
    # a same-dtype multiply (the bool-times-float one costs twice as much),
    # with the mask cast to that dtype one sample block at a time
    a1, up1 = np.atleast_1d(active, up)
    for lo, hi in sample_blocks(len(up1), up1[:1].nbytes):
        np.multiply(up1[lo:hi], a1[lo:hi].astype(up.dtype), out=up1[lo:hi])
    return up


def sigmoid(z):
    """Numerically stable logistic function; never overflows for finite z."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out[()]  # a 0-d input gives an np.float64 scalar
