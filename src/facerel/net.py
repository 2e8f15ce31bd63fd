"""Network assembly: layer descriptions, parameter initialization, and the
forward/backward walk through a conv/pool/LRN/FC trunk (every conv stride 1).

A trunk maps a face image (plus, optionally, a bridging descriptor) to a flat
feature vector.  The descriptor joins the data path exactly once, concatenated
to the flattened conv features at the input of the first fully-connected
layer.  Zeroing the descriptor reduces the trunk to its image-only variant
without changing any parameter shape.

A ``NetworkSpec`` places its layers once, at construction, into one plan of
``LayerStep``s: each layer's name, in and out shapes and parameter shapes,
and a ``flatten`` flag on the first fc layer, where the descriptor joins.
``param_shapes``, ``init_trunk_params`` and the forward and backward walks
all read that plan; none re-derives a shape.  The trunk runs the per-sample
GEMM forward of ``ops`` and, like every op, takes batches only: an
(N,C,H,W) image batch and an (N, bridge_dim) descriptor batch.

The walk runs the spatial steps (every step before the flatten) one sample
block of at most ``TRUNK_BLOCK`` faces at a time: a block goes through all
of them before the next block starts, and its output rows are written into
one (N, ...) array.  The fc tail (the flatten step and all after it) then
runs once over the whole batch.  ``trunk_backward`` walks the tail once,
then each block's spatial steps in reverse, adding its parameter gradients,
blocks in ascending order.  It returns the descriptor's gradient ``d_h``
only: no gradient for the image is formed.  The steps before the plan's
first parameter step are skipped, and a conv in that place forms no input
gradient.  Every op is batch invariant, so outputs and ``d_h`` carry the
bits of a one-block walk; a parameter gradient sums its blocks' parts,
which may round differently (within 1e-12 of its largest magnitude).

``trunk_forward``'s cache is a list of entries: one ``(None, rows)`` per
sample block but the last, where ``rows`` is a view of the block's rows of
the input (the image the first step read); then one ``(step, ctx)`` per
spatial step of the last block; then one per tail step.  A ctx covers the
last block's rows (a spatial step) or the whole batch (a tail step), and
keeps only what ``trunk_backward`` reads:

=======  ==========  ======================================================
step     rows        ctx
=======  ==========  ======================================================
conv     last block  ``LinearCtx``: the layer's input and weights
lrn      last block  ``LrnCtx``: the layer's input (the base is recomputed)
maxpool  last block  ``PoolArgmax``: each output's tap in its window, one byte
relu     either      ``(rows, mask)``: the row count and the mask ``out > 0``
                     packed by ``np.packbits``, one bit per element
fc       the batch   ``LinearCtx``: the layer's input and weights
=======  ==========  ======================================================

So a forward holds one block's spatial ctxs whatever N is, and a caller
that never runs the backward pays for no more.  A batch of at most
``TRUNK_BLOCK`` faces is one block and keeps every ctx.  Before an earlier
block's backward, ``trunk_backward`` re-runs that block's spatial steps
from its rows, through the same calls as the forward: the walk is
deterministic, so the re-made ctxs carry the forward's bits and the
gradients those of a walk that kept every ctx.  The price is one more
spatial forward per earlier block.  It rests on one contract: the
parameters and the caller's image must not change between the forward and
the backward (the conv ctxs already hold both by reference).

A relu writes its output over its input whenever the walk made that input
(every step but the first, so the caller's image is never written): no ctx
holds its own step's output, so nothing else reads the overwritten array.
Its backward always gates in place: ``trunk_backward`` walks its own
float64 copy of ``upstream``, so the caller's is never written.

``trunk_backward`` consumes the cache: it sets each entry to ``None`` as
soon as that step's backward has run (an earlier block's entry once its
steps have been re-run), so each ctx, with the input array it keeps, is
freed partway through the walk, not when the walk returns.  A second
``trunk_backward`` on a consumed cache raises ``ValueError``; a caller that
needs another backward runs the forward again.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .ops import (
    conv_backward,
    conv_forward,
    fc_backward,
    fc_forward,
    lrn_backward,
    lrn_forward,
    maxpool_backward,
    maxpool_forward,
    relu,
    relu_backward,
)
from .tensor import ParameterSet, Tensor

#: The fields each layer kind reads; every other field of its ``LayerSpec`` stays unset.
LAYER_FIELDS = {"conv": ("kernel", "filters"), "maxpool": ("kernel", "stride"),
                "lrn": ("lrn_n", "lrn_k", "lrn_alpha", "lrn_beta"), "fc": ("out_dim",), "relu": ()}

#: Faces per sample block of the trunk's spatial steps (every step before the
#: flatten).  A larger batch runs them one block at a time, so their scratch
#: and the ctxs the forward keeps (the last block's) are bounded by a block,
#: not by the batch; its backward re-runs each earlier block.  A training
#: batch of 32 faces and a scored pair stay one block.
TRUNK_BLOCK = 32


@dataclass(frozen=True)
class LayerSpec:
    """One trunk layer.  ``LAYER_FIELDS`` lists the fields each kind reads:
    conv ``kernel``, ``filters`` (a conv slides one pixel at a time);
    maxpool ``kernel``, ``stride``; lrn ``lrn_n``, ``lrn_k``, ``lrn_alpha``,
    ``lrn_beta``; fc ``out_dim``; relu none.  A size a kind reads is an
    int >= 1 and an lrn constant a finite real number; every other field
    stays at its default, ``None`` (``stride``: 1)."""

    kind: str
    kernel: int | None = None
    filters: int | None = None
    out_dim: int | None = None
    stride: int = 1
    lrn_n: int | None = None
    lrn_k: float | None = None
    lrn_alpha: float | None = None
    lrn_beta: float | None = None

    def __post_init__(self):
        if type(self.kind) is not str or self.kind not in LAYER_FIELDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        for f in fields(self)[1:]:
            v = getattr(self, f.name)
            if f.name not in LAYER_FIELDS[self.kind]:
                if type(v) is not type(f.default) or v != f.default:
                    raise ValueError(f"{self.kind} layer does not read field {f.name!r}, got {v!r}")
            elif f.name in ("lrn_k", "lrn_alpha", "lrn_beta"):
                if not (isinstance(v, numbers.Real) and type(v) is not bool and math.isfinite(v)):
                    raise ValueError(
                        f"layer field {f.name!r} must be a finite real number, got {v!r}")
            elif type(v) is not int or v < 1:
                raise ValueError(f"layer field {f.name!r} must be an int >= 1, got {v!r}")

    def to_dict(self) -> dict:
        """The kind and the fields it reads, but for a stride at its default 1."""
        set_fields = {f.name: getattr(self, f.name) for f in fields(self)[1:]
                      if getattr(self, f.name) != f.default}
        return {"kind": self.kind, **set_fields}

    @staticmethod
    def from_dict(d: dict) -> "LayerSpec":
        unknown = sorted(set(d) - {f.name for f in fields(LayerSpec)})
        if unknown:
            raise ValueError(f"unknown layer field(s) {unknown}")
        return LayerSpec(**d)


def conv_spec(kernel: int, filters: int) -> LayerSpec:
    return LayerSpec("conv", kernel=kernel, filters=filters)


def pool_spec(kernel: int, stride: int) -> LayerSpec:
    return LayerSpec("maxpool", kernel=kernel, stride=stride)


def lrn_spec(n: int = 5, k: float = 2.0, alpha: float = 1e-4, beta: float = 0.75) -> LayerSpec:
    return LayerSpec("lrn", lrn_n=n, lrn_k=k, lrn_alpha=alpha, lrn_beta=beta)


def fc_spec(out_dim: int) -> LayerSpec:
    return LayerSpec("fc", out_dim=out_dim)


def relu_spec() -> LayerSpec:
    return LayerSpec("relu")


@dataclass(frozen=True)
class LayerStep:
    """One layer placed in a trunk: its name, shapes and parameter shapes.

    ``flatten`` marks the first fc layer, where the spatial features are
    flattened and the bridging descriptor is appended; its ``in_shape`` is
    the spatial shape before flattening.
    """

    name: str
    layer: LayerSpec
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    param_shapes: dict[str, tuple[int, ...]]
    flatten: bool = False


@dataclass(frozen=True)
class NetworkSpec:
    """A trunk architecture: input geometry, layer stack, descriptor width.

    ``plan`` holds every layer placed once, at construction; it is derived
    from the other fields and takes no part in equality, hashing or
    ``to_dict``.
    """

    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]
    bridge_dim: int = 0
    plan: tuple[LayerStep, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.input_shape) != 3 or any(type(v) is not int or v < 1 for v in self.input_shape):
            raise ValueError(
                f"network field 'input_shape' must be (C,H,W) of positive ints, got {self.input_shape}"
            )
        if type(self.bridge_dim) is not int or self.bridge_dim < 0:
            raise ValueError(f"network field 'bridge_dim' must be an int >= 0, got {self.bridge_dim!r}")
        object.__setattr__(self, "plan", self._place())

    def _place(self) -> tuple[LayerStep, ...]:
        """Place every layer in order; raises if any layer cannot be placed."""
        if not self.layers:
            raise ValueError("a trunk needs at least one layer")
        steps: list[LayerStep] = []
        counts = {"conv": 0, "fc": 0}
        cur: tuple[int, ...] = self.input_shape
        for idx, layer in enumerate(self.layers):
            where = f"layer {idx} ({layer.kind})"
            name, shapes, out, flatten = layer.kind, {}, cur, False
            if layer.kind in counts:
                counts[layer.kind] += 1
                name = f"{layer.kind}{counts[layer.kind]}"
            if layer.kind in ("conv", "maxpool", "lrn") and len(cur) != 3:
                raise ValueError(f"{where}: requires a spatial (C,H,W) input, have {cur}")
            if layer.kind in ("conv", "maxpool"):
                c, h, w = cur
                if h < layer.kernel or w < layer.kernel:
                    raise ValueError(f"{where}: kernel {layer.kernel} does not fit {h}x{w}")
                out = (
                    layer.filters if layer.kind == "conv" else c,
                    (h - layer.kernel) // layer.stride + 1,
                    (w - layer.kernel) // layer.stride + 1,
                )
                if layer.kind == "conv":
                    shapes = {f"{name}.w": (layer.filters, c, layer.kernel, layer.kernel),
                              f"{name}.b": (layer.filters,)}
            elif layer.kind == "fc":
                # every layer before the first fc keeps a (C,H,W) shape
                flatten = counts["fc"] == 1
                d_in = cur[0] * cur[1] * cur[2] + self.bridge_dim if flatten else cur[0]
                out = (layer.out_dim,)
                shapes = {f"{name}.w": (d_in, layer.out_dim), f"{name}.b": (layer.out_dim,)}
            # lrn and relu keep the shape
            steps.append(LayerStep(name, layer, cur, out, shapes, flatten))
            cur = out
        if self.bridge_dim > 0 and counts["fc"] == 0:
            raise ValueError("a trunk with a bridge descriptor needs at least one fc layer")
        return tuple(steps)

    @property
    def feature_dim(self) -> int:
        last = self.plan[-1].out_shape
        if len(last) != 1:
            raise ValueError("trunk must end in a flat feature vector (fc stack)")
        return last[0]

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: shape for step in self.plan for name, shape in step.param_shapes.items()}

    def to_dict(self) -> dict:
        return {
            "input_shape": list(self.input_shape),
            "bridge_dim": self.bridge_dim,
            "layers": [layer.to_dict() for layer in self.layers],
        }

    @staticmethod
    def from_dict(d: dict) -> "NetworkSpec":
        unknown = sorted(set(d) - {"input_shape", "layers", "bridge_dim"})
        if unknown:
            raise ValueError(f"unknown network field(s) {unknown}")
        layers = d["layers"]
        if not (isinstance(layers, list) and all(isinstance(ld, dict) for ld in layers)):
            raise ValueError(f"network field 'layers' must be a list of objects, got {layers!r}")
        return NetworkSpec(
            input_shape=tuple(d["input_shape"]),
            layers=tuple(LayerSpec.from_dict(ld) for ld in layers),
            bridge_dim=d["bridge_dim"],
        )


def init_trunk_params(
    spec: NetworkSpec, rng: np.random.Generator, prefix: str = "trunk."
) -> ParameterSet:
    """He-scaled Gaussian weights and zero biases, none with a gradient yet."""
    params = ParameterSet()
    for name, shape in spec.param_shapes().items():
        if name.endswith(".b"):
            data = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[:-1])) if len(shape) == 2 else int(np.prod(shape[1:]))
            data = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        params.add(prefix + name, Tensor(data))
    return params


def _trunk_input(
    spec: NetworkSpec, image: np.ndarray, h: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """``image`` and ``h`` as float64 batches, checked against the spec."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 4:
        raise ValueError(f"the trunk takes an (N,C,H,W) batch of images, got shape {image.shape}")
    if len(image) == 0:
        raise ValueError("the trunk takes at least one image, got an empty batch (N = 0)")
    if image.shape[1:] != spec.input_shape:
        raise ValueError(
            f"input geometry {image.shape[1:]} does not match trunk input {spec.input_shape}"
        )
    if spec.bridge_dim == 0 and h is not None:
        raise ValueError("this trunk takes no bridge descriptor (bridge_dim is 0)")
    if spec.bridge_dim > 0:
        if h is None:
            raise ValueError("this trunk expects a bridge descriptor input")
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (len(image), spec.bridge_dim):
            raise ValueError(
                f"bridge descriptor has shape {h.shape}, expected (N, bridge_dim) = "
                f"({len(image)}, {spec.bridge_dim})"
            )
    return image, h


def _walk_parts(spec: NetworkSpec, n: int):
    """The plan's spatial steps, the ``(lo, hi)`` rows of each sample block
    they run on, and its fc tail (the flatten step and every step after it)."""
    split = next((i for i, step in enumerate(spec.plan) if step.flatten), len(spec.plan))
    blocks = [(lo, min(n, lo + TRUNK_BLOCK)) for lo in range(0, n, TRUNK_BLOCK)] if split else []
    return spec.plan[:split], blocks, spec.plan[split:]


def _step_forward(step: LayerStep, params: ParameterSet, x: np.ndarray, made: bool):
    """One plan step on ``x``; ``made`` says the walk made ``x``, so that
    nothing else reads it and a relu may write over it."""
    layer = step.layer
    if layer.kind == "conv":
        return conv_forward(x, params[f"trunk.{step.name}.w"].data,
                            params[f"trunk.{step.name}.b"].data)
    if layer.kind == "fc":
        return fc_forward(x, params[f"trunk.{step.name}.w"].data,
                          params[f"trunk.{step.name}.b"].data)
    if layer.kind == "maxpool":
        return maxpool_forward(x, layer.kernel, layer.stride)
    if layer.kind == "lrn":
        return lrn_forward(x, layer.lrn_n, layer.lrn_k, layer.lrn_alpha, layer.lrn_beta)
    x = relu(x, out=x if made else None)
    return x, (len(x), np.packbits(x > 0))


def _step_backward(cache: list, i: int, params: ParameterSet, grad: np.ndarray,
                   input_grad: bool = True):
    """The gradient at the input of cache entry ``i``'s step, or ``None``
    when ``input_grad`` is false (then a step without parameters does no
    work); adds its parameter grads, then clears the entry, so its ctx is
    freed on return.  A relu gates ``grad`` in place: the walk owns every
    gradient it holds."""
    step, ctx = cache[i]
    kind = step.layer.kind
    if kind in ("conv", "fc"):
        if kind == "conv":
            grad, dw, db = conv_backward(ctx, grad, input_grad=input_grad)
        else:
            grad, dw, db = fc_backward(ctx, grad)
        params[f"trunk.{step.name}.w"].accumulate_grad(dw)
        params[f"trunk.{step.name}.b"].accumulate_grad(db)
    elif not input_grad:
        grad = None
    elif kind == "maxpool":
        grad = maxpool_backward(ctx, grad)
    elif kind == "lrn":
        grad = lrn_backward(ctx, grad)
    else:
        rows, mask = ctx
        if len(grad) != rows:
            raise ValueError(f"{step.name}: upstream has {len(grad)} rows, the forward gated {rows}")
        shape = (rows,) + step.out_shape
        active = np.unpackbits(mask, count=math.prod(shape)).view(bool).reshape(shape)
        grad = relu_backward(active, grad)
    cache[i] = None
    return grad


def check_trunk_params(spec: NetworkSpec, params: ParameterSet) -> None:
    """Raise ``ValueError`` naming the first ``trunk.`` parameter of ``spec``
    that ``params`` lacks or holds in another shape; other names are not read."""
    for name, shape in spec.param_shapes().items():
        key = "trunk." + name
        if key not in params:
            raise ValueError(f"parameter {key!r} of the network is missing")
        if params[key].shape != shape:
            raise ValueError(
                f"parameter {key!r} has shape {params[key].shape}, the network needs {shape}"
            )


def _block_forward(spatial, params: ParameterSet, x: np.ndarray, entries: list) -> np.ndarray:
    """One sample block through the spatial steps; appends each step's
    ``(step, ctx)`` to ``entries`` and returns the block's output."""
    for i, step in enumerate(spatial):  # the first step reads the caller's image
        x, ctx = _step_forward(step, params, x, made=i > 0)
        entries.append((step, ctx))
    return x


def trunk_forward(
    spec: NetworkSpec,
    params: ParameterSet,
    image: np.ndarray,
    h: np.ndarray | None = None,
) -> tuple[np.ndarray, list[tuple[LayerStep | None, Any]]]:
    """Run the trunk on an (N,C,H,W) batch; returns (features, cache).

    ``h`` is the (N, bridge_dim) bridging descriptor (already standardized);
    it is mandatory when the spec declares ``bridge_dim > 0``.  Parameters
    are read under the ``trunk.`` names that ``init_trunk_params`` gives by
    default and checkpoints store; a missing or misshapen one raises
    ``ValueError``.  The caller's arrays are never written.
    """
    check_trunk_params(spec, params)
    x, h = _trunk_input(spec, image, h)
    spatial, blocks, tail = _walk_parts(spec, len(x))
    cache = []
    features = np.empty((len(x),) + spatial[-1].out_shape) if len(blocks) > 1 else None
    for lo, hi in blocks:
        entries = []  # frees the previous block's ctxs before this block runs
        y = _block_forward(spatial, params, x[lo:hi], entries)
        cache.append((None, x[lo:hi]))
        if features is None:  # one block: its output is the batch's
            features = y
        else:
            features[lo:hi] = y
    if blocks:
        cache[-1:] = entries  # the last block keeps its ctxs in place of its input
        x = features
    for step in tail:
        if step.flatten:
            x = x.reshape(len(x), -1)
            if spec.bridge_dim > 0:
                x = np.concatenate([x, h], axis=1)
        x, ctx = _step_forward(step, params, x, made=True)
        cache.append((step, ctx))
    return x, cache


def trunk_backward(
    spec: NetworkSpec,
    params: ParameterSet,
    cache: list[tuple[LayerStep | None, Any]],
    upstream: np.ndarray,
) -> np.ndarray | None:
    """Accumulate parameter grads; returns the descriptor's gradient
    ``d_h``, ``None`` when ``bridge_dim`` is 0.  No gradient for the image
    is formed.

    ``upstream`` is the gradient at the features of the batch ``cache``
    came from; the walk starts from a float64 copy, so it is never written.
    ``cache`` is consumed: every entry is ``None`` on return.  The
    parameters and the image of the forward must not have changed since:
    an earlier block's spatial steps are re-run here.
    """
    grad = np.array(upstream, dtype=np.float64)
    out_shape = spec.plan[-1].out_shape
    if grad.ndim != 1 + len(out_shape):
        raise ValueError(
            f"upstream has shape {grad.shape}, expected the features' shape "
            f"(N, {', '.join(map(str, out_shape))})"
        )
    spatial, blocks, tail = _walk_parts(spec, len(grad))
    kept = len(blocks) - 1 + len(spatial) if blocks else 0
    if len(cache) != kept + len(tail):
        raise ValueError(
            f"the cache holds {len(cache)} entries, but a walk of {len(grad)} images "
            f"through this trunk makes {kept + len(tail)}"
        )
    if any(entry is None for entry in cache):
        raise ValueError("the cache was consumed by an earlier trunk_backward; "
                         "run trunk_forward again")
    d_h = None
    for i in reversed(range(kept, len(cache))):
        step = cache[i][0]
        grad = _step_backward(cache, i, params, grad)
        if step.flatten:
            if spec.bridge_dim > 0:
                d_h = grad[:, -spec.bridge_dim:]
                grad = grad[:, : -spec.bridge_dim]
            grad = grad.reshape((len(grad),) + step.in_shape)
    # no gradient at or before the input of the plan's first parameter step is read
    lead = next((i for i, step in enumerate(spec.plan) if step.param_shapes), len(spec.plan))
    last = len(blocks) - 1
    for b, (lo, hi) in enumerate(blocks):
        if b < last:  # an earlier block kept its input: re-run its spatial steps
            entries, first = [], 0
            _block_forward(spatial, params, cache[b][1], entries)
            cache[b] = None
        else:  # the last block kept its ctxs
            entries, first = cache, last
        g = grad[lo:hi]
        for i in reversed(range(first, first + len(spatial))):
            g = _step_backward(entries, i, params, g, input_grad=i - first > lead)
    return d_h
