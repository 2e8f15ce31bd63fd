"""Network assembly: layer descriptions, parameter initialization, and the
forward/backward walk through a conv/pool/LRN/FC trunk.

A trunk maps a face image (plus, optionally, a bridging descriptor) to a flat
feature vector.  The descriptor joins the data path exactly once, concatenated
to the flattened conv features at the input of the first fully-connected
layer.  Zeroing the descriptor reduces the trunk to its image-only variant
without changing any parameter shape.

A ``NetworkSpec`` places its layers once, at construction, into one plan of
``LayerStep``s: each layer's name, in and out shapes and parameter shapes,
and a ``flatten`` flag on the first fc layer, where the descriptor joins.
``trace``, ``param_shapes``, ``init_trunk_params``, the forward and backward
walks and ``min_kink_margin`` all read that plan; none re-derives a shape.
The trunk runs the per-sample GEMM forward of ``ops`` (``exact=False``).

The ops take batches only; the trunk is the one place that also accepts a
single image.  ``_trunk_input`` lifts a (C,H,W) image and its flat descriptor
to a batch of one, and ``trunk_forward`` (on its output) and
``trunk_backward`` (on ``d_image`` and ``d_h``) drop that axis again, so a
single image gets exactly the bits of row 0 of the batch-of-one call.

``trunk_forward`` and ``min_kink_margin`` both walk the plan through one
per-step forward, ``_step_forward``.  ``trunk_forward``'s cache keeps one
``(step, ctx)`` entry per layer, and in it only what ``trunk_backward``
reads:

=======  ==============================================================
step     ctx
=======  ==============================================================
conv     ``ConvCtx``: the layer's input and weights
fc       ``FcCtx``: the layer's input and weights
lrn      ``LrnCtx``: the layer's input (the base is recomputed)
maxpool  ``PoolArgmax``: each output's tap in its window, one byte each
relu     the mask ``out > 0`` packed by ``np.packbits``, one bit per element
=======  ==============================================================

A relu writes its output over its input whenever the walk made that input
(every step but the first, so the caller's image is never written): no ctx
holds its own step's output, so nothing else reads the overwritten array.
``min_kink_margin`` needs the relu and pool inputs, which the cache does not
hold, so it runs its own forward walk and reads them as it passes.
"""

from __future__ import annotations

import math
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
    pool_windows,
    relu,
    relu_backward,
)
from .tensor import ParameterSet, Tensor

LAYER_KINDS = ("conv", "maxpool", "lrn", "fc", "relu")


@dataclass(frozen=True)
class LayerSpec:
    """One trunk layer; which fields apply depends on ``kind``."""

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
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        for key in ("kernel", "filters", "out_dim", "stride", "lrn_n"):
            v = getattr(self, key)
            if type(v) is not int and (v is not None or key == "stride"):
                raise ValueError(f"layer field {key!r} must be an int, got {v!r}")
        if self.kind == "conv":
            if not (self.kernel and self.kernel >= 1 and self.filters and self.filters >= 1):
                raise ValueError("conv layer needs kernel >= 1 and filters >= 1")
        elif self.kind == "maxpool":
            if not (self.kernel and self.kernel >= 1):
                raise ValueError("maxpool layer needs kernel >= 1")
        elif self.kind == "fc":
            if not (self.out_dim and self.out_dim >= 1):
                raise ValueError("fc layer needs out_dim >= 1")
        elif self.kind == "lrn":
            if self.lrn_n is None or self.lrn_n < 1:
                raise ValueError("lrn layer needs window depth n >= 1")
            if self.lrn_k is None or self.lrn_alpha is None or self.lrn_beta is None:
                raise ValueError("lrn layer needs k, alpha, beta")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for key in ("kernel", "filters", "out_dim", "lrn_n", "lrn_k", "lrn_alpha", "lrn_beta"):
            v = getattr(self, key)
            if v is not None:
                d[key] = v
        if self.stride != 1:
            d["stride"] = self.stride
        return d

    @staticmethod
    def from_dict(d: dict) -> "LayerSpec":
        unknown = sorted(set(d) - {f.name for f in fields(LayerSpec)})
        if unknown:
            raise ValueError(f"unknown layer field(s) {unknown}")
        return LayerSpec(**d)


def conv_spec(kernel: int, filters: int, stride: int = 1) -> LayerSpec:
    return LayerSpec("conv", kernel=kernel, filters=filters, stride=stride)


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
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.input_shape) != 3 or any(v < 1 for v in self.input_shape):
            raise ValueError(f"input_shape must be (C,H,W) of positive ints, got {self.input_shape}")
        if self.bridge_dim < 0:
            raise ValueError("bridge_dim must be >= 0")
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

    def trace(self) -> list[tuple[int, ...]]:
        """Shape after every layer."""
        return [step.out_shape for step in self.plan]

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
        return NetworkSpec(
            input_shape=tuple(d["input_shape"]),
            layers=tuple(LayerSpec.from_dict(ld) for ld in d["layers"]),
            bridge_dim=int(d.get("bridge_dim", 0)),
        )


def init_trunk_params(
    spec: NetworkSpec, rng: np.random.Generator, prefix: str = "trunk."
) -> ParameterSet:
    """He-scaled Gaussian weights, zero biases, all with grad slots."""
    params = ParameterSet()
    for name, shape in spec.param_shapes().items():
        if name.endswith(".b"):
            data = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[:-1])) if len(shape) == 2 else int(np.prod(shape[1:]))
            data = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        params.add(prefix + name, Tensor(data, np.zeros(shape)))
    return params


@dataclass
class TrunkCache:
    """``(step, ctx)`` for every layer of one forward pass, for the backward
    (the module docstring's table says what each ctx keeps); ``single`` says
    the forward lifted a single image to a batch of one."""

    entries: list[tuple[LayerStep, Any]] = field(default_factory=list)
    single: bool = False


def _trunk_input(
    spec: NetworkSpec, image: np.ndarray, h: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """``image`` and ``h`` as a float64 batch, checked against the spec, and
    whether the caller passed a single image.

    The one place that accepts a single image: a (C,H,W) ``image`` and its
    flat ``h`` become a batch of one, which the caller drops again.
    """
    image = np.asarray(image, dtype=np.float64)
    single = image.ndim != 4
    if single:
        image = image[None]
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
        if h.shape[-1] != spec.bridge_dim:
            raise ValueError(
                f"bridge descriptor length {h.shape[-1]} does not match "
                f"configured bridge_dim {spec.bridge_dim}"
            )
        if single:
            h = h[None]
        if h.shape != (len(image), spec.bridge_dim):
            raise ValueError("a batch needs one descriptor row per image, a single image "
                             "a flat descriptor")
    return image, h, single


def _step_forward(
    spec: NetworkSpec,
    params: ParameterSet,
    step: LayerStep,
    x: np.ndarray,
    h: np.ndarray | None,
    owned: bool,
) -> tuple[np.ndarray, Any]:
    """Run one plan step on ``x``; returns (output, cache ctx).

    ``owned`` says the walk made ``x``, so a relu may write over it: no ctx
    holds its step's own output (see ``ops``), so nothing else reads ``x``.
    """
    layer = step.layer
    if step.flatten:
        x = x.reshape(len(x), -1)
        if spec.bridge_dim > 0:
            x = np.concatenate([x, h], axis=1)
    if layer.kind == "conv":
        return conv_forward(x, params[f"trunk.{step.name}.w"].data,
                            params[f"trunk.{step.name}.b"].data, layer.stride, exact=False)
    if layer.kind == "maxpool":
        return maxpool_forward(x, layer.kernel, layer.stride)
    if layer.kind == "lrn":
        return lrn_forward(x, layer.lrn_n, layer.lrn_k, layer.lrn_alpha, layer.lrn_beta)
    if layer.kind == "relu":
        out = relu(x, out=x if owned else None)
        return out, np.packbits(out > 0)
    return fc_forward(x, params[f"trunk.{step.name}.w"].data,
                      params[f"trunk.{step.name}.b"].data, exact=False)


def trunk_forward(
    spec: NetworkSpec,
    params: ParameterSet,
    image: np.ndarray,
    h: np.ndarray | None = None,
) -> tuple[np.ndarray, TrunkCache]:
    """Run the trunk on one image or a batch; returns (features, cache).

    ``h`` is the bridging descriptor (already standardized); it is mandatory
    when the spec declares ``bridge_dim > 0`` and must have that length.
    Parameters are read under the ``trunk.`` names that ``init_trunk_params``
    gives by default and checkpoints store.  The caller's arrays are never
    written.
    """
    cur, h, single = _trunk_input(spec, image, h)
    cache = TrunkCache(single=single)
    for i, step in enumerate(spec.plan):
        cur, ctx = _step_forward(spec, params, step, cur, h, owned=i > 0)
        cache.entries.append((step, ctx))
    return (cur[0] if single else cur), cache


def trunk_backward(
    spec: NetworkSpec,
    params: ParameterSet,
    cache: TrunkCache,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Accumulate parameter grads; returns (d_image, d_descriptor), each
    without the batch axis when the forward took a single image."""
    grad = np.asarray(upstream)
    if cache.single:
        grad = grad[None]
    d_h = None
    for step, ctx in reversed(cache.entries):
        kind = step.layer.kind
        if kind in ("conv", "fc"):
            backward = conv_backward if kind == "conv" else fc_backward
            grad, dw, db = backward(ctx, grad)
            params[f"trunk.{step.name}.w"].accumulate_grad(dw)
            params[f"trunk.{step.name}.b"].accumulate_grad(db)
        elif kind == "maxpool":
            grad = maxpool_backward(ctx, grad)
        elif kind == "lrn":
            grad = lrn_backward(ctx, grad)
        else:
            shape = (len(grad),) + step.out_shape
            active = np.unpackbits(ctx, count=math.prod(shape)).view(bool).reshape(shape)
            grad = relu_backward(active, grad)
        if step.flatten:
            if spec.bridge_dim > 0:
                d_h = grad[:, -spec.bridge_dim:]
                grad = grad[:, : -spec.bridge_dim]
            grad = grad.reshape((len(grad),) + step.in_shape)
    if cache.single:
        return grad[0], (None if d_h is None else d_h[0])
    return grad, d_h


def min_kink_margin(
    spec: NetworkSpec,
    params: ParameterSet,
    image: np.ndarray,
    h: np.ndarray | None = None,
) -> float:
    """Distance of the forward pass on ``image`` from its nearest non-smooth
    point.

    The minimum over all ReLU pre-activations of ``|x|`` and over all pooling
    windows of the gap between the top two values.  Finite-difference probes
    are only trustworthy when this margin comfortably exceeds the probe step.
    The cache keeps neither, so this runs its own forward walk and reads each
    relu and pool input as it passes.
    """
    cur, h, _ = _trunk_input(spec, image, h)
    margin = np.inf
    for i, step in enumerate(spec.plan):
        layer = step.layer
        if layer.kind == "relu":
            margin = min(margin, float(np.min(np.abs(cur))))
        elif layer.kind == "maxpool" and layer.kernel >= 2:
            stack = pool_windows(cur, layer.kernel, layer.stride)
            top2 = np.sort(stack, axis=-1)[..., -2:]
            gap = top2[..., 1] - top2[..., 0]
            # Windows whose top two entries are exactly 0 are upstream
            # ReLU clips, frozen in a neighborhood; the ReLU margin
            # already guards against them flipping sign.
            frozen = (gap == 0.0) & (top2[..., 1] == 0.0)
            live = gap[~frozen]
            if live.size:
                margin = min(margin, float(np.min(live)))
        cur, _ = _step_forward(spec, params, step, cur, h, owned=i > 0)
    return margin
