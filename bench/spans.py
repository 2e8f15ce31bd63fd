"""In-memory span recorder for the traced benchmark pass.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
span that was open when it began (its parent), and the id of the benchmark
operation it belongs to, so every span of one training step, one bank build
or one scored pair shares an id.  Spans are kept in memory and written out
once, when the run ends.

Spans come from two places:

* wrappers that ``installed`` puts around public ``facerel`` functions as
  they are bound in their *calling* module (``facerel.net.conv_forward`` is
  the name ``trunk_forward`` looks up, ``facerel.bridge.compute_hog`` the one
  ``build_cluster_tree`` and ``extract_descriptor`` look up), and removes
  again on exit;
* ``Recorder.span`` blocks in the benchmark's own code, around calls that
  have no module binding of their own (the attribute and relation heads).

A wrapped name that no longer exists is listed in ``Recorder.missing`` and
reported, never skipped silently.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "info")

    def __init__(self, id_, name, parent, op):
        self.id = id_
        self.name = name
        self.parent = parent
        self.op = op
        self.info = None
        self.start = self.end = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Op:
    """One timed benchmark operation; ``ms`` is set when its block ends."""

    __slots__ = ("id", "traced", "ms")

    def __init__(self, id_: str, traced: bool):
        self.id = id_
        self.traced = traced
        self.ms = 0.0


class Recorder:
    """Times operations, and collects spans while ``active``.

    With ``alternate`` set, the first operation of each kind is traced, the
    second is not, and so on, so traced and untraced operations interleave
    over the same stretch of machine time and their difference is the
    tracing overhead.
    """

    def __init__(self, active: bool = False, alternate: bool = False):
        self.active = active
        self.alternate = alternate
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._op = "setup"
        self._counts: dict[str, int] = defaultdict(int)

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, parent, self._op)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        return s

    def end(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        s = self.begin(name)
        try:
            yield
        finally:
            self.end(s)

    @contextmanager
    def op(self, kind: str):
        """Time one operation; every span begun inside it carries its id."""
        n = self._counts[kind]
        self._counts[kind] = n + 1
        o = Op(f"{kind}{n}", n % 2 == 0 if self.alternate else self.active)
        prev = self._op, self.active
        self._op, self.active = o.id, o.traced
        t0 = time.perf_counter()
        try:
            yield o
        finally:
            o.ms = (time.perf_counter() - t0) * 1e3
            self._op, self.active = prev

    @contextmanager
    def paused(self):
        """Record nothing inside the block (untimed correctness checks)."""
        prev, self.active = self.active, False
        try:
            yield
        finally:
            self.active = prev

    def children(self) -> dict[int | None, list[Span]]:
        out: dict[int | None, list[Span]] = defaultdict(list)
        for s in self.spans:
            out[s.parent].append(s)
        return out

    def self_ms(self, s: Span, children) -> float:
        """Span duration minus the part its child spans cover."""
        return s.ms - sum(c.ms for c in children.get(s.id, ()))

    def write(self, path) -> None:
        children = self.children()
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                    "start": s.start, "end": s.end,
                    "self_ms": self.self_ms(s, children), "info": s.info,
                }) + "\n")


def _wrap(rec: Recorder, fn, name: str, info):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        s = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(s)
        if info is not None:
            s.info = info(args, out)
        return out

    return traced


# ---------------------------------------------------------------------------
# what gets wrapped, and the operation counts read off each call
# ---------------------------------------------------------------------------


def _conv_fwd_flops(args, out):
    y, w = out[0], args[1]
    n = y.shape[0] if y.ndim == 4 else 1
    f, c, k, _ = w.shape
    return 2 * n * f * y.shape[-2] * y.shape[-1] * c * k * k


def _conv_bwd_flops(args, out):
    up, dw = args[1], out[1]
    n = up.shape[0] if up.ndim == 4 else 1
    f, c, k, _ = dw.shape
    # one multiply-add per (output, tap) for dW and again for dX
    return 4 * n * f * up.shape[-2] * up.shape[-1] * c * k * k


def _fc_fwd_flops(args, out):
    d_in, d_out = args[1].shape
    return 2 * (out[0].size // d_out) * d_in * d_out


def _fc_bwd_flops(args, out):
    d_in, d_out = out[1].shape
    return 4 * (args[1].size // d_out) * d_in * d_out


#: (module, attribute, span name, info read off the call)
TARGETS = (
    ("facerel.net", "conv_forward", "conv.fwd", _conv_fwd_flops),
    ("facerel.net", "conv_backward", "conv.bwd", _conv_bwd_flops),
    ("facerel.net", "maxpool_forward", "pool.fwd", None),
    ("facerel.net", "maxpool_backward", "pool.bwd", None),
    ("facerel.net", "lrn_forward", "lrn.fwd", None),
    ("facerel.net", "lrn_backward", "lrn.bwd", None),
    ("facerel.net", "relu", "relu.fwd", None),
    ("facerel.net", "relu_backward", "relu.bwd", None),
    ("facerel.net", "fc_forward", "fc.fwd", _fc_fwd_flops),
    ("facerel.net", "fc_backward", "fc.bwd", _fc_bwd_flops),
    ("facerel.net", "trunk_forward", "net.trunk_forward", None),
    ("facerel.net", "trunk_backward", "net.trunk_backward", None),
    ("facerel.losses", "masked_attr_loss", "losses.masked_attr_loss", None),
    ("facerel.optim", "sgd_step", "optim.sgd_step", None),
    ("facerel.bridge", "build_cluster_tree", "bridge.build_cluster_tree",
     lambda args, out: len(args[0])),
    ("facerel.bridge", "compute_hog", "hog.compute_hog", None),
    ("facerel.bridge", "kmeans", "kmeans.kmeans", lambda args, out: out.iterations),
    ("facerel.bridge", "extract_descriptor", "bridge.extract_descriptor", None),
    ("facerel.bridge", "network_descriptor", "bridge.network_descriptor", None),
    ("facerel.bridge", "save_bank", "serialize.save_bank", None),
    ("facerel.bridge", "load_bank", "serialize.load_bank", None),
    ("facerel.checkpoint", "save_checkpoint", "checkpoint.save", None),
    ("facerel.checkpoint", "load_checkpoint", "checkpoint.load", None),
    ("facerel.data", "load_manifest", "data.load_manifest", lambda args, out: len(out[2])),
    ("facerel.data", "spatial_cues", "data.spatial_cues", None),
)


@contextmanager
def installed(rec: Recorder, targets=TARGETS):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for module_name, attr, name, info in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                rec.missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(rec, fn, name, info))
        yield rec
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _layer_names(parent: Span, kids: list[Span]) -> list[tuple[str, Span]]:
    """Name each layer call under a trunk walk: the k-th conv is ``conv<k>``.

    ``trunk_backward`` visits layers in reverse, so there the first call of a
    kind is the last layer of that kind.
    """
    layers = [s for s in kids if s.name.split(".")[0] in ("conv", "pool", "lrn", "relu", "fc")]
    total: dict[str, int] = defaultdict(int)
    for s in layers:
        total[s.name.split(".")[0]] += 1
    seen: dict[str, int] = defaultdict(int)
    out = []
    for s in layers:
        kind = s.name.split(".")[0]
        seen[kind] += 1
        k = seen[kind] if parent.name == "net.trunk_forward" else total[kind] - seen[kind] + 1
        out.append((f"{kind}{k}", s))
    return out


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Every span-derived per-layer metric; a layer that did no work reads 0."""
    children = rec.children()
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in rec.spans:
        by_name[s.name].append(s)

    m: dict[str, float] = {}
    layer_ms: dict[str, list[float]] = defaultdict(list)
    flops: dict[str, float] = defaultdict(float)
    busy_ms: dict[str, float] = defaultdict(float)
    walks = by_name["net.trunk_forward"] + by_name["net.trunk_backward"]
    for walk in walks:
        direction = "fwd" if walk.name == "net.trunk_forward" else "bwd"
        for layer, s in _layer_names(walk, children.get(walk.id, [])):
            layer_ms[f"ops.{layer}.{direction}_ms"].append(s.ms)
            if s.info is not None:
                kind = s.name.split(".")[0]
                flops[kind] += s.info
                busy_ms[kind] += s.ms
    for key, values in layer_ms.items():
        m[key] = _median(values)
    for kind in ("conv", "fc"):
        m[f"ops.{kind}.gflops"] = flops[kind] / busy_ms[kind] / 1e6 if busy_ms[kind] else 0.0
    m["ops.head.fwd_ms"] = _median([s.ms for s in by_name["ops.head.fwd"]])
    m["ops.head.bwd_ms"] = _median([s.ms for s in by_name["ops.head.bwd"]])

    m["net.trunk_forward_ms"] = _median([s.ms for s in by_name["net.trunk_forward"]])
    m["net.trunk_backward_ms"] = _median([s.ms for s in by_name["net.trunk_backward"]])
    m["net.self_ms"] = (
        sum(rec.self_ms(s, children) for s in walks) / len(walks) if walks else 0.0
    )
    m["losses.masked_attr_loss_ms"] = _median([s.ms for s in by_name["losses.masked_attr_loss"]])
    m["optim.sgd_step_ms"] = _median([s.ms for s in by_name["optim.sgd_step"]])

    builds = by_name["bridge.build_cluster_tree"]
    build_ids = {s.id for s in builds}
    parent_of = {s.id: s.parent for s in rec.spans}

    def in_build(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if p in build_ids:
                return True
            p = parent_of[p]
        return False

    hogs = by_name["hog.compute_hog"]
    kms = by_name["kmeans.kmeans"]
    bank_faces = sum(s.info for s in builds)
    m["hog.us_per_image"] = _median([s.ms * 1e3 for s in hogs])
    m["hog.calls_per_bank_face"] = (
        sum(1 for s in hogs if in_build(s)) / bank_faces if bank_faces else 0.0
    )
    n_builds = len(builds) or 1
    m["kmeans.ms"] = sum(s.ms for s in kms if in_build(s)) / n_builds
    m["kmeans.calls"] = sum(1 for s in kms if in_build(s)) / n_builds
    m["kmeans.iterations"] = sum(s.info for s in kms if in_build(s)) / n_builds
    m["bridge.build_self_ms"] = _median([rec.self_ms(s, children) for s in builds])
    m["bridge.descriptor_us"] = _median(
        [s.ms * 1e3 for s in by_name["bridge.network_descriptor"]]
    )

    m["serialize.save_bank_ms"] = _median([s.ms for s in by_name["serialize.save_bank"]])
    m["serialize.load_bank_ms"] = _median([s.ms for s in by_name["serialize.load_bank"]])
    m["checkpoint.save_ms"] = _median([s.ms for s in by_name["checkpoint.save"]])
    m["checkpoint.load_ms"] = _median([s.ms for s in by_name["checkpoint.load"]])
    loads = by_name["data.load_manifest"]
    n_pairs = sum(s.info for s in loads)
    m["data.load_manifest_ms_per_pair"] = sum(s.ms for s in loads) / n_pairs if n_pairs else 0.0
    m["data.spatial_cues_us"] = _median([s.ms * 1e3 for s in by_name["data.spatial_cues"]])

    m["trace.spans"] = len(rec.spans)
    m["trace.missing_spans"] = len(rec.missing)
    m["trace.min_self_ms"] = min(
        (rec.self_ms(s, children) for s in rec.spans), default=0.0
    )
    return m
