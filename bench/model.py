"""The benchmark's fixed geometries and the two heads it puts on the trunk.

The package has no trainer or relation model yet, so the benchmark composes
them here from public calls only: ``trunk_forward``/``trunk_backward`` for
the shared trunk, ``fc_forward``/``fc_backward`` plus ``sigmoid`` for the
heads, ``masked_attr_loss`` and ``sgd_step`` for training.  Head weights are
initialised by ``init_trunk_params`` on a one-layer spec, so no kernel or
initialisation logic is copied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from facerel import data, losses, net, ops, optim
from facerel.tensor import ParameterSet


@dataclass(frozen=True)
class Geometry:
    name: str
    image_size: int
    layers: tuple
    bank: int                 # T = U = L of the template bank
    per_corpus: int           # faces in each of corpora a, b, c
    heldout_per_corpus: int   # disjoint faces per corpus for the held-out loss
    batch: int
    steps: int                # fixed step count at which the held-out loss is taken
    lr: float
    queries: int              # single-face descriptor queries per bank build, a multiple of 30
    pairs: int                # pairs in the on-disk manifest
    min_pairs: int            # least pairs scored per run, so p90 has 10 samples beyond it

    @property
    def bridge_dim(self) -> int:
        return self.bank + 2 * self.bank * self.bank

    def spec(self) -> net.NetworkSpec:
        return net.NetworkSpec((1, self.image_size, self.image_size), self.layers,
                               bridge_dim=self.bridge_dim)


def _trunk(c1: int, c2: int, c3: int, fc: int) -> tuple:
    return (
        net.conv_spec(5, c1), net.relu_spec(), net.pool_spec(2, 2), net.lrn_spec(5, 2.0, 1e-4, 0.75),
        net.conv_spec(5, c2), net.relu_spec(), net.pool_spec(2, 2), net.lrn_spec(5, 2.0, 1e-4, 0.75),
        net.conv_spec(3, c3), net.relu_spec(), net.fc_spec(fc), net.relu_spec(),
    )


#: The paper-like geometry of the ROADMAP baseline: fc1 is 2562 -> 256.
PAPER48 = Geometry("paper48", 48, _trunk(16, 32, 48, 256), bank=10, per_corpus=400,
                   heldout_per_corpus=32, batch=32, steps=8, lr=0.4, queries=300,
                   pairs=64, min_pairs=110)

#: Same layer stack, a few filters wide, for the harness smoke test.
TINY = Geometry("tiny", 24, _trunk(4, 4, 4, 16), bank=2, per_corpus=12,
                heldout_per_corpus=4, batch=4, steps=2, lr=0.05, queries=30,
                pairs=4, min_pairs=8)

GEOMETRIES = {g.name: g for g in (PAPER48, TINY)}

ATTR_HEAD = "attr."
REL_HEAD = "rel."


def init_params(g: Geometry, rng: np.random.Generator, head: str, out_dim: int) -> ParameterSet:
    """Trunk parameters under ``trunk.`` plus one fc head under ``head``."""
    spec = g.spec()
    params = net.init_trunk_params(spec, rng)
    in_dim = spec.feature_dim * (2 if head == REL_HEAD else 1)
    if head == REL_HEAD:
        in_dim += data.N_SPATIAL_CUES
    head_spec = net.NetworkSpec((in_dim, 1, 1), (net.fc_spec(out_dim),))
    params.merge(net.init_trunk_params(head_spec, rng, prefix=head))
    return params


def _head_forward(params: ParameterSet, head: str, x: np.ndarray, rec):
    with rec.span("ops.head.fwd"):
        z, ctx = ops.fc_forward(x, params[head + "fc1.w"].data, params[head + "fc1.b"].data)
    return z, ctx


def attr_logits(spec, params: ParameterSet, images, h, rec):
    feats, cache = net.trunk_forward(spec, params, images, h)
    z, head_ctx = _head_forward(params, ATTR_HEAD, feats, rec)
    return z, cache, head_ctx


def attr_train_step(spec, params: ParameterSet, images, h, labels, mask, lr: float, rec) -> float:
    """One masked multi-corpus SGD step; returns the loss per present label."""
    z, cache, head_ctx = attr_logits(spec, params, images, h, rec)
    present = int(mask.sum())
    loss, dz = losses.masked_attr_loss(ops.sigmoid(z), labels, mask, logits=z)
    with rec.span("ops.head.bwd"):
        d_feats, dw, db = ops.fc_backward(head_ctx, dz / present)
        params[ATTR_HEAD + "fc1.w"].accumulate_grad(dw)
        params[ATTR_HEAD + "fc1.b"].accumulate_grad(db)
    net.trunk_backward(spec, params, cache, d_feats)
    optim.sgd_step(params, lr)
    return loss / present


def relation_logits(spec, params: ParameterSet, faces, h, cues, rec) -> np.ndarray:
    """Relation head logits for pairs (left, right) whose faces sit at rows
    ``0::2`` and ``1::2`` of ``faces``; both branches read the same
    ``trunk.`` parameters in a single trunk walk."""
    feats, _ = net.trunk_forward(spec, params, faces, h)
    x = np.concatenate([feats[0::2], feats[1::2], cues], axis=-1)
    return _head_forward(params, REL_HEAD, x, rec)[0]


def balanced_accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean recall over the classes present in ``truth``; 0 when it is empty."""
    recalls = [float(np.mean(pred[truth == c] == c)) for c in (False, True) if np.any(truth == c)]
    return float(np.mean(recalls)) if recalls else 0.0
