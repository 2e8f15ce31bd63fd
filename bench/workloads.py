"""The three benchmark workloads, each a ``setup`` and a ``measure``.

``setup(g, seed, workdir)`` makes every input from the seed and returns the
state ``measure`` needs; ``measure(g, state, seconds, rec, workdir)`` runs
operations, each timed by ``rec.op``, until ``seconds`` of them have been
measured (and the workload's minimum is met), checks every output, and
returns an ``Outcome``.  All work goes through public ``facerel``
functions, looked up on their module at call time so the traced run can
wrap them.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import model
from facerel import bridge, checkpoint, data, losses, net, ops, synth
from spans import Op

#: Seed of the model parameters. The model under test is the same for every
#: ``--seed``; only the inputs vary with it, so the losses spread little.
MODEL_SEED = 0


@dataclass
class Outcome:
    ops: list[Op]                 # the operations behind the latency metrics
    throughput: float             # items per second over the measured time
    eval_loss: float
    attempted: int
    failed: int
    build_s: list[float] = field(default_factory=list)   # bank builds timed here
    layer: dict[str, float] = field(default_factory=dict)  # ungated per-layer numbers


class Tally:
    """Counts operations and the ones whose output check failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def synth_faces(g: model.Geometry, seed: int, per_corpus: int, stream: int) -> list:
    """Faces from corpora a, b and c; each ``stream`` is a disjoint draw."""
    cfg = synth.SynthConfig(image_size=g.image_size)
    faces = []
    for sub, cid in enumerate("abc"):
        samples, _ = synth.synth_attr_corpus(
            cfg, f"synth-{cid}", per_corpus, cfg.corpus_groups[cid], seed=[seed, stream, sub]
        )
        faces += samples
    return faces


def _build_bank(g: model.Geometry, faces, seed: int):
    return bridge.build_cluster_tree(
        [(s.landmarks, s.image) for s in faces], g.bank, g.bank, g.bank, seed=seed
    )


def _timed_bank(g, faces, seed):
    t0 = time.perf_counter()
    tree = _build_bank(g, faces, seed)
    return tree, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# attr_pretrain: masked multi-corpus SGD; ops/net do all the timed work
# ---------------------------------------------------------------------------


@dataclass
class AttrState:
    seed: int
    build_s: float
    spec: net.NetworkSpec
    params: object
    train: list                   # (Sample, standardized descriptor)
    heldout: tuple                # images, descriptors, labels, mask


def attr_setup(g: model.Geometry, seed: int, workdir) -> AttrState:
    train = synth_faces(g, seed, g.per_corpus, stream=0)
    held = synth_faces(g, seed, g.heldout_per_corpus, stream=1)
    tree, build_s = _timed_bank(g, train, seed)
    h_train = [bridge.network_descriptor(s.image, tree) for s in train]
    images, labels, mask = data.attr_batch_arrays(held)
    h_held = np.stack([bridge.network_descriptor(s.image, tree) for s in held])
    params = model.init_params(g, np.random.default_rng(MODEL_SEED), model.ATTR_HEAD, data.N_ATTRIBUTES)
    return AttrState(seed, build_s, g.spec(), params, list(zip(train, h_train)),
                     (images, h_held, labels, mask))


def _heldout_loss(g, st: AttrState, rec) -> tuple[float, np.ndarray]:
    images, h, labels, mask = st.heldout
    z = np.concatenate([
        model.attr_logits(st.spec, st.params, images[i : i + g.batch], h[i : i + g.batch], rec)[0]
        for i in range(0, len(images), g.batch)
    ])
    loss, _ = losses.masked_attr_loss(ops.sigmoid(z), labels, mask, logits=z)
    return loss / int(mask.sum()), z


def _full_batches(train, batch: int, seed: int):
    epoch = 0
    while True:
        for b in data.batch_iter(train, batch, seed, epoch):
            if len(b) == batch:
                yield b
        epoch += 1


def attr_measure(g, st: AttrState, seconds: float, rec, workdir) -> Outcome:
    tally = Tally()
    with rec.paused():
        loss0, _ = _heldout_loss(g, st, rec)
    present = np.zeros(data.N_ATTRIBUTES, dtype=np.int64)
    missing = np.zeros(data.N_ATTRIBUTES, dtype=np.int64)
    batches = _full_batches(st.train, g.batch, st.seed)
    steps: list[Op] = []
    while len(steps) < g.steps or sum(o.ms for o in steps) < seconds * 1e3:
        batch = next(batches)
        step = len(steps)
        with rec.op("step") as o:
            images, labels, mask = data.attr_batch_arrays([s for s, _ in batch])
            h = np.stack([d for _, d in batch])
            loss = model.attr_train_step(st.spec, st.params, images, h, labels, mask, g.lr, rec)
        steps.append(o)
        tally.check(bool(np.isfinite(loss)), f"step {step}: loss {loss}")
        if step < g.steps:
            present += mask.sum(axis=0)
            missing += (~mask).sum(axis=0)
        if step + 1 == g.steps:
            with rec.paused():
                loss_k, z = _heldout_loss(g, st, rec)
    tally.check(loss_k < loss0, f"held-out loss {loss_k} after {g.steps} steps, {loss0} at step 0")

    path = workdir / "attr.ckpt"
    with rec.op("checkpoint"):
        checkpoint.save_checkpoint(path, st.spec, st.params)
        _, loaded, _ = checkpoint.load_checkpoint(path)
    tally.check(
        loaded.names() == st.params.names()
        and all(_bitwise_equal(loaded[n].data, t.data) for n, t in st.params.items()),
        "checkpoint round trip is not bit-exact",
    )

    _, _, labels, mask = st.heldout
    layer = {}
    for j, name in enumerate(data.ATTRIBUTE_NAMES):
        m = mask[:, j]
        layer[f"attr_bacc.{name}"] = model.balanced_accuracy(z[m, j] > 0, labels[m, j] == 1)
        layer[f"labels.{name}.present"] = int(present[j])
        layer[f"labels.{name}.missing"] = int(missing[j])
    layer["attr_bacc.mean"] = statistics.fmean(
        layer[f"attr_bacc.{name}"] for name in data.ATTRIBUTE_NAMES
    )
    return Outcome(steps, g.batch * len(steps) / (sum(o.ms for o in steps) / 1e3), loss_k,
                   tally.attempted, tally.failed, layer=layer)


# ---------------------------------------------------------------------------
# bank: build, round trip, single-face queries; hog/kmeans/bridge do the work
# ---------------------------------------------------------------------------


@dataclass
class BankState:
    seed: int
    build_s: float | None         # the bank is built in the timed loop, not here
    faces: list
    queries: list


def bank_setup(g: model.Geometry, seed: int, workdir) -> BankState:
    return BankState(seed, None, synth_faces(g, seed, g.per_corpus, stream=0),
                     synth_faces(g, seed, g.queries // 3, stream=1))


#: Single-face queries per timed bank operation. A query takes under a
#: millisecond, so one alone is at the mercy of every scheduler tick; ten in
#: a row keep the tail percentile about the code rather than the machine.
QUERIES_PER_OP = 10


def bank_measure(g, st: BankState, seconds: float, rec, workdir) -> Outcome:
    tally = Tally()
    path = workdir / "bank.bin"
    builds: list[Op] = []
    groups: list[Op] = []
    spent_ms = 0.0
    while not builds or spent_ms < seconds * 1e3:
        i = len(builds)
        with rec.op("build") as o:
            tree = _build_bank(g, st.faces, st.seed)
        builds.append(o)
        with rec.op("save_load") as io:
            bridge.save_bank(path, tree)
            loaded = bridge.load_bank(path)
        spent_ms += o.ms + io.ms
        tally.check(loaded.descriptor_length == g.bridge_dim,
                    f"bank {i} has descriptor length {loaded.descriptor_length}")
        for j in range(0, len(st.queries), QUERIES_PER_OP):
            group = st.queries[j : j + QUERIES_PER_OP]
            with rec.op("queries") as o:
                hs = [bridge.network_descriptor(q.image, loaded) for q in group]
            groups.append(o)
            spent_ms += o.ms
            with rec.paused():
                built = [bridge.network_descriptor(q.image, tree) for q in group]
            for k, (h, ref) in enumerate(zip(hs, built)):
                tally.check(
                    h.shape == (g.bridge_dim,) and bool(np.all(np.isfinite(h)))
                    and _bitwise_equal(h, ref),
                    f"bank {i} query {j + k}: descriptor not 210-long and finite, "
                    "or differs from the built bank's",
                )

    # How well the bank covers unseen faces: the mean HOG distance from each
    # query face to its nearest template, at any level of the tree.
    with rec.paused():
        nearest = [bridge.extract_descriptor(q.image, loaded).min() for q in st.queries]
    n_queries = len(builds) * len(st.queries)
    return Outcome(groups, n_queries / (sum(o.ms for o in groups) / 1e3),
                   float(np.mean(nearest)), tally.attempted, tally.failed,
                   build_s=[o.ms / 1e3 for o in builds])


# ---------------------------------------------------------------------------
# pair_scoring: one closed-loop caller scoring pairs from an on-disk manifest
# ---------------------------------------------------------------------------


@dataclass
class PairState:
    seed: int
    build_s: float
    spec: net.NetworkSpec
    params: object
    tree: object
    manifest: object


def pair_setup(g: model.Geometry, seed: int, workdir) -> PairState:
    tree, build_s = _timed_bank(g, synth_faces(g, seed, g.per_corpus, stream=0), seed)
    pairs, scenes, _ = synth.synth_pair_corpus(synth.SynthConfig(image_size=g.image_size),
                                               g.pairs, seed=[seed, 3])
    (workdir / "scenes").mkdir(exist_ok=True)
    records = []
    for i, (p, scene) in enumerate(zip(pairs, scenes)):
        rel = f"scenes/{i:05d}.npy"
        np.save(workdir / rel, scene)
        records.append(data.PairRecord(rel, p.left_box, p.right_box,
                                       tuple(int(r) for r in p.relations)))
    manifest = workdir / "pairs.txt"
    data.write_manifest(manifest, "pairs", "bench", records)
    params = model.init_params(g, np.random.default_rng(MODEL_SEED), model.REL_HEAD, data.N_RELATIONS)
    return PairState(seed, build_s, g.spec(), params, tree, manifest)


def _pair_inputs(pairs, tree):
    faces = np.stack([f for p in pairs for f in (p.left_face, p.right_face)])
    h = np.stack([bridge.network_descriptor(f, tree) for f in faces])
    cues = np.stack([data.spatial_cues(p) for p in pairs])
    return faces[:, None], h, cues


def pair_measure(g, st: PairState, seconds: float, rec, workdir) -> Outcome:
    tally = Tally()
    face_size = (g.image_size, g.image_size)
    scored: list[Op] = []
    scores: list[np.ndarray] = []
    spent_ms = 0.0
    while len(scored) < g.min_pairs or spent_ms < seconds * 1e3:
        with rec.op("load") as o:
            _, _, pairs = data.load_manifest(st.manifest, face_size)
        spent_ms += o.ms
        tally.check(len(pairs) == g.pairs, f"manifest gave {len(pairs)} pairs, wrote {g.pairs}")
        for pair in pairs:
            with rec.op("pair") as o:
                faces, h, cues = _pair_inputs([pair], st.tree)
                z = model.relation_logits(st.spec, st.params, faces, h, cues, rec)[0]
            scored.append(o)
            scores.append(z)
            spent_ms += o.ms

    # Determinism contract of ops.py: each pair's scores equal its row of one
    # batched forward over all pairs, bit for bit.
    with rec.paused():
        faces, h, cues = _pair_inputs(pairs, st.tree)
        batched = model.relation_logits(st.spec, st.params, faces, h, cues, rec)
    for k, z in enumerate(scores):
        tally.check(_bitwise_equal(z, batched[k % g.pairs]),
                    f"pair {k % g.pairs} (pass {k // g.pairs}) differs from the batched forward")

    truth = np.stack([p.relations for p in pairs])
    bce, _ = losses.bce_from_logit(batched, truth)
    layer = {
        f"rel_bacc.{name}": model.balanced_accuracy(batched[:, j] > 0, truth[:, j] == 1)
        for j, name in enumerate(data.RELATION_NAMES)
    }
    layer["rel_bacc.mean"] = statistics.fmean(layer.values())
    return Outcome(scored, len(scored) / (spent_ms / 1e3), float(bce.mean()),
                   tally.attempted, tally.failed, layer=layer)


WORKLOADS = {
    "attr_pretrain": (attr_setup, attr_measure),
    "bank": (bank_setup, bank_measure),
    "pair_scoring": (pair_setup, pair_measure),
}
