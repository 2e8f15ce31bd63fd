"""Trunk assembly: shape tracing, forward/backward, and finite-difference
gradient checks."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from facerel import net, ops
from facerel.losses import bce_from_logit
from facerel.net import (
    LayerSpec,
    NetworkSpec,
    conv_spec,
    fc_spec,
    init_trunk_params,
    lrn_spec,
    pool_spec,
    relu_spec,
    trunk_backward,
    trunk_forward,
)
from facerel.ops import fc_backward, fc_forward
from facerel.tensor import ParameterSet

from oracles import (
    blocked_copying_grads,
    central_diff_grad,
    copying_trunk_forward,
    kink_margin,
    max_rel_err,
    pool_stack,
)


def tiny_spec(bridge_dim=4):
    return NetworkSpec(
        input_shape=(1, 10, 10),
        layers=(
            conv_spec(3, 2),
            relu_spec(),
            pool_spec(2, 2),
            lrn_spec(n=3, k=2.0, alpha=1e-2, beta=0.75),
            conv_spec(2, 3),
            relu_spec(),
            fc_spec(6),
            relu_spec(),
            fc_spec(5),
        ),
        bridge_dim=bridge_dim,
    )


class TestSpecs:
    def test_trace_shapes(self):
        spec = tiny_spec()
        got = [step.out_shape for step in spec.plan]
        assert got[0] == (2, 8, 8)
        assert got[2] == (2, 4, 4)
        assert got[4] == (3, 3, 3)
        assert got[-1] == (5,)
        assert spec.feature_dim == 5

    def test_param_shapes_include_bridge_columns(self):
        spec = tiny_spec(bridge_dim=4)
        shapes = spec.param_shapes()
        assert shapes["fc1.w"] == (3 * 3 * 3 + 4, 6)
        assert shapes["conv2.w"] == (3, 2, 2, 2)

    def test_roundtrip_dict(self):
        spec = tiny_spec()
        again = NetworkSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_rejects_infeasible_kernel(self):
        with pytest.raises(ValueError, match="does not fit"):
            NetworkSpec((1, 4, 4), (conv_spec(5, 2), fc_spec(3)))

    def test_rejects_bad_layer_fields(self):
        with pytest.raises(ValueError, match="kernel"):
            LayerSpec("conv", kernel=0, filters=2)
        with pytest.raises(ValueError, match="out_dim"):
            LayerSpec("fc")
        with pytest.raises(ValueError, match="kind"):
            LayerSpec("dropout")
        with pytest.raises(ValueError, match="unknown layer kind"):
            LayerSpec(["conv"])

    @pytest.mark.parametrize("build, message", [
        (lambda: LayerSpec("conv", kernel=2.5, filters=2), "layer field 'kernel' must be an int"),
        (lambda: LayerSpec("conv", kernel=3.0, filters=2), "layer field 'kernel' must be an int"),
        (lambda: LayerSpec("conv", kernel=3, filters=True), "layer field 'filters' must be an int"),
        (lambda: LayerSpec("maxpool", kernel=2, stride=2.0),
         "layer field 'stride' must be an int"),
        (lambda: LayerSpec("maxpool", kernel=2, stride=None),
         "layer field 'stride' must be an int"),
        (lambda: LayerSpec("maxpool", kernel=2, filters=2.5),
         "maxpool layer does not read field 'filters', got 2.5"),
        (lambda: LayerSpec("fc", out_dim=4.0), "layer field 'out_dim' must be an int"),
        (lambda: lrn_spec(n=np.int64(5)), "layer field 'lrn_n' must be an int"),
        (lambda: lrn_spec(k=np.nan), "layer field 'lrn_k' must be a finite real number"),
        (lambda: lrn_spec(k="2.0"), "layer field 'lrn_k' must be a finite real number"),
        (lambda: lrn_spec(alpha=np.inf), "layer field 'lrn_alpha' must be a finite real number"),
        (lambda: lrn_spec(beta=True), "layer field 'lrn_beta' must be a finite real number"),
        (lambda: LayerSpec("relu", kernel=3), "relu layer does not read field 'kernel', got 3"),
        (lambda: LayerSpec("conv", kernel=3, filters=2, stride=2),
         "conv layer does not read field 'stride', got 2"),
        (lambda: LayerSpec("fc", out_dim=4, stride=2),
         "fc layer does not read field 'stride', got 2"),
        (lambda: LayerSpec("fc", out_dim=4, stride=1.0),
         "fc layer does not read field 'stride', got 1.0"),
        (lambda: LayerSpec("fc", out_dim=4, stride=None),
         "fc layer does not read field 'stride', got None"),
        (lambda: LayerSpec("maxpool", kernel=2, stride=2, out_dim=9),
         "maxpool layer does not read field 'out_dim', got 9"),
        (lambda: LayerSpec("conv", kernel=3, filters=2, lrn_k=2.0),
         "conv layer does not read field 'lrn_k', got 2.0"),
        (lambda: NetworkSpec((1, 8.7, 8), (fc_spec(2),)),
         "network field 'input_shape' must be (C,H,W) of positive ints"),
        (lambda: NetworkSpec((1, "8", 8), (fc_spec(2),)),
         "network field 'input_shape' must be (C,H,W) of positive ints"),
        (lambda: NetworkSpec((True, 8, 8), (fc_spec(2),)),
         "network field 'input_shape' must be (C,H,W) of positive ints"),
        (lambda: NetworkSpec((1, 8, 8), (fc_spec(2),), bridge_dim=2.5),
         "network field 'bridge_dim' must be an int >= 0"),
        (lambda: NetworkSpec((1, 8, 8), (fc_spec(2),), bridge_dim=True),
         "network field 'bridge_dim' must be an int >= 0"),
    ], ids=["kernel-fraction", "kernel-float", "filters-bool", "stride-float", "stride-none",
            "pool-filters-fraction", "out-dim-float", "lrn-n-int64", "lrn-k-nan",
            "lrn-k-string", "lrn-alpha-inf", "lrn-beta-bool", "relu-kernel", "conv-stride",
            "fc-stride", "fc-stride-float", "fc-stride-none", "pool-out-dim", "conv-lrn-k",
            "input-shape-fraction", "input-shape-string", "input-shape-bool",
            "bridge-dim-fraction", "bridge-dim-bool"])
    def test_rejects_non_int_layer_sizes(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    def test_to_dict_writes_only_the_fields_a_kind_reads(self):
        assert [layer.to_dict() for layer in tiny_spec().layers[:4]] == [
            {"kind": "conv", "kernel": 3, "filters": 2},
            {"kind": "relu"},
            {"kind": "maxpool", "kernel": 2, "stride": 2},
            {"kind": "lrn", "lrn_n": 3, "lrn_k": 2.0, "lrn_alpha": 1e-2, "lrn_beta": 0.75},
        ]
        assert fc_spec(6).to_dict() == {"kind": "fc", "out_dim": 6}
        assert pool_spec(3, 2).to_dict()["stride"] == 2


class TestTrunkForward:
    def test_deterministic_and_pure(self):
        spec = tiny_spec()
        params = init_trunk_params(spec, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        img = rng.normal(size=(1,) + spec.input_shape)
        h = rng.normal(size=(1, spec.bridge_dim))
        a, _ = trunk_forward(spec, params, img, h)
        b, _ = trunk_forward(spec, params, img, h)
        np.testing.assert_array_equal(a, b)

    def test_batched_matches_single(self):
        spec = tiny_spec()
        params = init_trunk_params(spec, np.random.default_rng(0))
        rng = np.random.default_rng(2)
        imgs = rng.normal(size=(3,) + spec.input_shape)
        hs = rng.normal(size=(3, spec.bridge_dim))
        batch, _ = trunk_forward(spec, params, imgs, hs)
        for i in range(3):
            single, _ = trunk_forward(spec, params, imgs[i : i + 1], hs[i : i + 1])
            np.testing.assert_array_equal(batch[i : i + 1], single)

    def test_rejects_a_single_image_and_a_flat_descriptor(self):
        spec = tiny_spec(bridge_dim=4)
        params = init_trunk_params(spec, np.random.default_rng(0))
        img = np.zeros(spec.input_shape)
        with pytest.raises(ValueError, match=r"\(N,C,H,W\) batch of images, got shape \(1, 10, 10\)"):
            trunk_forward(spec, params, img, np.zeros((1, 4)))
        with pytest.raises(ValueError, match=r"descriptor has shape \(4,\), expected \(N, bridge_dim\)"):
            trunk_forward(spec, params, img[None], np.zeros(4))
        image_only = tiny_spec(bridge_dim=0)
        with pytest.raises(ValueError, match=r"\(N,C,H,W\) batch of images"):
            trunk_forward(image_only, init_trunk_params(image_only, np.random.default_rng(0)), img)

    def test_rejects_descriptor_length_mismatch(self):
        spec = tiny_spec(bridge_dim=4)
        params = init_trunk_params(spec, np.random.default_rng(0))
        img = np.zeros((1,) + spec.input_shape)
        with pytest.raises(ValueError, match="bridge"):
            trunk_forward(spec, params, img, np.zeros((1, 5)))

    def test_rejects_descriptor_on_image_only_trunk(self):
        spec = tiny_spec(bridge_dim=0)
        params = init_trunk_params(spec, np.random.default_rng(0))
        img = np.zeros((1,) + spec.input_shape)
        for h in (np.arange(7.0), np.zeros(0), np.zeros((1, 4))):
            with pytest.raises(ValueError, match="takes no bridge descriptor"):
                trunk_forward(spec, params, img, h)

    def test_rejects_geometry_mismatch(self):
        spec = tiny_spec(bridge_dim=0)
        params = init_trunk_params(spec, np.random.default_rng(0))
        with pytest.raises(ValueError, match="geometry"):
            trunk_forward(spec, params, np.zeros((1, 1, 9, 9)))

    def test_rejects_parameters_that_do_not_fit_the_spec(self):
        spec = tiny_spec(bridge_dim=0)
        img = np.zeros((2,) + spec.input_shape)
        wider = NetworkSpec(spec.input_shape, spec.layers[:-1] + (fc_spec(7),))
        more_filters = NetworkSpec(spec.input_shape, (conv_spec(3, 3),) + spec.layers[1:])
        partial = ParameterSet()
        for name, t in init_trunk_params(spec, np.random.default_rng(0)).items():
            if name != "trunk.conv1.w":
                partial.add(name, t)
        for params, message in (
            (partial, "parameter 'trunk.conv1.w' of the network is missing"),
            (init_trunk_params(wider, np.random.default_rng(0)),
             "parameter 'trunk.fc2.w' has shape (6, 7), the network needs (6, 5)"),
            (init_trunk_params(more_filters, np.random.default_rng(0)),
             "parameter 'trunk.conv1.w' has shape (3, 1, 3, 3), the network needs (2, 1, 3, 3)"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                trunk_forward(spec, params, img)

    def test_zeroed_bridge_columns_make_descriptor_dead(self):
        spec = tiny_spec(bridge_dim=4)
        params = init_trunk_params(spec, np.random.default_rng(0))
        params["trunk.fc1.w"].data[-4:, :] = 0.0
        rng = np.random.default_rng(3)
        img = rng.normal(size=(1,) + spec.input_shape)
        a, _ = trunk_forward(spec, params, img, rng.normal(size=(1, 4)))
        b, _ = trunk_forward(spec, params, img, rng.normal(size=(1, 4)))
        np.testing.assert_array_equal(a, b)


class TestSampleBlocks:
    def test_rejects_an_empty_batch(self):
        spec = tiny_spec(bridge_dim=4)
        params = init_trunk_params(spec, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"empty batch \(N = 0\)"):
            trunk_forward(spec, params, np.zeros((0,) + spec.input_shape), np.zeros((0, 4)))

    def test_blocked_walk_matches_one_block(self, monkeypatch):
        spec = tiny_spec()
        params = init_trunk_params(spec, np.random.default_rng(0))
        rng = np.random.default_rng(9)
        imgs = rng.normal(size=(5,) + spec.input_shape)
        hs = rng.normal(size=(5, spec.bridge_dim))
        up = rng.normal(size=(5, spec.feature_dim))
        image_bytes, up_bytes = imgs.tobytes(), up.tobytes()

        def walk(rows):
            """One walk over ``imgs[rows]``: (out, d_h, grads, cache length)."""
            out, cache = trunk_forward(spec, params, imgs[rows], hs[rows])
            d_h = trunk_backward(spec, params, cache, up[rows])
            grads = {name: t.grad.copy() for name, t in params.items()}
            params.clear_grads()
            return out, d_h, grads, len(cache)

        def close(got, want):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        one = walk(slice(None))
        monkeypatch.setattr(net, "TRUNK_BLOCK", 2)  # blocks of 2, 2 and 1 faces
        blocked = walk(slice(None))
        assert imgs.tobytes() == image_bytes and up.tobytes() == up_bytes
        # the two earlier blocks keep one entry each, the last its 6 steps before fc1
        assert one[3] == len(spec.plan) and blocked[3] == 2 + 6 + 3
        for got, want in zip(blocked[:2], one[:2], strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # each walk is its blocks' copying walks, gradients added block by block
        for (_, d_h, grads, _), block in ((one, 5), (blocked, 2)):
            want_d_h, want = blocked_copying_grads(spec, params, imgs, hs, up, block)
            assert d_h.tobytes() == want_d_h.tobytes()
            assert {name: g.tobytes() for name, g in grads.items()} == {
                name: g.tobytes() for name, g in want.items()}
        for name, want in one[2].items():
            close(blocked[2][name], want)
        # the Siamese tying holds across blocks: the left faces, rows 0, 2
        # and 4, walk as two blocks, the right faces as one
        left, right = walk(slice(0, None, 2))[2], walk(slice(1, None, 2))[2]
        for name, tied in blocked[2].items():
            close(tied, left[name] + right[name])

    @pytest.mark.parametrize("layers", [
        (conv_spec(3, 2), relu_spec()),
        (conv_spec(3, 2), relu_spec(), fc_spec(4), relu_spec()),
    ], ids=["spatial-only", "relu-last"])
    def test_backward_never_writes_the_upstream(self, monkeypatch, layers):
        spec = NetworkSpec((1, 6, 6), layers)
        params = init_trunk_params(spec, np.random.default_rng(0))
        rng = np.random.default_rng(10)
        imgs = rng.normal(size=(3,) + spec.input_shape)
        up = rng.normal(size=(3,) + spec.plan[-1].out_shape)
        up_bytes = up.tobytes()
        _, want = blocked_copying_grads(spec, params, imgs, None, up, block=2)
        monkeypatch.setattr(net, "TRUNK_BLOCK", 2)
        _, cache = trunk_forward(spec, params, imgs)
        assert trunk_backward(spec, params, cache, up) is None
        assert up.tobytes() == up_bytes
        assert {name: t.grad.tobytes() for name, t in params.items()} == {
            name: g.tobytes() for name, g in want.items()}

    @pytest.mark.parametrize("first", [
        relu_spec(), pool_spec(2, 1), lrn_spec(n=3, k=2.0, alpha=1e-2, beta=0.75),
    ], ids=["relu", "maxpool", "lrn"])
    @pytest.mark.parametrize("block", [32, 2], ids=["one-block", "two-blocks"])
    def test_no_gradient_for_the_image(self, monkeypatch, first, block):
        spec = NetworkSpec((1, 9, 9), (first, conv_spec(3, 2), relu_spec(), pool_spec(2, 2),
                                       fc_spec(3)), bridge_dim=2)
        params = init_trunk_params(spec, np.random.default_rng(0))
        rng = np.random.default_rng(11)
        imgs = rng.normal(size=(3,) + spec.input_shape)
        hs = rng.normal(size=(3, spec.bridge_dim))
        up = rng.normal(size=(3, spec.feature_dim))
        calls = []
        for name in ("conv_backward", "maxpool_backward", "lrn_backward", "relu_backward"):
            def logged(*args, _fn=getattr(net, name), _name=name, **kwargs):
                calls.append((_name, kwargs.get("input_grad")))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(net, name, logged)
        monkeypatch.setattr(net, "TRUNK_BLOCK", block)
        _, cache = trunk_forward(spec, params, imgs, hs)
        d_h = trunk_backward(spec, params, cache, up)
        # per block, conv1 forms no dx and the step before it runs no backward
        per_block = [("maxpool_backward", None), ("relu_backward", None), ("conv_backward", False)]
        assert calls == per_block * len(range(0, 3, block))
        want_d_h, want = blocked_copying_grads(spec, params, imgs, hs, up, block)
        assert d_h.tobytes() == want_d_h.tobytes()
        assert {name: t.grad.tobytes() for name, t in params.items()} == {
            name: g.tobytes() for name, g in want.items()}

    def test_backward_refuses_a_cache_of_another_batch(self, monkeypatch):
        spec = tiny_spec(bridge_dim=0)
        params = init_trunk_params(spec, np.random.default_rng(0))
        monkeypatch.setattr(net, "TRUNK_BLOCK", 2)
        _, cache = trunk_forward(spec, params, np.ones((3,) + spec.input_shape))
        with pytest.raises(ValueError, match="the cache holds 10 entries, but a walk of 5 images "
                                             "through this trunk makes 11"):
            trunk_backward(spec, params, cache, np.ones((5, spec.feature_dim)))

    def test_blocks_bound_the_forward_scratch(self, monkeypatch):
        spec = NetworkSpec((1, 24, 24), (conv_spec(3, 8), relu_spec(), conv_spec(3, 16),
                                         relu_spec(), pool_spec(2, 2), fc_spec(4)))
        params = init_trunk_params(spec, np.random.default_rng(0))
        imgs = np.random.default_rng(1).normal(size=(8,) + spec.input_shape)

        def scratch(block):
            """The forward's peak allocation above what it returns holding."""
            monkeypatch.setattr(net, "TRUNK_BLOCK", block)
            tracemalloc.start()
            try:
                kept = trunk_forward(spec, params, imgs)  # held while measured
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - held

        # at 2 faces a block, each transient activation is a quarter of the batch's
        assert scratch(2) < scratch(8)


def _worst_fd_error(loss_fn, params, h=1e-5):
    """The worst relative error, over every parameter element, of the grads
    a backward left against central differences of ``loss_fn``."""
    return max(max_rel_err(t.grad, central_diff_grad(loss_fn, t.data, h))
               for _, t in params.items())


class TestTrunkGradients:
    def test_full_stack_gradcheck(self):
        spec = tiny_spec()
        for seed in range(64):  # the first kink-safe probe point
            rng = np.random.default_rng(seed)
            params = init_trunk_params(spec, rng)
            img = rng.normal(size=(1,) + spec.input_shape)
            h = rng.normal(size=(1, spec.bridge_dim))
            if kink_margin(spec, params, img, h) >= 1e-3:
                break
        else:
            pytest.fail("no kink-safe probe point in 64 seeds")
        r = rng.normal(size=(1, spec.feature_dim))

        def loss_fn():
            feat, _ = trunk_forward(spec, params, img, h)
            return float(np.sum(feat * r))

        _, cache = trunk_forward(spec, params, img, h)
        trunk_backward(spec, params, cache, r)
        assert _worst_fd_error(loss_fn, params) < 1e-6

    def test_full_stack_with_sigmoid_bce_head(self):
        spec = tiny_spec()
        rng = np.random.default_rng(17)
        params = init_trunk_params(spec, rng)
        head_w = rng.normal(size=(spec.feature_dim, 1)) * 0.5
        img = rng.normal(size=(1,) + spec.input_shape)
        h = rng.normal(size=(1, spec.bridge_dim))
        assert kink_margin(spec, params, img, h) > 1e-3  # probe point is well-posed

        def loss_fn():
            feat, _ = trunk_forward(spec, params, img, h)
            z, _ = fc_forward(feat, head_w, np.zeros(1))
            return bce_from_logit(z[0, 0], 1)[0]

        feat, cache = trunk_forward(spec, params, img, h)
        z, fc_ctx = fc_forward(feat, head_w, np.zeros(1))
        _, dz = bce_from_logit(z[0, 0], 1)
        dfeat, _, _ = fc_backward(fc_ctx, np.array([[dz]]))
        trunk_backward(spec, params, cache, dfeat)
        assert _worst_fd_error(loss_fn, params) < 1e-4

    def test_linear_network_is_machine_precision(self):
        spec = NetworkSpec((1, 1, 4), (fc_spec(3), fc_spec(2)), bridge_dim=0)
        rng = np.random.default_rng(5)
        params = init_trunk_params(spec, rng)
        img = rng.normal(size=(1, 1, 1, 4))
        r = rng.normal(size=(1, 2))

        def loss_fn():
            feat, _ = trunk_forward(spec, params, img)
            return float(np.sum(feat * r))

        _, cache = trunk_forward(spec, params, img)
        trunk_backward(spec, params, cache, r)
        assert _worst_fd_error(loss_fn, params, h=1e-4) < 1e-9

    def test_corrupted_gradient_is_flagged(self):
        spec = NetworkSpec((1, 1, 3), (fc_spec(2),), bridge_dim=0)
        rng = np.random.default_rng(6)
        params = init_trunk_params(spec, rng)
        img = rng.normal(size=(1, 1, 1, 3))
        r = rng.normal(size=(1, 2))

        def loss_fn():
            feat, _ = trunk_forward(spec, params, img)
            return float(np.sum(feat * r))

        _, cache = trunk_forward(spec, params, img)
        trunk_backward(spec, params, cache, r)
        for _, t in params.items():
            t.grad *= 2.0
        assert _worst_fd_error(loss_fn, params) >= 0.333

    def test_bridge_gradient_flows_to_descriptor(self):
        spec = tiny_spec(bridge_dim=4)
        rng = np.random.default_rng(7)
        params = init_trunk_params(spec, rng)
        img = rng.normal(size=(1,) + spec.input_shape)
        h = rng.normal(size=(1, 4))
        r = rng.normal(size=(1, spec.feature_dim))

        feat, cache = trunk_forward(spec, params, img, h)
        dh = trunk_backward(spec, params, cache, r)
        assert dh is not None and dh.shape == (1, 4)

        def loss():
            feat2, _ = trunk_forward(spec, params, img, h)
            return float(np.sum(feat2 * r))

        dh_num = central_diff_grad(loss, h)
        assert max_rel_err(dh, dh_num) < 1e-6


class TestPlan:
    def test_rejects_conv_after_fc(self):
        with pytest.raises(ValueError, match="requires a spatial"):
            NetworkSpec((1, 6, 6), (fc_spec(4), conv_spec(1, 2)))

    def test_rejects_empty_stack(self):
        with pytest.raises(ValueError, match="at least one layer"):
            NetworkSpec((1, 2, 2), ())

    def test_rejects_bridge_without_fc(self):
        with pytest.raises(ValueError, match="needs at least one fc layer"):
            NetworkSpec((1, 6, 6), (conv_spec(3, 2), relu_spec()), bridge_dim=3)

    def test_dict_roundtrip_keeps_equality_and_hash(self):
        for bridge_dim in (0, 4):
            spec = tiny_spec(bridge_dim)
            again = NetworkSpec.from_dict(spec.to_dict())
            assert again == spec and hash(again) == hash(spec)
            assert again.plan == spec.plan

    def test_flatten_step_is_the_first_fc(self):
        plan = tiny_spec(bridge_dim=4).plan
        assert [s.name for s in plan] == [
            "conv1", "relu", "maxpool", "lrn", "conv2", "relu", "fc1", "relu", "fc2",
        ]
        assert [s.flatten for s in plan] == [False] * 6 + [True, False, False]
        assert plan[6].in_shape == (3, 3, 3)

    def test_kink_margin_reads_relu_and_pool_steps(self):
        spec = NetworkSpec((1, 2, 3), (relu_spec(), pool_spec(2, 1), fc_spec(1)))
        params = init_trunk_params(spec, np.random.default_rng(0))
        img = np.array([[[[0.5, 0.2, -0.3], [0.1, 0.45, 0.9]]]])
        # relu margin 0.1; the windows' top-two gaps are 0.05 and 0.45
        assert kink_margin(spec, params, img) == pytest.approx(0.05)


def _arrays_in(ctx):
    """Every array a cache entry's ctx holds, through tuples and ctx records."""
    if isinstance(ctx, np.ndarray):
        yield ctx
    elif isinstance(ctx, tuple):
        for part in ctx:
            yield from _arrays_in(part)
    elif dataclasses.is_dataclass(ctx):
        for f in dataclasses.fields(ctx):
            yield from _arrays_in(getattr(ctx, f.name))


def _pool_gap_margin(x, kernel, stride):
    """The pooling term of ``kink_margin``, from the windows of ``x``."""
    top2 = np.sort(pool_stack(x, kernel, stride), axis=-1)[..., -2:]
    gap = top2[..., 1] - top2[..., 0]
    return float(np.min(gap[~((gap == 0.0) & (top2[..., 1] == 0.0))]))


def _paper48_peak(n, backward):
    """The tracemalloc peak of one walk of ``n`` faces at the paper-like
    geometry, above what was held before its forward."""
    lrn = lrn_spec(5, 2.0, 1e-4, 0.75)
    spec = NetworkSpec((1, 48, 48), (
        conv_spec(5, 16), relu_spec(), pool_spec(2, 2), lrn,
        conv_spec(5, 32), relu_spec(), pool_spec(2, 2), lrn,
        conv_spec(3, 48), relu_spec(), fc_spec(256), relu_spec(),
    ), bridge_dim=210)
    rng = np.random.default_rng(0)
    params = init_trunk_params(spec, rng)
    params.clear_grads()  # as after an SGD step: the backward makes every grad
    imgs = rng.uniform(size=(n,) + spec.input_shape)
    h = rng.normal(size=(n, spec.bridge_dim))
    up = rng.normal(size=(n, spec.feature_dim))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        _, cache = trunk_forward(spec, params, imgs, h)
        if backward:
            trunk_backward(spec, params, cache, up)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestTrunkCache:
    def test_entries_keep_only_what_the_backward_reads(self):
        spec = tiny_spec()
        params = init_trunk_params(spec, np.random.default_rng(0))
        rng = np.random.default_rng(8)
        imgs = rng.normal(size=(3,) + spec.input_shape)
        h = rng.normal(size=(3, spec.bridge_dim))
        _, cache = trunk_forward(spec, params, imgs, h)
        _, kept = copying_trunk_forward(spec, params, imgs, h)
        kinds = set()
        for (step, ctx), (_, step_in, _) in zip(cache, kept, strict=True):
            kinds.add(step.layer.kind)
            out_size = math.prod((3,) + step.out_shape)
            if step.layer.kind == "relu":
                rows, mask = ctx
                assert rows == 3
                assert mask.dtype == np.uint8 and mask.shape == (-(-out_size // 8),)
                unpacked = np.unpackbits(mask, count=out_size).reshape(step_in.shape)
                np.testing.assert_array_equal(unpacked, step_in > 0)
            elif step.layer.kind == "lrn":
                held = list(_arrays_in(ctx))
                assert len(held) == 1 and held[0].dtype == np.float64
                assert held[0].shape == (3,) + step.in_shape
            elif step.layer.kind == "maxpool":
                assert isinstance(ctx, ops.PoolArgmax)
                held = list(_arrays_in(ctx))
                assert all(a.dtype != np.int64 for a in held)
                assert ctx.taps.shape == (3,) + step.out_shape
                assert sum(a.nbytes for a in held) == out_size  # one byte per output
        assert kinds == {"conv", "relu", "maxpool", "lrn", "fc"}

    @pytest.mark.parametrize("block, entries", [(32, 9), (2, 1 + 6 + 3)],
                             ids=["one-block", "two-blocks"])
    def test_backward_consumes_the_cache(self, monkeypatch, block, entries):
        spec = tiny_spec()
        params = init_trunk_params(spec, np.random.default_rng(0))
        rng = np.random.default_rng(4)
        imgs = rng.normal(size=(3,) + spec.input_shape)
        up = rng.normal(size=(3, spec.feature_dim))
        monkeypatch.setattr(net, "TRUNK_BLOCK", block)
        _, cache = trunk_forward(spec, params, imgs, rng.normal(size=(3, spec.bridge_dim)))
        trunk_backward(spec, params, cache, up)
        assert len(cache) == entries and all(entry is None for entry in cache)
        grads = {name: t.grad.copy() for name, t in params.items()}
        with pytest.raises(ValueError, match="cache was consumed by an earlier trunk_backward"):
            trunk_backward(spec, params, cache, up)
        for name, t in params.items():  # the refused walk added nothing
            assert t.grad.tobytes() == grads[name].tobytes()

    def test_earlier_blocks_keep_only_their_input(self, monkeypatch):
        spec = NetworkSpec((1, 24, 24), (conv_spec(3, 8), relu_spec(), conv_spec(3, 16),
                                         relu_spec(), pool_spec(4, 4), fc_spec(4)))
        params = init_trunk_params(spec, np.random.default_rng(0))
        imgs = np.random.default_rng(1).normal(size=(8,) + spec.input_shape)

        def cache_bytes(block):
            """What the returned cache alone holds, by tracemalloc."""
            monkeypatch.setattr(net, "TRUNK_BLOCK", block)
            tracemalloc.start()
            try:
                _, cache = trunk_forward(spec, params, imgs)
                held = tracemalloc.get_traced_memory()[0]
                earlier = cache[:-len(spec.plan)]
                del cache
                return held - tracemalloc.get_traced_memory()[0], earlier
            finally:
                tracemalloc.stop()

        one, _ = cache_bytes(8)
        blocked, earlier = cache_bytes(2)
        # the first three blocks each keep one entry: a view of their rows of the image
        assert [step for step, _ in earlier] == [None] * 3
        for b, (_, rows) in enumerate(earlier):
            assert rows.base is imgs and rows.tobytes() == imgs[2 * b : 2 * b + 2].tobytes()
        assert blocked < one / 2

    def test_backward_refuses_an_upstream_of_another_rank(self):
        spec = tiny_spec()
        params = init_trunk_params(spec, np.random.default_rng(0))
        _, cache = trunk_forward(spec, params, np.ones((2,) + spec.input_shape), np.ones((2, 4)))
        for upstream in (np.float64(1.0), np.ones(5), np.ones((2, 5, 1))):
            with pytest.raises(ValueError, match=r"expected the features' shape \(N, 5\)"):
                trunk_backward(spec, params, cache, upstream)
        assert all(entry is not None for entry in cache)  # refused before the walk

    def test_paper48_step_peak_is_bounded(self):
        """One forward+backward of 32 faces at the paper-like geometry peaks
        below 19 MiB above what was held before the forward: the backward
        frees each ctx once used, and lrn works in three scratch arrays."""
        assert _paper48_peak(32, backward=True) < 19 * 2**20

    @pytest.mark.parametrize("backward, bound", [(False, 20), (True, 33)],
                             ids=["forward", "forward-backward"])
    def test_paper48_four_block_peak_is_bounded(self, backward, bound):
        """128 faces walk as four blocks.  The forward keeps the ctxs of the
        last block only (15.2 MiB measured; 31.3 when every block kept its
        ctxs), and the backward re-runs each earlier block's spatial steps
        (28.7 MiB forward+backward; 38.5 when every block kept its ctxs)."""
        assert _paper48_peak(128, backward) < bound * 2**20

    def test_packed_relu_mask_keeps_the_upstream_shape_check(self):
        # a relu behind a conv: a first relu's backward does not run
        spec = NetworkSpec((1, 4, 4), (conv_spec(1, 1), relu_spec()))
        params = init_trunk_params(spec, np.random.default_rng(0))
        _, cache = trunk_forward(spec, params, np.ones((2, 1, 4, 4)))
        with pytest.raises(ValueError, match="shape mismatch"):
            trunk_backward(spec, params, cache, np.ones((2, 1, 4, 3)))

    def test_packed_relu_mask_keeps_the_upstream_row_count_check(self):
        # the packed mask's padding bits would gate a third row
        spec = NetworkSpec((1, 4, 4), (conv_spec(1, 1), relu_spec()))
        params = init_trunk_params(spec, np.random.default_rng(0))
        _, cache = trunk_forward(spec, params, np.ones((2, 1, 4, 4)))
        with pytest.raises(ValueError, match="relu: upstream has 3 rows, the forward gated 2"):
            trunk_backward(spec, params, cache, np.ones((3, 1, 4, 4)))

    @pytest.mark.parametrize("before_pool", [
        (conv_spec(3, 2), relu_spec()),
        (conv_spec(3, 2), relu_spec(), lrn_spec(n=3, k=2.0, alpha=1e-2, beta=0.75)),
    ], ids=["relu-fed", "lrn-fed"])
    def test_pool_entry_keeps_no_input(self, before_pool):
        layers = before_pool + (pool_spec(3, 1), lrn_spec(n=3, k=2.0, alpha=1e-2, beta=0.75))
        spec = NetworkSpec((1, 9, 9), layers)
        params = init_trunk_params(spec, np.random.default_rng(0))
        img = np.random.default_rng(7).normal(size=(3, 1, 9, 9))
        _, cache = trunk_forward(spec, params, img)
        step, ctx = cache[len(before_pool)]
        assert step.layer.kind == "maxpool"
        pool_in, _ = trunk_forward(NetworkSpec((1, 9, 9), before_pool), params, img)
        assert [a for a in _arrays_in(ctx) if a.shape == pool_in.shape] == []

        pre_activation, _ = trunk_forward(NetworkSpec((1, 9, 9), before_pool[:1]), params, img)
        relu_margin = float(np.min(np.abs(pre_activation)))
        pool_margin = _pool_gap_margin(pool_in, 3, 1)
        assert pool_margin < relu_margin  # the pool term decides the margin
        assert kink_margin(spec, params, img) == pool_margin

    def test_kink_margin_pools_the_relu_output_not_its_input(self):
        spec = NetworkSpec((1, 2, 3), (relu_spec(), pool_spec(2, 1)))
        img = np.array([[[[-1.0, -1.01, 0.5], [-1.2, -1.3, 0.8]]]])
        params = init_trunk_params(spec, np.random.default_rng(0))
        # relu margin 0.5; the first window is clipped to zeros, the second
        # has gap 0.3 (its pre-activations' top two differ by only 0.01)
        assert kink_margin(spec, params, img) == pytest.approx(0.3)
