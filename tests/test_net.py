"""Trunk assembly: shape tracing, forward/backward, and the gradcheck harness."""

import dataclasses

import numpy as np
import pytest

from facerel import net, ops
from facerel.gradcheck import find_kink_safe_seed, finite_diff_check
from facerel.losses import bce_from_logit
from facerel.net import (
    LayerSpec,
    NetworkSpec,
    conv_spec,
    fc_spec,
    init_trunk_params,
    lrn_spec,
    min_kink_margin,
    pool_spec,
    relu_spec,
    trunk_backward,
    trunk_forward,
)
from facerel.ops import fc_forward, sigmoid

from oracles import assert_forward_matches, max_rel_err


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
        got = spec.trace()
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

    @pytest.mark.parametrize("kind, fields, bad", [
        ("conv", {"kernel": 2.5, "filters": 2}, "kernel"),
        ("conv", {"kernel": 3.0, "filters": 2}, "kernel"),
        ("conv", {"kernel": 3, "filters": True}, "filters"),
        ("conv", {"kernel": 3, "filters": 2, "stride": 2.0}, "stride"),
        ("conv", {"kernel": 3, "filters": 2, "stride": None}, "stride"),
        ("maxpool", {"kernel": 2, "filters": 2.5}, "filters"),
        ("fc", {"out_dim": 4.0}, "out_dim"),
        ("lrn", {"lrn_n": np.int64(5), "lrn_k": 2.0, "lrn_alpha": 1e-4, "lrn_beta": 0.75}, "lrn_n"),
    ])
    def test_rejects_non_int_layer_sizes(self, kind, fields, bad):
        with pytest.raises(ValueError, match=f"layer field '{bad}' must be an int"):
            LayerSpec(kind, **fields)


class TestTrunkForward:
    def test_deterministic_and_pure(self):
        spec = tiny_spec()
        params = init_trunk_params(spec, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        img = rng.normal(size=spec.input_shape)
        h = rng.normal(size=spec.bridge_dim)
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
            single, _ = trunk_forward(spec, params, imgs[i], hs[i])
            np.testing.assert_array_equal(batch[i], single)

    @pytest.mark.parametrize(
        "spec",
        [tiny_spec(4), tiny_spec(0),
         NetworkSpec((2, 7, 7), (conv_spec(3, 2), relu_spec(), pool_spec(2, 2)))],
        ids=["bridge", "no-bridge", "spatial-out"],
    )
    def test_single_image_is_row_0_of_a_batch_of_one(self, spec):
        rng = np.random.default_rng(8)
        img = rng.normal(size=spec.input_shape)
        h = rng.normal(size=spec.bridge_dim) if spec.bridge_dim else None
        up = rng.normal(size=spec.plan[-1].out_shape)

        def walk(image, desc, upstream):
            params = init_trunk_params(spec, np.random.default_rng(0))
            out, cache = trunk_forward(spec, params, image, desc)
            d_image, d_h = trunk_backward(spec, params, cache, upstream)
            margin = np.float64(min_kink_margin(spec, params, image, desc))
            return out, d_image, d_h, [t.grad for _, t in params.items()], margin

        out, d_image, d_h, grads, margin = walk(img, h, up)
        out1, d_image1, d_h1, grads1, margin1 = walk(img[None], None if h is None else h[None],
                                                     up[None])
        pairs = [(out, out1[0]), (d_image, d_image1[0]), (margin, margin1)]
        pairs += list(zip(grads, grads1, strict=True))
        if h is None:
            assert d_h is None and d_h1 is None
        else:
            pairs.append((d_h, d_h1[0]))
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_gemm_forward_matches_the_exact_walk(self, monkeypatch):
        spec = tiny_spec()
        rng = np.random.default_rng(3)
        imgs = rng.normal(size=(3,) + spec.input_shape)
        hs = rng.normal(size=(3, spec.bridge_dim))
        up = rng.normal(size=(3, spec.feature_dim))

        def walk():
            params = init_trunk_params(spec, np.random.default_rng(0))
            out, cache = trunk_forward(spec, params, imgs, hs)
            d_image, d_h = trunk_backward(spec, params, cache, up)
            return [out, d_image, d_h] + [t.grad for _, t in params.items()]

        paths = []

        def spy(fn, force=None):
            def call(*args, exact):
                paths.append(exact)
                return fn(*args, exact=exact if force is None else force)
            return call

        for name in ("conv_forward", "fc_forward"):
            monkeypatch.setattr(net, name, spy(getattr(ops, name)))
        gemm = walk()
        assert paths and not any(paths)  # the trunk runs the GEMM forward
        for name in ("conv_forward", "fc_forward"):
            monkeypatch.setattr(net, name, spy(getattr(ops, name), force=True))
        for got, want in zip(gemm, walk(), strict=True):
            assert_forward_matches(got, want, exact=False)

    def test_rejects_descriptor_length_mismatch(self):
        spec = tiny_spec(bridge_dim=4)
        params = init_trunk_params(spec, np.random.default_rng(0))
        img = np.zeros(spec.input_shape)
        with pytest.raises(ValueError, match="bridge"):
            trunk_forward(spec, params, img, np.zeros(5))

    def test_rejects_descriptor_on_image_only_trunk(self):
        spec = tiny_spec(bridge_dim=0)
        params = init_trunk_params(spec, np.random.default_rng(0))
        img = np.zeros(spec.input_shape)
        for h in (np.arange(7.0), np.zeros(0)):
            with pytest.raises(ValueError, match="takes no bridge descriptor"):
                trunk_forward(spec, params, img, h)
        with pytest.raises(ValueError, match="takes no bridge descriptor"):
            trunk_forward(spec, params, img[None], np.zeros((1, 4)))

    def test_rejects_geometry_mismatch(self):
        spec = tiny_spec(bridge_dim=0)
        params = init_trunk_params(spec, np.random.default_rng(0))
        with pytest.raises(ValueError, match="geometry"):
            trunk_forward(spec, params, np.zeros((1, 9, 9)))

    def test_zeroed_bridge_columns_make_descriptor_dead(self):
        spec = tiny_spec(bridge_dim=4)
        params = init_trunk_params(spec, np.random.default_rng(0))
        params["trunk.fc1.w"].data[-4:, :] = 0.0
        rng = np.random.default_rng(3)
        img = rng.normal(size=spec.input_shape)
        a, _ = trunk_forward(spec, params, img, rng.normal(size=4))
        b, _ = trunk_forward(spec, params, img, rng.normal(size=4))
        np.testing.assert_array_equal(a, b)


class TestTrunkGradients:
    def _loss_parts(self, spec, params, img, h, r):
        feat, cache = trunk_forward(spec, params, img, h)
        return float(np.sum(feat * r)), cache

    def test_full_stack_gradcheck(self):
        spec = tiny_spec()

        def margin(seed):
            rng = np.random.default_rng(seed)
            params = init_trunk_params(spec, rng)
            img = rng.normal(size=spec.input_shape)
            h = rng.normal(size=spec.bridge_dim)
            return min_kink_margin(spec, params, img, h)

        seed = find_kink_safe_seed(margin, min_margin=1e-3)
        rng = np.random.default_rng(seed)
        params = init_trunk_params(spec, rng)
        img = rng.normal(size=spec.input_shape)
        h = rng.normal(size=spec.bridge_dim)
        r = rng.normal(size=spec.feature_dim)

        def loss_fn():
            feat, _ = trunk_forward(spec, params, img, h)
            return float(np.sum(feat * r))

        def backward_fn():
            feat, cache = trunk_forward(spec, params, img, h)
            trunk_backward(spec, params, cache, r)

        err = finite_diff_check(loss_fn, backward_fn, params, epsilon=1e-5)
        assert err < 1e-6

    def test_full_stack_with_sigmoid_bce_head(self):
        spec = tiny_spec()
        rng = np.random.default_rng(17)
        params = init_trunk_params(spec, rng)
        head_w = rng.normal(size=(spec.feature_dim, 1)) * 0.5
        img = rng.normal(size=spec.input_shape)
        h = rng.normal(size=spec.bridge_dim)
        assert min_kink_margin(spec, params, img, h) > 1e-3  # probe point is well-posed

        def loss_fn():
            feat, _ = trunk_forward(spec, params, img, h)
            z = fc_forward(feat[None], head_w, np.zeros(1))[0][0]
            loss, _ = bce_from_logit(z[0], 1)
            return loss

        def backward_fn():
            feat, cache = trunk_forward(spec, params, img, h)
            z, fc_ctx = fc_forward(feat[None], head_w, np.zeros(1))
            _, dz = bce_from_logit(z[0][0], 1)
            from facerel.ops import fc_backward

            dfeat, _, _ = fc_backward(fc_ctx, np.array([dz])[None])
            trunk_backward(spec, params, cache, dfeat[0])

        err = finite_diff_check(loss_fn, backward_fn, params, epsilon=1e-5)
        assert err < 1e-4

    def test_linear_network_is_machine_precision(self):
        spec = NetworkSpec((1, 1, 4), (fc_spec(3), fc_spec(2)), bridge_dim=0)
        rng = np.random.default_rng(5)
        params = init_trunk_params(spec, rng)
        img = rng.normal(size=(1, 1, 4))
        r = rng.normal(size=2)

        def loss_fn():
            feat, _ = trunk_forward(spec, params, img)
            return float(np.sum(feat * r))

        def backward_fn():
            feat, cache = trunk_forward(spec, params, img)
            trunk_backward(spec, params, cache, r)

        err = finite_diff_check(loss_fn, backward_fn, params, epsilon=1e-4)
        assert err < 1e-9

    def test_corrupted_gradient_is_flagged(self):
        spec = NetworkSpec((1, 1, 3), (fc_spec(2),), bridge_dim=0)
        rng = np.random.default_rng(6)
        params = init_trunk_params(spec, rng)
        img = rng.normal(size=(1, 1, 3))
        r = rng.normal(size=2)

        def loss_fn():
            feat, _ = trunk_forward(spec, params, img)
            return float(np.sum(feat * r))

        def backward_fn():
            feat, cache = trunk_forward(spec, params, img)
            trunk_backward(spec, params, cache, r)
            for _, t in params.items():
                t.grad *= 2.0

        err = finite_diff_check(loss_fn, backward_fn, params, epsilon=1e-5)
        assert err >= 0.333

    def test_epsilon_bounds_enforced(self):
        spec = NetworkSpec((1, 1, 2), (fc_spec(1),), bridge_dim=0)
        params = init_trunk_params(spec, np.random.default_rng(0))
        with pytest.raises(ValueError, match="epsilon"):
            finite_diff_check(lambda: 0.0, lambda: None, params, epsilon=1e-3)

    def test_bridge_gradient_flows_to_descriptor(self):
        spec = tiny_spec(bridge_dim=4)
        rng = np.random.default_rng(7)
        params = init_trunk_params(spec, rng)
        img = rng.normal(size=spec.input_shape)
        h = rng.normal(size=4)
        r = rng.normal(size=spec.feature_dim)

        feat, cache = trunk_forward(spec, params, img, h)
        _, dh = trunk_backward(spec, params, cache, r)
        assert dh is not None and dh.shape == (4,)

        def loss():
            feat2, _ = trunk_forward(spec, params, img, h)
            return float(np.sum(feat2 * r))

        from oracles import central_diff_grad

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
        img = np.array([[[0.5, 0.2, -0.3], [0.1, 0.45, 0.9]]])
        # relu margin 0.1; the windows' top-two gaps are 0.05 and 0.45
        assert min_kink_margin(spec, params, img) == pytest.approx(0.05)


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
    """The pooling term of ``min_kink_margin``, from ``pool_windows`` on ``x``."""
    top2 = np.sort(ops.pool_windows(x, kernel, stride), axis=-1)[..., -2:]
    gap = top2[..., 1] - top2[..., 0]
    return float(np.min(gap[~((gap == 0.0) & (top2[..., 1] == 0.0))]))


class TestTrunkCache:
    def test_entries_keep_only_what_the_backward_reads(self):
        spec = tiny_spec()
        params = init_trunk_params(spec, np.random.default_rng(0))
        rng = np.random.default_rng(8)
        imgs = rng.normal(size=(3,) + spec.input_shape)
        h = rng.normal(size=(3, spec.bridge_dim))
        _, cache = trunk_forward(spec, params, imgs, h)
        kinds = set()
        cur = imgs.copy()
        for step, ctx in cache.entries:
            kinds.add(step.layer.kind)
            cur, _ = net._step_forward(spec, params, step, cur, h, owned=True)
            if step.layer.kind == "relu":
                assert ctx.dtype == np.uint8 and ctx.shape == (-(-cur.size // 8),)
                unpacked = np.unpackbits(ctx, count=cur.size).reshape(cur.shape)
                np.testing.assert_array_equal(unpacked, cur > 0)
            elif step.layer.kind == "lrn":
                held = list(_arrays_in(ctx))
                assert len(held) == 1 and held[0].dtype == np.float64
                assert held[0].shape == (3,) + step.in_shape
            elif step.layer.kind == "maxpool":
                assert isinstance(ctx, ops.PoolArgmax)
                held = list(_arrays_in(ctx))
                assert all(a.dtype != np.int64 for a in held)
                assert ctx.taps.shape == cur.shape
                assert sum(a.nbytes for a in held) == cur.size  # one byte per output
        assert kinds == {"conv", "relu", "maxpool", "lrn", "fc"}

    def test_packed_relu_mask_keeps_the_upstream_shape_check(self):
        spec = NetworkSpec((1, 4, 4), (relu_spec(),))
        params = init_trunk_params(spec, np.random.default_rng(0))
        _, cache = trunk_forward(spec, params, np.ones((2, 1, 4, 4)))
        with pytest.raises(ValueError, match="shape mismatch"):
            trunk_backward(spec, params, cache, np.ones((2, 1, 4, 3)))

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
        step, ctx = cache.entries[len(before_pool)]
        assert step.layer.kind == "maxpool"
        pool_in, _ = trunk_forward(NetworkSpec((1, 9, 9), before_pool), params, img)
        assert [a for a in _arrays_in(ctx) if a.shape == pool_in.shape] == []

        pre_activation, _ = trunk_forward(NetworkSpec((1, 9, 9), before_pool[:1]), params, img)
        relu_margin = float(np.min(np.abs(pre_activation)))
        pool_margin = _pool_gap_margin(pool_in, 3, 1)
        assert pool_margin < relu_margin  # the pool term decides the margin
        assert min_kink_margin(spec, params, img) == pool_margin

    def test_kink_margin_pools_the_relu_output_not_its_input(self):
        spec = NetworkSpec((1, 2, 3), (relu_spec(), pool_spec(2, 1)))
        img = np.array([[[-1.0, -1.01, 0.5], [-1.2, -1.3, 0.8]]])
        params = init_trunk_params(spec, np.random.default_rng(0))
        # relu margin 0.5; the first window is clipped to zeros, the second
        # has gap 0.3 (its pre-activations' top two differ by only 0.01)
        assert min_kink_margin(spec, params, img) == pytest.approx(0.3)
