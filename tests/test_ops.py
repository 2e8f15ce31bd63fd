"""Layer primitives against naive oracles and finite differences."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from facerel.ops import (
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
    sigmoid,
)
from facerel import ops

from oracles import (
    assert_forward_matches,
    central_diff_grad,
    lrn_base,
    lrn_expr_backward,
    lrn_expr_forward,
    max_rel_err,
    naive_conv,
    naive_conv_backward,
    naive_fc,
    naive_lrn,
    naive_maxpool,
)


def _one(fwd, x, *args, **kw):
    """``fwd`` on ``x`` as a batch of one: (row 0 of the output, ctx)."""
    out, ctx = fwd(x[None], *args, **kw)
    return out[0], ctx


def _offset_by_one(a):
    """A copy of ``a`` that starts one element into its buffer."""
    buf = np.empty(a.size + 1, dtype=a.dtype)
    view = buf[1:].reshape(a.shape)
    view[...] = a
    return view


class TestConvForward:
    def test_all_ones_sums_window(self):
        x = np.ones((1, 3, 3))
        w = np.ones((1, 1, 2, 2))
        b = np.zeros(1)
        out, _ = _one(conv_forward, x, w, b, stride=1)
        assert out.shape == (1, 2, 2)
        np.testing.assert_array_equal(out, np.full((1, 2, 2), 4.0))

    def test_selector_kernel_picks_corner(self):
        x = np.arange(4.0).reshape(1, 2, 2) + 3.0
        w = np.array([[[[1.0, 0.0], [0.0, 0.0]]]])
        out, _ = _one(conv_forward, x, w, np.zeros(1), stride=1)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == x[0, 0, 0]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out, _ = _one(conv_forward, x, w, b, stride=1)
        assert_forward_matches(out, naive_conv(x, w, b, stride=1), exact=False)

    def test_matches_oracle_across_random_shapes(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            c = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            s = int(rng.integers(1, 3))
            h = int(rng.integers(k, k + 5))
            wd = int(rng.integers(k, k + 5))
            f = int(rng.integers(1, 4))
            x = rng.normal(size=(c, h, wd))
            w = rng.normal(size=(f, c, k, k))
            b = rng.normal(size=f)
            out, _ = _one(conv_forward, x, w, b, stride=s)
            assert_forward_matches(out, naive_conv(x, w, b, stride=s), exact=False)

    def test_batched_equals_per_sample(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(4, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        batched, _ = conv_forward(xs, w, b, stride=2)
        for i in range(4):
            single, _ = _one(conv_forward, xs[i], w, b, stride=2)
            np.testing.assert_array_equal(batched[i], single)
            assert_forward_matches(single, naive_conv(xs[i], w, b, stride=2), exact=False)

    def test_batched_equals_per_sample_across_blocks(self, monkeypatch):
        rng = np.random.default_rng(15)
        for stride, shape, f, k in ((1, (7, 1, 10, 10), 3, 3), (2, (5, 3, 11, 11), 4, 5)):
            xs = rng.normal(size=shape)
            w = rng.normal(size=(f, shape[1], k, k))
            b = rng.normal(size=f)
            whole, _ = conv_forward(xs, w, b, stride=stride)  # one sample block
            ho, wo = whole.shape[2:]
            with monkeypatch.context() as m:
                # shrink the scratch to two samples' tap columns: blocks of 2, 2, ..., 1
                m.setattr(ops, "SCRATCH_BYTES", 2 * shape[1] * k * k * ho * wo * xs.itemsize)
                batched, _ = conv_forward(xs, w, b, stride=stride)
            np.testing.assert_array_equal(batched, whole)
            for i in range(len(xs)):
                single, _ = _one(conv_forward, xs[i], w, b, stride=stride)
                np.testing.assert_array_equal(batched[i], single)
                assert_forward_matches(single, naive_conv(xs[i], w, b, stride=stride),
                                       exact=False)

    def test_unaligned_views_give_the_same_bits(self):
        rng = np.random.default_rng(20)
        xs = rng.normal(size=(3, 2, 9, 9))
        w = rng.normal(size=(4, 2, 3, 3))
        b = rng.normal(size=4)
        x_off, w_off = _offset_by_one(xs), _offset_by_one(w)
        want, _ = conv_forward(xs, w, b)
        got, _ = conv_forward(x_off, w_off, b)
        np.testing.assert_array_equal(got, want)
        for i in range(3):
            np.testing.assert_array_equal(_one(conv_forward, x_off[i], w_off, b)[0], want[i])

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel"):
            conv_forward(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 2, 2)), np.zeros(1))

    def test_rejects_kernel_too_large(self):
        with pytest.raises(ValueError, match="width"):
            conv_forward(np.zeros((1, 1, 5, 2)), np.zeros((1, 1, 3, 3)), np.zeros(1))


class TestConvBackward:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3))
        b = rng.normal(size=2)
        r = rng.normal(size=(2, 2, 2))  # random projection makes the output scalar

        def loss():
            out, _ = _one(conv_forward, x, w, b, stride=1)
            return float(np.sum(out * r))

        out, ctx = _one(conv_forward, x, w, b, stride=1)
        dx, dw, db = conv_backward(ctx, r[None])
        assert max_rel_err(dx[0], central_diff_grad(loss, x)) < 1e-6
        assert max_rel_err(dw, central_diff_grad(loss, w)) < 1e-6
        assert max_rel_err(db, central_diff_grad(loss, b)) < 1e-6

    @staticmethod
    def _random_case(rng, n):
        c = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        s = int(rng.integers(1, 3))
        h = int(rng.integers(k, k + 6))
        wd = int(rng.integers(k, k + 6))
        f = int(rng.integers(1, 4))
        x = rng.normal(size=(n, c, h, wd))
        w = rng.normal(size=(f, c, k, k))
        out, ctx = conv_forward(x, w, rng.normal(size=f), stride=s)
        return x, w, s, ctx, rng.normal(size=out.shape)

    @staticmethod
    def _naive_batch(x, w, up, s):
        grads = [naive_conv_backward(xi, w, ui, s) for xi, ui in zip(x, up)]
        return np.stack([g[0] for g in grads]), sum(g[1] for g in grads), sum(g[2] for g in grads)

    def test_matches_naive_oracle_across_random_shapes(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            x, w, s, ctx, up = self._random_case(rng, n=1)
            dx, dw, db = conv_backward(ctx, up)
            for got, want in zip((dx[0], dw, db), naive_conv_backward(x[0], w, up[0], s)):
                assert got.shape == want.shape
                assert max_rel_err(got, want) < 1e-12

    def test_batched_matches_naive_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            x, w, s, ctx, up = self._random_case(rng, n=int(rng.integers(1, 5)))
            for got, want in zip(conv_backward(ctx, up), self._naive_batch(x, w, up, s)):
                assert got.shape == want.shape
                assert max_rel_err(got, want) < 1e-12

    def test_multi_block_batch_matches_naive_oracle(self, monkeypatch):
        # shrink the scratch so that a small batch spans several sample blocks
        monkeypatch.setattr(ops, "SCRATCH_BYTES", 2048)
        rng = np.random.default_rng(18)
        for _ in range(10):
            x, w, s, ctx, up = self._random_case(rng, n=7)
            for got, want in zip(conv_backward(ctx, up), self._naive_batch(x, w, up, s)):
                assert max_rel_err(got, want) < 1e-12

    def test_multi_block_batch_matches_per_sample(self, monkeypatch):
        rng = np.random.default_rng(19)
        xs = rng.normal(size=(16, 2, 30, 30))
        w = rng.normal(size=(32, 2, 5, 5))
        out, ctx = conv_forward(xs, w, rng.normal(size=32), stride=1)
        assert out.nbytes > ops.SCRATCH_BYTES  # several sample blocks
        up = rng.normal(size=out.shape)
        dx, dw, db = conv_backward(ctx, up)
        dw_sum, db_sum = np.zeros_like(dw), np.zeros_like(db)
        for i in range(len(xs)):
            _, ctx_i = conv_forward(xs[i : i + 1], w, np.zeros(32), stride=1)
            dx_i, dw_i, db_i = conv_backward(ctx_i, up[i : i + 1])
            np.testing.assert_array_equal(dx[i], dx_i[0])  # dx is batch invariant
            dw_sum += dw_i
            db_sum += db_i
        # dw adds the per-sample products in ascending sample order
        np.testing.assert_array_equal(dw, dw_sum)
        assert max_rel_err(db, db_sum) < 1e-12
        # ... whatever sample blocks the kernel cuts the batch into
        monkeypatch.setattr(ops, "SCRATCH_BYTES", 2048)
        for got, want in zip(conv_backward(ctx, up), (dx, dw, db), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_zero_upstream_gives_zero_grads(self):
        x = np.random.default_rng(3).normal(size=(1, 4, 4))
        w = np.random.default_rng(4).normal(size=(2, 1, 2, 2))
        out, ctx = conv_forward(x[None], w, np.zeros(2), stride=1)
        dx, dw, db = conv_backward(ctx, np.zeros_like(out))
        assert not dx.any() and not dw.any() and not db.any()

    def test_ones_everywhere_counts_placements(self):
        x = np.ones((1, 5, 5))
        w = np.ones((1, 1, 2, 2))
        out, ctx = conv_forward(x[None], w, np.zeros(1), stride=1)
        _, dw, _ = conv_backward(ctx, np.ones_like(out))
        # 4x4 output positions, each window covers every kernel tap once
        np.testing.assert_array_equal(dw, np.full_like(w, 16.0))

    def test_rejects_missing_ctx(self):
        with pytest.raises(ValueError, match="context"):
            conv_backward(None, np.zeros((1, 1, 1)))

    def test_rejects_wrong_upstream_shape(self):
        out, ctx = conv_forward(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 2, 2)), np.zeros(1))
        with pytest.raises(ValueError, match="upstream"):
            conv_backward(ctx, np.zeros((1, 1, 2, 2)))


class TestMaxPool:
    def test_single_window(self):
        out, arg = _one(maxpool_forward, np.array([[[1.0, 2.0], [3.0, 4.0]]]), 2, 2)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 4.0
        assert arg.taps[0, 0, 0, 0] == 3

    def test_constant_input_tie_breaks_low(self):
        out, arg = _one(maxpool_forward, np.ones((1, 4, 4)), 2, 2)
        np.testing.assert_array_equal(out, np.ones((1, 2, 2)))
        np.testing.assert_array_equal(arg.taps[0, 0], [[0, 0], [0, 0]])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 6, 6))
        out, arg = _one(maxpool_forward, x, 2, 2)
        o_out, o_arg = naive_maxpool(x, 2, 2)
        np.testing.assert_array_equal(out, o_out)
        np.testing.assert_array_equal(ops._pool_sources(arg.taps, 2, 2, (1,) + x.shape)[0], o_arg)

    def test_backward_routes_to_argmax(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out, arg = _one(maxpool_forward, x, 2, 2)
        dx = maxpool_backward(arg, np.array([[[5.0]]])[None])[0]
        np.testing.assert_array_equal(dx, [[[0.0, 0.0], [0.0, 5.0]]])

    def test_backward_conserves_gradient_mass(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 7, 7))
        out, arg = _one(maxpool_forward, x, 3, 2)
        up = rng.normal(size=out.shape)
        dx = maxpool_backward(arg, up[None])[0]
        assert np.isclose(dx.sum(), up.sum())

    def test_backward_finite_difference_at_safe_point(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 4, 4))  # continuous values: ties have measure zero
        r = rng.normal(size=(1, 2, 2))

        def loss():
            out, _ = _one(maxpool_forward, x, 2, 2)
            return float(np.sum(out * r))

        out, arg = _one(maxpool_forward, x, 2, 2)
        dx = maxpool_backward(arg, r[None])[0]
        assert max_rel_err(dx, central_diff_grad(loss, x)) < 1e-6

    def test_tied_window_full_subgradient_to_winner(self):
        x = np.zeros((1, 2, 2))
        out, arg = _one(maxpool_forward, x, 2, 2)
        dx = maxpool_backward(arg, np.array([[[7.0]]])[None])[0]
        np.testing.assert_array_equal(dx, [[[7.0, 0.0], [0.0, 0.0]]])

    def test_first_nan_of_a_window_wins(self):
        x = np.array([[[1.0, 2.0, 9.0], [np.nan, -np.nan, 3.0]]])
        out, arg = _one(maxpool_forward, x, 2, 1)
        assert np.isnan(out).all()
        np.testing.assert_array_equal(arg.taps[0, 0], [[2, 2]])
        assert np.signbit(out[0, 0, 1])  # the winner's bits, sign included

    def test_rejects_kernel_larger_than_input(self):
        with pytest.raises(ValueError, match="kernel"):
            maxpool_forward(np.zeros((1, 1, 2, 2)), 3, 1)

    def test_rejects_out_of_range_index(self):
        out, arg = maxpool_forward(np.ones((1, 1, 2, 2)), 2, 2)
        arg.taps[0, 0, 0, 0] = 4  # a 2x2 window has taps 0..3
        with pytest.raises(ValueError, match="out of range"):
            maxpool_backward(arg, np.ones_like(out))


class TestLrn:
    def test_alpha_zero_divides_by_k_pow_beta(self):
        x = np.random.default_rng(9).normal(size=(4, 3, 3))
        out, _ = _one(lrn_forward, x, n=3, k=2.0, alpha=0.0, beta=0.75)
        np.testing.assert_allclose(out, x / 2.0 ** 0.75, rtol=1e-15)

    def test_scalar_case(self):
        out, _ = _one(lrn_forward, np.ones((1, 1, 1)), n=1, k=2.0, alpha=1e-4, beta=0.75)
        assert np.isclose(out[0, 0, 0], 1.0 / (2.0 + 1e-4) ** 0.75, rtol=1e-15)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            c = int(rng.integers(1, 7))
            n = int(rng.integers(1, 6))
            x = rng.normal(size=(c, 4, 4))
            out, _ = _one(lrn_forward, x, n=n, k=2.0, alpha=1e-4, beta=0.75)
            assert max_rel_err(out, naive_lrn(x, n, 2.0, 1e-4, 0.75)) < 1e-12

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 3, 3))
        r = rng.normal(size=(5, 3, 3))

        def loss():
            out, _ = _one(lrn_forward, x, n=5, k=2.0, alpha=0.2, beta=0.75)
            return float(np.sum(out * r))

        out, ctx = _one(lrn_forward, x, n=5, k=2.0, alpha=0.2, beta=0.75)
        dx = lrn_backward(ctx, r[None])[0]
        assert max_rel_err(dx, central_diff_grad(loss, x)) < 1e-5

    def test_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError, match="denominator"):
            lrn_forward(np.zeros((1, 1, 2, 2)), n=1, k=0.0, alpha=1e-4, beta=0.75)

    @pytest.mark.parametrize("shape, n", [
        ((2, 1, 3, 3), 5),   # C = 1
        ((3, 2, 4, 4), 5),   # C < n: every window is clipped at both edges
        ((2, 7, 3, 5), 3),   # windows clipped at the first and last channel
        ((4, 5, 3, 3), 4),   # an even depth spans n // 2 to either side
        ((1, 6, 2, 2), 1),
        ((5, 16, 5, 5), 5),
    ], ids=["c1", "c-below-n", "clipped", "even-n", "n1", "wide"])
    def test_kernels_keep_the_expressions_bits(self, shape, n):
        rng = np.random.default_rng(sum(shape) + n)
        x = rng.normal(size=shape)
        up = rng.normal(size=shape)
        x.flat[::7] = 0.0  # signed zeros through every product
        up.flat[::5] = -0.0
        for k, alpha, beta in ((2.0, 1e-4, 0.75), (1.0, 0.3, 0.6)):
            out, ctx = lrn_forward(x, n, k, alpha, beta)
            assert out.tobytes() == lrn_expr_forward(x, n, k, alpha, beta).tobytes()
            want = lrn_expr_backward(x, lrn_base(x, n, k, alpha), up, n, alpha, beta)
            assert lrn_backward(ctx, up).tobytes() == want.tobytes()

    def test_kernels_work_in_two_and_three_input_sized_arrays(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(8, 16, 22, 22))
        up = rng.normal(size=x.shape)

        def peak(fn):
            tracemalloc.start()
            try:
                held, _ = tracemalloc.get_traced_memory()
                fn()
                return tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()

        _, ctx = lrn_forward(x, 5, 2.0, 1e-4, 0.75)
        # the forward's output and base, and the bool mask of its sign check
        assert peak(lambda: lrn_forward(x, 5, 2.0, 1e-4, 0.75)) <= 2.125 * x.nbytes + (64 << 10)
        assert peak(lambda: lrn_backward(ctx, up)) <= 3 * x.nbytes + (64 << 10)


class TestFc:
    def test_identity_weights(self):
        x = np.array([1.0, -2.0, 3.0])
        out, _ = _one(fc_forward, x, np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(out, x)

    def test_zero_weights_yield_bias(self):
        b = np.array([0.5, -1.5])
        out, _ = _one(fc_forward, np.ones(4), np.zeros((4, 2)), b)
        np.testing.assert_array_equal(out, b)

    def test_matches_naive_oracle_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            d_in = int(rng.integers(1, 12))
            d_out = int(rng.integers(1, 8))
            x = rng.normal(size=d_in)
            w = rng.normal(size=(d_in, d_out))
            b = rng.normal(size=d_out)
            out, _ = _one(fc_forward, x, w, b)
            np.testing.assert_array_equal(out, naive_fc(x, w, b))

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("n, d_in, d_out", [(5, 8, 3), (1, 8, 1)], ids=["5x8x3", "n-dout-1"])
    def test_batched_equals_per_sample(self, exact, n, d_in, d_out):
        rng = np.random.default_rng(13)
        xs = rng.normal(size=(n, d_in))
        w = rng.normal(size=(d_in, d_out))
        b = rng.normal(size=d_out)
        batched, _ = fc_forward(xs, w, b, exact=exact)
        assert batched.shape == (n, d_out)
        for i in range(n):
            single, _ = _one(fc_forward, xs[i], w, b, exact=exact)  # a batch of one
            assert single.shape == (d_out,)
            np.testing.assert_array_equal(batched[i], single)
            assert_forward_matches(single, naive_fc(xs[i], w, b), exact)

    @pytest.mark.parametrize("exact", [True, False])
    def test_multi_chunk_matches_naive_oracle(self, monkeypatch, exact):
        # shrink the scratch so that the inputs span many chunks
        monkeypatch.setattr(ops, "SCRATCH_BYTES", 256)
        rng = np.random.default_rng(15)
        for n, d_in, d_out in ((3, 37, 5), (1, 40, 1), (4, 23, 1), (2, 19, 6)):
            xs = rng.normal(size=(n, d_in))
            w = rng.normal(size=(d_in, d_out))
            b = rng.normal(size=d_out)
            batched, _ = fc_forward(xs, w, b, exact=exact)
            for i in range(n):
                single, _ = _one(fc_forward, xs[i], w, b, exact=exact)
                assert_forward_matches(single, naive_fc(xs[i], w, b), exact)
                np.testing.assert_array_equal(batched[i], single)

    @pytest.mark.parametrize("exact", [True, False])
    def test_unaligned_views_give_the_same_bits(self, exact):
        rng = np.random.default_rng(21)
        xs = rng.normal(size=(4, 37))
        w = rng.normal(size=(37, 6))
        b = rng.normal(size=6)
        x_off, w_off = _offset_by_one(xs), _offset_by_one(w)
        want, _ = fc_forward(xs, w, b, exact=exact)
        np.testing.assert_array_equal(fc_forward(x_off, w_off, b, exact=exact)[0], want)
        for i in range(4):
            np.testing.assert_array_equal(_one(fc_forward, x_off[i], w_off, b, exact=exact)[0],
                                          want[i])

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=6)
        w = rng.normal(size=(6, 4))
        b = rng.normal(size=4)
        r = rng.normal(size=4)

        def loss():
            out, _ = _one(fc_forward, x, w, b)
            return float(np.sum(out * r))

        out, ctx = _one(fc_forward, x, w, b)
        dx, dw, db = fc_backward(ctx, r[None])
        assert max_rel_err(dx[0], central_diff_grad(loss, x)) < 1e-7
        assert max_rel_err(dw, central_diff_grad(loss, w)) < 1e-7
        assert max_rel_err(db, central_diff_grad(loss, b)) < 1e-7

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            fc_forward(np.zeros((1, 3)), np.zeros((4, 2)), np.zeros(2))


@pytest.mark.parametrize("who", ["conv_forward", "conv_backward", "maxpool_forward",
                                 "maxpool_backward", "lrn_forward", "lrn_backward",
                                 "fc_forward", "fc_backward"])
def test_each_op_refuses_a_single_sample(who):
    img, w, b = np.ones((1, 2, 4, 4)), np.ones((3, 2, 2, 2)), np.zeros(3)
    conv_ctx = conv_forward(img, w, b)[1]
    pool_arg = maxpool_forward(img, 2, 2)[1]
    lrn_ctx = lrn_forward(img, 3, 2.0, 1e-4, 0.75)[1]
    fc_ctx = fc_forward(np.ones((1, 4)), np.ones((4, 2)), np.zeros(2))[1]
    calls = {
        "conv_forward": lambda: conv_forward(img[0], w, b),
        "conv_backward": lambda: conv_backward(conv_ctx, np.ones((3, 3, 3))),
        "maxpool_forward": lambda: maxpool_forward(img[0], 2, 2),
        "maxpool_backward": lambda: maxpool_backward(pool_arg, np.ones((2, 2, 2))),
        "lrn_forward": lambda: lrn_forward(img[0], 3, 2.0, 1e-4, 0.75),
        "lrn_backward": lambda: lrn_backward(lrn_ctx, img[0]),
        "fc_forward": lambda: fc_forward(np.ones(4), np.ones((4, 2)), np.zeros(2)),
        "fc_backward": lambda: fc_backward(fc_ctx, np.ones(2)),
    }
    with pytest.raises(ValueError, match=f"^{who}: "):
        calls[who]()


# Batch invariance of the GEMM path at the paper48 conv2 and fc1 shapes, N=32.
_GEMM_BATCH_CHECK = textwrap.dedent("""
    import numpy as np
    from facerel.ops import conv_forward, fc_forward
    rng = np.random.default_rng(0)
    for fwd, xs, w, b, kw in (
        (conv_forward, rng.normal(size=(32, 16, 22, 22)), rng.normal(size=(32, 16, 5, 5)),
         rng.normal(size=32), {}),
        (fc_forward, rng.normal(size=(32, 2562)), rng.normal(size=(2562, 256)),
         rng.normal(size=256), {"exact": False}),
    ):
        batched, _ = fwd(xs, w, b, **kw)
        for i in range(len(xs)):
            np.testing.assert_array_equal(batched[i], fwd(xs[i : i + 1], w, b, **kw)[0][0])
""")


def test_gemm_forward_is_batch_invariant_at_one_and_two_blas_threads():
    # Bits may differ between thread counts; each count must be invariant.
    src = str(Path(__file__).resolve().parents[1] / "src")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _GEMM_BATCH_CHECK], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, f"{threads} BLAS thread(s):\n{run.stderr}"


class TestActivations:
    def test_relu_values(self):
        np.testing.assert_array_equal(relu(np.array([-3.0, 0.0, 3.0])), [0.0, 0.0, 3.0])

    def test_relu_backward_gates(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(relu_backward(x > 0, np.ones(3)), [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="bool mask"):
            relu_backward(x, np.ones(3))

    def test_relu_output_mask_is_the_input_mask(self):
        x = np.array([np.nan, -np.inf, -1.0, -0.0, 0.0, 1e-300, np.inf])
        up = np.array([1.0, -2.0, np.inf, -1.0, 3.0, -0.0, 5.0])
        out = relu(x.copy())
        np.testing.assert_array_equal(out > 0, x > 0)
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN on both sides
            assert relu_backward(out > 0, up).tobytes() == (up * (x > 0)).tobytes()
        y = x.copy()
        assert relu(y, out=y) is y and y.tobytes() == out.tobytes()

    def test_relu_backward_is_the_float_mask_product(self):
        specials = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1.5, 2.0])
        up = np.repeat(specials, 2).reshape(3, 2, 3)  # each value under both mask bits
        active = np.tile([True, False], len(specials)).reshape(up.shape)
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN on both sides
            got = relu_backward(active, up)
            assert got.dtype == up.dtype
            assert got.tobytes() == (up * active.astype(float)).tobytes()
            assert got.tobytes() == (up * active).tobytes()  # the bool multiply it replaced

    def test_relu_backward_out_overwrites_the_upstream(self, monkeypatch):
        rng = np.random.default_rng(4)
        up = rng.normal(size=(5, 3, 4))
        active = rng.normal(size=up.shape) > 0
        want = up * active.astype(float)
        monkeypatch.setattr(ops, "SCRATCH_BYTES", 2 * up[0].nbytes)  # blocks of 2, 2, 1 samples
        got = up.copy()
        assert relu_backward(active, got, out=got) is got
        assert got.tobytes() == want.tobytes()
        assert relu_backward(active, up).tobytes() == want.tobytes()
        zero = np.array(-2.5)
        assert relu_backward(np.array(False), zero, out=zero) is zero and zero == 0.0
        with pytest.raises(ValueError, match=r"out has shape \(5, 3\)"):
            relu_backward(active, up, out=np.empty((5, 3)))

    def test_sigmoid_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_is_positive_far_left(self):
        assert sigmoid(-30.0) > 0.0

    def test_sigmoid_range(self):
        z = np.linspace(-36, 36, 2001)
        s = sigmoid(z)
        assert np.all(s > 0) and np.all(s < 1)

    def test_sigmoid_matches_naive_in_safe_region(self):
        z = np.linspace(-20, 20, 101)
        np.testing.assert_allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)), rtol=1e-15)
