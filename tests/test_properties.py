"""Property tests over randomly drawn shapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facerel import ops
from facerel.hog import HogConfig, compute_hog, compute_hog_batch
from facerel.ops import conv_forward

from oracles import naive_conv, naive_hog


@st.composite
def conv_cases(draw):
    k = draw(st.integers(1, 4))
    return {
        "n": draw(st.integers(1, 4)),
        "c": draw(st.integers(1, 3)),
        "h": draw(st.integers(k, k + 6)),
        "w": draw(st.integers(k, k + 6)),
        "f": draw(st.integers(1, 4)),
        "k": k,
        "stride": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=40, deadline=None)
@given(conv_cases())
def test_conv_forward_batch_is_stack_of_singles_and_naive(case):
    rng = np.random.default_rng(case["seed"])
    x = rng.normal(size=(case["n"], case["c"], case["h"], case["w"]))
    w = rng.normal(size=(case["f"], case["c"], case["k"], case["k"]))
    b = rng.normal(size=case["f"])
    batched, _ = conv_forward(x, w, b, stride=case["stride"])
    singles = np.stack([conv_forward(xi, w, b, stride=case["stride"])[0] for xi in x])
    naive = np.stack([naive_conv(xi, w, b, stride=case["stride"]) for xi in x])
    np.testing.assert_array_equal(batched, singles)
    np.testing.assert_array_equal(batched, naive)


@st.composite
def hog_cases(draw):
    cfg = HogConfig(
        cell=draw(st.integers(1, 6)),
        block=draw(st.integers(1, 3)),
        bins=draw(st.integers(1, 12)),
        eps=draw(st.sampled_from([1e-8, 1e-5, 0.3])),
    )
    side = max(2, cfg.cell * cfg.block)
    h = draw(st.integers(side, side + 12))
    w = draw(st.integers(side, side + 12))
    per_image = 10 * h * w * 8  # the scratch compute_hog_batch budgets per image
    return {
        "cfg": cfg,
        "shape": (draw(st.integers(1, 7)), h, w),
        # one to three images per chunk, or the real budget
        "scratch": draw(st.sampled_from([per_image, 2 * per_image + 1, 3 * per_image,
                                         ops.SCRATCH_BYTES])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=40, deadline=None)
@given(hog_cases())
def test_hog_batch_is_stack_of_singles_and_naive(case):
    rng = np.random.default_rng(case["seed"])
    imgs = rng.random(case["shape"]) * 10.0 ** rng.integers(-3, 4)
    cfg = case["cfg"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "SCRATCH_BYTES", case["scratch"])
        batched = compute_hog_batch(imgs, cfg)
        from_list = compute_hog_batch(list(imgs), cfg)
    singles = np.stack([compute_hog(img, cfg) for img in imgs])
    naive = np.stack([naive_hog(img, cfg.cell, cfg.block, cfg.bins, cfg.eps) for img in imgs])
    np.testing.assert_array_equal(batched, singles)
    np.testing.assert_array_equal(batched, naive)
    np.testing.assert_array_equal(from_list, batched)
