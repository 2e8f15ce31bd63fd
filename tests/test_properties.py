"""Property tests over randomly drawn shapes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from facerel.ops import conv_forward

from oracles import naive_conv


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
