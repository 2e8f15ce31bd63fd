"""Cross-entropy, masked loss, weight decay, and the SGD step."""

import numpy as np
import pytest

from facerel.checkpoint import load_checkpoint, save_checkpoint
from facerel.losses import bce_from_logit, masked_attr_loss, weight_decay_term
from facerel.net import NetworkSpec, conv_spec, fc_spec, init_trunk_params
from facerel.optim import DivergenceError, lr_at, sgd_step
from facerel.ops import sigmoid
from facerel.tensor import ParameterSet, Tensor


def with_grad(data, grad) -> Tensor:
    t = Tensor(data)
    t.accumulate_grad(grad)
    return t


class TestBce:
    def test_half_probability_positive_label(self):
        assert np.isclose(bce_from_logit(0.0, 1)[0], np.log(2.0))

    def test_loss_vanishas_as_p_approaches_label(self):
        assert bce_from_logit(30.0, 1)[0] < 1e-11
        assert bce_from_logit(-30.0, 0)[0] < 1e-11

    def test_rejects_label_outside_01(self):
        with pytest.raises(ValueError, match="labels"):
            bce_from_logit(0.0, 2)

    def test_logit_gradient_is_sigmoid_minus_label(self):
        for z in (-3.0, -0.2, 0.0, 1.7):
            for y in (0, 1):
                _, dz = bce_from_logit(z, y)
                assert np.isclose(dz, sigmoid(z) - y)

    def test_logit_gradient_vs_finite_differences(self):
        h = 1e-6
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = float(rng.normal(scale=3))
            y = int(rng.integers(0, 2))
            _, dz = bce_from_logit(z, y)
            lp, _ = bce_from_logit(z + h, y)
            lm, _ = bce_from_logit(z - h, y)
            cd = (lp - lm) / (2 * h)
            assert abs(dz - cd) / max(abs(dz), abs(cd), 1e-8) < 1e-7

    def test_logit_form_stable_at_extremes(self):
        loss, dz = bce_from_logit(800.0, 0)
        assert np.isfinite(loss) and loss == 800.0
        loss, dz = bce_from_logit(-800.0, 1)
        assert np.isfinite(loss)


def masked_loss_at(z, labels, mask):
    """``masked_attr_loss`` at head logits ``z``, as a model calls it."""
    z = np.asarray(z, dtype=np.float64)
    return masked_attr_loss(sigmoid(z), labels, mask, logits=z)


class TestMaskedLoss:
    def test_all_missing_is_zero(self):
        loss, dz = masked_loss_at(np.full(20, -0.8), np.zeros(20), np.zeros(20, dtype=bool))
        assert loss == 0.0
        np.testing.assert_array_equal(dz, np.zeros(20))

    def test_single_present_head(self):
        labels = np.zeros(20)
        labels[4] = 1
        mask = np.zeros(20, dtype=bool)
        mask[4] = True
        loss, dz = masked_loss_at(np.zeros(20), labels, mask)
        assert np.isclose(loss, np.log(2.0))
        assert np.isclose(dz[4], -0.5)
        assert not np.delete(dz, 4).any()

    def test_missing_gradients_exactly_zero_with_batch(self):
        rng = np.random.default_rng(1)
        z = rng.normal(scale=2.0, size=(6, 20))
        labels = rng.integers(0, 2, size=(6, 20)).astype(float)
        mask = rng.random(size=(6, 20)) < 0.4
        loss, dz = masked_loss_at(z, labels, mask)
        assert np.all(dz[~mask] == 0.0)
        np.testing.assert_allclose(dz[mask], (sigmoid(z) - labels)[mask])
        per_head = [bce_from_logit(v, y)[0] for v, y in zip(z[mask], labels[mask])]
        assert np.isclose(loss, sum(per_head))

    def test_saturated_heads_keep_a_finite_loss(self):
        loss, dz = masked_loss_at(np.array([800.0, -800.0]), np.array([0.0, 1.0]),
                                  np.array([True, True]))
        assert loss == 1600.0
        np.testing.assert_array_equal(dz, [1.0, -1.0])

    def test_ignores_garbage_under_missing_mask(self):
        labels = np.array([1.0, 7.0, 1.0])  # junk at a missing slot stays unread
        mask = np.array([True, False, True])
        loss, dz = masked_loss_at(np.zeros(3), labels, mask)
        assert np.isclose(loss, 2 * np.log(2.0))

    def test_rejects_bad_present_label(self):
        with pytest.raises(ValueError, match="0 or 1"):
            masked_loss_at(np.zeros(2), np.array([2.0, 0.0]), np.array([True, False]))

    @pytest.mark.parametrize("shapes, message", [
        (((4, 3), (4, 2), (4, 3), (4, 3)), r"labels \(4, 2\) and mask \(4, 3\) must align"),
        (((4, 3), (4, 3), (3, 4), (4, 3)), r"labels \(4, 3\) and mask \(3, 4\) must align"),
        (((4, 3), (4, 3), (4, 3), (3,)), r"logits \(3,\) must have the shape of probs \(4, 3\)"),
        (((4, 3), (4, 3), (4, 3), (1, 3)), r"logits \(1, 3\) must have the shape of probs \(4, 3\)"),
        (((4, 3), (4, 3), (4, 3), (4, 3, 1)), r"logits \(4, 3, 1\) must have the shape"),
    ], ids=["labels", "mask", "logits-row", "logits-one-sample", "logits-extra-axis"])
    def test_rejects_misshapen_inputs(self, shapes, message):
        probs, labels, mask, logits = shapes
        with pytest.raises(ValueError, match=message):
            masked_attr_loss(np.full(probs, 0.5), np.zeros(labels), np.ones(mask, dtype=bool),
                             logits=np.zeros(logits))


class TestWeightDecay:
    def _params(self, w, b=None):
        ps = ParameterSet()
        ps.add("fc1.w", Tensor(np.asarray(w, dtype=float)))
        if b is not None:
            ps.add("fc1.b", Tensor(np.asarray(b, dtype=float)))
        return ps

    def test_zero_weights(self):
        assert weight_decay_term(self._params(np.zeros((3, 3))), 1.0) == 0.0

    def test_single_weight(self):
        assert weight_decay_term(self._params(np.array([[2.0]])), 1.0) == 4.0

    def test_biases_excluded(self):
        ps = self._params(np.zeros((2, 2)), b=np.array([5.0, 5.0]))
        assert weight_decay_term(ps, 1.0) == 0.0

    def test_equals_trace_of_w_wt(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 4))
        got = weight_decay_term(self._params(w), 1.0)
        assert np.isclose(got, np.trace(w @ w.T), rtol=1e-12)


class TestSgd:
    def _single(self, value, grad):
        ps = ParameterSet()
        ps.add("fc1.w", with_grad(np.array([value]), np.array([grad])))
        return ps

    def test_zero_grads_no_decay_leaves_parameters(self):
        ps = self._single(1.25, 0.0)
        sgd_step(ps, lr=0.1, lam=0.0)
        assert ps["fc1.w"].data[0] == 1.25

    def test_decay_only_update(self):
        ps = self._single(1.0, 0.0)
        sgd_step(ps, lr=0.1, lam=0.5)
        assert np.isclose(ps["fc1.w"].data[0], 0.9)

    def test_lr_zero_is_bit_identical(self):
        rng = np.random.default_rng(3)
        ps = ParameterSet()
        ps.add("conv1.w", with_grad(rng.normal(size=(2, 2)), rng.normal(size=(2, 2))))
        before = ps["conv1.w"].data.copy()
        sgd_step(ps, lr=0.0, lam=0.3)
        np.testing.assert_array_equal(ps["conv1.w"].data, before)

    def test_quadratic_bowl_converges(self):
        ps = self._single(1.0, 0.0)
        for _ in range(100):
            w = ps["fc1.w"].data[0]
            ps["fc1.w"].grad = np.array([2.0 * w])  # d/dw of w^2
            sgd_step(ps, lr=0.1, lam=0.0)
        assert abs(ps["fc1.w"].data[0]) < 1e-6

    def test_grads_cleared_after_step(self):
        ps = self._single(1.0, 0.5)
        sgd_step(ps, lr=0.1)
        assert ps["fc1.w"].grad is None

    @pytest.mark.parametrize("source", ["fresh", "loaded"])
    def test_step_before_any_backward_is_refused(self, tmp_path, source):
        spec = NetworkSpec((1, 6, 6), (conv_spec(3, 2), fc_spec(3)))
        params = init_trunk_params(spec, np.random.default_rng(0))
        if source == "loaded":
            save_checkpoint(tmp_path / "ckpt.bin", spec, params)
            _, params = load_checkpoint(tmp_path / "ckpt.bin")[:2]
        before = {name: t.data.copy() for name, t in params.items()}
        with pytest.raises(ValueError, match="'trunk.conv1.w' has no gradient"):
            sgd_step(params, 0.1, lam=0.5)
        for name, t in params.items():
            assert t.grad is None and t.data.tobytes() == before[name].tobytes()

    def test_nan_gradient_refused_with_name(self):
        ps = self._single(1.0, np.nan)
        with pytest.raises(DivergenceError, match="fc1.w"):
            sgd_step(ps, lr=0.1)

    @pytest.mark.parametrize("lr, lam, bad", [
        (np.nan, 0.0, "learning rate"),
        (np.inf, 0.0, "learning rate"),
        (0.1, np.nan, "decay coefficient"),
        (0.1, np.inf, "decay coefficient"),
        (-0.1, 0.0, "learning rate"),
        ("0.1", 0.0, "learning rate"),
        (None, 0.0, "learning rate"),
        (True, 0.0, "learning rate"),
        (0.1, "0", "decay coefficient"),
        (0.1, None, "decay coefficient"),
        (0.1, False, "decay coefficient"),
    ], ids=["lr-nan", "lr-inf", "lam-nan", "lam-inf", "lr-negative", "lr-string", "lr-none",
            "lr-bool", "lam-string", "lam-none", "lam-bool"])
    def test_non_finite_rate_refused(self, lr, lam, bad):
        ps = self._single(1.0, 0.5)
        with pytest.raises(ValueError, match=f"{bad} must be finite"):
            sgd_step(ps, lr=lr, lam=lam)
        assert ps["fc1.w"].data[0] == 1.0 and ps["fc1.w"].grad is not None

    @pytest.mark.parametrize("lam", [0.0, 0.03])
    def test_update_keeps_the_expressions_bits(self, lam):
        rng = np.random.default_rng(5)
        ps = ParameterSet()
        for name, shape in (("conv1.w", (4, 3, 5, 5)), ("conv1.b", (4,)), ("fc1.w", (30, 7))):
            ps.add(name, with_grad(rng.normal(size=shape), rng.normal(size=shape)))
        want = {}
        for name, t in ps.items():
            if lam != 0.0 and not ps.is_bias(name):
                want[name] = t.data - 0.37 * (t.grad + 2.0 * lam * t.data)
            else:
                want[name] = t.data - 0.37 * t.grad
        sgd_step(ps, lr=0.37, lam=lam)
        for name, t in ps.items():
            assert t.data.tobytes() == want[name].tobytes() and t.grad is None

    def test_bias_sees_no_decay(self):
        ps = ParameterSet()
        ps.add("fc1.b", with_grad(np.array([1.0]), np.array([0.0])))
        sgd_step(ps, lr=0.1, lam=0.5)
        assert ps["fc1.b"].data[0] == 1.0


@pytest.mark.parametrize("lam", [np.nan, np.inf, True, -1.0],
                         ids=["nan", "inf", "bool", "negative"])
def test_decay_term_and_step_refuse_the_same_coefficients(lam):
    ps = ParameterSet()
    ps.add("fc1.w", with_grad(np.array([1.0]), np.array([0.5])))
    for call in (lambda: weight_decay_term(ps, lam), lambda: sgd_step(ps, lr=0.1, lam=lam)):
        with pytest.raises(ValueError, match="decay coefficient must be finite and >= 0"):
            call()
    assert ps["fc1.w"].data[0] == 1.0 and ps["fc1.w"].grad is not None


def test_lr_schedule_steps_down():
    assert lr_at(0, 30, 0.01) == 0.01
    assert lr_at(19, 30, 0.01) == 0.01
    assert lr_at(20, 30, 0.01) == pytest.approx(0.001)


class TestParameterSet:
    def test_refused_merge_adds_nothing(self):
        ps = ParameterSet()
        ps.add("x", Tensor(np.zeros(2)))
        other = ParameterSet()
        other.add("y", Tensor(np.ones(3)))
        other.add("x", Tensor(np.ones(2)))
        with pytest.raises(ValueError, match=r"duplicate parameter name\(s\): \['x'\]"):
            ps.merge(other)
        assert ps.names() == ["x"] and not ps["x"].data.any()

    def test_merge_appends_in_order(self):
        ps, other = ParameterSet(), ParameterSet()
        ps.add("a", Tensor(np.zeros(1)))
        for name in ("c", "b"):
            other.add(name, Tensor(np.zeros(1)))
        ps.merge(other)
        assert ps.names() == ["a", "c", "b"] and ps["c"] is other["c"]
