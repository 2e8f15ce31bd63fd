"""Plain stochastic gradient descent with decoupled L2 weight decay.

The decay enters the update as ``w <- w - lr * (grad + 2 * lam * w)`` for
weights; biases are updated from their gradient alone.  Loss functions in
this package therefore return data-term gradients only, and the decay's
contribution to reported loss values comes from ``losses.weight_decay_term``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .tensor import ParameterSet


class DivergenceError(ArithmeticError):
    """Raised when training or an update hits NaN/inf."""


def check_nonnegative_real(name: str, v) -> None:
    """Refuse ``v`` unless it is a finite real >= 0 (a bool is not a real here)."""
    real = isinstance(v, numbers.Real) and not isinstance(v, bool)
    if not (real and math.isfinite(v) and v >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


def sgd_step(params: ParameterSet, lr: float, lam: float = 0.0) -> None:
    """One descent step over every parameter.

    The step consumes the gradients: each is scaled in place into its
    update, so no ``lr * grad`` temporary is made, and then cleared.  The
    arithmetic runs in the order of ``w - lr * (grad + 2 * lam * w)``.
    """
    check_nonnegative_real("learning rate", lr)
    check_nonnegative_real("decay coefficient", lam)
    for name, t in params.items():
        if t.grad is None:
            raise ValueError(f"parameter {name!r} has no gradient; run a backward pass first")
        if not np.all(np.isfinite(t.grad)):
            raise DivergenceError(f"non-finite gradient on parameter {name!r}; step refused")
    for name, t in params.items():
        if lam != 0.0 and not params.is_bias(name):
            t.grad += (2.0 * lam) * t.data
        np.multiply(t.grad, lr, out=t.grad)
        t.data -= t.grad
    params.clear_grads()


def lr_at(epoch: int, total_epochs: int, base_lr: float,
          decay_factor: float = 0.1, decay_point: float = 2.0 / 3.0) -> float:
    """Step schedule: ``base_lr`` until ``decay_point`` of the budget, then scaled."""
    if total_epochs <= 0:
        return base_lr
    return base_lr * decay_factor if epoch >= decay_point * total_epochs else base_lr
