"""Binary cross-entropy (plain and label-masked) and the weight-decay term.

Gradient convention: every gradient returned here is ``d loss / d logit``,
which for a sigmoid head is ``p - y``.  Heads whose label is missing get an
exactly-zero logit gradient, so unlabeled samples contribute nothing to any
parameter downstream of that head.
"""

from __future__ import annotations

import numpy as np

from .ops import sigmoid
from .optim import check_nonnegative_real
from .tensor import ParameterSet


def _check_binary_labels(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    return y


def bce_from_logit(z, y):
    """Stable cross-entropy evaluated at the pre-sigmoid logit.

    Returns ``(loss, d loss / d z)`` with ``d loss / d z = sigmoid(z) - y``.
    """
    z = np.asarray(z, dtype=np.float64)
    y = _check_binary_labels(y)
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return loss, sigmoid(z) - y


def masked_attr_loss(
    probs: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
    logits: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Summed cross-entropy over the labeled heads only.

    ``mask`` is boolean, True where the label is present.  Missing heads
    contribute zero loss and an exactly-zero logit gradient.  The loss is
    taken at the head ``logits`` (shaped as ``probs``, their sigmoid), so it
    stays finite when a head saturates; the gradient is ``p - y`` on present
    heads.
    """
    probs = np.asarray(probs, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    labels = np.asarray(labels, dtype=np.float64)
    logits = np.asarray(logits, dtype=np.float64)
    if probs.shape != mask.shape or probs.shape != labels.shape:
        raise ValueError(
            f"probs {probs.shape}, labels {labels.shape} and mask {mask.shape} must align"
        )
    if logits.shape != probs.shape:
        raise ValueError(f"logits {logits.shape} must have the shape of probs {probs.shape}")
    if not np.all((labels[mask] == 0.0) | (labels[mask] == 1.0)):
        raise ValueError("present labels must be 0 or 1")

    safe_labels = np.where(mask, labels, 0.0)
    per_head, _ = bce_from_logit(logits, safe_labels)
    loss = float(np.sum(np.where(mask, per_head, 0.0)))
    dlogits = np.where(mask, probs - safe_labels, 0.0)
    return loss, dlogits


def weight_decay_term(params: ParameterSet, lam: float) -> float:
    """``lam`` times the sum of squared entries of every weight (biases skipped)."""
    check_nonnegative_real("decay coefficient", lam)
    total = 0.0
    for _, t in params.weights():
        total += float(np.sum(t.data * t.data))
    return lam * total
