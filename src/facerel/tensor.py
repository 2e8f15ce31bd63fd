"""Dense float tensors with a gradient slot, and named parameter bundles.

All network math in this package runs on plain ``numpy`` arrays; ``Tensor``
exists to pair a parameter's values with its accumulated gradient, and
``ParameterSet`` to give every trainable tensor a stable, unique name.

Naming convention: parameter names ending in ``.b`` are biases.  Biases are
excluded from weight decay by every consumer of a ``ParameterSet`` (see
``losses.weight_decay_term`` and ``optim.sgd_step``).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


class Tensor:
    """A dense n-dimensional array plus its gradient, None until a backward pass adds one."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def clear_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        g = np.asarray(g, dtype=self.data.dtype)
        if g.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"


class ParameterSet:
    """An ordered map of unique names to trainable tensors.

    Iteration order is insertion order, which makes every whole-set
    operation (decay sums, SGD sweeps, serialization) deterministic.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name!r}")
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def is_bias(self, name: str) -> bool:
        return name.endswith(".b")

    def weights(self) -> Iterator[tuple[str, Tensor]]:
        """Yield only decayed parameters, i.e. everything that is not a bias."""
        for name, t in self._params.items():
            if not self.is_bias(name):
                yield name, t

    def clear_grads(self) -> None:
        for t in self._params.values():
            t.clear_grad()

    def merge(self, other: "ParameterSet") -> None:
        """Add every tensor of ``other``; a name clash adds none of them."""
        clash = [name for name in other.names() if name in self._params]
        if clash:
            raise ValueError(f"duplicate parameter name(s): {clash}")
        self._params.update(other.items())

    def __repr__(self) -> str:
        total = sum(t.size for t in self._params.values())
        return f"ParameterSet({len(self._params)} tensors, {total} values)"
