"""Checkpoint files: a trunk architecture plus every named parameter.

Save -> load round-trips are bit-exact, and saving unchanged content twice
yields byte-identical files (see ``serialize``).  The container stores the
parameters in insertion order, so a reloaded set iterates exactly like the
original.
"""

from __future__ import annotations

import numpy as np

from .net import NetworkSpec, check_trunk_params
from .serialize import load_container, save_container
from .tensor import ParameterSet, Tensor


def save_checkpoint(path, spec: NetworkSpec, params: ParameterSet, extra: dict | None = None):
    meta = {"network": spec.to_dict(), "extra": extra or {}}
    arrays = {name: t.data for name, t in params.items()}
    save_container(path, "checkpoint", meta, arrays)


def load_checkpoint(path) -> tuple[NetworkSpec, ParameterSet, dict]:
    """Read a checkpoint; any missing, unknown or malformed part raises
    ``ValueError`` naming it.

    Every ``trunk.`` parameter the stored network needs must be present with
    its shape; parameters outside the network (heads) load as stored.
    """
    kind, meta, arrays = load_container(path)
    if kind != "checkpoint":
        raise ValueError(f"{path}: container holds {kind!r}, not a checkpoint")
    known = ("network", "extra")
    for key in known:
        if not isinstance(meta.get(key), dict):
            raise ValueError(f"{path}: meta field {key!r} is missing or not a dict")
    unknown = sorted(set(meta) - set(known))
    if unknown:
        raise ValueError(f"{path}: unknown checkpoint meta field {unknown[0]!r}")
    try:
        spec = NetworkSpec.from_dict(meta["network"])
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: meta field 'network' is not a valid trunk: {e}") from None
    params = ParameterSet()
    for name, data in arrays.items():
        if not np.isfinite(data).all():
            raise ValueError(f"{path}: parameter {name!r} holds non-finite values")
        params.add(name, Tensor(data))
    try:
        check_trunk_params(spec, params)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return spec, params, meta["extra"]
