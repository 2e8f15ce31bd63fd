"""Checkpoint files: a trunk architecture plus every named parameter.

Save -> load round-trips are bit-exact, and saving unchanged content twice
yields byte-identical files (see ``serialize``).  The parameter insertion
order is recorded so a reloaded set iterates exactly like the original.
"""

from __future__ import annotations

import numpy as np

from .net import NetworkSpec
from .serialize import load_container, save_container
from .tensor import ParameterSet, Tensor


def save_checkpoint(path, spec: NetworkSpec, params: ParameterSet, extra: dict | None = None):
    meta = {
        "network": spec.to_dict(),
        "param_order": params.names(),
        "extra": extra or {},
    }
    arrays = {name: t.data for name, t in params.items()}
    save_container(path, "checkpoint", meta, arrays)


def load_checkpoint(path) -> tuple[NetworkSpec, ParameterSet, dict]:
    """Read a checkpoint; any malformed part raises ``ValueError`` naming it.

    Every ``trunk.`` parameter the stored network needs must be present with
    its shape; parameters outside the network (heads) load as stored.
    """
    kind, meta, arrays = load_container(path)
    if kind != "checkpoint":
        raise ValueError(f"{path}: container holds {kind!r}, not a checkpoint")
    for key, want in (("network", dict), ("param_order", list), ("extra", dict)):
        if not isinstance(meta.get(key), want):
            raise ValueError(f"{path}: meta field {key!r} is missing or not a {want.__name__}")
    try:
        spec = NetworkSpec.from_dict(meta["network"])
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: meta field 'network' is not a valid trunk: {e}") from None
    params = ParameterSet()
    for name in meta["param_order"]:
        if not isinstance(name, str):
            raise ValueError(f"{path}: meta field 'param_order' holds {name!r}, not a name")
        if name in params:
            raise ValueError(f"{path}: meta field 'param_order' lists {name!r} twice")
        if name not in arrays:
            raise ValueError(f"{path}: parameter {name!r} listed but missing")
        data = arrays[name]
        params.add(name, Tensor(data, np.zeros_like(data)))
    for name, shape in spec.param_shapes().items():
        key = "trunk." + name
        if key not in params:
            raise ValueError(f"{path}: parameter {key!r} of the network is missing")
        if params[key].shape != shape:
            raise ValueError(
                f"{path}: parameter {key!r} has shape {params[key].shape}, "
                f"the network needs {shape}"
            )
    return spec, params, meta["extra"]
