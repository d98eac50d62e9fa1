"""Forward pass of the small tanh MLP the ``toy-regression`` evaluator scores.

A checkpoint holds the network as a plain stack: layers.{i}.weight of
shape [out, in] and layers.{i}.bias of shape [out] for i below its
``num_layers`` metadata, tanh between layers and a linear output, one
scalar in and one scalar out.  A checkpoint without ``num_layers`` or
without one of those tensors is not a toy MLP.
"""

from __future__ import annotations

import numpy as np

from umm.errors import IncompatibleCheckpoints
from umm.tensor_store import Checkpoint


def _unpack(ckpt: Checkpoint):
    try:
        n_layers = int(ckpt.metadata["num_layers"])
        weights = [ckpt.array(f"layers.{i}.weight").astype(np.float64) for i in range(n_layers)]
        biases = [ckpt.array(f"layers.{i}.bias").astype(np.float64) for i in range(n_layers)]
    except KeyError as exc:
        raise IncompatibleCheckpoints(f"not a toy MLP checkpoint: missing {exc}") from exc
    return weights, biases


def mlp_forward(ckpt: Checkpoint, xs: np.ndarray) -> np.ndarray:
    """Evaluate the network on scalar inputs ``xs``; returns scalar outputs."""
    weights, biases = _unpack(ckpt)
    h = np.asarray(xs, dtype=np.float64).reshape(-1, 1)
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w.T + b
        if i != last:
            h = np.tanh(h)
    return h[:, 0]
