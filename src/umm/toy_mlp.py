"""Small tanh MLP stored as a checkpoint, for desk-scale merge studies.

The network is a plain stack: layers.{i}.weight of shape [out, in] and
layers.{i}.bias of shape [out], tanh between layers, linear output.
Checkpoints carry layer_pattern/num_layers metadata so the layer-grouped
merge schedules apply to them directly.  The trainer is full-batch Adam
on mean squared error, deterministic under a fixed seed.
"""

from __future__ import annotations

import numpy as np

from umm.errors import IncompatibleCheckpoints
from umm.tensor_store import Checkpoint, Tensor

DEFAULT_WIDTHS = (1, 16, 16, 16, 16, 16, 1)


def init_mlp(seed: int, widths=DEFAULT_WIDTHS) -> Checkpoint:
    """Random checkpoint with scaled-normal weights and zero biases."""
    rng = np.random.default_rng(seed)
    tensors = {}
    n_layers = len(widths) - 1
    for i in range(n_layers):
        fan_in, fan_out = widths[i], widths[i + 1]
        w = rng.standard_normal((fan_out, fan_in)) * np.sqrt(1.0 / fan_in)
        tensors[f"layers.{i}.weight"] = Tensor(w.astype(np.float32))
        tensors[f"layers.{i}.bias"] = Tensor(np.zeros(fan_out, np.float32))
    return Checkpoint(
        tensors=tensors,
        metadata={"layer_pattern": "layers.{i}.", "num_layers": str(n_layers)},
    )


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


def train_mlp(ckpt: Checkpoint, xs: np.ndarray, ys: np.ndarray,
              lr: float = 0.01, steps: int = 2000) -> Checkpoint:
    """Full-batch Adam on MSE; returns a new checkpoint, input untouched."""
    weights, biases = _unpack(ckpt)
    xs = np.asarray(xs, dtype=np.float64).reshape(-1, 1)
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    n = xs.shape[0]
    last = len(weights) - 1

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]

    for step in range(1, steps + 1):
        # forward, keeping activations
        acts = [xs]
        h = xs
        for i in range(len(weights)):
            z = h @ weights[i].T + biases[i]
            h = z if i == last else np.tanh(z)
            acts.append(h)
        pred = acts[-1][:, 0]
        # backward: d(MSE)/dpred
        grad = (2.0 / n) * (pred - ys)
        delta = grad.reshape(-1, 1)
        for i in range(last, -1, -1):
            gw = delta.T @ acts[i]
            gb = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ weights[i]) * (1.0 - acts[i] ** 2)
            t = step
            for grad_p, m, v, param in ((gw, m_w[i], v_w[i], weights[i]),
                                        (gb, m_b[i], v_b[i], biases[i])):
                m *= beta1
                m += (1 - beta1) * grad_p
                v *= beta2
                v += (1 - beta2) * grad_p**2
                m_hat = m / (1 - beta1**t)
                v_hat = v / (1 - beta2**t)
                param -= lr * m_hat / (np.sqrt(v_hat) + eps)

    tensors = {}
    for i in range(len(weights)):
        tensors[f"layers.{i}.weight"] = Tensor(weights[i].astype(np.float32))
        tensors[f"layers.{i}.bias"] = Tensor(biases[i].astype(np.float32))
    return Checkpoint(tensors=tensors, metadata=dict(ckpt.metadata))


def mse(ckpt: Checkpoint, xs: np.ndarray, ys: np.ndarray) -> float:
    pred = mlp_forward(ckpt, xs)
    return float(np.mean((pred - np.asarray(ys, dtype=np.float64)) ** 2))
