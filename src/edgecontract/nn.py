"""Minimal fixed-architecture MLP with analytic gradients and Adam.

Supports batched inputs (leading axis) and explicit gradient tapes, so
several forward passes can coexist before their backward passes (needed when
backpropagating through a multi-step denoising chain).  Each network keeps
all its weights and biases in one flat parameter vector, so the optimizer,
soft target updates and finiteness checks each act on a single vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Mlp", "GradTape", "AdamState", "adam_step", "save_weights", "load_weights"]

_ACTIVATIONS = ("relu", "tanh", "identity")

CHECKPOINT_VERSION = 1


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def _act_grad(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0).astype(float)
    if name == "tanh":
        return 1.0 - np.tanh(z) ** 2
    return np.ones_like(z)


@dataclass
class GradTape:
    """Cached per-layer inputs and pre-activations from one forward pass."""

    inputs: list[np.ndarray]
    preacts: list[np.ndarray]
    batched: bool


class Mlp:
    """Fully connected network with one activation tag per layer.

    ``params`` holds every weight and bias; ``weights[i]`` and ``biases[i]``
    are views into it.
    """

    def __init__(self, widths: list[int], activations: list[str], rng: np.random.Generator | None = None):
        if len(activations) != len(widths) - 1:
            raise ValueError("need one activation per layer")
        for a in activations:
            if a not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        self.widths = list(widths)
        self.activations = list(activations)
        sizes = [(d_in + 1) * d_out for d_in, d_out in zip(widths[:-1], widths[1:])]
        self.params = np.zeros(sum(sizes))
        self.weights, self.biases = self._layer_views(self.params)
        if rng is not None:
            for w in self.weights:
                # He-style fan-in scaling
                w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])

    def _layer_views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views into a vector laid out like ``params``:
        [W0 (row-major), b0, W1, b1, ...]."""
        weights, biases = [], []
        off = 0
        for d_in, d_out in zip(self.widths[:-1], self.widths[1:]):
            weights.append(flat[off : off + d_in * d_out].reshape(d_in, d_out))
            off += d_in * d_out
            biases.append(flat[off : off + d_out])
            off += d_out
        return weights, biases

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    @property
    def out_dim(self) -> int:
        return self.widths[-1]

    def apply(self, x: np.ndarray) -> tuple[np.ndarray, GradTape]:
        """Forward pass returning the output and an explicit gradient tape."""
        x = np.asarray(x, dtype=float)
        batched = x.ndim == 2
        h = x if batched else x[None, :]
        if h.shape[1] != self.in_dim:
            raise ValueError(f"expected input width {self.in_dim}, got {h.shape[1]}")
        inputs, preacts = [], []
        for w, b, act in zip(self.weights, self.biases, self.activations):
            inputs.append(h)
            z = h @ w + b
            preacts.append(z)
            h = _act(act, z)
        tape = GradTape(inputs=inputs, preacts=preacts, batched=batched)
        return (h if batched else h[0]), tape

    def grads(self, tape: GradTape, upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradients of sum(output * upstream) w.r.t. ``params`` and the input.

        Returns ``(grad, dx)``: ``grad`` is aligned with ``params`` and summed
        over the batch, ``dx`` keeps the batch axis of the forward input.
        """
        upstream = np.asarray(upstream, dtype=float)
        g = upstream if tape.batched else upstream[None, :]
        grad = np.empty_like(self.params)
        dws, dbs = self._layer_views(grad)
        for i in reversed(range(len(self.weights))):
            g = g * _act_grad(self.activations[i], tape.preacts[i])
            np.matmul(tape.inputs[i].T, g, out=dws[i])
            np.sum(g, axis=0, out=dbs[i])
            g = g @ self.weights[i].T
        return grad, (g if tape.batched else g[0])

    def copy_from(self, other: "Mlp") -> None:
        self.params[...] = other.params

    def clone(self) -> "Mlp":
        net = Mlp(self.widths, self.activations)
        net.copy_from(self)
        return net


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_net(cls, net: Mlp) -> "AdamState":
        return cls(m=np.zeros_like(net.params), v=np.zeros_like(net.params))


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
    """In-place adaptive-moment update with bias correction."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    m, v = state.m, state.v
    m *= b1
    m += (1 - b1) * grads
    v *= b2
    v += (1 - b2) * grads * grads
    m_hat = m / (1 - b1**state.t)
    v_hat = v / (1 - b2**state.t)
    params -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


def save_weights(path, net: Mlp) -> None:
    """Versioned binary checkpoint (npz with layer dims header)."""
    payload = {
        "version": np.array(CHECKPOINT_VERSION),
        "widths": np.array(net.widths),
        "activations": np.array(net.activations),
    }
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        payload[f"w{i}"] = w
        payload[f"b{i}"] = b
    np.savez(path, **payload)


def load_weights(path) -> Mlp:
    with np.load(path, allow_pickle=False) as data:
        if int(data["version"]) != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {int(data['version'])}")
        widths = [int(x) for x in data["widths"]]
        activations = [str(x) for x in data["activations"]]
        net = Mlp(widths, activations)
        for i in range(len(net.weights)):
            net.weights[i][...] = data[f"w{i}"]
            net.biases[i][...] = data[f"b{i}"]
    return net
