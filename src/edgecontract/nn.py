"""Minimal fixed-architecture MLP with analytic gradients and Adam.

Supports batched inputs (leading axis) and explicit gradient tapes, so
several forward passes can coexist before their backward passes (needed when
backpropagating through a multi-step denoising chain).  Each network keeps
all its weights and biases in one flat parameter vector, so the optimizer,
soft target updates and finiteness checks each act on a single vector.

A network built with ``stack=S`` holds S independent networks of one shape:
``params`` has shape (S, P), every layer runs as one stacked matmul, and each
slice equals a plain network bit for bit.  ``member(i)`` returns network
``i`` as a plain ``Mlp`` that shares only its parameters with the stack; its
workspaces are its own.  The diffusion agent keeps its twin critics, and
their targets, as stacks of 2.

Memory.  A network reuses one thing: its forward workspaces, kept per input
row count.  A workspace holds one array per layer, into which ``apply``
writes the layer's matmul, adds the bias and applies the activation in
place.  Each ``slot`` has a tape of those layer outputs, from which the
backward takes the relu mask and the tanh derivative; forward-only passes
(``slot=None``) have their own workspace, which ``grads`` also uses for its
per-layer gradients.  ``apply``'s output and ``grads``' results are fresh
arrays that the caller owns.  A tape is a view of its workspace and stays
valid only until the next ``apply`` with the same row count and slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass
class GradTape:
    """Per-layer inputs and outputs from one forward pass.

    ``inputs[0]`` is the caller's input; the other arrays belong to the
    network's workspace, one per layer: ``outputs[i]`` is layer ``i``'s
    activation and ``inputs[i + 1]`` is the same array.
    """

    inputs: list[np.ndarray]
    outputs: list[np.ndarray]
    batched: bool


class Mlp:
    """Fully connected network with one activation tag per layer.

    ``params`` holds every weight and bias; ``weights[i]`` and ``biases[i]``
    are views into it.  ``params=`` builds the network on an existing vector
    instead of allocating one.
    """

    def __init__(self, widths: list[int], activations: list[str], rng: np.random.Generator | None = None,
                 stack: int | None = None, *, params: np.ndarray | None = None):
        if len(activations) != len(widths) - 1:
            raise ValueError("need one activation per layer")
        for a in activations:
            if a not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        self.widths = list(widths)
        self.activations = list(activations)
        self.stack = stack
        self._lead = () if stack is None else (stack,)
        size = sum((d_in + 1) * d_out for d_in, d_out in zip(widths[:-1], widths[1:]))
        if params is None:
            params = np.zeros(self._lead + (size,))
        elif params.shape != self._lead + (size,):
            raise ValueError(f"params shape {params.shape} != {self._lead + (size,)}")
        self.params = params
        self.weights, self.biases = self._layer_views(self.params)
        self._weights_t = [w.swapaxes(-1, -2) for w in self.weights]
        self._row_biases = [b[..., None, :] for b in self.biases]
        self._tapes: dict[tuple[int, int | None], tuple[GradTape | None, list[np.ndarray]]] = {}
        if rng is not None:
            # He-style fan-in scaling; a stack draws member by member
            for member in self.params.reshape(-1, size):
                for w in self._layer_views(member)[0]:
                    w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])

    def _layer_views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views into a vector laid out like ``params``:
        [W0 (row-major), b0, W1, b1, ...] along its last axis."""
        weights, biases = [], []
        lead = flat.shape[:-1]
        off = 0
        for d_in, d_out in zip(self.widths[:-1], self.widths[1:]):
            weights.append(flat[..., off : off + d_in * d_out].reshape(lead + (d_in, d_out)))
            off += d_in * d_out
            biases.append(flat[..., off : off + d_out])
            off += d_out
        return weights, biases

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    def member(self, i: int) -> "Mlp":
        """Network ``i`` of a stack, sharing only its parameters with the stack."""
        if self.stack is None:
            raise ValueError("member() needs a stacked network")
        return Mlp(self.widths, self.activations, params=self.params[i])

    def _workspace(self, rows: int, slot: int | None) -> tuple[GradTape | None, list[np.ndarray]]:
        """The tape of one slot and its per-layer output buffers; slot None
        has no tape and lends its buffers to :meth:`grads`."""
        ws = self._tapes.get((rows, slot))
        if ws is None:
            outs = [np.empty(self._lead + (rows, d)) for d in self.widths[1:]]
            tape = None if slot is None else GradTape([None, *outs[:-1]], outs, True)
            ws = self._tapes[(rows, slot)] = (tape, outs)
        return ws

    def apply(self, x: np.ndarray, slot: int | None = 0) -> tuple[np.ndarray, GradTape | None]:
        """Forward pass returning a fresh output array and the gradient tape
        of ``slot``.

        The tape is the workspace of (rows, ``slot``): the next ``apply``
        with that row count and slot overwrites it.  ``slot=None`` runs a
        forward-only pass in its own buffers and returns no tape.  A stacked
        network takes a shared (rows, in) input or one per member,
        (S, rows, in), and returns (S, rows, out).
        """
        x = np.asarray(x, dtype=float)
        batched = x.ndim >= 2
        h = x if batched else x[None, :]
        if h.shape[-1] != self.in_dim:
            raise ValueError(f"expected input width {self.in_dim}, got {h.shape[-1]}")
        tape, outs = self._workspace(h.shape[-2], slot)
        if tape is not None:
            tape.inputs[0] = h
            tape.batched = batched
        for w, b, out, act in zip(self.weights, self._row_biases, outs, self.activations):
            np.matmul(h, w, out=out)
            out += b
            if act == "relu":
                np.maximum(out, 0.0, out=out)
            elif act == "tanh":
                np.tanh(out, out=out)
            h = out
        return (h if batched else h[..., 0, :]).copy(), tape

    def grads(self, tape: GradTape, upstream: np.ndarray,
              wrt: str = "both") -> tuple[np.ndarray | None, np.ndarray | None]:
        """Gradients of sum(output * upstream) w.r.t. ``params`` and the input.

        Returns ``(grad, dx)`` as fresh arrays: ``grad`` is aligned with
        ``params`` and summed over the batch, ``dx`` keeps the batch axis of
        the forward input.  ``wrt="params"`` skips the input gradient and
        ``wrt="input"`` the parameter gradient; the skipped one is returned
        as None.  The relu mask is ``output > 0`` and the tanh derivative
        ``1 - output**2``, both read off the tape's layer outputs.  The
        per-layer gradients are written to the ``slot=None`` buffers of the
        tape's row count, so no tape is touched.
        """
        if wrt not in ("both", "params", "input"):
            raise ValueError(f"unknown wrt {wrt!r}")
        upstream = np.asarray(upstream, dtype=float)
        g = upstream if tape.batched else upstream[..., None, :]
        _, bufs = self._workspace(tape.outputs[0].shape[-2], None)
        grad = None
        if wrt != "input":
            grad = np.empty_like(self.params)
            dws, dbs = self._layer_views(grad)
        for i in reversed(range(len(self.weights))):
            act, out = self.activations[i], tape.outputs[i]
            if act == "relu":
                g = np.multiply(g, out > 0.0, out=bufs[i])
            elif act == "tanh":
                g = np.multiply(g, 1.0 - np.square(out), out=bufs[i])
            if grad is not None:
                np.matmul(tape.inputs[i].swapaxes(-1, -2), g, out=dws[i])
                np.add.reduce(g, axis=-2, out=dbs[i])
            if i == 0 and wrt == "params":
                return grad, None
            g = np.matmul(g, self._weights_t[i], out=bufs[i - 1]) if i else g @ self._weights_t[0]
        return grad, g if tape.batched else g[..., 0, :]

    def clone(self) -> "Mlp":
        return Mlp(self.widths, self.activations, stack=self.stack, params=self.params.copy())


# Adam's first and second moment decay rates and its denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_net(cls, net: Mlp) -> "AdamState":
        return cls(m=np.zeros_like(net.params), v=np.zeros_like(net.params))


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
    """In-place adaptive-moment update with bias correction.

    Evaluates m_hat = m / (1 - b1^t), v_hat = v / (1 - b2^t) and
    params -= lr * m_hat / (sqrt(v_hat) + eps) operation by operation in
    that order, in two fresh arrays updated in place: no more than two
    parameter-sized temporaries are alive at once.
    """
    state.t += 1
    state.m *= BETA1
    state.m += grads * (1 - BETA1)
    state.v *= BETA2
    state.v += grads * (1 - BETA2) * grads
    step = state.m / (1 - BETA1**state.t)  # m_hat
    denom = state.v / (1 - BETA2**state.t)  # v_hat
    np.sqrt(denom, out=denom)
    denom += EPS
    step *= lr
    step /= denom
    params -= step
