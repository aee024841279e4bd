"""MLP apply/grads correctness, parameter layout, optimizer behavior, checkpoints."""

import numpy as np
import pytest

from edgecontract.nn import (
    AdamState,
    Mlp,
    adam_step,
    load_weights,
    save_weights,
)


def _reference_forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Straight-line reimplementation of the forward pass."""
    h = np.asarray(x, dtype=float)
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = h @ w + b
        if act == "relu":
            h = np.maximum(z, 0.0)
        elif act == "tanh":
            h = np.tanh(z)
        else:
            h = z
    return h


def _numeric_param_grads(net: Mlp, x: np.ndarray, upstream: np.ndarray, h: float = 1e-5):
    grad = np.zeros_like(net.params)
    for i in range(net.params.size):
        orig = net.params[i]
        net.params[i] = orig + h
        up = float(np.sum(net.apply(x)[0] * upstream))
        net.params[i] = orig - h
        dn = float(np.sum(net.apply(x)[0] * upstream))
        net.params[i] = orig
        grad[i] = (up - dn) / (2 * h)
    return grad


def test_constructor_validation():
    with pytest.raises(ValueError):
        Mlp([3, 4], ["relu", "relu"])
    with pytest.raises(ValueError):
        Mlp([3, 4, 2], ["relu", "sigmoid"])


def test_forward_matches_reference_to_1e12():
    rng = np.random.default_rng(0)
    for _ in range(20):
        net = Mlp([4, 7, 5, 2], ["relu", "tanh", "identity"], rng)
        x = rng.standard_normal((6, 4))
        assert np.allclose(net.apply(x)[0], _reference_forward(net, x), rtol=0, atol=1e-12)


def test_forward_deterministic():
    rng = np.random.default_rng(3)
    net = Mlp([3, 8, 2], ["relu", "identity"], rng)
    x = rng.standard_normal(3)
    assert np.array_equal(net.apply(x)[0], net.apply(x)[0])


def test_unbatched_and_batched_agree():
    rng = np.random.default_rng(4)
    net = Mlp([3, 6, 2], ["tanh", "identity"], rng)
    x = rng.standard_normal(3)
    assert np.allclose(net.apply(x)[0], net.apply(x[None, :])[0][0], atol=1e-15)


def test_input_width_checked():
    net = Mlp([3, 2], ["identity"])
    with pytest.raises(ValueError):
        net.apply(np.zeros(4))


def test_linear_layer_gradient_is_outer_product():
    rng = np.random.default_rng(5)
    net = Mlp([3, 2], ["identity"], rng)
    x = rng.standard_normal(3)
    upstream = rng.standard_normal(2)
    _, tape = net.apply(x)
    grad, dx = net.grads(tape, upstream)
    # params layout: W0 row-major, then b0
    dw, db = grad[:6].reshape(3, 2), grad[6:]
    assert np.allclose(dw, np.outer(x, upstream), atol=1e-12)
    assert np.allclose(db, upstream, atol=1e-12)
    assert np.allclose(dx, net.weights[0] @ upstream, atol=1e-12)


def test_zero_weight_net_has_zero_input_gradient():
    net = Mlp([3, 4, 2], ["relu", "identity"])  # zero init
    _, tape = net.apply(np.ones(3))
    _, dx = net.grads(tape, np.ones(2))
    assert np.allclose(dx, 0.0)


def test_gradients_match_finite_differences_over_100_nets():
    rng = np.random.default_rng(42)
    worst = 0.0
    checked = 0
    while checked < 100:
        widths = [int(rng.integers(2, 5)) for _ in range(3)] + [int(rng.integers(1, 3))]
        acts = [str(rng.choice(["relu", "tanh", "identity"])) for _ in range(3)]
        net = Mlp(widths, acts, rng)
        x = rng.standard_normal(widths[0]) * 0.7
        upstream = rng.standard_normal(widths[-1])
        _, tape = net.apply(x)
        # finite differences are invalid within the step size of a relu kink
        if any(
            a == "relu" and np.any(np.abs(z) < 1e-3)
            for a, z in zip(acts, tape.preacts)
        ):
            continue
        checked += 1
        analytic, _ = net.grads(tape, upstream)
        numeric = _numeric_param_grads(net, x, upstream)
        denom = np.maximum(np.abs(numeric), 1e-3)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    assert worst < 1e-4, f"worst relative gradient error {worst:.2e}"


def test_batched_param_grads_sum_over_batch():
    rng = np.random.default_rng(7)
    net = Mlp([3, 4, 2], ["tanh", "identity"], rng)
    xs = rng.standard_normal((5, 3))
    ups = rng.standard_normal((5, 2))
    _, tape = net.apply(xs)
    batched, _ = net.grads(tape, ups)
    # sum of per-sample gradients
    acc = np.zeros_like(net.params)
    for i in range(5):
        _, tape_i = net.apply(xs[i])
        acc += net.grads(tape_i, ups[i])[0]
    assert np.allclose(batched, acc, atol=1e-12)


# -- optimizer --------------------------------------------------------------

def test_adam_zero_gradient_leaves_parameters_unchanged():
    net = Mlp([2, 2], ["identity"], np.random.default_rng(0))
    before = net.params.copy()
    state = AdamState.for_net(net)
    adam_step(state, net.params, np.zeros_like(net.params), lr=0.1)
    assert np.array_equal(net.params, before)


def test_adam_zero_lr_leaves_parameters_unchanged():
    rng = np.random.default_rng(1)
    net = Mlp([2, 2], ["identity"], rng)
    before = net.params.copy()
    state = AdamState.for_net(net)
    adam_step(state, net.params, rng.standard_normal(net.params.shape), lr=0.0)
    assert np.array_equal(net.params, before)


def test_adam_first_step_scalar_hand_computation():
    # one scalar parameter, gradient g: bias-corrected first step is
    # lr * g / (|g| + eps) regardless of beta values
    p = np.array([1.0])
    g = np.array([0.37])
    state = AdamState(m=np.zeros(1), v=np.zeros(1))
    adam_step(state, p, g, lr=0.01)
    expect = 1.0 - 0.01 * 0.37 / (abs(0.37) + 1e-8)
    assert p[0] == pytest.approx(expect, rel=1e-9)


# -- parameter plumbing and checkpoints -------------------------------------

def test_clone_is_deep():
    rng = np.random.default_rng(2)
    net = Mlp([3, 4, 2], ["relu", "identity"], rng)
    other = net.clone()
    other.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != other.weights[0][0, 0]


def test_params_layout_views_and_grad_shape():
    net = Mlp([3, 4, 2], ["relu", "identity"], np.random.default_rng(0))
    assert net.params.size == (3 + 1) * 4 + (4 + 1) * 2
    for w, b in zip(net.weights, net.biases):
        assert np.shares_memory(w, net.params) and np.shares_memory(b, net.params)
    _, tape = net.apply(np.ones(3))
    grad, _ = net.grads(tape, np.ones(2))
    assert grad.shape == net.params.shape
    other = net.clone()
    assert not np.shares_memory(other.params, net.params)
    assert np.array_equal(other.params, net.params)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    net = Mlp([4, 6, 3], ["tanh", "identity"], rng)
    path = tmp_path / "net.npz"
    save_weights(path, net)
    loaded = load_weights(path)
    x = rng.standard_normal(4)
    assert np.array_equal(net.apply(x)[0], loaded.apply(x)[0])
    assert loaded.widths == net.widths and loaded.activations == net.activations


def test_checkpoint_version_rejected(tmp_path):
    net = Mlp([2, 2], ["identity"])
    path = tmp_path / "net.npz"
    save_weights(path, net)
    data = dict(np.load(path, allow_pickle=False))
    data["version"] = np.array(99)
    np.savez(path, **data)
    with pytest.raises(ValueError):
        load_weights(path)
