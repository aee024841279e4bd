"""MLP apply/grads correctness, parameter layout, optimizer behavior."""

import numpy as np
import pytest

from edgecontract.harness import run_training
from edgecontract.nn import AdamState, Mlp, adam_step

from conftest import acceptance_config, mlp_reference_apply, mlp_reference_grads


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
            for a, z in zip(acts, mlp_reference_apply(net, x)[1][1])
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


# -- parameter plumbing ----------------------------------------------------------

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


# -- workspaces, stacks and the fused optimizer ---------------------------------

ACCEPTANCE_CRITIC = [24, 64, 64, 1]
ACTIVATION_SETS = [
    ["relu", "relu", "identity"],
    ["tanh", "tanh", "identity"],
    ["identity", "relu", "tanh"],
]


def test_grads_match_allocating_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    for acts in ACTIVATION_SETS:
        net = Mlp([5, 7, 6, 3], acts, rng)
        for x in (rng.standard_normal((9, 5)), rng.standard_normal(5)):
            up = rng.standard_normal(x.shape[:-1] + (3,))
            y, tape = net.apply(x)
            y_ref, record = mlp_reference_apply(net, x)
            assert np.array_equal(y, y_ref)
            for out, a_ref in zip(tape.outputs, [*record[0][1:], np.atleast_2d(y_ref)]):
                assert np.array_equal(out, a_ref)
            grad, dx = net.grads(tape, up)
            grad_ref, dx_ref = mlp_reference_grads(net, record, up)
            assert np.array_equal(grad, grad_ref) and np.array_equal(dx, dx_ref)


def test_returned_arrays_survive_later_calls_at_same_batch_size():
    rng = np.random.default_rng(12)
    for net in (Mlp([4, 6, 2], ["relu", "identity"], rng),
                Mlp([4, 6, 2], ["tanh", "identity"], rng, stack=2)):
        x1, x2 = rng.standard_normal((2, 5, 4))
        up1, up2 = rng.standard_normal((2, *net.apply(x1)[0].shape))
        y1, tape1 = net.apply(x1)
        grad1, dx1 = net.grads(tape1, up1)
        _, dx1_only = net.grads(tape1, up1, wrt="input")
        kept = [a.copy() for a in (y1, grad1, dx1, dx1_only)]
        _, tape2 = net.apply(x2)
        net.grads(tape2, up2)
        net.grads(tape2, up2, wrt="input")
        for got, want in zip((y1, grad1, dx1, dx1_only), kept):
            assert np.array_equal(got, want)
        assert not np.array_equal(net.apply(x2)[0], y1)


def test_recorded_slots_keep_their_tapes():
    rng = np.random.default_rng(13)
    net = Mlp([3, 5, 2], ["relu", "identity"], rng)
    x1, x2 = rng.standard_normal((2, 4, 3))
    up = rng.standard_normal((4, 2))
    _, tape1 = net.apply(x1, slot=1)
    want = net.grads(tape1, up)
    net.apply(x2, slot=2)
    net.apply(x2, slot=None)
    for got, ref in zip(net.grads(tape1, up), want):
        assert np.array_equal(got, ref)
    # a forward-only pass gives the same output and returns no tape
    y, tape = net.apply(x1, slot=None)
    assert tape is None and np.array_equal(y, net.apply(x1)[0])


def test_tapes_reuse_one_workspace_per_slot():
    # the reuse that keeps a training step from allocating: repeated passes
    # at one row count and slot write into one workspace
    rng = np.random.default_rng(14)
    net = Mlp([3, 5, 2], ["relu", "identity"], rng)
    x1, x2 = rng.standard_normal((2, 4, 3))
    _, tape1 = net.apply(x1, slot=1)
    _, tape2 = net.apply(x2, slot=1)
    for out1, out2 in zip(tape1.outputs, tape2.outputs):
        assert np.shares_memory(out1, out2)


def _tape_arrays(net: Mlp) -> list[np.ndarray]:
    """The layer outputs of every recorded tape of a network."""
    return [out for tape in net._tapes.values() for out in tape.outputs]


def _workspace_bytes(*nets: Mlp) -> int:
    """Bytes of the distinct base buffers under the networks' tapes and
    scratch: a member's scratch is a view of its stack's, and a clone's is
    its source's."""
    bases = {}
    for net in nets:
        for a in [*_tape_arrays(net), *(b for bufs in net._scratch[0].values() for b in bufs)]:
            base = a if a.base is None else a.base
            bases[id(base)] = base.nbytes
    return sum(bases.values())


def test_workspaces_hold_one_array_per_layer():
    # a tape keeps each layer's output and nothing else: the backward reads
    # the relu mask and the tanh derivative off the outputs
    rng = np.random.default_rng(18)
    for net in (Mlp([3, 5, 4, 2], ["relu", "tanh", "identity"], rng),
                Mlp([3, 5, 4, 2], ["tanh", "relu", "identity"], rng, stack=2)):
        layer_bytes = 8 * (net.stack or 1) * sum(net.widths[1:])
        for slot in (1, None):
            _, tape = net.apply(rng.standard_normal((6, 3)), slot=slot)
            ws_tape, bufs = net._workspace(6, slot)
            assert ws_tape is tape and sum(b.nbytes for b in bufs) == 6 * layer_bytes
            if tape is not None:
                assert all(out is buf for out, buf in zip(tape.outputs, bufs, strict=True))
                for i in range(len(net.weights) - 1):
                    assert np.shares_memory(tape.inputs[i + 1], tape.outputs[i])
        assert _workspace_bytes(net) == 2 * 6 * layer_bytes
    # a training step of the acceptance agent (batch 128, K = 3 chain
    # steps) fills: the actor's K tapes; the scratch of the actor's shape,
    # at one state (the menu pass) and at the batch (its backward and the
    # target actor's pass); the critic stack's tape; the scratch of the
    # critics' shape at the batch (the stack's backward, the target stack's
    # pass and member 0's backward); and the tape of the member-0 view
    cfg = acceptance_config(0)
    cfg.training.episodes = 1
    _, agent, _ = run_training(cfg)
    actor, critics = (sum(net.widths[1:]) for net in (agent.actor, agent.critics))
    batch, k = cfg.training.batch_size, cfg.training.diffusion_steps
    expect = 8 * (actor * (k * batch + 1 + batch) + critics * (2 * batch + 2 * batch + batch))
    held = _workspace_bytes(agent.actor, agent.target_actor, agent.critics, agent.target_critics,
                            agent.critic1)
    assert held == expect == 1_235_040


def test_targets_and_members_share_the_scratch_but_not_their_tapes():
    cfg = acceptance_config(0)
    cfg.training.episodes = 1
    _, agent, _ = run_training(cfg)
    rows = cfg.training.batch_size
    for net, target in ((agent.actor, agent.target_actor), (agent.critics, agent.target_critics)):
        for buf, target_buf in zip(net._scratch_buffers(rows), target._scratch_buffers(rows), strict=True):
            assert np.shares_memory(buf, target_buf)
    views, stacked_bufs = agent.critic1._scratch_buffers(rows), agent.critics._scratch_buffers(rows)
    for view, stacked in zip(views, stacked_bufs, strict=True):
        assert view.base is stacked and np.shares_memory(view, stacked[0])
        assert not np.shares_memory(view, stacked[1])
    nets = (agent.actor, agent.target_actor, agent.critics, agent.target_critics, agent.critic1)
    scratch = [b for net in nets for bufs in net._scratch[0].values() for b in bufs]
    for i, net in enumerate(nets):
        for out in _tape_arrays(net):
            assert not any(np.shares_memory(out, b) for b in scratch)
            for other in nets[i + 1:]:
                assert not any(np.shares_memory(out, o) for o in _tape_arrays(other))


def test_stack_member_tape_survives_a_stack_apply():
    # a member shares only its parameters with the stack, not its workspaces
    rng = np.random.default_rng(16)
    stack = Mlp([3, 5, 2], ["relu", "identity"], rng, stack=2)
    member = stack.member(1)
    x1, x2 = rng.standard_normal((2, 4, 3))
    y, tape = member.apply(x1)
    kept = [out.copy() for out in tape.outputs]
    stack.apply(x2)
    assert all(np.array_equal(out, out_kept) for out, out_kept in zip(tape.outputs, kept))
    grad, dx = member.grads(tape, np.ones_like(y))
    y_again, tape_again = member.apply(x1)
    assert np.array_equal(y, y_again)
    grad_again, dx_again = member.grads(tape_again, np.ones_like(y))
    assert np.array_equal(grad, grad_again) and np.array_equal(dx, dx_again)


def test_backward_shares_only_the_forward_only_buffers():
    # grads computes its layer gradients in the scratch buffers: a
    # forward-only pass before the backward, of the network or of a clone
    # sharing its scratch, changes no gradient, and the backward changes no
    # later forward-only output
    rng = np.random.default_rng(17)
    net = Mlp([3, 5, 5, 2], ["relu", "tanh", "identity"], rng)
    x1, x2 = rng.standard_normal((2, 4, 3))
    y, tape = net.apply(x1)
    up = rng.standard_normal(y.shape)
    y2, _ = net.apply(x2, slot=None)
    grad, dx = net.grads(tape, up)
    ref_grad, ref_dx = mlp_reference_grads(net, mlp_reference_apply(net, x1)[1], up)
    assert np.allclose(grad, ref_grad) and np.allclose(dx, ref_dx)
    assert np.array_equal(net.apply(x2, slot=None)[0], y2)
    again, dx_again = net.grads(tape, up)
    assert np.array_equal(again, grad) and np.array_equal(dx_again, dx)
    clone = net.clone()
    clone.params += 1.0
    _, tape = net.apply(x1)
    clone.apply(x2, slot=None)
    again, dx_again = net.grads(tape, up)
    assert np.array_equal(again, grad) and np.array_equal(dx_again, dx)


def test_input_only_and_params_only_backward_match_full_backward():
    rng = np.random.default_rng(15)
    for net in (Mlp([6, 8, 8, 3], ["relu", "tanh", "identity"], rng),
                Mlp(ACCEPTANCE_CRITIC, ACTIVATION_SETS[0], rng, stack=2)):
        x = rng.standard_normal((7, net.in_dim))
        y, tape = net.apply(x)
        up = rng.standard_normal(y.shape)
        grad, dx = net.grads(tape, up)
        none, dx_only = net.grads(tape, up, wrt="input")
        grad_only, no_dx = net.grads(tape, up, wrt="params")
        assert none is None and no_dx is None
        assert np.array_equal(dx_only, dx) and np.array_equal(grad_only, grad)
    with pytest.raises(ValueError):
        net.grads(tape, up, wrt="weights")


@pytest.mark.parametrize("acts", ACTIVATION_SETS, ids=["relu", "tanh", "mixed"])
def test_stack_equals_independent_networks_bit_for_bit(acts):
    # built from one seed, the stack draws member 0 then member 1, like two
    # networks built one after the other
    stack = Mlp(ACCEPTANCE_CRITIC, acts, np.random.default_rng(21), stack=2)
    draws = np.random.default_rng(21)
    nets = [Mlp(ACCEPTANCE_CRITIC, acts, draws) for _ in range(2)]
    for i, net in enumerate(nets):
        assert np.array_equal(stack.params[i], net.params)
    rng = np.random.default_rng(22)
    for x in (rng.standard_normal((128, 24)), rng.standard_normal(24)):
        y, tape = stack.apply(x)
        up = rng.standard_normal(y.shape)
        grad, dx = stack.grads(tape, up)
        for i, net in enumerate(nets):
            y_i, tape_i = net.apply(x)
            grad_i, dx_i = net.grads(tape_i, up[i])
            assert np.array_equal(y[i], y_i)
            assert np.array_equal(grad[i], grad_i) and np.array_equal(dx[i], dx_i)
    opt = AdamState.for_net(stack)
    adam_step(opt, stack.params, grad, 1e-3)
    for i, net in enumerate(nets):
        opt_i = AdamState.for_net(net)
        adam_step(opt_i, net.params, grad[i], 1e-3)
        assert np.array_equal(stack.params[i], net.params)


def test_stack_members_are_views_sharing_parameters():
    stack = Mlp([3, 4, 1], ["relu", "identity"], np.random.default_rng(23), stack=2)
    first, second = stack.member(0), stack.member(1)
    assert np.shares_memory(first.params, stack.params) and np.shares_memory(second.params, stack.params)
    first.params[...] = 0.0
    assert np.all(stack.params[0] == 0.0) and np.any(stack.params[1] != 0.0)
    x = np.random.default_rng(24).standard_normal((5, 3))
    assert np.array_equal(second.apply(x)[0], stack.apply(x)[0][1])
    clone = stack.clone()
    assert clone.stack == 2 and not np.shares_memory(clone.params, stack.params)
    with pytest.raises(ValueError):
        Mlp([3, 1], ["identity"]).member(0)


def _textbook_adam(m, v, params, grads, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    m = b1 * m + (1 - b1) * grads
    v = b2 * v + (1 - b2) * grads * grads
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    return m, v, params - lr * m_hat / (np.sqrt(v_hat) + eps)


def test_adam_step_equals_textbook_formula_over_five_steps():
    rng = np.random.default_rng(25)
    params = rng.standard_normal(50)
    state = AdamState(m=np.zeros(50), v=np.zeros(50))
    m, v, ref = np.zeros(50), np.zeros(50), params.copy()
    for t in range(1, 6):
        g = rng.standard_normal(50)
        adam_step(state, params, g, lr=1e-2)
        m, v, ref = _textbook_adam(m, v, ref, g, t, 1e-2)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        assert np.array_equal(params, ref)
