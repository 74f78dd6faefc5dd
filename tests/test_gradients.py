"""Finite-difference verification of every analytic gradient path."""

import numpy as np
import pytest

from moegeo.infotheory import mean_routing_probs, topk_conditional_entropy
from moegeo.moe import (
    ADAM_EPS,
    WEIGHT_DECAY,
    MoEConfig,
    MoEGradients,
    MoEParams,
    adamw_step,
    backward,
    forward,
    gelu,
    gelu_grad,
    init_params,
    total_loss,
)
from moegeo.rng import stream

FD_STEP = 1e-5
REL_TOL = 1e-4

SMALL = dict(input_dim=12, experts=6, active_k=2, expert_hidden=8, classes=5,
             batch=4, seed=7)


def clone_params(params):
    return MoEParams(w_g=params.w_g.copy(), w_in=params.w_in.copy(),
                     w_out=params.w_out.copy())


def loss_value(params, config, x, y):
    trace = forward(params, config, x)
    value, _ = total_loss(trace, y, config)
    return value


def selection_margin(params, config, x):
    """Gap between the kth and (k+1)th routing prob, minimized over rows."""
    trace = forward(params, config, x)
    p_sorted = np.sort(trace.routing.dense_probs, axis=1)[:, ::-1]
    k = config.active_k
    if k == config.experts:
        return np.inf
    return float(np.min(p_sorted[:, k - 1] - p_sorted[:, k]))


def stable_batch(config, rng, size=4):
    """Draw batches until top-k selection cannot flip under FD nudges."""
    for _ in range(60):
        x = rng.standard_normal((size, config.input_dim))
        y = rng.integers(0, config.classes, size)
        params = init_params(config, rng)
        if selection_margin(params, config, x) > 1e-3:
            return params, x, y
    raise AssertionError("no selection-stable batch found")


def numeric_grads(params, config, x, y):
    grads = {}
    base_sel = forward(params, config, x).routing.selections
    for name in ("w_g", "w_in", "w_out"):
        w = getattr(params, name)
        g = np.zeros_like(w)
        flat = w.reshape(-1)
        out = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            hi = loss_value(params, config, x, y)
            hi_sel = forward(params, config, x).routing.selections
            flat[i] = orig - FD_STEP
            lo = loss_value(params, config, x, y)
            lo_sel = forward(params, config, x).routing.selections
            flat[i] = orig
            assert np.array_equal(hi_sel, base_sel) and np.array_equal(lo_sel, base_sel), \
                "FD perturbation flipped a top-k selection"
            out[i] = (hi - lo) / (2 * FD_STEP)
        grads[name] = g
    return grads


def max_rel_err(analytic, numeric):
    worst = 0.0
    for name in ("w_g", "w_in", "w_out"):
        a = getattr(analytic, name).ravel()
        b = numeric[name].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


class TestGeluDerivative:
    def test_matches_fd(self):
        u = np.linspace(-4, 4, 81)
        fd = (gelu(u + 1e-6)[0] - gelu(u - 1e-6)[0]) / 2e-6
        np.testing.assert_allclose(gelu_grad(u, gelu(u)[1]), fd, atol=1e-7)

    def test_origin(self):
        assert gelu(0.0)[0] == 0.0
        u = np.array([0.0])
        assert gelu_grad(u, gelu(u)[1])[0] == pytest.approx(0.5)

    def test_cube_by_multiplication_matches_power_formula(self):
        u = np.linspace(-8, 8, 200001)
        c, a = np.sqrt(2.0 / np.pi), 0.044715
        reference = 0.5 * u * (1.0 + np.tanh(c * (u + a * u**3)))
        np.testing.assert_allclose(gelu(u)[0], reference, rtol=0, atol=1e-15)


class TestBackwardAgainstFiniteDifferences:
    @pytest.mark.parametrize("reg_kind", ["none", "ortho", "ncl", "dpp"])
    def test_full_model(self, reg_kind):
        config = MoEConfig(reg_kind=reg_kind, aux_weight=0.01, reg_weight=0.1, **SMALL)
        rng = np.random.default_rng(config.seed)
        params, x, y = stable_batch(config, rng)
        trace = forward(params, config, x)
        _, analytic = backward(params, trace, y, config)
        numeric = numeric_grads(params, config, x, y)
        err = max_rel_err(analytic, numeric)
        assert err < REL_TOL, f"reg_kind={reg_kind}: max rel err {err:.2e}"

    def test_zero_w_out_blocks_w_in_gradient(self):
        config = MoEConfig(aux_weight=0.0, reg_weight=0.0, **SMALL)
        rng = np.random.default_rng(11)
        params, x, y = stable_batch(config, rng)
        params.w_out[:] = 0.0
        trace = forward(params, config, x)
        _, grads = backward(params, trace, y, config)
        assert np.max(np.abs(grads.w_out)) > 0
        np.testing.assert_allclose(grads.w_in, 0.0, atol=1e-15)
        np.testing.assert_allclose(grads.w_g, 0.0, atol=1e-15)

    def test_aux_only_gradient(self):
        # with task and reg off the only path is aux -> dense probs -> W_g
        config = MoEConfig(aux_weight=0.05, reg_weight=0.0, **SMALL)
        rng = np.random.default_rng(19)
        params, x, y = stable_batch(config, rng)
        params.w_out[:] = 0.0
        trace = forward(params, config, x)
        _, grads = backward(params, trace, y, config)
        numeric = numeric_grads(params, config, x, y)
        # task term is constant (uniform probs) so FD isolates aux + task jitter
        denom = np.maximum(np.maximum(np.abs(grads.w_g), np.abs(numeric["w_g"])), 1e-6)
        assert np.max(np.abs(grads.w_g - numeric["w_g"]) / denom) < REL_TOL
        assert np.max(np.abs(grads.w_g)) > 0


class TestSeededFuzz:
    """Shapes drawn from a seeded stream, every fourth with k = E."""

    @pytest.mark.parametrize("draw", range(16))
    def test_identities_and_gradients(self, draw):
        gen = stream(2024, "fuzz", draw)
        e = int(gen.integers(2, 7))
        k = e if draw % 4 == 0 else int(gen.integers(1, e + 1))
        c, h, b = (int(v) for v in gen.integers((2, 1, 1), (6, 6, 7)))
        config = MoEConfig(input_dim=5, experts=e, active_k=k, expert_hidden=h, classes=c,
                           batch=b, reg_kind=("none", "ortho", "ncl", "dpp")[draw % 4],
                           seed=draw)
        params, x, y = stable_batch(config, gen, size=b)
        trace = forward(params, config, x)
        np.testing.assert_allclose(trace.gates.sum(axis=1), 1.0, atol=1e-12)
        assert np.sum(mean_routing_probs(trace.routing).probs ** 2) >= 1.0 / e - 1e-12
        assert topk_conditional_entropy(trace.routing) <= np.log(k) + 1e-9
        assert np.isfinite(total_loss(trace, y, config)[0])
        _, grads = backward(params, trace, y, config)
        err = max_rel_err(grads, numeric_grads(params, config, x, y))
        assert err < REL_TOL, f"E={e} k={k} C={c} H={h} B={b} {config.reg_kind}: {err:.2e}"


class TestAdamW:
    def test_first_step_closed_form(self):
        config = MoEConfig(**SMALL)
        rng = np.random.default_rng(1)
        params = init_params(config, rng)
        before = clone_params(params)
        grads = MoEGradients(w_g=rng.standard_normal(params.w_g.shape),
                             w_in=rng.standard_normal(params.w_in.shape),
                             w_out=rng.standard_normal(params.w_out.shape))
        adamw_step(params, grads, config)
        # bias correction makes m_hat = g, v_hat = g^2 on step 1
        assert params.step == 1
        for name in ("w_g", "w_in", "w_out"):
            g = getattr(grads, name)
            decayed = getattr(before, name) * (1.0 - config.lr * WEIGHT_DECAY)
            expected = decayed - config.lr * g / (np.abs(g) + ADAM_EPS)
            np.testing.assert_allclose(getattr(params, name), expected, atol=1e-12)

    def test_decay_shrinks_without_gradient(self):
        config = MoEConfig(**SMALL)
        params = init_params(config, np.random.default_rng(2))
        before = clone_params(params)
        grads = MoEGradients(w_g=np.zeros_like(params.w_g),
                             w_in=np.zeros_like(params.w_in),
                             w_out=np.zeros_like(params.w_out))
        adamw_step(params, grads, config)
        factor = 1.0 - config.lr * WEIGHT_DECAY
        np.testing.assert_allclose(params.w_g, before.w_g * factor, atol=1e-15)
        np.testing.assert_allclose(params.w_out, before.w_out * factor, atol=1e-15)
