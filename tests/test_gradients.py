"""Finite-difference verification of every analytic gradient path."""

import numpy as np
import pytest

from moegeo.infotheory import CategoricalDist, topk_conditional_entropy
from moegeo.moe import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    WEIGHT_DECAY,
    MoEConfig,
    MoEGradients,
    MoEParams,
    _packed,
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


def packed_grads(w_g, w_in, w_out):
    """MoEGradients over a fresh flat buffer holding the three arrays, laid out as backward's."""
    flat, views = _packed([w_g, w_in, w_out])
    return MoEGradients(*views, flat=flat)


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


def full_model_rel_err(reg_kind):
    """Max relative error of backward against central differences on a SMALL batch
    drawn from default_rng(7), with aux and `reg_kind` on."""
    config = MoEConfig(reg_kind=reg_kind, aux_weight=0.01, reg_weight=0.1, **SMALL)
    rng = np.random.default_rng(config.seed)
    params, x, y = stable_batch(config, rng)
    _, analytic = backward(params, forward(params, config, x), y, config)
    return max_rel_err(analytic, numeric_grads(params, config, x, y))


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


def gelu_by_expression(u):
    """The one-expression GELU that the in-place `gelu` replaced, kept as its oracle."""
    c, a = np.sqrt(2.0 / np.pi), 0.044715
    u = np.asarray(u, dtype=float)
    t = np.tanh(c * (u + a * (u * u * u)))
    return 0.5 * u * (1.0 + t), t


def gelu_grad_by_expression(u, t):
    """The one-expression derivative that the in-place `gelu_grad` replaced."""
    c, a = np.sqrt(2.0 / np.pi), 0.044715
    return 0.5 * (1.0 + t) + 0.5 * u * (1.0 - t**2) * c * (1.0 + 3.0 * a * u**2)


def gelu_inputs():
    """Random blocks, |u| >= 20 (tanh saturates), subnormals and signed zeros, 0-d."""
    rng = np.random.default_rng(83)
    yield rng.standard_normal((256, 32))
    yield rng.standard_normal(1001) * 4.0
    big = rng.uniform(20.0, 1e3, 500) * rng.choice([-1.0, 1.0], 500)
    yield np.concatenate([big, [20.0, -20.0, 1e100, -1e100]])
    yield np.array([5e-324, -5e-324, 2.2e-308, -1e-310, 0.0, -0.0])
    yield rng.standard_normal(300) * 1e-160  # the cube underflows to subnormals and zero
    yield rng.standard_normal((3, 4, 5))
    yield np.array(0.7)
    yield np.array(-25.0)


class TestGeluAgainstExpressions:
    def test_bit_for_bit(self):
        for u in gelu_inputs():
            a, t = gelu(u)
            want_a, want_t = gelu_by_expression(u)
            assert type(a) is type(want_a) and type(t) is type(want_t)
            assert np.shape(a) == np.shape(u) and np.shape(t) == np.shape(u)
            assert a.tobytes() == want_a.tobytes() and t.tobytes() == want_t.tobytes()
            g, want_g = gelu_grad(u, t), gelu_grad_by_expression(u, want_t)
            assert type(g) is type(want_g) and g.tobytes() == want_g.tobytes()

    def test_python_scalars(self):
        for u in (0.0, -3.5, 1e-300):
            a, t = gelu(u)
            assert a == gelu_by_expression(u)[0] and t == gelu_by_expression(u)[1]
            assert gelu_grad(u, t) == gelu_grad_by_expression(u, t)

    def test_inputs_are_never_written(self):
        for u in gelu_inputs():
            before = u.tobytes()
            u.setflags(write=False)
            a, t = gelu(u)
            t = np.array(t)
            t.setflags(write=False)
            t_before = t.tobytes()
            gelu_grad(u, t)
            assert u.tobytes() == before and t.tobytes() == t_before

    def test_results_are_fresh_arrays(self):
        u = np.random.default_rng(89).standard_normal((16, 8))
        a, t = gelu(u)
        g = gelu_grad(u, t)
        assert not any(np.shares_memory(x, y) for x, y in
                       ((a, u), (t, u), (a, t), (g, u), (g, t)))


class TestBackwardAgainstFiniteDifferences:
    @pytest.mark.parametrize("reg_kind", ["none", "ortho", "ncl", "dpp"])
    def test_full_model(self, reg_kind):
        err = full_model_rel_err(reg_kind)
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


class TestRenormalizedGatesHideUnselectedExperts:
    """The router's task gradient through renormalized top-k gates w = p_S / s.

    Its gradient on logit j is p_j (d_j - <d, p>), where d is zero off the
    selection and <d, p> = s sum_m w_m d_m = 0, so every unselected logit gets
    zero, up to rounding, and at k = 1 (w = 1) the selected one does too. The
    inputs are rows of the identity, so column i of dL/dw_g is token i's
    logit gradient.
    """

    @staticmethod
    def router_gradient(k):
        config = MoEConfig(input_dim=100, experts=16, active_k=k, expert_hidden=32, classes=10,
                           batch=64, aux_weight=0.0, reg_kind="none", seed=1)
        params = init_params(config, stream(config.seed, "init", 0))
        x = np.eye(config.batch, config.input_dim)
        y = stream(config.seed, "labels").integers(0, config.classes, config.batch)
        trace = forward(params, config, x)
        _, grads = backward(params, trace, y, config)
        assert not np.any(grads.w_g[:, config.batch:])
        return grads.w_g[:, :config.batch].T, trace.routing.selections

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_unselected_logits_get_no_task_gradient(self, k):
        per_token, selections = self.router_gradient(k)
        unselected = np.ones(per_token.shape, dtype=bool)
        unselected[np.arange(len(per_token))[:, None], selections] = False
        largest = np.abs(per_token).max()
        assert np.abs(per_token[unselected]).max() <= 1e-15 * largest
        if k > 1:
            assert largest > 0.0

    def test_router_gradient_is_exactly_zero_at_k_1(self):
        per_token, _ = self.router_gradient(1)
        assert not np.any(per_token)


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
        np.testing.assert_allclose(trace.routing.gates.sum(axis=1), 1.0, atol=1e-12)
        assert np.sum(CategoricalDist(trace.routing.marginal).probs ** 2) >= 1.0 / e - 1e-12
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
        grads = packed_grads(rng.standard_normal(params.w_g.shape),
                             rng.standard_normal(params.w_in.shape),
                             rng.standard_normal(params.w_out.shape))
        adamw_step(params, grads, config)
        # bias correction makes m_hat = g, v_hat = g^2 on step 1
        assert params.step == 1
        for name in ("w_g", "w_in", "w_out"):
            g = getattr(grads, name)
            decayed = getattr(before, name) * (1.0 - config.lr * WEIGHT_DECAY)
            expected = decayed - config.lr * g / (np.abs(g) + ADAM_EPS)
            np.testing.assert_allclose(getattr(params, name), expected, atol=1e-12)

    def test_four_hundred_steps_match_per_tensor_update(self):
        # a transcription of the update with one named (m, v) pair per tensor,
        # as MoEParams once declared them: the bits must not move, also past
        # t = 356, where 1 - b1**t rounds to 1.0 and the flat update skips m / bc1
        config = MoEConfig(**SMALL)
        rng = np.random.default_rng(3)
        params = init_params(config, rng)
        names = ("w_g", "w_in", "w_out")
        w = {name: getattr(params, name).copy() for name in names}
        m = {name: np.zeros(w[name].shape) for name in names}
        v = {name: np.zeros(w[name].shape) for name in names}
        assert 1.0 - ADAM_BETA1**355 < 1.0 and 1.0 - ADAM_BETA1**356 == 1.0
        for t in range(1, 401):
            grads = packed_grads(*(rng.standard_normal(w[name].shape) for name in names))
            adamw_step(params, grads, config)
            bc1 = 1.0 - ADAM_BETA1**t
            bc2 = 1.0 - ADAM_BETA2**t
            for name in names:
                g = getattr(grads, name)
                m[name] *= ADAM_BETA1
                m[name] += (1.0 - ADAM_BETA1) * g
                v[name] *= ADAM_BETA2
                v[name] += (1.0 - ADAM_BETA2) * g**2
                w[name] -= config.lr * WEIGHT_DECAY * w[name]
                w[name] -= config.lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)
        assert params.step == 400
        for name in names:
            assert getattr(params, name).tobytes() == w[name].tobytes()
        for buf, per_tensor in zip(params.flat_moments, (m, v)):
            assert buf.tobytes() == b"".join(per_tensor[name].tobytes() for name in names)

    def test_separate_arrays_are_packed_into_one_buffer(self):
        config = MoEConfig(**SMALL)
        params = init_params(config, np.random.default_rng(4))
        arrays = [np.full(getattr(params, name).shape, float(i))
                  for i, name in enumerate(("w_g", "w_in", "w_out"))]
        flat, views = _packed(arrays)
        assert flat.tobytes() == b"".join(a.tobytes() for a in arrays)
        assert flat.ctypes.data % 64 == 0
        for view, a in zip(views, arrays):
            assert np.shares_memory(view, flat) and not np.shares_memory(view, a)
            assert view.tobytes() == a.tobytes()

    def test_weights_and_moments_are_views_of_flat_buffers(self):
        params = init_params(MoEConfig(**SMALL), np.random.default_rng(5))
        m, v = params.flat_moments
        for name in ("w_g", "w_in", "w_out"):
            assert np.shares_memory(getattr(params, name), params.flat)
        assert params.flat.size == params.w_g.size + params.w_in.size + params.w_out.size
        assert m.size == v.size == params.flat.size and not np.any(m) and not np.any(v)
        for buf in (params.flat, m, v, *params.scratch):
            assert buf.ctypes.data % 64 == 0  # each buffer starts a cache line

    def test_decay_shrinks_without_gradient(self):
        config = MoEConfig(**SMALL)
        params = init_params(config, np.random.default_rng(2))
        before = clone_params(params)
        grads = packed_grads(np.zeros_like(params.w_g), np.zeros_like(params.w_in),
                             np.zeros_like(params.w_out))
        adamw_step(params, grads, config)
        factor = 1.0 - config.lr * WEIGHT_DECAY
        np.testing.assert_allclose(params.w_g, before.w_g * factor, atol=1e-15)
        np.testing.assert_allclose(params.w_out, before.w_out * factor, atol=1e-15)
