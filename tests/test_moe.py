"""Forward semantics, losses, metrics, and the training loop."""

import dataclasses

import numpy as np
import pytest

from moegeo import moe
from moegeo.core import softmax_rows, topk_indices
from moegeo.dictgen import synthetic_classification
from moegeo.errors import (
    DegenerateProbeError,
    IdentityViolationError,
    InvalidConfigError,
    InvalidShapeError,
    NonFiniteError,
)
from moegeo.infotheory import (
    CategoricalDist,
    RoutingBatch,
    aux_loss,
    collision_mass,
    entropy,
    kl_sparse_project,
    topk_conditional_entropy,
)
from moegeo.moe import (
    ForwardTrace,
    MoEConfig,
    MoEParams,
    TrainReport,
    _reg_output_grad,
    ambiguity_decomposition,
    backward,
    cross_validate,
    dense_expert_outputs,
    effective_rank,
    expert_coherence,
    forward,
    gelu,
    gelu_grad,
    init_params,
    ncl_loss,
    ortho_loss,
    softdpp_loss,
    specialization_heatmap,
    stratified_folds,
    total_loss,
    train_fold,
)
from moegeo.rng import stream

QUICK = dict(input_dim=16, experts=4, active_k=2, expert_hidden=8, classes=5,
             batch=32, epochs=3, seed=5)


def softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def make_trace(outputs):
    """Wrap hand-picked expert output vectors in a minimal valid trace with equal gates."""
    outputs = np.asarray(outputs, dtype=float)
    b, k, c = outputs.shape
    e = k + 1
    routing = RoutingBatch(dense_probs=np.full((b, e), 1.0 / e),
                           selections=np.tile(np.arange(k), (b, 1)))
    logits = np.einsum("bk,bkc->bc", routing.gates, outputs)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return ForwardTrace(x=np.zeros((b, 2)), routing=routing,
                        expert_outputs=outputs, logits=logits,
                        log_probs=log_probs, class_probs=np.exp(log_probs))


class TestForward:
    def test_hand_computed_gates(self):
        config = MoEConfig(input_dim=4, experts=4, active_k=2, expert_hidden=3,
                           classes=3, seed=1)
        params = init_params(config, np.random.default_rng(0))
        params.w_g[:] = 0.0
        params.w_g[0, 0] = 2.0
        params.w_g[1, 0] = 1.0
        trace = forward(params, config, np.array([[1.0, 0, 0, 0]]))
        # h = (2, 1, 0, 0): top-2 gates renormalize to e/(e+1), 1/(e+1)
        assert tuple(trace.routing.selections[0]) == (0, 1)
        np.testing.assert_allclose(trace.routing.gates[0], [0.73106, 0.26894], atol=1e-5)

    def test_k_equals_e_gates_are_full_softmax(self):
        config = MoEConfig(input_dim=6, experts=4, active_k=4, expert_hidden=5,
                           classes=3, seed=2)
        rng = np.random.default_rng(2)
        params = init_params(config, rng)
        trace = forward(params, config, rng.standard_normal((7, 6)))
        np.testing.assert_allclose(trace.routing.gates, trace.routing.dense_probs, atol=1e-12)

    def test_zero_input_gives_uniform_probs(self):
        config = MoEConfig(input_dim=5, experts=3, active_k=2, expert_hidden=4,
                           classes=6, seed=3)
        params = init_params(config, np.random.default_rng(3))
        trace = forward(params, config, np.zeros((2, 5)))
        np.testing.assert_allclose(trace.expert_outputs, 0.0, atol=1e-15)
        np.testing.assert_allclose(trace.logits, 0.0, atol=1e-15)
        np.testing.assert_allclose(trace.class_probs, 1.0 / 6, atol=1e-12)

    def test_ties_select_lowest_indices(self):
        config = MoEConfig(input_dim=4, experts=4, active_k=2, expert_hidden=3,
                           classes=3, seed=4)
        params = init_params(config, np.random.default_rng(4))
        params.w_g[:] = 0.0  # all router logits equal
        trace = forward(params, config, np.ones((3, 4)))
        assert np.all(trace.routing.selections == [0, 1])

    def test_rows_are_sparse_kl_projections(self):
        # top-k gating is the KL projection of the router's law onto k-sparse
        # laws: support, gates and -log(kept mass) match it bit for bit
        for k in range(1, 5):
            config = MoEConfig(**{**QUICK, "active_k": k})
            rng = np.random.default_rng(40 + k)
            params = init_params(config, rng)
            trace = forward(params, config, 3.0 * rng.standard_normal((33, 16)))
            for row, p in enumerate(trace.routing.dense_probs):
                q, support, kl = kl_sparse_project(CategoricalDist(p), k)
                assert tuple(trace.routing.selections[row].tolist()) == support
                assert trace.routing.gates[row].tobytes() == q.probs[list(support)].tobytes()
                assert -np.log(trace.routing.kept_mass[row, 0]) == kl

    def test_gate_rows_sum_to_one(self):
        config = MoEConfig(**QUICK)
        rng = np.random.default_rng(6)
        params = init_params(config, rng)
        trace = forward(params, config, rng.standard_normal((40, 16)))
        np.testing.assert_allclose(trace.routing.gates.sum(axis=1), 1.0, atol=1e-12)

    def test_overflowing_router_is_a_numerical_abort(self):
        # NaN routing probabilities must abort as NonFiniteError (exit 3),
        # not be rejected by RoutingBatch as a malformed batch (exit 2)
        config = MoEConfig(**QUICK)
        params = init_params(config, np.random.default_rng(0))
        params.w_g[:] = 1e308
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
            forward(params, config, np.full((3, 16), 10.0))

    def test_rejects_bad_shape(self):
        config = MoEConfig(**QUICK)
        params = init_params(config, np.random.default_rng(0))
        with pytest.raises(InvalidShapeError):
            forward(params, config, np.zeros((4, 7)))


def per_expert_forward(params, config, x):
    """Reference: forward as one loop over experts, one GELU call per expert."""
    k = config.active_k
    p = softmax_rows(x @ params.w_g.T)
    sel = topk_indices(p, k)
    active = np.take_along_axis(p, sel, axis=1)
    gates = active / active.sum(axis=1, keepdims=True)
    outputs = np.zeros((x.shape[0], k, config.classes))
    cache = []
    for e in range(config.experts):
        rows, slots = np.nonzero(sel == e)
        if rows.size == 0:
            cache.append(None)
            continue
        u = x[rows] @ params.w_in[e].T
        a = gelu(u)[0]
        outputs[rows, slots] = a @ params.w_out[e].T
        cache.append((rows, slots, u, a))
    logits = np.einsum("bk,bkc->bc", gates, outputs)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return outputs, logits, np.exp(log_probs), cache


def per_expert_backward(params, trace, labels, config, cache):
    """Reference: backward with a per-expert loop that recomputes gelu_grad from u."""
    b = trace.batch_size
    onehot = np.zeros((b, config.classes))
    onehot[np.arange(b), labels] = 1.0
    g_logits = (trace.class_probs - onehot) / b
    d_outputs = trace.routing.gates[..., None] * g_logits[:, None, :]
    d_outputs = d_outputs + _reg_output_grad(trace, config)[1]
    d_gates = np.einsum("bc,bkc->bk", g_logits, trace.expert_outputs)
    p, sel = trace.routing.dense_probs, trace.routing.selections
    active = np.take_along_axis(p, sel, axis=1)
    mass = active.sum(axis=1, keepdims=True)
    d_active = (d_gates - (d_gates * trace.routing.gates).sum(axis=1, keepdims=True)) / mass
    d_probs = np.zeros_like(p)
    np.put_along_axis(d_probs, sel, d_active, axis=1)
    if config.aux_weight > 0:
        freqs = trace.routing.frequencies
        d_probs = d_probs + config.aux_weight * config.experts * freqs[None, :] / b
    dot = np.einsum("be,be->b", d_probs, p)[:, None]
    d_w_g = (p * (d_probs - dot)).T @ trace.x
    d_w_in = np.zeros_like(params.w_in)
    d_w_out = np.zeros_like(params.w_out)
    for e, entry in enumerate(cache):
        if entry is None:
            continue
        rows, slots, u, a = entry
        gy = d_outputs[rows, slots]
        d_w_out[e] = gy.T @ a
        du = gelu_grad(u, gelu(u)[1]) * (gy @ params.w_out[e])
        d_w_in[e] = du.T @ trace.x[rows]
    return d_w_g, d_w_in, d_w_out


class TestGroupedAgainstPerExpertLoops:
    """forward and backward group rows by expert; the per-expert loops are the oracle."""

    CASES = {
        "default": dict(experts=5, active_k=2, batch=64, reg_kind="none"),
        "dead-expert": dict(experts=5, active_k=2, batch=64, reg_kind="ortho"),
        "k1": dict(experts=4, active_k=1, batch=33, reg_kind="ncl"),
        "k-equals-e": dict(experts=4, active_k=4, batch=20, reg_kind="dpp"),
        "one-row": dict(experts=6, active_k=3, batch=1, reg_kind="none"),
        "eval-chunk": dict(experts=16, active_k=2, batch=512, reg_kind="ncl",
                           input_dim=100, expert_hidden=32, classes=10),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("draw", range(3))
    def test_bit_identical(self, case, draw, monkeypatch):
        shape = dict(input_dim=7, expert_hidden=6, classes=4)
        shape.update(self.CASES[case])
        b = shape.pop("batch")
        config = MoEConfig(seed=3, **shape)
        gen = stream(2025, "grouped-oracle", case, draw)
        params = init_params(config, gen)
        x = gen.standard_normal((b, config.input_dim))
        y = gen.integers(0, config.classes, size=b)
        if case == "dead-expert":
            x = np.abs(x)
            params.w_g[3] = -10.0  # expert 3 trails every other router logit
        outputs, logits, class_probs, cache = per_expert_forward(params, config, x)
        if case == "dead-expert":
            assert cache[3] is None

        trace = forward(params, config, x)
        np.testing.assert_array_equal(trace.expert_outputs, outputs)
        np.testing.assert_array_equal(trace.logits, logits)
        np.testing.assert_array_equal(trace.class_probs, class_probs)
        # backward's gradient buffer starts as NaN, so an entry it leaves unwritten shows
        make_buffer = moe._flat_buffer

        def nan_buffer(size):
            buf = make_buffer(size)
            buf.fill(np.nan)
            return buf

        monkeypatch.setattr(moe, "_flat_buffer", nan_buffer)
        _, grads = backward(params, trace, y, config)
        d_w_g, d_w_in, d_w_out = per_expert_backward(params, trace, y, config, cache)
        np.testing.assert_array_equal(grads.w_g, d_w_g)
        np.testing.assert_array_equal(grads.w_in, d_w_in)
        np.testing.assert_array_equal(grads.w_out, d_w_out)

    def test_grouping_keeps_rows_ascending_per_expert(self):
        config = MoEConfig(input_dim=7, experts=5, active_k=3, expert_hidden=6,
                           classes=4, seed=3)
        gen = stream(2025, "grouped-oracle", "order")
        params = init_params(config, gen)
        trace = forward(params, config, gen.standard_normal((50, 7)))
        rows, slots = trace.expert_cache[:2]
        bounds = np.concatenate(([0], np.cumsum(trace.routing.load)))
        sel = trace.routing.selections
        for e in range(config.experts):
            want_rows, want_slots = np.nonzero(sel == e)
            np.testing.assert_array_equal(rows[bounds[e]:bounds[e + 1]], want_rows)
            np.testing.assert_array_equal(slots[bounds[e]:bounds[e + 1]], want_slots)


class TestOrthoLoss:
    def test_orthogonal_pair_is_zero(self):
        out = np.array([[[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]])
        assert ortho_loss(make_trace(out))[0] == pytest.approx(0.0, abs=1e-15)

    def test_parallel_pair_counts_both_ordered_pairs(self):
        out = np.array([[[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]])
        assert ortho_loss(make_trace(out))[0] == pytest.approx(2.0, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            b, k, c = int(rng.integers(1, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 6))
            out = rng.standard_normal((b, k, c))
            expected = 0.0
            for s in range(b):
                for i in range(k):
                    for j in range(k):
                        if i == j:
                            continue
                        ni = out[s, i] / np.linalg.norm(out[s, i])
                        nj = out[s, j] / np.linalg.norm(out[s, j])
                        expected += float(ni @ nj) ** 2
            expected /= b
            assert ortho_loss(make_trace(out))[0] == pytest.approx(expected, abs=1e-12)

    def test_zero_norm_vector_contributes_nothing(self):
        out = np.array([[[1.0, 0.0], [0.0, 0.0]]])
        assert ortho_loss(make_trace(out))[0] == pytest.approx(0.0, abs=1e-15)


class TestSoftDppLoss:
    def test_orthonormal_pair(self):
        eps = 1e-4
        out = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
        expected = -2.0 * np.log(1.0 + eps)
        assert softdpp_loss(make_trace(out), eps)[0] == pytest.approx(expected, abs=1e-12)

    def test_parallel_pair(self):
        eps = 1e-4
        out = np.array([[[1.0, 1.0], [3.0, 3.0]]])
        expected = -np.log(eps * (2.0 + eps))
        assert softdpp_loss(make_trace(out), eps)[0] == pytest.approx(expected, abs=1e-9)

    def test_batch_of_identical_samples(self):
        rng = np.random.default_rng(8)
        row = rng.standard_normal((1, 3, 4))
        single = softdpp_loss(make_trace(row), 1e-4)[0]
        batch = softdpp_loss(make_trace(np.tile(row, (6, 1, 1))), 1e-4)[0]
        assert batch == pytest.approx(single, abs=1e-12)

    def test_batched_loss_and_gradient_match_per_sample_loops(self):
        # same arithmetic in the same order, so the bits must agree exactly
        rng = np.random.default_rng(12)
        eps = 1e-4
        config = MoEConfig(experts=5, active_k=3, reg_kind="dpp", dpp_epsilon=eps)
        for _ in range(10):
            out = rng.standard_normal((int(rng.integers(1, 40)), 3, 6))
            b = out.shape[0]
            n = out / np.linalg.norm(out, axis=2, keepdims=True)
            g = np.einsum("bic,bjc->bij", n, n) + eps * np.eye(3)
            total = 0.0
            for s in range(b):
                total += 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(g[s])))))
            assert softdpp_loss(make_trace(out), eps)[0] == -total / b
            per_sample = [_reg_output_grad(make_trace(out[s:s + 1]), config)[1] for s in range(b)]
            np.testing.assert_array_equal(_reg_output_grad(make_trace(out), config)[1],
                                          np.concatenate(per_sample) / b)

    def test_epsilon_must_be_positive(self):
        out = np.ones((1, 2, 2))
        with pytest.raises(InvalidConfigError):
            softdpp_loss(make_trace(out), 0.0)


class TestNclLoss:
    def test_identical_outputs_zero(self):
        out = np.tile(np.array([[1.0, 2.0, 0.5]]), (3, 1)).reshape(1, 3, 3)
        assert ncl_loss(make_trace(out))[0] == pytest.approx(0.0, abs=1e-15)

    def test_two_expert_algebra(self):
        out = np.array([[[2.0, 0.0], [0.0, 1.0]]])
        p1, p2 = softmax(out[0, 0]), softmax(out[0, 1])
        expected = -2.0 * float(np.sum(((p1 - p2) / 2.0) ** 2))
        assert ncl_loss(make_trace(out))[0] == pytest.approx(expected, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            b, k, c = int(rng.integers(1, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 6))
            out = rng.standard_normal((b, k, c))
            expected = 0.0
            for s in range(b):
                pis = np.array([softmax(out[s, i]) for i in range(k)])
                d = pis - pis.mean(axis=0)
                for i in range(k):
                    for j in range(k):
                        if i != j:
                            expected += float(d[i] @ d[j])
            expected /= b
            assert ncl_loss(make_trace(out))[0] == pytest.approx(expected, abs=1e-12)


class TestTotalLoss:
    def test_reg_none_component_is_zero(self):
        config = MoEConfig(reg_kind="none", **QUICK)
        rng = np.random.default_rng(10)
        params = init_params(config, rng)
        trace = forward(params, config, rng.standard_normal((8, 16)))
        _, comps = total_loss(trace, rng.integers(0, 5, 8), config)
        assert comps.reg == 0.0

    def test_aux_component_matches_infotheory(self):
        config = MoEConfig(aux_weight=0.01, **QUICK)
        rng = np.random.default_rng(11)
        params = init_params(config, rng)
        trace = forward(params, config, rng.standard_normal((12, 16)))
        _, comps = total_loss(trace, rng.integers(0, 5, 12), config)
        batch = RoutingBatch(dense_probs=trace.routing.dense_probs,
                             selections=trace.routing.selections)
        assert comps.aux == pytest.approx(0.01 * aux_loss(batch), abs=1e-15)

    def test_confident_correct_predictions(self):
        out = np.zeros((3, 2, 4))
        out[:, :, 1] = 40.0  # both experts shout class 1
        trace = make_trace(out)
        _, comps = total_loss(trace, np.array([1, 1, 1]),
                              MoEConfig(input_dim=2, experts=3, active_k=2,
                                        expert_hidden=2, classes=4, aux_weight=0.0))
        assert comps.task <= 1e-6

    def test_total_is_sum(self):
        config = MoEConfig(reg_kind="ortho", **QUICK)
        rng = np.random.default_rng(12)
        params = init_params(config, rng)
        trace = forward(params, config, rng.standard_normal((8, 16)))
        value, comps = total_loss(trace, rng.integers(0, 5, 8), config)
        assert value == pytest.approx(comps.task + comps.aux + comps.reg, abs=1e-15)


class TestOneRegularizerPassPerStep:
    @pytest.mark.parametrize("reg_kind", ["ortho", "ncl", "dpp"])
    def test_step_normalizes_or_softmaxes_outputs_once(self, reg_kind, monkeypatch):
        config = MoEConfig(reg_kind=reg_kind, **QUICK)
        gen = stream(7, "one-pass", reg_kind)
        params = init_params(config, gen)
        trace = forward(params, config, gen.standard_normal((16, 16)))
        y = gen.integers(0, 5, 16)
        calls = []
        normalize, softmax_of = moe._normalized_outputs, moe.softmax_rows

        def counting_normalize(t):
            calls.append("normalize")
            return normalize(t)

        def counting_softmax(z):
            if z is trace.expert_outputs:
                calls.append("softmax")
            return softmax_of(z)

        monkeypatch.setattr(moe, "_normalized_outputs", counting_normalize)
        monkeypatch.setattr(moe, "softmax_rows", counting_softmax)
        comps, _ = backward(params, trace, y, config)
        assert calls == ["softmax" if reg_kind == "ncl" else "normalize"]
        assert comps.total == total_loss(trace, y, config)[0]


class TestEffectiveRank:
    def _params(self, w_in, w_out):
        e, h, d = w_in.shape
        return MoEParams(w_g=np.zeros((e, d)), w_in=w_in, w_out=w_out)

    def test_identical_experts_rank_one(self):
        rng = np.random.default_rng(13)
        w_in = np.tile(rng.standard_normal((1, 6, 5)), (4, 1, 1))
        w_out = np.tile(rng.standard_normal((1, 3, 6)), (4, 1, 1))
        params = self._params(w_in, w_out)
        m = dense_expert_outputs(params, rng.standard_normal((20, 5)))
        assert effective_rank(m) == pytest.approx(1.0, abs=1e-6)
        assert expert_coherence(m) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_experts_rank_e(self):
        e = c = 4
        h, d = 3, 5
        rng = np.random.default_rng(14)
        w_in = np.tile(rng.standard_normal((1, h, d)), (e, 1, 1))
        w_out = np.zeros((e, c, h))
        v = rng.standard_normal(h)
        for i in range(e):
            w_out[i, i] = v  # expert i emits only class-slot i
        params = self._params(w_in, w_out)
        m = dense_expert_outputs(params, rng.standard_normal((30, d)))
        assert effective_rank(m) == pytest.approx(e, abs=1e-6)
        assert expert_coherence(m) == pytest.approx(0.0, abs=1e-12)

    def test_random_init_in_range(self):
        config = MoEConfig(**QUICK)
        rng = np.random.default_rng(15)
        params = init_params(config, rng)
        r = effective_rank(dense_expert_outputs(params, rng.standard_normal((50, 16))))
        assert 1.0 <= r <= config.experts

    def test_degenerate_probe(self):
        params = self._params(np.zeros((3, 4, 5)), np.zeros((3, 2, 4)))
        with pytest.raises(DegenerateProbeError):
            effective_rank(dense_expert_outputs(params, np.ones((10, 5))))


class TestAmbiguity:
    def test_symmetric_scalar_pair(self):
        assert ambiguity_decomposition(np.array([[1.0], [3.0]]), np.array([2.0])) == (0.0, 1.0, 1.0, 0.0)

    def test_all_equal_target(self):
        y = np.tile(np.array([[0.5, -1.0]]), (3, 1))
        assert ambiguity_decomposition(y, np.array([0.5, -1.0])) == (0.0, 0.0, 0.0, 0.0)

    def test_identity_holds_for_random_vectors(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            y = rng.standard_normal((4, 6))
            t = rng.standard_normal(6)
            ens, mean_ind, amb, gap = ambiguity_decomposition(y, t)
            assert gap <= 1e-10
            assert ens <= mean_ind + 1e-12  # ambiguity is nonnegative
            assert amb >= -1e-12

    def large_output_model(self):
        config = MoEConfig(input_dim=8, experts=4, active_k=2, expert_hidden=6, classes=5, seed=1)
        gen = stream(1, "t")
        params = init_params(config, gen)
        params.w_out *= 1000
        return params, config, gen.standard_normal((64, 8)), gen.integers(0, 5, size=64)

    def test_audit_bound_scales_with_output_size(self):
        # outputs of order 1e3 leave rounding gaps above 1e-10 in the exact identity
        params, config, x, y = self.large_output_model()
        assert moe._eval_metrics(params, config, x, y)["test_acc"] >= 0.0

    def test_audit_still_catches_a_relative_violation(self, monkeypatch):
        params, config, x, y = self.large_output_model()
        monkeypatch.setattr(moe, "ambiguity_decomposition", lambda y, t: (0.0, 1e6, 0.0, 1e-3))
        with pytest.raises(IdentityViolationError, match="ambiguity identity violated"):
            moe._eval_metrics(params, config, x, y)


def heatmap_of(params, config, x, y):
    sel = forward(params, config, x).routing.selections
    return specialization_heatmap(sel, y, config.experts, config.classes)


def heatmap_by_rows(params, config, features, labels):
    """The trainer's former second pass over the test split, one row at a time."""
    labels = np.asarray(labels)
    heat = np.zeros((config.experts, config.classes))
    counts = np.bincount(labels, minlength=config.classes).astype(float)
    for start in range(0, len(labels), 512):
        trace = forward(params, config, features[start:start + 512])
        batch_labels = labels[start:start + 512]
        for row in range(trace.batch_size):
            heat[trace.routing.selections[row], batch_labels[row]] += 1.0
    nonzero = counts > 0
    heat[:, nonzero] /= counts[nonzero]
    return heat


class TestHeatmap:
    def test_k_equals_e_all_ones(self):
        config = MoEConfig(input_dim=6, experts=3, active_k=3, expert_hidden=4,
                           classes=4, seed=17)
        rng = np.random.default_rng(17)
        params = init_params(config, rng)
        x = rng.standard_normal((40, 6))
        y = rng.integers(0, 4, 40)
        heat = heatmap_of(params, config, x, y)
        present = np.unique(y)
        np.testing.assert_allclose(heat[:, present], 1.0, atol=1e-12)

    def test_single_class_column(self):
        config = MoEConfig(input_dim=6, experts=5, active_k=2, expert_hidden=4,
                           classes=4, seed=18)
        rng = np.random.default_rng(18)
        params = init_params(config, rng)
        x = rng.standard_normal((30, 6))
        y = np.full(30, 2)
        heat = heatmap_of(params, config, x, y)
        assert heat[:, 2].sum() == pytest.approx(2.0, abs=1e-12)
        assert np.all(heat[:, [0, 1, 3]] == 0.0)

    # k = 1, k = E and a test split of three evaluation chunks
    @pytest.mark.parametrize("k, epochs", [(1, 2), (2, 0), (4, 1)])
    def test_train_fold_heatmap_matches_row_loop(self, monkeypatch, k, epochs):
        data = synthetic_classification(samples=1400, features=16, informative=8,
                                        classes=5, class_sep=1.2, seed=21)
        x, y = data.features, data.labels
        config = MoEConfig(input_dim=16, experts=4, active_k=k, expert_hidden=8,
                           classes=5, batch=64, epochs=epochs, seed=5)
        made = []  # train_fold updates its params in place: this ends as the final model

        def capture(c, gen):
            made.append(init_params(c, gen))
            return made[-1]

        monkeypatch.setattr(moe, "init_params", capture)
        report = train_fold(config, (x[:300], y[:300]), (x[300:], y[300:]))
        np.testing.assert_array_equal(report.heatmap,
                                      heatmap_by_rows(made[0], config, x[300:], y[300:]))

    def test_columns_sum_to_k(self):
        config = MoEConfig(**QUICK)
        rng = np.random.default_rng(19)
        params = init_params(config, rng)
        x = rng.standard_normal((100, 16))
        y = rng.integers(0, 5, 100)
        heat = heatmap_of(params, config, x, y)
        np.testing.assert_allclose(heat.sum(axis=0), 2.0, atol=1e-9)


def eval_metrics_by_vstack(params, config, test_x, test_y):
    """The `_eval_metrics` body that stacked every chunk's routing into a second
    RoutingBatch, one chunk or many, kept as its oracle."""
    correct = 0
    probs_chunks, sel_chunks = [], []
    for start in range(0, len(test_y), moe._EVAL_CHUNK):
        trace = forward(params, config, test_x[start:start + moe._EVAL_CHUNK])
        pred = np.argmax(trace.logits, axis=1)
        correct += int(np.sum(pred == test_y[start:start + moe._EVAL_CHUNK]))
        probs_chunks.append(trace.routing.dense_probs)
        sel_chunks.append(trace.routing.selections)
    batch = RoutingBatch(dense_probs=np.vstack(probs_chunks),
                         selections=np.vstack(sel_chunks))
    p_bar = CategoricalDist(batch.marginal)
    return {
        "test_acc": correct / len(test_y),
        "marg_entropy": entropy(p_bar.probs),
        "cond_entropy": topk_conditional_entropy(batch),
        "collision_mass": collision_mass(p_bar),
        "selections": batch.selections,
    }


class TestEvalMetrics:
    """_eval_metrics holds a one-chunk split's routing and stacks a longer one once."""

    @staticmethod
    def split(rows):
        config = MoEConfig(seed=42)
        gen = np.random.default_rng(rows)
        params = init_params(config, gen)
        x = gen.standard_normal((rows, config.input_dim))
        return params, config, x, gen.integers(0, config.classes, rows)

    @pytest.mark.parametrize("rows, batches", [(400, 1), (1100, 4)])
    def test_routing_batches_built(self, monkeypatch, rows, batches):
        params, config, x, y = self.split(rows)
        built = []
        post_init = RoutingBatch.__post_init__

        def counted(batch):
            built.append(batch)
            post_init(batch)

        monkeypatch.setattr(RoutingBatch, "__post_init__", counted)
        moe._eval_metrics(params, config, x, y)
        # one per forward chunk, and for several chunks the stacked one
        assert len(built) == batches

    @pytest.mark.parametrize("rows", [400, 1100, 512, 513])
    def test_matches_the_restacking_body(self, rows):
        params, config, x, y = self.split(rows)
        got = moe._eval_metrics(params, config, x, y)
        want = eval_metrics_by_vstack(params, config, x, y)
        assert got.keys() == want.keys()
        for name in ("test_acc", "marg_entropy", "cond_entropy", "collision_mass"):
            assert float(got[name]).hex() == float(want[name]).hex(), name
        assert got["selections"].dtype == want["selections"].dtype
        assert got["selections"].tobytes() == want["selections"].tobytes()
        assert not got["selections"].flags.writeable


def quick_dataset():
    return synthetic_classification(samples=300, features=16, informative=8,
                                    classes=5, class_sep=1.2, seed=21)


class TestTrainFold:
    def test_epochs_zero_untrained(self):
        data = quick_dataset()
        config = MoEConfig(input_dim=16, experts=4, active_k=2, expert_hidden=8,
                           classes=5, batch=32, epochs=0, seed=5)
        report = train_fold(config, (data.features[:240], data.labels[:240]),
                            (data.features[240:], data.labels[240:]))
        assert len(report.epoch) == 1
        assert report.epoch[0] == 0
        # 5 balanced classes: untrained accuracy should hover near 0.2
        assert 0.0 <= report.final_accuracy <= 0.45

    def test_training_learns(self):
        data = quick_dataset()
        config = MoEConfig(input_dim=16, experts=4, active_k=2, expert_hidden=8,
                           classes=5, batch=32, epochs=8, lr=3e-3, seed=5)
        report = train_fold(config, (data.features[:240], data.labels[:240]),
                            (data.features[240:], data.labels[240:]))
        assert report.final_accuracy > report.test_acc[0] + 0.1
        assert report.loss_task[-1] < report.loss_task[0]
        assert len(report.epoch) == 9

    def test_deterministic(self):
        data = quick_dataset()
        config = MoEConfig(input_dim=16, experts=4, active_k=2, expert_hidden=8,
                           classes=5, batch=32, epochs=2, seed=9)
        split = ((data.features[:240], data.labels[:240]),
                 (data.features[240:], data.labels[240:]))
        r1 = train_fold(config, *split, fold=3)
        r2 = train_fold(config, *split, fold=3)
        np.testing.assert_array_equal(r1.test_acc, r2.test_acc)
        np.testing.assert_array_equal(r1.loss_task, r2.loss_task)
        np.testing.assert_array_equal(r1.heatmap, r2.heatmap)

    def test_report_holds_one_frozen_array_per_series(self):
        data = quick_dataset()
        config = MoEConfig(input_dim=16, experts=4, active_k=2, expert_hidden=8,
                           classes=5, batch=32, epochs=2, seed=9)
        report = train_fold(config, (data.features[:240], data.labels[:240]),
                            (data.features[240:], data.labels[240:]))
        series = [f.name for f in dataclasses.fields(TrainReport)
                  if f.name not in ("fold", "config", "heatmap")]
        for name in series:
            arr = getattr(report, name)
            assert isinstance(arr, np.ndarray) and not arr.flags.writeable
            assert arr.shape == (3,)
            assert arr.dtype == (np.int64 if name == "epoch" else np.float64)
        np.testing.assert_array_equal(report.epoch, [0, 1, 2])

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_empty_split_rejected(self, empty):
        config = MoEConfig(input_dim=5, experts=4, active_k=2, expert_hidden=4,
                           classes=3, epochs=1, batch=8)
        gen = np.random.default_rng(0)
        full = (gen.standard_normal((12, 5)), np.arange(12) % 3)
        none = (np.zeros((0, 5)), np.zeros(0, dtype=int))
        splits = (none, full) if empty == "train" else (full, none)
        with pytest.raises(InvalidShapeError, match=f"{empty} split is empty"):
            train_fold(config, *splits)

    def test_fold_index_changes_run(self):
        data = quick_dataset()
        config = MoEConfig(input_dim=16, experts=4, active_k=2, expert_hidden=8,
                           classes=5, batch=32, epochs=1, seed=9)
        split = ((data.features[:240], data.labels[:240]),
                 (data.features[240:], data.labels[240:]))
        r1 = train_fold(config, *split, fold=0)
        r2 = train_fold(config, *split, fold=1)
        assert not np.array_equal(r1.loss_task, r2.loss_task)


class TestCrossValidate:
    def test_fold_structure(self):
        data = quick_dataset()
        config = MoEConfig(input_dim=16, experts=4, active_k=2, expert_hidden=8,
                           classes=5, batch=32, epochs=1, seed=13)
        reports = cross_validate(config, data, folds=5)
        assert [r.fold for r in reports] == list(range(5))
        assert all(len(r.eff_rank) == 2 for r in reports)

    def test_parallel_matches_serial(self):
        data = quick_dataset()
        config = MoEConfig(input_dim=16, experts=4, active_k=2, expert_hidden=8,
                           classes=5, batch=32, epochs=1, seed=13)
        serial = cross_validate(config, data, folds=3, workers=1)
        parallel = cross_validate(config, data, folds=3, workers=3)
        assert len(serial) == len(parallel) == 3
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a.test_acc, b.test_acc)
            np.testing.assert_array_equal(a.loss_task, b.loss_task)
            assert a.final_accuracy == b.final_accuracy

    def test_stratified_folds_balanced(self):
        labels = np.repeat(np.arange(5), 60)
        assignment = stratified_folds(labels, 10, seed=1)
        for c in range(5):
            counts = np.bincount(assignment[labels == c], minlength=10)
            assert counts.max() - counts.min() <= 1
        sizes = np.bincount(assignment, minlength=10)
        assert sizes.max() - sizes.min() <= 1


class TestConfigValidation:
    def test_k_cannot_exceed_experts(self):
        with pytest.raises(InvalidConfigError):
            MoEConfig(experts=4, active_k=5)

    def test_bad_reg_kind(self):
        with pytest.raises(InvalidConfigError):
            MoEConfig(reg_kind="l2")

    def test_nonpositive_lr(self):
        with pytest.raises(InvalidConfigError):
            MoEConfig(lr=0.0)

    def test_defaults(self):
        config = MoEConfig()
        assert (config.experts, config.active_k, config.expert_hidden) == (16, 2, 32)
        assert (config.aux_weight, config.reg_weight) == (0.01, 0.1)
        assert (config.lr, config.epochs, config.batch) == (1e-3, 30, 128)
