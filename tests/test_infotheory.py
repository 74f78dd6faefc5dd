"""KL projection, collision identity, entropy bounds, routing MI."""

import contextlib
import itertools
import re
import warnings

import numpy as np
import pytest

from moegeo.errors import InvalidKError, InvalidShapeError, ZeroProbabilityError
from moegeo.infotheory import (
    CategoricalDist,
    RoutingBatch,
    aux_loss,
    collision_mass,
    empirical_mi,
    entropy,
    kl_sparse_project,
    mi_lower_bound,
    renyi2_entropy,
    topk_conditional_entropy,
)


def kl_divergence(q, p):
    """Direct D_KL(q || p) with the 0 log 0 convention."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    nz = q > 0
    return float(np.sum(q[nz] * (np.log(q[nz]) - np.log(p[nz]))))


def projection_oracle(p, k):
    """Enumerate every k-subset, renormalize, return the KL minimizer."""
    e = p.shape[0]
    best = None
    for sup in itertools.combinations(range(e), k):
        q = np.zeros(e)
        q[list(sup)] = p[list(sup)] / p[list(sup)].sum()
        kl = kl_divergence(q, p)
        if best is None or kl < best[0] - 1e-15:
            best = (kl, sup)
    return best


def random_dist(rng, e):
    p = rng.random(e) + 1e-3
    return p / p.sum()


def random_batch(rng, t, e, k):
    logits = rng.standard_normal((t, e))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    selections = np.argsort(rng.random((t, e)), axis=1)[:, :k]
    return RoutingBatch(dense_probs=probs, selections=np.sort(selections, axis=1))


class TestKlSparseProject:
    def test_hand_computed_case(self):
        q, support, kl = kl_sparse_project(CategoricalDist(np.array([0.5, 0.3, 0.2])), 2)
        np.testing.assert_allclose(q.probs, [0.625, 0.375, 0.0], atol=1e-12)
        assert support == (0, 1)
        assert kl == pytest.approx(-np.log(0.8), abs=1e-12)

    def test_full_support_is_identity(self):
        p = CategoricalDist(np.array([0.4, 0.35, 0.25]))
        q, support, kl = kl_sparse_project(p, 3)
        np.testing.assert_allclose(q.probs, p.probs, atol=0)
        assert support == (0, 1, 2)
        assert kl == pytest.approx(0.0, abs=1e-15)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            e = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(4, e) + 1))
            p = random_dist(rng, e)
            q, support, kl = kl_sparse_project(CategoricalDist(p), k)
            oracle_kl, oracle_sup = projection_oracle(p, k)
            assert support == oracle_sup
            assert kl == pytest.approx(oracle_kl, abs=1e-10)

    def test_kl_matches_direct_divergence(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            e = int(rng.integers(3, 12))
            p = random_dist(rng, e)
            q, _, kl = kl_sparse_project(CategoricalDist(p), int(rng.integers(1, e + 1)))
            assert kl == pytest.approx(kl_divergence(q.probs, p), abs=1e-10)

    def test_ties_to_lowest_index(self):
        p = CategoricalDist(np.array([0.4, 0.2, 0.2, 0.2]))
        _, support, _ = kl_sparse_project(p, 2)
        assert support == (0, 1)

    def test_zero_probability_rejected(self):
        p = CategoricalDist(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ZeroProbabilityError):
            kl_sparse_project(p, 1)

    def test_k_out_of_range(self):
        p = CategoricalDist(np.array([0.5, 0.5]))
        with pytest.raises(InvalidKError):
            kl_sparse_project(p, 0)
        with pytest.raises(InvalidKError):
            kl_sparse_project(p, 3)


class TestRenyi2:
    def test_uniform(self):
        assert renyi2_entropy(CategoricalDist(np.full(4, 0.25))) == pytest.approx(np.log(4))

    def test_one_hot(self):
        assert renyi2_entropy(CategoricalDist(np.array([1.0, 0.0]))) == pytest.approx(0.0)

    def test_hand_computed(self):
        p = CategoricalDist(np.array([0.5, 0.3, 0.2]))
        assert renyi2_entropy(p) == pytest.approx(-np.log(0.38), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            e = int(rng.integers(2, 10))
            h = renyi2_entropy(CategoricalDist(random_dist(rng, e)))
            assert -1e-12 <= h <= np.log(e) + 1e-12


class TestAuxLoss:
    def test_uniform_is_one(self):
        e, t = 4, 8
        probs = np.full((t, e), 1.0 / e)
        selections = (np.arange(t) % e).reshape(-1, 1)
        batch = RoutingBatch(dense_probs=probs, selections=selections)
        # f deviates from 1/E unless t is a multiple of e; here it is exact
        assert aux_loss(batch) == pytest.approx(1.0, abs=1e-12)

    def test_collapsed_is_expert_count(self):
        e, t = 5, 6
        probs = np.zeros((t, e))
        probs[:, 0] = 1.0
        batch = RoutingBatch(dense_probs=probs, selections=np.zeros((t, 1), dtype=int))
        assert aux_loss(batch) == pytest.approx(float(e), abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t, e, k = int(rng.integers(2, 12)), int(rng.integers(2, 8)), 0
            k = int(rng.integers(1, e + 1))
            batch = random_batch(rng, t, e, k)
            total = 0.0
            for i in range(e):
                f_i = sum(1 for row in batch.selections if i in row) / t
                p_i = sum(batch.dense_probs[tok, i] for tok in range(t)) / t
                total += f_i * p_i
            assert aux_loss(batch) == pytest.approx(e * total, abs=1e-12)

    def test_frequencies_sum_to_k(self):
        rng = np.random.default_rng(4)
        batch = random_batch(rng, 16, 6, 3)
        assert batch.frequencies.sum() == pytest.approx(3.0, abs=1e-12)


def collision_identity(batch):
    """E sum P_i^2 and E exp(-H2(P)) of the batch marginal P, and their gap."""
    p_bar = CategoricalDist(batch.marginal)
    lhs = batch.n_experts * collision_mass(p_bar)
    rhs = float(batch.n_experts * np.exp(-renyi2_entropy(p_bar)))
    return lhs, rhs, abs(lhs - rhs)


class TestCollisionIdentity:
    def test_uniform_marginal(self):
        e = 4
        probs = np.full((8, e), 1.0 / e)
        batch = RoutingBatch(dense_probs=probs,
                             selections=(np.arange(8) % e).reshape(-1, 1))
        lhs, rhs, gap = collision_identity(batch)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert gap <= 1e-9

    def test_collapsed_marginal(self):
        e = 6
        probs = np.zeros((4, e))
        probs[:, 2] = 1.0
        batch = RoutingBatch(dense_probs=probs,
                             selections=np.full((4, 1), 2, dtype=int))
        lhs, rhs, gap = collision_identity(batch)
        assert lhs == pytest.approx(float(e), abs=1e-12)
        assert gap <= 1e-9

    def test_random_batches(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            batch = random_batch(rng, int(rng.integers(2, 20)), int(rng.integers(2, 10)), 1)
            _, _, gap = collision_identity(batch)
            assert gap <= 1e-9

    def test_collision_floor(self):
        # sum P_i^2 >= 1/E, equality only at uniform
        rng = np.random.default_rng(6)
        for _ in range(200):
            batch = random_batch(rng, int(rng.integers(2, 16)), int(rng.integers(2, 9)), 1)
            p_bar = CategoricalDist(batch.marginal)
            e = p_bar.size
            assert np.sum(p_bar.probs**2) >= 1.0 / e - 1e-12


class TestConditionalEntropy:
    def test_k1_is_zero(self):
        rng = np.random.default_rng(7)
        batch = random_batch(rng, 10, 5, 1)
        assert topk_conditional_entropy(batch) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_rows_hit_log_k(self):
        e, t, k = 6, 9, 3
        probs = np.full((t, e), 1.0 / e)
        sels = np.argsort(np.random.default_rng(8).random((t, e)), axis=1)[:, :k]
        batch = RoutingBatch(dense_probs=probs, selections=np.sort(sels, axis=1))
        assert topk_conditional_entropy(batch) == pytest.approx(np.log(k), abs=1e-9)

    def test_bounded_by_log_k(self):
        rng = np.random.default_rng(9)
        for k in (1, 2, 4):
            for _ in range(100):
                e = int(rng.integers(k + 1, 12))
                batch = random_batch(rng, int(rng.integers(2, 16)), e, k)
                assert topk_conditional_entropy(batch) <= np.log(k) + 1e-9


class TestMiLowerBound:
    def test_table_values(self):
        assert mi_lower_bound(16, 2) == pytest.approx(np.log(8), abs=1e-12)

    def test_k1(self):
        assert mi_lower_bound(7, 1) == pytest.approx(np.log(7), abs=1e-12)

    def test_boundary(self):
        assert mi_lower_bound(5, 4) == pytest.approx(np.log(5 / 4), abs=1e-12)

    def test_invalid(self):
        with pytest.raises(InvalidKError):
            mi_lower_bound(4, 4)
        with pytest.raises(InvalidKError):
            mi_lower_bound(4, 0)


class TestEmpiricalMi:
    def test_identical_tokens_give_zero(self):
        e = 5
        row = np.array([0.4, 0.3, 0.1, 0.1, 0.1])
        probs = np.tile(row, (7, 1))
        sels = np.tile(np.array([[0, 1]]), (7, 1))
        batch = RoutingBatch(dense_probs=probs, selections=sels)
        _, _, mi = empirical_mi(batch)
        assert mi == pytest.approx(0.0, abs=1e-9)

    def test_perfect_channel(self):
        e = 6
        probs = np.eye(e) * (1 - 1e-12) + 1e-12 / e
        probs /= probs.sum(axis=1, keepdims=True)
        batch = RoutingBatch(dense_probs=probs,
                             selections=np.arange(e).reshape(-1, 1))
        h_z, h_cond, mi = empirical_mi(batch)
        assert h_z == pytest.approx(np.log(e), abs=1e-9)
        assert h_cond == pytest.approx(0.0, abs=1e-9)
        assert mi == pytest.approx(np.log(e), abs=1e-9)

    def test_disjoint_pairs_give_log_ratio(self):
        e, k = 8, 2
        t = e // k
        probs = np.zeros((t, e))
        sels = np.zeros((t, k), dtype=int)
        for i in range(t):
            sels[i] = (2 * i, 2 * i + 1)
            probs[i, 2 * i] = probs[i, 2 * i + 1] = 0.5
        batch = RoutingBatch(dense_probs=probs, selections=sels)
        h_z, h_cond, mi = empirical_mi(batch)
        assert mi == pytest.approx(np.log(e) - np.log(k), abs=1e-12)

    def test_nonnegative_and_bound_chain(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            e = int(rng.integers(k + 1, 12))
            batch = random_batch(rng, int(rng.integers(2, 20)), e, k)
            h_z, h_cond, mi = empirical_mi(batch)
            assert mi >= -1e-9
            assert mi >= h_z - np.log(k) - 1e-9


class TestValidation:
    def test_dist_must_sum_to_one(self):
        with pytest.raises(InvalidShapeError,
                           match=r"^probabilities sum to 1\.1, expected 1 within 1e-9$"):
            CategoricalDist(np.array([0.5, 0.6]))

    def test_dist_needs_two_entries(self):
        with pytest.raises(InvalidShapeError):
            CategoricalDist(np.array([1.0]))

    def test_batch_row_sums(self):
        with pytest.raises(InvalidShapeError):
            RoutingBatch(dense_probs=np.array([[0.5, 0.6]]),
                         selections=np.array([[0]]))

    def test_batch_selection_distinct(self):
        with pytest.raises(InvalidShapeError):
            RoutingBatch(dense_probs=np.array([[0.5, 0.5]]),
                         selections=np.array([[0, 0]]))

    def test_batch_selection_range(self):
        with pytest.raises(InvalidShapeError):
            RoutingBatch(dense_probs=np.array([[0.5, 0.5]]),
                         selections=np.array([[2]]))

    def test_entropy_convention(self):
        assert entropy(np.array([1.0, 0.0, 0.0])) == 0.0


def conditional_entropy_by_rows(batch):
    """The per-row loop that topk_conditional_entropy replaced, kept as its oracle."""
    rows = np.zeros(batch.dense_probs.shape)
    picked = np.take_along_axis(batch.dense_probs, batch.selections, axis=1)
    np.put_along_axis(rows, batch.selections, picked / picked.sum(axis=1, keepdims=True), axis=1)
    return float(np.mean([entropy(r) for r in rows]))


def has_repeat_by_rows(selections):
    """The per-row set() check that RoutingBatch replaced, kept as its oracle."""
    return any(len(set(row.tolist())) != len(row) for row in selections)


class TestVectorisedAgainstRowLoops:
    def test_conditional_entropy_matches_row_loop(self):
        rng = np.random.default_rng(31)
        for e in (2, 3, 5, 8, 12):
            for k in range(1, e + 1):
                for zero in (False, True):
                    for _ in range(4):
                        t = int(rng.integers(1, 40))
                        probs = rng.random((t, e)) ** 4
                        # unsorted selections: the rows must still be summed in expert order
                        sel = np.argsort(rng.random((t, e)), axis=1)[:, :k]
                        if zero and k > 1:
                            probs[np.arange(t), sel[:, int(rng.integers(k))]] = 0.0
                        probs /= probs.sum(axis=1, keepdims=True)
                        batch = RoutingBatch(dense_probs=probs, selections=sel)
                        got = topk_conditional_entropy(batch)
                        want = conditional_entropy_by_rows(batch)
                        if zero and k >= 8:
                            # numpy sums 8 or more terms pairwise, so a dropped zero
                            # regroups the loop's sum; only the rounding may differ
                            assert got == pytest.approx(want, rel=k * np.finfo(float).eps)
                        else:
                            assert got == want, (e, k, zero)

    def test_selection_frequencies_match_add_at(self):
        # the scatter-add count the bincount of RoutingBatch replaced, kept as its oracle;
        # integer counts are exact, so the frequencies agree bit for bit
        rng = np.random.default_rng(33)
        for e in (2, 3, 5, 8, 16):
            for k in range(1, e + 1):
                t = int(rng.integers(1, 300))
                batch = random_batch(rng, t, e, k)
                counts = np.zeros(e)
                np.add.at(counts, batch.selections.ravel(), 1.0)
                assert batch.frequencies.tobytes() == (counts / t).tobytes()

    def test_distinctness_matches_row_loop(self):
        rng = np.random.default_rng(32)
        for e in (2, 3, 5, 9):
            for k in range(1, e + 1):
                for _ in range(6):
                    t = int(rng.integers(1, 8))
                    sel = np.argsort(rng.random((t, e)), axis=1)[:, :k]
                    if k > 1 and rng.random() < 0.5:
                        row = int(rng.integers(t))
                        i, j = rng.choice(k, 2, replace=False)
                        sel[row, j] = sel[row, i]
                    probs = np.full((t, e), 1.0 / e)
                    if has_repeat_by_rows(sel):
                        with pytest.raises(InvalidShapeError, match="distinct"):
                            RoutingBatch(dense_probs=probs, selections=sel)
                    else:
                        RoutingBatch(dense_probs=probs, selections=sel)

    @pytest.mark.parametrize("sel", [[[3, 1, 3]], [[0, 2, 1, 0]], [[1, 2, 0], [2, 0, 1], [0, 3, 0]],
                                     [[4, 0, 2, 1, 3, 4]]])
    def test_non_adjacent_duplicates_rejected(self, sel):
        assert has_repeat_by_rows(np.array(sel))
        with pytest.raises(InvalidShapeError, match="distinct"):
            RoutingBatch(dense_probs=np.full((len(sel), 6), 1.0 / 6), selections=sel)


UNIFORM = np.full((3, 4), 0.25)


def with_entry(i, j, value):
    probs = UNIFORM.copy()
    probs[i, j] = value
    return probs


FINITE = "dense_probs must be finite and nonnegative"
RANGE = "selection indices out of range"
DISTINCT = "selections must be distinct per token"
WIDTH = "selection width must lie in [1, E]"
# (dense_probs, selections, error type, exact message); every refusal RoutingBatch makes
REFUSALS = {
    "nan": (with_entry(1, 2, np.nan), [[0, 1]] * 3, InvalidShapeError, FINITE),
    "+inf": (with_entry(0, 0, np.inf), [[0, 1]] * 3, InvalidShapeError, FINITE),
    "-inf": (with_entry(2, 3, -np.inf), [[0, 1]] * 3, InvalidShapeError, FINITE),
    "negative": (with_entry(1, 0, -1e-300), [[0, 1]] * 3, InvalidShapeError, FINITE),
    # the finite check runs before the row sums, which a NaN would also fail
    "nan-and-row-sum": (with_entry(0, 1, np.nan) * 2, [[0, 1]] * 3, InvalidShapeError, FINITE),
    "row-sum-off-by-2e-9": (with_entry(2, 1, 0.25 + 2e-9), [[0, 1]] * 3, InvalidShapeError,
                            "each dense_probs row must sum to 1 within 1e-9"),
    "width-0": (UNIFORM, np.zeros((3, 0), dtype=int), InvalidShapeError, WIDTH),
    "width-above-E": (UNIFORM, [[0, 1, 2, 3, 0]] * 3, InvalidShapeError, WIDTH),
    "index--1": (UNIFORM, [[0, 1], [2, -1], [1, 3]], InvalidShapeError, RANGE),
    "index-E": (UNIFORM, [[0, 1], [2, 3], [4, 0]], InvalidShapeError, RANGE),
    # the range check runs before distinctness: E + row would alias the next row's bin
    "index-E-repeated": (UNIFORM, [[0, 4], [2, 3], [1, 1]], InvalidShapeError, RANGE),
    "adjacent-repeat": (UNIFORM, [[0, 1], [2, 2], [1, 3]], InvalidShapeError, DISTINCT),
    "non-adjacent-repeat": (UNIFORM, [[0, 1, 2], [3, 1, 3], [1, 2, 3]], InvalidShapeError,
                            DISTINCT),
    "zero-kept-mass": (np.array([[0.5, 0.5, 0.0, 0.0]] * 3), [[0, 1], [0, 2], [2, 3]],
                       ZeroProbabilityError,
                       "a token's selected mass is zero; cannot renormalize"),
    "probs-1-d": (np.full(4, 0.25), [[0, 1]], InvalidShapeError,
                  "dense_probs must be T x E with E >= 2, got (4,)"),
    "one-expert": (np.ones((3, 1)), [[0]] * 3, InvalidShapeError,
                   "dense_probs must be T x E with E >= 2, got (3, 1)"),
    "misaligned": (UNIFORM, [[0, 1]] * 2, InvalidShapeError,
                   "selections must be T x k, aligned with dense_probs"),
}


@contextlib.contextmanager
def floating_point_state(mode):
    """The states a batch is built in: as is, inside train_fold's errstate, and -W error."""
    if mode == "errstate":
        with np.errstate(over="raise", invalid="raise"):
            yield
    elif mode == "warnings-error":
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield
    else:
        yield


class TestRoutingBatchRefusals:
    """Each refusal raises its type with its exact message, in every floating-point state."""

    @pytest.mark.parametrize("mode", ["plain", "errstate", "warnings-error"])
    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_refusal_type_and_message(self, case, mode):
        probs, sel, error, message = REFUSALS[case]
        with floating_point_state(mode):
            with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
                RoutingBatch(dense_probs=probs, selections=sel)
        assert type(info.value) is error

    @pytest.mark.parametrize("mode", ["plain", "errstate", "warnings-error"])
    def test_boundary_inputs_are_accepted(self, mode):
        # a row sum off by 5e-10, a selected -0.0 and indices 0 and E - 1
        probs = with_entry(0, 0, 0.25 + 5e-10)
        probs[1] = [0.5, 0.5, 0.0, -0.0]
        with floating_point_state(mode):
            batch = RoutingBatch(dense_probs=probs, selections=[[0, 3], [0, 3], [2, 1]])
        assert batch.load.tolist() == [2, 1, 1, 2]
        assert batch.gates[1].tolist() == [1.0, 0.0]


class TestRoutingBatchDerived:
    """The projection and statistics RoutingBatch derives once, against the formulas it replaced."""

    @staticmethod
    def batches(seed):
        rng = np.random.default_rng(seed)
        for e in (2, 3, 5, 8, 12, 20):
            for k in range(1, e + 1):
                t = int(rng.integers(1, 40))
                probs = rng.random((t, e)) ** 4
                probs /= probs.sum(axis=1, keepdims=True)
                # unsorted selections that are not the top k
                sel = np.argsort(rng.random((t, e)), axis=1)[:, :k]
                yield probs, sel

    def test_derived_arrays_match_replaced_formulas(self):
        for probs, sel in self.batches(41):
            batch = RoutingBatch(dense_probs=probs, selections=sel)
            t, e = probs.shape
            picked = np.take_along_axis(probs, sel, axis=1)
            mass = picked.sum(axis=1, keepdims=True)
            load = np.bincount(sel.ravel(), minlength=e)
            assert batch.gates.tobytes() == (picked / mass).tobytes()
            assert batch.kept_mass.tobytes() == mass.tobytes()
            assert batch.load.tobytes() == load.tobytes()
            assert batch.frequencies.tobytes() == (load / t).tobytes()
            assert batch.marginal.tobytes() == probs.mean(axis=0).tobytes()
            assert aux_loss(batch) == float(e * np.sum(load / t * probs.mean(axis=0)))
            rows = np.zeros((t, e))
            np.put_along_axis(rows, sel, picked / mass, axis=1)
            assert empirical_mi(batch)[0] == entropy(rows.mean(axis=0))

    def test_projection_matches_replaced_formula(self):
        rng = np.random.default_rng(42)
        for e in (2, 3, 5, 8, 12, 20):
            for k in range(1, e + 1):
                p = random_dist(rng, e)
                q, support, kl = kl_sparse_project(CategoricalDist(p), k)
                mass = float(p[list(support)].sum())
                want = np.zeros(e)
                want[list(support)] = p[list(support)] / mass
                assert q.probs.tobytes() == want.tobytes()
                assert kl == float(-np.log(mass))

    def test_derived_arrays_are_read_only(self):
        probs, sel = next(self.batches(43))
        batch = RoutingBatch(dense_probs=probs, selections=sel)
        for name in ("dense_probs", "selections", "gates", "kept_mass", "load",
                     "frequencies", "marginal"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(batch, name)[0] = 0

    def test_writeable_inputs_are_copied(self):
        probs, sel = next(self.batches(44))
        want_probs, want_sel = probs.copy(), sel.copy()
        batch = RoutingBatch(dense_probs=probs, selections=sel)
        probs[:] = 0.0
        sel[:] = 0
        assert batch.dense_probs.tobytes() == want_probs.tobytes()
        np.testing.assert_array_equal(batch.selections, want_sel)

    def test_frozen_inputs_are_held(self):
        probs, sel = next(self.batches(45))
        sel = np.ascontiguousarray(sel, dtype=np.int64)
        probs.setflags(write=False)
        sel.setflags(write=False)
        batch = RoutingBatch(dense_probs=probs, selections=sel)
        assert batch.dense_probs is probs and batch.selections is sel

    def test_zero_selected_mass_raises_at_construction(self):
        probs = np.array([[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
        with pytest.raises(ZeroProbabilityError, match="selected mass is zero"):
            RoutingBatch(dense_probs=probs, selections=[[2, 3], [0, 1]])
