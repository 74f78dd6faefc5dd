"""Volume (log-det) selection: Schur gains, greedy, and audits."""

import numpy as np
import pytest

from moegeo.dictgen import coherent_dictionary, random_orthonormal_dictionary
from moegeo.diversity import (
    Kernel,
    dpp_greedy_select,
    logdet_subset,
    marginal_gain,
    nemhauser_audit,
    shifted_objective,
    submodularity_audit,
)
from moegeo.errors import InvalidShapeError, NotPSDError


def random_kernel(n, dim, seed, epsilon=1e-4):
    rng = np.random.default_rng(seed)
    return Kernel.from_features(rng.standard_normal((dim, n)), epsilon=epsilon)


def reference_greedy(kernel, k):
    """Per-candidate greedy: a fresh marginal_gain for every candidate and round."""
    selected = []
    for _ in range(k):
        gains = np.full(kernel.size, -np.inf)
        for e in range(kernel.size):
            if e not in selected:
                gains[e] = marginal_gain(kernel, selected, e)
        selected.append(int(np.argmax(gains)))
    return tuple(selected)


def det3_cofactor(m):
    """Explicit 3x3 determinant by cofactor expansion along the first row."""
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


class TestKernel:
    def test_from_orthonormal_features(self):
        d = random_orthonormal_dictionary(10, 6, seed=0)
        k = Kernel.from_dictionary(d)
        np.testing.assert_allclose(k.gram, np.eye(6), atol=1e-10)

    @pytest.mark.parametrize("make", [
        lambda: random_orthonormal_dictionary(10, 6, seed=0),
        lambda: coherent_dictionary(256, 256, 0.5, 0.005, seed=42),
    ], ids=["orthonormal-10x6", "coherent-256x256"])
    def test_from_dictionary_reads_the_cached_gram(self, make):
        d = make()
        g = d.data.T @ d.data
        np.fill_diagonal(g, 1.0)
        g = 0.5 * (g + g.T)
        k = Kernel.from_dictionary(d)
        assert d.gram.tobytes() == (d.data.T @ d.data).tobytes()
        assert k.gram.tobytes() == g.tobytes()

    def test_asymmetric_rejected(self):
        g = np.eye(3)
        g[0, 1] = 0.5
        with pytest.raises(NotPSDError):
            Kernel(gram=g)

    def test_negative_eigenvalue_rejected(self):
        g = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NotPSDError):
            Kernel(gram=g)

    def test_bad_diagonal_rejected(self):
        with pytest.raises(InvalidShapeError):
            Kernel(gram=2.0 * np.eye(3))

    def test_bad_epsilon_rejected(self):
        with pytest.raises(InvalidShapeError):
            Kernel(gram=np.eye(3), epsilon=0.0)

    def test_duplicated_feature_allowed(self):
        # rank-deficient but PSD
        f = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        k = Kernel.from_features(f)
        assert k.size == 3


class TestLogdetSubset:
    def test_orthonormal_small_epsilon_is_zero(self):
        k = Kernel(gram=np.eye(5), epsilon=1e-12)
        assert logdet_subset(k, (0, 2, 4)) == pytest.approx(0.0, abs=1e-10)

    def test_pair_formula(self):
        c = 0.6
        g = np.array([[1.0, c], [c, 1.0]])
        k = Kernel(gram=g, epsilon=1e-12)
        assert logdet_subset(k, (0, 1)) == pytest.approx(np.log(1 - c * c), abs=1e-9)

    def test_matches_cofactor_oracle_on_triples(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            k = random_kernel(8, 12, seed)
            sub = tuple(sorted(rng.choice(8, size=3, replace=False)))
            block = k.gram[np.ix_(sub, sub)] + k.epsilon * np.eye(3)
            expected = np.log(det3_cofactor(block))
            assert logdet_subset(k, sub) == pytest.approx(expected, abs=1e-10)

    def test_invalid_subsets(self):
        k = random_kernel(5, 8, 0)
        with pytest.raises(InvalidShapeError):
            logdet_subset(k, ())
        with pytest.raises(InvalidShapeError):
            logdet_subset(k, (0, 0))
        with pytest.raises(InvalidShapeError):
            logdet_subset(k, (5,))


class TestMarginalGain:
    def test_empty_set_gain(self):
        k = random_kernel(6, 9, 2)
        assert marginal_gain(k, (), 3) == pytest.approx(np.log(1 + k.epsilon), abs=1e-12)

    def test_orthogonal_element_gain_is_epsilon_floor(self):
        k = Kernel(gram=np.eye(6), epsilon=1e-12)
        assert marginal_gain(k, (0, 1), 4) == pytest.approx(0.0, abs=1e-9)

    def test_element_inside_span_hits_epsilon_floor(self):
        # third feature equals the first: the Schur complement collapses to
        # (1+eps) - 1/(1+eps), i.e. the Tikhonov floor (~2 eps), not a full unit
        eps = 1e-4
        f = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        k = Kernel.from_features(f, epsilon=eps)
        expected = np.log((1 + eps) - 1 / (1 + eps))
        assert marginal_gain(k, (0,), 2) == pytest.approx(expected, abs=1e-9)
        assert marginal_gain(k, (0,), 2) < np.log(3 * eps)

    def test_matches_logdet_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(4, 10))
            k = random_kernel(n, int(rng.integers(n, 2 * n)), int(rng.integers(1 << 31)))
            size = int(rng.integers(1, n - 1))
            perm = rng.permutation(n)
            sub = sorted(int(i) for i in perm[:size])
            e = int(perm[size])
            direct = logdet_subset(k, sub + [e]) - logdet_subset(k, sub)
            assert marginal_gain(k, sub, e) == pytest.approx(direct, abs=1e-8)


class TestGreedySelect:
    def test_orthonormal_ties_resolve_to_prefix(self):
        k = Kernel(gram=np.eye(7))
        assert dpp_greedy_select(k, 3) == (0, 1, 2)

    def test_duplicated_pair_never_taken_together_early(self):
        # atoms 0 and 1 identical; all others orthogonal
        rng = np.random.default_rng(4)
        f = np.eye(6)[:, :5].copy()
        f[:, 1] = f[:, 0]
        k = Kernel.from_features(f)
        picks = dpp_greedy_select(k, 4)
        assert not {0, 1} <= set(picks)
        # enumerate gains at each greedy step to confirm the duplicate is worst
        chosen = []
        for _ in range(4):
            gains = {e: marginal_gain(k, chosen, e) for e in range(5) if e not in chosen}
            best = max(gains, key=lambda e: (gains[e], -e))
            if 0 in chosen:
                assert gains[1] == min(gains.values())
            chosen.append(best)

    def test_permutation_equivariance(self):
        # Relabeling permutes the output, with ties (exact at the first step,
        # where every gain is log(1+eps)) resolved in the new labels.
        rng = np.random.default_rng(5)
        for seed in range(20):
            k = random_kernel(8, 12, seed + 100)
            perm = rng.permutation(8)
            inv = np.argsort(perm)  # new label of old atom o is inv[o]
            relabeled = Kernel(gram=k.gram[np.ix_(perm, perm)], epsilon=k.epsilon)
            moved = dpp_greedy_select(relabeled, 3)
            # reference: greedy on the original kernel, ties to lowest new label
            chosen: list[int] = []
            for _ in range(3):
                gains = {e: marginal_gain(k, sorted(chosen), e)
                         for e in range(8) if e not in chosen}
                top = max(gains.values())
                tied = [e for e, g in gains.items() if g >= top - 1e-13]
                chosen.append(min(tied, key=lambda e: inv[e]))
            assert moved == tuple(int(inv[e]) for e in chosen)


class TestGreedyMatchesPerCandidateRoute:
    """The incremental-Cholesky greedy picks what the per-candidate loop picks."""

    def test_seeded_kernels_every_k(self):
        for seed in range(12):
            n = 6 + seed
            k = random_kernel(n, 4 + 2 * seed, seed + 300)
            for size in range(1, n + 1):
                assert dpp_greedy_select(k, size) == reference_greedy(k, size)

    def test_exact_duplicate_columns(self):
        # several atoms repeated verbatim: exact gain ties after round 0 too
        rng = np.random.default_rng(11)
        base = rng.standard_normal((9, 7))
        f = base[:, [0, 1, 0, 2, 3, 1, 4, 0, 5, 6, 2, 3]]
        k = Kernel.from_features(f)
        for size in (3, 7, 12):
            assert dpp_greedy_select(k, size) == reference_greedy(k, size)

    def test_rotated_equiangular_near_ties(self):
        # Every gain ties in exact arithmetic; a random rotation splits the ties
        # at ULP level, differently in the two routes, so the picks agree only
        # because near-ties are rescored with marginal_gain.
        rng = np.random.default_rng(23)
        n, c = 10, 0.3
        f = np.linalg.cholesky((1 - c) * np.eye(n) + c).T
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            k = Kernel.from_features(q @ f)
            assert dpp_greedy_select(k, n) == reference_greedy(k, n)

    def test_high_coherence_square_dictionary_k_equals_n(self):
        d = coherent_dictionary(128, 128, 0.95, 0.005, seed=42)
        k = Kernel.from_dictionary(d)
        assert dpp_greedy_select(k, 128) == reference_greedy(k, 128)

    def test_rank_deficient_kernel_at_epsilon_floor(self):
        # 20 atoms in 5 dimensions: from round 5 on every gain sits near log(eps)
        k = random_kernel(20, 5, 17)
        assert dpp_greedy_select(k, 20) == reference_greedy(k, 20)


class TestSubmodularityAudit:
    def test_random_kernels_clean(self):
        for seed in range(5):
            k = random_kernel(9, 14, seed)
            report = submodularity_audit(k, samples=200, seed=seed)
            assert report.violations == 0
            assert report.worst_margin >= -1e-8

    def test_identity_kernel_clean(self):
        report = submodularity_audit(Kernel(gram=np.eye(8)), samples=200, seed=0)
        assert report.violations == 0

    def test_audit_refuses_corrupted_matrix(self):
        g = np.eye(4)
        g[0, 1] = 0.3
        with pytest.raises(NotPSDError):
            submodularity_audit(Kernel(gram=g), samples=10, seed=0)


class TestNemhauser:
    def test_bound_on_random_instances(self):
        floor = 1 - 1 / np.e
        for seed in range(15):
            k = random_kernel(int(np.random.default_rng(seed).integers(6, 12)), 16, seed)
            for size in (1, 2, 3, 4):
                report = nemhauser_audit(k, size)
                assert report.shifted_ratio >= floor - 1e-9
                assert report.shifted_best >= report.shifted_greedy - 1e-9

    def test_shifted_objective_nonnegative_and_zero_at_empty(self):
        k = random_kernel(7, 9, 8)
        assert shifted_objective(k, ()) == 0.0
        rng = np.random.default_rng(9)
        for _ in range(50):
            size = int(rng.integers(1, 7))
            sub = sorted(int(i) for i in rng.choice(7, size=size, replace=False))
            assert shifted_objective(k, sub) >= -1e-9
