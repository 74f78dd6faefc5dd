"""Volume (log-det) selection: Schur gains, greedy, and audits."""

import math

import numpy as np
import pytest

from moegeo import cli, diversity, verify
from moegeo.core import UnitDictionary, normalize_columns
from moegeo.dictgen import COHERENCE_TOL, coherent_dictionary, random_orthonormal_dictionary
from moegeo.diversity import (
    Kernel,
    dpp_greedy_select,
    logdet_subset,
    marginal_gain,
    nemhauser_audit,
    shifted_objective,
    submodularity_audit,
)
from moegeo.errors import InvalidShapeError


def random_kernel(n, dim, seed, epsilon=1e-4):
    rng = np.random.default_rng(seed)
    return Kernel(normalize_columns(rng.standard_normal((dim, n))), epsilon=epsilon)


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


def rotated_equiangular_kernels(n=10, c=0.3, count=10):
    """Random rotations of n equiangular atoms at inner product c.

    Every gain ties in exact arithmetic; each rotation splits the ties at ULP
    level, differently in the incremental and the per-candidate route.
    """
    rng = np.random.default_rng(23)
    f = np.linalg.cholesky((1 - c) * np.eye(n) + c).T
    for _ in range(count):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        yield Kernel(normalize_columns(q @ f))


# Unit dictionaries whose round 0 ties bit for bit, and small-integer plane
# features whose later rounds tie bit for bit in the incremental route only.
ROUND_ZERO_DICTIONARIES = pytest.mark.parametrize("make", [
    lambda: random_orthonormal_dictionary(10, 6, seed=0),
    lambda: coherent_dictionary(64, 64, 0.5, 0.005, seed=3),
    lambda: coherent_dictionary(128, 64, 0.9, 0.005, seed=7),
], ids=["orthonormal-10x6", "coherent-64x64", "coherent-128x64"])
PLANE_FEATURES = pytest.mark.parametrize("features", [
    [[1, 2, -2, 1, 0, 0, 2, 0], [-2, -2, -1, -1, 1, 2, 0, -2]],
    [[1, 0, 1, 0, 2, 1, -2], [2, -2, 0, 1, 2, 1, 1]],
    [[-1, -2, 0, 2, 1, -1], [-2, -2, 1, -1, 2, 0]],
])


@pytest.fixture
def gain_calls(monkeypatch):
    """Subset sizes of every per-candidate Schur step: rescoring and marginal_gain alike."""
    calls = []
    real = diversity._schur_gain

    def counting(kernel, idx, chol, e):
        calls.append(len(idx))
        return real(kernel, idx, chol, e)

    monkeypatch.setattr(diversity, "_schur_gain", counting)
    return calls


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
        k = Kernel(d)
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
        k = Kernel(d)
        assert d.gram.tobytes() == (d.data.T @ d.data).tobytes()
        assert k.gram.tobytes() == g.tobytes()
        assert not k.gram.flags.writeable

    def test_bad_epsilon_rejected(self):
        for epsilon in (0.0, -1e-4, float("nan")):
            with pytest.raises(InvalidShapeError):
                Kernel(UnitDictionary(np.eye(3)), epsilon=epsilon)

    def test_duplicated_feature_allowed(self):
        # rank-deficient but PSD
        f = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        k = Kernel(normalize_columns(f))
        assert k.size == 3

    def test_program_kernels_are_symmetric_with_unit_diagonal(self):
        # the kernels dpp-select builds and those of verify's volume checks,
        # with N > d among them
        kernels = [Kernel(coherent_dictionary(256, 256, 0.5, 0.005, seed=42)),
                   Kernel(coherent_dictionary(128, 64, 0.9, 0.005, seed=7))]
        kernels += [k for k, _ in verify._volume_kernels(np.random.default_rng(31), 300)]
        assert any(k.dictionary.n_atoms > k.dictionary.dim for k in kernels)
        for k in kernels:
            assert np.array_equal(k.gram, k.gram.T)
            assert np.all(np.diag(k.gram) == 1.0)


class TestLogdetSubset:
    def test_orthonormal_small_epsilon_is_zero(self):
        k = Kernel(UnitDictionary(np.eye(5)), epsilon=1e-12)
        assert logdet_subset(k, (0, 2, 4)) == pytest.approx(0.0, abs=1e-10)

    def test_pair_formula(self):
        # atoms (1, 0) and (0.6, 0.8): inner product c = 0.6
        c = 0.6
        k = Kernel(UnitDictionary([[1.0, c], [0.0, 0.8]]), epsilon=1e-12)
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
        k = Kernel(UnitDictionary(np.eye(6)), epsilon=1e-12)
        assert marginal_gain(k, (0, 1), 4) == pytest.approx(0.0, abs=1e-9)

    def test_element_inside_span_hits_epsilon_floor(self):
        # third feature equals the first: the Schur complement collapses to
        # (1+eps) - 1/(1+eps), i.e. the Tikhonov floor (~2 eps), not a full unit
        eps = 1e-4
        f = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        k = Kernel(normalize_columns(f), epsilon=eps)
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
        k = Kernel(UnitDictionary(np.eye(7)))
        assert dpp_greedy_select(k, 3)[0] == (0, 1, 2)

    def test_duplicated_pair_never_taken_together_early(self):
        # atoms 0 and 1 identical; all others orthogonal
        rng = np.random.default_rng(4)
        f = np.eye(6)[:, :5].copy()
        f[:, 1] = f[:, 0]
        k = Kernel(normalize_columns(f))
        picks = dpp_greedy_select(k, 4)[0]
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
            relabeled = Kernel(UnitDictionary(k.dictionary.data[:, perm]), epsilon=k.epsilon)
            moved = dpp_greedy_select(relabeled, 3)[0]
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
                assert dpp_greedy_select(k, size)[0] == reference_greedy(k, size)

    def test_exact_duplicate_columns(self):
        # several atoms repeated verbatim: exact gain ties after round 0 too
        rng = np.random.default_rng(11)
        base = rng.standard_normal((9, 7))
        f = base[:, [0, 1, 0, 2, 3, 1, 4, 0, 5, 6, 2, 3]]
        k = Kernel(normalize_columns(f))
        for size in (3, 7, 12):
            assert dpp_greedy_select(k, size)[0] == reference_greedy(k, size)

    def test_rotated_equiangular_near_ties(self):
        # the picks agree only because near-ties are rescored with marginal_gain
        for k in rotated_equiangular_kernels():
            assert dpp_greedy_select(k, k.size)[0] == reference_greedy(k, k.size)

    def test_high_coherence_square_dictionary_k_equals_n(self):
        d = coherent_dictionary(128, 128, 0.95, 0.005, seed=42)
        k = Kernel(d)
        assert dpp_greedy_select(k, 128)[0] == reference_greedy(k, 128)

    def test_rank_deficient_kernel_at_epsilon_floor(self):
        # 20 atoms in 5 dimensions: from round 5 on every gain sits near log(eps)
        k = random_kernel(20, 5, 17)
        assert dpp_greedy_select(k, 20)[0] == reference_greedy(k, 20)


class TestRoundZero:
    """Round 0 never rescores: every gain is log(1 + eps) bit for bit."""

    @ROUND_ZERO_DICTIONARIES
    def test_unit_diagonal_makes_no_rescoring_calls(self, gain_calls, make):
        k = Kernel(make())
        assert dpp_greedy_select(k, 1)[0] == (0,)
        assert gain_calls == []
        size = min(k.size, 8)
        picks = dpp_greedy_select(k, size)[0]
        assert 0 not in gain_calls
        assert picks == reference_greedy(k, size)

    @PLANE_FEATURES
    def test_later_bit_equal_ties_are_rescored(self, features):
        # small-integer features in the plane: after round 0 some candidates tie
        # bit for bit in the incremental route but not in marginal_gain
        k = Kernel(normalize_columns(np.array(features, dtype=float)))
        assert dpp_greedy_select(k, k.size)[0] == reference_greedy(k, k.size)


def assert_reported_gains(kernel, size):
    """The greedy's own gains agree with per-prefix marginal_gain and with logdet.

    Both routes form a Schur complement d^2 = 1 + eps - |c|^2 to a few ulps of
    1, which the log turns into an error of about ulps / d^2: far below 1e-12
    above the eps floor, about 2e-12 at d^2 ~ 1e-4.
    """
    picks, gains = dpp_greedy_select(kernel, size)
    assert picks == reference_greedy(kernel, size)
    assert len(gains) == size
    for i, gain in enumerate(gains):
        exact = marginal_gain(kernel, picks[:i], picks[i])
        floor_slack = 16 * np.finfo(float).eps / math.exp(exact)
        assert gain == pytest.approx(exact, abs=1e-12 + floor_slack)
    assert all(b <= a + 1e-12 for a, b in zip(gains, gains[1:]))
    assert math.fsum(gains) == pytest.approx(logdet_subset(kernel, picks), abs=1e-9)


class TestReportedGains:
    """Each pick's gain is read off the incremental factor, not refactored."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bench_shape(self, seed):
        assert_reported_gains(Kernel(coherent_dictionary(256, 256, 0.5, COHERENCE_TOL, seed)), 32)

    def test_cli_default_kernel(self):
        cfg = {key: f.default for key, f in cli.COMMANDS["dpp-select"].schema.items()}
        d = coherent_dictionary(cfg["d"], cfg["n_atoms"], cfg["coherence"], COHERENCE_TOL,
                                cfg["seed"])
        assert_reported_gains(Kernel(d), cfg["k"])

    @ROUND_ZERO_DICTIONARIES
    def test_round_zero_kernels(self, make):
        k = Kernel(make())
        assert_reported_gains(k, min(k.size, 8))

    @PLANE_FEATURES
    def test_rescored_plane_kernels(self, gain_calls, features):
        k = Kernel(normalize_columns(np.array(features, dtype=float)))
        dpp_greedy_select(k, k.size)
        assert gain_calls, "no round was rescored"
        assert_reported_gains(k, k.size)

    def test_rescored_equiangular_kernels(self, gain_calls):
        kernels = list(rotated_equiangular_kernels())
        for k in kernels:
            dpp_greedy_select(k, k.size)
        assert gain_calls, "no round was rescored"
        for k in kernels:
            assert_reported_gains(k, k.size)


class TestSubmodularityAudit:
    def test_random_kernels_clean(self):
        for seed in range(5):
            k = random_kernel(9, 14, seed)
            report = submodularity_audit(k, samples=200, seed=seed)
            assert report.violations == 0
            assert report.worst_margin >= -1e-8

    def test_identity_kernel_clean(self):
        report = submodularity_audit(Kernel(UnitDictionary(np.eye(8))), samples=200, seed=0)
        assert report.violations == 0


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
