"""Subset selection solvers and the coherence-barrier experiment."""

import itertools

import numpy as np
import pytest

from moegeo import rng, sss
from moegeo.core import UnitDictionary, _solve_gram, least_squares_on_support, normalize_columns
from moegeo.dictgen import coherent_dictionary, planted_signal, random_orthonormal_dictionary
from moegeo.errors import (
    InvalidConfigError, InvalidKError, InvalidShapeError, SingularGramError, TooLargeError,
)
from moegeo.sss import (
    BarrierCurve,
    barrier_sweep,
    brute_force_sss,
    greedy_topk_select,
    omp_select,
    omp_select_stacked,
    recovery_trial,
)


# The coherence targets of `moegeo barrier` at its defaults.
BARRIER_GRID = [round(x, 10) for x in np.linspace(0.0, 0.95, 25)]


def barrier_instances(dim, n_atoms, k, gi, trials):
    """The dictionaries and planted signals of one barrier grid point at seed 42, seed by seed."""
    dictionaries = [coherent_dictionary(dim, n_atoms, BARRIER_GRID[gi], 0.005,
                                        rng.derive_state(42, "barrier", gi, t, 0))
                    for t in range(trials)]
    signals = [planted_signal(d, k, rng.derive_state(42, "barrier", gi, t, 1))
               for t, d in enumerate(dictionaries)]
    return dictionaries, signals


def enumeration_oracle(dictionary, y, k):
    """Independent route: lstsq on every support, explicit residual norms."""
    best = None
    for sup in itertools.combinations(range(dictionary.n_atoms), k):
        cols = dictionary.data[:, list(sup)]
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        r = y - cols @ coef
        res = float(r @ r)
        if best is None or res < best[0] - 1e-12:
            best = (res, sup)
    return best


def gram_in_place_brute_force(dictionary, y, k):
    """brute_force_sss's search with the Gram formed here rather than read from the cache."""
    gram = dictionary.data.T @ dictionary.data
    corr = dictionary.data.T @ y
    best = None
    for sup in itertools.combinations(range(dictionary.n_atoms), k):
        idx = list(sup)
        try:
            coef = _solve_gram(gram[np.ix_(idx, idx)], corr[idx], sup)
        except SingularGramError:
            continue
        residual = float(y @ y) - float(corr[idx] @ coef)
        if best is None or residual < best[0]:
            best = (residual, sup, coef)
    return best


def refit_omp(dictionary, y, k):
    """OMP that refits least squares on the sorted support after every pick."""
    v = np.asarray(y.vector if hasattr(y, "vector") else y, dtype=np.float64)
    residual = v
    support = []
    for _ in range(k):
        scores = np.abs(dictionary.data.T @ residual)
        scores[support] = -np.inf
        support.append(int(np.argmax(scores)))
        sol = least_squares_on_support(dictionary, v, sorted(support))
        residual = v - dictionary.data[:, sol.support] @ sol.coefficients
    return tuple(sorted(support))


def outcome(select, dictionary, y, k):
    """The support, or the support SingularGramError names."""
    try:
        return select(dictionary, y, k)
    except SingularGramError as err:
        return ("singular", err.args)


class TestBruteForce:
    def test_exact_sparse_target_recovered(self):
        d = random_orthonormal_dictionary(10, 8, seed=0)
        sig = planted_signal(d, k=3, seed=1)
        sol = brute_force_sss(d, sig, 3)
        assert sol.support == sig.support
        assert sol.residual_sq <= 1e-18

    def test_orthonormal_equals_topk_correlation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = random_orthonormal_dictionary(12, 9, seed=int(rng.integers(1 << 32)))
            y = rng.standard_normal(12)
            sol = brute_force_sss(d, y, 3)
            scores = np.abs(d.data.T @ y)
            expected = tuple(sorted(np.argsort(-scores, kind="stable")[:3]))
            assert sol.support == expected

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = normalize_columns(rng.standard_normal((8, 6)))
            y = rng.standard_normal(8)
            sol = brute_force_sss(d, y, 2)
            res, sup = enumeration_oracle(d, y, 2)
            assert sol.support == sup
            assert sol.residual_sq == pytest.approx(res, abs=1e-8)

    def test_matches_gram_formed_in_place(self):
        rng = np.random.default_rng(4)
        for n, k in [(6, 2), (9, 3), (12, 4)]:
            d = normalize_columns(rng.standard_normal((8, n)))
            y = rng.standard_normal(8)
            sol = brute_force_sss(d, y, k)
            residual, sup, coef = gram_in_place_brute_force(d, y, k)
            assert sol.support == sup
            assert sol.coefficients.tobytes() == coef.tobytes()
            assert sol.residual_sq == max(residual, 0.0)

    def test_tie_broken_lexicographically(self):
        d = UnitDictionary(np.eye(4))
        y = np.array([1.0, 1.0, 1.0, 0.0])
        sol = brute_force_sss(d, y, 2)
        assert sol.support == (0, 1)

    def test_enumeration_guard(self):
        d = random_orthonormal_dictionary(64, 40, seed=0)
        with pytest.raises(TooLargeError):
            brute_force_sss(d, np.zeros(64), 12)

    def test_k_out_of_range(self):
        d = UnitDictionary(np.eye(4))
        with pytest.raises(InvalidKError):
            brute_force_sss(d, np.ones(4), 5)


class TestGreedyTopk:
    def test_matches_brute_force_on_orthonormal(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            d = random_orthonormal_dictionary(14, 10, seed=int(rng.integers(1 << 32)))
            y = rng.standard_normal(14)
            k = int(rng.integers(1, 5))
            assert greedy_topk_select(d, y, k) == brute_force_sss(d, y, k).support

    def test_single_atom_target(self):
        d = random_orthonormal_dictionary(8, 6, seed=5)
        assert greedy_topk_select(d, d.data[:, 3], 1) == (3,)

    def test_tie_goes_to_lower_index(self):
        d = UnitDictionary(np.eye(4))
        y = np.array([2.0, 1.0, 1.0, 0.0])
        assert greedy_topk_select(d, y, 2) == (0, 1)

    def test_selects_largest_absolute_correlations(self):
        d = UnitDictionary(np.eye(5))
        y = np.array([0.1, -3.0, 0.5, 2.0, -0.2])
        assert greedy_topk_select(d, y, 2) == (1, 3)


class TestOmp:
    def test_orthonormal_equals_one_shot(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            d = random_orthonormal_dictionary(12, 8, seed=int(rng.integers(1 << 32)))
            y = rng.standard_normal(12)
            k = int(rng.integers(1, 5))
            assert omp_select(d, y, k) == greedy_topk_select(d, y, k)

    def test_first_pick_equals_one_shot(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            d = normalize_columns(rng.standard_normal((10, 7)))
            y = rng.standard_normal(10)
            assert omp_select(d, y, 1) == greedy_topk_select(d, y, 1)

    def test_recovers_below_coherence_bound(self):
        # k=3 has guarantee threshold 1/5; 0.1 sits safely below it.
        for seed in range(20):
            d = coherent_dictionary(32, 16, target_mu=0.1, tol=0.005, seed=seed)
            sig = planted_signal(d, k=3, seed=seed + 1000)
            assert omp_select(d, sig, 3) == sig.support


class TestOmpMatchesRefitRoute:
    """The incremental factor picks the refit route's supports and raises where it raises."""

    def test_barrier_grid_seeds(self):
        for gi in range(len(BARRIER_GRID)):
            for d, sig in zip(*barrier_instances(128, 64, 6, gi, 3)):
                assert omp_select(d, sig, 6) == refit_omp(d, sig, 6)

    def test_noisy_targets(self):
        gen = np.random.default_rng(21)
        for trial in range(60):
            mu = float(gen.uniform(0.0, 0.9))
            d = coherent_dictionary(32, 24, mu, 0.01, seed=trial)
            y = planted_signal(d, 4, seed=trial + 500).vector + 0.3 * gen.standard_normal(32)
            for k in (1, 3, 6, 12):
                assert omp_select(d, y, k) == refit_omp(d, y, k)

    def test_every_k_on_small_shapes(self):
        # N > d makes the later supports rank-deficient
        gen = np.random.default_rng(22)
        for dim in (3, 5, 8):
            for n in (2, 4, 7, 10):
                for _ in range(4):
                    d = normalize_columns(gen.standard_normal((dim, n)))
                    y = gen.standard_normal(dim) * 10.0 ** gen.uniform(-3, 3)
                    for k in range(1, n + 1):
                        assert outcome(omp_select, d, y, k) == outcome(refit_omp, d, y, k)

    @pytest.mark.parametrize("offset", [0.0, 1e-14, 1e-9, 1e-7, 1e-5, 1e-3])
    def test_singular_supports_raise_alike(self, offset):
        # duplicate and near-duplicate columns, on both sides of the pivot check
        gen = np.random.default_rng(23)
        raised = 0
        for _ in range(20):
            m = gen.standard_normal((10, 8))
            m[:, 5] = m[:, 2] + offset * gen.standard_normal(10)
            d = normalize_columns(m)
            y = d.data[:, [2, 5, 7]] @ gen.standard_normal(3)
            for k in (2, 4, 8):
                expected = outcome(refit_omp, d, y, k)
                assert outcome(omp_select, d, y, k) == expected
                raised += expected[0] == "singular"
        assert raised > 0 or offset >= 1e-5

    @pytest.mark.parametrize("frame", ["orthonormal", "simplex"])
    def test_equiangular_ties_are_rescored(self, monkeypatch, frame):
        # Equal-magnitude correlations tie in exact arithmetic, so rounding
        # decides which 3 of the 6 planted atoms are picked; the band hands
        # those picks to the refit route.
        refits = []
        monkeypatch.setattr(sss, "least_squares_on_support",
                            lambda *a: refits.append(1) or least_squares_on_support(*a))
        for seed in range(12):
            if frame == "orthonormal":
                d = random_orthonormal_dictionary(16, 12, seed=seed)
            else:
                # 13 unit vectors in R^12 with every inner product -1/12
                q = random_orthonormal_dictionary(13, 13, seed=seed).data
                centered = q - q.mean(axis=1, keepdims=True)
                d = normalize_columns(np.linalg.svd(centered)[0][:, :12].T @ centered)
            sig = planted_signal(d, 6, seed=seed + 100)
            assert omp_select(d, sig, 3) == refit_omp(d, sig, 3)
        assert refits


class TestStackedOmp:
    """OMP over a stack of pairs picks each pair's refit-route support."""

    def test_barrier_grid_stacks(self, monkeypatch):
        # a pair leaves the stack for the refit route on a near-tie or a lost certificate
        refitted = set()
        monkeypatch.setattr(sss, "least_squares_on_support",
                            lambda d, *a: refitted.add(id(d)) or least_squares_on_support(d, *a))
        trials = 0
        for gi in range(len(BARRIER_GRID)):
            dictionaries, signals = barrier_instances(128, 64, 6, gi, 8)
            stacked = omp_select_stacked(dictionaries, signals, 6)
            assert stacked == [refit_omp(d, sig, 6) for d, sig in zip(dictionaries, signals)]
            trials += len(stacked)
        assert 0 < len(refitted) < trials

    @pytest.mark.parametrize("n_atoms", [2, 3, 4, 5])
    def test_few_atoms(self, n_atoms):
        for gi in range(len(BARRIER_GRID)):
            for k in range(1, n_atoms + 1):
                dictionaries, signals = barrier_instances(16, n_atoms, k, gi, 8)
                assert omp_select_stacked(dictionaries, signals, k) == [
                    refit_omp(d, sig, k) for d, sig in zip(dictionaries, signals)]

    def test_singular_pair_raises_as_alone(self):
        # pair 1 has duplicate columns: the stack raises what omp_select raises on it alone
        gen = np.random.default_rng(24)
        m = gen.standard_normal((10, 8))
        m[:, 5] = m[:, 2]
        ok, dup = normalize_columns(gen.standard_normal((10, 8))), normalize_columns(m)
        y = dup.data[:, [2, 5, 7]] @ gen.standard_normal(3)
        with pytest.raises(SingularGramError) as alone:
            omp_select(dup, y, 8)
        with pytest.raises(SingularGramError) as stacked:
            omp_select_stacked([ok, dup], [y, y], 8)
        assert stacked.value.support == alone.value.support

    def test_mismatched_stack_rejected(self):
        a = random_orthonormal_dictionary(8, 4, seed=0)
        b = random_orthonormal_dictionary(8, 5, seed=0)
        with pytest.raises(InvalidShapeError):
            omp_select_stacked([a, b], [np.ones(8), np.ones(8)], 2)
        with pytest.raises(InvalidShapeError):
            omp_select_stacked([a, a], [np.ones(8)], 2)


class TestNonFiniteTargets:
    """Every selector refuses a target with a NaN or an infinite entry."""

    @pytest.mark.parametrize("select", [
        greedy_topk_select,
        omp_select,
        lambda d, y, k: brute_force_sss(d, y, k).support,
        lambda d, y, k: omp_select_stacked([d, d], [d.data[:, 0], y], k),
    ], ids=["greedy", "omp", "brute-force", "stacked-omp"])
    @pytest.mark.parametrize("bad", ["all-nan", "one-inf"])
    def test_rejected(self, select, bad):
        d = coherent_dictionary(8, 4, 0.5, 0.005, seed=0)
        y = np.full(8, np.nan) if bad == "all-nan" else np.r_[np.inf, np.zeros(7)]
        with pytest.raises(InvalidShapeError, match="target contains non-finite entries"):
            select(d, y, 2)


class TestRecoveryTrial:
    def test_fields_consistent(self):
        d = coherent_dictionary(24, 12, 0.15, 0.005, seed=0)
        sig = planted_signal(d, k=2, seed=1)
        out = recovery_trial(d, sig, 2)
        assert out.planted_support == sig.support
        assert out.greedy_exact == (set(out.greedy_support) == set(sig.support))

    def test_greedy_never_beats_oracle(self):
        rng = np.random.default_rng(8)
        for seed in range(40):
            mu = float(rng.uniform(0.0, 0.8))
            d = coherent_dictionary(16, 10, mu, 0.01, seed=seed)
            sig = planted_signal(d, k=3, seed=seed + 77)
            greedy = recovery_trial(d, sig, 3).greedy_support
            greedy_res = least_squares_on_support(d, sig.vector, greedy).residual_sq
            oracle = brute_force_sss(d, sig, 3)
            assert greedy_res >= oracle.residual_sq - 1e-9


class TestBarrierSweep:
    def test_small_sweep_shapes_and_bound(self):
        curve = barrier_sweep(24, 12, 2, [0.0, 0.1, 0.6], trials=5, seed=0)
        assert len(curve.mu_grid) == 3
        assert len(curve.success_rate_greedy) == 3
        assert curve.theoretical_bound == pytest.approx(1.0 / 3.0)
        assert all(0.0 <= r <= 1.0 for r in curve.success_rate_greedy)
        assert curve.trials_per_point == 5
        for point, rate in zip(curve.outcomes, curve.success_rate_omp):
            assert rate == sum(o.omp_exact for o in point) / 5

    def test_guaranteed_region_is_perfect(self):
        # bound for k=2 is 1/3; both grid points sit far below it
        curve = barrier_sweep(24, 12, 2, [0.05, 0.2], trials=25, seed=1)
        assert curve.success_rate_greedy == (1.0, 1.0)
        for point in curve.outcomes:
            for out in point:
                assert out.mu_measured < 1.0 / 3.0
                assert out.greedy_exact

    def test_chunks_do_not_change_outcomes(self, monkeypatch):
        # the per-trial oracle: each trial's dictionary, signal and selectors on their own
        whole = barrier_sweep(128, 64, 6, BARRIER_GRID, trials=8, seed=42)
        monkeypatch.setattr(sss, "_STACK_BYTES", 3 * 8 * 128 * 64)
        assert barrier_sweep(128, 64, 6, BARRIER_GRID, trials=8, seed=42) == whole
        for gi, point in enumerate(whole.outcomes):
            dictionaries, signals = barrier_instances(128, 64, 6, gi, 8)
            assert point == tuple(recovery_trial(d, sig, 6) for d, sig in zip(dictionaries, signals))

    def test_workers_do_not_change_results(self):
        a = barrier_sweep(16, 8, 2, [0.1, 0.4, 0.7], trials=8, seed=3, workers=1)
        b = barrier_sweep(16, 8, 2, [0.1, 0.4, 0.7], trials=8, seed=3, workers=3)
        assert a == b

    def test_grid_validation(self):
        with pytest.raises(InvalidConfigError):
            barrier_sweep(16, 8, 2, [0.4, 0.1], trials=2, seed=0)
        with pytest.raises(InvalidConfigError):
            barrier_sweep(16, 8, 2, [], trials=2, seed=0)
        with pytest.raises(InvalidConfigError):
            barrier_sweep(16, 8, 2, [0.1], trials=0, seed=0)
        with pytest.raises(InvalidConfigError):
            barrier_sweep(16, 8, 2, [1.0], trials=2, seed=0)

    def test_curve_type_validation(self):
        outcomes = barrier_sweep(16, 8, 2, [0.1, 0.5], trials=3, seed=0).outcomes
        with pytest.raises(InvalidShapeError):
            BarrierCurve(mu_grid=(0.1,), k=2, outcomes=outcomes)
        with pytest.raises(InvalidShapeError):
            BarrierCurve(mu_grid=(0.1, 0.5), k=2, outcomes=(outcomes[0], outcomes[1][:2]))
