"""Subset selection solvers and the coherence-barrier experiment."""

import itertools

import numpy as np
import pytest

from moegeo import core, rng, sss
from moegeo.core import (
    DictionaryStack, UnitDictionary, _solve_gram, least_squares_on_support,
    least_squares_on_supports, mutual_coherence, normalize_columns, run_jobs,
)
from moegeo.dictgen import (
    COHERENCE_TOL, blend_bases, coherent_dictionaries, coherent_dictionary, planted_signal,
    random_orthonormal_dictionary,
)
from moegeo.errors import (
    InvalidConfigError, InvalidKError, InvalidShapeError, SingularGramError, TooLargeError,
)
from moegeo.sss import (
    BarrierCurve,
    barrier_sweep,
    brute_force_sss,
    greedy_topk_select,
    omp_select,
    recovery_trial,
    recovery_trials,
)


# The coherence targets of `moegeo barrier` at its defaults.
BARRIER_GRID = [round(x, 10) for x in np.linspace(0.0, 0.95, 25)]


def barrier_instances(dim, n_atoms, k, gi, trials):
    """The dictionaries and planted (support, signs, vector) signals of one
    barrier grid point at seed 42, seed by seed."""
    dictionaries = [coherent_dictionary(dim, n_atoms, BARRIER_GRID[gi], 0.005,
                                        rng.derive_state(42, "barrier", t, 0))
                    for t in range(trials)]
    signals = [planted_signal(d, k, rng.derive_state(42, "barrier", gi, t, 1))
               for t, d in enumerate(dictionaries)]
    return dictionaries, signals


def as_stack(dictionaries, signals):
    """The dictionaries as one DictionaryStack, and their planted vectors as its (T, d) targets."""
    return (DictionaryStack(np.stack([d.data for d in dictionaries])),
            np.stack([vector for *_, vector in signals]))


def per_trial_job(args):
    """A sweep job trial by trial, the oracle of the stacked job sss._run_trials:
    at each grid point, each trial's own UnitDictionary (a copy, with its own
    gram), its coherence, its planted signal and its one-trial recovery."""
    d, n, k, grid, ts, seed = args
    bases = blend_bases(d, n, [rng.derive_state(seed, "barrier", t, 0) for t in ts])
    points = []
    for gi, (stack, _) in enumerate(coherent_dictionaries(bases, grid, COHERENCE_TOL)):
        trials = []
        for t, data in zip(ts, stack.data):
            e = UnitDictionary(data.copy())
            support, _, vector = planted_signal(e, k, rng.derive_state(seed, "barrier", gi, t, 1))
            mu, *supports = recovery_trial(e, support, vector, k)
            assert mu == mutual_coherence(e)
            trials.append((mu, *supports))
        points.append([np.array(column) for column in zip(*trials)])
    return tuple(np.stack(column) for column in zip(*points))


def assert_same_columns(stacked, oracle):
    """mu_measured, planted, greedy and OMP columns equal, bit for bit."""
    for name, a, b in zip(("mu_measured", "planted", "greedy", "omp"), stacked, oracle):
        assert a.shape == b.shape and a.tobytes() == b.astype(a.dtype).tobytes(), name


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
    """brute_force_sss's search as a loop over supports, with the Gram formed here rather
    than read from the cache: (residual, support, coef), or None when every support is
    singular."""
    gram = dictionary.data.T @ dictionary.data
    corr = dictionary.data.T @ y
    best = None
    for sup in itertools.combinations(range(dictionary.n_atoms), k):
        idx = list(sup)
        coef, ok = _solve_gram(gram[np.ix_(idx, idx)], corr[idx])
        if not ok:
            continue
        residual = float(y @ y) - float(corr[idx] @ coef)
        if best is None or residual < best[0]:
            best = (residual, sup, coef)
    return best


def brute_force_case(family, gen):
    """A dictionary of one family (d 2-19, N 3-14, N > d allowed but for orthonormal
    ones), a target and k 1-4. Every other target is an exact +-1 combination of k
    atoms; common-direction dictionaries repeat some atoms exactly, so their supports
    tie exactly and some are singular."""
    n = int(gen.integers(3, 15))
    d = int(gen.integers(n if family == "orthonormal" else 2, 20))
    k = int(gen.integers(1, min(4, n) + 1))
    if family == "orthonormal":
        dictionary = random_orthonormal_dictionary(d, n, int(gen.integers(1 << 32)))
    else:
        m = gen.standard_normal((d, n))
        if family == "common-direction":
            m = 0.1 * m + gen.standard_normal((d, 1))
            m[:, gen.integers(0, n, n // 3)] = m[:, gen.integers(0, n, n // 3)]
        dictionary = normalize_columns(m)
    if gen.random() < 0.5:
        y = gen.standard_normal(d)
    else:
        y = dictionary.data[:, gen.permutation(n)[:k]] @ gen.choice([-1.0, 1.0], k)
    return dictionary, y, k


def assert_brute_force_matches_loop(dictionary, y, k):
    """brute_force_sss has the loop's support, coefficient bytes and residual, or raises
    its SingularGramError when no support is solvable; whether it did."""
    best = gram_in_place_brute_force(dictionary, y, k)
    if best is None:
        with pytest.raises(SingularGramError) as err:
            brute_force_sss(dictionary, y, k)
        assert err.value.args == SingularGramError(tuple(range(k))).args
        return False
    sol = brute_force_sss(dictionary, y, k)
    residual, sup, coef = best
    assert sol.support == sup
    assert sol.coefficients.tobytes() == coef.tobytes()
    assert sol.residual_sq == max(residual, 0.0)
    return True


def refit_omp(dictionary, y, k):
    """OMP that refits least squares on the sorted support after every pick."""
    v = np.asarray(y, dtype=np.float64)
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
        support, _, y = planted_signal(d, k=3, seed=1)
        sol = brute_force_sss(d, y, 3)
        assert sol.support == tuple(support.tolist())
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
        gen = np.random.default_rng(4)
        for family in ("gaussian", "orthonormal", "common-direction"):
            solved = [assert_brute_force_matches_loop(*brute_force_case(family, gen))
                      for _ in range(150)]
            # all-singular cases are drawn wherever k > d can be
            assert all(solved) if family == "orthonormal" else not all(solved), family

    def test_tie_broken_lexicographically(self):
        d = UnitDictionary(np.eye(4))
        y = np.array([1.0, 1.0, 1.0, 0.0])
        sol = brute_force_sss(d, y, 2)
        assert sol.support == (0, 1)

    def test_enumeration_guard(self):
        d = random_orthonormal_dictionary(64, 40, seed=0)
        with pytest.raises(TooLargeError,
                           match=r"^C\(40,12\) = 5586853480 subsets exceeds 10000000$"):
            brute_force_sss(d, np.zeros(64), 12)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunks_give_the_one_search(self, monkeypatch, chunk):
        # (0, 2), (0, 3) and (2, 3) tie exactly; 3-subset chunks split them, and the
        # 1- and 3-subset first chunks of the duplicated atom are all singular
        eye = UnitDictionary(np.eye(4))
        tie = np.array([1.0, 0.0, 1.0, 1.0])
        gen = np.random.default_rng(5)
        u = normalize_columns(gen.standard_normal((3, 2))).data
        dup = UnitDictionary(u[:, [0, 0, 0, 0, 1]])
        cases = [(eye, tie, 2), (dup, gen.standard_normal(3), 2)]
        cases += [brute_force_case(family, gen) for family in ("gaussian", "common-direction")
                  for _ in range(20)]
        whole = [outcome(brute_force_sss, *case) for case in cases]
        assert whole[0].support == (0, 2) and whole[1].support == (0, 4)
        for case, expect in zip(cases, whole):
            monkeypatch.setattr(core, "_STACK_BYTES", chunk * 8 * case[2] ** 2)
            got = outcome(brute_force_sss, *case)
            if isinstance(expect, tuple):
                assert got == expect
            else:
                assert (got.support, got.coefficients.tobytes(), got.residual_sq) == \
                    (expect.support, expect.coefficients.tobytes(), expect.residual_sq)

    def test_batched_residual_product_rounds_like_the_dot(self):
        # brute_force_sss keeps the loop's residual bytes only while the (1, k) @ (k, 1)
        # product of each stack row rounds like the 1-D dot; einsum("pk,pk->p") and
        # (c * coef).sum(1) differed from it on 25 to 57 % of these rows at k = 2..6
        gen = np.random.default_rng(6)
        for k in range(1, 7):
            c, coef = gen.standard_normal((2, 5000, k))
            rows = (c[:, None, :] @ coef[..., None])[:, 0, 0]
            assert rows.tolist() == [float(a @ b) for a, b in zip(c, coef)]

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
            support, _, y = planted_signal(d, k=3, seed=seed + 1000)
            assert omp_select(d, y, 3) == tuple(support.tolist())


class TestOmpMatchesRefitRoute:
    """The incremental factor picks the refit route's supports and raises where it raises."""

    def test_barrier_grid_seeds(self):
        for gi in range(len(BARRIER_GRID)):
            for d, (_, _, y) in zip(*barrier_instances(128, 64, 6, gi, 3)):
                assert omp_select(d, y, 6) == refit_omp(d, y, 6)

    def test_noisy_targets(self):
        gen = np.random.default_rng(21)
        for trial in range(60):
            mu = float(gen.uniform(0.0, 0.9))
            d = coherent_dictionary(32, 24, mu, 0.01, seed=trial)
            y = planted_signal(d, 4, seed=trial + 500)[2] + 0.3 * gen.standard_normal(32)
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
        monkeypatch.setattr(sss, "least_squares_on_supports",
                            lambda *a: refits.append(1) or least_squares_on_supports(*a))
        for seed in range(12):
            if frame == "orthonormal":
                d = random_orthonormal_dictionary(16, 12, seed=seed)
            else:
                # 13 unit vectors in R^12 with every inner product -1/12
                q = random_orthonormal_dictionary(13, 13, seed=seed).data
                centered = q - q.mean(axis=1, keepdims=True)
                d = normalize_columns(np.linalg.svd(centered)[0][:, :12].T @ centered)
            y = planted_signal(d, 6, seed=seed + 100)[2]
            assert omp_select(d, y, 3) == refit_omp(d, y, 3)
        assert refits


class TestStackedOmp:
    """OMP over a DictionaryStack picks each pair's refit-route support."""

    def test_barrier_grid_stacks(self, monkeypatch):
        # a pair leaves the stack for the refit route on a near-tie or a lost
        # certificate; the stacked refits name the pairs they refit
        refitted = []
        monkeypatch.setattr(sss, "least_squares_on_supports",
                            lambda data, pairs, *a: refitted.append(pairs.tolist())
                            or least_squares_on_supports(data, pairs, *a))
        trials = routed = 0
        for gi in range(len(BARRIER_GRID)):
            dictionaries, signals = barrier_instances(128, 64, 6, gi, 8)
            refitted.clear()
            _, omp = recovery_trials(*as_stack(dictionaries, signals), 6)
            assert [tuple(row) for row in omp.tolist()] == [
                refit_omp(d, y, 6) for d, (_, _, y) in zip(dictionaries, signals)]
            trials += len(omp)
            routed += len({t for pairs in refitted for t in pairs})
        assert 0 < routed < trials

    @pytest.mark.parametrize("n_atoms", [2, 3, 4, 5])
    def test_few_atoms(self, n_atoms):
        for gi in range(len(BARRIER_GRID)):
            for k in range(1, n_atoms + 1):
                dictionaries, signals = barrier_instances(16, n_atoms, k, gi, 8)
                _, omp = recovery_trials(*as_stack(dictionaries, signals), k)
                assert [tuple(row) for row in omp.tolist()] == [
                    refit_omp(d, y, k) for d, (_, _, y) in zip(dictionaries, signals)]

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
            recovery_trials(DictionaryStack(np.stack([ok.data, dup.data])), np.stack([y, y]), 8)
        assert stacked.value.support == alone.value.support

    def test_lowest_failing_pair_raises(self):
        # pairs with a near-duplicate column fail at different rounds of the refit
        # route; the stack raises what the lowest-index failing pair raises alone
        gen = np.random.default_rng(31)
        pairs = []
        for _ in range(12):
            m = gen.standard_normal((10, 8))
            a, b = gen.choice(8, size=2, replace=False)
            m[:, b] = m[:, a] + 1e-9 * gen.standard_normal(10) * (gen.random() < 0.3)
            d = normalize_columns(m)
            y = d.data[:, gen.choice(8, size=3, replace=False)] @ gen.standard_normal(3)
            try:
                pairs.append((d, y, None, omp_select(d, y, 6)))
            except SingularGramError as err:
                pairs.append((d, y, err.support, None))
        later_round_first = 0
        for order in (gen.permutation(12)[:4].tolist() for _ in range(60)):
            failing = [pairs[i][2] for i in order if pairs[i][2] is not None]
            stack = DictionaryStack(np.stack([pairs[i][0].data for i in order]))
            targets = np.stack([pairs[i][1] for i in order])
            try:
                omp = [tuple(row) for row in recovery_trials(stack, targets, 6)[1].tolist()]
            except SingularGramError as err:
                omp = err.support
            assert omp == (failing[0] if failing else [pairs[i][3] for i in order])
            later_round_first += bool(failing) and len(failing[0]) > min(map(len, failing))
        assert later_round_first

    def test_mismatched_stack_rejected(self):
        # one target for a stack of two dictionaries
        a = random_orthonormal_dictionary(8, 4, seed=0)
        with pytest.raises(InvalidShapeError, match=r"^targets must be a 2 x 8 stack"):
            recovery_trials(DictionaryStack(np.stack([a.data, a.data])), np.ones((1, 8)), 2)


class TestNonFiniteTargets:
    """Every selector refuses a target with a NaN or an infinite entry."""

    @pytest.mark.parametrize("select", [
        greedy_topk_select,
        omp_select,
        lambda d, y, k: brute_force_sss(d, y, k).support,
        lambda d, y, k: recovery_trials(DictionaryStack(np.stack([d.data, d.data])),
                                        np.stack([d.data[:, 0], y]), k),
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
        support, _, y = planted_signal(d, k=2, seed=1)
        mu, planted, greedy, omp = recovery_trial(d, support, y, 2)
        assert mu == mutual_coherence(d)
        assert planted == tuple(support.tolist())
        assert greedy == greedy_topk_select(d, y, 2)
        assert omp == omp_select(d, y, 2)

    def test_columns_are_each_pairs_trial(self):
        dictionaries, signals = barrier_instances(128, 64, 6, 10, 5)
        columns = (np.sort([support for support, *_ in signals], axis=1),
                   *recovery_trials(*as_stack(dictionaries, signals), 6))
        assert all(c.shape == (5, 6) for c in columns)
        for t, (d, (support, _, y)) in enumerate(zip(dictionaries, signals)):
            assert recovery_trial(d, support, y, 6)[1:] == tuple(tuple(c[t].tolist())
                                                                 for c in columns)

    def test_targets_checked_as_a_stack(self):
        stack = DictionaryStack(np.stack([np.eye(4)] * 3))
        with pytest.raises(InvalidShapeError, match=r"^targets must be a 3 x 4 stack"):
            recovery_trials(stack, np.ones((2, 4)), 2)
        bad = np.ones((3, 4))
        bad[2, 1] = np.inf
        with pytest.raises(InvalidShapeError, match="target contains non-finite entries"):
            recovery_trials(stack, bad, 2)

    def test_greedy_never_beats_oracle(self):
        rng = np.random.default_rng(8)
        for seed in range(40):
            mu = float(rng.uniform(0.0, 0.8))
            d = coherent_dictionary(16, 10, mu, 0.01, seed=seed)
            support, _, y = planted_signal(d, k=3, seed=seed + 77)
            greedy = recovery_trial(d, support, y, 3)[2]
            greedy_res = least_squares_on_support(d, y, greedy).residual_sq
            oracle = brute_force_sss(d, y, 3)
            assert greedy_res >= oracle.residual_sq - 1e-9


CURVE_COLUMNS = ("mu_measured", "planted", "greedy", "omp", "greedy_exact", "omp_exact")


def assert_same_curve(a, b):
    """Two curves agree on their grid, k, every column and everything derived from them."""
    derived = ("mu_grid", "k", "mu_measured_mean", "success_rate_greedy", "success_rate_omp",
               "trials_per_point", "theoretical_bound")
    assert [getattr(a, f) for f in derived] == [getattr(b, f) for f in derived]
    for name in CURVE_COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestBarrierSweep:
    def test_small_sweep_shapes_and_bound(self):
        curve = barrier_sweep(24, 12, 2, [0.0, 0.1, 0.6], trials=5, seed=0)
        assert len(curve.mu_grid) == 3
        assert len(curve.success_rate_greedy) == 3
        assert curve.mu_measured.shape == curve.greedy_exact.shape == curve.omp_exact.shape == (3, 5)
        assert curve.planted.shape == curve.greedy.shape == curve.omp.shape == (3, 5, 2)
        assert curve.theoretical_bound == pytest.approx(1.0 / 3.0)
        assert all(0.0 <= r <= 1.0 for r in curve.success_rate_greedy)
        assert curve.trials_per_point == 5
        for i, t in itertools.product(range(3), range(5)):
            planted = set(curve.planted[i, t].tolist())
            assert curve.greedy_exact[i, t] == (set(curve.greedy[i, t].tolist()) == planted)
            assert curve.omp_exact[i, t] == (set(curve.omp[i, t].tolist()) == planted)
        for exact, rate in zip(curve.omp_exact, curve.success_rate_omp):
            assert rate == sum(exact.tolist()) / 5

    def test_guaranteed_region_is_perfect(self):
        # bound for k=2 is 1/3; both grid points sit far below it
        curve = barrier_sweep(24, 12, 2, [0.05, 0.2], trials=25, seed=1)
        assert curve.success_rate_greedy == (1.0, 1.0)
        assert (curve.mu_measured < 1.0 / 3.0).all()
        assert curve.greedy_exact.all()

    def test_chunks_do_not_change_outcomes(self, monkeypatch):
        # the per-trial oracle: each trial's dictionary, signal and selectors on their own
        whole = barrier_sweep(128, 64, 6, BARRIER_GRID, trials=8, seed=42)
        monkeypatch.setattr(sss, "_STACK_BYTES", 3 * 8 * 128 * 64)
        assert_same_curve(barrier_sweep(128, 64, 6, BARRIER_GRID, trials=8, seed=42), whole)
        for gi in range(len(BARRIER_GRID)):
            dictionaries, signals = barrier_instances(128, 64, 6, gi, 8)
            for t, (d, (support, _, y)) in enumerate(zip(dictionaries, signals)):
                assert recovery_trial(d, support, y, 6) == (
                    whole.mu_measured[gi, t],
                    *(tuple(c[gi, t].tolist()) for c in (whole.planted, whole.greedy, whole.omp)))

    @pytest.mark.parametrize("d, n_atoms, k", [(128, 64, 6), (16, 4, 2), (4, 2, 2), (16, 8, 8)],
                             ids=["bench", "d16-n4", "d4-n2", "k-eq-n"])
    def test_stacked_job_matches_per_trial_oracle(self, d, n_atoms, k):
        args = (d, n_atoms, k, BARRIER_GRID, range(8), 42)
        assert_same_columns(sss._run_trials(args), per_trial_job(args))

    @pytest.mark.parametrize("targets, trials", [(1, 1), (9, 1), (10, 1), (7, 3)],
                             ids=["1-lane", "9-lanes", "10-lanes", "21-lanes"])
    def test_both_bisection_routes_match_per_trial_oracle(self, targets, trials):
        # target 0 makes no lane; from 10 lanes on the job bisects them in one pass
        grid = [0.0] + BARRIER_GRID[-targets:]
        args = (32, 16, 3, grid, range(5, 5 + trials), 7)
        assert_same_columns(sss._run_trials(args), per_trial_job(args))

    @pytest.mark.parametrize("seed", [1, 7, 42, 2024])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_matches_per_trial_oracle(self, monkeypatch, seed, workers):
        # chunks of 3 trials make the 6 trials two jobs, so workers=2 runs them on the pool
        monkeypatch.setattr(sss, "_STACK_BYTES", 3 * 8 * 24 * 12)
        curve = barrier_sweep(24, 12, 3, BARRIER_GRID, trials=6, seed=seed, workers=workers)
        stacked = (curve.mu_measured, curve.planted, curve.greedy, curve.omp)
        assert_same_columns(stacked, per_trial_job((24, 12, 3, BARRIER_GRID, range(6), seed)))

    def test_workers_do_not_change_results(self, monkeypatch):
        # chunks of 3 trials make 3 jobs, so workers=3 runs them on the pool;
        # chunks are cut in this process, so the spawned workers need no patch
        monkeypatch.setattr(sss, "_STACK_BYTES", 3 * 8 * 16 * 8)
        jobs = []
        monkeypatch.setattr(sss, "run_jobs",
                            lambda fn, js, w: jobs.append(len(js)) or run_jobs(fn, js, w))
        a = barrier_sweep(16, 8, 2, [0.1, 0.4, 0.7], trials=8, seed=3, workers=1)
        b = barrier_sweep(16, 8, 2, [0.1, 0.4, 0.7], trials=8, seed=3, workers=3)
        assert jobs == [3, 3]
        assert_same_curve(a, b)

    @pytest.mark.parametrize("trials", [1, 7, 8, 9, 200])
    def test_means_rates_and_read_only_columns(self, trials):
        # 8, 9 and 200 straddle numpy's pairwise-sum unroll and block sizes
        curve = barrier_sweep(16, 8, 2, [0.1, 0.6], trials=trials, seed=5)
        for i in range(2):
            assert curve.mu_measured_mean[i] == float(np.mean(list(curve.mu_measured[i])))
            assert curve.success_rate_greedy[i] == int(curve.greedy_exact[i].sum()) / trials
            assert curve.success_rate_omp[i] == int(curve.omp_exact[i].sum()) / trials
        for name in CURVE_COLUMNS:
            with pytest.raises(ValueError):
                getattr(curve, name)[0] = 0

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
        curve = barrier_sweep(16, 8, 2, [0.1, 0.5], trials=3, seed=0)
        columns = [curve.mu_measured, curve.planted, curve.greedy, curve.omp]
        assert_same_curve(BarrierCurve((0.1, 0.5), 2, *columns), curve)
        bad = {
            "grid length": ((0.1,), 2, *columns),
            "descending grid": ((0.5, 0.1), 2, *columns),
            "trial count": ((0.1, 0.5), 2, columns[0], *(c[:, :2] for c in columns[1:])),
            "no trials": ((0.1, 0.5), 2, *(c[:, :0] for c in columns)),
            "k": ((0.1, 0.5), 3, *columns),
        }
        for name, args in bad.items():
            with pytest.raises(InvalidShapeError):
                BarrierCurve(*args)
