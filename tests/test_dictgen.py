"""Seeded generators: orthonormal and coherence-tuned dictionaries, planted
signals, and the redundant-feature classification dataset."""

import numpy as np
import pytest

from moegeo import rng
from moegeo import dictgen, sss
from moegeo.core import UnitDictionary, mutual_coherence, normalize_columns
from moegeo.dictgen import (
    _bisect_blend,
    _bisect_lanes,
    _blend,
    _blend_coherence,
    _extreme_entries,
    _haar_columns,
    _lane_coherence,
    blend_bases,
    coherent_dictionaries,
    coherent_dictionary,
    planted_signal,
    planted_signals,
    random_orthonormal_dictionary,
    synthetic_classification,
)
from moegeo.errors import (
    InvalidConfigError,
    InvalidKError,
    InvalidShapeError,
    UnreachableError,
)


# The coherence targets of `moegeo barrier` at its defaults.
BARRIER_GRID = [round(x, 10) for x in np.linspace(0.0, 0.95, 25)]


def sign_aligned_base(dim, n_atoms, seed):
    """The base and direction coherent_dictionary draws for this seed."""
    gen = rng.stream(seed, "coherent")
    q = _haar_columns([gen], dim, n_atoms)[0]
    u = gen.standard_normal(dim)
    u /= np.linalg.norm(u)
    return q * np.where(q.T @ u < 0, -1.0, 1.0), u


def barrier_seeds(trials):
    """(target, dictionary seed) pairs: every barrier target with trials seeds of its own."""
    return [(mu, rng.derive_state(42, "barrier", gi, t, 0))
            for gi, mu in enumerate(BARRIER_GRID) for t in range(trials)]


def all_pairs_blend_coherence(a, t):
    """The closed form over every pair of columns: the extreme-pair oracle."""
    c = (1.0 - t) * t
    inv_norm = 1.0 / np.sqrt((1.0 - t) ** 2 + 2.0 * c * a + t * t)
    cos = (c * (a[:, None] + a[None, :]) + t * t) * np.outer(inv_norm, inv_norm)
    np.fill_diagonal(cos, 0.0)
    return float(cos.max())


def all_pairs_coherent_dictionary(dim, n_atoms, target_mu, seed):
    """coherent_dictionary's bisection with each step read over every pair of columns."""
    return all_pairs_blend(*sign_aligned_base(dim, n_atoms, seed), target_mu)


def all_pairs_blend(base, u, target_mu):
    """The all-pairs bisection on a given sign-aligned base and direction."""
    if target_mu == 0.0:
        return UnitDictionary(base)
    a = base.T @ u
    lo, hi = 0.0, 1.0 - 1e-9
    for _ in range(dictgen._MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if all_pairs_blend_coherence(a, mid) < target_mu:
            lo = mid
        else:
            hi = mid
    return UnitDictionary(_blend(base, u, 0.5 * (lo + hi)))


def linear_probe_accuracy(x, labels, n_classes):
    """One-vs-all least-squares probe: fit on the first half, score the rest."""
    half = x.shape[0] // 2
    onehot = np.eye(n_classes)[labels[:half]]
    design = np.hstack([x[:half], np.ones((half, 1))])
    w, *_ = np.linalg.lstsq(design, onehot, rcond=None)
    test = np.hstack([x[half:], np.ones((x.shape[0] - half, 1))])
    pred = np.argmax(test @ w, axis=1)
    return float(np.mean(pred == labels[half:]))


class TestRandomOrthonormal:
    def test_columns_orthonormal(self):
        d = random_orthonormal_dictionary(16, 9, seed=1)
        gram = d.data.T @ d.data
        np.testing.assert_allclose(gram, np.eye(9), atol=1e-10)

    def test_deterministic_and_seed_sensitive(self):
        a = random_orthonormal_dictionary(8, 4, seed=5)
        b = random_orthonormal_dictionary(8, 4, seed=5)
        c = random_orthonormal_dictionary(8, 4, seed=6)
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_more_atoms_than_dims_rejected(self):
        with pytest.raises(InvalidShapeError):
            random_orthonormal_dictionary(4, 5, seed=0)


class TestCoherentDictionary:
    def test_zero_target_returns_orthonormal(self):
        d = coherent_dictionary(12, 6, target_mu=0.0, tol=1e-6, seed=2)
        assert mutual_coherence(d) <= 1e-12

    @pytest.mark.parametrize("target", [0.05, 0.2, 0.5, 0.9])
    def test_hits_target_within_tol(self, target):
        d = coherent_dictionary(32, 16, target_mu=target, tol=1e-3, seed=3)
        assert mutual_coherence(d) == pytest.approx(target, abs=1e-3)

    def test_coherence_monotone_in_blend_parameter(self):
        # The construction underlying the bisection: sign-aligned orthonormal
        # base blended toward a shared unit direction.
        for seed in range(5):
            base, u = sign_aligned_base(10, 5, seed)
            mus = [
                mutual_coherence(normalize_columns(_blend(base, u, t)))
                for t in np.linspace(0.0, 0.98, 20)
            ]
            assert np.all(np.diff(mus) >= -1e-12)

    def test_tol_below_float_resolution_unreachable(self):
        with pytest.raises(UnreachableError):
            coherent_dictionary(16, 8, target_mu=0.5, tol=1e-18, seed=4)

    def test_invalid_targets_rejected(self):
        with pytest.raises(InvalidConfigError):
            coherent_dictionary(8, 4, target_mu=1.0, tol=1e-3, seed=0)
        with pytest.raises(InvalidConfigError):
            coherent_dictionary(8, 4, target_mu=-0.1, tol=1e-3, seed=0)
        with pytest.raises(InvalidConfigError):
            coherent_dictionary(8, 4, target_mu=0.5, tol=0.0, seed=0)
        with pytest.raises(InvalidConfigError):
            coherent_dictionary(8, 4, target_mu=0.5, tol=float("nan"), seed=0)

    def test_deterministic(self):
        a = coherent_dictionary(16, 8, 0.3, 1e-3, seed=9)
        b = coherent_dictionary(16, 8, 0.3, 1e-3, seed=9)
        np.testing.assert_array_equal(a.data, b.data)


class TestClosedFormBisection:
    """Bisecting on the closed form lands within a few ULP of the target."""

    def test_closed_form_matches_built_dictionary(self):
        cases = [(128, 64, 0), (128, 64, 1), (256, 256, 2), (10, 5, 3)]
        cases += [(128, 64, seed) for _, seed in barrier_seeds(1)]
        for dim, n_atoms, seed in cases:
            base, u = sign_aligned_base(dim, n_atoms, seed)
            ext = _extreme_entries(base.T @ u)
            for t in np.linspace(0.0, 1.0 - 1e-9, 40):
                built = mutual_coherence(UnitDictionary(_blend(base, u, t)))
                assert abs(_blend_coherence(ext, t) - built) <= 2e-15

    def test_extreme_pairs_match_all_pairs(self):
        # cos_ij is quasiconvex in a_i, so the maximum over all pairs sits on
        # the pairs of the two smallest and two largest entries of a
        gen = np.random.default_rng(11)
        ts = np.concatenate([np.linspace(1e-12, 1.0 - 1e-9, 40),
                             1.0 - np.logspace(-1, -9, 25)])
        vectors = [gen.random(n) for n in (2, 3, 4, 5, 64, 256) for _ in range(8)]
        vectors += [np.full(6, 0.4), np.repeat(gen.random(4), 3),
                    np.array([0.0, 0.0, 0.5, 0.9, 0.9]), np.array([0.2, 0.7, 0.7])]
        for a in vectors:
            ext = _extreme_entries(a)
            for t in ts:
                assert abs(_blend_coherence(ext, t) - all_pairs_blend_coherence(a, t)) <= 1e-15
            assert len(ext) == min(a.size, 4)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_barrier_grid_bytes(self, seed):
        # the extreme pairs decide every step as all pairs do
        for target in BARRIER_GRID:
            new = coherent_dictionary(128, 64, target, 0.005, seed)
            ref = all_pairs_coherent_dictionary(128, 64, target, seed)
            assert new.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("dim, n_atoms, cases", [
        # the grid starts at target 0, which returns the base unblended
        (128, 64, barrier_seeds(8)),
        (256, 256, [(0.5, seed) for seed in (3, 42, 7, 101)]),
        (16, 8, [(mu, seed) for mu in BARRIER_GRID for seed in range(3)]),
        # at t = 1 - 1e-9 the coherence rounds to the ceiling 1.0
        (128, 64, [(mu, 4) for mu in (0.999, 1.0 - 1e-9, 1.0 - 1e-13)]),
    ], ids=["barrier-grid", "large-square", "small", "near-ceiling"])
    def test_final_coherence_within_ulps_of_target(self, dim, n_atoms, cases):
        for target, seed in cases:
            built = mutual_coherence(coherent_dictionary(dim, n_atoms, target, 0.005, seed))
            assert abs(built - target) <= 4e-15

    @pytest.mark.parametrize("target", [0.3, 0.999])
    def test_only_the_final_dictionary_is_built(self, monkeypatch, target):
        # the ceiling check and every step are decided in closed form
        builds, measured = [], []

        def recording(base, u, t):
            builds.append(base.shape[-1])
            return _blend(base, u, t)

        def counting(dictionary):
            measured.append(dictionary.n_atoms)
            return mutual_coherence(dictionary)

        monkeypatch.setattr(dictgen, "_blend", recording)
        monkeypatch.setattr(dictgen, "mutual_coherence", counting)
        coherent_dictionary(128, 64, target, 0.005, 5)
        assert builds == measured == [64]


class TestStackedDraws:
    """Stacked draws build each seed's dictionary with the bytes of the per-seed oracle."""

    @pytest.mark.parametrize("chunk", [8, 3])
    def test_barrier_grid_bytes(self, monkeypatch, chunk):
        # chunk 3 splits the 8 trials into jobs of 3, 3 and 2, each blended to all 25 targets
        monkeypatch.setattr(sss, "_STACK_BYTES", chunk * 8 * 128 * 64)
        drawn, stacks = {}, []

        def drawing(dim, n_atoms, seeds):
            bases = blend_bases(dim, n_atoms, seeds)
            drawn[id(bases)] = (dim, n_atoms, seeds)
            return bases

        def recording(bases, targets, tol):
            for target, built in zip(targets, coherent_dictionaries(bases, targets, tol)):
                stacks.append((drawn[id(bases)], target, built))
                yield built

        monkeypatch.setattr(sss, "blend_bases", drawing)
        monkeypatch.setattr(sss, "coherent_dictionaries", recording)
        sss.barrier_sweep(128, 64, 6, BARRIER_GRID, trials=8, seed=42)
        jobs = [list(range(8))] if chunk == 8 else [[0, 1, 2], [3, 4, 5], [6, 7]]
        assert [(seeds, target) for (_, _, seeds), target, _ in stacks] == [
            ([rng.derive_state(42, "barrier", t, 0) for t in ts], target)
            for ts in jobs for target in BARRIER_GRID]
        for (dim, n_atoms, seeds), target, (dictionaries, measured) in stacks:
            for seed, d, mu in zip(seeds, dictionaries, measured):
                ref = all_pairs_coherent_dictionary(dim, n_atoms, target, seed)
                assert d.data.tobytes() == ref.data.tobytes()
                assert mu == mutual_coherence(ref)

    def test_sweep_draws_each_base_once(self, monkeypatch):
        # one draw per job, whose bases every target reads and none writes
        monkeypatch.setattr(sss, "_STACK_BYTES", 3 * 8 * 128 * 64)
        draws, stacks = [], []

        def counting(gens, dim, n):
            draws.append(len(gens))
            return _haar_columns(gens, dim, n)

        def recording(bases, targets, tol):
            for target, built in zip(targets, coherent_dictionaries(bases, targets, tol)):
                stacks.append((target, built[0]))
                yield built

        monkeypatch.setattr(dictgen, "_haar_columns", counting)
        monkeypatch.setattr(sss, "coherent_dictionaries", recording)
        sss.barrier_sweep(128, 64, 6, BARRIER_GRID, trials=8, seed=42)
        assert draws == [3, 3, 2]
        trials = [t for ts in ([0, 1, 2], [3, 4, 5], [6, 7]) for _ in BARRIER_GRID for t in ts]
        built = [(target, d) for target, dictionaries in stacks for d in dictionaries]
        assert len(built) == len(trials) == 8 * len(BARRIER_GRID)
        for t, (target, d) in zip(trials, built):
            (base,), (u,), _ = blend_bases(128, 64, [rng.derive_state(42, "barrier", t, 0)])
            ref = UnitDictionary(base) if target == 0.0 else all_pairs_blend(base, u, target)
            assert d.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("n_atoms", [2, 3, 4, 5])
    def test_few_atoms_bytes(self, n_atoms):
        # _extreme_entries returns every entry of a up to N = 4
        for gi, target in enumerate(BARRIER_GRID):
            seeds = [rng.derive_state(42, "barrier", gi, t, 0) for t in range(8)]
            bases = blend_bases(16, n_atoms, seeds)
            [(dictionaries, _)] = coherent_dictionaries(bases, [target], 0.005)
            for seed, d in zip(seeds, dictionaries):
                ref = all_pairs_coherent_dictionary(16, n_atoms, target, seed)
                assert d.data.tobytes() == ref.data.tobytes()

    def test_bisection_squares_with_pow(self):
        # (1 - t) ** 2 squared with a multiply, as numpy squares arrays, moves this one by 1.1e-16
        seed = rng.derive_state(777, "barrier", 14, 15, 0)
        [([d], _)] = coherent_dictionaries(blend_bases(128, 64, [seed]), [BARRIER_GRID[14]], 0.005)
        ref = all_pairs_coherent_dictionary(128, 64, BARRIER_GRID[14], seed)
        assert d.data.tobytes() == ref.data.tobytes()

    def test_bases_are_read_only(self):
        # every target blends the same bases, so no call may write into them
        base, u, a = blend_bases(16, 8, [1, 2])
        for x in (base, u, a):
            with pytest.raises(ValueError):
                x[0] = 0.0
        assert (a >= 0.0).all()
        np.testing.assert_array_equal(a, (base.transpose(0, 2, 1) @ u[..., None])[..., 0])


# Values x where the multiply x * x rounds differently from libm pow(x, 2).
MULTIPLY_MISSES = [0.8172877423377221, 0.6652694415317056, 0.2690027627898468,
                   0.4770965117628909, 0.5419105676690009]
NEAR_CEILING = [0.999, 1.0 - 1e-9, 1.0 - 1e-13]


def built_until_error(bases, targets, tol):
    """The byte strings of each stack coherent_dictionaries yields, and the message that ends it."""
    built = []
    try:
        for dictionaries, measured in coherent_dictionaries(bases, targets, tol):
            built.append(([d.data.tobytes() for d in dictionaries], measured))
    except UnreachableError as exc:
        return built, str(exc)
    return built, None


class TestStackErrors:
    def test_tol_miss_raises_at_the_earliest_miss_of_any_seed(self):
        # a tol a few ULP wide: the stack stops at the first target one of its seeds misses alone
        seeds = [rng.derive_state(42, "barrier", t, 0) for t in range(8)]
        tol = 4e-16
        built, message = built_until_error(blend_bases(128, 64, seeds), BARRIER_GRID, tol)
        alone = [len(built_until_error(blend_bases(128, 64, [s]), BARRIER_GRID, tol)[0])
                 for s in seeds]
        assert 0 < len(built) == min(alone) < len(BARRIER_GRID)
        assert message == f"bisection missed coherence {BARRIER_GRID[min(alone)]} within tol {tol}"


class TestLaneBisection:
    """The lane route bisects every (target, base) lane at once, with the scalar loop's bytes."""

    def test_float_power_squares_with_pow(self):
        # the lane route keeps the scalar bytes only while np.float_power calls libm pow
        x = 1.0 - np.random.default_rng(0).random(200_000)
        assert np.float_power(x, 2.0).tolist() == [v ** 2 for v in x.tolist()]
        for v in MULTIPLY_MISSES:
            assert v * v != v ** 2
            assert float(np.float_power(np.array([v]), 2.0)[0]) == v ** 2

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_lane_coherence_matches_scalar(self, width):
        gen = np.random.default_rng(width)
        ts = np.concatenate([gen.random(20_000), 1.0 - np.array(MULTIPLY_MISSES),
                             1.0 - np.logspace(-1, -9, 9), [1e-12, 0.5]])
        ext = np.sort(gen.random((ts.size, width)), axis=1)
        lanes = _lane_coherence(ext.T, ts)
        scalar = [_blend_coherence(row, t) for row, t in zip(ext.tolist(), ts.tolist())]
        assert lanes.tolist() == scalar

    @pytest.mark.parametrize("dim, n_atoms", [(16, 2), (16, 3), (16, 4), (16, 5), (128, 64)])
    def test_lanes_match_scalar_and_all_pairs(self, monkeypatch, dim, n_atoms):
        # widths 2, 3 and 4 of the extreme entries, every barrier target and the near-ceiling ones
        seeds = [rng.derive_state(42, "barrier", t, 0) for t in range(8)]
        bases = blend_bases(dim, n_atoms, seeds)
        targets = BARRIER_GRID[1:] + NEAR_CEILING
        ext = _extreme_entries(bases[2])
        lanes = np.tile(ext.T, len(targets)), np.repeat(targets, len(seeds))
        t = _bisect_lanes(*lanes).reshape(len(targets), len(seeds))
        assert t.tolist() == [[_bisect_blend(row, mu) for row in ext.tolist()] for mu in targets]
        built, message = built_until_error(bases, BARRIER_GRID + NEAR_CEILING, 0.005)
        assert message is None and len(built) == len(BARRIER_GRID + NEAR_CEILING)
        monkeypatch.setattr(dictgen, "_VECTOR_LANES", 10**9)
        assert built_until_error(bases, BARRIER_GRID + NEAR_CEILING, 0.005) == (built, None)
        # near the ceiling at N = 64 a pair between the extremes can round one ULP
        # above them, so the all-pairs oracle stops there at other bytes
        oracle = BARRIER_GRID + (NEAR_CEILING if n_atoms <= 5 else [])
        for target, (stack, _) in zip(oracle, built):
            for seed, data in zip(seeds, stack):
                ref = all_pairs_coherent_dictionary(dim, n_atoms, target, seed)
                assert data == ref.data.tobytes()

    @pytest.mark.parametrize("n_targets, n_bases", [
        (1, 1), (dictgen._VECTOR_LANES - 1, 1), (dictgen._VECTOR_LANES, 1), (4, 4), (6, 4)])
    def test_route_follows_lane_count(self, monkeypatch, n_targets, n_bases):
        # target 0 makes no lane; the scalar loop runs once a lane below _VECTOR_LANES
        scalar = []

        def counting(ext, target_mu):
            scalar.append(target_mu)
            return _bisect_blend(ext, target_mu)

        monkeypatch.setattr(dictgen, "_bisect_blend", counting)
        targets = [0.0] + [round(0.9 * (i + 1) / n_targets, 10) for i in range(n_targets)]
        seeds = list(range(n_bases))
        stacks = list(coherent_dictionaries(blend_bases(16, 8, seeds), targets, 0.005))
        lanes = n_targets * n_bases
        assert len(scalar) == (0 if lanes >= dictgen._VECTOR_LANES else lanes)
        for target, (dictionaries, _) in zip(targets, stacks):
            for seed, d in zip(seeds, dictionaries):
                ref = all_pairs_coherent_dictionary(16, 8, target, seed)
                assert d.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("t_max, tol", [(0.3, 0.005), (1.0 - 1e-9, 1e-18)],
                             ids=["ceiling", "tol"])
    def test_routes_raise_alike(self, monkeypatch, t_max, tol):
        # a lower t_max puts the lowest base's ceiling inside the grid, so the
        # first target above it is missed; a tol below float resolution misses
        # the first target
        monkeypatch.setattr(dictgen, "_T_MAX", t_max)
        bases = blend_bases(16, 8, [rng.derive_state(42, "barrier", t, 0) for t in range(8)])
        runs = []
        for lanes in (1, 10**9):
            monkeypatch.setattr(dictgen, "_VECTOR_LANES", lanes)
            runs.append(built_until_error(bases, BARRIER_GRID, tol))
        (built, message), scalar = runs
        assert scalar == (built, message)
        target = BARRIER_GRID[len(built)]
        assert message == f"bisection missed coherence {target} within tol {tol}"
        if tol > 1e-9:
            ceilings = [_blend_coherence(row, t_max) for row in _extreme_entries(bases[2]).tolist()]
            assert BARRIER_GRID[len(built) - 1] <= min(ceilings) < target


def one_planted_draw(dictionary, k, seed):
    """The planted draw on one dictionary as written before draws were stacked."""
    gen = rng.stream(seed, "planted")
    support = np.sort(gen.choice(dictionary.n_atoms, size=k, replace=False))
    coef = gen.integers(0, 2, size=k) * 2.0 - 1.0
    return support, coef, dictionary.data[:, support] @ coef


class TestPlantedSignal:
    @pytest.mark.parametrize("dim, n_atoms, k", [(128, 64, 6), (16, 4, 4), (4, 2, 1)])
    def test_stacked_draw_matches_each_matrix(self, dim, n_atoms, k):
        # each matrix of the stack draws from its own stream, with the bytes of its draw alone
        bases = blend_bases(dim, n_atoms, [rng.derive_state(42, "barrier", t, 0) for t in range(8)])
        for gi, (stack, _) in enumerate(coherent_dictionaries(bases, BARRIER_GRID[::6], 0.005)):
            seeds = [rng.derive_state(42, "barrier", gi, t, 1) for t in range(8)]
            supports, signs, vectors = planted_signals(stack, k, seeds)
            for x in (supports, signs, vectors):
                assert not x.flags.writeable
            for t, seed in enumerate(seeds):
                alone = UnitDictionary(stack.data[t])
                one = planted_signal(alone, k, seed)
                for stacked, single, old in zip((supports, signs, vectors), one,
                                                one_planted_draw(alone, k, seed)):
                    assert stacked[t].tobytes() == single.tobytes() == old.tobytes()

    def test_stacked_draw_needs_a_seed_per_matrix(self):
        stack = next(coherent_dictionaries(blend_bases(8, 4, [1, 2]), [0.2], 0.005))[0]
        with pytest.raises(InvalidShapeError, match="need one seed per dictionary"):
            planted_signals(stack, 2, [1])
        with pytest.raises(InvalidKError):
            planted_signals(stack, 5, [1, 2])

    def test_vector_is_exact_combination(self):
        d = random_orthonormal_dictionary(12, 8, seed=0)
        support, signs, vector = planted_signal(d, k=3, seed=1)
        assert support.tolist() == sorted(set(support.tolist())) and len(support) == 3
        np.testing.assert_array_equal(vector, d.data[:, support] @ signs)

    def test_rademacher_signs(self):
        d = random_orthonormal_dictionary(12, 8, seed=0)
        _, signs, _ = planted_signal(d, k=5, seed=2)
        assert set(np.abs(signs)) == {1.0}

    def test_k_out_of_range(self):
        d = random_orthonormal_dictionary(6, 4, seed=0)
        with pytest.raises(InvalidKError):
            planted_signal(d, k=0, seed=0)
        with pytest.raises(InvalidKError):
            planted_signal(d, k=5, seed=0)


class TestSyntheticClassification:
    def test_shapes_and_balance(self):
        ds = synthetic_classification(samples=40, features=12, informative=3,
                                      classes=10, class_sep=0.5, seed=0)
        assert ds.features.shape == (40, 12)
        assert ds.mixing.shape == (3, 9)
        counts = np.bincount(ds.labels, minlength=10)
        assert np.all(counts == 4)

    def test_near_balance_with_remainder(self):
        ds = synthetic_classification(samples=43, features=6, informative=2,
                                      classes=10, class_sep=0.5, seed=0)
        counts = np.bincount(ds.labels, minlength=10)
        assert counts.max() - counts.min() <= 1

    def test_redundant_block_is_exact_mixture(self):
        ds = synthetic_classification(samples=50, features=20, informative=5, seed=1)
        inf = ds.features[:, :5]
        np.testing.assert_array_equal(ds.features[:, 5:], inf @ ds.mixing)

    def test_redundant_columns_live_in_informative_span(self):
        ds = synthetic_classification(samples=60, features=15, informative=4, seed=2)
        inf = ds.features[:, :4]
        for j in range(4, 15):
            col = ds.features[:, j]
            coef, *_ = np.linalg.lstsq(inf, col, rcond=None)
            resid = col - inf @ coef
            # exact linear image: multiple correlation is 1
            assert float(resid @ resid) <= 1e-16 * float(col @ col) + 1e-18

    def test_redundancy_raises_column_coherence(self):
        ds = synthetic_classification(seed=42)
        full = mutual_coherence(normalize_columns(ds.features))
        informative_only = mutual_coherence(
            normalize_columns(ds.features[:, : ds.n_informative])
        )
        assert full > informative_only

    def test_zero_separation_defeats_linear_probe(self):
        ds = synthetic_classification(class_sep=0.0, seed=7)
        acc = linear_probe_accuracy(ds.features, ds.labels, ds.n_classes)
        assert acc <= 0.15

    def test_no_redundant_block_boundary(self):
        ds = synthetic_classification(samples=30, features=4, informative=4,
                                      classes=3, seed=0)
        assert ds.mixing.shape == (4, 0)
        assert ds.features.shape == (30, 4)

    def test_invalid_configs_rejected(self):
        with pytest.raises(InvalidConfigError):
            synthetic_classification(samples=0)
        with pytest.raises(InvalidConfigError):
            synthetic_classification(features=5, informative=6)
        with pytest.raises(InvalidConfigError):
            synthetic_classification(classes=1)
        with pytest.raises(InvalidConfigError):
            synthetic_classification(class_sep=-1.0)
        with pytest.raises(InvalidConfigError):
            synthetic_classification(samples=5, classes=10)

    def test_deterministic(self):
        a = synthetic_classification(samples=30, features=8, informative=2, seed=5)
        b = synthetic_classification(samples=30, features=8, informative=2, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestRngDerivation:
    def test_distinct_paths_decorrelate(self):
        a = rng.stream(1, "x", 0).standard_normal(4)
        b = rng.stream(1, "x", 1).standard_normal(4)
        c = rng.stream(1, "x", 0).standard_normal(4)
        np.testing.assert_array_equal(a, c)
        assert not np.array_equal(a, b)

    def test_string_and_int_tags_differ(self):
        assert rng.derive_state(0, "0") != rng.derive_state(0, 0)

    def test_known_answers(self):
        # the documented derivation rule: SplitMix64's finalizer and FNV-1a-64
        assert rng._mix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF
        assert rng._fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert rng._fnv1a64(b"foobar") == 0x85944171F73967E8
        golden, mask = 0x9E3779B97F4A7C15, (1 << 64) - 1
        state = rng._mix64(((7 + golden) & mask) ^ rng._fnv1a64(b"coherent"))
        assert rng.derive_state(7, "coherent") == state == 0x981399E1338B10DA
        assert rng.derive_state(42, "barrier", 3, 0) == 0x83035A0E24F8770E
        assert rng.derive_state(mask, "x", mask, "\u00e9") == 0x08F228A769C0ECEA
        assert rng.derive_state(0) == 0
        gen = rng.stream(42, "barrier", 3, 0)
        assert gen.bit_generator.state["state"]["key"].tolist() == [
            0x83035A0E24F8770E, rng._mix64((0x83035A0E24F8770E + golden) & mask)]
        assert gen.integers(0, 2**63, size=3).tolist() == [
            1876916650101274162, 7526065780652397772, 9109529685022004247]

    def test_rekeyed_draws_equal_fresh_streams(self):
        # one generator re-keyed per seed draws what a fresh stream(seed, *path)
        # draws, whatever the previous seed's draws left in its buffers
        def draws(gen, i):
            n = 3 + i % 60
            return [gen.choice(n, size=1 + i % n, replace=False).tolist(),
                    gen.integers(0, 2, size=1 + i % 7).tolist(),
                    gen.standard_normal(i % 5).tolist(),
                    gen.permutation(2 + i % 9).tolist(),
                    gen.integers(0, 2**40, size=i % 3).tolist()]

        paths = [("planted",), ("barrier", 3, 1), ("\u00e9", 0), ()]
        seeds = [(1 << 64) - 1 - i if i % 5 == 0 else i * 7919 for i in range(260)]
        checked = 0
        for path in paths:
            for i, (seed, gen) in enumerate(zip(seeds, rng.streams(seeds, *path))):
                assert draws(gen, i) == draws(rng.stream(seed, *path), i)
                checked += 1
        assert checked >= 1000

    def test_string_tags_hashed_once(self):
        # each distinct string tag is hashed once, to the bytes of the rule
        rng._tag_hash.cache_clear()
        for seed in range(3):
            rng.derive_state(seed, "barrier", seed, "\u00e9")
        assert rng._tag_hash.cache_info().misses == 2
        for tag in ("barrier", "\u00e9"):
            assert rng._tag_hash(tag) == rng._fnv1a64(tag.encode("utf-8"))

    def test_seed_bounds(self):
        with pytest.raises(InvalidConfigError):
            rng.check_seed(-1)
        with pytest.raises(InvalidConfigError):
            rng.check_seed(1 << 64)
