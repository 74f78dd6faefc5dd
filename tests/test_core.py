"""Dictionary types, coherence, least squares on supports, and the shared input checks."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from moegeo import core, errors
from moegeo.core import (
    DictionaryStack,
    SparseSolution,
    UnitDictionary,
    _frozen_array,
    check_indices,
    check_vector,
    k_subsets,
    least_squares_on_support,
    mutual_coherence,
    normalize_columns,
    softmax_rows,
    topk_indices,
)
from moegeo.diversity import Kernel, marginal_gain
from moegeo.errors import InvalidShapeError, MoegeoError, SingularGramError, ZeroColumnError


def lstsq_oracle(dictionary, y, support):
    """Independent solver: numpy lstsq straight on the subdictionary."""
    cols = dictionary.data[:, list(support)]
    coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
    res = y - cols @ coef
    return coef, float(res @ res)


class TestNormalizeColumns:
    def test_unit_columns_pass_through(self):
        m = np.eye(4)[:, :3]
        d = normalize_columns(m)
        np.testing.assert_allclose(d.data, m, atol=0)

    def test_scaling_removed(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((6, 4)) * np.array([1e-3, 1.0, 40.0, 7.0])
        d = normalize_columns(m)
        np.testing.assert_allclose(np.linalg.norm(d.data, axis=0), 1.0, atol=1e-12)

    def test_zero_column_rejected_with_index(self):
        m = np.eye(4)[:, :3].copy()
        m[:, 2] = 0.0
        with pytest.raises(ZeroColumnError) as err:
            normalize_columns(m)
        assert err.value.index == 2

    def test_non_matrix_rejected(self):
        with pytest.raises(InvalidShapeError):
            normalize_columns(np.ones(5))


class TestUnitDictionary:
    def test_rejects_non_unit_columns(self):
        with pytest.raises(InvalidShapeError,
                           match=r"^column 0 has norm 2\.0, expected 1 within 1e-10$"):
            UnitDictionary(2.0 * np.eye(3))

    def test_rejects_single_atom(self):
        with pytest.raises(InvalidShapeError):
            UnitDictionary(np.ones((3, 1)))

    def test_rejects_non_finite(self):
        m = np.eye(3).copy()
        m[0, 0] = np.nan
        with pytest.raises(InvalidShapeError):
            UnitDictionary(m)

    def test_data_is_read_only(self):
        d = UnitDictionary(np.eye(3))
        with pytest.raises(ValueError):
            d.data[0, 0] = 2.0

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_unit_check_reads_the_gram_diagonal(self, ndim):
        # the column norms are the square roots of the Gram's diagonal, held to 1 within 1e-10
        base = np.linalg.qr(np.random.default_rng(4).standard_normal((6, 5)))[0]

        def build(scale=1.0, entry=None):
            m = base.copy()
            m[:, 3] *= scale
            if entry is not None:
                m[2, 1] = entry
            return UnitDictionary(m) if ndim == 2 else DictionaryStack(np.stack([base, m]))

        near = build(1.0 + 5e-11)
        g = near.gram if ndim == 2 else near.gram[1]
        assert abs(np.sqrt(g[3, 3]) - 1.0) <= 1e-10
        for scale in (1.0 + 2e-10, 2.0):
            with pytest.raises(InvalidShapeError,
                               match=r"^column 3 has norm [0-9.]+, expected 1 within 1e-10$"):
                build(scale)
        for entry in (np.nan, np.inf):
            with pytest.raises(InvalidShapeError, match="^dictionary contains non-finite entries$"):
                build(entry=entry)

    def test_gram_is_cached_read_only_and_bit_equal(self):
        d = normalize_columns(np.random.default_rng(5).standard_normal((9, 7)))
        assert d.gram is d.gram
        assert not d.gram.flags.writeable
        with pytest.raises(ValueError):
            d.gram[0, 0] = 2.0
        assert d.gram.tobytes() == (d.data.T @ d.data).tobytes()


def first_alone_error(stack):
    """The message of the one-pass stack check: a non-finite entry anywhere first, then
    the shape, then the one UnitDictionary raises alone on the first matrix it refuses."""
    if not np.isfinite(stack).all():
        return "dictionary contains non-finite entries"
    for m in stack:
        try:
            UnitDictionary(m)
        except InvalidShapeError as exc:
            return str(exc)
    return None


class TestDictionaryStack:
    def unit_stack(self, t=4, d=6, n=5):
        m = np.random.default_rng(9).standard_normal((t, d, n))
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    @pytest.mark.parametrize("plant", [
        {2: "nan"}, {3: "inf"}, {1: "norm"}, {1: "norm", 3: "nan"}, {0: "nan", 1: "norm"},
        {2: "norm", 0: "norm"}, {1: "zero", 2: "nan"},
    ])
    def test_rejects_what_the_first_bad_matrix_alone_rejects(self, plant):
        # the checks run once for the stack: a non-finite entry in any matrix
        # before every norm, else the message the first bad-norm matrix raises alone
        stack = self.unit_stack()
        for t, kind in plant.items():
            if kind == "nan":
                stack[t, 1, 4] = np.nan
                stack[t, 0, 0] *= 3.0
            elif kind == "inf":
                stack[t, 5, 2] = -np.inf
            elif kind == "norm":
                stack[t, :, t + 1] *= 1.0 + 1e-9 * (t + 1)
            else:
                stack[t, :, 3] = 0.0
        expected = first_alone_error(stack)
        assert expected is not None
        with pytest.raises(InvalidShapeError) as raised:
            DictionaryStack(stack)
        assert str(raised.value) == expected

    def test_messages_are_those_of_unit_dictionary(self):
        stack = self.unit_stack()
        stack[1, 2, 3] = np.nan
        with pytest.raises(InvalidShapeError, match="^dictionary contains non-finite entries$"):
            DictionaryStack(stack)
        stack = self.unit_stack()
        stack[2, :, 4] *= 2.0
        with pytest.raises(InvalidShapeError,
                           match=r"^column 4 has norm 2\.0\d*, expected 1 within 1e-10$"):
            DictionaryStack(stack)
        with pytest.raises(InvalidShapeError, match="expected 3-d array"):
            DictionaryStack(np.eye(3))
        with pytest.raises(InvalidShapeError, match="needs d >= 1 and N >= 2, got 3 x 1"):
            DictionaryStack(np.ones((2, 3, 1)))

    @pytest.mark.parametrize("t, d, n", [(3, 4, 9), (2, 1, 2), (4, 16, 16)])
    def test_gram_slices_keep_the_bytes_of_each_matrix_alone(self, t, d, n):
        # N > d, d = 1 and N = d: the stacked product and each matrix's 2-D syrk agree
        stack = DictionaryStack(self.unit_stack(t=t, d=d, n=n))
        for i in range(t):
            assert stack[i].gram.tobytes() == UnitDictionary(stack.data[i]).gram.tobytes()

    def test_gram_and_coherence_are_each_matrix_own(self):
        stack = DictionaryStack(self.unit_stack(t=5, d=128, n=64))
        assert not stack.data.flags.writeable and not stack.gram.flags.writeable
        assert stack.gram is stack.gram
        alone = [UnitDictionary(m) for m in stack.data]
        assert len(stack) == 5 and (stack.dim, stack.n_atoms) == (128, 64)
        for t, d in enumerate(alone):
            # stack[t] copies nothing
            view = stack[t]
            assert np.shares_memory(view.data, stack.data) and np.shares_memory(view.gram, stack.gram)
            assert not view.data.flags.writeable and not view.gram.flags.writeable
            assert stack.gram[t].tobytes() == view.gram.tobytes() == d.gram.tobytes()
        assert mutual_coherence(stack) == [mutual_coherence(d) for d in alone]


class TestMutualCoherence:
    def test_orthonormal_is_zero(self):
        assert mutual_coherence(UnitDictionary(np.eye(5))) <= 1e-10

    def test_duplicated_atom_is_one(self):
        v = np.array([3.0, 4.0]) / 5.0
        d = UnitDictionary(np.stack([v, v, np.array([0.0, 1.0])], axis=1))
        assert mutual_coherence(d) == pytest.approx(1.0, abs=1e-12)

    def test_pair_at_known_angle(self):
        theta = 0.3
        a = np.array([1.0, 0.0])
        b = np.array([np.cos(theta), np.sin(theta)])
        d = UnitDictionary(np.stack([a, b], axis=1))
        assert mutual_coherence(d) == pytest.approx(np.cos(theta), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = normalize_columns(rng.standard_normal((8, 12)))
            mu = mutual_coherence(d)
            assert 0.0 <= mu <= 1.0

    @pytest.mark.parametrize("shape", [(8, 12), (32, 16), (256, 256)])
    def test_matches_gram_formed_in_place(self, shape):
        d = normalize_columns(np.random.default_rng(6).standard_normal(shape))
        g = np.abs(d.data.T @ d.data)
        np.fill_diagonal(g, 0.0)
        assert mutual_coherence(d) == float(min(g.max(), 1.0))


def refit_2d(data, y, support):
    """One pair's refit as the 2-D route writes it: Gram, rhs, Cholesky, both
    solves, fit and the residual's |correlation| with every atom."""
    cols = data[:, support]
    gram, rhs = cols.T @ cols, cols.T @ y
    chol = np.linalg.cholesky(gram)
    z = np.linalg.solve(chol, rhs)
    coef = np.linalg.solve(chol.T, z)
    fit = cols @ coef
    return gram, rhs, chol, z, coef, fit, np.abs(data.T @ (y - fit))


def refit_stacked(data, pairs, ys, supports):
    """refit_2d for every pair at once, the support columns gathered as (P, m, d)."""
    cols = data[pairs[:, None], :, supports]
    gram, rhs = cols @ cols.transpose(0, 2, 1), (cols @ ys[..., None])[..., 0]
    chol = np.linalg.cholesky(gram)
    z = np.linalg.solve(chol, rhs[..., None])
    coef = np.linalg.solve(chol.transpose(0, 2, 1), z)[..., 0]
    fit = (cols.transpose(0, 2, 1) @ coef[..., None])[..., 0]
    scores = np.abs((data[pairs].transpose(0, 2, 1) @ (ys - fit)[..., None])[..., 0])
    return gram, rhs, chol, z[..., 0], coef, fit, scores


class TestLeastSquaresOnSupport:
    def test_stacked_gather_refit_keeps_2d_bytes(self):
        # OMP's refit route runs as a stack only while a (P, m, d) gather, the
        # layout of the 2-D gather data[:, support], rounds every step as the
        # 2-D route does; a C-order (P, d, m) gather does not
        gen = np.random.default_rng(29)
        cases = 0
        for shape in ("m=1", "m=d", "N>d", "any") * 150:
            d = int(gen.integers(1, 13))
            n = int(gen.integers(d + 1, 24)) if shape == "N>d" else int(gen.integers(max(d, 2), 24))
            m = 1 if shape == "m=1" else d if shape == "m=d" else int(gen.integers(1, min(d, n) + 1))
            t = int(gen.integers(1, 6))
            data = gen.standard_normal((t, d, n))
            data /= np.linalg.norm(data, axis=1, keepdims=True)
            pairs = np.sort(gen.choice(t, size=int(gen.integers(1, t + 1)), replace=False))
            ys = gen.standard_normal((len(pairs), d))
            supports = np.sort([gen.choice(n, size=m, replace=False) for _ in pairs], axis=1)
            stacked = refit_stacked(data, pairs, ys, supports)
            coef, rhs, fit, ok = core.least_squares_on_supports(data, pairs, ys, supports)
            assert ok.all()
            assert [coef.tobytes(), rhs.tobytes(), fit.tobytes()] == [
                stacked[4].tobytes(), stacked[1].tobytes(), stacked[5].tobytes()]
            for p, (pair, y, support) in enumerate(zip(pairs, ys, supports)):
                alone = refit_2d(data[pair], y, support)
                assert [x[p].tobytes() for x in stacked] == [x.tobytes() for x in alone]
                cases += 1
        assert cases >= 1000

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dim = rng.integers(4, 16)
            n = rng.integers(2, dim + 1)
            d = normalize_columns(rng.standard_normal((dim, n)))
            k = rng.integers(1, min(4, n) + 1)
            support = tuple(sorted(rng.choice(n, size=k, replace=False)))
            y = rng.standard_normal(dim)
            sol = least_squares_on_support(d, y, support)
            coef, res = lstsq_oracle(d, y, support)
            np.testing.assert_allclose(sol.coefficients, coef, atol=1e-9)
            assert sol.residual_sq == pytest.approx(res, abs=1e-8, rel=1e-8)

    def test_exact_sparse_target_recovers_coefficients(self):
        rng = np.random.default_rng(3)
        d = normalize_columns(rng.standard_normal((10, 6)))
        support = (1, 4)
        truth = np.array([2.0, -3.0])
        y = d.data[:, list(support)] @ truth
        sol = least_squares_on_support(d, y, support)
        np.testing.assert_allclose(sol.coefficients, truth, atol=1e-10)
        assert sol.residual_sq <= 1e-10

    def test_residual_matches_direct_evaluation(self):
        rng = np.random.default_rng(5)
        d = normalize_columns(rng.standard_normal((12, 8)))
        y = rng.standard_normal(12)
        sol = least_squares_on_support(d, y, (0, 3, 7))
        direct = y - d.data[:, [0, 3, 7]] @ sol.coefficients
        assert sol.residual_sq == pytest.approx(float(direct @ direct), rel=1e-8)

    def test_duplicated_atom_support_is_singular(self):
        v = np.array([1.0, 0.0, 0.0])
        d = UnitDictionary(np.stack([v, v, np.array([0.0, 1.0, 0.0])], axis=1))
        with pytest.raises(SingularGramError) as err:
            least_squares_on_support(d, np.ones(3), (0, 1))
        assert err.value.support == (0, 1)

    def test_growing_support_never_hurts(self):
        # Adding atoms enlarges the projection subspace.
        rng = np.random.default_rng(17)
        for _ in range(100):
            d = normalize_columns(rng.standard_normal((16, 10)))
            y = rng.standard_normal(16)
            small = tuple(sorted(rng.choice(10, size=2, replace=False)))
            extra = [i for i in range(10) if i not in small]
            big = tuple(sorted(small + tuple(rng.choice(extra, size=2, replace=False))))
            res_small = least_squares_on_support(d, y, small).residual_sq
            res_big = least_squares_on_support(d, y, big).residual_sq
            assert res_small >= res_big - 1e-9

    def test_bad_supports_rejected(self):
        d = UnitDictionary(np.eye(4))
        y = np.ones(4)
        with pytest.raises(InvalidShapeError):
            least_squares_on_support(d, y, ())
        with pytest.raises(InvalidShapeError):
            least_squares_on_support(d, y, (0, 0))
        with pytest.raises(InvalidShapeError):
            least_squares_on_support(d, y, (0, 4))
        with pytest.raises(InvalidShapeError):
            least_squares_on_support(d, np.ones(3), (0,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        d = UnitDictionary(np.eye(4))
        y = np.array([1.0, bad, 0.0, 0.0])
        with pytest.raises(InvalidShapeError, match="^target contains non-finite entries$"):
            least_squares_on_support(d, y, (0, 2))


def solve_gram_matrix_by_matrix(gram, rhs):
    """The stack's solve with every Gram factored alone, as the loop that
    halving replaced did after a refusal: a refused Gram's factor is NaN."""
    chol = np.full(gram.shape, np.nan)
    for i in range(len(gram)):
        try:
            chol[i] = np.linalg.cholesky(gram[i])
        except np.linalg.LinAlgError:
            pass
    pivots = np.diagonal(chol, axis1=-2, axis2=-1) ** 2
    ok = pivots.min(axis=-1) >= core._PIVOT_RTOL * pivots.max(axis=-1)
    chol = np.where(ok[:, None, None], chol, np.eye(gram.shape[-1]))
    z = np.linalg.solve(chol, rhs[..., None])
    return np.linalg.solve(chol.swapaxes(-1, -2), z)[..., 0], ok


class TestSolveGramHalving:
    """A stack that Cholesky refuses is split in halves down to the refused Grams."""

    @staticmethod
    def stack(count, refused, seed):
        """(gram, rhs): well-posed 4 x 4 Grams, but indefinite at the refused indices,
        which Cholesky refuses, and singular within the pivot guard at 2, 7, 12, ..."""
        gen = np.random.default_rng(seed)
        cols = gen.standard_normal((count, 4, 6))
        gram = cols @ cols.transpose(0, 2, 1)
        guarded = np.arange(2, count, 5)
        gram[guarded, 3, :] = gram[guarded, :, 3] = 0.0
        gram[guarded, 3, 3] = 1e-30  # factors, but its pivots fail the guard
        gram[refused, 0, 0] = -1.0
        return gram, gen.standard_normal((count, 4))

    @pytest.mark.parametrize("count, refused", [
        (64, []), (64, [37]), (64, [0, 1, 20, 63]), (64, list(range(64))), (1, [0]),
        (7, [6]), (33, list(range(0, 33, 3))),
    ], ids=["none", "one", "several", "all", "single", "odd-last", "every-third"])
    def test_matches_matrix_by_matrix_oracle(self, monkeypatch, count, refused):
        gram, rhs = self.stack(count, refused, seed=count + len(refused))
        alone_refused = []
        for i in range(count):
            try:
                np.linalg.cholesky(gram[i])
            except np.linalg.LinAlgError:
                alone_refused.append(i)
        assert alone_refused == refused
        want_x, want_ok = solve_gram_matrix_by_matrix(gram, rhs)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
        x, ok = core._solve_gram(gram, rhs)
        assert ok.tolist() == want_ok.tolist()
        assert not ok[refused].any() and not ok[2::5].any()
        assert x.tobytes() == want_x.tobytes()
        bound = 1 + 2 * len(refused) * math.ceil(math.log2(count))
        assert len(calls) <= min(bound, 2 * count - 1), len(calls)

    def test_one_refused_gram_in_a_large_stack_is_found_in_few_calls(self, monkeypatch):
        gram, rhs = self.stack(1024, [700], seed=3)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
        ok = core._solve_gram(gram, rhs)[1]
        assert not ok[700] and len(calls) == 1 + 2 * 10

    def test_single_gram(self):
        gram, rhs = self.stack(3, [1], seed=5)
        for i in range(3):
            x, ok = core._solve_gram(gram[i], rhs[i])
            want_x, want_ok = solve_gram_matrix_by_matrix(gram[i:i + 1], rhs[i:i + 1])
            assert bool(ok) == bool(want_ok[0]) and x.tobytes() == want_x[0].tobytes()


class TestKSubsets:
    @pytest.mark.parametrize("n, k", [(1, 1), (5, 1), (6, 3), (9, 4), (12, 6), (7, 7)])
    @pytest.mark.parametrize("chunk", [1, 3, 7, None])
    def test_lexicographic_chunks(self, monkeypatch, n, k, chunk):
        if chunk is not None:
            monkeypatch.setattr(core, "_STACK_BYTES", chunk * 8 * k * k)
        rows = chunk or core._STACK_BYTES // (8 * k * k)
        chunks = list(k_subsets(n, k))
        assert all(c.dtype == np.intp and c.shape[1] == k for c in chunks)
        assert [len(c) for c in chunks[:-1]] == [rows] * (len(chunks) - 1)
        assert 1 <= len(chunks[-1]) <= rows
        assert [tuple(s) for c in chunks for s in c.tolist()] == \
            list(itertools.combinations(range(n), k))

    def test_guard_raises_before_any_subset(self, monkeypatch):
        # with no itertools to form subsets from, only the guard can raise
        monkeypatch.setattr(core, "itertools", None)
        with pytest.raises(errors.TooLargeError, match=r"^C\(30,15\) = 155117520 subsets "
                                                       r"exceeds 10000000$"):
            next(k_subsets(30, 15))


class TestSparseSolution:
    def test_rejects_negative_residual(self):
        with pytest.raises(InvalidShapeError):
            SparseSolution(support=(0,), coefficients=np.array([1.0]), residual_sq=-1.0)

    def test_rejects_misaligned_coefficients(self):
        with pytest.raises(InvalidShapeError):
            SparseSolution(support=(0, 1), coefficients=np.array([1.0]), residual_sq=0.0)


class TestCheckIndices:
    def test_keeps_order_and_returns_ints(self):
        idx = check_indices(np.array([5, 2, 9]), 10)
        assert idx == (5, 2, 9)
        assert all(type(i) is int for i in idx)

    def test_rejects_a_repeat(self):
        with pytest.raises(InvalidShapeError, match="^support has repeated indices$"):
            check_indices([3, 1, 3])

    @pytest.mark.parametrize("indices", [[0, 4], [-1, 2]])
    def test_rejects_out_of_range_given_n(self, indices):
        with pytest.raises(InvalidShapeError, match=r"^support indices must lie in \[0, 4\)$"):
            check_indices(indices, 4)

    def test_no_upper_bound_without_n(self):
        assert check_indices([7, 100]) == (7, 100)
        assert check_indices([]) == ()
        with pytest.raises(InvalidShapeError):
            check_indices([-1])


class TestCheckVector:
    @pytest.mark.parametrize("y", [np.ones(4), np.ones((3, 1)), 1.0])
    def test_rejects_a_wrong_shape(self, y):
        with pytest.raises(InvalidShapeError, match="^target must be a vector of length 3"):
            check_vector(y, 3)

    def test_rejects_nan(self):
        with pytest.raises(InvalidShapeError, match="^target contains non-finite entries$"):
            check_vector([0.0, np.nan, 1.0], 3)


class TestFrozenArray:
    def test_named_copy_is_read_only(self):
        src = np.arange(4.0)
        a = _frozen_array(src, name="weights")
        assert not a.flags.writeable and a is not src
        src[0] = 9.0
        assert a[0] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_error_names_the_array(self, bad):
        with pytest.raises(InvalidShapeError, match="^weights contains non-finite entries$"):
            _frozen_array([1.0, bad], name="weights")

    def test_unnamed_array_skips_the_finite_check(self):
        assert np.isnan(_frozen_array([np.nan])[0])

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, None])
    def test_read_only_contiguous_array_of_the_dtype_is_held(self, dtype):
        src = np.arange(6, dtype=np.int64 if dtype is np.int64 else np.float64).reshape(2, 3)
        src.setflags(write=False)
        assert _frozen_array(src, dtype=dtype, ndim=2, name="weights") is src

    @pytest.mark.parametrize("make", [
        lambda a: a,                                   # writeable
        lambda a: _read_only(a[:, ::2]),               # not C-contiguous
        lambda a: _read_only(a.astype(np.float32)),    # another dtype
    ], ids=["writeable", "strided", "float32"])
    def test_anything_else_is_copied_and_checked(self, make):
        base = np.arange(8.0).reshape(2, 4)
        src = make(base)
        a = _frozen_array(src, name="weights")
        assert a is not src and not a.flags.writeable and a.flags.c_contiguous
        assert a.dtype == np.float64 and a.tobytes() == np.asarray(src, dtype=float).tobytes()
        bad = base.copy()
        bad[0, 0] = np.nan
        with pytest.raises(InvalidShapeError, match="^weights contains non-finite entries$"):
            _frozen_array(make(bad), name="weights")

    def test_held_array_keeps_its_checks(self):
        src = _read_only(np.array([[1.0, np.inf]]))
        with pytest.raises(InvalidShapeError, match="^weights contains non-finite entries$"):
            _frozen_array(src, name="weights")
        with pytest.raises(InvalidShapeError, match="^expected 1-d array, got shape"):
            _frozen_array(src, ndim=1)


def topk_by_wrappers(scores, k):
    """The np.argsort / np.sort form that topk_indices replaced, kept as its oracle."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    return np.sort(order[..., :k], axis=-1)


def softmax_by_temporaries(z):
    """The out-of-place form that softmax_rows replaced, kept as its oracle."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def routing_inputs():
    """1-D rows, 2-D batches, a barrier-shaped (T, N) stack of |correlations| and a
    (B, k, C) block, each also drawn from three values so that exact ties abound;
    then E = 2, signed zeros, all-tied rows and rows holding NaN, +inf or -inf,
    all -inf included, as 1-D, 2-D and 3-D inputs."""
    rng = np.random.default_rng(61)
    yield rng.standard_normal(7)
    yield rng.standard_normal((128, 16))
    yield np.abs(rng.standard_normal((8, 64)))
    yield rng.standard_normal((5, 3, 4))
    yield rng.integers(0, 3, 9).astype(float)
    yield rng.integers(0, 3, (40, 6)).astype(float)
    yield np.abs(rng.integers(-2, 3, (8, 64))).astype(float)
    yield rng.standard_normal((33, 2))
    yield rng.integers(0, 2, (3, 4, 2)).astype(float)
    signed_zeros = np.array([[-0.0, 0.0, -0.0, -1.0], [0.0, -0.0, -0.0, 0.0],
                             [-1.0, -0.0, 0.0, -0.0], [-0.0, -0.0, -0.0, -0.0]])
    yield signed_zeros
    yield signed_zeros[2]
    yield np.full((6, 5), 0.2)
    yield np.full((2, 3, 2), -0.5)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0])
    yield special[rng.integers(0, 6, (200, 5))]
    yield special[rng.integers(0, 6, (20, 3, 2))]
    yield special[rng.integers(0, 6, (400, 2))]
    yield np.array([[np.nan, 1.0, 2.0, np.nan], [1.0, np.inf, 3.0, np.inf],
                    [-np.inf, -np.inf, -np.inf, -np.inf], [5.0, -np.inf, -np.inf, -np.inf],
                    [-np.inf, -np.inf, -np.inf, 5.0], [np.nan, np.nan, np.nan, np.nan]])
    yield np.array([-np.inf, 2.0, -np.inf])
    yield np.full((2, 2, 3), -np.inf)


class TestRoutingPrimitivesAgainstReplacedForms:
    def test_topk_matches_replaced_form_for_every_k(self):
        for scores in routing_inputs():
            for k in range(1, scores.shape[-1] + 1):
                got, want = topk_indices(scores, k), topk_by_wrappers(scores, k)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.flags.c_contiguous and got.tobytes() == want.tobytes(), k

    def test_ties_go_to_the_lower_index(self):
        scores = np.array([[1.0, 2.0, 2.0, 1.0, 2.0], [0.0, 0.0, 0.0, 0.0, 0.0],
                           [3.0, 1.0, 3.0, 3.0, -0.0]])
        assert topk_indices(scores, 2).tolist() == [[1, 2], [0, 1], [0, 2]]
        assert topk_indices(scores, 4).tolist() == [[0, 1, 2, 4], [0, 1, 2, 3], [0, 1, 2, 3]]
        assert topk_indices(scores[1], 3).tolist() == [0, 1, 2]

    def test_argmax_route_agrees_on_finite_rows_of_non_finite_batches(self):
        # the argmax passes run only on all-finite input; a batch with one
        # non-finite row takes the argsort, and its finite rows must agree
        rng = np.random.default_rng(67)
        scores = rng.integers(0, 3, (64, 4)).astype(float)
        for k in (1, 2):
            finite = topk_indices(scores, k)
            spoiled = scores.copy()
            spoiled[-1, 0] = np.nan
            assert topk_indices(spoiled, k)[:-1].tobytes() == finite[:-1].tobytes()

    def test_softmax_matches_replaced_form(self):
        for z in routing_inputs():
            with np.errstate(invalid="ignore"):  # inf - inf in the rows with infinities
                got, want = softmax_rows(z), softmax_by_temporaries(z)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_softmax_leaves_a_read_only_input_unchanged(self):
        for z in routing_inputs():
            before = z.tobytes()
            z.setflags(write=False)
            with np.errstate(invalid="ignore"):
                p = softmax_rows(z)
            assert z.tobytes() == before and p.flags.writeable and p is not z

    def test_topk_leaves_a_read_only_input_unchanged(self):
        # the second argmax pass masks a copy, never the scores
        for z in routing_inputs():
            before = z.tobytes()
            z.setflags(write=False)
            for k in (1, 2):
                topk_indices(z, k)
            assert z.tobytes() == before


def _read_only(a):
    a.setflags(write=False)
    return a


class TestMarginalGainChecks:
    @pytest.mark.parametrize("subset, e", [([0, 2], 2), ([1], 5), ([1], -1), ([1, 1], 3)])
    def test_bad_element_or_subset_rejected(self, subset, e):
        kernel = Kernel(UnitDictionary(np.eye(5)))
        with pytest.raises(InvalidShapeError):
            marginal_gain(kernel, subset, e)


def _program_trees():
    """(file name, syntax tree) of every module in the moegeo package."""
    for path in sorted(Path(core.__file__).resolve().parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


class TestTypedErrors:
    """Every failure the library raises is typed, and no assert does a runtime job."""

    def test_every_raise_names_a_moegeo_error(self):
        # cli._coerce raises bare ValueErrors and turns them into InvalidConfigError itself
        allowed = {("cli.py", "_coerce", "ValueError")}
        untyped = []
        for name, tree in _program_trees():
            owner = {}
            # ast.walk is breadth first, so the innermost function is recorded last
            for func in ast.walk(tree):
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owner.update((id(node), func.name) for node in ast.walk(func))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Raise):
                    continue
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised = getattr(exc, "id", getattr(exc, "attr", None))
                typed = isinstance(getattr(errors, str(raised), None), type) and \
                    issubclass(getattr(errors, raised), MoegeoError)
                if not typed and (name, owner.get(id(node)), raised) not in allowed:
                    untyped.append(f"{name}:{node.lineno} raises {raised}")
        assert untyped == []

    def test_no_assert_statements(self):
        asserts = [f"{name}:{node.lineno}" for name, tree in _program_trees()
                   for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == []
