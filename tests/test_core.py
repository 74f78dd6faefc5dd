"""Dictionary types, coherence, and least squares on supports."""

import numpy as np
import pytest

from moegeo.core import (
    SparseSolution,
    UnitDictionary,
    least_squares_on_support,
    mutual_coherence,
    normalize_columns,
)
from moegeo.errors import InvalidShapeError, SingularGramError, ZeroColumnError


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


class TestLeastSquaresOnSupport:
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


class TestSparseSolution:
    def test_rejects_negative_residual(self):
        with pytest.raises(InvalidShapeError):
            SparseSolution(support=(0,), coefficients=np.array([1.0]), residual_sq=-1.0)

    def test_rejects_misaligned_coefficients(self):
        with pytest.raises(InvalidShapeError):
            SparseSolution(support=(0, 1), coefficients=np.array([1.0]), residual_sq=0.0)
