"""Unit-norm dictionaries, least squares on supports, and shared primitives.

A dictionary here is a d x N matrix whose columns are unit vectors (the
atoms). Everything downstream, from greedy selection to the mixture-of-experts
diagnostics, is phrased in terms of these columns and their inner products.
Softmax, stable top-k, the guarded Cholesky factor, the enumeration bound,
the k-range check and the job runner live here once, for every module.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidConfigError, InvalidKError, InvalidShapeError, NotPSDError, SingularGramError,
    TooLargeError, ZeroColumnError,
)

# Pivot-ratio threshold below which a support's Gram matrix is rejected.
_PIVOT_RTOL = 1e-12
# Hard ceiling on the subsets an exhaustive search may enumerate.
_MAX_ENUM = 10**7
# BLAS reads its thread count when numpy is first imported, so pool workers get
# it from the environment they are started in: one thread each, since the
# workers already share out the cores.
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _frozen_array(x, dtype=np.float64, ndim=None) -> np.ndarray:
    a = np.array(x, dtype=dtype, copy=True)
    if ndim is not None and a.ndim != ndim:
        raise InvalidShapeError(f"expected {ndim}-d array, got shape {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class UnitDictionary:
    """d x N matrix with unit-norm columns; column i is atom i."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_array(self.data, ndim=2))
        d, n = self.data.shape
        if d < 1 or n < 2:
            raise InvalidShapeError(f"dictionary needs d >= 1 and N >= 2, got {d} x {n}")
        if not np.all(np.isfinite(self.data)):
            raise InvalidShapeError("dictionary contains non-finite entries")
        norms = np.linalg.norm(self.data, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-10):
            worst = int(np.argmax(np.abs(norms - 1.0)))
            raise InvalidShapeError(
                f"column {worst} has norm {float(norms[worst])}, expected 1 within 1e-10"
            )

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.data.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """N x N inner products of the atoms, DᵀD; formed once per dictionary, read-only."""
        g = self.data.T @ self.data
        g.setflags(write=False)
        return g


@dataclass(frozen=True)
class TargetSignal:
    """A vector to approximate, with the sparse combination that planted it.

    ``support`` and ``coefficients`` record the ground truth; they are
    bookkeeping, never recomputed.
    """

    vector: np.ndarray
    support: tuple[int, ...]
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vector", _frozen_array(self.vector, ndim=1))
        sup = tuple(int(i) for i in self.support)
        coef = _frozen_array(self.coefficients, ndim=1)
        if len(sup) != coef.shape[0]:
            raise InvalidShapeError("planted coefficients must align with support")
        if len(set(sup)) != len(sup):
            raise InvalidShapeError("planted support has repeated indices")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "coefficients", coef)


@dataclass(frozen=True)
class SparseSolution:
    """Least-squares fit on a fixed support: indices, coefficients, residual."""

    support: tuple[int, ...]
    coefficients: np.ndarray
    residual_sq: float

    def __post_init__(self):
        sup = tuple(int(i) for i in self.support)
        if len(set(sup)) != len(sup):
            raise InvalidShapeError("support has repeated indices")
        if any(i < 0 for i in sup):
            raise InvalidShapeError("support indices must be nonnegative")
        coef = _frozen_array(self.coefficients, ndim=1)
        if coef.shape[0] != len(sup):
            raise InvalidShapeError("coefficients must align with support")
        if not self.residual_sq >= 0.0:
            raise InvalidShapeError(f"residual_sq must be >= 0, got {self.residual_sq}")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "residual_sq", float(self.residual_sq))


def normalize_columns(matrix: np.ndarray) -> UnitDictionary:
    """Scale each column to unit norm.

    Raises ZeroColumnError (carrying the offending index) if a column's norm
    is below 1e-12, and InvalidShapeError for malformed input.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidShapeError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidShapeError("matrix contains non-finite entries")
    norms = np.linalg.norm(m, axis=0)
    small = np.flatnonzero(norms < 1e-12)
    if small.size:
        raise ZeroColumnError(int(small[0]))
    return UnitDictionary(m / norms)


def mutual_coherence(dictionary: UnitDictionary) -> float:
    """Largest absolute inner product between two distinct atoms.

    Lies in [0, 1] for unit-norm columns; tiny floating excess over 1 is
    clipped.
    """
    g = np.abs(dictionary.gram)
    np.fill_diagonal(g, 0.0)
    return float(min(g.max(), 1.0))


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, shifted by the maximum for stability."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the k largest scores on the last axis; ties to the lower index."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    return np.sort(order[..., :k], axis=-1)


def psd_cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a matrix or a stack of them; NotPSDError if not PD."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPSDError(f"matrix of shape {a.shape} is not positive definite") from None


def check_enumerable(n: int, k: int) -> None:
    """Raise TooLargeError when the C(n, k) subsets exceed _MAX_ENUM."""
    count = math.comb(n, k)
    if count > _MAX_ENUM:
        raise TooLargeError(f"C({n},{k}) = {count} subsets exceeds {_MAX_ENUM}")


def check_k(k: int, n: int) -> int:
    """Return k as an int; InvalidKError unless 1 <= k <= n."""
    if not 1 <= k <= n:
        raise InvalidKError(f"k must be in [1, {n}], got {k}")
    return int(k)


def run_jobs(fn, jobs, workers: int) -> list:
    """``[fn(job) for job in jobs]``, in job order, on up to ``workers`` processes.

    Runs in this process when ``workers`` is 1 or there are fewer than two
    jobs; otherwise ``fn`` and every job must pickle. Workers are spawned,
    fresh interpreters rather than forks, with one BLAS thread each: a forked
    worker would keep the parent's BLAS thread pool, and workers times BLAS
    threads would oversubscribe the cores. The environment of this process is
    restored once the pool has shut down. Spawned workers import the main
    module, so a script that gets here must guard its entry point.
    """
    if workers < 1:
        raise InvalidConfigError(f"workers must be >= 1, got {workers}")
    jobs = list(jobs)
    if workers == 1 or len(jobs) < 2:
        return [fn(job) for job in jobs]
    saved = {name: os.environ.get(name) for name in _WORKER_ENV}
    os.environ.update(_WORKER_ENV)
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs)),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, jobs))
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _solve_gram(gram: np.ndarray, rhs: np.ndarray, support) -> np.ndarray:
    """Solve gram @ x = rhs, rejecting ill-conditioned factorizations.

    A support is rejected when Cholesky fails outright or when the smallest
    pivot falls below _PIVOT_RTOL times the largest.
    """
    try:
        chol = psd_cholesky(gram)
    except NotPSDError:
        raise SingularGramError(support) from None
    pivots = np.diag(chol) ** 2
    if pivots.min() < _PIVOT_RTOL * pivots.max():
        raise SingularGramError(support)
    z = np.linalg.solve(chol, rhs)
    return np.linalg.solve(chol.T, z)


def least_squares_on_support(
    dictionary: UnitDictionary, y: np.ndarray, support
) -> SparseSolution:
    """Ordinary least squares restricted to the given atom indices.

    Solves the normal equations on the support's Gram matrix. The squared
    residual is computed as ||y||^2 minus the projection energy and clamped
    at zero (it can dip a hair negative in floating point).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != dictionary.dim:
        raise InvalidShapeError(f"target must be a vector of length {dictionary.dim}")
    sup = tuple(sorted(int(i) for i in support))
    if len(sup) == 0:
        raise InvalidShapeError("support must be nonempty")
    if len(set(sup)) != len(sup):
        raise InvalidShapeError("support has repeated indices")
    if sup[0] < 0 or sup[-1] >= dictionary.n_atoms:
        raise InvalidShapeError(f"support indices must lie in [0, {dictionary.n_atoms})")

    cols = dictionary.data[:, sup]
    gram = cols.T @ cols
    rhs = cols.T @ y
    coef = _solve_gram(gram, rhs, sup)
    residual_sq = float(y @ y - rhs @ coef)
    return SparseSolution(support=sup, coefficients=coef, residual_sq=max(residual_sq, 0.0))
