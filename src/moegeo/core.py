"""Unit-norm dictionaries, least squares on supports, and shared primitives.

A dictionary here is a d x N matrix whose columns are unit vectors (the
atoms). Everything downstream, from greedy selection to the mixture-of-experts
diagnostics, is phrased in terms of these columns and their inner products.
Softmax, stable top-k, the guarded Cholesky factor, the k-subset enumeration,
the input checks (k range, index supports, target vectors, finite frozen
arrays) and the job runner live here once, for every module.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidConfigError, InvalidKError, InvalidShapeError, NotPSDError, SingularGramError,
    TooLargeError, ZeroColumnError,
)

# Pivot-ratio threshold below which a support's Gram matrix is rejected.
_PIVOT_RTOL = 1e-12
# Hard ceiling on the subsets an exhaustive search may enumerate.
_MAX_ENUM = 10**7
# Stacked work holds its float64 matrices in chunks of at most this many bytes (and
# at least one matrix), so its memory stays bounded at any count: a barrier job's
# d x N dictionaries of a chunk of trials, and an exhaustive search's k x k blocks.
_STACK_BYTES = 1 << 20
# BLAS reads its thread count when numpy is first imported, so pool workers get
# it from the environment they are started in: one thread each, since the
# workers already share out the cores.
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _checked(a, ndim, name) -> np.ndarray:
    if ndim is not None and a.ndim != ndim:
        raise InvalidShapeError(f"expected {ndim}-d array, got shape {a.shape}")
    if name is not None and not np.all(np.isfinite(a)):
        raise InvalidShapeError(f"{name} contains non-finite entries")
    return a


def _checked_copy(x, dtype=np.float64, ndim=None, name=None) -> np.ndarray:
    """A copy of x (dtype None keeps x's); given a name, InvalidShapeError on a non-finite entry."""
    return _checked(np.array(x, dtype=dtype, copy=True), ndim, name)


def _frozen_array(x, dtype=np.float64, ndim=None, name=None) -> np.ndarray:
    """x as a read-only array, with the checks of _checked_copy.

    A read-only C-contiguous array of the requested dtype (any dtype when
    dtype is None) is held as it is: the package writes no array once it has
    frozen one, so a fresh result that its maker froze needs no second copy.
    Anything else becomes a read-only _checked_copy.
    """
    if (isinstance(x, np.ndarray) and not x.flags.writeable and x.flags.c_contiguous
            and (dtype is None or x.dtype == dtype)):
        return _checked(x, ndim, name)
    a = _checked_copy(x, dtype, ndim, name)
    a.setflags(write=False)
    return a


def check_indices(indices, n=None) -> tuple[int, ...]:
    """The indices as a tuple of ints, in their given order (never sorted).

    InvalidShapeError on a repeated index or a negative one and, when n is
    given, on one at or above n.
    """
    idx = tuple(int(i) for i in indices)
    if len(set(idx)) != len(idx):
        raise InvalidShapeError("support has repeated indices")
    hi = math.inf if n is None else n
    if not all(0 <= i < hi for i in idx):
        raise InvalidShapeError(f"support indices must lie in [0, {hi})")
    return idx


def _unit_matrices(x, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """x, checked, as one read-only d x N dictionary (ndim 2) or a (T, d, N) stack
    of them (ndim 3), and its read-only Gram: DᵀD, or every matrix's DᵀD.

    x is taken through `_frozen_array`, so a freshly blended stack, or a view
    of one, is held without a second copy. InvalidShapeError when a matrix
    has a non-finite entry, d < 1 or N < 2, or a column whose norm is not 1
    within 1e-10: the message is the one that the first such matrix, in
    stack order, raises alone.

    The Gram is formed right after the finiteness check, in one stacked
    product whose (N, N) slices each have the bytes of that matrix's own 2-D
    syrk, and the column norms are the square roots of its diagonal. Only
    the matrices before the first non-finite one enter it, since that one's
    message stands unless an earlier one fails.
    """
    a = _frozen_array(x, ndim=ndim)
    stack = a[None] if ndim == 2 else a
    d, n = stack.shape[1:]
    finite = np.isfinite(stack).all(axis=(1, 2))
    first = len(stack) if finite.all() else int(np.argmin(finite))
    head = stack[:first]
    grams = head.transpose(0, 2, 1) @ head
    norms = np.sqrt(np.diagonal(grams, axis1=1, axis2=2))
    off = np.abs(norms - 1.0)
    bad = (off > 1e-10).any(axis=1) | (d < 1 or n < 2)
    if bad.any() or first < len(stack):
        t = int(np.argmax(bad)) if bad.any() else first
        if t == first:
            raise InvalidShapeError("dictionary contains non-finite entries")
        if d < 1 or n < 2:
            raise InvalidShapeError(f"dictionary needs d >= 1 and N >= 2, got {d} x {n}")
        worst = int(np.argmax(off[t]))
        raise InvalidShapeError(
            f"column {worst} has norm {float(norms[t, worst])}, expected 1 within 1e-10"
        )
    gram = grams[0] if ndim == 2 else grams
    gram.setflags(write=False)
    return a, gram


@dataclass(frozen=True)
class UnitDictionary:
    """d x N matrix with unit-norm columns; column i is atom i.

    Its checks are those of the one-matrix DictionaryStack. ``gram`` is the
    N x N inner products of the atoms, DᵀD, read-only, formed by the check.
    A stack's matrix t, ``stack[t]``, is a UnitDictionary that views the
    stack's data and gram.
    """

    data: np.ndarray
    gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, value in zip(("data", "gram"), _unit_matrices(self.data, 2)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class DictionaryStack:
    """T unit dictionaries of one shape as a read-only (T, d, N) stack; matrix t is dictionary t.

    The finiteness and unit-column checks run once for the whole stack. The
    stack's ``gram`` is every matrix's DᵀD, (T, N, N) and read-only, from the
    one stacked product the check reads the column norms from, each (N, N)
    slice with the bytes of that matrix's own ``UnitDictionary.gram``.
    """

    data: np.ndarray
    gram: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name, value in zip(("data", "gram"), _unit_matrices(self.data, 3)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.data.shape[0]

    def __getitem__(self, t: int) -> UnitDictionary:
        """Matrix t as a UnitDictionary: a view of the stack's data, already checked,
        that carries its slice of the stack's gram."""
        one = object.__new__(UnitDictionary)
        object.__setattr__(one, "data", self.data[t])
        object.__setattr__(one, "gram", self.gram[t])
        return one

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class SparseSolution:
    """Least-squares fit on a fixed support: indices, coefficients, residual."""

    support: tuple[int, ...]
    coefficients: np.ndarray
    residual_sq: float

    def __post_init__(self):
        sup = check_indices(self.support)
        coef = _frozen_array(self.coefficients, ndim=1)
        if coef.shape[0] != len(sup):
            raise InvalidShapeError("coefficients must align with support")
        if not self.residual_sq >= 0.0:
            raise InvalidShapeError(f"residual_sq must be >= 0, got {self.residual_sq}")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "residual_sq", float(self.residual_sq))


def check_vector(y, dim: int, count: int | None = None) -> np.ndarray:
    """The target y as a float vector; given count, y is a stack of count
    targets, one a row.

    InvalidShapeError unless it has shape (dim,), or (count, dim), and finite
    entries.
    """
    v = np.asarray(y, dtype=np.float64)
    if count is None and v.shape != (dim,):
        raise InvalidShapeError(f"target must be a vector of length {dim}, got shape {v.shape}")
    if count is not None and v.shape != (count, dim):
        raise InvalidShapeError(f"targets must be a {count} x {dim} stack, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidShapeError("target contains non-finite entries")
    return v


def normalize_columns(matrix: np.ndarray) -> UnitDictionary:
    """Scale each column to unit norm.

    Raises ZeroColumnError (carrying the offending index) if a column's norm
    is below 1e-12, and InvalidShapeError for malformed input.
    """
    m = _frozen_array(matrix, ndim=2, name="matrix")
    norms = np.linalg.norm(m, axis=0)
    small = np.flatnonzero(norms < 1e-12)
    if small.size:
        raise ZeroColumnError(int(small[0]))
    return UnitDictionary(m / norms)


def mutual_coherence(dictionary: UnitDictionary | DictionaryStack) -> float | list[float]:
    """Largest absolute inner product between two distinct atoms; for a
    DictionaryStack, the list of every matrix's, read from the stacked gram.

    Lies in [0, 1] for unit-norm columns; tiny floating excess over 1 is
    clipped.
    """
    g = np.abs(dictionary.gram)
    diagonal = np.arange(g.shape[-1])
    g[..., diagonal, diagonal] = 0.0
    return np.minimum(g.max(axis=(-2, -1)), 1.0).tolist()


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, shifted by the maximum for stability, in place
    on the fresh shifted array: the input is never written."""
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the k largest scores on the last axis; ties to the lower index.

    For k <= 2 and finite float scores, k argmax passes (argmax takes the
    first of equal maxima), the first pick masked to -inf before the second:
    the indices a stable argsort gives, at a fraction of its cost. Any other
    k, a NaN or an infinite score takes the stable argsort itself.
    """
    n = scores.shape[-1]
    if 0 < k <= min(2, n) and scores.dtype.kind == "f" and np.isfinite(scores).all():
        rows = scores.reshape(-1, n)
        first = rows.argmax(axis=1)
        top = np.empty((rows.shape[0], k), dtype=np.intp)
        if k == 1:
            top[:, 0] = first
        else:
            masked = rows.copy()
            masked.ravel()[first + np.arange(0, masked.size, n)] = -np.inf
            second = masked.argmax(axis=1)
            np.minimum(first, second, out=top[:, 0])
            np.maximum(first, second, out=top[:, 1])
        return top.reshape(scores.shape[:-1] + (k,))
    top = (-scores).argsort(axis=-1, kind="stable")[..., :k].copy()
    top.sort(axis=-1)
    return top


def psd_cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a matrix or a stack of them; NotPSDError if not PD."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPSDError(f"matrix of shape {a.shape} is not positive definite") from None


def cholesky_logdets(chol: np.ndarray) -> np.ndarray:
    """2 sum log diag L for each lower Cholesky factor L in a stack: the log det it factors."""
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def k_subsets(n: int, k: int):
    """Every k-subset of range(n) in lexicographic order, as (S, k) index arrays in
    _STACK_BYTES chunks; TooLargeError, before any is formed, past _MAX_ENUM subsets."""
    count = math.comb(n, k)
    if count > _MAX_ENUM:
        raise TooLargeError(f"C({n},{k}) = {count} subsets exceeds {_MAX_ENUM}")
    subsets = itertools.combinations(range(n), k)
    while chunk := list(itertools.islice(subsets, max(1, _STACK_BYTES // (8 * k * k)))):
        yield np.array(chunk, dtype=np.intp)


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
    # imported here so that `import moegeo` does not pay for the pool machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
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


def _cholesky_or_nan(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of one Gram or of each in a (P, m, m) stack, all NaN
    for a Gram that Cholesky refuses.

    A stack that Cholesky refuses as a whole is split in halves, recursively,
    down to the matrices it refuses: s refused Grams in a stack of P cost at
    most 1 + 2 s ceil(log2 P) factor calls. LAPACK factors each matrix on its
    own, so every factor has the bytes of the whole stack's.
    """
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        if gram.ndim == 2 or len(gram) == 1:
            return np.full(gram.shape, np.nan)
        half = len(gram) // 2
        return np.concatenate((_cholesky_or_nan(gram[:half]), _cholesky_or_nan(gram[half:])))


def _solve_gram(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, ok): x solves gram @ x = rhs through the guarded Cholesky factor,
    for one (m, m) Gram and its (m,) rhs, or matrix by matrix for a (P, m, m)
    stack and its (P, m) rhs.

    ok, a bool array of gram's batch shape, is False for a Gram the guard
    rejects: where Cholesky fails or the smallest pivot falls below
    _PIVOT_RTOL times the largest. The x of a rejected Gram is meaningless.
    """
    chol = _cholesky_or_nan(gram)
    pivots = np.diagonal(chol, axis1=-2, axis2=-1) ** 2
    ok = pivots.min(axis=-1) >= _PIVOT_RTOL * pivots.max(axis=-1)
    if not ok.all():
        chol = np.where(ok[..., None, None], chol, np.eye(gram.shape[-1]))
    z = np.linalg.solve(chol, rhs[..., None])
    return np.linalg.solve(chol.swapaxes(-1, -2), z)[..., 0], ok


def least_squares_on_supports(data: np.ndarray, pairs, vs: np.ndarray, supports):
    """Ordinary least squares of each target vs[p] on the columns supports[p]
    of matrix pairs[p] of the (T, d, N) stack data, for every p at once:
    (coef, rhs, fit, ok), row p the coefficients, the support columns' inner
    products with the target, their combination by coef, and whether the
    support's Gram passed the pivot guard (the other rows are meaningless).

    supports is a (P, m) array of sorted supports. The columns are gathered
    as (P, m, d), the layout in which the 2-D gather data[:, support] holds
    its (d, m) columns, so each row's Gram, rhs, Cholesky, solves and fit
    have the bytes of the same pair refitted alone. The unchecked body of
    least_squares_on_support, which is its one-pair call.
    """
    cols = data[np.asarray(pairs)[:, None], :, supports]
    rhs = (cols @ vs[..., None])[..., 0]
    coef, ok = _solve_gram(cols @ cols.transpose(0, 2, 1), rhs)
    fit = (cols.transpose(0, 2, 1) @ coef[..., None])[..., 0]
    return coef, rhs, fit, ok


def least_squares_on_support(
    dictionary: UnitDictionary, y: np.ndarray, support
) -> SparseSolution:
    """Ordinary least squares restricted to the given atom indices.

    Solves the normal equations on the support's Gram matrix, formed from the
    support's columns (not read from ``dictionary.gram``). SingularGramError
    on the sorted support when the pivot guard rejects it. The squared
    residual is computed as ||y||^2 minus the projection energy and clamped
    at zero (it can dip a hair negative in floating point).
    """
    y = check_vector(y, dictionary.dim)
    sup = tuple(sorted(check_indices(support, dictionary.n_atoms)))
    if not sup:
        raise InvalidShapeError("support must be nonempty")

    coef, rhs, _, ok = least_squares_on_supports(dictionary.data[None], [0], y[None],
                                                 np.array([sup]))
    if not ok[0]:
        raise SingularGramError(sup)
    residual_sq = float(y @ y - rhs[0] @ coef[0])
    return SparseSolution(support=sup, coefficients=coef[0], residual_sq=max(residual_sq, 0.0))
