"""Sparse subset selection: exact, greedy, and matching-pursuit solvers,
plus the coherence phase-transition experiment.

The problem: min ||y - E alpha||^2 subject to at most k nonzero coefficients.
Brute force enumerates supports (NP-hard in general, guarded); the one-shot
greedy rule is the top-k router's selection; OMP refits residuals between
picks. The barrier sweep measures how exact recovery degrades as dictionary
coherence crosses 1/(2k-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import rng
from .core import (
    TargetSignal,
    UnitDictionary,
    SparseSolution,
    _PIVOT_RTOL,
    _solve_gram,
    check_enumerable,
    check_k,
    least_squares_on_support,
    mutual_coherence,
    run_jobs,
    topk_indices,
)
from .dictgen import COHERENCE_TOL, coherent_dictionaries, planted_signal
from .errors import InvalidConfigError, InvalidShapeError, SingularGramError

# OMP picks whose runner-up lies within this many |y| / lambda_min of the best
# score are rescored on the refit route.
_SCORE_BAND = 1e-9
# Supports whose Gram has a certified lambda_min of at least this pass the
# refit route's pivot check with room for its rounding.
_CERT_RTOL = 1e3 * _PIVOT_RTOL


def _vector(y, dim: int) -> np.ndarray:
    v = y.vector if isinstance(y, TargetSignal) else np.asarray(y, dtype=np.float64)
    if v.shape != (dim,):
        raise InvalidShapeError(f"target must be a vector of length {dim}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidShapeError("target contains non-finite entries")
    return v


def brute_force_sss(dictionary: UnitDictionary, y, k: int) -> SparseSolution:
    """Exhaustive search over all k-subsets of atoms.

    Returns the support with minimal squared residual; exact ties go to the
    lexicographically smallest support (supports are visited in that order).
    Supports whose Gram matrix is singular are skipped. Refuses to enumerate
    more than 10^7 subsets.
    """
    v = _vector(y, dictionary.dim)
    n = dictionary.n_atoms
    k = check_k(k, n)
    check_enumerable(n, k)

    gram = dictionary.gram
    corr = dictionary.data.T @ v
    energy = float(v @ v)
    best: tuple[float, tuple[int, ...], np.ndarray] | None = None
    for sup in combinations(range(n), k):
        idx = list(sup)
        c = corr[idx]
        try:
            coef = _solve_gram(gram[np.ix_(idx, idx)], c, sup)
        except SingularGramError:
            continue
        residual = energy - float(c @ coef)
        if best is None or residual < best[0]:
            best = (residual, sup, coef)
    if best is None:
        raise SingularGramError(tuple(range(k)))
    residual, sup, coef = best
    return SparseSolution(support=sup, coefficients=coef, residual_sq=max(residual, 0.0))


def greedy_topk_select(dictionary: UnitDictionary, y, k: int) -> tuple[int, ...]:
    """One-shot rule: the k atoms with largest |<E_i, y>|, ties to lower index."""
    v = _vector(y, dictionary.dim)
    k = check_k(k, dictionary.n_atoms)
    return tuple(int(i) for i in topk_indices(np.abs(dictionary.data.T @ v), k))


def _refit_scores(dictionary: UnitDictionary, v: np.ndarray, support: list[int]) -> np.ndarray:
    """|<E_i, v - E_S coef>| for the least-squares coef on sorted(support), the support at -inf.

    The reference route of omp_select, one refit per call; raises
    SingularGramError exactly where least_squares_on_support does.
    """
    sol = least_squares_on_support(dictionary, v, sorted(support))
    scores = np.abs(dictionary.data.T @ (v - dictionary.data[:, sol.support] @ sol.coefficients))
    scores[support] = -np.inf
    return scores


def omp_select(dictionary: UnitDictionary, y, k: int) -> tuple[int, ...]:
    """Orthogonal matching pursuit: argmax correlation, refit, repeat.

    Same tie rule as the one-shot selector. Raises SingularGramError if the
    running support ever becomes rank-deficient. The one-pair call of
    omp_select_stacked, where the route is described.
    """
    return omp_select_stacked([dictionary], [y], k)[0]


def omp_select_stacked(dictionaries, targets, k: int) -> list[tuple[int, ...]]:
    """omp_select on each (dictionary, target) pair, all pairs' factors grown together.

    The dictionaries share one shape. The reference route refits least
    squares on the sorted support after every pick and correlates the
    residual with every atom. Here a Cholesky factor L of the support's Gram,
    in pick order, grows one row per pick (the incremental pattern of
    dpp_greedy_select), for every pair of the stack at once.
    rows = L^-1 G[S, :] holds every atom's coordinates in an orthonormal basis
    of the support's span; a pick j with d^2 = G_jj - |rows[:, j]|^2 appends
    the row e = (G[j, :] - rows[:, j]^T rows) / d, and the residual
    correlations c0 - G[:, S] coef, c0 = E^T y, lose (corr_j / d) e. G's rows
    are read from the dictionary's cached gram; a pick costs O(N k), with no
    refit. The first pick reads each pair's own E^T y product, as the
    reference route does.

    The two routes round differently, so a pair whose next pick has its
    runner-up score within _SCORE_BAND * |y| / lam of the best leaves the
    stack, where lam = 1 / |L^-1|_F^2 <= lambda_min(G_SS) bounds how far the
    rounding can carry the scores apart.

    The reference route raises SingularGramError when a pivot of the sorted
    support's Cholesky falls below _PIVOT_RTOL times the largest. Every pivot
    is at least lambda_min(G_SS) >= lam, and at most max G_ii, within 3e-10
    of 1 for unit columns, so a support with lam >= _CERT_RTOL passes that
    check with room for its rounding; a pair whose support loses this
    certificate leaves the stack. A pair that left makes its remaining
    picks on the reference route, refits included, after the stack is done
    and in pair order, so SingularGramError is raised for exactly the
    supports the reference route raises for.
    """
    shape = dictionaries[0].data.shape
    if any(d.data.shape != shape for d in dictionaries) or len(targets) != len(dictionaries):
        raise InvalidShapeError("stacked OMP needs one target per dictionary, all of one shape")
    n = shape[1]
    k = check_k(k, n)
    vs = [_vector(y, shape[0]) for y in targets]
    live = at = np.arange(len(vs))
    corr = np.stack([d.data.T @ v for d, v in zip(dictionaries, vs)])
    norm_v = np.linalg.norm(np.stack(vs), axis=1)
    gram = np.stack([d.gram for d in dictionaries])
    support = np.zeros((len(vs), k), dtype=np.intp)
    rows = np.zeros((len(vs), k, n))
    linv = np.zeros((len(vs), k, k))
    inv_fro2 = np.zeros(len(vs))
    left: dict[int, list[int]] = {}
    j = np.abs(corr).argmax(axis=1)
    for r in range(k):
        support[:, r] = j
        w = rows[at, :r, j]
        g = gram[at, j]
        d2 = g[at, j] - (w * w).sum(axis=1)
        certified = d2 > 0.0
        d = np.sqrt(np.where(certified, d2, 1.0))
        rows[:, r] = (g - (w[:, None, :] @ rows[:, :r])[:, 0]) / d[:, None]
        corr -= (corr[at, j] / d)[:, None] * rows[:, r]
        linv[:, r, :r] = -(w[:, None, :] @ linv[:, :r, :r])[:, 0] / d[:, None]
        linv[at, r, r] = 1.0 / d
        inv_fro2 += (linv[:, r, :r + 1] ** 2).sum(axis=1)
        lam = 1.0 / inv_fro2
        stay = certified & (lam >= _CERT_RTOL)
        if r + 1 < k:
            scores = np.abs(corr)
            scores[at[:, None], support[:, :r + 1]] = -np.inf
            j = scores.argmax(axis=1)
            band = _SCORE_BAND * norm_v / lam
            stay &= (scores >= (scores[at, j] - band)[:, None]).sum(axis=1) == 1
        if not stay.all():
            left.update(zip(live[~stay].tolist(), support[~stay, :r + 1].tolist()))
            live, corr, norm_v, gram, support, rows, linv, inv_fro2, j = (
                x[stay] for x in (live, corr, norm_v, gram, support, rows, linv, inv_fro2, j))
            at = np.arange(live.size)
    out = [None] * len(vs)
    for t, picks in zip(live.tolist(), support.tolist()):
        out[t] = tuple(sorted(picks))
    for t in sorted(left):
        picks = left[t]
        while len(picks) < k:
            picks.append(int(np.argmax(_refit_scores(dictionaries[t], vs[t], picks))))
        # the refit the reference route makes after its last pick
        _refit_scores(dictionaries[t], vs[t], picks)
        out[t] = tuple(sorted(picks))
    return out


@dataclass(frozen=True)
class RecoveryOutcome:
    """What each selector did on one planted-recovery instance."""

    mu_measured: float
    planted_support: tuple[int, ...]
    greedy_support: tuple[int, ...]
    omp_support: tuple[int, ...]

    @property
    def greedy_exact(self) -> bool:
        return set(self.greedy_support) == set(self.planted_support)

    @property
    def omp_exact(self) -> bool:
        return set(self.omp_support) == set(self.planted_support)


def recovery_trial(dictionary: UnitDictionary, signal: TargetSignal, k: int) -> RecoveryOutcome:
    """Run both selectors on one instance.

    Success means recovering the planted support exactly.
    """
    return RecoveryOutcome(
        mu_measured=mutual_coherence(dictionary),
        planted_support=tuple(sorted(signal.support)),
        greedy_support=greedy_topk_select(dictionary, signal, k),
        omp_support=omp_select(dictionary, signal, k),
    )


@dataclass(frozen=True)
class BarrierCurve:
    """Every trial's outcome along a coherence grid, ``outcomes[i]`` at ``mu_grid[i]``.

    The per-point means and rates, the trial count and the guarantee
    threshold 1/(2k-1) are derived from the outcomes once, at construction.
    """

    mu_grid: tuple[float, ...]
    k: int
    outcomes: tuple[tuple[RecoveryOutcome, ...], ...]
    mu_measured_mean: tuple[float, ...] = field(init=False)
    success_rate_greedy: tuple[float, ...] = field(init=False)
    success_rate_omp: tuple[float, ...] = field(init=False)
    trials_per_point: int = field(init=False)
    theoretical_bound: float = field(init=False)

    def __post_init__(self):
        if len(self.outcomes) != len(self.mu_grid):
            raise InvalidShapeError("outcomes not aligned with mu_grid")
        if any(b < a for a, b in zip(self.mu_grid, self.mu_grid[1:])):
            raise InvalidShapeError("mu_grid must ascend")
        counts = {len(point) for point in self.outcomes}
        if len(counts) != 1 or 0 in counts:
            raise InvalidShapeError(
                f"grid points need one positive trial count, got {sorted(counts)}")

        def per_point(attr):
            return tuple(float(np.mean([getattr(o, attr) for o in point]))
                         for point in self.outcomes)

        object.__setattr__(self, "mu_measured_mean", per_point("mu_measured"))
        object.__setattr__(self, "success_rate_greedy", per_point("greedy_exact"))
        object.__setattr__(self, "success_rate_omp", per_point("omp_exact"))
        object.__setattr__(self, "trials_per_point", counts.pop())
        object.__setattr__(self, "theoretical_bound", 1.0 / (2 * self.k - 1))


# A grid point's trials are drawn, built and run through OMP in chunks whose
# stack of d x N float64 dictionaries holds at most this many bytes (and at
# least one trial), so a chunk's memory stays bounded at any trial count.
_STACK_BYTES = 1 << 20


def _run_grid_point(args) -> tuple[RecoveryOutcome, ...]:
    """Every trial of one grid point, drawn, built and run through OMP a chunk at a time."""
    d, n, k, mu, trials, seed, grid_index = args
    chunk = max(1, _STACK_BYTES // (8 * d * n))
    outcomes = []
    for start in range(0, trials, chunk):
        ts = range(start, min(start + chunk, trials))
        dictionaries, measured = coherent_dictionaries(
            d, n, mu, COHERENCE_TOL, [rng.derive_state(seed, "barrier", grid_index, t, 0) for t in ts])
        signals = [planted_signal(e, k, rng.derive_state(seed, "barrier", grid_index, t, 1))
                   for t, e in zip(ts, dictionaries)]
        omp = omp_select_stacked(dictionaries, signals, k)
        for e, mu_e, signal, omp_support in zip(dictionaries, measured, signals, omp):
            outcomes.append(RecoveryOutcome(
                mu_measured=mu_e,
                planted_support=tuple(sorted(signal.support)),
                greedy_support=greedy_topk_select(e, signal, k),
                omp_support=omp_support,
            ))
    return tuple(outcomes)


def barrier_sweep(
    d: int,
    n_atoms: int,
    k: int,
    mu_grid,
    trials: int,
    seed: int,
    workers: int = 1,
) -> BarrierCurve:
    """Exact recovery by both selectors, trial by trial, across a coherence grid.

    Each (grid point, trial) pair draws its dictionary and planted signal from
    its own derived seed stream, so the curve is independent of scheduling and
    of ``workers``.
    """
    grid = [float(m) for m in mu_grid]
    if len(grid) < 1:
        raise InvalidConfigError("mu_grid must be nonempty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise InvalidConfigError("mu_grid must ascend")
    if any(not 0.0 <= m < 1.0 for m in grid):
        raise InvalidConfigError("mu_grid values must lie in [0, 1)")
    if trials < 1:
        raise InvalidConfigError("trials must be >= 1")
    if not 2 <= n_atoms <= d:
        raise InvalidConfigError(f"need 2 <= n_atoms <= d, got d={d}, n_atoms={n_atoms}")
    check_k(k, n_atoms)
    seed = rng.check_seed(seed)

    jobs = [(d, n_atoms, k, mu, trials, seed, gi) for gi, mu in enumerate(grid)]
    outcomes = run_jobs(_run_grid_point, jobs, workers)
    return BarrierCurve(mu_grid=tuple(grid), k=k, outcomes=tuple(outcomes))
