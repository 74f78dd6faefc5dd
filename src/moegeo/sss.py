"""Sparse subset selection: exact, greedy, and matching-pursuit solvers,
plus the coherence phase-transition experiment.

The problem: min ||y - E alpha||^2 subject to at most k nonzero coefficients.
Brute force enumerates supports (NP-hard in general, guarded); the one-shot
greedy rule is the top-k router's selection; OMP refits residuals between
picks. The barrier sweep measures how exact recovery degrades as dictionary
coherence crosses 1/(2k-1).
"""

from __future__ import annotations

import csv
import logging
import math
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
from .dictgen import coherent_dictionary, planted_signal
from .errors import InvalidConfigError, InvalidShapeError, SingularGramError

log = logging.getLogger(__name__)

# OMP picks whose runner-up lies within this many |y| / lambda_min of the best
# score are rescored on the refit route.
_SCORE_BAND = 1e-9
# Supports whose Gram has a certified lambda_min of at least this pass the
# refit route's pivot check with room for its rounding.
_CERT_RTOL = 1e3 * _PIVOT_RTOL


def _vector(y) -> np.ndarray:
    v = y.vector if isinstance(y, TargetSignal) else np.asarray(y, dtype=np.float64)
    if v.ndim != 1:
        raise InvalidShapeError(f"target must be a vector, got shape {v.shape}")
    return v


def brute_force_sss(dictionary: UnitDictionary, y, k: int) -> SparseSolution:
    """Exhaustive search over all k-subsets of atoms.

    Returns the support with minimal squared residual; exact ties go to the
    lexicographically smallest support (supports are visited in that order).
    Supports whose Gram matrix is singular are skipped. Refuses to enumerate
    more than 10^7 subsets.
    """
    v = _vector(y)
    n = dictionary.n_atoms
    k = check_k(k, n)
    check_enumerable(n, k)
    if v.shape[0] != dictionary.dim:
        raise InvalidShapeError(f"target length {v.shape[0]} != dictionary dim {dictionary.dim}")

    gram = dictionary.data.T @ dictionary.data
    corr = dictionary.data.T @ v
    energy = float(v @ v)
    best: tuple[float, tuple[int, ...], np.ndarray] | None = None
    for sup in combinations(range(n), k):
        idx = list(sup)
        c = corr[idx]
        try:
            coef = _solve_gram(gram[np.ix_(idx, idx)], c, sup)
        except SingularGramError:
            log.debug("skipping singular support %s", sup)
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
    v = _vector(y)
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
    running support ever becomes rank-deficient.

    The reference route refits least squares on the sorted support after every
    pick and correlates the residual with every atom. Here a Cholesky factor L
    of the support's Gram, in pick order, grows one row per pick (the
    incremental pattern of dpp_greedy_select). rows = L^-1 G[S, :] holds every
    atom's coordinates in an orthonormal basis of the support's span; a pick j
    with d^2 = G_jj - |rows[:, j]|^2 appends the row
    e = (G[j, :] - rows[:, j]^T rows) / d, and the residual correlations
    c0 - G[:, S] coef, c0 = E^T y, lose (corr_j / d) e. A pick costs one
    E^T E_j product and O(N k), with no refit.

    The two routes round differently, so a pick whose runner-up score lies
    within _SCORE_BAND * |y| / lam of the best is rescored on the reference
    route, where lam = 1 / |L^-1|_F^2 <= lambda_min(G_SS) bounds how far the
    rounding can carry the scores apart. The first pick reads E^T y on both
    routes alike.

    The reference route raises SingularGramError when a pivot of the sorted
    support's Cholesky falls below _PIVOT_RTOL times the largest. Every pivot
    is at least lambda_min(G_SS) >= lam, and at most max G_ii, within 3e-10
    of 1 for unit columns, so a support with lam >= _CERT_RTOL passes that
    check with room for its rounding. From the first support without this
    certificate on, every pick is the reference route's own, refits included,
    so SingularGramError is raised for exactly the supports it raises for.
    """
    v = _vector(y)
    n = dictionary.n_atoms
    k = check_k(k, n)
    data = dictionary.data
    norm_v = float(np.linalg.norm(v))
    corr = data.T @ v
    rows = np.zeros((k, n))
    linv = np.zeros((k, k))
    inv_fro2 = 0.0
    certified = True
    support: list[int] = []
    for r in range(k):
        if certified:
            scores = np.abs(corr)
            scores[support] = -np.inf
            j = int(np.argmax(scores))
        if not certified or r and np.count_nonzero(scores >= scores[j] - band) > 1:
            j = int(np.argmax(_refit_scores(dictionary, v, support)))
        support.append(j)
        if not certified:
            continue
        w = rows[:r, j]
        g = data.T @ data[:, j]
        d2 = g[j] - w @ w
        if not d2 > 0.0:
            certified = False
            continue
        d = math.sqrt(d2)
        rows[r] = (g - w @ rows[:r]) / d
        corr -= (corr[j] / d) * rows[r]
        linv[r, :r] = -(w @ linv[:r, :r]) / d
        linv[r, r] = 1.0 / d
        inv_fro2 += float(linv[r, :r + 1] @ linv[r, :r + 1])
        lam = 1.0 / inv_fro2
        certified = lam >= _CERT_RTOL
        band = _SCORE_BAND * norm_v / lam
    if not certified:
        # the refit the reference route makes after its last pick
        _refit_scores(dictionary, v, support)
    return tuple(sorted(support))


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


# Coherence tolerance passed to the dictionary generator inside sweeps.
_SWEEP_TOL = 0.005


def _run_grid_point(args) -> tuple[RecoveryOutcome, ...]:
    d, n, k, mu, trials, seed, grid_index = args
    outcomes = []
    for t in range(trials):
        dict_seed = rng.derive_state(seed, "barrier", grid_index, t, 0)
        sig_seed = rng.derive_state(seed, "barrier", grid_index, t, 1)
        dictionary = coherent_dictionary(d, n, mu, _SWEEP_TOL, dict_seed)
        signal = planted_signal(dictionary, k, sig_seed)
        outcomes.append(recovery_trial(dictionary, signal, k))
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
    check_k(k, n_atoms)
    seed = rng.check_seed(seed)

    jobs = [(d, n_atoms, k, mu, trials, seed, gi) for gi, mu in enumerate(grid)]
    outcomes = run_jobs(_run_grid_point, jobs, workers)
    return BarrierCurve(mu_grid=tuple(grid), k=k, outcomes=tuple(outcomes))


def write_barrier_csv(curve: BarrierCurve, path) -> None:
    """One row per grid point, 6 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["mu_target", "mu_measured_mean", "success_greedy", "success_omp",
             "trials", "k", "bound"]
        )
        for i, mu in enumerate(curve.mu_grid):
            writer.writerow(
                [
                    f"{mu:.6g}",
                    f"{curve.mu_measured_mean[i]:.6g}",
                    f"{curve.success_rate_greedy[i]:.6g}",
                    f"{curve.success_rate_omp[i]:.6g}",
                    curve.trials_per_point,
                    curve.k,
                    f"{curve.theoretical_bound:.6g}",
                ]
            )
