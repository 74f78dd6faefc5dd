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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import rng
from .core import (
    TargetSignal,
    UnitDictionary,
    SparseSolution,
    _solve_gram,
    check_enumerable,
    least_squares_on_support,
    mutual_coherence,
    topk_indices,
)
from .dictgen import coherent_dictionary, planted_signal
from .errors import (
    InvalidConfigError,
    InvalidKError,
    InvalidShapeError,
    SingularGramError,
)

log = logging.getLogger(__name__)


def _vector(y) -> np.ndarray:
    v = y.vector if isinstance(y, TargetSignal) else np.asarray(y, dtype=np.float64)
    if v.ndim != 1:
        raise InvalidShapeError(f"target must be a vector, got shape {v.shape}")
    return v


def _check_k(k: int, n: int) -> int:
    if not 1 <= k <= n:
        raise InvalidKError(f"k must be in [1, {n}], got {k}")
    return int(k)


def brute_force_sss(dictionary: UnitDictionary, y, k: int) -> SparseSolution:
    """Exhaustive search over all k-subsets of atoms.

    Returns the support with minimal squared residual; exact ties go to the
    lexicographically smallest support (supports are visited in that order).
    Supports whose Gram matrix is singular are skipped. Refuses to enumerate
    more than 10^7 subsets.
    """
    v = _vector(y)
    n = dictionary.n_atoms
    k = _check_k(k, n)
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
    k = _check_k(k, dictionary.n_atoms)
    return tuple(int(i) for i in topk_indices(np.abs(dictionary.data.T @ v), k))


def omp_select(dictionary: UnitDictionary, y, k: int) -> tuple[int, ...]:
    """Orthogonal matching pursuit: argmax correlation, refit, repeat.

    Same tie rule as the one-shot selector. Raises SingularGramError if the
    running support ever becomes rank-deficient.
    """
    v = _vector(y)
    k = _check_k(k, dictionary.n_atoms)
    residual = v
    support: list[int] = []
    for _ in range(k):
        scores = np.abs(dictionary.data.T @ residual)
        scores[support] = -np.inf
        support.append(int(np.argmax(scores)))
        sol = least_squares_on_support(dictionary, v, sorted(support))
        residual = v - dictionary.data[:, sol.support] @ sol.coefficients
    return tuple(sorted(support))


@dataclass(frozen=True)
class RecoveryOutcome:
    """What each selector did on one planted-recovery instance."""

    mu_measured: float
    planted_support: tuple[int, ...]
    greedy_support: tuple[int, ...]
    omp_support: tuple[int, ...]
    greedy_exact: bool
    omp_exact: bool
    greedy_residual_sq: float

    def __post_init__(self):
        if self.greedy_residual_sq < 0:
            raise InvalidShapeError("residuals must be nonnegative")
        if self.greedy_exact != (set(self.greedy_support) == set(self.planted_support)):
            raise InvalidShapeError("greedy_exact inconsistent with supports")
        if self.omp_exact != (set(self.omp_support) == set(self.planted_support)):
            raise InvalidShapeError("omp_exact inconsistent with supports")


def recovery_trial(dictionary: UnitDictionary, signal: TargetSignal, k: int) -> RecoveryOutcome:
    """Run both selectors on one instance.

    The signal must carry its planted support; success means recovering it
    exactly.
    """
    if signal.support is None:
        raise InvalidShapeError("recovery_trial needs a signal with planted support")
    greedy = greedy_topk_select(dictionary, signal, k)
    omp = omp_select(dictionary, signal, k)
    greedy_res = least_squares_on_support(dictionary, signal.vector, greedy).residual_sq
    planted = tuple(sorted(signal.support))
    return RecoveryOutcome(
        mu_measured=mutual_coherence(dictionary),
        planted_support=planted,
        greedy_support=greedy,
        omp_support=omp,
        greedy_exact=set(greedy) == set(planted),
        omp_exact=set(omp) == set(planted),
        greedy_residual_sq=greedy_res,
    )


@dataclass(frozen=True)
class BarrierCurve:
    """Recovery rates along a coherence grid, with the guarantee threshold."""

    mu_grid: tuple[float, ...]
    mu_measured_mean: tuple[float, ...]
    success_rate_greedy: tuple[float, ...]
    success_rate_omp: tuple[float, ...]
    trials_per_point: int
    k: int
    theoretical_bound: float
    outcomes: tuple[tuple[RecoveryOutcome, ...], ...] | None = None

    def __post_init__(self):
        n = len(self.mu_grid)
        for name in ("mu_measured_mean", "success_rate_greedy", "success_rate_omp"):
            if len(getattr(self, name)) != n:
                raise InvalidShapeError(f"{name} not aligned with mu_grid")
        if any(b < a for a, b in zip(self.mu_grid, self.mu_grid[1:])):
            raise InvalidShapeError("mu_grid must ascend")
        rates = self.success_rate_greedy + self.success_rate_omp
        if any(not 0.0 <= r <= 1.0 for r in rates):
            raise InvalidShapeError("success rates must lie in [0, 1]")
        if self.trials_per_point < 1:
            raise InvalidShapeError("trials_per_point must be >= 1")
        if self.theoretical_bound != 1.0 / (2 * self.k - 1):
            raise InvalidShapeError("theoretical_bound must equal 1/(2k-1)")


# Coherence tolerance passed to the dictionary generator inside sweeps.
_SWEEP_TOL = 0.005


def _run_grid_point(args) -> tuple[int, float, float, float, tuple]:
    d, n, k, mu, trials, seed, grid_index, collect = args
    outcomes = []
    for t in range(trials):
        dict_seed = rng.derive_state(seed, "barrier", grid_index, t, 0)
        sig_seed = rng.derive_state(seed, "barrier", grid_index, t, 1)
        dictionary = coherent_dictionary(d, n, mu, _SWEEP_TOL, dict_seed)
        signal = planted_signal(dictionary, k, sig_seed)
        outcomes.append(recovery_trial(dictionary, signal, k))
    mu_mean = float(np.mean([o.mu_measured for o in outcomes]))
    rate_g = float(np.mean([o.greedy_exact for o in outcomes]))
    rate_o = float(np.mean([o.omp_exact for o in outcomes]))
    return grid_index, mu_mean, rate_g, rate_o, tuple(outcomes) if collect else ()


def barrier_sweep(
    d: int,
    n_atoms: int,
    k: int,
    mu_grid,
    trials: int,
    seed: int,
    workers: int = 1,
    collect_outcomes: bool = False,
) -> BarrierCurve:
    """Exact-recovery rates of both selectors across a coherence grid.

    Each (grid point, trial) pair draws its dictionary and planted signal from
    its own derived seed stream, so the curve is independent of scheduling and
    of ``workers``. Set ``collect_outcomes`` to keep every trial's outcome on
    the returned curve.
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
    if workers < 1:
        raise InvalidConfigError(f"workers must be >= 1, got {workers}")
    _check_k(k, n_atoms)
    seed = rng.check_seed(seed)

    jobs = [(d, n_atoms, k, mu, trials, seed, gi, collect_outcomes)
            for gi, mu in enumerate(grid)]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = list(pool.map(_run_grid_point, jobs))
    else:
        results = [_run_grid_point(j) for j in jobs]
    results.sort(key=lambda r: r[0])

    return BarrierCurve(
        mu_grid=tuple(grid),
        mu_measured_mean=tuple(r[1] for r in results),
        success_rate_greedy=tuple(r[2] for r in results),
        success_rate_omp=tuple(r[3] for r in results),
        trials_per_point=trials,
        k=k,
        theoretical_bound=1.0 / (2 * k - 1),
        outcomes=tuple(r[4] for r in results) if collect_outcomes else None,
    )


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
