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

import numpy as np

from . import rng
from .core import (
    DictionaryStack,
    UnitDictionary,
    SparseSolution,
    _PIVOT_RTOL,
    _STACK_BYTES,
    _solve_gram,
    check_indices,
    check_k,
    check_vector,
    k_subsets,
    least_squares_on_supports,
    mutual_coherence,
    run_jobs,
    topk_indices,
)
from .dictgen import COHERENCE_TOL, blend_bases, coherent_dictionaries, planted_signals
from .errors import InvalidConfigError, InvalidShapeError, SingularGramError

# OMP picks whose runner-up lies within this many |y| / lambda_min of the best
# score are rescored on the refit route.
_SCORE_BAND = 1e-9
# Supports whose Gram has a certified lambda_min of at least this pass the
# refit route's pivot check with room for its rounding.
_CERT_RTOL = 1e3 * _PIVOT_RTOL


def brute_force_sss(dictionary: UnitDictionary, y, k: int) -> SparseSolution:
    """Exhaustive search over all k-subsets of atoms.

    Returns the support with minimal squared residual; exact ties go to the
    lexicographically smallest support (supports are visited in that order).
    Supports whose Gram matrix is singular are skipped. Refuses to enumerate
    more than 10^7 subsets. Each chunk of k_subsets is one stacked solve, each
    support's with the bytes of its own.
    """
    v = check_vector(y, dictionary.dim)
    k = check_k(k, dictionary.n_atoms)
    corr = dictionary.data.T @ v
    energy = float(v @ v)
    best = (np.inf, None, None)
    for idx in k_subsets(dictionary.n_atoms, k):
        c = corr[idx]
        coef, ok = _solve_gram(dictionary.gram[idx[:, :, None], idx[:, None, :]], c)
        residual = np.where(ok, energy - (c[:, None, :] @ coef[..., None])[:, 0, 0], np.inf)
        i = int(np.argmin(residual))
        if residual[i] < best[0]:
            best = (float(residual[i]), idx[i], coef[i])
    if best[1] is None:
        raise SingularGramError(tuple(range(k)))
    return SparseSolution(support=best[1], coefficients=best[2], residual_sq=max(best[0], 0.0))


def greedy_topk_select(dictionary: UnitDictionary, y, k: int) -> tuple[int, ...]:
    """One-shot rule: the k atoms with largest |<E_i, y>|, ties to lower index."""
    v = check_vector(y, dictionary.dim)
    k = check_k(k, dictionary.n_atoms)
    return tuple(int(i) for i in topk_indices(np.abs(dictionary.data.T @ v), k))


def omp_select(dictionary: UnitDictionary, y, k: int) -> tuple[int, ...]:
    """Orthogonal matching pursuit: argmax correlation, refit, repeat.

    Same tie rule as the one-shot selector. Raises SingularGramError if the
    running support ever becomes rank-deficient. The one-pair call of
    recovery_trials' OMP, whose route _omp_from_correlations describes.
    """
    return tuple(recovery_trials(DictionaryStack(dictionary.data[None]),
                                 check_vector(y, dictionary.dim)[None], k)[1][0].tolist())


def _omp_from_correlations(dictionaries: DictionaryStack, vs, corr, k: int) -> list[tuple[int, ...]]:
    """omp_select on each matrix of a stack and its target, row t of the (T, d)
    checked targets vs, all pairs' factors grown together from corr, the
    (T, N) stack of each pair's E^T y; corr is consumed.

    The reference route refits least squares on the sorted support after
    every pick and correlates the residual with every atom. Here a Cholesky
    factor L of the support's Gram, in pick order, grows one row per pick
    (the incremental pattern of dpp_greedy_select), for every pair at once.
    rows = L^-1 G[S, :] holds every atom's coordinates in an orthonormal basis
    of the support's span; a pick j with d^2 = G_jj - |rows[:, j]|^2 appends
    the row e = (G[j, :] - rows[:, j]^T rows) / d, and the residual
    correlations c0 - G[:, S] coef, c0 = E^T y, lose (corr_j / d) e. G's rows
    are read from the stack's gram; a pick costs O(N k), with no refit. The
    first pick reads each pair's own E^T y product, as the reference route
    does.

    The two routes round differently, so a pair whose next pick has its
    runner-up score within _SCORE_BAND * |y| / lam of the best leaves the
    stack, where lam = 1 / |L^-1|_F^2 <= lambda_min(G_SS) bounds how far the
    rounding can carry the scores apart.

    The reference route raises SingularGramError when a pivot of the sorted
    support's Cholesky falls below _PIVOT_RTOL times the largest. Every pivot
    is at least lambda_min(G_SS) >= lam, and at most max G_ii, within 3e-10
    of 1 for unit columns, so a support with lam >= _CERT_RTOL passes that
    check with room for its rounding; a pair whose support loses this
    certificate leaves the stack. The pairs that left make their remaining
    picks on the reference route, refits included, after the stack is done
    (_refit_route), so SingularGramError is raised for exactly the supports
    the reference route raises for.
    """
    n = corr.shape[1]
    live = at = np.arange(len(vs))
    norm_v = np.linalg.norm(vs, axis=1)
    gram = dictionaries.gram
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
    for t, picks in _refit_route(dictionaries, vs, left, k).items():
        out[t] = picks
    return out


def _refit_route(dictionaries: DictionaryStack, vs, left: dict, k: int) -> dict:
    """The reference route of omp_select for the pairs that left
    _omp_from_correlations' stack, pair t holding the picks left[t]: each
    one's sorted support, keyed by pair.

    Each round refits least squares on the sorted support of every pair that
    holds m picks, in one stacked least_squares_on_supports call, correlates
    each residual with every atom of its matrix, and appends the best atom
    outside the support; a pair that arrives with m picks joins at round m.
    A pair at k picks makes the refit the reference route makes after its
    last pick, and is done. A pair whose support fails the pivot guard drops
    out; after the last round the lowest-index one raises SingularGramError
    on its sorted support, which is the error the pair-order route raises.
    """
    failed, done, picks = {}, {}, {}
    for m in range(1, k + 1):
        picks.update((t, p) for t, p in left.items() if len(p) == m)
        if not picks:
            continue
        pairs = np.array(sorted(picks))
        supports = np.sort([picks[t] for t in pairs.tolist()], axis=1)
        _, _, fit, ok = least_squares_on_supports(dictionaries.data, pairs, vs[pairs], supports)
        failed.update((t, tuple(s)) for t, s in zip(pairs[~ok].tolist(), supports[~ok].tolist()))
        if m == k:
            done.update((t, tuple(s)) for t, s in zip(pairs[ok].tolist(), supports[ok].tolist()))
            break
        pairs, supports, fit = pairs[ok], supports[ok], fit[ok]
        residual = vs[pairs] - fit
        scores = np.abs((dictionaries.data[pairs].transpose(0, 2, 1) @ residual[..., None])[..., 0])
        scores[np.arange(len(pairs))[:, None], supports] = -np.inf
        picks = {t: [*s, j] for t, s, j in zip(pairs.tolist(), supports.tolist(),
                                                 scores.argmax(axis=1).tolist())}
    if failed:
        raise SingularGramError(failed[min(failed)])
    return done


def recovery_trials(dictionaries: DictionaryStack, vectors, k: int):
    """Both selectors on each matrix of a stack and its target, as columns.

    vectors is the (T, d) stack of targets, row t for matrix t (the planted
    vectors of planted_signals). Returns the sorted greedy and OMP supports,
    each a (T, k) int array, row t for pair t; a selector succeeds on a pair
    when its row equals the pair's sorted planted support. Every pair's
    correlations E^T y are formed in one stacked product, row t with the
    bytes of matrix t's own product: greedy takes the top k of every row's
    |E^T y| at once, as greedy_topk_select does pair by pair, and OMP
    (_omp_from_correlations) starts from the same stack and reads its Gram
    rows from the stack's gram.
    """
    k = check_k(k, dictionaries.n_atoms)
    vs = check_vector(vectors, dictionaries.dim, len(dictionaries))
    corr = (dictionaries.data.transpose(0, 2, 1) @ vs[..., None])[..., 0]
    greedy = topk_indices(np.abs(corr), k)
    return greedy, np.array(_omp_from_correlations(dictionaries, vs, corr, k))


def recovery_trial(dictionary: UnitDictionary, support, vector, k: int):
    """The one-trial call of recovery_trials on a planted support and its vector,
    with the dictionary's coherence: (mu_measured, planted, greedy, omp), each
    support a sorted tuple."""
    greedy, omp = recovery_trials(DictionaryStack(dictionary.data[None]),
                                  check_vector(vector, dictionary.dim)[None], k)
    planted = tuple(sorted(check_indices(support, dictionary.n_atoms)))
    return mutual_coherence(dictionary), planted, tuple(greedy[0].tolist()), tuple(omp[0].tolist())


@dataclass(frozen=True, eq=False)
class BarrierCurve:
    """Every trial along a coherence grid as read-only columns, row i at ``mu_grid[i]``.

    ``mu_measured`` is (P, T); ``planted``, ``greedy`` and ``omp`` are the
    (P, T, k) sorted supports. The exact-recovery flags ``greedy_exact`` and
    ``omp_exact`` (P, T), the per-point means and rates, the trial count and
    the guarantee threshold 1/(2k-1) are derived from them once, at construction.
    """

    mu_grid: tuple[float, ...]
    k: int
    mu_measured: np.ndarray
    planted: np.ndarray
    greedy: np.ndarray
    omp: np.ndarray
    greedy_exact: np.ndarray = field(init=False)
    omp_exact: np.ndarray = field(init=False)
    mu_measured_mean: tuple[float, ...] = field(init=False)
    success_rate_greedy: tuple[float, ...] = field(init=False)
    success_rate_omp: tuple[float, ...] = field(init=False)
    trials_per_point: int = field(init=False)
    theoretical_bound: float = field(init=False)

    def __post_init__(self):
        if any(b < a for a, b in zip(self.mu_grid, self.mu_grid[1:])):
            raise InvalidShapeError("mu_grid must ascend")
        names = ("mu_measured", "planted", "greedy", "omp")
        p = len(self.mu_grid)
        t = np.size(self.mu_measured) // max(p, 1)
        if t < 1 or [np.shape(getattr(self, c)) for c in names] != [(p, t)] + 3 * [(p, t, self.k)]:
            raise InvalidShapeError(f"columns need shapes (P, T) and (P, T, k) for P = {p} "
                                    f"grid points, T >= 1 trials and k = {self.k}")
        col = {c: np.array(getattr(self, c)) for c in names}
        col.update((f"{c}_exact", (col[c] == col["planted"]).all(axis=2)) for c in ("greedy", "omp"))
        for column in col.values():
            column.flags.writeable = False
        col.update(mu_measured_mean=tuple(col["mu_measured"].mean(axis=1).tolist()),
                   success_rate_greedy=tuple(col["greedy_exact"].mean(axis=1).tolist()),
                   success_rate_omp=tuple(col["omp_exact"].mean(axis=1).tolist()),
                   trials_per_point=t, theoretical_bound=1.0 / (2 * self.k - 1))
        for name, value in col.items():
            object.__setattr__(self, name, value)


def _run_trials(args):
    """Trials ts across the whole grid, each trial's base drawn once and blended
    to every target: mu_measured (P, T) and the planted, greedy and OMP supports
    (P, T, k) for T = len(ts). Each stack of coherent_dictionaries, per_stack
    grid points' trials or target 0's, is one DictionaryStack from the blend
    to OMP, dropped before the next blend."""
    d, n, k, grid, ts, seed, per_stack = args
    bases = blend_bases(d, n, [rng.derive_state(seed, "barrier", t, 0) for t in ts])
    stacks, gi = [], 0
    for dictionaries, measured in coherent_dictionaries(bases, grid, COHERENCE_TOL, per_stack):
        points = range(gi, gi + len(measured) // len(ts))
        seeds = [rng.derive_state(seed, "barrier", g, t, 1) for g in points for t in ts]
        planted, _, vectors = planted_signals(dictionaries, k, seeds)
        stacks.append((measured, planted, *recovery_trials(dictionaries, vectors, k)))
        gi = points.stop
        del dictionaries, vectors
    columns = (np.concatenate(column) for column in zip(*stacks))
    return tuple(c.reshape(len(grid), len(ts), *c.shape[1:]) for c in columns)


def barrier_sweep(
    d: int,
    n_atoms: int,
    k: int,
    mu_grid,
    trials: int,
    seed: int,
    workers: int = 1,
) -> BarrierCurve:
    """Exact recovery by both selectors for every trial across a coherence grid.

    Trial t draws one base from its own derived stream, (seed, "barrier", t, 0),
    and blends it to every target of the grid, so a trial's dictionaries are
    paired across grid points (common random numbers) and each grid point's
    rate still averages ``trials`` independent trials. The signal planted at
    grid point gi has its own stream, (seed, "barrier", gi, t, 1). A job runs a
    chunk of trials over the whole grid; the chunks are cut here from the
    shape alone, so the curve is independent of scheduling and of ``workers``.
    A job makes one coherent_dictionaries call for its whole grid, which
    bisects every (target, trial) lane at once when there are enough of them
    (a bench job's 24 nonzero targets x 8 trials are 192). A job holds at
    most _STACK_BYTES of d x N matrices' trials (at least one), and each of
    its stacks carries G = max(1, _STACK_BYTES // (8 d N T)) consecutive
    nonzero grid points' T trials, so a job of few trials still fills its
    budget (2 grid points at a bench job's 128 x 64 x 8 trials, 1 at the
    default 16). Each stack is one DictionaryStack, checked once, whose
    stacked gram gives the measured coherence and OMP's Gram rows; one
    planted_signals call and one recovery_trials call run on it, and it is
    dropped before the next blend. There is no per-trial route:
    planted_signal, omp_select and recovery_trial are the one-matrix calls of
    these stacked bodies.
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

    chunk = max(1, _STACK_BYTES // (8 * d * n_atoms))
    chunks = [range(start, min(start + chunk, trials)) for start in range(0, trials, chunk)]
    jobs = [(d, n_atoms, k, grid, ts, seed, max(1, chunk // len(ts))) for ts in chunks]
    parts = run_jobs(_run_trials, jobs, workers)
    return BarrierCurve(tuple(grid), k, *(np.concatenate(column, axis=1) for column in zip(*parts)))
