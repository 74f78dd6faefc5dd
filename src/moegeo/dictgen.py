"""Seeded generators: dictionaries, planted sparse signals, labeled data.

All functions take a 64-bit master seed and draw from derived Philox streams
(see rng.py), so every artifact is reproducible from the seed alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .core import (
    DictionaryStack, UnitDictionary, _frozen_array, check_k, mutual_coherence,
)
from .errors import InvalidConfigError, InvalidShapeError, UnreachableError

# Bisection on the blend parameter stops after this many halvings.
_MAX_BISECT = 60
# The blend parameter's upper end: the coherence there is the construction's ceiling.
_T_MAX = 1.0 - 1e-9
# coherent_dictionaries bisects all its lanes (nonzero targets x bases) in one
# numpy pass from this many on, the measured break-even. On a 2-vCPU Xeon VM
# at 128 x 64 (timeit, one pinned core) a lane costs about 0.135 ms on the
# scalar loop, and one numpy pass 1.35-1.65 ms at 1 to 24 lanes: 1.37 against
# 0.13 ms at 1 lane, 1.57 against 0.69 at 5, 1.41-1.44 against 1.37-1.44 at
# 10, 1.39 against 1.98-2.10 at 15, 1.36-1.43 against 2.67-3.01 at 20 and
# 1.48-1.65 against 3.19-3.20 at 24. dpp-select's single lane and a barrier
# job's 24 targets x its trials sit on either side.
_VECTOR_LANES = 10
# The (i, j) pairs, i < j, of each width of _extreme_entries, for _lane_coherence.
_PAIRS = {w: np.triu_indices(w, 1) for w in (2, 3, 4)}
# Coherence tolerance of the dictionaries that barrier and dpp-select build.
COHERENCE_TOL = 0.005


def _haar_columns(gens, dim: int, n: int) -> np.ndarray:
    """(T, dim, n) orthonormal columns, one Haar draw per generator of gens.

    Each generator draws its own dim x n Gaussian block; one QR call factors
    the stack, and R's diagonal is made positive matrix by matrix. LAPACK
    factors each matrix of a stack on its own, so a draw has the bytes of the
    same generator's draw alone.
    """
    z = np.empty((len(gens), dim, n))
    for gen, block in zip(gens, z):
        gen.standard_normal(out=block)
    q, r = np.linalg.qr(z)
    q *= np.where(np.diagonal(r, axis1=1, axis2=2) < 0, -1.0, 1.0)[:, None, :]
    return q


def random_orthonormal_dictionary(dim: int, n_atoms: int, seed: int) -> UnitDictionary:
    """Haar-distributed orthonormal columns via QR with sign canonicalization.

    Requires 2 <= n_atoms <= dim. Fixing the sign of each R diagonal makes the
    result both uniformly distributed and independent of the QR routine's sign
    convention.
    """
    if not 2 <= n_atoms <= dim:
        raise InvalidShapeError(f"need 2 <= n_atoms <= dim, got dim={dim}, n_atoms={n_atoms}")
    return UnitDictionary(_haar_columns([rng.stream(seed, "orthonormal")], dim, n_atoms)[0])


def _blend(base: np.ndarray, u: np.ndarray, t) -> np.ndarray:
    """normalize((1-t) base + t u) column by column; on a (T, d, N) stack, t and u per matrix."""
    m = (1.0 - t) * base + t * u[..., None]
    m /= np.linalg.norm(m, axis=-2, keepdims=True)
    return m


def _extreme_entries(a: np.ndarray) -> np.ndarray:
    """Two smallest and two largest entries of each row of a = base^T u,
    ascending; all of a row when N <= 4."""
    ranked = np.sort(a, axis=-1)
    return ranked if ranked.shape[-1] <= 4 else ranked[..., [0, 1, -2, -1]]


def _blend_coherence(ext: list[float], t: float) -> float:
    """Mutual coherence of _blend(base, u, t) from ext = _extreme_entries(base^T u).

    The base columns are orthonormal and u is a unit vector, so with
    c = (1-t)t column i of _blend(base, u, t) has squared norm
    n_i^2 = (1-t)^2 + 2c a_i + t^2 and cosine (c (a_i + a_j) + t^2) / (n_i n_j)
    with column j, positive because a >= 0. Evaluated in floats over the
    pairs of ext: O(1) a call (see coherent_dictionaries for why they suffice).

    _lane_coherence is the same form on many lanes at once, with the same
    bytes. A Python ``float ** 2`` calls libm ``pow``, and so does
    ``np.float_power`` element by element, while a multiply (``x * x``, or
    ``np.power`` with exponent 2) rounds differently: on ``(1 - t) ** 2`` the
    two disagreed on 1,712 of 2,000,000 uniform draws of t
    (``np.random.default_rng(0)``). Squaring with a multiply moves one
    128 x 64 dictionary in 2,000 (seed rng.derive_state(777, "barrier", 14,
    15, 0), target 0.5541666667) by 1.1e-16, so both forms square with pow.
    """
    c = (1.0 - t) * t
    s, c2, tt = (1.0 - t) ** 2, 2.0 * c, t * t
    inv_norm = [1.0 / math.sqrt(s + c2 * x + tt) for x in ext]
    return max((c * (ext[i] + ext[j]) + tt) * (inv_norm[i] * inv_norm[j])
               for i, j in itertools.combinations(range(len(ext)), 2))


def _lane_coherence(ext: np.ndarray, t: np.ndarray) -> np.ndarray:
    """_blend_coherence of every lane: column l of ext (w, L), ascending, at t[l].

    The same float operations in the same order, and the square by libm pow,
    so each lane has the bytes of the scalar call. Lanes run along the last
    axis, where numpy's elementwise and max-over-pairs loops are fastest.
    """
    c = (1.0 - t) * t
    s, c2, tt = np.float_power(1.0 - t, 2.0), 2.0 * c, t * t
    inv_norm = 1.0 / np.sqrt(s + c2 * ext + tt)
    i, j = _PAIRS[len(ext)]
    return ((c * (ext[i] + ext[j]) + tt) * (inv_norm[i] * inv_norm[j])).max(axis=0)


def _bisect_blend(ext: list[float], target_mu: float) -> float:
    """The blend parameter t in [0, _T_MAX] at which _blend_coherence(ext, t)
    crosses target_mu; next to _T_MAX when the coherence there, the
    construction's ceiling, stays below target_mu."""
    lo, hi = 0.0, _T_MAX
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _blend_coherence(ext, mid) < target_mu:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisect_lanes(ext: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """_bisect_blend of every lane at once: column l of ext (w, L) to targets[l].

    Each step evaluates _lane_coherence on every lane. A lane stops where the
    scalar loop stops, once its midpoint equals an end of its bracket, and its
    bracket is not moved again; the loop ends when every lane has stopped or
    after _MAX_BISECT steps.
    """
    lo, hi = np.zeros(ext.shape[1]), np.full(ext.shape[1], _T_MAX)
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        live = (mid != lo) & (mid != hi)
        if not live.any():
            break
        raise_lo = live & (_lane_coherence(ext, mid) < targets)
        lo = np.where(raise_lo, mid, lo)
        hi = np.where(live & ~raise_lo, mid, hi)
    return 0.5 * (lo + hi)


def blend_bases(dim: int, n_atoms: int, seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only (base, u, |a|) stack that coherent_dictionaries blends, one entry per seed.

    Each seed draws from its own stream, its Gaussian block and then a random
    unit direction u. The (T, dim, n_atoms) stack of blocks is factored in one
    QR call into orthonormal bases, each with the bytes of its draw alone, and
    every base column's sign is flipped so that its inner product with u is
    nonnegative: a = base^T u before the flips, |a| after them. Requires
    2 <= n_atoms <= dim.
    """
    if not 2 <= n_atoms <= dim:
        raise InvalidShapeError(f"need 2 <= n_atoms <= dim, got dim={dim}, n_atoms={n_atoms}")
    gens = [rng.stream(seed, "coherent") for seed in seeds]
    base = _haar_columns(gens, dim, n_atoms)
    u = np.stack([gen.standard_normal(dim) for gen in gens])
    for row in u:
        row /= np.linalg.norm(row)
    a = (base.transpose(0, 2, 1) @ u[..., None])[..., 0]
    base *= np.where(a < 0, -1.0, 1.0)[:, None, :]
    bases = base, u, np.abs(a)
    for x in bases:
        x.setflags(write=False)
    return bases


def coherent_dictionaries(bases, targets, tol: float, per_stack: int = 1):
    """For each group of targets in turn, the DictionaryStack of one dictionary
    per (target, base) of bases = blend_bases(...) whose mutual coherence is
    the target within tol, and each one's measured coherence: a generator of
    (dictionaries, measured). A group is up to per_stack consecutive nonzero
    targets, or one target 0; its stack holds the group's targets in turn, each
    the T matrices of the T bases in order.

    Construction: blend each sign-aligned orthonormal base toward its unit
    direction u, e_i = normalize((1-t) q_i + t u). Coherence is 0 at t=0,
    approaches 1 as t -> 1, and the sign alignment makes it monotone in t, so
    the target is found by bisection. Raises UnreachableError, at the target
    where it first happens, when a built dictionary misses its target by more
    than tol, as one does whose target lies above the construction's ceiling
    (the coherence at t = _T_MAX, which rounds to 1 for every real base, so
    only a lowered _T_MAX reaches it); InvalidConfigError, before the first
    yield, for a target outside [0, 1) or a tol that is not positive. The bases are only read, so
    one stack serves every target; at target 0 the dictionaries are the
    bases, in a stack of their own, since a blend at t = 0 renormalizes and
    would move bytes. Each group's blend is frozen and held by its
    DictionaryStack without a copy, and dropped after its yield, so a caller
    that drops its own references holds one stack at a time.

    A group's blends and column normalizations are one broadcast call on its
    (G, T, dim, n_atoms) stack, each matrix with the bytes of its base alone.
    The bisection has a lane per (nonzero target, base), and every lane is
    bisected before the first target is built: from _VECTOR_LANES lanes on
    by _bisect_lanes in one numpy pass, below by _bisect_blend lane by lane,
    since a numpy pass costs about as much at one lane as at ten. The two
    routes give the same bytes and raise the same errors at the same target.

    Each bisection step reads the coherence from the closed form of
    _blend_coherence, not a built d x N dictionary. For t in (0, 1) and
    column j fixed, d/da_i log cos_ij has the sign of
    (1-t)^2 + (1-t)t (a_i - a_j), increasing in a_i, so cos_ij is quasiconvex
    in a_i and its maximum over i != j sits at the smallest or largest a_i:
    the maximizing pair is among the two smallest and two largest entries of
    a = base^T u, and a step costs O(1) where all pairs cost O(N^2). The
    closed form is within a few ULP of the built coherence, far inside tol.
    The loop stops once the midpoint equals an end of the bracket; only the
    final dictionaries are built. Each stack is checked once, and the tol
    check reads the built coherence of its stacked gram, target by target,
    which later readers (OMP's Gram rows, a ``Kernel`` of ``dictionaries[t]``)
    share.
    """
    targets = list(targets)
    for target_mu in targets:
        if not 0.0 <= target_mu < 1.0:
            raise InvalidConfigError(f"target_mu must be in [0, 1), got {target_mu}")
    if not tol > 0.0:
        raise InvalidConfigError(f"tol must be positive, got {tol}")
    base, u, a = bases
    ext = _extreme_entries(a)
    nonzero = [mu for mu in targets if mu != 0.0]
    if len(nonzero) * len(a) >= _VECTOR_LANES:
        ts = _bisect_lanes(np.tile(ext.T, len(nonzero)), np.repeat(nonzero, len(a)))
    else:
        ts = np.array([_bisect_blend(row, mu) for mu in nonzero for row in ext.tolist()])
    ts = ts.reshape(len(nonzero), len(a), 1, 1)
    groups = []
    for target_mu in targets:
        if target_mu != 0.0 and groups and groups[-1][0] != 0.0 and len(groups[-1]) < per_stack:
            groups[-1].append(target_mu)
        else:
            groups.append([target_mu])
    lane = 0
    for group in groups:
        if group[0] == 0.0:
            data = base
        else:
            data = _blend(base, u, ts[lane:lane + len(group)])
            data.setflags(write=False)
            data = data.reshape(-1, *base.shape[1:])
            lane += len(group)
        dictionaries = DictionaryStack(data)
        measured = mutual_coherence(dictionaries)
        for i, target_mu in enumerate(group):
            for mu in measured[i * len(a):(i + 1) * len(a)]:
                if abs(mu - target_mu) > tol:
                    raise UnreachableError(
                        f"bisection missed coherence {target_mu} within tol {tol}"
                    )
        yield dictionaries, measured
        del data, dictionaries


def coherent_dictionary(
    dim: int, n_atoms: int, target_mu: float, tol: float, seed: int
) -> UnitDictionary:
    """Dictionary whose mutual coherence is target_mu within tol: the one-seed,
    one-target coherent_dictionaries of blend_bases."""
    return next(coherent_dictionaries(blend_bases(dim, n_atoms, [seed]), [target_mu], tol))[0][0]


def planted_signals(dictionaries: DictionaryStack, k: int, seeds):
    """Exact k-sparse combinations of each matrix's atoms, seeds[t] for matrix t:
    the read-only (T, k) supports, sorted, (T, k) signs and (T, d) vectors.

    Each seed draws from its own stream, a uniform random k-subset and then
    +-1 signs: equal magnitudes are the adversarial case for greedy recovery.
    The streams are one generator that rng.streams re-keys per seed.
    The vectors are one stacked product of each matrix's support columns with
    its signs, row t with the bytes of the product on matrix t alone.
    """
    seeds = list(seeds)
    if len(seeds) != len(dictionaries):
        raise InvalidShapeError(f"need one seed per dictionary, got {len(seeds)} for "
                                f"{len(dictionaries)}")
    n = dictionaries.n_atoms
    k = check_k(k, n)
    supports = np.empty((len(seeds), k), dtype=np.intp)
    signs = np.empty((len(seeds), k))
    for gen, support, sign in zip(rng.streams(seeds, "planted"), supports, signs):
        support[:] = np.sort(gen.choice(n, size=k, replace=False))
        sign[:] = gen.integers(0, 2, size=k) * 2.0 - 1.0
    # (T, k, d): each matrix's support columns, laid out as the 2-D gather
    # data[:, support] lays out its (d, k) columns, so the products round alike
    columns = dictionaries.data[np.arange(len(seeds))[:, None], :, supports]
    planted = supports, signs, (columns.transpose(0, 2, 1) @ signs[..., None])[..., 0]
    for x in planted:
        x.setflags(write=False)
    return planted


def planted_signal(dictionary: UnitDictionary, k: int, seed: int):
    """Exact k-sparse combination of dictionary atoms: the one-matrix
    planted_signals, its row (support, signs, vector)."""
    return tuple(x[0] for x in planted_signals(DictionaryStack(dictionary.data[None]), k, [seed]))


@dataclass(frozen=True)
class ClassificationDataset:
    """Labeled vectors whose trailing feature block is an exact linear mixture.

    features is M x D; the first n_informative columns carry the class signal
    (per-class Gaussian centroid plus unit noise) and the remaining columns
    equal features[:, :n_informative] @ mixing exactly.
    """

    features: np.ndarray
    labels: np.ndarray
    mixing: np.ndarray
    n_informative: int
    n_classes: int

    def __post_init__(self):
        f = _frozen_array(self.features, name="features")
        l = _frozen_array(self.labels, dtype=np.int64, name="labels")
        a = _frozen_array(self.mixing, name="mixing")
        if f.ndim != 2 or l.ndim != 1 or f.shape[0] != l.shape[0]:
            raise InvalidShapeError("features and labels misaligned")
        if a.shape != (self.n_informative, f.shape[1] - self.n_informative):
            raise InvalidShapeError("mixing matrix shape inconsistent with feature split")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", l)
        object.__setattr__(self, "mixing", a)


def synthetic_classification(
    samples: int = 4000,
    features: int = 100,
    informative: int = 10,
    classes: int = 10,
    class_sep: float = 0.6,
    seed: int = 42,
) -> ClassificationDataset:
    """Classification data with a deliberately redundant feature dictionary.

    Class c gets a centroid drawn N(0, class_sep^2 I) in the informative
    subspace; each sample is its class centroid plus unit Gaussian noise. The
    redundant block is an exact random linear image of the informative block
    (entries of the mixing matrix are N(0, 1/informative)), which drives the
    column coherence of the feature matrix far above that of the informative
    block alone. Labels are balanced round-robin (within one sample) and then
    shuffled.
    """
    if samples < 1 or classes < 2 or informative < 1:
        raise InvalidConfigError("need samples >= 1, classes >= 2, informative >= 1")
    if not informative <= features:
        raise InvalidConfigError(
            f"informative ({informative}) must not exceed features ({features})"
        )
    if not 0 <= class_sep < np.inf:
        raise InvalidConfigError(f"class_sep must be finite and nonnegative, got {class_sep}")
    if samples < classes:
        raise InvalidConfigError("need at least one sample per class")

    gen = rng.stream(rng.check_seed(seed), "dataset")
    centroids = class_sep * gen.standard_normal((classes, informative))
    labels = np.arange(samples, dtype=np.int64) % classes
    labels = labels[gen.permutation(samples)]
    noise = gen.standard_normal((samples, informative))
    x_inf = centroids[labels] + noise
    n_red = features - informative
    mixing = gen.standard_normal((informative, n_red)) / np.sqrt(informative)
    x = np.hstack([x_inf, x_inf @ mixing])
    return ClassificationDataset(
        features=x,
        labels=labels,
        mixing=mixing,
        n_informative=informative,
        n_classes=classes,
    )

