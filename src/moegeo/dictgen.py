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
from .core import TargetSignal, UnitDictionary, _frozen_array, check_k, mutual_coherence
from .errors import InvalidConfigError, InvalidShapeError, UnreachableError

# Bisection on the blend parameter stops after this many halvings.
_MAX_BISECT = 60
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


def _extreme_entries(a: np.ndarray) -> list[float]:
    """Two smallest and two largest entries of a = base^T u, ascending; all of a when N <= 4."""
    ranked = sorted(a.tolist())
    return ranked if len(ranked) <= 4 else ranked[:2] + ranked[-2:]


def _blend_coherence(ext: list[float], t: float) -> float:
    """Mutual coherence of _blend(base, u, t) from ext = _extreme_entries(base^T u).

    The base columns are orthonormal and u is a unit vector, so with
    c = (1-t)t column i of _blend(base, u, t) has squared norm
    n_i^2 = (1-t)^2 + 2c a_i + t^2 and cosine (c (a_i + a_j) + t^2) / (n_i n_j)
    with column j, positive because a >= 0. Evaluated in floats over the
    pairs of ext: O(1) a call (see coherent_dictionaries for why they suffice).
    Four entries, the case of every N >= 4, take the six pairs in straight
    line, with the float operations and their order of the pair loop.

    It stays scalar, one trial at a time, although the draws and the builds
    are stacked. A Python ``float ** 2`` calls libm ``pow``, while numpy
    squares an array with a multiply, and the two round differently:
    ``(1 - t) ** 2`` disagreed on 1,712 of 2,000,000 uniform draws of t
    (``np.random.default_rng(0)``). Squaring with a multiply moves one
    128 x 64 dictionary in 2,000 (seed rng.derive_state(777, "barrier", 14,
    15, 0), target 0.5541666667) by 1.1e-16, so a closed form vectorized over
    the trials keeps the bytes only if it reproduces ``pow``.
    """
    c = (1.0 - t) * t
    s, c2, tt = (1.0 - t) ** 2, 2.0 * c, t * t
    if len(ext) == 4:
        a0, a1, a2, a3 = ext
        n0 = 1.0 / math.sqrt(s + c2 * a0 + tt)
        n1 = 1.0 / math.sqrt(s + c2 * a1 + tt)
        n2 = 1.0 / math.sqrt(s + c2 * a2 + tt)
        n3 = 1.0 / math.sqrt(s + c2 * a3 + tt)
        return max((c * (a0 + a1) + tt) * (n0 * n1), (c * (a0 + a2) + tt) * (n0 * n2),
                   (c * (a0 + a3) + tt) * (n0 * n3), (c * (a1 + a2) + tt) * (n1 * n2),
                   (c * (a1 + a3) + tt) * (n1 * n3), (c * (a2 + a3) + tt) * (n2 * n3))
    inv_norm = [1.0 / math.sqrt(s + c2 * x + tt) for x in ext]
    return max((c * (ext[i] + ext[j]) + tt) * (inv_norm[i] * inv_norm[j])
               for i, j in itertools.combinations(range(len(ext)), 2))


def _bisect_blend(ext: list[float], target_mu: float) -> float:
    """The blend parameter t at which _blend_coherence(ext, t) crosses target_mu.

    UnreachableError when the coherence at t = 1 - 1e-9, the ceiling, stays below it.
    """
    lo, hi = 0.0, 1.0 - 1e-9
    mu_hi = _blend_coherence(ext, hi)
    if mu_hi < target_mu:
        raise UnreachableError(
            f"coherence {target_mu} exceeds the construction's ceiling {mu_hi:.6f}"
        )
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _blend_coherence(ext, mid) < target_mu:
            lo = mid
        else:
            hi = mid
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


def coherent_dictionaries(
    bases, target_mu: float, tol: float
) -> tuple[list[UnitDictionary], list[float]]:
    """One dictionary per base of bases = blend_bases(...) whose mutual
    coherence is target_mu within tol, and each one's measured coherence.

    Construction: blend each sign-aligned orthonormal base toward its unit
    direction u, e_i = normalize((1-t) q_i + t u). Coherence is 0 at t=0,
    approaches 1 as t -> 1, and the sign alignment makes it monotone in t, so
    the target is found by bisection. Raises UnreachableError when the target
    cannot be bracketed or hit within tol. The bases are only read, so one
    stack serves every target; at target 0 each dictionary is a copy of its
    base.

    The blends and column normalizations run on the (T, dim, n_atoms) stack,
    each matrix with the bytes of its base alone. The bisection runs base by
    base (see _blend_coherence).

    The ceiling check and each bisection step read the coherence from the
    closed form of _blend_coherence, not a built d x N dictionary. For
    t in (0, 1) and column j fixed, d/da_i log cos_ij has the sign of
    (1-t)^2 + (1-t)t (a_i - a_j), increasing in a_i, so cos_ij is quasiconvex
    in a_i and its maximum over i != j sits at the smallest or largest a_i:
    the maximizing pair is among the two smallest and two largest entries of
    a = base^T u, and a step costs O(1) where all pairs cost O(N^2). The
    closed form is within a few ULP of the built coherence, far inside tol.
    The loop stops once the midpoint equals an end of the bracket; only the
    final dictionaries are built, and the tol check reads their built
    coherence, which is returned beside them.
    """
    if not 0.0 <= target_mu < 1.0:
        raise InvalidConfigError(f"target_mu must be in [0, 1), got {target_mu}")
    if not tol > 0.0:
        raise InvalidConfigError(f"tol must be positive, got {tol}")
    base, u, a = bases
    if target_mu == 0.0:
        data = base
    else:
        t = [_bisect_blend(_extreme_entries(row), target_mu) for row in a]
        data = _blend(base, u, np.array(t)[:, None, None])
    dictionaries = [UnitDictionary(m) for m in data]
    measured = [mutual_coherence(d) for d in dictionaries]
    for mu in measured:
        if abs(mu - target_mu) > tol:
            raise UnreachableError(
                f"bisection missed coherence {target_mu} within tol {tol}"
            )
    return dictionaries, measured


def coherent_dictionary(
    dim: int, n_atoms: int, target_mu: float, tol: float, seed: int
) -> UnitDictionary:
    """Dictionary whose mutual coherence is target_mu within tol: the one-seed
    coherent_dictionaries of blend_bases."""
    return coherent_dictionaries(blend_bases(dim, n_atoms, [seed]), target_mu, tol)[0][0]


def planted_signal(dictionary: UnitDictionary, k: int, seed: int) -> TargetSignal:
    """Exact k-sparse combination of dictionary atoms with recorded truth.

    The support is a uniform random k-subset and the coefficients are +-1
    signs: equal magnitudes are the adversarial case for greedy recovery.
    """
    n = dictionary.n_atoms
    check_k(k, n)
    gen = rng.stream(seed, "planted")
    support = np.sort(gen.choice(n, size=k, replace=False))
    coef = gen.integers(0, 2, size=k) * 2.0 - 1.0
    vector = dictionary.data[:, support] @ coef
    return TargetSignal(vector=vector, support=tuple(int(i) for i in support), coefficients=coef)


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

