"""Log-determinant (volume) diversity selection on unit-feature kernels.

The kernel is the Gram matrix of unit-norm feature columns, Tikhonov-shifted
by epsilon so determinants of rank-deficient subsets stay finite. Greedy
selection maximizes log det; its marginal gains are Schur complements, which
is also what makes the objective submodular. The audits check submodularity
and the greedy (1 - 1/e) approximation bound empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import rng
from .core import UnitDictionary, check_enumerable, check_k, normalize_columns, psd_cholesky
from .errors import InvalidShapeError, NotPSDError

# Greedy candidates whose incremental gain lies within this many nats of the
# round's best are rescored with marginal_gain before the pick.
_GAIN_BAND = 1e-9
# A Cholesky factor of gram - _PSD_SHIFT * I certifies that gram is PSD.
_PSD_SHIFT = 1e-6


@dataclass(frozen=True)
class Kernel:
    """Symmetric PSD similarity matrix with unit diagonal, plus a Tikhonov shift.

    The gram is accepted when its least eigenvalue is at least
    -epsilon * 1e-8, as eigvalsh computes it. A certificate decides first: if
    the Cholesky factor R of A = gram - sigma I (sigma = _PSD_SHIFT) completes
    in floating point, then R^T R = A + dA with |dA| <= gamma_{n+1} |R^T| |R|
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, section
    10.1), and || |R^T| |R| ||_2 <= ||R||_F^2 = trace(A + dA), about n on a
    unit diagonal, so lambda_min(gram) >= sigma - gamma_{n+1} n (1 + O(u)),
    with gamma_{n+1} = (n+1)u / (1 - (n+1)u) and u = eps/2. eigvalsh's least
    eigenvalue lies within p(n) u ||gram||_2 <= p(n) u n of the true one,
    p(n) a modest polynomial. While n(n+1) eps <= 1e-3 sigma (n up to about
    3,000) both errors are far below sigma, so a completed factor means
    eigvalsh would read about sigma and accept: the two routes decide alike.
    A factor that fails, or a larger n, leaves the decision to eigvalsh.
    """

    gram: np.ndarray
    epsilon: float = 1e-4

    def __post_init__(self):
        g = np.array(self.gram, dtype=np.float64, copy=True)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise InvalidShapeError(f"gram must be square, got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise InvalidShapeError("gram contains non-finite entries")
        if self.epsilon <= 0:
            raise InvalidShapeError(f"epsilon must be positive, got {self.epsilon}")
        if np.abs(g - g.T).max() > 1e-10:
            raise NotPSDError("gram is not symmetric")
        if np.abs(np.diag(g) - 1.0).max() > 1e-10:
            raise InvalidShapeError("gram diagonal must be 1")
        if not _certified_psd(g) and np.linalg.eigvalsh(g).min() < -self.epsilon * 1e-8:
            raise NotPSDError("gram has a negative eigenvalue beyond tolerance")
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "epsilon", float(self.epsilon))

    @property
    def size(self) -> int:
        return self.gram.shape[0]

    @classmethod
    def from_features(cls, features: np.ndarray, epsilon: float = 1e-4) -> "Kernel":
        """Kernel of column features; columns are normalized first."""
        d = normalize_columns(np.asarray(features, dtype=np.float64))
        return cls.from_dictionary(d, epsilon)

    @classmethod
    def from_dictionary(cls, dictionary: UnitDictionary, epsilon: float = 1e-4) -> "Kernel":
        gram = 0.5 * (dictionary.gram + dictionary.gram.T)
        # exact unit diagonal despite rounding in the inner products
        np.fill_diagonal(gram, 1.0)
        return cls(gram=gram, epsilon=epsilon)


def _certified_psd(g: np.ndarray) -> bool:
    """True when a Cholesky factor of g - _PSD_SHIFT * I proves g PSD (see Kernel)."""
    n = g.shape[0]
    if n * (n + 1) * np.finfo(np.float64).eps > 1e-3 * _PSD_SHIFT:
        return False
    shifted = g.copy()
    shifted.flat[:: n + 1] -= _PSD_SHIFT
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _check_subset(kernel: Kernel, subset) -> list[int]:
    idx = [int(i) for i in subset]
    if len(set(idx)) != len(idx):
        raise InvalidShapeError("subset has repeated indices")
    if any(i < 0 or i >= kernel.size for i in idx):
        raise InvalidShapeError(f"subset indices must lie in [0, {kernel.size})")
    return idx


def logdet_subset(kernel: Kernel, subset) -> float:
    """log det of the subset's shifted Gram block, via Cholesky."""
    idx = _check_subset(kernel, subset)
    if not idx:
        raise InvalidShapeError("subset must be nonempty")
    chol = psd_cholesky(kernel.gram[np.ix_(idx, idx)] + kernel.epsilon * np.eye(len(idx)))
    return float(2.0 * np.sum(np.log(np.diag(chol))))


def marginal_gain(kernel: Kernel, subset, e: int) -> float:
    """logdet gain of adding element e: the log of its Schur complement.

    Equals logdet_subset(S + e) - logdet_subset(S); for empty S it is
    log(1 + epsilon). The Schur complement is the shifted squared distance of
    feature e to the span of the subset's features.
    """
    idx = _check_subset(kernel, subset)
    e = int(e)
    if e < 0 or e >= kernel.size:
        raise InvalidShapeError(f"element {e} out of range")
    if e in idx:
        raise InvalidShapeError(f"element {e} already in subset")
    eps = kernel.epsilon
    if not idx:
        return float(np.log(kernel.gram[e, e] + eps))
    chol = psd_cholesky(kernel.gram[np.ix_(idx, idx)] + eps * np.eye(len(idx)))
    z = np.linalg.solve(chol, kernel.gram[idx, e])
    schur = float(kernel.gram[e, e] + eps - z @ z)
    if schur <= 0.0:
        raise NotPSDError(f"non-positive Schur complement at element {e}")
    return float(np.log(schur))


def dpp_greedy_select(kernel: Kernel, k: int) -> tuple[int, ...]:
    """k rounds of argmax marginal volume gain; ties go to the lowest index.

    Greedy MAP with an incremental Cholesky factor (Chen, Zhang & Zhou,
    NeurIPS 2018). Every candidate i keeps its row c_i of the factor of the
    selected block and its Schur complement d_i^2 = L_ii + eps - |c_i|^2, whose
    log is its marginal gain. Picking j appends e = (L[j] - c_j^T c) / d_j to
    every row and subtracts e^2 from every d^2: O(N k) per round and O(N k^2)
    in all, instead of factoring the selected block anew for every candidate
    in every round.

    The incremental gains can differ from marginal_gain in the last bits. When
    more than one candidate lies within _GAIN_BAND of the round's best gain,
    those candidates are rescored with marginal_gain and the exact argmax
    wins, so the picks are the ones the per-candidate route makes. In round 0
    the exact gain of e is log(gram[e, e] + eps), a function of schur[e]
    alone, so when every near candidate has a bit-equal schur, as on any
    exactly unit diagonal, rescoring would return their first and is skipped.
    Raises NotPSDError when the chosen Schur complement is not positive.

    Returned in selection order.
    """
    n = kernel.size
    check_k(k, n)
    rows = np.zeros((k, n))
    schur = np.diag(kernel.gram) + kernel.epsilon
    selected: list[int] = []
    for r in range(k):
        gains = np.full(n, -np.inf)
        np.log(schur, out=gains, where=schur > 0.0)
        j = int(np.argmax(gains))
        if not schur[j] > 0.0:
            raise NotPSDError(f"non-positive Schur complement at element {j}")
        near = np.flatnonzero(gains >= gains[j] - _GAIN_BAND)
        if near.size > 1 and not (r == 0 and np.all(schur[near] == schur[j])):
            exact = [marginal_gain(kernel, selected, e) for e in near]
            j = int(near[np.argmax(exact)])
        e_row = (kernel.gram[j] - rows[:r, j] @ rows[:r]) / np.sqrt(schur[j])
        rows[r] = e_row
        schur -= e_row * e_row
        # a picked element never competes again
        schur[j] = 0.0
        selected.append(j)
    return tuple(selected)


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a sampled submodularity / monotonicity audit."""

    samples: int
    violations: int
    worst_margin: float


def submodularity_audit(kernel: Kernel, samples: int, seed: int) -> AuditReport:
    """Check diminishing returns and shifted-objective monotonicity by sampling.

    Draws random chains A subset-of B and e outside B, then requires
    gain(A,e) >= gain(B,e) - 1e-8 and gain(B,e) - log(eps) >= -1e-8 (the
    latter is monotonicity of the shifted objective, whose per-element gain is
    the raw gain minus log eps). Returns the violation count and the worst
    signed margin seen (negative = violation).
    """
    if samples < 1:
        raise InvalidShapeError("samples must be >= 1")
    gen = rng.stream(seed, "submodularity")
    n = kernel.size
    log_eps = float(np.log(kernel.epsilon))
    violations = 0
    worst = np.inf
    for _ in range(samples):
        perm = gen.permutation(n)
        a_size = int(gen.integers(0, n - 1))
        b_size = int(gen.integers(a_size, n))
        a = sorted(int(i) for i in perm[:a_size])
        b = sorted(int(i) for i in perm[:b_size])
        e = int(perm[b_size])
        gain_a = marginal_gain(kernel, a, e)
        gain_b = marginal_gain(kernel, b, e)
        diminishing = gain_a - gain_b
        monotone = gain_b - log_eps
        worst = min(worst, diminishing, monotone)
        if diminishing < -1e-8 or monotone < -1e-8:
            violations += 1
    return AuditReport(samples=samples, violations=violations, worst_margin=float(worst))


@dataclass(frozen=True)
class NemhauserReport:
    """Greedy-vs-exhaustive comparison of the shifted volume objective."""

    k: int
    greedy_support: tuple[int, ...]
    best_support: tuple[int, ...]
    shifted_greedy: float
    shifted_best: float
    shifted_ratio: float


def shifted_objective(kernel: Kernel, subset) -> float:
    """logdet(L_S + eps I) - |S| log eps: nonnegative, monotone, submodular."""
    idx = _check_subset(kernel, subset)
    if not idx:
        return 0.0
    return logdet_subset(kernel, idx) - len(idx) * float(np.log(kernel.epsilon))


def nemhauser_audit(kernel: Kernel, k: int) -> NemhauserReport:
    """Exhaustively compare the greedy subset with the true optimum.

    The asserted guarantee lives on the shifted objective.
    """
    check_k(k, kernel.size)
    check_enumerable(kernel.size, k)
    greedy = dpp_greedy_select(kernel, k)
    best_val = -np.inf
    best_sup: tuple[int, ...] = ()
    for sup in combinations(range(kernel.size), k):
        val = shifted_objective(kernel, sup)
        if val > best_val:
            best_val = val
            best_sup = sup
    greedy_val = shifted_objective(kernel, greedy)
    ratio = greedy_val / best_val if best_val > 0 else 1.0
    return NemhauserReport(
        k=k,
        greedy_support=tuple(sorted(greedy)),
        best_support=best_sup,
        shifted_greedy=greedy_val,
        shifted_best=best_val,
        shifted_ratio=float(ratio),
    )
