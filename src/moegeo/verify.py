"""Self-audit suite: every analytic identity checked at small scale.

Each check re-derives its expected answer independently (enumeration,
closed forms, loop oracles) rather than trusting the module under test.
Margins follow one convention: positive means slack remains before the
tolerance is breached, so the worst margin of a passing run says how
close the build is to failing.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import softmax_rows, topk_indices
from .diversity import Kernel, nemhauser_audit, submodularity_audit
from .dictgen import random_orthonormal_dictionary
from .errors import IdentityViolationError
from .infotheory import (
    CategoricalDist,
    RoutingBatch,
    collision_identity_check,
    kl_sparse_project,
    topk_conditional_entropy,
)
from .moe import ambiguity_decomposition
from .rng import stream
from .sss import barrier_sweep, brute_force_sss, greedy_topk_select


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str

    def as_dict(self):
        return {"name": self.name, "pass": self.passed,
                "margin": self.margin, "detail": self.detail}


def _random_dist(gen, e):
    p = gen.random(e) + 1e-3
    return p / p.sum()


def _random_batch(gen, t, e, k):
    """Softmax of Gaussian logits; each token selects a uniform random k-subset."""
    probs = softmax_rows(gen.standard_normal((t, e)))
    return RoutingBatch(dense_probs=probs, selections=topk_indices(-gen.random((t, e)), k))


def check_kl_projection_oracle(seed, inject_fault=False):
    """Projection equals the enumerated minimizer; KL matches -log(mass)."""
    gen = stream(seed, "verify", "kl")
    worst = 0.0
    mismatches = 0
    for _ in range(200):
        e = int(gen.integers(2, 9))
        k = int(gen.integers(1, min(4, e) + 1))
        p = _random_dist(gen, e)
        q, support, kl = kl_sparse_project(CategoricalDist(p), k)
        if inject_fault:
            kl = -kl
        best_kl, best_sup = np.inf, None
        for sup in itertools.combinations(range(e), k):
            cand = -math.log(p[list(sup)].sum())
            if cand < best_kl - 1e-15:
                best_kl, best_sup = cand, sup
        if support != best_sup:
            mismatches += 1
        worst = max(worst, abs(kl - best_kl))
    margin = 1e-10 - worst if mismatches == 0 else -float(mismatches)
    return CheckResult("kl-projection-oracle", mismatches == 0 and worst <= 1e-10,
                       margin, f"200 distributions, {mismatches} support mismatches, "
                               f"worst KL error {worst:.3e}")


def check_collision_identity(seed, **_):
    """Load-balance term equals E * exp(-H2) of the mean routing law."""
    gen = stream(seed, "verify", "collision")
    worst = 0.0
    for _ in range(200):
        batch = _random_batch(gen, int(gen.integers(2, 17)), int(gen.integers(2, 11)), 1)
        _, _, gap = collision_identity_check(batch)
        worst = max(worst, gap)
    return CheckResult("collision-identity", worst <= 1e-9, 1e-9 - worst,
                       f"200 random batches, worst identity gap {worst:.3e}")


def check_topk_entropy_bound(seed, **_):
    """Renormalized-gate entropy never exceeds log k."""
    gen = stream(seed, "verify", "entropy")
    worst = -np.inf
    for k in (1, 2, 4):
        for _ in range(70):
            e = int(gen.integers(k + 1, 12))
            batch = _random_batch(gen, int(gen.integers(2, 16)), e, k)
            try:
                h = topk_conditional_entropy(batch)
            except IdentityViolationError as exc:
                return CheckResult("topk-entropy-bound", False, -np.inf, str(exc))
            worst = max(worst, h - math.log(k))
    return CheckResult("topk-entropy-bound", worst <= 1e-9, 1e-9 - worst,
                       f"210 batches over k in (1,2,4), worst excess {worst:.3e}")


def check_orthogonal_greedy_optimality(seed, **_):
    """On orthonormal dictionaries greedy equals exhaustive search."""
    gen = stream(seed, "verify", "orthogonal")
    mismatches = 0
    for _ in range(60):
        d = int(gen.integers(4, 11))
        n = int(gen.integers(3, d + 1))
        k = int(gen.integers(1, min(3, n - 1) + 1))
        dictionary = random_orthonormal_dictionary(d, n, int(gen.integers(0, 2**63)))
        y = gen.standard_normal(d)
        if greedy_topk_select(dictionary, y, k) != brute_force_sss(dictionary, y, k).support:
            mismatches += 1
    return CheckResult("orthogonal-greedy-optimality", mismatches == 0,
                       -float(mismatches), f"60 dictionaries, {mismatches} mismatches")


def check_coherence_barrier_region(seed, **_):
    """Below mu = 1/(2k-1) greedy recovery must be perfect, trial by trial."""
    k = 6
    curve = barrier_sweep(d=32, n_atoms=16, k=k, mu_grid=[0.0, 0.04, 0.08],
                          trials=25, seed=seed)
    bound = curve.theoretical_bound
    failures = 0
    in_region = 0
    for point in curve.outcomes:
        for outcome in point:
            if outcome.mu_measured < bound:
                in_region += 1
                if not outcome.greedy_exact:
                    failures += 1
    passed = failures == 0 and in_region > 0
    return CheckResult("coherence-barrier-region", passed, -float(failures),
                       f"{in_region} trials measured below 1/(2k-1), {failures} misses")


def check_submodularity(seed, **_):
    gen = stream(seed, "verify", "submodular")
    worst = np.inf
    violations = 0
    for i in range(2):
        feats = gen.standard_normal((8, 12))
        kernel = Kernel.from_features(feats)
        report = submodularity_audit(kernel, samples=300, seed=int(gen.integers(0, 2**63)))
        violations += report.violations
        worst = min(worst, report.worst_margin)
    return CheckResult("submodularity", violations == 0, float(worst),
                       f"600 sampled chain comparisons, {violations} violations")


def check_nemhauser_ratio(seed, **_):
    gen = stream(seed, "verify", "nemhauser")
    floor = 1.0 - 1.0 / math.e
    worst = np.inf
    for _ in range(5):
        feats = gen.standard_normal((8, 10))
        report = nemhauser_audit(Kernel.from_features(feats), k=3)
        worst = min(worst, report.shifted_ratio)
    return CheckResult("nemhauser-ratio", worst >= floor - 1e-9,
                       float(worst - floor + 1e-9),
                       f"5 exhaustive instances, worst ratio {worst:.6f}")


def check_ambiguity_identity(seed, **_):
    gen = stream(seed, "verify", "ambiguity")
    worst = 0.0
    for _ in range(200):
        k = int(gen.integers(1, 9))
        dim = int(gen.integers(1, 17))
        y = gen.standard_normal((k, dim)) * 3
        target = gen.standard_normal(dim)
        _, _, _, gap = ambiguity_decomposition(y, target)
        worst = max(worst, gap)
    return CheckResult("ambiguity-identity", worst <= 1e-10, 1e-10 - worst,
                       f"200 random ensembles, worst identity gap {worst:.3e}")


ALL_CHECKS = {
    "kl-projection-oracle": check_kl_projection_oracle,
    "collision-identity": check_collision_identity,
    "topk-entropy-bound": check_topk_entropy_bound,
    "orthogonal-greedy-optimality": check_orthogonal_greedy_optimality,
    "coherence-barrier-region": check_coherence_barrier_region,
    "submodularity": check_submodularity,
    "nemhauser-ratio": check_nemhauser_ratio,
    "ambiguity-identity": check_ambiguity_identity,
}


def run_verification(seed=42, checks=None, inject_fault=False):
    """Run the selected checks (all by default) and collect results.

    `inject_fault` deliberately corrupts the projection check's reported
    KL; it exists so the harness contract (exit 1, failing check named)
    is itself testable.
    """
    names = list(ALL_CHECKS) if not checks else list(checks)
    unknown = [n for n in names if n not in ALL_CHECKS]
    if unknown:
        raise KeyError(f"unknown check {unknown[0]!r}; known: {', '.join(ALL_CHECKS)}")
    return [ALL_CHECKS[n](seed, inject_fault=inject_fault) for n in names]
