"""Self-audit suite: every analytic identity checked on random instances.

Each check is the one body for its guarantee and takes a generator and a
case count: `moegeo verify` runs it at small scale on a verify stream, and
the acceptance gate runs the same function at official scale on its own
generator. Each check re-derives its expected answer independently
(enumeration, closed forms, loop oracles) rather than trusting the module
under test. Margins follow one convention: positive means slack remains
before the tolerance is breached, so the worst margin of a passing run says
how close the build is to failing.
"""

from dataclasses import dataclass

import numpy as np

from .core import k_subsets, normalize_columns, topk_indices
from .diversity import Kernel, dpp_greedy_select, logdet_subsets, marginal_gain, shifted_objective
from .dictgen import random_orthonormal_dictionary
from .errors import IdentityViolationError, InvalidConfigError
from .infotheory import (
    CategoricalDist,
    RoutingBatch,
    collision_mass,
    kl_sparse_project,
    renyi2_entropy,
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


def _random_batch(gen, k=None):
    """1-24 tokens over 2-12 experts, each routed to its top k (k random if None)."""
    t = int(gen.integers(1, 25))
    e = int(gen.integers(max(2, k or 2), 13))
    kk = k if k is not None else int(gen.integers(1, e + 1))
    probs = gen.random((t, e)) + 1e-6
    probs /= probs.sum(axis=1, keepdims=True)
    return RoutingBatch(dense_probs=probs, selections=topk_indices(probs, kk))


def check_kl_projection_oracle(gen, cases):
    """Projection equals the enumerated minimizer; KL matches -log(mass)."""
    worst = 0.0
    mismatches = 0
    for _ in range(cases):
        e = int(gen.integers(2, 9))
        k = int(gen.integers(1, min(4, e) + 1))
        p = gen.random(e) + 1e-3
        p /= p.sum()
        q, support, kl = kl_sparse_project(CategoricalDist(p), k)
        # the lexicographically first support of maximal kept mass, of at most C(8, 4) = 70
        subsets = np.concatenate(list(k_subsets(e, k)))
        best = subsets[np.argmax(p[subsets].sum(axis=1))].tolist()
        best_mass = float(p[best].sum())
        expect = np.zeros(e)
        expect[best] = p[best] / best_mass
        if support != tuple(best) or not np.allclose(q.probs, expect, rtol=1e-7, atol=1e-12):
            mismatches += 1
        worst = max(worst, abs(kl + float(np.log(best_mass))))
    margin = 1e-10 - worst if mismatches == 0 else float(-mismatches)
    return CheckResult("kl-projection-oracle", mismatches == 0 and worst <= 1e-10, margin,
                       f"{cases} cases, worst kl gap {worst:.2e}"
                       + (f", {mismatches} support or q mismatches" if mismatches else ""))


def check_collision_identity(gen, cases):
    """E sum P^2 equals E exp(-H2) of the mean routing law and is at least 1.

    This is the balanced regime of the load-balancing loss (f replaced by P),
    rewritten through the collision entropy of the batch marginal.
    """
    worst = 0.0
    floor = np.inf
    for _ in range(cases):
        batch = _random_batch(gen)
        p_bar = CategoricalDist(batch.marginal)
        lhs = batch.n_experts * collision_mass(p_bar)
        rhs = float(batch.n_experts * np.exp(-renyi2_entropy(p_bar)))
        worst = max(worst, abs(lhs - rhs))
        # equality iff the marginal is uniform
        floor = min(floor, lhs)
    return CheckResult("collision-identity", worst <= 1e-9 and floor >= 1.0 - 1e-12,
                       min(1e-9 - worst, floor - (1.0 - 1e-12)),
                       f"worst identity gap {worst:.2e}, min E*mass {floor:.6f}")


def check_topk_entropy_bound(gen, cases):
    """Renormalized-gate entropy never exceeds log k, for k cycling through 1, 2, 4."""
    worst = -np.inf
    for i in range(cases):
        k = (1, 2, 4)[i % 3]
        try:
            h = topk_conditional_entropy(_random_batch(gen, k))
        except IdentityViolationError as exc:
            return CheckResult("topk-entropy-bound", False, -np.inf, str(exc))
        worst = max(worst, h - float(np.log(k)))
    return CheckResult("topk-entropy-bound", worst <= 1e-9, 1e-9 - worst,
                       f"{cases} batches, worst excess {worst:.2e}")


def check_orthogonal_greedy_optimality(gen, cases):
    """On orthonormal dictionaries greedy selects the exhaustive optimum's support."""
    misses = 0
    for _ in range(cases):
        n = int(gen.integers(3, 13))
        d = int(gen.integers(n, 17))
        k = int(gen.integers(1, min(4, n - 1) + 1))
        dictionary = random_orthonormal_dictionary(d, n, int(gen.integers(0, 2**63)))
        y = gen.standard_normal(d)
        greedy = set(greedy_topk_select(dictionary, y, k))
        misses += greedy != set(brute_force_sss(dictionary, y, k).support)
    return CheckResult("orthogonal-greedy-optimality", misses == 0, float(-misses),
                       f"{cases - misses}/{cases} supports identical")


def barrier_region(curve):
    """Below mu = 1/(2k-1) greedy recovery is exact, trial by trial, and so is
    every grid point whose mean measured coherence lies below the bound."""
    bound = curve.theoretical_bound
    below = curve.mu_measured < bound
    misses = int((below & ~curve.greedy_exact).sum())
    guarded = [r for m, r in zip(curve.mu_measured_mean, curve.success_rate_greedy)
               if m < bound]
    failures = misses + sum(r != 1.0 for r in guarded)
    return CheckResult("coherence-barrier-region", failures == 0 and bool(below.any()),
                       float(-failures),
                       f"{int(below.sum())} trials below mu={bound:.4f} "
                       + (f"with {misses} misses" if misses else "all exact")
                       + f" over {len(guarded)} grid points")


def check_coherence_barrier_region(gen, cases):
    """The guaranteed region of a small sweep, `cases` trials per grid point."""
    return barrier_region(barrier_sweep(d=32, n_atoms=16, k=6, mu_grid=[0.0, 0.04, 0.08],
                                        trials=cases, seed=int(gen.integers(0, 2**63))))


def _volume_kernels(gen, count):
    """Kernels of 5-12 unit features in 4-16 dimensions, each drawn with a chain seed."""
    for _ in range(count):
        n = int(gen.integers(5, 13))
        d = int(gen.integers(4, 17))
        kernel = Kernel(normalize_columns(gen.standard_normal((d, n))), epsilon=1e-4)
        yield kernel, int(gen.integers(0, 2**63))


def check_submodularity(gen, cases):
    """Diminishing returns of the volume objective on `cases` chains, 20 per kernel.

    Each kernel's chains come from stream(chain seed, "submodularity"): a random
    chain A subset-of B and e outside B must give gain(A,e) >= gain(B,e) - 1e-8
    and gain(B,e) - log(eps) >= -1e-8 (the latter is monotonicity of the shifted
    objective, whose per-element gain is the raw gain minus log eps). The margin
    is the worst signed slack seen, negative on a violation; a chain with A = B
    has a diminishing-returns difference of 0 by construction, so it counts as
    satisfied and its slack is not read.
    """
    violations = 0
    worst = np.inf
    chains = 0
    for kernel, seed in _volume_kernels(gen, cases // 20):
        chain_gen = stream(seed, "submodularity")
        n = kernel.size
        log_eps = float(np.log(kernel.epsilon))
        for _ in range(20):
            perm = chain_gen.permutation(n)
            a_size = int(chain_gen.integers(0, n - 1))
            b_size = int(chain_gen.integers(a_size, n))
            a = sorted(int(i) for i in perm[:a_size])
            b = sorted(int(i) for i in perm[:b_size])
            e = int(perm[b_size])
            gain_a = marginal_gain(kernel, a, e)
            gain_b = marginal_gain(kernel, b, e)
            diminishing = gain_a - gain_b if b_size > a_size else np.inf
            monotone = gain_b - log_eps
            worst = min(worst, diminishing, monotone)
            if diminishing < -1e-8 or monotone < -1e-8:
                violations += 1
        chains += 20
    return CheckResult("submodularity", violations == 0, float(worst),
                       f"{violations} violations in {chains} chains "
                       f"(worst margin {worst:+.2e})")


def check_nemhauser_ratio(gen, cases):
    """Greedy volume keeps 1 - 1/e of the optimum, k = 1..4 on `cases` kernels.

    The optimum is enumerated; the guarantee lives on the shifted objective,
    and a ratio whose optimum is not positive counts as 1.
    """
    floor = 1.0 - 1.0 / np.e - 1e-9
    worst = np.inf
    audits = 0
    # the kernels check_submodularity draws from a generator in the same state;
    # each kernel's chain seed is drawn to keep the two in step, and unused
    for kernel, _ in _volume_kernels(gen, cases):
        for k in range(1, 5):
            greedy, _ = dpp_greedy_select(kernel, k)
            # fl(x - c) is monotone in x, so the shifted optimum is the shifted max log det
            best = max(float(logdet_subsets(kernel, idx).max())
                       for idx in k_subsets(kernel.size, k)) - k * float(np.log(kernel.epsilon))
            ratio = shifted_objective(kernel, greedy) / best if best > 0 else 1.0
            worst = min(worst, ratio)
            audits += 1
    return CheckResult("nemhauser-ratio", worst >= floor, float(worst - floor),
                       f"greedy/optimal ratio >= {worst:.6f} over {audits} exhaustive audits")


def check_ambiguity_identity(gen, cases):
    """Ensemble error equals mean individual error minus ambiguity."""
    worst = 0.0
    for _ in range(cases):
        k = int(gen.integers(1, 9))
        dim = int(gen.integers(1, 17))
        outputs = gen.standard_normal((k, dim)) * float(gen.uniform(0.1, 3.0))
        ens, mean_ind, ambiguity, _ = ambiguity_decomposition(outputs, gen.standard_normal(dim))
        worst = max(worst, abs(ens - (mean_ind - ambiguity)))
    return CheckResult("ambiguity-identity", worst <= 1e-10, 1e-10 - worst,
                       f"{cases} ensembles, worst closure gap {worst:.2e}")


# Each check with the case count `moegeo verify` runs it at.
ALL_CHECKS = {
    "kl-projection-oracle": (check_kl_projection_oracle, 200),
    "collision-identity": (check_collision_identity, 200),
    "topk-entropy-bound": (check_topk_entropy_bound, 210),
    "orthogonal-greedy-optimality": (check_orthogonal_greedy_optimality, 60),
    "coherence-barrier-region": (check_coherence_barrier_region, 25),
    "submodularity": (check_submodularity, 600),
    "nemhauser-ratio": (check_nemhauser_ratio, 5),
    "ambiguity-identity": (check_ambiguity_identity, 200),
}


def run_verification(seed=42, checks=None):
    """Run the selected checks (all when checks is None), each on its own stream.

    InvalidConfigError on an empty selection, and naming the first check that
    ALL_CHECKS does not hold.
    """
    names = list(ALL_CHECKS) if checks is None else list(checks)
    if not names:
        raise InvalidConfigError(f"checks selects none; known: {', '.join(ALL_CHECKS)}")
    unknown = [n for n in names if n not in ALL_CHECKS]
    if unknown:
        raise InvalidConfigError(f"unknown check {unknown[0]!r}; known: {', '.join(ALL_CHECKS)}")
    results = []
    for name in names:
        check, cases = ALL_CHECKS[name]
        results.append(check(stream(seed, "verify", name), cases))
    return results
