"""The self-audit suite audits itself: clean pass, filtering, planted faults."""

import itertools
import json

import numpy as np
import pytest

from moegeo import infotheory, rng, sss, verify
from moegeo.errors import IdentityViolationError, InvalidConfigError
from moegeo.verify import ALL_CHECKS, CheckResult, run_verification


def test_all_checks_pass_on_clean_build():
    results = run_verification(seed=42)
    assert [r.name for r in results] == list(ALL_CHECKS)
    for r in results:
        assert r.passed, f"{r.name} failed: {r.detail} (margin {r.margin})"
        # verify.json carries every check, so each must survive JSON as plain types
        assert json.loads(json.dumps(r.as_dict())) == r.as_dict()
        assert type(r.passed) is bool and type(r.margin) is float, r.name


def test_filtering_runs_requested_subset_in_order():
    names = ["nemhauser-ratio", "collision-identity"]
    results = run_verification(seed=1, checks=names)
    assert [r.name for r in results] == names


def test_unknown_check_rejected():
    # a config error, typed so the CLI maps it to exit 2 without translating it
    with pytest.raises(InvalidConfigError, match="^unknown check 'no-such-check'; known: "):
        run_verification(checks=["no-such-check"])


def _plant(monkeypatch, module, name, wrong):
    """Make module.name return wrong(real result, *args)."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: wrong(real(*args), *args))


def test_fault_injection_fails_only_the_projection_check(monkeypatch):
    _plant(monkeypatch, verify, "kl_sparse_project", lambda r, *_: (r[0], r[1], -r[2]))
    results = run_verification(seed=42, checks=["kl-projection-oracle",
                                                "collision-identity"])
    assert results[0].passed is False
    assert results[0].margin < 0
    assert results[1].passed is True


def _shift(support, *_):
    return tuple(i + 1 for i in support)


# A wrong answer planted in the library function each check audits.
PLANTED = {
    "kl-projection-oracle": (verify, "kl_sparse_project", lambda r, *_: (r[0], r[1], -r[2])),
    "collision-identity": (verify, "renyi2_entropy", lambda h, *_: h - 1e-6),
    "topk-entropy-bound": (verify, "topk_conditional_entropy", lambda h, *_: h + 1.0),
    "orthogonal-greedy-optimality": (verify, "greedy_topk_select", _shift),
    # the sweep's greedy is the top k of its stacked correlations
    "coherence-barrier-region": (sss, "topk_indices", lambda r, *_: r + 1),
    "submodularity": (verify, "marginal_gain",
                      lambda g, kernel, subset, e: g + len(subset)),
    "nemhauser-ratio": (verify, "dpp_greedy_select",
                        lambda r, *_: (r[0][:-1], r[1][:-1])),
    "ambiguity-identity": (verify, "ambiguity_decomposition",
                           lambda r, *_: (r[0] + 1e-6, *r[1:])),
}


def test_every_check_has_a_planted_fault():
    assert set(PLANTED) == set(ALL_CHECKS)


@pytest.mark.parametrize("name", list(PLANTED))
def test_planted_fault_fails_its_check(monkeypatch, name):
    module, attr, wrong = PLANTED[name]
    _plant(monkeypatch, module, attr, wrong)
    [result] = run_verification(seed=42, checks=[name])
    assert result.passed is False
    assert result.margin < 0


def test_collision_floor_fault_fails_the_check(monkeypatch):
    # halved in both modules, the mass still equals exp(-H2), so only the floor E*mass >= 1 fails
    for module in (verify, infotheory):
        _plant(monkeypatch, module, "collision_mass", lambda mass, *_: mass / 2)
    [result] = run_verification(seed=42, checks=["collision-identity"])
    gap = float(result.detail.split()[3].rstrip(","))
    assert gap <= 1e-9
    assert result.passed is False
    assert result.margin < -0.4


def test_entropy_bound_violation_is_typed_and_fails_the_check(monkeypatch):
    # gates of 1/e are no distributions: k entries give k/e nats, above log k for every k
    built = infotheory.RoutingBatch.__post_init__

    def plant_gates(batch):
        built(batch)
        object.__setattr__(batch, "gates", np.full(batch.gates.shape, 1.0 / np.e))

    monkeypatch.setattr(infotheory.RoutingBatch, "__post_init__", plant_gates)
    batch = infotheory.RoutingBatch(dense_probs=[[0.5, 0.3, 0.2]], selections=[[0, 1]])
    with pytest.raises(IdentityViolationError, match="exceeds log k"):
        infotheory.topk_conditional_entropy(batch)
    [result] = run_verification(seed=42, checks=["topk-entropy-bound"])
    assert result.passed is False
    assert "exceeds log k" in result.detail


def test_results_deterministic():
    a = run_verification(seed=7, checks=["ambiguity-identity"])
    b = run_verification(seed=7, checks=["ambiguity-identity"])
    assert a[0].margin == b[0].margin
    assert a[0].detail == b[0].detail


# The layered route that the collision and volume checks replaced: the library
# audits as they were, each read by a check body for one field of its report.
# They call the library through verify's names, so one recorder sees both routes.


def _collision_identity_check(batch):
    p_bar = verify.CategoricalDist(batch.marginal)
    lhs = batch.n_experts * verify.collision_mass(p_bar)
    rhs = float(batch.n_experts * np.exp(-verify.renyi2_entropy(p_bar)))
    return lhs, rhs, abs(lhs - rhs)


def _submodularity_audit(kernel, samples, seed):
    """(samples, violations, worst margin) of `samples` sampled chains."""
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
        gain_a = verify.marginal_gain(kernel, a, e)
        gain_b = verify.marginal_gain(kernel, b, e)
        diminishing = gain_a - gain_b if b_size > a_size else np.inf
        monotone = gain_b - log_eps
        worst = min(worst, diminishing, monotone)
        if diminishing < -1e-8 or monotone < -1e-8:
            violations += 1
    return samples, violations, float(worst)


def _nemhauser_ratio(kernel, k):
    """The shifted greedy/optimum ratio, the optimum found by a strict-improvement scan,
    which the check's stacked optimum, the shifted max of its chunks' log dets, matches
    bit for bit."""
    greedy, _ = verify.dpp_greedy_select(kernel, k)
    best_val = -np.inf
    for sup in itertools.combinations(range(kernel.size), k):
        val = verify.shifted_objective(kernel, sup)
        if val > best_val:
            best_val = val
    stacked = max(float(verify.logdet_subsets(kernel, idx).max())
                  for idx in verify.k_subsets(kernel.size, k)) - k * float(np.log(kernel.epsilon))
    assert stacked.hex() == best_val.hex()
    greedy_val = verify.shifted_objective(kernel, greedy)
    return float(greedy_val / best_val if best_val > 0 else 1.0)


def layered_collision_identity(gen, cases):
    worst = 0.0
    floor = np.inf
    for _ in range(cases):
        lhs, rhs, _ = _collision_identity_check(verify._random_batch(gen))
        worst = max(worst, abs(lhs - rhs))
        floor = min(floor, lhs)
    return CheckResult("collision-identity", worst <= 1e-9 and floor >= 1.0 - 1e-12,
                       min(1e-9 - worst, floor - (1.0 - 1e-12)),
                       f"worst identity gap {worst:.2e}, min E*mass {floor:.6f}")


def layered_submodularity(gen, cases):
    violations = 0
    worst = np.inf
    chains = 0
    for kernel, seed in verify._volume_kernels(gen, cases // 20):
        samples, bad, margin = _submodularity_audit(kernel, 20, seed)
        violations += bad
        worst = min(worst, margin)
        chains += samples
    return CheckResult("submodularity", violations == 0, float(worst),
                       f"{violations} violations in {chains} chains "
                       f"(worst margin {worst:+.2e})")


def layered_nemhauser_ratio(gen, cases):
    floor = 1.0 - 1.0 / np.e - 1e-9
    worst = np.inf
    audits = 0
    for kernel, _ in verify._volume_kernels(gen, cases):
        for k in range(1, 5):
            worst = min(worst, _nemhauser_ratio(kernel, k))
            audits += 1
    return CheckResult("nemhauser-ratio", worst >= floor, float(worst - floor),
                       f"greedy/optimal ratio >= {worst:.6f} over {audits} exhaustive audits")


# Each merged check's layered route, the case count the acceptance gate runs it
# at, and the library call whose every argument and result both routes must share.
LAYERED = {
    "collision-identity": (layered_collision_identity, 1000, "renyi2_entropy"),
    "submodularity": (layered_submodularity, 1000, "marginal_gain"),
    "nemhauser-ratio": (layered_nemhauser_ratio, 50, "dpp_greedy_select"),
}


def _call_key(args):
    """A call's arguments, laws as bytes; kernels are left out, both routes draw them alike."""
    return tuple(a.probs.tobytes() if isinstance(a, infotheory.CategoricalDist) else a
                 for a in args if not isinstance(a, verify.Kernel))


@pytest.mark.parametrize("scale", ["verify", "gate"])
@pytest.mark.parametrize("seed", [0, 42, 46])
@pytest.mark.parametrize("name", list(LAYERED))
def test_merged_check_matches_layered_route(monkeypatch, name, seed, scale):
    layered, gate_cases, primitive = LAYERED[name]
    check, verify_cases = ALL_CHECKS[name]
    cases = verify_cases if scale == "verify" else gate_cases
    calls = []
    _plant(monkeypatch, verify, primitive, lambda r, *args: calls.append((_call_key(args), r)) or r)
    merged = check(np.random.default_rng(seed), cases)
    merged_calls = calls.copy()
    calls.clear()
    old = layered(np.random.default_rng(seed), cases)
    # the calls pin the draws, the margins and details the slack read from them
    assert merged_calls == calls
    assert (merged.passed, merged.margin.hex(), merged.detail) == \
        (old.passed, old.margin.hex(), old.detail)


def test_submodularity_margin_reads_the_strict_chains():
    # 220 of the gate's 1,000 chains have A = B, whose difference is 0 by
    # construction; the margin is the worst slack over the rest
    result = verify.check_submodularity(np.random.default_rng(46), 1000)
    assert result.passed and 0.0 < result.margin < 1e-4
