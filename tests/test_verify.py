"""The self-audit suite audits itself: clean pass, filtering, planted faults."""

import json

import numpy as np
import pytest

from moegeo import diversity, infotheory, sss, verify
from moegeo.errors import IdentityViolationError, InvalidConfigError
from moegeo.verify import ALL_CHECKS, run_verification


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
    "collision-identity": (verify, "collision_identity_check",
                           lambda r, *_: (r[0], r[1] + 1e-6, r[2])),
    "topk-entropy-bound": (verify, "topk_conditional_entropy", lambda h, *_: h + 1.0),
    "orthogonal-greedy-optimality": (verify, "greedy_topk_select", _shift),
    "coherence-barrier-region": (sss, "greedy_topk_select", _shift),
    "submodularity": (diversity, "marginal_gain",
                      lambda g, kernel, subset, e: g + len(subset)),
    "nemhauser-ratio": (diversity, "dpp_greedy_select",
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
