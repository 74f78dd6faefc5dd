"""The self-audit suite audits itself: clean pass, filtering, fault wiring."""

import numpy as np
import pytest

from moegeo import infotheory
from moegeo.errors import IdentityViolationError
from moegeo.verify import ALL_CHECKS, check_topk_entropy_bound, run_verification


def test_all_checks_pass_on_clean_build():
    results = run_verification(seed=42)
    assert [r.name for r in results] == list(ALL_CHECKS)
    for r in results:
        assert r.passed, f"{r.name} failed: {r.detail} (margin {r.margin})"


def test_filtering_runs_requested_subset_in_order():
    names = ["nemhauser-ratio", "collision-identity"]
    results = run_verification(seed=1, checks=names)
    assert [r.name for r in results] == names


def test_unknown_check_rejected():
    with pytest.raises(KeyError):
        run_verification(checks=["no-such-check"])


def test_fault_injection_fails_only_the_projection_check():
    results = run_verification(seed=42, checks=["kl-projection-oracle",
                                                "collision-identity"],
                               inject_fault=True)
    assert results[0].passed is False
    assert results[0].margin < 0
    assert results[1].passed is True


def test_entropy_bound_violation_is_typed_and_fails_the_check(monkeypatch):
    batch = infotheory.RoutingBatch(dense_probs=[[0.5, 0.3, 0.2]], selections=[[0, 1]])
    # rows of 1/e are no distributions: k entries give k/e nats, above log k for every k
    monkeypatch.setattr(infotheory, "_sparse_rows",
                        lambda b: np.full((b.n_tokens, b.n_experts), 1.0 / np.e))
    with pytest.raises(IdentityViolationError, match="exceeds log k"):
        infotheory.topk_conditional_entropy(batch)
    result = check_topk_entropy_bound(seed=42)
    assert result.passed is False
    assert "exceeds log k" in result.detail


def test_results_deterministic():
    a = run_verification(seed=7, checks=["ambiguity-identity"])
    b = run_verification(seed=7, checks=["ambiguity-identity"])
    assert a[0].margin == b[0].margin
    assert a[0].detail == b[0].detail
