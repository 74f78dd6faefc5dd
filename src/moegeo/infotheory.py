"""Distributions over experts and the identities the routing losses obey.

Sparse KL projection (truncate-and-renormalize is the information projection
onto k-sparse distributions), collision entropy and its link to the
load-balancing loss, the log-k ceiling on routing conditional entropy, and the
empirical mutual information of a routing batch. Natural log everywhere;
0 log 0 is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_k, topk_indices
from .errors import IdentityViolationError, InvalidKError, InvalidShapeError, ZeroProbabilityError


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats with the 0 log 0 = 0 convention."""
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


@dataclass(frozen=True)
class CategoricalDist:
    """Probability vector over E >= 2 categories."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=np.float64, copy=True)
        if p.ndim != 1 or p.shape[0] < 2:
            raise InvalidShapeError(f"need a vector of >= 2 probabilities, got shape {p.shape}")
        if not np.all(np.isfinite(p)) or np.any(p < 0.0):
            raise InvalidShapeError("probabilities must be finite and nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise InvalidShapeError(
                f"probabilities sum to {float(p.sum())}, expected 1 within 1e-9")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def size(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class RoutingBatch:
    """Dense routing distributions plus the k-subset each token selected."""

    dense_probs: np.ndarray
    selections: np.ndarray

    def __post_init__(self):
        p = np.array(self.dense_probs, dtype=np.float64, copy=True)
        s = np.array(self.selections, dtype=np.int64, copy=True)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 2:
            raise InvalidShapeError(f"dense_probs must be T x E with E >= 2, got {p.shape}")
        if s.ndim != 2 or s.shape[0] != p.shape[0]:
            raise InvalidShapeError("selections must be T x k, aligned with dense_probs")
        if not np.all(np.isfinite(p)) or np.any(p < 0.0):
            raise InvalidShapeError("dense_probs must be finite and nonnegative")
        if np.abs(p.sum(axis=1) - 1.0).max() > 1e-9:
            raise InvalidShapeError("each dense_probs row must sum to 1 within 1e-9")
        if s.shape[1] < 1 or s.shape[1] > p.shape[1]:
            raise InvalidShapeError("selection width must lie in [1, E]")
        if s.min() < 0 or s.max() >= p.shape[1]:
            raise InvalidShapeError("selection indices out of range")
        if np.any(np.diff(np.sort(s, axis=1), axis=1) == 0):
            raise InvalidShapeError("selections must be distinct per token")
        p.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "dense_probs", p)
        object.__setattr__(self, "selections", s)

    @property
    def n_tokens(self) -> int:
        return self.dense_probs.shape[0]

    @property
    def n_experts(self) -> int:
        return self.dense_probs.shape[1]

    @property
    def k(self) -> int:
        return self.selections.shape[1]


def kl_sparse_project(p: CategoricalDist, k: int) -> tuple[CategoricalDist, tuple[int, ...], float]:
    """Closest k-sparse distribution to p in KL(q || p).

    The minimizer keeps the k largest entries of p (ties to the lowest index)
    and renormalizes; the attained divergence is -log of the kept mass.
    Requires every entry of p to be at least 1e-300, so that the divergence
    stays finite.
    """
    e = p.size
    check_k(k, e)
    if np.any(p.probs < 1e-300):
        raise ZeroProbabilityError("projection needs every probability >= 1e-300")
    support = tuple(int(i) for i in topk_indices(p.probs, k))
    mass = float(p.probs[list(support)].sum())
    q = np.zeros(e)
    q[list(support)] = p.probs[list(support)] / mass
    return CategoricalDist(q), support, float(-np.log(mass))


def collision_mass(p: CategoricalDist) -> float:
    """sum p_i^2: the chance two independent draws agree; 1/E at uniform, 1 for one-hot."""
    return float(np.sum(p.probs**2))


def renyi2_entropy(p: CategoricalDist) -> float:
    """Collision entropy -log sum p_i^2; 0 for one-hot, log E at uniform."""
    return float(-np.log(collision_mass(p)))


def selection_frequencies(batch: RoutingBatch) -> np.ndarray:
    """f_i: fraction of tokens whose selection includes expert i; sums to k."""
    return np.bincount(batch.selections.ravel(), minlength=batch.n_experts) / batch.n_tokens


def mean_routing_probs(batch: RoutingBatch) -> CategoricalDist:
    """The batch marginal: column means of the dense routing distributions."""
    return CategoricalDist(batch.dense_probs.mean(axis=0))


def aux_loss(batch: RoutingBatch) -> float:
    """Load-balancing objective E * sum_i f_i P_i, unscaled.

    f_i is the top-k selection frequency (sums to k across experts) and P_i
    the mean dense probability. The trainer applies its own weight.
    """
    f = selection_frequencies(batch)
    p_bar = batch.dense_probs.mean(axis=0)
    return float(batch.n_experts * np.sum(f * p_bar))


def collision_identity_check(batch: RoutingBatch) -> tuple[float, float, float]:
    """E sum P_i^2 versus E exp(-H2(P)); they agree identically.

    This is the balanced regime of the load-balancing loss (f replaced by P),
    rewritten through the collision entropy of the batch marginal.
    """
    p_bar = mean_routing_probs(batch)
    lhs = batch.n_experts * collision_mass(p_bar)
    rhs = float(batch.n_experts * np.exp(-renyi2_entropy(p_bar)))
    return lhs, rhs, abs(lhs - rhs)


def _sparse_rows(batch: RoutingBatch) -> np.ndarray:
    """Per-token distributions renormalized on each token's selection."""
    t = batch.n_tokens
    rows = np.zeros((t, batch.n_experts))
    picked = np.take_along_axis(batch.dense_probs, batch.selections, axis=1)
    mass = picked.sum(axis=1, keepdims=True)
    if np.any(mass <= 0.0):
        raise ZeroProbabilityError("a token's selected mass is zero; cannot renormalize")
    np.put_along_axis(rows, batch.selections, picked / mass, axis=1)
    return rows


def topk_conditional_entropy(batch: RoutingBatch) -> float:
    """Mean entropy of the renormalized per-token routing distributions.

    At most log k: each token's distribution lives on k atoms. Row terms
    are summed in expert order as in `entropy`; a zero contributes 1 log 1.
    """
    q = np.take_along_axis(_sparse_rows(batch), np.sort(batch.selections, axis=1), axis=1)
    q = np.where(q > 0.0, q, 1.0)
    value = float(np.mean(-np.sum(q * np.log(q), axis=1)))
    bound = float(np.log(batch.k))
    if value > bound + 1e-9:
        raise IdentityViolationError(f"conditional entropy {value} exceeds log k = {bound}")
    return value


def mi_lower_bound(n_experts: int, k: int) -> float:
    """log E - log k, the guaranteed routing information at sparsity k."""
    if not 1 <= k < n_experts:
        raise InvalidKError(f"need 1 <= k < E, got k={k}, E={n_experts}")
    return float(np.log(n_experts) - np.log(k))


def empirical_mi(batch: RoutingBatch) -> tuple[float, float, float]:
    """(H(Z), H(Z|X), MI) of the sparse routing channel on this batch.

    The marginal is the token mean of the renormalized distributions; MI is
    their entropy difference (nonnegative because entropy is concave).
    """
    rows = _sparse_rows(batch)
    h_marginal = entropy(rows.mean(axis=0))
    h_conditional = topk_conditional_entropy(batch)
    return h_marginal, h_conditional, h_marginal - h_conditional
