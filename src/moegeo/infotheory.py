"""Distributions over experts and the identities the routing losses obey.

Sparse KL projection (truncate-and-renormalize is the information projection
onto k-sparse distributions), collision mass and collision entropy (in the
balanced regime the load-balancing loss is E times the collision mass of the
batch marginal; `verify` checks that identity), the log-k ceiling on routing
conditional entropy, and the empirical mutual information of a routing batch.
Natural log everywhere; 0 log 0 is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import _frozen_array, check_k, topk_indices
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
        p = _frozen_array(self.probs)
        if p.ndim != 1 or p.shape[0] < 2:
            raise InvalidShapeError(f"need a vector of >= 2 probabilities, got shape {p.shape}")
        if not np.all(np.isfinite(p)) or np.any(p < 0.0):
            raise InvalidShapeError("probabilities must be finite and nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise InvalidShapeError(
                f"probabilities sum to {float(p.sum())}, expected 1 within 1e-9")
        object.__setattr__(self, "probs", p)

    @property
    def size(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class RoutingBatch:
    """Dense routing distributions plus the k-subset each token selected.

    Both inputs are taken through `_frozen_array`, so arrays their maker
    froze are held without a copy. Construction derives the k-sparse
    projection of every row and the batch statistics once, as fresh arrays
    it freezes in place: `gates` (T, k) renormalizes each row on its
    selection (in selection order) by `kept_mass` (T, 1), whose -log is the
    projection's KL price; `load` (E,) counts the tokens that select each
    expert, `frequencies` is load / T and `marginal` the column mean of the
    dense rows. The checks run in this order, each one reduction over the
    batch: shapes; finite and nonnegative as p.min() >= 0 and p.max() < inf
    (a NaN makes both NaN and fails without a floating-point warning); the
    largest row-sum error; the selection width; the index range from s.min()
    and s.max(); distinctness as a largest count of 1 in one bincount of
    s + E * row over T * E bins; and a kept mass whose minimum is not
    positive, which raises ZeroProbabilityError. The rest raise
    InvalidShapeError.
    """

    dense_probs: np.ndarray
    selections: np.ndarray
    gates: np.ndarray = field(init=False, repr=False)
    kept_mass: np.ndarray = field(init=False, repr=False)
    load: np.ndarray = field(init=False, repr=False)
    frequencies: np.ndarray = field(init=False, repr=False)
    marginal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = _frozen_array(self.dense_probs)
        s = _frozen_array(self.selections, dtype=np.int64)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 2:
            raise InvalidShapeError(f"dense_probs must be T x E with E >= 2, got {p.shape}")
        if s.ndim != 2 or s.shape[0] != p.shape[0]:
            raise InvalidShapeError("selections must be T x k, aligned with dense_probs")
        t, e = p.shape
        if not (float(p.min()) >= 0.0 and float(p.max()) < np.inf):
            raise InvalidShapeError("dense_probs must be finite and nonnegative")
        if np.abs(p.sum(axis=1) - 1.0).max() > 1e-9:
            raise InvalidShapeError("each dense_probs row must sum to 1 within 1e-9")
        if s.shape[1] < 1 or s.shape[1] > e:
            raise InvalidShapeError("selection width must lie in [1, E]")
        if s.min() < 0 or s.max() >= e:
            raise InvalidShapeError("selection indices out of range")
        row = np.arange(t)[:, None]
        if np.bincount((s + e * row).ravel(), minlength=t * e).max() > 1:
            raise InvalidShapeError("selections must be distinct per token")
        picked = p[row, s]
        mass = picked.sum(axis=1, keepdims=True)
        if not mass.min() > 0.0:
            raise ZeroProbabilityError("a token's selected mass is zero; cannot renormalize")
        load = np.bincount(s.ravel(), minlength=e)
        derived = dict(gates=picked / mass, kept_mass=mass, load=load,
                       frequencies=load / t, marginal=p.sum(axis=0) / t)
        object.__setattr__(self, "dense_probs", p)
        object.__setattr__(self, "selections", s)
        for name, arr in derived.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
    check_k(k, p.size)
    if np.any(p.probs < 1e-300):
        raise ZeroProbabilityError("projection needs every probability >= 1e-300")
    row = RoutingBatch(dense_probs=p.probs[None], selections=topk_indices(p.probs, k)[None])
    support = tuple(row.selections[0].tolist())
    q = np.zeros(p.size)
    q[list(support)] = row.gates[0]
    return CategoricalDist(q), support, float(-np.log(row.kept_mass[0, 0]))


def collision_mass(p: CategoricalDist) -> float:
    """sum p_i^2: the chance two independent draws agree; 1/E at uniform, 1 for one-hot."""
    return float(np.sum(p.probs**2))


def renyi2_entropy(p: CategoricalDist) -> float:
    """Collision entropy -log sum p_i^2; 0 for one-hot, log E at uniform."""
    return float(-np.log(collision_mass(p)))


def aux_loss(batch: RoutingBatch) -> float:
    """Load-balancing objective E * sum_i f_i P_i, unscaled.

    f_i is the top-k selection frequency (sums to k across experts) and P_i
    the mean dense probability. The trainer applies its own weight.
    """
    return float(batch.n_experts * np.sum(batch.frequencies * batch.marginal))


def topk_conditional_entropy(batch: RoutingBatch) -> float:
    """Mean entropy of the renormalized per-token routing distributions.

    At most log k: each token's distribution lives on k atoms. Row terms
    are summed in expert order as in `entropy`; a zero contributes 1 log 1.
    """
    q = np.take_along_axis(batch.gates, np.argsort(batch.selections, axis=1), axis=1)
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
    rows = np.zeros(batch.dense_probs.shape)
    np.put_along_axis(rows, batch.selections, batch.gates, axis=1)
    h_marginal = entropy(rows.mean(axis=0))
    h_conditional = topk_conditional_entropy(batch)
    return h_marginal, h_conditional, h_marginal - h_conditional
