"""Log-determinant (volume) diversity selection on unit-feature kernels.

The kernel is the Gram matrix of unit-norm feature columns, Tikhonov-shifted
by epsilon so determinants of rank-deficient subsets stay finite. Greedy
selection maximizes log det; its marginal gains are Schur complements, which
is also what makes the shifted objective monotone submodular, so greedy keeps
1 - 1/e of its optimum. `verify` audits both properties on random kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import UnitDictionary, check_indices, check_k, cholesky_logdets, psd_cholesky
from .errors import InvalidShapeError, NotPSDError

# Greedy candidates whose incremental gain lies within this many nats of the
# round's best are rescored with marginal_gain's arithmetic before the pick.
_GAIN_BAND = 1e-9


@dataclass(frozen=True)
class Kernel:
    """Gram L = DᵀD of a unit dictionary's atoms, plus a Tikhonov shift epsilon.

    ``gram`` is a read-only copy of ``dictionary.gram`` with its diagonal set
    to exactly 1. numpy forms DᵀD with syrk, so it is exactly symmetric, and
    its least eigenvalue is at least about -N gamma_d (7e-12 at N = d = 256),
    far inside epsilon; every factorization downstream still raises
    NotPSDError on a pivot that is not positive.
    """

    dictionary: UnitDictionary
    epsilon: float = 1e-4
    gram: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.epsilon > 0:
            raise InvalidShapeError(f"epsilon must be positive, got {self.epsilon}")
        g = self.dictionary.gram.copy()
        np.fill_diagonal(g, 1.0)
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "epsilon", float(self.epsilon))

    @property
    def size(self) -> int:
        return self.gram.shape[0]


def _block_factor(kernel: Kernel, idx: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of idx's shifted Gram block, rows in idx order, or of each row's."""
    return psd_cholesky(kernel.gram[idx[..., :, None], idx[..., None, :]]
                        + kernel.epsilon * np.eye(idx.shape[-1]))


def logdet_subsets(kernel: Kernel, subsets: np.ndarray) -> np.ndarray:
    """Unchecked log det of the shifted Gram block of each row of an (S, k) index array."""
    return cholesky_logdets(_block_factor(kernel, subsets))


def logdet_subset(kernel: Kernel, subset) -> float:
    """log det of the subset's shifted Gram block: the one-row call of logdet_subsets."""
    idx = check_indices(subset, kernel.size)
    if not idx:
        raise InvalidShapeError("subset must be nonempty")
    return float(logdet_subsets(kernel, np.array([idx]))[0])


def _schur_gain(kernel: Kernel, idx: list[int], chol: np.ndarray, e: int) -> float:
    """log Schur complement of element e against the block that `chol` factors."""
    z = np.linalg.solve(chol, kernel.gram[idx, e])
    schur = float(kernel.gram[e, e] + kernel.epsilon - z @ z)
    if schur <= 0.0:
        raise NotPSDError(f"non-positive Schur complement at element {e}")
    return float(np.log(schur))


def marginal_gain(kernel: Kernel, subset, e: int) -> float:
    """logdet gain of adding element e: the log of its Schur complement.

    Equals logdet_subset(S + e) - logdet_subset(S); for empty S it is
    log(1 + epsilon). The Schur complement is the shifted squared distance of
    feature e to the span of the subset's features.
    """
    *idx, e = check_indices([*subset, e], kernel.size)
    if not idx:
        return float(np.log(kernel.gram[e, e] + kernel.epsilon))
    return _schur_gain(kernel, idx, _block_factor(kernel, np.array(idx)), e)


def dpp_greedy_select(kernel: Kernel, k: int) -> tuple[tuple[int, ...], list[float]]:
    """k rounds of argmax marginal volume gain; ties go to the lowest index.

    Greedy MAP with an incremental Cholesky factor (Chen, Zhang & Zhou,
    NeurIPS 2018). Every candidate i keeps its row c_i of the factor of the
    selected block and its Schur complement d_i^2 = L_ii + eps - |c_i|^2, whose
    log is its marginal gain. Picking j appends e = (L[j] - c_j^T c) / d_j to
    every row and subtracts e^2 from every d^2: O(N k) per round and O(N k^2)
    in all, instead of factoring the selected block anew for every candidate
    in every round.

    Returns the picks in selection order and the gain paid for each: log d_j^2
    read from the incremental factor in the pick's round. It can differ from
    marginal_gain in the last bits of d_j^2, so when more than one candidate
    lies within _GAIN_BAND of the round's best gain, those are rescored with
    marginal_gain's arithmetic on one factor of the selected block, and the
    exact argmax wins: the picks are the ones the per-candidate route makes,
    and the reported gain stays the factor's.
    Round 0 is never rescored: the diagonal is exactly 1, so every round-0
    gain is log(1 + eps), bit for bit in both routes. Raises NotPSDError when
    the chosen Schur complement is not positive.
    """
    n = kernel.size
    check_k(k, n)
    rows = np.zeros((k, n))
    schur = np.diag(kernel.gram) + kernel.epsilon
    selected: list[int] = []
    paid: list[float] = []
    for r in range(k):
        gains = np.full(n, -np.inf)
        np.log(schur, out=gains, where=schur > 0.0)
        j = int(np.argmax(gains))
        if not schur[j] > 0.0:
            raise NotPSDError(f"non-positive Schur complement at element {j}")
        near = np.flatnonzero(gains >= gains[j] - _GAIN_BAND)
        if r > 0 and near.size > 1:
            chol = _block_factor(kernel, np.array(selected))
            exact = [_schur_gain(kernel, selected, chol, e) for e in near.tolist()]
            j = int(near[np.argmax(exact)])
        e_row = (kernel.gram[j] - rows[:r, j] @ rows[:r]) / np.sqrt(schur[j])
        rows[r] = e_row
        schur -= e_row * e_row
        # a picked element never competes again
        schur[j] = 0.0
        selected.append(j)
        paid.append(float(gains[j]))
    return tuple(selected), paid


def shifted_objective(kernel: Kernel, subset) -> float:
    """logdet(L_S + eps I) - |S| log eps: nonnegative, monotone, submodular."""
    idx = check_indices(subset, kernel.size)
    if not idx:
        return 0.0
    return logdet_subset(kernel, idx) - len(idx) * float(np.log(kernel.epsilon))

