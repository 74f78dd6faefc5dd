"""Desk-scale sparse mixture-of-experts classifier with manual backprop.

The model is deliberately small and bias-free: a linear router h = W_g x
feeding a softmax, hard top-k selection with gates renormalized over the
active set, and per-expert two-layer GELU networks whose outputs live
directly in class-logit space. Forward, backward, and AdamW are written
out by hand so every gradient path (task, load-balance term, and each
decorrelation regularizer) is explicit and testable against finite
differences.

Training is deterministic: every random draw comes from a stream keyed by
(seed, purpose, fold[, epoch]), so fold-level parallelism cannot change
results.
"""

import math
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .core import (
    UnitDictionary, _frozen_array, mutual_coherence, psd_cholesky, run_jobs, softmax_rows,
    topk_indices,
)
from .errors import (
    DegenerateProbeError,
    IdentityViolationError,
    InvalidConfigError,
    InvalidShapeError,
    NonFiniteError,
)
from .infotheory import (
    RoutingBatch,
    aux_loss,
    collision_mass,
    entropy,
    mean_routing_probs,
    selection_frequencies,
    topk_conditional_entropy,
)
from .rng import check_seed, stream

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_NORM_FLOOR = 1e-8
_PROBE_SIZE = 256
_REG_KINDS = ("none", "ortho", "ncl", "dpp")
# AdamW moment decays, denominator guard and decoupled weight decay.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01


def gelu(u):
    """Tanh-form GELU: (activation, tanh term), the term `gelu_grad` reuses.

    The cube is `u * u * u`, not a power: numpy sends an integer power
    other than 2 to libm `pow`, about 40 times slower per element.
    """
    u = np.asarray(u, dtype=float)
    t = np.tanh(_GELU_C * (u + _GELU_A * (u * u * u)))
    return 0.5 * u * (1.0 + t), t


def gelu_grad(u, t):
    """Derivative of `gelu` at `u`, given the tanh term `gelu(u)` returned."""
    return 0.5 * (1.0 + t) + 0.5 * u * (1.0 - t**2) * _GELU_C * (1.0 + 3.0 * _GELU_A * u**2)


@dataclass(frozen=True)
class MoEConfig:
    """Hyperparameters for one training run.

    Defaults give a deliberately capacity-starved model: 16 experts of
    hidden width 32 with only 2 active per sample.
    """

    input_dim: int = 100
    experts: int = 16
    active_k: int = 2
    expert_hidden: int = 32
    classes: int = 10
    batch: int = 128
    lr: float = 1e-3
    epochs: int = 30
    aux_weight: float = 0.01
    reg_weight: float = 0.1
    reg_kind: str = "none"
    seed: int = 42
    dpp_epsilon: float = 1e-4

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise InvalidConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("input_dim", "experts", "active_k", "expert_hidden", "classes", "batch"):
            if int(getattr(self, name)) < 1:
                raise InvalidConfigError(f"{name} must be positive")
        if self.experts < 2:
            raise InvalidConfigError("experts must be at least 2")
        if self.classes < 2:
            raise InvalidConfigError("need at least 2 classes")
        if self.active_k > self.experts:
            raise InvalidConfigError("active_k cannot exceed experts")
        if self.epochs < 0:
            raise InvalidConfigError("epochs must be nonnegative")
        for name in ("lr", "dpp_epsilon"):
            if not getattr(self, name) > 0:
                raise InvalidConfigError(f"{name} must be positive")
        for name in ("aux_weight", "reg_weight"):
            if getattr(self, name) < 0:
                raise InvalidConfigError(f"{name} must be nonnegative")
        if self.reg_kind not in _REG_KINDS:
            raise InvalidConfigError(f"reg_kind must be one of {_REG_KINDS}")
        check_seed(self.seed)


@dataclass
class MoEParams:
    """Weights plus AdamW moments, zeroed and keyed by weight name. Mutable; one per fold."""

    w_g: np.ndarray      # (E, D) router
    w_in: np.ndarray     # (E, H, D)
    w_out: np.ndarray    # (E, C, H)
    step: int = 0
    moments: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.moments = {}
        for name in ("w_g", "w_in", "w_out"):
            w = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(w)):
                raise NonFiniteError(f"{name} contains non-finite entries")
            setattr(self, name, w)
            self.moments[name] = (np.zeros(w.shape), np.zeros(w.shape))
        if self.w_in.shape[0] != self.w_g.shape[0] or self.w_out.shape[0] != self.w_g.shape[0]:
            raise InvalidShapeError("per-expert arrays disagree on expert count")
        if self.w_in.shape[2] != self.w_g.shape[1]:
            raise InvalidShapeError("w_in input dim does not match router")
        if self.w_out.shape[2] != self.w_in.shape[1]:
            raise InvalidShapeError("w_out hidden dim does not match w_in")


def init_params(config, gen):
    """Draw fresh weights from `gen`: N(0, 2/fan_in), no biases."""
    d, e, h, c = config.input_dim, config.experts, config.expert_hidden, config.classes
    return MoEParams(
        w_g=gen.standard_normal((e, d)) * math.sqrt(2.0 / d),
        w_in=gen.standard_normal((e, h, d)) * math.sqrt(2.0 / d),
        w_out=gen.standard_normal((e, c, h)) * math.sqrt(2.0 / h),
    )


@dataclass(frozen=True)
class ForwardTrace:
    """Everything forward computed, kept for backward and for metrics.

    `routing` is the one validated RoutingBatch of the pass. `expert_cache`
    is `(rows, slots, bounds, xr, u, a, t)`: the B*k (row, slot) pairs of
    the batch grouped by selected expert, rows ascending within each group;
    expert e owns positions bounds[e]:bounds[e+1]. `xr` holds the gathered
    inputs, `u` and `a` the pre- and post-activation blocks, and `t` the
    tanh term that `gelu_grad` reuses. The arrays are forward's own, not copies.
    """

    x: np.ndarray               # (B, D)
    routing: RoutingBatch       # (B, E) router softmax, (B, k) ascending ids
    gates: np.ndarray           # (B, k) renormalized over the active set
    kept_mass: np.ndarray       # (B, 1) router mass top-k keeps; -log of it is top-k's KL cost
    expert_outputs: np.ndarray  # (B, k, C) selected experts' logit vectors
    logits: np.ndarray          # (B, C) gate-weighted combination
    log_probs: np.ndarray       # (B, C) log-softmax of the logits
    class_probs: np.ndarray     # (B, C) exp(log_probs)
    expert_cache: tuple = field(repr=False, default=())

    def __post_init__(self):
        if np.max(np.abs(self.gates.sum(axis=1) - 1.0)) > 1e-9:
            raise InvalidShapeError("gate weights must sum to 1 per sample")

    @property
    def batch_size(self):
        return self.x.shape[0]


def _expert_spans(bounds):
    """(expert, lo, hi) for each expert that owns rows lo:hi of a grouped block."""
    b = bounds.tolist()
    return [(e, lo, hi) for e, (lo, hi) in enumerate(zip(b[:-1], b[1:])) if lo < hi]


def forward(params, config, x_batch):
    """One dense-router, sparse-compute pass over a batch."""
    x = np.asarray(x_batch, dtype=float)
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise InvalidShapeError(f"expected (B, {config.input_dim}) inputs, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("input batch contains non-finite values")
    k = config.active_k
    h = x @ params.w_g.T
    p = softmax_rows(h)
    sel = topk_indices(p, k)
    active = np.take_along_axis(p, sel, axis=1)
    kept_mass = active.sum(axis=1, keepdims=True)
    gates = active / kept_mass

    # rows grouped by expert, ascending within each: one GELU call per pass
    flat = sel.ravel()
    order = np.argsort(flat, kind="stable")
    rows, slots = np.divmod(order, k)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=config.experts))))
    spans = _expert_spans(bounds)
    xr = x[rows]
    u = np.empty((flat.size, params.w_in.shape[1]))
    for e, lo, hi in spans:
        u[lo:hi] = xr[lo:hi] @ params.w_in[e].T
    a, t = gelu(u)
    y = np.empty((flat.size, config.classes))
    for e, lo, hi in spans:
        y[lo:hi] = a[lo:hi] @ params.w_out[e].T
    outputs = np.empty((x.shape[0], k, config.classes))
    outputs[rows, slots] = y

    logits = np.einsum("bk,bkc->bc", gates, outputs)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    class_probs = np.exp(log_probs)
    # a diverged model must abort here (exit 3), before RoutingBatch rejects it (exit 2)
    for arr in (p, outputs, logits, class_probs):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("forward pass produced non-finite values")
    return ForwardTrace(x=x, routing=RoutingBatch(dense_probs=p, selections=sel),
                        gates=gates, kept_mass=kept_mass, expert_outputs=outputs, logits=logits,
                        log_probs=log_probs, class_probs=class_probs,
                        expert_cache=(rows, slots, bounds, xr, u, a, t))


def _normalized_outputs(trace):
    """Row-normalize selected expert outputs; near-zero vectors become 0."""
    y = trace.expert_outputs
    norms = np.linalg.norm(y, axis=2, keepdims=True)
    ok = norms >= _NORM_FLOOR
    return np.where(ok, y / np.where(ok, norms, 1.0), 0.0), norms, ok


def _through_normalization(dn, n, norms, ok):
    """Carry d/d(normalized outputs) back to the raw outputs: (I - n n^T) dn / ||y||."""
    proj = dn - n * np.einsum("bkc,bkc->bk", dn, n)[..., None]
    return np.where(ok, proj / np.where(ok, norms, 1.0), 0.0)


def ortho_loss(trace):
    """Mean over the batch of sum_{i != j} cos^2 between selected outputs."""
    n, norms, ok = _normalized_outputs(trace)
    g = np.einsum("bic,bjc->bij", n, n)
    k = g.shape[1]
    g[:, np.arange(k), np.arange(k)] = 0.0
    value = float(np.sum(g**2) / trace.batch_size)
    return value, _through_normalization(4.0 * np.einsum("bij,bjc->bic", g, n), n, norms, ok)


def softdpp_loss(trace, epsilon):
    """-mean logdet of the Tikhonov-shifted Gram of normalized outputs."""
    if not epsilon > 0:
        raise InvalidConfigError("epsilon must be positive")
    n, norms, ok = _normalized_outputs(trace)
    g = np.einsum("bic,bjc->bij", n, n)
    k = g.shape[1]
    g[:, np.arange(k), np.arange(k)] += epsilon
    chol = psd_cholesky(g)
    logdets = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    # a running sum in sample order gives the same bits as a per-sample loop
    value = -float(np.cumsum(logdets)[-1]) / trace.batch_size
    return value, _through_normalization(-2.0 * np.linalg.solve(g, n), n, norms, ok)


def ncl_loss(trace):
    """Covariance of the selected experts' probability residuals.

    Each selected output is pushed through its own softmax; residuals are
    deviations from the per-sample mean. The off-diagonal covariance sum
    equals -sum_i ||residual_i||^2, so minimizing it rewards disagreement.
    """
    pi = softmax_rows(trace.expert_outputs)
    d = pi - pi.mean(axis=1, keepdims=True)
    per_sample = np.einsum("bic,bjc->b", d, d) - np.einsum("bic,bic->b", d, d)
    g = -2.0 * d
    dot = np.einsum("bkc,bkc->bk", g, pi)[..., None]
    return float(per_sample.mean()), pi * (g - dot)


def _reg_output_grad(trace, config):
    """(reg_weight * regularizer, its gradient w.r.t. expert_outputs): the one reg_kind dispatch.

    Each loss returns (batch mean, gradient of the batch sum). They are called
    through module globals, so a wrapper bound over one sees every call.
    """
    kind, scale = config.reg_kind, config.reg_weight
    if kind == "none" or scale == 0.0:
        return 0.0, np.zeros_like(trace.expert_outputs)
    if kind == "ortho":
        value, grad = ortho_loss(trace)
    elif kind == "ncl":
        value, grad = ncl_loss(trace)
    else:
        value, grad = softdpp_loss(trace, config.dpp_epsilon)
    return scale * value, scale * grad / trace.batch_size


@dataclass(frozen=True)
class LossComponents:
    task: float
    aux: float
    reg: float
    reg_grad: np.ndarray = field(repr=False, compare=False)  # d reg / d expert_outputs

    @property
    def total(self):
        return self.task + self.aux + self.reg


def total_loss(trace, labels, config):
    """(scalar, components): cross-entropy + weighted balance and reg terms."""
    labels = np.asarray(labels)
    if labels.shape != (trace.batch_size,):
        raise InvalidShapeError("labels must be one id per sample")
    task = -float(trace.log_probs[np.arange(labels.size), labels].mean())
    aux = config.aux_weight * aux_loss(trace.routing)
    reg, reg_grad = _reg_output_grad(trace, config)
    comps = LossComponents(task=task, aux=aux, reg=reg, reg_grad=reg_grad)
    return comps.total, comps


@dataclass
class MoEGradients:
    w_g: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray


def backward(params, trace, labels, config):
    """(components, gradients): total_loss and its gradient for every parameter tensor.

    Top-k selection is a fixed index set; the load-balance term's
    selection frequencies are treated as constants, so its gradient flows
    only through the dense router probabilities.
    """
    comps = total_loss(trace, labels, config)[1]
    labels = np.asarray(labels)
    b = trace.batch_size
    e_count = config.experts

    g_logits = trace.class_probs.copy()
    g_logits[np.arange(b), labels] -= 1.0
    g_logits /= b

    d_outputs = trace.gates[..., None] * g_logits[:, None, :]
    d_outputs = d_outputs + comps.reg_grad
    d_gates = np.einsum("bc,bkc->bk", g_logits, trace.expert_outputs)

    # renormalized gates w = p_sel / s: dL/dp_m = (dL/dw_m - sum_n dL/dw_n w_n) / s
    p, sel = trace.routing.dense_probs, trace.routing.selections
    d_active = (d_gates - (d_gates * trace.gates).sum(axis=1, keepdims=True)) / trace.kept_mass
    d_probs = np.zeros_like(p)
    np.put_along_axis(d_probs, sel, d_active, axis=1)

    if config.aux_weight > 0:
        freqs = selection_frequencies(trace.routing)
        d_probs = d_probs + config.aux_weight * e_count * freqs[None, :] / b

    # full softmax Jacobian: dh = p * (dp - <dp, p>)
    dot = np.einsum("be,be->b", d_probs, p)[:, None]
    d_h = p * (d_probs - dot)
    d_w_g = d_h.T @ trace.x

    rows, slots, bounds, xr, u, a, t = trace.expert_cache
    spans = _expert_spans(bounds)
    gy = d_outputs[rows, slots]
    ga = np.empty_like(u)
    d_w_in = np.zeros_like(params.w_in)
    d_w_out = np.zeros_like(params.w_out)
    for e, lo, hi in spans:
        d_w_out[e] = gy[lo:hi].T @ a[lo:hi]
        ga[lo:hi] = gy[lo:hi] @ params.w_out[e]
    du = gelu_grad(u, t) * ga
    for e, lo, hi in spans:
        d_w_in[e] = du[lo:hi].T @ xr[lo:hi]
    grads = MoEGradients(w_g=d_w_g, w_in=d_w_in, w_out=d_w_out)
    for arr in (grads.w_g, grads.w_in, grads.w_out):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("backward pass produced non-finite gradients")
    return comps, grads


def adamw_step(params, grads, config):
    """Decoupled weight decay + bias-corrected adaptive moments, in place."""
    params.step += 1
    t = params.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, (m, v) in params.moments.items():
        w, g = getattr(params, name), getattr(grads, name)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g**2
        w -= config.lr * WEIGHT_DECAY * w
        w -= config.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params


def dense_expert_outputs(params, probe):
    """(E, P*C) matrix: every expert's outputs on the probe, routing ignored."""
    probe = np.asarray(probe, dtype=float)
    e_count = params.w_g.shape[0]
    rows = np.empty((e_count, probe.shape[0] * params.w_out.shape[1]))
    for e in range(e_count):
        y = gelu(probe @ params.w_in[e].T)[0] @ params.w_out[e].T
        rows[e] = y.ravel()
    return rows


def effective_rank(m):
    """exp(entropy of trace-normalized singular values); in [1, E].

    `m` is the (E, P*C) matrix of `dense_expert_outputs`. 1 means the
    experts collapsed onto a single direction in function space, E means
    they occupy E orthogonal directions with equal energy.
    """
    if not np.any(m):
        raise DegenerateProbeError("all experts output exactly zero on the probe")
    sv = np.linalg.svd(m, compute_uv=False)
    sv = sv / sv.sum()
    sv = sv[sv > 0]
    return float(np.exp(-np.sum(sv * np.log(sv))))


def expert_coherence(m):
    """Largest |cosine| between two experts' rows of `dense_expert_outputs`."""
    norms = np.linalg.norm(m, axis=1)
    keep = norms >= 1e-12
    if keep.sum() < 2:
        return 1.0
    return mutual_coherence(UnitDictionary((m[keep] / norms[keep, None]).T))


def specialization_heatmap(selections, labels, experts, classes):
    """(E, C) matrix: fraction of class-c samples that route to expert e.

    `selections` (N, k) holds the experts each of the N labelled samples
    selected, so each column of a class that occurs sums to k.
    """
    labels = np.asarray(labels)
    heat = np.zeros((experts, classes))
    counts = np.bincount(labels, minlength=classes).astype(float)
    np.add.at(heat, (selections, labels[:, None]), 1.0)
    nonzero = counts > 0
    heat[:, nonzero] /= counts[nonzero]
    return heat


def ambiguity_decomposition(expert_outputs, target):
    """Ensemble error = mean individual error - ambiguity, verified.

    `expert_outputs` is (k, C); the ensemble is their unweighted mean.
    Returns (ensemble_err, mean_individual_err, ambiguity, gap) with gap the
    numerical defect of the identity.
    """
    y = np.asarray(expert_outputs, dtype=float)
    target = np.asarray(target, dtype=float).reshape(-1)
    if y.ndim != 2 or y.shape[0] < 1 or y.shape[1] != target.size:
        raise InvalidShapeError("need k outputs matching the target dimension")
    ens = y.mean(axis=0)
    ens_err = float(np.sum((ens - target) ** 2))
    mean_ind = float(np.mean(np.sum((y - target) ** 2, axis=1)))
    ambiguity = float(np.mean(np.sum((y - ens) ** 2, axis=1)))
    gap = abs(ens_err - (mean_ind - ambiguity))
    return ens_err, mean_ind, ambiguity, gap


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch trajectory of one fold; row 0 is the untrained model."""

    fold: int
    config: MoEConfig
    epoch: np.ndarray
    loss_task: np.ndarray
    loss_aux: np.ndarray
    loss_reg: np.ndarray
    test_acc: np.ndarray
    eff_rank: np.ndarray
    coherence: np.ndarray
    marg_entropy: np.ndarray
    cond_entropy: np.ndarray
    collision_mass: np.ndarray
    heatmap: np.ndarray  # (E, C) on the test split, final params

    def __post_init__(self):
        n = len(self.epoch)
        for f in fields(self):
            if f.name in ("fold", "config"):
                continue
            dtype = np.int64 if f.name == "epoch" else np.float64
            arr = _frozen_array(getattr(self, f.name), dtype=dtype)
            object.__setattr__(self, f.name, arr)
            if f.name != "heatmap" and len(arr) != n:
                raise InvalidShapeError(f"{f.name} length disagrees with epoch axis")
        if np.any(self.test_acc < 0) or np.any(self.test_acc > 1):
            raise InvalidShapeError("accuracy must lie in [0, 1]")
        e = self.config.experts
        if np.any(self.eff_rank < 1 - 1e-9) or np.any(self.eff_rank > e + 1e-9):
            raise InvalidShapeError("effective rank must lie in [1, E]")
        if np.any(self.heatmap < 0):
            raise InvalidShapeError("heatmap entries must be nonnegative")

    @property
    def final_accuracy(self):
        return float(self.test_acc[-1])


def _eval_metrics(params, config, test_x, test_y):
    """Accuracy, routing statistics and the stacked selections of the test split."""
    correct = 0
    probs_chunks, sel_chunks = [], []
    audit_done = False
    for start in range(0, len(test_y), 512):
        trace = forward(params, config, test_x[start:start + 512])
        pred = np.argmax(trace.logits, axis=1)
        correct += int(np.sum(pred == test_y[start:start + 512]))
        probs_chunks.append(trace.routing.dense_probs)
        sel_chunks.append(trace.routing.selections)
        if not audit_done:
            for row in range(min(8, trace.batch_size)):
                target = np.zeros(config.classes)
                target[test_y[start + row]] = 1.0
                _, mean_ind, _, gap = ambiguity_decomposition(trace.expert_outputs[row], target)
                if not gap <= 1e-10 * max(1.0, mean_ind):  # rounding grows with ||y||^2
                    raise IdentityViolationError(f"ambiguity identity violated by {gap:.3e}")
            audit_done = True
    batch = RoutingBatch(dense_probs=np.vstack(probs_chunks),
                         selections=np.vstack(sel_chunks))
    p_bar = mean_routing_probs(batch)
    collision = collision_mass(p_bar)
    if not collision >= 1.0 / config.experts - 1e-12:
        raise IdentityViolationError(f"collision mass {collision} fell below 1/E")
    cond = topk_conditional_entropy(batch)  # raises above log k
    return {
        "test_acc": correct / len(test_y),
        "marg_entropy": entropy(p_bar.probs),
        "cond_entropy": cond,
        "collision_mass": collision,
        "selections": batch.selections,
    }


def _eval_loss(params, config, x, y):
    """Sample-weighted mean loss components without parameter updates."""
    sums = np.zeros(3)
    for start in range(0, len(y), 512):
        trace = forward(params, config, x[start:start + 512])
        _, comps = total_loss(trace, y[start:start + 512], config)
        sums += trace.batch_size * np.array([comps.task, comps.aux, comps.reg])
    return sums / len(y)


def train_fold(config, train, test, fold=0):
    """Train on one fold and log metrics per epoch on the held-out split.

    `train` and `test` are (features, labels) pairs. Deterministic given
    (config.seed, fold): initialization and epoch shuffles come from
    streams keyed by them alone.
    """
    train_x, train_y = (np.asarray(a) for a in train)
    test_x, test_y = (np.asarray(a) for a in test)
    for name, x, y in (("train", train_x, train_y), ("test", test_x, test_y)):
        if x.ndim != 2 or x.shape[1] != config.input_dim or len(y) != len(x):
            raise InvalidShapeError("split shapes do not match the config")
        if len(y) == 0:
            raise InvalidShapeError(f"{name} split is empty")
    all_y = np.concatenate([train_y, test_y])
    if all_y.min() < 0 or all_y.max() >= config.classes:
        raise InvalidShapeError("labels out of range for configured classes")

    params = init_params(config, stream(config.seed, "init", fold))
    probe = train_x[:min(_PROBE_SIZE, len(train_x))]

    rows = {name: [] for name in ("loss_task", "loss_aux", "loss_reg", "test_acc",
                                  "eff_rank", "coherence", "marg_entropy",
                                  "cond_entropy", "collision_mass")}

    def record(loss_triplet):
        metrics = _eval_metrics(params, config, test_x, test_y)
        probe_outputs = dense_expert_outputs(params, probe)
        metrics.update(zip(("loss_task", "loss_aux", "loss_reg"), loss_triplet),
                       eff_rank=effective_rank(probe_outputs),
                       coherence=expert_coherence(probe_outputs))
        for name, series in rows.items():
            series.append(metrics[name])
        return metrics["selections"]

    selections = record(_eval_loss(params, config, train_x, train_y))
    n = len(train_y)
    for epoch in range(1, config.epochs + 1):
        perm = stream(config.seed, "shuffle", fold, epoch).permutation(n)
        sums = np.zeros(3)
        try:
            for start in range(0, n, config.batch):
                idx = perm[start:start + config.batch]
                trace = forward(params, config, train_x[idx])
                comps, grads = backward(params, trace, train_y[idx], config)
                adamw_step(params, grads, config)
                sums += idx.size * np.array([comps.task, comps.aux, comps.reg])
        except NonFiniteError as exc:
            raise NonFiniteError(f"fold {fold} diverged at epoch {epoch}: {exc}") from None
        selections = record(sums / n)

    return TrainReport(
        fold=fold, config=config,
        epoch=np.arange(config.epochs + 1),
        heatmap=specialization_heatmap(selections, test_y, config.experts, config.classes),
        **{name: np.array(vals) for name, vals in rows.items()},
    )


def stratified_folds(labels, folds, seed):
    """Assign each sample a fold id, class-balanced within +-1."""
    labels = np.asarray(labels)
    if folds < 2:
        raise InvalidConfigError("need at least 2 folds")
    classes, counts = np.unique(labels, return_counts=True)
    if folds > counts.min():
        raise InvalidConfigError(
            f"folds ({folds}) exceeds the smallest class count ({counts.min()})")
    gen = stream(seed, "folds")
    assignment = np.empty(len(labels), dtype=int)
    for c in classes:
        idx = np.nonzero(labels == c)[0]
        idx = idx[gen.permutation(idx.size)]
        assignment[idx] = np.arange(idx.size) % folds
    return assignment


def _run_fold(config, features, labels, assignment, fold):
    mask = assignment == fold
    return train_fold(config,
                      (features[~mask], labels[~mask]),
                      (features[mask], labels[mask]),
                      fold=fold)


def cross_validate(config, dataset, folds=10, workers=1):
    """Stratified k-fold training; returns the fold reports in fold order.

    Fold results are independent of `workers` because all randomness is
    keyed by (seed, fold).
    """
    features = np.asarray(dataset.features)
    labels = np.asarray(dataset.labels)
    assignment = stratified_folds(labels, folds, config.seed)
    return run_jobs(partial(_run_fold, config, features, labels, assignment),
                    range(folds), workers)
