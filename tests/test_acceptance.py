"""Full-scale acceptance gate.

Every headline guarantee of the package is exercised here at its official
scale and seed, one test per guarantee, in dependency order. Each test
prints a single line

    [acceptance] <name>: PASS (detail)

before asserting, so `pytest tests/test_acceptance.py -s` yields a readable
scorecard. The heavy fixtures (the coherence sweep and the four training
arms) are module-scoped and reused by later tests; the determinism test reruns
them at a different parallelism degree and demands byte-identical artifacts.

Monte-Carlo assertions run on fixed seeds, so every number checked here is
bit-reproducible; tolerances below are either identity tolerances (1e-9 and
tighter) or documented statistical allowances derived from the trial counts.
"""

import json
import time
from itertools import combinations

import numpy as np
import pytest

from moegeo import cli
from moegeo.cli import main as cli_main
from moegeo.dictgen import random_orthonormal_dictionary
from moegeo.diversity import Kernel, nemhauser_audit, submodularity_audit
from moegeo.infotheory import (
    CategoricalDist,
    RoutingBatch,
    collision_identity_check,
    kl_sparse_project,
    topk_conditional_entropy,
)
from moegeo.moe import (
    MoEConfig,
    ambiguity_decomposition,
    backward,
    cross_validate,
    forward,
    init_params,
    total_loss,
)
from moegeo.sss import barrier_sweep, brute_force_sss, greedy_topk_select, write_barrier_csv

MASTER_SEED = 42

# The official sweep configuration: 25 coherence targets spanning the
# guaranteed-recovery region and the far side of the combinatorial cliff.
SWEEP = dict(d=128, n_atoms=64, k=6,
             mu_grid=[round(x, 10) for x in np.linspace(0.0, 0.95, 25)],
             trials=200, seed=MASTER_SEED)

ARMS = ("none", "ortho", "ncl", "dpp")


def report(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# heavy module-scoped fixtures


@pytest.fixture(scope="module")
def barrier_run():
    t0 = time.monotonic()
    curve = barrier_sweep(workers=1, **SWEEP)
    return curve, time.monotonic() - t0


@pytest.fixture(scope="module")
def trained_arms(tmp_path_factory):
    """Each default arm trained once through the CLI, with the fold reports
    that the CLI's `cross_validate` call returned."""
    root = tmp_path_factory.mktemp("arms")
    t0 = time.monotonic()
    reports = {}

    def recording(config, *args, **kwargs):
        result = cross_validate(config, *args, **kwargs)
        reports[config.reg_kind] = result[0]
        return result

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "cross_validate", recording)
        for kind in ARMS:
            arm_dir = root / kind
            code = cli_main(["train", "--reg", kind, "--workers", "1",
                             "--output_dir", str(arm_dir)])
            assert code == 0, f"train --reg {kind} exited {code}"
            out[kind] = {
                "reports": reports[kind],
                "agg": json.loads((arm_dir / "aggregate.json").read_text()),
                "aggregate_json": (arm_dir / "aggregate.json").read_bytes(),
                "run_csv": (arm_dir / "run.csv").read_bytes(),
                "heatmap_csv": (arm_dir / "heatmap.csv").read_bytes(),
            }
    return out, time.monotonic() - t0


# ---------------------------------------------------------------------------
# small helpers


def random_batch(gen, k=None, e_max=12):
    t = int(gen.integers(1, 25))
    e = int(gen.integers(max(2, k or 2), e_max + 1))
    kk = k if k is not None else int(gen.integers(1, e + 1))
    probs = gen.random((t, e)) + 1e-6
    probs /= probs.sum(axis=1, keepdims=True)
    sel = np.argsort(-probs, axis=1, kind="stable")[:, :kk]
    return RoutingBatch(dense_probs=probs, selections=sel)


def projection_oracle(p, k):
    """Lexicographically first support of maximal kept mass, by enumeration."""
    best_sup, best_mass = None, -1.0
    for sup in combinations(range(p.size), k):
        mass = float(p[list(sup)].sum())
        if mass > best_mass:
            best_sup, best_mass = sup, mass
    return best_sup, -float(np.log(best_mass))


def project_to_simplex(v):
    u = np.sort(v)[::-1]
    shifted = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u - shifted / idx > 0)[0][-1]
    return np.maximum(v - shifted[rho] / (rho + 1), 0.0)


def mean_column_entropy(heatmap):
    cols = heatmap / heatmap.sum(axis=0, keepdims=True)
    ent = [-float(np.sum(c[c > 0] * np.log(c[c > 0]))) for c in cols.T]
    return float(np.mean(ent))


# ---------------------------------------------------------------------------
# 1. sparse projection equals the enumeration oracle


def test_01_projection_oracle_equivalence():
    t0 = time.monotonic()
    gen = np.random.default_rng(MASTER_SEED)
    worst_kl = 0.0
    for _ in range(1000):
        e = int(gen.integers(2, 9))
        k = int(gen.integers(1, min(4, e) + 1))
        p = gen.random(e) + 1e-3
        p /= p.sum()
        q, support, kl = kl_sparse_project(CategoricalDist(p), k)
        oracle_sup, oracle_kl = projection_oracle(p, k)
        assert support == oracle_sup, f"support {support} != oracle {oracle_sup}"
        worst_kl = max(worst_kl, abs(kl - oracle_kl))
        expect = np.zeros(e)
        expect[list(support)] = p[list(support)] / p[list(support)].sum()
        np.testing.assert_allclose(q.probs, expect, atol=1e-12)
    elapsed = time.monotonic() - t0
    report("projection-oracle-equivalence",
           worst_kl <= 1e-10 and elapsed < 5.0,
           f"1000 cases, worst kl gap {worst_kl:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. collision identity and the uniform floor of the collision mass


def test_02_collision_identity_and_floor():
    t0 = time.monotonic()
    gen = np.random.default_rng(MASTER_SEED + 1)
    worst_gap = 0.0
    worst_floor = np.inf
    for _ in range(1000):
        batch = random_batch(gen)
        lhs, rhs, gap = collision_identity_check(batch)
        worst_gap = max(worst_gap, gap)
        # lhs = E * sum(P^2) >= 1 with equality iff the marginal is uniform
        worst_floor = min(worst_floor, lhs)
    # minimize sum(P^2) over the simplex by projected gradient descent;
    # the contraction leaves only the uniform point as a candidate minimizer
    worst_dev = 0.0
    for e in (4, 8, 16):
        p = gen.random(e)
        p /= p.sum()
        for _ in range(300):
            p = project_to_simplex(p - 0.2 * 2.0 * p)
        worst_dev = max(worst_dev, float(np.abs(p - 1.0 / e).max()))
    elapsed = time.monotonic() - t0
    report("collision-identity-floor",
           worst_gap <= 1e-9 and worst_floor >= 1.0 - 1e-12
           and worst_dev < 1e-6 and elapsed < 5.0,
           f"worst identity gap {worst_gap:.2e}, min E*mass {worst_floor:.6f}, "
           f"pgd deviation {worst_dev:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. conditional routing entropy never exceeds log k


def test_03_conditional_entropy_bound():
    t0 = time.monotonic()
    gen = np.random.default_rng(MASTER_SEED + 2)
    worst_excess = -np.inf
    count = 0
    for i in range(1000):
        k = (1, 2, 4)[i % 3]
        batch = random_batch(gen, k=k)
        h = topk_conditional_entropy(batch)
        worst_excess = max(worst_excess, h - np.log(k))
        count += 1
    # uniform rows renormalize to uniform-on-k, achieving the bound exactly
    worst_eq = 0.0
    for k in (1, 2, 4):
        e = 8
        probs = np.full((16, e), 1.0 / e)
        sel = np.tile(np.arange(k), (16, 1))
        h = topk_conditional_entropy(RoutingBatch(dense_probs=probs, selections=sel))
        worst_eq = max(worst_eq, abs(h - np.log(k)))
    elapsed = time.monotonic() - t0
    report("conditional-entropy-bound",
           worst_excess <= 1e-9 and worst_eq <= 1e-9 and elapsed < 5.0,
           f"{count} batches, worst excess {worst_excess:.2e}, "
           f"uniform equality gap {worst_eq:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. the coherence barrier: guaranteed region, cliff, and decay shape


def test_04_coherence_barrier(barrier_run):
    curve, elapsed = barrier_run
    bound = curve.theoretical_bound

    # (a) inside the guaranteed region every single trial recovers exactly;
    # asserted per trial, which is stronger than a per-point success rate
    flat = [oc for point in curve.outcomes for oc in point]
    below = [oc for oc in flat if oc.mu_measured < bound]
    misses = [oc for oc in below if not oc.greedy_exact]
    guarded_points = [i for i, m in enumerate(curve.mu_measured_mean) if m < bound]
    rates_below = [curve.success_rate_greedy[i] for i in guarded_points]

    # (b) greedy collapses well below coin-flip at the most coherent point
    last_rate = curve.success_rate_greedy[-1]

    # (c) the smoothed curve never rises beyond Monte-Carlo noise. A 5-point
    # moving average of 200-trial rates has step deviation at most
    # sqrt(2 * 0.25 / (25 * 200)) = 0.01, so 0.03 is a 3-sigma allowance;
    # a genuine re-entrant recovery regime would blow far past it.
    ma = np.convolve(curve.success_rate_greedy, np.ones(5) / 5.0, mode="valid")
    max_step = float(np.diff(ma).max())

    report("coherence-barrier",
           not misses and all(r == 1.0 for r in rates_below)
           and len(below) > 0 and last_rate < 0.5
           and max_step <= 0.03 and elapsed < 120.0,
           f"{len(below)} trials below mu={bound:.4f} all exact over "
           f"{len(guarded_points)} grid points, last-point rate {last_rate:.3f}, "
           f"max smoothed step {max_step:+.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. greedy equals brute force on orthonormal dictionaries


def test_05_orthogonal_greedy_optimality():
    t0 = time.monotonic()
    gen = np.random.default_rng(MASTER_SEED + 3)
    agree = 0
    total = 500
    for _ in range(total):
        n = int(gen.integers(3, 13))
        d = int(gen.integers(n, 17))
        k = int(gen.integers(1, min(4, n - 1) + 1))
        dct = random_orthonormal_dictionary(d, n, int(gen.integers(0, 2**63)))
        y = gen.standard_normal(d)
        if set(greedy_topk_select(dct, y, k)) == set(brute_force_sss(dct, y, k).support):
            agree += 1
    elapsed = time.monotonic() - t0
    report("orthogonal-greedy-optimality",
           agree == total and elapsed < 30.0,
           f"{agree}/{total} supports identical, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 6. submodularity of the shifted volume objective and the greedy ratio


def test_06_submodularity_and_greedy_ratio():
    t0 = time.monotonic()
    gen = np.random.default_rng(MASTER_SEED + 4)
    floor = 1.0 - 1.0 / np.e - 1e-9
    violations = 0
    worst_margin = np.inf
    worst_ratio = np.inf
    audits = 0
    for ki in range(50):
        n = int(gen.integers(5, 13))
        d = int(gen.integers(4, 17))
        feats = gen.standard_normal((d, n))
        kernel = Kernel.from_features(feats, epsilon=1e-4)
        rep = submodularity_audit(kernel, samples=20,
                                  seed=int(gen.integers(0, 2**63)))
        violations += rep.violations
        worst_margin = min(worst_margin, rep.worst_margin)
        for k in range(1, 5):
            res = nemhauser_audit(kernel, min(k, n))
            worst_ratio = min(worst_ratio, res.shifted_ratio)
            audits += 1
    elapsed = time.monotonic() - t0
    report("submodular-volume-bounds",
           violations == 0 and worst_ratio >= floor and elapsed < 60.0,
           f"0 violations in 1000 chains (worst margin {worst_margin:+.2e}), "
           f"greedy/optimal ratio >= {worst_ratio:.6f} over {audits} exhaustive "
           f"audits, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 7. ensemble error decomposition closes exactly


def test_07_ambiguity_identity():
    t0 = time.monotonic()
    gen = np.random.default_rng(MASTER_SEED + 5)
    worst = 0.0
    for _ in range(1000):
        k = int(gen.integers(1, 9))
        dim = int(gen.integers(1, 17))
        outputs = gen.standard_normal((k, dim)) * float(gen.uniform(0.1, 3.0))
        target = gen.standard_normal(dim)
        _, _, _, gap = ambiguity_decomposition(outputs, target)
        worst = max(worst, gap)
    elapsed = time.monotonic() - t0
    report("ambiguity-identity",
           worst <= 1e-10 and elapsed < 2.0,
           f"1000 ensembles, worst closure gap {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 8. analytic gradients match finite differences for every regularizer


FD_STEP = 1e-5

GRAD_DIMS = dict(input_dim=12, experts=6, active_k=2, expert_hidden=8,
                 classes=5, batch=4, seed=7)


def _loss_value(params, config, x, y):
    value, _ = total_loss(forward(params, config, x), y, config)
    return value


def _selection_stable_batch(config, gen, size=4):
    for _ in range(60):
        x = gen.standard_normal((size, config.input_dim))
        y = gen.integers(0, config.classes, size)
        params = init_params(config, gen)
        trace = forward(params, config, x)
        p_sorted = np.sort(trace.routing.dense_probs, axis=1)[:, ::-1]
        margin = float(np.min(p_sorted[:, config.active_k - 1]
                              - p_sorted[:, config.active_k]))
        if margin > 1e-3:
            return params, x, y
    raise AssertionError("no selection-stable batch found")


def _numeric_grads(params, config, x, y):
    grads = {}
    base_sel = forward(params, config, x).routing.selections
    for name in ("w_g", "w_in", "w_out"):
        w = getattr(params, name)
        flat = w.reshape(-1)
        out = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            hi = _loss_value(params, config, x, y)
            hi_sel = forward(params, config, x).routing.selections
            flat[i] = orig - FD_STEP
            lo = _loss_value(params, config, x, y)
            lo_sel = forward(params, config, x).routing.selections
            flat[i] = orig
            assert np.array_equal(hi_sel, base_sel) and np.array_equal(lo_sel, base_sel)
            out[i] = (hi - lo) / (2 * FD_STEP)
        grads[name] = out.reshape(w.shape)
    return grads


def test_08_gradient_correctness():
    t0 = time.monotonic()
    worst = {}
    for reg_kind in ARMS:
        config = MoEConfig(reg_kind=reg_kind, aux_weight=0.01, reg_weight=0.1,
                           **GRAD_DIMS)
        gen = np.random.default_rng(config.seed)
        params, x, y = _selection_stable_batch(config, gen)
        _, analytic = backward(params, forward(params, config, x), y, config)
        numeric = _numeric_grads(params, config, x, y)
        err = 0.0
        for name in ("w_g", "w_in", "w_out"):
            a = getattr(analytic, name).ravel()
            b = numeric[name].ravel()
            denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
            err = max(err, float(np.max(np.abs(a - b) / denom)))
        worst[reg_kind] = err
    elapsed = time.monotonic() - t0
    report("gradient-correctness",
           max(worst.values()) < 1e-4 and elapsed < 60.0,
           "max rel err " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
           + f", {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. the four training arms: collapse, recovery, and accuracy floors


def test_09_trainer_orderings(trained_arms):
    arms, elapsed = trained_arms
    rank = {k: arms[k]["agg"]["mean_eff_rank"] for k in ARMS}
    acc = {k: arms[k]["agg"]["mean_accuracy"] for k in ARMS}
    for k in ARMS:
        assert len(rank[k]) == 31, "expected one rank per epoch plus the init row"

    collapse = rank["none"][30] < rank["none"][1]
    ortho_recovers = rank["ortho"][30] > rank["none"][30]
    all_recover = all(rank[k][30] > rank["none"][30] for k in ("ortho", "ncl", "dpp"))
    acc_held = acc["ortho"] >= acc["none"] - 0.01
    floors = all(acc[k] > 0.40 for k in ARMS)

    report("trainer-orderings",
           collapse and ortho_recovers and all_recover and acc_held and floors
           and elapsed < 1800.0,
           f"baseline rank {rank['none'][1]:.3f}->{rank['none'][30]:.3f}, "
           f"final ranks ortho={rank['ortho'][30]:.3f} ncl={rank['ncl'][30]:.3f} "
           f"dpp={rank['dpp'][30]:.3f}, accuracies "
           + " ".join(f"{k}={acc[k]:.4f}" for k in ARMS)
           + f", {elapsed:.0f}s")


def test_specialization_concentration(trained_arms):
    """Supplementary: decorrelated experts concentrate on fewer classes.

    Compared per model, fold by fold. The fold-mean heatmap the CLI exports
    is the wrong object for this claim: different folds specialize different
    experts onto different classes, and averaging the heatmaps mixes those
    patterns back toward uniform (the entropy of a mean exceeds the mean of
    the entropies), erasing exactly the concentration being measured.
    """
    arms, _ = trained_arms
    ent = {kind: [mean_column_entropy(np.asarray(r.heatmap)) for r in arms[kind]["reports"]]
           for kind in ("none", "ortho")}
    wins = sum(o < n for o, n in zip(ent["ortho"], ent["none"]))
    mean_o = float(np.mean(ent["ortho"]))
    mean_n = float(np.mean(ent["none"]))
    report("specialization-concentration",
           mean_o < mean_n,
           f"mean per-fold column entropy ortho={mean_o:.4f} < none={mean_n:.4f}, "
           f"margin {mean_n - mean_o!r}, fold-wise {wins}/10")


# ---------------------------------------------------------------------------
# 10. determinism across reruns and parallelism degrees


def test_10_determinism(barrier_run, trained_arms, tmp_path_factory):
    curve, _ = barrier_run
    arms, _ = trained_arms
    root = tmp_path_factory.mktemp("rerun")

    first = root / "barrier_first.csv"
    again = root / "barrier_again.csv"
    write_barrier_csv(curve, first)
    write_barrier_csv(barrier_sweep(workers=2, **SWEEP), again)
    barrier_same = first.read_bytes() == again.read_bytes()

    trains_same = True
    for kind in ARMS:
        arm_dir = root / kind
        code = cli_main(["train", "--reg", kind, "--workers", "2",
                         "--output_dir", str(arm_dir)])
        assert code == 0
        for name, key in (("run.csv", "run_csv"),
                          ("heatmap.csv", "heatmap_csv"),
                          ("aggregate.json", "aggregate_json")):
            trains_same &= (arm_dir / name).read_bytes() == arms[kind][key]

    report("determinism",
           barrier_same and trains_same,
           "barrier.csv and all per-arm run.csv/heatmap.csv/aggregate.json "
           "byte-identical across reruns with a different worker count")
