"""Full-scale acceptance gate.

Every headline guarantee of the package is exercised here at its official
scale and seed, one test per guarantee, in dependency order. Each test
prints a single line

    [acceptance] <name>: PASS (detail) margin=<margin>

before asserting, so `pytest tests/test_acceptance.py -s` yields a readable
scorecard. A margin is positive while slack remains before the gate fails;
a line with several sub-checks gives each as `name:value`, comma separated.

The analytic guarantees (tests 1-7) run the `moegeo verify` check bodies
from `moegeo.verify` at official scale, on this module's generators and
counts; each test adds only its own extra sub-checks and its elapsed bound.
The heavy fixtures (the coherence sweep and the four training arms) are
module-scoped and reused by later tests; the determinism test reruns them at
a different parallelism degree and demands byte-identical artifacts.

Monte-Carlo assertions run on fixed seeds, so every number checked here is
bit-reproducible; tolerances below are either identity tolerances (1e-9 and
tighter) or documented statistical allowances derived from the trial counts.
"""

import json
import time

import numpy as np
import pytest

from moegeo import cli, verify
from moegeo.cli import main as cli_main
from moegeo.infotheory import RoutingBatch, topk_conditional_entropy
from moegeo.moe import MoEConfig, backward, cross_validate, forward, init_params, total_loss
from moegeo.sss import barrier_sweep

pytestmark = pytest.mark.acceptance

MASTER_SEED = 42

# The official sweep configuration: 25 coherence targets spanning the
# guaranteed-recovery region and the far side of the combinatorial cliff.
SWEEP = dict(d=128, n_atoms=64, k=6,
             mu_grid=[round(x, 10) for x in np.linspace(0.0, 0.95, 25)],
             trials=200, seed=MASTER_SEED)

ARMS = ("none", "ortho", "ncl", "dpp")


def report(name, ok, detail, margin):
    if isinstance(margin, dict):
        margin = ",".join(f"{key}:{float(value)!r}" for key, value in margin.items())
    else:
        margin = repr(float(margin))
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail}) margin={margin}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# heavy module-scoped fixtures


def barrier_argv(workers, out):
    """`moegeo barrier` with every SWEEP value passed as a flag."""
    flags = dict(SWEEP, mu_grid=",".join(map(str, SWEEP["mu_grid"])), workers=workers,
                 output_dir=out)
    return ["barrier", *(f"--{key}={value}" for key, value in flags.items())]


def barrier_artifacts(out):
    return {name: (out / name).read_bytes() for name in ("barrier.csv", "summary.json")}


@pytest.fixture(scope="module")
def barrier_run(tmp_path_factory):
    """The official sweep run once through the CLI, with the curve that the
    CLI's `barrier_sweep` call returned and the artifacts it wrote."""
    out = tmp_path_factory.mktemp("barrier")
    curves = []

    def recording(*args, **kwargs):
        curves.append(barrier_sweep(*args, **kwargs))
        return curves[-1]

    t0 = time.monotonic()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "barrier_sweep", recording)
        code = cli_main(barrier_argv(1, out))
    elapsed = time.monotonic() - t0
    assert code == 0, f"barrier exited {code}"
    return curves[0], elapsed, barrier_artifacts(out)


@pytest.fixture(scope="module")
def trained_arms(tmp_path_factory):
    """Each default arm trained once through the CLI, with the fold reports
    that the CLI's `cross_validate` call returned."""
    root = tmp_path_factory.mktemp("arms")
    t0 = time.monotonic()
    reports = {}

    def recording(config, *args, **kwargs):
        reports[config.reg_kind] = cross_validate(config, *args, **kwargs)
        return reports[config.reg_kind]

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


def shared_check(check, offset, cases):
    """A verify check at official scale on the gate's generator, timed."""
    t0 = time.monotonic()
    result = check(np.random.default_rng(MASTER_SEED + offset), cases)
    return result, time.monotonic() - t0


# ---------------------------------------------------------------------------
# 1. sparse projection equals the enumeration oracle


def test_01_projection_oracle_equivalence():
    result, elapsed = shared_check(verify.check_kl_projection_oracle, 0, 1000)
    report("projection-oracle-equivalence", result.passed and elapsed < 5.0,
           f"{result.detail}, {elapsed:.2f}s", result.margin)


# ---------------------------------------------------------------------------
# 2. collision identity and the uniform floor of the collision mass


def test_02_collision_identity_and_floor():
    t0 = time.monotonic()
    gen = np.random.default_rng(MASTER_SEED + 1)
    result = verify.check_collision_identity(gen, 1000)
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
           result.passed and worst_dev < 1e-6 and elapsed < 5.0,
           f"{result.detail}, pgd deviation {worst_dev:.2e}, {elapsed:.2f}s",
           {"collision": result.margin, "pgd": 1e-6 - worst_dev})


# ---------------------------------------------------------------------------
# 3. conditional routing entropy never exceeds log k


def test_03_conditional_entropy_bound():
    t0 = time.monotonic()
    result = verify.check_topk_entropy_bound(np.random.default_rng(MASTER_SEED + 2), 1000)
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
           result.passed and worst_eq <= 1e-9 and elapsed < 5.0,
           f"{result.detail}, uniform equality gap {worst_eq:.2e}, {elapsed:.2f}s",
           {"entropy": result.margin, "uniform": 1e-9 - worst_eq})


# ---------------------------------------------------------------------------
# 4. the coherence barrier: guaranteed region, cliff, and decay shape


def test_04_coherence_barrier(barrier_run):
    curve, elapsed, _ = barrier_run

    # (a) inside the guaranteed region every single trial recovers exactly;
    # asserted per trial, which is stronger than a per-point success rate
    region = verify.barrier_region(curve)

    # (b) greedy collapses well below coin-flip at the most coherent point
    last_rate = curve.success_rate_greedy[-1]

    # (c) the smoothed curve never rises beyond Monte-Carlo noise. A 5-point
    # moving average of 200-trial rates has step deviation at most
    # sqrt(2 * 0.25 / (25 * 200)) = 0.01, so 0.03 is a 3-sigma allowance;
    # a genuine re-entrant recovery regime would blow far past it.
    ma = np.convolve(curve.success_rate_greedy, np.ones(5) / 5.0, mode="valid")
    max_step = float(np.diff(ma).max())

    report("coherence-barrier",
           region.passed and last_rate < 0.5 and max_step <= 0.03 and elapsed < 120.0,
           f"{region.detail}, last-point rate {last_rate:.3f}, "
           f"max smoothed step {max_step:+.4f}, {elapsed:.1f}s",
           {"region": region.margin, "cliff": 0.5 - last_rate, "smooth": 0.03 - max_step})


# ---------------------------------------------------------------------------
# 5. greedy equals brute force on orthonormal dictionaries


def test_05_orthogonal_greedy_optimality():
    result, elapsed = shared_check(verify.check_orthogonal_greedy_optimality, 3, 500)
    report("orthogonal-greedy-optimality", result.passed and elapsed < 30.0,
           f"{result.detail}, {elapsed:.2f}s", result.margin)


# ---------------------------------------------------------------------------
# 6. submodularity of the shifted volume objective and the greedy ratio


def test_06_submodularity_and_greedy_ratio():
    # both audits see the same 50 kernels: 20 chains each, then k = 1..4
    sub, sub_elapsed = shared_check(verify.check_submodularity, 4, 1000)
    nem, nem_elapsed = shared_check(verify.check_nemhauser_ratio, 4, 50)
    elapsed = sub_elapsed + nem_elapsed
    report("submodular-volume-bounds",
           sub.passed and nem.passed and elapsed < 60.0,
           f"{sub.detail}, {nem.detail}, {elapsed:.2f}s",
           {"submodularity": sub.margin, "nemhauser": nem.margin})


# ---------------------------------------------------------------------------
# 7. ensemble error decomposition closes exactly


def test_07_ambiguity_identity():
    result, elapsed = shared_check(verify.check_ambiguity_identity, 5, 1000)
    report("ambiguity-identity", result.passed and elapsed < 2.0,
           f"{result.detail}, {elapsed:.2f}s", result.margin)


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
           + f", {elapsed:.1f}s", 1e-4 - max(worst.values()))


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
           + f", {elapsed:.0f}s",
           {"ncl_rank": rank["ncl"][30] - rank["none"][30],
            "ortho_acc": acc["ortho"] - (acc["none"] - 0.01)})


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
           f"margin {mean_n - mean_o!r}, fold-wise {wins}/10", mean_n - mean_o)


# ---------------------------------------------------------------------------
# 10. determinism across reruns and parallelism degrees


def test_10_determinism(barrier_run, trained_arms, tmp_path_factory):
    _, _, barrier_bytes = barrier_run
    arms, _ = trained_arms
    root = tmp_path_factory.mktemp("rerun")

    assert cli_main(barrier_argv(2, root / "barrier")) == 0
    again = barrier_artifacts(root / "barrier")
    differing = sum(again[name] != barrier_bytes[name] for name in barrier_bytes)
    for kind in ARMS:
        arm_dir = root / kind
        code = cli_main(["train", "--reg", kind, "--workers", "2",
                         "--output_dir", str(arm_dir)])
        assert code == 0
        for name, key in (("run.csv", "run_csv"),
                          ("heatmap.csv", "heatmap_csv"),
                          ("aggregate.json", "aggregate_json")):
            differing += (arm_dir / name).read_bytes() != arms[kind][key]

    # the margin is minus the number of artifacts that moved
    report("determinism",
           differing == 0,
           "barrier.csv/summary.json and all per-arm run.csv/heatmap.csv/aggregate.json "
           "byte-identical across reruns with a different worker count", -differing)
