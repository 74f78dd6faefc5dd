"""The benchmark's workloads: inputs drawn from the seed, blocks of work, output checks.

A block is the unit of timing: one fold (train-none), one fold of each
regularizer (train-reg) or one CLI run (barrier, select). Each call inside a
block checks its own outputs and reports how many units it did; a training
run also checks the mean accuracy over its folds. Every call
goes through a module attribute (``moe.train_fold``, ``cli.main``) so that a
Tracer's rebinding sees it.
"""

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field

import numpy as np

from moegeo import cli, dictgen, moe

# The official dataset and 10-fold split are those of the acceptance gate, at
# seed 42; the benchmark seed picks the model seed and the folds.
OFFICIAL_SEED = 42
FOLDS = 10
ACC_FLOOR = 0.40  # the acceptance gate's accuracy floor
DATA = dict(samples=4000, features=100, informative=10, classes=10, class_sep=0.6)
MODEL = dict(input_dim=100, experts=16, active_k=2, expert_hidden=32, classes=10,
             batch=128, lr=1e-3, epochs=30, aux_weight=0.01, reg_weight=0.1,
             dpp_epsilon=1e-4)
# Greedy gains are each computed from a fresh Cholesky factor, so "do not
# increase" is checked up to rounding.
GAIN_SLACK = 1e-12


def derived_seed(seed, i):
    """Seed of the i-th CLI run under the benchmark seed."""
    return ((seed & 0xFFFFFFFF) << 20) | (i & 0xFFFFF)


@dataclass
class Outcome:
    units: int
    ok: bool
    detail: dict = field(default_factory=dict)


def _guarded(call, units):
    """Run one checked call; a raise counts its units as failed."""
    try:
        return call()
    except Exception:
        traceback.print_exc()
        return Outcome(units=units, ok=False)


class Workload:
    def run_ok(self, outcomes):
        """Run-level output check, on top of each call's own."""
        return True

    def tally(self, outcomes):
        """(attempted, failed) units; a failed run-level check fails them all."""
        units = sum(o.units for o in outcomes)
        if not self.run_ok(outcomes):
            return units, units
        return units, sum(o.units for o in outcomes if not o.ok)


class Train(Workload):
    """moe.train_fold on successive folds of the official stratified split."""

    unit = "training sample-epoch"

    def __init__(self, regs, epochs=MODEL["epochs"], nominal_block_s=4.0):
        self.regs = regs
        self.epochs = epochs
        self.nominal_block_s = nominal_block_s

    def prepare(self, seed):
        data = dictgen.synthetic_classification(seed=OFFICIAL_SEED, **DATA)
        assignment = moe.stratified_folds(data.labels, FOLDS, OFFICIAL_SEED)
        return seed & 0xFFFFFFFF, data, assignment

    def _fold(self, inputs, reg, fold, epochs):
        seed, data, assignment = inputs
        config = moe.MoEConfig(reg_kind=reg, seed=seed, **dict(MODEL, epochs=epochs))
        test = assignment == fold
        train = (data.features[~test], data.labels[~test])
        return config, moe.train_fold(config, train, (data.features[test], data.labels[test]),
                                      fold=fold)

    def warm_up(self, inputs, rep, out_dir):
        for j, reg in enumerate(self.regs):
            self._fold(inputs, reg, (inputs[0] + rep + j) % FOLDS, 1)

    def block(self, inputs, i, out_dir):
        outcomes = []
        for j, reg in enumerate(self.regs):
            fold = (inputs[0] + len(self.regs) * i + j) % FOLDS
            units = int((inputs[2] != fold).sum()) * self.epochs
            outcomes.append(_guarded(lambda: self._checked(inputs, reg, fold, units), units))
        return outcomes

    def run_ok(self, outcomes):
        """Mean final accuracy of the folds trained is above the floor.

        Like the acceptance gate, the floor applies to a mean over folds:
        single folds of the official split end as low as 0.415 on some
        model seeds.
        """
        accs = [o.detail["acc"] for o in outcomes if "acc" in o.detail]
        return bool(accs) and sum(accs) / len(accs) > ACC_FLOOR

    def _checked(self, inputs, reg, fold, units):
        config, report = self._fold(inputs, reg, fold, self.epochs)
        losses = np.concatenate([report.loss_task, report.loss_aux, report.loss_reg])
        ok = (bool(np.all(np.isfinite(losses)))
              and bool(np.all((report.eff_rank >= 1.0) & (report.eff_rank <= config.experts))))
        return Outcome(units=units, ok=ok, detail={"acc": report.final_accuracy})


def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Barrier(Workload):
    """`moegeo barrier` at CLI defaults with fewer trials per grid point."""

    unit = "recovery trial"
    grid_points = 25
    k = 6

    def __init__(self, trials=8, nominal_block_s=1.8):
        self.trials = trials
        self.nominal_block_s = nominal_block_s

    def prepare(self, seed):
        return seed

    def _argv(self, seed, trials, out_dir):
        return ["barrier", "--trials", str(trials), "--workers", "1",
                "--seed", str(seed), "--output_dir", str(out_dir / "barrier")]

    def warm_up(self, seed, rep, out_dir):
        _run_cli(self._argv(derived_seed(seed, 0xFFFFF - rep), 1, out_dir))

    def block(self, seed, i, out_dir):
        units = self.grid_points * self.trials
        return [_guarded(lambda: self._checked(derived_seed(seed, i), out_dir), units)]

    def _checked(self, seed, out_dir):
        rc = _run_cli(self._argv(seed, self.trials, out_dir))
        summary = json.loads((out_dir / "barrier" / "summary.json").read_text())
        bound = 1.0 / (2 * self.k - 1)
        greedy, omp = summary["success_rate_greedy"], summary["success_rate_omp"]
        trials = summary["trials_per_point"]
        ok = (rc == 0 and trials == self.trials
              and len(summary["mu_grid"]) == self.grid_points
              and all(0.0 <= r <= 1.0 for r in greedy + omp)
              and all(r == 1.0 for mu, r in zip(summary["mu_grid"], greedy) if mu < bound))
        detail = {"greedy_exact": round(sum(greedy) * trials),
                  "omp_exact": round(sum(omp) * trials)}
        return Outcome(units=len(greedy) * trials, ok=ok, detail=detail)


class Select(Workload):
    """`moegeo dpp-select` at d=256, N=256, k=32, one seed per run."""

    unit = "dpp-select run"

    def __init__(self, d=256, n_atoms=256, k=32, nominal_block_s=0.5):
        self.d, self.n_atoms, self.k = d, n_atoms, k
        self.nominal_block_s = nominal_block_s

    def prepare(self, seed):
        return seed

    def _argv(self, seed, out_dir):
        return ["dpp-select", "--d", str(self.d), "--n_atoms", str(self.n_atoms),
                "--k", str(self.k), "--seed", str(seed),
                "--output_dir", str(out_dir / "dpp-select")]

    def warm_up(self, seed, rep, out_dir):
        _run_cli(self._argv(derived_seed(seed, 0xFFFFF - rep), out_dir))

    def block(self, seed, i, out_dir):
        return [_guarded(lambda: self._checked(derived_seed(seed, i), out_dir), 1)]

    def _checked(self, seed, out_dir):
        rc = _run_cli(self._argv(seed, out_dir))
        sel = json.loads((out_dir / "dpp-select" / "selection.json").read_text())
        picks, gains = sel["selection"], sel["marginal_gains"]
        ok = (rc == 0 and len(picks) == self.k and len(set(picks)) == self.k
              and all(0 <= p < self.n_atoms for p in picks)
              and len(gains) == self.k
              and all(b <= a + GAIN_SLACK for a, b in zip(gains, gains[1:]))
              and math.isclose(math.fsum(gains), sel["logdet"], rel_tol=0.0, abs_tol=1e-9))
        return Outcome(units=1, ok=ok, detail={"picks": len(picks)})


def make(name, smoke=False):
    """The named workload; `smoke` shrinks it to a fraction of a second per block."""
    if name == "train-none":
        return Train(["none"], epochs=2 if smoke else MODEL["epochs"])
    if name == "train-reg":
        return Train(["ortho", "ncl", "dpp"], epochs=2 if smoke else MODEL["epochs"],
                     nominal_block_s=16.0)
    if name == "barrier":
        return Barrier(trials=1 if smoke else 8)
    if name == "select":
        return Select(d=64, n_atoms=64, k=8) if smoke else Select()
    raise KeyError(name)
