"""The benchmark's trace plan names only functions the package defines, and its CLI
workloads pass their own output checks."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from moegeo import moe

BENCH = Path(__file__).resolve().parents[1] / "bench"
PLAN = BENCH / "plan.json"


def test_traced_functions_resolve():
    layers = json.loads(PLAN.read_text())["layers"]
    names = [name for layer in layers for name in layer["functions"]]
    assert names
    missing = []
    for dotted in names:
        mod_name, attr = dotted.rsplit(".", 1)
        if not hasattr(importlib.import_module("moegeo." + mod_name), attr):
            missing.append(dotted)
    assert missing == []


def bench_tracer():
    """bench/tracer.py's Tracer, compiled from source so no bytecode lands in bench/."""
    path = BENCH / "tracer.py"
    namespace = {"__name__": "bench_tracer"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["Tracer"]


@pytest.mark.parametrize("reg_kind, loss", [
    ("none", None), ("ortho", "ortho_loss"), ("ncl", "ncl_loss"), ("dpp", "softdpp_loss"),
])
def test_tracer_sees_the_regularizer_dispatch(reg_kind, loss):
    config = moe.MoEConfig(input_dim=6, experts=4, active_k=2, expert_hidden=5, classes=3,
                           reg_kind=reg_kind, seed=3)
    gen = np.random.default_rng(3)
    params = moe.init_params(config, gen)
    x, y = gen.standard_normal((8, 6)), gen.integers(0, 3, 8)
    names = ["moe._reg_output_grad", "moe.total_loss"] + ([f"moe.{loss}"] if loss else [])
    with bench_tracer()(names) as tracer:
        moe.backward(params, moe.forward(params, config, x), y, config)
    assert {name: calls for name, (_, calls) in tracer.totals().items()} == dict.fromkeys(names, 1)


@pytest.mark.parametrize("workload", ["barrier", "select"])
def test_cli_workload_smoke_run_is_correct(workload):
    """The benchmark's own output checks on the two CLI workloads, at smoke size."""
    proc = subprocess.run(
        [sys.executable, "-B", "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--smoke"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
