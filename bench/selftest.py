"""Self-tests of the benchmark; run with ``python3 -m pytest bench/selftest.py``.

Tracing and speed sampling must leave every output byte-identical, tracing's
call counts must repeat exactly, timed intervals must leave the speed
samples out; every workload must run end to end at smoke size; a wrong
output must count as failed; BENCHMARK.json must match plan.json.
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from moegeo import dictgen, moe  # noqa: E402
from speed import CAL_REF_S, Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("argv", [
    ["barrier", "--trials", "1", "--workers", "1", "--seed", "7"],
    ["dpp-select", "--d", "64", "--n_atoms", "64", "--k", "8", "--seed", "7"],
])
def test_tracing_keeps_cli_outputs_byte_identical(argv, tmp_path):
    argv = argv + ["--output_dir", str(tmp_path / "out")]
    assert workloads._run_cli(argv) == 0
    plain = _files(tmp_path / "out")
    shutil.rmtree(tmp_path / "out")
    with Tracer(run.traced_functions()) as tracer:
        assert workloads._run_cli(argv) == 0
    assert tracer.spans
    assert _files(tmp_path / "out") == plain


def test_tracing_keeps_train_report_identical():
    data = dictgen.synthetic_classification(samples=600, seed=3)
    config = moe.MoEConfig(reg_kind="dpp", epochs=2, seed=3)
    split = ((data.features[100:], data.labels[100:]), (data.features[:100], data.labels[:100]))
    plain = moe.train_fold(config, *split)
    with Tracer(run.traced_functions()):
        traced = moe.train_fold(config, *split)
    for name in ("epoch", "loss_task", "loss_aux", "loss_reg", "test_acc", "eff_rank",
                 "coherence", "marg_entropy", "cond_entropy", "collision_mass", "heatmap"):
        a, b = getattr(plain, name), getattr(traced, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_sampling_keeps_cli_outputs_byte_identical(tmp_path):
    argv = ["dpp-select", "--d", "64", "--n_atoms", "64", "--k", "8", "--seed", "7",
            "--output_dir", str(tmp_path / "out")]
    assert workloads._run_cli(argv) == 0
    plain = _files(tmp_path / "out")
    shutil.rmtree(tmp_path / "out")
    with Sampler(period_s=0.005) as sampler:
        rc, _, _ = sampler.timed(lambda: workloads._run_cli(argv))
    assert rc == 0 and len(sampler.starts) > 2
    assert _files(tmp_path / "out") == plain


def test_timed_leaves_samples_out():
    with Sampler(period_s=0.005) as sampler:
        t0 = time.perf_counter()
        _, ref_s, wall_s = sampler.timed(lambda: sum(i * i for i in range(300_000)))
        elapsed = time.perf_counter() - t0
    inside = [e - s for s, e in zip(sampler.starts, sampler.ends) if s >= t0]
    assert inside
    assert wall_s == pytest.approx(elapsed - sum(inside), abs=1e-3)
    assert ref_s == pytest.approx(wall_s * CAL_REF_S / statistics.fmean(inside), rel=1e-6)


def test_tracer_restores_bindings():
    from moegeo import core, sss

    before = (core.mutual_coherence, sss.mutual_coherence, core.UnitDictionary.__init__)
    with Tracer(run.traced_functions()):
        assert sss.mutual_coherence is not before[1]
    assert (core.mutual_coherence, sss.mutual_coherence, core.UnitDictionary.__init__) == before
    with pytest.raises(AttributeError):
        with Tracer(["core.mutual_coherence", "core.no_such_function"]):
            pass
    assert (core.mutual_coherence, sss.mutual_coherence, core.UnitDictionary.__init__) == before


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_calls_repeat_exactly(name, tmp_path):
    wl = workloads.make(name, smoke=True)
    counts = []
    for _ in range(2):
        with Tracer(run.traced_functions()) as tracer:
            outcomes = wl.block(wl.prepare(5), 0, tmp_path)
        assert all(o.ok for o in outcomes)
        counts.append({fn: calls for fn, (_, calls) in tracer.totals().items()})
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_end_to_end(name, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "2",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
    if trace:
        self_s = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
        assert self_s + metrics["trace.untraced_s"]["value"] == \
            pytest.approx(metrics["trace.wall_s"]["value"], abs=1e-6)
        spans = json.loads((ROOT / ".bench_out" / f"trace-{name}-seed2.json").read_text())
        assert spans["names"] == run.traced_functions() and spans["spans"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "select", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrong_outputs_count_as_failed(tmp_path, monkeypatch):
    def bad_select(argv):
        out = Path(argv[argv.index("--output_dir") + 1])
        out.mkdir(parents=True, exist_ok=True)
        gains = [0.0] * 8
        (out / "selection.json").write_text(json.dumps(
            {"selection": [0, 0, 1, 2, 3, 4, 5, 6], "marginal_gains": gains, "logdet": 0.0}))
        return 0

    def raises(argv):
        raise RuntimeError("boom")

    wl = workloads.make("select", smoke=True)
    monkeypatch.setattr(workloads.cli, "main", bad_select)
    assert [(o.units, o.ok) for o in wl.block(1, 0, tmp_path)] == [(1, False)]
    monkeypatch.setattr(workloads.cli, "main", raises)
    assert [(o.units, o.ok) for o in wl.block(1, 0, tmp_path)] == [(1, False)]

    train = workloads.make("train-none", smoke=True)
    folds = [workloads.Outcome(units=10, ok=True, detail={"acc": acc}) for acc in (0.5, 0.29)]
    assert train.tally(folds) == (20, 20)
    assert train.tally(folds[:1]) == (10, 0)


def test_benchmark_json_matches_plan():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]
    assert BENCHMARK["paths"] == ["bench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == run.WORKLOADS
    for w, p in zip(BENCHMARK["workloads"], run.PLAN["workloads"]):
        assert p["unit"] in w["why"]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == run.per_layer_names()
    e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for layer in run.PLAN["layers"] + run.PLAN["extra_metrics"]:
        assert layer["moves"] in set(e2e) | {"none"}
        assert set(layer["on"]) <= set(run.WORKLOADS)
