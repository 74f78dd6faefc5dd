"""moegeo benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy. Workloads and the metric
plan are in ``bench/plan.json``; the workloads themselves in
``bench/workloads.py``.

With ``--trace 0`` the run prints the end-to-end metrics: set-up time (the
median of three set-ups, each a fresh interpreter importing ``moegeo.cli``
plus input generation and a warm-up call), units of work per second (the
median over the blocks run in ``--seconds``, at least two), peak resident
memory, and the share of units whose outputs passed their checks. Set-up
and block times are in reference seconds: wall seconds scaled by the
machine's speed, which ``bench/speed.py`` samples throughout the run, so
that a neighbour's load on a shared host does not read as a change of the
program; the wall-clock throughput is printed alongside as a comment. With
``--trace 1`` it runs a fixed number of blocks, each once untraced and once
traced, and prints per-layer self time and call counts; the spans go to
``.bench_out/trace-<workload>-seed<N>.json``. Every run also prints the
machine it ran on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every output check passed, 1 when one failed and 2 when the run could
not start. The self-tests are in ``bench/selftest.py``.
"""

import os

# Single-threaded BLAS: must be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PLAN = json.loads((BENCH / "plan.json").read_text())
WORKLOADS = [w["name"] for w in PLAN["workloads"]]
SETUP_REPS = 3
MIN_BLOCKS = 2


def traced_functions():
    return [f for layer in PLAN["layers"] for f in layer["functions"]]


def per_layer_names():
    names = []
    for f in traced_functions():
        names += [f + ".self_s", f + ".calls"]
    return names + [m["name"] for m in PLAN["extra_metrics"]]


def machine_info():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(l.split(":", 1)[1].strip() for l in fh
                               if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3") and kind == "Unified":
                info[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return info


def fresh_import():
    """Start a fresh interpreter that imports the CLI and everything under it."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import moegeo.cli"
    subprocess.run([sys.executable, "-I", "-c", code], check=True, cwd=ROOT)


def set_up(wl, seed, scratch, sampler):
    """Median of SETUP_REPS set-ups in reference seconds; returns (seconds, inputs of the last)."""
    times = []
    for rep in range(SETUP_REPS):
        def one():
            fresh_import()
            inputs = wl.prepare(seed)
            wl.warm_up(inputs, rep, scratch)
            return inputs

        inputs, ref_s, _ = sampler.timed(one)
        times.append(ref_s)
    return statistics.median(times), inputs


def run_untraced(wl, inputs, seconds, scratch, sampler):
    """Blocks until `seconds` have passed, and at least MIN_BLOCKS of them.

    Throughput is the median over blocks of units per reference second. A
    train-reg block takes most of a run, so the minimum keeps a slow minute
    from deciding a run on its own.
    """
    rates, wall_rates, outcomes = [], [], []
    start = time.perf_counter()
    i = 0
    while i < MIN_BLOCKS or time.perf_counter() - start < seconds:
        block, ref_s, wall_s = sampler.timed(lambda: wl.block(inputs, i, scratch))
        units = sum(o.units for o in block)
        rates.append(units / ref_s)
        wall_rates.append(units / wall_s)
        outcomes += block
        i += 1
    attempted, failed = wl.tally(outcomes)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "units_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ops_ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    print(f"# {i} blocks in {time.perf_counter() - start:.3f} s, "
          f"{wl.unit}/s per block: min {min(rates):.6g} median {statistics.median(rates):.6g} "
          f"max {max(rates):.6g}; per wall second: median {statistics.median(wall_rates):.6g}")
    return metrics, attempted, failed


def run_traced(wl, workload, seed, seconds, scratch, machine):
    """Each of a fixed number of blocks runs once untraced and once traced.

    The two runs of a block are adjacent, in alternating order, so that the
    machine's drift over the run does not bias trace_overhead_frac.
    """
    from tracer import Tracer

    blocks = max(1, int(seconds / 2 / wl.nominal_block_s))
    tracer = Tracer(traced_functions())
    ns = {False: 0, True: 0}
    outcomes = {False: [], True: []}

    def run(with_trace, call):
        with tracer if with_trace else contextlib.nullcontext():
            t0 = time.perf_counter_ns()
            result = call()
            ns[with_trace] += time.perf_counter_ns() - t0
        return result

    run(False, lambda: wl.prepare(seed))
    inputs = run(True, lambda: wl.prepare(seed))
    for i in range(blocks):
        tracer.unit = i
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            outcomes[with_trace] += run(with_trace, lambda: wl.block(inputs, i, scratch))
    plain_ns, wall_ns = ns[False], ns[True]
    traced = outcomes[True]

    totals = tracer.totals()
    metrics = {}
    for fn, (self_ns, calls) in totals.items():
        metrics[fn + ".self_s"] = (self_ns / 1e9, "s")
        metrics[fn + ".calls"] = (calls, "count")
    for key in ("greedy", "omp"):
        runs = [o for o in traced if key + "_exact" in o.detail]
        trials = sum(o.units for o in runs)
        exact = sum(o.detail[key + "_exact"] for o in runs)
        metrics[f"sss.{key}_exact_frac"] = (exact / trials if trials else 0.0, "frac")
    picks = sum(o.detail.get("picks", 0) for o in traced)
    gain_calls = totals["diversity.marginal_gain"][1]
    metrics["diversity.marginal_gain.calls_per_pick"] = (
        gain_calls / picks if picks else 0.0, "count")
    metrics["trace_overhead_frac"] = (wall_ns / plain_ns - 1.0, "frac")
    metrics["trace.wall_s"] = (wall_ns / 1e9, "s")
    metrics["trace.untraced_s"] = ((wall_ns - tracer.root_ns()) / 1e9, "s")

    path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.dump(path, workload=workload, seed=seed, blocks=blocks, machine=machine,
                wall_ns=wall_ns, untraced_ns=plain_ns)
    print(f"# {blocks} blocks untraced in {plain_ns / 1e9:.3f} s, traced in "
          f"{wall_ns / 1e9:.3f} s; {len(tracer.spans)} spans written to {path}")
    attempted, failed = wl.tally(outcomes[False] + traced)
    return {name: metrics[name] for name in per_layer_names()}, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to a fraction of a second per block")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "moegeo" / "__init__.py").is_file():
        print(f"error: no moegeo sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import moegeo
    import workloads
    from speed import Sampler

    if Path(moegeo.__file__).resolve().parent != SRC / "moegeo":
        print(f"error: imported moegeo from {moegeo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, smoke=args.smoke)
    # One core for the run and its set-up interpreters, so that the speed
    # samples are taken on the core that does the work.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    machine = machine_info()
    scratch = OUT / f"tmp-{os.getpid()}"
    try:
        with Sampler() as sampler:
            setup_s, inputs = set_up(wl, args.seed, scratch, sampler)
            if not args.trace:
                metrics, attempted, failed = run_untraced(wl, inputs, args.seconds,
                                                          scratch, sampler)
                metrics["setup_s"] = (setup_s, "s")
        if args.trace:
            metrics, attempted, failed = run_traced(wl, args.workload, args.seed,
                                                    args.seconds, scratch, machine)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("# machine " + json.dumps(machine, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
