"""Command-line front end: configured experiments with bit-stable outputs.

Every subcommand resolves its parameters in one fixed order: built-in
defaults, then a JSON config file, then the MOEGEO_SEED environment
variable (seed only), then explicit flags. The resolved values are
written next to the results, no output embeds a timestamp, and all
randomness is derived from the seed, so re-running a command overwrites
every artifact byte for byte.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical abort, 4 internal error (an exception the library does not
raise on purpose).
"""

import argparse
import csv
import functools
import json
import os
import shutil
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diversity import Kernel, dpp_greedy_select, logdet_subset
from .dictgen import COHERENCE_TOL, coherent_dictionaries, synthetic_classification
from .errors import (
    InvalidConfigError,
    InvalidKError,
    InvalidShapeError,
    MoegeoError,
    ZeroProbabilityError,
)
from .core import check_k, softmax_rows, topk_indices
from .infotheory import (
    CategoricalDist,
    RoutingBatch,
    aux_loss,
    collision_mass,
    empirical_mi,
    entropy,
    kl_sparse_project,
    mean_routing_probs,
    mi_lower_bound,
    renyi2_entropy,
)
from .moe import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, WEIGHT_DECAY, MoEConfig, cross_validate
from .rng import stream
from .sss import barrier_sweep
from .verify import ALL_CHECKS, run_verification

_CONFIG_ERRORS = (InvalidConfigError, InvalidKError, InvalidShapeError)


@dataclass(frozen=True)
class Field:
    default: object
    kind: str  # int | float | str | floatlist | strlist
    help: str


def _default_workers():
    return os.cpu_count() or 1


def _coerce(key, kind, value):
    """Normalize a raw config-file or flag value to its schema type."""
    try:
        if isinstance(value, bool):  # bool is an int subclass
            raise ValueError
        if kind == "int":
            if isinstance(value, float) and value != int(value):
                raise ValueError
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "str":
            if not isinstance(value, str):
                raise ValueError
            return value
        # list kinds: JSON lists from files, comma-separated text from flags
        if value is None:
            return None
        if isinstance(value, str):
            parts = [p for p in value.split(",") if p.strip() != ""]
        elif isinstance(value, (list, tuple)):
            parts = list(value)
        else:
            raise ValueError
        if kind == "floatlist":
            return [_coerce(key, "float", p) for p in parts]
        return [str(p).strip() for p in parts]
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        raise InvalidConfigError(
            f"{key} expects {kind}, got {value!r}") from None


def _load_file(path, schema):
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidConfigError(f"no such config file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"cannot parse {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidConfigError(f"config file must hold a JSON object: {path}")
    for key in raw:
        if key not in schema:
            raise InvalidConfigError(f"unknown key '{key}'")
    return {k: _coerce(k, schema[k].kind, v) for k, v in raw.items()}


def resolve_config(schema, args):
    """defaults < config file < MOEGEO_SEED < explicit flags."""
    cfg = {k: f.default for k, f in schema.items()}
    if args.config:
        cfg.update(_load_file(args.config, schema))
    env_seed = os.environ.get("MOEGEO_SEED")
    if env_seed is not None and "seed" in schema:
        cfg["seed"] = _coerce("seed", "int", env_seed)
    for key, field in schema.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            cfg[key] = _coerce(key, field.kind, flag_value)
    return cfg


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path, table):
    """Write a (header, rows) table: floats to 6 significant digits, other cells as is."""
    header, rows = table
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.6g}" if isinstance(v, float) else v for v in row]
                         for row in rows)


def _prepare_output(cfg, config_path):
    out = Path(cfg["output_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise InvalidConfigError(f"output_dir {out}: {exc.strerror}") from None
    if config_path:
        dest = out / "config.json"
        if not (dest.exists() and os.path.samefile(config_path, dest)):
            shutil.copyfile(config_path, dest)
    _write_json(out / "resolved_config.json", cfg)
    return out


@dataclass(frozen=True)
class Command:
    """One subcommand.

    `run` takes the resolved config and returns (artifacts, status):
    artifacts maps each file name, in write order, to its data: a
    (header, rows) table for a .csv name, else a JSON payload; status is the
    exit code on success.
    """

    run: Callable
    help: str
    schema: dict


COMMANDS = {}


def command(name, help, **fields):
    """Register the decorated handler as subcommand `name` taking `fields` as flags.

    Every command also takes --output_dir, by default out/<name>.
    """
    def register(run):
        schema = {**fields, "output_dir": Field(f"out/{name}", "str", "artifact directory")}
        COMMANDS[name] = Command(run, help, schema)
        return run
    return register


_BARRIER_GRID = [round(x, 10) for x in np.linspace(0.0, 0.95, 25)]


@command(
    "barrier", "sweep greedy/OMP exact-recovery rates across coherence targets",
    d=Field(128, "int", "ambient dimension of dictionary atoms"),
    n_atoms=Field(64, "int", "number of dictionary atoms"),
    k=Field(6, "int", "planted sparsity level"),
    mu_grid=Field(_BARRIER_GRID, "floatlist", "ascending coherence targets, comma separated"),
    trials=Field(200, "int", "recovery trials per grid point"),
    seed=Field(42, "int", "master seed"),
    workers=Field(_default_workers(), "int", "parallel workers (results are worker-independent)"),
)
def cmd_barrier(cfg):
    curve = barrier_sweep(d=cfg["d"], n_atoms=cfg["n_atoms"], k=cfg["k"],
                          mu_grid=cfg["mu_grid"], trials=cfg["trials"],
                          seed=cfg["seed"], workers=cfg["workers"])
    full = [m for m, r in zip(curve.mu_measured_mean, curve.success_rate_greedy)
            if r == 1.0]
    rows = [(*point, curve.trials_per_point, curve.k, curve.theoretical_bound)
            for point in zip(curve.mu_grid, curve.mu_measured_mean,
                             curve.success_rate_greedy, curve.success_rate_omp)]
    return {
        "barrier.csv": (["mu_target", "mu_measured_mean", "success_greedy", "success_omp",
                         "trials", "k", "bound"], rows),
        "summary.json": {
            "theoretical_bound": curve.theoretical_bound,
            "k": curve.k,
            "trials_per_point": curve.trials_per_point,
            "mu_grid": list(curve.mu_grid),
            "mu_measured_mean": list(curve.mu_measured_mean),
            "success_rate_greedy": list(curve.success_rate_greedy),
            "success_rate_omp": list(curve.success_rate_omp),
            "largest_mu_full_greedy_success": max(full) if full else None,
        },
    }, 0


@command(
    "train", "cross-validated mixture-of-experts training with chosen regularizer",
    samples=Field(4000, "int", "dataset size"),
    features=Field(100, "int", "input dimension"),
    informative=Field(10, "int", "informative subspace dimension"),
    classes=Field(10, "int", "number of classes"),
    class_sep=Field(0.6, "float", "centroid separation scale"),
    experts=Field(16, "int", "expert count"),
    k=Field(2, "int", "active experts per sample"),
    hidden=Field(32, "int", "expert hidden width"),
    batch=Field(128, "int", "minibatch size"),
    lr=Field(1e-3, "float", "AdamW learning rate"),
    epochs=Field(30, "int", "training epochs"),
    aux_weight=Field(0.01, "float", "load-balance loss weight"),
    reg_weight=Field(0.1, "float", "decorrelation loss weight"),
    reg=Field("none", "str", "regularizer: none | ortho | ncl | dpp"),
    dpp_epsilon=Field(1e-4, "float", "Tikhonov constant for the dpp loss"),
    folds=Field(10, "int", "stratified cross-validation folds"),
    seed=Field(42, "int", "master seed"),
    workers=Field(_default_workers(), "int",
                  "parallel fold workers (results are worker-independent)"),
)
def cmd_train(cfg):
    dataset = synthetic_classification(
        samples=cfg["samples"], features=cfg["features"],
        informative=cfg["informative"], classes=cfg["classes"],
        class_sep=cfg["class_sep"], seed=cfg["seed"])
    config = MoEConfig(
        input_dim=cfg["features"], experts=cfg["experts"], active_k=cfg["k"],
        expert_hidden=cfg["hidden"], classes=cfg["classes"], batch=cfg["batch"],
        lr=cfg["lr"], epochs=cfg["epochs"], aux_weight=cfg["aux_weight"],
        reg_weight=cfg["reg_weight"], reg_kind=cfg["reg"], seed=cfg["seed"],
        dpp_epsilon=cfg["dpp_epsilon"])
    reports = cross_validate(config, dataset, folds=cfg["folds"], workers=cfg["workers"])
    accs = [r.final_accuracy for r in reports]
    heatmap = np.mean([r.heatmap for r in reports], axis=0)
    series = ("epoch", "loss_task", "loss_aux", "loss_reg", "test_acc", "eff_rank",
              "coherence", "marg_entropy")
    run_rows = [(r.fold, *(getattr(r, name)[i] for name in series))
                for r in reports for i in range(len(r.epoch))]
    heat_rows = [(e, c, heatmap[e, c]) for e, c in np.ndindex(heatmap.shape)]
    return {
        "run.csv": (["fold", *series], run_rows),
        "heatmap.csv": (["expert", "class", "freq"], heat_rows),
        "aggregate.json": {
            "reg": config.reg_kind,
            "folds": cfg["folds"],
            "final_accuracies": accs,
            "mean_accuracy": float(np.mean(accs)),
            "std_accuracy": float(np.std(accs)),
            "mean_eff_rank": [float(v) for v in np.mean([r.eff_rank for r in reports], axis=0)],
            "optimizer": {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2,
                          "eps": ADAM_EPS, "weight_decay": WEIGHT_DECAY,
                          "lr": config.lr},
        },
    }, 0


@command(
    "kl-project", "project a distribution onto the k-sparse probability set",
    experts=Field(8, "int", "distribution size"),
    k=Field(2, "int", "support size to project onto"),
    probs=Field(None, "floatlist", "explicit distribution (default: random)"),
    seed=Field(42, "int", "seed for the random distribution"),
)
def cmd_kl_project(cfg):
    if cfg["probs"] is not None:
        p = np.asarray(cfg["probs"], dtype=float)
    else:
        gen = stream(cfg["seed"], "cli", "kl")
        p = gen.random(cfg["experts"]) + 1e-3
        p /= p.sum()
    dist = CategoricalDist(p)
    try:
        q, support, kl = kl_sparse_project(dist, cfg["k"])
    except ZeroProbabilityError as exc:  # only a given distribution falls below the floor
        raise InvalidConfigError(f"probs: {exc}") from None
    return {"projection.json": {
        "p": [float(v) for v in dist.probs],
        "q": [float(v) for v in q.probs],
        "support": list(support),
        "kl": kl,
    }}, 0


@command(
    "dpp-select", "greedy log-det subset selection on a dictionary kernel",
    d=Field(32, "int", "ambient dimension"),
    n_atoms=Field(16, "int", "number of atoms"),
    coherence=Field(0.5, "float", "target mutual coherence of the dictionary"),
    k=Field(4, "int", "subset size to select"),
    seed=Field(42, "int", "master seed"),
)
def cmd_dpp_select(cfg):
    (dictionary,), (measured,) = coherent_dictionaries(
        cfg["d"], cfg["n_atoms"], cfg["coherence"], COHERENCE_TOL, [cfg["seed"]])
    kernel = Kernel(dictionary)
    selection, gains = dpp_greedy_select(kernel, cfg["k"])
    return {"selection.json": {
        "selection": list(selection),
        "marginal_gains": gains,
        "logdet": logdet_subset(kernel, selection),
        "coherence_target": cfg["coherence"],
        "coherence_measured": measured,
    }}, 0


@command(
    "info", "routing entropy, load-balance, and mutual-information report",
    experts=Field(16, "int", "expert count"),
    k=Field(2, "int", "active experts per token"),
    tokens=Field(512, "int", "batch size"),
    seed=Field(42, "int", "master seed"),
)
def cmd_info(cfg):
    e, k, t = cfg["experts"], cfg["k"], cfg["tokens"]
    if e < 2:
        raise InvalidConfigError(f"experts must be >= 2, got {e}")
    check_k(k, e)
    if t < 1:
        raise InvalidConfigError(f"tokens must be >= 1, got {t}")
    gen = stream(cfg["seed"], "cli", "info")
    probs = softmax_rows(gen.standard_normal((t, e)))
    batch = RoutingBatch(dense_probs=probs, selections=topk_indices(probs, k))
    p_bar = mean_routing_probs(batch)
    h_z, h_cond, mi = empirical_mi(batch)
    return {"info.json": {
        "experts": e, "k": k, "tokens": t,
        "aux_loss": aux_loss(batch),
        "marginal_entropy": entropy(p_bar.probs),
        "renyi2_entropy": renyi2_entropy(p_bar),
        "collision_mass": collision_mass(p_bar),
        "topk_conditional_entropy": h_cond,
        "mi_lower_bound": mi_lower_bound(e, k) if k < e else 0.0,
        "empirical_mi": mi, "routing_entropy": h_z, "conditional_entropy": h_cond,
    }}, 0


@command(
    "verify", "run the analytic self-audit suite",
    checks=Field(None, "strlist", "comma-separated subset of: " + ", ".join(ALL_CHECKS)),
    seed=Field(42, "int", "master seed"),
)
def cmd_verify(cfg):
    try:
        results = run_verification(seed=cfg["seed"], checks=cfg["checks"])
    except KeyError as exc:
        raise InvalidConfigError(str(exc.args[0])) from None
    for r in results:
        print(f"check {r.name}: {'PASS' if r.passed else 'FAIL'}")
    all_pass = all(r.passed for r in results)
    return {"verify.json": {
        "all_pass": all_pass,
        "checks": [r.as_dict() for r in results],
    }}, 0 if all_pass else 1


@functools.cache
def build_parser():
    """The argparse tree for every command, built once per process from COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="moegeo",
        description="Numerical laboratory for sparse routing geometry.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--config", default=None,
                       help="JSON config file; flags override its values")
        for key, field in cmd.schema.items():
            p.add_argument("--" + key, default=None, metavar=field.kind.upper(),
                           help=f"{field.help} (default: {field.default})")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    cmd = COMMANDS[args.command]
    try:
        cfg = resolve_config(cmd.schema, args)
        artifacts, status = cmd.run(cfg)
        out = _prepare_output(cfg, args.config)
        for name, data in artifacts.items():
            write = _write_csv if name.endswith(".csv") else _write_json
            write(out / name, data)
            print(f"wrote {out / name}")
        return status
    except _CONFIG_ERRORS as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    except MoegeoError as exc:
        print(f"abort: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # a bug, not a user error: keep the traceback for the report
        print(f"internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        import traceback
        traceback.print_exc(file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
