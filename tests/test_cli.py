"""Subcommand contracts: exit codes, precedence, byte-stable artifacts."""

import dataclasses
import errno
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from moegeo import cli, dictgen, diversity, sss, verify
from moegeo.cli import build_parser, main
from moegeo.errors import NonFiniteError


def run(tmp_path, *argv):
    """Invoke the CLI with output rooted under tmp_path."""
    return main([*argv])


# a small train run: 3 folds x (2 + 1) epoch rows in run.csv, 4 experts x 5 classes in heatmap.csv
SMALL_TRAIN = ["train", "--samples", "200", "--features", "12", "--informative", "6",
               "--classes", "5", "--experts", "4", "--hidden", "8", "--epochs", "2",
               "--folds", "3", "--workers", "1"]


class TestExitCodes:
    def test_descending_grid_is_config_error(self, tmp_path, capsys):
        code = main(["barrier", "--mu_grid", "0.5,0.2", "--trials", "1",
                     "--output_dir", str(tmp_path / "b")])
        assert code == 2
        assert capsys.readouterr().err.strip() == "config: mu_grid must ascend"

    @pytest.mark.parametrize("argv", [
        ["barrier", "--mu_grid", "0.5,0.2", "--trials", "1"],
        ["kl-project", "--probs", "0.6,0.6"],
    ], ids=["barrier-descending-grid", "kl-project-bad-sum"])
    def test_config_error_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "D"
        code = main([*argv, "--output_dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config:")
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"bogus": 1}')
        code = main(["kl-project", "--config", str(cfg),
                     "--output_dir", str(tmp_path / "o")])
        assert code == 2
        assert "unknown key 'bogus'" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        code = main(["info", "--config", str(cfg),
                     "--output_dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config:")

    @pytest.mark.parametrize("make", [
        lambda p: p.mkdir(),
        lambda p: p.write_bytes(b"\xff\xfe{}"),
    ], ids=["directory", "not-utf8"])
    def test_unreadable_config(self, tmp_path, capsys, make):
        cfg = tmp_path / "c.json"
        make(cfg)
        out = tmp_path / "o"
        code = main(["info", "--config", str(cfg), "--output_dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config: cannot read {cfg}")
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["sub", ""], ids=["under-file", "is-file"])
    def test_output_dir_blocked_by_file(self, tmp_path, capsys, sub):
        blocker = tmp_path / "f"
        blocker.write_text("")
        code = main(["info", "--output_dir", str(blocker / sub)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config: output_dir ")
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("name, reason", [
        ("a" * 300, os.strerror(errno.ENAMETOOLONG)),
        ("a\0b", "embedded null byte"),
    ], ids=["name-too-long", "nul-byte"])
    def test_unmakeable_output_dir_is_config_error(self, tmp_path, capsys, name, reason):
        out = tmp_path / name
        code = main(["info", "--output_dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"config: output_dir {out}: {reason}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, entry", [
        ("train", '"lr": true, "samples": 40, "folds": 2, "epochs": 1, "workers": 1'),
        ("train", '"seed": false, "samples": 40, "folds": 2, "epochs": 1, "workers": 1'),
        ("barrier", '"mu_grid": [0.1, true]'),
        ("kl-project", '"probs": [false, true]'),
        ("barrier", '"trials": 1e999'),
        ("info", '"seed": -1e999'),
    ], ids=["train-lr", "train-seed", "barrier-mu_grid", "kl-project-probs",
            "barrier-trials-inf", "info-seed-minus-inf"])
    def test_json_boolean_is_not_a_number(self, tmp_path, capsys, command, entry):
        cfg = tmp_path / "c.json"
        cfg.write_text("{" + entry + "}")
        out = tmp_path / "o"
        code = main([command, "--config", str(cfg), "--output_dir", str(out)])
        assert code == 2
        key = entry.split('"')[1]
        assert capsys.readouterr().err.startswith(f"config: {key} expects ")
        assert not (out / "resolved_config.json").exists()

    def test_bad_value_type(self, tmp_path, capsys):
        code = main(["barrier", "--trials", "two",
                     "--output_dir", str(tmp_path / "o")])
        assert code == 2

    def test_unknown_check_name(self, tmp_path, capsys):
        code = main(["verify", "--checks", "nonsense",
                     "--output_dir", str(tmp_path / "o")])
        assert code == 2
        assert "nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [None, '{"checks": []}'], ids=["flag", "file"])
    def test_empty_check_selection_is_config_error(self, tmp_path, capsys, config):
        argv = ["verify", "--checks", ","]
        if config is not None:
            cfg = tmp_path / "c.json"
            cfg.write_text(config)
            argv = ["verify", "--config", str(cfg)]
        out = tmp_path / "o"
        assert main([*argv, "--output_dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config: checks selects none; known: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_out_of_memory_is_config_error(self, tmp_path, capsys, monkeypatch):
        # numpy raises a MemoryError for an allocation the host refuses, as for
        # kl-project --experts 100000000000; raised here without asking for one
        def refused(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "CategoricalDist", refused)
        out = tmp_path / "o"
        code = main(["kl-project", "--output_dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "config: out of memory: Unable to allocate 745. GiB for an array\n"
        assert not out.exists()

    def test_numerical_abort_is_exit_3(self, tmp_path, capsys):
        # a learning rate this large overflows the first update: a diverged fold
        with np.errstate(all="ignore"):
            code = main(["train", "--lr", "1e300", "--samples", "40", "--folds", "2",
                         "--epochs", "1", "--workers", "1",
                         "--output_dir", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err.startswith("abort:")

    def test_diverged_fold_is_one_abort_line(self, tmp_path):
        # the outputs grow huge but finite before anything turns non-finite: the
        # first overflow aborts the fold, with no numpy warning on stderr. A huge
        # learning rate overflows in training; a huge class separation already in
        # the untrained model's epoch-0 evaluation
        src = str(Path(cli.__file__).resolve().parents[1])
        for flags, epochs in (
            (["--lr", "1e6", "--epochs", "2", "--folds", "2"], "[12]"),
            (["--samples", "20", "--folds", "2", "--epochs", "1", "--classes", "2",
              "--features", "3", "--informative", "3", "--experts", "2", "--k", "1",
              "--class_sep", "1e300"], "0"),
        ):
            argv = ["train", *flags, "--workers", "1", "--output_dir", str(tmp_path / "o")]
            code = (f"import sys; sys.path.insert(0, {src!r}); from moegeo.cli import main; "
                    f"sys.exit(main({argv!r}))")
            proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                                  text=True, timeout=300)
            assert proc.returncode == 3, flags
            assert re.fullmatch(rf"abort: fold 0 diverged at epoch {epochs}: [^\n]+\n",
                                proc.stderr), proc.stderr
            assert proc.stdout == ""

    @pytest.mark.parametrize("argv, call", [
        (["barrier"], "barrier_sweep"),
        (["train", "--samples", "40", "--folds", "2"], "cross_validate"),
        (["kl-project"], "kl_sparse_project"),
        (["dpp-select"], "dpp_greedy_select"),
        (["info"], "empirical_mi"),
        (["verify"], "run_verification"),
    ], ids=["barrier", "train", "kl-project", "dpp-select", "info", "verify"])
    def test_numerical_abort_writes_nothing(self, tmp_path, capsys, monkeypatch, argv, call):
        def abort(*args, **kwargs):
            raise NonFiniteError("injected")

        monkeypatch.setattr(cli, call, abort)
        out = tmp_path / "o"
        assert main([*argv, "--output_dir", str(out)]) == 3
        assert capsys.readouterr().err == "abort: injected\n"
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["x", "x/y", ""], ids=["under-file", "deeper", "is-file"])
    def test_unmakeable_output_dir_fails_before_the_work(self, tmp_path, capsys, monkeypatch,
                                                         sub):
        def never(*args, **kwargs):
            pytest.fail("barrier_sweep ran although output_dir cannot be made")

        monkeypatch.setattr(cli, "barrier_sweep", never)
        blocker = tmp_path / "f"
        blocker.write_text("")
        out = blocker / sub
        assert main(["barrier", "--workers", "1", "--output_dir", str(out)]) == 2
        reason = os.strerror(errno.EEXIST if sub == "" else errno.ENOTDIR)
        assert capsys.readouterr().err == f"config: output_dir {out}: {reason}\n"
        assert sorted(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""

    def test_makeable_output_dir_is_made_only_after_the_work(self, tmp_path, monkeypatch):
        out = tmp_path / "a" / "b"
        sweep = cli.barrier_sweep

        def checked(*args, **kwargs):
            assert not (tmp_path / "a").exists()
            return sweep(*args, **kwargs)

        monkeypatch.setattr(cli, "barrier_sweep", checked)
        assert main(["barrier", "--workers", "1", "--trials", "1", "--mu_grid", "0,0.3",
                     "--output_dir", str(out)]) == 0
        assert (out / "barrier.csv").exists()

    def test_kl_project_negative_experts_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["kl-project", "--experts", "-3", "--output_dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "config: experts must be >= 2, got -3\n"
        assert not out.exists()

    @pytest.mark.parametrize("probs", ["0,1", "1,0", "1e-320,1"])
    def test_zero_probability_is_config_error(self, tmp_path, capsys, probs):
        code = main(["kl-project", "--probs", probs, "--k", "1",
                     "--output_dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            "config: probs: projection needs every probability >= 1e-300")

    def test_single_expert_is_config_error(self, tmp_path, capsys):
        code = main(["train", "--experts", "1", "--k", "1", "--samples", "40",
                     "--folds", "2", "--epochs", "1", "--output_dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config:") and "experts" in err

    def test_more_folds_than_class_members_is_config_error(self, tmp_path, capsys):
        code = main(["train", "--folds", "30", "--samples", "20",
                     "--output_dir", str(tmp_path / "o")])
        assert code == 2
        assert "folds" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--reg", "dpp", "--dpp_epsilon", "inf"], "dpp_epsilon must be finite, got inf"),
        (["--lr", "inf"], "lr must be finite, got inf"),
        (["--aux_weight", "inf"], "aux_weight must be finite, got inf"),
        (["--reg_weight", "inf"], "reg_weight must be finite, got inf"),
        (["--class_sep", "nan"], "class_sep must be finite and nonnegative, got nan"),
        (["--class_sep", "inf"], "class_sep must be finite and nonnegative, got inf"),
    ])
    def test_nonfinite_float_is_config_error(self, tmp_path, capsys, argv, message):
        code = main(["train", *argv, "--samples", "40", "--folds", "2", "--epochs", "1",
                     "--workers", "1", "--output_dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"config: {message}"

    def test_probability_sum_message_is_a_plain_number(self, tmp_path, capsys):
        code = main(["kl-project", "--probs", "0.2,0.3", "--k", "1",
                     "--output_dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            "config: probabilities sum to 0.5, expected 1 within 1e-9")

    @pytest.mark.parametrize("argv", [
        ["barrier", "--trials", "1", "--mu_grid", "0"],
        ["train", "--samples", "40", "--folds", "2", "--epochs", "1"],
    ])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_is_config_error(self, tmp_path, capsys, argv, workers):
        code = main(argv + ["--workers", workers, "--output_dir", str(tmp_path / "o")])
        assert code == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--d", "0"],
        ["--d", "8", "--n_atoms", "16"],
        ["--n_atoms", "1", "--k", "1"],
    ], ids=["d-zero", "more-atoms-than-dims", "one-atom"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_barrier_bad_shape_is_config_error(self, tmp_path, capsys, argv, workers):
        out = tmp_path / "o"
        code = main(["barrier", *argv, "--trials", "1", "--mu_grid", "0",
                     "--workers", workers, "--output_dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config: need 2 <= n_atoms <= d")
        assert not out.exists()

    @pytest.mark.parametrize("argv, name", [
        (["--experts", "0"], "experts"),
        (["--experts", "1", "--k", "1"], "experts"),
        (["--experts", "4", "--k", "9"], "k"),
        (["--k", "0"], "k"),
        (["--tokens", "-1"], "tokens"),
    ])
    def test_info_bad_shape_is_config_error(self, tmp_path, capsys, argv, name):
        out = tmp_path / "o"
        code = main(["info", *argv, "--output_dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config:") and name in err
        assert not (out / "info.json").exists()

    @pytest.mark.parametrize("argv", [
        ["--k", "0"],
        ["--k", "17", "--n_atoms", "16"],
        ["--d", "8", "--n_atoms", "16"],
        ["--coherence", "1.0"],
    ])
    def test_dpp_select_bad_input_is_config_error(self, tmp_path, capsys, argv):
        code = main(["dpp-select", *argv, "--output_dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config:")

    def test_unexpected_exception_is_exit_4(self, tmp_path, capsys, monkeypatch):
        def broken(cfg):
            raise ValueError("not a library error")

        broken_info = dataclasses.replace(cli.COMMANDS["info"], run=broken)
        monkeypatch.setitem(cli.COMMANDS, "info", broken_info)
        code = main(["info", "--output_dir", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("internal: ValueError: not a library error\n")
        assert "in broken" in err

    def test_verify_failure_is_exit_1(self, tmp_path, monkeypatch):
        real = verify.kl_sparse_project

        def negated_kl(p, k):
            q, support, kl = real(p, k)
            return q, support, -kl

        monkeypatch.setattr(verify, "kl_sparse_project", negated_kl)
        out = tmp_path / "v"
        code = main(["verify", "--checks", "kl-projection-oracle",
                     "--output_dir", str(out)])
        assert code == 1
        payload = json.loads((out / "verify.json").read_text())
        assert payload["all_pass"] is False
        assert payload["checks"][0]["name"] == "kl-projection-oracle"
        assert payload["checks"][0]["pass"] is False

    def test_verify_passes_clean(self, tmp_path):
        out = tmp_path / "v"
        code = main(["verify", "--checks", "kl-projection-oracle,ambiguity-identity",
                     "--output_dir", str(out)])
        assert code == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["all_pass"] is True
        assert [c["name"] for c in payload["checks"]] == [
            "kl-projection-oracle", "ambiguity-identity"]


class TestPrecedence:
    def test_file_overrides_default(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"seed": 9, "experts": 5}')
        out = tmp_path / "o"
        assert main(["kl-project", "--config", str(cfg), "--output_dir", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seed"] == 9
        assert resolved["experts"] == 5

    def test_env_overrides_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"seed": 9}')
        monkeypatch.setenv("MOEGEO_SEED", "3")
        out = tmp_path / "o"
        assert main(["kl-project", "--config", str(cfg), "--output_dir", str(out)]) == 0
        assert json.loads((out / "resolved_config.json").read_text())["seed"] == 3

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MOEGEO_SEED", "3")
        out = tmp_path / "o"
        assert main(["kl-project", "--seed", "11", "--output_dir", str(out)]) == 0
        assert json.loads((out / "resolved_config.json").read_text())["seed"] == 11

    def test_config_copied_verbatim(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"seed": 4}  ')
        out = tmp_path / "o"
        assert main(["info", "--config", str(cfg), "--tokens", "32",
                     "--output_dir", str(out)]) == 0
        assert (out / "config.json").read_bytes() == cfg.read_bytes()


class TestArtifacts:
    def test_barrier_smoke_and_rerun_identical(self, tmp_path):
        out = tmp_path / "b"
        argv = ["barrier", "--d", "24", "--n_atoms", "12", "--trials", "2",
                "--mu_grid", "0,0.3", "--output_dir", str(out)]
        assert main(argv) == 0
        first_csv = (out / "barrier.csv").read_bytes()
        first_sum = (out / "summary.json").read_bytes()
        assert main(argv) == 0
        assert (out / "barrier.csv").read_bytes() == first_csv
        assert (out / "summary.json").read_bytes() == first_sum
        summary = json.loads(first_sum)
        assert summary["theoretical_bound"] == pytest.approx(1 / 11, abs=1e-12)
        assert len(summary["mu_grid"]) == 2

    def test_barrier_workers_do_not_change_bytes(self, tmp_path, monkeypatch):
        # one trial a job, so the two trials make two jobs and workers=3 runs them on the pool
        monkeypatch.setattr(sss, "_STACK_BYTES", 8 * 20 * 10)
        base = ["barrier", "--d", "20", "--n_atoms", "10", "--trials", "2",
                "--mu_grid", "0,0.2,0.4"]
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(base + ["--workers", "1", "--output_dir", str(out1)]) == 0
        assert main(base + ["--workers", "3", "--output_dir", str(out2)]) == 0
        assert (out1 / "barrier.csv").read_bytes() == (out2 / "barrier.csv").read_bytes()

    def test_train_smoke_and_rerun_identical(self, tmp_path):
        out = tmp_path / "t"
        argv = ["train", "--samples", "300", "--features", "16", "--informative",
                "8", "--classes", "5", "--experts", "4", "--hidden", "8",
                "--epochs", "1", "--folds", "2", "--output_dir", str(out)]
        assert main(argv) == 0
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["reg"] == "none"  # default recorded
        assert agg["folds"] == 2
        assert len(agg["mean_eff_rank"]) == 2  # init row + 1 epoch
        assert len(agg["final_accuracies"]) == 2
        assert agg["mean_accuracy"] == pytest.approx(np.mean(agg["final_accuracies"]), abs=1e-12)
        assert agg["std_accuracy"] == pytest.approx(np.std(agg["final_accuracies"]), abs=1e-12)
        first_run = (out / "run.csv").read_bytes()
        first_heat = (out / "heatmap.csv").read_bytes()
        assert main(argv) == 0
        assert (out / "run.csv").read_bytes() == first_run
        assert (out / "heatmap.csv").read_bytes() == first_heat

    def test_train_workers_do_not_change_bytes(self, tmp_path):
        base = ["train", "--samples", "200", "--features", "12", "--informative",
                "6", "--classes", "4", "--experts", "4", "--hidden", "8",
                "--epochs", "1", "--folds", "2"]
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(base + ["--workers", "1", "--output_dir", str(out1)]) == 0
        assert main(base + ["--workers", "2", "--output_dir", str(out2)]) == 0
        assert (out1 / "run.csv").read_bytes() == (out2 / "run.csv").read_bytes()

    # SHA-256 of each arm's artifacts, taken before the trainer kept its weights,
    # AdamW moments and gradients in flat buffers. A fold takes 402 steps, past
    # t = 356, where AdamW stops dividing m by 1 - b1**t. To recompute:
    #   moegeo train --reg REG --samples 600 --folds 3 --epochs 3 --batch 3 --features 20
    #       --informative 5 --experts 8 --hidden 8 --workers 1 --output_dir DIR
    #   sha256sum DIR/run.csv DIR/heatmap.csv DIR/aggregate.json
    PINNED_TRAIN = {
        "none": ("569c1d41238593aea38be306abe39dc2771a06655de362a025ab439be9ee1ee1",
                 "11b903540bcc1ce3d4c019f6a65dbfc62aca2ee5884265e3efa9c3151c1fd63a",
                 "621edfd7bba38da0202a1501460df8ab89fb0e48129c66be62eac9a2b4ea1193"),
        "ortho": ("8200bddc81763d4d97e3200847d02dd7167f9051a9b2bbd89216545e3fa8960c",
                  "34cf3aacf8da20bd8822d3b670858d0656f383469b13f8b540070f83ba936128",
                  "969d10eca5e46e9ce54363b53ea4c4123007f264f553885239e15cc5a08f1ac8"),
        "ncl": ("05414505874d3dcdb1b2b9a2ee677e62b6d913e9699b50ef07d5ed450833e1b0",
                "ea5482fcb6c738434c4365ca16708749035f11997806a1aa2f4f0bbdfc2b8245",
                "215a5e4aeaf38e7387642f9d93aa6ae1a293cbb5a09cad193706058be88ab146"),
        "dpp": ("02c68ae193a99bc3defb936fdf97428a35065039808d4a9b0cd657461c8b36c5",
                "34cf3aacf8da20bd8822d3b670858d0656f383469b13f8b540070f83ba936128",
                "f5a86685aca61006531d3e1b67473ed55f4fcbccba3bef3fd0b5a2677ab9dc49"),
    }

    @pytest.mark.parametrize("reg", sorted(PINNED_TRAIN))
    def test_train_artifacts_keep_their_pinned_bytes(self, tmp_path, reg):
        out = tmp_path / reg
        assert main(["train", "--reg", reg, "--samples", "600", "--folds", "3", "--epochs", "3",
                     "--batch", "3", "--features", "20", "--informative", "5",
                     "--experts", "8", "--hidden", "8", "--workers", "1",
                     "--output_dir", str(out)]) == 0
        digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("run.csv", "heatmap.csv", "aggregate.json"))
        assert digests == self.PINNED_TRAIN[reg]

    @pytest.mark.parametrize("argv, name, header, rows", [
        (["barrier", "--d", "16", "--n_atoms", "8", "--k", "2", "--trials", "4",
          "--mu_grid", "0.1,0.3,0.5", "--workers", "1"], "barrier.csv",
         "mu_target,mu_measured_mean,success_greedy,success_omp,trials,k,bound", 3),
        (SMALL_TRAIN, "run.csv",
         "fold,epoch,loss_task,loss_aux,loss_reg,test_acc,eff_rank,coherence,marg_entropy",
         3 * (2 + 1)),
        (SMALL_TRAIN, "heatmap.csv", "expert,class,freq", 4 * 5),
    ], ids=["barrier", "run", "heatmap"])
    def test_csv_header_and_row_count(self, tmp_path, argv, name, header, rows):
        out = tmp_path / "o"
        assert main([*argv, "--output_dir", str(out)]) == 0
        lines = (out / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + rows

    def test_write_csv_formats_floats_only(self, tmp_path):
        heat = np.arange(6, dtype=float).reshape(3, 2) / 10
        rows = [(e, c, heat[e, c]) for e in range(3) for c in range(2)]
        path = tmp_path / "t.csv"
        cli._write_csv(path, (["expert", "class", "freq"],
                              [*rows, (1234567, np.int64(7654321), 1234567.0)]))
        lines = path.read_text().splitlines()
        assert lines[0] == "expert,class,freq"
        assert lines[1] == "0,0,0"
        assert lines[6] == "2,1,0.5"
        assert lines[7] == "1234567,7654321,1.23457e+06"

    def test_kl_project_explicit_probs(self, tmp_path):
        out = tmp_path / "k"
        assert main(["kl-project", "--probs", "0.5,0.3,0.2", "--k", "2",
                     "--output_dir", str(out)]) == 0
        payload = json.loads((out / "projection.json").read_text())
        assert payload["support"] == [0, 1]
        assert payload["q"] == pytest.approx([0.625, 0.375, 0.0], abs=1e-12)
        assert payload["kl"] == pytest.approx(0.22314355, abs=1e-6)

    def test_dpp_select_smoke(self, tmp_path):
        out = tmp_path / "d"
        assert main(["dpp-select", "--d", "16", "--n_atoms", "8", "--k", "3",
                     "--coherence", "0.4", "--output_dir", str(out)]) == 0
        payload = json.loads((out / "selection.json").read_text())
        assert len(payload["selection"]) == 3
        assert payload["coherence_measured"] == pytest.approx(0.4, abs=0.005)
        # chain of marginal gains telescopes to the subset log-volume
        assert sum(payload["marginal_gains"]) == pytest.approx(payload["logdet"], abs=1e-9)

    @pytest.mark.parametrize("shape", [[], ["--d", "256", "--n_atoms", "256", "--k", "32"]],
                             ids=["defaults", "bench-shape"])
    def test_dpp_select_refactors_no_prefix(self, tmp_path, monkeypatch, shape):
        # the gains come from the greedy's own factor and no round is rescored
        # here, so the per-candidate Schur step that marginal_gain and the
        # rescoring loop share never runs
        calls = []
        real = diversity._schur_gain
        monkeypatch.setattr(diversity, "_schur_gain",
                            lambda *args: calls.append(args) or real(*args))
        out = tmp_path / "d"
        assert main(["dpp-select", *shape, "--output_dir", str(out)]) == 0
        payload = json.loads((out / "selection.json").read_text())
        assert len(payload["marginal_gains"]) == len(payload["selection"])
        assert calls == []

    @pytest.mark.parametrize("shape", [[], ["--d", "256", "--n_atoms", "256", "--k", "32"]],
                             ids=["defaults", "bench-shape"])
    def test_dpp_select_reads_the_blended_stack(self, tmp_path, monkeypatch, shape):
        # the kernel's dictionary views the blend itself, held by the checked stack, and
        # its gram is the stacked gram the measured coherence was read from: no second
        # copy of the dictionary, no second Gram product
        blends, stacks, grams, kernels = [], [], [], []

        def recording(*args):
            for built in dictgen.coherent_dictionaries(*args):
                stacks.append(built)
                yield built

        real, blend = dictgen.mutual_coherence, dictgen._blend
        monkeypatch.setattr(dictgen, "_blend", lambda *args: blends.append(blend(*args)) or blends[-1])
        monkeypatch.setattr(cli, "coherent_dictionaries", recording)
        monkeypatch.setattr(dictgen, "mutual_coherence",
                            lambda d: grams.append(d.gram) or real(d))
        monkeypatch.setattr(cli, "Kernel", lambda d: kernels.append(diversity.Kernel(d)) or kernels[-1])
        assert main(["dpp-select", *shape, "--output_dir", str(tmp_path / "d")]) == 0
        [blended], [(stack, measured)], [gram], [kernel] = blends, stacks, grams, kernels
        # the stack holds the (1, T, d, N) blend as a (T, d, N) view
        assert stack.data.base is blended
        assert np.shares_memory(kernel.dictionary.data, blended)
        assert np.shares_memory(kernel.dictionary.gram, gram)
        assert gram is stack.gram
        payload = json.loads((tmp_path / "d" / "selection.json").read_text())
        assert payload["coherence_measured"] == measured[0]

    def test_info_smoke(self, tmp_path):
        out = tmp_path / "i"
        assert main(["info", "--experts", "8", "--k", "2", "--tokens", "64",
                     "--output_dir", str(out)]) == 0
        payload = json.loads((out / "info.json").read_text())
        assert sorted(payload) == [
            "aux_loss", "collision_mass", "empirical_mi", "experts", "k", "marginal_entropy",
            "mi_lower_bound", "renyi2_entropy", "routing_entropy", "tokens",
            "topk_conditional_entropy"]
        assert payload["topk_conditional_entropy"] <= 0.6931472 + 1e-6
        assert payload["collision_mass"] >= 1 / 8 - 1e-12
        assert payload["empirical_mi"] >= payload["routing_entropy"] - 0.6931472 - 1e-9


class TestParser:
    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["train", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for fragment in ("default: 16", "default: 32", "default: 0.01", "default: 0.1"):
            assert fragment in text

    def test_missing_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_import_loads_neither_logging_nor_traceback(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import moegeo.cli; "
                "print(sorted({'logging', 'traceback'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                              text=True, check=True, timeout=120)
        assert proc.stdout == "[]\n"

    def test_successive_calls_do_not_leak_flags(self, tmp_path):
        out = tmp_path / "o"
        argv = ["dpp-select", "--d", "16", "--n_atoms", "8", "--output_dir", str(out)]
        assert main([*argv, "--k", "3"]) == 0
        assert main(argv) == 0
        default_k = cli.COMMANDS["dpp-select"].schema["k"].default
        assert json.loads((out / "resolved_config.json").read_text())["k"] == default_k
        assert len(json.loads((out / "selection.json").read_text())["selection"]) == default_k
