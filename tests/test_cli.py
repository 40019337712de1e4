"""Command-line interface: output contracts, determinism, exit codes."""

import csv
import gc
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from argparse import Namespace
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import detavg
from detavg import cli
from detavg.cli import main, write_csv
from detavg.dataio import serialize_libsvm, synth_regression
from detavg.errors import NonFiniteResult, NotPositiveDefinite
from detavg.newton import local_newton_estimate
from detavg.objective import Dataset, LossKind, Objective
from detavg.sketch import SeedSpec, block_size, draw_mask
from detavg.uq import Statistic, local_uq_estimate


def run(tmp_path, name, *argv):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out


def assert_one_line(err, prefix):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), err


# a --trials or --iters count whose output table would be far past the cap
HUGE_COUNT = 10**12

# a vanishing ridge: an empty mask's step grad/lam overflows to inf in the
# first fleet of either run, four machines at trial 0 and w = 0
NON_FINITE_STEP_ARGV = [
    ["newton-sweep", "--synth", "20,2,1.0", "--k", "1", "--m", "2,4",
     "--lambda", "1e-320", "--trials", "1"],
    ["newton-converge", "--synth", "20,2,1.0", "--k", "1", "--m", "4",
     "--lambda", "1e-320", "--iters", "2"],
]

# a ridge that cannot lift a rounding-negative eigenvalue: exits 2 naming
# machine (24, 0, 0), which the generated draws of the property never reach
UQ_NOT_POSITIVE_DEFINITE_ARGV = ["uq-sweep", "--synth=40,6,0.5", "--k=3", "--m=4,16",
                                 "--eta=1e-30", "--seed=24"]


def first_failure(obj, k, m, seed):
    """(machine, how it fails) that a fleet of m machines, one stack, at
    trial 0 and w = 0 names, or None; found machine by machine through
    draw_mask and the public single-machine route, each from its own
    (seed, trial, machine) triple.  The stack is factored whole before any
    step is checked, so a machine that is not positive definite is named
    before an earlier one whose step is not finite."""
    assert m <= block_size(obj.d * obj.d)
    w = np.zeros(obj.d)
    non_finite = []
    for t in range(m):
        try:
            local_newton_estimate(obj, w, draw_mask(obj.data.n, k, SeedSpec(seed, 0, t)))
        except NotPositiveDefinite:
            return t, "is not positive definite"
        except NonFiniteResult:
            non_finite.append(t)
    return (non_finite[0], "has a non-finite result") if non_finite else None


def sweep_args(out_name="sweep.csv", **over):
    base = {
        "synth": "120,3,0.5",
        "k": "30",
        "m": "2,4",
        "trials": "5",
        "seed": "11",
    }
    base.update(over)
    argv = ["newton-sweep"]
    for key, val in base.items():
        if val is not None:
            argv += [f"--{key}", val]
    return argv


class TestNewtonSweep:
    def test_csv_and_sidecar(self, tmp_path):
        code, out = run(tmp_path, "s.csv", *sweep_args())
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scheme,m,k,trial,err_euclidean,err_hnorm"
        assert len(lines) == 1 + 2 * 2 * 5  # schemes * machine counts * trials
        first = lines[1].split(",")
        assert first[:4] == ["determinantal", "2", "30", "0"]
        assert all(float(x) >= 0 for x in first[4:])

        meta = json.loads((tmp_path / "s.meta.json").read_text())
        assert meta["command"] == "newton-sweep"
        assert meta["m_list"] == [2, 4]
        assert meta["seed"] == 11
        assert meta["coherence"] > 0
        assert meta["step_norm_euclidean"] > 0
        assert meta["step_norm_hessian"] > 0
        assert meta["lambda"] == pytest.approx(1.0 / 120)  # auto default
        assert "threads" not in meta

    def test_failed_sidecar_leaves_no_table(self, tmp_path, capsys):
        (tmp_path / "o.meta.json").mkdir()
        code, out = run(tmp_path, "o.csv", "newton-sweep", "--synth", "50,3,1.0", "--k", "10",
                        "--m", "4", "--trials", "1")
        assert code == 1
        assert_one_line(capsys.readouterr().err, "error: ")
        assert not out.exists()

    def test_single_scheme_filter(self, tmp_path):
        code, out = run(tmp_path, "u.csv", *sweep_args(scheme="uniform"))
        assert code == 0
        body = out.read_text().splitlines()[1:]
        assert len(body) == 2 * 5
        assert all(line.startswith("uniform,") for line in body)

    def test_threads_do_not_change_bytes(self, tmp_path):
        # --threads is accepted for compatibility and has no effect, even at 0
        runs = [run(tmp_path, f"t{t}.csv", *sweep_args(threads=t)) for t in ("0", "1", "3")]
        assert [code for code, _ in runs] == [0, 0, 0]
        assert len({out.read_bytes() for _, out in runs}) == 1
        assert len({out.with_suffix(".meta.json").read_bytes() for _, out in runs}) == 1

    def test_seed_changes_rows(self, tmp_path):
        _, a = run(tmp_path, "a.csv", *sweep_args(seed="11"))
        _, b = run(tmp_path, "b.csv", *sweep_args(seed="12"))
        assert a.read_bytes() != b.read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        _, a = run(tmp_path, "a.csv", *sweep_args())
        _, b = run(tmp_path, "b.csv", *sweep_args())
        assert a.read_bytes() == b.read_bytes()

    def test_lambda_literal_value(self, tmp_path):
        code, _ = run(tmp_path, "s.csv", *sweep_args(**{"lambda": "0.25"}))
        assert code == 0
        meta = json.loads((tmp_path / "s.meta.json").read_text())
        assert meta["lambda"] == pytest.approx(0.25)

    def test_lambda_garbage_exits_1(self, tmp_path):
        code, _ = run(tmp_path, "s.csv", *sweep_args(**{"lambda": "plenty"}))
        assert code == 1

    def test_local_factorization_failure_names_the_machine(self, tmp_path, capsys):
        # about two rows per machine in d=10 with a vanishing ridge; the
        # machine is found from the masks, so the test holds whatever the
        # stream draws
        obj = Objective(synth_regression(50, 10, 1.0, seed=0), LossKind.SQUARE, lam=1e-300)
        failure = first_failure(obj, k=2, m=4, seed=0)
        assert failure is not None and failure[1] == "is not positive definite"
        code, out = run(tmp_path, "s.csv", *sweep_args(
            synth="50,10,1.0", k="2", m="2,4", trials="1", seed="0", **{"lambda": "1e-300"}))
        assert code == 2
        assert not out.exists()
        assert_one_line(capsys.readouterr().err, "numerical failure: local matrix of (seed, trial, "
                        f"machine) = (0, 0, {failure[0]}) is not positive definite")

    def test_overflowing_step_error_exits_2_without_csv(self, tmp_path):
        # the step errors scale linearly with the label noise, so each seed's
        # run at noise 1e300 gives the noise at which its largest error reads
        # 1.2e308, and the one at which its largest H-norm error reads 1.05
        # float max; the first may exit 0, the second on that norm, unless
        # the gradient, a label or a local step overflows before it
        def sweep(name, seed, noise):
            tmp = tmp_path / f"{seed}-{name}"
            tmp.mkdir()
            code, err = assert_exit_contract(tmp, [
                "newton-sweep", f"--synth=50,3,{noise!r}", "--k=2", "--m=2", "--trials=1",
                f"--seed={seed}"])
            out = tmp / "o.csv"
            errors = [[float(v) for v in line.split(",")[4:]]
                      for line in out.read_text().splitlines()[1:]] if code == 0 else []
            return code, err, out, errors

        fits = overflows = 0
        for seed in range(40):
            code, _, _, errors = sweep("plain", seed, 1e300)
            if code != 0:
                continue
            largest = max(max(pair) for pair in errors)
            largest_hnorm = max(hnorm for _, hnorm in errors)
            code, _, _, errors = sweep("fits", seed, 1e300 * (1.2e308 / largest))
            fits += code == 0 and max(max(pair) for pair in errors) > 1e308
            code, err, out, _ = sweep("overflows", seed,
                                      1e300 * (1.05 * (sys.float_info.max / largest_hnorm)))
            if err.startswith("numerical failure: the norm sqrt(v^T M v) is not finite"):
                assert code == 2
                assert not out.exists() and not out.with_suffix(".meta.json").exists()
                overflows += 1
        assert fits >= 1 and overflows >= 1, (fits, overflows)

    def test_step_errors_past_sqrt_float_max_read_finite(self, tmp_path):
        # labels near 1e300: squaring the step errors overflows, the errors do not
        code, out = run(tmp_path, "s.csv", *sweep_args(
            synth="50,3,1e300", k="2", m="2", trials="1", seed=None))
        assert code == 0
        errors = [float(v) for line in out.read_text().splitlines()[1:]
                  for v in line.split(",")[4:]]
        assert len(errors) == 4 and all(1e300 < e < math.inf for e in errors)
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert 1e298 < meta["step_norm_euclidean"] < meta["step_norm_hessian"] < math.inf

    def test_hessian_past_half_float_max_reads_finite(self, tmp_path):
        # the full-data Hessian is 1.1e154^2 = 1.21e308, in (float max / 2,
        # float max], which adding the Gram to its own transpose overflowed
        path = tmp_path / "big.txt"
        path.write_text("0 1:1.1e154\n1 1:1e-3\n")
        code, out = run(tmp_path, "s.csv", "newton-sweep", "--dataset", str(path), "--k", "2",
                        "--m", "1,2", "--trials", "1", "--lambda", "1")
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "scheme,m,k,trial,err_euclidean,err_hnorm" and len(rows) == 5
        errors = [float(v) for line in rows[1:] for v in line.split(",")[4:]]
        assert len(errors) == 8 and all(math.isfinite(e) for e in errors)


# a small run of each subcommand whose objects reference counting frees
# alone; newton-sweep is left out, because its sidecar's json.dump(indent=2)
# builds the standard library encoder's closures in a reference cycle
ACYCLIC_ARGV = [
    ["verify-identities", "--models", "3", "--max-n", "3", "--max-d", "2"],
    ["uq-sweep", "--synth", "40,2,1.0", "--k", "10", "--m", "2,4", "--trials", "2"],
    ["newton-converge", "--synth", "40,2,1.0", "--k", "10", "--m", "4", "--iters", "2"],
]


@pytest.mark.parametrize("argv", ACYCLIC_ARGV, ids=lambda argv: argv[0])
def test_a_call_leaves_no_cyclic_garbage(tmp_path, capsys, argv):
    # the parser is built once per process, so a warm call makes no cycle
    if argv[0] != "verify-identities":
        argv = [*argv, "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 0
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


class TestSeedResolution:
    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DETAVG_SEED", "11")
        _, env_out = run(tmp_path, "env.csv", *sweep_args(seed=None))
        monkeypatch.delenv("DETAVG_SEED")
        _, flag_out = run(tmp_path, "flag.csv", *sweep_args(seed="11"))
        assert env_out.read_bytes() == flag_out.read_bytes()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DETAVG_SEED", "99")
        _, out = run(tmp_path, "o.csv", *sweep_args(seed="11"))
        _, ref = run(tmp_path, "r.csv", *sweep_args(seed="11"))
        assert out.read_bytes() == ref.read_bytes()

    def test_bad_env_seed_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DETAVG_SEED", "not-a-number")
        code, _ = run(tmp_path, "o.csv", *sweep_args(seed=None))
        assert code == 1

    @pytest.mark.parametrize("command, flag, env, source, value", [
        pytest.param("newton-sweep", "-1", None, "--seed", -1, id="flag"),
        pytest.param("newton-sweep", None, "-3", "DETAVG_SEED", -3, id="env"),
        pytest.param("verify-identities", "-1", None, "--seed", -1, id="verify-identities"),
    ])
    def test_negative_seed_on_a_dataset_exits_1_at_once(self, tmp_path, capsys, monkeypatch,
                                                        command, flag, env, source, value):
        # with --dataset no data is synthesized, so nothing but the seed's
        # own check reads the seed before the fleet's stream keys would
        path = tmp_path / "data.txt"
        path.write_text("1 1:1 2:0.5\n0 1:-1 2:2\n1 1:0.3 2:-1\n0 1:2 2:1\n")
        monkeypatch.delenv("DETAVG_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("DETAVG_SEED", env)
        out = tmp_path / "o.csv"
        if command == "verify-identities":
            argv = [command, "--models", "2", "--seed", flag]
        else:
            argv = [*sweep_args(synth=None, dataset=str(path), k="2", seed=flag), "--out", str(out)]
        t0 = time.perf_counter()
        code = main(argv)
        assert code == 1 and time.perf_counter() - t0 < 0.5
        assert_one_line(capsys.readouterr().err,
                        f"error: {source} must be a non-negative integer, got {value}")
        assert not out.exists()


    def test_a_byte_that_is_not_utf8_exits_1_naming_its_line(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        lines = [f"{i % 2} 1:{i} 2:0.5".encode() for i in range(1, 601)]
        lines[499] += b" # \xff"
        path.write_bytes(b"\n".join(lines) + b"\n")
        code, out = run(tmp_path, "o.csv", *sweep_args(synth=None, dataset=str(path), k="2"))
        assert code == 1
        assert_one_line(capsys.readouterr().err, "error: line 500: byte 0xff is not UTF-8")
        assert not out.exists()

class TestUqSweep:
    def test_csv_header_and_rows(self, tmp_path):
        out = tmp_path / "uq.csv"
        code = main([
            "uq-sweep", "--synth", "200,4,0.5", "--k", "40", "--m", "4,16",
            "--trials", "3", "--eta", "2.0", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "statistic,m,k,eta,trial,estimate,exact,abs_err"
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert first[:5] == ["trace", "4", "40", "2.0", "0"]
        exact = {float(line.split(",")[6]) for line in lines[1:]}
        assert len(exact) == 1  # reference value is subsample independent

    def test_diagonal_statistic(self, tmp_path):
        out = tmp_path / "uq.csv"
        code = main([
            "uq-sweep", "--synth", "200,4,0.5", "--k", "40", "--m", "4",
            "--trials", "2", "--statistic", "diagonal", "--seed", "5",
            "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("diagonal,4,40,")

    def test_infinite_eta_exits_1(self, tmp_path):
        code = main([
            "uq-sweep", "--synth", "50,3,1.0", "--k", "10", "--m", "2,4", "--trials", "1",
            "--eta", "inf", "--out", str(tmp_path / "uq.csv"),
        ])
        assert code == 1

    def test_singular_covariance_exits_2(self, tmp_path):
        data = Dataset(X=np.arange(6.0).reshape(2, 3) + 1.0, y=np.zeros(2))
        path = tmp_path / "thin.txt"
        path.write_text(serialize_libsvm(data))
        code = main([
            "uq-sweep", "--dataset", str(path), "--k", "2", "--m", "2",
            "--trials", "1", "--out", str(tmp_path / "uq.csv"),
        ])
        assert code == 2


class TestNewtonConverge:
    def test_trajectory_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main([
            "newton-converge", "--synth", "150,3,0.5", "--k", "50", "--m", "8",
            "--iters", "4", "--scheme", "both", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,dist_to_opt,loss,scheme"
        assert len(lines) == 1 + 2 * 5  # iterate 0 through 4 for each scheme
        iters = [int(line.split(",")[0]) for line in lines[1:]]
        assert iters == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]
        dist = [float(line.split(",")[1]) for line in lines[1:6]]
        assert dist[-1] < dist[0]

    def test_logistic_loss_from_file(self, tmp_path):
        rng = np.random.default_rng(8)
        data = Dataset(
            X=rng.standard_normal((60, 2)),
            y=(rng.random(60) < 0.5).astype(float),
        )
        path = tmp_path / "clf.txt"
        path.write_text(serialize_libsvm(data))
        out = tmp_path / "traj.csv"
        code = main([
            "newton-converge", "--dataset", str(path), "--loss", "logistic",
            "--lambda", "auto", "--k", "20", "--m", "4", "--iters", "3",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_overflowing_loss_exits_2(self, tmp_path, capsys):
        # at label scale 1e200 exact Newton converges, but the squared labels
        # overflow the loss column
        out = tmp_path / "t.csv"
        code = main([
            "newton-converge", "--synth", "50,3,1e200", "--k", "5", "--m", "4",
            "--iters", "3", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()
        assert_one_line(capsys.readouterr().err,
                        "numerical failure: the full-data loss is not finite")

    def test_large_labels_meet_the_relative_exact_tolerance(self, tmp_path):
        # the gradient norm starts at 4.65e4 and stalls above 1e-12, but
        # reaches 1e-12 relative to that start after one step
        out = tmp_path / "t.csv"
        code = main([
            "newton-converge", "--synth", "50,3,1e5", "--k", "5", "--m", "4",
            "--iters", "3", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_multiple_m_rejected(self, tmp_path):
        code = main([
            "newton-converge", "--synth", "150,3,0.5", "--k", "50",
            "--m", "4,8", "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 1


class TestVerifyIdentities:
    def test_reports_identities_and_counterexample(self, capsys):
        code = main(["verify-identities", "--models", "5", "--seed", "3"])
        assert code == 0
        text = capsys.readouterr().out
        assert "E[det A] = det(E[A])" in text
        assert "expected-fail confirmed" in text
        assert "FAIL" not in text

    @pytest.mark.parametrize("flag, value", [
        pytest.param("--max-n", "25", id="max-n-over-enumeration-cap"),
        pytest.param("--max-n", "13", id="max-n-over-outcome-cap"),
        pytest.param("--max-n", "1", id="max-n-below-2"),
        pytest.param("--max-d", "0", id="max-d-below-1"),
        pytest.param("--max-d", "6", id="max-d-over-cofactor-cap"),
    ])
    def test_bad_model_bounds_exit_1(self, flag, value, capsys):
        assert main(["verify-identities", "--models", "2", flag, value]) == 1
        err = capsys.readouterr().err
        assert flag[2:].replace("-", "_") in err and value in err


class TestExitCodes:
    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "newton-sweep" in capsys.readouterr().out

    def test_unknown_flag_exits_1(self, tmp_path, capsys):
        assert main(sweep_args() + ["--bogus", "--out", str(tmp_path / "x.csv")]) == 1

    def test_missing_required_exits_1(self, capsys):
        assert main(["newton-sweep", "--synth", "100,3,0.5"]) == 1

    def test_no_data_source_exits_1(self, tmp_path):
        code = main([
            "newton-sweep", "--k", "10", "--m", "2", "--trials", "1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1

    def test_both_data_sources_exit_1(self, tmp_path):
        code, _ = run(tmp_path, "x.csv", *sweep_args(dataset="whatever.txt"))
        assert code == 1

    def test_missing_dataset_file_exits_1(self, tmp_path):
        code, _ = run(tmp_path, "x.csv", *sweep_args(synth=None, dataset=str(tmp_path / "no.txt")))
        assert code == 1

    @pytest.mark.parametrize("synth, message", [
        ("50,3,nan", "noise_sd must be finite and nonnegative, got nan"),
        ("50,3,inf", "noise_sd must be finite and nonnegative, got inf"),
        ("5,-20000,1.0", "need n >= 1 and d >= 1, got n=5, d=-20000"),
    ])
    def test_bad_synth_is_refused_by_name(self, tmp_path, capsys, synth, message):
        code, out = run(tmp_path, "x.csv", *sweep_args(synth=synth))
        assert code == 1
        assert_one_line(capsys.readouterr().err, f"error: {message}")
        assert not out.exists()

    def test_malformed_dataset_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 1:1\noops\n")
        code, _ = run(tmp_path, "x.csv", *sweep_args(synth=None, dataset=str(path)))
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, quantity", [
        (["newton-sweep", "--m", "2,4", "--trials", "1"], "gradient"),
        (["newton-converge", "--m", "2", "--loss", "square"], "gradient"),
        (["newton-converge", "--m", "2", "--loss", "logistic"], "Hessian"),
        (["uq-sweep", "--m", "2,4", "--trials", "1"], "covariance"),
    ], ids=["newton-sweep", "converge-square", "converge-logistic", "uq-sweep"])
    def test_overflowing_full_data_quantity_exits_2(self, tmp_path, capsys, argv, quantity):
        path = tmp_path / "extreme.txt"
        path.write_text("1 1:1e308 2:-1e308\n0 1:1e308 2:1e308\n1 2:1e-320\n")
        out = tmp_path / "o.csv"
        assert main([*argv, "--dataset", str(path), "--k", "1", "--out", str(out)]) == 2
        assert not out.exists()
        assert_one_line(capsys.readouterr().err,
                        f"numerical failure: the full-data {quantity} is not finite")

    def test_k_larger_than_n_exits_1(self, tmp_path):
        code, _ = run(tmp_path, "x.csv", *sweep_args(k="500"))
        assert code == 1


class TestFleetBoundary:
    @pytest.mark.parametrize("argv", NON_FINITE_STEP_ARGV, ids=lambda argv: argv[0])
    def test_non_finite_local_step_exits_2(self, tmp_path, capsys, argv):
        # the seed is the first whose first fleet, replayed machine by
        # machine, fails on a non-finite step (an empty mask's grad/lam) with
        # every matrix factored, so the test holds whatever the stream draws
        for seed in range(1000):
            obj = Objective(synth_regression(20, 2, 1.0, seed=seed), LossKind.SQUARE, lam=1e-320)
            failure = first_failure(obj, k=1, m=4, seed=seed)
            if failure is not None and failure[1] == "has a non-finite result":
                break
        else:
            pytest.fail("no seed below 1000 draws a fleet with a non-finite step")
        out = tmp_path / "o.csv"
        assert main([*argv, "--seed", str(seed), "--out", str(out)]) == 2
        assert not out.exists()
        assert_one_line(capsys.readouterr().err, "numerical failure: local matrix of (seed, trial, "
                        f"machine) = ({seed}, 0, {failure[0]}) has a non-finite result")

    @pytest.mark.parametrize("command, extra", [
        ("newton-sweep", ["--trials", "1"]),
        ("uq-sweep", ["--trials", "1"]),
        ("newton-converge", ["--iters", "1"]),
    ])
    def test_oversized_fleet_refused_before_allocating(self, tmp_path, capsys, command, extra):
        argv = [command, "--synth", "20,2,1.0", "--k", "1", "--m", "100000000000", *extra,
                "--out", str(tmp_path / "o.csv")]
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert_one_line(capsys.readouterr().err, "error: a fleet of m=100000000000 machines")
        assert elapsed < 0.5
        assert peak < 1 << 20

    @pytest.mark.parametrize("command, flag", [
        ("newton-sweep", "--trials"),
        ("uq-sweep", "--trials"),
        ("newton-converge", "--iters"),
    ])
    def test_oversized_table_refused_before_the_first_trial(self, tmp_path, capsys, command,
                                                             flag):
        out = tmp_path / "o.csv"
        argv = [command, "--synth", "20,2,1.0", "--k", "1", "--m", "2", flag, str(HUGE_COUNT),
                "--out", str(out)]
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
        assert code == 1
        assert_one_line(capsys.readouterr().err,
                        f"error: the table of {flag} {HUGE_COUNT} would hold")
        assert elapsed < 0.5
        assert not out.exists()


# a two-line file whose parsed matrix, 2 x 100,000 entries, passes the parse
# cap, while each of its (d, d) matrices would be 10^10 entries, 74.5 GiB
WIDE_FILE = "0 100000:1\n1 3:2\n"
DATA_COMMANDS = [["newton-sweep", "--trials", "1"], ["uq-sweep", "--trials", "1"],
                 ["newton-converge", "--iters", "1"]]


def run_capped(cwd, argv):
    """``python -m detavg.cli argv`` in a child process with 4 GiB of address
    space and one BLAS thread, so that an allocation past the caps fails at
    once instead of filling memory."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    src = str(Path(detavg.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "detavg.cli", *argv], cwd=cwd, env=env,
                          preexec_fn=cap_address_space, capture_output=True, text=True,
                          timeout=120)


class TestWideData:
    @pytest.mark.parametrize("data", [
        ["--dataset", "wide.svm"],
        ["--synth", "1000000000,1000,1.0"],  # a 7.28 TiB design
        ["--synth", "100,30000,1.0"],  # a 24 MB design, 6.7 GiB (d, d) matrices
    ], ids=["wide-file", "long-synth", "wide-synth"])
    @pytest.mark.parametrize("command", DATA_COMMANDS, ids=lambda argv: argv[0])
    def test_refused_in_one_line_before_allocating(self, tmp_path, command, data):
        (tmp_path / "wide.svm").write_text(WIDE_FILE)
        proc = run_capped(tmp_path, [*command, *data, "--k", "1", "--m", "2", "--out", "o.csv"])
        assert proc.returncode == 1
        assert_one_line(proc.stderr, "error: ")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["wide.svm"]

    @pytest.mark.parametrize("d, accepted", [(11585, True), (11586, False)])
    def test_widest_accepted_file_has_11585_features(self, tmp_path, d, accepted):
        # 11,585^2 = 134,212,225 <= 2^27 < 11,586^2
        path = tmp_path / "one.svm"
        path.write_text(f"1 {d}:1\n")
        args = Namespace(dataset=str(path), synth=None)
        if accepted:
            assert cli.load_data(args, 0)[0].d == d
        else:
            with pytest.raises(ValueError, match=f"d={d} features"):
                cli.load_data(args, 0)


SCALARS = ["0", "1", "-1", "inf", "-inf", "nan", "1e300", "-1e300", "1e-300", "1e-320"]
# --lambda and --eta: ridges too small to lift a rank-deficient machine's
# rounding-negative eigenvalue, so that fleets name failing machines
RIDGES = [*SCALARS, "1e-30", "1e-100"]
SCHEMES = ["uniform", "determinantal", "both"]


def flag_int(lo, hi, huge=()):
    """An integer flag value in lo..hi, or about one time in ten the edge
    value 0 or -1, or about one time in twenty a value of ``huge``."""
    values = list(range(lo, hi + 1))
    return st.sampled_from([0, -1, *huge] + values * (1 + 18 // len(values)))


def flag_k(n):
    """A --k value for n rows, half the time 1 or 2 (or an edge value), so
    that machines often keep fewer rows than the data has columns."""
    return st.one_of(flag_int(1, 2), flag_int(1, max(n, 1)))


# sorted distinct machine counts; the sweeps' own tests cover an unsorted list
M_LISTS = st.lists(flag_int(1, 8), min_size=1, max_size=3).map(
    lambda ms: ",".join(map(str, sorted(set(ms)))))


# dataset entries: extreme magnitudes, a subnormal, and plain values
ENTRIES = [0.0, 1.0, -1.0, 2.5, 1e308, -1e308, 1.7e308, 1e-320]


@st.composite
def extreme_datasets(draw):
    """A small dataset with extreme and subnormal entries, possibly one row,
    a constant column, or duplicate rows."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    rows = [[draw(st.sampled_from(ENTRIES)) for _ in range(d)] for _ in range(n)]
    if draw(st.booleans()):
        j, value = draw(st.integers(0, d - 1)), draw(st.sampled_from(ENTRIES))
        for row in rows:
            row[j] = value
    rows += [rows[0]] * draw(st.integers(0, 3))
    labels = [draw(st.sampled_from([0.0, 1.0, -1.0, 1e308])) for _ in rows]
    return Dataset(X=np.array(rows), y=np.array(labels))


@st.composite
def cli_argv(draw, dataset=False):
    """A well-typed argv of tiny size with extreme scalars.

    Values are attached as ``--flag=value`` so that argparse reads ``-inf``
    and ``-1e300`` as values, not as flags.  With ``dataset``, a data
    subcommand whose ``--dataset`` file holds ``data``: returns
    ``(data, argv)`` without that flag.
    """
    commands = ["newton-sweep", "uq-sweep", "newton-converge"]
    command = draw(st.sampled_from(commands if dataset else [*commands, "verify-identities"]))
    flags = {"seed": draw(flag_int(0, 3))}
    if dataset:
        data = draw(extreme_datasets())
        flags.update(k=draw(flag_k(data.n)))
    elif command != "verify-identities":
        n, d, noise = draw(flag_int(1, 30)), draw(flag_int(1, 3)), draw(st.sampled_from(SCALARS))
        flags.update(synth=f"{n},{d},{noise}", k=draw(flag_k(n)))
    if command in ("newton-sweep", "newton-converge"):
        flags.update(loss=draw(st.sampled_from(["square", "logistic"])),
                     scheme=draw(st.sampled_from(SCHEMES)),
                     **{"lambda": draw(st.sampled_from(["auto", *RIDGES]))})
    if command == "newton-sweep":
        flags.update(m=draw(M_LISTS), trials=draw(flag_int(1, 2, [HUGE_COUNT])))
    elif command == "uq-sweep":
        flags.update(m=draw(M_LISTS), trials=draw(flag_int(1, 2, [HUGE_COUNT])),
                     eta=draw(st.sampled_from(RIDGES)),
                     statistic=draw(st.sampled_from(["trace", "diagonal"])))
    elif command == "newton-converge":
        flags.update(m=draw(flag_int(1, 8)), iters=draw(flag_int(1, 2, [HUGE_COUNT])))
    else:
        flags.update(models=draw(flag_int(1, 3)), **{"max-n": draw(flag_int(2, 4)),
                                                    "max-d": draw(flag_int(1, 3))})
    argv = [command, *(f"--{key}={value}" for key, value in flags.items())]
    return (data, argv) if dataset else argv


# a fleet's failure: the (seed, trial, machine) triple and how it failed
NAMED_MACHINE = re.compile(r"\(seed, trial, machine\) = \((\d+), (\d+), (\d+)\) "
                           r"(is not positive definite|has a non-finite result)")
FAILURE_CLASS = {"is not positive definite": NotPositiveDefinite,
                 "has a non-finite result": NonFiniteResult}


def replay(argv, seed, trial, machine):
    """Run one machine of the run ``argv`` through draw_mask and its public
    single-machine route, on the data and objective the run built: at w = 0
    for the Newton commands, at the sweep's largest m for uq-sweep."""
    args = cli.build_parser().parse_args(argv)
    data, _ = cli.load_data(args, seed)
    mask = draw_mask(data.n, args.k, SeedSpec(seed, trial, machine))
    if args.command == "uq-sweep":
        local_uq_estimate(data, mask, args.eta, max(cli.parse_m_list(args.m)),
                          Statistic(args.statistic))
    else:
        obj, _ = cli.make_objective(args, data)
        local_newton_estimate(obj, np.zeros(obj.d), mask)


def assert_exit_contract(tmp, argv):
    """Exit 0, 1 or 2; no exception escapes; a failure is one stderr line;
    a written table holds only finite numbers; a machine that a failure
    names fails the same way when replayed on its own (a newton-converge
    machine only at trial 0, whose iterate is w = 0).  Returns the exit code
    and the standard error."""
    out = tmp / "o.csv"
    if argv[0] != "verify-identities":
        argv = [*argv, f"--out={out}"]
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    if code != 0:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(("error:", "numerical failure:")), lines
        named = NAMED_MACHINE.search(lines[0])
        if code == 2 and named and (argv[0] != "newton-converge" or named[2] == "0"):
            with pytest.raises(FAILURE_CLASS[named[4]]):
                replay(argv, *map(int, named.groups()[:3]))
    elif out.exists():
        with open(out, newline="") as f:
            for row in list(csv.reader(f))[1:]:
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # scheme or statistic name
                    assert math.isfinite(value), (row, argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argv=cli_argv())
@example(argv=NON_FINITE_STEP_ARGV[0])
@example(argv=NON_FINITE_STEP_ARGV[1])
@example(argv=UQ_NOT_POSITIVE_DEFINITE_ARGV)
def test_exit_contract(tmp_path_factory, argv):
    assert_exit_contract(tmp_path_factory.mktemp("argv"), argv)


@settings(max_examples=200, deadline=None)
@given(data_argv=cli_argv(dataset=True))
def test_exit_contract_on_dataset_files(tmp_path_factory, data_argv):
    # the same contract on small --dataset files with extreme entries, one
    # row, a constant column or duplicate rows
    data, argv = data_argv
    path = tmp_path_factory.mktemp("data") / "data.txt"
    path.write_text(serialize_libsvm(data))
    assert_exit_contract(path.parent, [*argv, f"--dataset={path}"])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_write_csv_refuses_non_finite_cells(tmp_path, bad):
    out = tmp_path / "t.csv"
    with pytest.raises(NonFiniteResult, match="row 2 .*: err is"):
        write_csv(out, ("m", "err"), iter([(1, 0.5), (2, bad)]))
    assert not out.exists()
    write_csv(out, ("m", "err"), iter([(1, 0.5), (2, 0.25)]))
    assert out.read_text() == "m,err\n1,0.5\n2,0.25\n"


# every subcommand once, at tiny sizes, in a fresh interpreter
NUMPY_ONLY_SCRIPT = """
import sys
from detavg.cli import main

data, out = sys.argv[1], sys.argv[2]
runs = [
    ["newton-sweep", "--synth", "40,3,0.5", "--k", "10", "--m", "2,4", "--trials", "2"],
    ["uq-sweep", "--synth", "40,3,0.5", "--k", "10", "--m", "2,4", "--trials", "2",
     "--statistic", "diagonal"],
    ["newton-converge", "--dataset", data, "--loss", "logistic", "--k", "10", "--m", "4",
     "--iters", "2"],
    ["verify-identities", "--models", "2", "--max-n", "3", "--max-d", "2"],
]
for argv in runs:
    if argv[0] != "verify-identities":
        argv += ["--out", out]
    assert main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_every_subcommand_runs_on_numpy_alone(tmp_path):
    rng = np.random.default_rng(3)
    data = Dataset(X=rng.standard_normal((40, 3)), y=(rng.random(40) < 0.5).astype(float))
    path = tmp_path / "clf.txt"
    path.write_text(serialize_libsvm(data))
    src = str(Path(detavg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", NUMPY_ONLY_SCRIPT, str(path),
         str(tmp_path / "o.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout  # no scipy module imported
