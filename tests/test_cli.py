"""Command-line interface: output contracts, determinism, exit codes."""

import json

import numpy as np
import pytest

from detavg.cli import main
from detavg.dataio import serialize_libsvm, synth_regression
from detavg.objective import Dataset


def run(tmp_path, name, *argv):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out


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
        # about two rows per machine in d=10 with a vanishing ridge
        code, _ = run(tmp_path, "s.csv", *sweep_args(
            synth="50,10,1.0", k="2", m="2,4", trials="1", seed="0", **{"lambda": "1e-300"}))
        assert code == 2
        assert "(seed, trial, machine) = (0, 0, 0)" in capsys.readouterr().err


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

    def test_malformed_dataset_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 1:1\noops\n")
        code, _ = run(tmp_path, "x.csv", *sweep_args(synth=None, dataset=str(path)))
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_k_larger_than_n_exits_1(self, tmp_path):
        code, _ = run(tmp_path, "x.csv", *sweep_args(k="500"))
        assert code == 1
