import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import vacantlab
from conftest import cli_env

CLI = [sys.executable, "-m", "vacantlab.cli"]
ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def run_cli(args, cwd, env_extra=None):
    env = cli_env()
    env.setdefault("VACANTLAB_THREADS", "1")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + args, capture_output=True, text=True, cwd=cwd, env=env)


class TestSolve:
    def test_solve_reports_all_fields(self, tmp_path):
        res = run_cli(["solve", "--rho", "2", "--u", "0.3", "--tol", "1e-10",
                       "--trees", "20000", "--depth", "50", "--radius", "40",
                       "--seed", "1"], tmp_path)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert abs(out["xi"] - 0.7968121300) < 1e-8
        assert out["u_star"]["ci95_low"] <= out["u_star"]["value"] <= out["u_star"]["ci95_high"]
        assert 0 < out["zeta"] < 1
        assert 0 < out["functional"]["mean"] < 1
        # the output's key order is part of its bytes
        assert list(out) == ["rho", "xi", "u_star", "zeta", "functional", "tol", "trees", "radius"]
        assert list(out["u_star"]) == ["value", "ci95_low", "ci95_high"]
        assert list(out["functional"]) == ["mean", "std_error", "n_samples", "ci95_low", "ci95_high"]

    def test_subcritical_exits_one(self, tmp_path):
        res = run_cli(["solve", "--rho", "0.5", "--seed", "1"], tmp_path)
        assert res.returncode == 1, res.stderr
        assert "subcritical" in res.stderr

    def test_zeta_at_u_zero_equals_xi(self, tmp_path):
        res = run_cli(["solve", "--rho", "2", "--u", "0", "--trees", "2000",
                       "--seed", "1"], tmp_path)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert abs(out["zeta"] - out["xi"]) <= 2e-10
        assert out["functional"]["mean"] == 1.0

    def test_unreachable_tol_exits_one(self, tmp_path):
        res = run_cli(["solve", "--rho", "2", "--tol", "1e-20", "--trees", "2000",
                       "--seed", "1"], tmp_path)
        assert res.returncode == 1, res.stderr
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
        assert "tol=1e-20" in lines[0]

    def test_negative_u_exits_one(self, tmp_path):
        # the functional E[exp(-u * cap)] is defined here for u >= 0 only
        res = run_cli(["solve", "--rho", "2", "--u", "-0.5", "--trees", "1000",
                       "--seed", "1"], tmp_path)
        assert res.returncode == 1, res.stderr
        assert res.stdout == ""
        assert res.stderr.splitlines() == ["error: u must be nonnegative"]

    def test_negative_u_rejected_before_sampling(self, tmp_path, monkeypatch, capsys):
        from vacantlab import cli, gw

        def no_sampling(*args, **kwargs):
            raise AssertionError("capacity samples drawn for a rejected u")

        monkeypatch.setattr(gw, "capacity_samples", no_sampling)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["solve", "--rho", "2", "--u", "-0.5", "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: u must be nonnegative"]

    def test_flag_error_exits_two(self, tmp_path):
        res = run_cli(["solve", "--rho"], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "usage: vacantlab solve" in res.stderr


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--n", "400", "--rho", "2", "--u", "0.4",
                "--trials", "3", "--seed", "5", "--trees", "4000",
                "--format", "csv"]
        a = run_cli(args + ["--out", "a.csv"], tmp_path)
        b = run_cli(args + ["--out", "b.csv"], tmp_path)
        assert a.returncode == b.returncode == 0, a.stderr + b.stderr
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        args = ["simulate", "--n", "400", "--rho", "2", "--u-min", "0",
                "--u-max", "0.8", "--u-steps", "3", "--trials", "4",
                "--seed", "9", "--trees", "4000"]
        a = run_cli(args + ["--out", "t1.csv"], tmp_path, env_extra={"VACANTLAB_THREADS": "1"})
        b = run_cli(args + ["--out", "t4.csv"], tmp_path, env_extra={"VACANTLAB_THREADS": "4"})
        assert a.returncode == b.returncode == 0, a.stderr + b.stderr
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t4.csv").read_bytes()

    def test_golden_header(self, tmp_path):
        res = run_cli(["simulate", "--n", "200", "--rho", "2", "--u", "0",
                       "--trials", "1", "--seed", "1", "--trees", "2000"], tmp_path)
        assert res.returncode == 0, res.stderr
        header = res.stdout.splitlines()[0]
        assert header == ("n,rho,u,trial,seed,t_steps,giant_size,vacant_size,"
                          "c1_vacant,c2_vacant,zeta_predicted,vacant_fraction_predicted")

    def test_u_zero_rows(self, tmp_path):
        res = run_cli(["simulate", "--n", "300", "--rho", "2", "--u", "0",
                       "--trials", "3", "--seed", "3", "--trees", "2000",
                       "--format", "json"], tmp_path)
        assert res.returncode == 0, res.stderr
        rows = json.loads(res.stdout)
        for row in rows:
            assert row["vacant_size"] == row["giant_size"] - 1
            assert row["c1_vacant"] <= row["giant_size"] - 1
            assert row["giant_size"] - 1 - row["c1_vacant"] <= 25

    def test_n_floor_is_usage_error(self, tmp_path):
        res = run_cli(["simulate", "--n", "50", "--rho", "2", "--u", "0",
                       "--trials", "1", "--seed", "1"], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "usage: vacantlab" in res.stderr
        assert "--n must be at least 100" in res.stderr

    @pytest.mark.parametrize("flags, message", [
        (["--rho", "0.5"], "supercritical rho required"),
        (["--rho", "2", "--radius", "-1"], "radius must be nonnegative"),
    ], ids=["rho-subcritical", "radius-negative"])
    def test_tree_checks_precede_trials(self, tmp_path, monkeypatch, capsys, flags, message):
        # the tree samples are drawn while the trials run, so what
        # capacity_samples rejects must stop the command before either starts
        from vacantlab import cli, experiments, gw

        def no_work(*args, **kwargs):
            raise AssertionError("work started for a rejected request")

        monkeypatch.setattr(gw, "capacity_samples", no_work)
        monkeypatch.setattr(experiments, "run_trials", no_work)
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--n", "200", "--u", "0.3", "--trials", "2", "--trees", "100",
                *flags, "--seed", "1"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_manifest_replay_reproduces_bytes(self, tmp_path):
        args = ["simulate", "--n", "300", "--rho", "2", "--u", "0.3",
                "--trials", "2", "--seed", "11", "--trees", "3000",
                "--out", "first.csv"]
        first = run_cli(args, tmp_path)
        assert first.returncode == 0, first.stderr
        manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
        replay_args = list(manifest["argv"])
        replay_args[replay_args.index("first.csv")] = "second.csv"
        replay = run_cli(replay_args, tmp_path)
        assert replay.returncode == 0, replay.stderr
        assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()


class TestErCheck:
    def test_rho_zero_notes_skip(self, tmp_path):
        res = run_cli(["er-check", "--n", "100", "--rho", "0", "--u", "0",
                       "--trials", "50", "--seed", "1"], tmp_path)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert out["ks_pvalue_edges"] is None
        assert "p=0" in out["note"]

    def test_deterministic_rerun(self, tmp_path):
        args = ["er-check", "--n", "300", "--rho", "2", "--u", "0.3",
                "--trials", "60", "--seed", "7"]
        a = run_cli(args, tmp_path)
        b = run_cli(args, tmp_path)
        assert a.returncode == 0, a.stderr
        assert b.returncode == 0, b.stderr
        assert json.loads(a.stdout)
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("rho, u, message", [
        ("0.8", "5", "u must be 0 when rho <= 1 (no giant component to scale the walk time)"),
        ("0.8", "-1", "u must be nonnegative"),
        ("2", "-1", "u must be nonnegative"),
    ], ids=["subcritical-positive-u", "subcritical-negative-u", "negative-u"])
    def test_unusable_u_exits_one(self, tmp_path, rho, u, message):
        # below rho = 1 there is no giant to scale the walk time by, so only u = 0 has a meaning
        res = run_cli(["er-check", "--n", "200", "--rho", rho, "--u", u, "--trials", "50",
                       "--seed", "1"], tmp_path)
        assert res.returncode == 1, res.stderr
        assert res.stdout == ""
        assert res.stderr.splitlines() == [f"error: {message}"]

    def test_trial_floor_usage_error(self, tmp_path):
        res = run_cli(["er-check", "--n", "300", "--rho", "2", "--u", "0.3",
                       "--trials", "10", "--seed", "7"], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "usage: vacantlab" in res.stderr
        assert "--trials must be at least 50" in res.stderr


class TestCapacity:
    def test_u_zero_exact(self, tmp_path):
        res = run_cli(["capacity", "--rho", "2", "--u", "0", "--trees", "500",
                       "--seed", "2"], tmp_path)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert out["estimate"] == 1.0
        assert out["ci"] == [1.0, 1.0]
        assert "n_aborted_trees" not in out

    def test_radius_truncation_error(self, tmp_path):
        res = run_cli(["capacity", "--rho", "2", "--u", "0.3", "--trees", "100",
                       "--radius", "50", "--depth", "40", "--seed", "2"], tmp_path)
        assert res.returncode == 1, res.stderr
        assert "radius exceeds truncation" in res.stderr

    def test_truncation_diagnostic_present(self, tmp_path):
        res = run_cli(["capacity", "--rho", "2", "--u", "0.3", "--trees", "20000",
                       "--seed", "4"], tmp_path)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        width = out["ci"][1] - out["ci"][0]
        assert abs(out["estimate"] - out["estimate_at_radius_minus_5"]) <= 2 * width

    def test_no_truncation_diagnostic_at_radius_five(self, tmp_path):
        # radius - 5 is no capacity radius, so the diagnostic field is null
        res = run_cli(["capacity", "--rho", "2", "--u", "0.3", "--trees", "500",
                       "--radius", "5", "--seed", "1"], tmp_path)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert '"estimate_at_radius_minus_5": null' in res.stdout
        assert 0 < out["estimate"] < 1 and out["radius"] == 5

    def test_memory_error_exits_one(self, tmp_path, monkeypatch, capsys):
        # an allocation that fails ends in one error line, not a traceback;
        # the real request (7 TiB at 10**12 trees) is never attempted here
        from vacantlab import cli, gw

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(gw, "capacity_samples", no_memory)
        monkeypatch.chdir(tmp_path)
        argv = ["capacity", "--rho", "2", "--u", "0.3", "--trees", "1000000000000", "--seed", "1"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: Unable to allocate 7.28 TiB for an array"]
        assert list(tmp_path.iterdir()) == []


class TestOtherCommands:
    def test_size_check_runs(self, tmp_path):
        res = run_cli(["size-check", "--n", "2000", "--rho", "2", "--u", "0.3",
                       "--trials", "2", "--seed", "3"], tmp_path)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert out["mean_vbar"] > out["mean_v"]
        assert list(out) == ["mean_vbar", "mean_v", "gap", "predicted_gap", "n", "rho", "u",
                             "n_trials"]

    def test_hitting_runs(self, tmp_path):
        res = run_cli(["hitting", "--n", "2000", "--rho", "2", "--u", "0.3",
                       "--vertices", "2", "--walks", "200", "--seed", "3"], tmp_path)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert len(out["rows"]) == 2
        assert list(out) == ["n", "rho", "u", "t_steps", "radius", "mean_abs_error", "rows"]
        assert list(out["rows"][0]) == ["vertex", "degree", "pi_x", "p_escape",
                                        "empirical_vacancy", "predicted_vacancy", "abs_error",
                                        "tail_ks_distance", "censored_fraction"]

    def test_hitting_rejects_radius_before_the_ensemble(self, tmp_path, monkeypatch, capsys):
        from vacantlab import cli, walk

        def no_ensemble(*args, **kwargs):
            raise AssertionError("hitting ensemble run for a rejected radius")

        monkeypatch.setattr(walk, "estimate_hitting_tails", no_ensemble)
        monkeypatch.chdir(tmp_path)
        argv = ["hitting", "--n", "2000", "--rho", "2", "--u", "0.3", "--vertices", "2",
                "--walks", "100", "--radius", "0", "--seed", "1"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: r must be at least 1"]

    def test_manifest_written_for_stdout_commands(self, tmp_path):
        res = run_cli(["capacity", "--rho", "2", "--u", "0", "--trees", "100",
                       "--seed", "2"], tmp_path)
        assert res.returncode == 0, res.stderr
        manifest = json.loads((tmp_path / "vacantlab-capacity-manifest.json").read_text())
        assert manifest["command"] == "capacity"
        assert manifest["root_seed"] == 2
        assert manifest["version"]

    @pytest.mark.parametrize("args, threads, cap, loads_scipy", [
        (["simulate", "--n", "200", "--rho", "2", "--u", "0.3", "--trials", "2", "--trees", "100"],
         "2", 2, False),
        (["capacity", "--rho", "2", "--u", "0.3", "--trees", "100"], "abc", None, False),
        (["er-check", "--n", "200", "--rho", "2", "--u", "0.3", "--trials", "50"], "1", 1, True),
    ], ids=["simulate-two-workers", "capacity-invalid-cap", "er-check-scipy"])
    def test_manifest_environment(self, tmp_path, args, threads, cap, loads_scipy):
        # what a replay depends on and what the run cost, beside the output;
        # an invalid worker cap stops only the commands that run trials, and
        # scipy's version is recorded only by er-check, the one command whose
        # output depends on it
        import platform

        import numpy as np
        import scipy

        res = run_cli(args + ["--seed", "2", "--out", "out"], tmp_path,
                      env_extra={"VACANTLAB_THREADS": threads})
        assert res.returncode == 0, res.stderr
        env = json.loads((tmp_path / "out.manifest.json").read_text())["environment"]
        assert list(env) == ["python", "numpy", "scipy", "worker_cap", "peak_rss_mb",
                             "workers_peak_rss_mb"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["scipy"] == (scipy.__version__ if loads_scipy else None)
        assert env["worker_cap"] == cap
        assert isinstance(env["peak_rss_mb"], float) and env["peak_rss_mb"] > 0
        assert isinstance(env["workers_peak_rss_mb"], float)
        # RUSAGE_CHILDREN counts reaped workers only; capacity starts none
        assert env["workers_peak_rss_mb"] > 0 if cap == 2 else env["workers_peak_rss_mb"] >= 0

    def test_manifest_path_override(self, tmp_path):
        res = run_cli(["capacity", "--rho", "2", "--u", "0", "--trees", "100",
                       "--seed", "2", "--manifest", "custom.json"], tmp_path)
        assert res.returncode == 0, res.stderr
        manifest = json.loads((tmp_path / "custom.json").read_text())
        assert manifest["command"] == "capacity"

    def test_trial_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        # a trial that raises stops the command with one line naming the trial
        from vacantlab import cli, experiments

        def failing_trial(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(experiments, "_size_trial", failing_trial)
        monkeypatch.setenv("VACANTLAB_THREADS", "1")
        monkeypatch.chdir(tmp_path)
        argv = ["size-check", "--n", "200", "--rho", "2", "--u", "0.3", "--trials", "2",
                "--seed", "1"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: trial 0 failed: RuntimeError('injected')"]

    @pytest.mark.parametrize("args, message", [
        (["size-check", "--n", "2000", "--rho", "2", "--u", "0.3", "--trials", "0"],
         "n_trials must be positive"),
        (["simulate", "--n", "200", "--rho", "2", "--u", "0.3", "--trials", "0"],
         "n_trials must be positive"),
        (["simulate", "--n", "200", "--rho", "2", "--u", "0.3", "--trials", "1", "--trees", "0"],
         "n_trees must be positive"),
        (["hitting", "--n", "2000", "--rho", "2", "--u", "0.3", "--vertices", "0"],
         "n_vertices_probed must be positive"),
        (["hitting", "--n", "2000", "--rho", "2", "--u", "0.3", "--vertices", "-1"],
         "n_vertices_probed must be positive"),
        (["solve", "--rho", "2", "--trees", "0"], "n_trees must be positive"),
        (["capacity", "--rho", "2", "--u", "0.3", "--trees", "0"], "n_trees must be positive"),
        (["er-check", "--n", "0", "--rho", "2", "--u", "0", "--trials", "50"], "n must be at least 1"),
        (["er-check", "--n", "3", "--rho", "5", "--u", "0", "--trials", "50"],
         "edge probability exceeds 1"),
        (["er-check", "--n", "100", "--rho", "-1", "--u", "0", "--trials", "50"],
         "rho must be nonnegative"),
        (["size-check", "--n", "0", "--rho", "2", "--u", "0.3", "--trials", "2"],
         "n must be at least 1"),
        (["size-check", "--n", "1", "--rho", "2", "--u", "0.3", "--trials", "2"],
         "edge probability exceeds 1"),
        (["size-check", "--n", "10", "--rho", "20", "--u", "0.3", "--trials", "2"],
         "edge probability exceeds 1"),
        (["size-check", "--n", "2000", "--rho", "-1", "--u", "0.3", "--trials", "2"],
         "rho must be nonnegative"),
        (["solve", "--rho", "40", "--trees", "100"],
         "rho=40 is too large: xi = 1 - exp(-rho*xi) is within float resolution of 1"),
    ], ids=["size-check-trials-0", "simulate-trials-0", "simulate-trees-0", "hitting-vertices-0",
            "hitting-vertices-negative", "solve-trees-0", "capacity-trees-0", "er-check-n-0",
            "er-check-rho-above-n", "er-check-rho-negative", "size-check-n-0",
            "size-check-rho-above-n", "size-check-rho-20-n-10", "size-check-rho-negative",
            "solve-rho-40"])
    def test_empty_request_exits_one(self, tmp_path, args, message):
        # a request for no trials or no probed vertices has no result to
        # report, and at rho = 40 xi is not distinguishable from 1
        res = run_cli(args + ["--seed", "1"], tmp_path)
        assert res.returncode == 1, res.stderr
        assert res.stderr.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("args", [
        ["solve", "--rho", "2", "--u", "nan", "--trees", "100"],
        ["solve", "--rho", "nan", "--trees", "100"],
        ["capacity", "--rho", "2", "--u", "nan", "--trees", "100"],
        ["size-check", "--n", "2000", "--rho", "2", "--u", "inf", "--trials", "1"],
        ["hitting", "--n", "2000", "--rho", "2", "--u", "inf", "--vertices", "1"],
        ["er-check", "--n", "200", "--rho", "2", "--u", "nan", "--trials", "50"],
        ["simulate", "--n", "200", "--rho", "2", "--u-min", "0", "--u-max", "inf",
         "--u-steps", "2", "--trials", "1"],
    ], ids=["solve-u-nan", "solve-rho-nan", "capacity-u-nan", "size-check-u-inf",
            "hitting-u-inf", "er-check-u-nan", "simulate-u-max-inf"])
    def test_non_finite_number_is_usage_error(self, tmp_path, args):
        res = run_cli(args + ["--seed", "1"], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "usage: vacantlab" in res.stderr
        assert "not a finite number" in res.stderr

    @pytest.mark.parametrize("args", [
        ["size-check", "--n", "2000", "--rho", "2", "--u", "1e308", "--trials", "1"],
        ["hitting", "--n", "2000", "--rho", "2", "--u", "1e308", "--vertices", "1"],
    ], ids=["size-check", "hitting"])
    def test_huge_u_exits_one(self, tmp_path, args):
        # a finite u whose walk time does not fit 64 bits is a runtime error, not a traceback
        res = run_cli(args + ["--seed", "1"], tmp_path)
        assert res.returncode == 1, res.stderr
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: walk time"), res.stderr

    @pytest.mark.parametrize("grid", [
        [],
        ["--u-min", "0", "--u-steps", "3"],
        ["--u-max", "1", "--u-steps", "3"],
        ["--u-min", "0", "--u-max", "1"],
        ["--u", "0.3", "--u-min", "0", "--u-max", "1", "--u-steps", "5"],
        ["--u", "0.3", "--u-steps", "5"],
    ], ids=["none", "no-u-max", "no-u-min", "no-u-steps", "u-and-grid", "u-and-u-steps"])
    def test_incomplete_u_grid_is_usage_error(self, tmp_path, grid):
        res = run_cli(["simulate", "--n", "200", "--rho", "2", "--trials", "1", *grid,
                       "--seed", "1"], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "usage: vacantlab" in res.stderr
        assert "need --u or all of --u-min/--u-max/--u-steps" in res.stderr

    def test_rho_above_n_names_edge_probability(self, tmp_path):
        res = run_cli(["simulate", "--n", "200", "--rho", "1e9", "--u", "0.3", "--trials", "1",
                       "--seed", "1"], tmp_path)
        assert res.returncode == 1, res.stderr
        assert res.stderr.splitlines() == ["error: edge probability exceeds 1"]

    def test_unknown_command_exits_two(self, tmp_path):
        res = run_cli(["frobnicate"], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "usage: vacantlab" in res.stderr
        assert "invalid choice: 'frobnicate'" in res.stderr


class TestVersion:
    def test_pyproject_states_the_package_version(self):
        # manifests record vacantlab.__version__; the built distribution
        # takes pyproject's, and the two must not drift apart
        lines = (ROOT / "pyproject.toml").read_text().splitlines()
        assert [line for line in lines if line.startswith("version =")] == [
            f'version = "{vacantlab.__version__}"']


class TestImportPath:
    def test_cli_import_loads_no_heavy_scipy(self, tmp_path):
        # scipy submodules load only inside the functions that call them
        heavy = ["scipy.stats", "scipy.special", "scipy.linalg", "scipy.sparse"]
        code = ("import sys, vacantlab.cli; "
                f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             cwd=tmp_path, env=cli_env())
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == []

    def test_cli_import_loads_no_process_pool(self, tmp_path):
        # engine imports the process pool only when run_trials makes one
        pool_modules = ["multiprocessing", "concurrent.futures.process"]
        code = ("import sys, vacantlab.cli; "
                f"print(' '.join(m for m in {pool_modules!r} if m in sys.modules))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             cwd=tmp_path, env=cli_env())
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == []

    def test_commands_other_than_er_check_load_no_scipy(self, tmp_path):
        # scipy serves only er-check's p-values and the spectral-gap oracle;
        # the trials run in this interpreter, so no worker can hide an import
        runs = [
            ["solve", "--rho", "2", "--u", "0.3", "--trees", "2000", "--out", "solve.json"],
            ["capacity", "--rho", "2", "--u", "0.3", "--trees", "2000", "--out", "cap.json"],
            ["simulate", "--n", "2000", "--rho", "2", "--u-min", "0", "--u-max", "1",
             "--u-steps", "3", "--trials", "2", "--trees", "2000", "--out", "sim.csv"],
            ["size-check", "--n", "2000", "--rho", "2", "--u", "0.3", "--trials", "2",
             "--out", "size.json"],
            ["hitting", "--n", "2000", "--rho", "2", "--u", "0.3", "--vertices", "2",
             "--walks", "100", "--out", "hit.json"],
        ]
        code = ("import sys, vacantlab.cli\n"
                f"for argv in {runs!r}:\n"
                "    assert vacantlab.cli.main(argv + ['--seed', '1']) == 0, argv\n"
                "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = cli_env()
        env["VACANTLAB_THREADS"] = "1"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             cwd=tmp_path, env=env)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == []
        assert all((tmp_path / argv[-1]).exists() for argv in runs)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkTrace:
    """The benchmark's tracer wraps library functions by name and its run
    fails when one of them is gone; each benchmark command must still run
    traced, at small sizes."""

    @pytest.mark.parametrize("args", [
        ["solve", "--rho", "2", "--u", "0.3", "--trees", "2000", "--depth", "20", "--radius", "10"],
        ["simulate", "--n", "2000", "--rho", "2", "--u-min", "0", "--u-max", "1", "--u-steps", "3",
         "--trials", "2", "--trees", "2000"],
        ["size-check", "--n", "2000", "--rho", "2", "--u", "0.3", "--trials", "2"],
        ["hitting", "--n", "2000", "--rho", "2", "--u", "0.3", "--vertices", "1", "--walks", "100"],
    ], ids=lambda args: args[0])
    def test_traced_run(self, tmp_path, args):
        report_path = tmp_path / "report.json"
        env = cli_env()
        env["VACANTLAB_THREADS"] = "1"
        res = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(report_path), "0",
                              "--", *args, "--seed", "1"],
                             capture_output=True, text=True, cwd=tmp_path, env=env)
        assert res.returncode == 0, res.stderr
        spans = json.loads(report_path.read_text())["spans"]
        assert spans
        assert _load_tracer().layer_metrics(spans)["cli.main.total_s"] > 0
