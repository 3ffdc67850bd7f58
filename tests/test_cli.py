"""End-to-end tests for the command-line interface.

Everything goes through main(argv) with tmp_path outdirs; no subprocesses.
"""
import csv
import json
import math
import time
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import LinAlgError

from tripletlab import lab, optim, parallel, risk
from tripletlab.cli import (
    EXIT_CONFIG,
    EXIT_DOMINATION,
    EXIT_OK,
    EXIT_REGIME,
    _parse_grid,
    main,
    read_trace_csv,
)
from tripletlab.core import Pool, SlotRef, ValidationError, read_dataset_csv, write_dataset_csv
from tripletlab.risk import chunk_moments
from tripletlab.stability import sgd_stability_bound
from tripletlab.synth import TaskConfig, gen_task

TINY_TASK = ["--d", "2", "--n-plus", "4", "--n-minus", "3"]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_exit_code_contract():
    assert (EXIT_OK, EXIT_CONFIG, EXIT_DOMINATION, EXIT_REGIME) == (0, 2, 3, 4)


def test_gen_writes_dataset_and_manifest(tmp_path):
    rc = main(["gen", "--seed", "5", "--outdir", str(tmp_path)] + TINY_TASK)
    assert rc == EXIT_OK
    dataset = read_dataset_csv(tmp_path / "dataset.csv")
    assert dataset.n_plus == 4
    assert dataset.n_minus == 3
    assert dataset.positive_features.shape[1] == 2
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["config"]["d"] == 2
    assert "version" in manifest and "elapsed_seconds" in manifest


def test_sgd_outputs_and_trace_round_trip(tmp_path):
    rc = main(["sgd", "--seed", "7", "--outdir", str(tmp_path), "--T", "10"] + TINY_TASK)
    assert rc == EXIT_OK
    for name in ("model.csv", "trace.csv", "metrics.csv", "manifest.json"):
        assert (tmp_path / name).exists()
    trace = read_trace_csv(tmp_path / "trace.csv", 4, 3)
    assert trace.T == 10
    rows = read_rows(tmp_path / "metrics.csv")
    assert rows[0] == ["mode", "value", "std_error", "n_terms"]
    assert rows[1][0] == "exact_u_statistic"  # 4*3*3 = 36 triplets, under any budget
    assert math.isfinite(float(rows[1][1]))


def test_sgd_without_T_is_a_config_error(tmp_path, capsys):
    rc = main(["sgd", "--seed", "1", "--outdir", str(tmp_path)] + TINY_TASK)
    assert rc == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_rrm_outputs_and_iterations_row(tmp_path):
    rc = main(
        ["rrm", "--seed", "3", "--outdir", str(tmp_path), "--lam", "0.5"] + TINY_TASK
    )
    assert rc == EXIT_OK
    # one row, RiskEstimate's columns and the solve's iterations after them
    rows = read_rows(tmp_path / "metrics.csv")
    assert rows[0] == ["mode", "value", "std_error", "n_terms", "iterations"]
    assert len(rows) == 2
    assert rows[1][0] == "exact_u_statistic"
    assert int(rows[1][4]) >= 1


def test_rrm_without_lam_is_a_config_error(tmp_path):
    assert main(["rrm", "--seed", "3", "--outdir", str(tmp_path)] + TINY_TASK) == EXIT_CONFIG


def test_rrm_hitting_max_iters_maps_to_config_error(tmp_path, capsys):
    rc = main(
        ["rrm", "--seed", "3", "--outdir", str(tmp_path), "--lam", "0.01",
         "--tol", "1e-14", "--max-iters", "1"] + TINY_TASK
    )
    assert rc == EXIT_CONFIG
    assert "did not converge" in capsys.readouterr().err


def test_rrm_failed_newton_factorization_maps_to_config_error(tmp_path, capsys, monkeypatch):
    # a Cholesky factorization of the Newton system that fails: the solver
    # error exits 2 with nothing written; unpatched, the same lam = 1e-18
    # solve converges
    argv = ["rrm", "--seed", "3", "--n-plus", "12", "--n-minus", "10", "--d", "3",
            "--lam", "1e-18"]

    def failing(hess):
        raise LinAlgError("not positive definite")

    with monkeypatch.context() as patch:
        patch.setattr(optim, "cho_factor", failing)
        rc = main(argv + ["--outdir", str(tmp_path / "a")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "did not converge" in err
    assert "lam = 1e-18" in err and "iteration 0" in err
    assert not (tmp_path / "a" / "model.csv").exists()
    assert main(argv + ["--outdir", str(tmp_path / "b")]) == EXIT_OK


@pytest.mark.parametrize(
    "argv",
    [["rrm", "--lam", "0.1", "--method", "gd"]]
    + [[cmd, "--sigma-rule", "optimistic"] for cmd in ("sweep", "excess", "optimistic")],
)
def test_removed_solver_and_sigma_flags_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1", "--outdir", str(tmp_path)] + TINY_TASK)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


def test_rrm_consumes_generated_dataset(tmp_path):
    gen_dir = tmp_path / "gen"
    assert main(["gen", "--seed", "5", "--outdir", str(gen_dir)] + TINY_TASK) == EXIT_OK
    run_dir = tmp_path / "run"
    rc = main(
        ["rrm", "--seed", "1", "--outdir", str(run_dir),
         "--data", str(gen_dir / "dataset.csv"), "--lam", "0.3"]
    )
    assert rc == EXIT_OK
    assert (run_dir / "model.csv").exists()


def test_dataset_with_non_integer_label_exits_2(tmp_path, capsys):
    data = tmp_path / "dataset.csv"
    data.write_text("pool,label,f0\npos,1,0.1\npos,1.5,0.1\nneg,0,0.2\n")
    rc = main(["sgd", "--seed", "1", "--outdir", str(tmp_path / "run"),
               "--data", str(data), "--T", "5"])
    assert rc == EXIT_CONFIG
    assert "malformed row" in capsys.readouterr().err


def test_dataset_label_with_digit_separator_exits_2(tmp_path, capsys):
    data = tmp_path / "dataset.csv"
    data.write_text("pool,label,f0\npos,1_0,0.1\npos,1,0.2\nneg,0,0.3\n")
    rc = main(["sgd", "--seed", "1", "--outdir", str(tmp_path / "run"),
               "--data", str(data), "--T", "5"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "malformed row" in err


def test_dataset_label_outside_int64_is_kept(tmp_path):
    # labels are Python integers: a dataset read with one trains as any other
    data = tmp_path / "dataset.csv"
    data.write_text(f"pool,label,f0\npos,{2**64},0.1\npos,1,0.2\nneg,{-(2**70)},0.3\n")
    rc = main(["sgd", "--seed", "1", "--outdir", str(tmp_path / "run"),
               "--data", str(data), "--T", "5"])
    assert rc == EXIT_OK
    dataset = read_dataset_csv(data)
    assert dataset.positive_labels == (2**64, 1) and dataset.negative_labels == (-(2**70),)


@pytest.mark.parametrize("command", [["sgd", "--T", "5"], ["rrm", "--lam", "0.3"]])
def test_missing_data_file_exits_2(tmp_path, capsys, command):
    missing = tmp_path / "absent.csv"
    rc = main(command + ["--seed", "1", "--outdir", str(tmp_path / "run"), "--data", str(missing)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "absent.csv" in err


def test_sweep_non_integer_grid_exits_2(tmp_path, capsys):
    rc = main(["sweep", "--seed", "1", "--outdir", str(tmp_path),
               "--algorithm", "sgd", "--n-grid", "4 x 8"])
    assert rc == EXIT_CONFIG
    assert "n_grid" in capsys.readouterr().err


def test_config_file_supplies_values_and_flags_override(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[task]\nd = 2\nn_plus = 4\nn_minus = 3\n\n[sgd]\nt = 8\n")
    a = tmp_path / "a"
    rc = main(["sgd", "--seed", "2", "--config", str(ini), "--outdir", str(a)])
    assert rc == EXIT_OK
    assert read_trace_csv(a / "trace.csv", 4, 3).T == 8
    b = tmp_path / "b"
    rc = main(["sgd", "--seed", "2", "--config", str(ini), "--outdir", str(b), "--T", "5"])
    assert rc == EXIT_OK
    assert read_trace_csv(b / "trace.csv", 4, 3).T == 5


@pytest.mark.parametrize(
    "flags, ini, token",
    [(["--d", "1_0"], "", "'1_0'"), ([], "[task]\nd = 0_3\n", "'0_3'")],
    ids=["flag", "ini"],
)
def test_integer_with_digit_separator_exits_2(tmp_path, capsys, flags, ini, token):
    # int() reads "1_0" as 10; an integer flag or INI value is [+-]?[0-9]+
    config = tmp_path / "cfg.ini"
    config.write_text(ini)
    out = tmp_path / "out"
    argv = ["gen", "--seed", "1", "--outdir", str(out), "--config", str(config)] + flags
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse refuses a flag value with exit status 2
        rc = exc.code
    assert rc == EXIT_CONFIG
    assert token in capsys.readouterr().err
    assert not (out / "dataset.csv").exists()


def test_missing_config_file_is_a_config_error(tmp_path):
    rc = main(
        ["gen", "--seed", "1", "--outdir", str(tmp_path),
         "--config", str(tmp_path / "no-such-file.ini")]
    )
    assert rc == EXIT_CONFIG


SMALL_GRID = ["--n-grid", "4 6 8", "--trials-per-n", "1", "--population-m", "200", "--d", "2"]


@pytest.mark.parametrize(
    "argv, ini, key",
    [
        (["rrm", "--lam", "0.5"] + TINY_TASK, "[rrm]\nmethod = gd\n", "[rrm] method"),
        (["sweep"] + SMALL_GRID, "[sweep]\nsigma_rule = optimistic\n", "[sweep] sigma_rule"),
        (["optimistic"] + SMALL_GRID, "[sweep]\nsigma0 = 50\n", "[sweep] sigma0"),
        (["optimistic"] + SMALL_GRID, "[sweep]\nalgorithm = rrm\n", "[sweep] algorithm"),
    ],
    ids=["removed-key", "unknown-key", "key-of-another-command", "key-with-one-value"],
)
def test_config_key_that_no_lookup_reads_exits_2(tmp_path, capsys, argv, ini, key):
    config = tmp_path / "cfg.ini"
    config.write_text(ini + "[task]\nnoise_scale = 0.2\n")  # a read key passes
    out = tmp_path / "out"
    rc = main(argv[:1] + ["--seed", "1", "--outdir", str(out), "--config", str(config)] + argv[1:])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and "noise_scale" not in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "flag, value",
    [("--sigma0", "2"), ("--c", "2"), ("--algorithm", "rrm")],
    ids=["--sigma0", "--c", "--algorithm"],
)
def test_optimistic_refuses_sigma0_and_c(tmp_path, capsys, flag, value):
    # RRM runs with sigma on the regime floor: the flags would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["optimistic", "--seed", "1", "--outdir", str(tmp_path), flag, value] + SMALL_GRID)
    assert exc.value.code == EXIT_CONFIG
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "--zeta", "1"] + TINY_TASK, "--zeta"),
        (["sgd", "--data", "dataset.csv", "--T", "5", "--d", "4"], "--d"),
        (["stability", "--trainer", "sgd", "--T", "5", "--lam", "0.1"] + TINY_TASK, "--lam"),
        (["sweep", "--n-plus", "9"] + SMALL_GRID, "--n-plus"),
        (["sweep", "--algorithm", "rrm", "--c", "2"] + SMALL_GRID, "--c"),
        (["sweep", "--algorithm", "sgd", "--sigma0", "2"] + SMALL_GRID, "--sigma0"),
        (["excess", "--algorithm", "constant", "--c", "2"] + SMALL_GRID, "--c"),
    ],
    ids=["gen-zeta", "sgd-data-d", "stability-sgd-lam", "sweep-n-plus", "sweep-rrm-c",
         "sweep-sgd-sigma0", "excess-constant-c"],
)
def test_a_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    write_dataset_csv(gen_task(TaskConfig(d=2, n_plus=4, n_minus=3))[0], "dataset.csv")
    out = tmp_path / "out"
    rc = main(argv[:1] + ["--seed", "1", "--outdir", str(out)] + argv[1:])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.endswith(f"does not read: {flag}\n")
    assert not out.exists()


def test_excess_reads_sigma0_for_rrm_only_and_c_for_sgd(tmp_path, capsys):
    # as sweep does: sigma0 sets the sigma of RRM only
    grid = ["--n-grid", "4 5 6", "--trials-per-n", "1", "--population-m", "200", "--d", "2"]
    argv = ["excess", "--seed", "1", "--outdir", str(tmp_path / "sgd"), "--algorithm", "sgd"]
    assert main(argv + ["--sigma0", "2", "--c", "0.01"] + grid) == EXIT_CONFIG
    assert capsys.readouterr().err.endswith("does not read: --sigma0\n")
    assert main(argv + ["--c", "0.01"] + grid) == EXIT_OK
    config = json.loads((tmp_path / "sgd" / "manifest.json").read_text())["config"]
    assert (config["sigma0"], config["c"]) == (1.0, 0.01)
    argv = ["excess", "--seed", "1", "--outdir", str(tmp_path / "rrm"), "--algorithm", "rrm"]
    assert main(argv + ["--sigma0", "2"] + grid) == EXIT_OK
    config = json.loads((tmp_path / "rrm" / "manifest.json").read_text())["config"]
    assert (config["sigma0"], config["c"]) == (2.0, None)


def test_stability_constant_trainer_reports_zero_gamma(tmp_path):
    rc = main(
        ["stability", "--seed", "3", "--outdir", str(tmp_path),
         "--trainer", "constant", "--protocol", "uniform",
         "--trials", "2", "--probe-size", "50"] + TINY_TASK
    )
    assert rc == EXIT_OK
    rows = read_rows(tmp_path / "stability.csv")
    header, row = rows[0], rows[1]
    record = dict(zip(header, row))
    assert record["protocol"] == "uniform_sup"
    assert record["trainer_kind"] == "constant"
    assert float(record["gamma_hat"]) == 0.0
    assert record["gamma_bound"] == ""


def test_stability_rrm_on_average_smoke(tmp_path):
    rc = main(
        ["stability", "--seed", "4", "--outdir", str(tmp_path),
         "--trainer", "rrm", "--lam", "0.5", "--protocol", "on-average",
         "--trials", "2", "--triplet-subsample", "4"] + TINY_TASK
    )
    assert rc == EXIT_OK
    record = dict(zip(*read_rows(tmp_path / "stability.csv")[:2]))
    assert record["protocol"] == "on_average"
    assert float(record["gamma_hat"]) >= 0.0


def test_stability_rrm_without_lam_is_a_config_error(tmp_path):
    rc = main(
        ["stability", "--seed", "4", "--outdir", str(tmp_path),
         "--trainer", "rrm", "--trials", "2"] + TINY_TASK
    )
    assert rc == EXIT_CONFIG


def test_sweep_same_seed_gives_identical_bytes(tmp_path):
    argv_tail = ["--algorithm", "sgd", "--n-grid", "4 6 8", "--trials-per-n", "2",
                 "--population-m", "2000", "--d", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--seed", "11", "--outdir", str(a)] + argv_tail) == EXIT_OK
    assert main(["sweep", "--seed", "11", "--outdir", str(b)] + argv_tail) == EXIT_OK
    for name in ("sweep_rows.csv", "sweep_summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["config"]["algorithm"] == "sgd"
    assert manifest["config"]["task"]["d"] == 2


def test_excess_writes_one_row_per_trial(tmp_path):
    rc = main(
        ["excess", "--seed", "2", "--outdir", str(tmp_path),
         "--algorithm", "rrm", "--n-grid", "4 6 8", "--trials-per-n", "2",
         "--population-m", "2000", "--d", "2"]
    )
    assert rc == EXIT_OK
    rows = read_rows(tmp_path / "excess_rows.csv")
    assert len(rows) == 1 + 3 * 2
    assert rows[0][-3:] == ["gap", "abs_gap", "reference_risk"]
    cells = read_rows(tmp_path / "excess_cells.csv")
    assert cells[0] == ["n", "mean_excess", "reference_risk", "slope", "slope_stderr",
                        "intercept", "r_squared"]
    assert [int(cell[0]) for cell in cells[1:]] == [4, 6, 8]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    reference = manifest["reference_minimizer"]
    assert reference["risk"] == float(cells[1][2]) == float(rows[1][-1])
    assert reference["iterations"] >= 1 and np.shape(reference["w"]) == (2, 2)
    assert manifest["population_sample"]["m"] == 2000
    assert set(manifest["phase_seconds"]) == {
        "fits", "population_draw_busy_sum", "fit_wait_sum", "scoring_busy_sum", "reference_fit"
    }
    assert manifest["population_sample"]["held"] is True
    assert list(manifest["slope_fit"]) == ["intercept", "r_squared", "slope", "slope_stderr"]


def test_the_readme_excess_line_runs_in_seconds(tmp_path):
    # the README tour's line: 60 small fits and one reference fit on 10^5 triplets
    started = time.perf_counter()
    rc = main(["excess", "--seed", "6", "--outdir", str(tmp_path), "--algorithm", "rrm",
               "--n-grid", "16 32 64"])
    assert rc == EXIT_OK
    assert time.perf_counter() - started < 30.0
    assert len(read_rows(tmp_path / "excess_rows.csv")) == 1 + 3 * 20


def test_excess_on_a_sample_without_a_minimizer_exits_2(tmp_path, capsys):
    # 2 population triplets cannot pin down p = 3 coordinates at d = 2
    rc = main(["excess", "--seed", "2", "--outdir", str(tmp_path), "--algorithm", "rrm",
               "--n-grid", "4 6 8", "--trials-per-n", "1", "--population-m", "2", "--d", "2"])
    assert rc == EXIT_CONFIG
    assert "did not converge" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_optimistic_writes_cells_and_rows(tmp_path):
    rc = main(
        ["optimistic", "--seed", "2", "--outdir", str(tmp_path),
         "--n-grid", "4 6 8", "--trials-per-n", "2",
         "--population-m", "2000", "--d", "2"]
    )
    assert rc == EXIT_OK
    cells = read_rows(tmp_path / "optimistic_cells.csv")
    assert len(cells) == 1 + 3
    assert all(row[cells[0].index("dominated")] == "1" for row in cells[1:])
    rows = read_rows(tmp_path / "optimistic_rows.csv")
    assert len(rows) == 1 + 3 * 2


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_sweep_and_optimistic_manifests_record_the_worker_count(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
    grid = ["--n-grid", "4 6 8", "--trials-per-n", "2", "--population-m", "2000", "--d", "2"]
    for command in ("sweep", "optimistic"):
        out = tmp_path / command
        assert main([command, "--seed", "3", "--outdir", str(out)] + grid) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        # one per CPU, at most one per job: 6 fits, then the one chunk
        # scored by a job a CPU, at most one per fit
        assert manifest["workers"] == min(cpus, 3 * 2 + min(cpus, 3 * 2))


def test_sweep_and_optimistic_manifests_record_the_shared_population_sample(tmp_path):
    grid = ["--n-grid", "4 6 8", "--trials-per-n", "2", "--population-m", "2000", "--d", "2"]
    own_state = np.random.SeedSequence(3).generate_state(1, np.uint64)[0]
    for command in ("sweep", "optimistic"):
        out = tmp_path / command
        assert main([command, "--seed", "3", "--outdir", str(out)] + grid) == EXIT_OK
        sample = json.loads((out / "manifest.json").read_text())["population_sample"]
        assert sample["m"] == 2000
        assert sample["seed"] == int(own_state)
        assert sample["seed_derivation"].startswith("SeedSequence(config.seed)")
        assert "c-th fork()" in sample["seed_derivation"]
        assert sample["chunk_rows"] == 2**16
        assert sample["chunks"] == 1
        assert sample["held"] is False
        assert sample["shared_by_all_trials"] is True
        assert sample["trials"] == 3 * 2


def test_sweep_and_optimistic_manifests_record_the_phase_timings(tmp_path):
    grid = ["--n-grid", "4 6 8", "--trials-per-n", "2", "--population-m", "2000", "--d", "2"]
    for command in ("sweep", "optimistic"):
        out = tmp_path / command
        assert main([command, "--seed", "3", "--outdir", str(out)] + grid) == EXIT_OK
        times = json.loads((out / "manifest.json").read_text())["phase_seconds"]
        assert set(times) == {
            "fits", "population_draw_busy_sum", "fit_wait_sum", "scoring_busy_sum"
        }
        assert all(t >= 0.0 for t in times.values())


def test_optimistic_manifest_records_the_slope_fit(tmp_path, monkeypatch):
    grid = ["--n-grid", "4 6 8 10", "--trials-per-n", "2", "--population-m", "2000", "--d", "2"]
    out = tmp_path / "fit"
    assert main(["optimistic", "--seed", "3", "--outdir", str(out)] + grid) == EXIT_OK
    fit = json.loads((out / "manifest.json").read_text())["slope_fit"]
    with open(out / "optimistic_cells.csv", newline="") as fh:
        cells = list(csv.DictReader(fh))
    ns = [int(c["n"]) for c in cells]
    want = asdict(lab._positive_slope(ns, [float(c["mean_gap"]) for c in cells]))
    assert fit == want
    assert all(math.isfinite(v) for v in want.values())
    # a population risk of 0 makes every gap negative: no fit, recorded as null
    def zero_sums(w_arr, chunk, zeta):
        return (0.0, *chunk_moments(w_arr, chunk, zeta)[1:])

    monkeypatch.setattr(lab, "chunk_moments", zero_sums)
    out = tmp_path / "none"
    assert main(["optimistic", "--seed", "3", "--outdir", str(out)] + grid) == EXIT_OK
    fit = json.loads((out / "manifest.json").read_text())["slope_fit"]
    assert fit == dict.fromkeys(["slope", "slope_stderr", "intercept", "r_squared"])


def test_sweep_and_optimistic_tables_share_their_row_and_fit_columns(tmp_path):
    grid = ["--n-grid", "4 6 8", "--trials-per-n", "2", "--population-m", "2000", "--d", "2"]
    for command in ("sweep", "optimistic"):
        out = tmp_path / command
        assert main([command, "--seed", "3", "--outdir", str(out)] + grid) == EXIT_OK
    rows = read_rows(tmp_path / "optimistic" / "optimistic_rows.csv")
    assert rows[0] == read_rows(tmp_path / "sweep" / "sweep_rows.csv")[0]
    assert {row[0] for row in rows[1:]} == {"rrm"}
    fit = ["slope", "slope_stderr", "intercept", "r_squared"]
    for table in ("sweep/sweep_summary.csv", "optimistic/optimistic_cells.csv"):
        assert read_rows(tmp_path / table)[0][-4:] == fit
    for command in ("sweep", "optimistic"):
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        assert list(manifest["slope_fit"]) == sorted(fit)  # written with sorted keys


@pytest.mark.parametrize("command", ["sweep", "optimistic", "excess"])
def test_a_population_sample_larger_than_memory_exits_2(tmp_path, capsys, command):
    m = 10_000_000_000_000  # 2 m d 8 bytes = 480 TB at d = 3: refused, never allocated
    out = tmp_path / "out"
    rc = main(
        [command, "--seed", "3", "--outdir", str(out), "--n-grid", "4 6 8",
         "--trials-per-n", "1", "--population-m", str(m), "--d", "3"]
    )
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"m = {m} triplets at d = 3 needs {2 * m * 3 * 8} bytes" in err
    assert "bytes of physical memory" in err
    assert not out.exists()


def test_an_rrm_solve_whose_features_exceed_memory_exits_2(tmp_path, capsys, monkeypatch):
    need = (4 * 4 + 4 * 3) * 4 * 8  # (n+^2 + n+ n-)(p + 1) doubles, p = 3 at d = 2
    monkeypatch.setattr(risk, "physical_memory", lambda: need - 1)
    out = tmp_path / "out"
    rc = main(["rrm", "--seed", "3", "--outdir", str(out), "--lam", "0.1"] + TINY_TASK)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"n+ = 4, n- = 3, d = 2 needs {need} bytes" in err
    assert f"more than the {need - 1} bytes of physical memory" in err
    assert not out.exists()


def test_a_probe_set_larger_than_memory_exits_2(tmp_path, capsys):
    m = 100_000_000_000  # 3 m d 8 bytes = 7.2 TB at d = 3: refused, never allocated
    out = tmp_path / "out"
    rc = main(
        ["stability", "--seed", "3", "--outdir", str(out), "--trainer", "constant",
         "--trials", "1", "--probe-size", str(m), "--d", "3"]
    )
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"a probe set of m = {m} triplets at d = 3 needs {3 * m * 3 * 8} bytes" in err
    assert not out.exists()


def test_an_on_average_subsample_larger_than_memory_exits_2(tmp_path, capsys):
    m = 100_000_000_000  # three int64 index arrays, 3 m 8 bytes = 2.4 TB: never allocated
    rc = main(
        ["stability", "--seed", "1", "--outdir", str(tmp_path), "--trainer", "constant",
         "--protocol", "on-average", "--trials", "1", "--triplet-subsample", str(m),
         "--d", "2", "--n-plus", "4", "--n-minus", "3"]
    )
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"a triplet subsample of m = {m} triplets needs {3 * m * 8} bytes" in err
    assert not (tmp_path / "stability.csv").exists()


@pytest.mark.parametrize("command", [["sgd"], ["stability", "--trainer", "sgd"]])
def test_an_sgd_trace_larger_than_memory_exits_2(tmp_path, capsys, command):
    T = 100_000_000_000  # four T-length arrays, 32 T bytes = 3.2 TB: never allocated
    out = tmp_path / "out"
    rc = main(command + ["--seed", "1", "--T", str(T), "--outdir", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: an SGD trace of T = {T} steps needs {32 * T} bytes")
    assert "bytes of physical memory" in err and "Traceback" not in err
    if command == ["sgd"]:
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--probes", "--grad-probes"])
def test_check_refuses_a_negative_probe_count(tmp_path, capsys, flag):
    out = tmp_path / "out"
    assert main(["check", "--seed", "0", "--outdir", str(out), flag, "-5"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {flag} must be >= 0, got -5\n"
    assert not out.exists()


def test_check_small_probe_budget_passes(tmp_path, capsys):
    rc = main(
        ["check", "--seed", "0", "--outdir", str(tmp_path),
         "--probes", "40", "--grad-probes", "10"]
    )
    assert rc == EXIT_OK
    rows = read_rows(tmp_path / "check.csv")
    assert rows[0] == ["suite", "probes", "violations", "status"]
    assert len(rows) == 1 + 5
    assert all(row[3] == "pass" for row in rows[1:])
    assert "worst gradient relative error" in capsys.readouterr().out


BOUND_CASES = [
    (["bernstein", "--b", "1", "--tau", "0.25", "--delta", "0.05",
      "--n-plus", "100", "--n-minus", "50"], 0.4260498704818968),
    (["rrm-stability", "--n-plus", "100", "--n-minus", "50",
      "--L", "8", "--sigma", "0.1"], 51.2),
    (["loss-expectation", "--n-plus", "96", "--n-minus", "48",
      "--L", "1", "--sigma", "1"], 1.0),
    (["high-prob-gap", "--n-plus", "101", "--n-minus", "100", "--gamma", "0",
      "--M", "1", "--delta", "0.1353352832366127"], 11.299685366837506),
    (["chernoff-hits", "--T", "1000", "--n-plus", "100", "--n-minus", "50",
      "--delta", "0.05"], 38.96016542191758),
    # sqrt(3 * 100^2 * 99 * 100^2 / (4608 * 100^2 + 256 * 100^2))
    (["optimistic-epsilon", "--n-plus", "100", "--n-minus", "100", "--sigma", "1"],
     24.710494787267596),
    (["optimistic-gap", "--epsilon", "10", "--alpha", "1", "--sigma", "1",
      "--n-plus", "100", "--n-minus", "100", "--emp-risk", "1"],
     0.11801481481481482),
]


@pytest.mark.parametrize("argv,expected", BOUND_CASES, ids=[c[0][0] for c in BOUND_CASES])
def test_bounds_prints_known_values(argv, expected, capsys):
    assert main(["bounds"] + argv) == EXIT_OK
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(expected, rel=1e-12)


def test_bounds_optimistic_gap_derives_epsilon_when_omitted(capsys):
    rc = main(
        ["bounds", "optimistic-gap", "--alpha", "1", "--sigma", "1",
         "--n-plus", "100", "--n-minus", "100", "--emp-risk", "1"]
    )
    assert rc == EXIT_OK
    assert float(capsys.readouterr().out.strip()) > 0.0


def test_bounds_regime_violation_exits_4(capsys):
    rc = main(
        ["bounds", "optimistic-gap", "--epsilon", "10", "--alpha", "1",
         "--sigma", "0.001", "--n-plus", "100", "--n-minus", "100",
         "--emp-risk", "1"]
    )
    assert rc == EXIT_REGIME
    assert "regime violation" in capsys.readouterr().err


# the flags each bound names when run with none, in its argument order
MISSING_BOUND_FLAGS = {
    "bernstein": "--b, --tau, --delta, --n-plus, --n-minus",
    "rrm-stability": "--n-plus, --n-minus, --L, --sigma",
    "loss-expectation": "--n-plus, --n-minus, --L, --sigma",
    "high-prob-gap": "--n-plus, --n-minus, --gamma, --M, --delta",
    "chernoff-hits": "--T, --n-plus, --n-minus, --delta",
    "optimistic-epsilon": "--n-plus, --n-minus, --sigma",
    "optimistic-gap": "--alpha, --sigma, --n-plus, --n-minus, --emp-risk",
    "sgd-stability": "--trace, --n-plus, --n-minus, --slot, --L",
}


@pytest.mark.parametrize("which", MISSING_BOUND_FLAGS)
def test_bounds_missing_flags_exit_2(capsys, which):
    assert main(["bounds", which]) == EXIT_CONFIG
    missing = MISSING_BOUND_FLAGS[which]
    assert capsys.readouterr().err == f"error: bound '{which}' needs flags: {missing}\n"


@pytest.mark.parametrize(
    "argv, flags",
    [
        (BOUND_CASES[4][0] + ["--sigma", "3", "--epsilon", "2"], "--sigma, --epsilon"),
        (BOUND_CASES[1][0] + ["--T", "10"], "--T"),
    ],
    ids=["chernoff-hits", "rrm-stability"],
)
def test_bounds_refuses_a_flag_the_bound_does_not_take(capsys, argv, flags):
    assert main(["bounds"] + argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: flags that `bounds {argv[0]}` does not read: {flags}\n"


def test_bounds_sgd_stability_matches_library(tmp_path, capsys):
    assert main(
        ["sgd", "--seed", "7", "--outdir", str(tmp_path), "--T", "6"] + TINY_TASK
    ) == EXIT_OK
    capsys.readouterr()  # drop the training command's own output
    trace_path = tmp_path / "trace.csv"
    rc = main(
        ["bounds", "sgd-stability", "--trace", str(trace_path),
         "--n-plus", "4", "--n-minus", "3", "--slot", "pos:0", "--L", "8"]
    )
    assert rc == EXIT_OK
    printed = float(capsys.readouterr().out.strip())
    trace = read_trace_csv(trace_path, 4, 3)
    assert printed == sgd_stability_bound(trace, SlotRef(Pool.POSITIVE, 0), 8.0)


def test_bounds_bad_slot_exits_2(tmp_path, capsys):
    assert main(
        ["sgd", "--seed", "7", "--outdir", str(tmp_path), "--T", "6"] + TINY_TASK
    ) == EXIT_OK
    rc = main(
        ["bounds", "sgd-stability", "--trace", str(tmp_path / "trace.csv"),
         "--n-plus", "4", "--n-minus", "3", "--slot", "first", "--L", "8"]
    )
    assert rc == EXIT_CONFIG
    assert "slot" in capsys.readouterr().err


SGD_BOUND_FLAGS = ["--n-plus", "4", "--n-minus", "3", "--slot", "pos:0", "--L", "8"]


@pytest.mark.parametrize(
    "bad_row",
    ["1,x,0,0,0.1,0", "1,0,1,0,fast,0", "1,0,1", "1,0,1,1_0,0.1,0"],
    ids=["index", "eta", "short", "digit separator"],
)
def test_bounds_malformed_trace_row_exits_2(tmp_path, capsys, bad_row):
    trace = tmp_path / "trace.csv"
    trace.write_text(f"t,i,j,k,eta,hit_slot_flag\n0,0,1,0,0.1,0\n{bad_row}\n")
    rc = main(["bounds", "sgd-stability", "--trace", str(trace)] + SGD_BOUND_FLAGS)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "malformed trace row" in err


def test_bounds_missing_trace_file_exits_2(tmp_path, capsys):
    rc = main(["bounds", "sgd-stability", "--trace", str(tmp_path / "absent.csv")]
              + SGD_BOUND_FLAGS)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "absent.csv" in err


# --- property tests of the grid parser ---

GRID_SEPARATORS = st.sampled_from([" ", ",", ", ", "  ,"])


@given(st.lists(st.integers(), min_size=1, max_size=12), GRID_SEPARATORS)
def test_parse_grid_round_trips_integer_lists(values, sep):
    assert _parse_grid(sep.join(str(v) for v in values)) == tuple(values)


NON_INTEGER_TOKENS = st.one_of(
    st.floats().map(repr),  # always has '.', 'e', 'inf' or 'nan'
    st.from_regex(r"[0-9]*[A-Za-z_.][A-Za-z0-9_.]*", fullmatch=True).filter(
        lambda tok: not tok.strip("_").isdigit()
    ),
)


@given(st.lists(st.integers(), max_size=5), NON_INTEGER_TOKENS, st.integers(0, 5), GRID_SEPARATORS)
@example(values=[], token="0_0", at=0, sep=" ")  # int() reads digit separators
def test_parse_grid_rejects_any_non_integer_token(values, token, at, sep):
    tokens = [str(v) for v in values]
    tokens.insert(min(at, len(tokens)), token)
    with pytest.raises(ValidationError):
        _parse_grid(sep.join(tokens))
