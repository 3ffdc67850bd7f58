"""End-to-end tests for the command-line interface.

Everything goes through main(argv) with tmp_path outdirs; no subprocesses.
"""
import csv
import json
import math

import pytest

from tripletlab.cli import (
    EXIT_CONFIG,
    EXIT_DOMINATION,
    EXIT_OK,
    EXIT_REGIME,
    main,
    read_trace_csv,
)
from tripletlab.core import Pool, SlotRef, read_dataset_csv
from tripletlab.stability import sgd_stability_bound

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
    rows = read_rows(tmp_path / "metrics.csv")
    assert rows[1][0] == "exact_u_statistic"
    assert rows[2][0] == "iterations"
    assert int(rows[2][1]) >= 1


def test_rrm_without_lam_is_a_config_error(tmp_path):
    assert main(["rrm", "--seed", "3", "--outdir", str(tmp_path)] + TINY_TASK) == EXIT_CONFIG


def test_rrm_gd_hitting_max_iters_maps_to_config_error(tmp_path, capsys):
    rc = main(
        ["rrm", "--seed", "3", "--outdir", str(tmp_path), "--lam", "0.01",
         "--method", "gd", "--max-iters", "1"] + TINY_TASK
    )
    assert rc == EXIT_CONFIG
    assert "did not converge" in capsys.readouterr().err


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


def test_missing_config_file_is_a_config_error(tmp_path):
    rc = main(
        ["gen", "--seed", "1", "--outdir", str(tmp_path),
         "--config", str(tmp_path / "no-such-file.ini")]
    )
    assert rc == EXIT_CONFIG


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
    rows = read_rows(tmp_path / "excess.csv")
    assert len(rows) == 1 + 3 * 2


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


def test_bounds_missing_flags_exit_2(capsys):
    assert main(["bounds", "bernstein"]) == EXIT_CONFIG
    assert "--b" in capsys.readouterr().err


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
