"""Every CSV table the package writes, byte for byte, on reports built by hand.

The cell format is part of the output contract: a float is written as
repr(float(v)), so it reads back bit for bit (numpy scalars included, whose
own repr differs); a missing value is an empty cell; a flag is 0 or 1; a
seed is written as its full decimal integer. The reports below are fixed
values, not computed ones, so numeric changes elsewhere leave this file
alone; only a change of the format itself breaks it.
"""
from dataclasses import asdict, dataclass, field

import numpy as np

from tripletlab.core import Pool, SlotRef, TripletDataset, write_dataset_csv, write_records
from tripletlab.lab import (
    ExcessCell,
    ExcessReport,
    OptimisticCell,
    OptimisticReport,
    SlopeFit,
    SweepCell,
    SweepReport,
    SweepRow,
)
from tripletlab.loss import MetricParams, write_metric_csv
from tripletlab.optim import TrainTrace, write_trace_csv
from tripletlab.risk import RiskEstimate, RiskMode
from tripletlab.stability import StabilityReport

BIG_SEED = 2**63 + 5  # does not fit an int64


def csv_bytes(*lines):
    return "".join(line + "\r\n" for line in lines).encode()


def test_dataset_csv_format(tmp_path):
    ds = TripletDataset(
        [[0.1, -0.0], [1 / 3, 5e-324]],
        [[np.float64(2.5), -7.0]],
        positive_labels=[-1, np.int64(2)],
        negative_labels=[0],
    )
    path = tmp_path / "dataset.csv"
    write_dataset_csv(ds, path)
    assert path.read_bytes() == csv_bytes(
        "pool,label,f0,f1",
        "pos,-1,0.1,-0.0",
        "pos,2,0.3333333333333333,5e-324",
        "neg,0,2.5,-7.0",
    )


def test_metric_csv_format(tmp_path):
    w = MetricParams(
        np.array([[0.1, 1 / 3, -0.0], [1 / 3, 5e-324, 2.0], [-0.0, 2.0, -1.5]])
    )
    path = tmp_path / "model.csv"
    write_metric_csv(w, path)
    assert path.read_bytes() == csv_bytes(
        "0.1,0.3333333333333333,-0.0",
        "0.3333333333333333,5e-324,2.0",
        "-0.0,2.0,-1.5",
    )


def test_trace_csv_format(tmp_path):
    trace = TrainTrace(
        i=[0, 2, 1], j=[1, 0, 2], k=[0, 1, 1], eta=[0.1, 1 / 3, 5e-324], n_plus=3, n_minus=2
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, slot=SlotRef(Pool.NEGATIVE, 1))
    assert path.read_bytes() == csv_bytes(
        "t,i,j,k,eta,hit_slot_flag",
        "1,0,1,0,0.1,0",
        "2,2,0,1,0.3333333333333333,1",
        "3,1,2,1,5e-324,1",
    )
    write_trace_csv(trace, path)
    assert path.read_bytes() == csv_bytes(
        "t,i,j,k,eta,hit_slot_flag",
        "1,0,1,0,0.1,0",
        "2,2,0,1,0.3333333333333333,0",
        "3,1,2,1,5e-324,0",
    )


def test_stability_csv_format(tmp_path):
    reports = [
        StabilityReport(
            protocol="uniform_sup",
            trainer_kind="rrm",
            n_plus=5,
            n_minus=np.int64(4),
            sigma_or_T=0.1,
            gamma_hat=1 / 3,
            gamma_bound=np.float64(0.5),
            M_hat=5e-324,
            trials=2,
            probe_size=10,
            seed=np.uint64(BIG_SEED),
        ),
        StabilityReport(
            protocol="uniform_sup",
            trainer_kind="constant",
            n_plus=5,
            n_minus=4,
            sigma_or_T=0.0,
            gamma_hat=0.0,
            gamma_bound=None,
            M_hat=0.25,
            trials=1,
            probe_size=5,
        ),
        StabilityReport(
            protocol="on_average",
            trainer_kind="sgd",
            n_plus=3,
            n_minus=2,
            sigma_or_T=np.float64(1000),
            gamma_hat=np.float64(0.1),
            gamma_bound=-0.0,
            M_hat=1.5,
            trials=np.int64(7),
            probe_size=0,
            seed=BIG_SEED,
            signed_mean=-0.1,
            std_error=np.float64(1 / 3),
        ),
    ]
    path = tmp_path / "stability.csv"
    write_records(path, StabilityReport, reports)
    assert path.read_bytes() == csv_bytes(
        "protocol,trainer_kind,n_plus,n_minus,sigma_or_T,gamma_hat,gamma_bound,M_hat,"
        "trials,probe_size,seed,signed_mean,std_error",
        "uniform_sup,rrm,5,4,0.1,0.3333333333333333,0.5,5e-324,2,10,9223372036854775813,,",
        "uniform_sup,constant,5,4,0.0,0.0,,0.25,1,5,,,",
        "on_average,sgd,3,2,1000.0,0.1,-0.0,1.5,7,0,9223372036854775813,-0.1,"
        "0.3333333333333333",
    )


def sweep_report():
    exact = RiskMode.EXACT_U_STATISTIC
    sampled = RiskMode.MONTE_CARLO_POPULATION
    rows = (
        SweepRow(
            n=np.int64(4),
            trial=0,
            task_seed=BIG_SEED,
            algo_seed=np.uint64(2**64 - 1),
            emp=RiskEstimate(exact, 0.5, 0.0, 48),
            pop=RiskEstimate(sampled, np.float64(0.25), 5e-324, 1000),
        ),
        SweepRow(
            n=6,
            trial=np.int64(1),
            task_seed=0,
            algo_seed=7,
            emp=RiskEstimate(exact, np.float64(0.1), 0.0, np.int64(180)),
            pop=RiskEstimate(sampled, 0.1, 1 / 3, 1000),
        ),
    )
    return SweepReport(
        algorithm="sgd",
        rows=rows,
        n_grid=(4, np.int64(6), 8),
        mean_abs_gap=(0.25, np.float64(0.0), 1 / 3),
        fit=SlopeFit(
            slope=np.float64(-0.5), slope_stderr=5e-324, intercept=1 / 3, r_squared=float("nan")
        ),
    )


def test_sweep_rows_csv_format(tmp_path):
    path = tmp_path / "sweep_rows.csv"
    report = sweep_report()
    write_records(path, SweepRow, report.rows, lead={"algorithm": report.algorithm})
    assert path.read_bytes() == csv_bytes(
        "algorithm,n,trial,task_seed,algo_seed,emp_mode,emp_value,emp_std_error,emp_n_terms,"
        "pop_mode,pop_value,pop_std_error,pop_n_terms,gap,abs_gap",
        "sgd,4,0,9223372036854775813,18446744073709551615,exact_u_statistic,0.5,0.0,48,"
        "monte_carlo_population,0.25,5e-324,1000,-0.25,0.25",
        "sgd,6,1,0,7,exact_u_statistic,0.1,0.0,180,"
        "monte_carlo_population,0.1,0.3333333333333333,1000,0.0,0.0",
    )


def test_sweep_summary_csv_format(tmp_path):
    path = tmp_path / "sweep_summary.csv"
    report = sweep_report()
    write_records(path, SweepCell, report.cells, trail=asdict(report.fit))
    assert path.read_bytes() == csv_bytes(
        "n,mean_abs_gap,slope,slope_stderr,intercept,r_squared",
        "4,0.25,-0.5,5e-324,0.3333333333333333,nan",
        "6,0.0,-0.5,5e-324,0.3333333333333333,nan",
        "8,0.3333333333333333,-0.5,5e-324,0.3333333333333333,nan",
    )


def test_excess_csv_format(tmp_path):
    sweep = sweep_report()
    report = ExcessReport(
        algorithm="rrm",
        rows=sweep.rows,
        reference=RiskEstimate(RiskMode.MONTE_CARLO_POPULATION, np.float64(0.125), 0.01, 1000),
        w_star=MetricParams.zeros(2),
        iterations=8,
        n_grid=sweep.n_grid,
        mean_excess=(0.125, np.float64(-0.0), 1 / 3),
        fit=sweep.fit,
    )
    reference = {"reference_risk": report.reference.value}
    rows_path, cells_path = tmp_path / "excess_rows.csv", tmp_path / "excess_cells.csv"
    write_records(rows_path, SweepRow, report.rows, lead={"algorithm": report.algorithm},
                  trail=reference)
    write_records(cells_path, ExcessCell, report.cells, trail={**reference, **asdict(report.fit)})
    assert rows_path.read_bytes() == csv_bytes(
        "algorithm,n,trial,task_seed,algo_seed,emp_mode,emp_value,emp_std_error,emp_n_terms,"
        "pop_mode,pop_value,pop_std_error,pop_n_terms,gap,abs_gap,reference_risk",
        "rrm,4,0,9223372036854775813,18446744073709551615,exact_u_statistic,0.5,0.0,48,"
        "monte_carlo_population,0.25,5e-324,1000,-0.25,0.25,0.125",
        "rrm,6,1,0,7,exact_u_statistic,0.1,0.0,180,"
        "monte_carlo_population,0.1,0.3333333333333333,1000,0.0,0.0,0.125",
    )
    assert cells_path.read_bytes() == csv_bytes(
        "n,mean_excess,reference_risk,slope,slope_stderr,intercept,r_squared",
        "4,0.125,0.125,-0.5,5e-324,0.3333333333333333,nan",
        "6,-0.0,0.125,-0.5,5e-324,0.3333333333333333,nan",
        "8,0.3333333333333333,0.125,-0.5,5e-324,0.3333333333333333,nan",
    )
    assert report.excess == (0.25 - 0.125, 0.1 - 0.125)


def optimistic_report():
    cells = (
        OptimisticCell(
            n=np.int64(8),
            sigma=np.float64(0.5),
            lam=0.25,
            epsilon=1 / 3,
            alpha=np.float64(64.0),
            mean_gap=-0.0,
            mean_emp=5e-324,
            bound=0.1,
            dominated=np.bool_(True),
            trials=3,
        ),
        OptimisticCell(
            n=16,
            sigma=0.25,
            lam=0.125,
            epsilon=np.float64(0.1),
            alpha=64.0,
            mean_gap=0.5,
            mean_emp=0.0,
            bound=0.25,
            dominated=False,
            trials=np.int64(3),
        ),
    )
    exact = RiskMode.EXACT_U_STATISTIC
    sampled = RiskMode.MONTE_CARLO_POPULATION
    trial_rows = (
        SweepRow(
            n=8,
            trial=0,
            task_seed=BIG_SEED,
            algo_seed=3,
            emp=RiskEstimate(exact, 0.1, 0.0, 448),
            pop=RiskEstimate(sampled, np.float64(0.35), np.float64(0.01), 2000),
        ),
        SweepRow(
            n=np.int64(16),
            trial=2,
            task_seed=np.uint64(11),
            algo_seed=0,
            emp=RiskEstimate(exact, 1 / 3, 0.0, 3840),
            pop=RiskEstimate(sampled, 5e-324, 0.0, 2000),
        ),
    )
    return OptimisticReport(
        cells=cells,
        trial_rows=trial_rows,
        alpha=np.float64(64.0),
        fit=SlopeFit(slope=-1.0, slope_stderr=0.1, intercept=0.0, r_squared=1.0),
    )


def test_optimistic_cells_csv_format(tmp_path):
    path = tmp_path / "optimistic_cells.csv"
    report = optimistic_report()
    write_records(path, OptimisticCell, report.cells, trail=asdict(report.fit))
    assert path.read_bytes() == csv_bytes(
        "n,sigma,lam,epsilon,alpha,mean_gap,mean_emp,bound,dominated,trials,"
        "slope,slope_stderr,intercept,r_squared",
        "8,0.5,0.25,0.3333333333333333,64.0,-0.0,5e-324,0.1,1,3,-1.0,0.1,0.0,1.0",
        "16,0.25,0.125,0.1,64.0,0.5,0.0,0.25,0,3,-1.0,0.1,0.0,1.0",
    )


def test_optimistic_rows_csv_format(tmp_path):
    path = tmp_path / "optimistic_rows.csv"
    report = optimistic_report()
    write_records(path, SweepRow, report.trial_rows, lead={"algorithm": "rrm"})
    assert path.read_bytes() == csv_bytes(
        "algorithm,n,trial,task_seed,algo_seed,emp_mode,emp_value,emp_std_error,emp_n_terms,"
        "pop_mode,pop_value,pop_std_error,pop_n_terms,gap,abs_gap",
        "rrm,8,0,9223372036854775813,3,exact_u_statistic,0.1,0.0,448,"
        "monte_carlo_population,0.35,0.01,2000,0.24999999999999997,0.24999999999999997",
        "rrm,16,2,11,0,exact_u_statistic,0.3333333333333333,0.0,3840,"
        "monte_carlo_population,5e-324,0.0,2000,-0.3333333333333333,0.3333333333333333",
    )
    assert report.rows == (
        (8, 0, BIG_SEED, 0.1, 0.35, 0.24999999999999997),
        (16, 2, 11, 1 / 3, 5e-324, -1 / 3),
    )


@dataclass(frozen=True)
class Inner:
    mode: RiskMode
    value: float


@dataclass(frozen=True)
class Record:
    n: int
    inner: Inner
    trace: tuple = field(default=(), metadata={"column": False})
    flag: bool = False
    derived_columns = ("twice",)

    @property
    def twice(self) -> float:
        return 2 * self.inner.value


def test_record_writer_format(tmp_path):
    # a nested record's fields as <field>_<subfield>, an Enum as its value, a
    # field left out by its metadata, a listed property after the fields, and
    # shared columns before and after a record's own
    records = [
        Record(np.int64(3), Inner(RiskMode.EXACT_U_STATISTIC, 1 / 3), (1, 2), np.bool_(True)),
        Record(4, Inner(RiskMode.SAMPLED_TRIPLETS, np.float64(-0.0))),
    ]
    path = tmp_path / "records.csv"
    write_records(path, Record, records, lead={"tag": "x", "seed": BIG_SEED},
                  trail={"fit": 5e-324, "none": None})
    assert path.read_bytes() == csv_bytes(
        "tag,seed,n,inner_mode,inner_value,flag,twice,fit,none",
        "x,9223372036854775813,3,exact_u_statistic,0.3333333333333333,1,0.6666666666666666,"
        "5e-324,",
        "x,9223372036854775813,4,sampled_triplets,-0.0,0,-0.0,5e-324,",
    )
    write_records(path, Record, [])
    assert path.read_bytes() == csv_bytes("n,inner_mode,inner_value,flag,twice")
