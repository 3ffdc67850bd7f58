"""Triplet metric learning with stability-based generalization diagnostics.

The package trains a symmetric bilinear metric on relative-similarity
triplets (one anchor and one same-pool partner against a cross-pool sample)
with either averaged SGD or ridge-regularized risk minimization, and ships a
small lab for estimating algorithmic-stability constants and checking them
against their closed-form bounds.
"""

from .core import (
    DimensionMismatch,
    Pool,
    SlotRef,
    TripletDataset,
    ValidationError,
    feature_bound,
    read_dataset_csv,
    replace_samples,
    write_dataset_csv,
)
from .loss import (
    LossConfig,
    MetricParams,
    RegularityConstants,
    logistic_triplet_grad,
    logistic_triplet_loss,
    metric_score,
    read_metric_csv,
    regularity_constants,
    triplet_margin,
    write_metric_csv,
    zero_one_triplet_loss,
)
from .optim import (
    LineSearchExhausted,
    MaxItersExceeded,
    RrmConfig,
    SgdConfig,
    TrainTrace,
    expansiveness_check,
    read_trace_csv,
    regularized_objective,
    rrm_train,
    sgd_train,
    write_trace_csv,
)
from .risk import (
    RiskEstimate,
    RiskMode,
    bernstein_ustat_bound,
    empirical_risk,
    generalization_gap,
    population_risk,
)
from .stability import (
    ConstantTrainer,
    RegimeViolation,
    RrmTrainer,
    SgdTrainer,
    StabilityReport,
    chernoff_hit_bound,
    estimate_on_average_stability,
    estimate_uniform_stability,
    high_probability_gap_bound,
    loss_expectation_bound,
    optimistic_epsilon,
    optimistic_gap_bound,
    rrm_stability_bound,
    sgd_stability_bound,
    write_stability_csv,
)
from .synth import TaskConfig, TripletSampler, gen_task, low_noise_task
from .lab import (
    SweepConfig,
    SweepReport,
    fit_loglog_slope,
    run_excess_risk_experiment,
    run_optimistic_experiment,
    run_rate_sweep,
)

__version__ = "0.1.0"
