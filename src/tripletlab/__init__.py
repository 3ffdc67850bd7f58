"""Triplet metric learning with stability-based generalization diagnostics.

The package trains a symmetric bilinear metric on relative-similarity
triplets (one anchor and one same-pool partner against a cross-pool sample)
with either averaged SGD or ridge-regularized risk minimization, and ships a
small lab for estimating algorithmic-stability constants and checking them
against their closed-form bounds. Everything else is imported from its module.
"""

from .core import TripletDataset
from .loss import LossConfig
from .optim import RrmConfig, SgdConfig, rrm_train, sgd_train
from .risk import empirical_risk, population_risk
from .stability import RrmTrainer, SgdTrainer, estimate_uniform_stability
from .synth import TaskConfig, gen_task, low_noise_task
from .lab import SweepConfig

__version__ = "0.1.0"
