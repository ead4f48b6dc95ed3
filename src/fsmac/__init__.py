"""Capacity bounds and block-coding experiments for state-dependent
multiple-access channels whose senders see noisy causal state observations.

The package models two senders that each observe a degraded version of an
i.i.d. channel state one step before transmitting, while the receiver knows
the state exactly.  Everything is built on the reduction to per-letter
strategies (maps from an observation symbol to a channel input), which turns
the problem into a memoryless MAC over strategy alphabets.
"""

from .errors import (
    FsmacError,
    GuardError,
    InternalInvariantError,
    SpecFormatError,
    ValidationError,
)
from .rng import stream
from .strategy import StrategySpace, enumerate_strategies
from .model import (
    FsMacSpec,
    StrategyChannel,
    induced_strategy_channel,
    load_spec,
    spec_from_dict,
)
from .rates import (
    JointLaw,
    RatePentagon,
    TeamPolicy,
    conditional_mutual_information,
    joint_law,
    load_policy,
    pentagon,
)
from .optimize import (
    OptimizerConfig,
    RateRegion,
    SumRateResult,
    convex_hull_2d,
    grid_oracle_sum_rate,
    inner_bound_region,
    maximize_sum_rate,
    pentagon_support,
)
from .converse import (
    ConverseAudit,
    EncoderMaps,
    alpha_sigma_weights,
    random_encoders,
    sigma_average_pentagon,
    sigma_string,
    verify_factorization,
)
from .mcsim import (
    SimConfig,
    SimReport,
    estimate_error,
    typicality_check,
    wilson_interval,
)

__version__ = "0.1.0"

__all__ = [
    "FsmacError", "GuardError", "InternalInvariantError", "SpecFormatError",
    "ValidationError",
    "stream",
    "StrategySpace", "enumerate_strategies",
    "FsMacSpec", "StrategyChannel",
    "induced_strategy_channel", "load_spec", "spec_from_dict",
    "JointLaw", "RatePentagon", "TeamPolicy", "conditional_mutual_information",
    "joint_law", "load_policy", "pentagon",
    "OptimizerConfig", "RateRegion", "SumRateResult", "convex_hull_2d",
    "grid_oracle_sum_rate", "inner_bound_region", "maximize_sum_rate",
    "pentagon_support",
    "ConverseAudit", "EncoderMaps", "alpha_sigma_weights",
    "random_encoders", "sigma_average_pentagon", "sigma_string",
    "verify_factorization",
    "SimConfig", "SimReport", "estimate_error", "typicality_check", "wilson_interval",
    "__version__",
]
