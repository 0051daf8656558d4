"""Continuous-field order-book model: simulator, stationary theory, analyzers, ingestion."""

from .analyzers import (
    FitReport,
    SeriesFrame,
    conditional_delta_distribution,
    fit_market_order_response,
    hill_tail_index,
    mean_delta_vs_n,
    return_distribution,
    rms_delta_vs_velocity,
    spatial_correlation,
    velocity_variance_vs_n0,
    velocity_volume_correlation,
)
from .baselines import CSParams, KSTTParams, run_baseline
from .dynamics import (
    SimulationResult,
    StepRecord,
    market_order_rate,
    simulate,
    step,
)
from .errors import DataError, NumericError
from .field import (
    BoundarySpill,
    MarketOrderParams,
    ModelParams,
    OrderBookField,
    PlacementActivityParams,
    new_field,
    shift_boundary,
)
from .fokker_planck import (
    FPParams,
    ReturnDensity,
    diffusion_coefficient,
    drift,
    stationary_density,
    tail_exponent,
    variance_given_n0,
)
from .stable_noise import StableParams, sample_one_sided_stable

__version__ = "0.1.0"
