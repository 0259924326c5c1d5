"""Uncertainty-adaptive endpoint sampling and evaluation for trajectory-prediction heatmaps."""

from .calibration import (
    CalibrationModel,
    RadiusSweepConfig,
    binned_optimal_radii,
    calibrate,
    learned_uncertainty_loss,
    load_preset,
    ols_fit,
    optimal_radius,
)
from .heatmap import (
    GaussianMode,
    GridSpec,
    Heatmap,
    MixtureSpec,
    UncertaintyEstimate,
    expectation,
    normalize,
    render_mixture,
    threshold_sparsify,
    uncertainty,
)
from .metrics import (
    AggregateReport,
    EvalRecord,
    aggregate,
    bin_by_uncertainty,
    is_miss,
    make_eval_record,
    min_fde,
)
from .noise import KalmanConfig, kalman_filter_cv, perception_noise, sample_noise
from .sampling import (
    AdaptiveRadius,
    Endpoint,
    FixedRadius,
    PredictionSet,
    SamplingConfig,
    adaptive_radius,
    nms_sample,
    sample_with_uncertainty,
)
from .synth import ScenarioConfig, draw_mixture, generate_dataset, sample_scenario
from .trajectory import (
    Sample,
    StandardizationConfig,
    Trajectory,
    average_speed,
    filter_slow_agents,
    resample_trajectory,
    rotate_sample,
    standardize_sample,
)

__version__ = "0.1.0"
