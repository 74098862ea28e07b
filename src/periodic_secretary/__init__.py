"""Streaming, irrevocable sample selection from approximately periodic data streams.

The library provides: stream synthesis and CSV ingestion, GP entropy
machinery, monotone submodular utility functions, the periodic secretary
selector with classical and offline baselines, closed-form performance
bounds, and an experiment harness for repeated-trial evaluation.
"""

from .bounds import (
    BoundInputs,
    BoundReport,
    bound_report,
    estimate_utility_noise,
    expected_max_gap,
    expected_successes,
    full_selection_bound,
    gaussian_tail_q,
    per_step_gap,
    utility_lower_bound,
)
from .gp import (
    GPConditioner,
    GPHyperparams,
    load_hyperparams,
    predict_many,
    prefix_means,
)
from .harness import (
    AlgorithmSpec,
    ComparisonReport,
    ExperimentConfig,
    SlackTuningResult,
    attach_gp_qoi,
    evaluate_prediction,
    run_comparison,
    tune_threshold_slack,
    validate_bounds,
)
from .selectors import (
    PeriodicSecretaryConfig,
    SelectionResult,
    exhaustive_optimum,
    offline_greedy,
    periodic_secretary,
    random_sampler,
    scheduled_sampler,
    submodular_secretary,
)
from .stream import (
    CsvSchema,
    Observation,
    ObservationStream,
    PeriodicStreamSpec,
    Rows,
    block_permute,
    generate_periodic_stream,
    ingest_csv,
    seasonal_waveform,
    two_sine_waveform,
    write_stream_csv,
)
from .utility import (
    UtilityFunction,
    entropy_criterion,
)

__version__ = "0.1.0"
