"""Fewest-bins histograms with simultaneous multiscale confidence guarantees.

The estimator returned by :func:`essential_histogram` uses as few bins as any
histogram that stays inside a multiscale likelihood-ratio confidence set, so
every bin boundary it shows is statistically necessary and every feature it
omits is statistically insignificant at the chosen level.
"""
from .bounds import constraint_table
from .densities import (
    MetricSet,
    ReferenceDensity,
    benchmark_rows,
    catalog,
    classical_histogram,
    get_density,
    metrics,
)
from .dp import HistogramModel, essential_histogram
from .evaluate import AuditReport, audit, removable_changepoints, violation_intervals
from .inference import (
    FeatureInterval,
    lower_bound_modes,
    significant_feature_intervals,
)
from .intervals import IntervalList, IntervalSpec, max_scale
from .multiscale import (
    QuantileTable,
    load_table,
    log_likelihood_ratio,
    lookup_kappa,
    multiscale_statistic,
    penalty,
    simulate_quantiles,
    simulate_statistics,
    table_path,
)
from .sample import DuplicateValuesError, SortedSample

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "DuplicateValuesError",
    "FeatureInterval",
    "HistogramModel",
    "IntervalList",
    "IntervalSpec",
    "MetricSet",
    "QuantileTable",
    "ReferenceDensity",
    "SortedSample",
    "audit",
    "benchmark_rows",
    "catalog",
    "classical_histogram",
    "constraint_table",
    "essential_histogram",
    "get_density",
    "load_table",
    "log_likelihood_ratio",
    "lookup_kappa",
    "lower_bound_modes",
    "max_scale",
    "metrics",
    "multiscale_statistic",
    "penalty",
    "removable_changepoints",
    "significant_feature_intervals",
    "simulate_quantiles",
    "simulate_statistics",
    "table_path",
    "violation_intervals",
]
