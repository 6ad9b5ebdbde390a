"""Observability: tracing, profiling, and the PulsePlane's continuous
telemetry, windowed SLO latency histograms and burn-rate alerting."""

from .metrics import EMPTY_QUANTILE, Histogram, no_data
from .plane import TracePlane
from .pulse import LoadFeed, PulsePlane, Series, SeriesStore
from .slo import SloEvaluator, parse_slo, render_slo_report
from .profiler import (
    StageStats,
    fold,
    render_flame,
    render_stages,
    stage_breakdown,
    to_chrome_trace,
    write_chrome_trace,
)
from .trace import Span, SpanContext, Tracer

__all__ = [
    "EMPTY_QUANTILE",
    "Histogram",
    "LoadFeed",
    "PulsePlane",
    "Series",
    "SeriesStore",
    "SloEvaluator",
    "TracePlane",
    "no_data",
    "parse_slo",
    "render_slo_report",
    "StageStats",
    "fold",
    "render_flame",
    "render_stages",
    "stage_breakdown",
    "to_chrome_trace",
    "write_chrome_trace",
    "Span",
    "SpanContext",
    "Tracer",
]
