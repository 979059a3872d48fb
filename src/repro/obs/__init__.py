"""Unified observability: spans, metrics, exporters, analysis, health.

The package the rest of the library reports into:

* :mod:`repro.obs.spans` — per-rank hierarchical span trees;
* :mod:`repro.obs.metrics` — typed Counter/Gauge/Histogram registry;
* :mod:`repro.obs.core` — the :class:`Observability` hub, rank views,
  and the thread-local ambient :func:`current`;
* :mod:`repro.obs.exporters` — Chrome ``trace_event`` JSON, JSONL dumps,
  Prometheus text exposition;
* :mod:`repro.obs.analysis` — paper-style phase statistics, the
  critical-path extractor, comm/compute overlap;
* :mod:`repro.obs.causal` — Lamport/vector clocks piggybacked on every
  message, with a happens-before checker over the event stream;
* :mod:`repro.obs.health` — Scalasca-style wait-state classification
  (late-sender / late-receiver / wait-at-collective) plus
  load-imbalance and NIC-saturation indices;
* :mod:`repro.obs.streaming` — the bounded-memory telemetry stream
  behind ``python -m repro tail``.

Performance is measured outside the library, by the repository
benchmark in ``perfbench/`` (see its README).
"""

from repro.obs.causal import (
    CausalReport,
    CausalTracker,
    CausalViolation,
    validate_order,
)
from repro.obs.core import (
    NULL_RANK_OBS,
    Observability,
    ObsConfig,
    RankObs,
    current,
    observed_run,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
)
from repro.obs.health import (
    RankHealth,
    RunHealthReport,
    merge_reports,
    run_health,
)
from repro.obs.spans import Span, SpanStack, iter_spans, spans_named
from repro.obs.streaming import StreamingSink, read_rows, tail_rows

__all__ = [
    "CausalReport",
    "CausalTracker",
    "CausalViolation",
    "validate_order",
    "RankHealth",
    "RunHealthReport",
    "merge_reports",
    "run_health",
    "StreamingSink",
    "read_rows",
    "tail_rows",
    "NULL_RANK_OBS",
    "Observability",
    "ObsConfig",
    "RankObs",
    "current",
    "observed_run",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "exponential_buckets",
    "Span",
    "SpanStack",
    "iter_spans",
    "spans_named",
]
