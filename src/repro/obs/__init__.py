"""Unified observability layer: structured logging, metrics, span tracing.

Every layer of the stack — the planner, the sweep runtime, the
schedule store and the slot simulator — reports *what happened* through
the three pillars of this package, none of which needs a dependency
outside the standard library:

* :mod:`repro.obs.logging` — one ``get_logger(name)`` entry point over
  the stdlib :mod:`logging` machinery, with a human line format and a
  structured JSON line format selected once per process
  (:func:`repro.obs.logging.configure`, driven by the CLI's
  ``--log-level`` / ``--log-format`` flags).
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms with labels, collected in a
  :class:`~repro.obs.metrics.MetricsRegistry` (a process-global default
  plus injectable instances) and exported as JSON or Prometheus text.
  Process-pool workers keep none: the parent records what a worker
  returns, so ``--jobs N`` loses no signal.
* :mod:`repro.obs.tracing` — nestable ``span("name", **attrs)`` context
  managers built on :func:`time.perf_counter`, recording durations into
  a bounded in-memory trace that exports to JSONL and renders the
  ``--profile`` summary table.

Two cross-cutting companions tie the pillars together:

* :mod:`repro.obs.context` — contextvars-carried ``trace_id`` /
  ``span_id`` / ``parent_id`` correlation: spans record the ids, log
  lines are stamped with them, and histogram exemplars link buckets
  back to the requests that landed there.
* :mod:`repro.obs.slo` — declarative latency/availability objectives
  evaluated (purely) against metrics snapshots, with rolling
  multi-window error-budget burn rates.

The package defines *mechanism* only; each subsystem registers its own
metric names and span names (catalogued in ``docs/observability.md``).
"""

from repro.obs.context import (
    TraceContext,
    current_trace_id,
    deterministic_ids,
    trace_context,
)
from repro.obs.logging import configure as configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from repro.obs.slo import BurnRateTracker, Objective, evaluate as evaluate_slo
from repro.obs.tracing import (
    SpanRecord,
    Tracer,
    default_tracer,
    set_default_tracer,
    span,
)

__all__ = [
    "get_logger",
    "configure_logging",
    "TraceContext",
    "trace_context",
    "current_trace_id",
    "deterministic_ids",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "set_default_registry",
    "Objective",
    "BurnRateTracker",
    "evaluate_slo",
    "SpanRecord",
    "Tracer",
    "default_tracer",
    "set_default_tracer",
    "span",
]
