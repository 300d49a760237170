"""Runtime observability: counters reconcile exactly with the result.

The contract under test: after any :func:`execute_tasks` run — inline or
pooled, clean or fault-injected — the parent-side registry's
``repro_runtime_tasks_completed_total`` series match
:meth:`RuntimeResult.summary` status-for-status, the retry/timeout/
quarantine counters agree with the per-task reports, and every completed
task's evaluation time lands in the exec histogram (recorded by the
parent on both paths, from the duration a pool worker returns).
"""

import pytest

from repro.analysis.sweeps import ShardTask, SweepSpec, _evaluate_shard
from repro.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.service.runtime import (
    RuntimeConfig,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RETRIED,
    STATUS_TIMED_OUT,
    execute_tasks as _execute_tasks,
)


def execute_tasks(tasks, **kwargs):
    """The runtime evaluating sweep shards."""
    return _execute_tasks(tasks, evaluate=_evaluate_shard, **kwargs)


@pytest.fixture(scope="module")
def tasks():
    """One-point shards of a small sweep: a handful of tasks."""
    spec = SweepSpec(families=("tdma",), ns=(8,), ds=(2,),
                     seeds=(0, 1, 2, 3), frames=1)
    out = [ShardTask(spec, (point,)) for point in spec.expand()]
    assert len(out) >= 3
    return out


def _completed_by_status(registry):
    """The tasks_completed counter decomposed by its status label."""
    counter = registry.get("repro_runtime_tasks_completed_total")
    assert counter is not None, "runtime did not register its counters"
    return {dict(s.labels)["status"]: int(s.value)
            for s in counter.series() if s.value}


def _counter_value(registry, name):
    metric = registry.get(name)
    return int(metric.total()) if metric is not None else 0


class TestReconciliation:
    def test_clean_pool_run_reconciles(self, tasks):
        registry = MetricsRegistry()
        outcome = execute_tasks(tasks, config=RuntimeConfig(jobs=2),
                                registry=registry)
        assert outcome.complete
        assert _completed_by_status(registry) == outcome.summary()
        assert _completed_by_status(registry) == {STATUS_OK: len(tasks)}
        assert _counter_value(registry, "repro_runtime_retries_total") == 0
        assert _counter_value(registry, "repro_runtime_timeouts_total") == 0
        assert _counter_value(
            registry, "repro_runtime_quarantines_total") == 0

    def test_faulted_pool_run_reconciles(self, tasks):
        # One task errors once (retried), the rest run clean.
        digest = tasks[0].key()
        faults = FaultPlan(targeted_worker_faults=((digest, ("error",)),))
        registry = MetricsRegistry()
        outcome = execute_tasks(
            tasks, config=RuntimeConfig(jobs=2), faults=faults,
            registry=registry)
        summary = outcome.summary()
        assert summary[STATUS_RETRIED] == 1
        assert _completed_by_status(registry) == summary
        # every charged fault that got another attempt is one retry
        expected_retries = sum(
            r.fault_count for r in outcome.reports.values()
            if r.status in (STATUS_OK, STATUS_RETRIED))
        assert _counter_value(
            registry, "repro_runtime_retries_total") == expected_retries

    def test_timeouts_are_counted(self, tasks):
        digest = tasks[0].key()
        faults = FaultPlan(hang_seconds=20, targeted_worker_faults=(
            (digest, ("hang",) * 9),))
        registry = MetricsRegistry()
        outcome = execute_tasks(
            tasks, config=RuntimeConfig(jobs=2, task_timeout=0.7,
                                        max_retries=0),
            faults=faults, registry=registry)
        assert outcome.reports[digest].status == STATUS_TIMED_OUT
        assert _completed_by_status(registry) == outcome.summary()
        assert _counter_value(registry, "repro_runtime_timeouts_total") >= 1
        assert _counter_value(
            registry,
            "repro_runtime_pool_rebuilds_total") == outcome.pool_rebuilds

    def test_quarantine_is_counted(self, tasks):
        poison = tasks[0].key()
        faults = FaultPlan(targeted_worker_faults=((poison, ("crash",) * 9),))
        registry = MetricsRegistry()
        outcome = execute_tasks(
            tasks, config=RuntimeConfig(jobs=2), faults=faults,
            registry=registry)
        assert outcome.reports[poison].status == STATUS_QUARANTINED
        assert _completed_by_status(registry) == outcome.summary()
        assert _counter_value(
            registry, "repro_runtime_quarantines_total") == 1
        assert _counter_value(
            registry,
            "repro_runtime_pool_rebuilds_total") == outcome.pool_rebuilds


def _exec_series(registry):
    """The one series of the exec-time histogram."""
    (series,) = list(registry.get("repro_runtime_task_exec_seconds").series())
    return series


class TestDurations:
    def test_inline_durations_positive(self, tasks):
        registry = MetricsRegistry()
        outcome = execute_tasks(tasks, config=RuntimeConfig(jobs=1),
                                registry=registry)
        assert outcome.complete
        series = _exec_series(registry)
        assert series.count == len(tasks)
        assert series.sum > 0.0
        # inline, the parent evaluates: no worker evaluations to count
        assert registry.get("repro_runtime_worker_evaluations_total") is None

    def test_pool_durations_and_worker_metrics_merge(self, tasks):
        registry = MetricsRegistry()
        outcome = execute_tasks(tasks, config=RuntimeConfig(jobs=2),
                                registry=registry)
        assert outcome.complete
        # every worker evaluation counted in the parent's registry
        evals = registry.get("repro_runtime_worker_evaluations_total")
        assert evals is not None and evals.total() == len(tasks)
        series = _exec_series(registry)
        assert series.count == len(tasks)
        assert series.sum > 0.0
        wait = registry.get("repro_runtime_task_queue_wait_seconds")
        (wait_series,) = list(wait.series())
        assert wait_series.count == len(tasks)


class TestExportedLayout:
    def test_duration_histograms_keep_their_buckets(self, tasks):
        """The queue-wait and exec bucket bounds are part of the metrics
        export: a dashboard's quantiles read them."""
        registry = MetricsRegistry()
        execute_tasks(tasks[:1], config=RuntimeConfig(jobs=1),
                      registry=registry)
        histograms = registry.snapshot()["histograms"]
        for name in ("repro_runtime_task_queue_wait_seconds",
                     "repro_runtime_task_exec_seconds"):
            assert histograms[name]["buckets"] == [
                0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                1.0, 2.5, 5.0, 10.0, 30.0], name
