"""The fault-tolerant runtime: retries, pool recovery, quarantine.

Its tasks are sweep shards (:class:`~repro.analysis.sweeps.ShardTask`
evaluated by ``_evaluate_shard``), the runtime's one caller.
"""

import dataclasses
import multiprocessing
import time

import pytest

from repro.analysis.sweeps import ShardTask, SweepSpec, _evaluate_shard
from repro.faults import FaultPlan
from repro.service.runtime import (
    RuntimeConfig,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RETRIED,
    STATUS_TIMED_OUT,
    TERMINAL_STATUSES,
    execute_tasks as _execute_tasks,
)

#: Four cheap points: one-frame saturated TDMA runs on 2-regular 8-node
#: topologies, one point per shard.
SPEC = SweepSpec(families=("tdma",), ns=(8,), ds=(2,), seeds=(0, 1, 2, 3),
                 frames=1)


def execute_tasks(tasks, **kwargs):
    """The runtime evaluating sweep shards."""
    return _execute_tasks(tasks, evaluate=_evaluate_shard, **kwargs)


@pytest.fixture(scope="module")
def tasks():
    """One-point shards of a small sweep: a handful of tasks."""
    out = [ShardTask(SPEC, (point,)) for point in SPEC.expand()]
    assert len(out) >= 3  # the scenarios below need a few distinct tasks
    return out


@pytest.fixture(scope="module")
def clean_plans(tasks):
    """Ground truth: every task evaluated inline with no faults."""
    return execute_tasks(tasks, config=RuntimeConfig(jobs=1)).plans


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(jobs=0)
        with pytest.raises(ValueError):
            RuntimeConfig(jobs=2, task_timeout=0.0)
        with pytest.raises(ValueError, match="pool workers"):
            RuntimeConfig(jobs=1, task_timeout=5.0)
        with pytest.raises(ValueError):
            RuntimeConfig(max_retries=-1)

    def test_backoff_is_seeded_and_capped(self):
        config = RuntimeConfig()
        delays = [config.retry_policy(None).delay("abc", k)
                  for k in (1, 2, 3, 9)]
        assert delays == [config.retry_policy(None).delay("abc", k)
                          for k in (1, 2, 3, 9)]
        # jitter is in [0.5, 1.5): the fixed 0.05 s base and 1 s cap
        # bound the waits at half the base and 1.5x the cap
        assert 0.025 <= delays[0] < 0.075
        assert all(d < 1.5 for d in delays)


class TestInline:
    def test_clean_run_is_all_ok(self, tasks, clean_plans):
        outcome = execute_tasks(tasks, config=RuntimeConfig(jobs=1))
        assert outcome.complete
        assert outcome.summary() == {STATUS_OK: len(clean_plans)}
        assert outcome.plans == clean_plans
        assert outcome.pool_rebuilds == 0

    def test_transient_error_is_retried(self, tasks, clean_plans):
        digest = tasks[0].key()
        faults = FaultPlan(targeted_worker_faults=((digest, ("error",)),))
        outcome = execute_tasks(
            tasks, config=RuntimeConfig(jobs=1), faults=faults)
        assert outcome.complete
        report = outcome.reports[digest]
        assert report.status == STATUS_RETRIED
        assert report.attempts == 2 and report.fault_count == 1
        assert outcome.plans == clean_plans

    def test_exhausted_retries_fail_but_spare_survivors(self, tasks,
                                                        clean_plans):
        digest = tasks[0].key()
        faults = FaultPlan(targeted_worker_faults=((digest, ("error",) * 9),))
        outcome = execute_tasks(
            tasks, config=RuntimeConfig(jobs=1, max_retries=1),
            faults=faults)
        report = outcome.reports[digest]
        assert report.status == STATUS_FAILED
        assert "injected error" in report.error
        assert digest not in outcome.plans
        survivors = {d: p for d, p in clean_plans.items() if d != digest}
        assert outcome.plans == survivors
        assert [d for d, r in outcome.reports.items()
                if not r.succeeded] == [digest]

    def test_inline_crash_degrades_to_error(self, tasks):
        digest = tasks[0].key()
        faults = FaultPlan(targeted_worker_faults=((digest, ("crash",) * 9),))
        outcome = execute_tasks(
            tasks, config=RuntimeConfig(jobs=1, max_retries=0), faults=faults)
        assert outcome.reports[digest].status == STATUS_FAILED
        assert "injected crash" in outcome.reports[digest].error

    def test_inline_hang_times_out_immediately(self, tasks):
        digest = tasks[0].key()
        faults = FaultPlan(hang_seconds=3600,
                           targeted_worker_faults=((digest, ("hang",) * 9),))
        outcome = execute_tasks(
            tasks, config=RuntimeConfig(jobs=1, max_retries=0), faults=faults)
        assert outcome.reports[digest].status == STATUS_TIMED_OUT

    def test_checkpoint_sees_every_completed_task(self, tasks, clean_plans):
        digest = tasks[0].key()
        faults = FaultPlan(targeted_worker_faults=((digest, ("error",) * 9),))
        seen = []
        outcome = execute_tasks(
            tasks, config=RuntimeConfig(jobs=1, max_retries=0),
            faults=faults,
            checkpoint=lambda task, plan: seen.append((task.key(), plan)))
        # Once per completed task, as it completes; a lost one never.
        assert [d for d, _ in seen] == [t.key() for t in tasks[1:]]
        assert dict(seen) == outcome.plans
        assert outcome.plans == {d: p for d, p in clean_plans.items()
                                 if d != digest}

    def test_statuses_are_terminal(self, tasks):
        digest = tasks[0].key()
        faults = FaultPlan(targeted_worker_faults=((digest, ("error",) * 9),))
        outcome = execute_tasks(
            tasks, config=RuntimeConfig(jobs=1, max_retries=0), faults=faults)
        assert all(r.status in TERMINAL_STATUSES
                   for r in outcome.reports.values())


def _live_children(within: float) -> list:
    """Child processes still alive after waiting up to *within* seconds."""
    deadline = time.monotonic() + within
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children()


class TestPool:
    def test_parity_with_inline(self, tasks, clean_plans):
        outcome = execute_tasks(tasks, config=RuntimeConfig(jobs=2))
        assert outcome.complete
        assert outcome.plans == clean_plans

    def test_healthy_finish_joins_the_workers(self, tasks):
        """No worker outlives a healthy run, so interpreter exit never
        races a pool that is still closing."""
        assert _live_children(within=5.0) == []  # earlier tests' workers
        outcome = execute_tasks(tasks, config=RuntimeConfig(jobs=2))
        assert outcome.complete
        assert multiprocessing.active_children() == []

    def test_crash_and_hang_recovery(self, tasks, clean_plans):
        """The acceptance scenario: one worker crash (BrokenProcessPool),
        one wedged worker (per-task timeout), healthy tasks unharmed."""
        crash, hang = tasks[0].key(), tasks[1].key()
        faults = FaultPlan(hang_seconds=20, targeted_worker_faults=(
            (crash, ("crash",)), (hang, ("hang",) * 4)))
        outcome = execute_tasks(
            tasks,
            config=RuntimeConfig(jobs=2, task_timeout=1.0, max_retries=1),
            faults=faults)
        assert outcome.pool_rebuilds >= 1
        assert outcome.reports[crash].status == STATUS_RETRIED
        assert outcome.reports[hang].status == STATUS_TIMED_OUT
        # The wedged worker is terminated, not left to sleep out its 20 s.
        assert _live_children(within=5.0) == []
        for task in tasks:
            digest = task.key()
            if digest == hang:
                assert digest not in outcome.plans
            else:
                # bit-identical to the clean inline evaluation
                assert outcome.reports[digest].succeeded
                assert outcome.plans[digest] == clean_plans[digest]

    def test_poison_task_is_quarantined(self, tasks, clean_plans):
        poison = tasks[0].key()
        faults = FaultPlan(targeted_worker_faults=((poison, ("crash",) * 9),))
        outcome = execute_tasks(
            tasks,
            config=RuntimeConfig(jobs=2, max_retries=5),
            faults=faults)
        report = outcome.reports[poison]
        assert report.status == STATUS_QUARANTINED
        assert "quarantined" in report.error
        assert poison not in outcome.plans
        for task in tasks:
            digest = task.key()
            if digest != poison:
                assert outcome.reports[digest].succeeded
                assert outcome.plans[digest] == clean_plans[digest]


    def test_crash_victim_keeps_its_retry_budget(self, tasks, clean_plans):
        """A pool death caused by a sibling's crash is not the victim's
        fault: it still has its whole retry budget for its own."""
        crash, victim = tasks[0].key(), tasks[1].key()
        faults = FaultPlan(slow_seconds=1.0, targeted_worker_faults=(
            (crash, ("crash", "ok")), (victim, ("slow", "error", "ok"))))
        outcome = execute_tasks(
            tasks[:2],
            config=RuntimeConfig(jobs=2, max_retries=1),
            faults=faults)
        assert outcome.pool_rebuilds == 1
        report = outcome.reports[victim]
        assert report.status == STATUS_RETRIED
        assert report.attempts == 3
        # Its one pool death and its one own error are both faults.
        assert report.fault_count == 2
        assert outcome.plans[victim] == clean_plans[victim]
        assert outcome.reports[crash].status == STATUS_RETRIED


class TestEvaluateTasks:
    """Evaluating a batch of tasks: one raising task spares the rest."""

    def test_raising_task_no_longer_sinks_the_batch(self, tasks,
                                                    clean_plans):
        """Regression: a task whose evaluation raises used to abort the
        whole ``pool.map`` and discard every finished sibling.  Now the
        survivors come back and only the bad task is missing."""
        bad = dataclasses.replace(tasks[0], points=(dataclasses.replace(
            tasks[0].points[0], family="no-such-family"),))
        with pytest.raises(Exception):
            _evaluate_shard(bad)  # the bad task genuinely raises
        outcome = execute_tasks(list(tasks) + [bad],
                                config=RuntimeConfig(max_retries=0))
        assert outcome.reports[bad.key()].status == STATUS_FAILED
        assert outcome.plans == clean_plans
