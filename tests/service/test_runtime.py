"""The fault-tolerant runtime: retries, pool recovery, quarantine."""

import dataclasses

import pytest

from repro.core.planner import (
    candidate_sources,
    duty_budget_fraction,
    duty_grid,
)
from repro.faults import FaultPlan
import repro.service.runtime as runtime_mod
from repro.service.provision import evaluate_tasks, task_from_point
from repro.service.runtime import (
    RuntimeConfig,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RETRIED,
    STATUS_TIMED_OUT,
    TERMINAL_STATUSES,
    execute_tasks,
)
from repro.service.store import ScheduleStore


def _grid_tasks(n=12, d=2, duty=0.5, balanced=False):
    points = duty_grid(n, d, duty_budget_fraction(duty),
                       candidate_sources(n, d))
    return [task_from_point(p, n, d, balanced) for p in points]


@pytest.fixture(scope="module")
def tasks():
    """The planner grid for (n=12, D=2, duty 1/2): a handful of tasks."""
    out = _grid_tasks()
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
            RuntimeConfig(task_timeout=0.0)
        with pytest.raises(ValueError):
            RuntimeConfig(max_retries=-1)
        with pytest.raises(ValueError):
            RuntimeConfig(backoff_base=0.5, backoff_cap=0.1)

    def test_backoff_is_seeded_and_capped(self):
        config = RuntimeConfig(backoff_base=0.1, backoff_cap=0.3, seed=4)
        delays = [config.retry_policy(None).delay("abc", k)
                  for k in (1, 2, 3, 9)]
        assert delays == [config.retry_policy(None).delay("abc", k)
                          for k in (1, 2, 3, 9)]
        # jitter is in [0.5, 1.5): bounded by half the base / 1.5x the cap
        assert 0.05 <= delays[0] < 0.15
        assert all(d < 0.45 for d in delays)


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
            tasks, config=RuntimeConfig(jobs=1, backoff_base=0.0), faults=faults)
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
            tasks, config=RuntimeConfig(jobs=1, max_retries=1,
                                        backoff_base=0.0), faults=faults)
        report = outcome.reports[digest]
        assert report.status == STATUS_FAILED
        assert "injected error" in report.error
        assert digest not in outcome.plans
        survivors = {d: p for d, p in clean_plans.items() if d != digest}
        assert outcome.plans == survivors
        assert outcome.failures() == {digest: report}

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

    def test_checkpoints_land_in_store(self, tasks, clean_plans, tmp_path):
        store = ScheduleStore(tmp_path / "cache")
        execute_tasks(tasks, config=RuntimeConfig(jobs=1), store=store)
        for task in tasks:
            cached = store.get_eval(task.family, task.n, task.d,
                                    task.alpha_t, task.alpha_r, task.balanced)
            assert cached == clean_plans[task.key()]

    def test_statuses_are_terminal(self, tasks):
        digest = tasks[0].key()
        faults = FaultPlan(targeted_worker_faults=((digest, ("error",) * 9),))
        outcome = execute_tasks(
            tasks, config=RuntimeConfig(jobs=1, max_retries=0), faults=faults)
        assert all(r.status in TERMINAL_STATUSES
                   for r in outcome.reports.values())


class TestPool:
    def test_parity_with_inline(self, tasks, clean_plans):
        outcome = execute_tasks(tasks, config=RuntimeConfig(jobs=2))
        assert outcome.complete
        assert outcome.plans == clean_plans

    def test_crash_and_hang_recovery(self, tasks, clean_plans):
        """The acceptance scenario: one worker crash (BrokenProcessPool),
        one wedged worker (per-task timeout), healthy tasks unharmed."""
        crash, hang = tasks[0].key(), tasks[1].key()
        faults = FaultPlan(hang_seconds=20, targeted_worker_faults=(
            (crash, ("crash",)), (hang, ("hang",) * 4)))
        outcome = execute_tasks(
            tasks,
            config=RuntimeConfig(jobs=2, task_timeout=1.0, max_retries=1,
                                 backoff_base=0.01),
            faults=faults)
        assert outcome.pool_rebuilds >= 1
        assert outcome.reports[crash].status == STATUS_RETRIED
        assert outcome.reports[hang].status == STATUS_TIMED_OUT
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
            config=RuntimeConfig(jobs=2, max_retries=5, backoff_base=0.01,
                                 quarantine_after=2),
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


class TestEvaluateTasks:
    def test_raising_task_no_longer_sinks_the_batch(self, tasks, clean_plans):
        """Regression: a task whose evaluation raises used to abort the
        whole ``pool.map`` and discard every finished sibling.  Now the
        survivors come back and only the bad task is missing."""
        bad = dataclasses.replace(tasks[0], alpha_t=tasks[0].n,
                                  alpha_r=tasks[0].n)
        with pytest.raises(Exception):
            runtime_mod._evaluate(bad)  # the bad task genuinely raises
        plans = evaluate_tasks(list(tasks) + [bad],
                               config=RuntimeConfig(max_retries=0))
        assert set(plans) == set(clean_plans)
        assert plans == clean_plans

    def test_faults_thread_through(self, tasks, clean_plans):
        digest = tasks[0].key()
        faults = FaultPlan(targeted_worker_faults=((digest, ("error",) * 9),))
        plans = evaluate_tasks(tasks, config=RuntimeConfig(max_retries=0),
                               faults=faults)
        assert digest not in plans
        assert set(plans) == set(clean_plans) - {digest}
