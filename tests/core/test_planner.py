"""Deployment planner."""

import random
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.planner as planner_mod
from repro.core import nonsleeping
from repro.core.construction import frame_length_formula
from repro.core.nonsleeping import tdma_schedule
from repro.core.planner import (
    _SUBSTRATE_MEMO_SIZE,
    GridPoint,
    GridScore,
    Plan,
    _substrates,
    candidate_sources,
    confirm_score,
    duty_budget_fraction,
    duty_grid,
    evaluate_grid_point,
    plan_schedule,
    score_grid,
    select_best,
)
from repro.core.schedule import Schedule
from repro.core.throughput import (
    average_throughput,
    constrained_upper_bound,
    optimal_transmitters_constrained,
)
from repro.core.transparency import is_topology_transparent
from repro.obs.metrics import MetricsRegistry, set_default_registry

#: The ``(n, D)`` pairs of the serve-cold benchmark's classes.
COLD_PAIRS = [(n, d) for lo, hi, d in ((20, 30, 2), (24, 32, 3),
                                       (24, 32, 4), (28, 36, 5))
              for n in range(lo, hi + 1, 2)]
LOOKUPS = "repro_planner_substrate_lookups_total"
BUILDS = "repro_planner_substrate_builds_total"


class TestCandidates:
    def test_low_degree_includes_steiner(self):
        names = {name for name, _ in candidate_sources(12, 2)}
        assert {"tdma", "polynomial", "steiner", "projective", "mols"} <= names

    def test_high_degree_drops_steiner(self):
        names = {name for name, _ in candidate_sources(12, 3)}
        assert "steiner" not in names

    def test_all_candidates_non_sleeping(self):
        for _, sched in candidate_sources(10, 2):
            assert sched.is_non_sleeping()


class TestPlan:
    def test_budget_respected(self):
        plan = plan_schedule(15, 2, max_duty=0.4)
        assert plan.duty_cycle <= Fraction(2, 5)
        assert plan.schedule.is_alpha_schedule(plan.alpha_t, plan.alpha_r)

    def test_result_is_transparent(self):
        plan = plan_schedule(12, 2, max_duty=0.5)
        assert is_topology_transparent(plan.schedule, 2)

    def test_throughput_field_exact(self):
        plan = plan_schedule(12, 2, max_duty=0.5)
        assert plan.throughput == average_throughput(plan.schedule, 2)
        assert plan.throughput <= constrained_upper_bound(
            12, 2, plan.alpha_t, plan.alpha_r)

    def test_larger_budget_never_worse(self):
        small = plan_schedule(15, 2, max_duty=0.3)
        large = plan_schedule(15, 2, max_duty=0.7)
        assert large.throughput >= small.throughput

    def test_impossible_budget(self):
        with pytest.raises(ValueError, match="duty budget"):
            plan_schedule(15, 2, max_duty=0.05)  # < 2/15

    def test_balanced_mode(self):
        plan = plan_schedule(12, 2, max_duty=0.5, balanced=True)
        assert plan.duty_cycle <= Fraction(1, 2)
        assert is_topology_transparent(plan.schedule, 2)

    def test_custom_families(self):
        from repro.core.nonsleeping import tdma_schedule

        plan = plan_schedule(10, 2, max_duty=0.6,
                             families=[("tdma", tdma_schedule(10))])
        assert plan.family == "tdma"

    def test_plan_is_frozen_dataclass(self):
        plan = plan_schedule(10, 2, max_duty=0.6)
        assert isinstance(plan, Plan)
        with pytest.raises(AttributeError):
            plan.alpha_t = 99  # type: ignore[misc]


class TestExactBudget:
    def test_float_budget_read_as_decimal(self):
        # A float 0.3 means the decimal the user typed, not the binary
        # double 0.2999...88.
        assert duty_budget_fraction(0.3) == Fraction(3, 10)

    def test_exact_budget_types_pass_through(self):
        assert duty_budget_fraction("3/10") == Fraction(3, 10)
        assert duty_budget_fraction(Fraction(1, 3)) == Fraction(1, 3)
        assert duty_budget_fraction(1) == Fraction(1)

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError, match="not a valid fraction"):
            duty_budget_fraction("3/0")
        with pytest.raises(ValueError, match="not a valid fraction"):
            duty_budget_fraction("garbage")
        with pytest.raises(ValueError, match="lie in"):
            duty_budget_fraction(Fraction(3, 2))
        with pytest.raises(ValueError):
            duty_budget_fraction(1.5)

    def test_boundary_budget_0_3_accepts_exact_duty(self):
        # Regression: the budget is converted to an exact Fraction once;
        # a candidate sitting exactly on the boundary must be admitted.
        plan = plan_schedule(20, 2, max_duty=0.3)
        assert plan.duty_cycle == Fraction(3, 10)
        assert plan == plan_schedule(20, 2, Fraction(3, 10))
        assert plan == plan_schedule(20, 2, "3/10")

    def test_awake_slot_cap_is_exact(self):
        # Regression: int(0.58 * 50) == 28 loses one awake slot to binary
        # rounding; the exact floor of (29/50) * 50 is 29.
        assert int(0.58 * 50) == 28
        points = duty_grid(50, 2, duty_budget_fraction(0.58),
                           [("tdma", tdma_schedule(50))])
        assert max(p.alpha_t + p.alpha_r for p in points) == 29


class TestGrid:
    def test_no_duplicate_pairs_per_family(self):
        points = duty_grid(12, 2, Fraction(1, 2), candidate_sources(12, 2))
        keys = [(p.family, p.alpha_t, p.alpha_r) for p in points]
        assert len(keys) == len(set(keys))

    def test_repeated_family_entries_deduplicate(self):
        source = tdma_schedule(12)
        doubled = duty_grid(12, 2, Fraction(1, 2),
                            [("tdma", source), ("tdma", source)])
        single = duty_grid(12, 2, Fraction(1, 2), [("tdma", source)])
        assert len(doubled) == len(single)

    def test_infeasible_budget_empty_grid(self):
        points = duty_grid(15, 2, Fraction(1, 20),
                           [("tdma", tdma_schedule(15))])
        assert points == []

    def test_select_best_prefers_earlier_on_exact_tie(self):
        plan = plan_schedule(12, 2, max_duty=0.5)
        tie = Plan(schedule=plan.schedule, family="copy",
                   alpha_t=plan.alpha_t, alpha_r=plan.alpha_r,
                   throughput=plan.throughput, duty_cycle=plan.duty_cycle,
                   frame_length=plan.frame_length)
        assert select_best([plan, tie]) is plan
        assert select_best([tie, plan]) is tie
        assert select_best([]) is None


@st.composite
def _scoring_cases(draw):
    """A random non-sleeping source (slots with empty and full T
    included), D, alpha_T up to just past the grid cap, an alpha_R that
    still fits, and a division."""
    n = draw(st.integers(min_value=4, max_value=40))
    full = (1 << n) - 1
    masks = draw(st.lists(
        st.one_of(st.just(0), st.just(full), st.integers(0, full)),
        min_size=1, max_size=12))
    source = Schedule(n, tuple(masks), tuple(full ^ m for m in masks))
    d = draw(st.integers(min_value=2, max_value=min(n - 1, 8)))
    cap = optimal_transmitters_constrained(n, d, n - 1)
    alpha_t = draw(st.integers(min_value=1, max_value=min(cap + 2, n - 1)))
    alpha_r = draw(st.integers(min_value=1, max_value=n - alpha_t))
    return (GridPoint("drawn", source, alpha_t, alpha_r), d,
            draw(st.booleans()))


class TestClosedFormScore:
    @given(case=_scoring_cases())
    @settings(max_examples=200, deadline=None)
    def test_score_equals_construct_and_score(self, case):
        point, d, balanced = case
        source = point.source
        if all(m in (0, source.n) for m in source.tx_counts):
            with pytest.raises(ValueError) as built:
                evaluate_grid_point(point, d, balanced=balanced)
            with pytest.raises(ValueError, match="at least one slot") as closed:
                score_grid([point], d, balanced=balanced)
            assert str(closed.value) == str(built.value)
            return
        score, = score_grid([point], d, balanced=balanced)
        plan = evaluate_grid_point(point, d, balanced=balanced)
        assert (score.throughput, score.duty_cycle, score.frame_length) == \
            (plan.throughput, plan.duty_cycle, plan.frame_length)
        alpha_t_star = optimal_transmitters_constrained(source.n, d,
                                                        point.alpha_t)
        assert score.frame_length == frame_length_formula(
            source, alpha_t_star, point.alpha_r, balanced=balanced)[0]
        assert confirm_score(score, plan) is plan

    def test_source_without_emitting_slot_raises_like_construction(self):
        full = (1 << 6) - 1
        source = Schedule(6, (0, full), (full, 0))
        point = GridPoint("degenerate", source, 1, 2)
        with pytest.raises(ValueError) as built:
            evaluate_grid_point(point, 2)
        with pytest.raises(ValueError) as closed:
            score_grid([point], 2)
        assert str(closed.value) == str(built.value) == \
            "a schedule must have at least one slot"

    def test_sleeping_source_is_checked_once_with_constructions_message(
            self, monkeypatch):
        checks = []
        real = Schedule.is_non_sleeping
        monkeypatch.setattr(Schedule, "is_non_sleeping",
                            lambda self: checks.append(self) or real(self))
        sources = candidate_sources(12, 2)
        points = duty_grid(12, 2, Fraction(1, 2), sources)
        assert len(points) > len(sources)
        score_grid(points, 2)
        assert len(checks) == len(sources)

        sleepy = Schedule(4, (0b0001, 0b0010), (0b0100, 0b1000))
        with pytest.raises(ValueError) as built:
            evaluate_grid_point(GridPoint("sleepy", sleepy, 1, 1), 2)
        with pytest.raises(ValueError) as closed:
            plan_schedule(4, 2, 1, families=[("sleepy", sleepy)])
        assert str(closed.value) == str(built.value)
        assert "non-sleeping" in str(closed.value)

    def test_mismatched_construction_is_refused(self):
        point = duty_grid(12, 2, Fraction(1, 2), candidate_sources(12, 2))[0]
        score, = score_grid([point], 2)
        plan = evaluate_grid_point(point, 2)
        off = GridScore(point, score.throughput, score.duty_cycle,
                        score.frame_length + 1)
        with pytest.raises(RuntimeError, match="closed-form score"):
            confirm_score(off, plan)

    def test_ties_keep_the_earliest_score(self):
        point = duty_grid(12, 2, Fraction(1, 2), candidate_sources(12, 2))[0]
        first = GridScore(point, Fraction(1, 7), Fraction(1, 3), 40)
        tie = GridScore(point, Fraction(1, 7), Fraction(1, 4), 40)
        shorter = GridScore(point, Fraction(1, 7), Fraction(1, 2), 39)
        assert select_best([first, tie]) is first
        assert select_best([tie, first]) is tie
        assert select_best([first, tie, shorter]) is shorter


class TestPlannerCache:
    def test_warm_call_returns_identical_plan(self, tmp_path):
        from repro.service.store import ScheduleStore

        store = ScheduleStore(tmp_path / "cache")
        cold = plan_schedule(12, 2, max_duty=0.5, cache=store)
        warm = plan_schedule(12, 2, max_duty=0.5, cache=store)
        assert warm == cold
        assert store.stats.hits >= 1


def _direct_sources(n, d):
    """The substrate families, each from a direct constructor call."""
    out = [("tdma", nonsleeping.tdma_schedule(n)),
           ("polynomial", nonsleeping.polynomial_schedule(n, d))]
    if d <= 2:
        out.append(("steiner", nonsleeping.steiner_schedule(n, d)))
    out.append(("projective", nonsleeping.projective_plane_schedule(n, d)))
    out.append(("mols", nonsleeping.mols_schedule(n, d)))
    return out


def _same_sources(got, want):
    return [(name, s.tx, s.rx) for name, s in got] \
        == [(name, s.tx, s.rx) for name, s in want]


@pytest.fixture(scope="module")
def cold_reference():
    return {pair: _direct_sources(*pair) for pair in COLD_PAIRS}


@pytest.fixture
def registry():
    """A fresh default registry, so the memo's counters start at zero."""
    registry = MetricsRegistry()
    old = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(old)


def _count(registry, name):
    metric = registry.get(name)
    return 0 if metric is None else metric.value()


class TestSubstrateMemo:
    def test_memoized_sources_equal_direct_builds(self, cold_reference):
        assert len(COLD_PAIRS) == 21
        _substrates.cache_clear()
        for pair, want in cold_reference.items():
            assert _same_sources(candidate_sources(*pair), want), pair  # built
            assert _same_sources(candidate_sources(*pair), want), pair  # kept

    def test_each_call_returns_a_fresh_list_of_the_same_schedules(self):
        first = candidate_sources(12, 2)
        second = candidate_sources(12, 2)
        assert first is not second
        assert [s for _, s in first] == [s for _, s in second]
        assert all(a is b for (_, a), (_, b) in zip(first, second))
        first.append(("extra", tdma_schedule(12)))
        assert candidate_sources(12, 2) == second

    def test_bad_input_raises_and_is_never_cached(self, registry):
        size = _substrates.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError):
                candidate_sources(5, 5)
        assert _substrates.cache_info().currsize == size
        assert _count(registry, LOOKUPS) == _count(registry, BUILDS) == 0

    def test_the_memo_is_bounded(self, registry):
        _substrates.cache_clear()
        pairs = [(n, 2) for n in range(3, 3 + _SUBSTRATE_MEMO_SIZE + 1)]
        assert len(pairs) == 33
        for pair in pairs:
            candidate_sources(*pair)
        assert _substrates.cache_info().currsize <= _SUBSTRATE_MEMO_SIZE
        assert _count(registry, BUILDS) == 33
        candidate_sources(*pairs[0])   # the least recently used: evicted
        assert _count(registry, BUILDS) == 34

    def test_builds_count_misses_and_lookups_count_calls(self, registry):
        _substrates.cache_clear()
        calls = [((12, 2), 1), ((12, 2), 1), ((9, 3), 2), ((12, 2), 2)]
        for i, (pair, builds) in enumerate(calls, start=1):
            candidate_sources(*pair)
            assert _count(registry, LOOKUPS) == i
            assert _count(registry, BUILDS) == builds

    def test_custom_families_make_no_lookup(self, registry):
        plan_schedule(10, 2, max_duty=0.6,
                      families=[("tdma", tdma_schedule(10))])
        assert _count(registry, LOOKUPS) == _count(registry, BUILDS) == 0

    def test_threads_sharing_the_memo(self, registry, cold_reference):
        threads, rounds = 8, 3
        results = [[] for _ in range(threads)]
        errors = []

        def walk(i):
            try:
                order = COLD_PAIRS * rounds
                random.Random(i).shuffle(order)
                for pair in order:
                    results[i].append((pair, candidate_sources(*pair)))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        _substrates.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=walk, args=(i,))
                       for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        calls = threads * rounds * len(COLD_PAIRS)
        assert sum(map(len, results)) == calls
        for walked in results:
            for pair, sources in walked:
                assert _same_sources(sources, cold_reference[pair]), pair
        assert _count(registry, LOOKUPS) == calls
        assert _count(registry, BUILDS) == len(COLD_PAIRS)

    def test_two_threads_missing_one_pair_build_it_once(self, registry,
                                                        monkeypatch):
        real = planner_mod.tdma_schedule

        def slow_tdma(n):
            time.sleep(0.2)  # both threads are past the barrier by now
            return real(n)

        monkeypatch.setattr(planner_mod, "tdma_schedule", slow_tdma)
        _substrates.cache_clear()
        barrier = threading.Barrier(2)
        got = [None, None]

        def miss(i):
            barrier.wait(timeout=10)
            got[i] = candidate_sources(12, 2)

        workers = [threading.Thread(target=miss, args=(i,)) for i in (0, 1)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)
        assert _count(registry, LOOKUPS) == 2
        assert _count(registry, BUILDS) == 1
        first, second = got
        assert [name for name, _ in first] == [name for name, _ in second]
        assert all(a is b for (_, a), (_, b) in zip(first, second))
