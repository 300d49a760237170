"""The batch provisioning API: parity with the sequential planner,
deduplication, caching and warm resume."""

import json
import sys
import threading
from fractions import Fraction

import pytest

import repro.core.planner as planner_mod
import repro.service.api as api_mod
import repro.service.store as store_mod
from repro.core.nonsleeping import tdma_schedule
from repro.core.planner import plan_schedule
from repro.core.serialization import schedule_to_dict
from repro.core.transparency import is_topology_transparent
from repro.service.api import (
    ProvisionRequest,
    ProvisionResult,
    _ScheduleTexts,
    provision_batch,
)
from repro.service.store import ScheduleStore


@pytest.fixture
def store(tmp_path) -> ScheduleStore:
    """A store rooted in a fresh temporary directory."""
    return ScheduleStore(tmp_path / "cache")


@pytest.fixture
def texts():
    """The process's schedule text memo, empty at the start."""
    api_mod._SCHEDULE_TEXTS.clear()
    return api_mod._SCHEDULE_TEXTS


def _count_encodes(monkeypatch):
    """Route ``schedule_to_dict``, by the name the API and the store look
    up at call time, through a counter; returns the list of calls."""
    calls = []
    real = api_mod.schedule_to_dict
    assert store_mod.schedule_to_dict is real

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(api_mod, "schedule_to_dict", counted)
    monkeypatch.setattr(store_mod, "schedule_to_dict", counted)
    return calls


def _count_constructions(monkeypatch):
    """Route planner constructions through a counter; returns the list."""
    calls = []
    real = planner_mod.construct_detailed
    monkeypatch.setattr(
        planner_mod, "construct_detailed",
        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


class TestRequests:
    def test_from_dict_round_trip(self):
        req = ProvisionRequest.from_dict(
            {"n": 15, "d": 2, "max_duty": "2/5", "balanced": True})
        assert req == ProvisionRequest(15, 2, "2/5", balanced=True)
        assert req.to_dict() == {"n": 15, "d": 2, "max_duty": "2/5",
                                 "balanced": True}

    def test_from_dict_rejects_missing_and_unknown_fields(self):
        with pytest.raises(ValueError, match="missing"):
            ProvisionRequest.from_dict({"n": 15, "d": 2})
        with pytest.raises(ValueError, match="unknown"):
            ProvisionRequest.from_dict(
                {"n": 15, "d": 2, "max_duty": 0.4, "alpha": 1})

    def test_signature_is_exact(self):
        float_sig = ProvisionRequest(15, 2, 0.4).signature()
        exact_sig = ProvisionRequest(15, 2, Fraction(2, 5)).signature()
        assert float_sig == exact_sig == (15, 2, Fraction(2, 5), False)

    def test_from_dict_rejects_wrong_types_naming_the_key(self):
        good = {"n": 15, "d": 2, "max_duty": 0.4}
        for key, bad in [("n", "15"), ("n", 15.0), ("n", True),
                         ("d", "2"), ("d", None), ("d", False)]:
            with pytest.raises(ValueError, match=f"field '{key}' must be"):
                ProvisionRequest.from_dict({**good, key: bad})
        for bad_duty in ([0.4], None, True, {"num": 2}):
            with pytest.raises(ValueError, match="'max_duty' must be"):
                ProvisionRequest.from_dict({**good, "max_duty": bad_duty})
        for bad_balanced in ("yes", 1, 0, None):
            with pytest.raises(ValueError, match="'balanced' must be"):
                ProvisionRequest.from_dict({**good,
                                            "balanced": bad_balanced})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            ProvisionRequest.from_dict([15, 2, 0.4])

    def test_from_dict_accepts_integer_duty(self):
        # max_duty=1 (always-on) is an int, not a float: still a number.
        req = ProvisionRequest.from_dict({"n": 15, "d": 2, "max_duty": 1})
        assert req.max_duty == 1


class TestResultFromDict:
    def test_success_round_trips_exactly(self):
        result, = provision_batch([ProvisionRequest(12, 2, 0.5)])
        doc = result.to_dict()
        back = ProvisionResult.from_dict(doc)
        assert back.plan == result.plan
        assert back.request == result.request
        assert back.to_dict() == doc

    def test_error_result_round_trips(self):
        result, = provision_batch([ProvisionRequest(12, 2, 0.05)])
        back = ProvisionResult.from_dict(result.to_dict())
        assert back.plan is None
        assert back.error == result.error
        assert back.to_dict() == result.to_dict()

    def test_schedule_free_document_is_rejected(self):
        result, = provision_batch([ProvisionRequest(12, 2, 0.5)])
        doc = result.to_dict(include_schedule=False)
        with pytest.raises(ValueError, match="missing field 'schedule'"):
            ProvisionResult.from_dict(doc)

    def test_from_cache_flag_survives(self):
        result, = provision_batch([ProvisionRequest(12, 2, 0.5)])
        doc = result.to_dict()
        doc["from_cache"] = True
        back = ProvisionResult.from_dict(doc)
        assert back.from_cache is True
        assert back.to_dict() == doc

    @staticmethod
    def _success_doc():
        result, = provision_batch([ProvisionRequest(12, 2, 0.5)])
        return result.to_dict()

    def test_string_from_cache_is_rejected(self):
        doc = self._success_doc()
        doc["from_cache"] = "false"
        with pytest.raises(ValueError, match="'from_cache' must be a boolean"):
            ProvisionResult.from_dict(doc)

    def test_null_throughput_is_rejected(self):
        doc = self._success_doc()
        doc["throughput"] = None
        with pytest.raises(ValueError, match="'throughput' must be a string"):
            ProvisionResult.from_dict(doc)

    def test_missing_family_is_named(self):
        doc = self._success_doc()
        del doc["family"]
        with pytest.raises(ValueError, match="missing field 'family'"):
            ProvisionResult.from_dict(doc)

    @pytest.mark.parametrize("max_duty, extra", [
        (0.5, {"familly": "polynomial"}),
        (0.05, {"failed_tasks": {}}),
        (0.05, {"family": "tdma"}),
    ])
    def test_unknown_fields_are_named(self, max_duty, extra):
        """A misspelt key must not parse as if it were absent."""
        result, = provision_batch([ProvisionRequest(12, 2, max_duty)])
        doc = {**result.to_dict(), **extra}
        with pytest.raises(ValueError, match=f"unknown fields: "
                                             f"\\['{next(iter(extra))}'\\]"):
            ProvisionResult.from_dict(doc)

    def test_frame_length_must_match_the_schedule(self):
        doc = self._success_doc()
        doc["frame_length"] += 1
        with pytest.raises(ValueError, match="'frame_length' is"):
            ProvisionResult.from_dict(doc)


class TestBatch:
    def test_matches_sequential_planner(self):
        requests = [ProvisionRequest(15, 2, 0.4),
                    ProvisionRequest(12, 2, "1/2"),
                    ProvisionRequest(12, 2, 0.5, balanced=True)]
        results = provision_batch(requests)
        for req, res in zip(requests, results):
            assert res.error is None
            assert res.plan == plan_schedule(req.n, req.d, req.max_duty,
                                             balanced=req.balanced)
            assert is_topology_transparent(res.plan.schedule, req.d)

    def test_duplicate_requests_computed_once(self, monkeypatch):
        calls = _count_constructions(monkeypatch)
        once = provision_batch([ProvisionRequest(12, 2, 0.5)])
        single_cost = len(calls)
        calls.clear()
        twice = provision_batch([ProvisionRequest(12, 2, 0.5),
                                 ProvisionRequest(12, 2, Fraction(1, 2))])
        assert len(calls) == single_cost  # float and exact dedupe together
        assert twice[0].plan == twice[1].plan == once[0].plan

    def test_error_isolated_per_request(self):
        results = provision_batch([ProvisionRequest(15, 2, 0.05),
                                   ProvisionRequest(15, 2, 0.4),
                                   ProvisionRequest(15, 99, 0.4)])
        assert "duty budget" in results[0].error
        assert results[1].error is None and results[1].plan is not None
        assert "D must be" in results[2].error
        assert results[0].plan is None and results[2].plan is None

    def test_result_to_dict_shapes(self):
        ok, bad = provision_batch([ProvisionRequest(12, 2, 0.5),
                                   ProvisionRequest(12, 2, 0.05)])
        doc = ok.to_dict()
        assert doc["family"] == ok.plan.family
        assert doc["schedule"]["format"] == "repro-schedule"
        assert "schedule" not in ok.to_dict(include_schedule=False)
        assert set(bad.to_dict()) == {"request", "error"}


class TestCaching:
    def test_second_batch_zero_constructions(self, store, monkeypatch):
        requests = [ProvisionRequest(15, 2, 0.4),
                    ProvisionRequest(12, 2, 0.5)]
        cold = provision_batch(requests, store=store)
        assert all(not r.from_cache for r in cold)
        calls = _count_constructions(monkeypatch)
        warm = provision_batch(requests, store=ScheduleStore(store.cache_dir))
        assert calls == []
        assert all(r.from_cache for r in warm)
        assert [r.plan for r in warm] == [r.plan for r in cold]

    def test_cold_request_constructs_only_its_winner(self, store,
                                                     monkeypatch):
        calls = _count_constructions(monkeypatch)
        result, = provision_batch([ProvisionRequest(12, 2, 0.5)],
                                  store=store)
        assert len(calls) == 1
        assert len(store) == store.stats.stores == 1  # its plan entry
        assert store.get_plan(12, 2, Fraction(1, 2), False) == result.plan

    def test_requests_sharing_a_winner_construct_it_once(self, store,
                                                         monkeypatch):
        """Budgets allowing the same awake slots share one winner; each
        request still gets its own plan entry."""
        calls = _count_constructions(monkeypatch)
        half, wider = provision_batch([ProvisionRequest(12, 2, "1/2"),
                                       ProvisionRequest(12, 2, "13/24")],
                                      store=store)
        assert len(calls) == 1
        assert half.plan == wider.plan
        assert len(store) == 2

    def test_no_store_means_no_disk(self, tmp_path):
        provision_batch([ProvisionRequest(12, 2, 0.5)], store=None)
        assert list(tmp_path.iterdir()) == []


class TestEncodeOnce:
    """A schedule's node lists are encoded once: a built winner's for its
    store entries and every result that serves it, and no stored or
    served byte moves."""

    def test_cold_request_encodes_its_schedule_once(self, store, texts,
                                                    monkeypatch):
        calls = _count_encodes(monkeypatch)
        result, = provision_batch([ProvisionRequest(12, 2, 0.5)],
                                  store=store)
        result.to_json()
        assert len(calls) == 1 and store.stats.stores == 1

    def test_memory_hit_encodes_no_schedule(self, store, texts, monkeypatch):
        request = ProvisionRequest(12, 2, 0.5)
        provision_batch([request], store=store)
        calls = _count_encodes(monkeypatch)
        memory, = provision_batch([request], store=store)
        text = memory.to_json()
        assert calls == []
        assert store.stats.memory_hits == 1 and memory.from_cache
        assert text == json.dumps(memory.to_dict())

    def test_shared_winner_entries_are_the_canonical_encoding(self, store):
        from repro.service.store import _canonical_json, plan_key

        half, wider = provision_batch([ProvisionRequest(12, 2, "1/2"),
                                       ProvisionRequest(12, 2, "13/24")],
                                      store=store)
        assert half.plan == wider.plan
        for budget in (Fraction(1, 2), Fraction(13, 24)):
            key = plan_key(12, 2, budget, False)
            assert store.entry_path(key).read_text() == _canonical_json(
                ScheduleStore._encode(key, half.plan)) + "\n"

    @pytest.mark.parametrize("balanced", [False, True])
    def test_cold_memory_and_disk_answers_serve_the_same_bytes(
            self, store, balanced):
        request = ProvisionRequest(12, 2, 0.5, balanced=balanced)
        storeless, = provision_batch([request])
        cold, = provision_batch([request], store=store)
        memory, = provision_batch([request], store=store)
        disk, = provision_batch([request],
                                store=ScheduleStore(store.cache_dir))
        assert store.stats.memory_hits == 1
        assert (cold.from_cache, memory.from_cache, disk.from_cache) == \
            (False, True, True)
        assert cold.to_json() == storeless.to_json()
        lines = set()
        for result in (cold, memory, disk):
            doc = json.loads(result.to_json())
            del doc["from_cache"]
            lines.add(json.dumps(doc))
        assert len(lines) == 1

    def test_the_document_stays_out_of_equality_and_repr(self, store):
        cold, = provision_batch([ProvisionRequest(12, 2, 0.5)], store=store)
        bare = ProvisionResult(cold.request, cold.plan)
        assert cold == bare and hash(cold) == hash(bare)
        assert repr(cold) == repr(bare)
        assert cold.to_json() == bare.to_json()
        assert ProvisionResult.from_dict(cold.to_dict()).to_dict() == \
            cold.to_dict()


#: Requests covering every kind of result line: plans balanced and not,
#: budgets as a float, a fraction string and a Fraction, a budget no
#: schedule fits and impossible class parameters.
MIXED = [ProvisionRequest(12, 2, 0.5),
         ProvisionRequest(12, 2, "1/2"),
         ProvisionRequest(12, 2, Fraction(1, 2)),
         ProvisionRequest(12, 2, "13/24", balanced=True),
         ProvisionRequest(16, 3, 0.5, balanced=True),
         ProvisionRequest(15, 2, Fraction(2, 5)),
         ProvisionRequest(15, 2, 0.05),
         ProvisionRequest(15, 99, 0.4)]


class TestToJson:
    """``to_json`` is ``json.dumps(to_dict())`` byte for byte, whatever
    answered the request and whatever the memo holds."""

    @staticmethod
    def _assert_dumped(results):
        for result in results:
            for include in (True, False):
                assert result.to_json(include_schedule=include) == \
                    json.dumps(result.to_dict(include_schedule=include))

    @pytest.mark.parametrize("answer", ["storeless", "cold", "memory",
                                        "disk"])
    def test_every_answer_is_the_dumped_document(self, store, texts,
                                                 answer):
        if answer == "storeless":
            results = provision_batch(MIXED)
        else:
            results = provision_batch(MIXED, store=store)
        if answer == "memory":
            results = provision_batch(MIXED, store=store)
            assert store.stats.memory_hits == 4
        if answer == "disk":
            fresh = ScheduleStore(store.cache_dir)
            results = provision_batch(MIXED, store=fresh)
            assert fresh.stats.disk_hits == 4
        plans = [r for r in results if r.error is None]
        assert len(plans) == 6
        assert all(r.from_cache == (answer in ("memory", "disk"))
                   for r in plans)
        assert "duty budget" in results[-2].error
        assert "D must be" in results[-1].error
        self._assert_dumped(results)   # texts kept by the batch or above
        texts.clear()
        self._assert_dumped(results)   # texts encoded by to_json

    def test_the_memo_key_is_the_schedule_value(self, texts):
        built, = provision_batch([ProvisionRequest(12, 2, 0.5)])
        copy = ProvisionResult.from_dict(built.to_dict())
        assert copy.plan.schedule == built.plan.schedule
        assert copy.plan.schedule is not built.plan.schedule
        assert copy.to_json() == built.to_json()
        assert len(texts) == 1


class TestScheduleTexts:
    """The memo's byte bound, recency and thread safety."""

    def test_filling_past_the_bound_evicts_the_least_recently_used(
            self, monkeypatch):
        schedules = [tdma_schedule(n) for n in range(3, 9)]
        sizes = [len(json.dumps(schedule_to_dict(s))) for s in schedules]
        memo = _ScheduleTexts(sum(sizes[-3:]))
        for schedule in schedules:
            memo.text(schedule)
        assert len(memo) == 3 and memo.nbytes == memo.max_bytes
        calls = _count_encodes(monkeypatch)
        for schedule in schedules[-3:]:
            memo.text(schedule)
        assert calls == []
        memo.text(schedules[-3])       # now the most recently used
        memo.text(schedules[0])        # encoded again; evicts schedules[-2]
        assert len(calls) == 1 and memo.nbytes <= memo.max_bytes
        memo.text(schedules[-3])
        assert len(calls) == 1
        memo.text(schedules[-2])
        assert len(calls) == 2 and memo.nbytes <= memo.max_bytes

    def test_a_text_longer_than_the_bound_is_not_kept(self):
        schedule = tdma_schedule(8)
        memo = _ScheduleTexts(10)
        assert memo.text(schedule) == json.dumps(schedule_to_dict(schedule))
        assert len(memo) == memo.nbytes == 0

    def test_threads_encoding_overlapping_schedules(self, monkeypatch):
        results = provision_batch(
            [ProvisionRequest(n, d, "1/2") for n in range(10, 22, 2)
             for d in (2, 3)])
        reference = [json.dumps(r.to_dict()) for r in results]
        # Room for about half the texts, so fills evict while others read.
        memo = _ScheduleTexts(sum(map(len, reference)) // 2)
        monkeypatch.setattr(api_mod, "_SCHEDULE_TEXTS", memo)
        threads, rounds = 8, 20
        wrong, errors = [], []

        def encode(i):
            try:
                for k in range(rounds * len(results)):
                    j = (i + k * (i + 1)) % len(results)
                    if results[j].to_json() != reference[j]:
                        wrong.append(j)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=encode, args=(i,))
                       for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == [] and wrong == []
        assert memo.nbytes == sum(map(len, memo._texts.values())) \
            <= memo.max_bytes


class TestResultDataclass:
    def test_frozen(self):
        result = provision_batch([ProvisionRequest(12, 2, 0.5)])[0]
        assert isinstance(result, ProvisionResult)
        with pytest.raises(AttributeError):
            result.from_cache = True  # type: ignore[misc]


class TestFaultTolerance:
    """A winner construction that raises, then warm resume."""

    def test_raising_construction_then_resume_from_checkpoint(
            self, store, monkeypatch):
        import repro.service.api as api_mod
        from repro.service.api import provision_batch_report

        real = api_mod.evaluate_grid_point
        built = []

        def second_one_raises(point, d, **kwargs):
            built.append(point)
            if len(built) == 2:
                raise RuntimeError("construction failed")
            return real(point, d, **kwargs)

        monkeypatch.setattr(api_mod, "evaluate_grid_point", second_one_raises)
        requests = [ProvisionRequest(12, 2, 0.5), ProvisionRequest(15, 2, 0.4)]

        # --- the second winner's construction raises, and so does the batch
        with pytest.raises(RuntimeError, match="construction failed"):
            provision_batch_report(requests, store=store)
        # The first winner was checkpointed as a plan entry the moment it
        # was built; the failed one left nothing behind.
        first = store.get_plan(12, 2, Fraction(1, 2), False)
        assert first == plan_schedule(12, 2, 0.5)
        assert store.get_plan(15, 2, Fraction(2, 5), False) is None

        # --- warm re-run: only the failed winner is constructed --------
        monkeypatch.undo()
        calls = _count_constructions(monkeypatch)
        warm_store = ScheduleStore(store.cache_dir)
        resumed = provision_batch_report(requests, store=warm_store)
        assert len(calls) == 1
        cached, final = resumed.results
        assert cached.from_cache and cached.plan == first
        assert not final.from_cache
        assert final.plan == plan_schedule(15, 2, 0.4)
        assert warm_store.stats.stores == 1  # the failed winner's plan

    def test_healthy_batch_report_shape(self, store):
        from repro.service.api import provision_batch_report

        report = provision_batch_report(
            [ProvisionRequest(12, 2, 0.5)], store=store)
        assert [r.error for r in report.results] == [None]
        assert report.store_stats is store.stats
        assert report.store_stats.stores == 1
