"""The batch provisioning API: parity with the sequential planner,
deduplication, caching and warm resume."""

from fractions import Fraction

import pytest

import repro.core.planner as planner_mod
from repro.core.planner import plan_schedule
from repro.core.transparency import is_topology_transparent
from repro.service.api import ProvisionRequest, ProvisionResult, provision_batch
from repro.service.store import ScheduleStore


@pytest.fixture
def store(tmp_path) -> ScheduleStore:
    """A store rooted in a fresh temporary directory."""
    return ScheduleStore(tmp_path / "cache")


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
