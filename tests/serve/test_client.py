"""The serve client: seeded backoff, retry policy, failure reporting."""

import socket
import time

import pytest

from repro.faults import FaultPlan, RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import BackgroundServer, ServeConfig
from repro.service.api import ProvisionRequest


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestBackoff:
    def test_delay_is_seeded_and_deterministic(self):
        a = ServeClient(port=1, seed=7)
        b = ServeClient(port=1, seed=7)
        delays = [a.policy.delay("/provision", k) for k in (1, 2, 3)]
        assert delays == [b.policy.delay("/provision", k) for k in (1, 2, 3)]

    def test_delay_matches_the_fault_plan_jitter(self):
        client = ServeClient(port=1, seed=3, backoff_base=0.1,
                             backoff_cap=10.0)
        jitter = FaultPlan(seed=3)
        for attempt in (1, 2, 3):
            expected = 0.1 * 2.0 ** (attempt - 1) \
                * jitter.backoff_jitter("/plan", attempt)
            assert client.policy.delay("/plan", attempt) == expected

    def test_delay_grows_then_caps(self):
        client = ServeClient(port=1, seed=0, backoff_base=0.1,
                             backoff_cap=0.4)
        # The jitter factor is in [0.5, 1.5): the capped delay never
        # exceeds cap * 1.5 no matter how deep the ladder goes.
        for attempt in (1, 2, 3, 4, 5):
            assert client.policy.delay("/x", attempt) < 0.4 * 1.5

    def test_distinct_seeds_distinct_schedules(self):
        a = ServeClient(port=1, seed=1)
        b = ServeClient(port=1, seed=2)
        assert [a.policy.delay("/p", k) for k in (1, 2, 3)] \
            != [b.policy.delay("/p", k) for k in (1, 2, 3)]


class TestRetries:
    def test_unreachable_server_raises_unavailable(self):
        client = ServeClient(port=_free_port(), timeout=1.0, retries=1,
                             backoff_base=0.001)
        with pytest.raises(ServeError) as excinfo:
            client.health()
        assert excinfo.value.code == "unavailable"
        assert excinfo.value.status == 0

    def test_retry_clears_transient_overload(self, monkeypatch):
        """A 503 overloaded response is retried; the retry succeeds."""
        # max_inflight=0 refuses every provisioning request outright.
        with BackgroundServer(ServeConfig(port=0, max_inflight=0)) as bs:
            client = ServeClient(bs.host, bs.port, retries=3,
                                 backoff_base=0.001)
            attempts = []

            def lifting_delay(policy, key, attempt, hint=None):
                # First backoff sleep: lift the overload so the retry
                # lands on a healthy admission bound.  ServeConfig is
                # frozen; tests may pry it open.
                attempts.append((attempt, hint))
                object.__setattr__(bs.server.config, "max_inflight", 64)
                return 0.001

            monkeypatch.setattr(RetryPolicy, "delay", lifting_delay)
            results = client.provision(
                [ProvisionRequest(12, 2, 0.5)], include_schedules=False)
            assert "error" not in results[0]
            assert len(attempts) == 1  # exactly one retry was needed
            attempt, hint = attempts[0]
            assert attempt == 1
            assert hint is not None and hint > 0  # the server sent a hint

    def test_overload_without_retries_raises_immediately(self):
        with BackgroundServer(ServeConfig(port=0, max_inflight=0)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            with pytest.raises(ServeError) as excinfo:
                client.provision([ProvisionRequest(12, 2, 0.5)])
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.status == 503

    def test_non_retryable_errors_hit_the_server_once(self):
        reg = MetricsRegistry()
        with BackgroundServer(ServeConfig(port=0), registry=reg) as bs:
            client = ServeClient(bs.host, bs.port, retries=3,
                                 backoff_base=0.001)
            with pytest.raises(ServeError) as excinfo:
                client.call("GET", "/no-such-endpoint")
            assert excinfo.value.code == "not-found"
            counter = reg.get("repro_serve_requests_total")
            assert counter.value(endpoint="/no-such-endpoint",
                                 code="404") == 1  # no retries happened


class TestRetryAfterHint:
    def test_hint_overrides_the_seeded_backoff(self):
        client = ServeClient(port=1, seed=0, backoff_cap=2.0)
        assert client.policy.delay("/p", 1, hint=0.25) == 0.25
        assert client.policy.delay("/p", 1, hint=99.0) == 2.0  # cap
        assert client.policy.delay("/p", 1) \
            == 0.05 * FaultPlan(seed=0).backoff_jitter("/p", 1)  # no hint

    def test_overloaded_error_carries_the_hint(self):
        with BackgroundServer(ServeConfig(port=0, max_inflight=0)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            with pytest.raises(ServeError) as excinfo:
                client.provision([ProvisionRequest(12, 2, 0.5)])
            exc = excinfo.value
            assert exc.code == "overloaded"
            assert exc.retryable
            assert exc.retry_after_s is not None and exc.retry_after_s > 0

    def test_non_retryable_errors_have_no_hint(self):
        with BackgroundServer(ServeConfig(port=0)) as bs:
            client = ServeClient(bs.host, bs.port, retries=0)
            with pytest.raises(ServeError) as excinfo:
                client.call("GET", "/no-such-endpoint")
            assert not excinfo.value.retryable
            assert excinfo.value.retry_after_s is None


class TestRetryBudget:
    def test_budget_must_be_non_negative(self):
        with pytest.raises(ValueError, match="retry_budget_s"):
            ServeClient(port=1, retry_budget_s=-1.0)

    def test_spent_budget_surfaces_the_final_outcome(self):
        """With a zero budget no retry sleep fits: one attempt only."""
        reg = MetricsRegistry()
        with BackgroundServer(ServeConfig(port=0, max_inflight=0),
                              registry=reg) as bs:
            client = ServeClient(bs.host, bs.port, retries=5,
                                 retry_budget_s=0.0)
            with pytest.raises(ServeError) as excinfo:
                client.provision([ProvisionRequest(12, 2, 0.5)])
            assert excinfo.value.code == "overloaded"
            counter = reg.get("repro_serve_requests_total")
            assert counter.value(endpoint="/provision", code="503") == 1

    def test_budget_bounds_unreachable_retries(self):
        client = ServeClient(port=_free_port(), timeout=1.0, retries=50,
                             backoff_base=10.0, retry_budget_s=0.5)
        start = time.monotonic()
        with pytest.raises(ServeError) as excinfo:
            client.health()
        assert excinfo.value.code == "unavailable"
        assert time.monotonic() - start < 5.0
