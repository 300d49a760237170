"""The failover client: circuit breakers, endpoint rotation, budgets."""

import socket

import pytest

from repro.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import ServeError
from repro.serve.failover import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    FailoverClient,
)
from repro.serve.server import BackgroundServer, ServeConfig


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker("a:1", failure_threshold=3, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker("a:1", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker("a:1", failure_threshold=1,
                                 reset_timeout_s=1.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()  # timeout not yet elapsed
        clock.now = breaker.seconds_until_probe() + 0.001
        assert breaker.allow()  # the probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()  # nothing else while it is in flight

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker("a:1", failure_threshold=1, clock=clock)
        breaker.record_failure()
        clock.now = 100.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_with_fresh_seeded_delay(self):
        clock = FakeClock()
        breaker = CircuitBreaker("a:1", failure_threshold=1,
                                 reset_timeout_s=1.0, clock=clock)
        breaker.record_failure()
        first = breaker.seconds_until_probe()
        clock.now = first + 0.001
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.opens == 2
        assert breaker.seconds_until_probe() == pytest.approx(
            breaker.policy.delay("breaker:a:1", 2), abs=0.01)

    def test_reset_delay_is_seeded_per_endpoint(self):
        plan = FaultPlan(seed=5)
        a = CircuitBreaker("a:1", plan=plan)
        b = CircuitBreaker("a:1", plan=FaultPlan(seed=5))
        other = CircuitBreaker("b:1", plan=plan)
        assert [a.policy.delay("breaker:a:1", k) for k in (1, 2, 3)] \
            == [b.policy.delay("breaker:a:1", k) for k in (1, 2, 3)]
        assert [a.policy.delay("breaker:a:1", k) for k in (1, 2, 3)] \
            != [other.policy.delay("breaker:b:1", k) for k in (1, 2, 3)]

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("a:1", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("a:1", reset_timeout_s=0.0)


class TestFailoverClient:
    def test_endpoint_specs(self):
        fc = FailoverClient(["h:1", ("other", 2)])
        assert fc.endpoints == ["h:1", "other:2"]
        with pytest.raises(ValueError):
            FailoverClient([])
        with pytest.raises(ValueError):
            FailoverClient(["no-port"])

    def test_survives_a_dead_endpoint(self):
        reg = MetricsRegistry()
        with BackgroundServer(ServeConfig(port=0)) as bs:
            dead = f"127.0.0.1:{_free_port()}"
            live = f"{bs.host}:{bs.port}"
            fc = FailoverClient([dead, live], retries=4, timeout=5.0,
                                backoff_base=0.001, failure_threshold=2,
                                registry=reg)
            for _ in range(6):
                assert fc.health()["ok"] is True
            # The dead endpoint's breaker opened; the live one is closed.
            states = fc.breaker_states()
            assert states[live] == BREAKER_CLOSED
            assert states[dead] == BREAKER_OPEN
            requests = reg.get("repro_failover_requests_total")
            assert requests.value(endpoint=live, outcome="ok") == 6
            assert requests.value(endpoint=dead, outcome="failed") >= 2
            gauge = reg.get("repro_failover_breaker_open")
            assert gauge.value(endpoint=dead) == 1.0

    def test_open_breaker_skips_the_endpoint(self):
        with BackgroundServer(ServeConfig(port=0)) as bs:
            dead = f"127.0.0.1:{_free_port()}"
            fc = FailoverClient([dead, f"{bs.host}:{bs.port}"],
                                retries=4, timeout=5.0, backoff_base=0.001,
                                failure_threshold=1, breaker_reset_s=60.0)
            fc.health()
            assert fc.breaker(dead).state == BREAKER_OPEN
            # With the breaker open the dead endpoint is never dialled:
            # every further call succeeds on the first attempt.
            requests_before = fc.breaker(dead).opens
            for _ in range(5):
                assert fc.health()["ok"] is True
            assert fc.breaker(dead).opens == requests_before

    def test_non_retryable_verdict_raises_immediately(self):
        reg = MetricsRegistry()
        with BackgroundServer(ServeConfig(port=0)) as bs:
            name = f"{bs.host}:{bs.port}"
            fc = FailoverClient([name], retries=5, backoff_base=0.001,
                                registry=reg)
            with pytest.raises(ServeError) as excinfo:
                fc.call("GET", "/no-such-endpoint")
            assert excinfo.value.code == "not-found"
            requests = reg.get("repro_failover_requests_total")
            assert requests.value(endpoint=name, outcome="rejected") == 1
            # An authoritative answer is endpoint health, not failure.
            assert fc.breaker(name).state == BREAKER_CLOSED

    def test_all_endpoints_dead_raises_last_error(self):
        sleeps = []
        fc = FailoverClient([f"127.0.0.1:{_free_port()}"], retries=2,
                            timeout=2.0, backoff_base=0.001,
                            sleep=sleeps.append)
        with pytest.raises(ServeError) as excinfo:
            fc.health()
        assert excinfo.value.code == "unavailable"
        assert len(sleeps) == 2

    def test_retry_budget_stops_the_storm(self):
        clock = FakeClock()
        sleeps = []

        def sleeping(delay):
            sleeps.append(delay)
            clock.now += delay

        fc = FailoverClient([f"127.0.0.1:{_free_port()}"], retries=50,
                            timeout=2.0, backoff_base=10.0,
                            retry_budget_s=0.5, clock=clock, sleep=sleeping)
        with pytest.raises(ServeError):
            fc.health()
        # The first sleep (~10s * jitter) would already overrun the
        # 0.5s budget, so no sleep ever happens.
        assert sleeps == []

    def test_exhausted_counter_and_determinism(self):
        reg = MetricsRegistry()
        port = _free_port()
        a = FailoverClient([f"127.0.0.1:{port}"], retries=3, seed=4,
                           timeout=2.0, registry=reg, sleep=lambda _d: None)
        b = FailoverClient([f"127.0.0.1:{port}"], retries=3, seed=4,
                           timeout=2.0, sleep=lambda _d: None)
        assert [a.policy.delay("/healthz", k) for k in (1, 2, 3)] \
            == [b.policy.delay("/healthz", k) for k in (1, 2, 3)]
        with pytest.raises(ServeError):
            a.health()
        assert reg.get("repro_failover_exhausted_total").value() == 1
