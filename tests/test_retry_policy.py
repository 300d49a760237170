"""RetryPolicy: the one seeded backoff and retry loop of the stack."""

import socket

import pytest

from repro.faults import FaultPlan, RetryPolicy
from repro.serve.client import ServeClient, ServeError
from repro.serve.failover import CircuitBreaker, FailoverClient
from repro.serve.supervisor import Supervisor, SupervisorConfig
from repro.service.runtime import RuntimeConfig

#: The delays of retries 1..7 at every site that waits by the policy, as
#: each site's own backoff method computed them before the sites shared
#: one policy.  Exact float equality: the policy reproduces them bit for
#: bit.
SITES = [
    pytest.param(
        lambda k: ServeClient(port=1, seed=7).policy.delay("/provision", k),
        [0.0720700491189159, 0.08998708329963945, 0.10499019061623867,
         0.2744962426724136, 0.7651817648445827, 2.344331977366758,
         2.1251985728113842],
        id="client"),
    pytest.param(
        lambda k: ServeClient(port=1, seed=3, backoff_base=0.1,
                              backoff_cap=10.0).policy.delay("/plan", k),
        [0.11052130771037745, 0.20693283491771908, 0.26740033891360954,
         0.44278440045223777, 2.3501148617046383, 4.7733139211346325,
         8.828959863975271],
        id="client-wide-cap"),
    pytest.param(
        lambda k: FailoverClient(["h:1"], seed=4).policy.delay("/healthz", k),
        [0.06012093963460257, 0.12764476028757854, 0.2364427398957091,
         0.49400347881076545, 1.0529644026523788, 1.3293746091708247,
         2.6870797124078702],
        id="failover"),
    pytest.param(
        lambda k: Supervisor(["x"], config=SupervisorConfig(
            seed=9, backoff_base_s=0.2, backoff_cap_s=5.0)
        ).policy.delay("supervisor", k),
        [0.24385940229639058, 0.30725215821606056, 0.5359709585781155,
         2.015999485885678, 3.9818508691857164, 7.2975511578764625,
         3.8799718611178418],
        id="supervisor"),
    pytest.param(
        lambda k: RuntimeConfig(backoff_base=0.1, backoff_cap=0.3, seed=4)
        .retry_policy(None).delay("abc", k),
        [0.05913949018419617, 0.2731140271785783, 0.348900743601775,
         0.35803165259652436, 0.33479579564058526, 0.20546052746350082,
         0.24955826211905394],
        id="runtime"),
    pytest.param(
        lambda k: RuntimeConfig(backoff_base=0.1, backoff_cap=0.3, seed=4)
        .retry_policy(FaultPlan(seed=11, link_loss=0.1)).delay("abc", k),
        [0.11773381869934406, 0.18565276090090005, 0.3239547792710636,
         0.44730012440176026, 0.428097290828479, 0.2236370096926023,
         0.312966187661247],
        id="runtime-fault-plan"),
    pytest.param(
        lambda k: CircuitBreaker("a:1", reset_timeout_s=1.0,
                                 plan=FaultPlan(seed=5))
        .policy.delay("breaker:a:1", k),
        [0.5552942581468784, 1.2374302119964855, 1.146718545558219,
         1.0860407088233746, 0.951542390251195, 1.2058305065657595,
         0.8258519976416507],
        id="breaker"),
    pytest.param(
        lambda k: CircuitBreaker("127.0.0.1:9", reset_timeout_s=0.3)
        .policy.delay("breaker:127.0.0.1:9", k),
        [0.4281410967912856, 0.18191734479256683, 0.4165591760365295,
         0.2500825446396343, 0.4056812328053299, 0.3254824566604785,
         0.41951002231242723],
        id="breaker-default-plan"),
]


@pytest.mark.parametrize("delay, recorded", SITES)
def test_every_site_keeps_its_delay_sequence(delay, recorded):
    assert [delay(k) for k in range(1, 8)] == recorded


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_failover_loop_keeps_its_sleep_sequence():
    """Two dead endpoints: the recorded seeded backoffs until both
    breakers are open, then the wait until the soonest half-open probe
    (the endpoint name, and so its probe delay, varies with the port)."""
    name = f"127.0.0.1:{_free_port()}"
    sleeps = []
    fc = FailoverClient([name, name], retries=6, seed=4, timeout=5.0,
                        failure_threshold=1, breaker_reset_s=0.5,
                        sleep=sleeps.append, clock=lambda: 0.0)
    with pytest.raises(ServeError) as excinfo:
        fc.health()
    assert excinfo.value.code == "unavailable"
    probe = fc.breaker(name).policy.delay(f"breaker:{name}", 1)
    assert sleeps == [0.06012093963460257, 0.12764476028757854] \
        + [probe] * 4


def test_validation():
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(base=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(cap=-1.0)
    with pytest.raises(ValueError, match="retry_budget_s"):
        RetryPolicy(budget_s=-1.0)
    with pytest.raises(TypeError):
        RetryPolicy(seed=1.5)


class TestRun:
    def test_final_outcome_returns_without_waiting(self):
        sleeps = []
        outcome = RetryPolicy().run("/p", lambda n: ("done", False, None),
                                    sleep=sleeps.append)
        assert outcome == "done" and sleeps == []

    def test_retries_until_final_with_seeded_waits(self):
        policy = RetryPolicy(retries=5, seed=4)
        sleeps, seen = [], []

        def attempt(n):
            seen.append(n)
            return f"try{n}", n < 2, None

        assert policy.run("/p", attempt, sleep=sleeps.append) == "try2"
        assert seen == [0, 1, 2]
        assert sleeps == [policy.delay("/p", 1), policy.delay("/p", 2)]

    def test_spent_retries_return_the_last_outcome(self):
        sleeps = []
        outcome = RetryPolicy(retries=2).run(
            "/p", lambda n: (n, True, None), sleep=sleeps.append)
        assert outcome == 2 and len(sleeps) == 2

    def test_hints_steer_the_waits(self):
        sleeps = []
        hints = iter([0.25, 99.0])
        RetryPolicy(retries=2, cap=1.0).run(
            "/p", lambda n: (n, True, next(hints, None)),
            sleep=sleeps.append)
        assert sleeps == [0.25, 1.0]

    def test_budget_stops_before_a_wait_would_overrun_it(self):
        now = [0.0]
        sleeps = []

        def sleep(delay):
            sleeps.append(delay)
            now[0] += delay

        policy = RetryPolicy(retries=50, base=0.1, cap=0.1, budget_s=0.35)
        outcome = policy.run("/p", lambda n: (n, True, None),
                             clock=lambda: now[0], sleep=sleep)
        assert outcome == len(sleeps) > 0
        assert sum(sleeps) <= 0.35
        assert sum(sleeps) + policy.delay("/p", len(sleeps) + 1) > 0.35

    def test_exceptions_propagate_at_once(self):
        sleeps = []

        def attempt(n):
            raise LookupError("a verdict, not a retryable failure")

        with pytest.raises(LookupError):
            RetryPolicy().run("/p", attempt, sleep=sleeps.append)
        assert sleeps == []
