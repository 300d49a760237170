"""RetryPolicy: the one seeded backoff and retry loop of the stack."""

import pytest

from repro.faults import FaultPlan, RetryPolicy
from repro.serve.client import ServeClient
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
        lambda k: Supervisor(["x"], config=SupervisorConfig(
            seed=9, backoff_base_s=0.2, backoff_cap_s=5.0)
        ).policy.delay("supervisor", k),
        [0.24385940229639058, 0.30725215821606056, 0.5359709585781155,
         2.015999485885678, 3.9818508691857164, 7.2975511578764625,
         3.8799718611178418],
        id="supervisor"),
    pytest.param(
        lambda k: RuntimeConfig().retry_policy(None).delay("abc", k),
        [0.0621447235988019, 0.12242682326321229, 0.15354999373174033,
         0.5918815510374053, 1.063111596528659, 0.8800521156929064,
         0.5544314907809301],
        id="runtime-default"),
    pytest.param(
        lambda k: RuntimeConfig()
        .retry_policy(FaultPlan(seed=11, link_loss=0.1)).delay("abc", k),
        [0.05886690934967203, 0.09282638045045002, 0.21596985284737574,
         0.5964001658690137, 1.1415927755426107, 0.7454566989753411,
         1.04322062553749],
        id="runtime-default-fault-plan"),
]


@pytest.mark.parametrize("delay, recorded", SITES)
def test_every_site_keeps_its_delay_sequence(delay, recorded):
    assert [delay(k) for k in range(1, 8)] == recorded


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
