"""The coalescer: single-flight semantics, failure fan-out, shielding."""

import asyncio

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.coalesce import Coalescer


def run(coro):
    return asyncio.run(coro)


def _outcomes(registry):
    """``(led, joined)`` from ``repro_serve_coalesce_total``."""
    counter = registry.get("repro_serve_coalesce_total")
    return counter.value(result="led"), counter.value(result="joined")


class TestSingleFlight:
    def test_identical_keys_share_one_computation(self):
        async def main():
            calls = []
            started = asyncio.Event()
            release = asyncio.Event()

            async def compute():
                calls.append(1)
                started.set()
                await release.wait()
                return "plan"

            reg = MetricsRegistry()
            c = Coalescer(reg)
            tasks = [asyncio.ensure_future(c.run("k", compute))
                     for _ in range(10)]
            await started.wait()
            release.set()
            results = await asyncio.gather(*tasks)
            assert results == ["plan"] * 10
            assert len(calls) == 1
            assert _outcomes(reg) == (1, 9)

        run(main())

    def test_distinct_keys_compute_independently(self):
        def value(v):
            async def compute():
                return v
            return compute

        async def main():
            reg = MetricsRegistry()
            c = Coalescer(reg)
            a, b = await asyncio.gather(c.run("a", value("A")),
                                        c.run("b", value("B")))
            assert (a, b) == ("A", "B")
            assert _outcomes(reg) == (2, 0)

        run(main())

    def test_sequential_requests_do_not_coalesce(self):
        async def main():
            reg = MetricsRegistry()
            c = Coalescer(reg)
            calls = []

            async def compute():
                calls.append(1)
                return len(calls)

            assert await c.run("k", compute) == 1
            assert await c.run("k", compute) == 2
            assert _outcomes(reg) == (2, 0)

        run(main())


class TestFailures:
    def test_exception_fans_out_and_is_not_cached(self):
        async def main():
            c = Coalescer()
            attempts = []
            release = asyncio.Event()

            async def boom():
                attempts.append(1)
                await release.wait()
                raise RuntimeError("planner exploded")

            tasks = [asyncio.ensure_future(c.run("k", boom))
                     for _ in range(4)]
            await asyncio.sleep(0.01)
            release.set()
            for task in tasks:
                with pytest.raises(RuntimeError, match="planner exploded"):
                    await task
            assert len(attempts) == 1  # one flight served all four failures

            async def fine():
                return "recovered"

            # Failures are not cached: the next request leads afresh.
            assert await c.run("k", fine) == "recovered"

        run(main())

    def test_one_waiter_cancellation_spares_the_flight(self):
        async def main():
            c = Coalescer()
            release = asyncio.Event()

            async def compute():
                await release.wait()
                return "shared"

            leader = asyncio.ensure_future(c.run("k", compute))
            joiner = asyncio.ensure_future(c.run("k", compute))
            await asyncio.sleep(0.01)
            joiner.cancel()
            with pytest.raises(asyncio.CancelledError):
                await joiner
            release.set()
            # The flight survives its cancelled waiter.
            assert await leader == "shared"

        run(main())


class TestMetrics:
    def test_counters_live_in_the_given_registry(self):
        async def main():
            reg = MetricsRegistry()
            c = Coalescer(reg)

            async def compute():
                return 1

            await c.run("k", compute)
            counter = reg.get("repro_serve_coalesce_total")
            assert counter is not None
            assert counter.value(result="led") == 1.0
            assert counter.value(result="joined") == 0.0

        run(main())
