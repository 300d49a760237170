"""E-service — the provisioning service: warm-cache batches.

The deployment story is "compute `<T, R>` once, flash it to motes"; the
service layer makes that literal for repeated workloads.  This sweep
provisions a mixed batch of ``(n, D, duty)`` requests through
:func:`repro.service.api.provision_batch` twice against one schedule
store and asserts the service's contract: a **warm batch performs zero
constructions** — every plan is a content-addressed cache hit (counted
by intercepting the planner's ``construct_detailed``), which is what
turns the planner's hot path into a lookup.
"""

from repro.analysis.tables import Table
from repro.service.api import ProvisionRequest, provision_batch
from repro.service.store import ScheduleStore

REQUESTS = [
    ProvisionRequest(12, 2, 0.5),
    ProvisionRequest(15, 2, 0.4),
    ProvisionRequest(15, 2, 0.6),
    ProvisionRequest(16, 3, 0.5),
    ProvisionRequest(12, 2, 0.5, balanced=True),
]


def test_provision_batch_warm(benchmark, report, tmp_path, monkeypatch):
    store = ScheduleStore(tmp_path / "cache")
    cold = provision_batch(REQUESTS, store=store)

    import repro.core.planner as planner_mod
    calls = []
    real = planner_mod.construct_detailed
    monkeypatch.setattr(planner_mod, "construct_detailed",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))

    warm = benchmark.pedantic(
        lambda: provision_batch(REQUESTS,
                                store=ScheduleStore(store.cache_dir)),
        rounds=3, iterations=1)
    # The service contract: a warm batch is pure lookups.
    assert calls == []
    assert all(r.from_cache for r in warm)
    assert [r.plan for r in warm] == [r.plan for r in cold]

    table = Table("n", "D", "max_duty", "balanced", "family", "alpha_t",
                  "alpha_r", "L", "duty", "throughput",
                  title="Provisioned batch (warm run: zero constructions, "
                        f"{len(store)} store entries)")
    for res in warm:
        req, plan = res.request, res.plan
        table.row(n=req.n, D=req.d, max_duty=str(req.max_duty),
                  balanced=req.balanced, family=plan.family,
                  alpha_t=plan.alpha_t, alpha_r=plan.alpha_r,
                  L=plan.frame_length, duty=float(plan.duty_cycle),
                  throughput=float(plan.throughput))
    report(table, "provision_batch")

