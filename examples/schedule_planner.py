#!/usr/bin/env python3
"""From an energy budget to a flashable schedule in one call.

The deployment-facing workflow: you know your class bound (n, D) and how
much radio-on time the battery allows; the planner searches every substrate
family and every (alpha_T, alpha_R) split inside the budget, scores each
candidate with the exact Theorem 2 throughput, and returns the winner.
The chosen schedule is then serialized to JSON (what you would flash) and
its worst-case per-hop latency is quoted via the exact access-delay
analysis.

Run:  python examples/schedule_planner.py
"""

import json
import tempfile
from pathlib import Path

from repro import (
    is_topology_transparent,
    load_schedule,
    plan_schedule,
    save_schedule,
    worst_link_access_delay,
)
from repro.core.latency import frame_delay_bound


def main() -> None:
    n, d = 20, 2
    print(f"Class N_{n}^{d}: up to {n} nodes, degree <= {d}")
    print()

    for budget in (0.25, 0.40, 0.60):
        plan = plan_schedule(n, d, max_duty=budget)
        print(f"Budget: radio on <= {budget:.0%} of slots")
        print(f"  chosen family      : {plan.family}")
        print(f"  (alpha_T, alpha_R) : ({plan.alpha_t}, {plan.alpha_r})")
        print(f"  frame length       : {plan.frame_length} slots")
        print(f"  actual duty cycle  : {float(plan.duty_cycle):.1%}")
        print(f"  worst-case avg thr : {float(plan.throughput):.5f}")
        print()

    # Take the middle plan through the deployment steps.
    plan = plan_schedule(n, d, max_duty=0.40)
    assert is_topology_transparent(plan.schedule, d)

    delay = worst_link_access_delay(plan.schedule, d)
    print(f"Exact worst-case per-hop delay: {delay} slots "
          f"(vs the generic 2L-1 = {frame_delay_bound(plan.schedule)} bound)")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "deployment.json"
        save_schedule(plan.schedule, path, meta=plan.meta(d, balanced=False))
        restored = load_schedule(path)
        assert restored == plan.schedule
        doc = json.loads(path.read_text())
        print(f"Serialized to {path.name}: {len(doc['tx'])} slots, "
              "round-trip verified.")


if __name__ == "__main__":
    main()
