"""Ablations of DESIGN.md's called-out design choices.

1. **Slot-set representation**: the exact transparency decision on
   Python-int bitmasks, the representation the production code uses.
   A NumPy boolean-row twin measured 6.5-11.5x slower (EXPERIMENTS.md).
2. **Division strategy** in Figure 2: contiguous vs balanced chunking —
   construction cost and frame-length overhead.
3. **Source family**: polynomial vs MOLS/transversal-design frame lengths
   at orders where the prime-power constraint binds.
"""

import pytest

from repro.core.construction import construct
from repro.core.nonsleeping import mols_schedule, polynomial_schedule
from repro.core.transparency import is_topology_transparent


@pytest.mark.parametrize("n", [9, 16, 25])
def test_bitmask_checker(benchmark, n):
    sched = polynomial_schedule(n, 2)
    assert benchmark(lambda: is_topology_transparent(sched, 2))


@pytest.mark.parametrize("balanced", [False, True],
                         ids=["contiguous", "balanced"])
def test_division_strategy_cost(benchmark, balanced):
    source = polynomial_schedule(49, 3)
    built = benchmark(lambda: construct(source, 3, 3, 10, balanced=balanced))
    assert built.is_alpha_schedule(3, 10)


def test_division_strategy_frame_overhead(benchmark, report):
    """Not a timing: records the frame-length price of exact balance."""
    from repro.analysis.tables import Table

    def build():
        table = Table("n", "D", "alpha_t", "alpha_r", "L_contiguous",
                      "L_balanced", "overhead",
                      title="Balanced-division frame-length overhead")
        for n, d, at, ar in [(25, 3, 4, 10), (25, 4, 3, 10), (49, 3, 3, 10)]:
            source = polynomial_schedule(n, d)
            plain = construct(source, d, at, ar, balanced=False).frame_length
            bal = construct(source, d, at, ar, balanced=True).frame_length
            table.row(n=n, D=d, alpha_t=at, alpha_r=ar, L_contiguous=plain,
                      L_balanced=bal, overhead=bal / plain)
            assert bal >= plain
        return table

    report(benchmark.pedantic(build, rounds=2, iterations=1),
           "ablation_division")


def test_family_frame_lengths(benchmark, report):
    """MOLS fills the non-prime-power gaps the polynomial family cannot."""
    from repro.analysis.tables import Table

    def build():
        table = Table("n", "D", "polynomial_L", "mols_L", "mols_wins",
                      title="Polynomial vs transversal-design frame lengths")
        for n, d in [(36, 2), (100, 2), (81, 2), (100, 3), (144, 2)]:
            poly = polynomial_schedule(n, d).frame_length
            td = mols_schedule(n, d).frame_length
            table.row(n=n, D=d, polynomial_L=poly, mols_L=td,
                      mols_wins=td < poly)
        return table

    report(benchmark.pedantic(build, rounds=2, iterations=1),
           "ablation_families")
