"""repro — Topology-Transparent Duty Cycling for Wireless Sensor Networks.

A complete, from-scratch reproduction of Chen, Fleury and Syrotiuk (IPPS
2007): the schedule model, the topology-transparency requirements and their
equivalence, the worst-case throughput theory (Theorems 2-4), the Figure 2
construction with its guarantees (Theorems 6-9), the design-theoretic
substrate that supplies topology-transparent non-sleeping schedules
(finite fields, orthogonal arrays, Steiner systems, cover-free families),
and a slot-synchronous WSN simulator for empirical validation.

Quickstart
----------
>>> import repro
>>> source = repro.polynomial_schedule(n=25, d=3)      # TT non-sleeping <T>
>>> repro.is_topology_transparent(source, d=3)
True
>>> duty = repro.construct(source, d=3, alpha_t=4, alpha_r=8)
>>> duty.is_alpha_schedule(4, 8)
True
>>> repro.is_topology_transparent(duty, d=3)
True
>>> float(duty.average_duty_cycle()) < 1.0             # nodes actually sleep
True

Package layout
--------------
``repro.core``
    The paper's contribution: schedules, transparency requirements,
    throughput theory, the Figure 2 construction, non-sleeping factories.
``repro.combinatorics``
    Design-theory substrate: GF(p^m), polynomial codes / orthogonal
    arrays, Steiner systems, projective planes, cover-free families.
``repro.simulation``
    Slot-synchronous discrete-event WSN simulator implementing the paper's
    collision model, with topology generators, traffic, energy accounting,
    routing and an optional clock-drift probe.
``repro.baselines``
    Comparison schemes: naive k-slot duty cycling and topology-dependent
    distance-2 colouring TDMA.
``repro.analysis``
    Sweep/table utilities and one entry point per paper artefact
    (Figure 1, Theorems 2-9) shared by the benchmark harness and examples.
``repro.service``
    Schedule provisioning at scale: a persistent content-addressed
    schedule store, the batch request API behind ``repro provision``,
    and the fault-tolerant runtime sweeps shard over.
"""

from repro.core import (
    Schedule,
    free_slots,
    sigma,
    satisfies_requirement1,
    satisfies_requirement2,
    satisfies_requirement3,
    is_topology_transparent,
    find_transparency_violation,
    guaranteed_slots,
    min_throughput,
    average_throughput,
    average_throughput_bruteforce,
    g,
    g_upper_bound,
    optimal_transmitters_general,
    general_upper_bound,
    optimal_transmitters_constrained,
    constrained_upper_bound,
    r_ratio,
    thm8_ratio_lower_bound,
    thm9_min_throughput_bound,
    construct,
    construct_exact,
    frame_length_formula,
    tdma_schedule,
    from_cover_free_family,
    polynomial_schedule,
    steiner_schedule,
    projective_plane_schedule,
    mols_schedule,
    best_nonsleeping_schedule,
    max_cyclic_gap,
    link_access_delay,
    worst_link_access_delay,
    path_delay_bound,
    frame_delay_bound,
    Plan,
    plan_schedule,
    candidate_sources,
    schedule_to_dict,
    schedule_from_dict,
    save_schedule,
    load_schedule,
    permute_slots,
    relabel_nodes,
    concatenate,
    rotate,
    interleave_construction,
)
from repro.combinatorics import CoverFreeFamily, GF
from repro.service import (
    ProvisionRequest,
    ProvisionResult,
    ScheduleStore,
    provision_batch,
)

__version__ = "1.0.0"

__all__ = [
    "Schedule",
    "CoverFreeFamily",
    "GF",
    "free_slots",
    "sigma",
    "satisfies_requirement1",
    "satisfies_requirement2",
    "satisfies_requirement3",
    "is_topology_transparent",
    "find_transparency_violation",
    "guaranteed_slots",
    "min_throughput",
    "average_throughput",
    "average_throughput_bruteforce",
    "g",
    "g_upper_bound",
    "optimal_transmitters_general",
    "general_upper_bound",
    "optimal_transmitters_constrained",
    "constrained_upper_bound",
    "r_ratio",
    "thm8_ratio_lower_bound",
    "thm9_min_throughput_bound",
    "construct",
    "construct_exact",
    "frame_length_formula",
    "tdma_schedule",
    "from_cover_free_family",
    "polynomial_schedule",
    "steiner_schedule",
    "projective_plane_schedule",
    "mols_schedule",
    "best_nonsleeping_schedule",
    "max_cyclic_gap",
    "link_access_delay",
    "worst_link_access_delay",
    "path_delay_bound",
    "frame_delay_bound",
    "Plan",
    "plan_schedule",
    "candidate_sources",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
    "permute_slots",
    "relabel_nodes",
    "concatenate",
    "rotate",
    "interleave_construction",
    "ProvisionRequest",
    "ProvisionResult",
    "ScheduleStore",
    "provision_batch",
    "__version__",
]
