"""Schedule serialization: JSON for interchange, compact dict round trips.

Deployments compute a schedule once (offline, on a workstation) and flash
it to motes; the interchange format here captures everything needed to
reproduce the slot tables plus the class parameters the guarantee is
quoted for.  The format is versioned and validated on load.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro._validation import check_int
from repro.combinatorics.coverfree import list_from_mask
from repro.core.schedule import Schedule

__all__ = ["schedule_to_dict", "schedule_from_dict", "save_schedule",
           "load_schedule", "topology_to_dict", "topology_from_dict",
           "family_to_dict", "family_from_dict"]

FORMAT_VERSION = 1


def schedule_to_dict(schedule: Schedule, *, meta: dict[str, Any] | None = None
                     ) -> dict[str, Any]:
    """Serializable representation: per-slot node lists plus metadata.

    Node lists (rather than opaque bitmask integers) keep the format
    readable and language-neutral; each list is ascending.
    """
    doc: dict[str, Any] = {
        "format": "repro-schedule",
        "version": FORMAT_VERSION,
        "n": schedule.n,
        "tx": [list_from_mask(m) for m in schedule.tx],
        "rx": [list_from_mask(m) for m in schedule.rx],
    }
    if meta:
        doc["meta"] = dict(meta)
    return doc


def schedule_from_dict(doc: dict[str, Any]) -> Schedule:
    """Inverse of :func:`schedule_to_dict`, with full validation.

    A member other than those :func:`schedule_to_dict` writes raises a
    ``ValueError`` naming it; ``meta`` is optional and not read.
    """
    if not isinstance(doc, dict):
        raise ValueError("schedule document must be a mapping")
    if doc.get("format") != "repro-schedule":
        raise ValueError(f"not a repro-schedule document: {doc.get('format')!r}")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported schedule format version {version!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )
    unknown = set(doc) - {"format", "version", "n", "tx", "rx", "meta"}
    if unknown:
        raise ValueError(f"schedule has unknown fields: {sorted(unknown)}")
    n = check_int(doc.get("n"), "n", minimum=1)
    tx = doc.get("tx")
    rx = doc.get("rx")
    if not isinstance(tx, list) or not isinstance(rx, list):
        raise ValueError("tx and rx must be lists of node lists")
    return Schedule.from_sets(n, tx, rx)


def topology_to_dict(topology) -> dict[str, Any]:
    """Serializable representation of a simulation topology."""
    return {
        "format": "repro-topology",
        "version": FORMAT_VERSION,
        "n": topology.n,
        "edges": [list(e) for e in sorted(topology.edges)],
    }


def topology_from_dict(doc: dict[str, Any]):
    """Inverse of :func:`topology_to_dict`, with validation."""
    from repro.simulation.topology import Topology

    if not isinstance(doc, dict) or doc.get("format") != "repro-topology":
        raise ValueError("not a repro-topology document")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported topology version {doc.get('version')!r}")
    n = check_int(doc.get("n"), "n", minimum=1)
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise ValueError("edges must be a list of pairs")
    return Topology.from_edges(n, [tuple(e) for e in edges])


def family_to_dict(family) -> dict[str, Any]:
    """Serializable representation of a cover-free family (element lists)."""
    return {
        "format": "repro-coverfree",
        "version": FORMAT_VERSION,
        "ground": family.ground,
        "blocks": [list_from_mask(b) for b in family.blocks],
    }


def family_from_dict(doc: dict[str, Any]):
    """Inverse of :func:`family_to_dict`, with validation."""
    from repro.combinatorics.coverfree import CoverFreeFamily

    if not isinstance(doc, dict) or doc.get("format") != "repro-coverfree":
        raise ValueError("not a repro-coverfree document")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported family version {doc.get('version')!r}")
    ground = check_int(doc.get("ground"), "ground", minimum=1)
    blocks = doc.get("blocks")
    if not isinstance(blocks, list):
        raise ValueError("blocks must be a list of element lists")
    return CoverFreeFamily.from_sets(ground, blocks)


def save_schedule(schedule: Schedule, path: str | Path, *,
                  meta: dict[str, Any] | None = None) -> None:
    """Write the schedule to *path* as JSON."""
    Path(path).write_text(
        json.dumps(schedule_to_dict(schedule, meta=meta), indent=2) + "\n")


def load_schedule(path: str | Path) -> Schedule:
    """Read a schedule previously written by :func:`save_schedule`."""
    return schedule_from_dict(json.loads(Path(path).read_text()))
