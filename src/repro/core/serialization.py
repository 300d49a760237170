"""Schedule serialization: JSON for interchange, compact dict round trips.

Deployments compute a schedule once (offline, on a workstation) and flash
it to motes; the interchange format here captures everything needed to
reproduce the slot tables plus the class parameters the guarantee is
quoted for.  The format is versioned and validated on load.

The module also holds the encoding and the file write that the store's
entries, the sweep's shard checkpoints and the server's pid and ready
files share: :func:`canonical_json`, its SHA-256 :func:`key_digest`, and
:func:`write_atomic`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import suppress
from pathlib import Path
from typing import Any

from repro._validation import check_int
from repro.combinatorics.coverfree import list_from_mask
from repro.core.schedule import Schedule

__all__ = ["schedule_to_dict", "schedule_from_dict", "save_schedule",
           "load_schedule", "topology_to_dict", "topology_from_dict",
           "family_to_dict", "family_from_dict", "canonical_json",
           "key_digest", "write_atomic"]

FORMAT_VERSION = 1


def canonical_json(doc: dict[str, Any]) -> str:
    """*doc* as canonical JSON: sorted keys and no whitespace.

    The encoding of key digests, store entries and sweep rows.  Without
    an indent, ``json.dumps`` stays on CPython's C encoder; any indent
    falls back to the pure-Python one.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def key_digest(key: dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON encoding of a key document.

    Canonical means sorted keys and no whitespace, so the digest is
    stable across processes, machines and Python versions — the property
    the cross-process key-stability test pins down.
    """
    return hashlib.sha256(canonical_json(key).encode("utf-8")).hexdigest()


#: ``open(path, "w")``'s flags; the file is created with mode 0o666, which
#: the umask narrows, as ``open`` does.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def write_atomic(path: Path, data: bytes) -> None:
    """Write *data* to *path* atomically: a tmp file, then ``os.replace``.

    A reader sees the old file or the whole new one, never a part.  The
    tmp file is ``.<name>.<pid>.<thread id>.tmp`` beside *path*, and a
    write that fails removes it before the error reaches the caller.
    Four system calls (open, write, close, rename), where a
    ``mkdir(exist_ok=True)`` and ``Path.write_text`` made about ten: each
    one drops the GIL, which a serving process may then wait a whole
    switch interval to take back from a planner thread that computes.
    A missing parent directory is made only when the open finds it
    missing, and the open is then retried once.
    """
    # Unique per writer: two pool threads (or processes) writing the
    # same path must not share a tmp file, or one writer's replace
    # consumes the file the other is about to move.
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        fd = os.open(tmp, _WRITE_FLAGS, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, _WRITE_FLAGS, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        # Readers look only for the final name, so a tmp file left by a
        # failed write would never be cleared.
        with suppress(OSError):
            os.unlink(tmp)
        raise


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
