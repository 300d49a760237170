"""Content-addressed, versioned on-disk store for schedules and plans.

Deployments compute a schedule once and flash it to motes; a provisioning
service answering many ``(n, D, duty)`` requests should therefore compute
each schedule once, ever.  :class:`ScheduleStore` memoizes the planner's
work as **plan entries**: the winning :class:`~repro.core.planner.Plan`
of a full budget search, keyed by ``(n, D, max_duty, balanced,
FORMAT_VERSION)``.

Earlier versions also stored each constructed grid point as an **eval
entry**; the planner now scores its grid in closed form and never reads
them, while :meth:`ScheduleStore.scrub` still checks them and
:meth:`ScheduleStore.clear` removes them.

Keys are canonical JSON documents hashed with SHA-256 (content
addressing: the digest is the filename, so the key space shards evenly
and is safe to distribute later).  Payloads reuse the versioned
interchange format of :mod:`repro.core.serialization` — a cache entry is
a superset of a flashable schedule file.  Durability rules:

* writes are atomic (`tmp` file + ``os.replace``) so a crashed process
  never leaves a half-written entry, and a write that fails removes its
  `tmp` file before the error reaches the caller;
* entries are canonical JSON on one line (sorted keys, no whitespace);
  readers only ``json.loads`` them, so indented entries written by
  earlier versions still load;
* loads are corruption-tolerant: any unreadable, unparsable, key-mismatched,
  mistyped or semantically invalid entry is **quarantined** — moved into
  ``cache_dir/quarantine/`` for post-mortem instead of silently destroyed
  — and reported as a miss, never raised; the worst case is
  recomputation.  The entry's plan is read by
  :meth:`~repro.core.planner.Plan.from_dict`, as strictly as a result line,
  and a member beyond the four an entry holds (``format``, ``version``,
  ``key``, ``plan``) fails the read as well;
* :meth:`ScheduleStore.scrub` is the offline integrity pass: it re-hashes
  and re-validates every entry on disk (``repro store scrub``), so silent
  corruption is found before a client ever asks for the entry;
* bumping :data:`repro.core.serialization.FORMAT_VERSION` invalidates
  every entry implicitly, because the version participates in the key.

A small in-memory LRU sits in front of the disk so hot keys skip JSON
parsing entirely; :meth:`ScheduleStore.get_memory_plan` reads it alone,
for a caller that must not wait on the disk.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any

from repro._validation import check_int
from repro.core.planner import Plan
from repro.core.serialization import (
    FORMAT_VERSION,
    canonical_json,
    key_digest,
    schedule_to_dict,
    write_atomic,
)
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import default_tracer

_log = get_logger("service.store")

__all__ = ["ScheduleStore", "StoreStats", "ScrubReport", "eval_key",
           "plan_key", "key_digest", "default_cache_dir", "QUARANTINE_DIR"]

#: Subdirectory of the cache root that holds quarantined entries.  Its
#: name is longer than the two-character digest shards, so entry walks
#: (``glob("??/*.json")``) can never pick quarantined files back up.
QUARANTINE_DIR = "quarantine"

#: Plans the in-memory LRU front of a :class:`ScheduleStore` holds.
_MEMORY_SLOTS = 256


def default_cache_dir() -> Path:
    """The conventional per-user cache location (XDG aware)."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro" / "schedules"


def eval_key(family: str, n: int, d: int, alpha_t: int, alpha_r: int,
             balanced: bool) -> dict[str, Any]:
    """Canonical key document for one grid point's evaluation entry."""
    return {
        "kind": "eval",
        "family": str(family),
        "n": check_int(n, "n", minimum=1),
        "d": check_int(d, "d", minimum=1),
        "alpha_t": check_int(alpha_t, "alpha_t", minimum=1),
        "alpha_r": check_int(alpha_r, "alpha_r", minimum=1),
        "balanced": bool(balanced),
        "version": FORMAT_VERSION,
    }


def plan_key(n: int, d: int, budget: Fraction, balanced: bool) -> dict[str, Any]:
    """Canonical key document for a full budget-search result."""
    return {
        "kind": "plan",
        "n": check_int(n, "n", minimum=1),
        "d": check_int(d, "d", minimum=1),
        "max_duty": str(Fraction(budget)),
        "balanced": bool(balanced),
        "version": FORMAT_VERSION,
    }


class StoreStats:
    """A view over the store's registry counters, API-compatible with the
    old bespoke arithmetic.

    The numbers now live in :class:`repro.obs.metrics.MetricsRegistry`
    series (``repro_store_lookups_total{result=...}``,
    ``repro_store_writes_total``, ``repro_store_corruptions_total``,
    ``repro_store_evictions_total``) so one ``--metrics-out`` file
    carries them alongside every other subsystem; this class reads those
    series back as the familiar attributes.

    Attributes
    ----------
    memory_hits, disk_hits:
        Lookups served by the LRU front and by on-disk entries.
    misses:
        Lookups that found nothing (the caller will recompute).
    stores:
        Entries written.
    corruptions:
        Entries that existed but failed to load (unparsable, key
        mismatch, semantically invalid).  Each is reported as a miss; the
        counter is the store's quiet-failure audit trail.
    evictions:
        Corrupt entries actually removed (unlinked) during a failed load;
        lags :attr:`corruptions` only when the unlink itself fails.
    last_corruption:
        Filename and reason of the most recent corrupt load, for
        diagnosis without digging through logs.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        """Bind the view (and its counter series) to *registry*.

        With ``registry=None`` a private registry is created, so every
        :class:`ScheduleStore` keeps isolated statistics by default;
        pass a shared registry (the CLI passes its per-invocation one)
        to surface the counters in an exported snapshot.
        """
        self.registry = registry if registry is not None else MetricsRegistry()
        lookups = self.registry.counter(
            "repro_store_lookups_total",
            "Schedule-store lookups by result "
            "(memory_hit / disk_hit / miss).")
        self._memory_hits = lookups.labels(result="memory_hit")
        self._disk_hits = lookups.labels(result="disk_hit")
        self._misses = lookups.labels(result="miss")
        self._stores = self.registry.counter(
            "repro_store_writes_total", "Schedule-store entries written."
        ).labels()
        self._corruptions = self.registry.counter(
            "repro_store_corruptions_total",
            "Cache entries that existed but failed to load.").labels()
        self._evictions = self.registry.counter(
            "repro_store_evictions_total",
            "Corrupt cache entries removed during a failed load.").labels()
        self.last_corruption: str | None = None

    # -- properties the historical dataclass exposed ---------------------
    @property
    def memory_hits(self) -> int:
        """Lookups served by the in-memory LRU front."""
        return int(self._memory_hits.value)

    @property
    def disk_hits(self) -> int:
        """Lookups served by parsing an on-disk entry."""
        return int(self._disk_hits.value)

    @property
    def misses(self) -> int:
        """Lookups that found nothing usable (corrupt loads included)."""
        return int(self._misses.value)

    @property
    def stores(self) -> int:
        """Entries written (one per winning plan stored)."""
        return int(self._stores.value)

    @property
    def corruptions(self) -> int:
        """Entries that existed but failed to load."""
        return int(self._corruptions.value)

    @property
    def evictions(self) -> int:
        """Corrupt entries actually unlinked."""
        return int(self._evictions.value)

    @property
    def hits(self) -> int:
        """Total lookups served from either layer."""
        return self.memory_hits + self.disk_hits

    # -- recording (ScheduleStore-facing) --------------------------------
    def record_memory_hit(self) -> None:
        """Count a lookup served by the LRU front."""
        self._memory_hits.inc()

    def record_disk_hit(self) -> None:
        """Count a lookup served by an on-disk entry."""
        self._disk_hits.inc()

    def record_miss(self) -> None:
        """Count a lookup that found nothing."""
        self._misses.inc()

    def record_store(self) -> None:
        """Count an entry written."""
        self._stores.inc()

    def record_corruption(self, description: str) -> None:
        """Count a corrupt load (also remembered in `last_corruption`)."""
        self._corruptions.inc()
        self.last_corruption = description

    def record_eviction(self) -> None:
        """Count a corrupt entry actually unlinked."""
        self._evictions.inc()

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot of every counter.

        This is what :class:`~repro.service.api.BatchReport` and
        ``repro provision --stats`` surface.
        """
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corruptions": self.corruptions,
            "evictions": self.evictions,
            "last_corruption": self.last_corruption,
        }

    def to_metrics_dict(self) -> dict[str, Any]:
        """The ``repro provision --stats`` document (see docs/observability.md).

        Routed through the metrics exporter: the ``metrics`` key holds the
        registry snapshot restricted to the store's ``repro_store_*``
        series (same shape as a :meth:`MetricsRegistry.snapshot`), while
        the historical flat keys (``hits``/``misses``/``stores``/...)
        remain at top level as aliases for existing consumers.
        """
        snap = self.registry.snapshot()
        doc = self.to_dict()
        doc["metrics"] = {
            "format": snap["format"],
            "version": snap["version"],
            "counters": {name: series
                         for name, series in snap["counters"].items()
                         if name.startswith("repro_store_")},
        }
        return doc


class ScrubReport:
    """Outcome of one :meth:`ScheduleStore.scrub` integrity pass.

    Attributes
    ----------
    scanned, ok:
        Entries examined and entries that re-validated end to end.
    corrupt, unreadable:
        Entries whose payload failed validation (bad JSON, digest or key
        mismatch, semantically invalid plan) and entries the process
        could not read at all (I/O or permission errors).
    quarantined:
        Entries actually moved into ``cache_dir/quarantine/`` — lags
        ``corrupt + unreadable`` only when the move itself fails.
    problems:
        ``(entry_name, reason)`` per bad entry, in walk order.
    """

    def __init__(self) -> None:
        """Start an empty report (all counts zero)."""
        self.scanned = 0
        self.ok = 0
        self.corrupt = 0
        self.unreadable = 0
        self.quarantined = 0
        self.problems: list[tuple[str, str]] = []

    @property
    def clean(self) -> bool:
        """True when every scanned entry re-validated."""
        return self.corrupt == 0 and self.unreadable == 0

    def to_dict(self) -> dict[str, Any]:
        """JSON document ``repro store scrub`` prints."""
        return {
            "scanned": self.scanned,
            "ok": self.ok,
            "corrupt": self.corrupt,
            "unreadable": self.unreadable,
            "quarantined": self.quarantined,
            "clean": self.clean,
            "problems": [{"entry": name, "reason": reason}
                         for name, reason in self.problems],
        }


class ScheduleStore:
    """Persistent schedule cache with an in-memory LRU front.

    Implements the cache protocol :func:`repro.service.api.provision_batch`
    consumes: ``get_plan``/``put_plan`` for winning plans.  The LRU front
    holds the 256 most recently used plans.
    """

    def __init__(self, cache_dir: str | Path | None = None, *,
                 registry: MetricsRegistry | None = None) -> None:
        """Create a store rooted at *cache_dir* (default: XDG cache).

        *registry* is the metrics registry the store's counters live in;
        None (default) gives the store a private registry so its
        :attr:`stats` stay isolated — pass a shared one to export them
        with ``--metrics-out``.
        """
        self.cache_dir = Path(cache_dir) if cache_dir is not None \
            else default_cache_dir()
        self._memory: OrderedDict[str, Plan] = OrderedDict()
        # The LRU front is shared by every thread of a serving process
        # (repro.serve keeps one store hot across requests); its compound
        # mutations (lookup + move_to_end, insert + trim) take this lock.
        # Disk I/O stays outside it — atomicity there comes from
        # tmp-file + os.replace, not from locking.
        self._memory_lock = threading.Lock()
        self.stats = StoreStats(registry)

    # ------------------------------------------------------------------
    # the cache protocol
    # ------------------------------------------------------------------
    # Unused by src: benchmarks/e2e/layers.py wraps it until ROADMAP item 1.
    def get_eval(self, family: str, n: int, d: int, alpha_t: int,
                 alpha_r: int, balanced: bool) -> Plan | None:
        """Cached evaluation of one grid point, or None."""
        return self._get(eval_key(family, n, d, alpha_t, alpha_r, balanced))

    # Unused by src: benchmarks/e2e/layers.py wraps it until ROADMAP item 1.
    def put_eval(self, family: str, n: int, d: int, alpha_t: int,
                 alpha_r: int, balanced: bool, plan: Plan) -> None:
        """Persist the evaluation of one grid point."""
        self._put(eval_key(family, n, d, alpha_t, alpha_r, balanced), plan)

    def get_plan(self, n: int, d: int, budget: Fraction, balanced: bool
                 ) -> Plan | None:
        """Cached winner of a full budget search, or None."""
        return self._get(plan_key(n, d, budget, balanced))

    def get_memory_plan(self, n: int, d: int, budget: Fraction,
                        balanced: bool) -> Plan | None:
        """Cached winner from the in-memory LRU front alone, or None.

        Never touches the disk, so an event loop may call it.  A hit
        counts and traces as a :meth:`get_plan` memory hit; a miss
        records nothing, since the caller's :meth:`get_plan` then looks
        again and counts what it finds.
        """
        return self._get(plan_key(n, d, budget, balanced), disk=False)

    def put_plan(self, n: int, d: int, budget: Fraction, balanced: bool,
                 plan: Plan, *,
                 schedule_doc: dict[str, Any] | None = None) -> None:
        """Persist the winner of a full budget search.

        *schedule_doc*, when given, must be ``schedule_to_dict(plan.schedule)``
        (no ``meta``), already built by the caller: the entry embeds it
        instead of encoding the schedule again.
        """
        self._put(plan_key(n, d, budget, balanced), plan, schedule_doc)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Remove every entry (disk and memory); returns entries removed.

        Quarantined files are evidence, not entries — they survive a
        clear and are removed only by an explicit
        :meth:`clear_quarantine`.
        """
        with self._memory_lock:
            self._memory.clear()
        removed = 0
        if self.cache_dir.is_dir():
            for path in self._entry_paths():
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - concurrent removal
                    pass
        return removed

    def clear_quarantine(self) -> int:
        """Delete quarantined files; returns how many were removed."""
        removed = 0
        if self.quarantine_dir.is_dir():
            for path in self.quarantine_dir.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - concurrent removal
                    pass
        return removed

    def __len__(self) -> int:
        """Number of entries currently on disk (quarantine excluded)."""
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self._entry_paths())

    def entry_path(self, key: dict[str, Any]) -> Path:
        """The on-disk location a key document maps to (exists or not)."""
        digest = key_digest(key)
        return self.cache_dir / digest[:2] / f"{digest}.json"

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved (``cache_dir/quarantine/``)."""
        return self.cache_dir / QUARANTINE_DIR

    def scrub(self) -> ScrubReport:
        """Re-validate every on-disk entry; quarantine the bad ones.

        The integrity pass behind ``repro store scrub``: each entry is
        re-read, re-hashed (its filename must equal the digest of its
        embedded key) and fully decoded.  Entries failing any of that
        are moved into :attr:`quarantine_dir` and dropped from the LRU
        front, so a later :meth:`_get` can never serve them.  Progress
        lands in the ``repro_store_scrub_*`` counters; the returned
        :class:`ScrubReport` is the caller-facing summary.
        """
        registry = self.stats.registry
        registry.counter(
            "repro_store_scrub_runs_total",
            "Integrity passes completed over the schedule store."
        ).labels().inc()
        entries = registry.counter(
            "repro_store_scrub_entries_total",
            "Entries examined by store scrubs, by verdict "
            "(ok / corrupt / unreadable).")
        quarantined = registry.counter(
            "repro_store_scrub_quarantined_total",
            "Entries moved into quarantine by store scrubs.").labels()
        report = ScrubReport()
        for path in sorted(self._entry_paths()):
            report.scanned += 1
            try:
                text = path.read_text()
            except FileNotFoundError:  # pragma: no cover - concurrent removal
                report.scanned -= 1
                continue
            except OSError as exc:
                reason = f"unreadable: {type(exc).__name__}: {exc}"
                report.unreadable += 1
                entries.labels(result="unreadable").inc()
                self._scrub_bad(path, reason, report, quarantined)
                continue
            try:
                doc = json.loads(text)
                key = doc["key"] if isinstance(doc, dict) else None
                if not isinstance(key, dict):
                    raise ValueError("entry carries no key document")
                if key_digest(key) != path.stem:
                    raise ValueError("entry digest does not match its key "
                                     "(renamed or tampered file)")
                self._decode(doc, key)
            except Exception as exc:  # noqa: BLE001 - verdict, not control
                reason = f"{type(exc).__name__}: {exc}"
                report.corrupt += 1
                entries.labels(result="corrupt").inc()
                self._scrub_bad(path, reason, report, quarantined)
                continue
            report.ok += 1
            entries.labels(result="ok").inc()
        _log.info("store_scrub_done", extra={
            "scanned": report.scanned, "ok": report.ok,
            "corrupt": report.corrupt, "unreadable": report.unreadable,
            "quarantined": report.quarantined})
        return report

    def _scrub_bad(self, path: Path, reason: str, report: ScrubReport,
                   quarantined_counter: Any) -> None:
        report.problems.append((path.name, reason))
        self.stats.record_corruption(f"{path.name}: {reason}")
        _log.warning("store_scrub_bad_entry",
                     extra={"entry": path.name, "reason": reason})
        if self._quarantine(path):
            report.quarantined += 1
            quarantined_counter.inc()

    def _entry_paths(self) -> Any:
        """Entry files under the two-character digest shards only."""
        return self.cache_dir.glob("??/*.json")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _get(self, key: dict[str, Any], *, disk: bool = True) -> Plan | None:
        """Instrumented lookup: a ``store.get`` span (outcome attached)
        and a trace-stamped debug line around :meth:`_lookup`.  Without
        *disk*, a memory miss is neither read further nor recorded."""
        started = perf_counter()
        digest = key_digest(key)
        plan, outcome = self._lookup(key, digest, disk)
        if outcome is not None:
            default_tracer().record("store.get", perf_counter() - started,
                                    outcome=outcome, digest=digest[:12])
            _log.debug("store_lookup", extra={"digest": digest[:12],
                                              "outcome": outcome})
        return plan

    def _lookup(self, key: dict[str, Any], digest: str,
                disk: bool) -> tuple[Plan | None, str | None]:
        with self._memory_lock:
            plan = self._memory.get(digest)
            if plan is not None:
                self._memory.move_to_end(digest)
        if plan is not None:
            self.stats.record_memory_hit()
            return plan, "memory-hit"
        if not disk:
            return None, None
        path = self.cache_dir / digest[:2] / f"{digest}.json"
        try:
            doc = json.loads(path.read_text())
            plan = self._decode(doc, key)
        except FileNotFoundError:
            self.stats.record_miss()
            return None, "miss"
        except Exception as exc:
            # A bad cache entry is evicted and recomputed, never fatal —
            # but never silently either: the stats record what happened
            # and the file itself survives in quarantine for post-mortem.
            self.stats.record_corruption(
                f"{path.name}: {type(exc).__name__}: {exc}")
            self.stats.record_miss()
            _log.warning("store_corrupt_entry", extra={
                "entry": path.name, "reason": f"{type(exc).__name__}: {exc}"})
            if self._quarantine(path):
                self.stats.record_eviction()
            return None, "corrupt"
        self.stats.record_disk_hit()
        self._remember(digest, plan)
        return plan, "disk-hit"

    def _put(self, key: dict[str, Any], plan: Plan,
             schedule_doc: dict[str, Any] | None = None) -> None:
        started = perf_counter()
        digest = key_digest(key)
        path = self.cache_dir / digest[:2] / f"{digest}.json"
        data = canonical_json(self._encode(key, plan, schedule_doc)) + "\n"
        write_atomic(path, data.encode("utf-8"))
        self.stats.record_store()
        self._remember(digest, plan)
        default_tracer().record("store.put", perf_counter() - started,
                                digest=digest[:12])

    def _quarantine(self, path: Path) -> bool:
        """Move a bad entry into the quarantine dir; True on success.

        ``os.replace`` keeps the move atomic and needs no read access to
        the file itself, so even unreadable entries can be quarantined.
        The digest is also dropped from the LRU front — a quarantined
        entry must never be served from memory either.
        """
        with self._memory_lock:
            self._memory.pop(path.stem, None)
        target = self.quarantine_dir / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
            return True
        except OSError:  # pragma: no cover - concurrent removal
            return not path.exists()

    def _remember(self, digest: str, plan: Plan) -> None:
        with self._memory_lock:
            self._memory[digest] = plan
            self._memory.move_to_end(digest)
            while len(self._memory) > _MEMORY_SLOTS:
                self._memory.popitem(last=False)

    @staticmethod
    def _encode(key: dict[str, Any], plan: Plan,
                schedule_doc: dict[str, Any] | None = None
                ) -> dict[str, Any]:
        if schedule_doc is None:
            schedule_doc = schedule_to_dict(plan.schedule)
        return {
            "format": "repro-cache-entry",
            "version": FORMAT_VERSION,
            "key": key,
            "plan": {**plan.to_dict(), "schedule": schedule_doc},
        }

    @staticmethod
    def _decode(doc: dict[str, Any], key: dict[str, Any]) -> Plan:
        if doc.get("format") != "repro-cache-entry":
            raise ValueError("not a repro-cache-entry document")
        if doc.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported cache version {doc.get('version')!r}")
        unknown = set(doc) - {"format", "version", "key", "plan"}
        if unknown:
            raise ValueError(
                f"cache entry has unknown fields: {sorted(unknown)}")
        if doc.get("key") != key:
            raise ValueError("cache entry key mismatch (hash collision or "
                             "corruption)")
        return Plan.from_dict(doc["plan"])
