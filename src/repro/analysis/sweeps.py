"""Parameter sweeps: the sharded, resumable sweep engine.

The **sweep engine** — :class:`SweepSpec` / :class:`SweepRunner` —
expands a simulation parameter grid (schedule family × n × D × traffic ×
seeds), deduplicates points, runs fixed-size *shards* on the
fault-tolerant runtime of :mod:`repro.service.runtime` (per-shard
timeout, retry and quarantine for free; one
:class:`~repro.service.runtime.RuntimeConfig` sets the pool width, the
timeout and the retry budget), checkpoints every finished shard as
content-addressed JSONL so an interrupted sweep warm-resumes, and merges
shard results **in grid order** — the merged output is byte-identical
whatever the worker count or completion order.

Determinism is the engine's contract, enforced by the regression suite:

* every point owns seeded generators derived from its own identifiers
  (never from shared RNG state or execution order);
* result rows are canonical JSON (sorted keys, no whitespace) carrying a
  versioned envelope (``repro-sweep-result`` v1, mirroring the
  ``repro-metrics`` snapshot format) and no wall-clock fields;
* shard identity is the SHA-256 digest of the canonical ``(spec, points)``
  document, so a checkpoint can never be replayed against the wrong grid.

:func:`validate_row` checks one result row against that schema and
:func:`validate_rows` a whole JSONL document of them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro._validation import check_choice, check_int, header_problems, \
    is_a, jsonl_problems, required_fields
from repro.core.nonsleeping import FAMILIES
from repro.core.serialization import canonical_json, key_digest, \
    write_atomic
from repro.faults import FaultPlan
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracing import span
from repro.service.runtime import RuntimeConfig, TaskReport, execute_tasks
from repro.simulation import topology, traffic

__all__ = ["SweepSpec", "SweepPoint", "ShardTask", "SweepResult",
           "SweepRunner", "ROW_FORMAT", "ROW_VERSION", "render_row",
           "validate_row", "validate_rows"]

_log = get_logger("analysis.sweeps")

#: Envelope carried by every result row (the JSONL analogue of the
#: ``repro-metrics`` snapshot header).
ROW_FORMAT = "repro-sweep-result"
ROW_VERSION = 1

# Integer tags folded into per-point seed sequences so the topology and
# traffic generators of one point can never share a stream.
_TAG_TOPOLOGY = 0x70_70
_TAG_TRAFFIC = 0x7F_1C


# ----------------------------------------------------------------------
# grid specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One fully determined simulation run inside a sweep grid."""

    family: str
    n: int
    d: int
    traffic: str
    seed: int

    def to_dict(self) -> dict[str, Any]:
        """JSON document form (the ``point`` member of a result row)."""
        return {"family": self.family, "n": self.n, "d": self.d,
                "traffic": self.traffic, "seed": self.seed}


@dataclass(frozen=True)
class SweepSpec:
    """A declarative simulation sweep: axes plus shared run parameters.

    Axes (the cartesian grid, expanded row-major in declaration order):

    ``families``
        Substrate family names of :data:`repro.core.nonsleeping.FAMILIES`.
    ``ns`` / ``ds``
        Network-class bounds ``n`` and ``D``.
    ``traffics``
        Traffic pattern names of :data:`repro.simulation.traffic.PATTERNS`:
        ``saturated``, ``poisson`` or ``sensing``.
    ``seeds``
        Per-point root seeds; every point derives its topology and
        traffic generators from its *own* identifiers, so results never
        depend on execution order.

    Shared parameters: *topology* shape (a name of
    :data:`repro.simulation.topology.SHAPES`), simulated *frames*, optional
    duty-cycling construction (*alpha_t*/*alpha_r*, both set or both
    None — None simulates the non-sleeping substrate directly),
    *balanced* divisions, Poisson *rate* and sensing *period*.
    """

    families: tuple[str, ...] = ("tdma",)
    ns: tuple[int, ...] = (16,)
    ds: tuple[int, ...] = (4,)
    traffics: tuple[str, ...] = ("saturated",)
    seeds: tuple[int, ...] = (0,)
    topology: str = "regular"
    frames: int = 4
    alpha_t: int | None = None
    alpha_r: int | None = None
    balanced: bool = False
    rate: float = 0.01
    period: int = 50

    def __post_init__(self) -> None:
        for name, singular, values, table in (
                ("families", "family", self.families, FAMILIES),
                ("traffics", "traffic", self.traffics, traffic.PATTERNS)):
            if not values:
                raise ValueError(f"{name} must not be empty")
            for value in values:
                check_choice(value, table, singular)
        for name, values in (("ns", self.ns), ("ds", self.ds),
                             ("seeds", self.seeds)):
            if not values:
                raise ValueError(f"{name} must not be empty")
            for value in values:
                check_int(value, f"{name} entry",
                          minimum=0 if name == "seeds" else 1)
        check_choice(self.topology, topology.SHAPES, "topology")
        check_int(self.frames, "frames", minimum=1)
        check_int(self.period, "period", minimum=1)
        if (self.alpha_t is None) != (self.alpha_r is None):
            raise ValueError("alpha_t and alpha_r must be set together")
        if self.alpha_t is not None:
            check_int(self.alpha_t, "alpha_t", minimum=1)
            check_int(self.alpha_r, "alpha_r", minimum=1)
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")

    def expand(self) -> list[SweepPoint]:
        """The deduplicated grid, row-major over the declared axes."""
        points = (SweepPoint(family, n, d, traffic, seed)
                  for family in self.families for n in self.ns
                  for d in self.ds for traffic in self.traffics
                  for seed in self.seeds)
        return list(dict.fromkeys(points))

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable document (inverse of :meth:`from_dict`)."""
        return {
            "families": list(self.families), "ns": list(self.ns),
            "ds": list(self.ds), "traffics": list(self.traffics),
            "seeds": list(self.seeds), "topology": self.topology,
            "frames": self.frames, "alpha_t": self.alpha_t,
            "alpha_r": self.alpha_r, "balanced": self.balanced,
            "rate": self.rate, "period": self.period,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "SweepSpec":
        """Parse a sweep-spec document; unknown fields are rejected so a
        typoed axis can never silently fall back to a default."""
        if not isinstance(doc, dict):
            raise ValueError("sweep spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"sweep spec has unknown fields: {sorted(unknown)}")
        kwargs: dict[str, Any] = dict(doc)
        for name in ("families", "ns", "ds", "traffics", "seeds"):
            if name in kwargs:
                value = kwargs[name]
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"{name} must be a list")
                kwargs[name] = tuple(value)
        return cls(**kwargs)


# ----------------------------------------------------------------------
# per-point evaluation (worker side)
# ----------------------------------------------------------------------
def _build_topology(spec: SweepSpec, point: SweepPoint):
    rng = np.random.default_rng([_TAG_TOPOLOGY, point.seed, point.n, point.d])
    topo = topology.build(spec.topology, point.n, point.d, rng)
    topo.assert_in_class(point.n, point.d)
    return topo


def _build_schedule(spec: SweepSpec, point: SweepPoint):
    from repro.core.construction import construct

    source = FAMILIES[point.family](point.n, point.d)
    if spec.alpha_t is None:
        return source
    return construct(source, point.d, spec.alpha_t, spec.alpha_r,
                     balanced=spec.balanced)


class _Inputs:
    """The topology and schedule of a shard's previous point, handed on.

    Within one spec a point's topology is a pure function of its
    ``(n, d, seed)`` and its schedule of its ``(family, n, d)``, and the
    grid puts a point's traffics side by side, so the next point often
    asks for the same ones.  One input of each kind is held, the last
    one asked for, and it is dropped before a different one is built.
    """

    def __init__(self) -> None:
        self._held: dict[str, tuple[tuple, Any]] = {}

    def get(self, kind: str, key: tuple, build: Callable[[], Any]) -> Any:
        """The *kind* input that *key* names: the held one, or *build*'s."""
        held = self._held.pop(kind, None)
        if held is not None and held[0] == key:
            value = held[1]
        else:
            del held  # free the previous input before the build
            value = build()
        self._held[kind] = (key, value)
        return value


#: Row schema: the ``point`` members and their types, and the ``metrics``
#: members :func:`_evaluate_point` writes; True marks the ones that may
#: be null (mean latency when nothing was delivered).
_POINT_FIELDS = required_fields(SweepPoint)
_METRIC_FIELDS = {
    "slots": False, "frame_length": False, "duty_cycle": False,
    "attempts": False, "successes": False, "collisions": False,
    "mean_link_throughput": False, "min_link_throughput": False,
    "delivery_ratio": False, "dropped": False,
    "mean_latency_slots": True, "awake_fraction": False,
    "total_energy_mj": False, "energy_fairness": False,
}


def _evaluate_point(spec: SweepSpec, point: SweepPoint,
                    inputs: _Inputs | None = None) -> dict[str, Any]:
    """One simulation run -> the canonical result row (never raises for a
    merely infeasible point: those produce deterministic error rows).

    *inputs* holds the previous point's topology and schedule, reused
    when this point asks for the same ones.
    """
    from repro.simulation.engine import Simulator

    envelope = {"format": ROW_FORMAT, "version": ROW_VERSION,
                "point": point.to_dict()}
    if inputs is None:
        inputs = _Inputs()
    try:
        topo = inputs.get("topology", (point.n, point.d, point.seed),
                          lambda: _build_topology(spec, point))
        sched = inputs.get("schedule", (point.family, point.n, point.d),
                           lambda: _build_schedule(spec, point))
        rng = np.random.default_rng(
            [_TAG_TRAFFIC, point.seed, point.n, point.d])
        generator, hops = traffic.build(point.traffic, topo, rng,
                                        rate=spec.rate, period=spec.period)
        sim = Simulator(topo, sched, generator, next_hops=hops)
        m = sim.run(spec.frames)
    except ValueError as exc:
        return {**envelope, "error": f"{type(exc).__name__}: {exc}"}
    links = topo.directed_links()
    length = sched.frame_length
    mean_latency = m.mean_latency()
    return {**envelope, "metrics": {
        "slots": m.slots,
        "frame_length": length,
        "duty_cycle": float(sched.average_duty_cycle()),
        "attempts": sum(m.attempts.values()),
        "successes": sum(m.successes.values()),
        "collisions": m.total_collisions(),
        "mean_link_throughput": m.mean_link_throughput(links, length),
        "min_link_throughput": m.min_link_throughput(links, length),
        "delivery_ratio": m.delivery_ratio(),
        "dropped": m.dropped,
        "mean_latency_slots":
            None if mean_latency != mean_latency else mean_latency,
        "awake_fraction": sim.energy.awake_fraction(),
        "total_energy_mj": sim.energy.total_mj(),
        "energy_fairness": sim.energy.jain_fairness(),
    }}


def render_row(row: dict[str, Any]) -> str:
    """Canonical JSON encoding of a result row: sorted keys, no
    whitespace — the byte-identical merge contract depends on it."""
    return canonical_json(row)


def validate_row(row: object) -> list[str]:
    """Every way one result row breaks the row schema (empty list: valid).

    The envelope header, a ``point`` typed like :class:`SweepPoint`, and
    exactly one of ``metrics`` (every field :func:`_evaluate_point`
    writes, numeric) or ``error`` (a string).
    """
    if not isinstance(row, dict):
        return [f"row must be a JSON object, got {type(row).__name__}"]
    problems = header_problems(row, ROW_FORMAT, ROW_VERSION)
    point = row.get("point")
    if not isinstance(point, dict):
        problems.append("missing 'point' object")
    else:
        for name, kind in _POINT_FIELDS.items():
            if not is_a(point.get(name), kind):
                problems.append(f"point.{name}: must be {kind.__name__}, "
                                f"got {point.get(name)!r}")
    if ("metrics" in row) == ("error" in row):
        problems.append("row must carry exactly one of 'metrics'/'error'")
    if "error" in row and not isinstance(row["error"], str):
        problems.append("'error' must be a string")
    if "metrics" not in row:
        return problems
    metrics = row["metrics"]
    if not isinstance(metrics, dict):
        problems.append("'metrics' must be an object")
    else:
        for name, nullable in _METRIC_FIELDS.items():
            if name not in metrics:
                problems.append(f"metrics.{name}: missing")
            elif not (metrics[name] is None and nullable
                      or is_a(metrics[name], (int, float))):
                problems.append(f"metrics.{name}: must be numeric, "
                                f"got {metrics[name]!r}")
    return problems


def validate_rows(text: str) -> list[str]:
    """Every problem of a JSONL file of result rows, by ``line N:``.

    Blank and unparseable lines are problems too.
    """
    return jsonl_problems(text, validate_row)[1]


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardTask:
    """A contiguous run of grid points, shippable to a pool worker.

    Identity is content-addressed: :meth:`key` digests the canonical
    ``(spec, points)`` document, so equal shards share checkpoints and a
    stale checkpoint can never be replayed against a different grid.
    """

    spec: SweepSpec
    points: tuple[SweepPoint, ...]

    def key(self) -> str:
        """SHA-256 digest of the shard's canonical key document."""
        return key_digest({
            "kind": "sweep-shard", "version": ROW_VERSION,
            "spec": self.spec.to_dict(),
            "points": [p.to_dict() for p in self.points],
        })


def _evaluate_shard(task: ShardTask) -> list[dict[str, Any]]:
    """Worker entry point: evaluate every point of one shard, in order.

    Module-level so the process pool pickles it by reference (it is the
    ``evaluate=`` hook of :func:`repro.service.runtime.execute_tasks`).
    A point reuses the previous point's topology or schedule when it
    asks for the same one.
    """
    inputs = _Inputs()
    return [_evaluate_point(task.spec, point, inputs)
            for point in task.points]


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
@dataclass
class SweepResult:
    """Merged outcome of one :class:`SweepRunner` run.

    ``rows`` are in grid order — one per expanded point, each either a
    ``metrics`` row or a deterministic ``error`` row (infeasible point or
    failed shard).  ``reports`` maps shard digest to the runtime's
    :class:`~repro.service.runtime.TaskReport` for every shard that was
    actually executed (resumed shards have no report).
    """

    spec: SweepSpec
    rows: list[dict[str, Any]] = field(default_factory=list)
    reports: dict[str, TaskReport] = field(default_factory=dict)
    shard_digests: list[str] = field(default_factory=list)
    resumed_shards: int = 0

    @property
    def complete(self) -> bool:
        """True when no shard was lost to worker faults (error rows from
        infeasible points do not count against completeness)."""
        return all(r.succeeded for r in self.reports.values())

    def to_jsonl(self) -> str:
        """The merged rows as canonical JSONL (trailing newline included
        when non-empty)."""
        if not self.rows:
            return ""
        return "\n".join(render_row(row) for row in self.rows) + "\n"


class SweepRunner:
    """Shard a :class:`SweepSpec` over the fault-tolerant runtime.

    Parameters
    ----------
    spec:
        The grid to sweep.
    shard_size:
        Grid points per shard — the unit of checkpointing, retry and
        quarantine.
    checkpoint_dir:
        Directory for per-shard checkpoints (``<digest>.jsonl``, written
        atomically the moment a shard finishes).  None disables
        checkpointing.
    resume:
        Reuse valid checkpoints from *checkpoint_dir* instead of
        recomputing their shards.  A checkpoint is valid only when every
        row parses, passes :func:`validate_row` and carries its shard's
        point, line for line; anything else is recomputed.
    config:
        The :class:`~repro.service.runtime.RuntimeConfig`: pool width
        (``jobs=1``, the default, runs shards inline with no processes),
        per-shard timeout and retries.
    faults:
        Optional :class:`~repro.faults.FaultPlan` injecting worker
        crash/hang/slow/error faults per shard attempt (chaos tests).
    registry:
        Metrics registry for the sweep's counters; defaults to the
        process default registry.
    """

    def __init__(self, spec: SweepSpec, *, shard_size: int = 8,
                 checkpoint_dir: str | os.PathLike | None = None,
                 resume: bool = False,
                 config: RuntimeConfig | None = None,
                 faults: FaultPlan | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        self.spec = spec
        self.shard_size = check_int(shard_size, "shard_size", minimum=1)
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        if resume and self.checkpoint_dir is None:
            raise ValueError("resume requires a checkpoint_dir")
        self.resume = resume
        self.config = config or RuntimeConfig()
        self.faults = faults
        self._registry = registry

    # -- checkpoint plumbing -------------------------------------------
    def _checkpoint_path(self, digest: str) -> Path:
        return self.checkpoint_dir / f"{digest}.jsonl"

    def _write_checkpoint(self, task: ShardTask,
                          rows: list[dict[str, Any]]) -> None:
        """Write the shard's rows through the store's atomic writer
        (:func:`~repro.core.serialization.write_atomic`)."""
        write_atomic(self._checkpoint_path(task.key()),
                     "".join(render_row(row) + "\n" for row in rows)
                     .encode("utf-8"))

    def _load_checkpoint(self, task: ShardTask
                         ) -> list[dict[str, Any]] | None:
        """A previously checkpointed shard's rows, or None when absent,
        unreadable, off the row schema (:func:`validate_row`) or
        inconsistent with the shard's points."""
        path = self._checkpoint_path(task.key())
        try:
            lines = path.read_text().splitlines()
        except OSError:
            return None
        if len(lines) != len(task.points):
            _log.warning("checkpoint_invalid", extra={
                "digest": task.key()[:12], "reason": "row count mismatch"})
            return None
        rows = []
        for line, point in zip(lines, task.points):
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                _log.warning("checkpoint_invalid", extra={
                    "digest": task.key()[:12], "reason": "unparseable row"})
                return None
            problems = validate_row(row)
            if not problems and row["point"] != point.to_dict():
                problems = ["point mismatch"]
            if problems:
                _log.warning("checkpoint_invalid", extra={
                    "digest": task.key()[:12], "reason": problems[0]})
                return None
            rows.append(row)
        return rows

    # -- the run -------------------------------------------------------
    def run(self) -> SweepResult:
        """Expand, shard, execute, merge — deterministically."""
        registry = (self._registry if self._registry is not None
                    else default_registry())
        points_counter = registry.counter(
            "repro_sweep_points_total",
            "Sweep grid points finished, by row outcome.")
        shards_counter = registry.counter(
            "repro_sweep_shards_total",
            "Sweep shards finished, by provenance.")
        points = self.spec.expand()
        tasks = [ShardTask(self.spec, tuple(points[i:i + self.shard_size]))
                 for i in range(0, len(points), self.shard_size)]
        result = SweepResult(self.spec,
                             shard_digests=[t.key() for t in tasks])
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)

        resumed: dict[str, list[dict[str, Any]]] = {}
        if self.resume:
            for task in tasks:
                rows = self._load_checkpoint(task)
                if rows is not None:
                    resumed.setdefault(task.key(), rows)
        pending = [t for t in tasks if t.key() not in resumed]
        result.resumed_shards = len(tasks) - len(pending)
        _log.info("sweep_started", extra={
            "points": len(points), "shards": len(tasks),
            "resumed": result.resumed_shards, "jobs": self.config.jobs,
            "shard_size": self.shard_size})

        with span("sweep.run", points=len(points), shards=len(tasks),
                  resumed=result.resumed_shards, jobs=self.config.jobs):
            outcome = execute_tasks(
                pending, config=self.config, faults=self.faults,
                registry=registry, evaluate=_evaluate_shard,
                checkpoint=(self._write_checkpoint
                            if self.checkpoint_dir is not None else None))
        result.reports = outcome.reports

        # Deterministic merge: shard order == grid order, whatever the
        # workers did; a lost shard degrades to error rows for its points.
        for task in tasks:
            digest = task.key()
            if digest in resumed:
                rows = resumed[digest]
                shards_counter.labels(result="resumed").inc()
            elif digest in outcome.plans:
                rows = outcome.plans[digest]
                shards_counter.labels(result="computed").inc()
            else:
                report = outcome.reports[digest]
                rows = [{"format": ROW_FORMAT, "version": ROW_VERSION,
                         "point": point.to_dict(),
                         "error": f"shard {report.status}: {report.error}"}
                        for point in task.points]
                shards_counter.labels(result="failed").inc()
            result.rows.extend(rows)
        for row in result.rows:
            points_counter.labels(
                status="error" if "error" in row else "ok").inc()
        _log.info("sweep_finished", extra={
            "points": len(result.rows), "shards": len(tasks),
            "resumed": result.resumed_shards,
            "failed_shards": sum(1 for r in result.reports.values()
                                 if not r.succeeded)})
        return result
