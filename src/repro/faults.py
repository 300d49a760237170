"""Deterministic fault injection shared by the simulator and the service.

The paper's whole argument is *guarantees under adversity*: a
topology-transparent schedule must deliver in every network of the class
``N_n^D``, whatever the adversary does to the topology.  This module makes
adversity a first-class, reproducible input.  A :class:`FaultPlan` is a
frozen, seeded description of every fault the run should experience:

* **simulator faults** — per-node crash/recover epochs (stochastic, with
  geometric sojourn times, or explicitly scripted outages) and per-link
  packet-loss probability layered on top of the collision rule of
  :class:`repro.simulation.engine.Simulator`;
* **worker faults** — crash / hang / slow / error injections for the
  provisioning runtime (:mod:`repro.service.runtime`), used by the crash-path
  tests and chaos benchmarks;
* **network faults** — per-connection refuse / reset / delay / truncate
  injections for the chaos proxy (:mod:`repro.serve.chaos`), so the serve
  tier's failure behaviour under a misbehaving network is reproducible.

Every decision is a pure function of ``(seed, identifiers)`` — hashed with
SHA-256, never drawn from shared mutable RNG state — so two runs with the
same plan experience byte-identical fault sequences regardless of thread
or completion order.  The one exception is the stochastic node-outage
timeline, which needs temporal correlation (a crashed node *stays* crashed
for a sojourn) and therefore uses one seeded generator per node, again
independent of query order.

Recovery from those faults waits by one :class:`RetryPolicy`: the seeded
exponential backoff and the retry loop every retrying layer shares.
"""

from __future__ import annotations

import hashlib
import json
import time
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import Any, Callable

import numpy as np

from repro._validation import check_int, check_probability

__all__ = ["FaultPlan", "ActiveFaults", "RetryPolicy", "WORKER_FAULT_KINDS",
           "PROXY_FAULT_KINDS", "unit_hash"]

#: Fault kinds a :class:`FaultPlan` may inject into a pool worker.  ``"ok"``
#: is the explicit no-op placeholder inside targeted sequences.
WORKER_FAULT_KINDS = ("crash", "hang", "slow", "error", "ok")

#: Fault kinds the chaos proxy may inject into one proxied connection:
#: refuse it outright, reset it mid-stream, delay its bytes, or truncate
#: the upstream response.
PROXY_FAULT_KINDS = ("refuse", "reset", "delay", "truncate")


def unit_hash(*parts: Any) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from hashable identifiers.

    SHA-256 over the canonical JSON encoding of *parts*; the same parts
    give the same value on every machine, process and Python version.
    Used for per-link loss lotteries, worker-fault draws and retry-backoff
    jitter, so fault injection never depends on shared RNG state.
    """
    canonical = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative description of every fault a run injects.

    Attributes
    ----------
    seed:
        Root seed; every derived decision hashes it in.
    node_crash_rate, node_recover_rate:
        Per-node per-slot probabilities of an up node crashing and a
        crashed node recovering (geometric sojourn times).  A recover rate
        of 0 makes crashes permanent.
    link_loss:
        Probability that an otherwise *clean* reception (exactly one
        transmitting neighbour) is destroyed anyway — lossy-radio noise on
        top of the paper's collision-only model.
    node_outages:
        Explicitly scripted downtime: ``(node, start_slot, end_slot)``
        triples, ``end_slot=None`` meaning "never recovers".  Scripted
        outages apply in addition to stochastic crashes.
    worker_crash_rate, worker_hang_rate, worker_slow_rate, worker_error_rate:
        Per-attempt probabilities that a provisioning pool worker dies
        (``os._exit``), hangs, sleeps ``slow_seconds`` before answering,
        or raises.  Stacked in that order from one uniform draw.
    hang_seconds, slow_seconds:
        Durations for the ``hang`` and ``slow`` injections.
    targeted_worker_faults:
        Scripted per-task injections: ``(digest, (kind, kind, ...))``
        pairs, one kind per attempt (attempts beyond the sequence run
        clean).  Takes precedence over the rate-based draw for that task.
    proxy_refuse_rate, proxy_reset_rate, proxy_delay_rate, proxy_truncate_rate:
        Per-connection probabilities that the chaos proxy refuses the
        connection outright, resets it mid-stream, delays its bytes, or
        truncates the upstream response.  Stacked in that order from one
        uniform draw keyed on the connection index.
    proxy_delay_seconds:
        Base duration of a ``delay`` injection; the actual delay is this
        scaled by a seeded jitter in ``[0.5, 1.5)``.
    """

    seed: int = 0
    node_crash_rate: float = 0.0
    node_recover_rate: float = 0.0
    link_loss: float = 0.0
    node_outages: tuple[tuple[int, int, int | None], ...] = ()
    worker_crash_rate: float = 0.0
    worker_hang_rate: float = 0.0
    worker_slow_rate: float = 0.0
    worker_error_rate: float = 0.0
    hang_seconds: float = 30.0
    slow_seconds: float = 0.05
    targeted_worker_faults: tuple[tuple[str, tuple[str, ...]], ...] = ()
    proxy_refuse_rate: float = 0.0
    proxy_reset_rate: float = 0.0
    proxy_delay_rate: float = 0.0
    proxy_truncate_rate: float = 0.0
    proxy_delay_seconds: float = 0.05

    def __post_init__(self) -> None:
        check_int(self.seed, "seed", minimum=0)
        for name in ("node_crash_rate", "node_recover_rate", "link_loss",
                     "worker_crash_rate", "worker_hang_rate",
                     "worker_slow_rate", "worker_error_rate",
                     "proxy_refuse_rate", "proxy_reset_rate",
                     "proxy_delay_rate", "proxy_truncate_rate"):
            check_probability(getattr(self, name), name)
        total = (self.worker_crash_rate + self.worker_hang_rate
                 + self.worker_slow_rate + self.worker_error_rate)
        if total > 1.0:
            raise ValueError(f"worker fault rates sum to {total} > 1")
        proxy_total = (self.proxy_refuse_rate + self.proxy_reset_rate
                       + self.proxy_delay_rate + self.proxy_truncate_rate)
        if proxy_total > 1.0:
            raise ValueError(f"proxy fault rates sum to {proxy_total} > 1")
        if self.hang_seconds < 0 or self.slow_seconds < 0:
            raise ValueError("hang_seconds/slow_seconds must be >= 0")
        if self.proxy_delay_seconds < 0:
            raise ValueError("proxy_delay_seconds must be >= 0")
        for entry in self.node_outages:
            node, start, end = entry
            check_int(node, "node_outages node", minimum=0)
            check_int(start, "node_outages start", minimum=0)
            if end is not None and check_int(end, "node_outages end",
                                             minimum=0) <= start:
                raise ValueError(f"empty outage interval {entry}")
        for digest, kinds in self.targeted_worker_faults:
            if not isinstance(digest, str) or not digest:
                raise ValueError("targeted fault digest must be a non-empty "
                                 "string")
            for kind in kinds:
                if kind not in WORKER_FAULT_KINDS:
                    raise ValueError(
                        f"unknown worker fault kind {kind!r}; expected one "
                        f"of {WORKER_FAULT_KINDS}")

    # ------------------------------------------------------------------
    # what is switched on
    # ------------------------------------------------------------------
    @property
    def simulation_active(self) -> bool:
        """True when the plan injects any simulator-side fault."""
        return bool(self.node_crash_rate > 0 or self.link_loss > 0
                    or self.node_outages)

    @property
    def proxy_active(self) -> bool:
        """True when the plan injects any chaos-proxy network fault."""
        return bool(self.proxy_refuse_rate > 0 or self.proxy_reset_rate > 0
                    or self.proxy_delay_rate > 0
                    or self.proxy_truncate_rate > 0)

    # ------------------------------------------------------------------
    # worker-side decisions (provisioning runtime)
    # ------------------------------------------------------------------
    def worker_fault(self, digest: str, attempt: int) -> str | None:
        """The fault (if any) to inject into attempt *attempt* of a task.

        Targeted sequences win; otherwise one :func:`unit_hash` draw is
        split across the four rate thresholds.  Deterministic in
        ``(seed, digest, attempt)``, so retries see fresh draws but reruns
        see the same ones.
        """
        check_int(attempt, "attempt", minimum=0)
        for target, kinds in self.targeted_worker_faults:
            if target == digest:
                if attempt < len(kinds) and kinds[attempt] != "ok":
                    return kinds[attempt]
                return None
        if not (self.worker_crash_rate or self.worker_hang_rate
                or self.worker_slow_rate or self.worker_error_rate):
            return None
        u = unit_hash(self.seed, "worker", digest, attempt)
        for kind, rate in (("crash", self.worker_crash_rate),
                           ("hang", self.worker_hang_rate),
                           ("slow", self.worker_slow_rate),
                           ("error", self.worker_error_rate)):
            if u < rate:
                return kind
            u -= rate
        return None

    def backoff_jitter(self, digest: str, attempt: int) -> float:
        """Seeded retry-jitter factor in ``[0.5, 1.5)`` for one backoff."""
        return 0.5 + unit_hash(self.seed, "backoff", digest, attempt)

    # ------------------------------------------------------------------
    # network-side decisions (chaos proxy)
    # ------------------------------------------------------------------
    def proxy_fault(self, connection: int) -> str | None:
        """The fault (if any) to inject into proxied connection *connection*.

        One :func:`unit_hash` draw keyed on ``(seed, connection)`` is
        split across the four rate thresholds, so a chaos run's fault
        sequence is a pure function of the seed and the accept order —
        byte-reproducible across reruns.
        """
        check_int(connection, "connection", minimum=0)
        if not self.proxy_active:
            return None
        u = unit_hash(self.seed, "proxy", connection)
        for kind, rate in (("refuse", self.proxy_refuse_rate),
                           ("reset", self.proxy_reset_rate),
                           ("delay", self.proxy_delay_rate),
                           ("truncate", self.proxy_truncate_rate)):
            if u < rate:
                return kind
            u -= rate
        return None

    def proxy_delay(self, connection: int) -> float:
        """Seconds a ``delay`` injection holds this connection's bytes."""
        return self.proxy_delay_seconds * (
            0.5 + unit_hash(self.seed, "proxy-delay", connection))

    def proxy_cut(self, connection: int, window: int) -> int:
        """Byte offset in ``[0, window)`` where a reset/truncate cuts.

        Deterministic in ``(seed, connection)``; the proxy applies it to
        the upstream response stream, so the same seed severs the same
        connection at the same byte.
        """
        check_int(window, "window", minimum=1)
        return int(unit_hash(self.seed, "proxy-cut", connection) * window)

    # ------------------------------------------------------------------
    # simulator-side decisions
    # ------------------------------------------------------------------
    def link_delivers(self, slot: int, src: int, dst: int) -> bool:
        """Whether a clean reception on ``src -> dst`` survives this slot.

        A pure function of ``(seed, slot, src, dst)`` — no RNG state — so
        the loss pattern is identical however the engine orders receivers.
        """
        if self.link_loss <= 0.0:
            return True
        return unit_hash(self.seed, "link", slot, src, dst) >= self.link_loss

    def compile(self, n: int) -> "ActiveFaults":
        """Bind the plan to an *n*-node network, with outage timelines."""
        return ActiveFaults(self, check_int(n, "n", minimum=1))

    # ------------------------------------------------------------------
    # interchange
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable document (inverse of :meth:`from_dict`)."""
        return {
            "seed": self.seed,
            "node_crash_rate": self.node_crash_rate,
            "node_recover_rate": self.node_recover_rate,
            "link_loss": self.link_loss,
            "node_outages": [list(entry) for entry in self.node_outages],
            "worker_crash_rate": self.worker_crash_rate,
            "worker_hang_rate": self.worker_hang_rate,
            "worker_slow_rate": self.worker_slow_rate,
            "worker_error_rate": self.worker_error_rate,
            "hang_seconds": self.hang_seconds,
            "slow_seconds": self.slow_seconds,
            "targeted_worker_faults": {
                digest: list(kinds)
                for digest, kinds in self.targeted_worker_faults
            },
            "proxy_refuse_rate": self.proxy_refuse_rate,
            "proxy_reset_rate": self.proxy_reset_rate,
            "proxy_delay_rate": self.proxy_delay_rate,
            "proxy_truncate_rate": self.proxy_truncate_rate,
            "proxy_delay_seconds": self.proxy_delay_seconds,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "FaultPlan":
        """Parse a fault-plan document (see ``docs/robustness.md``).

        Every field is optional; unknown fields are rejected so a typoed
        rate can never silently disable itself.
        """
        if not isinstance(doc, dict):
            raise ValueError("fault plan must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"fault plan has unknown fields: {sorted(unknown)}")
        kwargs: dict[str, Any] = dict(doc)
        if "node_outages" in kwargs:
            kwargs["node_outages"] = tuple(
                (entry[0], entry[1], entry[2])
                for entry in kwargs["node_outages"])
        targeted = kwargs.get("targeted_worker_faults")
        if targeted is not None:
            if not isinstance(targeted, dict):
                raise ValueError("targeted_worker_faults must be an object "
                                 "mapping digest -> [kind, ...]")
            kwargs["targeted_worker_faults"] = tuple(
                (digest, tuple(kinds)) for digest, kinds in sorted(targeted.items()))
        return cls(**kwargs)


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff, and the one retry loop that waits by it.

    Retry ``k`` (1-based) of *key* waits ``min(cap, base * 2**(k-1))``
    seconds scaled by :meth:`FaultPlan.backoff_jitter`, a seeded draw in
    ``[0.5, 1.5)``: two runs with the same seed back off identically, yet
    different keys spread out.  Every waiting layer uses it — the serve
    and failover clients between attempts (:meth:`run`), the provisioning
    runtime between task retries, the supervisor between restarts, and
    the circuit breaker before its half-open probe (``cap == base``).

    Attributes
    ----------
    retries:
        Extra attempts :meth:`run` makes beyond the first.
    base, cap:
        The backoff schedule in seconds; *cap* also caps a server hint.
    budget_s:
        Wall-clock seconds the retries of one :meth:`run` may spend in
        total (the clients' ``retry_budget_s``); ``None`` is unbounded.
    seed:
        Seed of the jitter draws.
    """

    retries: int = 3
    base: float = 0.05
    cap: float = 2.0
    budget_s: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.retries, "retries", minimum=0)
        check_int(self.seed, "seed", minimum=0)
        if self.base < 0 or self.cap < 0:
            raise ValueError("backoff base and cap must be >= 0")
        if self.budget_s is not None and self.budget_s < 0:
            raise ValueError("retry_budget_s must be >= 0 or None")

    def delay(self, key: str, attempt: int,
              hint: float | None = None) -> float:
        """Seconds to wait before retry *attempt* (1-based) of *key*.

        A server's ``retry_after_s`` *hint* replaces the seeded backoff —
        the server knows its own queue — capped at :attr:`cap` so a
        confused server cannot park a client.
        """
        if hint is not None:
            return min(hint, self.cap)
        backoff = min(self.cap, self.base * 2.0 ** max(0, attempt - 1))
        return backoff * FaultPlan(seed=self.seed).backoff_jitter(key,
                                                                  attempt)

    def run(self, key: str,
            attempt: Callable[[int], tuple[Any, bool, float | None]], *,
            clock: Callable[[], float] = time.monotonic,
            sleep: Callable[[float], None] = time.sleep) -> Any:
        """Call ``attempt(n)`` for ``n = 0, 1, ...``; return its outcome.

        *attempt* returns ``(outcome, retry, hint)``.  An outcome with
        ``retry`` false is final and returned at once.  A retryable one
        is tried again after :meth:`delay` (*hint* is the server's
        ``retry_after_s`` or None) until :attr:`retries` extra attempts
        are spent or the next wait would overrun :attr:`budget_s`; the
        last outcome is then returned for the caller to surface.
        Exceptions raised by *attempt* propagate at once.
        """
        deadline = None if self.budget_s is None else clock() + self.budget_s
        n = 0
        while True:
            outcome, retry, hint = attempt(n)
            if not retry or n >= self.retries:
                return outcome
            n += 1
            wait = self.delay(key, n, hint)
            if deadline is not None and clock() + wait > deadline:
                return outcome
            sleep(wait)


class ActiveFaults:
    """A :class:`FaultPlan` bound to a concrete *n*-node network.

    Holds the lazily generated per-node outage timelines (the only fault
    source that needs memory between slots); everything else delegates to
    the plan's pure hash draws.  Built via :meth:`FaultPlan.compile`.
    """

    def __init__(self, plan: FaultPlan, n: int) -> None:
        """Bind *plan* to *n* nodes; timelines generate on first query."""
        self.plan = plan
        self.n = n
        self._scripted: dict[int, list[tuple[int, int | None]]] = {}
        for node, start, end in plan.node_outages:
            self._scripted.setdefault(node, []).append((start, end))
        # Stochastic timelines: per-node toggle slots (up -> down -> up ...),
        # generated ahead of the queried slot.  State at slot 0 is up.
        self._toggles: dict[int, list[int]] = {}
        self._horizon: dict[int, float] = {}
        self._rngs: dict[int, np.random.Generator] = {}

    def node_up(self, node: int, slot: int) -> bool:
        """Whether *node* is alive (powered, participating) in *slot*."""
        for start, end in self._scripted.get(node, ()):
            if start <= slot and (end is None or slot < end):
                return False
        if self.plan.node_crash_rate <= 0.0:
            return True
        toggles = self._extend_timeline(node, slot)
        return bisect_right(toggles, slot) % 2 == 0

    def link_delivers(self, slot: int, src: int, dst: int) -> bool:
        """Delegate to :meth:`FaultPlan.link_delivers`."""
        return self.plan.link_delivers(slot, src, dst)

    def _extend_timeline(self, node: int, slot: int) -> list[int]:
        """Generate the node's toggle slots past *slot*; return them."""
        toggles = self._toggles.setdefault(node, [])
        horizon = self._horizon.get(node, 0.0)
        if horizon > slot:
            return toggles
        rng = self._rngs.get(node)
        if rng is None:
            rng = np.random.default_rng([self.plan.seed, 0xD0DE, node])
            self._rngs[node] = rng
        while horizon <= slot:
            if len(toggles) % 2 == 0:  # up at the horizon: sample uptime
                horizon += float(rng.geometric(self.plan.node_crash_rate))
                toggles.append(int(horizon))
            elif self.plan.node_recover_rate <= 0.0:  # down forever
                horizon = float("inf")
            else:  # down at the horizon: sample downtime
                horizon += float(rng.geometric(self.plan.node_recover_rate))
                toggles.append(int(horizon))
        self._horizon[node] = horizon
        return toggles
