"""Always-on schedule server: asyncio HTTP/JSON over the provisioning core.

The paper provisions a fixed ``(alpha_T, alpha_R)``-schedule once per
network class ``N_n^D`` and lets every node of the class reuse it — a
lookup service by construction.  :mod:`repro.serve` is that service: one
process keeps a :class:`~repro.service.store.ScheduleStore` and a
provisioning worker pool hot across requests, answers ``/provision`` and
``/plan`` over HTTP/JSON, coalesces concurrent identical requests onto a
single planner evaluation, refuses work beyond an explicit admission
bound instead of queueing unboundedly, and drains in-flight requests
before exiting on SIGTERM.

Layers (each its own module, dependency-free stdlib only):

* :mod:`repro.serve.protocol` — request/response schemas, strict
  validation of untrusted JSON, versioned error codes;
* :mod:`repro.serve.coalesce` — in-flight deduplication keyed on
  :meth:`repro.service.api.ProvisionRequest.signature`;
* :mod:`repro.serve.server` — the asyncio server (admission control,
  deadlines, drain, ``/healthz`` + ``/metrics`` endpoints);
* :mod:`repro.serve.client` — a synchronous client with seeded
  retry/backoff, used by ``repro call``, the tests and the load bench;
* :mod:`repro.serve.chaos` — a deterministic fault-injecting TCP proxy
  for chaos drills (refuse / reset / delay / truncate, all seeded);
* :mod:`repro.serve.supervisor` — restart-on-crash process supervision
  with seeded backoff and crash-loop detection
  (``repro serve --supervise``).
"""

from repro.serve.chaos import BackgroundProxy, ChaosProxy
from repro.serve.client import ServeClient, ServeError
from repro.serve.coalesce import Coalescer
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.serve.server import BackgroundServer, ScheduleServer, ServeConfig
from repro.serve.supervisor import Supervisor, SupervisorConfig

__all__ = ["ServeClient", "ServeError", "Coalescer", "PROTOCOL_VERSION",
           "ProtocolError", "BackgroundServer", "ScheduleServer",
           "ServeConfig", "ChaosProxy", "BackgroundProxy", "Supervisor",
           "SupervisorConfig"]
