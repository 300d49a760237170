"""Schedule provisioning service: cache, batch API, fault-tolerant runtime.

The first scaling layer of the reproduction.  Where :mod:`repro.core`
computes one schedule exactly, this package serves *many* schedule
requests fast:

``repro.service.store``
    Content-addressed, versioned on-disk schedule cache with an in-memory
    LRU front, atomic writes and corruption-tolerant loads.
``repro.service.runtime``
    The fault-tolerant execution layer the sweep engine shards over:
    individual futures, per-task timeout, retry with seeded backoff,
    broken-pool recovery with bisection quarantine, and a checkpoint
    callback per finished task.
``repro.service.api``
    The batch request surface — :class:`ProvisionRequest`,
    :class:`ProvisionResult`, :func:`provision_batch`,
    :func:`provision_batch_report` — exposed on the command line as
    ``repro provision`` (JSONL in/out).
"""

from repro.service.api import (
    BatchReport,
    ProvisionRequest,
    ProvisionResult,
    provision_batch,
    provision_batch_report,
)
from repro.service.runtime import (
    RuntimeConfig,
    RuntimeResult,
    TaskReport,
    execute_tasks,
)
from repro.service.store import (
    ScheduleStore,
    StoreStats,
    default_cache_dir,
    eval_key,
    key_digest,
    plan_key,
)

__all__ = [
    "ProvisionRequest",
    "ProvisionResult",
    "BatchReport",
    "provision_batch",
    "provision_batch_report",
    "RuntimeConfig",
    "RuntimeResult",
    "TaskReport",
    "execute_tasks",
    "ScheduleStore",
    "StoreStats",
    "default_cache_dir",
    "eval_key",
    "plan_key",
    "key_digest",
]
