"""The host's speed, sampled while a workload runs.

The benchmark was built on a 2-vCPU VM of a shared machine, whose speed
changes under it in two ways:

- Each vCPU switches, on its own and for a second to minutes at a time,
  between two speeds about 1.6x apart: a fixed loop of pure Python took
  17 ms in one and 28 ms in the other.
- Now and then, for tens of seconds, reads from memory outside the core's
  own caches get up to ten times slower, while that loop does not.

A run's 24-second window catches any mix of these.  Over consecutive
24-second windows, one sweep's median invocation time spread by up to
44% (interquartile range over median), and no statistic over the window
(median, quartile, minimum, a longer window) kept it within the bounds.

So every run also samples the host's speed.  One probe process per CPU,
pinned to it, times a fixed piece of work every :data:`PERIOD_S` seconds:
interpreted Python and JSON, and reads scattered over a buffer far larger
than the core's caches.  It reads the thread's CPU time, so waiting for
the CPU while the program runs on it does not count; it runs the work
once untimed first, so the wake-up from its own sleep does not count
either.  :meth:`Speed.scale` then reports a time the benchmark measured
as the time it would have taken at the reference speed, the speed at
which the probe's work takes :data:`REFERENCE_MS`::

    scaled = measured * REFERENCE_MS / (median probe time around it)

A program change leaves the probe's work alone, so a program that gets
slower reads slower; a host that gets slower does not.  The scaling is
exact only for code that slows down as much as the probe does: NumPy
kernels slow down less than interpreted Python (1.4x against 1.6-1.85x),
and code whose data fits in the core's caches does not feel the memory.

Run as a script, this module is the probe::

    python benchmarks/e2e/speed.py --cpu 0 --out samples.txt

It writes one line per sample, ``<perf_counter seconds> <probe ns>``, and
runs until it is killed.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import statistics
import time
from pathlib import Path

#: Seconds between two samples of one probe.  Each sample runs the work
#: twice, about 0.6-1 ms, so a probe takes 3-4% of its CPU.
PERIOD_S = 0.025
#: Probe time, in ms, of the reference speed: about the host's fast mode.
REFERENCE_MS = 0.3
#: An interval is scaled by the samples within this many seconds of it
#: (more, if a probe took fewer than three samples there).
PAD_S = 0.1
#: Longer intervals are scaled in pieces of at most this many seconds.
PIECE_S = 1.0
#: The probe's scattered reads: this many, over a buffer of this many
#: bytes (the cores' own caches hold 2 MiB).
READS, HEAP_BYTES = 750, 16 << 20

_DOC = {"rows": [{"n": i, "name": f"node-{i}", "slots": [i, i + 1, i + 2]}
                 for i in range(12)]}


def _work(heap: bytes, offsets: list[int]) -> int:
    """Interpreter-bound work like the program's (arithmetic, a dict of
    tuples, strings and JSON), then scattered reads of *heap*."""
    x = 0
    for i in range(1500):
        x += (i * i) % 7
    table = {}
    for i in range(300):
        table[i] = (i, str(i))
    for _ in range(3):
        json.loads(json.dumps(_DOC))
    for offset in offsets:
        x += heap[offset]
    return x + len(table)


def probe(cpu: int, out: Path) -> None:
    """Sample the speed of *cpu* into *out* until killed."""
    os.sched_setaffinity(0, {cpu})
    heap = bytes(range(256)) * (HEAP_BYTES // 256)   # every page written
    rng = random.Random(cpu)
    offsets = [rng.randrange(len(heap)) for _ in range(READS)]
    with open(out, "w") as fh:
        while True:
            _work(heap, offsets)
            start = time.thread_time_ns()
            _work(heap, offsets)
            took = time.thread_time_ns() - start
            fh.write(f"{time.perf_counter():.6f} {took}\n")
            fh.flush()
            time.sleep(PERIOD_S)


class Speed:
    """The samples of every probe, by the CPU it sampled.

    *cpus*, when given, are the CPUs the measured program ran on: only
    their probes count.  A server pinned to one CPU slows down with that
    CPU alone (its latency follows that CPU's probe time to the power
    1.1, and the other CPU's, where the load generator runs, to the power
    0.1).
    """

    def __init__(self, files: dict[int, Path],
                 cpus: set[int] | None = None) -> None:
        self._cpus = []
        for cpu, path in sorted(files.items()):
            if cpus is not None and cpu not in cpus:
                continue
            times, ms = [], []
            for line in path.read_text().splitlines():
                fields = line.split()
                if len(fields) == 2:   # the last line may be half written
                    times.append(float(fields[0]))
                    ms.append(int(fields[1]) / 1e6)
            self._cpus.append((times, ms))
        if not self._cpus:
            raise ValueError(f"no probe on CPUs {cpus}")

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the host's speed from *start* to *end*:
        below 1 when the host ran slower than the reference.

        Each CPU's speed is its median sample, since single samples
        vary; the CPUs are averaged, not pooled, since they switch speed
        independently and a pooled median would jump between the two.
        """
        factors = []
        for times, ms in self._cpus:
            pad = PAD_S
            while True:
                lo = bisect.bisect_left(times, start - pad)
                hi = bisect.bisect_right(times, end + pad)
                if hi - lo >= 3:
                    break
                if pad > 10 * PAD_S:
                    raise RuntimeError(f"{hi - lo} speed samples around "
                                       f"[{start:.3f}, {end:.3f}]")
                pad *= 2
            factors.append(REFERENCE_MS / statistics.median(ms[lo:hi]))
        return statistics.mean(factors)

    def scale(self, start: float, end: float) -> float:
        """Seconds that ``[start, end]`` would have taken at the reference
        speed."""
        total, at = 0.0, start
        while at < end:
            step = min(PIECE_S, end - at)
            total += step * self.factor(at, at + step)
            at += step
        return total


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--cpu", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    probe(args.cpu, args.out)


if __name__ == "__main__":
    main()
