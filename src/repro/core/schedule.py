"""The ``<T, R>`` schedule datatype of the paper's section 3.

A schedule over node set ``V_n = {0, .., n-1}`` is a pair of equal-length
arrays ``T`` and ``R``; ``T[i]`` and ``R[i]`` are the (disjoint) sets of
nodes eligible to transmit and to receive in every slot congruent to ``i``
modulo the frame length ``L``.  Nodes in neither set sleep.

Representation: each per-slot set is a Python-int bitmask over nodes, and
each per-node slot set (``tran(x)``, ``recv(x)``) is a bitmask over slots.
Frames are short (at most a few thousand slots) and ``n`` is at most a few
hundred, so arbitrary-precision integer bit algebra is both exact and fast —
the single-word AND/OR/ANDNOT operations that dominate transparency and
throughput checking run at memory speed, following the "choose the right
data structure before reaching for compiled code" guidance of the HPC
guides.  NumPy boolean-matrix views are provided for vectorized analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro._validation import check_int
from repro.combinatorics.coverfree import list_from_mask, mask_from_set, set_from_mask

__all__ = ["Schedule"]


@dataclass(frozen=True)
class Schedule:
    """An ``<T, R>`` schedule over ``V_n`` with frame length ``L = len(tx)``.

    Attributes
    ----------
    n:
        Number of node identifiers the schedule is defined for (the ``n``
        of the network class ``N_n^D``).
    tx:
        Per-slot transmitter-eligible sets as node bitmasks, length ``L``.
    rx:
        Per-slot receiver-eligible sets as node bitmasks, length ``L``.

    Invariants (validated at construction): ``len(tx) == len(rx) >= 1``,
    every mask is within ``[0, 2**n)``, and ``tx[i] & rx[i] == 0`` for all
    slots (a node cannot transmit and receive simultaneously).
    """

    n: int
    tx: tuple[int, ...]
    rx: tuple[int, ...]

    def __post_init__(self) -> None:
        check_int(self.n, "n", minimum=1)
        if len(self.tx) != len(self.rx):
            raise ValueError(
                f"T and R must have equal length, got {len(self.tx)} != {len(self.rx)}"
            )
        if len(self.tx) == 0:
            raise ValueError("a schedule must have at least one slot")
        limit = 1 << self.n
        for i, (t, r) in enumerate(zip(self.tx, self.rx)):
            if not isinstance(t, int) or not 0 <= t < limit:
                raise ValueError(f"tx[{i}] is not a node bitmask over [0, {self.n})")
            if not isinstance(r, int) or not 0 <= r < limit:
                raise ValueError(f"rx[{i}] is not a node bitmask over [0, {self.n})")
            if t & r:
                raise ValueError(
                    f"slot {i}: transmitter and receiver sets intersect "
                    f"(nodes {list_from_mask(t & r)})"
                )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_sets(cls, n: int, tx_sets: Sequence[Iterable[int]],
                  rx_sets: Sequence[Iterable[int]]) -> "Schedule":
        """Build a schedule from explicit per-slot node sets."""
        n = check_int(n, "n", minimum=1)
        tx = []
        rx = []
        for i, s in enumerate(tx_sets):
            elems = sorted(set(s))
            if elems and (elems[0] < 0 or elems[-1] >= n):
                raise ValueError(f"tx_sets[{i}] not within [0, {n})")
            tx.append(mask_from_set(elems))
        for i, s in enumerate(rx_sets):
            elems = sorted(set(s))
            if elems and (elems[0] < 0 or elems[-1] >= n):
                raise ValueError(f"rx_sets[{i}] not within [0, {n})")
            rx.append(mask_from_set(elems))
        return cls(n, tuple(tx), tuple(rx))

    @classmethod
    def non_sleeping(cls, n: int, tx_sets: Sequence[Iterable[int]]) -> "Schedule":
        """Build a non-sleeping schedule ``<T>``: ``R[i] = V_n - T[i]``.

        This is the ``<T>`` abbreviation of section 3: every node is active
        in every slot, receiving whenever it does not transmit.
        """
        n = check_int(n, "n", minimum=1)
        full = (1 << n) - 1
        tx = []
        for i, s in enumerate(tx_sets):
            elems = sorted(set(s))
            if elems and (elems[0] < 0 or elems[-1] >= n):
                raise ValueError(f"tx_sets[{i}] not within [0, {n})")
            tx.append(mask_from_set(elems))
        rx = tuple(full & ~t for t in tx)
        return cls(n, tuple(tx), rx)

    @classmethod
    def from_matrices(cls, tx_matrix: np.ndarray, rx_matrix: np.ndarray) -> "Schedule":
        """Build a schedule from boolean matrices of shape ``(L, n)``."""
        tm = np.asarray(tx_matrix, dtype=bool)
        rm = np.asarray(rx_matrix, dtype=bool)
        if tm.shape != rm.shape or tm.ndim != 2:
            raise ValueError(
                f"matrices must share a 2-D shape, got {tm.shape} and {rm.shape}"
            )
        n = tm.shape[1]
        tx = tuple(mask_from_set(np.nonzero(row)[0].tolist()) for row in tm)
        rx = tuple(mask_from_set(np.nonzero(row)[0].tolist()) for row in rm)
        return cls(n, tx, rx)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def frame_length(self) -> int:
        """The frame length ``L``."""
        return len(self.tx)

    def tx_set(self, slot: int) -> frozenset[int]:
        """``T[slot]`` as a frozenset of nodes."""
        return set_from_mask(self.tx[slot])

    def rx_set(self, slot: int) -> frozenset[int]:
        """``R[slot]`` as a frozenset of nodes."""
        return set_from_mask(self.rx[slot])

    @cached_property
    def _tran(self) -> tuple[int, ...]:
        """Per-node transmission-slot bitmasks (over slots)."""
        out = [0] * self.n
        for i, mask in enumerate(self.tx):
            bit = 1 << i
            m = mask
            while m:
                low = m & -m
                out[low.bit_length() - 1] |= bit
                m ^= low
        return tuple(out)

    @cached_property
    def _recv(self) -> tuple[int, ...]:
        """Per-node reception-slot bitmasks (over slots)."""
        out = [0] * self.n
        for i, mask in enumerate(self.rx):
            bit = 1 << i
            m = mask
            while m:
                low = m & -m
                out[low.bit_length() - 1] |= bit
                m ^= low
        return tuple(out)

    def tran_mask(self, x: int) -> int:
        """``tran(x)`` as a bitmask over slots ``[0, L)``."""
        check_int(x, "x", minimum=0, maximum=self.n - 1)
        return self._tran[x]

    def recv_mask(self, x: int) -> int:
        """``recv(x)`` as a bitmask over slots ``[0, L)``."""
        check_int(x, "x", minimum=0, maximum=self.n - 1)
        return self._recv[x]

    def tran(self, x: int) -> frozenset[int]:
        """``tran(x)`` as a frozenset of slot indices."""
        return set_from_mask(self.tran_mask(x))

    def recv(self, x: int) -> frozenset[int]:
        """``recv(x)`` as a frozenset of slot indices."""
        return set_from_mask(self.recv_mask(x))

    # ------------------------------------------------------------------
    # counts and classification
    # ------------------------------------------------------------------
    @cached_property
    def tx_counts(self) -> tuple[int, ...]:
        """``|T[i]|`` for every slot."""
        return tuple(m.bit_count() for m in self.tx)

    @cached_property
    def rx_counts(self) -> tuple[int, ...]:
        """``|R[i]|`` for every slot."""
        return tuple(m.bit_count() for m in self.rx)

    def is_non_sleeping(self) -> bool:
        """True iff ``T[i] | R[i] == V_n`` in every slot (section 3)."""
        full = (1 << self.n) - 1
        return all(t | r == full for t, r in zip(self.tx, self.rx))

    def is_alpha_schedule(self, alpha_t: int, alpha_r: int) -> bool:
        """True iff this is an ``(alpha_T, alpha_R)``-schedule (section 3)."""
        alpha_t = check_int(alpha_t, "alpha_t", minimum=0)
        alpha_r = check_int(alpha_r, "alpha_r", minimum=0)
        return all(c <= alpha_t for c in self.tx_counts) and all(
            c <= alpha_r for c in self.rx_counts
        )

    def duty_cycle(self, x: int) -> Fraction:
        """Fraction of slots in which node *x* is awake (transmit or receive)."""
        active = (self.tran_mask(x) | self.recv_mask(x)).bit_count()
        return Fraction(active, self.frame_length)

    def duty_cycles(self) -> list[Fraction]:
        """Per-node awake fractions."""
        return [self.duty_cycle(x) for x in range(self.n)]

    def average_duty_cycle(self) -> Fraction:
        """Mean awake fraction over all nodes — the schedule's energy knob."""
        total = sum(
            (t | r).bit_count() for t, r in zip(self.tx, self.rx)
        )
        return Fraction(total, self.n * self.frame_length)

    def transmit_share(self, x: int) -> Fraction:
        """Fraction of slots in which node *x* is transmit-eligible."""
        return Fraction(self.tran_mask(x).bit_count(), self.frame_length)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def tx_matrix(self) -> np.ndarray:
        """Boolean matrix of shape ``(L, n)``: slot x node transmit eligibility."""
        out = np.zeros((self.frame_length, self.n), dtype=bool)
        for i in range(self.frame_length):
            m = self.tx[i]
            while m:
                low = m & -m
                out[i, low.bit_length() - 1] = True
                m ^= low
        return out

    def rx_matrix(self) -> np.ndarray:
        """Boolean matrix of shape ``(L, n)``: slot x node receive eligibility."""
        out = np.zeros((self.frame_length, self.n), dtype=bool)
        for i in range(self.frame_length):
            m = self.rx[i]
            while m:
                low = m & -m
                out[i, low.bit_length() - 1] = True
                m ^= low
        return out

    def restricted_to(self, n: int) -> "Schedule":
        """Restrict the schedule to the first *n* node identifiers.

        Useful when a substrate construction yields eligibility for more
        codewords than there are nodes.
        """
        n = check_int(n, "n", minimum=1, maximum=self.n)
        mask = (1 << n) - 1
        return Schedule(n, tuple(t & mask for t in self.tx),
                        tuple(r & mask for r in self.rx))

    def __repr__(self) -> str:
        kind = "non-sleeping " if self.is_non_sleeping() else ""
        return (
            f"Schedule({kind}n={self.n}, L={self.frame_length}, "
            f"|T| in [{min(self.tx_counts)}, {max(self.tx_counts)}], "
            f"|R| in [{min(self.rx_counts)}, {max(self.rx_counts)}])"
        )
