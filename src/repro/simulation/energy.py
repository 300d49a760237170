"""Per-slot radio energy model and accounting.

Idle listening is the energy sink duty cycling exists to eliminate (the
paper's introduction cites PAMAS, S-MAC and friends on this).  The model
here is the standard one for CC2420-class sensor radios: each node spends
one of three radio states per slot, each with a fixed charge cost.  Default
currents follow the CC2420 datasheet (transmit at 0 dBm 17.4 mA, receive/
listen 18.8 mA, sleep 0.021 mA) at 3 V with 10 ms slots; what matters for
the experiments is only the *ordering* tx ~ rx >> sleep, which is
universal across sensor-node radios.  There is no idle state: in the
paper's model a transmit-eligible node with nothing to send sleeps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro._validation import check_int, check_nonnegative_float, check_positive_float

__all__ = ["RadioState", "EnergyModel", "EnergyAccount"]


class RadioState(enum.Enum):
    """Radio state of a node during one slot."""

    TRANSMIT = "transmit"
    RECEIVE = "receive"    # listening and successfully/unsuccessfully receiving
    SLEEP = "sleep"


@dataclass(frozen=True)
class EnergyModel:
    """Energy cost (millijoules) charged per slot in each radio state.

    ``wakeup_mj`` is charged once per sleep-to-awake transition: real
    radios pay a startup cost (oscillator stabilization, ~1-2 ms at
    receive current) every time they wake, which penalizes schedules that
    scatter a node's active slots instead of batching them.
    """

    tx_mj: float = 0.522      # 17.4 mA * 3 V * 10 ms
    rx_mj: float = 0.564      # 18.8 mA * 3 V * 10 ms
    sleep_mj: float = 0.00063  # 0.021 mA * 3 V * 10 ms
    wakeup_mj: float = 0.085  # ~1.5 ms startup at rx current

    def __post_init__(self) -> None:
        check_nonnegative_float(self.tx_mj, "tx_mj")
        check_nonnegative_float(self.rx_mj, "rx_mj")
        check_nonnegative_float(self.sleep_mj, "sleep_mj")
        check_nonnegative_float(self.wakeup_mj, "wakeup_mj")

    def cost(self, state: RadioState) -> float:
        """Per-slot cost of *state* in millijoules."""
        if state is RadioState.TRANSMIT:
            return self.tx_mj
        if state is RadioState.RECEIVE:
            return self.rx_mj
        return self.sleep_mj


@dataclass
class EnergyAccount:
    """Accumulates per-node energy spend and state occupancy."""

    n: int
    model: EnergyModel
    spent_mj: np.ndarray = field(init=False)
    state_slots: dict[RadioState, np.ndarray] = field(init=False)
    wakeups: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        check_int(self.n, "n", minimum=1)
        self.spent_mj = np.zeros(self.n, dtype=np.float64)
        # Slot counts per node and state (RadioState order); state_slots[s]
        # is a view of column s, so charge_slot counts a whole slot with
        # one indexed add on the flat cells node * 3 + state.
        occupancy = np.zeros((self.n, len(RadioState)), dtype=np.int64)
        self.state_slots = dict(zip(RadioState, occupancy.T))
        self._cells = occupancy.reshape(-1)
        self._rows = np.arange(self.n) * len(RadioState)
        self.wakeups = np.zeros(self.n, dtype=np.int64)
        self._cost = {s: self.model.cost(s) for s in RadioState}
        self._costs = np.array([self.model.cost(s) for s in RadioState])

    def charge(self, node: int, state: RadioState) -> None:
        """Charge *node* for one slot spent in *state*."""
        self.spent_mj[node] += self._cost[state]
        self.state_slots[state][node] += 1

    def charge_wakeup(self, node: int) -> None:
        """Charge *node* one radio startup (sleep -> awake transition)."""
        self.spent_mj[node] += self.model.wakeup_mj
        self.wakeups[node] += 1

    def charge_slot(self, states: np.ndarray, woke: np.ndarray) -> None:
        """Charge every node one slot, then a startup where *woke* is set.

        ``states[x]`` is the position of node x's state in
        :class:`RadioState` order.  Each node gets the same float64
        additions in the same order as :meth:`charge` followed by
        :meth:`charge_wakeup`, so the spend is bit-for-bit the same.
        """
        self.spent_mj += self._costs[states]
        self._cells[self._rows + states] += 1
        if woke.any():
            self.spent_mj[woke] += self.model.wakeup_mj
            self.wakeups += woke

    def total_mj(self) -> float:
        """Network-wide energy spend in millijoules."""
        return float(self.spent_mj.sum())

    def per_node_mj(self) -> np.ndarray:
        """Copy of the per-node spend vector."""
        return self.spent_mj.copy()

    def awake_fraction(self) -> float:
        """Fraction of node-slots spent awake (transmit or receive)."""
        awake = sum(int(self.state_slots[s].sum())
                    for s in (RadioState.TRANSMIT, RadioState.RECEIVE))
        total = sum(int(v.sum()) for v in self.state_slots.values())
        return awake / total if total else 0.0

    def jain_fairness(self) -> float:
        """Jain's fairness index of per-node energy spend (1 = perfectly even).

        ``(sum x)^2 / (n * sum x^2)``; the balanced-energy experiments (E10)
        compare this between the plain and balanced constructions.
        """
        x = self.spent_mj
        denom = self.n * float((x * x).sum())
        if denom == 0.0:
            return 1.0
        return float(x.sum()) ** 2 / denom

    def lifetime_slots(self, budget_mj: float) -> int:
        """Slots until the hungriest node exhausts *budget_mj*, extrapolating
        the observed average per-slot drain (first-node-dies definition)."""
        budget_mj = check_positive_float(budget_mj, "budget_mj")
        slots = sum(int(v.sum()) for v in self.state_slots.values()) // self.n
        if slots == 0:
            raise ValueError("no slots recorded yet")
        worst_rate = float(self.spent_mj.max()) / slots
        if worst_rate == 0.0:
            return 2**63 - 1
        return int(budget_mj / worst_rate)
