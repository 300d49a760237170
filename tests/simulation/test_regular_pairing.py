"""Pins and a property for :func:`worst_case_regular`'s edge sets.

Both benchmark sweeps, the ``regular`` sweep topology, ``repro
simulate`` and the section 5 experiments draw their ``D``-regular
networks from this one generator, so every sweep row and simulator
golden downstream depends on the exact edge set each seed yields.  The
digests were recorded while networkx's ``random_regular_graph`` still
supplied the graph; they cover:

* every ``n`` in 3..200 with ``D`` in 2..8 (``n * D`` even, ``D < n``),
  each seeded from a list that includes seeds at and just past 2**31;
* every ``n`` in 3..40 with every such ``D`` under seeds 0..4;
* the ``rng=`` path, which derives the seed from a NumPy generator;
* the unseeded path, which draws from the :mod:`random` module's global
  instance (re-seeded here with ``random.seed``).

A Hypothesis property checks the in-repo pairing against the installed
networkx (a test dependency only) beyond the pinned cases.
"""

from __future__ import annotations

import hashlib
import json
import random

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.topology import worst_case_regular

SEEDS = (0, 1, 7, 12345, 2**31 - 2, 2**31 - 1, 2**31, 2**31 + 1)

SEEDED_DIGEST = "e14226eb2cf7c07d39cd997de51d75831ab87dc541fd545a718ee581fc3161ae"
RNG_DIGEST = "7592e7a1c092b8f775855c9c2b5ddb0aba2e49f5dd09e552d057445e787e9696"
UNSEEDED_DIGEST = "239750c3c7414591a0f1bcf48249d69ab81052b0b8bcd7e5381ed276cfbee024"


def _classes(max_n: int) -> list[tuple[int, int]]:
    return [(n, d) for n in range(3, max_n + 1) for d in range(2, 9)
            if d < n and n * d % 2 == 0]


def _digest(cases) -> str:
    """SHA-256 over ``[n, D, label, sorted edges]`` for every case."""
    h = hashlib.sha256()
    for n, d, label, topo in cases:
        doc = [n, d, label, sorted(topo.edges)]
        h.update(json.dumps(doc, separators=(",", ":")).encode() + b"\n")
    return h.hexdigest()


def test_seeded_edge_sets():
    cases = []
    for i, (n, d) in enumerate(_classes(200)):
        seed = SEEDS[i % len(SEEDS)]
        cases.append((n, d, seed, worst_case_regular(n, d, seed=seed)))
    for n, d in _classes(40):
        for seed in range(5):
            cases.append((n, d, seed, worst_case_regular(n, d, seed=seed)))
    assert _digest(cases) == SEEDED_DIGEST


def test_rng_path_edge_sets():
    cases = []
    for n in (10, 16, 36, 64, 100, 200):
        for d in range(2, 9):
            for k in range(3):
                topo = worst_case_regular(n, d, rng=np.random.default_rng(k))
                cases.append((n, d, k, topo))
    assert _digest(cases) == RNG_DIGEST


def test_unseeded_path_edge_sets():
    state = random.getstate()
    try:
        cases = []
        for n, d in [(10, 3), (16, 4), (36, 2), (64, 4), (100, 8)]:
            for k in range(3):
                random.seed(k)
                cases.append((n, d, k, worst_case_regular(n, d)))
    finally:
        random.setstate(state)
    assert _digest(cases) == UNSEEDED_DIGEST


@st.composite
def _regular_classes(draw):
    n = draw(st.integers(min_value=3, max_value=120))
    d = draw(st.sampled_from([d for d in range(2, min(n - 1, 10) + 1)
                              if n * d % 2 == 0]))
    return n, d


@settings(max_examples=150, deadline=None)
@given(cls=_regular_classes(), seed=st.integers(0, 2**32), unseeded=st.booleans())
def test_pairing_draws_as_networkx(cls, seed, unseeded):
    """Same edges as networkx's ``random_regular_graph`` for the same
    seed, or after the same ``random.seed`` on the unseeded path."""
    n, d = cls
    state = random.getstate()
    try:
        if unseeded:
            random.seed(seed)
            ours = worst_case_regular(n, d)
            random.seed(seed)
            theirs = nx.random_regular_graph(d, n)
        else:
            ours = worst_case_regular(n, d, seed=seed)
            theirs = nx.random_regular_graph(d, n, seed=seed)
    finally:
        random.setstate(state)
    assert ours.edges == {(min(u, v), max(u, v)) for u, v in theirs.edges}
