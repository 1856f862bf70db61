"""Seeded inputs: corpora, query mixes and windows.

Everything a workload feeds the program is derived from ``--seed`` here,
so one seed always gives the same corpus, the same queries and the same
windows.  The program only ever sees the generated inputs.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import List, NamedTuple, Sequence, Tuple

from repro.datasets.synthetic import powerlaw_graph
from repro.graph.model import Contact, GraphKind, TemporalGraph

#: Corpus of the point and scan workloads: 36k nodes x 8 contacts.  Its
#: decoded records cost ~34 MiB (984 bytes a record) against the 32 MiB
#: default record cache, so a sequential pass always misses.
CORPUS_NODES = 36_000
#: Stream of the served workload, built into a store by ingest.
SERVED_NODES = 6_000
#: Stream of the ingest workload: more than a run's worth of ingest.
INGEST_NODES = 30_000
EDGES_PER_NODE = 8
TIME_STEPS = 1_000

#: Point-query mix, as shares of neighbors / has_edge / edge_timestamps.
MIX = (("neighbors", 0.7), ("has_edge", 0.2), ("edge_timestamps", 0.1))
#: Zipf exponent of node popularity.
ZIPF_S = 1.0
#: Query windows span this share of the corpus lifespan.
WINDOW_SHARE = 0.10
#: Share of has_edge / edge_timestamps queries that name an existing edge.
EXISTING_EDGE_SHARE = 0.9


class Query(NamedTuple):
    op: str           # "neighbors" | "has_edge" | "edge_timestamps"
    u: int
    v: int            # -1 for neighbors
    t_start: int
    t_end: int


def corpus(nodes: int, seed: int) -> TemporalGraph:
    """A seeded power-law interval graph (the paper's ``powerlaw`` kind)."""
    return powerlaw_graph(
        num_nodes=nodes,
        edges_per_node=EDGES_PER_NODE,
        time_steps=TIME_STEPS,
        seed=seed,
    )


def time_ordered(graph: TemporalGraph) -> List[Contact]:
    """The graph's contacts as an arrival stream: by time, then (u, v)."""
    return sorted(graph.contacts, key=lambda c: (c.time, c.u, c.v, c.duration))


def window(rng: random.Random, t_lo: int, t_hi: int) -> Tuple[int, int]:
    """A closed window covering WINDOW_SHARE of [t_lo, t_hi]."""
    width = max(1, int((t_hi - t_lo + 1) * WINDOW_SHARE))
    a = rng.randint(t_lo, max(t_lo, t_hi - width))
    return a, a + width


class QueryMaker:
    """Zipf-skewed point queries over a seeded node permutation."""

    def __init__(self, graph: TemporalGraph, seed: int) -> None:
        self.rng = random.Random(seed)
        n = graph.num_nodes
        self.perm = list(range(n))
        self.rng.shuffle(self.perm)
        self.cum = list(itertools.accumulate(1.0 / (r ** ZIPF_S) for r in range(1, n + 1)))
        self.graph = graph
        self.t_lo, self.t_hi = graph.t_min, graph.t_max  # properties that scan every contact
        ops, shares = zip(*MIX)
        self.ops = ops
        self.op_cum = list(itertools.accumulate(shares))

    def node(self) -> int:
        rank = bisect.bisect_left(self.cum, self.rng.random() * self.cum[-1])
        return self.perm[min(rank, len(self.perm) - 1)]

    def query(self, op: str = "") -> Query:
        if not op:
            op = self.ops[bisect.bisect_left(self.op_cum, self.rng.random() * self.op_cum[-1])]
        u = self.node()
        a, b = window(self.rng, self.t_lo, self.t_hi)
        if op == "neighbors":
            return Query(op, u, -1, a, b)
        distinct = self.graph.distinct_neighbors(u)
        if distinct and self.rng.random() < EXISTING_EDGE_SHARE:
            v = self.rng.choice(distinct)
        else:
            v = self.rng.randrange(self.graph.num_nodes)
        return Query(op, u, v, a, b)

    def queries(self, count: int, op: str = "") -> List[Query]:
        return [self.query(op) for _ in range(count)]


def reference_answer(graph: TemporalGraph, q: Query):
    """The uncompressed reference's answer, in the service's JSON shape."""
    if q.op == "neighbors":
        return graph.ref_neighbors(q.u, q.t_start, q.t_end)
    if q.op == "has_edge":
        return graph.ref_has_edge(q.u, q.v, q.t_start, q.t_end)
    return graph.ref_edge_timestamps(q.u, q.v)


def scan_windows(graph: TemporalGraph, seed: int, count: int) -> List[Tuple[int, int]]:
    """Seeded ``snapshot`` windows for the scan workload."""
    rng = random.Random(seed * 7919 + 1)
    t_lo, t_hi = graph.t_min, graph.t_max
    return [window(rng, t_lo, t_hi) for _ in range(count)]


def batches(stream: Sequence[Contact], size: int) -> List[List[Contact]]:
    return [list(stream[i:i + size]) for i in range(0, len(stream), size)]


def active_neighbors(contacts: Sequence[Contact], t_start: int, t_end: int) -> List[int]:
    """Reference ``neighbors`` over one node's contacts (interval kind)."""
    return sorted({c.v for c in contacts if c.is_active(t_start, t_end, GraphKind.INTERVAL)})

