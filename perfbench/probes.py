"""Per-layer metrics of a traced run, from public calls only.

Each probe times a fixed amount of work in one layer, on the traced
workload's own data: its container (or its stream compressed into one),
its segment store (or a store ingested from a time-ordered prefix of its
corpus) and its service (or one started on that store).  Values the
workload measured itself -- cache deltas over its own loop, its write
path, its generator lag -- arrive as ``derived`` and take precedence.

Layers are the repository's packages: ``repro.bits``, ``repro.core``,
``repro.runtime``, ``repro.storage`` and ``repro.service``.
"""

from __future__ import annotations

import json
import socket
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import corpus as cp

from repro import compress, load_compressed, save_compressed
from repro.bits import BitReader, BitWriter, to_natural
from repro.bits import codes
from repro.bits.kernels import kernel_info
from repro.graph.model import GraphKind, TemporalGraph
from repro.runtime import Governor, QueryContext
from repro.service import recv_message, send_message
from repro.storage.segments import SegmentStore

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER = (
    ("bits.decode_ns_per_code", "ns"),
    ("bits.run_len_p50", "count"),
    ("bits.runs_over_crossover", "fraction"),
    ("core.decode_cold_us", "us"),
    ("core.cache_hit_us", "us"),
    ("core.query_us", "us"),
    ("core.cache_hit_ratio", "fraction"),
    ("core.cache_evictions", "count"),
    ("core.misses_per_query", "1/query"),
    ("core.compress_s", "s"),
    ("core.load_s", "s"),
    ("runtime.scope_us", "us"),
    ("runtime.governed_ratio", "ratio"),
    ("runtime.admit_us", "us"),
    ("runtime.shed_fraction", "fraction"),
    ("storage.plan_us", "us"),
    ("storage.parts_per_query", "count"),
    ("storage.segmented_query_us", "us"),
    ("storage.wal_commit_ms", "ms"),
    ("storage.seal_s", "s"),
    ("storage.compact_s", "s"),
    ("storage.bytes_rewritten_per_contact", "bytes/contact"),
    ("storage.segment_count", "count"),
    ("service.frame_encode_us", "us"),
    ("service.frame_decode_us", "us"),
    ("service.response_bytes", "bytes"),
    ("service.ping_rtt_us", "us"),
    ("service.overhead_us", "us"),
    ("service.generator_lag_ms", "ms"),
    ("trace.overhead_fraction", "fraction"),
)

#: The base each ratio is taken against, printed beside it.
BASES = {
    "core.cache_hit_ratio": "hits / record lookups: the loop of point and scan, a replay of the queries on one container for served and ingest",
    "core.misses_per_query": "record misses / workload operations",
    "bits.runs_over_crossover": "runs >= kernel_info()['numpy_min_run'] / all runs",
    "runtime.governed_ratio": "governed neighbors p50 / ungoverned p50, same keys",
    "runtime.shed_fraction": "shed requests / attempted requests",
    "service.overhead_us": "service neighbors RTT p50 minus in-process segmented p50, same keys",
    "trace.overhead_fraction": "traced / untraced cost of the same workload loop, minus 1",
    "storage.bytes_rewritten_per_contact": "segment bytes written by seals and compactions / contacts ingested",
}

#: Contacts of the probe store built for workloads that have none.
PROBE_STORE_CONTACTS = 48_000
PROBE_KEYS = 2_000


def _median_us(samples_ns: List[int]) -> float:
    return statistics.median(samples_ns) / 1e3


def graph_of(contacts, name: str = "probe") -> TemporalGraph:
    """A reference graph over exactly ``contacts``."""
    n = max(max(c.u, c.v) for c in contacts) + 1
    return TemporalGraph(GraphKind.INTERVAL, n, contacts, name=name)


class Kit:
    """The traced workload's objects, completed with whatever it lacks."""

    def __init__(self, ctx, graph: TemporalGraph, cg, queries, *,
                 store_path: Optional[Path] = None,
                 address: Optional[Tuple[str, int]] = None) -> None:
        import workloads as wl

        self.graph = graph
        self.queries = list(queries) or cp.QueryMaker(graph, ctx.seed).queries(PROBE_KEYS)
        self.derived: Dict[str, Tuple[float, str]] = {}
        self._service = None
        if cg is None:
            t0 = time.perf_counter()
            compressed = compress(graph)
            t1 = time.perf_counter()
            path = ctx.workdir / "probe.chrono"
            save_compressed(compressed, path)
            t2 = time.perf_counter()
            cg = load_compressed(path, mmap=True)
            self.derived["core.compress_s"] = (t1 - t0, "s")
            self.derived["core.load_s"] = (time.perf_counter() - t2, "s")
        self.cg = cg
        if store_path is None:
            prefix = cp.time_ordered(graph)[:PROBE_STORE_CONTACTS]
            store_path = ctx.workdir / "probe-store"
            log = wl.build_store(store_path, prefix)
            self.derived.update(log.final)
            self.store_graph = graph_of(prefix)
        else:
            store = SegmentStore.open(store_path, read_only=True)
            try:
                self.store_graph = graph_of(list(store.graph.iter_contacts()))
            finally:
                store.close()
        self.store_path = store_path
        if address is None:
            self._service, address = wl.start_service(store_path)
        self.address = address
        self.store_queries = cp.QueryMaker(self.store_graph, ctx.seed + 1).queries(PROBE_KEYS, "neighbors")

    def close(self) -> None:
        if self._service is not None:
            import workloads as wl

            wl.stop_service(self._service)
            self._service = None


# -- repro.bits ----------------------------------------------------------------

def probe_bits(kit: Kit) -> Dict[str, Tuple[float, str]]:
    """Decode the corpus's own per-node (gap, duration) runs, re-encoded
    with the container's zeta parameters, through ``read_many``."""
    graph, config = kit.graph, kit.cg.config
    k, dk = config.timestamp_zeta_k, config.duration_zeta_k
    t_min = graph.t_min
    writer = BitWriter()
    runs: List[int] = []
    expected: List[int] = []
    for u in graph.active_nodes():
        prev = None
        contacts = graph.contacts_of(u)
        for c in contacts:
            gap = c.time - t_min if prev is None else to_natural(c.time - prev)
            codes.write_zeta_natural(writer, gap, k)
            codes.write_zeta_natural(writer, c.duration, dk)
            expected.append(gap)
            prev = c.time
        runs.append(len(contacts))
    data, nbits = writer.to_bytes(), len(writer)
    per_code: List[float] = []
    for _ in range(3):
        reader = BitReader(data, nbits)
        got: List[int] = []
        t0 = time.perf_counter_ns()
        for count in runs:
            gaps, _durations = codes.read_many_zeta_natural_pairs(reader, count, k, dk)
            got.extend(gaps)
        per_code.append((time.perf_counter_ns() - t0) / (2 * len(expected)))
        if got != expected:
            raise AssertionError("bits probe decoded different gaps than it encoded")
    crossover = kernel_info()["numpy_min_run"]
    return {
        "bits.decode_ns_per_code": (statistics.median(per_code), "ns"),
        "bits.run_len_p50": (float(statistics.median(runs)), "count"),
        "bits.runs_over_crossover": (sum(1 for r in runs if r >= crossover) / len(runs), "fraction"),
    }


# -- repro.core and repro.runtime -----------------------------------------------

def probe_core(kit: Kit) -> Dict[str, Tuple[float, str]]:
    cg = kit.cg
    keys = [q for q in kit.queries if q.u < cg.num_nodes][:PROBE_KEYS]
    clock = time.perf_counter_ns
    cold = []
    for q in keys[:300]:
        cg.clear_cache()
        t0 = clock()
        cg.contacts_of(q.u)
        cold.append(clock() - t0)
    hit, plain, governed = [], [], []
    for q in keys:
        cg.contacts_of(q.u)
        t0 = clock()
        cg.contacts_of(q.u)
        t1 = clock()
        cg.neighbors(q.u, q.t_start, q.t_end)
        t2 = clock()
        cg.neighbors(q.u, q.t_start, q.t_end, ctx=QueryContext(timeout=1.0))
        t3 = clock()
        hit.append(t1 - t0)
        plain.append(t2 - t1)
        governed.append(t3 - t2)
    governor = Governor()
    admit = []
    for _ in range(20):
        t0 = clock()
        for _ in range(1000):
            with governor.admit():
                pass
        admit.append((clock() - t0) / 1000)
    out = {
        "core.decode_cold_us": (_median_us(cold), "us"),
        "core.cache_hit_us": (_median_us(hit), "us"),
        "core.query_us": (_median_us(plain), "us"),
        "runtime.scope_us": (_median_us(governed) - _median_us(plain), "us"),
        "runtime.governed_ratio": (statistics.median(governed) / statistics.median(plain), "ratio"),
        "runtime.admit_us": (_median_us(admit), "us"),
    }
    # Cache behaviour of the workload's query mix, for workloads whose own
    # loop runs elsewhere (in a service worker or on segment parts).
    cg.clear_cache()
    for q in kit.queries:
        cg.neighbors(q.u, q.t_start, q.t_end)
    before = cg.cache_stats()
    for q in kit.queries:
        cg.neighbors(q.u, q.t_start, q.t_end)
    after = cg.cache_stats()
    hits, misses = after["hits"] - before["hits"], after["misses"] - before["misses"]
    out["core.cache_hit_ratio"] = (hits / max(1, hits + misses), "fraction")
    out["core.cache_evictions"] = (float(after["evictions"] - before["evictions"]), "count")
    out["core.misses_per_query"] = (misses / max(1, len(kit.queries)), "1/query")
    return out


# -- repro.storage ----------------------------------------------------------------

def probe_storage(kit: Kit) -> Dict[str, Tuple[float, str]]:
    store = SegmentStore.open(kit.store_path, read_only=True)
    clock = time.perf_counter_ns
    try:
        view = store.graph
        plan, query, parts = [], [], []
        for q in kit.store_queries:
            view.neighbors(q.u, q.t_start, q.t_end)
        for q in kit.store_queries:
            t0 = clock()
            planned = view.plan(q.t_start, q.t_end)
            t1 = clock()
            view.neighbors(q.u, q.t_start, q.t_end)
            t2 = clock()
            plan.append(t1 - t0)
            query.append(t2 - t1)
            parts.append(len(planned) + 1)  # the tail is always consulted
    finally:
        store.close()
    return {
        "storage.plan_us": (_median_us(plan), "us"),
        "storage.parts_per_query": (statistics.mean(parts), "count"),
        "storage.segmented_query_us": (_median_us(query), "us"),
    }


# -- repro.service ------------------------------------------------------------------

def _request(rid: int, q) -> Dict:
    return {"id": rid, "op": "neighbors", "params": {"args": [q.u, q.t_start, q.t_end]},
            "timeout_ms": 1000}


def probe_service(kit: Kit, segmented_us: float) -> Dict[str, Tuple[float, str]]:
    """Framing, round trips and a short open loop; ``segmented_us`` is the
    in-process query time the service overhead is measured against."""
    import openloop

    graph = kit.store_graph
    clock = time.perf_counter_ns
    enc, dec, sizes = [], [], []
    a, b = socket.socketpair()
    try:
        for i, q in enumerate(kit.store_queries[:500]):
            request = _request(i, q)
            response = {"id": i, "ok": True, "worker": 0,
                        "result": graph.ref_neighbors(q.u, q.t_start, q.t_end)}
            t0 = clock()
            send_message(a, request)
            t1 = clock()
            recv_message(b)
            t2 = clock()
            send_message(b, response)
            t3 = clock()
            recv_message(a)
            t4 = clock()
            enc.append((t1 - t0) + (t3 - t2))
            dec.append((t2 - t1) + (t4 - t3))
            sizes.append(4 + len(json.dumps(response, separators=(",", ":"))))
    finally:
        a.close()
        b.close()
    ping, rtt = [], []
    with socket.create_connection(kit.address, timeout=5.0) as s:
        for i, q in enumerate(kit.store_queries[:500]):
            t0 = clock()
            send_message(s, {"id": i, "op": "ping"})
            recv_message(s)
            t1 = clock()
            send_message(s, _request(i, q))
            reply = recv_message(s)
            t2 = clock()
            if reply is None or reply.get("result") != graph.ref_neighbors(q.u, q.t_start, q.t_end):
                raise AssertionError(f"service probe: wrong answer for {q}")
            ping.append(t1 - t0)
            rtt.append(t2 - t1)
    out = {
        "service.frame_encode_us": (_median_us(enc), "us"),
        "service.frame_decode_us": (_median_us(dec), "us"),
        "service.response_bytes": (float(statistics.median(sizes)), "bytes"),
        "service.ping_rtt_us": (_median_us(ping), "us"),
        "service.overhead_us": (_median_us(rtt) - segmented_us, "us"),
    }
    # A short open loop for workloads that have none of their own.
    socks = [socket.create_connection(kit.address, timeout=5.0) for _ in range(2)]
    try:
        msgs = [_request(10_000 + i, q) for i, q in enumerate(kit.store_queries[:300])]
        res = openloop.drive(socks, msgs, 300.0, read_deadline=5.0,
                             send_message=send_message, recv_message=recv_message)
    finally:
        for s in socks:
            s.close()
    lags = sorted(res.lags())
    shed = sum(1 for r in res.responses
               if r is not None and (r.get("error") or {}).get("type") == "RejectedError")
    out["service.generator_lag_ms"] = (lags[int(0.99 * (len(lags) - 1))] * 1e3, "ms")
    out["runtime.shed_fraction"] = (shed / len(msgs), "fraction")
    return out


def collect(kit: Kit, derived: Dict[str, Tuple[float, str]]) -> Dict[str, Tuple[float, str]]:
    """Every PER_LAYER metric: the workload's own values first, then the
    kit's set-up measurements, then the probes."""
    out: Dict[str, Tuple[float, str]] = {}
    out.update(probe_bits(kit))
    out.update(probe_core(kit))
    out.update(probe_storage(kit))
    out.update(probe_service(kit, out["storage.segmented_query_us"][0]))
    out.update(kit.derived)
    out.update(derived)
    missing = [name for name, _unit in PER_LAYER if name not in out]
    if missing:
        raise AssertionError(f"per-layer metrics not measured: {missing}")
    return out
