"""The four workloads: point, scan, served and ingest.

A run has SETUP_REPS rounds.  Each round sets the workload up from the
seed (timed: ``setup_s`` is the median) and then measures it through the
public API, the way a user drives it, for an equal share of the run's
seconds.  Spreading the measured seconds over the whole run, between the
set-ups, samples more of the shared machine's slow and fast stretches
than one block at the end would.  Every answer that can be is checked
against the uncompressed reference.  A traced run has one round; it also
times its calls into each layer with spans and hands its state to
:mod:`probes` for the per-layer metrics.
"""

from __future__ import annotations

import gc
import os
import re
import resource
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import corpus as cp
import openloop
import probes
from stats import FAST_STRETCH_PERCENTILE, fast_median, fast_rate, latency_summary
from tracing import Tracer, now_ns

import repro
from repro import compress, load_compressed, save_compressed
from repro.graph.model import GraphKind, TemporalGraph
from repro.runtime import QueryContext
from repro.service import recv_message, send_message
from repro.storage.segments import SegmentStore

#: Deadline every governed query carries (seconds), as a service request's
#: ``timeout_ms`` would set it.
QUERY_TIMEOUT = 1.0
#: Rounds (set-up plus measurement) per untraced run.
SETUP_REPS = 3
#: Point queries generated per run, and how many of them warm the cache.
POINT_POOL = 60_000
POINT_WARMUP = 20_000
#: Length of the point loop's measured stretches (throughput is their median).
POINT_CHUNK_S = 0.5
#: Records per timed block of an ``iter_contacts`` pass (scan throughput
#: is the median block rate).
SCAN_BLOCK = 2000
#: Ingest batch size (contacts per ``ingest()`` call).
BATCH = 500
#: Ingest is timed per group of this many batches, two seal periods (8
#: batches of 500 fill the 4096-contact tail).
INGEST_GROUP = 16
#: Point reads issued between ingest batches.
READS_PER_BATCH = 8
#: Each ingest round commits exactly this many contacts (the same batches
#: every round), and bits/contact is read from the first round's store at
#: INGEST_BITS_AT contacts.
INGEST_ROUND_CONTACTS = 48_000
INGEST_BITS_AT = 16_000
#: Served workload: request mix, rates and limits.
BATCH_SHARE = 0.10            # share of requests that are neighbors_many
BATCH_QUERIES = 16
NOMINAL_QPS = 1000.0
NOMINAL_REQUESTS = 1000       # per round
LADDER_QPS = (1600.0, 2000.0, 2500.0, 3200.0, 4000.0, 5000.0, 6300.0)
LADDER_STEP_S = 0.7
P99_LIMIT_S = 0.050
#: A step whose last quarter has a median above this has a growing backlog.
BACKLOG_LIMIT_S = 0.010
READ_DEADLINE_S = 5.0
#: Requests of each round's capacity phase, all due at once, and the
#: equal-count windows it is cut into (capacity is the median window rate).
CAPACITY_REQUESTS = 1200
CAPACITY_WINDOWS = 3
#: Stretches each round's nominal phase is cut into for ``p50_us``.
SERVED_STRETCHES = 4
CONNECTIONS = 2


class Outcome:
    """Everything one workload run reports."""

    def __init__(self) -> None:
        self.e2e: Dict[str, Tuple[float, str]] = {}
        self.report: List[Tuple[str, float, str, str]] = []
        self.layer: Dict[str, Tuple[float, str]] = {}
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.timeouts = 0
        self.sheds = 0
        self.mismatches: List[str] = []

    @property
    def failed(self) -> int:
        return self.errors + self.wrong + self.timeouts + self.sheds

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and not self.mismatches

    def wrong_answer(self, what: str) -> None:
        self.wrong += 1
        if len(self.mismatches) < 5:
            self.mismatches.append(what)

    def named(self, name: str, value: float, unit: str, note: str = "") -> None:
        """A metric for the human-readable report, under its workload's name."""
        self.report.append((name, value, unit, note))

    def metric(self, name: str, value: float, unit: str, note: str = "", e2e: str = "") -> None:
        """Report ``value``; ``e2e`` also makes it that end-to-end metric."""
        self.named(name, value, unit, note)
        if e2e:
            self.e2e[e2e] = (value, unit)

    def latency(self, samples_ns, cuts: List[int]) -> None:
        """Report latency of ``samples_ns`` in µs: the ``p50_us`` metric from
        the stretches ending at ``cuts`` (see :func:`stats.fast_median`),
        and the whole run's p50 and p99."""
        fast, stretches = fast_median(samples_ns, cuts)
        self.metric("p50_us", fast / 1e3, "us",
                    f"stretch medians at p{100 - FAST_STRETCH_PERCENTILE:g} of {stretches}", e2e="p50_us")
        s = latency_summary(samples_ns)
        tail = f"p{s['tail_p']:g}" if s["tail_p"] is not None else "none"
        self.named("run_p50_us", s["p50"] / 1e3, "us", f"n={s['n']}")
        self.named("run_p99_us", s["p99"] / 1e3, "us", f"n={s['n']}, tail rule gives {tail}")

    def rate(self, name: str, rates: List[float], unit: str, note: str) -> None:
        """Report per-stretch rates at their fast end as the throughput metric."""
        self.metric(name, fast_rate(rates), unit,
                    f"{note}; p{FAST_STRETCH_PERCENTILE:g} of {len(rates)} stretches, "
                    f"median {statistics.median(rates):.6g}", e2e="throughput_per_s")

    def rss(self, note: str = "benchmark process") -> None:
        self.metric("peak_rss_mib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "MiB", note, e2e="peak_rss_mib")


class RunContext:
    def __init__(self, seed: int, seconds: float, trace: bool, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.tracer: Optional[Tracer] = Tracer() if trace else None


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def rounds(ctx: RunContext, out: Outcome, build: Callable[[int], Any],
           measure: Callable[[Any, int, float], None], discard: Callable[[Any], None]) -> Any:
    """Set up and measure SETUP_REPS times (once when traced); report the
    median set-up time as ``setup_s``; return the last round's state."""
    reps = 1 if ctx.trace else SETUP_REPS
    times: List[float] = []
    state = None
    for i in range(reps):
        t0 = time.perf_counter()
        state = build(i)
        times.append(time.perf_counter() - t0)
        measure(state, i, ctx.seconds / reps)
        if i < reps - 1:
            discard(state)
            state = None
            gc.collect()
    out.metric("setup_s", statistics.median(times), "s", f"median of {reps} set-ups", e2e="setup_s")
    return state


# -- container set-up (point and scan) -------------------------------------

class ContainerSetup:
    def __init__(self, graph: TemporalGraph, cg, path: Path, phases: Dict[str, float]) -> None:
        self.graph = graph
        self.cg = cg
        self.path = path
        self.phases = phases


def build_container(ctx: RunContext, i: int) -> ContainerSetup:
    t0 = time.perf_counter()
    graph = cp.corpus(cp.CORPUS_NODES, ctx.seed)
    t1 = time.perf_counter()
    cg = compress(graph)
    t2 = time.perf_counter()
    path = ctx.workdir / f"corpus{i}.chrono"
    save_compressed(cg, path)
    t3 = time.perf_counter()
    del cg
    loaded = load_compressed(path, mmap=True)
    t4 = time.perf_counter()
    phases = dict(generate=t1 - t0, compress=t2 - t1, save=t3 - t2, load=t4 - t3)
    return ContainerSetup(graph, loaded, path, phases)


def container_bits(out: Outcome, setup: ContainerSetup) -> None:
    cg = setup.cg
    bits = setup.path.stat().st_size * 8 / cg.num_contacts
    out.metric("bits_per_contact", bits, "bits", f"{cg.num_contacts} contacts, container bytes",
               e2e="bits_per_contact")


class CacheDelta:
    """Record-cache counters summed over the rounds' measured stretches."""

    def __init__(self) -> None:
        self.hits = self.misses = self.evictions = 0

    def add(self, before, after) -> None:
        self.hits += after["hits"] - before["hits"]
        self.misses += after["misses"] - before["misses"]
        self.evictions += after["evictions"] - before["evictions"]

    def report(self, out: Outcome, operations: int) -> Dict[str, Tuple[float, str]]:
        lookups = self.hits + self.misses
        ratio = self.hits / max(1, lookups)
        out.named("cache_hit_ratio", ratio, "fraction", f"base: {lookups} record lookups")
        return {
            "core.cache_hit_ratio": (ratio, "fraction"),
            "core.cache_evictions": (float(self.evictions), "count"),
            "core.misses_per_query": (self.misses / max(1, operations), "1/query"),
        }


def finish_container(ctx: RunContext, out: Outcome, setup: ContainerSetup, queries, derived) -> None:
    out.rss()
    if ctx.trace:
        derived["core.compress_s"] = (setup.phases["compress"], "s")
        derived["core.load_s"] = (setup.phases["load"], "s")
        kit = probes.Kit(ctx, setup.graph, setup.cg, queries)
        try:
            out.layer.update(probes.collect(kit, derived))
        finally:
            kit.close()


# -- point ---------------------------------------------------------------------

_OPS = {"neighbors": 0, "has_edge": 1, "edge_timestamps": 2}


def _point_loop(cg, pool, start: int, seconds: float, lat: array, tracer: Optional[Tracer]) -> int:
    """Closed loop over ``pool`` from index ``start`` for ``seconds``;
    returns the index it stopped at."""
    nb, he, et = cg.neighbors, cg.has_edge, cg.edge_timestamps
    clock = now_ns
    qc = QueryContext
    timeout = QUERY_TIMEOUT
    n = len(pool)
    i = start
    deadline = time.perf_counter() + seconds
    append = lat.append
    while time.perf_counter() < deadline:
        for _ in range(256):
            op, u, v, a, b = pool[i % n]
            i += 1
            if tracer is None:
                t0 = clock()
                ctx = qc(timeout=timeout)
                if op == 0:
                    nb(u, a, b, ctx=ctx)
                elif op == 1:
                    he(u, v, a, b, ctx=ctx)
                else:
                    et(u, v, ctx=ctx)
                append(clock() - t0)
            else:
                rid = tracer.new_id()
                t0 = clock()
                ctx = qc(timeout=timeout)
                t1 = clock()
                if op == 0:
                    nb(u, a, b, ctx=ctx)
                    name = "core.neighbors"
                elif op == 1:
                    he(u, v, a, b, ctx=ctx)
                    name = "core.has_edge"
                else:
                    et(u, v, ctx=ctx)
                    name = "core.edge_timestamps"
                t2 = clock()
                tracer.add("runtime.QueryContext", t0, t1, rid, i)
                tracer.add(name, t1, t2, rid, i)
                tracer.add("bench.request", t0, clock(), None, i, span_id=rid)
                append(t2 - t0)
    return i


def run_point(ctx: RunContext) -> Outcome:
    out = Outcome()
    lat = array("q")
    cuts: List[int] = []                  # where each stretch's latencies end
    rates: List[List[float]] = [[], []]   # queries/s of untraced / traced stretches
    cache = CacheDelta()
    state: Dict[str, Any] = {"pos": POINT_WARMUP, "queries": None}

    def measure(setup: ContainerSetup, i: int, seconds: float) -> None:
        cg = setup.cg
        if state["queries"] is None:
            container_bits(out, setup)
            state["queries"] = cp.QueryMaker(setup.graph, ctx.seed * 31 + 7).queries(POINT_POOL)
            state["pool"] = [(_OPS[q.op], q.u, q.v, q.t_start, q.t_end) for q in state["queries"]]
        pool = state["pool"]
        # Warm this round's record cache with the head of the stream (untimed);
        # the timed loop runs on from there, so cold nodes still miss.
        for _op, u, _v, _a, _b in pool[:POINT_WARMUP]:
            cg.contacts_of(u)
        before = cg.cache_stats()
        t_end = time.perf_counter() + seconds
        pos = state["pos"]
        while time.perf_counter() < t_end:
            # In a traced run every other stretch is traced, to price the tracing.
            traced = ctx.trace and len(rates[0]) > len(rates[1])
            t0 = time.perf_counter()
            j = _point_loop(cg, pool, pos, POINT_CHUNK_S, lat, ctx.tracer if traced else None)
            rates[traced].append((j - pos) / (time.perf_counter() - t0))
            cuts.append(len(lat))
            pos = j
        cache.add(before, cg.cache_stats())
        out.attempted += pos - state["pos"]
        state["pos"] = pos

    setup = rounds(ctx, out, lambda i: build_container(ctx, i), measure, lambda s: None)
    cg, g, queries = setup.cg, setup.graph, state["queries"]
    out.latency(lat, cuts)
    out.rate("queries_per_s", rates[0] + rates[1], "1/s",
             f"{out.attempted} queries, closed loop, 1 thread")
    derived = cache.report(out, out.attempted)
    if ctx.trace:
        derived["trace.overhead_fraction"] = (
            statistics.median(rates[0]) / statistics.median(rates[1]) - 1.0, "fraction")
    # Correctness: a sample of the queries, answered through the same calls.
    for q in queries[:: max(1, len(queries) // 3000)]:
        qctx = QueryContext(timeout=QUERY_TIMEOUT)
        if q.op == "neighbors":
            got = cg.neighbors(q.u, q.t_start, q.t_end, ctx=qctx)
        elif q.op == "has_edge":
            got = cg.has_edge(q.u, q.v, q.t_start, q.t_end, ctx=qctx)
        else:
            got = cg.edge_timestamps(q.u, q.v, ctx=qctx)
        if got != cp.reference_answer(g, q):
            out.wrong_answer(f"{q}: got {got!r}")
    finish_container(ctx, out, setup, queries, derived)
    return out


# -- scan ----------------------------------------------------------------------

def _iter_pass(cg, lat: array, cuts: List[int], rates: List[float], tracer: Optional[Tracer]) -> int:
    """One full ``iter_contacts`` pass.  The time each record takes goes
    to ``lat`` (ns), the contact rate of each SCAN_BLOCK records to
    ``rates`` and the block's end in ``lat`` to ``cuts``; returns the
    contacts yielded."""
    count = 0
    last_u = -1
    records = 0
    clock = now_ns
    t_prev = clock()
    pass_start = block_start = t_prev
    block_count = 0
    for c in cg.iter_contacts():
        if c.u != last_u:
            t = clock()
            if last_u >= 0:
                lat.append(t - t_prev)
                if tracer is not None:
                    tracer.add("core.record", t_prev, t, None, last_u)
                records += 1
                if records % SCAN_BLOCK == 0:
                    rates.append((count - block_count) * 1e9 / (t - block_start))
                    cuts.append(len(lat))
                    block_start, block_count = t, count
            t_prev = t
            last_u = c.u
        count += 1
    t = clock()
    lat.append(t - t_prev)
    if tracer is not None:
        tracer.add("core.record", t_prev, t, None, last_u)
        tracer.add("core.iter_contacts", pass_start, t, None, None)
    return count


def run_scan(ctx: RunContext) -> Outcome:
    out = Outcome()
    lat = array("q")
    cuts: List[int] = []
    block_rates: List[List[float]] = [[], []]   # untraced / traced iter_contacts blocks
    iter_counts: List[int] = []
    snaps: List[Tuple[Tuple[int, int], int, float]] = []
    cache = CacheDelta()
    # Passes alternate iter_contacts and snapshot across the rounds; a
    # traced run adds one traced iter_contacts pass to price the tracing.
    plan = ["iter", "iter-traced", "snapshot"] if ctx.trace else []
    windows: List[Tuple[int, int]] = []

    def one_pass(cg, kind: str) -> float:
        t0 = time.perf_counter()
        if kind == "snapshot":
            w = windows[len(snaps) % len(windows)]
            edges = len(cg.snapshot(*w))
            snaps.append((w, edges, time.perf_counter() - t0))
        else:
            traced = kind == "iter-traced"
            iter_counts.append(_iter_pass(cg, lat, cuts, block_rates[traced],
                                          ctx.tracer if traced else None))
        return time.perf_counter() - t0

    def measure(setup: ContainerSetup, i: int, seconds: float) -> None:
        cg = setup.cg
        if not windows:
            container_bits(out, setup)
            windows.extend(cp.scan_windows(setup.graph, ctx.seed, 64))
        before = cg.cache_stats()
        spent = 0.0
        # Whole passes only: another one starts while under half the share.
        while spent < seconds / 2 or plan:
            kind = plan.pop(0) if plan else ("iter", "snapshot")[(len(iter_counts) + len(snaps)) % 2]
            spent += one_pass(cg, kind)
        if i == SETUP_REPS - 1 or ctx.trace:
            # Both kinds run at least once per run.
            for kind, done in (("iter", iter_counts), ("snapshot", snaps)):
                if not done:
                    one_pass(cg, kind)
        cache.add(before, cg.cache_stats())

    setup = rounds(ctx, out, lambda i: build_container(ctx, i), measure, lambda s: None)
    g, cg = setup.graph, setup.cg
    passes = len(iter_counts) + len(snaps)
    out.attempted += passes
    out.latency(lat, cuts)
    out.rate("scan_contacts_per_s", block_rates[0] + block_rates[1], "1/s",
             f"iter_contacts, {len(iter_counts)} passes of {cg.num_contacts} contacts in "
             f"blocks of {SCAN_BLOCK} records")
    out.named("snapshot_contacts_per_s", len(snaps) * cg.num_contacts / sum(dt for *_x, dt in snaps),
              "1/s", f"{len(snaps)} snapshot passes over every record")
    for n in iter_counts:
        if n != g.num_contacts:
            out.wrong_answer(f"iter_contacts yielded {n}, reference has {g.num_contacts}")
    for w, n, _dt in snaps:
        ref = len(g.ref_snapshot(*w))
        if n != ref:
            out.wrong_answer(f"snapshot{w} gave {n} edges, reference {ref}")
    derived = cache.report(out, passes)  # a pass is one query
    if ctx.trace:
        derived["trace.overhead_fraction"] = (
            statistics.median(block_rates[0]) / statistics.median(block_rates[1]) - 1.0, "fraction")
    queries = cp.QueryMaker(g, ctx.seed * 31 + 7).queries(3000) if ctx.trace else []
    finish_container(ctx, out, setup, queries, derived)
    return out


# -- segment stores (served set-up, ingest, probes) ---------------------------

class IngestLog:
    """Write-path timings and segment bytes from one stream of ingests."""

    def __init__(self) -> None:
        self.commit_s: List[float] = []     # every ingest() call
        self.plain_s: List[float] = []      # ingest() calls that did not seal
        self.seal_s: List[float] = []       # ingest() calls that sealed
        self.compact_s: List[float] = []    # compact_once() calls
        self.batches: List[List[float]] = []  # [contacts, seconds in ingest + compaction]
        self.written_bytes = 0              # segment bytes written by seal + compaction
        self.contacts = 0
        self.final: Dict[str, Tuple[float, str]] = {}  # layer metrics at close

    def ingest(self, store: SegmentStore, batch) -> None:
        known = {s.name for s in store.manifest.segments}
        t0 = time.perf_counter()
        store.ingest(batch)
        dt = time.perf_counter() - t0
        self.contacts += len(batch)
        self.commit_s.append(dt)
        self.batches.append([len(batch), dt])
        new = [s for s in store.manifest.segments if s.name not in known]
        if new:
            self.seal_s.append(dt)
            self.written_bytes += sum(s.size for s in new)
        else:
            self.plain_s.append(dt)

    def compact(self, store: SegmentStore) -> None:
        while store.compaction_needed():
            known = {s.name for s in store.manifest.segments}
            t0 = time.perf_counter()
            store.compact_once()
            dt = time.perf_counter() - t0
            self.compact_s.append(dt)
            if self.batches:
                self.batches[-1][1] += dt
            self.written_bytes += sum(s.size for s in store.manifest.segments if s.name not in known)

    def group_seconds(self, group: int) -> List[float]:
        """Write seconds of each full group of ``group`` batches."""
        full = len(self.batches) - len(self.batches) % group
        return [sum(t for _, t in self.batches[i:i + group]) for i in range(0, full, group)]

    def layer_metrics(self, store: SegmentStore) -> Dict[str, Tuple[float, str]]:
        med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
        return {
            "storage.wal_commit_ms": (med(self.plain_s) * 1e3, "ms"),
            "storage.seal_s": (med(self.seal_s), "s"),
            "storage.compact_s": (med(self.compact_s), "s"),
            "storage.bytes_rewritten_per_contact": (self.written_bytes / max(1, self.contacts), "bytes/contact"),
            "storage.segment_count": (float(len(store.manifest.segments)), "count"),
        }


def build_store(path: Path, stream, log: Optional[IngestLog] = None) -> IngestLog:
    """Ingest ``stream`` into a fresh store at ``path`` in BATCH-sized
    commits, compacting synchronously whenever the policy asks."""
    log = log or IngestLog()
    store = SegmentStore.create(path, GraphKind.INTERVAL)
    try:
        for batch in cp.batches(stream, BATCH):
            log.ingest(store, batch)
            log.compact(store)
        log.final = log.layer_metrics(store)
    finally:
        store.close()
    return log


def start_service(path: Path) -> Tuple[subprocess.Popen, Tuple[str, int]]:
    """Start ``repro serve PATH --workers 1`` as its own process, the way a
    user runs it, and wait until it answers a ping."""
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    cpus = sorted(os.sched_getaffinity(0))

    def prepare() -> None:
        # A benchmark started in the background inherits an ignored SIGINT;
        # the service stops on it, as on Ctrl-C, so restore the default.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        # With two or more CPUs the service gets the last one to itself and
        # the generator keeps the rest, so the two never queue for one core.
        if len(cpus) >= 2:
            os.sched_setaffinity(0, {cpus[-1]})

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(path), "--workers", "1"],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True,
        preexec_fn=prepare,
    )
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=60.0):
                raise RuntimeError("service did not report its address within 60 s")
        line = proc.stdout.readline()
        match = re.search(r"tcp://([^:\s]+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected service banner: {line!r}")
        address = (match.group(1), int(match.group(2)))
        deadline = time.perf_counter() + 60.0
        while True:
            try:
                with socket.create_connection(address, timeout=READ_DEADLINE_S) as s:
                    send_message(s, {"id": 0, "op": "ping"})
                    if (recv_message(s) or {}).get("ok"):
                        return proc, address
            except OSError:
                if time.perf_counter() > deadline:
                    raise
            time.sleep(0.01)
    except BaseException:
        stop_service(proc)
        raise


def stop_service(proc: subprocess.Popen) -> None:
    """Interrupt the service (it stops its workers) and wait for every
    process of its session to end."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    # The worker is the supervisor's child; it must not outlive it.
    deadline = time.perf_counter() + 15.0
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        if time.perf_counter() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
        time.sleep(0.05)


# -- served --------------------------------------------------------------------

class ServedSetup:
    def __init__(self, graph, path: Path, log: IngestLog, service, address) -> None:
        self.graph = graph
        self.path = path
        self.log = log
        self.service = service
        self.address = address


def build_served(ctx: RunContext, i: int) -> ServedSetup:
    graph = cp.corpus(cp.SERVED_NODES, ctx.seed)
    path = ctx.workdir / f"store{i}"
    log = build_store(path, cp.time_ordered(graph))
    service, address = start_service(path)
    return ServedSetup(graph, path, log, service, address)


def served_requests(graph: TemporalGraph, seed: int, count: int, first_id: int):
    """Seeded request frames plus their reference answers."""
    maker = cp.QueryMaker(graph, seed)
    rng = maker.rng
    messages, answers, queries = [], [], []
    for k in range(count):
        rid = first_id + k
        if rng.random() < BATCH_SHARE:
            qs = maker.queries(BATCH_QUERIES, "neighbors")
            messages.append({"id": rid, "op": "neighbors_many",
                             "params": {"queries": [[q.u, q.t_start, q.t_end] for q in qs]},
                             "timeout_ms": int(QUERY_TIMEOUT * 1000)})
            answers.append([cp.reference_answer(graph, q) for q in qs])
            queries.extend(qs)
        else:
            q = maker.query()
            args = [q.u, q.t_start, q.t_end] if q.op == "neighbors" else (
                [q.u, q.v, q.t_start, q.t_end] if q.op == "has_edge" else [q.u, q.v])
            messages.append({"id": rid, "op": q.op, "params": {"args": args},
                             "timeout_ms": int(QUERY_TIMEOUT * 1000)})
            answers.append(cp.reference_answer(graph, q))
            queries.append(q)
    return messages, answers, queries


def check_phase(out: Outcome, result: openloop.OpenLoopResult, answers) -> None:
    """Count every request of a phase: answered right, wrong, error or lost."""
    out.attempted += len(answers)
    for i, response in enumerate(result.responses):
        if response is None:
            out.timeouts += 1
        elif not response.get("ok"):
            kind = (response.get("error") or {}).get("type")
            if kind == "RejectedError":
                out.sheds += 1
            elif kind == "QueryTimeout":
                out.timeouts += 1
            else:
                out.errors += 1
        elif response.get("result") != answers[i]:
            out.wrong_answer(f"request {i}: got {response.get('result')!r}, want {answers[i]!r}")


def check_phase(out: Outcome, result: openloop.OpenLoopResult, answers) -> None:
    """Count every request of a phase: answered right, wrong, error or lost."""
    out.attempted += len(answers)
    for i, response in enumerate(result.responses):
        if response is None:
            out.timeouts += 1
        elif not response.get("ok"):
            kind = (response.get("error") or {}).get("type")
            if kind == "RejectedError":
                out.sheds += 1
            elif kind == "QueryTimeout":
                out.timeouts += 1
            else:
                out.errors += 1
        elif response.get("result") != answers[i]:
            out.wrong_answer(f"request {i}: got {response.get('result')!r}, want {answers[i]!r}")


class ServedRun:
    """The generator's side of the served workload, across the rounds."""

    def __init__(self, ctx: RunContext, out: Outcome) -> None:
        self.ctx = ctx
        self.out = out
        self.next_id = 1
        self.lat: List[float] = []
        self.cuts: List[int] = []
        self.lags: List[float] = []
        self.capacity: List[float] = []
        self.overhead: Optional[Tuple[float, str]] = None
        self.queries: List[cp.Query] = []

    def phase(self, socks, g, seed: int, count: int, rate: float, tracer=None) -> openloop.OpenLoopResult:
        msgs, answers, queries = served_requests(g, seed, count, self.next_id)
        self.next_id += count
        self.queries = queries
        res = openloop.drive(socks, msgs, rate, read_deadline=READ_DEADLINE_S,
                             send_message=send_message, recv_message=recv_message, tracer=tracer)
        check_phase(self.out, res, answers)
        return res

    def measure(self, setup: ServedSetup, i: int, seconds: float) -> None:
        ctx, out, g = self.ctx, self.out, setup.graph
        if i == 0:
            bits = dir_bytes(setup.path) * 8 / g.num_contacts
            out.metric("bits_per_contact", bits, "bits", f"{g.num_contacts} contacts, store bytes",
                       e2e="bits_per_contact")
        socks = [socket.create_connection(setup.address, timeout=READ_DEADLINE_S)
                 for _ in range(CONNECTIONS)]
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            os.sched_setaffinity(0, set(cpus[:-1]))
        # Full collections over the set-up's objects would pause the generator
        # and show up as lag and latency; freezing them leaves only young
        # objects to collect.  The service is a separate process.
        gc.collect()
        gc.freeze()
        try:
            seed = ctx.seed * 31 + 100 * i
            self.phase(socks, g, seed, 400, 800.0)   # warms the worker's caches; untimed
            if ctx.trace:
                # Untraced then traced halves, to price the tracing.
                untraced = self.phase(socks, g, seed + 1, NOMINAL_REQUESTS, NOMINAL_QPS)
                traced = self.phase(socks, g, seed + 2, NOMINAL_REQUESTS, NOMINAL_QPS, ctx.tracer)
                self.overhead = (statistics.median(traced.latencies())
                                 / statistics.median(untraced.latencies()) - 1.0, "fraction")
                nominal = [untraced, traced]
            else:
                nominal = [self.phase(socks, g, seed + 1, NOMINAL_REQUESTS, NOMINAL_QPS)]
            for res in nominal:
                lat = res.latencies()
                step = max(1, len(lat) // SERVED_STRETCHES)
                for k in range(0, len(lat), step):
                    self.lat += lat[k:k + step]
                    self.cuts.append(len(self.lat))
                self.lags += res.lags()
            if i == (0 if ctx.trace else SETUP_REPS - 1):
                self.ladder(socks, g, seed)
            # Capacity: every request due at once keeps both connections busy,
            # so the answer rate is what the service sustains.
            res = self.phase(socks, g, seed + 3, CAPACITY_REQUESTS, 1e6)
            self.capacity += openloop.window_rates(res.done, CAPACITY_WINDOWS)
        finally:
            for s in socks:
                s.close()
            os.sched_setaffinity(0, set(cpus))
            gc.unfreeze()

    def ladder(self, socks, g, seed: int) -> None:
        """Fixed rates, rising, until one misses the limit twice."""
        out = self.out
        out.named("nominal_rate_qps", NOMINAL_QPS, "1/s",
                  f"open loop, {CONNECTIONS} connections, workers=1")
        steps: List[Tuple[float, bool, float]] = []
        for rate in LADDER_QPS:
            # A step that misses is tried once more, so one stall of the
            # service does not end the ladder early.
            for attempt in range(2):
                res = self.phase(socks, g, seed + int(rate) + 7 * attempt, int(rate * LADDER_STEP_S), rate)
                self.lags += res.lags()
                ok, p99 = openloop.step_passes(res.latencies(), P99_LIMIT_S, BACKLOG_LIMIT_S)
                out.named(f"ladder_{int(rate)}qps_p99_us", p99 * 1e6, "us",
                          f"n={len(res.latencies())}, {'meets' if ok else 'misses'} the "
                          f"{P99_LIMIT_S * 1e3:g} ms limit" + (", retry" if attempt else ""))
                if ok or res.deadline_hit:
                    break
            steps.append((rate, ok, p99))
            if not ok:
                break
        out.named("max_rate_qps", openloop.interpolate_max_rate(steps, P99_LIMIT_S), "1/s",
                  f"p99 limit {P99_LIMIT_S * 1e3:g} ms, interpolated over {len(steps)} ladder steps")


def run_served(ctx: RunContext) -> Outcome:
    out = Outcome()
    run = ServedRun(ctx, out)
    holder: List[ServedSetup] = []

    def build(i: int) -> ServedSetup:
        holder[:] = [build_served(ctx, i)]
        return holder[0]

    try:
        setup = rounds(ctx, out, build, run.measure, lambda s: stop_service(s.service))
        out.latency([x * 1e9 for x in run.lat], run.cuts)
        out.rate("capacity_qps", run.capacity, "1/s",
                 f"{CAPACITY_REQUESTS} requests due at once over {CONNECTIONS} connections, per round")
        lag_p99 = latency_summary(run.lags)["p99"] if run.lags else 0.0
        out.named("generator_lag_p99_ms", lag_p99 * 1e3, "ms", f"n={len(run.lags)}")
        out.rss("benchmark process (the service is another process)")
        if ctx.trace:
            derived = dict(setup.log.final)
            derived["trace.overhead_fraction"] = run.overhead
            derived["service.generator_lag_ms"] = (lag_p99 * 1e3, "ms")
            derived["runtime.shed_fraction"] = (out.sheds / max(1, out.attempted), "fraction")
            kit = probes.Kit(ctx, setup.graph, None, run.queries, store_path=setup.path,
                             address=setup.address)
            try:
                out.layer.update(probes.collect(kit, derived))
            finally:
                kit.close()
    finally:
        if holder:
            stop_service(holder[0].service)
    return out


# -- ingest --------------------------------------------------------------------

class IngestSetup:
    def __init__(self, graph, stream, path: Path, store: SegmentStore) -> None:
        self.graph = graph
        self.stream = stream
        self.path = path
        self.store = store


def build_ingest(ctx: RunContext, i: int) -> IngestSetup:
    graph = cp.corpus(cp.INGEST_NODES, ctx.seed)
    stream = cp.time_ordered(graph)
    path = ctx.workdir / f"ingest{i}"
    store = SegmentStore.create(path, GraphKind.INTERVAL)
    return IngestSetup(graph, stream, path, store)


class IngestRun:
    """Ingest with reads between batches, across the rounds."""

    def __init__(self, ctx: RunContext, out: Outcome) -> None:
        self.ctx = ctx
        self.out = out
        self.read_lat = array("q")
        self.cuts: List[int] = []
        self.rates: List[float] = []
        self.traced_rates: List[float] = []
        self.group_s: List[List[float]] = []   # per round, write seconds of each group
        self.commit_s: List[float] = []
        self.seals = self.compactions = 0
        self.log: Optional[IngestLog] = None
        self.acked: List = []

    def measure(self, setup: IngestSetup, i: int, seconds: float) -> None:
        ctx, out = self.ctx, self.out
        store = setup.store
        maker = cp.QueryMaker(setup.graph, ctx.seed * 31 + 7 + i)
        rng = maker.rng
        acked: Dict[int, List] = {}
        log = IngestLog()
        try:
            for k, batch in enumerate(cp.batches(setup.stream, BATCH)):
                # In a traced run every other batch is traced.
                tracer = ctx.tracer if (ctx.trace and k % 2 == 1) else None
                if tracer is None:
                    log.ingest(store, batch)
                    log.compact(store)
                else:
                    a = now_ns()
                    log.ingest(store, batch)
                    b = now_ns()
                    tracer.add("storage.ingest", a, b, None, k)
                    if store.compaction_needed():
                        log.compact(store)
                        tracer.add("storage.compact_once", b, now_ns(), None, k)
                for c in batch:
                    acked.setdefault(c.u, []).append(c)
                if i == 0 and log.contacts == INGEST_BITS_AT:
                    bits = dir_bytes(setup.path) * 8 / log.contacts
                    out.metric("bits_per_contact", bits, "bits",
                               f"store bytes at {INGEST_BITS_AT} contacts", e2e="bits_per_contact")
                # Point reads between batches: half on the batch just committed
                # (tail overlay), half Zipf over everything acknowledged so far.
                view = store.graph
                for r in range(READS_PER_BATCH):
                    u = batch[rng.randrange(len(batch))].u if r % 2 == 0 else maker.node()
                    if u not in acked:
                        u = batch[0].u
                    a, b = cp.window(rng, setup.stream[0].time, batch[-1].time)
                    t0 = now_ns()
                    got = view.neighbors(u, a, b)
                    t1 = now_ns()
                    self.read_lat.append(t1 - t0)
                    if tracer is not None:
                        tracer.add("storage.neighbors", t0, t1, None, k)
                    out.attempted += 1
                    if got != cp.active_neighbors(acked[u], a, b):
                        out.wrong_answer(f"neighbors({u}, {a}, {b}) after {log.contacts} contacts: {got!r}")
                if k % INGEST_GROUP == INGEST_GROUP - 1:
                    self.cuts.append(len(self.read_lat))
                if log.contacts >= INGEST_ROUND_CONTACTS:
                    break
            self.cuts.append(len(self.read_lat))
            log.final = log.layer_metrics(store)
        finally:
            store.close()
        out.attempted += len(log.commit_s)
        if ctx.trace:
            # Odd batches carried the spans: price the tracing per batch.
            for parity, dest in ((0, self.rates), (1, self.traced_rates)):
                sel = log.batches[parity::2]
                dest.append(sum(n for n, _ in sel) / sum(t for _, t in sel))
        self.group_s.append(log.group_seconds(INGEST_GROUP))
        self.commit_s += log.commit_s
        self.seals += len(log.seal_s)
        self.compactions += len(log.compact_s)
        self.log = log
        # Durability: reopen with full recovery; every acknowledged contact
        # must be there, and nothing else.
        reopened = SegmentStore.open(setup.path)
        try:
            stored = Counter(tuple(c) for c in reopened.graph.iter_contacts())
        finally:
            reopened.close()
        expected = Counter(tuple(c) for cs in acked.values() for c in cs)
        if stored != expected:
            missing = sum((expected - stored).values())
            extra = sum((stored - expected).values())
            out.wrong_answer(f"reopened store: {missing} acknowledged contacts missing, {extra} extra")
        self.acked = [c for cs in acked.values() for c in cs]


def run_ingest(ctx: RunContext) -> Outcome:
    out = Outcome()
    run = IngestRun(ctx, out)

    def discard(s: IngestSetup) -> None:
        s.store.close()
        shutil.rmtree(s.path, ignore_errors=True)

    setup = rounds(ctx, out, lambda i: build_ingest(ctx, i), run.measure, discard)
    # Every round writes the same batches, so each group of batches is timed
    # once per round; the fastest of its rounds is its time without the
    # machine's slow stretches, and the rate is over the sum of those.
    best = [min(times) for times in zip(*run.group_s)]
    out.metric("ingest_contacts_per_s", len(best) * INGEST_GROUP * BATCH / sum(best), "1/s",
               f"{INGEST_ROUND_CONTACTS} contacts a round in fsynced commits of {BATCH}; "
               f"fastest round of each of {len(best)} groups of {INGEST_GROUP} batches",
               e2e="throughput_per_s")
    out.latency(run.read_lat, run.cuts)
    commits = latency_summary(run.commit_s)
    out.named("commit_p50_ms", commits["p50"] * 1e3, "ms", f"n={commits['n']}")
    out.named("commit_p99_ms", commits["p99"] * 1e3, "ms",
              f"n={commits['n']}, {run.seals} sealing commits, {run.compactions} compactions beside them")
    out.rss()
    if ctx.trace:
        derived = dict(run.log.final)
        derived["trace.overhead_fraction"] = (run.rates[0] / run.traced_rates[0] - 1.0, "fraction")
        acked_graph = probes.graph_of(run.acked)
        queries = cp.QueryMaker(acked_graph, ctx.seed * 31 + 7).queries(3000)
        kit = probes.Kit(ctx, acked_graph, None, queries, store_path=setup.path)
        try:
            out.layer.update(probes.collect(kit, derived))
        finally:
            kit.close()
    return out


WORKLOADS = {
    "point": run_point,
    "scan": run_scan,
    "served": run_served,
    "ingest": run_ingest,
}
