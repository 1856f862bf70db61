"""The in-memory compressed temporal graph and its query surface.

A :class:`CompressedChronoGraph` owns four artefacts (Section IV-F):

* the compressed structure stream and the compressed timestamp stream,
* one Elias-Fano offset index per stream.

Every query seeks straight to a node's records through the offset indexes,
decodes only what it needs, and never touches the rest of the graph -- this
is why the paper's access times depend on the average degree, not the graph
size (Section V-D).

Two layers keep the decode cost off the hot path:

* a bounded, memory-budgeted LRU of fully decoded node records (neighbor
  multiset, timestamps, durations) so repeated queries against the same
  node decode it once -- see :meth:`CompressedChronoGraph.cache_stats`,
  :meth:`configure_cache` and :meth:`clear_cache`;
* sequential-scan fast paths (:meth:`snapshot`, :meth:`to_static_graph`,
  :meth:`iter_contacts`, :meth:`iter_window_neighbors`) that walk the
  streams in storage order and decode every node at most once per pass,
  resolving reference chains from a rolling window instead of re-seeking.

Concurrency model
-----------------

The query surface is safe to share across threads:

* The decoded-record cache is sharded; each shard guards its LRU segment
  with its own lock, and the hit/miss counters live inside those locks, so
  lookups from different threads never corrupt cache state.  Eviction
  preserves the *global* LRU order exactly (per-entry sequence numbers)
  by briefly holding every shard lock in index order.
* All mutable overlay bookkeeping (:meth:`apply_contacts`) lives in one
  immutable :class:`_OverlayState` snapshot published with a single
  reference assignment.  Every query captures the snapshot once at entry,
  so an in-flight reader finishes against the generation it started on --
  it never observes a half-applied batch (overlay-read linearizability).
* Cached records carry the generation they were decoded under, and every
  snapshot carries the last generation that touched each node.  A reader
  holding generation ``g`` ignores entries tagged with a newer generation
  *and* entries older than its snapshot's touched-generation floor for
  that node, so stale records can never serve a newer generation -- even
  a stale insert racing the publish is simply invisible to post-swap
  readers.  :meth:`apply_contacts` additionally drops touched entries so
  dead records do not linger in the cache.
* Each decode builds its own :class:`repro.bits.bitio.BitReader` over the
  shared immutable stream bytes (reader-per-thread rule): readers carry
  mutable positions and must never be shared across threads.

:meth:`neighbors_many` and :meth:`snapshot_parallel` are the batch forms
of :meth:`neighbors` and :meth:`snapshot`; both accept ``workers`` and fan
out over the bounded shared pool of a :class:`repro.runtime.governor.Governor`
while keeping the exact sequential semantics (output order and cache
counters included).

Resource governance
-------------------

Every query entry point accepts an optional
``ctx=`` :class:`repro.runtime.context.QueryContext` -- a wall-clock
deadline, cooperative cancel flag and decode-work budget polled at cheap
checkpoints down to the bulk-decode loops.  An expired envelope raises
the typed :class:`repro.errors.QueryTimeout` /
:class:`repro.errors.QueryCancelled` / :class:`repro.errors.QueryBudgetExceeded`
branch; interruption always leaves reader cursors (query-local) and the
caches (which only ingest completed decodes) consistent, so a retry with
a larger envelope returns the complete answer.  A context carrying a
governor is additionally subject to admission control
(:class:`repro.errors.RejectedError` before any work happens).
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bits import codes, kernels
from repro.bits.bitio import BitReader, Buffer
from repro.bits.eliasfano import EliasFano
from repro.core.config import ChronoGraphConfig
from repro.core.structure import decode_node_structure, multiset_from_parts
from repro.core.timestamps import decode_node_timestamps
from repro.errors import (
    CorruptStreamError,
    FormatError,
    GraphDomainError,
    LimitExceededError,
    QueryInterrupted,
)
from repro.graph.model import Contact, GraphKind
from repro.runtime.context import QueryContext, activate, query_scope
from repro.runtime.governor import Governor, default_governor

#: Exceptions a decoder may hit on a corrupt stream; every decode path
#: converts them to :class:`repro.errors.CorruptStreamError` so callers can
#: rely on the :class:`repro.errors.FormatError` hierarchy alone.
_DECODE_FAILURES = (
    EOFError, ValueError, IndexError, KeyError, OverflowError, TypeError,
)

#: Fixed metadata charged to every compressed graph: kind, node count,
#: global minimum timestamp, configuration and stream lengths.
HEADER_BITS = 5 * 64

_DISTINCT_CACHE_CAP = 4096

#: Default memory budget of the decoded-record cache, in (estimated) bytes.
DEFAULT_CACHE_BUDGET_BYTES = 32 << 20

#: Shard count of the decoded-record cache (power of two; shard = u & mask).
_CACHE_SHARDS = 8
_SHARD_MASK = _CACHE_SHARDS - 1

_UNSET = object()

#: A decoded node record: (neighbor multiset, timestamps, durations-or-None).
NodeRecord = Tuple[List[int], List[int], Optional[List[int]]]

#: Attributes rebuilt from scratch on unpickle: locks, cache shards and the
#: counters that live next to them (a transported graph starts cold).
_RUNTIME_KEYS = (
    "_mutate_lock",
    "_next_seq",
    "_shards",
    "_distinct_lock",
    "_distinct_cache",
    "_cache_evictions",
    "_cache_invalidations",
)


class _OverlayState:
    """Immutable snapshot of the WAL overlay and the counters it grows.

    ``apply_contacts`` never mutates a published instance: it builds a
    complete successor (generation + 1) and swaps it in with one reference
    assignment, which the GIL makes atomic.  Readers capture ``self._state``
    once per query and work against that snapshot for their whole lifetime.
    Overlay buckets are tuples (per source node, sorted by ``(v, time)``),
    so a captured snapshot can never change underneath a reader.

    ``touched`` maps each overlay-written node to the generation of the
    last batch that touched it.  It is the cache-visibility floor: a
    cached record tagged with an older generation than a node's floor
    predates that node's latest batch and must never be served to a
    reader of this snapshot (see :meth:`CompressedChronoGraph._cache_get`).
    """

    __slots__ = (
        "generation", "overlay", "count", "t_min", "num_nodes", "num_contacts",
        "touched",
    )

    def __init__(
        self,
        generation: int,
        overlay: Dict[int, Tuple[Contact, ...]],
        count: int,
        t_min: Optional[int],
        num_nodes: int,
        num_contacts: int,
        touched: Dict[int, int],
    ) -> None:
        self.generation = generation
        self.overlay = overlay
        self.count = count
        self.t_min = t_min
        self.num_nodes = num_nodes
        self.num_contacts = num_contacts
        self.touched = touched

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        self.touched = {}  # absent in pre-floor pickles
        for slot, value in state.items():
            setattr(self, slot, value)


class _AtomicCounter:
    """Lock-free monotone counter safe under concurrent increments.

    ``itertools.count.__next__`` is a single C call -- atomic under the
    GIL -- so increments from racing threads are never lost, unlike
    ``n += 1`` (a load/add/store bytecode triple).  ``value()`` reads the
    current count through the iterator's pickle protocol without
    consuming it.
    """

    __slots__ = ("_advance",)

    def __init__(self) -> None:
        self._advance = itertools.count(1).__next__

    def increment(self) -> None:
        """Add one; safe to call from any thread without a lock."""
        self._advance()

    def value(self) -> int:
        """Increments so far (``count.__reduce__`` exposes the next value)."""
        return self._advance.__self__.__reduce__()[1][0] - 1


class _CacheShard:
    """One segment of the decoded-record LRU.

    ``records`` maps node -> ``[generation, sequence, cost, record]``;
    ``sequence`` is drawn from a graph-global clock on every hit, so the
    entry with the minimum sequence across shards is the exact global LRU
    victim.  Reads are lock-free (dict lookups and counter bumps are
    GIL-atomic; the recency stamp is a single list-item store); the lock
    guards every mutation of the dict or the byte total.
    """

    __slots__ = ("lock", "records", "bytes", "hits", "misses")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.records: Dict[int, list] = {}
        self.bytes = 0
        self.hits = _AtomicCounter()
        self.misses = _AtomicCounter()


class CompressedChronoGraph:
    """Queryable compressed representation produced by :func:`repro.core.compress`."""

    def __init__(
        self,
        *,
        kind: GraphKind,
        num_nodes: int,
        num_contacts: int,
        t_min: int,
        config: ChronoGraphConfig,
        structure_bytes: Buffer,
        structure_bits: int,
        timestamp_bytes: Buffer,
        timestamp_bits: int,
        structure_offsets: EliasFano,
        timestamp_offsets: EliasFano,
        name: str = "unnamed",
    ) -> None:
        self.kind = kind
        self.t_min = t_min
        self.config = config
        self.name = name
        self._sbytes = structure_bytes
        self._sbits = structure_bits
        self._tbytes = timestamp_bytes
        self._tbits = timestamp_bits
        # Deferred per-stream CRC checks installed by mmap-mode loading
        # (repro.core.serialize); run once at the first decode touching
        # each stream, then dropped.  None everywhere else.
        self._sverify: Optional[Callable[[], None]] = None
        self._tverify: Optional[Callable[[], None]] = None
        self._soffsets = structure_offsets
        self._toffsets = timestamp_offsets
        self._cache_max_bytes: Optional[int] = DEFAULT_CACHE_BUDGET_BYTES
        self._cache_max_entries: Optional[int] = None
        # WAL overlay (repro.storage): contacts replayed on top of the
        # immutable streams, published as an immutable snapshot (see
        # _OverlayState).  ``_base_nodes`` marks the stream-backed label
        # range; nodes at or past it exist only in the overlay.  The
        # distinct-list cache stays *base-only* throughout -- reference
        # chains must resolve against the encoded lists, never
        # overlay-merged ones.
        self._base_nodes = num_nodes
        self._state = _OverlayState(0, {}, 0, None, num_nodes, num_contacts, {})
        self._init_runtime()

    def _init_runtime(self) -> None:
        """Create the locks, cache shards and counters (never pickled)."""
        self._mutate_lock = threading.Lock()
        # LRU clock: itertools.count.__next__ is a C call, atomic under the
        # GIL, so recency stamps need no lock of their own.
        self._next_seq = itertools.count(1).__next__
        self._shards = tuple(_CacheShard() for _ in range(_CACHE_SHARDS))
        self._distinct_lock = threading.RLock()
        self._distinct_cache: "OrderedDict[int, List[int]]" = OrderedDict()
        self._cache_evictions = 0
        self._cache_invalidations = 0

    def _touch_structure(self) -> None:
        """Run (once) the deferred structure-stream checksum, if any."""
        check = self._sverify
        if check is not None:
            check()
            self._sverify = None

    def _touch_timestamps(self) -> None:
        """Run (once) the deferred timestamp-stream checksum, if any."""
        check = self._tverify
        if check is not None:
            check()
            self._tverify = None

    def __getstate__(self):
        state = self.__dict__.copy()
        for key in _RUNTIME_KEYS:
            state.pop(key, None)
        # A pickle crosses process or machine boundaries: settle any
        # deferred checksum now and ship plain bytes -- memoryviews (e.g.
        # over an mmap-ed container) cannot be pickled.
        self._touch_structure()
        self._touch_timestamps()
        state["_sverify"] = None
        state["_tverify"] = None
        if not isinstance(self._sbytes, bytes):
            state["_sbytes"] = bytes(self._sbytes)  # repro: noqa[CG006]
        if not isinstance(self._tbytes, bytes):
            state["_tbytes"] = bytes(self._tbytes)  # repro: noqa[CG006]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Pickles written before lazy verification existed lack these.
        self.__dict__.setdefault("_sverify", None)
        self.__dict__.setdefault("_tverify", None)
        self._init_runtime()

    # -- derived counts --------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Node-label range, including nodes grown by :meth:`apply_contacts`."""
        return self._state.num_nodes

    @property
    def num_contacts(self) -> int:
        """Contacts in the base streams plus the uncompacted overlay."""
        return self._state.num_contacts

    @property
    def overlay_generation(self) -> int:
        """Monotone generation counter bumped by every :meth:`apply_contacts`."""
        return self._state.generation

    # -- size accounting -----------------------------------------------------

    @property
    def structure_size_bits(self) -> int:
        """Structure stream plus its offset index."""
        return self._sbits + self._soffsets.size_in_bits()

    @property
    def timestamp_size_bits(self) -> int:
        """Timestamp stream plus its offset index (the Table IV parenthesis)."""
        return self._tbits + self._toffsets.size_in_bits()

    def _overlay_bits(self, count: int) -> int:
        """Raw-rate charge of ``count`` uncompacted overlay contacts."""
        if not count:
            return 0
        per = 4 * 64 if self.kind is GraphKind.INTERVAL else 3 * 64
        return count * per

    def _total_bits(self, state: _OverlayState) -> int:
        """Total footprint computed against one captured snapshot."""
        return (
            self.structure_size_bits
            + self.timestamp_size_bits
            + self._overlay_bits(state.count)
            + HEADER_BITS
        )

    @property
    def overlay_size_bits(self) -> int:
        """Replayed-but-uncompacted contacts, charged at the raw rate.

        Overlay contacts live as plain tuples until :func:`compact` folds
        them into the streams, so they are charged like
        :class:`repro.core.growable.GrowableChronoGraph` delta contacts:
        three (point/incremental) or four (interval) 64-bit words each.
        """
        return self._overlay_bits(self._state.count)

    @property
    def size_in_bits(self) -> int:
        """Total in-memory footprint charged by the evaluation."""
        return self._total_bits(self._state)

    @property
    def bits_per_contact(self) -> float:
        """The paper's headline metric.

        Size and contact count come from one snapshot capture, so the
        ratio is internally consistent even while :meth:`apply_contacts`
        publishes new generations concurrently (CG001).
        """
        state = self._state
        if state.num_contacts == 0:
            return 0.0
        return self._total_bits(state) / state.num_contacts

    @property
    def timestamp_bits_per_contact(self) -> float:
        """Timestamp share of the footprint, per contact."""
        state = self._state
        if state.num_contacts == 0:
            return 0.0
        return self.timestamp_size_bits / state.num_contacts

    # -- decoded-record cache ------------------------------------------------

    @staticmethod
    def _record_cost(record: NodeRecord) -> int:
        """Deterministic byte estimate of a cached record.

        Roughly a CPython small int (28 bytes) plus a list slot (8) per
        element, plus fixed list/tuple overhead; exactness does not matter,
        only that the budget scales with decoded size.
        """
        multiset, times, durations = record
        elements = len(multiset) + len(times)
        if durations is not None:
            elements += len(durations)
        return 120 + 36 * elements

    def cache_stats(self) -> Dict[str, Optional[int]]:
        """Hit/miss/eviction counters and current occupancy of the record cache.

        Every record-level lookup (one per query, one per node of a
        sequential pass) counts exactly one hit or one miss; evictions
        count records dropped to honour the budget, not overwrites.
        Counters are atomic and monotone, so no lost updates under
        concurrency; occupancy is summed under every shard lock.
        """
        shards = self._shards
        hits = sum(s.hits.value() for s in shards)
        misses = sum(s.misses.value() for s in shards)
        for shard in shards:
            shard.lock.acquire()
        try:
            entries = sum(len(s.records) for s in shards)
            current = sum(s.bytes for s in shards)
        finally:
            for shard in reversed(shards):
                shard.lock.release()
        return {
            "hits": hits,
            "misses": misses,
            "evictions": self._cache_evictions,
            "invalidations": self._cache_invalidations,
            "entries": entries,
            "current_bytes": current,
            "max_bytes": self._cache_max_bytes,
            "max_entries": self._cache_max_entries,
        }

    def decode_kernel_info(self) -> Dict[str, object]:
        """Which bulk-decode kernel tier this process resolves to.

        Every record decode runs on the process-wide tier chosen in
        :mod:`repro.bits.kernels`; this surfaces that choice (see
        :func:`repro.bits.kernels.kernel_info`) so operators can confirm
        what a deployment is actually running.  The tier never changes
        answers -- only speed -- so this is purely observability.
        """
        return kernels.kernel_info()

    def configure_cache(self, *, max_bytes=_UNSET, max_entries=_UNSET) -> None:
        """Re-bound the record cache; ``None`` lifts that bound.

        ``max_bytes`` budgets the estimated decoded footprint
        (:meth:`_record_cost`); ``max_entries`` caps the record count.
        Shrinking evicts least-recently-used records immediately.
        """
        if max_bytes is not _UNSET:
            self._cache_max_bytes = max_bytes
        if max_entries is not _UNSET:
            self._cache_max_entries = max_entries
        self._evict_to_fit()

    def clear_cache(self) -> None:
        """Drop every cached decoded record (counters are preserved)."""
        shards = self._shards
        for shard in shards:
            shard.lock.acquire()
        try:
            for shard in shards:
                shard.records.clear()
                shard.bytes = 0
        finally:
            for shard in reversed(shards):
                shard.lock.release()

    def _evict_to_fit(self) -> None:
        """Evict global-LRU records in one batch until both bounds hold.

        Holds every shard lock (in index order -- the only multi-shard
        acquisition pattern, so lock order is total), sorts every entry by
        its recency sequence once, and evicts in that order: exactly the
        global least-recently-used records first.  Hits stamp recency
        without locks, so no per-shard order is maintained; one sorted
        scan per batch pays for the lock-free hot path.

        When a bound is exceeded, eviction overshoots down to ~7/8 of that
        bound (an eighth of hysteresis, which rounds to zero for tiny
        caches, keeping their eviction exact).  A sustained stream of
        inserts against a full cache therefore triggers one global scan
        per *batch* of evictions instead of one per inserted record --
        amortised logarithmic, not quadratic.
        """
        max_bytes = self._cache_max_bytes
        max_entries = self._cache_max_entries
        if max_bytes is None and max_entries is None:
            return
        shards = self._shards
        for shard in shards:
            shard.lock.acquire()
        try:
            entries = sum(len(s.records) for s in shards)
            total = sum(s.bytes for s in shards)
            if not (
                (max_entries is not None and entries > max_entries)
                or (max_bytes is not None and total > max_bytes)
            ):
                return
            goal_entries = (
                None if max_entries is None else max_entries - max_entries // 8
            )
            goal_bytes = (
                None if max_bytes is None else max_bytes - max_bytes // 8
            )
            order = [
                (entry[1], key, shard)
                for shard in shards
                for key, entry in shard.records.items()
            ]
            order.sort(key=lambda item: item[0])
            for _, key, shard in order:
                if not (
                    (goal_entries is not None and entries > goal_entries)
                    or (goal_bytes is not None and total > goal_bytes)
                ):
                    break
                evicted = shard.records.pop(key)
                shard.bytes -= evicted[2]
                total -= evicted[2]
                entries -= 1
                self._cache_evictions += 1
        finally:
            for shard in reversed(shards):
                shard.lock.release()

    def _maybe_evict(self) -> None:
        """Cheap unlocked bound check before taking every shard lock."""
        max_bytes = self._cache_max_bytes
        max_entries = self._cache_max_entries
        if max_bytes is None and max_entries is None:
            return
        shards = self._shards
        if (
            max_entries is not None
            and sum(len(s.records) for s in shards) > max_entries
        ) or (
            max_bytes is not None and sum(s.bytes for s in shards) > max_bytes
        ):
            self._evict_to_fit()

    def _cache_get(self, u: int, state: _OverlayState) -> Optional[NodeRecord]:
        """Counting lookup: a hit only if the entry's generation is visible.

        An entry is visible to a reader's snapshot iff its generation lies
        in ``[state.touched.get(u, 0), state.generation]``: entries decoded
        under a *newer* generation may contain batches the snapshot must
        not see, and entries older than the node's touched-generation
        floor predate a batch the snapshot must see.  The floor is what
        makes the contract safe against inserts racing a publish: a stale
        record tagged with the old generation can land in the cache at any
        time, but no post-swap reader will ever accept it.

        Lock-free: the dict read and counter bumps are GIL-atomic, the
        entry's generation is written once at insert, and the recency
        stamp is a single list-item store whose races only blur LRU
        order, never a returned record.
        """
        shard = self._shards[u & _SHARD_MASK]
        entry = shard.records.get(u)
        if (
            entry is not None
            and state.touched.get(u, 0) <= entry[0] <= state.generation
        ):
            entry[1] = self._next_seq()
            shard.hits.increment()
            return entry[3]
        shard.misses.increment()
        return None

    def _cache_peek(self, u: int, state: _OverlayState) -> Optional[NodeRecord]:
        """Non-counting, non-promoting lookup (structure-only passes)."""
        entry = self._shards[u & _SHARD_MASK].records.get(u)
        if (
            entry is not None
            and state.touched.get(u, 0) <= entry[0] <= state.generation
        ):
            return entry[3]
        return None

    def _cache_put(self, u: int, record: NodeRecord, gen: int) -> None:
        max_entries = self._cache_max_entries
        if max_entries is not None and max_entries <= 0:
            return
        cost = self._record_cost(record)
        max_bytes = self._cache_max_bytes
        if max_bytes is not None and cost > max_bytes:
            return  # would evict the whole cache for a single-use record
        if self._state.touched.get(u, 0) > gen:
            # A writer already published a batch touching this node after
            # our snapshot: the record is dead on arrival (every current
            # and future snapshot's floor rejects it), so skip the insert.
            # Pure optimisation -- _cache_get's floor check is what makes
            # stale inserts safe, not this.
            return
        shard = self._shards[u & _SHARD_MASK]
        with shard.lock:
            old = shard.records.get(u)
            if old is not None:
                if old[0] > gen:
                    # A racing decode against a newer snapshot got here
                    # first; its record supersedes ours.
                    return
                shard.bytes -= old[2]
            shard.records[u] = [gen, self._next_seq(), cost, record]
            shard.bytes += cost
        self._maybe_evict()

    def _cache_invalidate(self, u: int) -> None:
        shard = self._shards[u & _SHARD_MASK]
        with shard.lock:
            entry = shard.records.pop(u, None)
            if entry is not None:
                shard.bytes -= entry[2]

    def _decode_record(
        self, u: int, state: Optional[_OverlayState] = None
    ) -> NodeRecord:
        """The fully decoded record of ``u``, through the LRU cache.

        Cached records are overlay-merged against ``state`` (the caller's
        snapshot, defaulting to the current one); nodes past the
        stream-backed range decode to an empty base record before the
        merge.
        """
        if state is None:
            state = self._state
        self._check_node(u, state.num_nodes)
        record = self._cache_get(u, state)
        if record is not None:
            return record
        if u < self._base_nodes:
            dedup, singles = self._decode_structure(u)
            multiset = multiset_from_parts(dedup, singles)
            times, durations = self._decode_timestamps(u, len(multiset))
        else:
            multiset, times = [], []
            durations = [] if self.kind is GraphKind.INTERVAL else None
        record = (multiset, times, durations)
        if state.overlay:
            record = self._merge_overlay(u, record, state.overlay)
        self._cache_put(u, record, state.generation)
        return record

    # -- WAL overlay (repro.storage) ------------------------------------------

    def apply_contacts(self, contacts) -> int:
        """Overlay replayed WAL contacts onto the compressed base, in memory.

        Contacts must already be in *stored* time units (the ingest path
        buckets by ``config.resolution`` before committing to the WAL, so
        base and overlay share one time axis).  Node labels may exceed the
        stream-backed range, growing :attr:`num_nodes`.

        Thread-safe: writers serialize on an internal lock; the merged
        overlay is published as a new immutable snapshot with one atomic
        reference swap.  The snapshot records the new generation as every
        touched node's cache-visibility floor, so readers of this or any
        later generation reject still-cached pre-batch records no matter
        how the drop below interleaves with them; the cached records of
        touched nodes are then dropped to free their memory.
        Every touched node counts one invalidation in
        ``cache_stats()['invalidations']`` -- including nodes that were
        not cached and nodes with no base record -- so the counter tracks
        write-side pressure, not cache luck.  In-flight readers finish
        against the snapshot they captured; readers arriving after the
        swap see base + overlay merged.  Returns contacts applied.
        """
        kind = self.kind
        added: Dict[int, List[Contact]] = {}
        count = 0
        for c in contacts:
            if not isinstance(c, Contact):
                c = Contact(*c)
            if c.u < 0 or c.v < 0:
                raise GraphDomainError(f"negative node label in {c}")
            if c.duration < 0:
                raise GraphDomainError(f"negative duration in {c}")
            if kind is not GraphKind.INTERVAL and c.duration:
                raise GraphDomainError(
                    f"{kind.value} graphs cannot carry durations: {c}"
                )
            added.setdefault(c.u, []).append(c)
            count += 1
        if not count:
            return 0
        with self._mutate_lock:
            state = self._state
            generation = state.generation + 1
            overlay = dict(state.overlay)
            touched = dict(state.touched)
            top = state.num_nodes - 1
            t_min = state.t_min
            for u, rows in added.items():
                bucket = list(overlay.get(u, ()))
                bucket.extend(rows)
                bucket.sort(key=lambda c: (c.v, c.time))
                overlay[u] = tuple(bucket)
                touched[u] = generation
                top = max(top, u, max(r.v for r in rows))
                lo = min(r.time for r in rows)
                if t_min is None or lo < t_min:
                    t_min = lo
            self._state = _OverlayState(
                generation,
                overlay,
                state.count + count,
                t_min,
                top + 1,
                state.num_contacts + count,
                touched,
            )
            # Drop touched records to free their memory.  Correctness does
            # not depend on this racing well: the published touched floors
            # already make any pre-batch record -- including one inserted
            # concurrently with an old generation tag -- invisible to every
            # reader at the new generation.
            for u in added:
                self._cache_invalidate(u)
                self._cache_invalidations += 1
        return count

    def _merge_overlay(
        self,
        u: int,
        record: NodeRecord,
        overlay: Dict[int, Tuple[Contact, ...]],
    ) -> NodeRecord:
        """Merge ``u``'s overlay contacts into a decoded base record.

        Both sides are (label, time)-sorted; the merge is stable with base
        entries first on ties, preserving the alignment contract.
        """
        extra = overlay.get(u)
        if not extra:
            return record
        multiset, times, durations = record
        if durations is not None:
            rows = list(zip(multiset, times, durations))
        else:
            rows = [(v, t, 0) for v, t in zip(multiset, times)]
        rows.extend((c.v, c.time, c.duration) for c in extra)
        rows.sort(key=lambda r: (r[0], r[1]))
        merged_multiset = [r[0] for r in rows]
        merged_times = [r[1] for r in rows]
        if durations is None:
            return merged_multiset, merged_times, None
        return merged_multiset, merged_times, [r[2] for r in rows]

    # -- decoding ------------------------------------------------------------

    def _check_node(self, u: int, n: Optional[int] = None) -> None:
        if n is None:
            n = self._state.num_nodes
        if not 0 <= u < n:
            raise GraphDomainError(f"node {u} outside [0, {n})")

    def _corrupt(self, u: int, stage: str, exc: Exception) -> CorruptStreamError:
        return CorruptStreamError(f"node {u}: {stage} decode failed: {exc}")

    def _structure_reader(self, u: int) -> BitReader:
        self._touch_structure()
        reader = BitReader(self._sbytes, self._sbits)
        reader.seek(self._soffsets.access(u))
        return reader

    def _decode_structure(self, u: int):
        try:
            reader = self._structure_reader(u)
            return decode_node_structure(
                reader, u, self._resolve_distinct, self.config,
                limit=self.num_contacts,
            )
        except (FormatError, QueryInterrupted):
            raise
        except _DECODE_FAILURES as exc:
            raise self._corrupt(u, "structure", exc) from exc

    def _reference_of(self, u: int) -> int:
        """The reference target of ``u``'s record (-1 when none).

        Scans only the dedup block and the reference field; used to resolve
        reference chains iteratively so that unbounded chains
        (``max_ref_chain=None``) cannot exhaust the Python stack.
        """
        try:
            reader = self._structure_reader(u)
            dedup_count = codes.read_gamma_natural(reader)
            limit = self.num_contacts
            if dedup_count > limit:
                raise LimitExceededError(
                    f"node {u}: dedup block claims {dedup_count} runs, "
                    f"graph has {limit} contacts"
                )
            if dedup_count:
                codes.read_many_gamma_natural(reader, 2 * dedup_count)
            r = codes.read_gamma_natural(reader)
        except (FormatError, QueryInterrupted):
            raise
        except _DECODE_FAILURES as exc:
            raise self._corrupt(u, "reference", exc) from exc
        return u - r if r else -1

    def _resolve_distinct(self, v: int) -> List[int]:
        """Distinct *base* neighbor labels of ``v``, through the chain cache.

        Mutations are guarded by a reentrant lock: reference resolution
        both reads and warms the distinct-list cache, and decoding a chain
        re-enters this method for its targets.  The hit path is lock-free:
        distinct lists are base-only and immutable once inserted, and the
        dict read is GIL-atomic, so at worst a racing miss re-decodes.
        """
        cached = self._distinct_cache.get(v)
        if cached is not None:
            return cached
        with self._distinct_lock:
            cached = self._distinct_cache.get(v)
            if cached is not None:
                self._distinct_cache.move_to_end(v)
                return cached
            # Walk the reference chain down to a cached or reference-free
            # record, then decode upward so every recursive lookup is a
            # cache hit.
            chain = [v]
            target = self._reference_of(v)
            while target >= 0 and target not in self._distinct_cache:
                chain.append(target)
                target = self._reference_of(target)
            for node in reversed(chain):
                dedup, singles = self._decode_structure(node)
                distinct = sorted({*(label for label, _ in dedup), *singles})
                self._distinct_cache[node] = distinct
                if len(self._distinct_cache) > _DISTINCT_CACHE_CAP:
                    self._distinct_cache.popitem(last=False)
            self._distinct_cache.move_to_end(v)
            return self._distinct_cache[v]

    def decode_multiset(self, u: int) -> List[int]:
        """The label-sorted neighbor multiset of ``u`` (Figure 5(a) order)."""
        return list(self._decode_record(u)[0])

    def _decode_timestamps(
        self, u: int, count: int
    ) -> Tuple[List[int], Optional[List[int]]]:
        try:
            self._touch_timestamps()
            reader = BitReader(self._tbytes, self._tbits)
            reader.seek(self._toffsets.access(u))
            return decode_node_timestamps(
                reader,
                count,
                self.kind is GraphKind.INTERVAL,
                self.t_min,
                self.config.timestamp_zeta_k,
                self.config.duration_zeta_k,
            )
        except (FormatError, QueryInterrupted):
            raise
        except _DECODE_FAILURES as exc:
            raise self._corrupt(u, "timestamp", exc) from exc

    def contacts_of(
        self, u: int, *, ctx: Optional[QueryContext] = None
    ) -> List[Contact]:
        """All contacts of ``u``, decoded, in (label, time) order."""
        if ctx is None:  # bare compare: this entry is on the perf gate
            multiset, times, durations = self._decode_record(u)
        else:
            with query_scope(ctx):
                multiset, times, durations = self._decode_record(u)
        if durations is None:
            return [Contact(u, v, t) for v, t in zip(multiset, times)]
        return [
            Contact(u, v, t, d) for v, t, d in zip(multiset, times, durations)
        ]

    def distinct_neighbors(self, u: int) -> List[int]:
        """Sorted distinct neighbor labels over the whole lifetime."""
        state = self._state
        self._check_node(u, state.num_nodes)
        extra = state.overlay.get(u)
        if u >= self._base_nodes:
            return sorted({c.v for c in extra}) if extra else []
        if extra:
            return sorted({*self._resolve_distinct(u), *(c.v for c in extra)})
        return self._resolve_distinct(u)

    # -- sequential scans ------------------------------------------------------

    def _iter_records(self) -> Iterator[Tuple[int, NodeRecord]]:
        """Yield ``(u, record)`` in storage order against the current snapshot."""
        state = self._state
        return self._scan_records(state, 0, state.num_nodes)

    def _scan_records(
        self,
        state: _OverlayState,
        lo: int,
        hi: int,
        ctx: Optional[QueryContext] = None,
    ) -> Iterator[Tuple[int, NodeRecord]]:
        """Yield ``(u, record)`` for ``lo <= u < hi``, decoding each node once.

        Both streams are walked with a single reader each; reference chains
        resolve against the distinct lists of the last ``config.window``
        nodes (the only legal targets), so a full pass never re-seeks or
        re-decodes an earlier record.  Cached records short-circuit their
        decode but still feed the rolling reference window.  The whole scan
        runs against the caller's captured ``state``; no lock is held
        across a yield.

        ``ctx`` is polled once per node, and activated around each
        stream decode so the bulk readers chunk against it too -- but
        only around the decode, never across a yield, so the ambient
        context can't leak into the consumer's frame.
        """
        if hi <= lo:
            return
        config = self.config
        window = config.window
        limit = state.num_contacts
        with_durations = self.kind is GraphKind.INTERVAL
        self._touch_structure()
        self._touch_timestamps()
        sreader = BitReader(self._sbytes, self._sbits)
        treader = BitReader(self._tbytes, self._tbits)
        overlay = state.overlay
        gen = state.generation
        base_n = self._base_nodes
        recent: Dict[int, List[int]] = {}

        def resolve(v: int) -> List[int]:
            got = recent.get(v)
            if got is not None:
                return got
            # Out-of-window reference (corrupt streams, window=0 configs) or
            # a range scan starting past the window head: fall back to the
            # random-access resolver.
            return self._resolve_distinct(v)

        for u in range(lo, hi):
            if ctx is not None:
                ctx.checkpoint()
            base_distinct: Optional[List[int]] = None
            record = self._cache_get(u, state)
            if record is not None:
                if window > 0 and u < base_n:
                    if u in overlay:
                        # The cached record is overlay-merged; reference
                        # chains must see the *encoded* distinct list, so
                        # re-derive it from the base stream.
                        base_distinct = self._resolve_distinct(u)
                    else:
                        base_distinct = []
                        last = None
                        for v in record[0]:
                            if v != last:
                                base_distinct.append(v)
                                last = v
            else:
                if u < base_n:
                    with activate(ctx):
                        try:
                            sreader.seek(self._soffsets.access(u))
                            dedup, singles = decode_node_structure(
                                sreader, u, resolve, config, limit=limit
                            )
                        except (FormatError, QueryInterrupted):
                            raise
                        except _DECODE_FAILURES as exc:
                            raise self._corrupt(u, "structure", exc) from exc
                        multiset = multiset_from_parts(dedup, singles)
                        try:
                            treader.seek(self._toffsets.access(u))
                            times, durations = decode_node_timestamps(
                                treader,
                                len(multiset),
                                with_durations,
                                self.t_min,
                                config.timestamp_zeta_k,
                                config.duration_zeta_k,
                            )
                        except (FormatError, QueryInterrupted):
                            raise
                        except _DECODE_FAILURES as exc:
                            raise self._corrupt(u, "timestamp", exc) from exc
                else:
                    multiset, times = [], []
                    durations = [] if with_durations else None
                if window > 0 and u < base_n:
                    base_distinct = []
                    last = None
                    for v in multiset:
                        if v != last:
                            base_distinct.append(v)
                            last = v
                record = (multiset, times, durations)
                if overlay:
                    record = self._merge_overlay(u, record, overlay)
                self._cache_put(u, record, gen)
            if window > 0:
                if base_distinct is not None:
                    recent[u] = base_distinct
                recent.pop(u - window, None)
            yield u, record

    def _active_neighbors(
        self,
        multiset: List[int],
        times: List[int],
        durations: Optional[List[int]],
        t_start: int,
        t_end: int,
    ) -> List[int]:
        """Sorted distinct labels active within the window, from a record."""
        out: List[int] = []
        if t_end < t_start:
            return out
        kind = self.kind
        # Inline the per-kind activity predicate: this is the hot loop of
        # every neighbor query and of the graph algorithms built on it.
        if kind is GraphKind.POINT:
            for v, t in zip(multiset, times):
                if t_start <= t <= t_end and (not out or out[-1] != v):
                    out.append(v)
        elif kind is GraphKind.INCREMENTAL:
            for v, t in zip(multiset, times):
                if t <= t_end and (not out or out[-1] != v):
                    out.append(v)
        else:
            for v, t, d in zip(multiset, times, durations):
                if d > 0 and t <= t_end and t + d > t_start:
                    if not out or out[-1] != v:
                        out.append(v)
        return out

    # -- temporal queries (Section IV-F) --------------------------------------

    def neighbors(
        self,
        u: int,
        t_start: int,
        t_end: int,
        *,
        ctx: Optional[QueryContext] = None,
    ) -> List[int]:
        """Sorted distinct neighbors of ``u`` active within [t_start, t_end].

        The window is closed on both ends; an inverted window
        (``t_end < t_start``) is empty.  See FORMAT.md, "Query window
        semantics".  ``ctx`` bounds the query (see :mod:`repro.runtime`).
        """
        if ctx is None:  # bare compare: this entry is on the perf gate
            multiset, times, durations = self._decode_record(u)
        else:
            with query_scope(ctx):
                multiset, times, durations = self._decode_record(u)
        return self._active_neighbors(
            multiset, times, durations, t_start, t_end
        )

    def has_edge(
        self,
        u: int,
        v: int,
        t_start: int,
        t_end: int,
        *,
        ctx: Optional[QueryContext] = None,
    ) -> bool:
        """Algorithm 1: is ``v`` a neighbor of ``u`` during [t_start, t_end]?

        Binary-searches the label-sorted multiset for the ``v``-run;
        timestamps come from the same cached record.  ``ctx`` bounds the
        query (see :mod:`repro.runtime`).
        """
        if ctx is None:  # bare compare: this entry is on the perf gate
            multiset, times, durations = self._decode_record(u)
        else:
            with query_scope(ctx):
                multiset, times, durations = self._decode_record(u)
        start = bisect_left(multiset, v)
        if start == len(multiset) or multiset[start] != v:
            return False
        end = bisect_right(multiset, v, start)
        kind = self.kind
        # One edge's contact run: bounded by the decoded record, whose
        # size was already charged at decode time.
        for i in range(start, end):  # repro: noqa[CG007]
            duration = durations[i] if durations is not None else 0
            c = Contact(u, v, times[i], duration)
            if c.is_active(t_start, t_end, kind):
                return True
        return False

    def edge_timestamps(
        self, u: int, v: int, *, ctx: Optional[QueryContext] = None
    ) -> List[int]:
        """All activation timestamps of the edge (u, v), ascending."""
        if ctx is None:
            multiset, times, _ = self._decode_record(u)
        else:
            with query_scope(ctx):
                multiset, times, _ = self._decode_record(u)
        start = bisect_left(multiset, v)
        if start == len(multiset) or multiset[start] != v:
            return []
        return times[start : bisect_right(multiset, v, start)]

    def neighbors_before(
        self, u: int, t: int, *, ctx: Optional[QueryContext] = None
    ) -> List[int]:
        """Neighbors active strictly before ``t`` (Section IV-F).

        For point and incremental graphs: a contact before ``t``.  For
        interval graphs: activity starting before ``t``.  Equivalent to
        ``neighbors(u, t_min, t - 1)``: the closed-window complement of
        :meth:`neighbors_after`, so a contact exactly at ``t`` is excluded.
        """
        state = self._state
        lo = self.t_min
        if state.t_min is not None and state.t_min < lo:
            lo = state.t_min
        if t <= lo:
            return []
        if ctx is None:
            multiset, times, durations = self._decode_record(u, state)
        else:
            with query_scope(ctx):
                multiset, times, durations = self._decode_record(u, state)
        return self._active_neighbors(multiset, times, durations, lo, t - 1)

    def neighbors_after(
        self, u: int, t: int, *, ctx: Optional[QueryContext] = None
    ) -> List[int]:
        """Neighbors active at or after ``t`` (Section IV-F), sorted distinct.

        Incremental edges never deactivate, so any edge is "after" every
        ``t`` at or past its creation; interval contacts count when their
        activity reaches ``t`` or later.  A contact exactly at ``t`` is
        included (closed lower bound).  The multiset is label-sorted, so
        deduplicating against the last emitted label already yields the
        sorted distinct output.
        """
        if ctx is None:
            multiset, times, durations = self._decode_record(u)
        else:
            with query_scope(ctx):
                multiset, times, durations = self._decode_record(u)
        out: List[int] = []
        kind = self.kind
        if kind is GraphKind.POINT:
            for v, ts in zip(multiset, times):
                if ts >= t and (not out or out[-1] != v):
                    out.append(v)
        elif kind is GraphKind.INCREMENTAL:
            for v in multiset:
                if not out or out[-1] != v:
                    out.append(v)
        else:
            for v, ts, d in zip(multiset, times, durations):
                if d > 0 and ts + d > t and (not out or out[-1] != v):
                    out.append(v)
        return out

    def edge_activity(self, u: int, v: int) -> List[Tuple[int, int]]:
        """(start, end-exclusive) activity spans of edge (u, v), sorted.

        Point and incremental contacts yield unit spans at their
        timestamps; interval contacts yield their full span.
        """
        spans: List[Tuple[int, int]] = []
        for c in self.contacts_of(u):
            if c.v != v:
                continue
            if self.kind is GraphKind.INTERVAL:
                if c.duration > 0:
                    spans.append((c.time, c.end))
            else:
                spans.append((c.time, c.time + 1))
        return spans

    # -- batch queries ---------------------------------------------------------

    def _governor_for(self, ctx: Optional[QueryContext]) -> Governor:
        """The governor whose shared pool a batch query fans out on."""
        if ctx is not None and ctx.governor is not None:
            return ctx.governor
        return default_governor()

    def neighbors_many(
        self,
        queries: Sequence[Tuple[int, int, int]],
        *,
        workers: Optional[int] = None,
        ctx: Optional[QueryContext] = None,
    ) -> List[List[int]]:
        """Batch :meth:`neighbors`: results align with the input order.

        ``queries`` is a sequence of ``(u, t_start, t_end)`` triples.  The
        batch is grouped by node so each distinct node is decoded (or
        cache-probed) exactly once per call -- the win over a naive serial
        loop even single-threaded -- then node groups fan out across the
        governor's bounded shared pool when ``workers`` > 1 (the governor
        comes from ``ctx`` or the process default; total decode
        concurrency stays capped no matter how many batch calls are in
        flight).  The whole batch runs against one overlay snapshot, so a
        concurrent :meth:`apply_contacts` is either entirely visible or
        entirely invisible to it.  ``ctx`` bounds the whole batch: one
        envelope, polled by every worker.
        """
        state = self._state
        triples = [(int(u), t0, t1) for u, t0, t1 in queries]
        n = state.num_nodes
        out: List[Optional[List[int]]] = [None] * len(triples)
        with query_scope(ctx):
            groups: Dict[int, List[Tuple[int, int, int]]] = {}
            for i, (u, t0, t1) in enumerate(triples):
                self._check_node(u, n)
                groups.setdefault(u, []).append((i, t0, t1))

            def run(item: Tuple[int, List[Tuple[int, int, int]]]) -> None:
                with activate(ctx):
                    if ctx is not None:
                        ctx.checkpoint()
                    u, wants = item
                    multiset, times, durations = self._decode_record(u, state)
                    for i, t0, t1 in wants:
                        out[i] = self._active_neighbors(
                            multiset, times, durations, t0, t1
                        )

            items = list(groups.items())
            if workers is not None and workers > 1 and len(items) > 1:
                self._governor_for(ctx).run_parallel(
                    run, items, workers=workers
                )
            else:
                for item in items:
                    run(item)
        return out  # type: ignore[return-value]

    def snapshot_parallel(
        self,
        t_start: int,
        t_end: int,
        *,
        workers: Optional[int] = None,
        ctx: Optional[QueryContext] = None,
    ) -> List[Tuple[int, int]]:
        """Parallel :meth:`snapshot`: identical output, ranges scanned concurrently.

        The node range is split into ``workers`` contiguous slices, each
        scanned by its own thread with its own :class:`BitReader` pair
        (reader-per-thread rule), against one shared overlay snapshot.
        The threads come from the governor's bounded shared pool (from
        ``ctx`` or the process default), not a per-call executor.  Slice
        outputs are concatenated in node order, so the result is exactly
        ``snapshot(t_start, t_end)``.  ``ctx`` bounds the whole scan.
        """
        state = self._state
        n = state.num_nodes
        w = int(workers) if workers else 1
        with query_scope(ctx):
            if w <= 1 or n < 2:
                return self._snapshot_range(state, 0, n, t_start, t_end, ctx)
            w = min(w, n)
            bounds = [(n * i) // w for i in range(w + 1)]

            def scan(i: int) -> List[Tuple[int, int]]:
                return self._snapshot_range(
                    state, bounds[i], bounds[i + 1], t_start, t_end, ctx
                )

            parts = self._governor_for(ctx).run_parallel(
                scan, range(w), workers=w
            )
        edges: List[Tuple[int, int]] = []
        for part in parts:
            edges.extend(part)
        return edges

    def _snapshot_range(
        self,
        state: _OverlayState,
        lo: int,
        hi: int,
        t_start: int,
        t_end: int,
        ctx: Optional[QueryContext] = None,
    ) -> List[Tuple[int, int]]:
        edges: List[Tuple[int, int]] = []
        for u, (multiset, times, durations) in self._scan_records(
            state, lo, hi, ctx
        ):
            for v in self._active_neighbors(
                multiset, times, durations, t_start, t_end
            ):
                edges.append((u, v))
        return edges

    # -- structure-only scans --------------------------------------------------

    def _iter_distinct(
        self, state: Optional[_OverlayState] = None
    ) -> Iterator[Tuple[int, List[int]]]:
        """Yield ``(u, distinct neighbors)`` in storage order, structure only.

        The timestamp stream is never touched; distinct lists come from the
        distinct-list cache, the record cache, or a sequential
        structure-only decode (references resolved from the rolling
        window), and feed the distinct-list cache so repeat passes are pure
        hits.  Record-cache counters are untouched: nothing here is a
        record-level lookup.  The distinct-cache lock is taken per node,
        never across a yield.
        """
        if state is None:
            state = self._state
        n = state.num_nodes
        if n == 0:
            return
        config = self.config
        window = config.window
        limit = state.num_contacts
        dcache = self._distinct_cache
        overlay = state.overlay
        base_n = self._base_nodes
        self._touch_structure()
        sreader = BitReader(self._sbytes, self._sbits)
        recent: Dict[int, List[int]] = {}

        def resolve(v: int) -> List[int]:
            got = recent.get(v)
            if got is not None:
                return got
            return self._resolve_distinct(v)

        for u in range(n):
            if u < base_n:
                # Lock-free hit: distinct lists are base-only and
                # immutable once cached (see _resolve_distinct).
                distinct = dcache.get(u)
                if distinct is None:
                    with self._distinct_lock:
                        distinct = dcache.get(u)
                    if distinct is None:
                        record = self._cache_peek(u, state)
                        if record is not None and u not in overlay:
                            distinct = []
                            last = None
                            for v in record[0]:
                                if v != last:
                                    distinct.append(v)
                                    last = v
                        else:
                            # Overlay-touched cached records are merged;
                            # decode the base structure so the distinct-list
                            # cache and the reference window stay base-only.
                            try:
                                sreader.seek(self._soffsets.access(u))
                                dedup, singles = decode_node_structure(
                                    sreader, u, resolve, config, limit=limit
                                )
                            except (FormatError, QueryInterrupted):
                                raise
                            except _DECODE_FAILURES as exc:
                                raise self._corrupt(
                                    u, "structure", exc
                                ) from exc
                            distinct = sorted(
                                {*(label for label, _ in dedup), *singles}
                            )
                        with self._distinct_lock:
                            dcache[u] = distinct
                            if len(dcache) > _DISTINCT_CACHE_CAP:
                                dcache.popitem(last=False)
            else:
                distinct = []
            if window > 0:
                if u < base_n:
                    recent[u] = distinct
                recent.pop(u - window, None)
            extra = overlay.get(u)
            if extra:
                yield u, sorted({*distinct, *(c.v for c in extra)})
            else:
                yield u, distinct

    def to_static_graph(self) -> List[Tuple[int, int]]:
        """The "flattened" aggregated view of Figure 1(a): distinct edges."""
        edges: List[Tuple[int, int]] = []
        for u, distinct in self._iter_distinct(self._state):
            for v in distinct:
                edges.append((u, v))
        return edges

    def snapshot(
        self, t_start: int, t_end: int, *, ctx: Optional[QueryContext] = None
    ) -> List[Tuple[int, int]]:
        """All distinct edges active within the closed interval, sorted."""
        state = self._state
        with query_scope(ctx):
            return self._snapshot_range(
                state, 0, state.num_nodes, t_start, t_end, ctx
            )

    def iter_window_neighbors(
        self, t_start: int, t_end: int, *, ctx: Optional[QueryContext] = None
    ) -> Iterator[Tuple[int, List[int]]]:
        """Yield ``(u, active neighbors)`` for every node, one decode per node.

        The bulk form of :meth:`neighbors` used by full-graph consumers
        (the vertex-centric engine's undirected symmetrisation, exports);
        the same closed ``[t_start, t_end]`` window applies.  ``ctx`` is
        polled per node as the consumer iterates (never held across a
        yield).
        """
        state = self._state
        for u, (multiset, times, durations) in self._scan_records(
            state, 0, state.num_nodes, ctx
        ):
            yield u, self._active_neighbors(
                multiset, times, durations, t_start, t_end
            )

    def iter_contacts(self, *, ctx: Optional[QueryContext] = None):
        """Yield every contact in (u, v, time) storage order, lazily.

        Decodes one node at a time, so full-graph passes (exports, motif
        counters, bulk loads) never hold more than one node's contacts
        beyond the output itself.  ``ctx`` is polled per node as the
        consumer iterates.
        """
        state = self._state
        for u, (multiset, times, durations) in self._scan_records(
            state, 0, state.num_nodes, ctx
        ):
            if durations is None:
                for v, t in zip(multiset, times):
                    yield Contact(u, v, t)
            else:
                for v, t, d in zip(multiset, times, durations):
                    yield Contact(u, v, t, d)

    def to_temporal_graph(self) -> "object":
        """Full decompression back to a :class:`repro.graph.model.TemporalGraph`."""
        from repro.graph.model import TemporalGraph

        return TemporalGraph(
            self.kind,
            self.num_nodes,
            list(self.iter_contacts()),
            name=self.name,
            granularity="stored",
            sort=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self._state
        per = (
            self._total_bits(state) / state.num_contacts
            if state.num_contacts
            else 0.0
        )
        return (
            f"CompressedChronoGraph({self.name!r}, nodes={state.num_nodes}, "
            f"contacts={state.num_contacts}, "
            f"bits/contact={per:.2f})"
        )
