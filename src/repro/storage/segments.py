"""Time-partitioned segment store: LSM-style streaming ingest for ChronoGraph.

The single ``base + WAL`` pair of :mod:`repro.storage.recovery` rewrites the
whole snapshot on every compaction, which caps sustainable ingest rates.
This module generalises it into the structure continuous ingestion needs:

* a **store directory** holding immutable compressed ``.chrono`` segments
  (each a time partition of the contact stream), a hot WAL tail for the
  newest contacts, and a CRC-guarded, atomically-replaced ``MANIFEST``
  naming exactly which files constitute the store;
* a :class:`SegmentedChronoGraph` query facade that plans ``neighbors`` /
  ``snapshot`` / window queries across segments by time-range overlap and
  merges per-segment answers (each segment already implements the closed
  ``[t_start, t_end]`` window contract, and every contact lives in exactly
  one segment, so the union is exact);
* crash-safe **seal** and **compaction** protocols built on
  ``write-new -> fsync -> manifest swap -> delayed delete``: at every
  crash point the manifest references only complete, fsynced files, so
  recovery either restores bit-identical state or reports what it
  quarantined -- never silently wrong answers;
* per-segment **quarantine**: a segment that fails its CRC binding or
  strict load on open is isolated (queries degrade to the remaining
  segments) and surfaced in a :class:`HealthReport` instead of poisoning
  the store.

The background merge policy lives in :mod:`repro.storage.compactor`; this
module owns the on-disk protocol and the query plane.

Concurrency model: readers grab the immutable published view
(:attr:`SegmentStore.graph`) with a single attribute read -- they never
block.  All mutations (ingest commits, seals, compaction swaps) serialise
on a writer-writer commit guard that readers never touch, so holding it
across the durable manifest write is safe by construction: the
reader-visible swap is still one atomic reference assignment.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import struct
import threading
import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.bits import kernels
from repro.core.config import ChronoGraphConfig
from repro.errors import (
    ChecksumMismatchError,
    CorruptStreamError,
    FormatError,
    GenerationMismatchError,
    GraphDomainError,
    QueryInterrupted,
    RejectedError,
    TruncatedContainerError,
    UnsupportedVersionError,
)
from repro.graph.model import Contact, GraphKind
from repro.runtime.breaker import BreakerBoard
from repro.runtime.context import QueryContext, query_scope
from repro.storage.atomic import (
    DEFAULT_RETRY,
    OS_FILESYSTEM,
    Filesystem,
    RetryPolicy,
    atomic_write_bytes,
)
from repro.storage.wal import WalHeader, WriteAheadLog, repair_torn_tail, scan_wal

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_MAGIC",
    "MANIFEST_VERSION",
    "WAL_TAIL_NAME",
    "BackpressureError",
    "StoreClosedError",
    "StorePolicy",
    "SegmentInfo",
    "Manifest",
    "QuarantineEntry",
    "HealthReport",
    "SegmentedChronoGraph",
    "SegmentStore",
    "is_segment_store",
]

PathLike = Union[str, pathlib.Path]
ContactRow = Union[Contact, Tuple[int, ...]]

MANIFEST_NAME = "MANIFEST"
MANIFEST_MAGIC = b"CMAN"
MANIFEST_VERSION = 1
WAL_TAIL_NAME = "wal.tail"

_MANIFEST_FRAME = struct.Struct("<4sBI")
_MANIFEST_CRC = struct.Struct("<I")

#: Hard ceiling on the manifest JSON payload: a flipped length byte must
#: never trigger a proportional allocation (same discipline as DecodeLimits).
_MAX_MANIFEST_BYTES = 1 << 26

_KIND_NAMES = {k.value: k for k in GraphKind}

#: Sentinel distinguishing "part skipped" from any real sub-query result
#: (an empty list is a legitimate answer from a healthy part).
_PART_SKIPPED = object()


class BackpressureError(RuntimeError):
    """Raised when the hot tail is full and sealing is suspended.

    Happens only in degraded mode (dead or wedged compactor): the segment
    set is read-only, the tail keeps absorbing writes up to
    ``StorePolicy.backpressure_contacts``, and past that the store pushes
    back on the producer instead of growing without bound or crashing.

    Carries structured fields so producers can react without parsing the
    message: ``tail_size`` (committed contacts currently in the tail),
    ``cap`` (the policy bound that was hit) and ``retry_after`` (suggested
    seconds before retrying -- the compactor heartbeat timeout, since
    nothing can drain the tail sooner than a compactor state change).
    """

    def __init__(
        self,
        message: str,
        *,
        tail_size: Optional[int] = None,
        cap: Optional[int] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        """Attach the tail size, the cap it hit and a retry-after hint."""
        super().__init__(message)
        self.tail_size = tail_size
        self.cap = cap
        self.retry_after = retry_after


class StoreClosedError(RuntimeError):
    """Raised when ingesting into or sealing a closed store."""


@dataclasses.dataclass(frozen=True)
class StorePolicy:
    """Tuning knobs of the segmented store.

    ``seal_contacts`` is the tail size that triggers sealing into a fresh
    segment; ``max_segments`` is the segment count past which the
    compactor merges adjacent pairs; ``backpressure_contacts`` is the hard
    tail bound enforced while degraded; ``compactor_timeout`` is the
    heartbeat age (seconds) past which an attached compactor counts as
    wedged.
    """

    seal_contacts: int = 4096
    max_segments: int = 8
    backpressure_contacts: int = 65536
    compactor_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.seal_contacts < 1:
            raise ValueError(f"seal_contacts must be >= 1, got {self.seal_contacts}")
        if self.max_segments < 1:
            raise ValueError(f"max_segments must be >= 1, got {self.max_segments}")
        if self.backpressure_contacts < self.seal_contacts:
            raise ValueError(
                "backpressure_contacts must be >= seal_contacts "
                f"({self.backpressure_contacts} < {self.seal_contacts})"
            )


@dataclasses.dataclass(frozen=True)
class SegmentInfo:
    """One immutable segment as the manifest describes it.

    ``size``/``crc`` bind the manifest entry to the exact file bytes (the
    same discipline as the WAL's base binding); the time fields drive
    query planning: ``t_min``/``t_max`` bound the contact timestamps and
    ``t_end_max`` bounds ``t + duration`` so interval activity that
    outlives ``t_max`` still plans correctly.
    """

    name: str
    seq: int
    size: int
    crc: int
    contacts: int
    nodes: int
    t_min: int
    t_max: int
    t_end_max: int

    def overlaps(self, kind: GraphKind, t_start: int, t_end: int) -> bool:
        """Whether any contact of this segment can be active in the window.

        Must be a superset test: a segment this rejects may not contain an
        active contact for any graph kind's activity predicate (FORMAT.md,
        "Query window semantics"); a segment it accepts is simply queried.
        """
        if t_end < t_start:
            return False
        if self.t_min > t_end:
            # point: t in window; interval/incremental: t <= t_end.
            return False
        if kind is GraphKind.INCREMENTAL:
            return True  # edges persist once created
        if kind is GraphKind.INTERVAL:
            return self.t_end_max > t_start  # active on [t, t + d)
        return self.t_max >= t_start

    def to_json(self) -> Dict[str, int]:
        """Plain-dict form for the manifest payload."""
        return dataclasses.asdict(self)


def _segment_name(seq: int) -> str:
    return f"seg-{seq:08d}.chrono"


def _wal_binding(generation: int) -> Tuple[int, int]:
    """Synthetic (base_size, base_crc) binding a tail WAL to the store.

    The classic WAL binds to one immutable snapshot's bytes; the segmented
    store has no such single file, so the tail binds to its manifest-
    recorded generation instead: both sides of the pair are derived from
    the generation alone, and the manifest says which generation is
    current.  A WAL whose binding disagrees with its own generation field
    was written by something else entirely and is quarantined.
    """
    tag = f"chrono-segment-store:wal:{generation}".encode("ascii")
    return generation, zlib.crc32(tag)


def _require(cond: bool, source: str, message: str) -> None:
    if not cond:
        raise CorruptStreamError(f"{source}: {message}")


@dataclasses.dataclass(frozen=True)
class Manifest:
    """The generation-numbered list of files that constitute the store.

    Serialised as a small CRC-guarded binary frame around a JSON payload
    (FORMAT.md, "Segmented store"); always replaced atomically, never
    edited in place.  ``generation`` increases by one per manifest swap;
    ``wal_generation`` increases only when the tail log is reset (seal);
    ``next_seq`` is the lowest segment sequence number never yet used, so
    writers never reuse a file name whose delete may still be pending.
    """

    generation: int
    kind: GraphKind
    config: ChronoGraphConfig
    wal_generation: int
    next_seq: int
    segments: Tuple[SegmentInfo, ...]

    def to_bytes(self) -> bytes:
        """Serialise: magic, version, length-prefixed JSON, CRC32."""
        payload = json.dumps(
            {
                "generation": self.generation,
                "kind": self.kind.value,
                "config": dataclasses.asdict(self.config),
                "wal_generation": self.wal_generation,
                "next_seq": self.next_seq,
                "segments": [s.to_json() for s in self.segments],
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        return (
            _MANIFEST_FRAME.pack(MANIFEST_MAGIC, MANIFEST_VERSION, len(payload))
            + payload
            + _MANIFEST_CRC.pack(zlib.crc32(payload))
        )

    @classmethod
    def from_bytes(cls, data: bytes, source: str = "<manifest>") -> "Manifest":
        """Parse and verify a manifest; raises from ``FormatError`` on any flaw."""
        if len(data) < _MANIFEST_FRAME.size:
            raise TruncatedContainerError(
                f"{source}: truncated manifest frame "
                f"({len(data)} of {_MANIFEST_FRAME.size}+ bytes)"
            )
        magic, version, length = _MANIFEST_FRAME.unpack_from(data, 0)
        if magic != MANIFEST_MAGIC:
            raise FormatError(f"{source}: not a ChronoGraph segment manifest (bad magic)")
        if version != MANIFEST_VERSION:
            raise UnsupportedVersionError(
                f"{source}: unsupported manifest version {version}"
            )
        if length > _MAX_MANIFEST_BYTES:
            raise CorruptStreamError(
                f"{source}: manifest declares {length} payload bytes "
                f"(limit {_MAX_MANIFEST_BYTES})"
            )
        end = _MANIFEST_FRAME.size + length
        if end + _MANIFEST_CRC.size > len(data):
            raise TruncatedContainerError(f"{source}: truncated manifest payload")
        if end + _MANIFEST_CRC.size != len(data):
            raise CorruptStreamError(f"{source}: trailing bytes after manifest")
        payload = data[_MANIFEST_FRAME.size : end]
        (crc,) = _MANIFEST_CRC.unpack_from(data, end)
        if zlib.crc32(payload) != crc:
            raise ChecksumMismatchError(f"{source}: manifest checksum mismatch")
        try:
            doc = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CorruptStreamError(
                f"{source}: manifest payload is not valid JSON: {exc}"
            ) from exc
        return cls._from_json(doc, source)

    @classmethod
    def _from_json(cls, doc: object, source: str) -> "Manifest":
        _require(isinstance(doc, dict), source, "manifest payload is not an object")
        assert isinstance(doc, dict)
        for key in ("generation", "wal_generation", "next_seq"):
            value = doc.get(key)
            _require(
                isinstance(value, int) and not isinstance(value, bool) and value >= 0,
                source,
                f"manifest field {key!r} must be a non-negative integer",
            )
        kind = _KIND_NAMES.get(doc.get("kind"))
        _require(kind is not None, source, f"unknown graph kind {doc.get('kind')!r}")
        assert kind is not None
        try:
            config = ChronoGraphConfig(**doc.get("config", {}))
        except (TypeError, ValueError) as exc:
            raise CorruptStreamError(
                f"{source}: manifest config is invalid: {exc}"
            ) from exc
        raw_segments = doc.get("segments")
        _require(isinstance(raw_segments, list), source, "manifest segments must be a list")
        segments: List[SegmentInfo] = []
        seen_names = set()
        for i, raw in enumerate(raw_segments):
            segments.append(cls._segment_from_json(raw, i, source))
            info = segments[-1]
            _require(info.name not in seen_names, source, f"duplicate segment {info.name!r}")
            seen_names.add(info.name)
            _require(
                info.seq < doc["next_seq"],
                source,
                f"segment {info.name!r} has seq {info.seq} >= next_seq {doc['next_seq']}",
            )
        return cls(
            generation=doc["generation"],
            kind=kind,
            config=config,
            wal_generation=doc["wal_generation"],
            next_seq=doc["next_seq"],
            segments=tuple(segments),
        )

    @staticmethod
    def _segment_from_json(raw: object, index: int, source: str) -> SegmentInfo:
        _require(isinstance(raw, dict), source, f"segment #{index} is not an object")
        assert isinstance(raw, dict)
        for key in ("seq", "size", "crc", "contacts", "nodes"):
            value = raw.get(key)
            _require(
                isinstance(value, int) and not isinstance(value, bool) and value >= 0,
                source,
                f"segment #{index} field {key!r} must be a non-negative integer",
            )
        for key in ("t_min", "t_max", "t_end_max"):
            value = raw.get(key)
            _require(
                isinstance(value, int) and not isinstance(value, bool),
                source,
                f"segment #{index} field {key!r} must be an integer",
            )
        name = raw.get("name")
        _require(isinstance(name, str), source, f"segment #{index} name must be a string")
        assert isinstance(name, str)
        # A manifest is untrusted input: a hostile name must not escape the
        # store directory or collide with the store's own bookkeeping files.
        _require(
            name == os.path.basename(name)
            and name not in ("", ".", "..", MANIFEST_NAME)
            and not name.startswith("wal."),
            source,
            f"segment #{index} has an unsafe file name {name!r}",
        )
        _require(raw["contacts"] > 0, source, f"segment {name!r} declares no contacts")
        _require(
            raw["t_min"] <= raw["t_max"] <= raw["t_end_max"],
            source,
            f"segment {name!r} has an inverted time range",
        )
        return SegmentInfo(
            name=name,
            seq=raw["seq"],
            size=raw["size"],
            crc=raw["crc"],
            contacts=raw["contacts"],
            nodes=raw["nodes"],
            t_min=raw["t_min"],
            t_max=raw["t_max"],
            t_end_max=raw["t_end_max"],
        )


@dataclasses.dataclass(frozen=True)
class QuarantineEntry:
    """One isolated file: why it was pulled from service, what salvage saw."""

    name: str
    reason: str
    salvaged_nodes: int = 0
    salvaged_contacts: int = 0


@dataclasses.dataclass
class HealthReport:
    """Operational truth of a store at one instant.

    ``ok`` means full service: nothing quarantined, no data-bearing file
    unaccounted for, and an attached compactor (if any) alive.  A degraded
    store still answers queries over the healthy segments plus the tail --
    the report says exactly what is missing from those answers.
    """

    path: str
    generation: int
    wal_generation: int
    segments: int
    segment_contacts: int
    tail_contacts: int
    quarantined: List[QuarantineEntry]
    compactor: str  # "none" | "healthy" | "wedged" | "dead"
    degraded: bool
    events: List[str]
    #: Per-segment circuit-breaker snapshots keyed by segment name
    #: (see :meth:`repro.runtime.breaker.CircuitBreaker.snapshot`).
    breakers: Dict[str, Dict[str, object]] = dataclasses.field(
        default_factory=dict
    )

    @property
    def ok(self) -> bool:
        """Full service: no quarantine, no degradation."""
        return not self.quarantined and not self.degraded

    @property
    def total_contacts(self) -> int:
        """Contacts currently served (healthy segments + tail)."""
        return self.segment_contacts + self.tail_contacts

    def summary(self) -> str:
        """One line per fact, mirroring the other report types."""
        status = "ok" if self.ok else "degraded"
        lines = [
            f"store {self.path}: {status} (generation {self.generation})",
            f"  segments: {self.segments} ({self.segment_contacts} contacts)",
            f"  tail: {self.tail_contacts} contacts "
            f"(wal generation {self.wal_generation})",
            f"  compactor: {self.compactor}",
        ]
        for q in self.quarantined:
            lines.append(
                f"  quarantined: {q.name}: {q.reason} "
                f"(salvage saw {q.salvaged_nodes} nodes / "
                f"{q.salvaged_contacts} contacts)"
            )
        for name in sorted(self.breakers):
            snap = self.breakers[name]
            if snap.get("state") == "closed" and not snap.get("trips"):
                continue  # quiet breakers are noise in a one-line-per-fact report
            lines.append(
                f"  breaker: {name}: {snap.get('state')} "
                f"(trips {snap.get('trips')}, "
                f"retry after {snap.get('retry_after')}s)"
            )
        for event in self.events:
            lines.append(f"  event: {event}")
        return "\n".join(lines)


class SegmentedChronoGraph:
    """Immutable query view over sealed segments plus the hot tail.

    Every query merges per-segment answers with the tail overlay graph's
    answer.  Each segment is a :class:`CompressedChronoGraph` already
    implementing the closed-window activity contract, and each contact
    lives in exactly one segment or the tail, so set-union of per-part
    results is exact -- the same merge semantics ``apply_contacts`` uses
    inside a single graph, lifted across partitions.

    The view object itself is immutable (the segment tuple never changes);
    the tail graph mutates internally via its own thread-safe overlay, so
    a reader holding one view sees a consistent segment set plus a
    linearizable tail.

    Resource governance: every query accepts an optional
    ``ctx=`` :class:`repro.runtime.context.QueryContext` (deadline /
    cancel / budget polls reach down into per-part decode loops), and when
    the view carries a :class:`repro.runtime.breaker.BreakerBoard` each
    *segment* part is guarded by a named circuit breaker -- a part that
    repeatedly fails decode (or stalls past the deadline) trips open and
    is skipped, annotated on the context as a reported subset when the
    query consents via ``allow_partial`` and rejected otherwise.  The hot
    tail is never breakered (it is in-memory and the store's only write
    path), and :meth:`iter_contacts` deliberately bypasses the breakers:
    seal and compaction read through it and must always see every contact.
    """

    def __init__(
        self,
        kind: GraphKind,
        segments: Tuple[Tuple[SegmentInfo, "object"], ...],
        tail: "object",
        *,
        breakers: Optional[BreakerBoard] = None,
    ) -> None:
        self.kind = kind
        self._segments = segments
        self._tail = tail
        self._breakers = breakers

    # -- size ----------------------------------------------------------------

    @property
    def segment_count(self) -> int:
        """Healthy (servable) segments in this view."""
        return len(self._segments)

    @property
    def num_nodes(self) -> int:
        """One past the highest node label any part knows about."""
        n = self._tail.num_nodes
        for info, _graph in self._segments:
            n = max(n, info.nodes)
        return n

    @property
    def num_contacts(self) -> int:
        """Total contacts served across segments and tail."""
        return sum(info.contacts for info, _ in self._segments) + self._tail.num_contacts

    # -- planning ------------------------------------------------------------

    def decode_kernel_info(self) -> Dict[str, object]:
        """Which bulk-decode kernel tier per-part query merges resolve to.

        Mirrors :meth:`CompressedChronoGraph.decode_kernel_info` (the
        tier is process-wide); surfaced on the view so callers can
        confirm the tier without reaching into a segment.
        """
        return kernels.kernel_info()

    def plan(self, t_start: int, t_end: int) -> List[SegmentInfo]:
        """The segments a window query must consult, in seal order."""
        kind = self.kind
        return [
            info
            for info, _graph in self._segments
            if info.overlaps(kind, t_start, t_end)
        ]

    def _parts(self, t_start: int, t_end: int) -> List["object"]:
        """Graphs to consult for a window: planned segments plus the tail."""
        return [graph for _name, graph in self._named_parts(t_start, t_end)]

    def _named_parts(
        self, t_start: int, t_end: int
    ) -> List[Tuple[Optional[str], "object"]]:
        """(name, graph) pairs for a window; the unguarded tail is last.

        The tail's name is ``None`` -- the marker :meth:`_query_part` uses
        to exempt it from breaker consultation.
        """
        kind = self.kind
        parts: List[Tuple[Optional[str], object]] = [
            (info.name, graph)
            for info, graph in self._segments
            if info.overlaps(kind, t_start, t_end)
        ]
        parts.append((None, self._tail))
        return parts

    def _check_node(self, u: int) -> None:
        n = self.num_nodes
        if not 0 <= u < n:
            raise GraphDomainError(f"node {u} outside [0, {n})")

    # -- breaker-guarded part execution --------------------------------------

    def _query_part(self, name, ctx, run):
        """Run one part's sub-query under its circuit breaker, if any.

        Returns the sub-query's result, or the module sentinel
        ``_PART_SKIPPED`` when the part was skipped (breaker open, or the
        part failed decode and the context consented to a partial
        answer).  Outcomes feed the breaker: a clean return records
        success; a :class:`FormatError` records failure (CRC/decode rot in
        that part's bytes); a :class:`QueryInterrupted` *also* records
        failure -- the deadline blew while inside this part, so the stall
        is attributed to it -- but always propagates, because the query's
        envelope is violated regardless of which part consumed it.
        """
        board = self._breakers
        breaker = (
            board.get(name) if board is not None and name is not None else None
        )
        if breaker is not None and not breaker.allow():
            self._skip_part(
                name, ctx, f"breaker {breaker.state}", breaker.retry_after(),
                cause=None,
            )
            return _PART_SKIPPED
        try:
            result = run()
        except QueryInterrupted as exc:
            if breaker is not None:
                breaker.record_failure(f"{type(exc).__name__}: {exc}")
            raise
        except FormatError as exc:
            retry: Optional[float] = None
            if breaker is not None:
                breaker.record_failure(f"{type(exc).__name__}: {exc}")
                retry = breaker.retry_after()
            self._skip_part(
                name, ctx, f"{type(exc).__name__}: {exc}", retry, cause=exc
            )
            return _PART_SKIPPED
        if breaker is not None:
            breaker.record_success()
        return result

    def _skip_part(self, name, ctx, reason, retry_after, *, cause):
        """Annotate a skipped part on ``ctx``, or refuse the partial answer.

        A query only ever returns a subset with the caller's consent
        (``ctx.allow_partial``), and then the subset is *reported* via
        :meth:`QueryContext.note_skip`.  Without consent the original
        failure propagates, or -- when the part was never tried because
        its breaker is open -- a :class:`repro.errors.RejectedError` with
        the breaker's retry-after hint.
        """
        if ctx is not None and ctx.allow_partial:
            ctx.note_skip(name or "tail", reason, retry_after=retry_after)
            return
        if cause is not None:
            raise cause
        raise RejectedError(
            f"segment {name} is isolated by its circuit breaker ({reason}); "
            "pass a QueryContext with allow_partial=True to accept a "
            "reported subset",
            reason="segment-breaker",
            retry_after=retry_after,
        )

    # -- queries -------------------------------------------------------------

    def neighbors(
        self,
        u: int,
        t_start: int,
        t_end: int,
        *,
        ctx: Optional[QueryContext] = None,
    ) -> List[int]:
        """Distinct neighbors of ``u`` active in the closed window, sorted."""
        self._check_node(u)
        out: set = set()
        with query_scope(ctx):
            for name, graph in self._named_parts(t_start, t_end):
                if u >= graph.num_nodes:
                    continue
                part = self._query_part(
                    name,
                    ctx,
                    lambda g=graph: g.neighbors(u, t_start, t_end, ctx=ctx),
                )
                if part is not _PART_SKIPPED:
                    out.update(part)
        return sorted(out)

    def neighbors_many(
        self,
        queries: Sequence[Tuple[int, int, int]],
        *,
        ctx: Optional[QueryContext] = None,
    ) -> List[List[int]]:
        """Batch :meth:`neighbors`; one merged answer per (u, t1, t2) query."""
        with query_scope(ctx):
            return [self.neighbors(u, t1, t2, ctx=ctx) for u, t1, t2 in queries]

    def has_edge(
        self,
        u: int,
        v: int,
        t_start: int,
        t_end: int,
        *,
        ctx: Optional[QueryContext] = None,
    ) -> bool:
        """Whether edge (u, v) is active anywhere in the closed window."""
        self._check_node(u)
        with query_scope(ctx):
            for name, graph in self._named_parts(t_start, t_end):
                if u >= graph.num_nodes:
                    continue
                part = self._query_part(
                    name,
                    ctx,
                    lambda g=graph: g.has_edge(u, v, t_start, t_end, ctx=ctx),
                )
                if part is not _PART_SKIPPED and part:
                    return True
        return False

    def contacts_of(
        self, u: int, *, ctx: Optional[QueryContext] = None
    ) -> List[Contact]:
        """Every contact of ``u`` across all parts, (label, time)-sorted."""
        self._check_node(u)
        rows: List[Contact] = []
        with query_scope(ctx):
            for info, graph in self._segments:
                if u >= graph.num_nodes:
                    continue
                part = self._query_part(
                    info.name, ctx, lambda g=graph: g.contacts_of(u, ctx=ctx)
                )
                if part is not _PART_SKIPPED:
                    rows.extend(part)
            if u < self._tail.num_nodes:
                rows.extend(self._tail.contacts_of(u, ctx=ctx))
        rows.sort(key=lambda c: (c.v, c.time, c.duration))
        return rows

    def edge_timestamps(
        self, u: int, v: int, *, ctx: Optional[QueryContext] = None
    ) -> List[int]:
        """All activation timestamps of edge (u, v), ascending."""
        self._check_node(u)
        times: List[int] = []
        with query_scope(ctx):
            for info, graph in self._segments:
                if u >= graph.num_nodes:
                    continue
                part = self._query_part(
                    info.name,
                    ctx,
                    lambda g=graph: g.edge_timestamps(u, v, ctx=ctx),
                )
                if part is not _PART_SKIPPED:
                    times.extend(part)
            if u < self._tail.num_nodes:
                times.extend(self._tail.edge_timestamps(u, v, ctx=ctx))
        times.sort()
        return times

    def snapshot(
        self,
        t_start: int,
        t_end: int,
        *,
        ctx: Optional[QueryContext] = None,
    ) -> List[Tuple[int, int]]:
        """All distinct edges active within the closed window, sorted."""
        per_node: Dict[int, set] = {}
        with query_scope(ctx):
            for name, graph in self._named_parts(t_start, t_end):
                part = self._query_part(
                    name, ctx, lambda g=graph: g.snapshot(t_start, t_end, ctx=ctx)
                )
                if part is _PART_SKIPPED:
                    continue
                for u, v in part:
                    per_node.setdefault(u, set()).add(v)
        edges: List[Tuple[int, int]] = []
        for u in sorted(per_node):
            for v in sorted(per_node[u]):
                edges.append((u, v))
        return edges

    def iter_contacts(self):
        """Yield every stored contact, segments in seal order then the tail."""
        for _info, graph in self._segments:
            for c in graph.iter_contacts():
                yield c
        for c in self._tail.iter_contacts():
            yield c


def is_segment_store(path: PathLike) -> bool:
    """Whether ``path`` is a segment-store directory (has a MANIFEST)."""
    path = pathlib.Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


def _compress_stored(
    kind: GraphKind,
    contacts: Sequence[Contact],
    config: ChronoGraphConfig,
    name: str,
):
    """Compress already-bucketed contacts into container bytes.

    Stored contacts are in post-aggregation time units, so compression
    runs at resolution 1 and the provenance resolution is stamped back --
    the exact discipline of :func:`repro.storage.recovery.compact`.
    """
    from repro.core import compress
    from repro.core.serialize import dumps_compressed
    from repro.graph.model import TemporalGraph

    resolution = config.resolution
    cfg = (
        dataclasses.replace(config, resolution=1) if resolution > 1 else config
    )
    num_nodes = 0
    for c in contacts:
        num_nodes = max(num_nodes, c.u + 1, c.v + 1)
    graph = TemporalGraph(kind, num_nodes, list(contacts), name=name, granularity="stored")
    fresh = compress(graph, cfg)
    if resolution > 1:
        fresh.config = dataclasses.replace(fresh.config, resolution=resolution)
    return dumps_compressed(fresh)


def _segment_info_for(
    name: str, seq: int, payload: bytes, contacts: Sequence[Contact]
) -> SegmentInfo:
    """Manifest entry binding ``payload`` and summarising its time range."""
    t_min = min(c.time for c in contacts)
    t_max = max(c.time for c in contacts)
    t_end_max = max(c.time + c.duration for c in contacts)
    nodes = 0
    for c in contacts:
        nodes = max(nodes, c.u + 1, c.v + 1)
    return SegmentInfo(
        name=name,
        seq=seq,
        size=len(payload),
        crc=zlib.crc32(payload),
        contacts=len(contacts),
        nodes=nodes,
        t_min=t_min,
        t_max=t_max,
        t_end_max=max(t_max, t_end_max),
    )


def _empty_tail(kind: GraphKind):
    """A zero-node compressed graph ready to absorb the tail overlay."""
    from repro.core import compress
    from repro.graph.builders import graph_from_contacts

    return compress(graph_from_contacts(kind, [], num_nodes=0))


class SegmentStore:
    """Writer handle and query front end over one store directory.

    Create with :meth:`create`, reopen with :meth:`open` (which performs
    full crash recovery: manifest verification, per-segment quarantine,
    tail repair, orphan sweep).  Ingest with :meth:`ingest`; sealing and
    compaction normally run automatically (inline past the seal threshold,
    in the background via :class:`repro.storage.compactor.Compactor`) but
    are also callable directly for synchronous use.
    """

    def __init__(
        self,
        directory: pathlib.Path,
        manifest: Manifest,
        view: SegmentedChronoGraph,
        wal: Optional[WriteAheadLog],
        tail_contacts: List[Contact],
        *,
        fs: Filesystem,
        retry: RetryPolicy,
        limits=None,
        policy: StorePolicy,
        quarantined: Optional[List[QuarantineEntry]] = None,
        events: Optional[List[str]] = None,
        breakers: Optional[BreakerBoard] = None,
        mmap_segments: bool = True,
    ) -> None:
        self.directory = directory
        self.policy = policy
        self._fs = fs
        self._retry = retry
        self._limits = limits
        # Whether sealed segments are memory-mapped (shared page cache)
        # rather than read into per-process heap bytes.
        self._mmap_segments = mmap_segments
        self._manifest = manifest
        self._view = view
        self._wal = wal
        self._tail_contacts = tail_contacts
        self._quarantined = list(quarantined or [])
        self._events = list(events or [])
        # Breaker state belongs to the store, not the view: a tripped
        # segment stays tripped across the view rebuilds that follow
        # seals and compactions.
        self._breakers = breakers if breakers is not None else BreakerBoard()
        self._next_seq = manifest.next_seq
        # Writer-writer serialisation only; readers use the published view
        # and never touch this guard, so durable writes under it cannot
        # stall a query (the reader-visible swap is one reference store).
        self._commit_guard = threading.Lock()
        self._compactor = None  # attached by repro.storage.compactor
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: PathLike,
        kind: GraphKind,
        config: Optional[ChronoGraphConfig] = None,
        *,
        fs: Filesystem = OS_FILESYSTEM,
        retry: RetryPolicy = DEFAULT_RETRY,
        limits=None,
        policy: Optional[StorePolicy] = None,
    ) -> "SegmentStore":
        """Initialise an empty store directory (refuses to overwrite one)."""
        directory = pathlib.Path(path)
        manifest_path = directory / MANIFEST_NAME
        if manifest_path.exists():
            raise FileExistsError(f"{directory} already holds a segment store")
        os.makedirs(str(directory), exist_ok=True)
        manifest = Manifest(
            generation=0,
            kind=kind,
            config=config or ChronoGraphConfig(),
            wal_generation=0,
            next_seq=0,
            segments=(),
        )
        atomic_write_bytes(manifest_path, manifest.to_bytes(), fs=fs, retry=retry)
        wal = cls._create_tail_wal(directory, manifest, fs=fs, retry=retry)
        board = BreakerBoard()
        view = SegmentedChronoGraph(kind, (), _empty_tail(kind), breakers=board)
        return cls(
            directory,
            manifest,
            view,
            wal,
            [],
            fs=fs,
            retry=retry,
            limits=limits,
            policy=policy or StorePolicy(),
            breakers=board,
        )

    @staticmethod
    def _create_tail_wal(
        directory: pathlib.Path,
        manifest: Manifest,
        *,
        fs: Filesystem,
        retry: RetryPolicy,
    ) -> WriteAheadLog:
        base_size, base_crc = _wal_binding(manifest.wal_generation)
        header = WalHeader(
            kind=manifest.kind,
            generation=manifest.wal_generation,
            base_size=base_size,
            base_crc=base_crc,
        )
        return WriteAheadLog.create(
            directory / WAL_TAIL_NAME, header, fs=fs, retry=retry
        )

    @classmethod
    def open(
        cls,
        path: PathLike,
        *,
        fs: Filesystem = OS_FILESYSTEM,
        retry: RetryPolicy = DEFAULT_RETRY,
        limits=None,
        policy: Optional[StorePolicy] = None,
        read_only: bool = False,
        mmap: bool = True,
    ) -> "SegmentStore":
        """Open with full crash recovery; raises ``FormatError`` only when
        the manifest itself is unreadable (segments and the tail degrade to
        quarantine instead).

        ``read_only`` skips every repair side effect (tail truncation,
        quarantine renames, orphan sweeps, WAL creation) so diagnostics can
        inspect a damaged store without changing a byte of it.

        With ``mmap=True`` (the default) sealed segments are memory-mapped
        read-only instead of read into the heap, so N processes opening the
        same store share one copy of every segment in the OS page cache.
        Integrity checking is unchanged -- the manifest binding and every
        container checksum are still verified eagerly at open (the CRC scan
        touches the mapped pages without copying them).  Segments are
        immutable and replaced only by whole-file rename, so a concurrent
        writer sealing or compacting never perturbs a mapped reader: the
        reader's mapping pins the old inode until the view is rebuilt.
        """
        from repro.core.serialize import _map_readonly, load_compressed_bytes
        from repro.core.validate import SalvageReport

        directory = pathlib.Path(path)
        manifest_path = directory / MANIFEST_NAME
        manifest = Manifest.from_bytes(
            manifest_path.read_bytes(), str(manifest_path)
        )
        events: List[str] = []
        quarantined: List[QuarantineEntry] = []
        loaded: List[Tuple[SegmentInfo, object]] = []
        for info in manifest.segments:
            seg_path = directory / info.name
            reason: Optional[str] = None
            blob = b""
            try:
                blob = _map_readonly(seg_path) if mmap else seg_path.read_bytes()
            except OSError as exc:
                reason = f"unreadable: {exc}"
            if reason is None and (
                len(blob) != info.size or zlib.crc32(blob) != info.crc
            ):
                reason = (
                    f"manifest binding mismatch ({len(blob)} bytes / "
                    f"crc 0x{zlib.crc32(blob):08x}, manifest says {info.size} "
                    f"bytes / crc 0x{info.crc:08x})"
                )
            if reason is None:
                try:
                    graph = load_compressed_bytes(
                        blob, limits=limits, source=str(seg_path)
                    )
                except FormatError as exc:
                    reason = f"{type(exc).__name__}: {exc}"
                else:
                    loaded.append((info, graph))
                    continue
            report: Optional[SalvageReport] = None
            if blob:
                from repro.core.serialize import salvage_bytes

                report = salvage_bytes(blob, limits=limits, source=str(seg_path))
            quarantined.append(
                QuarantineEntry(
                    name=info.name,
                    reason=reason,
                    salvaged_nodes=report.nodes_recovered if report else 0,
                    salvaged_contacts=report.contacts_recovered if report else 0,
                )
            )
        tail_contacts, wal, tail_events, tail_quarantine = cls._recover_tail(
            directory, manifest, fs=fs, retry=retry, read_only=read_only
        )
        events.extend(tail_events)
        quarantined.extend(tail_quarantine)
        if not read_only:
            events.extend(cls._sweep_orphans(directory, manifest, fs=fs))
        tail = _empty_tail(manifest.kind)
        if tail_contacts:
            tail.apply_contacts(tail_contacts)
        board = BreakerBoard()
        view = SegmentedChronoGraph(
            manifest.kind, tuple(loaded), tail, breakers=board
        )
        return cls(
            directory,
            manifest,
            view,
            wal,
            list(tail_contacts),
            fs=fs,
            retry=retry,
            limits=limits,
            policy=policy or StorePolicy(),
            quarantined=quarantined,
            events=events,
            breakers=board,
            mmap_segments=mmap,
        )

    @classmethod
    def _recover_tail(
        cls,
        directory: pathlib.Path,
        manifest: Manifest,
        *,
        fs: Filesystem,
        retry: RetryPolicy,
        read_only: bool,
    ) -> Tuple[List[Contact], Optional[WriteAheadLog], List[str], List[QuarantineEntry]]:
        """Recover the hot tail against the manifest's WAL generation.

        Returns (committed contacts, open writer handle or None, events,
        quarantine entries).  Every outcome is explicit: a missing or
        stale log is re-created (its contacts are provably already sealed
        or were never durable), a torn tail is truncated and reported, and
        a foreign or unreadable log is quarantined -- renamed aside, never
        replayed, never deleted.
        """
        wal_path = directory / WAL_TAIL_NAME
        events: List[str] = []
        quarantine: List[QuarantineEntry] = []
        expected_gen = manifest.wal_generation

        def fresh() -> Optional[WriteAheadLog]:
            if read_only:
                return None
            return cls._create_tail_wal(directory, manifest, fs=fs, retry=retry)

        if not wal_path.exists():
            events.append(
                "wal tail missing; created fresh (interrupted seal had "
                "already folded its contacts into a sealed segment)"
            )
            return [], fresh(), events, quarantine

        scan = scan_wal(wal_path)
        header = scan.header
        if header is not None:
            bound_size, bound_crc = _wal_binding(header.generation)
            bound = (
                header.kind is manifest.kind
                and header.base_size == bound_size
                and header.base_crc == bound_crc
            )
            if bound and header.generation == expected_gen:
                if scan.torn:
                    if read_only:
                        events.append(
                            f"wal tail torn: {scan.dropped_bytes} trailing "
                            "bytes would be dropped (read-only: not repaired)"
                        )
                    else:
                        dropped = repair_torn_tail(wal_path, scan, fs=fs)
                        events.append(
                            f"wal tail torn: dropped {dropped} trailing bytes "
                            "(crash mid-commit; committed batches intact)"
                        )
                    for err in scan.errors:
                        events.append(f"wal tail: {err}")
                wal = None if read_only else WriteAheadLog.open(wal_path, fs=fs)
                return list(scan.contacts), wal, events, quarantine
            if bound and header.generation < expected_gen:
                events.append(
                    f"wal tail at stale generation {header.generation} "
                    f"(manifest says {expected_gen}): its contacts are "
                    "already sealed; log reset"
                )
                return [], fresh(), events, quarantine
            reason = (
                f"wal tail at generation {header.generation} does not bind "
                f"to this store (manifest wal_generation {expected_gen})"
            )
        else:
            reason = "; ".join(scan.errors) or "unreadable WAL header"

        # Foreign or unreadable log: preserve the bytes out of the data
        # path.  Replay would risk serving contacts that were never part
        # of this store -- a silent wrong answer, the one forbidden outcome.
        quarantine.append(
            QuarantineEntry(
                name=WAL_TAIL_NAME,
                reason=reason,
                salvaged_contacts=sum(len(b) for b in scan.batches),
            )
        )
        if not read_only:
            aside = cls._quarantine_aside(directory, fs)
            fs.replace(str(wal_path), str(aside))
            events.append(f"wal tail quarantined to {aside.name}")
        return [], fresh(), events, quarantine

    @staticmethod
    def _quarantine_aside(directory: pathlib.Path, fs: Filesystem) -> pathlib.Path:
        for i in range(10_000):
            candidate = directory / f"wal.quarantine-{i:04d}"
            if not candidate.exists():
                return candidate
        raise RuntimeError(f"{directory}: too many quarantined WAL tails")

    @staticmethod
    def _sweep_orphans(
        directory: pathlib.Path, manifest: Manifest, *, fs: Filesystem
    ) -> List[str]:
        """Delete segment files the manifest no longer references.

        This is the delayed-delete half of every swap protocol: a crash
        between the manifest swap and the delete leaves complete, fsynced
        but unreferenced files, which are semantically already deleted.
        Temp litter from interrupted atomic writes goes the same way.
        Quarantine files (``wal.quarantine-*``) are never swept.
        """
        events: List[str] = []
        referenced = {info.name for info in manifest.segments}
        for entry in sorted(directory.iterdir()):
            name = entry.name
            doomed = (
                name.startswith("seg-")
                and name.endswith(".chrono")
                and name not in referenced
            ) or name.endswith(".tmp")
            if not doomed:
                continue
            try:
                fs.remove(str(entry))
            except OSError:
                continue  # sweep again next open
            events.append(f"swept orphan {name}")
        return events

    def close(self) -> None:
        """Detach the compactor reference and release the tail descriptor."""
        with self._commit_guard:
            self._closed = True
            if self._wal is not None:
                self._wal.close()
                self._wal = None

    def __enter__(self) -> "SegmentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- read side -----------------------------------------------------------

    @property
    def graph(self) -> SegmentedChronoGraph:
        """The current immutable query view (one atomic reference read)."""
        return self._view

    @property
    def manifest(self) -> Manifest:
        """The current in-memory manifest (matches the durable one)."""
        return self._manifest

    @property
    def tail_size(self) -> int:
        """Committed contacts currently living in the hot tail."""
        return len(self._tail_contacts)

    def attach_compactor(self, compactor) -> None:
        """Register the background compactor the watchdog should monitor."""
        self._compactor = compactor

    def _compactor_state(self) -> str:
        compactor = self._compactor
        if compactor is None:
            return "none"
        return compactor.state(self.policy.compactor_timeout)

    def health(self) -> HealthReport:
        """Snapshot the store's operational state into a report."""
        view = self._view
        manifest = self._manifest
        compactor = self._compactor_state()
        open_breakers = self._breakers.open_count()
        return HealthReport(
            path=str(self.directory),
            generation=manifest.generation,
            wal_generation=manifest.wal_generation,
            segments=view.segment_count,
            segment_contacts=sum(i.contacts for i in manifest.segments),
            tail_contacts=len(self._tail_contacts),
            quarantined=list(self._quarantined),
            compactor=compactor,
            degraded=bool(self._quarantined)
            or compactor in ("dead", "wedged")
            or open_breakers > 0,
            events=list(self._events),
            breakers=self._breakers.states(),
        )

    def decode_kernel_info(self) -> Dict[str, object]:
        """Which bulk-decode kernel tier per-part query merges resolve to.

        Mirrors :meth:`CompressedChronoGraph.decode_kernel_info` (the
        tier is process-wide); surfaced here so a segmented deployment
        can confirm its tier without reaching into a part.
        """
        return kernels.kernel_info()

    # -- ingest --------------------------------------------------------------

    def ingest(self, rows: Iterable[ContactRow]) -> int:
        """Durably commit a batch of contacts into the hot tail.

        Contacts are bucketed by the store's configured resolution (the
        same discipline as ``GrowableChronoGraph.add_contact``), appended
        to the tail WAL and fsynced as one all-or-nothing batch, then
        applied to the in-memory tail overlay.  Crossing the seal
        threshold seals inline -- unless the store is degraded (dead or
        wedged compactor), in which case the segment set is read-only and
        a full tail raises :class:`BackpressureError` instead.
        """
        batch = self._bucket(rows)
        if not batch:
            return 0
        with self._commit_guard:
            if self._closed or self._wal is None:
                raise StoreClosedError(f"{self.directory}: store is closed")
            degraded = self._compactor_state() in ("dead", "wedged")
            if degraded and (
                len(self._tail_contacts) + len(batch)
                > self.policy.backpressure_contacts
            ):
                raise BackpressureError(
                    f"{self.directory}: compactor is "
                    f"{self._compactor_state()} and the tail holds "
                    f"{len(self._tail_contacts)} contacts "
                    f"(cap {self.policy.backpressure_contacts}); "
                    "ingestion is backpressured until compaction resumes",
                    tail_size=len(self._tail_contacts),
                    cap=self.policy.backpressure_contacts,
                    retry_after=self.policy.compactor_timeout,
                )
            self._wal.append(batch)
            committed = self._wal.commit()
            self._tail_contacts.extend(batch)
            self._view._tail.apply_contacts(batch)
            if (
                not degraded
                and len(self._tail_contacts) >= self.policy.seal_contacts
            ):
                self._seal_locked()
        return committed

    def _bucket(self, rows: Iterable[ContactRow]) -> List[Contact]:
        from repro.graph.aggregate import _aggregate_duration

        manifest = self._manifest
        resolution = manifest.config.resolution
        interval = manifest.kind is GraphKind.INTERVAL
        batch: List[Contact] = []
        for row in rows:
            c = row if isinstance(row, Contact) else Contact(*row)
            if resolution > 1:
                duration = (
                    _aggregate_duration(c.time, c.duration, resolution)
                    if interval
                    else 0
                )
                c = Contact(c.u, c.v, c.time // resolution, duration)
            batch.append(c)
        return batch

    # -- seal (tail -> immutable segment) --------------------------------------

    def seal(self) -> Optional[SegmentInfo]:
        """Fold the committed tail into a fresh immutable segment.

        No-op (returns None) on an empty tail.  Crash-safe: the segment
        file lands complete and fsynced before the manifest swap names it,
        and the stale tail log left by a crash between the swap and the
        log reset is recognised by its old generation and discarded --
        exactly once, because its contacts are in the sealed segment.
        """
        with self._commit_guard:
            if self._closed or self._wal is None:
                raise StoreClosedError(f"{self.directory}: store is closed")
            return self._seal_locked()

    def _seal_locked(self) -> Optional[SegmentInfo]:
        contacts = list(self._tail_contacts)
        if not contacts:
            return None
        manifest = self._manifest
        seq = self._next_seq
        self._next_seq += 1
        name = _segment_name(seq)
        payload = _compress_stored(
            manifest.kind, contacts, manifest.config, name=name
        )
        info = _segment_info_for(name, seq, payload, contacts)
        # 1. write-new: the segment is complete and fsynced before anything
        #    references it; a crash here leaves an orphan the sweep removes.
        atomic_write_bytes(
            self.directory / name, payload, fs=self._fs, retry=self._retry
        )
        # 2. manifest swap: the store's contents change in one rename.
        new_manifest = dataclasses.replace(
            manifest,
            generation=manifest.generation + 1,
            wal_generation=manifest.wal_generation + 1,
            next_seq=self._next_seq,
            segments=manifest.segments + (info,),
        )
        atomic_write_bytes(
            self.directory / MANIFEST_NAME,
            new_manifest.to_bytes(),
            fs=self._fs,
            retry=self._retry,
        )
        # 3. log reset: a crash before this leaves the old-generation log,
        #    which recovery recognises as sealed-and-stale and discards.
        self._wal.close()
        self._manifest = new_manifest
        self._wal = self._create_tail_wal(
            self.directory, new_manifest, fs=self._fs, retry=self._retry
        )
        self._tail_contacts = []
        from repro.core.serialize import _map_readonly, load_compressed_bytes

        # Map the file just written rather than adopting the in-heap encode
        # buffer: the long-lived view then shares pages with every other
        # process, and the reload doubles as a read-back verification.
        seg_path = self.directory / name
        graph = load_compressed_bytes(
            _map_readonly(seg_path) if self._mmap_segments else payload,
            limits=self._limits,
            source=str(seg_path),
        )
        view = self._view
        self._view = SegmentedChronoGraph(
            new_manifest.kind,
            view._segments + ((info, graph),),
            _empty_tail(new_manifest.kind),
            breakers=self._breakers,
        )
        return info

    # -- compaction (merge adjacent segments) ----------------------------------

    def compaction_needed(self) -> bool:
        """Whether the segment count exceeds the policy bound."""
        return len(self._manifest.segments) > self.policy.max_segments

    def pick_merge(self) -> Optional[Tuple[SegmentInfo, SegmentInfo]]:
        """The adjacent pair to merge next: smallest combined byte size.

        Merging only ever adjacent (in seal order) pairs keeps segments
        time-partitioned: seal order is arrival order, so the merged
        segment's span covers a contiguous stretch of the stream.
        """
        segments = self._manifest.segments
        if len(segments) <= self.policy.max_segments:
            return None
        best = min(
            range(len(segments) - 1),
            key=lambda i: segments[i].size + segments[i + 1].size,
        )
        return segments[best], segments[best + 1]

    def compact_once(self) -> bool:
        """Merge one adjacent segment pair crash-safely; False when idle.

        Phases: (1) read the immutable inputs and write the merged
        replacement -- no guard held, ingest proceeds concurrently;
        (2) under the commit guard, re-check the inputs are still current
        and swap the manifest; (3) delayed delete of the replaced files.
        Killing this method at any point never changes query answers: the
        view only advances at the swap, and both old files outlive it.
        """
        pair = self.pick_merge()
        if pair is None:
            return False
        a, b = pair
        view = self._view
        graphs = {info.name: graph for info, graph in view._segments}
        if a.name not in graphs or b.name not in graphs:
            return False  # raced with another swap; retry next cycle
        manifest = self._manifest
        contacts = list(graphs[a.name].iter_contacts())
        contacts.extend(graphs[b.name].iter_contacts())
        with self._commit_guard:
            seq = self._next_seq
            self._next_seq += 1
        name = _segment_name(seq)
        payload = _compress_stored(manifest.kind, contacts, manifest.config, name=name)
        info = _segment_info_for(name, seq, payload, contacts)
        # 1. write-new (complete + fsynced before any reference exists).
        atomic_write_bytes(
            self.directory / name, payload, fs=self._fs, retry=self._retry
        )
        from repro.core.serialize import _map_readonly, load_compressed_bytes

        merged_path = self.directory / name
        merged_graph = load_compressed_bytes(
            _map_readonly(merged_path) if self._mmap_segments else payload,
            limits=self._limits,
            source=str(merged_path),
        )
        with self._commit_guard:
            if self._closed:
                return False
            current = self._manifest
            names = [s.name for s in current.segments]
            try:
                ia = names.index(a.name)
            except ValueError:
                ia = -1
            if ia < 0 or ia + 1 >= len(names) or names[ia + 1] != b.name:
                # Inputs vanished under us (concurrent swap): the freshly
                # written file is an orphan; drop it and report idle.
                try:
                    self._fs.remove(str(self.directory / name))
                except OSError:
                    pass
                return False
            new_segments = (
                current.segments[:ia] + (info,) + current.segments[ia + 2 :]
            )
            new_manifest = dataclasses.replace(
                current,
                generation=current.generation + 1,
                next_seq=max(current.next_seq, self._next_seq),
                segments=new_segments,
            )
            # 2. manifest swap: one rename retires a and b and enlists the
            #    merged segment.
            atomic_write_bytes(
                self.directory / MANIFEST_NAME,
                new_manifest.to_bytes(),
                fs=self._fs,
                retry=self._retry,
            )
            self._manifest = new_manifest
            old_view = self._view
            rebuilt: List[Tuple[SegmentInfo, object]] = []
            for seg_info, seg_graph in old_view._segments:
                if seg_info.name == a.name:
                    rebuilt.append((info, merged_graph))
                elif seg_info.name == b.name:
                    continue
                else:
                    rebuilt.append((seg_info, seg_graph))
            self._view = SegmentedChronoGraph(
                new_manifest.kind,
                tuple(rebuilt),
                old_view._tail,
                breakers=self._breakers,
            )
        # 3. delayed delete: failures leave orphans the next open sweeps.
        for old in (a, b):
            try:
                self._fs.remove(str(self.directory / old.name))
            except OSError:
                self._events.append(
                    f"delayed delete of {old.name} failed; orphan left for sweep"
                )
        return True

    def compact_all(self) -> int:
        """Seal the tail, then merge until within policy; returns merge count."""
        self.seal()
        merges = 0
        while self.compact_once():
            merges += 1
        return merges

    def verify_binding(self) -> None:
        """Cross-check the in-memory manifest against the durable one.

        Diagnostic used by tests and ``repro status``: raises
        :class:`GenerationMismatchError` when the directory's manifest is
        not the one this handle believes is current.
        """
        durable = Manifest.from_bytes(
            (self.directory / MANIFEST_NAME).read_bytes(),
            str(self.directory / MANIFEST_NAME),
        )
        if durable.generation != self._manifest.generation:
            raise GenerationMismatchError(
                f"{self.directory}: durable manifest is generation "
                f"{durable.generation}, handle believes {self._manifest.generation}"
            )
