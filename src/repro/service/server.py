"""Supervisor + N worker processes serving one mapped graph store.

Topology: the supervisor binds the listening socket, then forks N worker
processes that inherit it and ``accept()`` independently (the kernel load
balances).  Each worker opens the target -- a ``.chrono`` container or a
segment-store directory -- **itself**, read-only and memory-mapped, so
all workers (and any other process on the host) share a single copy of
the compressed graph in the OS page cache; per-worker heap holds only
offset indexes and caches.

Each worker owns a :class:`repro.runtime.Governor` configured from
:class:`ServiceConfig`: a request is admitted (or shed with a structured
``retry_after``) before any decoding starts, its ``timeout_ms`` becomes
the :class:`repro.runtime.QueryContext` deadline enforced at decode
checkpoints, and -- for segment stores -- breaker-skipped parts are
returned as ``skipped`` annotations rather than silent truncation.

Workers exit cleanly on SIGTERM/SIGINT; the supervisor respawns workers
that die unexpectedly and tears everything down in :meth:`GraphService.stop`.
On platforms without ``fork`` the service degrades to worker *threads* in
one process -- same protocol, same semantics, no page-cache claim.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import socket
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import DomainError, FormatError, QueryInterrupted, RejectedError
from repro.runtime.context import QueryContext
from repro.runtime.governor import Governor
from repro.service.protocol import ProtocolError, recv_message, send_message

__all__ = ["ServiceConfig", "GraphService", "open_query_target"]


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one service instance; see docs/operations.md for guidance."""

    #: Bind address; port 0 lets the kernel pick (read it back from
    #: :attr:`GraphService.address`).
    host: str = "127.0.0.1"
    port: int = 0
    #: Worker process count.  Workers share the page cache, so this scales
    #: CPU without scaling graph memory.
    workers: int = 2
    #: Per-worker admission cap (queries in flight before shedding).
    max_concurrent: int = 64
    #: Per-tenant token budgets (both or neither), per worker.
    tenant_rate: Optional[float] = None
    tenant_burst: Optional[float] = None
    #: Ceiling applied to client-requested ``timeout_ms``.
    max_timeout: float = 30.0
    #: Map the store (default) or load it into each worker's heap.
    mmap: bool = True


def open_query_target(path: str, *, mmap: bool = True):
    """Open ``path`` read-only for serving: container file or store dir.

    Returns an object exposing the query surface (``neighbors``,
    ``neighbors_many``, ``has_edge``, ``snapshot``, ``edge_timestamps``)
    -- a :class:`CompressedChronoGraph` for a ``.chrono`` file, a
    :class:`SegmentedChronoGraph` view for a segment-store directory.
    """
    from repro.core.serialize import load_compressed
    from repro.storage.segments import SegmentStore, is_segment_store

    if is_segment_store(path):
        store = SegmentStore.open(path, read_only=True, mmap=mmap)
        return store.graph
    return load_compressed(path, mmap=mmap)


# -- request handling (runs inside a worker) --------------------------------

def _int_list(values: Any, what: str, arity: int) -> List[int]:
    """``values`` as exactly ``arity`` integers, else :class:`ProtocolError`."""
    if not isinstance(values, list) or len(values) != arity:
        raise ProtocolError(f"{what} must be a list of {arity} integers")
    if any(isinstance(v, bool) for v in values):
        raise ProtocolError(f"{what} must hold integers, not booleans")
    try:
        return [int(v) for v in values]
    except (TypeError, ValueError):
        raise ProtocolError(f"{what} must hold integers") from None


def _build_context(
    request: Dict[str, Any], governor: Governor, config: ServiceConfig
) -> QueryContext:
    timeout: Optional[float] = None
    timeout_ms = request.get("timeout_ms")
    if timeout_ms is not None:
        try:
            timeout = min(float(timeout_ms) / 1000.0, config.max_timeout)
        except (TypeError, ValueError):
            raise ProtocolError("timeout_ms must be a number") from None
        if timeout <= 0:
            raise ProtocolError("timeout_ms must be positive")
    tenant = request.get("tenant")
    if tenant is not None and not isinstance(tenant, str):
        raise ProtocolError("tenant must be a string")
    return QueryContext(
        timeout=timeout,
        tenant=tenant,
        governor=governor,
        allow_partial=bool(request.get("allow_partial", False)),
    )


def _dispatch(graph, op: str, params: Dict[str, Any], ctx: QueryContext):
    if op == "neighbors":
        u, t1, t2 = _int_list(params.get("args"), "args", 3)
        return graph.neighbors(u, t1, t2, ctx=ctx)
    if op == "neighbors_many":
        queries = params.get("queries")
        if not isinstance(queries, list):
            raise ProtocolError("queries must be a list of [u, t1, t2]")
        triples = [tuple(_int_list(q, "query", 3)) for q in queries]
        return graph.neighbors_many(triples, ctx=ctx)
    if op == "has_edge":
        u, v, t1, t2 = _int_list(params.get("args"), "args", 4)
        return graph.has_edge(u, v, t1, t2, ctx=ctx)
    if op == "snapshot":
        t1, t2 = _int_list(params.get("args"), "args", 2)
        return [[u, v] for u, v in graph.snapshot(t1, t2, ctx=ctx)]
    if op == "edge_timestamps":
        u, v = _int_list(params.get("args"), "args", 2)
        return graph.edge_timestamps(u, v, ctx=ctx)
    raise ProtocolError(f"unknown op {op!r}")


def _handle_request(
    graph,
    governor: Governor,
    config: ServiceConfig,
    request: Dict[str, Any],
    worker_id: int,
) -> Dict[str, Any]:
    """One request in, one response out; exceptions become error frames."""
    request_id = request.get("id")

    def failure(exc: Exception) -> Dict[str, Any]:
        error: Dict[str, Any] = {
            "type": type(exc).__name__,
            "message": str(exc),
        }
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            error["retry_after"] = retry_after
        return {"id": request_id, "ok": False, "error": error}

    try:
        op = request.get("op")
        if op == "ping":
            return {
                "id": request_id, "ok": True, "worker": worker_id,
                "result": {"pong": True, "pid": os.getpid()},
            }
        if op == "stats":
            return {
                "id": request_id, "ok": True, "worker": worker_id,
                "result": {
                    "pid": os.getpid(),
                    "num_nodes": graph.num_nodes,
                    "num_contacts": graph.num_contacts,
                    "governor": governor.stats(),
                },
            }
        if not isinstance(op, str):
            raise ProtocolError("request has no op")
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise ProtocolError("params must be an object")
        ctx = _build_context(request, governor, config)
        result = _dispatch(graph, op, params, ctx)
        response: Dict[str, Any] = {
            "id": request_id, "ok": True, "worker": worker_id,
            "result": result,
        }
        if ctx.skipped:
            response["skipped"] = [
                {
                    "part": s.part,
                    "reason": s.reason,
                    "retry_after": s.retry_after,
                }
                for s in ctx.skipped
            ]
        return response
    except (RejectedError, QueryInterrupted, FormatError, DomainError) as exc:
        return failure(exc)


def _serve_connection(
    conn: socket.socket,
    graph,
    governor: Governor,
    config: ServiceConfig,
    worker_id: int,
) -> None:
    """Run one connection's request loop until EOF or a framing violation."""
    try:
        conn.settimeout(None)
        while True:
            try:
                request = recv_message(conn)
            except ProtocolError as exc:
                # Framing is unrecoverable: report once, then hang up.
                try:
                    send_message(
                        conn,
                        {
                            "id": None, "ok": False,
                            "error": {"type": "ProtocolError", "message": str(exc)},
                        },
                    )
                except OSError:
                    pass
                return
            if request is None:
                return
            send_message(
                conn, _handle_request(graph, governor, config, request, worker_id)
            )
    except OSError:
        return  # peer vanished; nothing to clean up beyond the socket
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _worker_loop(
    listener: socket.socket,
    path: str,
    config: ServiceConfig,
    worker_id: int,
    *,
    stop: Optional[threading.Event] = None,
) -> None:
    """Accept loop shared by forked workers and the threaded fallback."""
    graph = open_query_target(path, mmap=config.mmap)
    governor = Governor(
        max_concurrent=config.max_concurrent,
        tenant_rate=config.tenant_rate,
        tenant_burst=config.tenant_burst,
    )
    while stop is None or not stop.is_set():
        try:
            conn, _addr = listener.accept()
        except OSError:
            return  # listener closed: shutdown
        thread = threading.Thread(
            target=_serve_connection,
            args=(conn, graph, governor, config, worker_id),
            name=f"repro-service-conn-{worker_id}",
            daemon=True,
        )
        thread.start()


def _worker_main(
    listener: socket.socket, path: str, config: ServiceConfig, worker_id: int
) -> None:
    """Entry point of a forked worker process."""

    def _shutdown(_signum, _frame):  # pragma: no cover - signal timing
        try:
            listener.close()
        except OSError:
            pass
        sys.exit(0)

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    _worker_loop(listener, path, config, worker_id)
    sys.exit(0)


class GraphService:
    """Supervisor owning the listener and the worker fleet.

    ``start()`` binds and spawns; ``serve_forever()`` supervises
    (respawning workers that die unexpectedly) until ``stop()``.  Usable
    as a context manager in tests.
    """

    def __init__(self, path: str, config: Optional[ServiceConfig] = None) -> None:
        self.path = str(path)
        self.config = config or ServiceConfig()
        self._listener: Optional[socket.socket] = None
        self._workers: List[multiprocessing.Process] = []
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._forked = False

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._listener is None:
            raise DomainError("service not started")
        addr = self._listener.getsockname()
        return addr[0], addr[1]

    def start(self) -> Tuple[str, int]:
        """Bind the listener, validate the target, spawn workers."""
        if self._listener is not None:
            raise DomainError("service already started")
        config = self.config
        if config.workers < 1:
            raise DomainError(f"workers must be >= 1, got {config.workers}")
        # Fail fast in the supervisor on an unreadable target instead of
        # letting every worker crash-loop on it.
        open_query_target(self.path, mmap=config.mmap)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((config.host, config.port))
        listener.listen(128)
        self._listener = listener
        try:
            mp = multiprocessing.get_context("fork")
            self._forked = True
        except ValueError:  # pragma: no cover - non-POSIX fallback
            mp = None
            self._forked = False
        for worker_id in range(config.workers):
            if mp is not None:
                process = mp.Process(
                    target=_worker_main,
                    args=(listener, self.path, config, worker_id),
                    name=f"repro-service-worker-{worker_id}",
                )
                process.start()
                self._workers.append(process)
            else:  # pragma: no cover - non-POSIX fallback
                thread = threading.Thread(
                    target=_worker_loop,
                    args=(listener, self.path, config, worker_id),
                    kwargs={"stop": self._stop},
                    name=f"repro-service-worker-{worker_id}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self.address

    def serve_forever(self, poll_interval: float = 0.2) -> None:
        """Supervise until :meth:`stop`: respawn workers that die."""
        while not self._stop.is_set():
            time.sleep(poll_interval)
            if not self._forked:
                continue
            for index, process in enumerate(self._workers):
                if process.is_alive() or self._stop.is_set():
                    continue
                if process.exitcode == 0:
                    continue  # clean exit (shutdown race); don't respawn
                print(
                    f"worker {index} died (exit {process.exitcode}); "
                    "respawning",
                    file=sys.stderr,
                )
                mp = multiprocessing.get_context("fork")
                replacement = mp.Process(
                    target=_worker_main,
                    args=(self._listener, self.path, self.config, index),
                    name=f"repro-service-worker-{index}",
                )
                replacement.start()
                self._workers[index] = replacement

    def stop(self) -> None:
        """Terminate workers, join them, close the listener."""
        self._stop.set()
        for process in self._workers:
            if process.is_alive():
                process.terminate()
        for process in self._workers:
            process.join(timeout=5.0)
        self._workers = []
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        self._threads = []

    def __enter__(self) -> "GraphService":
        self.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()
