"""Open-loop request generator for the served workload.

Requests fall due on a fixed schedule whether or not earlier ones were
answered, so a stalled server builds a queue instead of slowing the
schedule down.  Each request is timed from the moment it was *due*, which
charges a stall to every request queued behind it.

The generator behaves like a pool of the repository's own blocking
clients: each connection carries at most one request at a time (the
service protocol has no pipelining), and a request that falls due while
every connection is busy waits in the generator -- that wait is part of
its latency.  The generator also reports its own lag: how late it got to
each request beyond the later of the due time and the moment it finished
the previous one, so a run whose generator could not keep up is visible.

Two threads serve up to two connections: a sender that sleeps until each
due time and writes the frame with the service's own ``send_message``, and
a receiver that waits on every socket and reads frames with
``recv_message``.  Every socket has a read deadline; when no answer arrives
within it while requests are outstanding, the outstanding requests count
as failed and the run ends instead of hanging.
"""

from __future__ import annotations

import math
import selectors
import socket
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from stats import latency_summary
from tracing import Tracer, now_ns


def schedule(rate: float, duration: float, start: float = 0.0) -> List[float]:
    """Due times of a fixed-rate stream: ``start + i / rate`` for the run."""
    if rate <= 0 or duration <= 0:
        return []
    count = int(round(rate * duration))
    return [start + i / rate for i in range(count)]


def lags(ready: Sequence[float], woke: Sequence[Optional[float]]) -> List[float]:
    """The generator's own lateness: when it got to each request minus when
    it could have (the due time, or when it finished the previous one)."""
    return [w - r for r, w in zip(ready, woke) if w is not None]


def step_passes(lat: Sequence[float], p99_limit: float, backlog_limit: float) -> Tuple[bool, float]:
    """(met, p99) for one fixed-rate step, latencies in arrival order.

    A step meets the limit when its p99 is within ``p99_limit`` and the
    median of its last quarter is within ``backlog_limit`` -- a queue that
    grew through the step shows as a late last quarter.
    """
    if not lat:
        return False, math.inf
    p99 = latency_summary(lat)["p99"]
    last_quarter = lat[-max(1, len(lat) // 4):]
    return p99 <= p99_limit and statistics.median(last_quarter) <= backlog_limit, p99


def interpolate_max_rate(steps: Sequence[Tuple[float, bool, float]], p99_limit: float) -> float:
    """Highest rate meeting the limit, from ascending (rate, met, p99) steps.

    Interpolates between the last step that met the limit and the first
    that missed it, geometrically in rate and logarithmically in p99.  With
    no missed step it is the last rate; with no met step, the first rate
    scaled down by how far its p99 overshot.
    """
    met = [s for s in steps if s[1]]
    missed = [s for s in steps if not s[1]]
    if not met:
        rate, _ok, p99 = steps[0]
        return rate * min(1.0, p99_limit / p99)
    r_p, _ok, q_p = met[-1]
    if not missed:
        return r_p
    r_f, _ok, q_f = missed[0]
    q_f = max(q_f, p99_limit * 1.0001)
    q_p = min(q_p, p99_limit)
    x = (math.log(p99_limit) - math.log(q_p)) / (math.log(q_f) - math.log(q_p))
    return r_p * (r_f / r_p) ** min(1.0, max(0.0, x))


def window_rates(done: Sequence[Optional[float]], windows: int) -> List[float]:
    """Answer rates over ``windows`` consecutive equal-count windows of the
    answer times (each window spans from the answer before it)."""
    times = sorted(t for t in done if t is not None)
    per = (len(times) - 1) // windows
    if per < 1:
        return []
    return [per / (times[(w + 1) * per] - times[w * per]) for w in range(windows)]


class OpenLoopResult:
    """What one fixed-rate phase produced, indexed like its messages."""

    def __init__(self, count: int) -> None:
        self.due: List[float] = [0.0] * count
        self.ready: List[float] = [0.0] * count
        self.woke: List[Optional[float]] = [None] * count
        self.sent: List[Optional[float]] = [None] * count
        self.done: List[Optional[float]] = [None] * count
        self.responses: List[Optional[Dict[str, Any]]] = [None] * count
        self.deadline_hit = False

    def latencies(self) -> List[float]:
        """Seconds from due time to answer, for answered requests."""
        return [d - due for due, d in zip(self.due, self.done) if d is not None]

    def lags(self) -> List[float]:
        return lags(self.ready, self.woke)


def drive(
    socks: Sequence[socket.socket],
    messages: Sequence[Dict[str, Any]],
    rate: float,
    *,
    read_deadline: float,
    send_message: Callable[[socket.socket, Dict[str, Any]], None],
    recv_message: Callable[[socket.socket], Optional[Dict[str, Any]]],
    tracer: Optional[Tracer] = None,
) -> OpenLoopResult:
    """Send ``messages`` at ``rate`` per second over the free connections.

    Each message needs a unique integer ``id``; the answer with that id
    completes it.  ``send_message``/``recv_message`` do the framing (the
    service's own functions in the benchmark, fakes in the tests).
    Returns when every message is answered, or when the read deadline
    passes with requests outstanding.
    """
    count = len(messages)
    result = OpenLoopResult(count)
    index_of = {m["id"]: i for i, m in enumerate(messages)}
    start = time.perf_counter() + 0.005
    for i, d in enumerate(schedule(rate, count / rate, start)):
        result.due[i] = d
    stop = threading.Event()
    span_ids: List[int] = [0] * count
    if tracer is not None:
        for i in range(count):
            span_ids[i] = tracer.new_id()
    for s in socks:
        s.settimeout(read_deadline)

    busy = [False] * len(socks)
    conn_of = [0] * count
    free = threading.Condition()

    def sender() -> None:
        finished = start
        for i, message in enumerate(messages):
            ready = max(result.due[i], finished)
            wait = result.due[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            result.ready[i] = ready
            result.woke[i] = time.perf_counter()
            with free:
                while all(busy) and not stop.is_set():
                    free.wait(timeout=0.05)
                if stop.is_set():
                    return
                c = busy.index(False)
                busy[c] = True
            conn_of[i] = c
            result.sent[i] = time.perf_counter()
            try:
                if tracer is None:
                    send_message(socks[c], message)
                else:
                    t0 = now_ns()
                    send_message(socks[c], message)
                    tracer.add("service.send_message", t0, now_ns(), span_ids[i], i)
            except OSError:
                # The connection is gone: this and every later request
                # stays unanswered and counts as failed.
                result.sent[i] = None
                stop.set()
                return
            finished = time.perf_counter()

    def receiver() -> None:
        received = 0
        last_progress = time.perf_counter()
        with selectors.DefaultSelector() as sel:
            for s in socks:
                sel.register(s, selectors.EVENT_READ)
            while received < count and not stop.is_set():
                events = sel.select(timeout=min(0.05, read_deadline))
                now = time.perf_counter()
                if not events:
                    outstanding = sum(1 for x in result.sent if x is not None) - received
                    if outstanding > 0 and now - last_progress > read_deadline:
                        result.deadline_hit = True
                        stop.set()
                        return
                    if outstanding <= 0:
                        last_progress = now
                    continue
                for key, _mask in events:
                    t0 = now_ns()
                    try:
                        response = recv_message(key.fileobj)
                    except (OSError, ValueError):
                        # Timed out mid-frame, reset, or a framing violation:
                        # the run cannot continue on this connection.
                        result.deadline_hit = True
                        stop.set()
                        return
                    t1 = now_ns()
                    done = time.perf_counter()
                    if response is None:
                        result.deadline_hit = True
                        stop.set()
                        return
                    i = index_of.get(response.get("id"))
                    if i is None or result.done[i] is not None:
                        continue
                    result.done[i] = done
                    result.responses[i] = response
                    received += 1
                    with free:
                        busy[conn_of[i]] = False
                        free.notify()
                    last_progress = done
                    if tracer is not None:
                        # perf_counter and perf_counter_ns read one clock.
                        due_ns = int(result.due[i] * 1e9)
                        tracer.add("service.recv_message", t0, t1, span_ids[i], i)
                        tracer.add("bench.request", due_ns, t1, None, i, span_id=span_ids[i])

    threads = [
        threading.Thread(target=sender, name="perfbench-send", daemon=True),
        threading.Thread(target=receiver, name="perfbench-recv", daemon=True),
    ]
    for t in threads:
        t.start()
    budget = count / rate + read_deadline + 10.0
    for t in threads:
        t.join(timeout=budget)
    if any(t.is_alive() for t in threads):
        stop.set()
        for t in threads:
            t.join(timeout=read_deadline + 1.0)
        result.deadline_hit = True
    return result
