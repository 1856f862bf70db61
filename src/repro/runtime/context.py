"""Deadlines, cooperative cancellation and decode-work budgets for queries.

A :class:`QueryContext` is the per-query resource envelope: a wall-clock
:class:`Deadline`, a cooperative cancel flag and an optional decode-work
budget, all checked at cheap *checkpoints* sprinkled through the query
paths.  Every :class:`repro.core.compressed.CompressedChronoGraph` and
:class:`repro.storage.segments.SegmentedChronoGraph` query entry point
accepts ``ctx=``; inside, the context is *activated* (installed in a
thread-local) so that even the innermost bulk-decode loops in
:mod:`repro.bits.codes` -- which cannot take parameters without breaking
their byte-exact signatures -- can poll it through the
:data:`repro.bits.kernels.CheckpointHook` this module registers while any
context is active (and removes when the last one deactivates, so
un-governed queries pay nothing for the machinery).

Checkpoints raise the typed interruption branch of the taxonomy
(:class:`repro.errors.QueryTimeout`, :class:`repro.errors.QueryCancelled`,
:class:`repro.errors.QueryBudgetExceeded`).  Interruption is always safe:
reader cursors are locals that die with the query, and caches only ever
ingest *completed* record decodes, so an interrupted query leaves the
graph exactly as it found it.

The clock is injectable everywhere so tests (and the chaos harness in
:mod:`repro.testing.faults`) can prove deadline behaviour without real
sleeping.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    ContextManager,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.bits import kernels
from repro.errors import (
    DomainError,
    QueryBudgetExceeded,
    QueryCancelled,
    QueryTimeout,
)

__all__ = [
    "DEFAULT_CHECKPOINT_CODES",
    "Deadline",
    "SkippedPart",
    "QueryContext",
    "current_context",
    "activate",
    "resolve_context",
    "query_scope",
    "checkpoint_ambient",
]

#: Default decode chunk stride, in codes, between ambient checkpoints.
#: Bulk readers split runs longer than this so even a single huge node
#: decode polls its context every few thousand codes -- the "checkpoint
#: granularity" term in the latency envelope.
DEFAULT_CHECKPOINT_CODES = 4096


class Deadline:
    """A wall-clock budget measured against an injectable monotonic clock.

    ``Deadline(0.1)`` expires 100 ms after construction.  ``remaining()``
    may go negative; ``expired()`` is the boolean the checkpoints consult.
    """

    __slots__ = ("budget", "_clock", "_started")

    def __init__(
        self, seconds: float, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        """Start a budget of ``seconds`` on ``clock`` (monotonic seconds)."""
        if seconds < 0:
            raise DomainError(f"deadline budget must be >= 0, got {seconds}")
        self.budget = float(seconds)
        self._clock = clock
        self._started = clock()

    def elapsed(self) -> float:
        """Seconds consumed since the deadline started."""
        return self._clock() - self._started

    def remaining(self) -> float:
        """Seconds left in the budget (negative once expired)."""
        return self.budget - self.elapsed()

    def expired(self) -> bool:
        """Whether the budget has been fully consumed."""
        return self.elapsed() >= self.budget

    def __repr__(self) -> str:
        """Budget and remaining time, for logs and test failures."""
        return f"Deadline(budget={self.budget!r}, remaining={self.remaining()!r})"


@dataclass(frozen=True)
class SkippedPart:
    """Annotation for a query part skipped under ``allow_partial``.

    ``part`` is the segment (or part) name, ``reason`` a short
    human-readable explanation (breaker state or the triggering error),
    and ``retry_after`` the breaker's backoff hint in seconds when known.
    A query whose context carries any of these returned a *reported
    subset* -- correct on every part it did cover, never silently wrong.
    """

    part: str
    reason: str
    retry_after: Optional[float] = None


class QueryContext:
    """The per-query resource envelope threaded through the query plane.

    Combines an optional wall-clock :class:`Deadline` (or the ``timeout``
    convenience that builds one), a cooperative cancel flag, an optional
    decode-work budget (in codes decoded), partial-answer consent
    (``allow_partial``) for segmented queries over tripped segments, an
    optional tenant tag plus governor for admission control, and the
    checkpoint stride.  A context is intended for a single logical query
    (or batch); reuse accumulates work against the same budgets.

    Thread-safety: ``cancel()`` may be called from any thread; work
    charging from parallel workers is best-effort under the GIL (a lost
    increment can only *under*-count, never corrupt).
    """

    __slots__ = (
        "deadline",
        "decode_budget",
        "allow_partial",
        "tenant",
        "governor",
        "checkpoint_codes",
        "_cancelled",
        "_work",
        "_skipped",
        "_skip_lock",
        "_admitted",
    )

    def __init__(
        self,
        *,
        deadline: Optional[Deadline] = None,
        timeout: Optional[float] = None,
        decode_budget: Optional[int] = None,
        allow_partial: bool = False,
        tenant: Optional[str] = None,
        governor: Optional[Any] = None,
        clock: Callable[[], float] = time.monotonic,
        checkpoint_codes: int = DEFAULT_CHECKPOINT_CODES,
    ) -> None:
        """Build the envelope; ``timeout`` is sugar for ``Deadline(timeout, clock=clock)``."""
        if timeout is not None:
            if deadline is not None:
                raise DomainError("pass either deadline or timeout, not both")
            deadline = Deadline(timeout, clock=clock)
        if decode_budget is not None and decode_budget < 0:
            raise DomainError(
                f"decode_budget must be >= 0, got {decode_budget}"
            )
        if checkpoint_codes < 1:
            raise DomainError(
                f"checkpoint_codes must be >= 1, got {checkpoint_codes}"
            )
        self.deadline = deadline
        self.decode_budget = decode_budget
        self.allow_partial = allow_partial
        self.tenant = tenant
        self.governor = governor
        self.checkpoint_codes = int(checkpoint_codes)
        self._cancelled = False
        self._work = 0
        self._skipped: List[SkippedPart] = []
        self._skip_lock = threading.Lock()
        self._admitted = False

    # -- cooperative interruption -------------------------------------

    def cancel(self) -> None:
        """Request cooperative cancellation (observed at the next checkpoint)."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    @property
    def work_done(self) -> int:
        """Decode-work units charged so far (roughly, codes decoded)."""
        return self._work

    def checkpoint(self, work: int = 0) -> None:
        """Charge ``work`` decode units and raise if the envelope says stop.

        The poll order is: cancel flag (no syscall), decode budget (int
        compare), deadline (one clock read).  Raises
        :class:`repro.errors.QueryCancelled`,
        :class:`repro.errors.QueryBudgetExceeded` or
        :class:`repro.errors.QueryTimeout` accordingly; returns normally
        when the query may continue.
        """
        if self._cancelled:
            raise QueryCancelled("query cancelled by caller")
        if work:
            self._work += work
            budget = self.decode_budget
            if budget is not None and self._work > budget:
                raise QueryBudgetExceeded(
                    f"decode-work budget exhausted: {self._work} > {budget}",
                    budget=budget,
                    spent=self._work,
                )
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            raise QueryTimeout(
                f"query deadline of {deadline.budget:.6g}s exceeded "
                f"after {deadline.elapsed():.6g}s",
                budget=deadline.budget,
                elapsed=deadline.elapsed(),
            )

    # -- partial-answer annotations -----------------------------------

    def note_skip(
        self, part: str, reason: str, *, retry_after: Optional[float] = None
    ) -> None:
        """Record that ``part`` was skipped (partial answer) and why."""
        with self._skip_lock:
            self._skipped.append(
                SkippedPart(part=part, reason=reason, retry_after=retry_after)
            )

    @property
    def skipped(self) -> Tuple[SkippedPart, ...]:
        """Parts skipped so far; empty means the answer was complete."""
        with self._skip_lock:
            return tuple(self._skipped)

    @property
    def complete(self) -> bool:
        """Whether no part has been skipped (the answer covers everything)."""
        with self._skip_lock:
            return not self._skipped

    def __repr__(self) -> str:
        """Envelope summary, for logs and test failures."""
        return (
            f"QueryContext(deadline={self.deadline!r}, "
            f"decode_budget={self.decode_budget!r}, "
            f"allow_partial={self.allow_partial!r}, tenant={self.tenant!r}, "
            f"work_done={self._work}, cancelled={self._cancelled}, "
            f"skipped={len(self._skipped)})"
        )


# -- ambient activation ------------------------------------------------

_active = threading.local()


def current_context() -> Optional[QueryContext]:
    """The context active on this thread, or ``None``.

    Set by :func:`activate` / :func:`query_scope`; consulted by the bulk
    decode checkpoint hook and by entry points called without an explicit
    ``ctx`` from inside an already-activated query.
    """
    return getattr(_active, "ctx", None)


def resolve_context(ctx: Optional[QueryContext]) -> Optional[QueryContext]:
    """An explicit ``ctx`` if given, else the thread's ambient context."""
    return ctx if ctx is not None else current_context()


class _NullScope:
    """The shared no-op scope behind ``activate(None)``/``query_scope(None)``.

    A plain class, not a ``contextmanager`` generator: the un-governed
    query path enters one of these per call, and a generator frame costs
    ~5x more than this enter/exit pair (measured on the ``has_edge`` /
    ``neighbors`` perf gates).
    """

    __slots__ = ()

    def __enter__(self) -> Optional[QueryContext]:
        """No context: the block runs un-governed."""
        return None

    def __exit__(self, *exc: object) -> bool:
        """Nothing to restore; never swallows exceptions."""
        return False


_NULL_SCOPE = _NullScope()

#: Number of live activations across all threads; while non-zero the
#: decode checkpoint hook is installed in :mod:`repro.bits.kernels`.
_hook_holds = 0
_hook_lock = threading.Lock()


def _retain_hook() -> None:
    global _hook_holds
    with _hook_lock:
        _hook_holds += 1
        if kernels.get_checkpoint_hook() is None:
            kernels.set_checkpoint_hook(_decode_checkpoint)


def _release_hook() -> None:
    global _hook_holds
    with _hook_lock:
        _hook_holds -= 1
        # Leave a foreign (test-installed) hook alone on the way out.
        if _hook_holds == 0 and kernels.get_checkpoint_hook() is _decode_checkpoint:
            kernels.set_checkpoint_hook(None)


class _Activation:
    """One thread's ambient-context installation (see :func:`activate`)."""

    __slots__ = ("_ctx", "_prev")

    def __init__(self, ctx: QueryContext) -> None:
        self._ctx = ctx
        self._prev: Optional[QueryContext] = None

    def __enter__(self) -> QueryContext:
        """Install the context and pin the decode checkpoint hook."""
        self._prev = getattr(_active, "ctx", None)
        _active.ctx = self._ctx
        _retain_hook()
        return self._ctx

    def __exit__(self, *exc: object) -> bool:
        """Restore the previous ambient context; never swallows."""
        _release_hook()
        _active.ctx = self._prev
        return False


def activate(ctx: Optional[QueryContext]) -> ContextManager[Optional[QueryContext]]:
    """Install ``ctx`` as this thread's ambient context for the block.

    ``activate(None)`` is a no-op (the ambient context, if any, stays).
    Nesting restores the previous context on exit.  Worker threads do not
    inherit the parent's ambient context automatically -- parallel query
    paths re-activate the context inside each task.  While at least one
    activation is live (any thread), the decode checkpoint hook is
    installed in :mod:`repro.bits.kernels`; the rest of the time the bulk
    readers see ``None`` and skip the ambient poll entirely.
    """
    if ctx is None:
        return _NULL_SCOPE
    return _Activation(ctx)


@contextmanager
def _admission(ctx: QueryContext) -> Iterator[None]:
    """Hold a governor admission slot for the outermost query scope.

    Re-entrant per context: the first scope to see the context acquires
    the slot, nested scopes (segment parts, parallel partitions) ride
    along without double-counting.
    """
    governor = ctx.governor
    if governor is None or ctx._admitted:
        yield
        return
    with governor.admit(tenant=ctx.tenant):
        ctx._admitted = True
        try:
            yield
        finally:
            ctx._admitted = False


def query_scope(ctx: Optional[QueryContext]) -> ContextManager[Optional[QueryContext]]:
    """Enter a query under ``ctx``: admission, activation, entry poll.

    The single helper every query entry point wraps its body in.  ``None``
    is the near-zero-overhead path (a shared no-op scope: no clock read,
    no thread-local write, no generator frame).  Otherwise: poll once up
    front (an already-expired deadline fails before any decode work),
    acquire the governor slot if the context carries one (outermost scope
    only, so nested part queries never double-admit), and activate the
    context so the decode layer's checkpoint hook sees it.
    """
    if ctx is None:
        return _NULL_SCOPE
    return _active_scope(ctx)


@contextmanager
def _active_scope(ctx: QueryContext) -> Iterator[QueryContext]:
    """The governed arm of :func:`query_scope`: poll, admit, activate."""
    ctx.checkpoint()
    with _admission(ctx):
        with activate(ctx):
            yield ctx


def checkpoint_ambient(work: int = 0) -> None:
    """Poll this thread's ambient context, if any (no-op un-governed).

    The explicit poll for pure-Python query loops that never route
    through a bulk reader (and therefore never hit the decode checkpoint
    hook): walk frontiers, cache scans, segment iteration.  Costs one
    thread-local read when no context is active, so hot loops may call it
    unconditionally.  CG007 (checkpoint coverage) accepts this call as a
    poll.
    """
    ctx = getattr(_active, "ctx", None)
    if ctx is not None:
        ctx.checkpoint(work)


def _decode_checkpoint(work: int) -> int:
    """The :data:`repro.bits.kernels.CheckpointHook` bridging bits to here.

    Charges ``work`` against this thread's ambient context and returns
    the context's chunk stride, or ``0`` when no context is active (the
    bulk readers then take their unchunked fast path).
    """
    ctx = getattr(_active, "ctx", None)
    if ctx is None:
        return 0
    ctx.checkpoint(work)
    return ctx.checkpoint_codes
