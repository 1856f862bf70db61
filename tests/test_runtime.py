"""Deadline-aware query runtime: contexts, governor, breakers, kernels hook.

Covers the resource-governance layer end to end: the typed interruption
taxonomy, checkpoint semantics (cancel -> budget -> deadline), ambient
activation down to the bulk-decode chunk loops, governor admission and
load shedding, per-part circuit breakers on an injectable clock, and the
decode checkpoint hook in :mod:`repro.bits.kernels`.
"""

import os
import threading

import pytest

from repro.bits import kernels
from repro.core import compress
from repro.errors import (
    DomainError,
    QueryBudgetExceeded,
    QueryCancelled,
    QueryInterrupted,
    QueryTimeout,
    RejectedError,
)
from repro.graph.builders import graph_from_contacts
from repro.graph.model import GraphKind
from repro.runtime import (
    BreakerBoard,
    CircuitBreaker,
    Deadline,
    Governor,
    QueryContext,
    TokenBucket,
    activate,
    current_context,
    default_governor,
    query_scope,
    resolve_context,
    set_default_governor,
)
from repro.storage.atomic import RetryPolicy
from repro.storage.segments import BackpressureError
from repro.testing.faults import StepClock


def _graph(contacts=200, nodes=16):
    rows = [
        (i % nodes, (i + 1) % nodes, (i * 13) % 500, 0)
        for i in range(contacts)
    ]
    return compress(graph_from_contacts(GraphKind.POINT, rows, num_nodes=nodes))


class TestDeadline:
    def test_expiry_on_injected_clock(self):
        clock = StepClock()
        d = Deadline(0.1, clock=clock)
        assert not d.expired()
        assert d.remaining() == pytest.approx(0.1)
        clock.advance(0.09)
        assert not d.expired()
        clock.advance(0.02)
        assert d.expired()
        assert d.remaining() < 0
        assert d.elapsed() == pytest.approx(0.11)

    def test_negative_budget_rejected(self):
        with pytest.raises(DomainError):
            Deadline(-1.0)


class TestQueryContext:
    def test_checkpoint_order_cancel_budget_deadline(self):
        clock = StepClock()
        ctx = QueryContext(timeout=1.0, decode_budget=10, clock=clock)
        ctx.checkpoint(10)  # exactly at budget: fine
        clock.advance(2.0)
        ctx.cancel()
        # Cancel wins even though budget and deadline are also blown.
        with pytest.raises(QueryCancelled):
            ctx.checkpoint(100)

    def test_budget_exceeded_carries_fields(self):
        ctx = QueryContext(decode_budget=5)
        with pytest.raises(QueryBudgetExceeded) as info:
            ctx.checkpoint(6)
        assert info.value.budget == 5
        assert info.value.spent == 6
        assert isinstance(info.value, QueryInterrupted)

    def test_timeout_carries_fields(self):
        clock = StepClock()
        ctx = QueryContext(timeout=0.1, clock=clock)
        clock.advance(0.2)
        with pytest.raises(QueryTimeout) as info:
            ctx.checkpoint()
        assert info.value.budget == pytest.approx(0.1)
        assert info.value.elapsed == pytest.approx(0.2)

    def test_deadline_and_timeout_are_exclusive(self):
        with pytest.raises(DomainError):
            QueryContext(deadline=Deadline(1.0), timeout=1.0)

    def test_skip_annotations(self):
        ctx = QueryContext(allow_partial=True)
        assert ctx.complete
        ctx.note_skip("seg-0", "breaker open", retry_after=0.5)
        assert not ctx.complete
        (skip,) = ctx.skipped
        assert (skip.part, skip.reason, skip.retry_after) == (
            "seg-0", "breaker open", 0.5,
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DomainError):
            QueryContext(decode_budget=-1)
        with pytest.raises(DomainError):
            QueryContext(checkpoint_codes=0)


class TestAmbientActivation:
    def test_activate_nests_and_restores(self):
        a, b = QueryContext(), QueryContext()
        assert current_context() is None
        with activate(a):
            assert current_context() is a
            with activate(b):
                assert current_context() is b
            assert current_context() is a
            with activate(None):  # no-op, not a clear
                assert current_context() is a
        assert current_context() is None

    def test_resolve_prefers_explicit(self):
        a, b = QueryContext(), QueryContext()
        with activate(a):
            assert resolve_context(None) is a
            assert resolve_context(b) is b
        assert resolve_context(None) is None

    def test_query_scope_polls_on_entry(self):
        clock = StepClock()
        ctx = QueryContext(timeout=0.1, clock=clock)
        clock.advance(1.0)
        with pytest.raises(QueryTimeout):
            with query_scope(ctx):
                pytest.fail("expired context must not enter the scope")

    def test_workers_do_not_inherit_ambient_context(self):
        seen = []
        with activate(QueryContext()):
            t = threading.Thread(target=lambda: seen.append(current_context()))
            t.start()
            t.join()
        assert seen == [None]


class TestDecodeInterruption:
    def test_budget_interrupts_bulk_decode(self):
        graph = _graph()
        ctx = QueryContext(decode_budget=1)
        with pytest.raises(QueryBudgetExceeded):
            graph.snapshot(0, 500, ctx=ctx)
        assert ctx.work_done > 1

    def test_interrupted_graph_stays_consistent(self):
        graph = _graph()
        reference = _graph()
        with pytest.raises(QueryBudgetExceeded):
            graph.snapshot(0, 500, ctx=QueryContext(decode_budget=1))
        # Caches never ingest partial decodes: the interrupted graph still
        # answers identically to an untouched twin.
        assert graph.snapshot(0, 500) == reference.snapshot(0, 500)

    def test_cancel_interrupts_iteration(self):
        graph = _graph()
        ctx = QueryContext()
        it = graph.iter_window_neighbors(0, 500, ctx=ctx)
        next(it)
        ctx.cancel()
        with pytest.raises(QueryCancelled):
            list(it)

    def test_ctx_answers_identical(self):
        graph = _graph()
        ctx = QueryContext(timeout=60.0)
        assert graph.snapshot(0, 500, ctx=ctx) == graph.snapshot(0, 500)
        for u in range(4):
            assert graph.neighbors(u, 0, 500, ctx=ctx) == graph.neighbors(
                u, 0, 500
            )

    def test_checkpoint_hook_installed_only_while_active(self):
        # Idle process: no hook, so the bulk readers' fast path is a
        # single attribute load -- un-governed queries pay nothing.
        assert kernels.get_checkpoint_hook() is None
        with activate(QueryContext(checkpoint_codes=7)):
            hook = kernels.get_checkpoint_hook()
            assert hook is not None
            assert hook(0) == 7
            with activate(QueryContext(checkpoint_codes=9)):
                assert hook(0) == 9  # nested: innermost context wins
            assert hook(0) == 7  # still held by the outer activation
        assert kernels.get_checkpoint_hook() is None  # last one out

    def test_activation_leaves_foreign_hook_alone(self):
        sentinel = lambda work: 0  # noqa: E731 - deliberate non-context hook
        kernels.set_checkpoint_hook(sentinel)
        try:
            with activate(QueryContext()):
                assert kernels.get_checkpoint_hook() is sentinel
            assert kernels.get_checkpoint_hook() is sentinel
        finally:
            kernels.set_checkpoint_hook(None)


class TestTokenBucket:
    def test_grant_and_refill_schedule(self):
        clock = StepClock()
        bucket = TokenBucket(2.0, 4.0, clock=clock)
        assert bucket.try_take(4.0) == 0.0
        wait = bucket.try_take(1.0)
        assert wait == pytest.approx(0.5)  # 1 token at 2/s
        clock.advance(0.5)
        assert bucket.try_take(1.0) == 0.0
        assert bucket.available() == pytest.approx(0.0)

    def test_burst_is_a_ceiling(self):
        clock = StepClock()
        bucket = TokenBucket(100.0, 3.0, clock=clock)
        clock.advance(60.0)
        assert bucket.available() == pytest.approx(3.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DomainError):
            TokenBucket(0.0, 1.0)
        with pytest.raises(DomainError):
            TokenBucket(1.0, 0.0)
        with pytest.raises(DomainError):
            TokenBucket(1.0, 1.0).try_take(0.0)


class TestGovernor:
    def test_concurrency_cap_sheds_with_retry_after(self):
        gov = Governor(max_concurrent=2, retry_after=0.25)
        with gov.admit():
            with gov.admit():
                with pytest.raises(RejectedError) as info:
                    with gov.admit():
                        pass
        exc = info.value
        assert exc.reason == "concurrency"
        assert exc.retry_after == 0.25
        assert exc.in_flight == 2 and exc.limit == 2
        stats = gov.stats()
        assert stats["rejected_by_reason"] == {"concurrency": 1}
        assert stats["admitted"] == 2
        assert stats["peak_in_flight"] == 2
        assert stats["in_flight"] == 0

    def test_tenant_tokens_shed_with_exact_refill(self):
        clock = StepClock()
        gov = Governor(tenant_rate=1.0, tenant_burst=2.0, clock=clock)
        with gov.admit(tenant="alice"):
            pass
        with gov.admit(tenant="alice"):
            pass
        with pytest.raises(RejectedError) as info:
            with gov.admit(tenant="alice"):
                pass
        assert info.value.reason == "tenant-tokens"
        assert info.value.retry_after == pytest.approx(1.0)
        with gov.admit(tenant="bob"):  # other tenants unaffected
            pass
        clock.advance(1.0)
        with gov.admit(tenant="alice"):  # refilled
            pass

    def test_tenant_knobs_must_pair(self):
        with pytest.raises(DomainError):
            Governor(tenant_rate=1.0)

    def test_run_parallel_matches_serial(self):
        gov = Governor(max_workers=4)
        try:
            items = list(range(40))
            assert gov.run_parallel(lambda x: x * x, items, workers=4) == [
                x * x for x in items
            ]
            assert gov.stats()["pool_started"]
        finally:
            gov.shutdown()

    def test_run_parallel_propagates_exceptions(self):
        gov = Governor(max_workers=2)
        try:
            with pytest.raises(ZeroDivisionError):
                gov.run_parallel(lambda x: 1 // x, [1, 0, 2], workers=2)
        finally:
            gov.shutdown()

    def test_default_governor_swap(self):
        replacement = Governor(max_concurrent=1)
        previous = set_default_governor(replacement)
        try:
            assert default_governor() is replacement
        finally:
            set_default_governor(previous)

    def test_batch_queries_use_governor_and_admit_once(self):
        graph = _graph()
        gov = Governor(max_concurrent=1, max_workers=2)
        try:
            ctx = QueryContext(governor=gov)
            queries = [(u, 0, 500) for u in range(8)]
            want = graph.neighbors_many(queries)
            assert graph.neighbors_many(queries, workers=2, ctx=ctx) == want
            # One admission for the whole batch, not one per sub-query --
            # with max_concurrent=1 any double-admission would have shed.
            assert gov.stats()["admitted"] == 1
            assert gov.stats()["rejected"] == 0
            par = graph.snapshot_parallel(0, 500, workers=2, ctx=ctx)
            assert par == graph.snapshot(0, 500)
        finally:
            gov.shutdown()


class TestCircuitBreaker:
    def _breaker(self, clock, **kwargs):
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault(
            "retry", RetryPolicy(base_delay=0.25, jitter=0.0)
        )
        return CircuitBreaker(clock=clock, **kwargs)

    def test_trips_after_threshold_consecutive_failures(self):
        clock = StepClock()
        b = self._breaker(clock)
        b.record_failure("crc")
        b.record_success()  # success resets the streak
        for _ in range(2):
            b.record_failure("crc")
            assert b.state == "closed"
        b.record_failure("crc")
        assert b.state == "open"
        assert not b.allow()
        assert b.retry_after() == pytest.approx(0.25)

    def test_half_open_single_probe_then_close(self):
        clock = StepClock()
        b = self._breaker(clock)
        for _ in range(3):
            b.record_failure("crc")
        clock.advance(0.3)
        assert b.allow()  # becomes the probe
        assert b.state == "half_open"
        assert not b.allow()  # second caller must wait for the probe
        b.record_success()
        assert b.state == "closed"
        assert b.allow()

    def test_failed_probe_reopens_with_longer_backoff(self):
        clock = StepClock()
        b = self._breaker(clock)
        for _ in range(3):
            b.record_failure("crc")
        first = b.retry_after()
        clock.advance(first + 0.001)
        assert b.allow()
        b.record_failure("still broken")
        assert b.state == "open"
        assert b.retry_after() == pytest.approx(2 * first)  # doubled
        snap = b.snapshot()
        assert snap["trips"] == 2
        assert snap["last_reason"] == "still broken"

    def test_backoff_is_capped(self):
        clock = StepClock()
        b = self._breaker(clock, max_backoff=1.0)
        for _ in range(3):
            b.record_failure("crc")
        for _ in range(10):  # escalate far past the cap exponent
            clock.advance(b.retry_after() + 0.001)
            assert b.allow()
            b.record_failure("crc")
        assert b.retry_after() <= 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DomainError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(DomainError):
            CircuitBreaker(max_backoff=0.0)

    def test_board_creates_tracks_and_counts(self):
        clock = StepClock()
        board = BreakerBoard(failure_threshold=1, clock=clock)
        assert board.peek("a") is None
        assert len(board) == 0
        a = board.get("a")
        assert board.get("a") is a
        a.record_failure("boom")
        board.get("b")
        assert board.open_count() == 1
        states = board.states()
        assert states["a"]["state"] == "open"
        assert states["b"]["state"] == "closed"
        assert len(board) == 2


class TestStructuredErrors:
    def test_backpressure_fields(self):
        exc = BackpressureError(
            "tail full", tail_size=12, cap=12, retry_after=10.0
        )
        assert exc.tail_size == 12
        assert exc.cap == 12
        assert exc.retry_after == 10.0
        assert isinstance(exc, RuntimeError)
        bare = BackpressureError("legacy call sites still work")
        assert bare.tail_size is None and bare.cap is None

    def test_rejected_error_fields(self):
        exc = RejectedError(
            "shed", retry_after=0.5, reason="concurrency", in_flight=3, limit=3
        )
        assert (exc.retry_after, exc.reason) == (0.5, "concurrency")
        assert (exc.in_flight, exc.limit) == (3, 3)
        assert isinstance(exc, DomainError)

    def test_interruption_taxonomy(self):
        # The interruption branch is DomainError (usage), not FormatError
        # (data): deadlines say nothing about the bytes being decoded.
        from repro.errors import FormatError

        for exc_type in (QueryTimeout, QueryCancelled, QueryBudgetExceeded):
            assert issubclass(exc_type, QueryInterrupted)
            assert issubclass(exc_type, DomainError)
            assert not issubclass(exc_type, FormatError)
