"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench``.  They
need no part of the program under test.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import openloop  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# -- percentile rule -----------------------------------------------------------

def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7], 99) == 7


def test_tail_percentile_needs_ten_samples_beyond():
    # 1000 samples: p99 sits at rank 990 with exactly 10 beyond it;
    # p99.9 would leave only 1.
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(999) == 95.0
    assert stats.tail_percentile(10_000) == 99.9
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(15) is None


@pytest.mark.parametrize("n", [11, 20, 100, 250, 999, 1000, 5000, 10_000, 123_457])
def test_tail_percentile_rule_holds(n):
    p = stats.tail_percentile(n)
    if p is None:
        return
    from fractions import Fraction
    from math import ceil

    def beyond(c):
        return n - ceil(Fraction(str(c)) / 100 * n)

    assert beyond(p) >= stats.MIN_BEYOND
    assert all(beyond(c) < stats.MIN_BEYOND for c in stats.TAIL_CANDIDATES if c > p)


def test_latency_summary_reports_p99_only_when_the_rule_reaches_it():
    s = stats.latency_summary(list(range(1000)))
    assert s["n"] == 1000 and s["tail_p"] == 99.0 and s["p99"] == 989
    small = stats.latency_summary(list(range(100)))
    assert small["tail_p"] == 90.0
    assert small["p99"] == small["tail"] == 89


def test_fast_rate_reads_the_fast_end_of_the_stretches():
    rates = [100.0] * 9 + [10.0] * 11   # a run slowed for over half its stretches
    assert stats.fast_rate(rates) == 100.0
    assert stats.fast_rate(list(range(1, 21))) == 18


def test_fast_median_takes_each_stretch_median():
    samples = [1, 2, 3] + [10, 11, 12] + [100, 101, 102]
    value, n = stats.fast_median(samples, [3, 6, 6])
    assert n == 3
    assert value == 2   # p10 of the stretch medians 2, 11, 101
    assert stats.fast_median([5, 6, 7], []) == (6, 1)


def test_relative_iqr_matches_statistics_quantiles():
    import statistics

    values = [10.0, 11.0, 12.0, 13.0, 20.0, 9.0, 10.5, 11.5, 12.5, 30.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_iqr(values) == pytest.approx((q3 - q1) / q2)


# -- open-loop schedule and lag ------------------------------------------------

def test_schedule_is_fixed_rate():
    due = openloop.schedule(100.0, 0.5, start=2.0)
    assert len(due) == 50
    assert due[0] == 2.0
    assert due[1] - due[0] == pytest.approx(0.01)
    assert due[-1] == pytest.approx(2.49)
    assert openloop.schedule(0.0, 1.0) == []


def test_lag_excludes_waits_the_generator_did_not_cause():
    ready = [0.0, 0.01, 0.05]
    woke = [0.0002, 0.0103, None]
    assert openloop.lags(ready, woke) == pytest.approx([0.0002, 0.0003])


def _echo_server(sock: socket.socket, delay_ids=()):
    """Answer length-prefixed JSON frames with {"id", "ok", "result"}."""
    def read_exact(n):
        buf = b""
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            if not chunk:
                return None
            buf += chunk
        return buf

    while True:
        head = read_exact(4)
        if head is None:
            return
        body = json.loads(read_exact(struct.unpack("!I", head)[0]))
        if body["id"] in delay_ids:
            threading.Event().wait(0.05)
        reply = json.dumps({"id": body["id"], "ok": True, "result": body["id"] * 2}).encode()
        sock.sendall(struct.pack("!I", len(reply)) + reply)


def _send(sock, message):
    body = json.dumps(message).encode()
    sock.sendall(struct.pack("!I", len(body)) + body)


def _recv(sock):
    head = b""
    while len(head) < 4:
        chunk = sock.recv(4 - len(head))
        if not chunk:
            return None
        head += chunk
    n = struct.unpack("!I", head)[0]
    body = b""
    while len(body) < n:
        body += sock.recv(n - len(body))
    return json.loads(body)


def test_drive_answers_every_request_and_times_from_due():
    pairs = [socket.socketpair() for _ in range(2)]
    servers = [threading.Thread(target=_echo_server, args=(b,), kwargs={"delay_ids": {3}}, daemon=True)
               for _a, b in pairs]
    for t in servers:
        t.start()
    msgs = [{"id": i} for i in range(40)]
    res = openloop.drive([a for a, _b in pairs], msgs, 400.0, read_deadline=2.0,
                         send_message=_send, recv_message=_recv)
    for a, b in pairs:
        a.close()
        b.close()
    assert not res.deadline_hit
    assert res.done.count(None) == 0
    assert [r["result"] for r in res.responses] == [2 * i for i in range(40)]
    assert all(d >= due for d, due in zip(res.done, res.due))
    # Request 3 stalls its connection for 50 ms: it is late by at least that.
    assert res.latencies()[3] >= 0.05
    assert len(res.lags()) == 40


def test_drive_gives_up_at_the_read_deadline():
    a, b = socket.socketpair()  # nobody answers on b
    res = openloop.drive([a], [{"id": 1}, {"id": 2}], 100.0, read_deadline=0.2,
                         send_message=_send, recv_message=_recv)
    a.close()
    b.close()
    assert res.deadline_hit
    assert res.done.count(None) == 2


def test_window_rates():
    done = [1.0 + 0.01 * i for i in range(61)] + [None]
    rates = openloop.window_rates(done, 6)
    assert rates == pytest.approx([100.0] * 6)
    assert openloop.window_rates([1.0, 2.0], 6) == []


def test_step_passes_checks_p99_and_backlog():
    flat = [0.001] * 1000
    assert openloop.step_passes(flat, 0.05, 0.01) == (True, 0.001)
    spiky = [0.001] * 980 + [0.2] * 20
    assert openloop.step_passes(spiky, 0.05, 0.01)[0] is False
    growing = [0.001 * i for i in range(1000)]  # a queue that builds all step
    assert openloop.step_passes(growing, 2.0, 0.01)[0] is False
    assert openloop.step_passes([], 0.05, 0.01)[0] is False


def test_interpolate_max_rate():
    limit = 0.05
    steps = [(1000.0, True, 0.005), (2000.0, False, 0.5)]
    # p99 halfway (in log) between 5 ms and 500 ms is 50 ms: halfway in log rate.
    assert openloop.interpolate_max_rate(steps, limit) == pytest.approx(1000 * 2 ** 0.5)
    assert openloop.interpolate_max_rate([(1000.0, True, 0.01)], limit) == 1000.0
    assert openloop.interpolate_max_rate([(1000.0, False, 0.1)], limit) == pytest.approx(500.0)


# -- spans and self time ----------------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert tracing.covered(0, 100, [(10, 20), (15, 30), (90, 120), (-5, 2)]) == 20 + 10 + 2


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        tracing.Span(1, "bench.request", 0, 100, None, 1),
        tracing.Span(2, "runtime.scope", 10, 40, 1, 1),
        tracing.Span(3, "core.decode", 20, 30, 2, 1),
        tracing.Span(4, "core.decode", 35, 60, 1, 1),  # overlaps span 2
    ]
    own = tracing.self_times(spans)
    assert own[1] == 100 - 50  # children cover [10, 60)
    assert own[2] == 30 - 10
    assert own[3] == 10
    assert own[4] == 25


def test_tracer_totals_and_write(tmp_path):
    t = tracing.Tracer()
    root = t.new_id()
    t.add("core.query", 5, 15, root, 7)
    t.add("bench.request", 0, 20, None, 7, span_id=root)
    rows = t.self_time_by_name()
    assert rows["bench.request"] == (1, 20, 10)
    assert rows["core.query"] == (1, 10, 10)
    path = tmp_path / "spans.json"
    t.write(str(path))
    assert len(json.loads(path.read_text())) == 2


# -- BENCHMARK.json agrees with what the runner prints ----------------------------

def test_benchmark_json_matches_the_runner():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    import run

    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.E2E)
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        pytest.skip("program sources not present")
    sys.path.insert(0, src)
    import probes

    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(probes.PER_LAYER)
