#!/usr/bin/env python
"""Hot-path benchmark harness tracking decode/query latency over time.

Times the operations the paper's Table V cares about -- single-node decode,
``neighbors``, ``has_edge`` and full-graph passes -- on the two synthetic
datasets, and writes ``BENCH_hotpath.json`` at the repository root so every
PR has a perf trajectory to defend.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py              # full run
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick      # smoke run
    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        --label before --out /tmp/before.json                      # snapshot
    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        --baseline /tmp/before.json                                # before/after
    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        --baseline /tmp/before.json --embed-quick                  # committed
    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        --quick --check --baseline BENCH_hotpath.json              # CI gate

Per op the harness reports mean / p50 / p95 microseconds and ops/sec.  A
pure-Python calibration loop is timed alongside and stored in the JSON; the
``--check`` gate scales the committed baseline by the calibration ratio so
the 25% regression threshold survives moving between machines of different
speeds.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bits import codes, kernels  # noqa: E402
from repro.bits.bitio import BitReader, BitWriter  # noqa: E402
from repro.core import compress  # noqa: E402
from repro.datasets.synthetic import comm_net, powerlaw_graph  # noqa: E402
from repro.storage.atomic import atomic_write_text  # noqa: E402

SCHEMA = "chronograph-bench-hotpath/v1"
DEFAULT_OUT = REPO_ROOT / "BENCH_hotpath.json"

#: Ops the CI gate enforces; micro-ops with sub-microsecond noise are
#: tracked but not gated.
GATED_OPS_SUFFIXES = (
    "decode_node_cold",
    "decode_node_warm",
    "neighbors",
    "has_edge",
    "snapshot_full",
    "to_static_graph",
    "iter_contacts",
    "bulk_timestamps_table",
    "bulk_residuals_table",
    "bulk_pairs_table",
)


def _datasets(quick: bool):
    if quick:
        return {
            "comm-net": comm_net(
                num_nodes=80, time_steps=80, contacts_per_step=20, seed=0
            ),
            "powerlaw": powerlaw_graph(
                num_nodes=400, edges_per_node=5, time_steps=200, seed=0
            ),
        }
    return {
        "comm-net": comm_net(seed=0),
        "powerlaw": powerlaw_graph(seed=0),
    }


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def _time_op(fn: Callable[[], object], iters: int, unit_ops: int) -> Dict[str, float]:
    """Run ``fn`` ``iters`` times; report per-unit-op latency stats.

    ``unit_ops`` is how many logical operations one call of ``fn`` performs
    (e.g. a batch of 64 queries); latencies are divided down so the stats
    are per logical op regardless of batching.
    """
    fn()  # warm imports / lazily-built tables outside the timed region
    samples: List[float] = []
    for _ in range(iters):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) / unit_ops)
    mean = statistics.fmean(samples)
    return {
        "mean_us": mean * 1e6,
        "min_us": min(samples) * 1e6,
        "p50_us": _percentile(samples, 0.50) * 1e6,
        "p95_us": _percentile(samples, 0.95) * 1e6,
        "ops_per_s": (1.0 / mean) if mean else 0.0,
        "iters": iters,
        "unit_ops": unit_ops,
    }


def _calibrate() -> float:
    """Microseconds for a fixed pure-Python workload (machine speed proxy)."""

    def loop() -> int:
        total = 0
        for i in range(100_000):
            total += i * i
        return total

    stats = _time_op(loop, iters=9, unit_ops=1)
    return stats["p50_us"]


def _clear_caches(cg) -> None:
    if hasattr(cg, "clear_cache"):
        cg.clear_cache()


def _bench_bitwriter_extend(quick: bool) -> Callable[[], object]:
    """Append many small writers into one, mostly at unaligned positions."""
    rng = random.Random(1234)
    pieces = []
    for _ in range(40 if quick else 200):
        piece = BitWriter()
        for _ in range(rng.randrange(20, 60)):
            piece.write_bits(rng.getrandbits(13), 13)
        pieces.append(piece)

    def op() -> int:
        out = BitWriter()
        out.write_bits(1, 3)  # start unaligned, the encoder's common case
        for piece in pieces:
            out.extend(piece)
        return len(out)

    return op


def _bench_bulk_decode(
    results: Dict[str, Dict[str, float]], quick: bool, iters: int
) -> None:
    """Bulk decode of realistic gap streams on the table tier.

    Streams mimic the two dominant whole-record runs: timestamp gaps
    (zeta_2 naturals, power-law-distributed small gaps) and structure
    residual gaps (zeta_3), plus the interval-graph (gap, duration)
    interleaved pair run.  Each scenario is decoded once on the scalar
    reference tier and once on the table tier and the answers asserted
    element-identical, then timed under the forced ``table`` tier.
    """
    rng = random.Random(77)
    n = 2048 if quick else 8192
    ts_gaps = [min(int(rng.paretovariate(1.3)) - 1, 30) for _ in range(n)]
    res_gaps = [min(int(rng.paretovariate(1.15)) - 1, 120) for _ in range(n)]
    durations = [rng.randrange(0, 40) for _ in range(n)]

    def zeta_stream(values, k):
        writer = BitWriter()
        for value in values:
            codes.write_zeta_natural(writer, value, k)
        return writer.to_bytes(), writer.bit_length

    ts_data, ts_bits = zeta_stream(ts_gaps, 2)
    res_data, res_bits = zeta_stream(res_gaps, 3)
    pair_writer = BitWriter()
    for gap, dur in zip(res_gaps, durations):
        codes.write_zeta_natural(pair_writer, gap, 3)
        codes.write_zeta_natural(pair_writer, dur, 2)
    pair_data, pair_bits = pair_writer.to_bytes(), pair_writer.bit_length

    scenarios = {
        "bulk_timestamps": lambda: codes.read_many_zeta_natural(
            BitReader(ts_data, ts_bits), n, 2
        ),
        "bulk_residuals": lambda: codes.read_many_zeta_natural(
            BitReader(res_data, res_bits), n, 3
        ),
        "bulk_pairs": lambda: codes.read_many_zeta_natural_pairs(
            BitReader(pair_data, pair_bits), n, 3, 2
        ),
    }
    previous = kernels.get_kernel()
    try:
        for name, op in scenarios.items():
            kernels.set_kernel(kernels.TIER_SCALAR)
            reference = op()
            kernels.set_kernel(kernels.TIER_TABLE)
            if op() != reference:
                raise AssertionError(
                    f"{name}: table tier answers diverge from scalar"
                )
            results[f"micro/{name}_table"] = _time_op(op, iters, 1)
    finally:
        kernels.set_kernel(previous)


def measure_load_rss(quick: bool) -> Dict[str, object]:
    """Peak-RSS cost of loading the largest bench corpus, heap vs mmap.

    Each mode runs in a fresh subprocess so ``ru_maxrss`` is a clean
    high-water mark: the child imports the library, records its baseline,
    loads the container, and reports the delta.  The heap loader's delta
    is roughly the container size (one materialised copy); the mapped
    loader's is a handful of pages (header + offsets -- stream CRCs are
    deferred, so their pages stay untouched until first query).  Returns
    an empty dict on platforms without ``resource`` (non-POSIX).
    """
    import subprocess
    import tempfile

    if not Path("/proc/self/statm").exists():  # pragma: no cover - non-Linux
        return {}

    from repro.core.serialize import save_compressed

    # The latency corpora compress to a few tens of KiB -- invisible at
    # ru_maxrss granularity.  The RSS corpus is a dedicated, larger
    # power-law graph sized so the heap loader's materialised copy
    # dominates page/allocator noise by two orders of magnitude.
    # Shape matters: decoded offset indexes scale with node count and are
    # built eagerly in BOTH modes, so the corpus keeps nodes low and
    # contacts high to make the stream bytes (the part mmap avoids
    # materialising) dominate the load cost.
    if quick:
        corpus = powerlaw_graph(
            num_nodes=2000, edges_per_node=160, time_steps=4000, seed=0
        )
    else:
        corpus = powerlaw_graph(
            num_nodes=8000, edges_per_node=300, time_steps=8000, seed=0
        )
    cg = compress(corpus)
    # ``ru_maxrss`` is a lifetime high-water mark, and the interpreter's
    # import transient dwarfs the load itself -- so the child samples
    # *current* resident set from /proc/self/statm around the load.  The
    # container was just written, so the child first evicts it from the
    # page cache (a fresh process mapping an existing store is the
    # scenario of interest; a warm write-path cache can hold the file in
    # multi-MiB folios whose whole-folio RSS accounting would swamp the
    # measurement).  The mapped mode additionally advises
    # MADV_RANDOM/MADV_NOHUGEPAGE so page-ins reflect bytes the loader
    # touches, not readahead or huge-page policy.
    child = (
        "import mmap as mmap_module, os, sys\n"
        "sys.path.insert(0, sys.argv[3])\n"
        "from repro.core.serialize import _map_readonly, load_compressed,"
        " load_compressed_bytes\n"
        "page_kib = os.sysconf('SC_PAGESIZE') // 1024\n"
        "def rss_kib():\n"
        "    with open('/proc/self/statm') as handle:\n"
        "        return int(handle.read().split()[1]) * page_kib\n"
        "fd = os.open(sys.argv[1], os.O_RDONLY)\n"
        "os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)\n"
        "os.close(fd)\n"
        "if sys.argv[2] == 'mmap':\n"
        "    buf = _map_readonly(sys.argv[1])\n"
        "    for advice in ('MADV_RANDOM', 'MADV_NOHUGEPAGE'):\n"
        "        if hasattr(buf, 'obj') and hasattr(mmap_module, advice):\n"
        "            buf.obj.madvise(getattr(mmap_module, advice))\n"
        "    before = rss_kib()\n"
        "    graph = load_compressed_bytes(\n"
        "        buf, source=sys.argv[1], lazy_crc=True\n"
        "    )\n"
        "else:\n"
        "    before = rss_kib()\n"
        "    graph = load_compressed(sys.argv[1])\n"
        "after = rss_kib()\n"
        "print(graph.num_contacts, before, after)\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.chrono"
        container_bytes = save_compressed(cg, path)
        deltas = {}
        for mode in ("heap", "mmap"):
            proc = subprocess.run(
                [sys.executable, "-c", child, str(path), mode, str(REPO_ROOT / "src")],
                capture_output=True, text=True, check=True,
            )
            contacts, before_kib, after_kib = (
                int(v) for v in proc.stdout.split()
            )
            assert contacts == cg.num_contacts
            deltas[mode] = {
                "before_kib": before_kib,
                "after_kib": after_kib,
                "load_delta_kib": after_kib - before_kib,
            }
    heap_delta = max(1, deltas["heap"]["load_delta_kib"])
    mmap_delta = max(1, deltas["mmap"]["load_delta_kib"])
    return {
        "corpus": "powerlaw",
        "container_bytes": container_bytes,
        "heap": deltas["heap"],
        "mmap": deltas["mmap"],
        "reduction": round(heap_delta / mmap_delta, 2),
    }


def run_benchmarks(quick: bool) -> Dict[str, object]:
    rng = random.Random(42)
    iters = 5 if quick else 7
    batch = 32 if quick else 64
    results: Dict[str, Dict[str, float]] = {}

    for name, graph in sorted(_datasets(quick).items()):
        cg = compress(graph)
        n = cg.num_nodes
        t_lo, t_hi = cg.t_min, graph.t_max
        span = max(1, t_hi - t_lo)
        nodes = [rng.randrange(n) for _ in range(batch)]
        windows = []
        for _ in range(batch):
            a = t_lo + rng.randrange(span)
            b = min(t_hi, a + max(1, span // 10))
            windows.append((a, b))
        edge_queries = []
        for u in nodes:
            neigh = cg.distinct_neighbors(u)
            v = rng.choice(neigh) if neigh and rng.random() < 0.7 else rng.randrange(n)
            edge_queries.append((u, v))

        def decode_cold() -> int:
            total = 0
            for u in nodes:
                _clear_caches(cg)
                total += len(cg.contacts_of(u))
            return total

        def decode_warm() -> int:
            total = 0
            for u in nodes:
                total += len(cg.contacts_of(u))
            return total

        def neighbors() -> int:
            total = 0
            for u, (a, b) in zip(nodes, windows):
                total += len(cg.neighbors(u, a, b))
            return total

        def has_edge() -> int:
            total = 0
            for (u, v), (a, b) in zip(edge_queries, windows):
                total += cg.has_edge(u, v, a, b)
            return total

        def snapshot_full():
            return cg.snapshot(t_lo, t_hi)

        def to_static():
            return cg.to_static_graph()

        def drain_contacts() -> int:
            count = 0
            for _ in cg.iter_contacts():
                count += 1
            return count

        def compress_op():
            return compress(graph)

        results[f"{name}/decode_node_cold"] = _time_op(decode_cold, iters, batch)
        results[f"{name}/decode_node_warm"] = _time_op(decode_warm, iters, batch)
        results[f"{name}/neighbors"] = _time_op(neighbors, iters, batch)
        results[f"{name}/has_edge"] = _time_op(has_edge, iters, batch)
        results[f"{name}/snapshot_full"] = _time_op(snapshot_full, iters, 1)
        results[f"{name}/to_static_graph"] = _time_op(to_static, iters, 1)
        results[f"{name}/iter_contacts"] = _time_op(drain_contacts, iters, 1)
        results[f"{name}/compress"] = _time_op(
            compress_op, max(2, iters // 2), 1
        )

    results["micro/bitwriter_extend"] = _time_op(
        _bench_bitwriter_extend(quick), iters, 1
    )
    _bench_bulk_decode(results, quick, iters)
    return {
        "schema": SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "calibration_us": _calibrate(),
        "kernel_info": kernels.kernel_info(),
        "load_rss": measure_load_rss(quick),
        "ops": results,
    }


def _fmt_table(ops: Dict[str, Dict[str, float]]) -> str:
    lines = [f"{'op':<36} {'mean_us':>12} {'p50_us':>12} {'p95_us':>12} {'ops/s':>12}"]
    for op, s in sorted(ops.items()):
        lines.append(
            f"{op:<36} {s['mean_us']:>12.2f} {s['p50_us']:>12.2f} "
            f"{s['p95_us']:>12.2f} {s['ops_per_s']:>12.0f}"
        )
    return "\n".join(lines)


def _baseline_ops(
    baseline: Dict[str, object], quick: bool
) -> Dict[str, Dict[str, float]]:
    """The op table of a baseline file comparable to a ``quick`` run.

    Quick and full runs use different dataset sizes, so their numbers are
    not interchangeable; a quick run only compares against the embedded
    ``quick_ops`` table (see ``--embed-quick``) or another quick-mode file.
    Returns an empty table when the baseline has nothing comparable.
    """
    if quick:
        if "quick_ops" in baseline:
            return baseline["quick_ops"]
        if baseline.get("quick"):
            return baseline.get("after") or baseline.get("ops", {})
        return {}
    if baseline.get("quick"):
        return {}
    return baseline.get("after") or baseline.get("ops", {})


def _baseline_calibration(baseline: Dict[str, object], quick: bool) -> float:
    if quick and "quick_ops" in baseline:
        return float(baseline.get("quick_calibration_us") or 0.0)
    return float(baseline.get("calibration_us") or 0.0)


def check_regressions(
    current: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float,
) -> List[str]:
    """Ops slower than baseline by more than ``threshold`` (CPU-normalised)."""
    base_ops = _baseline_ops(baseline, bool(current["quick"]))
    base_cal = _baseline_calibration(baseline, bool(current["quick"]))
    cur_cal = float(current["calibration_us"])
    scale = (cur_cal / base_cal) if base_cal > 0 else 1.0
    failures = []
    for op, stats in sorted(current["ops"].items()):
        if not op.endswith(GATED_OPS_SUFFIXES):
            continue
        ref = base_ops.get(op)
        if ref is None:
            continue
        # Gate on min-of-N: scheduler noise only ever adds time, so the
        # minimum is the stable estimator (see CONTRIBUTING.md ground rules).
        cur_us = stats.get("min_us", stats["mean_us"])
        ref_us = ref.get("min_us", ref["mean_us"])
        allowed = ref_us * scale * (1.0 + threshold)
        if cur_us > allowed:
            failures.append(
                f"{op}: {cur_us:.1f}us > allowed {allowed:.1f}us "
                f"(baseline {ref_us:.1f}us, cpu scale {scale:.2f})"
            )
    return failures


def merge_with_baseline(
    current: Dict[str, object], baseline: Dict[str, object]
) -> Dict[str, object]:
    """Produce the committed before/after document."""
    before = _baseline_ops(baseline, bool(current["quick"]))
    after = current["ops"]
    speedup = {}
    for op, stats in after.items():
        ref = before.get(op)
        if not ref:
            continue
        # Prefer min-of-N on both sides (noise only adds time); fall back
        # to means for baselines recorded before min_us existed.
        if "min_us" in ref and "min_us" in stats and stats["min_us"] > 0:
            speedup[op] = round(ref["min_us"] / stats["min_us"], 2)
        elif stats["mean_us"] > 0:
            speedup[op] = round(ref["mean_us"] / stats["mean_us"], 2)
    return {
        "schema": SCHEMA,
        "quick": current["quick"],
        "python": current["python"],
        "calibration_us": current["calibration_us"],
        "calibration_us_before": _baseline_calibration(
            baseline, bool(current["quick"])
        ),
        "kernel_info": current.get("kernel_info"),
        "load_rss": current.get("load_rss"),
        "before": before,
        "after": after,
        "speedup": speedup,
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small datasets, few iters")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--label", default="after", help="how to tag this run when not merging"
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="prior results to merge (before/after) or to gate against (--check)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against --baseline and exit 1 on >threshold regressions",
    )
    parser.add_argument("--threshold", type=float, default=0.25)
    parser.add_argument(
        "--embed-quick", action="store_true",
        help="also run the quick datasets and embed their table so the CI "
        "quick gate can compare against this (full-mode) artifact",
    )
    args = parser.parse_args(argv)

    current = run_benchmarks(args.quick)
    print(_fmt_table(current["ops"]))
    print(f"calibration: {current['calibration_us']:.1f}us")
    rss = current.get("load_rss")
    if rss:
        print(
            f"load peak RSS ({rss['corpus']}, "
            f"{rss['container_bytes'] / 1024:.0f} KiB container): "
            f"heap +{rss['heap']['load_delta_kib']} KiB, "
            f"mmap +{rss['mmap']['load_delta_kib']} KiB "
            f"({rss['reduction']:.1f}x reduction)"
        )

    if args.check:
        if args.baseline is None or not args.baseline.exists():
            print("--check requires an existing --baseline file", file=sys.stderr)
            return 2
        baseline = json.loads(args.baseline.read_text())
        if not _baseline_ops(baseline, bool(current["quick"])):
            print(
                "baseline has no table comparable to this run mode; "
                "refresh it (see CONTRIBUTING.md)",
                file=sys.stderr,
            )
            return 2
        failures = check_regressions(current, baseline, args.threshold)
        if failures:
            print("\nPERF REGRESSIONS:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"\nno gated op regressed more than {args.threshold:.0%}")
        return 0

    if args.baseline is not None and args.baseline.exists():
        document = merge_with_baseline(current, json.loads(args.baseline.read_text()))
        speedups = document["speedup"]
        if speedups:
            print("\nspeedup vs baseline:")
            for op, ratio in sorted(speedups.items()):
                print(f"  {op:<36} {ratio:.2f}x")
    else:
        document = dict(current)
        document["label"] = args.label

    if args.embed_quick and not args.quick:
        quick_run = run_benchmarks(True)
        document["quick_ops"] = quick_run["ops"]
        document["quick_calibration_us"] = quick_run["calibration_us"]

    atomic_write_text(args.out, json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
