"""Layered end-to-end benchmark of the ChronoGraph stack.

Run from the repository root::

    python3 perfbench/run.py --workload point --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # all four, one command
    python3 perfbench/run.py --workload scan --aa 5 --seed 1  # A/A noise check

One run sets the workload up from its seed, measures it for ``--seconds``,
checks every answer it can against the uncompressed reference, prints
every metric by name with its unit and sample count, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, from spans around the benchmark's own calls into each
layer plus fixed probes (see ``probes.py``), and the spans are written to
``.perfbench_traces/``.  The exit code is 0 only when every check passed.

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The end-to-end metrics, in print order (BENCHMARK.json's end_to_end).
E2E = ("setup_s", "p50_us", "throughput_per_s", "bits_per_contact", "peak_rss_mib")
WORKLOAD_NAMES = ("point", "scan", "served", "ingest")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--aa", type=int, default=0, metavar="PAIRS",
                   help="A/A mode: run PAIRS pairs of identical runs in separate processes")
    return p.parse_args(argv)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def child_command(workload: str, seed: int, seconds: float, trace: int):
    return [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]


def run_child(cmd, echo: bool):
    """Run one benchmark process to completion; return (exit code, last JSON)."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def run_all(args) -> int:
    """Every workload, each in its own process; one summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOAD_NAMES:
        rc, result = run_child(child_command(workload, args.seed, args.seconds, args.trace), True)
        if rc != 0 or result is None:
            code = 1
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return code


def run_aa(args) -> int:
    """Identical runs in alternating separate processes, labelled A and B.

    Pair i uses seed ``--seed + i`` for both sides and swaps which side
    runs first on every other pair.  Prints each metric's median and
    quartiles per side: the noise floor a later A/B comparison must beat.
    """
    from stats import quartiles, relative_iqr

    if args.workload == "all":
        print("--aa needs one workload", file=sys.stderr)
        return 2
    sides = {"A": [], "B": []}
    for i in range(args.aa):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            rc, result = run_child(child_command(args.workload, args.seed + i, args.seconds, args.trace), False)
            if rc != 0 or result is None:
                print(f"pair {i} side {side}: run failed (exit {rc})", file=sys.stderr)
                return 1
            sides[side].append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"pair {i} {side}: " + ", ".join(f"{k}={fmt(v)}" for k, v in sides[side][-1].items()),
                  flush=True)
    print(f"A/A on {args.workload}: {args.aa} pairs, seconds={args.seconds}")
    for name in sides["A"][0]:
        row = [f"{name:>34}"]
        for side in ("A", "B"):
            values = [run[name] for run in sides[side]]
            q1, q2, q3 = quartiles(values)
            row.append(f"{side}: median {fmt(q2)} [Q1 {fmt(q1)}, Q3 {fmt(q3)}] iqr/median {relative_iqr(values):.3f}")
        print("  ".join(row))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.aa:
        return run_aa(args)
    if args.workload == "all":
        return run_all(args)

    import probes
    import workloads as wl

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = wl.RunContext(args.seed, args.seconds, bool(args.trace), workdir)
    try:
        out = wl.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, value, unit, note in out.report:
        print(f"  {name:>28} = {fmt(value)} {unit}" + (f"  ({note})" if note else ""))
    failed_fraction = out.failed / max(1, out.attempted)
    print(f"  {'failed_fraction':>28} = {fmt(failed_fraction)}  (base: {out.attempted} attempted; "
          f"{out.errors} errors, {out.wrong} wrong, {out.timeouts} timeouts, {out.sheds} shed)")
    for what in out.mismatches:
        print(f"  MISMATCH: {what}")

    if args.trace:
        trace_path = ROOT / ".perfbench_traces" / f"{args.workload}-seed{args.seed}.json"
        ctx.tracer.write(str(trace_path))
        print(f"  spans: {len(ctx.tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        rows = ctx.tracer.self_time_by_name()
        for name in sorted(rows):
            n, total, own = rows[name]
            print(f"  {'span ' + name:>34}: n={n} mean {total / n / 1e3:.2f} us, self {own / n / 1e3:.2f} us")
        metrics = {}
        for name, unit in probes.PER_LAYER:
            value, _unit = out.layer[name]
            base = probes.BASES.get(name)
            print(f"  {name:>36} = {fmt(value)} {unit}" + (f"  (base: {base})" if base else ""))
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": out.e2e[name][0], "unit": out.e2e[name][1]} for name in E2E}
        for name in E2E:
            print(f"  e2e {name:>24} = {fmt(out.e2e[name][0])} {out.e2e[name][1]}")
    print(json.dumps({"correct": out.correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
