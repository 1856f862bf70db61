"""Tests for the repro.analysis static-analysis engine.

Each rule gets a good/bad fixture pair written to a tmp tree shaped like
the real package (``<tmp>/repro/bits/...``) so path-scoped rules engage;
the suppression and baseline mechanics are exercised end to end; and the
engine is run over the real ``src``/``benchmarks`` trees, which must be
clean -- the committed baseline is empty by policy.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import baseline as baseline_mod
from repro.analysis.cli import main as cli_main
from repro.analysis.framework import all_rules, get_rule, parse_noqa, run_rules

REPO_ROOT = Path(__file__).resolve().parent.parent


def _write(tmp_path: Path, rel: str, body: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body))
    return path


def _rules_of(findings):
    return sorted({f.rule for f in findings})


# -- rule registry ----------------------------------------------------------


def test_all_nine_rules_registered():
    ids = [rule.id for rule in all_rules()]
    assert ids == [
        "CG001", "CG002", "CG003", "CG004", "CG005", "CG006",
        "CG007", "CG008", "CG009",
    ]
    for rule in all_rules():
        assert rule.name
        assert rule.summary


def test_get_rule():
    assert get_rule("CG003").name == "exception-taxonomy"
    assert get_rule("CG999") is None


# -- CG001 snapshot discipline ----------------------------------------------


CG001_BAD = """
    class Graph:
        def __init__(self):
            self._state = None

        def torn(self):
            return self._state.count + self._state.total

        def looped(self):
            out = []
            while len(out) < 2:
                out.append(self._state.count)
            return out
"""

CG001_GOOD = """
    class Graph:
        def __init__(self):
            self._state = None

        def single(self):
            state = self._state
            return state.count + state.total

        def iterates(self):
            state = self._state
            return [state.count for _ in range(3)]

        def loop_header_is_fine(self):
            # A for-loop iterable evaluates once, before iteration.
            return [u for u in self._iter(self._state)]

        def writer(self):
            with self._mutate_lock:
                a = self._state
                b = self._state  # serialised against other writers
                return a is b
"""


def test_cg001_flags_torn_and_looped_reads(tmp_path):
    _write(tmp_path, "repro/core/bad.py", CG001_BAD)
    findings, errors = run_rules([str(tmp_path)], [get_rule("CG001")])
    assert not errors
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert any("torn" in m and "2 times" in m for m in messages)
    assert any("inside a loop" in m for m in messages)


def test_cg001_accepts_single_capture(tmp_path):
    _write(tmp_path, "repro/core/good.py", CG001_GOOD)
    findings, errors = run_rules([str(tmp_path)], [get_rule("CG001")])
    assert not errors
    assert findings == []


def test_cg001_capturing_property_counts_as_read(tmp_path):
    _write(
        tmp_path,
        "repro/core/prop.py",
        """
        class Graph:
            def __init__(self):
                self._state = None

            @property
            def num_contacts(self):
                return self._state.num_contacts

            def torn_via_property(self):
                if self.num_contacts:
                    return self._state.overlay
                return None
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG001")])
    assert len(findings) == 1
    assert "torn_via_property" in findings[0].message


def test_cg001_ignores_classes_without_snapshot(tmp_path):
    _write(
        tmp_path,
        "repro/core/nostate.py",
        """
        class Plain:
            def reads(self):
                return self._state + self._state  # not published here
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG001")])
    assert findings == []


# -- CG002 lock discipline --------------------------------------------------


def test_cg002_flags_decode_under_lock(tmp_path):
    _write(
        tmp_path,
        "repro/core/locks.py",
        """
        class Cache:
            def bad(self, reader):
                with self._mutate_lock:
                    decode_node_structure(reader)

            def bad_transitive(self, u):
                with self.shard.lock:
                    self.helper(u)

            def helper(self, u):
                return decode_node_structure(u)

            def good(self, reader):
                record = decode_node_structure(reader)
                with self._mutate_lock:
                    self.records = record

            def distinct_ok(self, reader):
                with self._distinct_lock:
                    return decode_node_structure(reader)
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG002")])
    lines = sorted(f.line for f in findings)
    assert len(findings) == 2
    assert all("while holding" in f.message for f in findings)


def test_cg002_flags_lock_order_cycle(tmp_path):
    _write(
        tmp_path,
        "repro/core/order.py",
        """
        class Shards:
            def ab(self):
                with self._a_lock:
                    with self._b_lock:
                        pass

            def ba(self):
                with self._b_lock:
                    with self._a_lock:
                        pass
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG002")])
    assert len(findings) == 1
    assert "lock-order cycle" in findings[0].message


def test_cg002_acquire_release_idiom(tmp_path):
    _write(
        tmp_path,
        "repro/core/manual.py",
        """
        class Shards:
            def bad(self, shard, reader):
                shard.lock.acquire()
                try:
                    decode_node_structure(reader)
                finally:
                    shard.lock.release()

            def good(self, shard, reader):
                record = decode_node_structure(reader)
                shard.lock.acquire()
                try:
                    shard.records = record
                finally:
                    shard.lock.release()
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG002")])
    assert len(findings) == 1
    assert "decode_node_structure" in findings[0].message


# -- CG003 exception taxonomy -----------------------------------------------


def test_cg003_flags_bare_builtins_in_scope(tmp_path):
    _write(
        tmp_path,
        "repro/bits/bad.py",
        """
        import struct

        def decode(x):
            if x < 0:
                raise ValueError("negative")
            if x > 10:
                raise struct.error("overflow")
            if x == 3:
                raise EOFError("short")
            return x
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG003")])
    assert len(findings) == 3


def test_cg003_accepts_taxonomy_and_out_of_scope(tmp_path):
    _write(
        tmp_path,
        "repro/bits/good.py",
        """
        from repro.errors import CodecDomainError

        def decode(x):
            if x < 0:
                raise CodecDomainError("negative")
            assert x < 100
            return x
        """,
    )
    # Same bare raise, but outside repro/bits and repro/core: not in scope.
    _write(
        tmp_path,
        "repro/graph/elsewhere.py",
        """
        def check(x):
            raise ValueError("fine here")
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG003")])
    assert findings == []


# -- CG004 atomic writes ----------------------------------------------------


def test_cg004_flags_raw_writes(tmp_path):
    _write(
        tmp_path,
        "repro/core/writes.py",
        """
        import gzip
        import os

        def bad(path, payload):
            with open(path, "w") as fh:
                fh.write(payload)
            path.write_text(payload)
            path.write_bytes(payload)
            with gzip.open(path, "wb") as fh:
                fh.write(payload)
            os.open(path, os.O_WRONLY | os.O_CREAT)
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG004")])
    assert len(findings) == 5


def test_cg004_accepts_reads_and_storage_layer(tmp_path):
    _write(
        tmp_path,
        "repro/core/reads.py",
        """
        from repro.storage.atomic import atomic_write_text

        def good(path):
            with open(path) as fh:
                data = fh.read()
            with open(path, "rb") as fh:
                raw = fh.read()
            atomic_write_text(path, data)
            return raw
        """,
    )
    # Only atomic.py itself (the sanctioned implementation) is exempt.
    _write(
        tmp_path,
        "repro/storage/atomic.py",
        """
        def raw_write(path, payload):
            with open(path, "w") as fh:
                fh.write(payload)
        """,
    )
    # The testing harness plants corrupt bytes on purpose.
    _write(
        tmp_path,
        "repro/testing/mutators.py",
        """
        def plant(path, payload):
            path.write_bytes(payload)
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG004")])
    assert findings == []


def test_cg004_flags_raw_writes_in_rest_of_storage_layer(tmp_path):
    # The blanket storage exemption is gone: a segment store that wrote
    # its manifest with a bare write would reintroduce torn manifests.
    _write(
        tmp_path,
        "repro/storage/segments.py",
        """
        def publish_manifest(path, payload):
            path.write_bytes(payload)
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG004")])
    assert len(findings) == 1
    assert findings[0].rule == "CG004"


# -- CG005 decode budget ----------------------------------------------------


def test_cg005_flags_uncharged_allocation(tmp_path):
    _write(
        tmp_path,
        "repro/bits/alloc.py",
        """
        from repro.bits import codes

        def unbudgeted(reader):
            count = codes.read_gamma_natural(reader)
            return codes.read_many_gamma_natural(reader, 2 * count)

        def repeated(reader):
            n = codes.read_gamma_natural(reader)
            return [0] * n

        def raw(reader):
            n = codes.read_gamma_natural(reader)
            return bytearray(n)
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG005")])
    assert len(findings) == 3


def test_cg005_accepts_charged_or_bounded_allocation(tmp_path):
    _write(
        tmp_path,
        "repro/bits/charged.py",
        """
        from repro.bits import codes
        from repro.errors import LimitExceededError

        def charged(reader, charge):
            count = codes.read_gamma_natural(reader)
            charge(2 * count)
            return codes.read_many_gamma_natural(reader, 2 * count)

        def bounded(reader, limit):
            count = codes.read_gamma_natural(reader)
            if count > limit:
                raise LimitExceededError("corrupt count")
            return codes.read_many_gamma_natural(reader, count)

        def fixed(reader, count):
            # count is caller-supplied, not decoded: out of scope.
            return codes.read_many_gamma_natural(reader, count)
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG005")])
    assert findings == []


def test_cg005_taint_propagates_through_arithmetic(tmp_path):
    _write(
        tmp_path,
        "repro/bits/derived.py",
        """
        from repro.bits import codes

        def derived(reader):
            count = codes.read_gamma_natural(reader)
            doubled = 2 * count + 1
            return codes.read_many_gamma_natural(reader, doubled)
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG005")])
    assert len(findings) == 1
    assert "doubled" in findings[0].message


# -- suppression and baseline mechanics -------------------------------------


def test_noqa_suppresses_specific_rule(tmp_path):
    _write(
        tmp_path,
        "repro/bits/suppressed.py",
        """
        def check(x):
            raise ValueError("known issue")  # repro: noqa[CG003]
        """,
    )
    findings, _ = run_rules([str(tmp_path)])
    assert findings == []


def test_noqa_bare_suppresses_all_rules(tmp_path):
    _write(
        tmp_path,
        "repro/bits/suppressed.py",
        """
        def check(x):
            raise ValueError("known issue")  # repro: noqa
        """,
    )
    findings, _ = run_rules([str(tmp_path)])
    assert findings == []


def test_noqa_other_rule_does_not_suppress(tmp_path):
    _write(
        tmp_path,
        "repro/bits/suppressed.py",
        """
        def check(x):
            raise ValueError("known issue")  # repro: noqa[CG004]
        """,
    )
    findings, _ = run_rules([str(tmp_path)])
    # The CG003 finding survives, and CG009 reports the mismatched
    # directive as stale (it suppresses nothing on that line).
    assert _rules_of(findings) == ["CG003", "CG009"]


def test_parse_noqa_formats():
    text = "a\nb  # repro: noqa\nc  # repro: noqa[CG001, CG005]\nd\n"
    parsed = parse_noqa(text)
    assert parsed == {2: frozenset(), 3: frozenset({"CG001", "CG005"})}


def test_baseline_roundtrip_accepts_then_detects_edits(tmp_path):
    bad = _write(
        tmp_path,
        "repro/bits/legacy.py",
        """
        def check(x):
            raise ValueError("legacy")
        """,
    )
    baseline_path = tmp_path / "baseline.json"
    findings, _ = run_rules([str(tmp_path)])
    assert len(findings) == 1

    count = baseline_mod.write_baseline(baseline_path, findings)
    assert count == 1
    entries = baseline_mod.load_baseline(baseline_path)
    kept, accepted = baseline_mod.filter_findings(findings, entries)
    assert kept == [] and accepted == 1

    # Adding unrelated lines does not invalidate the entry...
    bad.write_text("x = 1\n" + bad.read_text())
    findings, _ = run_rules([str(tmp_path)])
    kept, accepted = baseline_mod.filter_findings(findings, entries)
    assert kept == [] and accepted == 1

    # ...but editing the offending line does.
    bad.write_text(bad.read_text().replace('"legacy"', '"edited"'))
    findings, _ = run_rules([str(tmp_path)])
    kept, accepted = baseline_mod.filter_findings(findings, entries)
    assert len(kept) == 1 and accepted == 0


def test_baseline_missing_file_is_empty(tmp_path):
    assert baseline_mod.load_baseline(tmp_path / "nope.json") == {}


def test_baseline_rejects_wrong_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "entries": {}}))
    with pytest.raises(ValueError):
        baseline_mod.load_baseline(path)


# -- CLI ---------------------------------------------------------------------


def test_cli_exit_codes_and_json(tmp_path, capsys):
    _write(
        tmp_path,
        "repro/bits/bad.py",
        """
        def check(x):
            raise ValueError("bad")
        """,
    )
    rc = cli_main([str(tmp_path), "--no-baseline", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert [f["rule"] for f in out["findings"]] == ["CG003"]

    rc = cli_main([str(tmp_path), "--no-baseline", "--select", "CG001"])
    capsys.readouterr()
    assert rc == 0

    rc = cli_main([str(tmp_path), "--no-baseline", "--ignore", "CG003"])
    capsys.readouterr()
    assert rc == 0

    with pytest.raises(SystemExit) as exc:
        cli_main([str(tmp_path), "--select", "NOPE"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    rc = cli_main(["--list-rules"])
    out = capsys.readouterr().out
    assert rc == 0
    for rule_id in ("CG001", "CG002", "CG003", "CG004", "CG005"):
        assert rule_id in out


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    _write(
        tmp_path,
        "repro/bits/bad.py",
        """
        def check(x):
            raise ValueError("bad")
        """,
    )
    baseline = tmp_path / "baseline.json"
    rc = cli_main([str(tmp_path), "--baseline", str(baseline), "--write-baseline"])
    capsys.readouterr()
    assert rc == 0
    rc = cli_main([str(tmp_path), "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 baselined" in out


def test_cli_syntax_error_reported(tmp_path, capsys):
    _write(tmp_path, "repro/bits/broken.py", "def broken(:\n")
    rc = cli_main([str(tmp_path), "--no-baseline"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "syntax error" in out


# -- CG006 buffer copies ----------------------------------------------------


def test_cg006_flags_buffer_copies_and_file_slurps(tmp_path):
    _write(
        tmp_path,
        "repro/core/copies.py",
        """
        import pathlib

        def copies(payload):
            body = bytes(payload)
            scratch = bytearray(payload[8:])
            return body, scratch

        def slurps(path):
            return pathlib.Path(path).read_bytes()
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG006")])
    assert len(findings) == 3
    messages = " ".join(f.message for f in findings)
    assert "duplicates an existing buffer" in messages
    assert "slurps the whole file" in messages


def test_cg006_accepts_views_sizes_and_fresh_content(tmp_path):
    _write(
        tmp_path,
        "repro/core/views.py",
        """
        def sliced(payload):
            view = memoryview(payload)
            return view[8:]

        def sized(length, n):
            return bytearray(length), bytes(n)

        def fresh(values):
            return bytes(v & 0xFF for v in values)

        def literal():
            return bytes(b"abc"), bytearray(16)
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG006")])
    assert findings == []


def test_cg006_scope_is_bits_and_core_only(tmp_path):
    body = """
        def materialise(payload, path):
            import pathlib
            return bytes(payload) + pathlib.Path(path).read_bytes()
    """
    _write(tmp_path, "repro/storage/blobs.py", body)
    _write(tmp_path, "repro/testing/planted.py", body)
    _write(tmp_path, "repro/service/frames.py", body)
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG006")])
    assert findings == []


def test_cg006_noqa_sanctions_a_copy(tmp_path):
    _write(
        tmp_path,
        "repro/bits/sanctioned.py",
        """
        def name_of(view):
            return bytes(view).decode("utf-8")  # repro: noqa[CG006]
        """,
    )
    findings, _ = run_rules([str(tmp_path)], [get_rule("CG006")])
    assert findings == []


# -- the codebase itself is clean -------------------------------------------


def test_src_and_benchmarks_are_clean():
    """The committed tree passes its own analyzer with an empty baseline."""
    findings, errors = run_rules(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks")]
    )
    assert errors == []
    assert findings == [], "\n".join(f.render() for f in findings)


def test_tests_tree_is_clean():
    """tests/ is analysed too; fixture violations carry targeted noqa."""
    findings, errors = run_rules([str(REPO_ROOT / "tests")])
    assert errors == []
    assert findings == [], "\n".join(f.render() for f in findings)


def test_findings_are_deterministically_sorted(tmp_path):
    """Same tree, two runs: identical order, sorted by (path, line, rule)."""
    for name in ("zulu", "alpha"):
        _write(
            tmp_path,
            f"repro/bits/{name}.py",
            """
            def decode(x):
                if x < 0:
                    raise ValueError("negative")
                if x > 9:
                    raise EOFError("short")
                return x
            """,
        )
    first, _ = run_rules([str(tmp_path)])
    second, _ = run_rules([str(tmp_path)])
    assert first, "fixture produced no findings"
    assert [(f.path, f.line, f.rule, f.col) for f in first] == [
        (f.path, f.line, f.rule, f.col) for f in second
    ]
    keys = [(f.path, f.line, f.rule, f.col) for f in first]
    assert keys == sorted(keys)


def test_committed_baseline_is_empty():
    baseline = baseline_mod.load_baseline(REPO_ROOT / "analysis-baseline.json")
    assert baseline == {}


def test_module_invocation_exit_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src", "benchmarks"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
