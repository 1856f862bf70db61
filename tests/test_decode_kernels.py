"""Tests for the table-driven decode kernels and the cached-word reader.

The bulk ``read_many_*`` readers and the 16-bit lookup tables must be
bit-for-bit equivalent to the scalar decoders on every input, including
codes longer than one table window and streams that end mid-code.  The
two decode tiers of :mod:`repro.bits.kernels` (``table`` in production,
``scalar`` as the reference) are compared element by element, including
the exception raised and the cursor position reached on truncated streams.
"""

import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bits import codes, kernels
from repro.bits.bitio import BitReader, BitWriter
from repro.core.timestamps import decode_node_timestamps, encode_node_timestamps
from repro.errors import CodecDomainError, EndOfStreamError

# The decode_kernel fixture is idempotent across hypothesis examples (it
# only restores the process-wide tier after the test), so the
# function-scoped-fixture health check is a false positive here.
_PROPERTY_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture
def decode_kernel():
    """Force a tier for one test; always restores the prior tier."""
    previous = kernels.get_kernel()
    yield kernels.set_kernel
    kernels.set_kernel(previous)


def _stream(write, values):
    w = BitWriter()
    for v in values:
        write(w, v)
    return BitReader(w.to_bytes(), len(w))


class TestPeekSkip:
    def test_peek_does_not_advance(self):
        r = BitReader(b"\xab\xcd")
        assert r.peek_bits(8) == 0xAB
        assert r.position == 0
        assert r.read_bits(16) == 0xABCD

    def test_peek_zero_pads_past_end(self):
        # Stream is 1 (one bit); a 4-bit peek must see 1000.
        r = BitReader(b"\x80", 1)
        assert r.peek_bits(4) == 0b1000

    def test_peek_after_seek(self):
        r = BitReader(b"\x0f\xf0")
        r.seek(4)
        assert r.peek_bits(8) == 0xFF

    def test_skip_advances_and_bounds_checks(self):
        r = BitReader(b"\xff", 8)
        r.peek_bits(3)
        r.skip(3)
        assert r.position == 3
        with pytest.raises(EndOfStreamError):
            r.skip(6)

    def test_skip_interleaves_with_reads(self):
        r = BitReader(b"\xab\xcd")
        r.skip(4)
        assert r.read_bits(4) == 0xB
        r.skip(4)
        assert r.read_bits(4) == 0xD

    @given(st.integers(1, 57), st.binary(min_size=8, max_size=8))
    def test_property_peek_matches_read(self, width, data):
        peeked = BitReader(data).peek_bits(width)
        assert peeked == BitReader(data).read_bits(width)


class TestTables:
    """The lazily built 16-bit tables agree with the code definitions."""

    def test_gamma_table_entries(self):
        vals, lens = codes._gamma_table()
        # gamma(1) = "1": every window starting with a 1 decodes to 1 in 1 bit.
        assert vals[0x8000] == 1 and lens[0x8000] == 1
        # gamma(5) = 00101: window 0010 1xxx ...
        assert vals[0b0010_1000_0000_0000] == 5
        assert lens[0b0010_1000_0000_0000] == 5
        # 8 leading zeros -> 17-bit code: longer than the window, no entry.
        assert lens[0x00FF] == 0

    def test_unary_table_entries(self):
        vals, lens = codes._unary_table()
        assert vals[0x8000] == 1 and lens[0x8000] == 1
        assert vals[0b0000_0001_0000_0000] == 8
        assert lens[0b0000_0001_0000_0000] == 8
        assert lens[0x0000] == 0  # all zeros: code exceeds the window

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_zeta_table_matches_scalar(self, k):
        vals, lens = codes._zeta_table(k)
        for x in range(1, 2000):
            w = BitWriter()
            codes.write_zeta(w, x, k)
            nbits = len(w)
            if nbits > 16:
                continue
            window = BitReader(w.to_bytes() + b"\x00\x00").peek_bits(16)
            assert vals[window] == x, (k, x)
            assert lens[window] == nbits, (k, x)


class TestBulkReaders:
    """read_many_* must equal a loop of scalar reads on the same stream."""

    @given(st.lists(st.integers(1, 100_000), max_size=60))
    def test_property_many_unary(self, values):
        r = _stream(codes.write_unary, values)
        assert codes.read_many_unary(r, len(values)) == values
        assert r.remaining == 0

    @given(st.lists(st.integers(1, 1 << 40), max_size=60))
    def test_property_many_gamma(self, values):
        r = _stream(codes.write_gamma, values)
        assert codes.read_many_gamma(r, len(values)) == values
        assert r.remaining == 0

    @given(st.lists(st.integers(0, 1 << 40), max_size=60))
    def test_property_many_gamma_natural(self, values):
        r = _stream(codes.write_gamma_natural, values)
        assert codes.read_many_gamma_natural(r, len(values)) == values
        assert r.remaining == 0

    @given(
        st.lists(st.integers(1, 1 << 40), max_size=60),
        st.integers(1, 8),
    )
    def test_property_many_zeta(self, values, k):
        r = _stream(lambda w, v: codes.write_zeta(w, v, k), values)
        assert codes.read_many_zeta(r, len(values), k) == values
        assert r.remaining == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 1 << 30), st.integers(0, 1 << 30)),
            max_size=40,
        ),
        st.integers(1, 6),
        st.integers(1, 6),
    )
    def test_property_many_zeta_pairs(self, pairs, ka, kb):
        w = BitWriter()
        for a, b in pairs:
            codes.write_zeta_natural(w, a, ka)
            codes.write_zeta_natural(w, b, kb)
        r = BitReader(w.to_bytes(), len(w))
        got_a, got_b = codes.read_many_zeta_natural_pairs(r, len(pairs), ka, kb)
        assert got_a == [a for a, _ in pairs]
        assert got_b == [b for _, b in pairs]
        assert r.remaining == 0

    def test_bulk_reads_resume_scalar_reads(self):
        # The bulk reader must leave the cursor exactly after its last code.
        w = BitWriter()
        for v in (3, 9, 1):
            codes.write_gamma(w, v)
        codes.write_zeta(w, 77, 3)
        r = BitReader(w.to_bytes(), len(w))
        assert codes.read_many_gamma(r, 3) == [3, 9, 1]
        assert codes.read_zeta(r, 3) == 77

    def test_long_codes_fall_back_to_scalar(self):
        # Values whose codes exceed 16 bits exercise the slow path per item.
        values = [1, 1 << 20, 2, 1 << 33, 3]
        r = _stream(codes.write_gamma, values)
        assert codes.read_many_gamma(r, len(values)) == values

    def test_zero_count_reads_nothing(self):
        r = BitReader(b"\xff")
        assert codes.read_many_gamma(r, 0) == []
        assert r.position == 0

    def test_truncated_stream_raises_eos(self):
        w = BitWriter()
        codes.write_gamma(w, 2)  # 010: 3 bits
        r = BitReader(w.to_bytes(), 2)  # cut mid-code
        with pytest.raises(EndOfStreamError):
            codes.read_many_gamma(r, 1)

    def test_truncated_zeta_run_raises_eos(self):
        w = BitWriter()
        codes.write_zeta(w, 5, 2)
        codes.write_zeta(w, 6, 2)
        r = BitReader(w.to_bytes(), len(w) - 1)
        with pytest.raises(EndOfStreamError):
            codes.read_many_zeta(r, 2, 2)


class TestScalarTableProbe:
    """Scalar read_gamma/read_zeta also consult the tables; same results."""

    @given(st.integers(1, 1 << 50))
    def test_property_gamma_roundtrip(self, x):
        r = _stream(codes.write_gamma, [x])
        assert codes.read_gamma(r) == x

    @given(st.integers(1, 1 << 50), st.integers(1, 8))
    def test_property_zeta_roundtrip(self, x, k):
        r = _stream(lambda w, v: codes.write_zeta(w, v, k), [x])
        assert codes.read_zeta(r, k) == x


def _encode(write, values):
    w = BitWriter()
    for v in values:
        write(w, v)
    return w.to_bytes(), w.bit_length


def _families():
    return {
        "unary": (
            codes.write_unary,
            lambda r, n: codes.read_many_unary(r, n),
            st.integers(1, 70),
        ),
        "gamma": (
            codes.write_gamma,
            lambda r, n: codes.read_many_gamma(r, n),
            st.integers(1, 1 << 20),
        ),
        "gamma_natural": (
            codes.write_gamma_natural,
            lambda r, n: codes.read_many_gamma_natural(r, n),
            st.integers(0, 1 << 20),
        ),
        "zeta2_natural": (
            lambda w, v: codes.write_zeta_natural(w, v, 2),
            lambda r, n: codes.read_many_zeta_natural(r, n, 2),
            st.integers(0, 1 << 18),
        ),
        "zeta4": (
            lambda w, v: codes.write_zeta(w, v, 4),
            lambda r, n: codes.read_many_zeta(r, n, 4),
            st.integers(1, 1 << 22),
        ),
    }


def _decode_per_tier(data, nbits, count, read, decode_kernel):
    """(values, final position) per tier; exceptions surface to the test."""
    out = {}
    for tier in kernels.TIERS:
        decode_kernel(tier)
        reader = BitReader(data, nbits)
        values = read(reader, count)
        out[tier] = (values, reader.position)
    return out


class TestTableVsScalar:
    """The production ``table`` tier against the ``scalar`` reference."""

    @pytest.mark.parametrize("family", sorted(_families()))
    @given(data=st.data())
    @_PROPERTY_SETTINGS
    def test_property_tiers_identical(self, family, data, decode_kernel):
        write, read, element = _families()[family]
        values = data.draw(st.lists(element, min_size=0, max_size=300))
        stream, nbits = _encode(write, values)
        results = _decode_per_tier(stream, nbits, len(values), read, decode_kernel)
        for tier, (decoded, pos) in results.items():
            assert decoded == values, tier
            assert pos == nbits, tier

    @given(data=st.data())
    @_PROPERTY_SETTINGS
    def test_property_pairs_identical(self, data, decode_kernel):
        gaps = data.draw(st.lists(st.integers(0, 1 << 16), max_size=200))
        durs = [data.draw(st.integers(0, 1 << 12)) for _ in gaps]
        w = BitWriter()
        for g, d in zip(gaps, durs):
            codes.write_zeta_natural(w, g, 3)
            codes.write_zeta_natural(w, d, 2)
        stream, nbits = w.to_bytes(), w.bit_length
        for tier in kernels.TIERS:
            decode_kernel(tier)
            reader = BitReader(stream, nbits)
            a, b = codes.read_many_zeta_natural_pairs(reader, len(gaps), 3, 2)
            assert (a, b) == (gaps, durs), tier
            assert reader.position == nbits, tier

    @given(data=st.data())
    @_PROPERTY_SETTINGS
    def test_property_truncated_streams_identical(self, data, decode_kernel):
        values = data.draw(st.lists(st.integers(0, 1 << 14), min_size=1, max_size=80))
        stream, nbits = _encode(
            lambda w, v: codes.write_zeta_natural(w, v, 2), values
        )
        cut = data.draw(st.integers(0, nbits - 1))
        outcomes = {}
        for tier in kernels.TIERS:
            decode_kernel(tier)
            reader = BitReader(stream[: (cut + 7) // 8], cut)
            try:
                got = codes.read_many_zeta_natural(reader, len(values), 2)
                outcomes[tier] = ("ok", got, reader.position)
            except EndOfStreamError:
                outcomes[tier] = ("eos", None, None)
        assert len(set(map(repr, outcomes.values()))) == 1, outcomes

    def test_zeta_zero_and_power_boundaries(self, decode_kernel):
        # zeta_k boundaries: v = 2**(k*h) +/- 1 flips the shard size; zero
        # (as a natural) exercises the minimum-length code.
        values = [0]
        for h in range(1, 8):
            for off in (-1, 0, 1):
                values.append(max(0, (1 << (3 * h)) + off))
        stream, nbits = _encode(
            lambda w, v: codes.write_zeta_natural(w, v, 3), values
        )
        results = _decode_per_tier(
            stream, nbits, len(values),
            lambda r, n: codes.read_many_zeta_natural(r, n, 3), decode_kernel,
        )
        for tier, (decoded, pos) in results.items():
            assert decoded == values, tier
            assert pos == nbits, tier

    def test_max_length_gamma_codes(self, decode_kernel):
        # gamma near the 64-bit decode limit: far past the 16-bit window,
        # so the table tier takes its scalar escape on every one of these.
        values = [(1 << 62) + 12345, 1, (1 << 40) - 1, 2, (1 << 62) + 7]
        stream, nbits = _encode(codes.write_gamma, values)
        results = _decode_per_tier(
            stream, nbits, len(values),
            lambda r, n: codes.read_many_gamma(r, n), decode_kernel,
        )
        for tier, (decoded, pos) in results.items():
            assert decoded == values, tier
            assert pos == nbits, tier

    def test_word_straddling_codes(self, decode_kernel):
        # Misalign the run so codes straddle the reader's 64-bit word at
        # every phase.
        for lead in range(1, 9):
            w = BitWriter()
            w.write_bits((1 << lead) - 1, lead)
            # Mix in-window codes with 27-bit escapes at every alignment.
            values = [3 + i % 5 if i % 2 else (1 << 13) + i for i in range(64)]
            for v in values:
                codes.write_gamma(w, v)
            stream, nbits = w.to_bytes(), w.bit_length
            for tier in kernels.TIERS:
                decode_kernel(tier)
                reader = BitReader(stream, nbits)
                assert reader.read_bits(lead) == (1 << lead) - 1
                assert codes.read_many_gamma(reader, len(values)) == values
                assert reader.position == nbits

    def test_escape_heavy_stream(self, decode_kernel):
        # 40% of these values exceed the 16-bit window (zeta3 of >= 4096 is
        # 19+ bits), so the table tier alternates lookups and escapes.
        rng = random.Random(3)
        values = [
            rng.randrange(4096, 1 << 20) if rng.random() < 0.4 else rng.randrange(64)
            for _ in range(2000)
        ]
        stream, nbits = _encode(lambda w, v: codes.write_zeta(w, v + 1, 3), values)
        results = _decode_per_tier(
            stream, nbits, len(values),
            lambda r, n: codes.read_many_zeta_natural(r, n, 3), decode_kernel,
        )
        for tier, (decoded, pos) in results.items():
            assert decoded == values, tier
            assert pos == nbits, tier

    def test_long_timestamp_record(self, decode_kernel):
        # A 500-contact record: one long zeta run plus the zigzag unfold.
        rng = random.Random(11)
        timestamps = sorted(rng.randrange(0, 1 << 30) for _ in range(500))
        w = BitWriter()
        encode_node_timestamps(w, timestamps, None, timestamps[0], 2)
        for tier in kernels.TIERS:
            decode_kernel(tier)
            reader = BitReader(w.to_bytes(), w.bit_length)
            decoded, durs = decode_node_timestamps(
                reader, len(timestamps), False, timestamps[0], 2
            )
            assert decoded == timestamps, tier
            assert durs is None

    def test_counts_zero_and_one(self, decode_kernel):
        stream, nbits = _encode(codes.write_gamma, [5])
        for tier in kernels.TIERS:
            decode_kernel(tier)
            reader = BitReader(stream, nbits)
            assert codes.read_many_gamma(reader, 0) == []
            assert reader.position == 0
            assert codes.read_many_gamma(reader, 1) == [5]
            assert reader.position == nbits
            reader = BitReader(stream, nbits)
            assert codes.read_many_zeta_natural_pairs(reader, 0, 3, 2) == ([], [])
            assert reader.position == 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda r: codes.read_many_unary(r, -1),
            lambda r: codes.read_many_gamma(r, -1),
            lambda r: codes.read_many_gamma_natural(r, -2),
            lambda r: codes.read_many_zeta(r, -1, 3),
            lambda r: codes.read_many_zeta_natural(r, -5, 2),
            lambda r: codes.read_many_zeta_natural_pairs(r, -1, 3, 2),
        ],
    )
    def test_negative_count_raises(self, call, decode_kernel):
        for tier in kernels.TIERS:
            decode_kernel(tier)
            with pytest.raises(CodecDomainError):
                call(BitReader(b"\xff\xff", 16))


class TestTierSelection:
    def test_default_is_table(self):
        assert kernels.get_kernel() == kernels.TIER_TABLE

    def test_override_wins(self, decode_kernel):
        decode_kernel(kernels.TIER_SCALAR)
        assert kernels.get_kernel() == kernels.TIER_SCALAR
        assert kernels.kernel_info()["override"] == kernels.TIER_SCALAR

    def test_invalid_name_rejected(self):
        # The numpy tier and the auto planner are gone: only the two
        # remaining tiers are accepted, spelled exactly.
        for name in ("simd", "numpy", "auto", "TABLE", "", None):
            with pytest.raises(CodecDomainError):
                kernels.set_kernel(name)
        assert kernels.get_kernel() == kernels.TIER_TABLE

    def test_kernel_info_shape(self):
        info = kernels.kernel_info()
        assert set(info) == {"override", "tiers", "numpy_min_run"}
        assert info["tiers"] == kernels.TIERS == ("table", "scalar")
        assert info["numpy_min_run"] == 256


class TestKernelInfoSurfaces:
    def test_compressed_graph_surface(self):
        from repro.core import compress
        from repro.graph.builders import graph_from_contacts
        from repro.graph.model import GraphKind

        g = graph_from_contacts(
            GraphKind.POINT, [(0, 1, 3), (1, 2, 5)], num_nodes=3
        )
        info = compress(g).decode_kernel_info()
        assert info == kernels.kernel_info()

    def test_segmented_store_surface_exists(self):
        from repro.storage.segments import SegmentedChronoGraph

        assert callable(getattr(SegmentedChronoGraph, "decode_kernel_info"))


_NO_NUMPY_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.core import compress
    from repro.core.serialize import load_compressed, save_compressed
    from repro.graph.builders import graph_from_contacts
    from repro.graph.model import GraphKind

    # Node 0 is a hub with 400 contacts: its structure and timestamp
    # records decode as runs longer than kernels.NUMPY_MIN_RUN codes.
    contacts = [(0, 1 + i % 350, 7 * i) for i in range(400)]
    contacts += [(1 + i, 2 + i, i) for i in range(50)]
    graph = graph_from_contacts(GraphKind.POINT, contacts, num_nodes=400)
    path = sys.argv[1]
    save_compressed(compress(graph), path)
    cg = load_compressed(path, mmap=True)
    assert sorted(cg.iter_contacts()) == sorted(graph.contacts)
    t_end = 7 * 400
    assert cg.neighbors(0, 0, t_end) == graph.ref_neighbors(0, 0, t_end)
    assert sorted(cg.snapshot(0, t_end)) == sorted(graph.ref_snapshot(0, t_end))
    print("numpy" in sys.modules)
    """
)


def test_decode_path_never_imports_numpy(tmp_path):
    """Compress, save, mmap-load and query a hub graph without numpy."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT, str(tmp_path / "hub.chrono")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
