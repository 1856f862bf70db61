"""Instantaneous codes used by ChronoGraph and the baselines.

All codes operate on *positive* integers (x >= 1), following Boldi & Vigna,
"Codes for the World Wide Web".  Natural numbers (>= 0) are coded through the
``*_natural`` wrappers which shift by one.  The worked examples from the
paper hold exactly:

* unary(2) = ``01``
* minimal binary of 8 over [0, 55] = ``010000``
* zeta_3(16) = ``01010000``

The module exposes, per code, a writer (``write_*``), a reader (``read_*``)
and a length function (``*_length``) used when sizing candidate encodings
without materialising them (e.g. reference selection and the Figure 7 sweep).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bits import kernels
from repro.bits.bitio import BitReader, BitWriter
from repro.bits.zigzag import to_integer, to_natural
from repro.errors import CodecDomainError

__all__ = [
    "write_unary", "read_unary", "unary_length",
    "write_minimal_binary", "read_minimal_binary", "minimal_binary_length",
    "write_gamma", "read_gamma", "gamma_length",
    "write_gamma_natural", "read_gamma_natural",
    "write_gamma_integer", "read_gamma_integer",
    "write_delta", "read_delta", "delta_length",
    "write_zeta", "read_zeta", "zeta_length",
    "write_zeta_natural", "read_zeta_natural",
    "write_zeta_integer", "read_zeta_integer",
    "write_golomb", "read_golomb", "golomb_length",
    "write_rice", "read_rice", "rice_length",
    "write_vbyte", "read_vbyte", "vbyte_length",
    "encode_simple16", "decode_simple16",
    "read_many_unary", "read_many_gamma", "read_many_gamma_natural",
    "read_many_zeta", "read_many_zeta_natural", "read_many_zeta_natural_pairs",
]


# --------------------------------------------------------------------------
# Table-driven prefix decoding
#
# A 16-bit window peeked at the cursor resolves the vast majority of unary,
# gamma and zeta codes in one lookup (the Zuckerli trick): per window the
# tables hold the decoded value and the bits consumed, with 0 consumed
# meaning "code does not fit in 16 bits, take the scalar path".  Tables are
# built lazily on first use (the zeta family is per-k) and shared by the
# scalar readers and the ``read_many_*`` bulk readers below.
# --------------------------------------------------------------------------

_TABLE_BITS = 16
_TABLE_SIZE = 1 << _TABLE_BITS

_UNARY_TABLE: Optional[Tuple[List[int], List[int]]] = None
_GAMMA_TABLE: Optional[Tuple[List[int], List[int]]] = None
_ZETA_TABLES: Dict[int, Tuple[List[int], List[int]]] = {}


def _fill(vals: List[int], lens: List[int], code: int, n: int, value: int) -> None:
    """Claim every 16-bit window whose top ``n`` bits equal ``code``."""
    span = 1 << (_TABLE_BITS - n)
    start = code << (_TABLE_BITS - n)
    vals[start : start + span] = [value] * span
    lens[start : start + span] = [n] * span


def _unary_table() -> Tuple[List[int], List[int]]:
    global _UNARY_TABLE
    if _UNARY_TABLE is None:
        vals = [0] * _TABLE_SIZE
        lens = [0] * _TABLE_SIZE
        for zeros in range(_TABLE_BITS):
            # `zeros` leading zeros then a 1: the code for value zeros + 1.
            _fill(vals, lens, 1, zeros + 1, zeros + 1)
        _UNARY_TABLE = (vals, lens)
    return _UNARY_TABLE


def _gamma_table() -> Tuple[List[int], List[int]]:
    global _GAMMA_TABLE
    if _GAMMA_TABLE is None:
        vals = [0] * _TABLE_SIZE
        lens = [0] * _TABLE_SIZE
        # Table build is bounded by _TABLE_BITS and memoised per process,
        # so the one cold-path run needs no checkpoint.
        for lead in range((_TABLE_BITS - 1) // 2 + 1):  # repro: noqa[CG007]
            n = 2 * lead + 1
            # The n-bit gamma codeword of x is x itself (unary exponent
            # prefix then the low bits), so the fill is direct.
            for x in range(1 << lead, 1 << (lead + 1)):  # repro: noqa[CG007]
                _fill(vals, lens, x, n, x)
        _GAMMA_TABLE = (vals, lens)
    return _GAMMA_TABLE


def _zeta_table(k: int) -> Tuple[List[int], List[int]]:
    table = _ZETA_TABLES.get(k)
    if table is not None:
        return table
    vals = [0] * _TABLE_SIZE
    lens = [0] * _TABLE_SIZE
    h = 0
    # Exits once the shortest h-level code overflows _TABLE_BITS, so the
    # memoised build is bounded; no checkpoint needed on the cold path.
    while True:  # repro: noqa[CG007]
        un = h + 1  # unary part: h zeros then a 1
        low = 1 << (h * k)
        z = (low << k) - low
        s = (z - 1).bit_length()
        m = (1 << s) - z
        shortest = un if z == 1 else un + (s - 1 if m > 0 else s)
        if shortest > _TABLE_BITS:
            break
        if z == 1:
            _fill(vals, lens, 1, un, low)
        else:
            if m > 0 and un + s - 1 <= _TABLE_BITS:
                # Short codes: s - 1 payload bits (table-bounded fill).
                for d in range(m):  # repro: noqa[CG007]
                    _fill(vals, lens, (1 << (s - 1)) | d, un + s - 1, low + d)
            if un + s <= _TABLE_BITS:
                # Long codes: s payload bits of d + m (table-bounded fill).
                for d in range(m, z):  # repro: noqa[CG007]
                    _fill(vals, lens, (1 << s) | (d + m), un + s, low + d)
        h += 1
    _ZETA_TABLES[k] = (vals, lens)
    return _ZETA_TABLES[k]


def _read_many_table(
    reader: BitReader,
    count: int,
    vals: Sequence[int],
    lens: Sequence[int],
    slow: Callable[[BitReader], int],
) -> List[int]:
    """Decode ``count`` codes through a 16-bit table, ``slow`` as fallback.

    Operates on the reader's cached-word internals directly (same-package
    contract with :class:`repro.bits.bitio.BitReader`): the refill is inlined
    so the per-code cost is a shift, two list lookups and a mask.
    """
    out: List[int] = []
    if count <= 0:
        return out
    append = out.append
    data = reader._data
    nbits = reader._nbits
    pos = reader._pos
    word = reader._word
    wbits = reader._wbits
    for _ in range(count):
        if wbits < 16:
            i = pos >> 3
            chunk = data[i : i + 8]
            total = (len(chunk) << 3) - (pos & 7)
            word = int.from_bytes(chunk, "big")
            avail = nbits - pos
            if total > avail:
                word >>= total - avail
                total = avail
            word &= (1 << total) - 1
            wbits = total
        w16 = (word >> (wbits - 16)) if wbits >= 16 else (word << (16 - wbits))
        n = lens[w16]
        if 0 < n <= wbits:
            append(vals[w16])
            wbits -= n
            word &= (1 << wbits) - 1
            pos += n
        else:
            # Long code or end-of-stream: sync, take the scalar path, resync.
            reader._pos = pos
            reader._word = word
            reader._wbits = wbits
            append(slow(reader))
            pos = reader._pos
            word = reader._word
            wbits = reader._wbits
    reader._pos = pos
    reader._word = word
    reader._wbits = wbits
    return out


def _read_many_table_pairs(
    reader: BitReader,
    count: int,
    vals_a: Sequence[int],
    lens_a: Sequence[int],
    slow_a: Callable[[BitReader], int],
    vals_b: Sequence[int],
    lens_b: Sequence[int],
    slow_b: Callable[[BitReader], int],
) -> Tuple[List[int], List[int]]:
    """Decode ``count`` interleaved (a, b) code pairs; two result lists."""
    out_a: List[int] = []
    out_b: List[int] = []
    if count <= 0:
        return out_a, out_b
    append_a = out_a.append
    append_b = out_b.append
    data = reader._data
    nbits = reader._nbits
    pos = reader._pos
    word = reader._word
    wbits = reader._wbits
    for _ in range(count):
        for append, vals, lens, slow in (
            (append_a, vals_a, lens_a, slow_a),
            (append_b, vals_b, lens_b, slow_b),
        ):
            if wbits < 16:
                i = pos >> 3
                chunk = data[i : i + 8]
                total = (len(chunk) << 3) - (pos & 7)
                word = int.from_bytes(chunk, "big")
                avail = nbits - pos
                if total > avail:
                    word >>= total - avail
                    total = avail
                word &= (1 << total) - 1
                wbits = total
            w16 = (word >> (wbits - 16)) if wbits >= 16 else (word << (16 - wbits))
            n = lens[w16]
            if 0 < n <= wbits:
                append(vals[w16])
                wbits -= n
                word &= (1 << wbits) - 1
                pos += n
            else:
                reader._pos = pos
                reader._word = word
                reader._wbits = wbits
                append(slow(reader))
                pos = reader._pos
                word = reader._word
                wbits = reader._wbits
    reader._pos = pos
    reader._word = word
    reader._wbits = wbits
    return out_a, out_b


# --------------------------------------------------------------------------
# Unary
# --------------------------------------------------------------------------

def write_unary(writer: BitWriter, x: int) -> int:
    """Write ``x >= 1`` as ``x - 1`` zeros followed by a one."""
    if x < 1:
        raise CodecDomainError(f"unary undefined for {x}")
    # A single write keeps long runs cheap: the value 1 in `x` bits.
    return writer.write_bits(1, x)


def read_unary(reader: BitReader) -> int:
    """Read a unary code; inverse of :func:`write_unary`."""
    return reader.read_unary_run() + 1


def unary_length(x: int) -> int:
    """Bit length of the unary code of ``x``."""
    if x < 1:
        raise CodecDomainError(f"unary undefined for {x}")
    return x


# --------------------------------------------------------------------------
# Minimal binary over an interval [0, z - 1]
# --------------------------------------------------------------------------

def _ceil_log2(z: int) -> int:
    if z <= 0:
        raise CodecDomainError(f"ceil log2 undefined for {z}")
    return (z - 1).bit_length()


def write_minimal_binary(writer: BitWriter, x: int, z: int) -> int:
    """Write ``x`` minimally over the interval ``[0, z - 1]``.

    With ``s = ceil(log2 z)`` and ``m = 2**s - z``: values below ``m`` take
    ``s - 1`` bits, the rest take ``s`` bits (offset by ``m``).
    """
    if not 0 <= x < z:
        raise CodecDomainError(f"{x} outside [0, {z - 1}]")
    if z == 1:
        return 0  # the singleton interval needs no bits
    s = _ceil_log2(z)
    m = (1 << s) - z
    if x < m:
        return writer.write_bits(x, s - 1)
    return writer.write_bits(x + m, s)


def read_minimal_binary(reader: BitReader, z: int) -> int:
    """Read a minimal binary code over ``[0, z - 1]``."""
    if z <= 0:
        raise CodecDomainError(f"empty interval: z={z}")
    if z == 1:
        return 0
    s = _ceil_log2(z)
    m = (1 << s) - z
    if s == 1:
        # m == 0 here (z == 2); one full-width bit.
        return reader.read_bits(1)
    value = reader.read_bits(s - 1)
    if value < m:
        return value
    value = (value << 1) | reader.read_bit()
    return value - m


def minimal_binary_length(x: int, z: int) -> int:
    """Bit length of the minimal binary code of ``x`` over ``[0, z - 1]``."""
    if not 0 <= x < z:
        raise CodecDomainError(f"{x} outside [0, {z - 1}]")
    if z == 1:
        return 0
    s = _ceil_log2(z)
    m = (1 << s) - z
    return s - 1 if x < m else s


# --------------------------------------------------------------------------
# Elias gamma / delta
# --------------------------------------------------------------------------

def write_gamma(writer: BitWriter, x: int) -> int:
    """Write Elias gamma: unary(|x| bits) then the low bits of ``x``."""
    if x < 1:
        raise CodecDomainError(f"gamma undefined for {x}")
    l = x.bit_length() - 1
    n = write_unary(writer, l + 1)
    if l:
        n += writer.write_bits(x - (1 << l), l)
    return n


def read_gamma(reader: BitReader) -> int:
    """Read an Elias gamma code."""
    # Table probe first: gamma decoding is the hottest loop of every
    # structure-record decode, and nearly every code fits 16 bits.
    vals, lens = _gamma_table()
    w16 = reader.peek_bits(16)
    n = lens[w16]
    if n:
        reader.skip(n)
        return vals[w16]
    l = reader.read_unary_run()
    if l == 0:
        return 1
    return (1 << l) | reader.read_bits(l)


def gamma_length(x: int) -> int:
    """Bit length of the Elias gamma code of ``x``."""
    if x < 1:
        raise CodecDomainError(f"gamma undefined for {x}")
    return 2 * (x.bit_length() - 1) + 1


def write_gamma_natural(writer: BitWriter, n: int) -> int:
    """Gamma-code a natural number (``n >= 0``) as ``gamma(n + 1)``."""
    return write_gamma(writer, n + 1)


def read_gamma_natural(reader: BitReader) -> int:
    """Inverse of :func:`write_gamma_natural`."""
    return read_gamma(reader) - 1


def write_gamma_integer(writer: BitWriter, x: int) -> int:
    """Gamma-code a possibly-negative integer via Eq. (1)."""
    return write_gamma_natural(writer, to_natural(x))


def read_gamma_integer(reader: BitReader) -> int:
    """Inverse of :func:`write_gamma_integer`."""
    return to_integer(read_gamma_natural(reader))


def write_delta(writer: BitWriter, x: int) -> int:
    """Write Elias delta: gamma(|x| bits) then the low bits of ``x``."""
    if x < 1:
        raise CodecDomainError(f"delta undefined for {x}")
    l = x.bit_length() - 1
    n = write_gamma(writer, l + 1)
    if l:
        n += writer.write_bits(x - (1 << l), l)
    return n


def read_delta(reader: BitReader) -> int:
    """Read an Elias delta code."""
    l = read_gamma(reader) - 1
    if l == 0:
        return 1
    return (1 << l) | reader.read_bits(l)


def delta_length(x: int) -> int:
    """Bit length of the Elias delta code of ``x``."""
    if x < 1:
        raise CodecDomainError(f"delta undefined for {x}")
    l = x.bit_length() - 1
    return gamma_length(l + 1) + l


# --------------------------------------------------------------------------
# Boldi-Vigna zeta_k
# --------------------------------------------------------------------------

def write_zeta(writer: BitWriter, x: int, k: int) -> int:
    """Write the Boldi-Vigna zeta_k code of ``x >= 1``.

    With ``x`` in ``[2**(h*k), 2**((h+1)*k) - 1]``: unary(h + 1) followed by
    the minimal binary code of ``x - 2**(h*k)`` over an interval of size
    ``2**((h+1)*k) - 2**(h*k)``.  zeta_1 coincides with Elias gamma.
    """
    if x < 1:
        raise CodecDomainError(f"zeta undefined for {x}")
    if k < 1:
        raise CodecDomainError(f"invalid zeta shrinking parameter k={k}")
    h = (x.bit_length() - 1) // k
    n = write_unary(writer, h + 1)
    low = 1 << (h * k)
    n += write_minimal_binary(writer, x - low, (low << k) - low)
    return n


def read_zeta(reader: BitReader, k: int) -> int:
    """Read a zeta_k code."""
    vals, lens = _zeta_table(k)
    w16 = reader.peek_bits(16)
    n = lens[w16]
    if n:
        reader.skip(n)
        return vals[w16]
    h = reader.read_unary_run()
    low = 1 << (h * k)
    return low + read_minimal_binary(reader, (low << k) - low)


def zeta_length(x: int, k: int) -> int:
    """Bit length of the zeta_k code of ``x``."""
    if x < 1:
        raise CodecDomainError(f"zeta undefined for {x}")
    h = (x.bit_length() - 1) // k
    low = 1 << (h * k)
    return (h + 1) + minimal_binary_length(x - low, (low << k) - low)


def write_zeta_natural(writer: BitWriter, n: int, k: int) -> int:
    """zeta_k-code a natural number as ``zeta_k(n + 1)``."""
    return write_zeta(writer, n + 1, k)


def read_zeta_natural(reader: BitReader, k: int) -> int:
    """Inverse of :func:`write_zeta_natural`."""
    return read_zeta(reader, k) - 1


def write_zeta_integer(writer: BitWriter, x: int, k: int) -> int:
    """zeta_k-code a possibly-negative integer via Eq. (1)."""
    return write_zeta_natural(writer, to_natural(x), k)


def read_zeta_integer(reader: BitReader, k: int) -> int:
    """Inverse of :func:`write_zeta_integer`."""
    return to_integer(read_zeta_natural(reader, k))


# --------------------------------------------------------------------------
# Golomb / Rice
# --------------------------------------------------------------------------

def write_golomb(writer: BitWriter, x: int, m: int) -> int:
    """Write the Golomb code of ``x >= 0`` with modulus ``m >= 1``."""
    if x < 0:
        raise CodecDomainError(f"golomb undefined for {x}")
    if m < 1:
        raise CodecDomainError(f"invalid golomb modulus m={m}")
    q, r = divmod(x, m)
    n = write_unary(writer, q + 1)
    n += write_minimal_binary(writer, r, m)
    return n


def read_golomb(reader: BitReader, m: int) -> int:
    """Read a Golomb code with modulus ``m``."""
    q = read_unary(reader) - 1
    return q * m + read_minimal_binary(reader, m)


def golomb_length(x: int, m: int) -> int:
    """Bit length of the Golomb code of ``x`` with modulus ``m``."""
    q, r = divmod(x, m)
    return (q + 1) + minimal_binary_length(r, m)


def write_rice(writer: BitWriter, x: int, b: int) -> int:
    """Write the Rice code of ``x >= 0``: Golomb with ``m = 2**b``."""
    return write_golomb(writer, x, 1 << b)


def read_rice(reader: BitReader, b: int) -> int:
    """Read a Rice code with parameter ``b``."""
    return read_golomb(reader, 1 << b)


def rice_length(x: int, b: int) -> int:
    """Bit length of the Rice code of ``x`` with parameter ``b``."""
    return golomb_length(x, 1 << b)


# --------------------------------------------------------------------------
# Variable byte
# --------------------------------------------------------------------------

def write_vbyte(writer: BitWriter, x: int) -> int:
    """Write ``x >= 0`` in 7-bit groups, high continuation bit per byte."""
    if x < 0:
        raise CodecDomainError(f"vbyte undefined for {x}")
    groups = []
    while True:
        groups.append(x & 0x7F)
        x >>= 7
        if not x:
            break
    n = 0
    for i in range(len(groups) - 1, 0, -1):
        n += writer.write_bits(0x80 | groups[i], 8)
    n += writer.write_bits(groups[0], 8)
    return n


def read_vbyte(reader: BitReader) -> int:
    """Read a variable-byte code."""
    value = 0
    while True:
        byte = reader.read_bits(8)
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value


def vbyte_length(x: int) -> int:
    """Bit length of the variable-byte code of ``x``."""
    if x < 0:
        raise CodecDomainError(f"vbyte undefined for {x}")
    return 8 * max(1, (x.bit_length() + 6) // 7)


# --------------------------------------------------------------------------
# Simple16
# --------------------------------------------------------------------------

# Each selector lists the bit widths of the slots packed into one 28-bit
# payload (the 4 selector bits make a 32-bit word).  This is the canonical
# Simple16 table used by inverted-index codecs such as the one EdgeLog cites.
_SIMPLE16_MODES: List[List[int]] = [
    [1] * 28,
    [2] * 7 + [1] * 14,
    [1] * 7 + [2] * 7 + [1] * 7,
    [1] * 14 + [2] * 7,
    [2] * 14,
    [4] * 1 + [3] * 8,
    [3] * 1 + [4] * 4 + [3] * 3,
    [4] * 7,
    [5] * 4 + [4] * 2,
    [4] * 2 + [5] * 4,
    [6] * 3 + [5] * 2,
    [5] * 2 + [6] * 3,
    [7] * 4,
    [10] * 1 + [9] * 2,
    [14] * 2,
    [28] * 1,
]


def encode_simple16(writer: BitWriter, values: Sequence[int]) -> int:
    """Pack naturals ``< 2**28`` into 32-bit Simple16 words.

    The count is *not* stored; callers record it separately.  Returns the
    number of bits written.
    """
    for v in values:
        if v < 0 or v >= (1 << 28):
            raise CodecDomainError(f"simple16 requires 0 <= value < 2**28, got {v}")
    n = 0
    i = 0
    total = len(values)
    while i < total:
        for selector, widths in enumerate(_SIMPLE16_MODES):
            # Trailing slots of a partial final block are zero-filled, so a
            # selector fits as soon as every value present fits its slot.
            take = min(len(widths), total - i)
            fits = all(
                values[i + j].bit_length() <= widths[j] for j in range(take)
            )
            if fits:
                n += writer.write_bits(selector, 4)
                for j, width in enumerate(widths):
                    v = values[i + j] if i + j < total else 0
                    n += writer.write_bits(v, width)
                i += take
                break
        else:  # pragma: no cover - mode 15 always fits
            raise AssertionError("no simple16 mode fits")
    return n


def decode_simple16(reader: BitReader, count: int) -> List[int]:
    """Decode ``count`` naturals written by :func:`encode_simple16`."""
    out: List[int] = []
    while len(out) < count:
        selector = reader.read_bits(4)
        for width in _SIMPLE16_MODES[selector]:
            out.append(reader.read_bits(width))
    return out[:count]


# --------------------------------------------------------------------------
# Bulk readers
#
# Decode whole runs of codes with the reader state held in locals; the
# per-record decoders (structure, timestamps) are built on these.  Each
# returns exactly ``count`` values or raises the same exceptions as its
# scalar counterpart mid-run.  The kernel tier is the process-wide
# choice in :mod:`repro.bits.kernels`: the inlined 16-bit table loop in
# production, or a per-code scalar loop as the reference for differential
# testing.  The two tiers are byte-exact mirrors of one another.
# --------------------------------------------------------------------------


def _check_count(count: int) -> None:
    """Bulk reads own their domain check: a negative count is a caller bug."""
    if count < 0:
        raise CodecDomainError(f"negative bulk read count: {count}")


def _decode_run(
    reader: BitReader,
    count: int,
    vals: Sequence[int],
    lens: Sequence[int],
    slow: Callable[[BitReader], int],
    delta: int = 0,
) -> List[int]:
    """Decode ``count`` codes of one family on the selected kernel tier.

    ``delta`` is added to every decoded value (``-1`` for the ``*_natural``
    wrappers).

    When a query context is active on this thread (see the checkpoint
    hook in :mod:`repro.bits.kernels`), the run is charged against the
    context's decode-work budget and split into stride-sized chunks with
    a checkpoint between each, so even a single huge run observes its
    deadline within one stride of decode work.  Each chunk decodes whole
    codes and leaves the reader cursor between codes, so chunked and
    unchunked decodes are byte-identical; an interruption raises with the
    cursor in a consistent (between-codes) position.
    """
    _check_count(count)
    hook = kernels._checkpoint_hook
    if hook is not None:
        stride = hook(count)
        if 0 < stride < count:
            out: List[int] = []
            done = 0
            while True:
                step = min(stride, count - done)
                out.extend(
                    _decode_run_plain(reader, step, vals, lens, slow, delta)
                )
                done += step
                if done >= count:
                    return out
                hook(0)
    return _decode_run_plain(reader, count, vals, lens, slow, delta)


def _decode_run_plain(
    reader: BitReader,
    count: int,
    vals: Sequence[int],
    lens: Sequence[int],
    slow: Callable[[BitReader], int],
    delta: int = 0,
) -> List[int]:
    """The uninterruptible kernel dispatch behind :func:`_decode_run`."""
    if kernels._override == kernels.TIER_SCALAR:
        out: List[int] = []
        for _ in range(count):
            out.append(slow(reader) + delta)
        return out
    raw = _read_many_table(reader, count, vals, lens, slow)
    if delta:
        return [x + delta for x in raw]
    return raw


def _decode_run_pairs(
    reader: BitReader,
    count: int,
    vals_a: Sequence[int],
    lens_a: Sequence[int],
    slow_a: Callable[[BitReader], int],
    vals_b: Sequence[int],
    lens_b: Sequence[int],
    slow_b: Callable[[BitReader], int],
    delta: int = 0,
) -> Tuple[List[int], List[int]]:
    """Decode ``count`` interleaved (a, b) pairs on the selected kernel tier.

    Chunks against an active query context exactly like
    :func:`_decode_run` (pairs count as two work units each).
    """
    _check_count(count)
    hook = kernels._checkpoint_hook
    if hook is not None:
        stride = hook(2 * count)
        # A pair is two codes; halve the stride so a chunk does roughly
        # the same decode work as in the single-code readers.
        stride //= 2
        if 0 < stride < count:
            out_a: List[int] = []
            out_b: List[int] = []
            done = 0
            while True:
                step = min(stride, count - done)
                part_a, part_b = _decode_run_pairs_plain(
                    reader, step,
                    vals_a, lens_a, slow_a,
                    vals_b, lens_b, slow_b,
                    delta,
                )
                out_a.extend(part_a)
                out_b.extend(part_b)
                done += step
                if done >= count:
                    return out_a, out_b
                hook(0)
    return _decode_run_pairs_plain(
        reader, count, vals_a, lens_a, slow_a, vals_b, lens_b, slow_b, delta
    )


def _decode_run_pairs_plain(
    reader: BitReader,
    count: int,
    vals_a: Sequence[int],
    lens_a: Sequence[int],
    slow_a: Callable[[BitReader], int],
    vals_b: Sequence[int],
    lens_b: Sequence[int],
    slow_b: Callable[[BitReader], int],
    delta: int = 0,
) -> Tuple[List[int], List[int]]:
    """The uninterruptible kernel dispatch behind :func:`_decode_run_pairs`."""
    if kernels._override == kernels.TIER_SCALAR:
        out_a: List[int] = []
        out_b: List[int] = []
        for _ in range(count):
            out_a.append(slow_a(reader) + delta)
            out_b.append(slow_b(reader) + delta)
        return out_a, out_b
    raw_a, raw_b = _read_many_table_pairs(
        reader, count, vals_a, lens_a, slow_a, vals_b, lens_b, slow_b
    )
    if delta:
        return [x + delta for x in raw_a], [x + delta for x in raw_b]
    return raw_a, raw_b


def read_many_unary(reader: BitReader, count: int) -> List[int]:
    """Read ``count`` unary codes (values >= 1)."""
    vals, lens = _unary_table()
    return _decode_run(reader, count, vals, lens, read_unary)


def read_many_gamma(reader: BitReader, count: int) -> List[int]:
    """Read ``count`` Elias gamma codes (values >= 1)."""
    vals, lens = _gamma_table()
    return _decode_run(reader, count, vals, lens, read_gamma)


def read_many_gamma_natural(reader: BitReader, count: int) -> List[int]:
    """Read ``count`` gamma-coded naturals (values >= 0)."""
    vals, lens = _gamma_table()
    return _decode_run(reader, count, vals, lens, read_gamma, delta=-1)


def read_many_zeta(reader: BitReader, count: int, k: int) -> List[int]:
    """Read ``count`` zeta_k codes (values >= 1)."""
    vals, lens = _zeta_table(k)
    return _decode_run(reader, count, vals, lens, lambda r: read_zeta(r, k))


def read_many_zeta_natural(reader: BitReader, count: int, k: int) -> List[int]:
    """Read ``count`` zeta_k-coded naturals (values >= 0)."""
    vals, lens = _zeta_table(k)
    return _decode_run(
        reader, count, vals, lens, lambda r: read_zeta(r, k), delta=-1
    )


def read_many_zeta_natural_pairs(
    reader: BitReader, count: int, k_a: int, k_b: int
) -> Tuple[List[int], List[int]]:
    """Read ``count`` interleaved (zeta_k_a, zeta_k_b) natural pairs.

    This is the layout of interval-graph timestamp records: a timestamp gap
    followed by its duration, each with its own shrinking parameter.
    """
    vals_a, lens_a = _zeta_table(k_a)
    vals_b, lens_b = _zeta_table(k_b)
    return _decode_run_pairs(
        reader, count,
        vals_a, lens_a, lambda r: read_zeta(r, k_a),
        vals_b, lens_b, lambda r: read_zeta(r, k_b),
        delta=-1,
    )


def iter_code_lengths(values: Iterable[int], k: int) -> int:
    """Total zeta_k bit length of an iterable of naturals (for sizing)."""
    return sum(zeta_length(v + 1, k) for v in values)
