"""Timestamp codec (Sections IV-A to IV-C of the paper).

For each node, the timestamps of its contacts -- ordered by (neighbor label,
timestamp), the ordering shared with the structure stream -- are stored as a
gap sequence: the first value relative to the *global minimum* timestamp and
every subsequent value relative to its predecessor (the "previous" strategy
whose gap distribution Figure 3 shows to be power-law).  Gaps after the
first may be negative and are folded to naturals with Eq. (1); the naturals
are zeta_k-coded.

Interval graphs additionally need each contact's duration.  The paper does
not spell out duration storage; we interleave each duration (a natural,
zeta_k-coded) right after its timestamp gap, preserving the one-stream /
one-offset-index design.  This substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.bits import codes
from repro.bits.bitio import BitReader, BitWriter
from repro.errors import GraphDomainError


def timestamp_gaps(timestamps: Sequence[int], t_min: int) -> List[int]:
    """The integer gap sequence of Table II (before Eq. (1) mapping)."""
    gaps: List[int] = []
    prev: Optional[int] = None
    for t in timestamps:
        gaps.append(t - t_min if prev is None else t - prev)
        prev = t
    return gaps


def encode_node_timestamps(
    writer: BitWriter,
    timestamps: Sequence[int],
    durations: Optional[Sequence[int]],
    t_min: int,
    zeta_k: int,
    duration_zeta_k: Optional[int] = None,
) -> None:
    """Append one node's timestamp record (and durations, if given).

    Durations carry their own zeta parameter (default: same as the gaps) --
    their magnitudes are unrelated to the gap magnitudes, so the optimal
    codes differ (short contacts vs long-lived links).
    """
    if durations is not None and len(durations) != len(timestamps):
        raise GraphDomainError("durations must align one-to-one with timestamps")
    dk = zeta_k if duration_zeta_k is None else duration_zeta_k
    prev: Optional[int] = None
    for i, t in enumerate(timestamps):
        if prev is None:
            gap = t - t_min
            if gap < 0:
                raise GraphDomainError(
                    f"timestamp {t} below the global minimum {t_min}"
                )
            codes.write_zeta_natural(writer, gap, zeta_k)
        else:
            codes.write_zeta_integer(writer, t - prev, zeta_k)
        if durations is not None:
            codes.write_zeta_natural(writer, durations[i], dk)
        prev = t


def decode_node_timestamps(
    reader: BitReader,
    count: int,
    with_durations: bool,
    t_min: int,
    zeta_k: int,
    duration_zeta_k: Optional[int] = None,
) -> Tuple[List[int], Optional[List[int]]]:
    """Decode ``count`` timestamps (and durations) from the reader cursor.

    The record is one homogeneous zeta run (or an interleaved pair run for
    interval graphs), so the whole node decodes through the bulk readers;
    only the prefix-sum over the Eq. (1)-folded gaps stays per-element.
    """
    dk = zeta_k if duration_zeta_k is None else duration_zeta_k
    if count <= 0:
        return [], ([] if with_durations else None)
    if with_durations:
        raw, durations = codes.read_many_zeta_natural_pairs(
            reader, count, zeta_k, dk
        )
    else:
        raw = codes.read_many_zeta_natural(reader, count, zeta_k)
        durations = None
    t = t_min + raw[0]
    timestamps = [t]
    append = timestamps.append
    for gap in raw[1:]:
        # Inlined Eq. (1) unfolding (repro.bits.zigzag.to_integer).
        t += (gap >> 1) if not gap & 1 else -((gap + 1) >> 1)
        append(t)
    return timestamps, durations


def encoded_timestamp_bits(
    timestamps: Sequence[int],
    durations: Optional[Sequence[int]],
    t_min: int,
    zeta_k: int,
    duration_zeta_k: Optional[int] = None,
) -> int:
    """Bit size of a node's timestamp record without materialising it.

    Used by the Figure 7 zeta-parameter sweep, which sizes every k without
    building six full graphs.
    """
    dk = zeta_k if duration_zeta_k is None else duration_zeta_k
    total = 0
    prev: Optional[int] = None
    for i, t in enumerate(timestamps):
        if prev is None:
            total += codes.zeta_length((t - t_min) + 1, zeta_k)
        else:
            gap = t - prev
            natural = 2 * gap if gap >= 0 else 2 * (-gap) - 1
            total += codes.zeta_length(natural + 1, zeta_k)
        if durations is not None:
            total += codes.zeta_length(durations[i] + 1, dk)
        prev = t
    return total
