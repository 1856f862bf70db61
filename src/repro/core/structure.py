"""Network-structure codec (Section IV-D of the paper).

Each node's label-sorted neighbor *multiset* is encoded as four blocks:

1. **Deduplication** (IV-D1, the paper's novel step): neighbors occurring
   more than once are pulled out as (label, count) pairs so the remainder is
   a plain set and WebGraph-style tricks apply.  Labels are gap-encoded
   (first gap relative to the node itself, Eq. (1) for the possible negative)
   and counts are stored as ``count - 2``; both in Elias gamma.
2. **Reference compression** (IV-D2): the remaining singles may be described
   as a subset of a previous node's distinct neighbor list via a copy list,
   itself stored as alternating run lengths ("blocks") with the final run
   implicit -- exactly the WebGraph layout.
3. **Intervalisation** (IV-D3): maximal runs of consecutive labels of length
   >= ``min_interval_length`` become (left extreme, length) pairs; gaps
   between intervals are reduced by 2 since maximal runs are separated by at
   least one missing label; lengths are stored relative to the minimum.
4. **Extra nodes** (IV-D4): whatever remains, gap-encoded and zeta_k-coded.

The worked example of Figure 5 is reproduced verbatim by the helper
functions (see ``tests/test_paper_examples.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bits import codes
from repro.bits.bitio import BitReader, BitWriter
from repro.bits.zigzag import to_integer
from repro.core.config import ChronoGraphConfig
from repro.errors import LimitExceededError

DedupPair = Tuple[int, int]  # (label, occurrence count >= 2)
Interval = Tuple[int, int]  # (left extreme, length)


# --------------------------------------------------------------------------
# Analysis helpers (pure, also used by the Figure 5 paper-example tests)
# --------------------------------------------------------------------------

def split_duplicates(multiset: Sequence[int]) -> Tuple[List[DedupPair], List[int]]:
    """Separate a sorted neighbor multiset into dedup pairs and singles."""
    dedup: List[DedupPair] = []
    singles: List[int] = []
    i = 0
    n = len(multiset)
    while i < n:
        j = i
        while j < n and multiset[j] == multiset[i]:
            j += 1
        if j - i >= 2:
            dedup.append((multiset[i], j - i))
        else:
            singles.append(multiset[i])
        i = j
    return dedup, singles


def split_intervals(
    labels: Sequence[int], min_length: int
) -> Tuple[List[Interval], List[int]]:
    """Extract maximal runs of consecutive labels of length >= min_length."""
    intervals: List[Interval] = []
    extras: List[int] = []
    i = 0
    n = len(labels)
    while i < n:
        j = i
        while j + 1 < n and labels[j + 1] == labels[j] + 1:
            j += 1
        run = j - i + 1
        if run >= min_length:
            intervals.append((labels[i], run))
        else:
            extras.extend(labels[i : j + 1])
        i = j + 1
    return intervals, extras


def dedup_gap_pairs(node: int, dedup: Sequence[DedupPair]) -> List[Tuple[int, int]]:
    """The (gap, count - 2) pairs of Figure 5(b), before Eq. (1) mapping."""
    out: List[Tuple[int, int]] = []
    prev: Optional[int] = None
    for label, count in dedup:
        gap = label - node if prev is None else label - prev - 1
        out.append((gap, count - 2))
        prev = label
    return out


def interval_gap_pairs(
    node: int, intervals: Sequence[Interval], min_length: int
) -> List[Tuple[int, int]]:
    """The (gap, length - min) pairs of Figure 5(c), before Eq. (1) mapping."""
    out: List[Tuple[int, int]] = []
    prev_end: Optional[int] = None
    for left, length in intervals:
        if prev_end is None:
            gap = left - node
        else:
            gap = left - prev_end - 2
        out.append((gap, length - min_length))
        prev_end = left + length - 1
    return out


def extra_gaps(node: int, extras: Sequence[int]) -> List[int]:
    """The residual gaps of Figure 5(d), before Eq. (1) mapping."""
    out: List[int] = []
    prev: Optional[int] = None
    for label in extras:
        out.append(label - node if prev is None else label - prev - 1)
        prev = label
    return out


def copy_blocks(reference_list: Sequence[int], copied: Sequence[int]) -> List[int]:
    """Split the copy bitmap into alternating run lengths, first run of 1s.

    The returned list omits the final run (it is implied by the reference
    list length); the first entry may be 0 when the bitmap starts with a 0.
    """
    copied_set = set(copied)
    bits = [1 if x in copied_set else 0 for x in reference_list]
    runs: List[int] = []
    if bits:
        if bits[0] == 0:
            runs.append(0)  # empty leading run of 1s keeps the alternation
        i = 0
        n = len(bits)
        while i < n:
            j = i
            while j < n and bits[j] == bits[i]:
                j += 1
            runs.append(j - i)
            i = j
        runs.pop()  # final run is implicit
    return runs


def expand_copy_blocks(
    reference_list: Sequence[int], runs: Sequence[int]
) -> List[int]:
    """Inverse of :func:`copy_blocks`: recover the copied labels."""
    out: List[int] = []
    pos = 0
    value = 1
    for run in runs:
        if value:
            out.extend(reference_list[pos : pos + run])
        pos += run
        value ^= 1
    if value:
        out.extend(reference_list[pos:])
    return out


# --------------------------------------------------------------------------
# Encoding
# --------------------------------------------------------------------------

def encode_node_structure(
    writer: BitWriter,
    node: int,
    multiset: Sequence[int],
    previous_distinct: Dict[int, List[int]],
    ref_depth: Dict[int, int],
    config: ChronoGraphConfig,
) -> None:
    """Append node's structure record; updates the reference bookkeeping.

    ``previous_distinct`` maps already-encoded nodes to their distinct
    neighbor lists (the reference targets); ``ref_depth`` tracks chain
    depths so ``max_ref_chain`` can be enforced at compression time.
    """
    dedup, singles = split_duplicates(multiset)

    best_ref = 0
    best_writer = _encode_singles(node, singles, None, config)
    best_depth = 0
    for r in range(1, config.window + 1):
        v = node - r
        if v < 0:
            break
        reference_list = previous_distinct.get(v)
        if not reference_list:
            continue
        depth = ref_depth.get(v, 0) + 1
        if config.max_ref_chain is not None and depth > config.max_ref_chain:
            continue
        if not set(singles) & set(reference_list):
            continue  # nothing to copy; the no-reference encoding wins
        candidate = _encode_singles(node, singles, (r, reference_list), config)
        if len(candidate) < len(best_writer):
            best_writer = candidate
            best_ref = r
            best_depth = depth

    _encode_dedup(writer, node, dedup)
    writer.extend(best_writer)

    distinct = sorted({*(label for label, _ in dedup), *singles})
    previous_distinct[node] = distinct
    ref_depth[node] = best_depth if best_ref else 0


def _encode_dedup(writer: BitWriter, node: int, dedup: Sequence[DedupPair]) -> None:
    codes.write_gamma_natural(writer, len(dedup))
    first = True
    for gap, extra_count in dedup_gap_pairs(node, dedup):
        if first:
            codes.write_gamma_integer(writer, gap)
            first = False
        else:
            codes.write_gamma_natural(writer, gap)
        codes.write_gamma_natural(writer, extra_count)


def _encode_singles(
    node: int,
    singles: Sequence[int],
    reference: Optional[Tuple[int, Sequence[int]]],
    config: ChronoGraphConfig,
) -> BitWriter:
    """Encode the reference + interval + extra blocks into a fresh writer."""
    writer = BitWriter()
    if reference is None:
        codes.write_gamma_natural(writer, 0)
        rest = list(singles)
    else:
        r, reference_list = reference
        ref_set = set(reference_list)
        copied = [x for x in singles if x in ref_set]
        rest = [x for x in singles if x not in ref_set]
        codes.write_gamma_natural(writer, r)
        runs = copy_blocks(reference_list, copied)
        codes.write_gamma_natural(writer, len(runs))
        for i, run in enumerate(runs):
            if i == 0:
                codes.write_gamma_natural(writer, run)
            else:
                codes.write_gamma_natural(writer, run - 1)
    intervals, extras = split_intervals(rest, config.min_interval_length)
    codes.write_gamma_natural(writer, len(intervals))
    first = True
    for gap, extra_len in interval_gap_pairs(node, intervals, config.min_interval_length):
        if first:
            codes.write_gamma_integer(writer, gap)
            first = False
        else:
            codes.write_gamma_natural(writer, gap)
        codes.write_gamma_natural(writer, extra_len)
    codes.write_gamma_natural(writer, len(extras))
    first = True
    for gap in extra_gaps(node, extras):
        if first:
            codes.write_zeta_integer(writer, gap, config.structure_zeta_k)
            first = False
        else:
            codes.write_zeta_natural(writer, gap, config.structure_zeta_k)
    return writer


# --------------------------------------------------------------------------
# Decoding
# --------------------------------------------------------------------------

def decode_node_structure(
    reader: BitReader,
    node: int,
    resolve_distinct,
    config: ChronoGraphConfig,
    limit: Optional[int] = None,
) -> Tuple[List[DedupPair], List[int]]:
    """Decode one structure record positioned at the reader's cursor.

    ``resolve_distinct(v)`` must return the distinct neighbor list of the
    (already encoded, hence decodable) node ``v``; it is called when the
    record carries a reference.  Returns ``(dedup_pairs, singles)``.

    ``limit`` bounds the total number of neighbor labels the record may
    expand to (a valid record never exceeds the graph's contact count); a
    corrupt count or interval length that would breach it raises
    :class:`repro.errors.LimitExceededError` *before* any proportional
    allocation, so a flipped bit cannot trigger a multi-gigabyte list.

    Each block is a homogeneous run of codes, so the body is built on the
    ``read_many_*`` bulk readers: the block's count is read first, its
    guaranteed minimum expansion is charged against ``limit`` (bounding the
    bulk allocation), then the whole run is table-decoded at once and the
    remainder of each element's expansion charged exactly as before.
    """
    budget = limit

    def charge(n: int) -> None:
        nonlocal budget
        if budget is None:
            return
        budget -= n
        if budget < 0:
            raise LimitExceededError(
                f"node {node}: structure record expands past {limit} labels"
            )

    dedup: List[DedupPair] = []
    dedup_count = codes.read_gamma_natural(reader)
    if dedup_count:
        charge(2 * dedup_count)  # every dedup pair expands to >= 2 labels
        raw = codes.read_many_gamma_natural(reader, 2 * dedup_count)
        label = node + to_integer(raw[0])
        count = raw[1] + 2
        charge(count - 2)
        dedup.append((label, count))
        prev = label
        # Trip count was charged against the decode-limit budget above.
        for i in range(1, dedup_count):  # repro: noqa[CG007]
            label = prev + raw[2 * i] + 1
            count = raw[2 * i + 1] + 2
            charge(count - 2)
            dedup.append((label, count))
            prev = label

    r = codes.read_gamma_natural(reader)
    copied: List[int] = []
    if r:
        run_count = codes.read_gamma_natural(reader)
        reference_list = resolve_distinct(node - r)
        # A valid copy-block list never has more runs than the reference
        # has distinct neighbors; checking before the bulk read keeps the
        # allocation proportional to the reference, not to a corrupt count.
        if run_count > len(reference_list) + 1:
            raise LimitExceededError(
                f"node {node}: {run_count} copy runs against a reference "
                f"with {len(reference_list)} distinct neighbors"
            )
        raw = codes.read_many_gamma_natural(reader, run_count)
        runs = raw[:1] + [run + 1 for run in raw[1:]]
        copied = expand_copy_blocks(reference_list, runs)
        charge(len(copied))

    intervals: List[int] = []
    interval_count = codes.read_gamma_natural(reader)
    if interval_count:
        min_length = config.min_interval_length
        charge(interval_count * min_length)
        raw = codes.read_many_gamma_natural(reader, 2 * interval_count)
        left = node + to_integer(raw[0])
        length = raw[1] + min_length
        charge(length - min_length)
        intervals.extend(range(left, left + length))
        prev_end = left + length - 1
        # Trip count was charged against the decode-limit budget above.
        for i in range(1, interval_count):  # repro: noqa[CG007]
            left = prev_end + raw[2 * i] + 2
            length = raw[2 * i + 1] + min_length
            charge(length - min_length)
            intervals.extend(range(left, left + length))
            prev_end = left + length - 1

    extras: List[int] = []
    extra_count = codes.read_gamma_natural(reader)
    charge(extra_count)
    if extra_count:
        raw = codes.read_many_zeta_natural(
            reader, extra_count, config.structure_zeta_k
        )
        label = node + to_integer(raw[0])
        extras.append(label)
        prev = label
        for gap in raw[1:]:
            label = prev + gap + 1
            extras.append(label)
            prev = label

    singles = sorted(copied + intervals + extras)
    return dedup, singles


def multiset_from_parts(dedup: Sequence[DedupPair], singles: Sequence[int]) -> List[int]:
    """Rebuild the label-sorted neighbor multiset from decoded parts."""
    expanded = list(singles)
    for label, count in dedup:
        expanded.extend([label] * count)
    expanded.sort()
    return expanded
