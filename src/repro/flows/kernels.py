"""Columnar kernels shared by the traffic generator and the detectors.

The flow-generation and detection hot paths operate on *segments*: a
flat array carrying many variable-length groups back to back (one group
per bot event, per source address, per day).  These helpers implement
the segment primitives those paths need without any per-group Python
loop:

* :func:`repeat_offsets` / :func:`segment_positions` — the
  ``np.cumsum``-offset bookkeeping behind every ``np.repeat`` expansion;
* :func:`sample_day_segments` — draw ``k_i`` *distinct* days uniformly
  from each event's ``[lo_i, hi_i]`` day range, for all events at once
  (the batched replacement for per-event
  ``rng.choice(days, replace=False)``);
* :func:`grouped_cumsum` — per-segment cumulative sums over a
  segment-sorted array (exact for integer inputs);
* :func:`segment_first_true` — each segment's first ``True`` position,
  which is how the TRW detector finds every source's first threshold
  crossing;
* :func:`pack64` / :func:`segment_bounds` / :func:`grouped_sum` — the
  packed-key grouping trio behind the columnar detectors: two
  32-bit-ranged columns packed into one ``uint64`` sort key (split again
  by :func:`unpack64`), run
  boundaries of the sorted keys, and exact per-run sums via
  ``np.add.reduceat``;
* :func:`regroup` / :func:`distinct_per_group` / :func:`sort_unique` —
  distinct values per group without a row-table
  ``np.unique(axis=0)``: a run-sorted key array is overwritten in place
  with ``(run index << 32) | value`` and sorted in place, after which
  each group's distinct values are its neighbour-diff count (or, for
  the mergeable aggregates, the distinct keys themselves).

All kernels are deterministic given the RNG: each draws a fixed number
of variates that depends only on the input shapes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "repeat_offsets",
    "segment_ids",
    "segment_positions",
    "sample_day_segments",
    "grouped_cumsum",
    "segment_first_true",
    "pack64",
    "unpack64",
    "segment_bounds",
    "grouped_sum",
    "regroup",
    "distinct_per_group",
    "sort_unique",
]


def repeat_offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums of ``counts``: element ``i`` is where segment
    ``i`` starts in the flattened array (length ``n + 1``; the last entry
    is the total)."""
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def segment_ids(counts: np.ndarray) -> np.ndarray:
    """Owner index of every element of the flattened segments
    (``[0, 0, 1, 1, 1, ...]`` for counts ``[2, 3, ...]``)."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.repeat(np.arange(counts.size, dtype=np.int64), counts)


def segment_positions(counts: np.ndarray) -> np.ndarray:
    """Position of every element *within its own segment*
    (``[0, 1, 0, 1, 2, ...]`` for counts ``[2, 3, ...]``)."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    starts = repeat_offsets(counts)[:-1]
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def sample_day_segments(
    lo: np.ndarray,
    hi: np.ndarray,
    counts: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample distinct days from many inclusive ranges at once.

    For every event ``i`` with day range ``[lo_i, hi_i]`` (empty when
    ``hi_i < lo_i``), draws ``min(counts_i, hi_i - lo_i + 1)`` *distinct*
    days uniformly without replacement.  Returns ``(owners, days)``
    flat arrays: ``days[j]`` is one sampled day belonging to event
    ``owners[j]``; events whose range is empty (or whose count is zero)
    simply contribute nothing.

    This is the batched form of the per-event
    ``rng.choice(np.arange(lo, hi + 1), size=k, replace=False)`` loop:
    every candidate day of every event gets one uniform sort key, and
    each event keeps its ``k_i`` smallest keys.  One ``rng.random`` call
    replaces the per-event draws, so cost is O(total days) regardless of
    how many events there are.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if not (lo.size == hi.size == counts.size):
        raise ValueError("lo, hi and counts must have equal length")

    lengths = np.maximum(hi - lo + 1, 0)
    want = np.clip(counts, 0, lengths)
    total = int(lengths.sum())
    if total == 0:
        empty = np.asarray([], dtype=np.int64)
        return empty, empty

    owners = np.repeat(np.arange(lo.size, dtype=np.int64), lengths)
    offsets = repeat_offsets(lengths)[:-1]
    positions = np.arange(total, dtype=np.int64) - np.repeat(offsets, lengths)
    candidate_days = np.repeat(lo, lengths) + positions

    # One key per candidate day; a stable sort keyed on (owner, key)
    # keeps segments contiguous while shuffling within each, so the
    # first k_i slots of each segment are a uniform k_i-subset.
    keys = rng.random(total)
    order = np.lexsort((keys, owners))
    keep = positions < np.repeat(want, lengths)
    return owners[keep], candidate_days[order][keep]


def pack64(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Pack two 32-bit-ranged columns into one ``uint64`` sort key.

    Sorting the packed key is exactly the lexicographic sort on
    ``(hi, lo)``, so a single-key sort replaces ``np.lexsort`` and a
    row-table ``np.unique(axis=0)``.  Both inputs must already lie in
    ``[0, 2**32)``; values outside that range would alias other keys,
    so they raise.  The result is the only full-size allocation: ``lo``
    is shifted in without a ``uint64`` copy.
    """
    keys = _uint32_ranged(hi, "pack64 hi column").astype(np.uint64)
    np.left_shift(keys, np.uint64(32), out=keys)
    _or_low_word(keys, _uint32_ranged(lo, "pack64 lo column"))
    return keys


def unpack64(keys: np.ndarray, base: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Split :func:`pack64` keys back into ``(hi, lo + base)``.

    ``hi`` comes back as ``uint32`` and ``lo`` as ``int64`` with
    ``base`` added, undoing the rebase callers apply before packing.
    """
    lo = (keys & np.uint64(0xFFFFFFFF)).view(np.int64)
    lo += base
    return (keys >> np.uint64(32)).astype(np.uint32), lo


def _uint32_ranged(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` as an array, raising unless it lies in ``[0, 2**32)``."""
    values = np.asarray(values)
    if values.size and (values.min() < 0 or values.max() >> 32):
        raise ValueError(f"{what} out of uint32 range")
    return values


def _or_low_word(keys: np.ndarray, low: np.ndarray) -> None:
    """``keys |= low`` in place, without a ``uint64`` copy of ``low``.

    ``low`` is range-checked by :func:`_uint32_ranged`, so the unsafe
    cast is exact.
    """
    np.bitwise_or(keys, low, out=keys, dtype=np.uint64, casting="unsafe")


def _first_of_run(sorted_keys: np.ndarray) -> np.ndarray:
    """``True`` at the first position of every run of equal keys."""
    first = np.empty(sorted_keys.size, dtype=bool)
    if sorted_keys.size:
        first[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def segment_bounds(sorted_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Run boundaries of a key-sorted array: ``(starts, counts)``.

    ``starts[i]`` is the first position of run ``i`` of equal keys and
    ``counts[i]`` its length — the ``return_index``/``return_counts``
    outputs of ``np.unique`` without re-sorting an already sorted array.
    """
    keys = np.asarray(sorted_keys)
    starts = np.flatnonzero(_first_of_run(keys))
    counts = np.diff(np.append(starts, keys.size))
    return starts, counts


def grouped_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Exact per-segment sums of a segment-contiguous array.

    ``starts`` are segment start positions (as from
    :func:`segment_bounds`); integer inputs stay integer, and boolean
    masks count as ``int64`` (``np.add.reduceat`` would OR them), with
    no ``int64`` copy of the mask.
    """
    values = np.asarray(values)
    dtype = np.int64 if values.dtype == bool else values.dtype
    if starts.size == 0:
        return np.zeros(0, dtype=dtype)
    return np.add.reduceat(values, starts, dtype=dtype)


def regroup(
    sorted_keys: np.ndarray, starts: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Overwrite run-sorted keys with ``(run index << 32) | values``.

    ``sorted_keys`` is a ``uint64`` array whose runs of equal keys begin
    at ``starts`` (as from :func:`segment_bounds`); ``values`` are
    ``uint32``-ranged and aligned with it.  The key array is reused as
    the output buffer — run ids are written with an in-place
    ``np.cumsum`` — so keep ``sorted_keys[starts]`` first if the group
    keys are still needed.  Run ids increase with position, so the runs
    (and ``starts``) survive any later sort of the result, which is how
    :func:`distinct_per_group` counts each run's distinct values.
    """
    values = _uint32_ranged(values, "regroup values")
    keys = sorted_keys
    keys.fill(0)
    keys[starts[1:]] = 1
    np.cumsum(keys, out=keys)
    np.left_shift(keys, np.uint64(32), out=keys)
    _or_low_word(keys, values)
    return keys


def sort_unique(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``keys``, which is sorted **in place**.

    :func:`repro.ipspace.addr.unique_sorted` without its defensive
    copy, for key arrays the caller built and no longer needs.
    """
    keys.sort()
    return keys[_first_of_run(keys)]


def distinct_per_group(keys: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Distinct values per group of packed ``(group << 32) | value`` keys.

    ``keys`` is sorted **in place**; ``starts`` are where each group's
    run begins once sorted (the exclusive prefix sums of the group
    sizes, or the :func:`segment_bounds` starts that :func:`regroup`
    preserves), so every group must own at least one key.  Returns the
    ``int64`` count of distinct values of each group — the
    ``np.unique(np.stack([group, value], axis=1), axis=0)`` row table
    and its per-group ``bincount`` in one in-place sort.
    """
    keys.sort()
    return grouped_sum(_first_of_run(keys), starts)


def grouped_cumsum(
    values: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per-segment cumulative sums of a segment-contiguous array.

    ``starts``/``counts`` describe back-to-back segments (as returned by
    ``np.unique(..., return_index=True, return_counts=True)`` on the
    sorted segment keys).  Integer inputs stay exact: the global-cumsum
    rebase below is pure integer arithmetic for them.
    """
    if values.size == 0:
        return values.copy()
    running = np.cumsum(values)
    base = running[starts] - values[starts]
    return running - np.repeat(base, counts)


def segment_first_true(
    mask: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """First ``True`` position within each segment, or ``counts_i`` when
    the segment has none (positions are segment-relative)."""
    counts = np.asarray(counts, dtype=np.int64)
    if mask.size == 0:
        return np.zeros(counts.size, dtype=np.int64)
    positions = np.arange(mask.size, dtype=np.int64) - np.repeat(starts, counts)
    sentinel = np.where(mask, positions, mask.size)
    return np.minimum(np.minimum.reduceat(sentinel, starts), counts)
