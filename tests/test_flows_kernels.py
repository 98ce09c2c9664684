"""Unit and property tests for the shared columnar kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.kernels import (
    distinct_per_group,
    grouped_cumsum,
    grouped_sum,
    pack64,
    regroup,
    repeat_offsets,
    sample_day_segments,
    segment_bounds,
    segment_first_true,
    segment_ids,
    segment_positions,
    sort_unique,
    unpack64,
)


class TestOffsets:
    def test_repeat_offsets(self):
        assert list(repeat_offsets(np.asarray([2, 0, 3]))) == [0, 2, 2, 5]

    def test_segment_ids(self):
        assert list(segment_ids(np.asarray([2, 0, 3]))) == [0, 0, 2, 2, 2]

    def test_segment_positions(self):
        assert list(segment_positions(np.asarray([2, 0, 3]))) == [0, 1, 0, 1, 2]

    def test_empty(self):
        empty = np.asarray([], dtype=np.int64)
        assert repeat_offsets(empty).tolist() == [0]
        assert segment_ids(empty).size == 0
        assert segment_positions(empty).size == 0


class TestSampleDaySegments:
    def test_requests_respected(self):
        rng = np.random.default_rng(0)
        lo = np.asarray([10, 20, 30])
        hi = np.asarray([19, 24, 29])  # lengths 10, 5, 0 (empty range)
        counts = np.asarray([4, 9, 3])
        owners, days = sample_day_segments(lo, hi, counts, rng)
        assert (np.bincount(owners, minlength=3) == [4, 5, 0]).all()
        for i in range(3):
            mine = days[owners == i]
            assert np.unique(mine).size == mine.size  # distinct
            assert ((mine >= lo[i]) & (mine <= hi[i])).all()

    def test_zero_count_contributes_nothing(self):
        rng = np.random.default_rng(1)
        owners, days = sample_day_segments(
            np.asarray([0]), np.asarray([13]), np.asarray([0]), rng
        )
        assert owners.size == 0 and days.size == 0

    def test_all_empty(self):
        rng = np.random.default_rng(2)
        owners, days = sample_day_segments(
            np.asarray([5, 9]), np.asarray([4, 8]), np.asarray([3, 3]), rng
        )
        assert owners.size == 0 and days.size == 0

    def test_no_events(self):
        rng = np.random.default_rng(3)
        empty = np.asarray([], dtype=np.int64)
        owners, days = sample_day_segments(empty, empty, empty, rng)
        assert owners.size == 0 and days.size == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            sample_day_segments(
                np.asarray([0]), np.asarray([1, 2]), np.asarray([1]),
                np.random.default_rng(0),
            )

    def test_deterministic_per_seed(self):
        lo = np.zeros(50, dtype=np.int64)
        hi = np.full(50, 13, dtype=np.int64)
        counts = np.full(50, 4, dtype=np.int64)
        a = sample_day_segments(lo, hi, counts, np.random.default_rng(7))
        b = sample_day_segments(lo, hi, counts, np.random.default_rng(7))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_uniform_coverage(self):
        # Over many draws of 1 day from [0, 13], every day appears.
        lo = np.zeros(2000, dtype=np.int64)
        hi = np.full(2000, 13, dtype=np.int64)
        counts = np.ones(2000, dtype=np.int64)
        _, days = sample_day_segments(lo, hi, counts, np.random.default_rng(8))
        assert np.unique(days).size == 14

    @given(st.lists(
        st.tuples(
            st.integers(min_value=-5, max_value=20),   # lo
            st.integers(min_value=0, max_value=15),    # range length - 1 offset
            st.integers(min_value=0, max_value=20),    # requested count
        ),
        min_size=0, max_size=30,
    ))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_event_semantics(self, spec):
        """Per event: exactly min(count, range length) distinct in-range days."""
        lo = np.asarray([s[0] for s in spec], dtype=np.int64)
        hi = np.asarray([s[0] + s[1] - 3 for s in spec], dtype=np.int64)
        counts = np.asarray([s[2] for s in spec], dtype=np.int64)
        owners, days = sample_day_segments(lo, hi, counts, np.random.default_rng(9))
        per_owner = np.bincount(owners, minlength=lo.size) if lo.size else []
        for i, got in enumerate(per_owner):
            length = max(0, hi[i] - lo[i] + 1)
            assert got == min(counts[i], length)
            mine = days[owners == i]
            assert np.unique(mine).size == mine.size
            if mine.size:
                assert mine.min() >= lo[i] and mine.max() <= hi[i]


class TestGroupedCumsum:
    def test_matches_python_loop(self):
        rng = np.random.default_rng(10)
        counts = np.asarray([3, 1, 5, 2])
        starts = repeat_offsets(counts)[:-1]
        values = rng.integers(-5, 6, size=int(counts.sum()))
        got = grouped_cumsum(values, starts, counts)
        expected = np.concatenate(
            [np.cumsum(values[s:s + c]) for s, c in zip(starts, counts)]
        )
        assert np.array_equal(got, expected)

    def test_integer_exact(self):
        counts = np.asarray([4])
        got = grouped_cumsum(np.asarray([1, 1, 1, 1]), np.asarray([0]), counts)
        assert got.dtype.kind == "i"
        assert got.tolist() == [1, 2, 3, 4]

    def test_empty(self):
        empty = np.asarray([], dtype=np.int64)
        assert grouped_cumsum(empty, empty, empty).size == 0


class TestSegmentFirstTrue:
    def test_matches_python_loop(self):
        rng = np.random.default_rng(11)
        counts = np.asarray([4, 2, 6, 1, 3])
        starts = repeat_offsets(counts)[:-1]
        mask = rng.random(int(counts.sum())) < 0.3
        got = segment_first_true(mask, starts, counts)
        for i, (start, count) in enumerate(zip(starts, counts)):
            segment = mask[start:start + count]
            hits = np.flatnonzero(segment)
            expected = hits[0] if hits.size else count
            assert got[i] == expected

    def test_no_true_returns_count(self):
        counts = np.asarray([3])
        got = segment_first_true(
            np.asarray([False, False, False]), np.asarray([0]), counts
        )
        assert got.tolist() == [3]

    def test_empty(self):
        empty = np.asarray([], dtype=np.int64)
        assert segment_first_true(np.asarray([], dtype=bool), empty, empty).size == 0


class TestPackedGrouping:
    def test_pack64_orders_lexicographically(self):
        hi = np.array([2, 1, 0xFFFFFFFF, 1], dtype=np.uint32)
        lo = np.array([0, 0xFFFFFFFF, 0, 3], dtype=np.int64)
        keys = pack64(hi, lo)
        assert keys.dtype == np.uint64
        assert np.argsort(keys).tolist() == np.lexsort((lo, hi)).tolist()
        back_hi, back_lo = unpack64(keys)
        assert back_hi.dtype == np.uint32 and back_lo.dtype == np.int64
        assert back_hi.tolist() == hi.tolist()
        assert back_lo.tolist() == lo.tolist()
        assert unpack64(keys, base=-5)[1].tolist() == (lo - 5).tolist()

    @pytest.mark.parametrize("hi,lo", [([-1], [0]), ([0], [2**32]), ([2**32], [0])])
    def test_pack64_rejects_out_of_range(self, hi, lo):
        with pytest.raises(ValueError, match="out of uint32 range"):
            pack64(np.array(hi, dtype=np.int64), np.array(lo, dtype=np.int64))

    def test_grouped_sum_counts_bools(self):
        mask = np.array([True, True, False, True])
        out = grouped_sum(mask, np.array([0, 2]))
        assert out.dtype == np.int64 and out.tolist() == [2, 1]
        assert grouped_sum(mask[:0], np.array([], dtype=np.int64)).dtype == np.int64

    def test_regroup_reuses_the_buffer(self):
        keys = np.array([5, 5, 9, 9, 9], dtype=np.uint64)
        starts, _ = segment_bounds(keys)
        out = regroup(keys, starts, np.array([7, 0, 0xFFFFFFFF, 1, 1], np.uint32))
        assert out is keys
        assert (out >> np.uint64(32)).tolist() == [0, 0, 1, 1, 1]
        assert distinct_per_group(out, starts).tolist() == [2, 2]

    def test_regroup_rejects_wide_values(self):
        keys = np.zeros(2, dtype=np.uint64)
        with pytest.raises(ValueError):
            regroup(keys, np.array([0]), np.array([0, 2**32], dtype=np.int64))

    def test_sort_unique(self):
        keys = np.array([3, 1, 3, 0, 1], dtype=np.uint64)
        assert sort_unique(keys).tolist() == [0, 1, 3]
        assert sort_unique(keys[:0]).size == 0

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.sampled_from([0, 1, 2, 0xFFFFFFFE, 0xFFFFFFFF]),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_distinct_per_group_matches_row_table(self, rows):
        groups = np.array([g for g, _ in rows], dtype=np.int64)
        values = np.array([v for _, v in rows], dtype=np.uint32)
        # Dense group ids, as np.unique(return_inverse=True) produces.
        _, groups = np.unique(groups, return_inverse=True)
        sizes = np.bincount(groups)
        table = np.unique(np.stack([groups, values.astype(np.int64)], axis=1), axis=0)
        expected = np.bincount(table[:, 0], minlength=sizes.size)
        counts = distinct_per_group(
            pack64(groups, values), repeat_offsets(sizes)[:-1]
        )
        assert counts.tolist() == expected.tolist()
