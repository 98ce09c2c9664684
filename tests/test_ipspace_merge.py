"""Property tests for the sorted-merge incremental kernels.

Every merge kernel's contract is bit-identity with the rebuild-from-
scratch path it replaces: ``merge_sorted_rows`` against re-sorting the
concatenation, and the ``*_merge`` count updates against recounting the
merged matrix.  That identity is what makes the streaming layer's
incremental day folds indistinguishable from batch recomputation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.report import Report
from repro.core.trials import TrialEnsemble
from repro.ipspace.addr import unique_sorted
from repro.ipspace.kernels import (
    block_counts_2d,
    block_counts_2d_merge,
    intersection_counts_2d,
    intersection_counts_2d_merge,
    merge_sorted,
    merge_sorted_rows,
    merge_unique,
    remove_sorted,
    sorted_rows,
)

PREFIXES = (0, 8, 16, 24, 28, 32)

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)


def sorted_array(values):
    return np.sort(np.asarray(values, dtype=np.uint32))


def unique_array(values):
    return np.unique(np.asarray(values, dtype=np.uint32))


def matrix_pair_strategy(max_trials=5, max_width=30, max_batch=12):
    """(rows, batch) with equal trial counts, both row-sorted."""
    trials = st.shared(
        st.integers(min_value=0, max_value=max_trials), key="trials"
    )

    def matrix(width_range):
        return trials.flatmap(
            lambda t: st.integers(*width_range).flatmap(
                lambda w: st.lists(
                    st.lists(addresses, min_size=w, max_size=w),
                    min_size=t,
                    max_size=t,
                ).map(
                    lambda rows: np.sort(
                        np.asarray(rows, dtype=np.uint32).reshape(t, w),
                        axis=1,
                    )
                )
            )
        )

    return st.tuples(matrix((0, max_width)), matrix((0, max_batch)))


class TestMergeSorted:
    @given(st.lists(addresses), st.lists(addresses))
    @settings(max_examples=100, deadline=None)
    def test_matches_concat_sort(self, left, right):
        a, b = sorted_array(left), sorted_array(right)
        merged = merge_sorted(a, b)
        assert np.array_equal(merged, np.sort(np.concatenate([a, b])))

    def test_stable_ties_keep_existing_first(self):
        merged = merge_sorted(
            np.asarray([5, 5], dtype=np.uint32), np.asarray([5], dtype=np.uint32)
        )
        assert np.array_equal(merged, [5, 5, 5])


class TestMergeUnique:
    @given(st.lists(addresses), st.lists(addresses))
    @settings(max_examples=100, deadline=None)
    def test_matches_union(self, left, right):
        a, b = unique_array(left), unique_array(right)
        merged, fresh = merge_unique(a, b)
        assert np.array_equal(merged, np.union1d(a, b))
        assert np.array_equal(b[fresh], np.setdiff1d(b, a))

    def test_no_fresh_returns_existing_unchanged(self):
        a = unique_array([1, 2, 3])
        merged, fresh = merge_unique(a, unique_array([2, 3]))
        assert merged is a
        assert not fresh.any()

    def test_empty_existing_copies_batch(self):
        b = unique_array([7, 9])
        merged, fresh = merge_unique(np.asarray([], dtype=np.uint32), b)
        assert np.array_equal(merged, b)
        assert merged is not b
        assert fresh.all()


_DTYPE_RANGES = {
    np.dtype(np.uint32): (0, 2**32 - 1),
    np.dtype(np.int64): (-(2**63), 2**63 - 1),
    np.dtype(np.uint64): (0, 2**64 - 1),
}

_LAYOUTS = ("random", "canonical", "reversed", "duplicated", "all-equal")


@st.composite
def integer_arrays(draw):
    """Integer arrays of every layout the kernel special-cases."""
    dtype = draw(st.sampled_from(sorted(_DTYPE_RANGES, key=str)))
    low, high = _DTYPE_RANGES[dtype]
    values = draw(st.lists(st.integers(low, high), max_size=40))
    arr = np.asarray(values, dtype=dtype)
    layout = draw(st.sampled_from(_LAYOUTS))
    if layout == "canonical":
        arr = np.unique(arr)
    elif layout == "reversed":
        arr = np.sort(arr)[::-1]
    elif layout == "duplicated":
        arr = np.concatenate([arr, arr[::2]])
    elif layout == "all-equal" and arr.size:
        arr = np.full(arr.size, arr[0], dtype=dtype)
    return arr


class TestUniqueSorted:
    @given(integer_arrays())
    @settings(max_examples=200, deadline=None)
    def test_matches_np_unique(self, values):
        result = unique_sorted(values)
        expected = np.unique(values)
        assert result.dtype == expected.dtype
        assert np.array_equal(result, expected)

    @given(integer_arrays())
    @settings(max_examples=100, deadline=None)
    def test_never_shares_memory_with_input(self, values):
        assert not np.shares_memory(unique_sorted(values), values)

    @pytest.mark.parametrize(
        "values",
        [[], [7], [3, 3, 3], [1, 2, 9], [9, 2, 1], [5, 1, 5, 0, 1]],
        ids=["empty", "one", "all-duplicate", "canonical", "reversed", "mixed"],
    )
    def test_edge_cases(self, values):
        arr = np.asarray(values, dtype=np.uint32)
        result = unique_sorted(arr)
        assert result.dtype == np.uint32
        assert np.array_equal(result, np.unique(arr))
        assert not np.shares_memory(result, arr)

    def test_input_stays_writable_after_report(self):
        canonical = np.asarray([1, 2, 3], dtype=np.uint32)
        report = Report(tag="r", addresses=canonical)
        assert canonical.flags.writeable
        assert not report.addresses.flags.writeable
        canonical[0] = 0  # the report keeps its own copy
        assert report.addresses[0] == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_input_raises(self, dtype):
        with pytest.raises(TypeError, match="integer"):
            unique_sorted(np.asarray([1.0, np.nan], dtype=dtype))


class TestRemoveSorted:
    @given(st.lists(addresses), st.lists(addresses))
    @settings(max_examples=100, deadline=None)
    def test_matches_setdiff(self, values, victims):
        a = unique_array(values)
        # Only victims present in ``a`` are legal to remove.
        v = np.intersect1d(unique_array(victims), a)
        assert np.array_equal(remove_sorted(a, v), np.setdiff1d(a, v))

    def test_remove_everything(self):
        a = unique_array([1, 5, 9])
        assert remove_sorted(a, a).size == 0


class TestMergeSortedRows:
    @given(matrix_pair_strategy())
    @settings(max_examples=60, deadline=None)
    def test_matches_resort_of_concat(self, pair):
        rows, batch = pair
        merged = merge_sorted_rows(rows, batch)
        reference = sorted_rows(np.concatenate([rows, batch], axis=1))
        assert merged.dtype == np.uint32
        assert np.array_equal(merged, reference)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row-count mismatch"):
            merge_sorted_rows(
                np.zeros((2, 3), dtype=np.uint32),
                np.zeros((3, 1), dtype=np.uint32),
            )


class TestCountMergeKernels:
    @given(matrix_pair_strategy())
    @settings(max_examples=60, deadline=None)
    def test_block_counts_merge_matches_recount(self, pair):
        rows, batch = pair
        previous = block_counts_2d(rows, PREFIXES)
        updated = block_counts_2d_merge(previous, rows, batch, PREFIXES)
        merged = merge_sorted_rows(rows, batch)
        assert np.array_equal(updated, block_counts_2d(merged, PREFIXES))

    @given(matrix_pair_strategy(), st.lists(addresses, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_intersection_merge_matches_recount(self, pair, fixed):
        from repro.ipspace.cidr import mask_array

        rows, batch = pair
        fixed = unique_array(fixed)
        blocks_by_prefix = [
            np.unique(mask_array(fixed, n)) if fixed.size else fixed
            for n in PREFIXES
        ]
        previous = intersection_counts_2d(rows, blocks_by_prefix, PREFIXES)
        updated = intersection_counts_2d_merge(
            previous, rows, batch, blocks_by_prefix, PREFIXES
        )
        merged = merge_sorted_rows(rows, batch)
        assert np.array_equal(
            updated, intersection_counts_2d(merged, blocks_by_prefix, PREFIXES)
        )

    @given(matrix_pair_strategy(), st.lists(addresses, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_weighted_intersection_merge_matches_recount(self, pair, fixed):
        from repro.ipspace.cidr import mask_array

        rows, batch = pair
        fixed = unique_array(fixed)
        blocks_by_prefix = []
        weights_by_prefix = []
        for n in PREFIXES:
            if fixed.size:
                blocks, weights = np.unique(
                    mask_array(fixed, n), return_counts=True
                )
            else:
                blocks, weights = fixed, fixed.astype(np.int64)
            blocks_by_prefix.append(blocks)
            weights_by_prefix.append(weights.astype(np.int64))
        previous = intersection_counts_2d(
            rows, blocks_by_prefix, PREFIXES, weights_by_prefix
        )
        updated = intersection_counts_2d_merge(
            previous, rows, batch, blocks_by_prefix, PREFIXES, weights_by_prefix
        )
        merged = merge_sorted_rows(rows, batch)
        assert np.array_equal(
            updated,
            intersection_counts_2d(
                merged, blocks_by_prefix, PREFIXES, weights_by_prefix
            ),
        )


class TestEnsembleMerge:
    def test_merged_with_equals_redraw_concat(self):
        rng = np.random.default_rng(42)
        matrix = np.sort(
            rng.integers(0, 2**32, size=(7, 20), dtype=np.uint32), axis=1
        )
        ensemble = TrialEnsemble(matrix=matrix)
        extra = rng.integers(0, 2**32, size=(7, 4), dtype=np.uint32)
        grown = ensemble.merged_with(extra)
        reference = np.sort(np.concatenate([matrix, extra], axis=1), axis=1)
        assert np.array_equal(grown.matrix, reference)
        assert grown.start == ensemble.start
        assert grown.source_tag == ensemble.source_tag

    def test_merged_with_rejects_wrong_trial_count(self):
        ensemble = TrialEnsemble(matrix=np.zeros((3, 2), dtype=np.uint32))
        with pytest.raises(ValueError, match="3 trials"):
            ensemble.merged_with(np.zeros((2, 1), dtype=np.uint32))
