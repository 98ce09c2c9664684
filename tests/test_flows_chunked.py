"""Tests for the out-of-core chunked flow-log layer."""

import numpy as np
import pytest

from repro.detect.scan import ScanDetector, ScanDetectorConfig
from repro.detect.spam import SpamDetector, SpamDetectorConfig
from repro.detect.trw import TRWDetector
from repro.engine.store import MISS, ArtifactMissing, ArtifactStore
from repro.flows.chunked import ChunkedFlowLog, FlowChunkCodec, _split_points
from repro.flows.log import COLUMN_DTYPES, FlowLog


def make_flows(n=20_000, seed=3, days=3.0):
    rng = np.random.default_rng(seed)
    start = np.sort(rng.uniform(0.0, days * 86_400.0, n))
    if n > 300:
        start[200:300] = start[200]  # equal-time tie run
    return FlowLog(
        src_addr=rng.integers(0, 200, n, dtype=np.uint32),
        dst_addr=rng.integers(0, 500, n, dtype=np.uint32),
        src_port=rng.integers(1024, 65535, n).astype(np.uint16),
        dst_port=np.where(
            rng.random(n) < 0.3, 25, rng.integers(1, 1024, n)
        ).astype(np.uint16),
        protocol=np.where(rng.random(n) < 0.8, 6, 17).astype(np.uint8),
        packets=rng.integers(1, 10, n).astype(np.uint32),
        octets=rng.integers(40, 1500, n).astype(np.uint64),
        tcp_flags=np.where(rng.random(n) < 0.5, 16, 2).astype(np.uint8),
        start_time=start,
        end_time=start + 1.0,
    )


def assert_logs_equal(a: FlowLog, b: FlowLog):
    assert len(a) == len(b)
    for name in COLUMN_DTYPES:
        assert np.array_equal(a.column(name), b.column(name)), name


class TestSplitPoints:
    def test_empty(self):
        assert _split_points(np.asarray([], dtype=float), 10, True) == []

    def test_size_bound(self):
        times = np.zeros(25)
        points = _split_points(times, 10, day_bounded=False)
        assert points == [10, 20, 25]

    def test_day_cuts(self):
        times = np.asarray([0.0, 10.0, 86_400.0, 86_500.0, 2 * 86_400.0])
        assert _split_points(times, 100, day_bounded=True) == [2, 4, 5]

    def test_day_cuts_and_size_bound_compose(self):
        times = np.concatenate([np.zeros(7), np.full(2, 86_400.0)])
        assert _split_points(times, 3, day_bounded=True) == [3, 6, 7, 9]

    def test_positional_cover(self):
        times = np.sort(np.random.default_rng(0).uniform(0, 5e5, 997))
        points = _split_points(times, 100, day_bounded=True)
        assert points[-1] == 997
        assert all(b > a for a, b in zip(points, points[1:]))


class TestCodec:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        flows = make_flows(500)
        store.put("x/flowchunk-00000", flows, FlowChunkCodec())
        back = store.get("x/flowchunk-00000", FlowChunkCodec())
        assert back is not MISS
        assert_logs_equal(back, flows)


class TestStoreBackend:
    def test_roundtrip_and_lengths(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        flows = make_flows()
        chunked = ChunkedFlowLog.spill(flows, "w/0", store=store, max_flows=3000)
        assert len(chunked) == len(flows)
        assert chunked.chunk_count >= len(flows) // 3000
        assert chunked.nbytes > 0
        assert_logs_equal(chunked.materialize(), flows)

    def test_streaming_reads_bypass_lru(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        chunked = ChunkedFlowLog.spill(
            make_flows(), "w/0", store=store, max_flows=2000
        )
        for _ in chunked.iter_chunks():
            pass
        assert store.info()["memory_entries"] == 0

    def test_windowed_selection(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        flows = make_flows()
        chunked = ChunkedFlowLog.spill(flows, "w/0", store=store, max_flows=2500)
        lo, hi = 0.5 * 86_400.0, 1.75 * 86_400.0
        assert_logs_equal(
            chunked.materialize(lo, hi), flows.in_time_range(lo, hi)
        )
        # open-ended windows
        assert_logs_equal(
            chunked.materialize(start=lo),
            flows.in_time_range(lo, float("inf")),
        )
        assert_logs_equal(
            chunked.materialize(end=hi),
            flows.in_time_range(float("-inf"), hi),
        )

    def test_windowed_iteration_skips_chunks(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        flows = make_flows(days=4.0)
        chunked = ChunkedFlowLog.spill(flows, "w/0", store=store, max_flows=2000)
        narrow = list(chunked.iter_chunks(0.0, 3600.0))
        assert 0 < len(narrow) < chunked.chunk_count

    def test_info_counters(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        chunked = ChunkedFlowLog.spill(
            make_flows(5000), "w/0", store=store, max_flows=1000
        )
        info = store.info()
        assert info["flow_chunks"] == chunked.chunk_count
        assert info["flow_chunk_bytes"] > 0
        assert chunked.info()["backend"] == "store"
        chunked.drop()
        assert store.info()["flow_chunks"] == 0

    def test_missing_chunk_raises(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        chunked = ChunkedFlowLog.spill(
            make_flows(2000), "w/0", store=store, max_flows=500
        )
        store.clear()
        with pytest.raises(ArtifactMissing):
            list(chunked.iter_chunks())

    def test_memory_only_store_keeps_chunks_resident(self):
        store = ArtifactStore(disk_dir=None)
        flows = make_flows(3000)
        chunked = ChunkedFlowLog.spill(flows, "w/0", store=store, max_flows=700)
        assert chunked.info()["resident_chunks"] == chunked.chunk_count
        assert_logs_equal(chunked.materialize(), flows)

    def test_spill_chunks_streaming_writer(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        flows = make_flows(3000)
        day = (flows.start_time // 86_400.0).astype(np.int64)
        parts = [flows.select(day == d) for d in np.unique(day)]
        chunked = ChunkedFlowLog.spill_chunks(iter(parts), "w/0", store=store)
        assert chunked.chunk_count == len(parts)
        assert_logs_equal(chunked.materialize(), flows)


class TestMmapBackend:
    def test_roundtrip(self, tmp_path):
        flows = make_flows()
        ChunkedFlowLog.spill_to_dir(flows, tmp_path / "mm", max_flows=3000)
        reopened = ChunkedFlowLog.open_dir(tmp_path / "mm")
        assert_logs_equal(reopened.materialize(), flows)
        assert reopened.info()["backend"] == "mmap"

    def test_chunks_are_memory_mapped(self, tmp_path):
        flows = make_flows(2000)
        chunked = ChunkedFlowLog.spill_to_dir(flows, tmp_path / "mm", max_flows=600)
        chunk = chunked.chunk(0)
        assert isinstance(chunk.src_addr, np.memmap) or isinstance(
            chunk.src_addr.base, np.memmap
        )

    def test_windowed(self, tmp_path):
        flows = make_flows()
        chunked = ChunkedFlowLog.spill_to_dir(flows, tmp_path / "mm", max_flows=2500)
        lo, hi = 86_400.0, 2 * 86_400.0
        assert_logs_equal(
            chunked.materialize(lo, hi), flows.in_time_range(lo, hi)
        )


class TestDetectorEquivalence:
    """The streaming partial-aggregate folds are bit-identical to the
    in-memory detectors for any chunking of the window."""

    @pytest.fixture(scope="class")
    def flows(self):
        return make_flows(40_000, seed=17)

    @pytest.fixture(scope="class")
    def detectors(self):
        return (
            ScanDetector(ScanDetectorConfig(min_targets=5, min_failed_fraction=0.3)),
            TRWDetector(),
            SpamDetector(
                SpamDetectorConfig(
                    min_messages=5, min_daily_rate=1.0, max_size_cv=5.0
                )
            ),
        )

    def test_chunked_log_matches(self, tmp_path, flows, detectors):
        store = ArtifactStore(disk_dir=tmp_path)
        for max_flows, day_bounded in [(977, True), (7000, False), (60_000, True)]:
            chunked = ChunkedFlowLog.spill(
                flows,
                f"eq/{max_flows}-{day_bounded}",
                store=store,
                max_flows=max_flows,
                day_bounded=day_bounded,
            )
            for det in detectors:
                whole = det.detect(flows)
                assert whole.size  # the fixtures actually flag something
                assert np.array_equal(det.detect_chunked(chunked), whole)
            chunked.drop()

    def test_random_ragged_splits_match(self, flows, detectors):
        rng = np.random.default_rng(23)
        n = len(flows)
        for _ in range(3):
            cuts = np.sort(
                rng.choice(np.arange(1, n), size=rng.integers(1, 25), replace=False)
            )
            parts, prev = [], 0
            for cut in [*cuts.tolist(), n]:
                mask = np.zeros(n, dtype=bool)
                mask[prev:cut] = True
                parts.append(flows.select(mask))
                prev = cut
            for det in detectors:
                assert np.array_equal(
                    det.detect_chunked(parts), det.detect(flows)
                )

    def test_empty_chunks_are_harmless(self, flows, detectors):
        empty = FlowLog.empty()
        half = np.zeros(len(flows), dtype=bool)
        half[: len(flows) // 2] = True
        parts = [empty, flows.select(half), empty, flows.select(~half), empty]
        for det in detectors:
            assert np.array_equal(det.detect_chunked(parts), det.detect(flows))

    def test_mmap_backend_matches(self, tmp_path, flows, detectors):
        chunked = ChunkedFlowLog.spill_to_dir(
            flows, tmp_path / "mm", max_flows=9000
        )
        for det in detectors:
            assert np.array_equal(det.detect_chunked(chunked), det.detect(flows))


# -- any split, including mid-hour and mid-day cuts -------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

_HOUR, _DAY = 3600.0, 86_400.0

#: Low thresholds so small generated windows flag something.
_FOLD_DETECTORS = (
    ScanDetector(ScanDetectorConfig(min_targets=2, min_failed_fraction=0.5)),
    SpamDetector(
        SpamDetectorConfig(min_messages=2, min_daily_rate=1.0, max_size_cv=5.0)
    ),
    TRWDetector(),
)


@st.composite
def boundary_windows(draw):
    """Time-ordered windows whose flows sit within seconds of hour and
    midnight boundaries, so a cut between neighbours often splits one
    ``(source, hour)`` or ``(source, day)`` group across chunks."""
    n = draw(st.integers(min_value=0, max_value=90))
    address = st.sampled_from([0, 1, 2, 0xFFFFFFFE, 0xFFFFFFFF])
    boundary = st.sampled_from([_HOUR, 2 * _HOUR, _DAY, _DAY + _HOUR, 2 * _DAY])
    start = np.sort(
        np.asarray(
            [
                max(draw(boundary) + draw(st.integers(-4, 4)), 0.0)
                for _ in range(n)
            ],
            dtype=np.float64,
        )
    )
    column = lambda strategy, dtype: np.asarray(  # noqa: E731
        [draw(strategy) for _ in range(n)], dtype=dtype
    )
    return FlowLog(
        src_addr=column(address, np.uint32),
        dst_addr=column(address, np.uint32),
        src_port=np.full(n, 40_000, dtype=np.uint16),
        dst_port=column(st.sampled_from([25, 25, 80]), np.uint16),
        protocol=column(st.sampled_from([6, 6, 17]), np.uint8),
        packets=np.full(n, 2, dtype=np.uint32),
        octets=column(st.sampled_from([90, 1200, 1300]), np.uint64),
        tcp_flags=column(st.sampled_from([2, 18, 24]), np.uint8),
        start_time=start,
        end_time=start + 1.0,
    )


class TestAnySplitFold:
    @settings(max_examples=80, deadline=None)
    @given(boundary_windows(), st.lists(st.integers(0, 90), max_size=6))
    def test_fold_equals_whole_for_any_cuts(self, flows, cuts):
        n = len(flows)
        bounds = sorted({0, n, *(min(c, n) for c in cuts)})
        parts = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            mask = np.zeros(n, dtype=bool)
            mask[lo:hi] = True
            parts.append(flows.select(mask))
        for det in _FOLD_DETECTORS:
            assert np.array_equal(det.detect_chunked(parts), det.detect(flows))

    def test_cut_inside_one_hour_and_day(self):
        # One source's fan-out and deliveries straddle a cut in the middle
        # of a single hour of a single day.
        n = 12
        start = _DAY + _HOUR + np.arange(n, dtype=np.float64)
        flows = FlowLog(
            src_addr=np.full(n, 0xFFFFFFFF, dtype=np.uint32),
            dst_addr=np.arange(n, dtype=np.uint32) % 4,
            src_port=np.full(n, 40_000, dtype=np.uint16),
            dst_port=np.full(n, 25, dtype=np.uint16),
            protocol=np.full(n, 6, dtype=np.uint8),
            packets=np.full(n, 2, dtype=np.uint32),
            octets=np.full(n, 1200, dtype=np.uint64),
            tcp_flags=np.where(np.arange(n) % 2, 24, 2).astype(np.uint8),
            start_time=start,
            end_time=start + 1.0,
        )
        for cut in range(n + 1):
            keep = np.arange(n) < cut
            parts = [flows.select(keep), flows.select(~keep)]
            for det in _FOLD_DETECTORS[:2]:
                whole = det.detect(flows)
                assert whole.tolist() == [0xFFFFFFFF]
                assert np.array_equal(det.detect_chunked(parts), whole)
