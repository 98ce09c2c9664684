"""Unit tests for repro.flows.log."""

import numpy as np
import pytest

from repro.flows.log import FlowBatch, FlowLog
from repro.flows.record import FlowRecord, Protocol, TCPFlags

ACKED = TCPFlags.SYN | TCPFlags.ACK | TCPFlags.PSH


def sample_log():
    batch = FlowBatch()
    # src, dst, sport, dport, proto, packets, octets, flags, start
    batch.add(100, 1, 40000, 80, Protocol.TCP, 10, 2000, ACKED, 10.0, 12.0)
    batch.add(100, 2, 40001, 80, Protocol.TCP, 3, 156, TCPFlags.SYN, 20.0)
    batch.add(200, 1, 40002, 25, Protocol.TCP, 8, 1500, ACKED, 30.0)
    batch.add(300, 3, 40003, 53, Protocol.UDP, 2, 200, 0, 40.0)
    return FlowLog.from_batches([batch])


class TestConstruction:
    def test_from_batches_length(self):
        assert len(sample_log()) == 4

    def test_empty(self):
        log = FlowLog.empty()
        assert len(log) == 0
        assert log.unique_sources().size == 0

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError):
            FlowLog(src_addr=np.asarray([1]))

    def test_mismatched_lengths_rejected(self):
        columns = {name: np.asarray([1]) for name in (
            "src_addr", "dst_addr", "src_port", "dst_port", "protocol",
            "packets", "octets", "tcp_flags", "start_time",
        )}
        columns["end_time"] = np.asarray([1.0, 2.0])
        with pytest.raises(ValueError):
            FlowLog(**columns)

    def test_from_records_round_trip(self):
        log = sample_log()
        rebuilt = FlowLog.from_records(list(log))
        assert np.array_equal(rebuilt.src_addr, log.src_addr)
        assert np.array_equal(rebuilt.octets, log.octets)

    def test_concat(self):
        log = sample_log()
        doubled = log.concat(log)
        assert len(doubled) == 2 * len(log)

    def test_columns_read_only(self):
        log = sample_log()
        with pytest.raises(ValueError):
            log.src_addr[0] = 0

    def test_record_scalar_view(self):
        record = sample_log().record(0)
        assert isinstance(record, FlowRecord)
        assert record.src_addr == 100
        assert record.is_payload_bearing


class TestDerived:
    def test_payload_bytes(self):
        log = sample_log()
        assert list(log.payload_bytes()) == [1600, 36, 1180, 120]

    def test_payload_bearing_mask(self):
        log = sample_log()
        # Flow 1: SYN-only (no ACK); flow 3: UDP.
        assert list(log.payload_bearing_mask()) == [True, False, True, False]

    def test_payload_bearing_matches_scalar(self):
        log = sample_log()
        mask = log.payload_bearing_mask()
        for i in range(len(log)):
            assert mask[i] == log.record(i).is_payload_bearing

    def test_payload_bearing_sources(self):
        assert list(sample_log().payload_bearing_sources()) == [100, 200]


class TestFilters:
    def test_select(self):
        log = sample_log()
        sub = log.select(log.src_addr == 100)
        assert len(sub) == 2

    def test_select_bad_mask(self):
        with pytest.raises(ValueError):
            sample_log().select(np.asarray([True]))

    def test_tcp_only(self):
        assert len(sample_log().tcp_only()) == 3

    def test_in_time_range(self):
        log = sample_log()
        assert len(log.in_time_range(15.0, 35.0)) == 2

    def test_time_range_is_half_open(self):
        log = sample_log()
        assert len(log.in_time_range(10.0, 20.0)) == 1

    def test_from_sources(self):
        log = sample_log()
        sub = log.from_sources(np.asarray([100, 300], dtype=np.uint32))
        assert set(sub.src_addr.tolist()) == {100, 300}

    def test_from_sources_empty(self):
        log = sample_log()
        assert len(log.from_sources(np.asarray([], dtype=np.uint32))) == 0


class TestAggregates:
    def test_unique_sources(self):
        assert list(sample_log().unique_sources()) == [100, 200, 300]

    def test_unique_destinations(self):
        assert list(sample_log().unique_destinations()) == [1, 2, 3]

    def test_fanout_by_source(self):
        assert sample_log().fanout_by_source() == {100: 2, 200: 1, 300: 1}

    def test_fanout_counts_distinct_destinations(self):
        batch = FlowBatch()
        for _ in range(5):
            batch.add(7, 9, 1, 2, Protocol.TCP, 1, 40, 0, 0.0)
        log = FlowLog.from_batches([batch])
        assert log.fanout_by_source() == {7: 1}

    def test_fanout_empty(self):
        assert FlowLog.empty().fanout_by_source() == {}

    def test_fanout_matches_set_oracle_at_range_ends(self):
        rng = np.random.default_rng(5)
        ends = np.array([0, 1, 0xFFFFFFFE, 0xFFFFFFFF], dtype=np.uint32)
        pairs = rng.choice(ends, size=(200, 2))
        batch = FlowBatch()
        for src, dst in pairs:
            batch.add(int(src), int(dst), 1, 2, Protocol.TCP, 1, 40, 0, 0.0)
        expected = {}
        for src, dst in {(int(s), int(d)) for s, d in pairs}:
            expected[src] = expected.get(src, 0) + 1
        log = FlowLog.from_batches([batch])
        assert log.fanout_by_source() == expected
