"""Unit tests for the hourly fan-out scan detector."""

import numpy as np
import pytest

from repro.detect.scan import ScanDetector, ScanDetectorConfig
from repro.flows.log import FlowBatch, FlowLog
from repro.flows.record import Protocol, TCPFlags

ACKED = TCPFlags.SYN | TCPFlags.ACK | TCPFlags.PSH


def build_log(entries):
    """entries: (src, dst, flags, start_time[, protocol])."""
    batch = FlowBatch()
    for entry in entries:
        src, dst, flags, start = entry[:4]
        proto = entry[4] if len(entry) > 4 else Protocol.TCP
        batch.add(src, dst, 40000, 445, proto, 3, 156, flags, start)
    return FlowLog.from_batches([batch])


def sweep(src, targets, hour, flags=TCPFlags.SYN):
    base = hour * 3600.0
    return [(src, 1000 + t, flags, base + t) for t in range(targets)]


class TestDetection:
    def test_fast_sweep_detected(self):
        log = build_log(sweep(7, 40, hour=2))
        assert list(ScanDetector().detect(log)) == [7]

    def test_exact_threshold_detected(self):
        config = ScanDetectorConfig(min_targets=30)
        log = build_log(sweep(7, 30, hour=2))
        assert list(ScanDetector(config).detect(log)) == [7]

    def test_below_threshold_missed(self):
        log = build_log(sweep(7, 29, hour=2))
        assert ScanDetector().detect(log).size == 0

    def test_slow_scan_across_hours_missed(self):
        # 48 targets but spread over 24 hours: 2/hour, under the floor.
        entries = []
        for hour in range(24):
            entries.extend(sweep(7, 2, hour=hour))
        # distinct targets per sweep call collide; rebuild with unique dsts
        entries = [
            (7, 5000 + i, TCPFlags.SYN, i * 1800.0) for i in range(48)
        ]
        log = build_log(entries)
        assert ScanDetector().detect(log).size == 0

    def test_successful_fanout_not_flagged(self):
        # A busy proxy talks to 40 hosts in an hour but completes its
        # connections — the failed-fraction gate holds.
        log = build_log(sweep(7, 40, hour=2, flags=ACKED))
        assert ScanDetector().detect(log).size == 0

    def test_mixed_sources(self):
        entries = sweep(7, 40, hour=2) + sweep(8, 5, hour=2)
        log = build_log(entries)
        assert list(ScanDetector().detect(log)) == [7]

    def test_udp_ignored(self):
        entries = [
            (7, 1000 + t, TCPFlags.SYN, 7200.0 + t, Protocol.UDP) for t in range(40)
        ]
        log = build_log(entries)
        assert ScanDetector().detect(log).size == 0

    def test_empty_log(self):
        assert ScanDetector().detect(FlowLog.empty()).size == 0

    def test_repeat_contacts_do_not_inflate_fanout(self):
        # 40 flows to ONE destination is not a scan.
        entries = [(7, 1000, TCPFlags.SYN, 7200.0 + t) for t in range(40)]
        log = build_log(entries)
        assert ScanDetector().detect(log).size == 0

    def test_failed_fraction_boundary(self):
        # Exactly half failed at the default 0.5 floor: flagged.
        entries = sweep(7, 20, hour=2, flags=TCPFlags.SYN) + sweep(
            7, 20, hour=2, flags=ACKED
        )
        # Make destinations disjoint between halves.
        entries = [
            (7, 1000 + t, TCPFlags.SYN, 7200.0 + t) for t in range(20)
        ] + [
            (7, 2000 + t, ACKED, 7200.0 + t) for t in range(20)
        ]
        log = build_log(entries)
        assert list(ScanDetector().detect(log)) == [7]

    def test_generator_fast_scanners_detected(self, tiny_traffic):
        detected = set(ScanDetector().detect(tiny_traffic.flows).tolist())
        truth = set(tiny_traffic.ground_truth("fast_scanners").tolist())
        assert truth <= detected

    def test_generator_slow_scanners_missed(self, tiny_traffic):
        detected = set(ScanDetector().detect(tiny_traffic.flows).tolist())
        fast = set(tiny_traffic.ground_truth("fast_scanners").tolist())
        slow = set(tiny_traffic.ground_truth("slow_scanners").tolist()) - fast
        assert not (slow & detected)


class TestEdgeCases:
    def test_tcp_empty_but_log_not(self):
        # A log carrying only UDP flows has an EMPTY TCP view; the
        # detector must come back clean, not crash on zero-length tables.
        entries = [
            (7, 1000 + t, TCPFlags.SYN, 7200.0 + t, Protocol.UDP)
            for t in range(40)
        ]
        log = build_log(entries)
        assert len(log) == 40
        result = ScanDetector().detect(log)
        assert result.size == 0
        assert result.dtype == np.uint32

    def test_empty_log_dtype(self):
        result = ScanDetector().detect(FlowLog.empty())
        assert result.size == 0
        assert result.dtype == np.uint32

    def test_exactly_min_targets_in_one_hour(self):
        # A source at exactly the floor is flagged; one fewer is not —
        # for a non-default calibration too.
        config = ScanDetectorConfig(min_targets=12)
        at_floor = build_log(sweep(7, 12, hour=5))
        below = build_log(sweep(8, 11, hour=5))
        assert list(ScanDetector(config).detect(at_floor)) == [7]
        assert ScanDetector(config).detect(below).size == 0

    def test_sweep_straddling_hour_boundary_splits(self):
        # 40 distinct targets, but the burst crosses an hour boundary
        # 20/20: neither clock-hour bucket reaches the floor, so the
        # hourly calibration (deliberately) misses it.
        entries = [
            (7, 1000 + t, TCPFlags.SYN, 2 * 3600.0 - 20.0 + t) for t in range(40)
        ]
        log = build_log(entries)
        hours = np.unique((log.start_time // 3600).astype(np.int64))
        assert hours.tolist() == [1, 2]  # really does straddle
        assert ScanDetector().detect(log).size == 0

    def test_sweep_straddling_boundary_with_enough_on_one_side(self):
        # Same straddle, but one side still clears the floor on its own.
        entries = [
            (7, 1000 + t, TCPFlags.SYN, 2 * 3600.0 - 5.0 + t) for t in range(40)
        ]
        log = build_log(entries)
        assert list(ScanDetector().detect(log)) == [7]

    def test_failed_fraction_counts_flows_not_targets(self):
        # 30 distinct failed targets plus 31 successful repeats of ONE
        # target in the same hour: fan-out passes (31 distinct) but the
        # failed FLOW fraction is 30/61 < 0.5, so no flag.
        entries = [
            (7, 1000 + t, TCPFlags.SYN, 7200.0 + t) for t in range(30)
        ] + [
            (7, 999, ACKED, 7200.0 + 100 + t) for t in range(31)
        ]
        assert ScanDetector().detect(build_log(entries)).size == 0


class TestConfig:
    def test_invalid_targets(self):
        with pytest.raises(ValueError):
            ScanDetectorConfig(min_targets=0).validate()

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            ScanDetectorConfig(min_failed_fraction=1.5).validate()


# -- packed-key kernel vs row-table reference ------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.scan import ScanAggregates


#: Addresses at both ends of the uint32 range, where a packed key's
#: high and low words are all zeros or all ones.
EXTREME_ADDRESSES = st.sampled_from([0, 1, 0x7FFFFFFF, 0xFFFFFFFE, 0xFFFFFFFF])


@st.composite
def flow_arrays(
    draw,
    sources_from=st.integers(min_value=0, max_value=3),
    dsts_from=st.integers(min_value=1000, max_value=1007),
    max_hour=4,
):
    """Adversarial flow logs for the scan kernel.

    Sources are drawn from a tiny pool (so single /32s repeat densely),
    start times cluster tightly around hour boundaries (so equal-hour
    and boundary-tie groupings both occur), and (src, hour, dst)
    triples duplicate freely.
    """
    n = draw(st.integers(min_value=0, max_value=120))
    sources = draw(st.lists(sources_from, min_size=n, max_size=n))
    dsts = draw(st.lists(dsts_from, min_size=n, max_size=n))
    # Offsets of a few seconds either side of an exact hour boundary.
    hours = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_hour), min_size=n, max_size=n
        )
    )
    jitter = draw(
        st.lists(
            st.integers(min_value=-2, max_value=2), min_size=n, max_size=n
        )
    )
    acked = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    tcp = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    start = np.maximum(
        np.asarray(hours, dtype=np.float64) * 3600.0
        + np.asarray(jitter, dtype=np.float64),
        0.0,
    )
    return FlowLog(
        src_addr=np.asarray(sources, dtype=np.uint32),
        dst_addr=np.asarray(dsts, dtype=np.uint32),
        src_port=np.full(n, 40000, dtype=np.uint16),
        dst_port=np.full(n, 445, dtype=np.uint16),
        protocol=np.where(tcp, Protocol.TCP, Protocol.UDP).astype(np.uint8)
        if n
        else np.asarray([], dtype=np.uint8),
        packets=np.full(n, 3, dtype=np.uint32),
        octets=np.full(n, 156, dtype=np.uint64),
        tcp_flags=np.where(
            acked, int(TCPFlags.SYN | TCPFlags.ACK), int(TCPFlags.SYN)
        ).astype(np.uint8)
        if n
        else np.asarray([], dtype=np.uint8),
        start_time=start,
        end_time=start + 1.0,
    )


# Low thresholds so the tiny generated logs actually exercise flagging.
_PROP_CONFIG = ScanDetectorConfig(min_targets=3, min_failed_fraction=0.5)


class TestKernelMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(flow_arrays())
    def test_detect_equals_reference(self, flows):
        detector = ScanDetector(_PROP_CONFIG)
        fast = detector.detect(flows)
        reference = detector.detect_reference(flows)
        assert fast.dtype == reference.dtype == np.uint32
        assert np.array_equal(fast, reference)

    @settings(max_examples=80, deadline=None)
    @given(flow_arrays(EXTREME_ADDRESSES, EXTREME_ADDRESSES, max_hour=1))
    def test_extreme_addresses_equal_reference(self, flows):
        detector = ScanDetector(ScanDetectorConfig(min_targets=2))
        assert np.array_equal(
            detector.detect(flows), detector.detect_reference(flows)
        )
        assert np.array_equal(
            ScanAggregates.from_flows(flows).flagged(detector.config),
            detector.detect_reference(flows),
        )

    @settings(max_examples=100, deadline=None)
    @given(flow_arrays())
    def test_aggregates_equal_reference(self, flows):
        detector = ScanDetector(_PROP_CONFIG)
        flagged = ScanAggregates.from_flows(flows).flagged(_PROP_CONFIG)
        assert np.array_equal(flagged, detector.detect_reference(flows))

    @settings(max_examples=100, deadline=None)
    @given(flow_arrays(), st.integers(min_value=0, max_value=120))
    def test_merged_aggregates_equal_whole(self, flows, cut):
        cut = min(cut, len(flows))
        mask = np.zeros(len(flows), dtype=bool)
        mask[:cut] = True
        left = ScanAggregates.from_flows(flows.select(mask))
        right = ScanAggregates.from_flows(flows.select(~mask))
        merged = left.merge(right).flagged(_PROP_CONFIG)
        whole = ScanAggregates.from_flows(flows).flagged(_PROP_CONFIG)
        assert np.array_equal(merged, whole)

    def test_empty_tcp_window(self):
        # UDP-only log: the TCP mask selects nothing.
        entries = [
            (7, 1000 + t, TCPFlags.SYN, 7200.0 + t, Protocol.UDP)
            for t in range(40)
        ]
        log = build_log(entries)
        detector = ScanDetector()
        assert detector.detect(log).size == 0
        assert detector.detect_reference(log).size == 0

    def test_detect_chunked_equals_detect(self):
        entries = (
            sweep(7, 40, hour=2)
            + sweep(8, 5, hour=2)
            + sweep(9, 35, hour=3)
            + [(9, 2000 + t, ACKED, 3 * 3600.0 + t) for t in range(40)]
        )
        log = build_log(entries)
        detector = ScanDetector()
        whole = detector.detect(log)
        for pieces in (1, 2, 7, len(log)):
            bounds = np.linspace(0, len(log), pieces + 1).astype(int)
            chunks = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                mask = np.zeros(len(log), dtype=bool)
                mask[lo:hi] = True
                chunks.append(log.select(mask))
            assert np.array_equal(detector.detect_chunked(chunks), whole)

    def test_merge_empty_identity(self):
        log = build_log(sweep(7, 40, hour=2))
        agg = ScanAggregates.from_flows(log)
        out = agg.merge(ScanAggregates.empty()).flagged(ScanDetectorConfig())
        assert np.array_equal(out, agg.flagged(ScanDetectorConfig()))
        out = ScanAggregates.empty().merge(agg).flagged(ScanDetectorConfig())
        assert np.array_equal(out, agg.flagged(ScanDetectorConfig()))


class TestKernelEdgeCases:
    """Degenerate shapes of the packed-key kernel, each against the
    row-table reference and the aggregate form."""

    @staticmethod
    def _agree(log, config):
        detector = ScanDetector(config)
        fast = detector.detect(log)
        assert np.array_equal(fast, detector.detect_reference(log))
        assert np.array_equal(
            ScanAggregates.from_flows(log).flagged(config), fast
        )
        return fast

    def test_empty_log(self):
        config = ScanDetectorConfig(min_targets=1)
        assert self._agree(FlowLog.empty(), config).size == 0
        assert ScanAggregates.from_flows(FlowLog.empty()).group_count == 0

    @pytest.mark.parametrize("src", [0, 0xFFFFFFFF])
    @pytest.mark.parametrize("dst", [0, 0xFFFFFFFF])
    def test_single_flow(self, src, dst):
        log = build_log([(src, dst, TCPFlags.SYN, 5 * 3600.0)])
        flagged = self._agree(log, ScanDetectorConfig(min_targets=1))
        assert flagged.tolist() == [src]
        agg = ScanAggregates.from_flows(log)
        assert agg.triple_sources.tolist() == [src]
        assert agg.triple_dsts.tolist() == [dst]
        assert agg.hours.tolist() == agg.triple_hours.tolist() == [5]

    def test_every_flow_in_one_source_hour(self):
        entries = [
            (0xFFFFFFFF, d, TCPFlags.SYN, 3600.0 + d % 3599)
            for d in [0, 0xFFFFFFFF, *range(1, 40)]
        ]
        log = build_log(entries)
        assert self._agree(log, ScanDetectorConfig()).tolist() == [0xFFFFFFFF]
        agg = ScanAggregates.from_flows(log)
        assert agg.group_count == 1
        assert agg.flow_totals.tolist() == agg.failed_totals.tolist() == [41]
        assert agg.triple_dsts.size == 41

    def test_all_duplicate_triples(self):
        log = build_log([(0, 0xFFFFFFFF, TCPFlags.SYN, 7200.0 + t) for t in range(50)])
        assert self._agree(log, ScanDetectorConfig(min_targets=2)).size == 0
        assert self._agree(log, ScanDetectorConfig(min_targets=1)).tolist() == [0]
        agg = ScanAggregates.from_flows(log)
        assert agg.flow_totals.tolist() == [50]
        assert agg.triple_dsts.tolist() == [0xFFFFFFFF]
