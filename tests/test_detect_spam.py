"""Unit tests for the behavioural spam detector."""

import numpy as np
import pytest

from repro.detect.spam import SpamDetector, SpamDetectorConfig
from repro.flows.log import FlowBatch, FlowLog
from repro.flows.record import Protocol, TCPFlags

ACKED = TCPFlags.SYN | TCPFlags.ACK | TCPFlags.PSH | TCPFlags.FIN
DAY = 86_400.0


def build_log(entries):
    """entries: (src, dst, dst_port, octets, time[, flags])."""
    batch = FlowBatch()
    for entry in entries:
        src, dst, port, octets, t = entry[:5]
        flags = entry[5] if len(entry) > 5 else ACKED
        batch.add(src, dst, 40000, port, Protocol.TCP, 10, octets, flags, float(t))
    return FlowLog.from_batches([batch])


def spam_run(src=7, messages=20, size=1200, start=0.0, per_day=10):
    entries = []
    for i in range(messages):
        day = i // per_day
        entries.append((src, 1, 25, size, start + day * DAY + i * 60))
    return entries


class TestDetection:
    def test_bulk_sender_flagged(self):
        assert list(SpamDetector().detect(build_log(spam_run()))) == [7]

    def test_low_volume_missed(self):
        log = build_log(spam_run(messages=5))
        assert SpamDetector().detect(log).size == 0

    def test_slow_drip_missed(self):
        # 14 messages over 14 days: volume ok, rate too low.
        log = build_log(spam_run(messages=14, per_day=1))
        assert SpamDetector().detect(log).size == 0

    def test_varied_sizes_missed(self):
        # Human mail: wildly varying sizes -> high CV.
        entries = []
        sizes = [300, 500, 800, 400, 250_000, 600, 900, 350, 400_000, 700,
                 500, 650]
        for i, size in enumerate(sizes):
            entries.append((7, 1, 25, size, i * 60))
        log = build_log(entries)
        assert SpamDetector().detect(log).size == 0

    def test_non_smtp_traffic_ignored(self):
        entries = [(7, 1, 80, 1200, i * 60) for i in range(30)]
        log = build_log(entries)
        assert SpamDetector().detect(log).size == 0

    def test_syn_only_port25_ignored(self):
        # No payload (no ACK): connection attempts, not deliveries.
        entries = [(7, 1, 25, 156, i * 60, TCPFlags.SYN) for i in range(30)]
        log = build_log(entries)
        assert SpamDetector().detect(log).size == 0

    def test_multiple_sources(self):
        entries = spam_run(src=7) + spam_run(src=8, messages=3)
        detected = SpamDetector().detect(build_log(entries))
        assert list(detected) == [7]

    def test_empty_log(self):
        assert SpamDetector().detect(FlowLog.empty()).size == 0

    def test_threshold_boundary(self):
        config = SpamDetectorConfig(min_messages=10, min_daily_rate=4.0)
        ten = build_log(spam_run(messages=10, per_day=10))
        nine = build_log(spam_run(messages=9, per_day=9))
        assert SpamDetector(config).detect(ten).size == 1
        assert SpamDetector(config).detect(nine).size == 0

    def test_generator_spammers_detected(self, tiny_traffic):
        detected = set(SpamDetector().detect(tiny_traffic.flows).tolist())
        truth = set(tiny_traffic.ground_truth("spammers").tolist())
        # Behavioural detection is not perfect, but recall should be high
        # and there should be no benign-only false positives.
        assert len(detected & truth) > 0.7 * len(truth)
        hostile = truth | set(tiny_traffic.ground_truth("fast_scanners").tolist())
        benign_only = set(tiny_traffic.ground_truth("benign").tolist()) - hostile
        # Benign clients do occasionally mail, but never in bulk.
        assert len(detected & benign_only) < 0.02 * max(len(benign_only), 1)


class TestConfig:
    @pytest.mark.parametrize(
        "field,value",
        [("min_messages", 0), ("min_daily_rate", 0.0), ("max_size_cv", 0.0)],
    )
    def test_invalid_rejected(self, field, value):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(SpamDetectorConfig(), **{field: value}).validate()


# -- packed-key aggregates vs a row-table oracle ---------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.spam import SpamAggregates, SpamPartial


def aggregates_oracle(flows):
    """The row-table formulation: ``np.unique(axis=0)`` over stacked
    ``(source index, day)`` rows, then a per-source ``bincount``."""
    smtp = flows.select(
        (flows.protocol == Protocol.TCP)
        & (flows.dst_port == 25)
        & flows.payload_bearing_mask()
    )
    if len(smtp) == 0:
        return SpamAggregates.empty()
    sources, inverse = np.unique(smtp.src_addr, return_inverse=True)
    days = (smtp.start_time // DAY).astype(np.int64)
    rows = np.unique(np.stack([inverse, days], axis=1), axis=0)
    sizes = smtp.octets.astype(np.float64)
    return SpamAggregates(
        sources=sources.astype(np.uint32),
        messages=np.bincount(inverse, minlength=sources.size).astype(np.int64),
        active_days=np.bincount(rows[:, 0], minlength=sources.size).astype(
            np.int64
        ),
        size_sums=np.bincount(inverse, weights=sizes, minlength=sources.size),
        size_sq_sums=np.bincount(
            inverse, weights=sizes**2, minlength=sources.size
        ),
    )


def assert_aggregates_equal(a, b):
    for name in ("sources", "messages", "active_days", "size_sums", "size_sq_sums"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


EXTREME_ADDRESSES = st.sampled_from([0, 1, 7, 0xFFFFFFFE, 0xFFFFFFFF])


@st.composite
def smtp_logs(draw, sources_from=st.integers(min_value=0, max_value=5)):
    """Mixed logs whose deliveries cluster around midnight boundaries, so
    same-day and next-day deliveries of one source both occur."""
    n = draw(st.integers(min_value=0, max_value=80))
    entries = []
    for _ in range(n):
        src = draw(sources_from)
        day = draw(st.integers(min_value=0, max_value=3))
        jitter = draw(st.integers(min_value=-3, max_value=3))
        port = draw(st.sampled_from([25, 25, 25, 80]))
        octets = draw(st.sampled_from([100, 1200, 1210, 5000]))
        flags = draw(st.sampled_from([ACKED, ACKED, TCPFlags.SYN]))
        entries.append((src, 1, port, octets, max(day * DAY + jitter, 0.0), flags))
    return build_log(entries) if entries else FlowLog.empty()


class TestAggregatesMatchOracle:
    @settings(max_examples=80, deadline=None)
    @given(smtp_logs())
    def test_from_flows_equals_oracle(self, flows):
        assert_aggregates_equal(
            SpamAggregates.from_flows(flows), aggregates_oracle(flows)
        )

    @settings(max_examples=50, deadline=None)
    @given(smtp_logs(EXTREME_ADDRESSES))
    def test_extreme_addresses_equal_oracle(self, flows):
        expected = aggregates_oracle(flows)
        assert_aggregates_equal(SpamAggregates.from_flows(flows), expected)
        assert_aggregates_equal(SpamPartial.from_flows(flows).finalize(), expected)

    def test_empty_log(self):
        assert_aggregates_equal(
            SpamAggregates.from_flows(FlowLog.empty()), SpamAggregates.empty()
        )
        assert SpamPartial.from_flows(FlowLog.empty()).sources.size == 0

    @pytest.mark.parametrize("src", [0, 0xFFFFFFFF])
    def test_single_delivery(self, src):
        log = build_log([(src, 0xFFFFFFFF, 25, 1200, 3 * DAY + 5)])
        agg = SpamAggregates.from_flows(log)
        assert_aggregates_equal(agg, aggregates_oracle(log))
        assert agg.sources.tolist() == [src]
        assert agg.active_days.tolist() == [1]
        partial = SpamPartial.from_flows(log)
        assert partial.day_sources.tolist() == [src]
        assert partial.day_values.tolist() == [3]

    def test_all_deliveries_one_source_day(self):
        log = build_log([(0xFFFFFFFF, 1, 25, 1200, DAY + i) for i in range(30)])
        agg = SpamAggregates.from_flows(log)
        assert_aggregates_equal(agg, aggregates_oracle(log))
        assert agg.messages.tolist() == [30]
        assert agg.active_days.tolist() == [1]

    def test_all_duplicate_rows(self):
        # Identical deliveries: one (source, day) row, every message counted.
        log = build_log([(0, 1, 25, 1200, 2 * DAY)] * 12)
        agg = SpamAggregates.from_flows(log)
        assert_aggregates_equal(agg, aggregates_oracle(log))
        assert (agg.messages.tolist(), agg.active_days.tolist()) == ([12], [1])
