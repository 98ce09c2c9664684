"""Behavioural scan detection over flow logs.

Models the detector behind the paper's observed ``scan`` report: the
threshold/fan-out method of Gates et al. (CMU/SEI-2006-TR-005), which the
paper notes "is calibrated to identify scans that take place over an hour"
(§6.2).  A source is flagged as a scanner if, within any one-hour bucket,
it contacts at least ``min_targets`` distinct destinations and at least
``min_failed_fraction`` of its flows in that bucket show no ACK (i.e. the
connections never completed).

The hourly calibration is load-bearing for the paper: "slow" scanners that
touch fewer than ~30 addresses per day never accumulate enough fan-out in
an hour and land in the unknown class of §6 rather than the scan report.

Evaluation is a columnar kernel: the ``(source, hour)`` group key packs
into one ``uint64`` (:func:`repro.flows.kernels.pack64`), one
``np.argsort`` of that key forms the groups, and flow / failed-flow
counts are grouped sums over the run boundaries.  The sorted key array
is then reused in place as ``(group id << 32) | destination``
(:func:`repro.flows.kernels.regroup`) and sorted in place, so distinct
destinations per group are a neighbour-diff count
(:func:`repro.flows.kernels.distinct_per_group`) — no ``np.lexsort``
and no row-table ``np.unique(axis=0)``.  Every count is an exact
integer, so there is no float ``weights=`` path.
:meth:`ScanDetector.detect_reference` retains the original row-table
formulation as the semantic reference the property tests pin the
kernel to.

:class:`ScanAggregates` is the mergeable partial-aggregate form of the
same computation: per-``(source, hour)`` flow/failure totals plus the
distinct ``(source, hour, destination)`` triple set.  Folding aggregates
chunk by chunk over a :class:`~repro.flows.chunked.ChunkedFlowLog`
(:meth:`ScanDetector.detect_chunked`) reproduces the in-memory verdict
bit for bit for *any* chunking, because every column is an exact integer
and triple dedup commutes with set union.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

import numpy as np

from repro import obs
from repro.flows.kernels import (
    distinct_per_group,
    grouped_sum,
    pack64,
    regroup,
    segment_bounds,
    sort_unique,
    unpack64,
)
from repro.flows.log import FlowLog
from repro.flows.record import Protocol, TCPFlags
from repro.ipspace.addr import unique_sorted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flows.chunked import ChunkedFlowLog

__all__ = ["ScanDetectorConfig", "ScanDetector", "ScanAggregates"]

_HOUR_SECONDS = 3600.0


@dataclass(frozen=True)
class ScanDetectorConfig:
    """Detector calibration."""

    #: Minimum distinct destinations contacted within one hour.
    min_targets: int = 30

    #: Minimum fraction of the source's flows in that hour with no ACK.
    min_failed_fraction: float = 0.5

    def validate(self) -> None:
        if self.min_targets <= 0:
            raise ValueError("min_targets must be positive")
        if not 0 <= self.min_failed_fraction <= 1:
            raise ValueError("min_failed_fraction must be in [0, 1]")


class _PairGroups(NamedTuple):
    """A window's TCP flows grouped by ``(source, hour)``."""

    pairs: np.ndarray  # uint64: sorted distinct packed (source, hour - base)
    base: int  # hour the packed hours are rebased to
    flow_totals: np.ndarray  # int64: TCP flows per pair
    failed_totals: np.ndarray  # int64: no-ACK flows per pair
    starts: np.ndarray  # int64: where each pair's run begins in ``keys``
    keys: np.ndarray  # uint64: (pair id << 32) | destination, one per flow


def _pair_groups(flows: FlowLog) -> Optional[_PairGroups]:
    """Group the TCP flows of ``flows`` by ``(source, hour)``.

    One ``np.argsort`` of the packed pair key forms the groups; its
    within-group order is irrelevant, since every per-pair output is a
    sum or a set.  Hours are rebased to the window minimum so any real
    capture packs (the rebased span would only overflow after ~490,000
    years of traffic, which :func:`pack64` turns into a loud error
    rather than key aliasing).  Column-level masking instead of
    :meth:`FlowLog.select` avoids copying the columns the detector never
    reads, and each temporary is dropped as soon as the next is built,
    so the peak stays a few ``uint64`` columns.  ``None`` when the
    window has no TCP flows.
    """
    tcp = flows.protocol == Protocol.TCP
    hours = flows.start_time[tcp]
    if hours.size == 0:
        return None
    np.floor_divide(hours, _HOUR_SECONDS, out=hours)
    hours = hours.astype(np.int64)
    base = int(hours.min())
    hours -= base
    pair_key = pack64(flows.src_addr[tcp], hours)
    del hours

    order = np.argsort(pair_key)
    pair_key = pair_key[order]
    starts, totals = segment_bounds(pair_key)
    no_ack = (flows.tcp_flags[tcp][order] & TCPFlags.ACK) == 0
    failed = grouped_sum(no_ack, starts)
    del no_ack
    pairs = pair_key[starts]
    keys = regroup(pair_key, starts, flows.dst_addr[tcp][order])
    return _PairGroups(pairs, base, totals, failed, starts, keys)


@dataclass(frozen=True)
class ScanAggregates:
    """Mergeable per-``(source, hour)`` sufficient statistics.

    Everything the detector thresholds on reduces to exact integer
    columns over ``(source, hour)`` groups plus the distinct
    ``(source, hour, destination)`` triple set; both merge exactly under
    any partition of the flow window, so flags computed incrementally
    over chunks and flags computed whole-window agree bit for bit.

    All tables are sorted lexicographically by their key columns.
    """

    sources: np.ndarray  # uint32: per (source, hour) group
    hours: np.ndarray  # int64
    flow_totals: np.ndarray  # int64: TCP flows in the group
    failed_totals: np.ndarray  # int64: no-ACK flows in the group
    triple_sources: np.ndarray  # uint32: distinct (source, hour, dst)
    triple_hours: np.ndarray  # int64
    triple_dsts: np.ndarray  # uint32

    @classmethod
    def empty(cls) -> "ScanAggregates":
        u32 = np.asarray([], dtype=np.uint32)
        i64 = np.asarray([], dtype=np.int64)
        return cls(
            sources=u32, hours=i64, flow_totals=i64, failed_totals=i64,
            triple_sources=u32, triple_hours=i64, triple_dsts=u32,
        )

    @classmethod
    def _from_tables(
        cls,
        pairs: np.ndarray,
        base: int,
        flow_totals: np.ndarray,
        failed_totals: np.ndarray,
        triples: np.ndarray,
    ) -> "ScanAggregates":
        """Unpack sorted pair keys and ``(pair id << 32) | dst`` triples."""
        sources, hours = unpack64(pairs, base)
        # Not unpack64(triples): holding both of its triple-length halves
        # at once raises the chunked fold's peak by ~17 MB at full scale.
        triple_sources, triple_hours = unpack64(
            pairs[triples >> np.uint64(32)], base
        )
        return cls(
            sources=sources,
            hours=hours,
            flow_totals=flow_totals,
            failed_totals=failed_totals,
            triple_sources=triple_sources,
            triple_hours=triple_hours,
            triple_dsts=(triples & np.uint64(0xFFFFFFFF)).astype(np.uint32),
        )

    @classmethod
    def from_flows(cls, flows: FlowLog) -> "ScanAggregates":
        """Aggregate any span of flows (one argsort, grouped counts)."""
        groups = _pair_groups(flows)
        if groups is None:
            return cls.empty()
        return cls._from_tables(
            groups.pairs,
            groups.base,
            groups.flow_totals,
            groups.failed_totals,
            sort_unique(groups.keys),
        )

    @property
    def group_count(self) -> int:
        return int(self.sources.size)

    def merge(self, other: "ScanAggregates") -> "ScanAggregates":
        """Fold in aggregates of any other span of the same window.

        Integer totals add and triple sets union, so merging is exact
        whatever the split — chunks may straddle hours, days or even
        interleave sources.
        """
        return self.merge_all([self, other])

    @classmethod
    def merge_all(cls, parts: "Iterable[ScanAggregates]") -> "ScanAggregates":
        """Merge any number of partial aggregates in one reduction.

        One concatenation and one sort over the union, instead of a
        chain of pairwise merges re-sorting the running state per chunk.
        Exact for any order and grouping of ``parts`` (integer sums and
        set union are associative and commutative), so the result is
        bit-identical to chained :meth:`merge` calls.
        """
        parts = [p for p in parts if p.sources.size]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]

        base = min(int(p.hours.min()) for p in parts)
        keys = np.concatenate([pack64(p.sources, p.hours - base) for p in parts])
        totals = np.concatenate([p.flow_totals for p in parts])
        failed = np.concatenate([p.failed_totals for p in parts])
        order = np.argsort(keys)
        keys = keys[order]
        starts, _ = segment_bounds(keys)
        pairs = keys[starts]

        # Every triple's pair is in the merged pair table, so its
        # searchsorted position is its pair id.
        triples = np.concatenate(
            [
                pack64(
                    np.searchsorted(
                        pairs, pack64(p.triple_sources, p.triple_hours - base)
                    ),
                    p.triple_dsts,
                )
                for p in parts
            ]
        )
        return cls._from_tables(
            pairs,
            base,
            grouped_sum(totals[order], starts),
            grouped_sum(failed[order], starts),
            sort_unique(triples),
        )

    def flagged(self, config: ScanDetectorConfig) -> np.ndarray:
        """Sorted unique sources the detector flags at these aggregates."""
        if self.sources.size == 0:
            return np.asarray([], dtype=np.uint32)
        base = int(self.hours.min())
        pair_key = pack64(self.sources, self.hours - base)
        triple_key = pack64(self.triple_sources, self.triple_hours - base)
        # Every triple's pair exists in the pair table, so searchsorted
        # positions are exact group ids.
        target_counts = np.bincount(
            np.searchsorted(pair_key, triple_key), minlength=pair_key.size
        )
        failed_fraction = self.failed_totals / np.maximum(self.flow_totals, 1)
        mask = (target_counts >= config.min_targets) & (
            failed_fraction >= config.min_failed_fraction
        )
        return unique_sorted(self.sources[mask]).astype(np.uint32)


class ScanDetector:
    """Hourly fan-out scan detector."""

    def __init__(self, config: ScanDetectorConfig = ScanDetectorConfig()) -> None:
        config.validate()
        self.config = config

    def detect(self, flows: FlowLog) -> np.ndarray:
        """Sorted unique source addresses flagged as scanners."""
        with obs.instrument("detect.scan", events=len(flows)):
            return self._detect(flows)

    def _detect(self, flows: FlowLog) -> np.ndarray:
        """The packed-key kernel: one argsort, one in-place sort."""
        groups = _pair_groups(flows)
        if groups is None:
            return np.asarray([], dtype=np.uint32)
        target_counts = distinct_per_group(groups.keys, groups.starts)
        failed_fraction = groups.failed_totals / np.maximum(groups.flow_totals, 1)
        flagged = (target_counts >= self.config.min_targets) & (
            failed_fraction >= self.config.min_failed_fraction
        )
        return unique_sorted(
            (groups.pairs[flagged] >> np.uint64(32)).astype(np.uint32)
        )

    def detect_chunked(self, chunks: "Iterable[FlowLog]") -> np.ndarray:
        """Fold the detector over flow-log chunks without materialising.

        ``chunks`` is any iterable of :class:`FlowLog` spans covering the
        window — typically ``ChunkedFlowLog.iter_chunks()``.  The result
        is bit-identical to :meth:`detect` on the concatenated log for
        any chunking.
        """
        from repro.flows.chunked import ChunkedFlowLog, fold_partials

        if isinstance(chunks, ChunkedFlowLog):
            chunks = chunks.iter_chunks()
        with obs.instrument("detect.scan_chunked"):
            aggregates = fold_partials(
                (ScanAggregates.from_flows(chunk) for chunk in chunks),
                rows=lambda a: a.sources.size + a.triple_sources.size,
                merge_all=ScanAggregates.merge_all,
            )
            return aggregates.flagged(self.config)

    # -- row-table reference ----------------------------------------------

    def detect_reference(self, flows: FlowLog) -> np.ndarray:
        """The original ``np.unique(axis=0)`` row-table formulation.

        Semantically identical to :meth:`detect` (the property tests pin
        the kernel to it) but interpreter- and sort-bound: three
        row-table unique passes over stacked int64 triples.  Kept as the
        readable specification; not for large logs.

        ``pairs`` and ``all_pairs`` below are the same table by
        construction — every raw pair owns at least one deduped triple
        and ``np.unique`` sorts rows lexicographically both times.
        """
        tcp = flows.select(flows.protocol == Protocol.TCP)
        if len(tcp) == 0:
            return np.asarray([], dtype=np.uint32)

        hours = (tcp.start_time // _HOUR_SECONDS).astype(np.int64)
        no_ack = (tcp.tcp_flags & TCPFlags.ACK) == 0

        triples = np.stack(
            [tcp.src_addr.astype(np.int64), hours, tcp.dst_addr.astype(np.int64)],
            axis=1,
        )
        unique_triples = np.unique(triples, axis=0)
        pairs, target_counts = np.unique(
            unique_triples[:, :2], axis=0, return_counts=True
        )

        raw_pairs = np.stack([tcp.src_addr.astype(np.int64), hours], axis=1)
        all_pairs, inverse = np.unique(raw_pairs, axis=0, return_inverse=True)
        flow_totals = np.bincount(inverse, minlength=all_pairs.shape[0])
        failed_totals = np.bincount(inverse[no_ack], minlength=all_pairs.shape[0])
        failed_fraction = failed_totals / np.maximum(flow_totals, 1)

        flagged = (target_counts >= self.config.min_targets) & (
            failed_fraction >= self.config.min_failed_fraction
        )
        return np.unique(pairs[flagged, 0]).astype(np.uint32)
