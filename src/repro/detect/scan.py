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
into one ``uint64`` (:func:`repro.flows.kernels.pack64`), a single
``np.lexsort`` over ``(packed pair, destination)`` orders the whole
window, and fan-out / failed-flow counts fall out of run boundaries and
``np.add.reduceat`` — no row-table ``np.unique(axis=0)`` passes.  Failed
flows are counted in pure integers (a grouped sum of the no-ACK mask), so
there is no float ``weights=`` path and the two per-pair tables are one
table by construction.  :meth:`ScanDetector.detect_reference` retains the
original row-table formulation as the semantic reference the property
tests pin the kernel to.

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
from typing import TYPE_CHECKING, Iterable, Tuple

import numpy as np

from repro import obs
from repro.flows.kernels import grouped_sum, pack64, segment_bounds
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


def _tcp_columns(
    flows: FlowLog,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four columns the detector reads, masked to TCP only.

    Column-level masking instead of :meth:`FlowLog.select` avoids copying
    the six columns the detector never touches.
    """
    tcp = flows.protocol == Protocol.TCP
    src = flows.src_addr[tcp]
    dst = flows.dst_addr[tcp]
    hours = (flows.start_time[tcp] // _HOUR_SECONDS).astype(np.int64)
    no_ack = (flows.tcp_flags[tcp] & TCPFlags.ACK) == 0
    return src, dst, hours, no_ack


def _pair_keys(src: np.ndarray, hours: np.ndarray) -> Tuple[np.ndarray, int]:
    """``(source, hour)`` packed into sortable ``uint64`` keys.

    Hours are rebased to the window minimum so any real capture packs
    (the rebased span would only overflow after ~490,000 years of
    traffic, which :func:`pack64` turns into a loud error rather than
    key aliasing).  Returns the keys and the hour base for unpacking.
    """
    base = int(hours.min()) if hours.size else 0
    return pack64(src, hours - base), base


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
    def from_flows(cls, flows: FlowLog) -> "ScanAggregates":
        """Aggregate any span of flows (one lexsort, grouped counts)."""
        src, dst, hours, no_ack = _tcp_columns(flows)
        if src.size == 0:
            return cls.empty()
        pair_key, base = _pair_keys(src, hours)

        order = np.lexsort((dst, pair_key))
        pk = pair_key[order]
        dk = dst[order]
        starts, _ = segment_bounds(pk)

        failed = grouped_sum(no_ack[order], starts)
        totals = np.diff(np.append(starts, pk.size))

        # A triple's first occurrence in (pair, dst) order marks one
        # distinct destination of its pair.
        first_triple = np.empty(pk.size, dtype=bool)
        first_triple[0] = True
        first_triple[1:] = (pk[1:] != pk[:-1]) | (dk[1:] != dk[:-1])
        triple_at = np.flatnonzero(first_triple)

        pair_pk = pk[starts]
        triple_pk = pk[triple_at]
        return cls(
            sources=(pair_pk >> np.uint64(32)).astype(np.uint32),
            hours=(pair_pk & np.uint64(0xFFFFFFFF)).astype(np.int64) + base,
            flow_totals=totals.astype(np.int64),
            failed_totals=failed.astype(np.int64),
            triple_sources=(triple_pk >> np.uint64(32)).astype(np.uint32),
            triple_hours=(triple_pk & np.uint64(0xFFFFFFFF)).astype(np.int64)
            + base,
            triple_dsts=dk[triple_at].astype(np.uint32),
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
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts, _ = segment_bounds(keys)
        pair_pk = keys[starts]

        tri_keys = np.concatenate(
            [pack64(p.triple_sources, p.triple_hours - base) for p in parts]
        )
        tri_dsts = np.concatenate([p.triple_dsts for p in parts])
        tri_order = np.lexsort((tri_dsts, tri_keys))
        tk = tri_keys[tri_order]
        td = tri_dsts[tri_order]
        keep = np.empty(tk.size, dtype=bool)
        keep[0] = True
        keep[1:] = (tk[1:] != tk[:-1]) | (td[1:] != td[:-1])

        return cls(
            sources=(pair_pk >> np.uint64(32)).astype(np.uint32),
            hours=(pair_pk & np.uint64(0xFFFFFFFF)).astype(np.int64) + base,
            flow_totals=grouped_sum(totals[order], starts),
            failed_totals=grouped_sum(failed[order], starts),
            triple_sources=(tk[keep] >> np.uint64(32)).astype(np.uint32),
            triple_hours=(tk[keep] & np.uint64(0xFFFFFFFF)).astype(np.int64)
            + base,
            triple_dsts=td[keep].astype(np.uint32),
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
        """The packed-key kernel: one lexsort, grouped integer counts."""
        src, dst, hours, no_ack = _tcp_columns(flows)
        if src.size == 0:
            return np.asarray([], dtype=np.uint32)
        pair_key, _ = _pair_keys(src, hours)

        order = np.lexsort((dst, pair_key))
        pk = pair_key[order]
        dk = dst[order]
        starts, _ = segment_bounds(pk)

        flow_totals = np.diff(np.append(starts, pk.size))
        failed_totals = grouped_sum(no_ack[order], starts)

        first_triple = np.empty(pk.size, dtype=bool)
        first_triple[0] = True
        first_triple[1:] = (pk[1:] != pk[:-1]) | (dk[1:] != dk[:-1])
        target_counts = grouped_sum(first_triple, starts)

        failed_fraction = failed_totals / np.maximum(flow_totals, 1)
        flagged = (target_counts >= self.config.min_targets) & (
            failed_fraction >= self.config.min_failed_fraction
        )
        flagged_sources = (pk[starts[flagged]] >> np.uint64(32)).astype(np.uint32)
        return unique_sorted(flagged_sources)

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
