"""Behavioural spam detection over flow logs.

The paper's ``spam`` report comes from "a behavioral spam detection
technique" (under review at the time, so unspecified).  What the analyses
consume is only the resulting *report* — a set of source addresses — so
any behavioural detector whose recall is biased toward bulk senders
preserves the paper's results.

This implementation flags sources by mail-delivery behaviour visible in
flow data alone (NetFlow has no payload):

* at least ``min_messages`` payload-bearing flows to port 25 during the
  window (bulk volume),
* a sending rate of at least ``min_daily_rate`` messages per active day
  (burstiness), and
* message size regularity: the coefficient of variation of flow sizes at
  or below ``max_size_cv`` (template mail bodies are near-uniform, human
  mail is not).

Both aggregate forms share one columnar pass: the SMTP deliveries are
masked column by column, per-source sums are ``bincount``s over the
source index, and each delivery's ``(source index, day)`` pair packs
into one ``uint64`` key (:func:`repro.flows.kernels.pack64`).  Active
days per source are the distinct keys per source after one in-place
sort (:func:`repro.flows.kernels.distinct_per_group`); the any-split
:class:`SpamPartial` keeps the distinct keys themselves
(:func:`repro.flows.kernels.sort_unique`).  No ``np.lexsort`` and no
row-table ``np.unique(axis=0)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Union

import numpy as np

from repro import obs
from repro.flows.kernels import (
    distinct_per_group,
    pack64,
    repeat_offsets,
    sort_unique,
    unpack64,
)
from repro.flows.log import FlowLog
from repro.flows.record import Protocol
from repro.ipspace.addr import unique_sorted
from repro.ipspace.kernels import merge_unique

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.flows.chunked import ChunkedFlowLog

__all__ = ["SpamDetectorConfig", "SpamDetector", "SpamAggregates", "SpamPartial"]

_SMTP_PORT = 25
_DAY_SECONDS = 86_400.0


@dataclass(frozen=True)
class SpamDetectorConfig:
    """Detector calibration."""

    #: Minimum SMTP deliveries in the window.
    min_messages: int = 10

    #: Minimum deliveries per active sending day.
    min_daily_rate: float = 4.0

    #: Maximum coefficient of variation of delivery sizes.
    max_size_cv: float = 1.5

    def validate(self) -> None:
        if self.min_messages <= 0:
            raise ValueError("min_messages must be positive")
        if self.min_daily_rate <= 0:
            raise ValueError("min_daily_rate must be positive")
        if self.max_size_cv <= 0:
            raise ValueError("max_size_cv must be positive")


class _Deliveries(NamedTuple):
    """The SMTP deliveries of a span of flows, reduced per source."""

    sources: np.ndarray  # sorted unique uint32
    messages: np.ndarray  # int64: deliveries per source
    size_sums: np.ndarray  # float64 (exact)
    size_sq_sums: np.ndarray  # float64 (exact)
    day_keys: np.ndarray  # uint64: (source index << 32) | (day - base)
    base: int  # day the packed days are rebased to


def _deliveries(flows: FlowLog) -> Optional[_Deliveries]:
    """Per-source SMTP sums and every delivery's packed day key.

    Columns are masked one at a time rather than through
    :meth:`FlowLog.select`, which would copy all ten.  ``None`` when the
    span holds no payload-bearing port-25 TCP flow.
    """
    smtp = (
        (flows.protocol == Protocol.TCP)
        & (flows.dst_port == _SMTP_PORT)
        & flows.payload_bearing_mask()
    )
    src = flows.src_addr[smtp]
    if src.size == 0:
        return None
    sources, inverse = np.unique(src, return_inverse=True)
    sizes = flows.octets[smtp].astype(np.float64)
    days = (flows.start_time[smtp] // _DAY_SECONDS).astype(np.int64)
    base = int(days.min())
    days -= base
    return _Deliveries(
        sources=sources.astype(np.uint32),
        messages=np.bincount(inverse, minlength=sources.size).astype(np.int64),
        size_sums=np.bincount(inverse, weights=sizes, minlength=sources.size),
        size_sq_sums=np.bincount(
            inverse, weights=sizes**2, minlength=sources.size
        ),
        day_keys=pack64(inverse, days),
        base=base,
    )


@dataclass(frozen=True)
class SpamAggregates:
    """Mergeable per-source SMTP sufficient statistics.

    Everything the detector thresholds on reduces to five per-source
    columns; all are exact in ``float64`` (integer counts and
    integer-valued sums far below 2**53), so float addition is
    associative here and merging day-partial aggregates reproduces the
    whole-window statistics *bit for bit* — the invariant the streaming
    replay-equivalence tests enforce.

    ``merge`` requires operands covering **disjoint day sets** (the
    stream layer feeds it one day-batch at a time); otherwise
    ``active_days`` would double-count.
    """

    sources: np.ndarray  # sorted unique uint32
    messages: np.ndarray  # int64: SMTP deliveries per source
    active_days: np.ndarray  # int64: distinct sending days per source
    size_sums: np.ndarray  # float64 (exact): sum of delivery sizes
    size_sq_sums: np.ndarray  # float64 (exact): sum of squared sizes

    @classmethod
    def empty(cls) -> "SpamAggregates":
        return cls(
            sources=np.asarray([], dtype=np.uint32),
            messages=np.asarray([], dtype=np.int64),
            active_days=np.asarray([], dtype=np.int64),
            size_sums=np.asarray([], dtype=np.float64),
            size_sq_sums=np.asarray([], dtype=np.float64),
        )

    @classmethod
    def from_flows(cls, flows: FlowLog) -> "SpamAggregates":
        """Aggregate the SMTP deliveries of any span of flows."""
        d = _deliveries(flows)
        if d is None:
            return cls.empty()
        # Every source index owns at least one delivery, so its keys
        # start at the prefix sum of the message counts once sorted.
        active = distinct_per_group(d.day_keys, repeat_offsets(d.messages)[:-1])
        return cls(
            sources=d.sources,
            messages=d.messages,
            active_days=active,
            size_sums=d.size_sums,
            size_sq_sums=d.size_sq_sums,
        )

    def merge(self, other: "SpamAggregates") -> "SpamAggregates":
        """Fold in aggregates covering a disjoint set of days."""
        if self.sources.size == 0:
            return other
        if other.sources.size == 0:
            return self
        union, _ = merge_unique(self.sources, other.sources)
        mine = np.searchsorted(union, self.sources)
        theirs = np.searchsorted(union, other.sources)

        def _sum(a: np.ndarray, b: np.ndarray, dtype) -> np.ndarray:
            out = np.zeros(union.size, dtype=dtype)
            out[mine] += a
            out[theirs] += b
            return out

        return SpamAggregates(
            sources=union,
            messages=_sum(self.messages, other.messages, np.int64),
            active_days=_sum(self.active_days, other.active_days, np.int64),
            size_sums=_sum(self.size_sums, other.size_sums, np.float64),
            size_sq_sums=_sum(self.size_sq_sums, other.size_sq_sums, np.float64),
        )

    def flagged(self, config: SpamDetectorConfig) -> np.ndarray:
        """Sorted unique sources the detector flags at these aggregates.

        Exactly the arithmetic of the batch detector, over columns that
        merging reproduces exactly, so flags computed incrementally and
        flags computed whole-window agree bit for bit.
        """
        if self.sources.size == 0:
            return np.asarray([], dtype=np.uint32)
        counts = self.messages
        daily_rate = counts / np.maximum(self.active_days, 1)
        means = self.size_sums / np.maximum(counts, 1)
        variances = np.maximum(
            self.size_sq_sums / np.maximum(counts, 1) - means**2, 0.0
        )
        cv = np.sqrt(variances) / np.maximum(means, 1e-9)
        mask = (
            (counts >= config.min_messages)
            & (daily_rate >= config.min_daily_rate)
            & (cv <= config.max_size_cv)
        )
        return self.sources[mask].astype(np.uint32)


@dataclass(frozen=True)
class SpamPartial:
    """Any-split mergeable accumulator behind :meth:`SpamDetector.detect_chunked`.

    :class:`SpamAggregates.merge` requires operands covering disjoint
    day sets (it adds ``active_days`` blindly), which arbitrary
    positional chunks of a flow log violate — the same day routinely
    straddles a chunk boundary.  This partial instead carries the
    *distinct ``(source, day)`` table itself* (kept sorted and
    deduplicated at every merge), so active-day counts are computed once
    at :meth:`finalize` and any split of the log — by day, by size, or
    mid-day — folds to bit-identical statistics.
    """

    sources: np.ndarray  # sorted unique uint32
    messages: np.ndarray  # int64: SMTP deliveries per source
    size_sums: np.ndarray  # float64 (exact): sum of delivery sizes
    size_sq_sums: np.ndarray  # float64 (exact): sum of squared sizes
    day_sources: np.ndarray  # uint32: distinct (source, day) pairs,
    day_values: np.ndarray  # int64:  sorted by (source, day)

    @classmethod
    def empty(cls) -> "SpamPartial":
        return cls(
            sources=np.asarray([], dtype=np.uint32),
            messages=np.asarray([], dtype=np.int64),
            size_sums=np.asarray([], dtype=np.float64),
            size_sq_sums=np.asarray([], dtype=np.float64),
            day_sources=np.asarray([], dtype=np.uint32),
            day_values=np.asarray([], dtype=np.int64),
        )

    @classmethod
    def from_flows(cls, flows: FlowLog) -> "SpamPartial":
        """Accumulate the SMTP deliveries of any span of flows."""
        d = _deliveries(flows)
        if d is None:
            return cls.empty()
        source_ids, days = unpack64(sort_unique(d.day_keys), d.base)
        return cls(
            sources=d.sources,
            messages=d.messages,
            size_sums=d.size_sums,
            size_sq_sums=d.size_sq_sums,
            day_sources=d.sources[source_ids],
            day_values=days,
        )

    def merge(self, other: "SpamPartial") -> "SpamPartial":
        """Fold in a partial covering any other span (overlap allowed)."""
        return self.merge_all([self, other])

    @classmethod
    def merge_all(cls, parts: "Iterable[SpamPartial]") -> "SpamPartial":
        """Merge any number of partials in one grouped reduction.

        Per-source sums are exact (integer-valued float64 well below
        2**53) in any order, and the day table is a set union, so one
        reduction over the concatenated partials is bit-identical to
        chained pairwise :meth:`merge` calls.
        """
        parts = [p for p in parts if p.sources.size]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]

        all_sources = np.concatenate([p.sources for p in parts])
        union = unique_sorted(all_sources)
        index = np.searchsorted(union, all_sources)

        def _sum(arrays, dtype) -> np.ndarray:
            out = np.zeros(union.size, dtype=dtype)
            np.add.at(out, index, np.concatenate(arrays))
            return out

        base = min(int(p.day_values.min()) for p in parts)
        day_sources, day_values = unpack64(
            sort_unique(
                np.concatenate(
                    [pack64(p.day_sources, p.day_values - base) for p in parts]
                )
            ),
            base,
        )

        return cls(
            sources=union,
            messages=_sum([p.messages for p in parts], np.int64),
            size_sums=_sum([p.size_sums for p in parts], np.float64),
            size_sq_sums=_sum([p.size_sq_sums for p in parts], np.float64),
            day_sources=day_sources,
            day_values=day_values,
        )

    def finalize(self) -> SpamAggregates:
        """Collapse the day table into per-source active-day counts.

        Every ``(source, day)`` pair's source has at least one message,
        so ``day_sources`` is always a subset of ``sources`` and the
        searchsorted indices are exact.  The per-source sums are the
        same exact integers the whole-window ``bincount`` produces, so
        the finalized aggregates — and hence the flags — are
        bit-identical to :meth:`SpamAggregates.from_flows` on the
        concatenated log.
        """
        active = np.bincount(
            np.searchsorted(self.sources, self.day_sources),
            minlength=self.sources.size,
        ).astype(np.int64)
        return SpamAggregates(
            sources=self.sources,
            messages=self.messages,
            active_days=active,
            size_sums=self.size_sums,
            size_sq_sums=self.size_sq_sums,
        )


class SpamDetector:
    """Flags bulk SMTP senders from flow behaviour."""

    def __init__(self, config: SpamDetectorConfig = SpamDetectorConfig()) -> None:
        config.validate()
        self.config = config

    def detect(self, flows: FlowLog) -> np.ndarray:
        """Sorted unique source addresses flagged as spammers."""
        with obs.instrument("detect.spam", events=len(flows)):
            return self._detect(flows)

    def _detect(self, flows: FlowLog) -> np.ndarray:
        return SpamAggregates.from_flows(flows).flagged(self.config)

    def detect_chunked(
        self, chunks: Union["ChunkedFlowLog", Iterable[FlowLog]]
    ) -> np.ndarray:
        """:meth:`detect` as a fold over flow-log chunks.

        Accepts a :class:`~repro.flows.chunked.ChunkedFlowLog` or any
        iterable of :class:`FlowLog` spans; one chunk plus the running
        :class:`SpamPartial` is resident at a time, and the flagged set
        is bit-identical to :meth:`detect` on the concatenated log for
        any chunking (day-straddling boundaries included).
        """
        from repro.flows.chunked import ChunkedFlowLog, fold_partials

        if isinstance(chunks, ChunkedFlowLog):
            chunks = chunks.iter_chunks()
        with obs.instrument("detect.spam_chunked"):
            partial = fold_partials(
                (SpamPartial.from_flows(chunk) for chunk in chunks),
                rows=lambda p: p.sources.size + p.day_sources.size,
                merge_all=SpamPartial.merge_all,
            )
            return partial.finalize().flagged(self.config)
