"""Columnar flow log storage and queries.

A :class:`FlowLog` holds many flows as parallel numpy arrays, which keeps
two-week border captures (hundreds of thousands of flows at reproduction
scale) cheap to filter and aggregate.  Scalar access returns
:class:`~repro.flows.record.FlowRecord` views.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.flows.record import (
    HEADER_BYTES_PER_PACKET,
    PAYLOAD_BEARING_MIN_BYTES,
    FlowRecord,
    Protocol,
    TCPFlags,
)
from repro.ipspace.addr import unique_sorted

__all__ = ["FlowLog", "FlowBatch", "COLUMN_DTYPES"]

_COLUMNS = (
    ("src_addr", np.uint32),
    ("dst_addr", np.uint32),
    ("src_port", np.uint16),
    ("dst_port", np.uint16),
    ("protocol", np.uint8),
    ("packets", np.uint32),
    ("octets", np.uint64),
    ("tcp_flags", np.uint8),
    ("start_time", np.float64),
    ("end_time", np.float64),
)

#: Public column-name -> dtype table (the schema of a :class:`FlowLog`).
COLUMN_DTYPES = dict(_COLUMNS)


class FlowBatch:
    """A mutable accumulator of flow columns, built list-at-a-time.

    Generators append into python lists (cheap), then
    :meth:`FlowLog.from_batches` consolidates into numpy arrays once.
    """

    def __init__(self) -> None:
        self.columns: Dict[str, List] = {name: [] for name, _ in _COLUMNS}

    def add(
        self,
        src_addr: int,
        dst_addr: int,
        src_port: int,
        dst_port: int,
        protocol: int,
        packets: int,
        octets: int,
        tcp_flags: int,
        start_time: float,
        end_time: Optional[float] = None,
    ) -> None:
        """Append one flow."""
        cols = self.columns
        cols["src_addr"].append(src_addr)
        cols["dst_addr"].append(dst_addr)
        cols["src_port"].append(src_port)
        cols["dst_port"].append(dst_port)
        cols["protocol"].append(protocol)
        cols["packets"].append(packets)
        cols["octets"].append(octets)
        cols["tcp_flags"].append(tcp_flags)
        cols["start_time"].append(start_time)
        cols["end_time"].append(start_time if end_time is None else end_time)

    def __len__(self) -> int:
        return len(self.columns["src_addr"])


class FlowLog:
    """An immutable columnar collection of flow records."""

    def __init__(self, **columns: np.ndarray) -> None:
        sizes = set()
        self._columns: Dict[str, np.ndarray] = {}
        for name, dtype in _COLUMNS:
            if name not in columns:
                raise ValueError(f"missing flow column: {name}")
            arr = np.asarray(columns[name], dtype=dtype)
            arr.setflags(write=False)
            self._columns[name] = arr
            sizes.add(arr.size)
        if len(sizes) > 1:
            raise ValueError(f"flow columns have mismatched lengths: {sizes}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls) -> "FlowLog":
        return cls(**{name: np.asarray([], dtype=dtype) for name, dtype in _COLUMNS})

    @classmethod
    def from_batches(cls, batches: Iterable[FlowBatch]) -> "FlowLog":
        """Consolidate accumulated batches into one log."""
        batches = list(batches)
        merged = {}
        for name, dtype in _COLUMNS:
            parts = [np.asarray(b.columns[name], dtype=dtype) for b in batches]
            merged[name] = np.concatenate(parts) if parts else np.asarray([], dtype=dtype)
        return cls(**merged)

    @classmethod
    def from_records(cls, records: Iterable[FlowRecord]) -> "FlowLog":
        batch = FlowBatch()
        for r in records:
            batch.add(
                r.src_addr, r.dst_addr, r.src_port, r.dst_port, r.protocol,
                r.packets, r.octets, r.tcp_flags, r.start_time, r.end_time,
            )
        return cls.from_batches([batch])

    def concat(self, other: "FlowLog") -> "FlowLog":
        return FlowLog(
            **{
                name: np.concatenate([self._columns[name], other._columns[name]])
                for name, _ in _COLUMNS
            }
        )

    # -- column access ------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    @property
    def src_addr(self) -> np.ndarray:
        return self._columns["src_addr"]

    @property
    def dst_addr(self) -> np.ndarray:
        return self._columns["dst_addr"]

    @property
    def src_port(self) -> np.ndarray:
        return self._columns["src_port"]

    @property
    def dst_port(self) -> np.ndarray:
        return self._columns["dst_port"]

    @property
    def protocol(self) -> np.ndarray:
        return self._columns["protocol"]

    @property
    def packets(self) -> np.ndarray:
        return self._columns["packets"]

    @property
    def octets(self) -> np.ndarray:
        return self._columns["octets"]

    @property
    def tcp_flags(self) -> np.ndarray:
        return self._columns["tcp_flags"]

    @property
    def start_time(self) -> np.ndarray:
        return self._columns["start_time"]

    @property
    def end_time(self) -> np.ndarray:
        return self._columns["end_time"]

    def __len__(self) -> int:
        return int(self.src_addr.size)

    def record(self, index: int) -> FlowRecord:
        """Scalar view of one flow."""
        c = self._columns
        return FlowRecord(
            src_addr=int(c["src_addr"][index]),
            dst_addr=int(c["dst_addr"][index]),
            src_port=int(c["src_port"][index]),
            dst_port=int(c["dst_port"][index]),
            protocol=int(c["protocol"][index]),
            packets=int(c["packets"][index]),
            octets=int(c["octets"][index]),
            tcp_flags=int(c["tcp_flags"][index]),
            start_time=float(c["start_time"][index]),
            end_time=float(c["end_time"][index]),
        )

    def __iter__(self) -> Iterator[FlowRecord]:
        return (self.record(i) for i in range(len(self)))

    # -- derived columns ----------------------------------------------------

    def payload_bytes(self) -> np.ndarray:
        """Estimated payload per flow (bytes beyond 40/packet, >= 0)."""
        raw = self.octets.astype(np.int64) - HEADER_BYTES_PER_PACKET * self.packets.astype(
            np.int64
        )
        return np.maximum(raw, 0)

    def payload_bearing_mask(self) -> np.ndarray:
        """The §6.1 payload-bearing predicate per flow."""
        return (
            (self.protocol == Protocol.TCP)
            & (self.payload_bytes() >= PAYLOAD_BEARING_MIN_BYTES)
            & ((self.tcp_flags & TCPFlags.ACK) != 0)
        )

    # -- filters --------------------------------------------------------------

    def select(self, mask: np.ndarray) -> "FlowLog":
        """A new log containing only flows where ``mask`` is True."""
        if mask.shape != (len(self),):
            raise ValueError("mask length does not match flow count")
        return FlowLog(**{name: arr[mask] for name, arr in self._columns.items()})

    def tcp_only(self) -> "FlowLog":
        return self.select(self.protocol == Protocol.TCP)

    def in_time_range(self, start: float, end: float) -> "FlowLog":
        """Flows starting within ``[start, end)``."""
        return self.select((self.start_time >= start) & (self.start_time < end))

    def from_sources(self, sources: np.ndarray) -> "FlowLog":
        """Flows whose source address is in the sorted array ``sources``."""
        if sources.size == 0:
            return self.select(np.zeros(len(self), dtype=bool))
        idx = np.clip(np.searchsorted(sources, self.src_addr), 0, sources.size - 1)
        return self.select(sources[idx] == self.src_addr)

    # -- aggregates --------------------------------------------------------------

    def unique_sources(self) -> np.ndarray:
        """Sorted unique source addresses."""
        return unique_sorted(self.src_addr)

    def unique_destinations(self) -> np.ndarray:
        """Sorted unique destination addresses."""
        return unique_sorted(self.dst_addr)

    def fanout_by_source(self) -> Dict[int, int]:
        """Distinct destination count per source address."""
        if len(self) == 0:
            return {}
        pairs = np.unique(
            np.stack([self.src_addr, self.dst_addr], axis=1), axis=0
        )
        sources, counts = np.unique(pairs[:, 0], return_counts=True)
        return {int(s): int(c) for s, c in zip(sources, counts)}

    def payload_bearing_sources(self) -> np.ndarray:
        """Sorted unique sources with at least one payload-bearing flow."""
        return unique_sorted(self.src_addr[self.payload_bearing_mask()])

    def __repr__(self) -> str:
        return f"FlowLog(flows={len(self)})"
