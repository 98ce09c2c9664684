"""Reports: tagged, dated sets of IPv4 addresses.

The paper's unit of analysis is the *report* (§3.1): "a set of IP addresses
describing a particular phenomenon over some period".  Reports differ by
the class of data reported (bots, phishing, scanning, spamming), the period
covered, and whether they are *provided* (from a third party) or *observed*
(generated from the observed network's traffic logs).

A :class:`Report` wraps a sorted, deduplicated ``uint32`` address array and
is immutable after construction.  Set algebra returns new reports.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.ipspace.addr import AddressLike, as_array, as_int, as_str, unique_sorted
from repro.ipspace.reserved import reserved_mask

__all__ = ["ReportType", "DataClass", "Report"]


class ReportType:
    """How a report was collected (§3.1)."""

    PROVIDED = "provided"  # supplied by an external party
    OBSERVED = "observed"  # generated from the observed network's logs

    ALL = (PROVIDED, OBSERVED)


class DataClass:
    """The phenomenon a report describes (§3.1)."""

    BOTS = "bots"
    PHISHING = "phishing"
    SCANNING = "scanning"
    SPAM = "spam"
    SPECIAL = "special"  # e.g. the union report in Table 2
    NONE = "n/a"  # control / candidate style reports

    ALL = (BOTS, PHISHING, SCANNING, SPAM, SPECIAL, NONE)


@dataclass(frozen=True)
class Report:
    """An immutable report :math:`\\mathcal{R}_{tag}`.

    Parameters
    ----------
    tag:
        Short identifier, e.g. ``"bot"`` or ``"scan"`` (Table 1).
    addresses:
        Any iterable of addresses; stored sorted and deduplicated as
        ``uint32``.
    report_type:
        :class:`ReportType` value.
    data_class:
        :class:`DataClass` value.
    period:
        Optional ``(start, end)`` dates the report covers.
    """

    tag: str
    addresses: np.ndarray
    report_type: str = ReportType.OBSERVED
    data_class: str = DataClass.NONE
    period: Optional[Tuple[datetime.date, datetime.date]] = None

    def __post_init__(self) -> None:
        if self.report_type not in ReportType.ALL:
            raise ValueError(f"unknown report type: {self.report_type!r}")
        if self.data_class not in DataClass.ALL:
            raise ValueError(f"unknown data class: {self.data_class!r}")
        if self.period is not None:
            start, end = self.period
            if start > end:
                raise ValueError(f"report period reversed: {start} > {end}")
        arr = unique_sorted(as_array(self.addresses))
        arr.setflags(write=False)
        object.__setattr__(self, "addresses", arr)

    @classmethod
    def from_addresses(
        cls,
        tag: str,
        addresses: Iterable[AddressLike],
        **kwargs,
    ) -> "Report":
        """Build a report from any iterable of addresses."""
        return cls(tag=tag, addresses=as_array(addresses), **kwargs)

    # -- set protocol ----------------------------------------------------

    def __len__(self) -> int:
        """:math:`|\\mathcal{R}|`, the report's cardinality."""
        return int(self.addresses.size)

    def __contains__(self, address: AddressLike) -> bool:
        value = np.uint32(as_int(address))
        idx = np.searchsorted(self.addresses, value)
        return bool(idx < self.addresses.size and self.addresses[idx] == value)

    def __iter__(self) -> Iterator[int]:
        return (int(a) for a in self.addresses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Report):
            return NotImplemented
        return (
            self.tag == other.tag
            and self.report_type == other.report_type
            and self.data_class == other.data_class
            and self.period == other.period
            and np.array_equal(self.addresses, other.addresses)
        )

    def __hash__(self) -> int:
        return hash((self.tag, self.report_type, self.data_class, self.period,
                     self.addresses.tobytes()))

    # -- algebra ----------------------------------------------------------

    def union(self, other: "Report", tag: Optional[str] = None) -> "Report":
        """Addresses present in either report."""
        merged = unique_sorted(np.concatenate((self.addresses, other.addresses)))
        return self._derive(merged, tag or f"{self.tag}|{other.tag}")

    def intersection(self, other: "Report", tag: Optional[str] = None) -> "Report":
        """Addresses present in both reports."""
        common = np.intersect1d(self.addresses, other.addresses, assume_unique=True)
        return self._derive(common, tag or f"{self.tag}&{other.tag}")

    def difference(self, other: "Report", tag: Optional[str] = None) -> "Report":
        """Addresses in this report that are not in ``other``."""
        rest = np.setdiff1d(self.addresses, other.addresses, assume_unique=True)
        return self._derive(rest, tag or f"{self.tag}-{other.tag}")

    def __or__(self, other: "Report") -> "Report":
        return self.union(other)

    def __and__(self, other: "Report") -> "Report":
        return self.intersection(other)

    def __sub__(self, other: "Report") -> "Report":
        return self.difference(other)

    # -- transformations ---------------------------------------------------

    def sample(self, size: int, rng: np.random.Generator, tag: Optional[str] = None) -> "Report":
        """A uniform random subset of ``size`` addresses, without replacement.

        This is the operation behind the paper's empirical control
        estimate: "1000 randomly generated subsets of R_control" (§4.2).
        """
        if size > len(self):
            raise ValueError(
                f"cannot sample {size} addresses from report of {len(self)}"
            )
        chosen = rng.choice(self.addresses, size=size, replace=False)
        return self._derive(chosen, tag or f"{self.tag}[sample:{size}]")

    def filtered(self, mask: np.ndarray, tag: Optional[str] = None) -> "Report":
        """Keep only addresses where ``mask`` is True."""
        if mask.shape != self.addresses.shape:
            raise ValueError("mask shape does not match address array")
        return self._derive(self.addresses[mask], tag or self.tag)

    def without_reserved(self) -> "Report":
        """Drop RFC 1918 and other reserved addresses (§3.2 sanitisation)."""
        return self.filtered(~reserved_mask(self.addresses))

    def retagged(self, tag: str) -> "Report":
        """The same report under a different tag."""
        return replace(self, tag=tag)

    def _derive(self, addresses: np.ndarray, tag: str) -> "Report":
        return Report(
            tag=tag,
            addresses=addresses,
            report_type=self.report_type,
            data_class=self.data_class,
            period=self.period,
        )

    # -- presentation -------------------------------------------------------

    def summary_row(self) -> dict:
        """A Table 1 style inventory row for this report."""
        if self.period is None:
            dates = "-"
        else:
            dates = f"{self.period[0].isoformat()}-{self.period[1].isoformat()}"
        return {
            "tag": self.tag,
            "type": self.report_type,
            "class": self.data_class,
            "valid_dates": dates,
            "size": len(self),
        }

    def head(self, count: int = 5) -> list:
        """The first ``count`` addresses, dotted-quad, for display."""
        return [as_str(int(a)) for a in self.addresses[:count]]

    def __repr__(self) -> str:
        return (
            f"Report(tag={self.tag!r}, size={len(self)}, "
            f"type={self.report_type!r}, class={self.data_class!r})"
        )
