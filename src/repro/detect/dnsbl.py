"""A DNS blocklist (DNSBL) service view, with counter-intelligence.

The paper's §2 situates uncleanliness among operational blocklists
(Spamhaus ZEN, Bleeding Snort) and two pieces of blocklist research it
builds on:

* **Jung & Sit** measured how much spam was already covered by DNSBLs at
  delivery time ("in 2004, 80% of spammers were identified by
  blacklists") — :meth:`DNSBLServer.coverage_at_detection` reproduces
  that measurement against any report;
* **Ramachandran, Feamster & Dagon** detected botmasters doing DNSBL
  *reconnaissance* — querying the list about their own bots before
  putting them to work — :meth:`DNSBLServer.reconnaissance_queriers`
  implements that counter-intelligence over the server's query log.

The server wraps a :class:`~repro.core.blocklist.Blocklist` (entries,
TTLs, decay) and adds the query interface plus the query log that the
counter-intelligence needs.  The log is stored columnarly and every
analysis over it (recon detection, load accounting) is a numpy
aggregation, so feed-scale query volumes never hit a per-entry Python
loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.blocklist import Blocklist
from repro.core.report import Report
from repro.ipspace.addr import AddressLike, as_int, unique_sorted

__all__ = ["DNSBLQuery", "DNSBLServer"]


@dataclass(frozen=True)
class DNSBLQuery:
    """One logged lookup."""

    querier: int  # address of the asking party
    subject: int  # address being asked about
    day: int
    listed: bool


class _QueryLog:
    """Columnar accumulator of logged lookups.

    Appends are cheap Python-list extends; analyses materialise numpy
    columns once.  Indexing and iteration hand back
    :class:`DNSBLQuery` views so callers keep the record interface.
    """

    def __init__(self) -> None:
        self._queriers: List[int] = []
        self._subjects: List[int] = []
        self._days: List[int] = []
        self._listed: List[bool] = []

    def append(self, querier: int, subject: int, day: int, listed: bool) -> None:
        self._queriers.append(querier)
        self._subjects.append(subject)
        self._days.append(day)
        self._listed.append(listed)

    def extend(
        self, querier: int, subjects: np.ndarray, day: int, listed: np.ndarray
    ) -> None:
        count = int(subjects.size)
        self._queriers.extend([querier] * count)
        self._subjects.extend(subjects.tolist())
        self._days.extend([day] * count)
        self._listed.extend(listed.tolist())

    # -- columnar views ----------------------------------------------------

    def queriers(self) -> np.ndarray:
        return np.asarray(self._queriers, dtype=np.int64)

    def subjects(self) -> np.ndarray:
        return np.asarray(self._subjects, dtype=np.int64)

    def days(self) -> np.ndarray:
        return np.asarray(self._days, dtype=np.int64)

    def listed(self) -> np.ndarray:
        return np.asarray(self._listed, dtype=bool)

    # -- record views ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._days)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return DNSBLQuery(
            querier=self._queriers[index],
            subject=self._subjects[index],
            day=self._days[index],
            listed=self._listed[index],
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


class DNSBLServer:
    """A queryable blocklist service with a query log."""

    def __init__(self, blocklist: Blocklist) -> None:
        self.blocklist = blocklist
        self.query_log = _QueryLog()

    # -- the DNSBL protocol --------------------------------------------------

    def query(self, querier: AddressLike, subject: AddressLike, day: int) -> bool:
        """Answer one lookup and record it."""
        listed = self.blocklist.is_blocked(subject, day)
        self.query_log.append(
            querier=as_int(querier),
            subject=as_int(subject),
            day=day,
            listed=listed,
        )
        return listed

    def query_many(
        self, querier: AddressLike, subjects, day: int
    ) -> np.ndarray:
        """Bulk lookup; returns the per-subject listed flags.

        The whole batch is answered with one vectorised mask against the
        active blocklist entries and logged with one columnar extend.
        """
        if isinstance(subjects, np.ndarray) and np.issubdtype(
            subjects.dtype, np.integer
        ):
            subject_array = subjects.astype(np.uint32)
        else:
            subject_array = np.asarray(
                [as_int(subject) for subject in subjects], dtype=np.uint32
            )
        listed = self.blocklist.blocked_mask(subject_array, day)
        self.query_log.extend(as_int(querier), subject_array, day, listed)
        return listed

    # -- Jung & Sit style evaluation -----------------------------------------

    def coverage_at_detection(self, report: Report, day: int) -> float:
        """Fraction of the report's addresses listed as of ``day``.

        Jung & Sit's measurement: how much of the observed spam would a
        mail server consulting this DNSBL have rejected outright?
        """
        return self.blocklist.coverage(report, day)

    # -- Ramachandran style counter-intelligence -------------------------------

    def reconnaissance_queriers(
        self,
        later_hostile: Report,
        min_hits: int = 3,
        min_hit_fraction: float = 0.5,
        before_day: Optional[int] = None,
    ) -> List[int]:
        """Queriers whose lookups foreshadow future hostile addresses.

        A legitimate mail server queries the addresses that happen to
        connect to it; a botmaster queries his *own* bots to check which
        are still clean.  A querier is flagged when at least ``min_hits``
        of its queried subjects later appear in ``later_hostile`` and
        those subjects make up at least ``min_hit_fraction`` of its
        queries (optionally restricted to queries before ``before_day``).
        """
        if min_hits <= 0:
            raise ValueError("min_hits must be positive")
        if not 0 < min_hit_fraction <= 1:
            raise ValueError("min_hit_fraction must be in (0, 1]")

        queriers = self.query_log.queriers()
        subjects = self.query_log.subjects()
        if before_day is not None:
            in_scope = self.query_log.days() < before_day
            queriers = queriers[in_scope]
            subjects = subjects[in_scope]
        if queriers.size == 0:
            return []

        # Distinct (querier, subject) pairs, grouped by querier.
        pairs = unique_sorted((queriers << np.int64(32)) | subjects)
        pair_querier = pairs >> np.int64(32)
        pair_subject = (pairs & np.int64(0xFFFFFFFF)).astype(np.uint32)
        hit = np.isin(pair_subject, later_hostile.addresses)
        unique_queriers, starts, totals = np.unique(
            pair_querier, return_index=True, return_counts=True
        )
        hits = np.add.reduceat(hit.astype(np.int64), starts)
        flagged = unique_queriers[
            (hits >= min_hits) & (hits >= min_hit_fraction * totals)
        ]
        return [int(querier) for querier in flagged]

    def query_volume_by_day(self) -> Dict[int, int]:
        """Lookups per day (the server operator's load view)."""
        days, counts = np.unique(self.query_log.days(), return_counts=True)
        return {int(day): int(count) for day, count in zip(days, counts)}

    def __repr__(self) -> str:
        return (
            f"DNSBLServer(entries={len(self.blocklist)}, "
            f"queries={len(self.query_log)})"
        )
