"""Network-aware clustering: heterogeneous prefixes with longest-match.

The paper's §4.1 considers and rejects the alternative to homogeneous
CIDR blocks: "heterogeneous partitioning such as network-aware clustering
[Krishnamurthy & Wang], can result in network populations that differ in
size by several orders of magnitude".  This module supplies that
alternative so the rejection can be evaluated rather than asserted:

* :class:`PrefixTable` — a routing-table-like set of heterogeneous
  prefixes with longest-prefix-match lookup (scalar and vectorised);
* :func:`synthesize_table` — a BGP-flavoured table over a
  :class:`~repro.sim.internet.SyntheticInternet`: most /16s are announced
  whole, some are deaggregated into a mix of /17../24 more-specifics,
  mimicking the size spread of real announcements.

The cluster analogue of :math:`|C_n(S)|` is
:meth:`PrefixTable.cluster_count`; the ablation in
:mod:`repro.experiments.ablation` compares its population dispersion and
density verdicts against the paper's homogeneous blocks.

Since the AS-substrate refactor this module also quantifies *how
clustered* uncleanliness is at each aggregation level:
:func:`within_group_icc` is the one-way ANOVA intraclass correlation of
a per-/24 statistic under an arbitrary grouping, and
:func:`as_clustering_summary` applies it at the /16 and announcing-AS
levels of a :class:`~repro.sim.internet.SyntheticInternet` — the
statistic behind the claim that AS-structured worlds cluster dirt by
operator while flat worlds do not.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.ipspace.addr import (
    AddressLike,
    as_array,
    as_int,
    prefix_mask,
    unique_sorted,
)
from repro.ipspace.cidr import CIDRBlock

__all__ = [
    "PrefixTable",
    "as_clustering_summary",
    "synthesize_table",
    "within_group_icc",
]


class PrefixTable:
    """An immutable set of heterogeneous prefixes with LPM lookup.

    Lookup semantics follow routing: an address maps to the most specific
    prefix containing it, or to no cluster at all if nothing matches.
    """

    def __init__(self, prefixes: Iterable[CIDRBlock]) -> None:
        blocks = sorted(set(prefixes))
        if not blocks:
            raise ValueError("a prefix table needs at least one prefix")
        self.prefixes: List[CIDRBlock] = blocks
        # Per-length sorted network arrays, plus the index of each network
        # back into self.prefixes, for vectorised longest-match.
        self._by_length: Dict[int, np.ndarray] = {}
        self._index_by_length: Dict[int, np.ndarray] = {}
        for length in sorted({b.prefix_len for b in blocks}):
            members = [
                (b.network, i) for i, b in enumerate(blocks) if b.prefix_len == length
            ]
            nets = np.asarray([m[0] for m in members], dtype=np.uint32)
            idx = np.asarray([m[1] for m in members], dtype=np.int64)
            order = np.argsort(nets)
            self._by_length[length] = nets[order]
            self._index_by_length[length] = idx[order]

    def __len__(self) -> int:
        return len(self.prefixes)

    def lookup(self, address: AddressLike) -> Optional[CIDRBlock]:
        """Longest-prefix match for one address (None if unrouted)."""
        value = as_int(address)
        for length in sorted(self._by_length, reverse=True):
            nets = self._by_length[length]
            masked = value & prefix_mask(length)
            position = int(np.searchsorted(nets, masked))
            if position < nets.size and nets[position] == masked:
                return self.prefixes[int(self._index_by_length[length][position])]
        return None

    def lookup_array(self, addresses: Iterable[AddressLike]) -> np.ndarray:
        """Vectorised LPM: index into :attr:`prefixes` per address, -1 if none."""
        arr = as_array(addresses)
        result = np.full(arr.shape, -1, dtype=np.int64)
        unmatched = np.ones(arr.shape, dtype=bool)
        for length in sorted(self._by_length, reverse=True):
            if not unmatched.any():
                break
            nets = self._by_length[length]
            masked = arr & np.uint32(prefix_mask(length))
            position = np.clip(np.searchsorted(nets, masked), 0, nets.size - 1)
            hit = unmatched & (nets[position] == masked)
            result[hit] = self._index_by_length[length][position[hit]]
            unmatched &= ~hit
        return result

    def cluster_count(self, addresses: Iterable[AddressLike]) -> int:
        """Distinct clusters covering the addresses (unrouted excluded).

        The heterogeneous analogue of :math:`|C_n(S)|`.
        """
        matches = self.lookup_array(addresses)
        return int(unique_sorted(matches[matches >= 0]).size)

    def cluster_sizes(self) -> np.ndarray:
        """Address-span of every prefix (the dispersion the paper flags)."""
        return np.asarray([b.num_addresses for b in self.prefixes], dtype=np.int64)

    def coverage_fraction(self, addresses: Iterable[AddressLike]) -> float:
        """Fraction of addresses that match some prefix."""
        arr = as_array(addresses)
        if arr.size == 0:
            return 0.0
        return float((self.lookup_array(arr) >= 0).mean())

    def __repr__(self) -> str:
        lengths = sorted(self._by_length)
        return f"PrefixTable(prefixes={len(self)}, lengths={lengths[0]}..{lengths[-1]})"


def synthesize_table(
    internet,
    rng: np.random.Generator,
    deaggregation_probability: float = 0.3,
) -> PrefixTable:
    """A BGP-flavoured heterogeneous prefix table for a synthetic Internet.

    Each occupied /16 is either announced whole (the common case) or
    deaggregated: recursively split into halves, each half announced at
    its own length down to at most /24.  The result spans /16../24
    prefixes whose address spans differ by up to 256x — the "several
    orders of magnitude" population spread of §4.1.
    """
    if not 0 <= deaggregation_probability <= 1:
        raise ValueError("deaggregation_probability must be in [0, 1]")

    slash16s = unique_sorted(internet.net24 & np.uint32(prefix_mask(16)))
    prefixes: List[CIDRBlock] = []

    def announce(network: int, length: int) -> None:
        if length >= 24 or rng.random() >= deaggregation_probability:
            prefixes.append(CIDRBlock(network, length))
            return
        half = 1 << (32 - (length + 1))
        announce(network, length + 1)
        announce(network + half, length + 1)

    for base in slash16s:
        announce(int(base), 16)
    return PrefixTable(prefixes)


# -- clustering statistics ---------------------------------------------------


def within_group_icc(groups, values) -> float:
    """One-way ANOVA intraclass correlation, ICC(1), of ``values`` under
    the grouping ``groups``.

    ICC(1) = (MS_between - MS_within) / (MS_between + (k0 - 1) MS_within)
    with ``k0`` the ANOVA-standard effective group size for unbalanced
    designs.  It is ~0 when group membership explains none of the
    variance (values as good as shuffled), approaches 1 when values are
    constant within groups but differ between them, and can dip slightly
    negative by sampling noise.

    Degenerate designs carry no between-group signal and return 0.0
    exactly: a single group (a one-AS world), all-singleton groups
    (every AS announcing one prefix — no within-group variance to
    compare), or constant values.
    """
    groups = np.asarray(groups)
    values = np.asarray(values, dtype=np.float64)
    if groups.shape != values.shape:
        raise ValueError(
            f"groups and values must align: {groups.shape} vs {values.shape}"
        )
    n = values.size
    if n == 0:
        raise ValueError("need at least one observation")
    _, inverse, counts = np.unique(
        groups, return_inverse=True, return_counts=True
    )
    g = counts.size
    if g < 2 or n <= g:
        return 0.0
    grand = values.mean()
    means = np.bincount(inverse, weights=values) / counts
    ms_between = float((counts * (means - grand) ** 2).sum()) / (g - 1)
    ms_within = float(((values - means[inverse]) ** 2).sum()) / (n - g)
    k0 = (n - float((counts.astype(np.float64) ** 2).sum()) / n) / (g - 1)
    denominator = ms_between + (k0 - 1.0) * ms_within
    if denominator <= 0.0:
        return 0.0
    return float((ms_between - ms_within) / denominator)


def as_clustering_summary(internet) -> Dict[str, float]:
    """How strongly per-/24 uncleanliness clusters at each aggregation
    level of a :class:`~repro.sim.internet.SyntheticInternet`.

    Returns three intraclass correlations:

    * ``icc_net16`` — /24s grouped by containing /16.  High in every
      world: the paper's §4.2 spatial correlation.
    * ``icc_as`` — /24s grouped by announcing AS.  In the flat world
      every /16 is its own stub AS, so this degenerates to
      ``icc_net16``.
    * ``icc_as16`` — the discriminating statistic: per-/16 *mean*
      uncleanliness grouped by AS.  Only an AS substrate makes distinct
      /16s of one operator resemble each other, so this is positive in
      AS-correlated worlds and exactly 0.0 in flat worlds (where the
      grouping is all singletons).
    """
    n16 = internet.slash16.size
    counts24 = np.bincount(internet.net16_index, minlength=n16)
    mean16 = (
        np.bincount(
            internet.net16_index, weights=internet.uncleanliness, minlength=n16
        )
        / np.maximum(counts24, 1)
    )
    return {
        "icc_as": within_group_icc(internet.as_of_net24, internet.uncleanliness),
        "icc_as16": within_group_icc(internet.topology.as_of_net16, mean16),
        "icc_net16": within_group_icc(
            internet.net16_index, internet.uncleanliness
        ),
        "num_as": float(internet.num_as),
        "num_net16": float(n16),
        "flat": float(internet.topology.flat),
    }
