"""Address-structure profiling, after Kohler et al.

The paper's empirical control estimate exists because "IP addresses are
not evenly distributed across IPv4 space" (Kohler et al., cited in §4.2):
a uniform model badly over-disperses.  This module measures that
structure so the claim can be checked on any address set — including the
synthetic Internet itself, whose generator is validated against the two
qualitative signatures of real address populations:

* **sub-exponential aggregation growth** — for uniform addresses the
  number of occupied blocks doubles with every added prefix bit until
  saturation; real populations grow much more slowly (mass is
  concentrated in few blocks);
* **low occupancy entropy** — addresses are unevenly spread over the
  occupied blocks, so the normalised Shannon entropy of the per-block
  address counts sits well below 1 at the prefix lengths where structure
  lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.ipspace.addr import AddressLike, as_array, unique_sorted
from repro.ipspace.cidr import mask_array

__all__ = ["StructureProfile", "profile_addresses"]

#: Prefix lengths profiled by default (octet boundaries plus the paper's
#: analysis band).
DEFAULT_PREFIXES = tuple(range(8, 33, 2))


@dataclass(frozen=True)
class StructureProfile:
    """Aggregation structure of one address set."""

    address_count: int
    prefixes: tuple
    block_counts: Dict[int, int]
    occupancy_entropy: Dict[int, float]  # normalised, in [0, 1]

    def growth_ratios(self) -> Dict[int, float]:
        """Block-count growth per step between consecutive profiled
        prefixes, normalised to a per-bit rate (2.0 = uniform doubling)."""
        ratios = {}
        for a, b in zip(self.prefixes, self.prefixes[1:]):
            bits = b - a
            if self.block_counts[a] == 0:
                continue
            total = self.block_counts[b] / self.block_counts[a]
            ratios[a] = total ** (1.0 / bits)
        return ratios

    def mean_growth(self, lo: int = 16, hi: int = 24) -> float:
        """Mean per-bit growth over the unsaturated analysis band."""
        values = [
            ratio for prefix, ratio in self.growth_ratios().items()
            if lo <= prefix < hi
        ]
        if not values:
            raise ValueError(f"no profiled prefixes in [{lo}, {hi})")
        return float(np.mean(values))

    def mean_entropy(self, lo: int = 16, hi: int = 24) -> float:
        """Mean normalised occupancy entropy over the analysis band."""
        values = [
            self.occupancy_entropy[prefix]
            for prefix in self.prefixes
            if lo <= prefix < hi
        ]
        if not values:
            raise ValueError(f"no profiled prefixes in [{lo}, {hi})")
        return float(np.mean(values))

    def unsaturated_growth(self) -> Optional[float]:
        """Mean per-bit growth over the *collision-dominated* steps.

        Growth is only informative while the available blocks are scarce
        relative to the addresses (block count under a quarter of the
        address count); once each address sits in its own block the curve
        flattens for uniform and structured sets alike.  Returns None
        when no profiled step qualifies.
        """
        values = [
            ratio
            for prefix, ratio in self.growth_ratios().items()
            if self.block_counts[self._next_prefix(prefix)]
            < 0.25 * self.address_count
        ]
        if not values:
            return None
        return float(np.mean(values))

    def _next_prefix(self, prefix: int) -> int:
        position = self.prefixes.index(prefix)
        return self.prefixes[position + 1]

    def looks_uniform(self, growth_floor: float = 1.85, entropy_floor: float = 0.97) -> bool:
        """Uniform signature: near-doubling unsaturated growth AND
        near-max occupancy entropy at the shortest profiled prefix.

        Returns False when the profile has no unsaturated step to judge.
        """
        growth = self.unsaturated_growth()
        if growth is None:
            return False
        shortest = self.prefixes[0]
        return (
            growth >= growth_floor
            and self.occupancy_entropy[shortest] >= entropy_floor
        )

    def rows(self) -> list:
        growth = self.growth_ratios()
        return [
            {
                "prefix": n,
                "blocks": self.block_counts[n],
                "per_bit_growth": round(growth[n], 3) if n in growth else "-",
                "occupancy_entropy": round(self.occupancy_entropy[n], 3),
            }
            for n in self.prefixes
        ]


def profile_addresses(
    addresses: Iterable[AddressLike],
    prefixes: Sequence[int] = DEFAULT_PREFIXES,
) -> StructureProfile:
    """Profile the aggregation structure of an address set."""
    arr = unique_sorted(as_array(addresses))
    if arr.size == 0:
        raise ValueError("cannot profile an empty address set")
    prefixes = tuple(sorted(prefixes))

    block_counts: Dict[int, int] = {}
    entropy: Dict[int, float] = {}
    for n in prefixes:
        masked = mask_array(arr, n)
        _, counts = np.unique(masked, return_counts=True)
        block_counts[n] = int(counts.size)
        if counts.size <= 1:
            entropy[n] = 1.0 if counts.size == 1 else 0.0
            continue
        p = counts / counts.sum()
        h = float(-(p * np.log(p)).sum())
        entropy[n] = h / float(np.log(counts.size))
    return StructureProfile(
        address_count=int(arr.size),
        prefixes=prefixes,
        block_counts=block_counts,
        occupancy_entropy=entropy,
    )
