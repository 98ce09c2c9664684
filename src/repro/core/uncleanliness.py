"""A multidimensional uncleanliness metric.

The paper's conclusion (§7) sketches its follow-on goal: "a more rigorous
and precise uncleanliness metric ... a multidimensional uncleanliness
metric to measure the aggregate probability that an address is occupied",
motivated by the finding that the indicators are *not* one-dimensional —
bots, scanning and spamming move together while phishing follows its own
geography (§5.2).

This module provides that forward-looking API: per-CIDR-block scores that
aggregate evidence from multiple report classes, keeping each dimension
visible so that bot-like and phishing-like uncleanliness can be weighted
(or inspected) separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.core import cidr as rcidr
from repro.core.report import Report
from repro.ipspace.addr import AddressLike, unique_sorted
from repro.ipspace.cidr import CIDRBlock, mask_address
from repro.ipspace.cidr import mask_array as _mask

__all__ = ["BlockScores", "UncleanlinessScorer", "block_jaccard"]

#: Default per-class weights: bots and their activity classes co-move
#: (Figure 4), phishing is an independent dimension (Figure 5), and
#: observed C&C rendezvous (the §7 extension indicator) is conclusive
#: evidence of occupation.
_DEFAULT_WEIGHTS = {
    "bots": 1.0,
    "scanning": 0.8,
    "spam": 0.8,
    "phishing": 0.5,
    "cnc": 1.0,
}


@dataclass(frozen=True)
class BlockScores:
    """Scored CIDR blocks: one row per block seen in any input report."""

    prefix_len: int
    blocks: np.ndarray  # sorted masked network ints
    class_counts: Dict[str, np.ndarray]  # per-class address counts per block
    scores: np.ndarray  # aggregate score per block, in [0, 1]

    def score_of(self, address: AddressLike) -> float:
        """Aggregate score of the block containing ``address`` (0 if unseen)."""
        net = np.uint32(mask_address(address, self.prefix_len))
        idx = int(np.searchsorted(self.blocks, net))
        if idx < self.blocks.size and self.blocks[idx] == net:
            return float(self.scores[idx])
        return 0.0

    def dimensions_of(self, address: AddressLike) -> Dict[str, int]:
        """Per-class address counts for the block containing ``address``."""
        net = np.uint32(mask_address(address, self.prefix_len))
        idx = int(np.searchsorted(self.blocks, net))
        if idx < self.blocks.size and self.blocks[idx] == net:
            return {cls: int(col[idx]) for cls, col in self.class_counts.items()}
        return {cls: 0 for cls in self.class_counts}

    def top(self, count: int) -> List[dict]:
        """The ``count`` most unclean blocks, with per-class evidence."""
        order = np.argsort(self.scores)[::-1][:count]
        rows = []
        for idx in order:
            row = {
                "block": str(CIDRBlock(int(self.blocks[idx]), self.prefix_len)),
                "score": round(float(self.scores[idx]), 4),
            }
            for cls, col in self.class_counts.items():
                row[cls] = int(col[idx])
            rows.append(row)
        return rows

    def blocklist(self, threshold: float) -> List[CIDRBlock]:
        """Blocks whose score meets ``threshold`` — a deployable blocklist."""
        chosen = self.blocks[self.scores >= threshold]
        return [CIDRBlock(int(net), self.prefix_len) for net in chosen]

    def __len__(self) -> int:
        return int(self.blocks.size)


class UncleanlinessScorer:
    """Aggregates report classes into per-block uncleanliness scores.

    Each class contributes a saturating evidence term
    ``1 - (1 + count)^(-1)``-style via ``log1p`` normalisation, so one
    spammer does not equal thirty, but thirty does not equal three
    thousand either; class terms combine through a weighted
    noisy-OR, reflecting "aggregate probability that an address is
    occupied" (§7).
    """

    def __init__(
        self,
        prefix_len: int = 24,
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {prefix_len}")
        self.prefix_len = prefix_len
        self.weights = dict(weights) if weights is not None else dict(_DEFAULT_WEIGHTS)
        for cls, weight in self.weights.items():
            if weight < 0:
                raise ValueError(f"negative weight for class {cls!r}")

    def score(self, reports: Mapping[str, Report]) -> BlockScores:
        """Score every block touched by any of ``reports``.

        ``reports`` maps a class name (must appear in the scorer's
        weights) to the report providing that dimension's evidence.
        """
        unknown = set(reports) - set(self.weights)
        if unknown:
            raise ValueError(f"no weights for report classes: {sorted(unknown)}")
        if not reports:
            raise ValueError("at least one report is required")

        all_blocks = unique_sorted(
            np.concatenate(
                [rcidr.cidr_set(report, self.prefix_len) for report in reports.values()]
            )
        )
        class_counts: Dict[str, np.ndarray] = {}
        for cls, report in reports.items():
            masked = np.sort(_mask(report.addresses, self.prefix_len))
            # Count addresses per block via searchsorted range boundaries.
            left = np.searchsorted(masked, all_blocks, side="left")
            right = np.searchsorted(masked, all_blocks, side="right")
            class_counts[cls] = (right - left).astype(np.int64)

        # Noisy-OR over per-class saturating evidence.
        miss_probability = np.ones(all_blocks.size, dtype=np.float64)
        for cls, counts in class_counts.items():
            evidence = 1.0 - np.exp(-counts / 4.0)  # saturates around ~12 addrs
            miss_probability *= 1.0 - np.clip(self.weights[cls], 0, 1) * evidence
        scores = 1.0 - miss_probability

        return BlockScores(
            prefix_len=self.prefix_len,
            blocks=all_blocks,
            class_counts=class_counts,
            scores=scores,
        )


def block_jaccard(first: Report, second: Report, prefix_len: int) -> float:
    """Jaccard similarity of two reports' block sets at ``prefix_len``.

    A compact cross-relationship measure: bots/scan/spam pairs score far
    higher than any pairing with phishing (§5.2's multidimensionality
    finding).
    """
    a = rcidr.cidr_set(first, prefix_len)
    b = rcidr.cidr_set(second, prefix_len)
    common = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - common
    if union == 0:
        return 0.0
    return float(common / union)
