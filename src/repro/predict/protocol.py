"""The :class:`Predictor` protocol: rival blocklist models, one contract.

The paper evaluates exactly one predictor — CIDR-aggregated
uncleanliness (§5-§7) — but its evaluation machinery (equal-cardinality
Monte-Carlo controls, Table-3 hit counting, ROC analysis) is generic in
the *predicted block set*, not in how it was produced.  This module
fixes the seam: a predictor is anything that

* ``fit(reports, window)`` — learns from a mapping of tagged past
  :class:`~repro.core.report.Report`\\ s (the training feeds) and an
  optional :class:`~repro.sim.timeline.Window` anchoring "now";
* ``score_blocks(prefix_len)`` — returns a :class:`BlockRanking`:
  per-CIDR-block scores in ``[0, 1]`` at any prefix length;
* ``rank(prefix_len, count)`` — the blocks in descending-score order
  (ties broken by ascending block, so rankings are total and
  deterministic);
* ``fingerprint()`` — a stable content hash of the model *and* what it
  was fitted on, which keys every evaluation cache.

Predictors are deterministic by contract: no RNG anywhere, identical
inputs give bit-identical scores.  The evaluators in
:mod:`repro.predict.evaluate` consume only this surface, which is what
lets the §5/§6 experiments run head-to-head over rival models
(:mod:`repro.predict.recommender`, :mod:`repro.predict.graphcluster`)
with the adapted paper model (:mod:`repro.predict.uncleanliness`) as
the baseline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.report import Report
from repro.engine.fingerprint import fingerprint as _fingerprint
from repro.ipspace.addr import AddressLike, unique_sorted
from repro.ipspace.cidr import CIDRBlock, mask_address
from repro.sim.timeline import Window, day_to_date

try:  # Protocol is typing-only; runtime dispatch uses the base class.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - python < 3.8
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


__all__ = [
    "PREDICT_VERSION",
    "NotFittedError",
    "BlockRanking",
    "Predictor",
    "BasePredictor",
]

#: Bump when the fingerprint canonical form (not a model) changes, so
#: stale cached evaluations miss instead of aliasing.
PREDICT_VERSION = 1


class NotFittedError(ValueError):
    """A score/rank call on a predictor that has not been fitted."""


@dataclass(frozen=True)
class BlockRanking:
    """Per-block scores at one prefix length — a predictor's output.

    ``blocks`` is a sorted ``uint32`` array of masked network addresses
    and ``scores`` the aligned float scores in ``[0, 1]``.  The ranking
    order is *total*: descending score, ties broken by ascending block,
    so two predictors producing the same scores rank identically.
    """

    prefix_len: int
    blocks: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        blocks = np.ascontiguousarray(self.blocks, dtype=np.uint32)
        scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        if blocks.shape != scores.shape or blocks.ndim != 1:
            raise ValueError(
                f"blocks {blocks.shape} and scores {scores.shape} must be "
                "aligned 1-D arrays"
            )
        if blocks.size and np.any(np.diff(blocks.astype(np.int64)) <= 0):
            raise ValueError("blocks must be strictly increasing")
        blocks.setflags(write=False)
        scores.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return int(self.blocks.size)

    # -- lookups ---------------------------------------------------------

    def score_of(self, address: AddressLike) -> float:
        """Score of the block containing ``address`` (0 if unranked)."""
        net = np.uint32(mask_address(address, self.prefix_len))
        idx = int(np.searchsorted(self.blocks, net))
        if idx < self.blocks.size and self.blocks[idx] == net:
            return float(self.scores[idx])
        return 0.0

    def scores_of(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`score_of` over a ``uint32`` address array."""
        from repro.ipspace.cidr import mask_array

        nets = mask_array(np.asarray(addresses, dtype=np.uint32),
                          self.prefix_len)
        idx = np.searchsorted(self.blocks, nets)
        idx = np.minimum(idx, max(self.blocks.size - 1, 0))
        out = np.zeros(nets.shape, dtype=np.float64)
        if self.blocks.size:
            hit = self.blocks[idx] == nets
            out[hit] = self.scores[idx[hit]]
        return out

    # -- ordering --------------------------------------------------------

    def order(self) -> np.ndarray:
        """Indices into ``blocks`` in ranking order (score desc, block asc)."""
        return np.lexsort((self.blocks, -self.scores))

    def ranked_blocks(self, count: Optional[int] = None) -> np.ndarray:
        """The block networks in ranking order, optionally truncated."""
        ranked = self.blocks[self.order()]
        if count is not None:
            ranked = ranked[: max(int(count), 0)]
        return ranked

    def support(self, min_score: float = 0.0) -> np.ndarray:
        """Sorted block networks scoring strictly above ``min_score`` —
        the predicted block *set* the §5/§6 evaluators intersect."""
        return self.blocks[self.scores > min_score]

    def top(self, count: int) -> List[dict]:
        """The ``count`` best blocks as display rows."""
        order = self.order()[: max(int(count), 0)]
        return [
            {
                "block": str(CIDRBlock(int(self.blocks[i]), self.prefix_len)),
                "score": round(float(self.scores[i]), 4),
            }
            for i in order
        ]

    def blocklist(self, threshold: float) -> List[CIDRBlock]:
        """Blocks whose score meets ``threshold`` — a deployable list."""
        chosen = self.blocks[self.scores >= threshold]
        return [CIDRBlock(int(net), self.prefix_len) for net in chosen]


@runtime_checkable
class Predictor(Protocol):
    """Structural type of a blocklist predictor (see module docstring)."""

    name: str

    def fit(
        self, reports: Mapping[str, Report], window: Optional[Window] = None
    ) -> "Predictor":  # pragma: no cover - protocol
        ...

    def score_blocks(self, prefix_len: int) -> BlockRanking:  # pragma: no cover
        ...

    def rank(
        self, prefix_len: int = 24, count: Optional[int] = None
    ) -> np.ndarray:  # pragma: no cover - protocol
        ...

    def fingerprint(self) -> str:  # pragma: no cover - protocol
        ...


def _report_digest(report: Report) -> str:
    """Content hash of one training report (addresses + identity)."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(report.addresses).tobytes())
    return digest.hexdigest()[:24]


class BasePredictor:
    """Shared plumbing for concrete predictors.

    Subclasses set a class-level ``name``, implement ``params()``
    (plain-data hyperparameters — these feed the fingerprint) and
    ``_score_blocks(prefix_len)`` (the model itself, reading
    ``self.training`` / ``self.window``).  The base class owns fit-state
    validation, per-prefix ranking caching, ranking order and the
    content fingerprint, so every model fingerprints and caches the
    same way.
    """

    name = "base"

    def __init__(self) -> None:
        self._training: Optional[Tuple[Tuple[str, Report], ...]] = None
        self._window: Optional[Window] = None
        self._rankings: Dict[int, BlockRanking] = {}
        self._training_addresses: Optional[np.ndarray] = None

    # -- subclass surface -------------------------------------------------

    def params(self) -> dict:
        """Hyperparameters as plain data (fingerprinted)."""
        return {}

    def _score_blocks(self, prefix_len: int) -> BlockRanking:
        raise NotImplementedError

    # -- protocol ---------------------------------------------------------

    def fit(
        self, reports: Mapping[str, Report], window: Optional[Window] = None
    ) -> "BasePredictor":
        """Learn from tagged past reports; returns ``self``.

        ``reports`` must be non-empty; tags are ordered lexically so the
        fitted state (and fingerprint) is independent of mapping order.
        ``window`` anchors "now" for models with temporal decay; the
        window's end day is the prediction horizon.
        """
        if not reports:
            raise ValueError("at least one training report is required")
        for tag, report in reports.items():
            if not isinstance(report, Report):
                raise TypeError(
                    f"training report {tag!r} is {type(report).__name__}, "
                    "expected Report"
                )
            if len(report) == 0:
                raise ValueError(f"training report {tag!r} is empty")
        self._training = tuple(sorted(reports.items()))
        self._window = window
        self._rankings = {}
        self._training_addresses = None
        return self

    @property
    def fitted(self) -> bool:
        return self._training is not None

    @property
    def training(self) -> Dict[str, Report]:
        """The fitted training reports (tag-sorted)."""
        self._require_fitted()
        return dict(self._training)

    @property
    def window(self) -> Optional[Window]:
        return self._window

    @property
    def training_addresses(self) -> np.ndarray:
        """Union of all training addresses (computed lazily, cached) —
        the equal-cardinality budget the §5 control draws must match."""
        self._require_fitted()
        if self._training_addresses is None:
            arrays = [report.addresses for _, report in self._training]
            union = arrays[0] if len(arrays) == 1 else unique_sorted(
                np.concatenate(arrays)
            )
            self._training_addresses = union
        return self._training_addresses

    @property
    def training_cardinality(self) -> int:
        return int(self.training_addresses.size)

    def score_blocks(self, prefix_len: int) -> BlockRanking:
        """Per-block scores at ``prefix_len`` (cached per prefix)."""
        self._require_fitted()
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {prefix_len}")
        ranking = self._rankings.get(prefix_len)
        if ranking is None:
            ranking = self._score_blocks(prefix_len)
            self._rankings[prefix_len] = ranking
        return ranking

    def rank(
        self, prefix_len: int = 24, count: Optional[int] = None
    ) -> np.ndarray:
        """Blocks in ranking order (score desc, block asc)."""
        return self.score_blocks(prefix_len).ranked_blocks(count)

    def fingerprint(self) -> str:
        """Content hash of the model, its parameters and its training.

        Two predictors agree iff they share the model name and version,
        every hyperparameter, the training window, and the exact
        training report contents — the key under which evaluations are
        cached (so rival models over one scenario never collide).
        """
        identity = {
            "predict_version": PREDICT_VERSION,
            "predictor": self.name,
            "params": self.params(),
            "window": self._window,
            "reports": None if self._training is None else [
                [tag, _report_digest(report), len(report),
                 report.period]
                for tag, report in self._training
            ],
        }
        return _fingerprint(identity)

    # -- helpers ----------------------------------------------------------

    def _require_fitted(self) -> None:
        if self._training is None:
            raise NotFittedError(
                f"{type(self).__name__} must be fit(reports, window) "
                "before scoring"
            )

    def _reference_date(self):
        """The "now" the temporal models decay towards: the window's end
        date, else the newest training-period end, else ``None``."""
        if self._window is not None:
            return day_to_date(self._window.end_day)
        ends = [
            report.period[1]
            for _, report in (self._training or ())
            if report.period is not None
        ]
        return max(ends) if ends else None

    def __repr__(self) -> str:
        state = "unfitted"
        if self._training is not None:
            tags = ",".join(tag for tag, _ in self._training)
            state = f"fitted on [{tags}]"
        return f"{type(self).__name__}(name={self.name!r}, {state})"
