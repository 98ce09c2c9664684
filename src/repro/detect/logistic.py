"""Logistic-regression scan classification (Gates et al., ISCC 2006).

The paper's scanning class cites two detection methods: the threshold
technique of the CERT report (implemented in :mod:`repro.detect.scan`)
and "scan detection on very large networks using logistic regression
modeling" — a trained classifier over per-source behavioural features.
This module implements that approach end to end, with no ML dependency:

* :func:`extract_features` reduces a flow log to one feature vector per
  source (log fan-out, failed-connection fraction, destination-port
  concentration, packets per flow, payload fraction, address spread);
* :class:`LogisticScanModel` is a from-scratch logistic regression
  (gradient descent with L2 regularisation and feature standardisation);
* :meth:`LogisticScanModel.fit_from_truth` trains against a labelled
  border capture, and :meth:`detect` applies the fitted model to any
  capture at a chosen decision threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.flows.kernels import distinct_per_group, pack64, repeat_offsets
from repro.flows.log import FlowLog
from repro.flows.record import Protocol, TCPFlags

__all__ = ["FEATURE_NAMES", "extract_features", "LogisticScanModel"]

FEATURE_NAMES = (
    "log_fanout",  # log(1 + distinct destinations)
    "failed_fraction",  # flows with no ACK
    "port_concentration",  # max share of one destination port
    "log_packets_per_flow",
    "payload_fraction",  # payload-bearing flow share
    "dst_spread",  # distinct /24s touched / distinct destinations
)


def extract_features(flows: FlowLog) -> Tuple[np.ndarray, np.ndarray]:
    """Per-source feature matrix over the TCP flows of a capture.

    Returns ``(sources, X)`` where ``sources`` is the sorted unique
    source array and ``X`` has one row per source in that order.
    """
    tcp = flows.select(flows.protocol == Protocol.TCP)
    if len(tcp) == 0:
        return np.asarray([], dtype=np.uint32), np.zeros((0, len(FEATURE_NAMES)))

    sources, inverse = np.unique(tcp.src_addr, return_inverse=True)
    count = sources.size
    flow_counts = np.bincount(inverse, minlength=count)
    flow_totals = flow_counts.astype(np.float64)

    # Distinct destinations / destination-/24s per source.
    starts = repeat_offsets(flow_counts)[:-1]
    fanout = distinct_per_group(pack64(inverse, tcp.dst_addr), starts).astype(
        np.float64
    )
    net_fanout = distinct_per_group(
        pack64(inverse, tcp.dst_addr >> 8), starts
    ).astype(np.float64)

    failed = np.bincount(
        inverse,
        weights=((tcp.tcp_flags & TCPFlags.ACK) == 0).astype(np.float64),
        minlength=count,
    )
    packets = np.bincount(
        inverse, weights=tcp.packets.astype(np.float64), minlength=count
    )
    payload = np.bincount(
        inverse,
        weights=tcp.payload_bearing_mask().astype(np.float64),
        minlength=count,
    )

    # Port concentration: share of the source's flows on its busiest port.
    port_keys = inverse * 65536 + tcp.dst_port.astype(np.int64)
    unique_keys, key_counts = np.unique(port_keys, return_counts=True)
    key_sources = unique_keys // 65536
    top_port = np.zeros(count, dtype=np.float64)
    np.maximum.at(top_port, key_sources, key_counts.astype(np.float64))

    features = np.column_stack(
        [
            np.log1p(fanout),
            failed / flow_totals,
            top_port / flow_totals,
            np.log1p(packets / flow_totals),
            payload / flow_totals,
            net_fanout / np.maximum(fanout, 1.0),
        ]
    )
    return sources.astype(np.uint32), features


@dataclass
class LogisticScanModel:
    """Binary logistic regression over :data:`FEATURE_NAMES`."""

    learning_rate: float = 0.5
    iterations: int = 400
    l2: float = 1e-3
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must be in (0, 1)")
        self.weights: Optional[np.ndarray] = None
        self.bias: float = 0.0
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None

    # -- training ----------------------------------------------------------

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LogisticScanModel":
        """Gradient-descent fit on a feature matrix and boolean labels."""
        if features.ndim != 2 or features.shape[1] != len(FEATURE_NAMES):
            raise ValueError(
                f"feature matrix must be (n, {len(FEATURE_NAMES)})"
            )
        y = np.asarray(labels, dtype=np.float64)
        if y.shape != (features.shape[0],):
            raise ValueError("labels length must match feature rows")
        if y.min() == y.max():
            raise ValueError("training data needs both classes")

        self._mean = features.mean(axis=0)
        self._std = np.maximum(features.std(axis=0), 1e-9)
        x = (features - self._mean) / self._std

        n = x.shape[0]
        w = np.zeros(x.shape[1])
        b = 0.0
        for _ in range(self.iterations):
            z = x @ w + b
            p = 1.0 / (1.0 + np.exp(-z))
            error = p - y
            grad_w = x.T @ error / n + self.l2 * w
            grad_b = float(error.mean())
            w -= self.learning_rate * grad_w
            b -= self.learning_rate * grad_b
        self.weights = w
        self.bias = b
        return self

    def fit_from_truth(
        self, flows: FlowLog, scanner_truth: np.ndarray
    ) -> "LogisticScanModel":
        """Fit against a capture whose scanner sources are known."""
        sources, features = extract_features(flows)
        labels = np.isin(sources, np.asarray(scanner_truth, dtype=np.uint32))
        self.fit(features, labels)
        return self

    # -- inference ------------------------------------------------------------

    def _require_fitted(self) -> None:
        if self.weights is None:
            raise RuntimeError("model is not fitted")

    def predict_probability(self, features: np.ndarray) -> np.ndarray:
        """P(scanner) per feature row."""
        self._require_fitted()
        x = (features - self._mean) / self._std
        return 1.0 / (1.0 + np.exp(-(x @ self.weights + self.bias)))

    def score_sources(self, flows: FlowLog) -> Dict[int, float]:
        """P(scanner) per source address of a capture."""
        sources, features = extract_features(flows)
        if sources.size == 0:
            return {}
        probabilities = self.predict_probability(features)
        return {int(s): float(p) for s, p in zip(sources, probabilities)}

    def detect(self, flows: FlowLog) -> np.ndarray:
        """Sorted unique sources classified as scanners."""
        with obs.instrument("detect.logistic", events=len(flows)):
            sources, features = extract_features(flows)
            if sources.size == 0:
                return sources
            probabilities = self.predict_probability(features)
            return sources[probabilities >= self.threshold]

    def coefficients(self) -> List[dict]:
        """Fitted weights per feature (standardised scale)."""
        self._require_fitted()
        return [
            {"feature": name, "weight": round(float(w), 4)}
            for name, w in zip(FEATURE_NAMES, self.weights)
        ]
