"""Phishing report lists.

The paper's ``phish`` report is a provided list aggregated from user
submissions and spam traps (§3.1, citing the CastleCops PIRT service).
Such lists are incomplete (not every site gets reported) and lagged (a
site must be noticed before it is listed).  This module models both
effects over the simulated phishing-site history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.ipspace.addr import unique_sorted
from repro.sim.phishing import PhishingSimulation
from repro.sim.timeline import Window

__all__ = ["PhishListConfig", "PhishListAggregator"]


@dataclass(frozen=True)
class PhishListConfig:
    """Aggregation parameters."""

    #: Probability a live site is ever reported to the list.
    report_probability: float = 0.8

    #: Mean days between a site going live and its listing.
    mean_report_lag_days: float = 3.0

    def validate(self) -> None:
        if not 0 < self.report_probability <= 1:
            raise ValueError("report_probability must be in (0, 1]")
        if self.mean_report_lag_days < 0:
            raise ValueError("mean_report_lag_days must be non-negative")


class PhishListAggregator:
    """Produces provided-style phishing reports from the site history."""

    def __init__(self, config: PhishListConfig = PhishListConfig()) -> None:
        config.validate()
        self.config = config

    def observe(
        self,
        phishing: PhishingSimulation,
        window: Window,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Unique site addresses listed during ``window``.

        A site appears on the list if it is reported (with the configured
        probability) and its listing day — go-live day plus an exponential
        lag, capped at its takedown day — falls inside ``window``.
        """
        with obs.instrument("detect.phishlist"):
            reported = rng.random(phishing.num_sites) < self.config.report_probability
            lags = rng.exponential(
                max(self.config.mean_report_lag_days, 1e-9), size=phishing.num_sites
            ).astype(np.int64)
            listing_day = np.minimum(phishing.start_day + lags, phishing.end_day)
            in_window = (listing_day >= window.start_day) & (
                listing_day <= window.end_day
            )
            listed = unique_sorted(phishing.address[reported & in_window])
        obs.metrics.inc("detect.phishlist.addresses", int(listed.size))
        return listed
