"""Phishing-site placement simulator.

The paper finds that phishing behaves differently from bots (§5.2): past
*bot* activity does not predict future phishing, but past *phishing* does
predict future phishing (Fig. 5).  Its explanation: phishing sites must be
publicly reachable web servers able to survive a flash crowd, so phishers
prefer hosting/datacenter space rather than the unclean consumer space
where bots live — yet whatever selection pressure phishers follow is
itself stable over time.

This simulator reproduces exactly that structure: phishing sites are
placed on /24s weighted by :meth:`SyntheticInternet.hosting_weights`
(hosting-dominated, with only a weak pull toward unclean space) and
persist for weeks, so phishing clusters spatially and self-predicts
temporally while staying decoupled from the botnet's address distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ipspace.addr import unique_sorted
from repro.sim.internet import SyntheticInternet
from repro.sim.timeline import Window

__all__ = ["PhishingConfig", "PhishingSimulation"]


@dataclass(frozen=True)
class PhishingConfig:
    """Parameters of the phishing ecosystem."""

    #: Simulation horizon in days.
    horizon_days: int = 334

    #: Mean new phishing sites stood up per day.
    daily_sites: float = 35.0

    #: Mean site lifetime in days (sites persist until taken down).
    mean_lifetime_days: float = 25.0

    #: Pull toward unclean space (compromised web servers); small by design.
    uncleanliness_pull: float = 0.08

    def validate(self) -> None:
        if self.horizon_days <= 0:
            raise ValueError("horizon_days must be positive")
        if self.daily_sites <= 0:
            raise ValueError("daily_sites must be positive")
        if self.mean_lifetime_days <= 0:
            raise ValueError("mean_lifetime_days must be positive")


class PhishingSimulation:
    """The realised phishing-site history: one row per site."""

    def __init__(
        self,
        internet: SyntheticInternet,
        config: PhishingConfig,
        rng: np.random.Generator,
    ) -> None:
        config.validate()
        self.internet = internet
        self.config = config
        self._generate(rng)

    def _generate(self, rng: np.random.Generator) -> None:
        cfg = self.config
        total = rng.poisson(cfg.daily_sites * cfg.horizon_days)
        if total == 0:
            raise RuntimeError("phishing simulation produced no sites")

        weights = self.internet.hosting_weights(cfg.uncleanliness_pull)
        probs = weights / weights.sum()
        self.network_index = rng.choice(self.internet.num_networks, size=total, p=probs)
        populations = self.internet.population[self.network_index].astype(np.float64)
        slots = (rng.random(total) * populations).astype(np.uint32)
        self.address = self.internet.net24[self.network_index] + (
            self.internet.host_offsets(slots)
        )

        self.start_day = rng.integers(0, cfg.horizon_days, size=total, dtype=np.int64)
        lifetimes = np.maximum(
            1, rng.exponential(cfg.mean_lifetime_days, size=total).astype(np.int64)
        )
        self.end_day = np.minimum(self.start_day + lifetimes, cfg.horizon_days - 1)

        for arr in (self.network_index, self.address, self.start_day, self.end_day):
            arr.setflags(write=False)

    @property
    def num_sites(self) -> int:
        return int(self.address.size)

    def active_mask(self, window: Window) -> np.ndarray:
        """Sites live at any point during ``window``."""
        return (self.start_day <= window.end_day) & (self.end_day >= window.start_day)

    def active_addresses(self, window: Window) -> np.ndarray:
        """Unique addresses hosting a live phishing site during ``window``."""
        return unique_sorted(self.address[self.active_mask(window)])

    def __repr__(self) -> str:
        return f"PhishingSimulation(sites={self.num_sites})"
