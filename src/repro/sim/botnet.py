"""Discrete-time botnet ecosystem simulator.

Models the paper's generative assumptions (§1):

* **Opportunistic acquisition**: attackers compromise whatever is
  vulnerable; the probability that a compromise lands (and persists) in a
  network is driven by that network's uncleanliness, not by attacker
  choice.  New compromises arrive as a Poisson process over the whole
  study year and land in /24s weighted by
  ``population x uncleanliness^affinity``.
* **Defender-determined persistence**: how long a bot survives is a
  property of the victim network — clean institutions detect and reimage
  quickly, unclean ones don't (§1's institution A/B story).  Compromise
  durations are exponential with mean increasing in uncleanliness.  This
  is what produces *temporal* uncleanliness.
* **Botnet structure**: each compromise joins one of a set of C&C
  channels; a "provided bot report" is the membership of one or more
  channels during an observation window (how the paper's IRC-monitoring
  feed works).
* **Tasking**: while alive, a bot may be tasked with scanning and/or
  spamming; those activities are what the observed network's detectors
  see.

Everything is columnar over compromise events and deterministic given the
RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.engine.fingerprint import addendum_field
from repro.ipspace.addr import unique_sorted
from repro.sim.internet import SyntheticInternet
from repro.sim.timeline import Window

if False:  # pragma: no cover - import for type checkers only
    from repro.sim.dynamics import UncleanlinessProcess

__all__ = ["BotnetConfig", "BotnetSimulation"]


@dataclass(frozen=True)
class BotnetConfig:
    """Parameters of the botnet ecosystem."""

    #: Simulation horizon in days (day 0 = 2006-01-01).
    horizon_days: int = 334  # through 2006-11-30

    #: Mean new compromises per day across the whole Internet.
    daily_compromises: float = 650.0

    #: Uncleanliness affinity of successful compromise (see
    #: :meth:`SyntheticInternet.compromise_weights`).
    affinity: float = 1.7

    #: Compromise duration: mean = base + gain * uncleanliness (days).
    base_duration_days: float = 3.0
    duration_gain_days: float = 45.0

    #: Number of distinct C&C channels (botnets).
    num_channels: int = 12

    #: Per-bot probability of being tasked as a scanner / spammer.
    scanner_fraction: float = 0.55
    spammer_fraction: float = 0.65

    #: Blacklist evasion strength (Ramachandran et al., cited in §2): the
    #: degree to which attackers avoid compromising hosts inside networks
    #: they know to be blocklisted.  0 = indifferent (the default; the
    #: paper's attackers are opportunistic), 1 = never touch listed /24s.
    #: Only has an effect when the simulation is given ``avoided_blocks``.
    evasion_strength: float = 0.0

    #: Attack-wave modulation of the arrival process (Chen et al.,
    #: "Spatiotemporal patterns and predictability of cyberattacks"):
    #: daily compromise intensity becomes
    #: ``1 + wave_amplitude * cos(2*pi*(day - wave_phase_days)/period)``.
    #: 0.0 keeps the paper's homogeneous Poisson arrivals.  All fields
    #: below are fingerprint addenda (omitted at default).
    wave_amplitude: float = addendum_field(default=0.0)
    wave_period_days: float = addendum_field(default=28.0)
    wave_phase_days: float = addendum_field(default=0.0)

    #: DHCP/NAT lease length in days for compromises inside dynamic
    #: pools (InternetConfig.dynamic_fraction): the infected machine
    #: re-appears under a fresh address in the same /16 every lease
    #: epoch.  0 disables rebinding.
    rebind_days: float = addendum_field(default=0.0)

    def validate(self) -> None:
        if not 0 <= self.evasion_strength <= 1:
            raise ValueError("evasion_strength must be in [0, 1]")
        if self.horizon_days <= 0:
            raise ValueError("horizon_days must be positive")
        if self.daily_compromises <= 0:
            raise ValueError("daily_compromises must be positive")
        if self.affinity < 0:
            raise ValueError("affinity must be non-negative")
        if self.base_duration_days < 0 or self.duration_gain_days < 0:
            raise ValueError("duration parameters must be non-negative")
        if self.num_channels <= 0:
            raise ValueError("num_channels must be positive")
        for name in ("scanner_fraction", "spammer_fraction"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0 <= self.wave_amplitude < 1:
            raise ValueError("wave_amplitude must be in [0, 1)")
        if self.wave_period_days <= 0:
            raise ValueError("wave_period_days must be positive")
        if self.rebind_days < 0:
            raise ValueError("rebind_days must be non-negative")


class BotnetSimulation:
    """The realised compromise history: one row per compromise event."""

    def __init__(
        self,
        internet: SyntheticInternet,
        config: BotnetConfig,
        rng: np.random.Generator,
        avoided_blocks: Optional[np.ndarray] = None,
        dynamics: Optional["UncleanlinessProcess"] = None,
    ) -> None:
        """``avoided_blocks`` is a sorted array of /24 network integers
        (e.g. a published blocklist) that blacklist-aware attackers
        deprioritise by ``config.evasion_strength``.  ``dynamics``
        substitutes a time-varying uncleanliness field
        (:class:`repro.sim.dynamics.UncleanlinessProcess`) for the
        internet's static one: compromises then land and persist
        according to the field in force at their start day.
        """
        config.validate()
        self.internet = internet
        self.config = config
        self.dynamics = dynamics
        if dynamics is not None and dynamics.config.horizon_days < config.horizon_days:
            raise ValueError("dynamics horizon shorter than botnet horizon")
        self.avoided_blocks = (
            unique_sorted(np.asarray(avoided_blocks, dtype=np.uint32))
            if avoided_blocks is not None
            else None
        )
        self._generate(rng)

    def _apply_evasion(self, weights: np.ndarray) -> np.ndarray:
        cfg = self.config
        if self.avoided_blocks is not None and cfg.evasion_strength > 0:
            listed = np.isin(self.internet.net24, self.avoided_blocks)
            weights = np.where(
                listed, weights * (1.0 - cfg.evasion_strength), weights
            )
        return weights

    def _draw_start_days(self, total: int, rng: np.random.Generator) -> np.ndarray:
        """Compromise start days: uniform, or wave-modulated when the
        attack-wave knobs are set (gated so the default path's draw
        sequence is untouched)."""
        cfg = self.config
        if cfg.wave_amplitude <= 0:
            return rng.integers(0, cfg.horizon_days, size=total, dtype=np.int64)
        days = np.arange(cfg.horizon_days, dtype=np.float64)
        intensity = 1.0 + cfg.wave_amplitude * np.cos(
            2.0 * np.pi * (days - cfg.wave_phase_days) / cfg.wave_period_days
        )
        return rng.choice(
            cfg.horizon_days, size=total, p=intensity / intensity.sum()
        ).astype(np.int64)

    def _generate(self, rng: np.random.Generator) -> None:
        cfg = self.config
        total = rng.poisson(cfg.daily_compromises * cfg.horizon_days)
        if total == 0:
            raise RuntimeError("botnet simulation produced no compromises")

        if self.dynamics is None:
            weights = self._apply_evasion(
                self.internet.compromise_weights(cfg.affinity)
            )
            wsum = weights.sum()
            if wsum <= 0:
                raise RuntimeError("internet has no compromisable population")
            probs = weights / wsum
            self.network_index = rng.choice(
                self.internet.num_networks, size=total, p=probs
            )
        else:
            self.network_index = np.empty(total, dtype=np.int64)

        if self.dynamics is None:
            populations = self.internet.population[self.network_index].astype(np.float64)
            slots = (rng.random(total) * populations).astype(np.uint32)
            self.address = self.internet.net24[self.network_index] + (
                self.internet.host_offsets(slots)
            )
            self.start_day = self._draw_start_days(total, rng)
            unclean = self.internet.uncleanliness[self.network_index]
        else:
            # Time-varying field: draw start days first, then place each
            # epoch's compromises under that epoch's weights.
            self.start_day = self._draw_start_days(total, rng)
            epoch_days = self.dynamics.config.epoch_days
            epochs = self.start_day // epoch_days
            for epoch in unique_sorted(epochs):
                members = np.nonzero(epochs == epoch)[0]
                weights = self._apply_evasion(
                    self.dynamics.compromise_weights(
                        int(epoch) * epoch_days, cfg.affinity
                    )
                )
                wsum = weights.sum()
                if wsum <= 0:
                    raise RuntimeError(
                        f"no compromisable population in epoch {epoch}"
                    )
                self.network_index[members] = rng.choice(
                    self.internet.num_networks, size=members.size, p=weights / wsum
                )
            populations = self.internet.population[self.network_index].astype(np.float64)
            slots = (rng.random(total) * populations).astype(np.uint32)
            self.address = self.internet.net24[self.network_index] + (
                self.internet.host_offsets(slots)
            )
            unclean = self.dynamics.uncleanliness[
                self.start_day // epoch_days, self.network_index
            ]

        # Operator regime: the announcing AS's cleanup tempo scales the
        # compromise duration (all ones in the flat world, a bit-exact
        # multiplication); a mid-window prefix reassignment switches the
        # uncleanliness + tempo regime for events starting after it.
        duration_factor = self.internet.duration_factor[self.network_index]
        if self.dynamics is None and self.internet.reassignment_day >= 0:
            post = self.start_day >= self.internet.reassignment_day
            unclean = np.where(
                post,
                self.internet.uncleanliness_after[self.network_index],
                unclean,
            )
            duration_factor = np.where(
                post,
                self.internet.duration_factor_after[self.network_index],
                duration_factor,
            )

        mean_duration = (
            cfg.base_duration_days + cfg.duration_gain_days * unclean
        ) * duration_factor
        durations = np.maximum(1, rng.exponential(mean_duration).astype(np.int64))
        self.end_day = np.minimum(self.start_day + durations, cfg.horizon_days - 1)

        self.channel = rng.integers(0, cfg.num_channels, size=total, dtype=np.int64)
        self.is_scanner = rng.random(total) < cfg.scanner_fraction
        self.is_spammer = rng.random(total) < cfg.spammer_fraction

        if cfg.rebind_days > 0 and bool(self.internet.dynamic.any()):
            self._apply_rebinding(rng)

        for arr in (
            self.network_index,
            self.address,
            self.start_day,
            self.end_day,
            self.channel,
            self.is_scanner,
            self.is_spammer,
        ):
            arr.setflags(write=False)

    def _apply_rebinding(self, rng: np.random.Generator) -> None:
        """Split dynamic-pool compromises into DHCP lease segments.

        Each segment is a separate event row carrying a fresh address
        drawn inside the same /16's occupied pool; channel membership
        and tasking ride along with the machine, not the address.
        """
        from repro.sim.dynamics import rebind_segments

        owners, network_index, address, start_day, end_day = rebind_segments(
            self.internet,
            self.network_index,
            self.address,
            self.start_day,
            self.end_day,
            self.config.rebind_days,
            rng,
        )
        self.network_index = network_index
        self.address = address
        self.start_day = start_day
        self.end_day = end_day
        self.channel = self.channel[owners]
        self.is_scanner = self.is_scanner[owners]
        self.is_spammer = self.is_spammer[owners]

    # -- queries ---------------------------------------------------------

    @property
    def num_events(self) -> int:
        return int(self.address.size)

    def active_mask(self, window: Window) -> np.ndarray:
        """Events whose compromise interval overlaps ``window``."""
        return (self.start_day <= window.end_day) & (self.end_day >= window.start_day)

    def active_addresses(
        self,
        window: Window,
        channels: Optional[Sequence[int]] = None,
        scanners_only: bool = False,
        spammers_only: bool = False,
    ) -> np.ndarray:
        """Unique addresses of bots active during ``window``."""
        mask = self.active_mask(window)
        if channels is not None:
            mask &= np.isin(self.channel, np.asarray(list(channels)))
        if scanners_only:
            mask &= self.is_scanner
        if spammers_only:
            mask &= self.is_spammer
        return unique_sorted(self.address[mask])

    def channel_members(self, channel: int, window: Window) -> np.ndarray:
        """C&C channel membership during ``window`` (the IRC-feed view)."""
        if not 0 <= channel < self.config.num_channels:
            raise ValueError(f"no such channel: {channel}")
        return self.active_addresses(window, channels=[channel])

    def daily_active_count(self, day: int) -> int:
        """Number of live bots on one day."""
        window = Window(day, day)
        return int(self.active_mask(window).sum())

    def event_indices(self, window: Window) -> np.ndarray:
        """Indices of events overlapping ``window`` (for flow generation)."""
        return np.nonzero(self.active_mask(window))[0]

    # -- interventions -----------------------------------------------------

    def with_cleanup(
        self,
        channel: int,
        report_day: int,
        mean_cleanup_days: float,
        rng: np.random.Generator,
    ) -> "BotnetSimulation":
        """A copy where a published bot report triggers cleanup.

        Figure 1 of the paper shows botnet scanning dropping noticeably
        after the bot report circulates: once addresses are published,
        their owners (or upstreams) remediate.  This truncates the
        compromise interval of every bot in ``channel`` still alive on
        ``report_day`` to ``report_day`` plus an exponential lag.
        """
        clone = object.__new__(BotnetSimulation)
        clone.internet = self.internet
        clone.config = self.config
        clone.avoided_blocks = self.avoided_blocks
        clone.dynamics = self.dynamics
        for name in (
            "network_index",
            "address",
            "start_day",
            "channel",
            "is_scanner",
            "is_spammer",
        ):
            setattr(clone, name, getattr(self, name))
        end_day = self.end_day.copy()
        affected = (
            (self.channel == channel)
            & (self.start_day <= report_day)
            & (self.end_day > report_day)
        )
        count = int(affected.sum())
        if count:
            lags = np.maximum(
                1, rng.exponential(mean_cleanup_days, size=count).astype(np.int64)
            )
            end_day[affected] = np.minimum(
                end_day[affected], report_day + lags
            )
        end_day.setflags(write=False)
        clone.end_day = end_day
        return clone

    def __repr__(self) -> str:
        return (
            f"BotnetSimulation(events={self.num_events}, "
            f"channels={self.config.num_channels}, "
            f"horizon={self.config.horizon_days}d)"
        )
