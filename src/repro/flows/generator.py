"""Border traffic generator for the observed edge network.

Produces the NetFlow log that the paper's observed reports and §6 blocking
analysis are computed from: every inbound flow crossing the observed
network's border during a window, from six traffic populations.

* **Benign clients** — external hosts using the observed network's public
  servers.  Sampled population-weighted but damped by uncleanliness
  (legitimate audiences, per the locality argument of McHugh & Gates the
  paper leans on, come disproportionately from well-run networks).
  Payload-bearing TCP.
* **Fast scanners** — tasked scanner bots sweeping the observed network:
  SYN-only bursts inside an hour, dozens-to-hundreds of targets.  The
  3-packet SYN flows carry 52 bytes/packet (options), reproducing the
  paper's "36 bytes of payload but no ACK" artifact (§6.1).
* **Slow scanners** — bots probing under 30 targets/day, below the scan
  detector's hourly calibration; the paper found exactly these in its
  unknown class (§6.2).
* **Spammers** — tasked spammer bots delivering mail to the observed
  network's MX hosts on port 25 (payload-bearing).
* **Ephemeral talkers** — bots opening ephemeral-port-to-ephemeral-port
  connections that never exchange payload; the other §6.2 unknown-class
  behaviour.
* **Background suspicious hosts** — compromised machines in unclean
  networks that none of the four feeds enumerate, probing quietly.  Real
  unclean space harbours far more suspicious hosts than any report
  catalogue; this population is why the paper's unknown class (708
  addresses) dwarfs its hostile class (287).

Participation rates for *loud* activity (sweeps, spam runs) are low by
design: a bot sprays the entire Internet, so one vantage — even a /8 —
sees only a small slice of the world's scanners and spammers in any two
weeks.  Quiet background probing, in contrast, is pervasive.

Flows are generated as numpy column chunks, one batch per *population*
(not per actor): day sampling, per-day intensities and per-flow fields
are all drawn as flat arrays over every event at once, expanded with the
segment kernels of :mod:`repro.flows.kernels`, so two-week windows with
a million flows cost a handful of array operations rather than one
Python iteration per bot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.engine.fingerprint import addendum_field
from repro.flows.kernels import sample_day_segments
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.flows.log import COLUMN_DTYPES, FlowLog
from repro.flows.record import Protocol, TCPFlags
from repro.ipspace.addr import unique_sorted
from repro.sim.botnet import BotnetSimulation
from repro.sim.internet import SyntheticInternet
from repro.sim.timeline import DAY_SECONDS, Window

__all__ = ["TrafficConfig", "BorderTraffic", "TrafficGenerator"]

#: Well-known destination ports benign clients use.
_SERVICE_PORTS = np.asarray([80, 443, 25, 110, 143, 53, 22], dtype=np.uint16)

#: Ports commonly swept by scanners (Windows services, DBs, remote shells).
_SCAN_PORTS = np.asarray([135, 139, 445, 80, 1433, 3306, 22, 23, 5900], dtype=np.uint16)

_EPHEMERAL_LOW = 1024

#: Flag mask of a completed, data-carrying TCP session.
_SESSION_FLAGS = TCPFlags.SYN | TCPFlags.ACK | TCPFlags.PSH | TCPFlags.FIN


@dataclass(frozen=True)
class TrafficConfig:
    """Knobs of the border traffic mix."""

    #: Public servers inside the observed network (web, mail, ...).
    num_servers: int = 40

    #: Of which, servers accepting mail (spam targets).
    num_mail_servers: int = 6

    #: Unique benign external clients appearing per day.
    benign_clients_per_day: int = 2500

    #: Mean payload-bearing flows per benign client-day.
    benign_flows_mean: float = 4.0

    #: How strongly uncleanliness suppresses a network's benign audience
    #: (0 = none, 1 = fully suppressed at uncleanliness 1).
    benign_uncleanliness_damping: float = 0.9

    #: Day-to-day audience reuse: fraction of each day's clients drawn
    #: from the prior day's client pool (locality).
    audience_locality: float = 0.5

    #: Fraction of window-active scanner bots whose sweep reaches the
    #: observed network during the window.
    scan_participation: float = 0.17

    #: Mean sweep days per participating scanner.
    scan_days_mean: float = 2.5

    #: Distinct targets per sweep-day: lognormal(median, sigma).
    scan_targets_median: float = 60.0
    scan_targets_sigma: float = 0.8

    #: Fraction of window-active spammer bots that spam the observed MXes.
    spam_participation: float = 0.365

    #: Mean spam days per participating spammer, and messages per day.
    spam_days_mean: float = 2.0
    spam_flows_mean: float = 15.0

    #: Fraction of window-active bots that slow-scan us (escaping detection).
    slow_scanner_fraction: float = 0.30

    #: Targets per slow-scanner day (must stay under the detector floor).
    slow_scan_targets_mean: float = 8.0

    #: Mean active probing days per slow scanner during the window.
    slow_scan_days_mean: float = 4.0

    #: Fraction of window-active bots doing ephemeral-to-ephemeral probing.
    ephemeral_fraction: float = 0.25

    #: Compromised-but-uncatalogued hosts probing during the window; drawn
    #: from the same unclean-weighted distribution as bot placement.
    suspicious_hosts: int = 12_000

    #: C&C channels whose rendezvous point has been sinkholed INTO the
    #: observed network (so member bots phone home across the border and
    #: become directly observable; see repro.detect.cnc).  Empty by
    #: default: the paper's Table 1/2 feeds do not include a sinkhole.
    sinkholed_channels: tuple = ()

    #: Mean phone-home days per sinkholed bot during the window, and
    #: rendezvous attempts per day.
    cnc_days_mean: float = 6.0
    cnc_contacts_per_day: float = 4.0

    #: Diurnal modulation (Chen et al.'s spatiotemporal attack cycles):
    #: intra-day flow times concentrate around ``diurnal_peak_hour``
    #: with density proportional to ``1 + amplitude * cos(...)``.  0.0
    #: keeps the paper's uniform intra-day times.  Both fields are
    #: fingerprint addenda (omitted at default).
    diurnal_amplitude: float = addendum_field(default=0.0)
    diurnal_peak_hour: float = addendum_field(default=14.0)

    def validate(self) -> None:
        if self.num_servers <= 0:
            raise ValueError("num_servers must be positive")
        if self.num_mail_servers <= 0 or self.num_mail_servers > self.num_servers:
            raise ValueError("num_mail_servers must be in [1, num_servers]")
        if self.suspicious_hosts < 0:
            raise ValueError("suspicious_hosts must be non-negative")
        for name in (
            "scan_participation",
            "spam_participation",
            "slow_scanner_fraction",
            "ephemeral_fraction",
            "benign_uncleanliness_damping",
            "audience_locality",
        ):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if not 0 <= self.diurnal_peak_hour < 24:
            raise ValueError("diurnal_peak_hour must be in [0, 24)")


@dataclass
class BorderTraffic:
    """A generated border capture plus per-population ground truth."""

    window: Window
    flows: FlowLog
    #: Ground-truth unique source addresses per traffic population.
    populations: Dict[str, np.ndarray]

    def ground_truth(self, name: str) -> np.ndarray:
        """Unique sources of one population (e.g. ``"fast_scanners"``)."""
        return self.populations[name]


class _Chunks:
    """Accumulates flow column chunks and broadcasts scalars."""

    _NAMES = (
        "src_addr", "dst_addr", "src_port", "dst_port", "protocol",
        "packets", "octets", "tcp_flags", "start_time", "end_time",
    )

    def __init__(self) -> None:
        self.parts: Dict[str, List[np.ndarray]] = {n: [] for n in self._NAMES}

    def extend(self, **columns) -> None:
        size = None
        for value in columns.values():
            if isinstance(value, np.ndarray):
                size = value.size
                break
        if size is None:
            raise ValueError("at least one column must be an array")
        if size == 0:
            return
        for name in self._NAMES:
            value = columns[name]
            if not isinstance(value, np.ndarray):
                value = np.full(size, value)
            elif value.size != size:
                raise ValueError(f"column {name} has mismatched length")
            self.parts[name].append(value)

    def to_log(self) -> FlowLog:
        merged = {}
        for name, chunks in self.parts.items():
            # Coerce every chunk to the FlowLog schema dtype up front: an
            # all-quiet window would otherwise contribute float64
            # np.asarray([]) columns, and mixed-width chunks would upcast
            # during concatenation.
            dtype = COLUMN_DTYPES[name]
            if chunks:
                merged[name] = np.concatenate(
                    [np.asarray(chunk, dtype=dtype) for chunk in chunks]
                )
            else:
                merged[name] = np.asarray([], dtype=dtype)
        return FlowLog(**merged)


class TrafficGenerator:
    """Generates :class:`BorderTraffic` for a window, given the actors."""

    def __init__(
        self,
        internet: SyntheticInternet,
        botnet: BotnetSimulation,
        config: Optional[TrafficConfig] = None,
    ) -> None:
        self.internet = internet
        self.botnet = botnet
        self.config = config or TrafficConfig()
        self.config.validate()

    # -- observed-network address helpers ---------------------------------

    def server_addresses(self) -> np.ndarray:
        """Deterministic public server addresses inside the observed /8."""
        base = self.internet.observed_network.first_address
        # Servers sit in the observed network's first /24s, one per /24.
        return base + (np.arange(self.config.num_servers, dtype=np.uint32) << 8) + 10

    def mail_server_addresses(self) -> np.ndarray:
        return self.server_addresses()[: self.config.num_mail_servers]

    def _random_observed_addresses(
        self, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Random target addresses inside the observed network."""
        block = self.internet.observed_network
        span = block.num_addresses
        return block.first_address + rng.integers(0, span, size=count, dtype=np.uint32)

    # -- diurnal timing ----------------------------------------------------

    def _intra_day(self, total: int, rng: np.random.Generator) -> np.ndarray:
        """Second-of-day offsets for ``total`` flows.

        With ``diurnal_amplitude`` 0 this is exactly the historical
        ``rng.random(total) * DAY_SECONDS`` draw (bit-identity of the
        default world); otherwise the same uniform draw is warped by a
        monotone map whose image density is proportional to
        ``1 / (1 - a*cos(omega*(t - peak)))`` — flows bunch around the
        configured peak hour without consuming any extra randomness.
        """
        cfg = self.config
        offsets = rng.random(total) * DAY_SECONDS
        if cfg.diurnal_amplitude > 0:
            omega = 2.0 * np.pi / DAY_SECONDS
            peak = cfg.diurnal_peak_hour * 3600.0
            offsets = (
                offsets
                - (cfg.diurnal_amplitude / omega)
                * np.sin(omega * (offsets - peak))
            ) % DAY_SECONDS
        return offsets

    def _scan_hours(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Sweep start hours; diurnally weighted when modulation is on."""
        cfg = self.config
        if cfg.diurnal_amplitude <= 0:
            return rng.integers(0, 23, size=count)
        hours = np.arange(24, dtype=np.float64) + 0.5
        weights = 1.0 + cfg.diurnal_amplitude * np.cos(
            2.0 * np.pi * (hours - cfg.diurnal_peak_hour) / 24.0
        )
        return rng.choice(24, size=count, p=weights / weights.sum())

    # -- generation --------------------------------------------------------

    def generate(self, window: Window, rng: np.random.Generator) -> BorderTraffic:
        """Generate the full border capture for ``window``."""
        started = time.perf_counter()
        chunks = _Chunks()
        populations: Dict[str, np.ndarray] = {}

        with obs_trace.span("flows.generate", days=window.num_days):
            with obs_trace.span("flows.population.benign"):
                populations["benign"] = self._benign(window, rng, chunks)

            event_idx = self.botnet.event_indices(window)
            roles = self._assign_bot_roles(event_idx, rng)
            with obs_trace.span("flows.population.fast_scanners"):
                populations["fast_scanners"] = self._fast_scans(
                    window, rng, chunks, roles["fast"]
                )
            with obs_trace.span("flows.population.spammers"):
                populations["spammers"] = self._spam(window, rng, chunks, roles["spam"])
            with obs_trace.span("flows.population.slow_scanners"):
                populations["slow_scanners"] = self._slow_scans(
                    window,
                    rng,
                    chunks,
                    self.botnet.address[roles["slow"]],
                    clip_events=roles["slow"],
                )
            with obs_trace.span("flows.population.ephemeral"):
                populations["ephemeral"] = self._ephemeral(
                    window,
                    rng,
                    chunks,
                    self.botnet.address[roles["ephemeral"]],
                    clip_events=roles["ephemeral"],
                )
            with obs_trace.span("flows.population.suspicious"):
                populations["suspicious"] = self._suspicious(window, rng, chunks)
            with obs_trace.span("flows.population.cnc"):
                populations["cnc"] = self._cnc_rendezvous(window, rng, chunks, event_idx)

            with obs_trace.span("flows.to_log"):
                log = chunks.to_log()

        elapsed = time.perf_counter() - started
        obs_metrics.inc("flows.generated", len(log))
        if elapsed > 0:
            obs_metrics.set_gauge("flows.per_sec", len(log) / elapsed)
        obs_metrics.observe("flows.generate.seconds", elapsed)
        return BorderTraffic(window=window, flows=log, populations=populations)

    # -- bot role assignment ---------------------------------------------------

    def _assign_bot_roles(
        self, event_idx: np.ndarray, rng: np.random.Generator
    ) -> Dict[str, np.ndarray]:
        """Decide, per window-active bot event, its behaviour toward us.

        Roles are not exclusive except that fast and slow scanning don't
        co-occur (a bot either sweeps us or probes quietly).
        """
        cfg = self.config
        count = event_idx.size
        scanner = self.botnet.is_scanner[event_idx]
        spammer = self.botnet.is_spammer[event_idx]

        fast = scanner & (rng.random(count) < cfg.scan_participation)
        slow = (~fast) & (rng.random(count) < cfg.slow_scanner_fraction)
        spam = spammer & (rng.random(count) < cfg.spam_participation)
        ephemeral = rng.random(count) < cfg.ephemeral_fraction
        return {
            "fast": event_idx[fast],
            "slow": event_idx[slow],
            "spam": event_idx[spam],
            "ephemeral": event_idx[ephemeral],
        }

    def _event_days(
        self,
        window: Window,
        day_count_mean: float,
        rng: np.random.Generator,
        events: Optional[np.ndarray] = None,
        count: Optional[int] = None,
    ) -> tuple:
        """Batched active-day sampling for a whole population at once.

        Draws each actor's action-day count (Poisson with the given
        mean, at least 1), intersects the window with the actor's
        compromise interval when ``events`` is given, and samples that
        many distinct days per actor in one kernel call.  Returns
        ``(owners, days)``: flat arrays where ``owners`` indexes into
        the population (``events`` or ``range(count)``); actors whose
        window∩interval is empty contribute nothing.
        """
        size = events.size if events is not None else int(count)
        counts = np.maximum(1, rng.poisson(day_count_mean, size=size))
        lo = np.full(size, window.start_day, dtype=np.int64)
        hi = np.full(size, window.end_day, dtype=np.int64)
        if events is not None:
            lo = np.maximum(lo, self.botnet.start_day[events])
            hi = np.minimum(hi, self.botnet.end_day[events])
        return sample_day_segments(lo, hi, counts, rng)

    # -- benign traffic ------------------------------------------------------------

    def _benign(
        self, window: Window, rng: np.random.Generator, chunks: _Chunks
    ) -> np.ndarray:
        cfg = self.config
        servers = self.server_addresses()
        damping = 1.0 - cfg.benign_uncleanliness_damping * self.internet.uncleanliness
        weights = self.internet.population.astype(np.float64) * damping

        all_clients: List[np.ndarray] = []
        previous = np.asarray([], dtype=np.uint32)
        for day in window.days():
            reuse = int(cfg.audience_locality * min(previous.size, cfg.benign_clients_per_day))
            fresh = cfg.benign_clients_per_day - reuse
            todays = [self.internet.sample_hosts(fresh, rng, weights)] if fresh else []
            if reuse:
                todays.append(rng.choice(previous, size=reuse, replace=False))
            if not todays:  # an all-quiet capture: no benign audience at all
                previous = np.asarray([], dtype=np.uint32)
                continue
            clients = unique_sorted(np.concatenate(todays))
            all_clients.append(clients)
            previous = clients

            flows_per_client = rng.poisson(cfg.benign_flows_mean, size=clients.size) + 1
            total = int(flows_per_client.sum())
            src = np.repeat(clients, flows_per_client)
            packets = rng.integers(8, 60, size=total, dtype=np.uint32)
            payload = rng.integers(200, 20_000, size=total, dtype=np.uint64)
            start = day * DAY_SECONDS + self._intra_day(total, rng)
            chunks.extend(
                src_addr=src,
                dst_addr=rng.choice(servers, size=total),
                src_port=rng.integers(_EPHEMERAL_LOW, 65536, size=total, dtype=np.uint16),
                dst_port=rng.choice(_SERVICE_PORTS, size=total),
                protocol=Protocol.TCP,
                packets=packets,
                octets=payload + 40 * packets.astype(np.uint64),
                tcp_flags=_SESSION_FLAGS,
                start_time=start,
                end_time=start + rng.random(total) * 120,
            )
        if not all_clients:
            return np.asarray([], dtype=np.uint32)
        return unique_sorted(np.concatenate(all_clients))

    # -- hostile traffic --------------------------------------------------------------

    def _fast_scans(
        self,
        window: Window,
        rng: np.random.Generator,
        chunks: _Chunks,
        events: np.ndarray,
    ) -> np.ndarray:
        """SYN sweeps: many targets inside one hour (what the detector sees)."""
        cfg = self.config
        owners, days = self._event_days(window, cfg.scan_days_mean, rng, events=events)
        if days.size == 0:
            return np.asarray([], dtype=np.uint32)
        addresses = self.botnet.address[events[owners]].astype(np.uint32)
        targets_per_day = np.clip(
            rng.lognormal(
                np.log(cfg.scan_targets_median), cfg.scan_targets_sigma, size=days.size
            ).astype(np.int64),
            31,
            2000,
        )
        total = int(targets_per_day.sum())
        hour_starts = (
            days * DAY_SECONDS + self._scan_hours(days.size, rng) * 3600
        ).astype(np.float64)
        start = np.repeat(hour_starts, targets_per_day) + rng.random(total) * 3000
        chunks.extend(
            src_addr=np.repeat(addresses, targets_per_day),
            dst_addr=self._random_observed_addresses(total, rng),
            src_port=rng.integers(_EPHEMERAL_LOW, 65536, size=total, dtype=np.uint16),
            dst_port=np.repeat(rng.choice(_SCAN_PORTS, size=days.size), targets_per_day),
            protocol=Protocol.TCP,
            packets=3,
            octets=156,  # 3 x 52B SYNs: "36 bytes of payload", no ACK
            tcp_flags=TCPFlags.SYN,
            start_time=start,
            end_time=start + 10.0,
        )
        return unique_sorted(addresses)

    def _quiet_probes(
        self,
        window: Window,
        rng: np.random.Generator,
        chunks: _Chunks,
        addresses: np.ndarray,
        days_mean: float,
        targets_mean: float,
        ephemeral_ports: bool,
        clip_events: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Shared machinery of the three quiet populations.

        Each source probes a handful of targets on a few days.  With
        ``ephemeral_ports`` the destination ports are ephemeral (the
        paper's ephemeral-to-ephemeral oddity, ACK but no payload);
        otherwise they are service ports hit SYN-only, under 30 targets a
        day (slow scanning).
        """
        addresses = np.asarray(addresses, dtype=np.uint32)
        owners, days = self._event_days(
            window, days_mean, rng, events=clip_events, count=addresses.size
        )
        if days.size == 0:
            return np.asarray([], dtype=np.uint32)
        sources = addresses[owners]
        per_day = np.clip(
            rng.poisson(targets_mean, size=days.size), 1, 29
        ).astype(np.int64)
        total = int(per_day.sum())
        start = (
            np.repeat(days * DAY_SECONDS, per_day).astype(np.float64)
            + self._intra_day(total, rng)
        )
        if ephemeral_ports:
            dst_port = rng.integers(_EPHEMERAL_LOW, 65536, size=total, dtype=np.uint16)
            packets = rng.integers(1, 4, size=total, dtype=np.uint32)
            octets = packets.astype(np.uint64) * 40  # headers only
            flags = TCPFlags.SYN | TCPFlags.ACK
        else:
            dst_port = np.repeat(rng.choice(_SCAN_PORTS, size=days.size), per_day)
            packets = np.full(total, 3, dtype=np.uint32)
            octets = np.full(total, 156, dtype=np.uint64)
            flags = TCPFlags.SYN
        chunks.extend(
            src_addr=np.repeat(sources, per_day),
            dst_addr=self._random_observed_addresses(total, rng),
            src_port=rng.integers(_EPHEMERAL_LOW, 65536, size=total, dtype=np.uint16),
            dst_port=dst_port,
            protocol=Protocol.TCP,
            packets=packets,
            octets=octets,
            tcp_flags=flags,
            start_time=start,
            end_time=start + 10.0,
        )
        return unique_sorted(sources)

    def _slow_scans(
        self,
        window: Window,
        rng: np.random.Generator,
        chunks: _Chunks,
        addresses: np.ndarray,
        clip_events: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Low-and-slow probing: under 30 targets/day, spread over the day."""
        cfg = self.config
        return self._quiet_probes(
            window,
            rng,
            chunks,
            addresses,
            days_mean=cfg.slow_scan_days_mean,
            targets_mean=cfg.slow_scan_targets_mean,
            ephemeral_ports=False,
            clip_events=clip_events,
        )

    def _ephemeral(
        self,
        window: Window,
        rng: np.random.Generator,
        chunks: _Chunks,
        addresses: np.ndarray,
        clip_events: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Ephemeral-to-ephemeral connection attempts with no payload."""
        return self._quiet_probes(
            window,
            rng,
            chunks,
            addresses,
            days_mean=2.0,
            targets_mean=5.0,
            ephemeral_ports=True,
            clip_events=clip_events,
        )

    def _spam(
        self,
        window: Window,
        rng: np.random.Generator,
        chunks: _Chunks,
        events: np.ndarray,
    ) -> np.ndarray:
        """Spam runs to the observed MX hosts (payload-bearing port 25)."""
        cfg = self.config
        mail = self.mail_server_addresses()
        owners, days = self._event_days(window, cfg.spam_days_mean, rng, events=events)
        if days.size == 0:
            return np.asarray([], dtype=np.uint32)
        sources = self.botnet.address[events[owners]].astype(np.uint32)
        per_day = np.maximum(5, rng.poisson(cfg.spam_flows_mean, size=days.size))
        total = int(per_day.sum())
        packets = rng.integers(6, 20, size=total, dtype=np.uint32)
        payload = rng.integers(400, 4000, size=total, dtype=np.uint64)
        start = (
            np.repeat(days * DAY_SECONDS, per_day).astype(np.float64)
            + self._intra_day(total, rng)
        )
        chunks.extend(
            src_addr=np.repeat(sources, per_day),
            dst_addr=rng.choice(mail, size=total),
            src_port=rng.integers(_EPHEMERAL_LOW, 65536, size=total, dtype=np.uint16),
            dst_port=25,
            protocol=Protocol.TCP,
            packets=packets,
            octets=payload + 40 * packets.astype(np.uint64),
            tcp_flags=_SESSION_FLAGS,
            start_time=start,
            end_time=start + 30.0,
        )
        return unique_sorted(sources)

    def sinkhole_addresses(self) -> np.ndarray:
        """Sinkhole address per sinkholed channel (inside the observed /8).

        Sinkholes live in a dedicated /24 range above the public servers,
        one address per seized channel, in channel order.
        """
        channels = self.config.sinkholed_channels
        base = self.internet.observed_network.first_address
        return base + ((np.uint32(200) + np.arange(len(channels), dtype=np.uint32)) << 8) + 10

    def sinkhole_of_channel(self, channel: int) -> int:
        """The sinkhole address capturing one channel's rendezvous."""
        channels = self.config.sinkholed_channels
        try:
            position = channels.index(channel)
        except ValueError:
            raise ValueError(f"channel {channel} is not sinkholed") from None
        return int(self.sinkhole_addresses()[position])

    def _cnc_rendezvous(
        self,
        window: Window,
        rng: np.random.Generator,
        chunks: _Chunks,
        event_idx: np.ndarray,
    ) -> np.ndarray:
        """Phone-home traffic from bots whose C&C has been sinkholed.

        IRC rendezvous: a handful of small payload-carrying TCP flows per
        day to the channel's sinkhole on port 6667.
        """
        cfg = self.config
        if not cfg.sinkholed_channels:
            return np.asarray([], dtype=np.uint32)
        channels = np.asarray(cfg.sinkholed_channels, dtype=np.int64)
        events = event_idx[np.isin(self.botnet.channel[event_idx], channels)]
        owners, days = self._event_days(window, cfg.cnc_days_mean, rng, events=events)
        if days.size == 0:
            return np.asarray([], dtype=np.uint32)
        sources = self.botnet.address[events[owners]].astype(np.uint32)
        # Channel -> sinkhole address, looked up per active bot-day.
        channel_order = np.argsort(channels)
        positions = channel_order[
            np.searchsorted(channels[channel_order], self.botnet.channel[events[owners]])
        ]
        sinkholes = self.sinkhole_addresses()[positions]
        per_day = np.maximum(
            1, rng.poisson(cfg.cnc_contacts_per_day, size=days.size)
        )
        total = int(per_day.sum())
        packets = rng.integers(3, 9, size=total, dtype=np.uint32)
        payload = rng.integers(80, 900, size=total, dtype=np.uint64)
        start = (
            np.repeat(days * DAY_SECONDS, per_day).astype(np.float64)
            + self._intra_day(total, rng)
        )
        chunks.extend(
            src_addr=np.repeat(sources, per_day),
            dst_addr=np.repeat(sinkholes, per_day),
            src_port=rng.integers(_EPHEMERAL_LOW, 65536, size=total, dtype=np.uint16),
            dst_port=6667,
            protocol=Protocol.TCP,
            packets=packets,
            octets=payload + 40 * packets.astype(np.uint64),
            tcp_flags=_SESSION_FLAGS,
            start_time=start,
            end_time=start + 60.0,
        )
        return unique_sorted(sources)

    def _suspicious(
        self, window: Window, rng: np.random.Generator, chunks: _Chunks
    ) -> np.ndarray:
        """Uncatalogued compromised hosts probing from unclean space.

        Half slow-scan, half do ephemeral probing; none appear in any
        report, which is what feeds the §6 unknown class.
        """
        count = self.config.suspicious_hosts
        if count == 0:
            return np.asarray([], dtype=np.uint32)
        hosts = unique_sorted(
            self.internet.sample_hosts(
                count, rng, self.internet.compromise_weights()
            )
        )
        half = hosts.size // 2
        shuffled = rng.permutation(hosts)
        slow = self._slow_scans(window, rng, chunks, shuffled[:half])
        ephemeral = self._ephemeral(window, rng, chunks, shuffled[half:])
        return unique_sorted(np.concatenate((slow, ephemeral)))
