"""C&C rendezvous monitoring via sinkholes.

The paper's conclusion (§7) names "communication with botnet C&C nodes"
as the next indicator to fold into an uncleanliness metric.  The standard
way an edge network observes that communication is **sinkholing**: a
botnet's rendezvous point is seized or redirected so that member bots
phone home straight into an address the defender controls, and every
source seen knocking on the sinkhole is a confirmed bot.

:class:`SinkholeMonitor` implements the observer side: given the border
flow log and the sinkhole addresses, it reports the external sources that
completed rendezvous attempts.  The traffic side lives in
:meth:`repro.flows.generator.TrafficGenerator` (see
``TrafficConfig.sinkholed_channels``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro import obs
from repro.flows.log import FlowLog
from repro.flows.record import Protocol
from repro.ipspace.addr import unique_sorted

__all__ = ["IRC_PORTS", "SinkholeConfig", "SinkholeMonitor"]

#: Rendezvous ports the 2006-era IRC botnets used.
IRC_PORTS = (6667, 6668, 6669, 7000)


@dataclass(frozen=True)
class SinkholeConfig:
    """Monitor calibration."""

    #: Minimum rendezvous flows before a source is reported (a single
    #: stray connection to a reused address is not proof of infection).
    min_contacts: int = 2

    #: Restrict to the IRC rendezvous ports; disable to catch bots using
    #: non-standard ports.
    require_irc_port: bool = True

    def validate(self) -> None:
        if self.min_contacts <= 0:
            raise ValueError("min_contacts must be positive")


class SinkholeMonitor:
    """Reports external sources contacting sinkholed C&C addresses."""

    def __init__(self, config: SinkholeConfig = SinkholeConfig()) -> None:
        config.validate()
        self.config = config

    def detect(self, flows: FlowLog, sinkholes: Iterable[int]) -> np.ndarray:
        """Sorted unique sources seen rendezvousing with ``sinkholes``."""
        with obs.instrument("detect.cnc", events=len(flows)):
            return self._detect(flows, sinkholes)

    def _detect(self, flows: FlowLog, sinkholes: Iterable[int]) -> np.ndarray:
        sinkhole_arr = unique_sorted(np.asarray(list(sinkholes), dtype=np.uint32))
        if sinkhole_arr.size == 0 or len(flows) == 0:
            return np.asarray([], dtype=np.uint32)

        mask = (flows.protocol == Protocol.TCP) & np.isin(
            flows.dst_addr, sinkhole_arr
        )
        if self.config.require_irc_port:
            mask &= np.isin(flows.dst_port, np.asarray(IRC_PORTS, dtype=np.uint16))
        hits = flows.select(mask)
        if len(hits) == 0:
            return np.asarray([], dtype=np.uint32)

        sources, counts = np.unique(hits.src_addr, return_counts=True)
        return sources[counts >= self.config.min_contacts].astype(np.uint32)
