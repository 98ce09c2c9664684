"""Figure 1: the relationship between scanning and botnet population.

The paper's motivating figure: weekly counts of unique hosts scanning the
observed network from January to April 2006, overlaid with how many
addresses of a botnet reported in the first week of March were (a)
themselves scanning, and (b) sharing a /24 with a scanner.  Three features
matter:

* the botnet's addresses scan the observed network for weeks *before* the
  report exists (at the peak, ~35% of reported addresses are scanning);
* the /24 overlay identifies more scanners than the addresses alone
  (the paper's first hint of spatial uncleanliness); and
* scanning from the botnet drops noticeably after the report circulates
  (owners remediate published addresses).

This experiment runs its own smaller simulation (18 weekly traffic
windows are generated and scanned, which would be slow at the default
October scale) with a cleanup intervention applied at the report date.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core import cidr as rcidr
from repro.core.report import DataClass, Report, ReportType
from repro.detect.scan import ScanDetector, ScanDetectorConfig
from repro.experiments.common import render_table
from repro.flows.generator import TrafficConfig, TrafficGenerator
from repro.ipspace import cidr as lowcidr
from repro.sim.botnet import BotnetConfig, BotnetSimulation
from repro.sim.internet import InternetConfig, SyntheticInternet
from repro.sim.timeline import PAPER_WINDOWS, Window

__all__ = ["Figure1Config", "Figure1Result", "run", "format_result"]


@dataclass(frozen=True)
class Figure1Config:
    """A self-contained, smaller-scale setup for the 18-week sweep."""

    seed: int = 2006_03_01
    internet: InternetConfig = field(
        default_factory=lambda: InternetConfig(num_slash16=250)
    )
    botnet: BotnetConfig = field(
        default_factory=lambda: BotnetConfig(
            daily_compromises=120.0, num_channels=6
        )
    )
    traffic: TrafficConfig = field(
        default_factory=lambda: TrafficConfig(
            benign_clients_per_day=300,
            scan_participation=0.5,  # the reported botnet is scan-heavy
            suspicious_hosts=800,
        )
    )

    #: The C&C channel whose membership is published as the bot report.
    report_channel: int = 0

    #: Mean days to remediation once an address is published.
    mean_cleanup_days: float = 9.0


@dataclass(frozen=True)
class Figure1Result:
    """Weekly series behind the two plots of Figure 1."""

    weeks: tuple  # Window per week
    unique_scanners: tuple  # scanners seen per week
    bot_address_overlap: tuple  # |scanners ∩ bot report| per week
    bot_block_overlap: tuple  # bot addrs sharing a /24 with a scanner
    report_size: int
    report_week: int  # index into weeks where the report lands

    def peak_overlap_fraction(self) -> float:
        """Max weekly fraction of the bot report seen scanning."""
        if not self.report_size:
            return 0.0
        return max(self.bot_address_overlap) / self.report_size

    def pre_report_mean_overlap(self) -> float:
        values = self.bot_address_overlap[: self.report_week + 1]
        return float(np.mean(values)) if values else 0.0

    def post_report_mean_overlap(self, settle_weeks: int = 2) -> float:
        """Mean overlap once cleanup has had ``settle_weeks`` to act."""
        values = self.bot_address_overlap[self.report_week + settle_weeks :]
        return float(np.mean(values)) if values else 0.0

    def activity_drops_after_report(self) -> bool:
        """The paper's 'activity drops noticeably after the report'."""
        return self.post_report_mean_overlap() < 0.5 * self.pre_report_mean_overlap()

    def block_overlay_dominates(self) -> bool:
        """The /24 line sits at or above the address line every week."""
        return all(
            block >= addr
            for block, addr in zip(self.bot_block_overlap, self.bot_address_overlap)
        )

    def rows(self) -> List[dict]:
        out = []
        for i, week in enumerate(self.weeks):
            out.append(
                {
                    "week": str(week.dates()[0]),
                    "unique_scanners": self.unique_scanners[i],
                    "bot_addrs_scanning": self.bot_address_overlap[i],
                    "bot_addrs_in_scanning_/24": self.bot_block_overlap[i],
                    "report": "<-- report" if i == self.report_week else "",
                }
            )
        return out


def _weekly_windows(span: Window) -> List[Window]:
    windows = []
    start = span.start_day
    while start <= span.end_day:
        end = min(start + 6, span.end_day)
        windows.append(Window(start, end))
        start = end + 1
    return windows


def run(config: Figure1Config = Figure1Config()) -> Figure1Result:
    """Regenerate the Figure 1 series."""
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    rngs = [np.random.default_rng(s) for s in seeds]

    internet = SyntheticInternet(config.internet, rngs[0])
    botnet = BotnetSimulation(internet, config.botnet, rngs[1])

    report_window = PAPER_WINDOWS.FIGURE1_BOT
    bot_addresses = botnet.channel_members(config.report_channel, report_window)
    bot_report = Report(
        tag="figure1-bot",
        addresses=bot_addresses,
        report_type=ReportType.PROVIDED,
        data_class=DataClass.BOTS,
        period=report_window.dates(),
    )

    # Publication triggers remediation of the reported botnet.
    botnet = botnet.with_cleanup(
        config.report_channel,
        report_window.end_day,
        config.mean_cleanup_days,
        rngs[2],
    )

    generator = TrafficGenerator(internet, botnet, config.traffic)
    detector = ScanDetector(ScanDetectorConfig())
    traffic_rng = rngs[3]

    weeks = _weekly_windows(PAPER_WINDOWS.FIGURE1)
    unique_scanners, addr_overlap, block_overlap = [], [], []
    report_week = next(
        i for i, w in enumerate(weeks) if w.overlaps(report_window)
    )
    for week in weeks:
        traffic = generator.generate(week, traffic_rng)
        scanners = detector.detect(traffic.flows)
        unique_scanners.append(int(scanners.size))
        addr_overlap.append(int(np.intersect1d(
            scanners, bot_report.addresses, assume_unique=True
        ).size))
        scanner_blocks = lowcidr.unique_blocks(scanners, 24)
        in_blocks = lowcidr.contains(bot_report.addresses, scanner_blocks, 24)
        block_overlap.append(int(in_blocks.sum()))

    return Figure1Result(
        weeks=tuple(weeks),
        unique_scanners=tuple(unique_scanners),
        bot_address_overlap=tuple(addr_overlap),
        bot_block_overlap=tuple(block_overlap),
        report_size=len(bot_report),
        report_week=report_week,
    )


def format_result(result: Figure1Result) -> str:
    """Text rendering of Figure 1 plus the paper's three claims."""
    from repro.experiments.plotting import series_panel

    panel = series_panel(
        {
            "unique scanners": result.unique_scanners,
            "bot addrs scanning": result.bot_address_overlap,
            "bot addrs in /24s": result.bot_block_overlap,
        }
    )
    lines = [
        "Figure 1: scanning vs. botnet population (weekly)",
        f"bot report size: {result.report_size} addresses "
        f"(week of {result.weeks[result.report_week].dates()[0]})",
        "",
        panel,
        "",
        render_table(result.rows()),
        "",
        f"peak overlap fraction: {result.peak_overlap_fraction():.2f} "
        "(paper: ~0.35 at peak)",
        f"/24 overlay >= address overlay every week: {result.block_overlay_dominates()}",
        f"activity drops after report: {result.activity_drops_after_report()} "
        f"(pre mean {result.pre_report_mean_overlap():.1f} -> "
        f"post mean {result.post_report_mean_overlap():.1f})",
    ]
    return "\n".join(lines)
