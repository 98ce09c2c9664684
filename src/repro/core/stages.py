"""The scenario pipeline as engine stages.

This is the old monolithic :meth:`PaperScenario._build` split into lazy,
independently-cacheable stages:

========== ============================== =====================
stage      value                          persistence
========== ============================== =====================
internet   :class:`SyntheticInternet`     memory only
asys       :class:`ASTopology` (view)     memory only
botnet     :class:`BotnetSimulation`      memory only
phishing   :class:`PhishingSimulation`    memory only
traffic    :class:`BorderTraffic`         memory only
reports    ``{tag: Report}`` (Table 1/2)  memory + disk (npz)
partition  :class:`CandidatePartition`    memory + disk (npz)
========== ============================== =====================

``asys`` is a *derived view* of the internet stage (the topology is
drawn inside :meth:`SyntheticInternet._generate` so that direct
construction and the staged path realise identical worlds); it exists as
a stage so fleet shards and the cluster statistics can resolve the AS
layer through the same cache, and it never builds on warm runs because
nothing on the warm path depends on it.

Each stage draws from its own dedicated RNG stream — stream *i* of
``SeedSequence(config.seed).spawn(8)``, exactly the streams the eager
constructor used — so the staged pipeline is bit-identical to the
original build no matter which stages happen to be cached.

Reports and the §6 partition are plain address data, so they persist to
disk: a warm run of Table 2/3 or Figures 2-5 performs **no** internet or
botnet simulation at all (the stage-hit counters of the engine prove
this in the tests).
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.core import folds
from repro.core.blocking import CandidatePartition, partition_candidates
from repro.core.report import DataClass, Report, ReportType
from repro.detect.botlog import BotLogMonitor
from repro.detect.phishlist import PhishListAggregator
from repro.detect.scan import ScanDetector
from repro.detect.spam import SpamDetector
from repro.engine.stage import Stage, StageContext, StageEngine
from repro.engine.store import (
    ArtifactStore,
    PartitionCodec,
    ReportMappingCodec,
    default_store,
)
from repro.flows.generator import BorderTraffic, TrafficGenerator
from repro.ipspace.addr import unique_sorted
from repro.sim.botnet import BotnetSimulation
from repro.sim.internet import SyntheticInternet
from repro.sim.phishing import PhishingSimulation
from repro.sim.timeline import PAPER_WINDOWS, Window

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.scenario import ScenarioConfig

__all__ = ["SCENARIO_STAGES", "scenario_engine", "reset_scenario_engine"]

log = logging.getLogger("repro.engine.scenario")


def _rng(config: "ScenarioConfig", stream: int) -> np.random.Generator:
    """Stream ``stream`` of the scenario's eight seed streams."""
    seeds = np.random.SeedSequence(config.seed).spawn(8)
    return np.random.default_rng(seeds[stream])


# -- builders (one per stage) ---------------------------------------------


def _build_internet(ctx: StageContext) -> SyntheticInternet:
    return SyntheticInternet(ctx.config.internet, _rng(ctx.config, 0))


def _build_asys(ctx: StageContext):
    # A derived view, not an independent draw: the topology is realised
    # inside the internet stage so both access paths agree bit-for-bit.
    return ctx.dep("internet").topology


def _build_botnet(ctx: StageContext) -> BotnetSimulation:
    return BotnetSimulation(
        ctx.dep("internet"), ctx.config.botnet, _rng(ctx.config, 1)
    )


def _build_phishing(ctx: StageContext) -> PhishingSimulation:
    return PhishingSimulation(
        ctx.dep("internet"), ctx.config.phishing, _rng(ctx.config, 2)
    )


def _build_traffic(ctx: StageContext) -> BorderTraffic:
    generator = TrafficGenerator(
        ctx.dep("internet"), ctx.dep("botnet"), ctx.config.traffic
    )
    return generator.generate(PAPER_WINDOWS.OCTOBER, _rng(ctx.config, 3))


def _build_reports(ctx: StageContext) -> Dict[str, Report]:
    cfg = ctx.config
    reports: Dict[str, Report] = {}
    _observed_reports(cfg, ctx.dep("traffic"), reports)
    _provided_reports(cfg, ctx.dep("botnet"), ctx.dep("phishing"),
                      _rng(cfg, 5), reports)
    _test_reports(cfg, ctx.dep("botnet"), ctx.dep("phishing"),
                  _rng(cfg, 6), reports)
    _control_report(cfg, ctx.dep("internet"), _rng(cfg, 7), reports)
    reports["unclean"] = _union_report(reports)
    return reports


def _build_partition(ctx: StageContext) -> CandidatePartition:
    reports = ctx.dep("reports")
    return partition_candidates(
        ctx.dep("traffic").flows, reports["bot-test"], reports["unclean"]
    )


# -- report construction (window logic shared with repro.stream via
# repro.core.folds; metadata construction lives there so the batch stage
# and the day-fold build identical reports) --------------------------------


def _observed_reports(cfg, traffic, reports) -> None:
    """Run the detectors over the October border capture."""
    window = PAPER_WINDOWS.OCTOBER
    flows = traffic.flows

    scanners = ScanDetector(cfg.scan_detector).detect(flows)
    reports["scan"] = folds.observed_report("scan", scanners, window)

    spammers = SpamDetector(cfg.spam_detector).detect(flows)
    reports["spam"] = folds.observed_report("spam", spammers, window)


def _bot_feed_addresses(cfg, botnet, monitor, rng) -> np.ndarray:
    """The provided October bot feed, honouring sinkhole-takedown
    dynamics: past ``bot_feed_dark_from_day`` the feed has no live
    visibility (its channels were seized) and, when configured, floods
    the stale addresses it sighted in the days before the takedown."""
    window = PAPER_WINDOWS.OCTOBER
    dark = cfg.bot_feed_dark_from_day
    if dark < 0 or dark > window.end_day:
        return monitor.observe(
            botnet, window, rng, channels=cfg.bot_report_channels
        )
    parts = []
    live_end = min(window.end_day, dark - 1)
    if live_end >= window.start_day:
        parts.append(monitor.observe(
            botnet, Window(window.start_day, live_end), rng,
            channels=cfg.bot_report_channels,
        ))
    if cfg.bot_feed_stale_days > 0:
        stale = Window(max(0, dark - cfg.bot_feed_stale_days), dark - 1)
        parts.append(monitor.observe(
            botnet, stale, rng, channels=cfg.bot_report_channels
        ))
    if not parts:
        return np.asarray([], dtype=np.uint32)
    return unique_sorted(np.concatenate(parts))


def _provided_reports(cfg, botnet, phishing, rng, reports) -> None:
    """The third-party feeds: October bots, six-month phishing."""
    monitor = BotLogMonitor(cfg.monitor)
    bots = _bot_feed_addresses(cfg, botnet, monitor, rng)
    reports["bot"] = Report(
        tag="bot",
        addresses=bots,
        report_type=ReportType.PROVIDED,
        data_class=DataClass.BOTS,
        period=PAPER_WINDOWS.OCTOBER.dates(),
    ).without_reserved()

    phishlist = PhishListAggregator(cfg.phishlist)
    phish = phishlist.observe(phishing, PAPER_WINDOWS.PHISH, rng)
    reports["phish"] = Report(
        tag="phish",
        addresses=phish,
        report_type=ReportType.PROVIDED,
        data_class=DataClass.PHISHING,
        period=PAPER_WINDOWS.PHISH.dates(),
    ).without_reserved()

    # R_phish-present: the October sub-report of R_phish used as the
    # prediction target in Figures 4(ii) and 5.
    phish_present = phishlist.observe(phishing, PAPER_WINDOWS.OCTOBER, rng)
    reports["phish-present"] = Report(
        tag="phish-present",
        addresses=phish_present,
        report_type=ReportType.PROVIDED,
        data_class=DataClass.PHISHING,
        period=PAPER_WINDOWS.OCTOBER.dates(),
    ).without_reserved()


def _test_reports(cfg, botnet, phishing, rng, reports) -> None:
    """R_bot-test (May 10) and R_phish-test (May listings)."""
    members = botnet.channel_members(
        cfg.bot_test_channel, PAPER_WINDOWS.BOT_TEST
    )
    if members.size > cfg.bot_test_size:
        members = rng.choice(members, size=cfg.bot_test_size, replace=False)
    reports["bot-test"] = Report(
        tag="bot-test",
        addresses=members,
        report_type=ReportType.PROVIDED,
        data_class=DataClass.BOTS,
        period=PAPER_WINDOWS.BOT_TEST.dates(),
    ).without_reserved()

    phishlist = PhishListAggregator(cfg.phishlist)
    phish_test = phishlist.observe(phishing, PAPER_WINDOWS.PHISH_TEST, rng)
    if cfg.phish_test_size is not None and phish_test.size > cfg.phish_test_size:
        phish_test = rng.choice(phish_test, size=cfg.phish_test_size, replace=False)
    reports["phish-test"] = Report(
        tag="phish-test",
        addresses=phish_test,
        report_type=ReportType.PROVIDED,
        data_class=DataClass.PHISHING,
        period=PAPER_WINDOWS.PHISH_TEST.dates(),
    ).without_reserved()


def _control_report(cfg, internet, rng, reports) -> None:
    """R_control: active addresses at the vantage, population-weighted.

    The paper's control is every address seen in payload-bearing TCP
    during the week of September 25th (46.9M of them).  At reproduction
    scale we draw the configured number of distinct live hosts weighted
    by network population — the same "active address at a busy vantage"
    distribution — rather than generating a week of full-Internet
    traffic.
    """
    addresses = internet.sample_unique_hosts(cfg.control_size, rng)
    reports["control"] = Report(
        tag="control",
        addresses=addresses,
        report_type=ReportType.OBSERVED,
        data_class=DataClass.NONE,
        period=PAPER_WINDOWS.CONTROL.dates(),
    ).without_reserved()


def _union_report(reports: Dict[str, Report]) -> Report:
    """R_unclean: the union of the four unclean reports (Table 2)."""
    return folds.unclean_union(reports, PAPER_WINDOWS.OCTOBER)


SCENARIO_STAGES = (
    Stage("internet", _build_internet),
    Stage("asys", _build_asys, deps=("internet",)),
    Stage("botnet", _build_botnet, deps=("internet",)),
    Stage("phishing", _build_phishing, deps=("internet",)),
    Stage("traffic", _build_traffic, deps=("internet", "botnet")),
    Stage(
        "reports",
        _build_reports,
        deps=("internet", "botnet", "phishing", "traffic"),
        codec=ReportMappingCodec(),
    ),
    Stage(
        "partition",
        _build_partition,
        deps=("traffic", "reports"),
        codec=PartitionCodec(),
    ),
)


_ENGINE: Optional[StageEngine] = None


def scenario_engine(store: Optional[ArtifactStore] = None) -> StageEngine:
    """The process-wide scenario engine.

    With no argument, returns a singleton bound to the current default
    store (rebuilt automatically whenever the default store changes, so
    tests that reset the store get fresh counters).  Passing a store
    builds a dedicated engine over it.
    """
    global _ENGINE
    if store is not None:
        return StageEngine(SCENARIO_STAGES, store)
    current = default_store()
    if _ENGINE is None or _ENGINE.store is not current:
        _ENGINE = StageEngine(SCENARIO_STAGES, current)
        log.debug(
            "scenario engine rebuilt disk_dir=%s degraded=%s",
            current.disk_dir, current.degraded,
        )
    return _ENGINE


def reset_scenario_engine() -> None:
    """Drop the singleton engine (counters included)."""
    global _ENGINE
    _ENGINE = None
