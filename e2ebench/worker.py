"""In-process half of the end-to-end benchmark.

``run.py`` starts this file as a fresh interpreter, with ``src/`` on
``PYTHONPATH`` and a private cache, runs directory and ``HOME``, in one
of two modes:

``serve``
    The section 7 blocklist operator.  Set up (import, ``run_scenario``,
    October traffic, the six provided feeds), print a ``ready`` event,
    then run one cycle per line read from stdin until it closes.  A
    cycle is a cold :class:`UncleanlinessService` folding the 14
    day-batches with checkpointing on into a fresh on-disk
    :class:`ArtifactStore`, one closed-loop client issuing bursts of
    lookups, and repeated resumes from disk into fresh stores.  Every cycle starts from the same
    state and looks up the same addresses in the same order, and each
    answer is checked against the vectorised one.

``walk``
    The traced walk: each layer's public call in pipeline order, after
    its dependencies, so every timing is that layer's own.  Spans
    (name, start, end, parent) are kept in memory and written out when
    the walk ends.

Each event is one JSON object on its own stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro import api
from repro.core.blocking import partition_candidates
from repro.core.scenario import ScenarioConfig
from repro.detect.scan import ScanDetector
from repro.detect.spam import SpamDetector
from repro.engine.store import (
    MISS,
    ArtifactStore,
    PartitionCodec,
    ReportMappingCodec,
)
from repro.sim.timeline import PAPER_WINDOWS
from repro.stream import StreamConfig, UncleanlinessService, day_batches

#: Lookups per burst: p99 of a burst is then its 10th-slowest lookup.
BURST = 1000


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def scenario_config(seed: int, small: bool) -> ScenarioConfig:
    return ScenarioConfig.small(seed) if small else replace(ScenarioConfig(), seed=seed)


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class World:
    """One seed's scenario plus everything the stream layer consumes."""

    def __init__(self, seed: int, small: bool) -> None:
        self.config = scenario_config(seed, small)
        self.run = api.run_scenario(self.config)
        self.scenario = self.run.scenario
        self.stream_config = StreamConfig(
            window=PAPER_WINDOWS.OCTOBER,
            scan_detector=self.config.scan_detector,
            spam_detector=self.config.spam_detector,
        )
        self.source = self.config.fingerprint()
        self.mask = np.uint32((0xFFFFFFFF << (32 - self.stream_config.prefix_len)) & 0xFFFFFFFF)

    def feeds(self) -> dict:
        return {tag: self.scenario.report(tag) for tag in api.STREAM_FEED_TAGS}

    def batches(self) -> list:
        return list(day_batches(self.scenario.october_traffic, self.feeds()))

    def lookup_pool(self, seed: int, size: int) -> np.ndarray:
        """Reported-block hits (addresses of R_unclean) shuffled with
        uniform misses, drawn from the workload seed."""
        rng = np.random.default_rng([seed, 0x5E7])
        unclean = self.scenario.report("unclean").addresses
        hits = rng.choice(unclean, size=size // 2)
        misses = rng.integers(0, 2**32, size=size - size // 2, dtype=np.uint32)
        pool = np.concatenate([hits.astype(np.uint32), misses])
        rng.shuffle(pool)
        return pool


def lookup_burst(service, addresses: np.ndarray, mask) -> tuple:
    """One closed-loop burst.  A lookup is the operator's two questions
    about one address, ``score`` then ``is_blocked``; the next lookup is
    sent when the previous one has been answered.  Returns per-lookup
    latencies (us) and the number of wrong answers."""
    clock = time.perf_counter_ns
    latencies = [0] * len(addresses)
    scores = [0.0] * len(addresses)
    verdicts = [False] * len(addresses)
    for i, address in enumerate(addresses.tolist()):
        began = clock()
        scores[i] = service.score(address)
        verdicts[i] = service.is_blocked(address)
        latencies[i] = clock() - began
    want_scores = service.scores_at(addresses)
    want_verdicts = np.isin(addresses & mask, service.blocklist())
    wrong = int(np.count_nonzero(
        (np.asarray(scores) != want_scores) | (np.asarray(verdicts) != want_verdicts)
    ))
    return [ns / 1e3 for ns in latencies], wrong


def serve(args) -> None:
    world = World(args.seed, args.small)
    batches = world.batches()
    pool = world.lookup_pool(args.seed, args.bursts * BURST)
    emit("ready", flows=int(sum(len(b.flows) for b in batches)))

    work = Path(args.work)
    reference = None
    for index, _ in enumerate(sys.stdin):
        ckpt_dir = work / f"ckpt-{index}"
        failed = 0
        began = time.perf_counter()
        store = ArtifactStore(disk_dir=ckpt_dir)
        service = UncleanlinessService(
            world.stream_config, source=world.source, store=store, checkpointing=True
        )
        for batch in batches:
            service.ingest(batch)
        ingest_s = time.perf_counter() - began

        bursts, in_order = [], []
        for b in range(args.bursts):
            latencies, wrong = lookup_burst(
                service, pool[b * BURST:(b + 1) * BURST], world.mask
            )
            failed += wrong
            bursts.append([percentile(latencies, 50), percentile(latencies, 99)])
            in_order.extend(round(us, 3) for us in latencies)

        live = service.blocklist()
        if reference is None:
            reference = live.copy()
        # Every cycle folds the same batches from the same cold state.
        failed += int(not np.array_equal(live, reference))
        resumes_ms = []
        first = int(pool[0])
        for _ in range(args.resumes):
            t0 = time.perf_counter()
            resumed = UncleanlinessService.resume(
                world.stream_config, source=world.source,
                store=ArtifactStore(disk_dir=ckpt_dir),
            )
            resumed.score(first)
            resumes_ms.append((time.perf_counter() - t0) * 1e3)
            failed += int(
                resumed.cursor != service.cursor
                or not np.array_equal(resumed.blocklist(), live)
            )
        wall_s = time.perf_counter() - began
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        emit(
            "cycle", wall_s=wall_s, ingest_s=ingest_s, bursts=bursts,
            latencies_us=in_order, resumes_ms=resumes_ms,
            attempted=1 + args.bursts * BURST + args.resumes,
            failed=failed, blocklist_sha256=hashlib.sha256(live.tobytes()).hexdigest(),
        )


class Spans:
    """In-memory span recorder: (name, start, end, parent)."""

    def __init__(self) -> None:
        self.rows: list = []
        self._stack: list = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        row = {"name": name, "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter() - self._origin, "end": None}
        self.rows.append(row)
        self._stack.append(len(self.rows) - 1)
        try:
            yield row
        finally:
            self._stack.pop()
            row["end"] = time.perf_counter() - self._origin

    def seconds(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(duration(r) for r in self.rows if r["name"] == name)


def duration(row: dict) -> float:
    return row["end"] - row["start"]


def walk(args) -> None:
    spans = Spans()
    metrics = {}
    checks = {}
    work = Path(args.work)
    reps = args.reps

    with spans.span("walk"):
        world = World(args.seed, args.small)
        sc = world.scenario
        for layer, prop in (("sim.internet", "internet"), ("sim.botnet", "botnet"),
                            ("sim.phishing", "phishing")):
            with spans.span(layer):
                getattr(sc, prop)
            metrics[f"{layer}_s"] = spans.seconds(layer)
        with spans.span("flows.generate"):
            flows = sc.october_traffic.flows
        metrics["flows.generate_s"] = spans.seconds("flows.generate")
        metrics["flows.count"] = len(flows)
        metrics["flows.per_s"] = len(flows) / metrics["flows.generate_s"]

        config = world.config
        with spans.span("detect.scan"):
            ScanDetector(config.scan_detector).detect(flows)
        with spans.span("detect.spam"):
            SpamDetector(config.spam_detector).detect(flows)
        # The reports stage runs both detectors again; its remainder is
        # report assembly (provided, test and control feeds, R_unclean).
        with spans.span("core.reports"):
            reports = sc.reports
        metrics["detect.scan_s"] = spans.seconds("detect.scan")
        metrics["detect.spam_s"] = spans.seconds("detect.spam")
        metrics["core.reports_s"] = spans.seconds("core.reports")
        metrics["core.report_assembly_s"] = (
            metrics["core.reports_s"] - metrics["detect.scan_s"] - metrics["detect.spam_s"]
        )
        metrics["core.report_addresses"] = sum(len(r) for r in reports.values())
        with spans.span("core.partition"):
            partition = partition_candidates(flows, reports["bot-test"], reports["unclean"])
        metrics["core.partition_s"] = spans.seconds("core.partition")

        puts, gets = [], []
        for rep in range(reps):
            store_dir = work / f"store-{rep}"
            store = ArtifactStore(disk_dir=store_dir)
            with spans.span("engine.put") as put:
                store.put("bench-reports", reports, ReportMappingCodec())
                store.put("bench-partition", partition, PartitionCodec())
            puts.append(duration(put))
            fresh = ArtifactStore(disk_dir=store_dir)
            with spans.span("engine.get") as get:
                got_reports = fresh.get("bench-reports", ReportMappingCodec())
                got_partition = fresh.get("bench-partition", PartitionCodec())
            gets.append(duration(get))
            checks[f"engine.roundtrip.{rep}"] = (
                got_reports is not MISS and got_partition is not MISS
                and sorted(got_reports) == sorted(reports)
                and all(np.array_equal(got_reports[t].addresses, reports[t].addresses)
                        for t in reports)
            )
            metrics["engine.put_bytes"] = dir_bytes(store_dir)
            shutil.rmtree(store_dir, ignore_errors=True)
        metrics["engine.put_s"] = statistics.median(puts)
        metrics["engine.get_s"] = statistics.median(gets)

        with spans.span("trials.density"):
            api.evaluate(world.run, metric="density", train="bot", subsets=args.subsets)
        with spans.span("trials.prediction"):
            api.evaluate(world.run, metric="prediction", subsets=args.subsets)
        metrics["trials.density_s"] = spans.seconds("trials.density")
        metrics["trials.prediction_s"] = spans.seconds("trials.prediction")
        metrics["trials.per_s"] = 2 * args.subsets / (
            metrics["trials.density_s"] + metrics["trials.prediction_s"]
        )

        batches = world.batches()
        with spans.span("stream.fold"):
            plain = UncleanlinessService(
                world.stream_config, source=world.source,
                store=ArtifactStore(enable_disk=False), checkpointing=False,
            )
            for batch in batches:
                plain.ingest(batch)
        ckpt_dir = work / "ckpt"
        with spans.span("stream.fold_checkpointed"):
            service = UncleanlinessService(
                world.stream_config, source=world.source,
                store=ArtifactStore(disk_dir=ckpt_dir), checkpointing=True,
            )
            for batch in batches:
                service.ingest(batch)
        metrics["stream.fold_s"] = spans.seconds("stream.fold")
        metrics["stream.checkpoint_s"] = (
            spans.seconds("stream.fold_checkpointed") - metrics["stream.fold_s"]
        )
        metrics["stream.checkpoint_bytes"] = dir_bytes(ckpt_dir)
        checks["stream.checkpoint_same_state"] = bool(
            np.array_equal(plain.blocklist(), service.blocklist())
        )

        pool = world.lookup_pool(args.seed, reps * BURST)
        medians, wrong = [], 0
        with spans.span("stream.lookup"):
            for rep in range(reps):
                latencies, bad = lookup_burst(
                    service, pool[rep * BURST:(rep + 1) * BURST], world.mask
                )
                medians.append(percentile(latencies, 50))
                wrong += bad
        metrics["stream.lookup_us"] = statistics.median(medians)
        checks["stream.lookup_answers"] = wrong == 0

        resumes = []
        for _ in range(reps):
            with spans.span("stream.resume") as resume:
                resumed = UncleanlinessService.resume(
                    world.stream_config, source=world.source,
                    store=ArtifactStore(disk_dir=ckpt_dir),
                )
                resumed.score(int(pool[0]))
            resumes.append(duration(resume) * 1e3)
        metrics["stream.resume_ms"] = statistics.median(resumes)
        checks["stream.resume_state"] = bool(
            np.array_equal(resumed.blocklist(), service.blocklist())
        )
        shutil.rmtree(ckpt_dir, ignore_errors=True)

    Path(args.spans).write_text(json.dumps(spans.rows))
    emit("walk", metrics=metrics, checks=checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("serve", "walk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--work", required=True, help="scratch directory for stores")
    parser.add_argument("--bursts", type=int, default=20)
    parser.add_argument("--resumes", type=int, default=20)
    parser.add_argument("--subsets", type=int, default=1000)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--spans", help="(walk) where to write the span list")
    args = parser.parse_args(argv)
    Path(args.work).mkdir(parents=True, exist_ok=True)
    (serve if args.mode == "serve" else walk)(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
