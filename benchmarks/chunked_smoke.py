#!/usr/bin/env python
"""Memory-capped smoke: a full window folded through the chunked path.

CI leg for the out-of-core promise.  The script builds the paper-scale
October window, records every detector's in-memory verdict, spills the
window to a memory-mapped chunk directory, **drops the in-memory log**,
then clamps the process address space (``RLIMIT_AS``) to its current
size plus a fixed headroom far below what re-materialising the window
would need — and folds all three detectors over the chunks under that
cap.  Success requires both surviving the ulimit and reproducing the
in-memory flagged sets bit for bit.

The headroom budgets the fold's real transient state (per-chunk columns
plus partial aggregates, ~175 MB traced for the scan fold at full
scale) with margin for allocator slack; a regression that materialises
the window inside the fold, or accumulates every chunk's partial, blows
through it and the leg fails with ``MemoryError``.

Usage::

    PYTHONPATH=src python benchmarks/chunked_smoke.py --scale full
"""

from __future__ import annotations

import argparse
import gc
import sys
import tempfile
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None

from repro.core.scenario import ScenarioConfig
from repro.detect.scan import ScanDetector
from repro.detect.spam import SpamDetector
from repro.detect.trw import TRWDetector
from repro.flows.chunked import ChunkedFlowLog
from repro.flows.generator import TrafficGenerator
from repro.sim.botnet import BotnetSimulation
from repro.sim.internet import SyntheticInternet
from repro.sim.timeline import PAPER_WINDOWS

#: Address-space allowance above the post-build baseline for the folds.
HEADROOM_MB = {"full": 288, "small": 160}


def _vm_size_kb() -> int:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmSize:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)

    if resource is None:
        print("skip: resource module unavailable on this platform")
        return 0

    config = ScenarioConfig.small() if args.scale == "small" else ScenarioConfig()
    seeds = np.random.SeedSequence(config.seed).spawn(8)
    internet = SyntheticInternet(config.internet, np.random.default_rng(seeds[0]))
    botnet = BotnetSimulation(
        internet, config.botnet, np.random.default_rng(seeds[1])
    )
    traffic = TrafficGenerator(internet, botnet, config.traffic).generate(
        PAPER_WINDOWS.OCTOBER,
        np.random.default_rng(np.random.SeedSequence(config.seed).spawn(8)[3]),
    )
    flows = traffic.flows
    detectors = [
        ("scan", ScanDetector()),
        ("trw", TRWDetector()),
        ("spam", SpamDetector()),
    ]
    expected = {name: detector.detect(flows) for name, detector in detectors}
    total_flows = len(flows)

    with tempfile.TemporaryDirectory() as tmp_dir:
        chunked = ChunkedFlowLog.spill_to_dir(
            flows,
            Path(tmp_dir) / "window",
            max_flows=max(4096, total_flows // 12),
            day_bounded=False,
        )
        del traffic, flows
        gc.collect()

        base_kb = _vm_size_kb()
        if base_kb == 0:
            print("skip: /proc/self/status unavailable (not Linux)")
            return 0
        headroom_kb = HEADROOM_MB[args.scale] * 1024
        cap = (base_kb + headroom_kb) * 1024
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        print(
            f"{total_flows} flows in {chunked.chunk_count} chunks; "
            f"address space capped at {cap // (1024 * 1024)} MB "
            f"(baseline {base_kb // 1024} MB + {HEADROOM_MB[args.scale]} MB)"
        )

        try:
            for name, detector in detectors:
                flagged = detector.detect_chunked(chunked)
                if not np.array_equal(flagged, expected[name]):
                    print(
                        f"FAIL: {name} chunked fold diverges from in-memory",
                        file=sys.stderr,
                    )
                    return 1
                print(f"  {name:5s} fold ok ({flagged.size} flagged)")
        except MemoryError:
            print(
                "FAIL: chunked fold exceeded the memory cap "
                f"({HEADROOM_MB[args.scale]} MB headroom)",
                file=sys.stderr,
            )
            return 1
    print("memory-capped chunked smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
