"""The campaign of the ``campaign`` workload, in a process of its own.

Run as a child process by :mod:`campaign_run`, so that its peak RSS and
CPU time are the campaign's and not the benchmark's::

    python3 perfbench/campaign_child.py --seed 1 --size full --workers 2

It runs :func:`repro.scenarios.run_campaign` on the matrix with
``CampaignConfig(seed=seed)`` across ``--workers`` workers and builds
nothing else, then reads its wall time, this process's plus its pool
workers' CPU time, and this process's ``VmHWM``.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict


def _cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def campaign_phase(matrix, config, workers: int) -> Dict[str, object]:
    from repro.scenarios import run_campaign

    cpu0 = _cpu_now()
    started = time.perf_counter()
    report = run_campaign(matrix, config, workers=workers)
    wall = time.perf_counter() - started
    return {
        "wall_seconds": wall,
        "cpu_seconds": _cpu_now() - cpu0,
        "peak_rss_mb": _peak_rss_mb(),
        "instances": report.instances,
        "ok": report.ok,
        "report": {
            "cells": report.cells,
            "workers": report.workers,
            "mode": report.mode,
            "audit": report.audit,
            "wall_seconds": report.wall_seconds,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

    from repro.scenarios import CampaignConfig, default_matrix, smoke_matrix

    matrix = default_matrix() if args.size == "full" else smoke_matrix()
    config = CampaignConfig(seed=args.seed)
    print(json.dumps(campaign_phase(matrix, config, args.workers)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
