"""The ``campaign`` workload: the offline research path, no wire or cache.

Phases of one run:

1. **set-up** — :mod:`setup_probe` (import, matrix expansion, pool
   start) as a child process, timed several times.
2. **decisions** — the admission decision
   (:func:`repro.core.odm.build_mckp` → :func:`repro.knapsack.solve_dp`
   → Theorem 3) of each of a seeded sample of the campaign's task sets,
   timed one by one, in passes over the sample for half the decision
   time.
3. **campaign** — :mod:`campaign_child` as a child process:
   :func:`repro.scenarios.run_campaign` on the matrix across ``nproc``
   workers (audited instances per second, CPU per instance, peak RSS;
   its own differential audit must report ``ok``).
4. **decisions** again, for the other half.

Each task set's decision time is the fastest of its passes, as
``timeit`` takes the best of its repeats: on a shared host a decision
only runs slower than the program makes it, when another tenant takes
the core, and such spells last seconds; splitting the passes around the
campaign spreads them over the whole run.

The traced run adds, in this process, a replay of a seeded sample of
campaign units with the same seeded streams, one span per layer call,
and a brute-force sample on quantized copies of smoke-matrix instances.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.core.odm import build_mckp
from repro.core.schedulability import OffloadAssignment, theorem3_test
from repro.knapsack import solve_brute_force, solve_dp, solve_dp_reference
from repro.scenarios import (
    CampaignConfig,
    EnergyObjective,
    default_matrix,
    generate_scenario,
    simulate_burst_admission,
    smoke_matrix,
)
from repro.scenarios.campaign import _quantized_copy
from repro.service import percentile
from repro.sim.rng import spawn_streams

from server_proc import steal_seconds

__all__ = [
    "CampaignRun",
    "run_campaign_workload",
    "replay_units",
    "replay_brute_force",
]

#: Set-up probes per run; ``setup_s`` is the median over those with the
#: least steal.
SETUP_PROBES = 7
#: Campaign units replayed in the traced run.
TRACE_UNITS = 192
#: Smoke-matrix replications whose quantized instances are brute-forced
#: in the traced run (16 cells each, two objectives per unit).
BRUTE_REPLICATIONS = 4
#: Hard cap on the campaign child process.
CHILD_TIMEOUT_S = 150
#: Fewest decision passes on each side of the campaign.
MIN_PASSES = 1
#: Campaign task sets (a seeded sample of the matrix cells) whose
#: admission decisions are timed: a third of the default matrix, so each
#: one is timed in about three times as many passes as the whole matrix
#: would allow, spread over the run.
DECISION_SAMPLE = 512


@dataclass
class CampaignRun:
    setup_seconds: List[float] = field(default_factory=list)
    #: per probe: the host's steal time during it
    setup_steal: List[float] = field(default_factory=list)
    instances: int = 0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    workers: int = 0
    peak_rss_mb: float = 0.0
    report: Dict[str, object] = field(default_factory=dict)
    ok: bool = False
    #: decision passes: passes, pass_seconds, task_sets, p50_ms, p99_ms,
    #: per_s, unverified
    decisions: Dict[str, object] = field(default_factory=dict)
    anomalies: List[str] = field(default_factory=list)

    @property
    def benefit_ratio(self) -> float:
        """Share of the campaign's reference-DP checks that raised no
        anomaly: 1.0 exactly when every ``solve_dp`` optimum matched."""
        audit = self.report["audit"]
        checks = audit["reference_checks"]
        if not checks:
            return 0.0
        return max(0.0, 1.0 - audit["anomaly_count"] / checks)


def _setup_probe(root: Path, workers: int, size: str, run: "CampaignRun"):
    """Time one run of :mod:`setup_probe`, with the host's steal time
    over it."""
    steal0 = steal_seconds()
    started = time.perf_counter()
    subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "setup_probe.py"),
            "--workers", str(workers), "--size", size,
        ],
        cwd=root,
        check=True,
        timeout=60,
        stdin=subprocess.DEVNULL,
    )
    run.setup_seconds.append(time.perf_counter() - started)
    run.setup_steal.append(steal_seconds() - steal0)


def _decide(tasks, resolution: int) -> bool:
    """One admission decision: reduce → solve → Theorem-3 verify.

    Returns whether the decision holds; an infeasible instance (no
    selection) is a rejection and holds.
    """
    instance = build_mckp(tasks)
    selection = solve_dp(instance, resolution=resolution)
    if selection is None:
        return True
    assignments = []
    for cls in instance.classes:
        r = float(selection.item_for(cls.class_id).tag)
        if r > 0:
            assignments.append(OffloadAssignment(cls.class_id, r))
    return theorem3_test(tasks, assignments).feasible


def _decision_passes(
    task_sets, resolution: int, seconds: float, fastest, unverified,
    pass_seconds: List[float],
) -> None:
    """Decide every task set per pass until ``seconds`` have gone,
    keeping each one's fastest time (ms) and each pass's wall time."""
    started = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - started < seconds:
        pass_started = time.perf_counter()
        for i, tasks in enumerate(task_sets):
            t0 = time.perf_counter()
            verified = _decide(tasks, resolution)
            fastest[i] = min(fastest[i], (time.perf_counter() - t0) * 1e3)
            if not verified:
                unverified.add(i)
        pass_seconds.append(time.perf_counter() - pass_started)
        passes += 1


def _run_child(root: Path, argv: List[str]) -> Dict[str, object]:
    """Run :mod:`campaign_child` in its own session; on any failure kill
    the whole session (its pool workers too) and wait for it."""
    child = subprocess.Popen(
        [sys.executable, str(root / "perfbench" / "campaign_child.py"), *argv],
        cwd=root,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"campaign child exited {child.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_campaign_workload(
    root: Path, seed: int, size: str, workers: int, decide_seconds: float
) -> CampaignRun:
    run = CampaignRun(workers=workers)
    for _ in range(SETUP_PROBES):
        _setup_probe(root, workers, size, run)

    matrix = default_matrix() if size == "full" else smoke_matrix()
    config = CampaignConfig(seed=seed)
    specs = matrix.cells()
    streams = spawn_streams(seed, len(specs))
    chosen = sorted(
        random.Random(seed).sample(
            range(len(specs)), min(DECISION_SAMPLE, len(specs))
        )
    )
    task_sets = [
        generate_scenario(specs[i], streams[i].get("scenario"))
        for i in chosen
    ]
    fastest = [float("inf")] * len(task_sets)
    unverified = set()
    pass_seconds: List[float] = []
    _decision_passes(
        task_sets, config.resolution, decide_seconds / 2, fastest,
        unverified, pass_seconds,
    )
    result = _run_child(
        root,
        ["--seed", str(seed), "--size", size, "--workers", str(workers)],
    )
    _decision_passes(
        task_sets, config.resolution, decide_seconds / 2, fastest,
        unverified, pass_seconds,
    )
    run.wall_seconds = result["wall_seconds"]
    run.cpu_seconds = result["cpu_seconds"]
    run.peak_rss_mb = result["peak_rss_mb"]
    run.instances = result["instances"]
    run.ok = result["ok"]
    run.report = result["report"]
    run.decisions = {
        "passes": len(pass_seconds),
        "pass_seconds": pass_seconds,
        "task_sets": len(fastest),
        "p50_ms": percentile(fastest, 50),
        "p99_ms": percentile(fastest, 99),
        "per_s": len(fastest) * 1e3 / sum(fastest),
        "unverified": sorted(unverified),
    }
    if not run.ok:
        run.anomalies.extend(run.report["audit"].get("anomalies", []))
    run.anomalies.extend(
        f"task set {chosen[i]}: solve_dp selection fails Theorem 3"
        for i in run.decisions["unverified"]
    )
    return run


def replay_units(spans, seed: int, size: str, sample_seed: int) -> List[float]:
    """Replay a seeded sample of campaign units, one span per layer call.

    Mirrors the campaign unit: generate → plain build/solve/reference →
    energy-blended build/solve/reference → burst admission.  Returns
    each unit's wall time.
    """
    matrix = default_matrix() if size == "full" else smoke_matrix()
    config = CampaignConfig(seed=seed)
    specs = matrix.cells()
    streams = spawn_streams(seed, len(specs))
    rng = random.Random(sample_seed)
    chosen = sorted(rng.sample(range(len(specs)), min(TRACE_UNITS, len(specs))))
    objective = EnergyObjective(
        benefit_weight=1.0, energy_weight=config.energy_weight
    )
    unit_seconds = []
    for i in chosen:
        rid = f"unit-{i:05d}"
        spec, unit_streams = specs[i], streams[i]
        started = time.perf_counter()
        root = spans.open("unit", rid)
        tasks = spans.call(
            "scenarios.generate", rid, root,
            generate_scenario, spec, unit_streams.get("scenario"),
        )
        for objective_arg in (None, objective):
            instance = spans.call(
                "odm.build_mckp", rid, root,
                build_mckp, tasks, objective=objective_arg,
            )
            spans.call(
                "dp.solve", rid, root,
                solve_dp, instance, resolution=config.resolution,
            )
            spans.call(
                "dp.reference", rid, root,
                solve_dp_reference, instance, resolution=config.resolution,
            )
        spans.call(
            "scenarios.burst_admission", rid, root,
            simulate_burst_admission, tasks, spec, unit_streams.get("bursts"),
        )
        spans.close(root)
        unit_seconds.append(time.perf_counter() - started)
    return unit_seconds


def replay_brute_force(spans, seed: int) -> None:
    """Brute-force the quantized copies of smoke-matrix instances.

    The full matrix's instances exceed the campaign's ``brute_limit``, so
    its audit never reaches the brute-force oracle; the smoke matrix's
    do.  Each instance within the limit is quantized as the campaign
    audit quantizes it and solved under a ``brute_force.solve`` span.
    """
    config = CampaignConfig(seed=seed)
    objective = EnergyObjective(
        benefit_weight=1.0, energy_weight=config.energy_weight
    )
    specs = [
        spec for spec in smoke_matrix().cells()
        for _ in range(BRUTE_REPLICATIONS)
    ]
    streams = spawn_streams(seed, len(specs))
    for i, spec in enumerate(specs):
        rid = f"brute-{i:05d}"
        tasks = generate_scenario(spec, streams[i].get("scenario"))
        for objective_arg in (None, objective):
            instance = build_mckp(tasks, objective=objective_arg)
            enumeration = 1
            for cls in instance.classes:
                enumeration *= len(cls.items)
            if enumeration > config.brute_limit:
                continue
            quantized = _quantized_copy(instance, config.resolution)
            spans.call(
                "brute_force.solve", rid, None, solve_brute_force, quantized
            )
