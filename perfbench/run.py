"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload admit-hot --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same workload, then replays its inputs through the
layers with spans on and prints every per-layer metric.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every request was answered and the output audit found nothing; the
result record, with its provenance, is also written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: metric name → unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "admit_per_s": "1/s",
    "server_cpu_ms_per_admit": "ms",
    "benefit_ratio": "1",
    "peak_rss_mb": "MB",
    "instances_per_s": "1/s",
}
PER_LAYER = {
    "latency_p99_ms": "ms",
    "protocol.encode_us": "us",
    "protocol.decode_us": "us",
    "protocol.request_bytes": "bytes",
    "protocol.response_bytes": "bytes",
    "request.from_dict_us": "us",
    "request.build_instance_us": "us",
    "request.response_to_dict_us": "us",
    "cache.key_for_us": "us",
    "cache.lookup_us": "us",
    "cache.hit_ratio": "1",
    "cache.near_hit_ratio": "1",
    "delta.solve_us": "us",
    "delta.layers_reused_ratio": "1",
    "dp.solve_us": "us",
    "dp.reference_us": "us",
    "brute_force.solve_us": "us",
    "schedulability.theorem3_us": "us",
    "service.batch_size_mean": "count",
    "sharding.inline_batch_ratio": "1",
    "service.server_latency_p50_ms": "ms",
    "wire.overhead_p50_ms": "ms",
    "scenarios.generate_us": "us",
    "odm.build_mckp_us": "us",
    "scenarios.burst_admission_us": "us",
    "parallel.efficiency": "1",
    "loadgen.lateness_p99_ms": "ms",
    "loadgen.cpu_ms_per_request": "ms",
}
#: span name behind each per-layer ``*_us`` metric
SPAN_METRICS = {
    "protocol.encode_us": "protocol.encode",
    "protocol.decode_us": "protocol.decode",
    "request.from_dict_us": "request.from_dict",
    "request.build_instance_us": "request.build_instance",
    "request.response_to_dict_us": "request.response_to_dict",
    "cache.key_for_us": "cache.key_for",
    "cache.lookup_us": "cache.lookup",
    "delta.solve_us": "delta.solve",
    "dp.solve_us": "dp.solve",
    "dp.reference_us": "dp.reference",
    "brute_force.solve_us": "brute_force.solve",
    "schedulability.theorem3_us": "schedulability.theorem3",
    "scenarios.generate_us": "scenarios.generate",
    "odm.build_mckp_us": "odm.build_mckp",
    "scenarios.burst_admission_us": "scenarios.burst_admission",
}
#: audit_response (reference DP) sample per serving run
REFERENCE_SAMPLE = 64
#: share of ``--seconds`` the campaign workload spends on decision passes
DECIDE_SHARE = 0.5


class BenchmarkError(RuntimeError):
    """The run could not produce a trustworthy result."""


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _provenance(args, nproc: int) -> Dict[str, object]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def _percentile(values: List[float], p: float) -> float:
    from repro.service import percentile

    return percentile(values, p)


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def _least_steal(steal: List[float]) -> List[int]:
    """Given each round's (or set-up's) steal time, the ones in which the
    hypervisor took no more CPU time from this machine than in the
    median one: at least half of them.

    A round's timings rise with the CPU time other tenants of a shared
    host take; the kernel counts that time as steal, independently of
    what the round measured.
    """
    limit = statistics.median_low(steal)
    return [i for i, seconds in enumerate(steal) if seconds <= limit]


def _setup_median(run) -> float:
    """Median set-up time over the set-ups the host disturbed least."""
    return statistics.median(
        run.setup_seconds[i] for i in _least_steal(run.setup_steal)
    )


def _setup_provenance(run, what: str, provenance) -> str:
    """Record every set-up in ``provenance``; returns the sample text."""
    provenance["setups"] = [
        {"seconds": seconds, "steal_s": steal}
        for seconds, steal in zip(run.setup_seconds, run.setup_steal)
    ]
    picked = len(_least_steal(run.setup_steal))
    return (
        f"median of the {picked} of {len(run.setup_seconds)} {what} "
        "with the least steal"
    )


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
def _stat_delta(before, after, *path) -> float:
    def dig(record):
        for key in path:
            record = record.get(key, 0) if isinstance(record, dict) else 0
        return float(record or 0)

    return dig(after) - dig(before)


def _serving(args, provenance) -> Tuple[Dict, Dict, int, int, List[str]]:
    from audit import audit_serving
    from serving import SETUP_LAUNCHES, run_serving
    from workloads import (
        CLOSED_LOOP_IN_FLIGHT,
        OPEN_LOOP_SHARE,
        SERVING,
        make_traffic,
    )

    spec = SERVING[args.workload]
    traffic = make_traffic(spec, args.seed, args.seconds, SETUP_LAUNCHES)
    closed_seconds = args.seconds * (1.0 - OPEN_LOOP_SHARE)
    log = OUT / f"server-{args.workload}-seed{args.seed}.log"
    run = run_serving(traffic, args.seconds, closed_seconds, ROOT, log)
    provenance["server_pids"] = run.server_pids

    problems: List[str] = []
    warm_failed = [o for o in run.warmup if o.failed]
    if warm_failed:
        problems.append(f"{len(warm_failed)} warm-up request(s) unanswered")
    timed = run.open_loop + run.closed_loop
    failed = [o for o in timed if o.failed]
    errors = sum(1 for o in failed if o.response is None)
    shed = len(failed) - errors
    timeouts = sum(1 for o in failed if o.error == "TimeoutError")
    if failed:
        problems.append(
            f"{len(failed)} of {len(timed)} timed request(s) failed "
            f"({timeouts} timeouts, {errors - timeouts} errors, {shed} shed)"
        )
    audit_started = time.perf_counter()
    audit = audit_serving(
        [(o.request, o.response) for o in timed if o.response is not None],
        sample_seed=args.seed,
        reference_sample=REFERENCE_SAMPLE,
    )
    problems.extend(audit.anomalies)
    provenance["warmup_s"] = run.warmup_seconds
    provenance["audit_s"] = time.perf_counter() - audit_started

    rounds = [
        ([(o.done - o.due) * 1e3 for o in outcomes if not o.failed], wall)
        for outcomes, wall in run.open_rounds
    ]
    if not all(n for _, n, _ in run.closed_rounds) or not all(
        latencies for latencies, _ in rounds
    ):
        raise BenchmarkError("a timed phase completed no decision")
    open_pick = _least_steal(run.open_steal)
    closed_pick = _least_steal(run.closed_steal)
    picked_latencies = [ms for i in open_pick for ms in rounds[i][0]]
    closed = [run.closed_rounds[i] for i in closed_pick]
    closed_decisions = sum(n for _, n, _ in closed)
    lateness = [(o.sent - o.due) * 1e3 for o in run.open_loop]
    open_ok = [o for o in run.open_loop if not o.failed]
    metrics = {
        "setup_s": _metric(_setup_median(run), "s"),
        "latency_p50_ms": _metric(_percentile(picked_latencies, 50), "ms"),
        "admit_per_s": _metric(
            closed_decisions / sum(t for t, _, _ in closed), "1/s"
        ),
        "server_cpu_ms_per_admit": _metric(
            sum(c for _, _, c in closed) * 1e3 / closed_decisions, "ms"
        ),
        "benefit_ratio": _metric(audit.benefit_ratio, "1"),
        "peak_rss_mb": _metric(run.peak_rss_mb, "MB"),
        "instances_per_s": _metric(
            sum(len(lat) for lat, _ in rounds)
            / sum(wall for _, wall in rounds),
            "1/s",
        ),
    }
    provenance["latency_p99_ms"] = _percentile(
        [(o.done - o.due) * 1e3 for o in open_ok], 99
    )
    closed_text = (
        f"{closed_decisions} decisions of the {len(closed)} of "
        f"{len(run.closed_rounds)} closed-loop rounds with the least steal"
    )
    provenance["samples"] = {
        "setup_s": _setup_provenance(run, "launches", provenance),
        "latency_p50_ms": (
            f"{len(picked_latencies)} requests of the {len(open_pick)} of "
            f"{len(rounds)} open-loop rounds with the least steal"
        ),
        "latency_p99_ms": f"{len(open_ok)} open-loop requests",
        "admit_per_s": closed_text,
        "server_cpu_ms_per_admit": closed_text,
        "benefit_ratio": audit.responses,
        "peak_rss_mb": "read after the warm-up",
        "instances_per_s": f"{len(open_ok)} open-loop requests",
    }
    provenance["phases"] = {
        "rounds": len(rounds),
        "open_loop_rounds_picked": open_pick,
        "closed_loop_rounds_picked": closed_pick,
        "open_loop_rate": spec.rate,
        "open_loop_requests": len(run.open_loop),
        "open_loop_rounds": [
            {
                "requests": len(lat),
                "wall_s": wall,
                "p50_ms": _percentile(lat, 50),
                "p99_ms": _percentile(lat, 99),
                "max_ms": max(lat),
                "steal_s": steal,
            }
            for (lat, wall), steal in zip(rounds, run.open_steal)
        ],
        "closed_loop_rounds": [
            {"decisions": n, "wall_s": t, "server_cpu_s": c, "steal_s": steal}
            for (t, n, c), steal in zip(run.closed_rounds, run.closed_steal)
        ],
        "closed_loop_in_flight": CLOSED_LOOP_IN_FLIGHT,
        "closed_loop_requests": len(run.closed_loop),
        "closed_loop_stream_exhausted": run.closed_exhausted,
        "warmup_requests": len(run.warmup),
    }
    provenance["final_peak_rss_mb"] = run.final_peak_rss_mb
    provenance["failures"] = {
        "errors": errors - timeouts,
        "timeouts": timeouts,
        "shed": shed,
        "failed_frac": len(failed) / len(timed),
    }
    provenance["generator"] = {
        "lateness_p50_ms": _percentile(lateness, 50),
        "lateness_p99_ms": _percentile(lateness, 99),
        "lateness_max_ms": max(lateness),
        "cpu_ms_per_request": run.generator_cpu * 1e3 / len(timed),
    }
    provenance["audit"] = audit.to_dict()

    layers: Dict[str, Dict] = {}
    if args.trace:
        layers = _serving_layers(args, run, spec, provenance)
    return metrics, layers, len(timed), len(failed), problems


def _serving_layers(args, run, spec, provenance) -> Dict[str, Dict]:
    from replay import BASELINE_STAGES, replay_serving
    from tracing import NullSpans, Spans
    from workloads import WARMUP_REPEAT, WARMUP_STREAM

    # the refill re-sends are cache hits: the workload's own warm-up
    # requests plus the last refill cycle leave the replay cache with the
    # server's entries in the server's recency order
    warm = [
        (o.request, o.response)
        for o in run.warmup[:WARMUP_STREAM]
        + run.warmup[-WARMUP_REPEAT:]
        if not o.failed
    ]
    measured = [(o.request, o.response) for o in run.open_loop if not o.failed]
    untraced = replay_serving(NullSpans(), warm, measured, args.seed)
    spans = Spans()
    traced = replay_serving(spans, warm, measured, args.seed)
    spans.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    before, after = run.stats_before, run.stats_after
    hits = _stat_delta(before, after, "cache", "hits")
    misses = _stat_delta(before, after, "cache", "misses")
    near = _stat_delta(before, after, "cache", "near_hits")
    probes = hits + misses
    delta_solves = _stat_delta(before, after, "delta", "solves")
    reused = _stat_delta(before, after, "delta", "layers_reused")
    batches = _stat_delta(before, after, "batches")
    batched = float(after.get("batch_size_mean", 0)) * float(
        after.get("batches", 0)
    ) - float(before.get("batch_size_mean", 0)) * float(
        before.get("batches", 0)
    )
    inline = _stat_delta(before, after, "delta", "inline_batches")
    open_ok = [o for o in run.open_loop if not o.failed]
    server_ms = [o.response.latency * 1e3 for o in open_ok]
    wire_ms = [
        (o.done - o.sent - o.response.latency) * 1e3 for o in open_ok
    ]
    generator = provenance["generator"]
    values = {
        name: spans.median_us(span) for name, span in SPAN_METRICS.items()
    }
    values.update(
        {
            "protocol.request_bytes": statistics.median(traced.request_bytes),
            "protocol.response_bytes": statistics.median(
                traced.response_bytes
            ),
            "cache.hit_ratio": hits / probes if probes else 0.0,
            "cache.near_hit_ratio": near / probes if probes else 0.0,
            "delta.layers_reused_ratio": (
                reused / (delta_solves * spec.num_tasks)
                if delta_solves else 0.0
            ),
            "service.batch_size_mean": batched / batches if batches else 0.0,
            "sharding.inline_batch_ratio": (
                inline / batches if batches else 0.0
            ),
            "latency_p99_ms": provenance["latency_p99_ms"],
            "service.server_latency_p50_ms": _percentile(server_ms, 50),
            "wire.overhead_p50_ms": _percentile(wire_ms, 50),
            "parallel.efficiency": 0.0,
            "loadgen.lateness_p99_ms": generator["lateness_p99_ms"],
            "loadgen.cpu_ms_per_request": generator["cpu_ms_per_request"],
        }
    )
    provenance["layer_samples"] = {
        name: len(spans.durations(span))
        for name, span in SPAN_METRICS.items()
    }
    provenance["layer_samples"].update(
        {
            "cache.hit_ratio": int(probes),
            "delta.layers_reused_ratio": int(delta_solves),
            "service.batch_size_mean": int(batches),
            "service.server_latency_p50_ms": len(server_ms),
            "wire.overhead_p50_ms": len(wire_ms),
        }
    )
    baseline = spans.by_request(BASELINE_STAGES)
    baseline_ms = [v * 1e3 for v in baseline.values()]
    latencies = [(o.done - o.due) * 1e3 for o in open_ok]
    provenance["serial_baseline"] = {
        "solver": "solve_dp",
        "requests": len(baseline_ms),
        "stage_sum_p50_ms": _percentile(baseline_ms, 50),
        "stage_sum_p99_ms": _percentile(baseline_ms, 99),
        "tcp_latency_p50_ms": _percentile(latencies, 50),
        "tcp_latency_p99_ms": _percentile(latencies, 99),
        "server_latency_p50_ms": _percentile(server_ms, 50),
    }
    provenance["tracing_overhead"] = {
        "replayed_requests": traced.requests,
        "untraced_replay_us_per_request": (
            untraced.wall_seconds / untraced.requests * 1e6
        ),
        "traced_replay_us_per_request": (
            traced.wall_seconds / traced.requests * 1e6
        ),
        "overhead_us_per_request": (
            (traced.wall_seconds - untraced.wall_seconds)
            / traced.requests * 1e6
        ),
    }
    return {name: _metric(values[name], PER_LAYER[name]) for name in PER_LAYER}


# ----------------------------------------------------------------------
# campaign workload
# ----------------------------------------------------------------------
def _campaign(args, provenance, nproc) -> Tuple[Dict, Dict, int, int, List[str]]:
    from campaign_run import (
        replay_brute_force,
        replay_units,
        run_campaign_workload,
    )

    run = run_campaign_workload(
        ROOT, args.seed, args.size, nproc, args.seconds * DECIDE_SHARE
    )
    problems = list(run.anomalies)
    if not run.ok:
        problems.append("campaign audit did not report ok")
    decisions = run.decisions
    metrics = {
        "setup_s": _metric(_setup_median(run), "s"),
        "latency_p50_ms": _metric(decisions["p50_ms"], "ms"),
        "admit_per_s": _metric(decisions["per_s"], "1/s"),
        "server_cpu_ms_per_admit": _metric(
            run.cpu_seconds * 1e3 / run.instances, "ms"
        ),
        "benefit_ratio": _metric(run.benefit_ratio, "1"),
        "peak_rss_mb": _metric(run.peak_rss_mb, "MB"),
        "instances_per_s": _metric(run.instances / run.wall_seconds, "1/s"),
    }
    provenance["latency_p99_ms"] = decisions["p99_ms"]
    fastest = (
        f"{decisions['task_sets']} task sets, each the fastest of "
        f"{decisions['passes']} passes"
    )
    provenance["samples"] = {
        "setup_s": _setup_provenance(run, "probes", provenance),
        "latency_p50_ms": fastest,
        "latency_p99_ms": fastest,
        "admit_per_s": fastest,
        "server_cpu_ms_per_admit": run.instances,
        "benefit_ratio": run.report["audit"]["reference_checks"],
        "peak_rss_mb": 1,
        "instances_per_s": run.instances,
    }
    provenance["campaign"] = dict(
        run.report, instances=run.instances, decisions=decisions
    )
    provenance["generator"] = {"lateness_p99_ms": 0.0}

    layers: Dict[str, Dict] = {}
    if args.trace:
        from tracing import NullSpans, Spans

        untraced = replay_units(NullSpans(), args.seed, args.size, args.seed)
        spans = Spans()
        unit_seconds = replay_units(spans, args.seed, args.size, args.seed)
        replay_brute_force(spans, args.seed)
        spans.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        values = {name: 0.0 for name in PER_LAYER}
        values.update(
            {name: spans.median_us(span) for name, span in SPAN_METRICS.items()}
        )
        values["latency_p99_ms"] = provenance["latency_p99_ms"]
        mean_unit = statistics.fmean(unit_seconds)
        values["parallel.efficiency"] = (
            mean_unit * run.instances / (run.wall_seconds * run.workers)
        )
        provenance["layer_samples"] = {
            name: len(spans.durations(span))
            for name, span in SPAN_METRICS.items()
        }
        provenance["layer_samples"]["parallel.efficiency"] = len(unit_seconds)
        provenance["tracing_overhead"] = {
            "replayed_units": len(unit_seconds),
            "untraced_unit_ms": statistics.fmean(untraced) * 1e3,
            "traced_unit_ms": mean_unit * 1e3,
            "overhead_ms_per_unit": (
                mean_unit - statistics.fmean(untraced)
            ) * 1e3,
        }
        layers = {
            name: _metric(values[name], PER_LAYER[name]) for name in PER_LAYER
        }
    return metrics, layers, run.instances, 0, problems


# ----------------------------------------------------------------------
def _untraced_deltas(args, metrics) -> Optional[Dict[str, float]]:
    """Traced minus untraced end-to-end metrics, when an untraced result
    for the same workload and seed is on disk."""
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace0.json"
    if not path.is_file():
        return None
    with open(path) as handle:
        earlier = json.load(handle).get("end_to_end", {})
    return {
        name: metrics[name]["value"] - earlier[name]["value"]
        for name in metrics
        if name in earlier
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument(
        "--workload", required=True,
        choices=("admit-hot", "admit-churn", "campaign"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: the campaign's smoke matrix (self-test only)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source at {ROOT / 'src' / 'repro'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    from server_proc import live_children, steal_seconds

    nproc = len(os.sched_getaffinity(0))
    provenance = _provenance(args, nproc)
    steal0 = steal_seconds()
    if args.workload == "campaign":
        metrics, layers, attempted, failed, problems = _campaign(
            args, provenance, nproc
        )
    else:
        metrics, layers, attempted, failed, problems = _serving(
            args, provenance
        )

    provenance["steal_s"] = steal_seconds() - steal0
    leftovers = live_children()
    if leftovers:
        problems.append(f"child processes outlived the run: {leftovers}")
    if args.trace:
        provenance.setdefault("tracing_overhead", {})[
            "end_to_end_traced_minus_untraced"
        ] = _untraced_deltas(args, metrics)
    correct = not problems
    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:32],
        "end_to_end": metrics,
        "per_layer": layers,
        "provenance": provenance,
    }
    with open(
        OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
        "w",
    ) as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print(f"provenance: {json.dumps(provenance, sort_keys=True)}")
    shown = layers if args.trace else metrics
    for name, metric in shown.items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    for problem in problems[:32]:
        print(f"PROBLEM: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": shown,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
