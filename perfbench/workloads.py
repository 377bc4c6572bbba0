"""Workload definitions: what each benchmark workload sends or runs.

Every input is a pure function of the seed: the serving workloads draw
their traffic from :func:`repro.service.generate_open_loop`, and the
campaign runs :func:`repro.scenarios.run_campaign` on the default
matrix with ``CampaignConfig(seed=seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.service import AdmissionRequest, OpenLoopConfig, generate_open_loop

__all__ = [
    "SERVING",
    "ServingSpec",
    "Traffic",
    "make_traffic",
]

#: Requests kept in flight on the one connection in the closed loop:
#: twice the server's default ``max_batch``, so every batch it takes is
#: full and the batch size does not drift with timing.
CLOSED_LOOP_IN_FLIGHT = 32

#: Upper bound on closed-loop decisions per second that the generated
#: stream must cover; the stream is cut off (and says so) past it.
CLOSED_LOOP_MAX_RATE = 2500.0


@dataclass(frozen=True)
class ServingSpec:
    """One traffic mix for the out-of-process admission service."""

    unique_sets: int
    num_tasks: int
    churn_rate: float
    #: fixed open-loop Poisson rate, requests per wall second
    rate: float


#: The open-loop rates keep the server busy a small share of the time,
#: so open-loop latency is each request's own path, not queueing, which
#: would magnify every slowdown of a shared host.
SERVING: Dict[str, ServingSpec] = {
    "admit-hot": ServingSpec(
        unique_sets=10,
        num_tasks=5,
        churn_rate=0.0,
        rate=60.0,
    ),
    "admit-churn": ServingSpec(
        unique_sets=40,
        num_tasks=8,
        churn_rate=0.35,
        rate=25.0,
    ),
}

#: The workload's own requests that open the untimed warm-up and fill
#: the cache.
WARMUP_STREAM = 400
#: Warm-up admits in all: the server's idempotency table keeps the last
#: 4096 request ids, and its per-request cost settles once that table
#: is full, so the warm-up passes it before anything is timed.
WARMUP_ADMITS = 4608
#: Warm-up requests beyond the workload's own are re-sends (fresh ids)
#: of its last this-many requests: fewer distinct instances than the
#: server's 256-entry cache, so they are hits and leave it as it was.
WARMUP_REPEAT = 128

#: The timed part of a run alternates open and closed loop this many
#: times, so every metric is read several times across the run and the
#: timings can come from the rounds the host disturbed least.
ROUNDS = 10
#: Share of ``--seconds`` spent in open loop; closed loop gets the rest.
OPEN_LOOP_SHARE = 0.5


@dataclass
class Traffic:
    """The seeded request stream of one serving run, split by phase."""

    setup: List[AdmissionRequest]
    warmup: List[AdmissionRequest]
    #: per round, ``(offset_seconds, request)`` from the round's start
    open_rounds: List[List[Tuple[float, AdmissionRequest]]]
    closed_loop: List[AdmissionRequest]


def _renamed(request: AdmissionRequest, request_id: str) -> AdmissionRequest:
    return replace(request, request_id=request_id)


def make_traffic(
    spec: ServingSpec, seed: int, seconds: float, setup_launches: int
) -> Traffic:
    """Cut one seeded open-loop trace into the run's phases.

    Request ids are unique over the whole run (the server deduplicates
    by id), and each phase takes the next slice of the same stream.
    """
    open_seconds = seconds * OPEN_LOOP_SHARE
    closed_seconds = seconds - open_seconds
    per_round = max(1, round(spec.rate * open_seconds / ROUNDS))
    n_open = per_round * ROUNDS
    n_closed = max(
        CLOSED_LOOP_IN_FLIGHT, round(CLOSED_LOOP_MAX_RATE * closed_seconds)
    )
    total = setup_launches + WARMUP_STREAM + n_open + n_closed
    trace = generate_open_loop(
        OpenLoopConfig(
            seed=seed,
            rate=spec.rate,
            dispatch_scale=1.0,
            requests=total,
            unique_sets=spec.unique_sets,
            num_tasks=spec.num_tasks,
            churn_rate=spec.churn_rate,
        )
    )
    requests = [request for _, request in trace]
    cut = 0

    def take(count: int, prefix: str) -> List[AdmissionRequest]:
        nonlocal cut
        chunk = requests[cut:cut + count]
        cut += count
        return [
            _renamed(r, f"{prefix}-{seed}-{i:06d}")
            for i, r in enumerate(chunk)
        ]

    setup = take(setup_launches, "setup")
    warmup = take(WARMUP_STREAM, "warm")
    tail = warmup[-WARMUP_REPEAT:]
    warmup += [
        _renamed(tail[i % len(tail)], f"refill-{seed}-{i:06d}")
        for i in range(WARMUP_ADMITS - len(warmup))
    ]
    open_rounds = []
    for _ in range(ROUNDS):
        base = trace[cut - 1][0] if cut else 0.0
        open_rounds.append(
            [
                (offset - base, _renamed(r, f"open-{seed}-{i:06d}"))
                for i, (offset, r) in enumerate(
                    trace[cut:cut + per_round], start=cut
                )
            ]
        )
        cut += per_round
    closed_loop = take(n_closed, "closed")
    return Traffic(
        setup=setup,
        warmup=warmup,
        open_rounds=open_rounds,
        closed_loop=closed_loop,
    )
