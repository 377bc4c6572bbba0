"""Drive ``repro serve`` from outside: set-up, warm-up, open and closed loop.

One generator (this process) talks to one server process over one
pipelined :class:`repro.service.ServiceClient` connection in the v2
binary wire format.  Every call carries a timeout; a timeout, a lost
connection or a shed response counts as a failure.

Phases of one run, in order:

1. **set-up** — launch the server several times; each launch is timed
   from process start until its first admit is answered.  The last
   server stays up for the rest of the run.
2. **warm-up** — an untimed closed-loop replay that fills the cache.
3. **open loop** — Poisson arrivals at the workload's fixed rate; each
   request is timed from its *scheduled* send time.
4. **closed loop** — a fixed number of requests in flight; decisions
   per second and the server's CPU per decision.

Phases 3 and 4 alternate for ``workloads.ROUNDS`` rounds.

The generator's own objects are frozen out of the garbage collector
(:func:`gc.freeze`) for the run, so a collection pass over the traffic
it holds cannot stall its sends or reads.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.service import (
    AdmissionRequest,
    AdmissionResponse,
    ConnectionLost,
    ServiceClient,
)

from server_proc import ServerError, ServerProcess, steal_seconds
from workloads import CLOSED_LOOP_IN_FLIGHT, Traffic

__all__ = ["Outcome", "ServingRun", "run_serving"]

#: Bound on every client call; past it the request counts as failed.
REQUEST_TIMEOUT = 10.0
#: Server launches timed per run; ``setup_s`` is the median over those
#: with the least steal.
SETUP_LAUNCHES = 7
#: Lead time before the first open-loop arrival.
OPEN_LOOP_LEAD = 0.05


@dataclass
class Outcome:
    """One request's fate as the generator saw it."""

    request: AdmissionRequest
    response: Optional[AdmissionResponse]
    due: float
    sent: float
    done: float
    #: exception type name when the call failed
    error: str = ""

    @property
    def failed(self) -> bool:
        return self.response is None or self.response.status == "shed"


@dataclass
class ServingRun:
    """Everything a serving run measured, before the audit."""

    setup_seconds: List[float] = field(default_factory=list)
    #: per launch: the host's steal time during its set-up
    setup_steal: List[float] = field(default_factory=list)
    warmup: List[Outcome] = field(default_factory=list)
    #: per round: the open-loop outcomes and the round's wall time
    open_rounds: List[Tuple[List[Outcome], float]] = field(
        default_factory=list
    )
    closed_loop: List[Outcome] = field(default_factory=list)
    #: per round: closed-loop ``(seconds, decisions, server CPU seconds)``
    closed_rounds: List[Tuple[float, int, float]] = field(
        default_factory=list
    )
    #: per round: the host's steal time (``/proc/stat``) during the open
    #: loop and during the closed loop
    open_steal: List[float] = field(default_factory=list)
    closed_steal: List[float] = field(default_factory=list)
    closed_exhausted: bool = False
    generator_cpu: float = 0.0
    warmup_seconds: float = 0.0
    #: the server's ``VmHWM`` after the warm-up, and at the end of the run
    peak_rss_mb: float = 0.0
    final_peak_rss_mb: float = 0.0
    stats_before: Dict[str, object] = field(default_factory=dict)
    stats_after: Dict[str, object] = field(default_factory=dict)
    server_pids: List[int] = field(default_factory=list)

    @property
    def open_loop(self) -> List[Outcome]:
        return [o for outcomes, _ in self.open_rounds for o in outcomes]


async def _submit(
    client: ServiceClient, request: AdmissionRequest, due: float
) -> Outcome:
    loop = asyncio.get_running_loop()
    sent = loop.time()
    try:
        response = await client.submit(request, timeout=REQUEST_TIMEOUT)
    except (asyncio.TimeoutError, ConnectionLost, OSError) as exc:
        return Outcome(
            request, None, due, sent, loop.time(), type(exc).__name__
        )
    return Outcome(request, response, due, sent, loop.time())


async def _closed_loop(
    client: ServiceClient,
    source: Iterator[AdmissionRequest],
    seconds: Optional[float],
    outcomes: List[Outcome],
) -> bool:
    """Keep ``CLOSED_LOOP_IN_FLIGHT`` requests in flight.

    Runs until ``source`` is used up, or (with ``seconds``) until no
    new request may start.  Outcomes are appended to ``outcomes`` as
    they complete; returns whether the stream ran out before the time
    did.
    """
    loop = asyncio.get_running_loop()
    stop_at = None if seconds is None else loop.time() + seconds
    exhausted = False

    async def worker() -> None:
        nonlocal exhausted
        while stop_at is None or loop.time() < stop_at:
            request = next(source, None)
            if request is None:
                exhausted = stop_at is not None
                return
            outcomes.append(await _submit(client, request, loop.time()))

    await asyncio.gather(
        *(worker() for _ in range(CLOSED_LOOP_IN_FLIGHT))
    )
    return exhausted


async def _open_loop(
    client: ServiceClient,
    schedule: Sequence[Tuple[float, AdmissionRequest]],
) -> Tuple[List[Outcome], float]:
    """Send each request at its scheduled offset, never waiting on replies.

    Returns the outcomes in schedule order and the phase's wall time,
    from its start until the last reply.
    """
    loop = asyncio.get_running_loop()
    start = loop.time() + OPEN_LOOP_LEAD
    tasks: List[asyncio.Task] = []
    for offset, request in schedule:
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(_submit(client, request, due)))
    outcomes = list(await asyncio.gather(*tasks))
    return outcomes, max(o.done for o in outcomes) - start


def _setup_done(server: ServerProcess, run: "ServingRun") -> None:
    """Record the set-up just finished: seconds since the server's
    launch, and the host's steal time over them."""
    run.setup_seconds.append(time.perf_counter() - server.launched_at)
    run.setup_steal.append(steal_seconds() - server.launched_steal)


async def _first_admit(
    server: ServerProcess, request: AdmissionRequest, run: "ServingRun"
) -> None:
    """Time the server's launch until its first admit returns."""
    async with ServiceClient(port=server.port) as client:
        response = await client.submit(request, timeout=REQUEST_TIMEOUT)
        _setup_done(server, run)
        if response.status == "shed":
            raise ServerError("first admit was shed")
        await client.shutdown(timeout=REQUEST_TIMEOUT)


async def _drive(
    server: ServerProcess, traffic: Traffic, closed_seconds: float,
    run: ServingRun,
) -> None:
    async with ServiceClient(port=server.port) as client:
        response = await client.submit(
            traffic.setup[-1], timeout=REQUEST_TIMEOUT
        )
        _setup_done(server, run)
        if response.status == "shed":
            raise ServerError("first admit was shed")

        warm_started = time.perf_counter()
        await _closed_loop(client, iter(traffic.warmup), None, run.warmup)
        run.warmup_seconds = time.perf_counter() - warm_started
        run.stats_before = await client.stats(timeout=REQUEST_TIMEOUT)
        # the warm-up is a fixed amount of work; the closed loop's is not,
        # and the server's memory grows with the requests it has served
        run.peak_rss_mb = server.peak_rss_mb()

        cpu0 = time.process_time()
        closed_source = iter(traffic.closed_loop)
        round_seconds = closed_seconds / len(traffic.open_rounds)
        loop = asyncio.get_running_loop()
        for schedule in traffic.open_rounds:
            steal0 = steal_seconds()
            run.open_rounds.append(await _open_loop(client, schedule))
            run.open_steal.append(steal_seconds() - steal0)
            first = len(run.closed_loop)
            steal0 = steal_seconds()
            server_cpu = server.cpu_seconds()
            started = loop.time()
            run.closed_exhausted |= await _closed_loop(
                client, closed_source, round_seconds, run.closed_loop
            )
            finished = run.closed_loop[first:]
            run.closed_rounds.append(
                (
                    max((o.done for o in finished), default=started)
                    - started,
                    len(finished),
                    server.cpu_seconds() - server_cpu,
                )
            )
            run.closed_steal.append(steal_seconds() - steal0)
        run.generator_cpu = time.process_time() - cpu0

        run.stats_after = await client.stats(timeout=REQUEST_TIMEOUT)
        run.final_peak_rss_mb = server.peak_rss_mb()
        await client.shutdown(timeout=REQUEST_TIMEOUT)


def run_serving(
    traffic: Traffic,
    seconds: float,
    closed_seconds: float,
    root: Path,
    log_path: Path,
) -> ServingRun:
    """Run every phase against fresh ``repro serve`` processes.

    Each server is stopped (and waited for) in a ``finally`` block,
    whatever happened; the caller checks afterwards that no child
    process is left.
    """
    run = ServingRun()
    # the server's own hard cap: generous for the run, short of the
    # benchmark's 180 s limit
    cap = min(170.0, 3.0 * seconds + 60.0)
    for request in traffic.setup[:-1]:
        server = ServerProcess(root, cap, log_path)
        try:
            server.start()
            run.server_pids.append(server.pid)
            asyncio.run(_first_admit(server, request, run))
            server.wait_exit(timeout=5.0)
        finally:
            server.stop()

    server = ServerProcess(root, cap, log_path)
    try:
        server.start()
        run.server_pids.append(server.pid)
        gc.collect()
        gc.freeze()
        asyncio.run(_drive(server, traffic, closed_seconds, run))
        server.wait_exit(timeout=5.0)
    finally:
        gc.unfreeze()
        server.stop()
    return run
