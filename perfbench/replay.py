"""Replay a serving run's requests through the layers, one span per stage.

The stages are the calls the server makes for one admit, in its order:
frame decode → request model → instance build → cache key → cache
lookup → (near-miss probe → delta solve | scratch DP) → Theorem-3
verify → response model → frame encode.  A replay-local
:class:`repro.knapsack.SolverCache` configured like the server's sees
the same request order, so hits and misses fall as they did there.

Each request is also solved by plain :func:`repro.knapsack.solve_dp`
(span ``baseline.solve_dp``): the in-process stage sum with that solver
in place of the cache is the same-solver serial baseline.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from repro.core.schedulability import OffloadAssignment, theorem3_test
from repro.knapsack import (
    Selection,
    SolverCache,
    solve_delta,
    solve_dp,
    solve_dp_reference,
)
from repro.service import (
    AdmissionRequest,
    AdmissionResponse,
    build_request_instance,
    decode_frame,
    encode_frame,
)

from tracing import NullSpans

__all__ = ["BASELINE_STAGES", "ServingReplay", "replay_serving"]

RESOLUTION = 20_000
#: The server's cache shape (``ODMService`` default).
DELTA_MAXSTATES = 64
#: Open-loop requests replayed per run (the first ones, in order).
REPLAY_LIMIT = 1000
#: Requests whose instance is also solved by the reference DP.
REFERENCE_REPLAYS = 24

#: Stages of the same-solver serial baseline (no cache, no batching).
BASELINE_STAGES = (
    "protocol.decode",
    "request.from_dict",
    "request.build_instance",
    "baseline.solve_dp",
    "schedulability.theorem3",
    "request.response_to_dict",
    "protocol.encode",
)


class ServingReplay:
    """Counts and sizes gathered while replaying."""

    def __init__(self) -> None:
        self.request_bytes: List[int] = []
        self.response_bytes: List[int] = []
        self.wall_seconds = 0.0
        self.requests = 0


def _replay_one(spans, cache, request, response, out, baseline: bool):
    rid = request.request_id
    frame = encode_frame({"op": "admit", "request": request.to_dict()})
    root = spans.open("request", rid)
    record, _ = spans.call("protocol.decode", rid, root, decode_frame, frame)
    decoded = spans.call(
        "request.from_dict", rid, root,
        AdmissionRequest.from_dict, record["request"],
    )
    allowed = dict(sorted(decoded.server_estimates.items()))
    instance = spans.call(
        "request.build_instance", rid, root,
        build_request_instance, decoded, allowed,
    )
    key = spans.call(
        "cache.key_for", rid, root,
        SolverCache.key_for, "dp", instance, resolution=RESOLUTION,
    )
    hit, choices = spans.call("cache.lookup", rid, root, cache.lookup, key)
    if not hit:
        state = spans.call(
            "cache.probe_delta", rid, root,
            cache.probe_delta, instance, RESOLUTION,
        )
        result = spans.call(
            "delta.solve" if state is not None else "dp.solve", rid, root,
            solve_delta, instance, resolution=RESOLUTION, state=state,
        )
        choices = (
            None if result.selection is None
            else dict(result.selection.choices)
        )
        cache.store(key, choices)
        cache.store_state(key, result.state)
    if choices is not None:
        selection = Selection(instance, dict(choices))
        assignments = []
        for cls in instance.classes:
            _server, r = selection.item_for(cls.class_id).tag
            if r > 0:
                assignments.append(OffloadAssignment(cls.class_id, float(r)))
        spans.call(
            "schedulability.theorem3", rid, root,
            theorem3_test, decoded.tasks, assignments,
        )
    body = spans.call(
        "request.response_to_dict", rid, root, response.to_dict
    )
    reply = spans.call(
        "protocol.encode", rid, root,
        encode_frame, {"op": "response", **body},
    )
    spans.close(root)
    if baseline:
        spans.call(
            "baseline.solve_dp", rid, None,
            solve_dp, instance, resolution=RESOLUTION,
        )
    if out is not None:
        out.request_bytes.append(len(frame))
        out.response_bytes.append(len(reply))
    return instance


def replay_serving(
    spans,
    warmup: Sequence[Tuple[AdmissionRequest, AdmissionResponse]],
    measured: Sequence[Tuple[AdmissionRequest, AdmissionResponse]],
    sample_seed: int,
) -> ServingReplay:
    """Warm a fresh cache with ``warmup``, then replay ``measured``.

    Only the measured requests are recorded and timed; the reference DP
    runs on a seeded sample of them after the timed loop.
    """
    cache = SolverCache(delta_maxstates=DELTA_MAXSTATES)
    for request, response in warmup:
        _replay_one(NullSpans(), cache, request, response, None, False)
    out = ServingReplay()
    measured = list(measured[:REPLAY_LIMIT])
    instances: Dict[str, object] = {}
    started = perf_counter()
    for request, response in measured:
        instances[request.request_id] = _replay_one(
            spans, cache, request, response, out, True
        )
    out.wall_seconds = perf_counter() - started
    out.requests = len(measured)
    rng = random.Random(sample_seed)
    sample = rng.sample(
        sorted(instances), min(REFERENCE_REPLAYS, len(instances))
    )
    for rid in sample:
        spans.call(
            "dp.reference", rid, None,
            solve_dp_reference, instances[rid], resolution=RESOLUTION,
        )
    return out
