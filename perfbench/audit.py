"""Output audit of every serving response, run after the timing stops.

Three legs, on the responses of every timed phase:

1. **Theorem 3** holds on every admission, re-checked from the request.
2. **Bit-identity**: every exact-rung answer equals serial
   :func:`repro.knapsack.solve_dp` on the same instance (same
   placements, same expected benefit), memoised by
   :meth:`repro.knapsack.SolverCache.key_for`.  The same solves give the
   ``benefit_ratio`` denominator.
3. **Reference oracle**: :func:`repro.service.audit_response` (the
   ``solve_dp_reference`` leg) on a seeded sample, because the
   reference DP is an order of magnitude slower than the service.
   ``audit_response`` demands the reference's exact placements, but
   the two DPs may break an argmax tie differently (two servers
   offering the same value at the same quantized weight).  Such a
   report is re-checked here: when the served selection has exactly
   the reference's value and quantized weight it is counted as a tie,
   otherwise it stays an anomaly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.schedulability import OffloadAssignment, theorem3_test
from repro.knapsack import SolverCache, solve_dp, solve_dp_reference
from repro.knapsack.dp import _quantize_weight
from repro.service import (
    AdmissionRequest,
    AdmissionResponse,
    audit_response,
    build_request_instance,
)

__all__ = ["ServingAudit", "audit_serving"]

RESOLUTION = 20_000


@dataclass
class ServingAudit:
    """What the audit checked and what it found."""

    responses: int = 0
    theorem3_checks: int = 0
    exact_checks: int = 0
    reference_sample: int = 0
    reference_ties: int = 0
    distinct_instances: int = 0
    benefit_served: float = 0.0
    benefit_optimal: float = 0.0
    anomalies: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.anomalies

    @property
    def benefit_ratio(self) -> float:
        if self.benefit_optimal == 0.0:
            return 1.0 if self.benefit_served == 0.0 else float("inf")
        return self.benefit_served / self.benefit_optimal

    def to_dict(self) -> Dict[str, object]:
        return {
            "responses": self.responses,
            "theorem3_checks": self.theorem3_checks,
            "exact_checks": self.exact_checks,
            "reference_sample": self.reference_sample,
            "reference_ties": self.reference_ties,
            "distinct_instances": self.distinct_instances,
            "benefit_ratio": self.benefit_ratio,
            "anomaly_count": len(self.anomalies),
            "anomalies": self.anomalies[:32],
        }


def _expected(
    request: AdmissionRequest,
    allowed: Dict[str, float],
    memo: Dict[Tuple, Tuple[Optional[Dict[str, Tuple]], float]],
    built: Dict[Tuple, Tuple],
):
    """``(placements-or-None, optimum)`` of serial ``solve_dp``."""
    # requests drawn from one pool share TaskSet objects, so the build
    # is memoised by identity before the structural key is taken
    build_key = (id(request.tasks), tuple(sorted(allowed.items())))
    key = built.get(build_key)
    if key is None:
        instance = build_request_instance(request, allowed)
        key = SolverCache.key_for("dp", instance, resolution=RESOLUTION)
        built[build_key] = key
        if key not in memo:
            selection = solve_dp(instance, resolution=RESOLUTION)
            if selection is None:
                memo[key] = (None, 0.0)
            else:
                placements = {}
                for cls in instance.classes:
                    server, r = selection.item_for(cls.class_id).tag
                    placements[cls.class_id] = (server, float(r))
                memo[key] = (placements, selection.total_value)
    return memo[key]


def audit_serving(
    pairs: Sequence[Tuple[AdmissionRequest, AdmissionResponse]],
    sample_seed: int,
    reference_sample: int,
) -> ServingAudit:
    """Audit ``(request, response)`` pairs; shed responses are skipped
    (the caller counts them as failures)."""
    audit = ServingAudit()
    memo: Dict[Tuple, Tuple[Optional[Dict[str, Tuple]], float]] = {}
    built: Dict[Tuple, Tuple] = {}
    answered = [(q, r) for q, r in pairs if r.status != "shed"]
    audit.responses = len(answered)
    for request, response in answered:
        rid = response.request_id
        if rid != request.request_id:
            audit.anomalies.append(
                f"{request.request_id}: answered as {rid}"
            )
            continue
        if response.admitted:
            audit.theorem3_checks += 1
            assignments = [
                OffloadAssignment(tid, r)
                for tid, (_server, r) in response.placements.items()
                if r > 0
            ]
            check = theorem3_test(request.tasks, assignments)
            if not check.feasible:
                audit.anomalies.append(
                    f"{rid}: admitted but Theorem 3 fails "
                    f"(demand rate {check.total_demand_rate:.6f})"
                )
        placements, optimum = _expected(
            request, dict(response.allowed_servers), memo, built
        )
        audit.benefit_optimal += optimum
        if response.admitted:
            audit.benefit_served += response.expected_benefit
        if response.degradation != "exact":
            continue
        audit.exact_checks += 1
        if response.admitted != (placements is not None):
            audit.anomalies.append(
                f"{rid}: exact rung says {response.status!r}, serial "
                f"solve_dp says "
                f"{'feasible' if placements is not None else 'infeasible'}"
            )
        elif placements is not None and (
            dict(response.placements) != placements
            or response.expected_benefit != optimum
        ):
            audit.anomalies.append(
                f"{rid}: exact answer differs from serial solve_dp "
                f"(benefit {response.expected_benefit!r} vs {optimum!r})"
            )
    audit.distinct_instances = len(memo)

    rng = random.Random(sample_seed)
    sample = rng.sample(answered, min(reference_sample, len(answered)))
    audit.reference_sample = len(sample)
    for request, response in sample:
        for anomaly in audit_response(request, response, RESOLUTION):
            if anomaly.endswith(_PLACEMENTS_DIFFER) and _is_tie(
                request, response
            ):
                audit.reference_ties += 1
            else:
                audit.anomalies.append(anomaly)
    return audit


_PLACEMENTS_DIFFER = "exact placements differ from reference"


def _is_tie(
    request: AdmissionRequest, response: AdmissionResponse
) -> bool:
    """Whether the served placements are an equally good optimum.

    Equal value and equal total quantized weight as the reference's
    selection: the DP contract pins both, not the argmax among equals.
    """
    instance = build_request_instance(request, response.allowed_servers)
    reference = solve_dp_reference(instance, resolution=RESOLUTION)
    if reference is None or response.expected_benefit != reference.total_value:
        return False
    unit = instance.capacity / RESOLUTION
    served = 0
    for cls in instance.classes:
        tag = response.placements.get(cls.class_id)
        matches = [item for item in cls.items if item.tag == tag]
        if not matches:
            return False
        served += _quantize_weight(matches[0].weight, unit)
    wanted = sum(
        _quantize_weight(reference.item_for(cls.class_id).weight, unit)
        for cls in instance.classes
    )
    return served == wanted
