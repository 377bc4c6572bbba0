"""Topology-routed offloading decisions with per-server degradation.

:class:`TopologyDecisionManager` is the multi-server ODM with the two
runtime pieces the single-server stack already has, now *per server*:

* a :class:`~repro.runtime.health.CircuitBreaker` per server, created on
  demand and fed windowed offload outcomes through
  :meth:`TopologyDecisionManager.record_window` — an ``open`` breaker
  prunes that server's choice groups out of the routed MCKP, so the
  degradation ladder falls back server-by-server (tasks re-route to the
  surviving servers) and reaches local-only exactly when every breaker
  is open (only the local items remain, which is the single-server
  degraded reduction);
* an optional :class:`~repro.knapsack.SolverCache` — the routed
  instance is canonically keyed like any other, so unchanged topologies
  re-decide from cache and a recovered topology (breaker re-closed on
  an unchanged instance) restores the original decision bit-for-bit.

Soundness: item weights are the Theorem 3 demand rates regardless of
the chosen server, and the §3 guaranteed-result budget is applied with
the *chosen server's* bound (``server_bounds``), so the schedulability
guarantee holds for whichever server each task routes to.
:meth:`TopologyDecisionManager.verify` re-checks this from scratch —
both through the generic
:func:`~repro.core.schedulability.theorem3_test` and through a strict
per-server recomputation of every chosen item's demand rate.

``decide`` is two public steps around a solve: :meth:`build_instance`
(prune, then reduce) and :meth:`verify` (selection → verified
:class:`RoutedDecision`).  The online service
(:class:`repro.service.ODMService`) runs the same two steps with its
batched, cached, delta-aware solve in between, so offline routing and
online admission share one decision path and one set of breakers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..core.benefit import BenefitFunction
from ..core.odm import build_mckp
from ..core.schedulability import (
    OffloadAssignment,
    SchedulabilityResult,
    theorem3_test,
)
from ..core.task import OffloadableTask, TaskSet
from ..knapsack import SOLVERS, MCKPInstance, Selection, SolverCache
from ..runtime.health import CircuitBreaker

__all__ = ["RoutedDecision", "TopologyDecisionManager"]


@dataclass(frozen=True)
class RoutedDecision:
    """Per-task ``(server, R_i)`` selection plus its evidence.

    ``placements`` maps every task id to ``(server_id, response_time)``;
    local execution is ``(None, 0.0)``.  ``pruned_servers`` lists the
    servers whose breaker was open (pruned from routing) when the
    decision was made.
    """

    placements: Mapping[str, Tuple[Optional[str], float]]
    expected_benefit: float
    total_demand_rate: float
    schedulability: SchedulabilityResult
    solver: str
    pruned_servers: Tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.pruned_servers)

    @property
    def response_times(self) -> Dict[str, float]:
        """The plain ``task_id -> R_i`` view the scheduler consumes."""
        return {tid: r for tid, (_, r) in self.placements.items()}

    @property
    def routes(self) -> Dict[str, str]:
        """``task_id -> server_id`` for the offloaded tasks only."""
        return {
            tid: server
            for tid, (server, r) in self.placements.items()
            if server is not None and r > 0
        }

    def server_of(self, task_id: str) -> Optional[str]:
        return self.placements[task_id][0]


def _effective_tasks(
    tasks: TaskSet,
    placements: Mapping[str, Tuple[Optional[str], float]],
    server_bounds: Optional[Mapping[str, Mapping[str, float]]],
) -> TaskSet:
    """Tasks with each routed task's §3 bound set to its *chosen
    server's* bound, so the generic Theorem 3 test budgets the same
    second phase the routed MCKP did.  Identity when no per-server
    bounds are in play."""
    if not server_bounds:
        return tasks
    effective = TaskSet()
    for task in tasks:
        server_id, r = placements[task.task_id]
        if isinstance(task, OffloadableTask) and server_id is not None:
            bound = server_bounds.get(server_id, {}).get(task.task_id)
            if bound is not None and bound != task.server_response_bound:
                task = replace(task, server_response_bound=bound)
        effective.add(task)
    return effective


def _routed_demand_rate(
    task: OffloadableTask,
    fn: BenefitFunction,
    response_time: float,
    bound: Optional[float],
) -> float:
    """Recompute one offloaded item's Theorem 3 demand rate from the
    chosen server's own data (not from the MCKP item)."""
    point = fn.point_at(response_time)
    slack = task.deadline - response_time
    setup = (
        point.setup_time if point.setup_time is not None else task.setup_time
    )
    guaranteed = (
        bound is not None and response_time >= bound - 1e-12
    )
    if guaranteed:
        second = task.post_time
    else:
        second = (
            point.compensation_time
            if point.compensation_time is not None
            else task.compensation_time
        )
    return (setup + second) / slack


class TopologyDecisionManager:
    """Routed ODM: solver + per-server breakers + optional cache.

    Parameters mirror
    :class:`~repro.core.odm.OffloadingDecisionManager`: ``cache=True``
    creates a private :class:`SolverCache`, a cache instance is used
    as-is (note an explicitly-constructed empty cache is *falsy* via
    ``__len__``, hence the identity checks), anything falsy disables
    caching.  ``breaker_factory`` builds one breaker per server on first
    use (default: :class:`CircuitBreaker` with its defaults).
    """

    def __init__(
        self,
        solver: str = "dp",
        cache=None,
        breaker_factory: Optional[Callable[[], CircuitBreaker]] = None,
        **solver_kwargs,
    ) -> None:
        if solver not in SOLVERS:
            raise ValueError(
                f"unknown solver {solver!r}; available: {sorted(SOLVERS)}"
            )
        self._solve: Callable = SOLVERS[solver]
        self.solver_name = solver
        self._solver_kwargs = solver_kwargs
        if cache is True:
            cache = SolverCache()
        elif cache is False or cache is None:
            cache = None
        self.cache: Optional[SolverCache] = cache
        self._breaker_factory = (
            breaker_factory if breaker_factory is not None else CircuitBreaker
        )
        self.breakers: Dict[str, CircuitBreaker] = {}

    # ------------------------------------------------------------------
    # per-server health
    # ------------------------------------------------------------------
    def breaker(self, server_id: str) -> CircuitBreaker:
        """The breaker for ``server_id``, created closed on first use."""
        if server_id not in self.breakers:
            self.breakers[server_id] = self._breaker_factory()
        return self.breakers[server_id]

    def pruned(self, server_ids: Iterable[str]) -> Tuple[str, ...]:
        """The servers among ``server_ids`` whose breaker is open, in
        the given order.  Every server asked about gets a (closed)
        breaker on first sight, so it shows up in health reports and
        gossip before its first outcome arrives."""
        return tuple(
            sid
            for sid in server_ids
            if not self.breaker(sid).allows_offloading
        )

    def record_window(
        self,
        window: int,
        outcomes: Mapping[str, Sequence[int]],
    ) -> Dict[str, str]:
        """Feed one window of per-server ``(successes, failures)``
        outcome counts; returns the new per-server breaker states.

        Servers absent from ``outcomes`` saw no offloads this window —
        their breakers still tick (an ``open`` breaker must count down
        its cooldown even while pruned, or it could never probe again).
        """
        for sid in outcomes:
            self.breaker(sid)
        return {
            sid: breaker.record_window(window, *outcomes.get(sid, (0, 0)))
            for sid, breaker in self.breakers.items()
        }

    def apply_remote(self, server_id: str, state: str, window: int) -> str:
        """Fold a peer's gossiped breaker state for ``server_id`` in
        (:meth:`CircuitBreaker.apply_remote`); returns the local state.

        A remote ``closed`` for a server with no local breaker is
        ignored rather than creating one: there is nothing to re-close.
        """
        if state == "closed" and server_id not in self.breakers:
            return "closed"
        return self.breaker(server_id).apply_remote(state, window=window)

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def decide(
        self,
        tasks: TaskSet,
        server_benefits: Mapping[str, Mapping[str, BenefitFunction]],
        server_bounds: Optional[Mapping[str, Mapping[str, float]]] = None,
    ) -> RoutedDecision:
        """One routed decision over the surviving servers:
        :meth:`build_instance`, solve (through the cache when one is
        attached), then :meth:`verify`."""
        tasks.validate()
        instance, pruned = self.build_instance(
            tasks, server_benefits, server_bounds
        )
        if self.cache is not None:
            selection: Optional[Selection] = self.cache.solve(
                self.solver_name,
                self._solve,
                instance,
                **self._solver_kwargs,
            )
        else:
            selection = self._solve(instance, **self._solver_kwargs)
        if selection is None:
            raise ValueError(
                "no feasible selection although the all-local "
                "configuration is feasible; this indicates a solver bug"
            )
        return self.verify(
            tasks, selection, server_benefits, server_bounds, pruned
        )

    def build_instance(
        self,
        tasks: TaskSet,
        server_benefits: Mapping[str, Mapping[str, BenefitFunction]],
        server_bounds: Optional[Mapping[str, Mapping[str, float]]] = None,
    ) -> Tuple[MCKPInstance, Tuple[str, ...]]:
        """The routed MCKP over the servers whose breaker is not open,
        plus the pruned servers.

        Open-breaker servers contribute no items (their choice groups
        are pruned); the local item always survives, so the fully
        degraded instance is exactly the local-only reduction.
        """
        pruned = self.pruned(server_benefits)
        allowed = (
            None if not pruned else set(server_benefits) - set(pruned)
        )
        instance = build_mckp(
            tasks,
            topology=server_benefits,
            allowed_servers=allowed,
            server_bounds=server_bounds,
        )
        return instance, pruned

    def verify(
        self,
        tasks: TaskSet,
        selection: Selection,
        server_benefits: Mapping[str, Mapping[str, BenefitFunction]],
        server_bounds: Optional[Mapping[str, Mapping[str, float]]] = None,
        pruned: Tuple[str, ...] = (),
    ) -> RoutedDecision:
        """Turn a selection of a :meth:`build_instance` instance into a
        verified :class:`RoutedDecision`.

        Raises :class:`AssertionError` unless the decision passes both
        the generic Theorem 3 test (each routed task budgeted with its
        chosen server's §3 bound) and a strict per-server
        recomputation of every chosen item's demand rate.
        """
        placements: Dict[str, Tuple[Optional[str], float]] = {}
        for cls in selection.instance.classes:
            server_id, r = cls.items[selection.choices[cls.class_id]].tag
            placements[cls.class_id] = (server_id, float(r))

        self._verify_demand(
            tasks, server_benefits, server_bounds, placements, selection
        )
        assignments = [
            OffloadAssignment(tid, r)
            for tid, (server, r) in placements.items()
            if r > 0
        ]
        check = theorem3_test(
            _effective_tasks(tasks, placements, server_bounds), assignments
        )
        if not check.feasible:
            raise AssertionError(
                "routed ODM produced an infeasible decision; the MCKP "
                "weights and the schedulability test have diverged"
            )
        return RoutedDecision(
            placements=placements,
            expected_benefit=selection.total_value,
            total_demand_rate=selection.total_weight,
            schedulability=check,
            solver=self.solver_name,
            pruned_servers=pruned,
        )

    def _verify_demand(
        self,
        tasks: TaskSet,
        server_benefits: Mapping[str, Mapping[str, BenefitFunction]],
        server_bounds: Optional[Mapping[str, Mapping[str, float]]],
        placements: Mapping[str, Tuple[Optional[str], float]],
        selection: Selection,
    ) -> None:
        """Strict per-server re-verification of the Theorem 3 budget.

        Recomputes every chosen item's demand rate from the chosen
        server's own benefit function and §3 bound — independently of
        the MCKP items — and checks the total against both the
        selection's weight and the capacity.
        """
        total = 0.0
        for task in tasks:
            tid = task.task_id
            server_id, r = placements[tid]
            if server_id is None or r <= 0:
                total += task.wcet / min(task.period, task.deadline)
                continue
            assert isinstance(task, OffloadableTask)
            bound = task.server_response_bound
            if server_bounds is not None:
                bound = server_bounds.get(server_id, {}).get(tid, bound)
            total += _routed_demand_rate(
                task, server_benefits[server_id][tid], r, bound
            )
        if abs(total - selection.total_weight) > 1e-9:
            raise AssertionError(
                "per-server demand recomputation disagrees with the "
                f"MCKP selection: {total} != {selection.total_weight}"
            )
        if total > 1.0 + 1e-9:
            raise AssertionError(
                f"routed decision exceeds the Theorem 3 budget: {total}"
            )

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """The unified 9-key cache stats, or ``None`` without a cache."""
        return None if self.cache is None else dict(self.cache.stats)
