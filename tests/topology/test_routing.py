"""Unit tests for :class:`TopologyDecisionManager` and routed decisions."""

import pytest

from repro.core.benefit import BenefitFunction, BenefitPoint
from repro.core.task import OffloadableTask, Task, TaskSet
from repro.knapsack import SolverCache
from repro.runtime.health import CircuitBreaker
from repro.topology import RoutedDecision, TopologyDecisionManager


def _task(task_id="m", wcet=0.2, period=1.0, **kwargs):
    defaults = dict(
        setup_time=0.02,
        compensation_time=wcet,
        post_time=0.005,
        benefit=BenefitFunction([BenefitPoint(0.0, 1.0)]),
    )
    defaults.update(kwargs)
    return OffloadableTask(
        task_id=task_id, wcet=wcet, period=period, **defaults
    )


def _fn(pairs, local=1.0):
    return BenefitFunction(
        [BenefitPoint(0.0, local)]
        + [BenefitPoint(r, v) for r, v in pairs]
    )


def _benefits():
    return {
        "edge": {"m": _fn([(0.1, 8.0)])},
        "cloud": {"m": _fn([(0.4, 5.0)])},
    }


class TestConstruction:
    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            TopologyDecisionManager("nope")

    def test_cache_spellings(self):
        assert TopologyDecisionManager("dp").cache is None
        assert TopologyDecisionManager("dp", cache=False).cache is None
        assert isinstance(
            TopologyDecisionManager("dp", cache=True).cache, SolverCache
        )
        # an explicitly passed (empty, hence falsy) cache is used as-is
        cache = SolverCache()
        assert TopologyDecisionManager("dp", cache=cache).cache is cache

    def test_breaker_factory_honoured(self):
        manager = TopologyDecisionManager(
            "dp",
            breaker_factory=lambda: CircuitBreaker(min_samples=1),
        )
        assert manager.breaker("s").min_samples == 1
        # created once, then reused
        assert manager.breaker("s") is manager.breaker("s")

    def test_cache_stats(self):
        assert TopologyDecisionManager("dp").cache_stats() is None
        manager = TopologyDecisionManager(
            "dp", cache=True, resolution=500
        )
        manager.decide(TaskSet([_task()]), _benefits())
        stats = manager.cache_stats()
        assert set(stats) == {
            "hits", "misses", "near_hits", "hits_local",
            "hits_replicated", "replicated_in",
            "replicated_states_in", "entries", "delta_states",
        }
        assert stats["misses"] == 1


class TestDecide:
    def test_routes_to_the_best_server(self):
        decision = TopologyDecisionManager(
            "dp", resolution=1_000
        ).decide(TaskSet([_task()]), _benefits())
        assert isinstance(decision, RoutedDecision)
        assert decision.server_of("m") == "edge"
        assert decision.response_times["m"] == pytest.approx(0.1)
        assert decision.routes == {"m": "edge"}
        assert decision.pruned_servers == ()
        assert not decision.degraded
        assert decision.schedulability.feasible

    def test_plain_tasks_stay_local(self):
        tasks = TaskSet([_task(), Task("plain", 0.1, 1.0)])
        decision = TopologyDecisionManager(
            "dp", resolution=1_000
        ).decide(tasks, _benefits())
        assert decision.placements["plain"] == (None, 0.0)

    def test_server_bound_unlocks_guaranteed_offload(self):
        """A point only feasible under the chosen server's §3 bound:
        compensation cannot fit the slack, post-processing can."""
        task = _task(compensation_time=0.9, wcet=0.2)
        benefits = {"cloud": {"m": _fn([(0.5, 9.0)])}}
        manager = TopologyDecisionManager("dp", resolution=1_000)
        # without the bound the offload point is structurally
        # infeasible (0.02 + 0.9 > 0.5 slack): the task stays local
        unbounded = manager.decide(TaskSet([task]), benefits)
        assert unbounded.placements["m"] == (None, 0.0)
        # with the cloud guaranteeing r=0.5, the second phase budgets
        # post_time and the offload becomes feasible and optimal
        bounded = manager.decide(
            TaskSet([task]), benefits, {"cloud": {"m": 0.5}}
        )
        assert bounded.server_of("m") == "cloud"
        assert bounded.expected_benefit == pytest.approx(9.0)
        assert bounded.total_demand_rate == pytest.approx(
            (0.02 + 0.005) / 0.5
        )
        assert bounded.schedulability.feasible

    def test_open_breaker_prunes_the_server(self):
        manager = TopologyDecisionManager("dp", resolution=1_000)
        breaker = manager.breaker("edge")
        breaker.record_window(0, 0, breaker.min_samples)
        decision = manager.decide(TaskSet([_task()]), _benefits())
        assert decision.pruned_servers == ("edge",)
        assert decision.server_of("m") == "cloud"

    def test_record_window_creates_breakers_for_new_servers(self):
        manager = TopologyDecisionManager("dp")
        assert manager.breakers == {}
        states = manager.record_window(0, {"edge": (3, 0)})
        assert states == {"edge": "closed"}
        assert "edge" in manager.breakers
        assert manager.pruned(manager.breakers) == ()
