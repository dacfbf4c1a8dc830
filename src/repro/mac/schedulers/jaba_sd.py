"""JABA-SD: jointly adaptive burst admission over the spatial dimension.

This is the paper's proposed scheduler.  The *jointly adaptive* part is that
the scheduling decision consumes physical-layer adaptivity: each request's
objective weight is its relative average VTAOC throughput ``delta_rho_j``,
i.e. a function of the user's current local-mean CSI, while its resource cost
(the admissible-region column) reflects the user's current power/interference
situation.  The *spatial dimension* part is that the scheduler chooses *which*
of the concurrent requests to serve and at what spreading-gain ratio, leaving
the burst start times at the earliest frame boundary (the temporal dimension
is explicitly out of scope in the paper; see
:class:`repro.mac.schedulers.temporal.TemporalExtensionScheduler` for the
future-work extension).

Solver back-ends
----------------
``solver="optimal"``
    Branch-and-bound to proven optimality (eq. (19)/(20) integer program).
    Used in the solver ablation (experiment F6) and whenever the number of
    concurrent requests is small.
``solver="near-optimal"`` (default)
    Best of the greedy heuristic and the rounded LP relaxation, optionally
    refined by a small branch-and-bound budget.  On burst-scheduling
    instances this lands within a fraction of a percent of the optimum at a
    bounded per-frame cost, which is what the dynamic simulations use.
``solver="greedy"``
    Pure marginal-efficiency heuristic (the cheap JABA-SD variant).
``solver="exhaustive"``
    Exact enumeration; only for tiny instances (tests).

``warm_start=True`` threads the previous frame's surviving assignment into
the next decision as an incumbent seed — requests still pending keep the
spreading-gain ratio they were last granted as the search's starting point,
which tightens branch-and-bound pruning under heavy load.  Warm starts only ever *seed* the incumbent; infeasible
seeds are dropped, so the cold path (default) stays bit-identical.
"""

from __future__ import annotations

from typing import Dict, Literal, Optional, Union

import numpy as np

from repro.mac.objectives import DelayAwareObjective, ThroughputObjective
from repro.mac.requests import LinkDirection
from repro.mac.schedulers.base import BurstScheduler, SchedulingDecision
from repro.registry import register
from repro.opt import (
    BoundedIntegerProgram,
    IntegerSolution,
    SimplexIterationLimitError,
    solve_branch_and_bound,
    solve_exhaustive,
    solve_greedy,
    solve_near_optimal,
)

__all__ = ["JabaSdScheduler"]

ObjectiveName = Literal["J1", "J2"]
SolverName = Literal["optimal", "near-optimal", "greedy", "exhaustive"]


@register(
    "scheduler",
    "jaba-sd",
    defaults={"objective": "J1"},
    summary="The paper's jointly adaptive burst admission (spatial dimension)",
)
class JabaSdScheduler(BurstScheduler):
    """The jointly adaptive burst admission (spatial dimension) scheduler.

    Parameters
    ----------
    objective:
        ``"J1"`` (throughput, eq. (19)) or ``"J2"`` (throughput/delay
        trade-off, eq. (20)), or an objective instance.
    solver:
        ``"near-optimal"`` (default), ``"optimal"``, ``"greedy"`` or
        ``"exhaustive"`` — see the module docstring.
    max_nodes:
        Node budget of the branch-and-bound solver (``"optimal"`` mode) or of
        the optional refinement pass (``"near-optimal"`` mode with
        ``refine_nodes`` > 0).
    refine_nodes:
        Branch-and-bound nodes spent polishing the near-optimal solution
        (0 disables the refinement; keeps the per-frame cost strictly
        bounded).
    warm_start:
        Seed each decision's incumbent with the previous frame's surviving
        assignment of the same link (opt-in; the cold path is bit-identical).
        Wired from :class:`repro.simulation.scenario.ScenarioConfig` via
        ``warm_start_solver=True``.
    """

    def __init__(
        self,
        objective: Union[ObjectiveName, ThroughputObjective, DelayAwareObjective] = "J1",
        solver: SolverName = "near-optimal",
        max_nodes: int = 200_000,
        refine_nodes: int = 0,
        warm_start: bool = False,
    ) -> None:
        if isinstance(objective, str):
            if objective == "J1":
                objective = ThroughputObjective()
            elif objective == "J2":
                objective = DelayAwareObjective()
            else:
                raise ValueError("objective must be 'J1' or 'J2'")
        self.objective = objective
        if solver not in ("optimal", "near-optimal", "greedy", "exhaustive"):
            raise ValueError(
                "solver must be 'optimal', 'near-optimal', 'greedy' or 'exhaustive'"
            )
        self.solver = solver
        if max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        if refine_nodes < 0:
            raise ValueError("refine_nodes must be non-negative")
        self.max_nodes = int(max_nodes)
        self.refine_nodes = int(refine_nodes)
        self.warm_start = bool(warm_start)
        #: Previous frame's granted ``m`` per mobile, per link (warm starts).
        self._last_assignment: Dict[LinkDirection, Dict[int, int]] = {}
        self.name = f"JABA-SD({self.objective.name}/{solver})"

    def reset_warm_start(self) -> None:
        """Forget the remembered assignments (e.g. between simulation runs)."""
        self._last_assignment.clear()

    def _warm_values(self, problem) -> Optional[np.ndarray]:
        """The previous frame's surviving assignment in this frame's columns."""
        if not self.warm_start or not problem.requests:
            return None
        link = problem.requests[0].link
        last = self._last_assignment.get(link)
        if not last:
            return None
        values = np.fromiter(
            (last.get(r.mobile_index, 0) for r in problem.requests),
            dtype=int,
            count=len(problem.requests),
        )
        if not values.any():
            return None
        return np.minimum(values, problem.upper_bounds)

    def _remember(self, problem, solution: IntegerSolution) -> None:
        if not self.warm_start or not problem.requests:
            return
        link = problem.requests[0].link
        self._last_assignment[link] = {
            request.mobile_index: int(m)
            for request, m in zip(problem.requests, solution.values)
            if m > 0
        }

    def _solve(self, ip: BoundedIntegerProgram, warm_values=None) -> IntegerSolution:
        # LP-backed solvers can exhaust the simplex pivot budget on degenerate
        # instances (SimplexIterationLimitError).  A scheduler must produce
        # *some* admissible decision every frame, so that error degrades to
        # the greedy solution — always feasible, merely sub-optimal — instead
        # of aborting the whole simulation.
        try:
            return self._solve_with_backend(ip, warm_values)
        except SimplexIterationLimitError:
            return solve_greedy(ip)

    def _solve_with_backend(
        self, ip: BoundedIntegerProgram, warm_values=None
    ) -> IntegerSolution:
        if self.solver == "greedy":
            return solve_greedy(ip)
        if self.solver == "exhaustive":
            return solve_exhaustive(ip)
        if self.solver == "optimal":
            return solve_branch_and_bound(
                ip,
                max_nodes=self.max_nodes,
                warm_start=warm_values,
            )
        # near-optimal
        solution = solve_near_optimal(ip)
        if warm_values is not None:
            warm = np.asarray(warm_values, dtype=float)
            if ip.is_feasible(warm):
                warm_objective = ip.objective_value(warm)
                if warm_objective > solution.objective:
                    solution = IntegerSolution(
                        values=warm.astype(int),
                        objective=warm_objective,
                        optimal=False,
                        nodes_explored=0,
                    )
        if self.refine_nodes > 0:
            refined = solve_branch_and_bound(
                ip,
                max_nodes=self.refine_nodes,
                gap_tolerance=1e-3,
                warm_start=warm_values,
            )
            if refined.objective > solution.objective:
                solution = refined
        return solution

    def assign(self, problem) -> SchedulingDecision:
        num_requests = len(problem.requests)
        if num_requests == 0:
            return self.empty_decision()
        weights = self.objective.weights(
            problem.delta_rho,
            problem.priorities,
            problem.waiting_times_s,
            problem.config,
        )
        ip = BoundedIntegerProgram(
            objective=weights,
            constraint_matrix=problem.region.matrix,
            constraint_bounds=problem.region.bounds,
            upper_bounds=problem.upper_bounds,
        )
        solution = self._solve(ip, warm_values=self._warm_values(problem))
        self._remember(problem, solution)
        return SchedulingDecision(
            assignment=solution.values,
            objective_value=float(solution.objective),
            optimal=bool(solution.optimal),
        )
