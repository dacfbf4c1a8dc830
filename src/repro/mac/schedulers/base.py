"""Scheduler interface shared by JABA-SD and the baselines."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.mac.admission import SchedulingInput

__all__ = ["SchedulingDecision", "BurstScheduler"]


@dataclass(frozen=True)
class SchedulingDecision:
    """Outcome of one scheduling-sub-layer invocation.

    Attributes
    ----------
    assignment:
        Integer spreading-gain ratio ``m_j`` per pending request (0 =
        rejected in this frame).
    objective_value:
        Value of the scheduler's objective for the assignment (heuristics
        report the same metric so decisions are comparable).
    optimal:
        True when the assignment is provably optimal for the scheduler's
        objective within the admissible region.
    """

    assignment: np.ndarray
    objective_value: float
    optimal: bool

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "assignment", np.asarray(self.assignment, dtype=int).copy()
        )


class BurstScheduler(abc.ABC):
    """Abstract scheduling policy for one link's pending burst requests."""

    #: Human-readable name used in experiment tables.
    name: str = "scheduler"

    @staticmethod
    def empty_decision() -> SchedulingDecision:
        """The (trivially optimal) decision for an empty pending queue.

        The admission problem assembly hands schedulers zero-column regions for
        empty queues instead of skipping the invocation, so every policy
        shares this early-out.
        """
        return SchedulingDecision(
            assignment=np.zeros(0, dtype=int), objective_value=0.0, optimal=True
        )

    @abc.abstractmethod
    def assign(self, problem: "SchedulingInput") -> SchedulingDecision:
        """Choose the spreading-gain ratios of the pending requests.

        Implementations must return a feasible assignment: inside the
        admissible region and within the per-request upper bounds.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"
