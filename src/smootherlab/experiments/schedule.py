"""Two-axis complexity schedules.

Every model family exposes an ordered pair of complexity mechanisms:

    rff_linear : (p_pc, p_ex)    principal components, then excess features
    tree       : (p_leaf, p_ens) leaf budget, then averaged trees
    boosting   : (p_boost, p_ens) boosting rounds, then averaged runs

A schedule is a list of plain (mechanism, value) tuples; each point moves one
axis and holds the other at its current value, so a composite schedule
describes a single family of models growing along axis 1 and then axis 2.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..boosting import DEFAULT_LEAF_BUDGET, DEFAULT_LEARNING_RATE
from ..errors import ScheduleError
from ..rff import DEFAULT_SCALE

FAMILIES = ("rff_linear", "tree", "boosting")

AXES = {
    "rff_linear": ("p_pc", "p_ex"),
    "tree": ("p_leaf", "p_ens"),
    "boosting": ("p_boost", "p_ens"),
}

# the "plain single model" value of each second axis
AXIS2_INIT = {"rff_linear": 0, "tree": 1, "boosting": 1}

# axis minima: p_ex may be zero, everything else starts at 1
_AXIS_MIN = {"p_pc": 1, "p_ex": 0, "p_leaf": 1, "p_ens": 1, "p_boost": 1}


@dataclass
class SweepConfig:
    """Hyperparameters shared by every point of a sweep."""

    base_seed: int = 0
    rff_scale: float = DEFAULT_SCALE
    learning_rate: float = DEFAULT_LEARNING_RATE
    boost_leaf_budget: int = DEFAULT_LEAF_BUDGET
    tree_subset: int | None = None   # per-node feature subset, default sqrt(d)
    effparams_class: int = 0         # one-vs-all sub-problem used for p_train/p_test


@dataclass
class SweepSchedule:
    family: str
    points: list[tuple[str, int]]  # (mechanism, value)
    shared: SweepConfig = field(default_factory=SweepConfig)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.family not in AXES:
            raise ScheduleError(
                f"unknown family {self.family!r}; choose from {sorted(AXES)}"
            )
        if not self.points:
            raise ScheduleError("schedule has no points")
        ax1, ax2 = AXES[self.family]
        for i, (mechanism, value) in enumerate(self.points):
            if mechanism not in (ax1, ax2):
                raise ScheduleError(
                    f"mechanism {mechanism!r} not valid for family "
                    f"{self.family!r} (axes: {ax1}, {ax2})",
                    point_index=i,
                )
            if int(value) != value:
                raise ScheduleError(f"value {value!r} is not an integer", point_index=i)
            if value < _AXIS_MIN[mechanism]:
                raise ScheduleError(
                    f"{mechanism} must be >= {_AXIS_MIN[mechanism]}, got {value}",
                    point_index=i,
                )
        if self.points[0][0] == ax2:
            raise ScheduleError(
                f"axis 2 ({ax2}) moves before axis 1 ({ax1}) has a value",
                point_index=0,
            )

    def expand(self) -> list[tuple[int, int]]:
        """Full (axis1, axis2) state after each point."""
        ax1, _ = AXES[self.family]
        a1, a2 = None, AXIS2_INIT[self.family]  # the first point sets axis 1
        states = []
        for mechanism, value in self.points:
            if mechanism == ax1:
                a1 = int(value)
            else:
                a2 = int(value)
            states.append((a1, a2))
        return states

    def switch_indices(self) -> list[int]:
        """Indices where the moving mechanism changes (first point excluded)."""
        out = []
        for i in range(1, len(self.points)):
            if self.points[i][0] != self.points[i - 1][0]:
                out.append(i)
        return out


def composite_schedule(
    family: str,
    axis1_values,
    axis2_values,
    shared: SweepConfig | None = None,
) -> SweepSchedule:
    """Grow axis 1 through its values, then axis 2 through its values."""
    ax1, ax2 = AXES.get(family, (None, None))  # SweepSchedule rejects the family
    points = [(ax1, v) for v in axis1_values] + [(ax2, v) for v in axis2_values]
    return SweepSchedule(family=family, points=points, shared=shared or SweepConfig())
