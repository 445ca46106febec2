"""Schedule construction and validation for two-axis complexity sweeps."""

from __future__ import annotations

import pytest

from smootherlab.errors import ScheduleError
from smootherlab.experiments.schedule import (
    AXES,
    AXIS2_INIT,
    FAMILIES,
    SweepConfig,
    SweepPoint,
    SweepSchedule,
    composite_schedule,
)


def test_axis_registry():
    assert FAMILIES == ("rff_linear", "tree", "boosting")
    assert AXES["rff_linear"] == ("p_pc", "p_ex")
    assert AXES["tree"] == ("p_leaf", "p_ens")
    assert AXES["boosting"] == ("p_boost", "p_ens")
    assert AXIS2_INIT == {"rff_linear": 0, "tree": 1, "boosting": 1}


def test_composite_expansion():
    sched = composite_schedule("rff_linear", [2, 5, 9], [10, 20])
    assert sched.expand() == [(2, 0), (5, 0), (9, 0), (9, 10), (9, 20)]
    assert sched.switch_indices() == [3]


def test_tuples_coerce_to_points():
    sched = SweepSchedule(family="tree", points=[("p_leaf", 2), ("p_ens", 3)])
    assert all(isinstance(p, SweepPoint) for p in sched.points)
    assert sched.expand() == [(2, 1), (2, 3)]


def test_unknown_family():
    with pytest.raises(ScheduleError):
        composite_schedule("kernel", [1], [2])
    with pytest.raises(ScheduleError):
        SweepSchedule(family="kernel", points=[("p_pc", 1)])


def test_empty_schedule():
    with pytest.raises(ScheduleError):
        SweepSchedule(family="tree", points=[])


def test_wrong_mechanism_reports_point_index():
    with pytest.raises(ScheduleError) as err:
        SweepSchedule(family="tree", points=[("p_leaf", 2), ("p_pc", 3)])
    assert "schedule point 1" in str(err.value)
    assert err.value.point_index == 1


def test_non_integer_value():
    with pytest.raises(ScheduleError):
        SweepSchedule(family="tree", points=[("p_leaf", 2.5)])


def test_composite_values_are_validated_not_truncated():
    with pytest.raises(ScheduleError) as err:
        composite_schedule("tree", [2, 4.5], [3])
    assert err.value.point_index == 1


def test_axis_minima():
    with pytest.raises(ScheduleError):
        SweepSchedule(family="rff_linear", points=[("p_pc", 0)])
    with pytest.raises(ScheduleError):
        SweepSchedule(family="tree", points=[("p_ens", 0)])
    # p_ex = 0 is the legitimate "no excess features" baseline
    sched = SweepSchedule(
        family="rff_linear",
        points=[("p_pc", 3), ("p_ex", 0)],
    )
    assert sched.expand()[-1] == (3, 0)


def test_axis2_first_requires_initial_axis1():
    # every walk starts on axis 1; an axis-2-first schedule is rejected
    for points in ([("p_ens", 2)], [("p_ens", 2), ("p_boost", 4)]):
        with pytest.raises(ScheduleError) as err:
            SweepSchedule(family="boosting", points=points)
        assert err.value.point_index == 0
        assert "axis 2 (p_ens) moves before axis 1 (p_boost)" in str(err.value)
    with pytest.raises(ScheduleError) as err:
        composite_schedule("tree", [], [2])
    assert err.value.point_index == 0


def test_shared_config_defaults():
    cfg = SweepConfig()
    assert cfg.base_seed == 0
    assert cfg.learning_rate == 0.85
    assert cfg.boost_leaf_budget == 10
    assert cfg.effparams_class == 0
