"""The summary that scripts/bench_pairs.py writes, on synthetic pairs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"},
           {"name": "points_per_s", "unit": "1/s", "better": "higher"}]


def _pair(parent_wall, change_wall):
    """One pair of runs; a run's rate is the inverse of its time."""
    return {
        side: {"metrics": {"wall_s": {"value": wall}, "points_per_s": {"value": 1 / wall}}}
        for side, wall in (("parent", parent_wall), ("change", change_wall))
    }


def test_summarize_counts_wins_and_pairs_the_ratios():
    # pair i costs about i + 1 seconds on both sides; the change is 10% faster
    # in three pairs, ties in one and is 10% slower in the last
    pairs = [_pair(p, c) for p, c in [(1.0, 0.9), (2.0, 1.8), (3.0, 3.0), (4.0, 3.6),
                                      (5.0, 5.5)]]
    out = bench_pairs.summarize(pairs, METRICS)
    wall, rate = out["wall_s"], out["points_per_s"]
    # the tie counts for neither side, in either direction of better
    assert wall["change_wins"] == rate["change_wins"] == 3
    assert wall["pairs"] == 5
    # the seed costs hide the gain from the medians, but not from the ratios
    assert wall["parent"]["median"] == wall["change"]["median"] == 3.0
    assert wall["median_change_frac"] == 0.0
    # ratios 0.9, 0.9, 1.0, 0.9, 1.1; exclusive quartiles of five values
    assert wall["change_ratio"]["median"] == pytest.approx(0.9)
    assert wall["change_ratio"]["q1"] == pytest.approx(0.9)
    assert wall["change_ratio"]["q3"] == pytest.approx(1.05)
    assert rate["change_ratio"]["median"] == pytest.approx(1 / 0.9)


BENCH = {"workloads": [{"name": "rff_pcr"}, {"name": "boost_fold"}]}


def test_workloads_default_to_the_benchmark_and_take_named_ones():
    assert bench_pairs.workload_names(None, BENCH) == ["rff_pcr", "boost_fold"]
    assert bench_pairs.workload_names("forest_deep", BENCH) == ["forest_deep"]
    assert bench_pairs.workload_names("boost_fold,rff_pcr,forest_deep", BENCH) == [
        "boost_fold", "rff_pcr", "forest_deep"]


@pytest.mark.parametrize("spec", ["", "boost_fold,", "boost_fold,,rff_pcr",
                                  "boost_fold,boost_fold"])
def test_empty_or_repeated_workload_names_exit_two_naming_the_option(spec, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--base", "HEAD", "--name", "x", "--workloads", spec])
    assert exc.value.code == 2
    assert "--workloads" in capsys.readouterr().err
