"""The summary that scripts/bench_pairs.py writes, on synthetic pairs, and
the copy of the working tree that it runs."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"},
           {"name": "points_per_s", "unit": "1/s", "better": "higher"}]


def _pair(parent_wall, change_wall, first="parent"):
    """One pair of runs; a run's rate is the inverse of its time."""
    return {
        "first": first,
        **{side: {"metrics": {"wall_s": {"value": wall}, "points_per_s": {"value": 1 / wall}}}
           for side, wall in (("parent", parent_wall), ("change", change_wall))},
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


def test_ratios_are_split_by_the_side_that_ran_first():
    # the side that runs second reads 10% slower: an order effect of the
    # host, which the overall ratios hide
    walls = [(1.0, 1.1, "parent"), (2.0, 1.8, "change"), (3.0, 3.3, "parent"),
             (4.0, 3.6, "change"), (5.0, 5.5, "parent")]
    out = bench_pairs.summarize([_pair(*w) for w in walls], METRICS)
    by_first = out["wall_s"]["change_ratio_by_first"]
    assert by_first["parent"]["median"] == pytest.approx(1.1)
    assert by_first["parent"]["iqr"] == pytest.approx(0.0)
    assert by_first["change"]["median"] == pytest.approx(0.9)
    assert out["points_per_s"]["change_ratio_by_first"]["change"]["median"] == (
        pytest.approx(1 / 0.9))
    # a record of one pair has no pair the change ran first
    one = bench_pairs.summarize([_pair(*walls[0])], METRICS)["wall_s"]
    assert list(one["change_ratio_by_first"]) == ["parent"]


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


def test_working_tree_copy_holds_edits_and_new_files_but_no_ignored_ones(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    (repo / "pkg").mkdir(parents=True)
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "pkg" / "mod.py").write_text("x = 1\n")
    (repo / "gone.py").write_text("y = 1\n")

    def git(*argv):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *argv],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "pkg" / "mod.py").write_text("x = 2\n")  # uncommitted edit
    (repo / "pkg" / "new.py").write_text("z = 3\n")  # untracked
    (repo / "pkg" / "run.log").write_text("ignored\n")
    (repo / "gone.py").unlink()  # deleted, still tracked
    bench_pairs.copy_working_tree(dest, repo)
    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "pkg/mod.py", "pkg/new.py"]
    assert (dest / "pkg" / "mod.py").read_text() == "x = 2\n"
