"""End-to-end checks for the command line entry point.

Every test drives ``main()`` in process with a tiny synthetic-image dataset so
the whole module stays fast; outputs always go to pytest temp directories.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smootherlab
from smootherlab.cli import build_config, load_datasets, main
from smootherlab.errors import SingularDesignError, ValidationError
from smootherlab.experiments.families import FAMILY_RUNNERS, TreeFamily
from smootherlab.experiments.sweep import SWEEP_HEADER

# small enough that every subcommand finishes in well under a second
TINY = [
    "--set", "dataset.n_train=24",
    "--set", "dataset.n_test=30",
    "--set", "dataset.side=6",
    "--set", "dataset.n_classes=3",
]

TINY_AXES = [
    "--set", "axis1_values=[2,8,23]",
    "--set", "axis2_values=[0,24]",
]


def _run(argv, out):
    return main([*argv, "--out", str(out)])


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _echoed(out):
    return json.loads((out / "config.json").read_text())


def _src_env():
    """The environment for a CLI subprocess that imports this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(smootherlab.__file__).resolve().parents[1])
    return env


# ---------------------------------------------------------------------------
# Argument and config validation
# ---------------------------------------------------------------------------


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_requires_a_subcommand(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["sweep", "--bogus"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_is_named(tmp_path, capsys):
    rc = _run(["sweep", "--set", "axis_one=[2]"], tmp_path / "a")
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown config key 'axis_one'" in err
    assert "known:" in err


def test_unknown_nested_key_carries_its_path(tmp_path, capsys):
    rc = _run(["ingest", "--set", "dataset.side_len=4"], tmp_path / "a")
    assert rc == 1
    assert "unknown config key 'dataset.side_len'" in capsys.readouterr().err


def test_unknown_dataset_kind_lists_choices(tmp_path, capsys):
    rc = _run(["ingest", "--set", "dataset.kind=zzz"], tmp_path / "a")
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown dataset kind 'zzz'" in err
    assert "csv" in err and "idx" in err


def test_idx_kind_requires_all_four_paths(tmp_path, capsys):
    rc = _run(["ingest", "--set", "dataset.kind=idx"], tmp_path / "a")
    assert rc == 1
    assert "dataset.images is required" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("n_train", -5), ("n_train", 0), ("n_test", 0)])
def test_generated_split_sizes_must_be_positive(tmp_path, capsys, key, value):
    rc = _run(["ingest", "--set", f"dataset.{key}={value}"], tmp_path / "a")
    assert rc == 1
    err = capsys.readouterr().err
    assert f"dataset.{key}" in err
    assert "Traceback" not in err


def test_missing_idx_file_fails_cleanly(tmp_path, capsys):
    argv = ["ingest", "--set", "dataset.kind=idx"]
    for key in ("images", "labels", "test_images", "test_labels"):
        argv += ["--set", f"dataset.{key}={tmp_path / 'nope.idx'}"]
    rc = _run(argv, tmp_path / "a")
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_malformed_set_expression(tmp_path, capsys):
    rc = _run(["fit", "--set", "oops"], tmp_path / "a")
    assert rc == 1
    assert "--set needs key.path=value" in capsys.readouterr().err


def test_set_path_through_a_scalar(tmp_path, capsys):
    rc = _run(
        ["fit", "--set", "dataset.n_train=5", "--set", "dataset.n_train.x=3"],
        tmp_path / "a",
    )
    assert rc == 1
    assert "descends into non-dict" in capsys.readouterr().err


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]\n")
    rc = _run(["ingest", "--config", str(cfg)], tmp_path / "a")
    assert rc == 1
    assert "must hold a JSON object" in capsys.readouterr().err


def test_config_file_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{oops\n")
    rc = _run(["ingest", "--config", str(cfg)], tmp_path / "a")
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_config_file_unreadable(tmp_path, capsys):
    rc = _run(["ingest", "--config", str(tmp_path / "absent.json")], tmp_path / "a")
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


_MISTYPED = [
    (["sweep", "--set", "shared.base_seed=abc"], "shared.base_seed"),
    (["sweep", "--set", "family=boosting", "--set", "shared.learning_rate=fast"],
     "shared.learning_rate"),
    (["fit", "--set", "model.kind=knn", "--set", "model.k=x"], "model.k"),
    (["ingest", "--set", "dataset.n_train=abc"], "dataset.n_train"),
    (["sweep", "--set", "axis1_values=5"], "axis1_values"),
    (["select", "--set", 'leaf_grid=["foo"]'], "leaf_grid"),
    (["sweep", "--set", "shared.base_seed=1.0"], "shared.base_seed"),
    (["ingest", "--set", "dataset.n_train=true"], "dataset.n_train"),
]


@pytest.mark.parametrize("argv, key", _MISTYPED, ids=[argv[-1] for argv, _ in _MISTYPED])
def test_mistyped_value_exits_one_naming_its_key(tmp_path, capsys, argv, key):
    assert _run(argv, tmp_path / "a") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert "Traceback" not in err


_OUT_OF_RANGE = [
    ("tree", "shared.rff_scale=-1"),
    ("boosting", "shared.rff_scale=0"),
    ("rff_linear", "shared.rff_scale=-0.5"),
    ("boosting", "shared.learning_rate=0"),
    ("boosting", "shared.learning_rate=1.5"),
    ("boosting", "shared.boost_leaf_budget=0"),
    ("tree", "shared.tree_subset=0"),
    ("boosting", "shared.tree_subset=-2"),
]


@pytest.mark.parametrize("family, expr", _OUT_OF_RANGE,
                         ids=[f"{f}-{e}" for f, e in _OUT_OF_RANGE])
def test_shared_value_out_of_range_exits_one_naming_its_key(tmp_path, capsys, family, expr):
    argv = ["sweep", *TINY, "--set", f"family={family}", "--set", "axis1_values=[2]",
            "--set", "axis2_values=[2]", "--set", expr]
    assert _run(argv, tmp_path / "a") == 1
    err = capsys.readouterr().err
    key = expr.partition("=")[0]
    assert err.startswith("error:") and repr(key) in err
    assert "Traceback" not in err


_EMPTY_GRIDS = [
    (["back-to-u"], "axis1_values"),
    (["sweep"], "axis1_values"),
    (["grid", "--set", "family=tree"], "axis1_values"),
    (["cond-study"], "p_phi_values"),
    (["cond-study"], "k_values"),
    (["peaks"], "switches"),
    (["select"], "leaf_grid"),
    (["select"], "lr_grid"),
]


@pytest.mark.parametrize("argv, key", _EMPTY_GRIDS,
                         ids=[f"{argv[0]}-{key}" for argv, key in _EMPTY_GRIDS])
def test_empty_grid_exits_one_naming_its_key(tmp_path, capsys, argv, key):
    assert _run([*argv, *TINY, "--set", f"{key}=[]"], tmp_path / "a") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert "Traceback" not in err


def test_set_overrides_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"n_train": 40, "side": 6,
                                           "n_test": 30, "n_classes": 3}}))
    out = tmp_path / "a"
    rc = _run(["ingest", "--config", str(cfg), "--set", "dataset.n_train=24"], out)
    assert rc == 0
    assert _echoed(out)["config"]["dataset"]["n_train"] == 24


# ---------------------------------------------------------------------------
# ingest / fit
# ---------------------------------------------------------------------------


def test_ingest_writes_dataset_summary(tmp_path, capsys):
    out = tmp_path / "a"
    assert _run(["ingest", *TINY], out) == 0
    summary = json.loads((out / "dataset.json").read_text())
    assert summary["train"] == {"n": 24, "d": 36, "classes": 3,
                                "name": summary["train"]["name"]}
    assert summary["test"]["n"] == 30
    assert capsys.readouterr().out.startswith("ingest: train n=24 d=36")


def test_default_out_directory_is_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["ingest", *TINY]) == 0
    assert (tmp_path / "runs" / "ingest" / "dataset.json").exists()
    assert (tmp_path / "runs" / "ingest" / "config.json").exists()


def test_full_scale_flag_swaps_the_dataset(tmp_path):
    out = tmp_path / "a"
    assert _run(["ingest", "--full-scale"], out) == 0
    ds = _echoed(out)["config"]["dataset"]
    assert (ds["n_train"], ds["side"], ds["n_classes"]) == (1000, 28, 10)


def test_fit_report_for_pcr(tmp_path, capsys):
    out = tmp_path / "a"
    rc = _run(["fit", *TINY, "--set", "model.p_phi=48", "--set", "model.p_pc=8"], out)
    assert rc == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["model"] == "pcr"
    assert report["raw_params"] == 9  # components plus intercept
    assert 0.0 < report["p_train"] <= 24.0 + 1e-9
    assert report["effective_knn_test"] == pytest.approx(24 / report["p_test"])
    assert capsys.readouterr().out.startswith("fit: pcr ")


def test_fit_knn_on_synthetic_dataset(tmp_path):
    out = tmp_path / "a"
    argv = [
        "fit",
        "--set", "dataset.kind=synthetic",
        "--set", "dataset.n_train=30",
        "--set", "dataset.n_test=20",
        "--set", "model.kind=knn",
        "--set", "model.k=3",
    ]
    assert _run(argv, out) == 0
    ds = _echoed(out)["config"]["dataset"]
    assert "generator" in ds and "side" not in ds  # key table follows the kind
    report = json.loads((out / "fit_report.json").read_text())
    assert report["raw_params"] is None
    assert report["p_test"] == pytest.approx(30 / 3)
    assert report["effective_knn_test"] == pytest.approx(3.0)


def test_rank_deficient_strict_fit_exits_two(tmp_path, capsys):
    # noise-free images collapse to one row per class, so a 12-column design
    # over 3 distinct inputs cannot have full column rank
    argv = ["fit", *TINY, "--set", "dataset.noise_std=0",
            "--set", "model.kind=ols", "--set", "model.p_phi=12"]
    rc = _run(argv, tmp_path / "a")
    assert rc == 2
    assert capsys.readouterr().err.startswith("numerical error:")


@pytest.mark.parametrize(
    "error, code, prefix",
    [(ValidationError, 1, "error:"), (SingularDesignError, 2, "numerical error:")],
)
def test_errors_in_pooled_prefit_keep_their_exit_code(
    tmp_path, capsys, monkeypatch, error, code, prefix
):
    class Failing(TreeFamily):
        def prefit_tasks(self):
            def fail():
                raise error(f"raised in process {os.getpid()}")

            return [fail] + super().prefit_tasks()

    # installed before the pool forks, so the workers inherit it
    monkeypatch.setitem(FAMILY_RUNNERS, "tree", Failing)
    argv = ["sweep", *TINY, "--set", "family=tree", "--set", "axis1_values=[2,8]",
            "--set", "axis2_values=[1,2]", "--threads", "2"]
    assert _run(argv, tmp_path / "a") == code
    err = capsys.readouterr().err
    assert err.startswith(f"{prefix} raised in process ")
    assert int(err.split()[-1]) != os.getpid()


# ---------------------------------------------------------------------------
# seed routing
# ---------------------------------------------------------------------------


def test_seed_flag_reaches_shared_base_seed(tmp_path):
    out = tmp_path / "a"
    assert _run(["sweep", *TINY, *TINY_AXES, "--seed", "5"], out) == 0
    assert _echoed(out)["config"]["shared"]["base_seed"] == 5
    header, rows = _read_csv(out / "sweep.csv")
    seed_col = header.index("seed")
    assert {r[seed_col] for r in rows} == {"5"}


def test_seed_flag_reaches_the_feature_map_for_linear_models(tmp_path):
    out = tmp_path / "a"
    argv = ["fit", *TINY, "--set", "model.p_phi=48", "--set", "model.p_pc=8",
            "--seed", "9"]
    assert _run(argv, out) == 0
    model = _echoed(out)["config"]["model"]
    assert model["rff_seed"] == 9
    assert "seed" not in model


def test_seed_flag_reaches_the_tree_seed(tmp_path):
    out = tmp_path / "a"
    assert _run(["fit", *TINY, "--set", "model.kind=tree", "--seed", "4"], out) == 0
    assert _echoed(out)["config"]["model"]["seed"] == 4


@pytest.mark.parametrize("command", ["fit", "effparams"])
def test_seed_flag_on_a_seedless_model_exits_one_naming_it(tmp_path, capsys, command):
    out = tmp_path / "a"
    argv = [command, *TINY, "--set", "model.kind=knn", "--seed", "3"]
    assert _run(argv, out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed" in err and "'knn'" in err
    assert not (out / "config.json").exists()


# ---------------------------------------------------------------------------
# sweep family commands
# ---------------------------------------------------------------------------


def test_sweep_end_to_end(tmp_path, capsys):
    out = tmp_path / "a"
    assert _run(["sweep", *TINY, *TINY_AXES], out) == 0
    header, rows = _read_csv(out / "sweep.csv")
    assert header == SWEEP_HEADER
    assert len(rows) == 4  # three axis-1 points, one non-initial axis-2 point
    echoed = _echoed(out)
    assert echoed["command"] == "sweep"
    assert echoed["config"]["family"] == "rff_linear"
    assert capsys.readouterr().out.startswith("sweep: family=rff_linear points=4")


def test_sweep_rerun_is_byte_identical_and_thread_independent(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(["sweep", *TINY, *TINY_AXES, "--threads", "1"], a) == 0
    assert _run(["sweep", *TINY, *TINY_AXES, "--threads", "3"], b) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


@pytest.mark.parametrize(
    "family, axes",
    [
        ("tree", ["axis1_values=[2,8,24]", "axis2_values=[1,3]"]),
        ("boosting", ["axis1_values=[1,3,6]", "axis2_values=[1,3]"]),
    ],
)
def test_tree_family_sweeps_are_thread_independent(tmp_path, family, axes):
    # the forked prefit workers share one presort of the training inputs
    argv = ["sweep", *TINY, "--set", f"family={family}"]
    for item in axes:
        argv += ["--set", item]
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run([*argv, "--threads", "1"], a) == 0
    assert _run([*argv, "--threads", "3"], b) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_sweep_bytes_do_not_depend_on_the_blas_threads(tmp_path):
    # OpenBLAS sums products in another order on two threads; the CLI pins one
    csvs = []
    for blas in ("1", "2"):
        out = tmp_path / blas
        argv = ["sweep", "--seed", "0", "--threads", "2", "--out", str(out)]
        subprocess.run([sys.executable, "-m", "smootherlab.cli", *argv],
                       capture_output=True, check=True,
                       env={**_src_env(), "OPENBLAS_NUM_THREADS": blas})
        csvs.append((out / "sweep.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_sweep_svg_output(tmp_path):
    out = tmp_path / "a"
    assert _run(["sweep", *TINY, *TINY_AXES, "--svg"], out) == 0
    text = (out / "sweep.svg").read_text()
    assert text.startswith("<svg")


def test_grid_row_count(tmp_path, capsys):
    out = tmp_path / "a"
    argv = ["grid", *TINY, "--set", "axis1_values=[2,8]",
            "--set", "axis2_values=[0,24]"]
    assert _run(argv, out) == 0
    header, rows = _read_csv(out / "grid.csv")
    assert header == SWEEP_HEADER
    assert len(rows) == 4
    assert capsys.readouterr().out.startswith("grid: family=rff_linear points=4")


def test_peaks_writes_one_csv_per_switch(tmp_path, capsys):
    out = tmp_path / "a"
    argv = ["peaks", *TINY, "--set", "switches=[12,23]",
            "--set", "axis1_values=[2,8,16]", "--set", "axis2_values=[0,24]"]
    assert _run(argv, out) == 0
    _, rows12 = _read_csv(out / "peaks_switch12.csv")
    _, rows23 = _read_csv(out / "peaks_switch23.csv")
    assert len(rows12) == 4  # [2, 8, 12] then p_ex=24
    assert len(rows23) == 5  # [2, 8, 16, 23] then p_ex=24
    assert capsys.readouterr().out.startswith("peaks: family=rff_linear")


def test_back_to_u_branches(tmp_path, capsys):
    out = tmp_path / "a"
    assert _run(["back-to-u", *TINY, *TINY_AXES], out) == 0
    header, rows = _read_csv(out / "back_to_u.csv")
    assert header == ["branch", *SWEEP_HEADER]
    assert {r[0] for r in rows} == {
        "axis1", "axis2", "contour_p_ex=0", "contour_p_ex=24"
    }
    assert len(rows) == 3 + 2 + 3 + 3
    assert "branches=4 contours=2" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# diagnostics commands
# ---------------------------------------------------------------------------


def test_effparams_outputs(tmp_path, capsys):
    out = tmp_path / "a"
    argv = ["effparams", *TINY, "--set", "model.kind=minnorm",
            "--set", "model.p_phi=48", "--set", "knn_k=[1,4]"]
    assert _run(argv, out) == 0
    header, rows = _read_csv(out / "effparams.csv")
    assert header == ["config_id", "set_name", "n_inputs", "n_train",
                      "p_generalized", "effective_knn"]
    assert len(rows) == 4  # model on train and test, plus two kNN baselines
    classical = json.loads((out / "classical.json").read_text())
    assert {"p_cov", "p_var", "p_err"} <= set(classical)
    assert capsys.readouterr().out.startswith("effparams: minnorm")


def test_cond_study_smoke(tmp_path, capsys):
    out = tmp_path / "a"
    assert _run(["cond-study", *TINY], out) == 0
    header, rows = _read_csv(out / "conditioning.csv")
    assert header == ["p_phi", "k", "sigma_k", "cond_k"]
    assert rows
    assert capsys.readouterr().out.startswith("cond-study: rows=")


def test_fixed_design_report(tmp_path, capsys):
    out = tmp_path / "a"
    assert _run(["fixed-design", "--set", "n=30"], out) == 0
    report = json.loads((out / "fixed_design.json").read_text())
    assert report["max_loss_deviation"] <= 1e-8
    assert capsys.readouterr().out.startswith("fixed-design: models=5")


def test_bias_variance_smoke(tmp_path, capsys):
    out = tmp_path / "a"
    argv = ["bias-variance", "--set", "spec.n=15",
            "--set", "n_resamples=60", "--set", "n_test_points=6"]
    assert _run(argv, out) == 0
    header, rows = _read_csv(out / "bias_variance.csv")
    assert header[0] == "point" and len(rows) == 6
    assert all(np.isfinite(float(cell)) for row in rows for cell in row)
    assert capsys.readouterr().out.startswith("bias-variance: ols max_z_bias=")


def test_bias_variance_minnorm_defaults_to_width_twice_n(tmp_path):
    argv = ["bias-variance", "--set", "model.kind=minnorm"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(argv, a) == 0
    assert _echoed(a)["config"]["model"]["rff_p"] is None
    assert _run([*argv, "--set", "model.rff_p=80"], b) == 0  # spec.n is 40
    table = "bias_variance.csv"
    assert (a / table).read_bytes() == (b / table).read_bytes()


@pytest.mark.parametrize("k", [0, 1000])  # spec.n is 40
def test_bias_variance_knn_k_out_of_range_exits_one_naming_it(tmp_path, capsys, k):
    argv = ["bias-variance", "--set", "model.kind=knn", "--set", f"model.k={k}"]
    assert _run(argv, tmp_path / "a") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: k must be in [1, n=40]") and f"got {k}" in err


def test_bias_variance_without_test_points_exits_one_naming_them(tmp_path, capsys):
    assert _run(["bias-variance", "--set", "n_test_points=0"], tmp_path / "a") == 1
    assert capsys.readouterr().err.startswith("error: n_test_points must be >= 1")


def test_select_smoke(tmp_path, capsys):
    out = tmp_path / "a"
    argv = ["select", *TINY, "--set", 'leaf_grid=[2,"max"]',
            "--set", "lr_grid=[0.85]", "--set", "max_rounds=60"]
    assert _run(argv, out) == 0
    header, rows = _read_csv(out / "selection.csv")
    assert header[0] == "leaf_budget" and len(rows) == 2
    assert {r[header.index("interpolating")] for r in rows} <= {"0", "1"}
    assert capsys.readouterr().out.startswith("select: configs=2")


# ---------------------------------------------------------------------------
# CSV ingestion and labels
# ---------------------------------------------------------------------------


def _write_rows(path, rows):
    path.write_text("x1,x2,label\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows))
    return path


def _csv_sets(train, test):
    return ["dataset.kind=csv", f"dataset.train={train}", f"dataset.test={test}"]


def test_csv_test_set_is_scaled_with_the_train_ranges(tmp_path):
    train = _write_rows(tmp_path / "train.csv", [(0, 10, 0), (2, 30, 1), (4, 20, 0)])
    test = _write_rows(tmp_path / "test.csv", [(1, 30, 1)])
    tr, te = load_datasets(build_config("ingest", {}, _csv_sets(train, test))["dataset"])
    assert np.array_equal(tr.features, [[0.0, 0.0], [0.5, 1.0], [1.0, 0.5]])
    # a one-row test file keeps its position on the training scale
    assert np.array_equal(te.features, [[0.25, 1.0]])


@pytest.mark.parametrize(
    "key, value", [("n_train", -5), ("n_train", 0), ("n_train", 5), ("n_test", 0),
                   ("n_test", 3)]
)
def test_file_subsample_sizes_name_their_key(tmp_path, capsys, key, value):
    train = _write_rows(tmp_path / "train.csv", [(i, i % 3, i % 2) for i in range(4)])
    test = _write_rows(tmp_path / "test.csv", [(i, 1, i % 2) for i in range(2)])
    sets = [*_csv_sets(train, test), f"dataset.{key}={value}"]
    argv = ["ingest", *(a for expr in sets for a in ("--set", expr))]
    assert _run(argv, tmp_path / "a") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: dataset.{key} must be in [1, ")
    assert "Traceback" not in err


def test_test_label_outside_the_train_classes_exits_one(tmp_path, capsys):
    rows = [(i, (i * 7) % 5, i % 2) for i in range(8)]
    train = _write_rows(tmp_path / "train.csv", rows)
    test = _write_rows(tmp_path / "test.csv", rows[:3] + [(3, 1, 2)])
    sets = [*_csv_sets(train, test), "axis1_values=[2]", "axis2_values=[1]"]
    argv = ["sweep", *(a for expr in sets for a in ("--set", expr)), "--threads", "1"]
    assert _run(argv, tmp_path / "a") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "class label 2" in err


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # nor the process pool, which only sweeps with more than one worker need
    lazy = ["scipy.stats", "multiprocessing", "concurrent.futures.process"]
    code = f"import sys, smootherlab.cli; print([m in sys.modules for m in {lazy}])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=_src_env())
    assert done.stdout.strip() == str([False] * len(lazy))


# ---------------------------------------------------------------------------
# benchmark tooling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "family, axes",
    [
        ("boosting", ["axis1_values=[1,3,6]", "axis2_values=[1,3]"]),
        ("tree", ["axis1_values=[2,8,24]", "axis2_values=[1,3]"]),
        ("rff_linear", ["axis1_values=[2,8,23]", "axis2_values=[0,24]"]),
    ],
)
def test_traced_back_to_u_writes_the_untraced_csv(tmp_path, family, axes):
    # perfbench/trace_cli.py wraps package functions by name; a renamed or
    # removed one breaks the benchmark's traced mode
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"
    argv = ["back-to-u", *TINY, "--set", f"family={family}", "--threads", "1"]
    for item in axes:
        argv += ["--set", item]
    spans_path, traced, plain = tmp_path / "spans.json", tmp_path / "t", tmp_path / "p"
    subprocess.run([sys.executable, str(tracer), str(spans_path), *argv,
                    "--out", str(traced)],
                   capture_output=True, check=True, env=_src_env())
    assert _run(argv, plain) == 0
    table = "back_to_u.csv"
    assert (traced / table).read_bytes() == (plain / table).read_bytes()
    spans = json.loads(spans_path.read_text())["spans"]
    names = {span["name"] for span in spans}
    assert "families.evaluate" in names
    if family == "boosting":
        assert "boosting.fit_boost" in names
    if family == "rff_linear":
        assert "linear.pcr_smoother" in names
        # the benchmark reads the cache rows off the sampling span's parent
        by_id = {span["id"]: span for span in spans}
        sampled = [s for s in spans if s["name"] == "rff.sample_frequencies"]
        assert sampled and all(by_id[s["parent"]]["name"] == "families.init" for s in sampled)
