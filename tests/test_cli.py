"""End-to-end checks for the command line entry point.

Every test drives ``main()`` in process with a tiny synthetic-image dataset so
the whole module stays fast; outputs always go to pytest temp directories.
"""

from __future__ import annotations

import csv
import json
import os
import runpy
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smootherlab
from smootherlab.boosting import fit_boost, fit_boost_ensemble
from smootherlab.cli import (
    _COMMANDS,
    _RANGES,
    DATASET_DEFAULTS,
    MODEL_DEFAULTS,
    build_config,
    command_defaults,
    load_datasets,
    main,
)
from smootherlab.dataset import one_vs_all_targets
from smootherlab.errors import SingularDesignError, ValidationError
from smootherlab.experiments.families import FAMILY_RUNNERS, ROW_BLOCK, TreeFamily
from smootherlab.experiments.sweep import SWEEP_HEADER
from smootherlab.trees import fit_ensemble, fit_tree

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


def test_missing_csv_file_fails_cleanly(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    argv = ["ingest", "--set", "dataset.kind=csv",
            "--set", f"dataset.train={missing}", "--set", f"dataset.test={missing}"]
    rc = _run(argv, tmp_path / "a")
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{missing}: cannot read" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value",
    [("noise_std", -1), ("label_noise", 2), ("label_noise", -0.5), ("side", 0)],
)
def test_bad_image_generator_inputs_exit_one_naming_them(tmp_path, capsys, key, value):
    rc = _run(["ingest", "--set", f"dataset.{key}={value}"], tmp_path / "a")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key 'dataset.{key}' must be ")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "false", '""', "[]", "null"])
@pytest.mark.parametrize("command, key", [("ingest", "dataset"), ("fit", "model")])
def test_falsy_kinded_sections_exit_one_naming_the_key(tmp_path, capsys, command, key,
                                                       value):
    # a value that is not an object is refused, however falsy; before, these
    # ran the default section
    assert _run([command, "--set", f"{key}={value}"], tmp_path / "a") == 1
    err = capsys.readouterr().err
    assert err == f"error: config key {key!r} takes an object, got {value}\n"


def test_missing_or_empty_kinded_sections_take_the_defaults():
    for command, key in (("ingest", "dataset"), ("fit", "model")):
        assert build_config(command, {}, [f"{key}={{}}"]) == build_config(command, {}, [])


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
    (["peaks", "--set", "family=tree"], "axis1_values"),
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


# one out-of-range value for every _RANGES key; the last --set names the key
_BAD_VALUE = {
    "seed": ["ingest", "--set", "dataset.seed=-1"],
    "rff_seed": ["fit", "--set", "model.rff_seed=-1"],
    "base_seed": ["sweep", "--set", "shared.base_seed=-1"],
    "resample_seed": ["fixed-design", "--set", "resample_seed=-1"],
    "class_index": ["fit", "--set", "model.class_index=-1"],
    "effparams_class": ["sweep", "--set", "shared.effparams_class=-1"],
    "noise_std": ["bias-variance", "--set", "spec.noise_std=-0.1"],
    "stop_tol": ["fit", "--set", "model.kind=boost", "--set", "model.stop_tol=-1"],
    "loss_tol": ["fixed-design", "--set", "loss_tol=-1e-8"],
    "n": ["fixed-design", "--set", "n=0"],
    "d": ["bias-variance", "--set", "spec.d=0"],
    "n_train": ["ingest", "--set", "dataset.n_train=0"],
    "n_test": ["ingest", "--set", "dataset.kind=synthetic", "--set", "dataset.n_test=0"],
    "side": ["ingest", "--set", "dataset.side=0"],
    "k": ["fit", "--set", "model.kind=knn", "--set", "model.k=0"],
    "p_phi": ["fit", "--set", "model.p_phi=0"],
    "p_pc": ["effparams", "--set", "model.p_pc=0"],
    "max_leaves": ["fit", "--set", "model.kind=tree", "--set", "model.max_leaves=0"],
    "p_ens": ["fit", "--set", "model.kind=forest", "--set", "model.p_ens=0"],
    "n_rounds": ["fit", "--set", "model.kind=boost_ensemble", "--set", "model.n_rounds=0"],
    "leaf_budget": ["fit", "--set", "model.kind=boost", "--set", "model.leaf_budget=0"],
    "boost_leaf_budget": ["peaks", "--set", "shared.boost_leaf_budget=0"],
    "subset_size": ["effparams", "--set", "model.kind=tree", "--set", "model.subset_size=0"],
    "tree_subset": ["back-to-u", "--set", "shared.tree_subset=-2"],
    "n_features": ["bias-variance", "--set", "model.n_features=0"],
    "rff_p": ["bias-variance", "--set", "model.kind=minnorm", "--set", "model.rff_p=0"],
    "n_test_points": ["bias-variance", "--set", "n_test_points=0"],
    "max_rounds": ["select", "--set", "max_rounds=0"],
    "n_classes": ["ingest", "--set", "dataset.n_classes=1"],
    "n_resamples": ["bias-variance", "--set", "n_resamples=1"],
    "rff_scale": ["cond-study", "--set", "rff_scale=0"],
    "interp_tol": ["fixed-design", "--set", "interp_tol=-1"],
    "learning_rate": ["fit", "--set", "model.kind=boost", "--set", "model.learning_rate=1.5"],
    "label_noise": ["ingest", "--set", "dataset.label_noise=2"],
    "axis1_values": ["sweep", "--set", "axis1_values=[]"],
    "switches": ["peaks", "--set", "switches=[]"],
    "p_phi_values": ["cond-study", "--set", "p_phi_values=[8,0]"],
    "k_values": ["cond-study", "--set", "k_values=[0]"],
    "knn_k": ["effparams", "--set", "knn_k=[5,0]"],
    "leaf_grid": ["select", "--set", 'leaf_grid=[2,"max",0]'],
    "lr_grid": ["select", "--set", "lr_grid=[0]"],
}


@pytest.mark.parametrize("key", sorted(_RANGES))
def test_out_of_range_value_exits_one_naming_its_dotted_key(tmp_path, capsys, key):
    argv = _BAD_VALUE[key]
    dotted = argv[-1].partition("=")[0]
    assert _run(argv, tmp_path / "a") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {dotted!r} must be ")
    assert "Traceback" not in err


# bounds that depend on the data, checked where the data is: desk data has
# n_train = 300 and 5 classes, bias-variance's spec n = 40 and d = 1
_DATA_BOUNDS = [
    (["fit", "--set", "model.class_index=5"], "model.class_index", "in [0, 4]", 5),
    (["effparams", "--set", "model.p_pc=400"], "model.p_pc", "in [1, 299]", 400),
    (["sweep", "--set", "shared.effparams_class=7"], "shared.effparams_class",
     "in [0, 4]", 7),
    (["bias-variance", "--set", "model.kind=knn", "--set", "model.k=1000"], "model.k",
     "in [1, 40]", 1000),
    (["fit", "--set", "model.kind=knn", "--set", "model.k=1000"], "model.k",
     "in [1, 300]", 1000),
    (["effparams", "--set", "knn_k=[1,1000]"], "knn_k",
     "a list of values in [1, 300]", [1, 1000]),
    (["fit", "--set", "model.kind=ols", "--set", "model.p_phi=300"], "model.p_phi",
     "in [1, 299]", 300),
    (["effparams", "--set", "model.kind=minnorm", "--set", "model.p_phi=299"],
     "model.p_phi", ">= 300", 299),
    (["bias-variance", "--set", "model.n_features=40"], "model.n_features", "in [1, 2]", 40),
    (["bias-variance", "--set", "model.kind=minnorm", "--set", "model.rff_p=39"],
     "model.rff_p", ">= 40", 39),
    # rff_linear's axis 1 is p_pc, at most n - 1
    (["sweep", "--set", "axis1_values=[2,400]"], "axis1_values",
     "a non-empty list of values in [1, 299]", [2, 400]),
    (["peaks", "--set", "switches=[400]"], "switches",
     "a non-empty list of values in [1, 299]", [400]),
]


@pytest.mark.parametrize("argv, dotted, bound, value", _DATA_BOUNDS,
                         ids=[f"{argv[0]}-{dotted}" for argv, dotted, *_ in _DATA_BOUNDS])
def test_data_dependent_bound_exits_one_naming_its_dotted_key(
    tmp_path, capsys, argv, dotted, bound, value
):
    assert _run(argv, tmp_path / "a") == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: config key {dotted!r} must be {bound}, got {json.dumps(value)}\n"
    )


def test_out_of_range_value_in_a_config_file_names_its_dotted_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"kind": "boost", "stop_tol": -1}}))
    assert _run(["fit", "--config", str(cfg)], tmp_path / "a") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'model.stop_tol' must be >= 0, got -1")


@pytest.mark.parametrize(
    "command, dotted",
    [("sweep", "shared.base_seed"), ("fit", "model.rff_seed"), ("ingest", "dataset.seed"),
     ("cond-study", "rff_seed")],
)
def test_negative_seed_flag_exits_one_naming_its_key(tmp_path, capsys, command, dotted):
    assert _run([command, "--seed", "-1"], tmp_path / "a") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {dotted!r} must be >= 0, got -1")
    assert not (tmp_path / "a").exists()


def _leaves(tree, path=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{path}{key}.")
        else:
            yield path + key, value


def test_every_number_and_grid_default_has_a_range_it_passes():
    trees = [command_defaults(c) for c in _COMMANDS]
    trees += [*DATASET_DEFAULTS.values(), *MODEL_DEFAULTS.values()]
    trees.append(build_config("ingest", {}, [], full_scale=True))
    leaves = [leaf for tree in trees for leaf in _leaves(tree)]
    assert set(_RANGES) <= {path.rpartition(".")[2] for path, _ in leaves}
    for path, value in leaves:
        key = path.rpartition(".")[2]
        # a null default stands for a number or a list derived from the data
        ranged = (isinstance(value, (int, float, list)) and not isinstance(value, bool)
                  or value is None)
        if ranged and key != "axis2_values":  # any axis-2 list is a valid walk
            assert key in _RANGES, path
        if key in _RANGES and value is not None:
            assert _RANGES[key][1](value), path


@pytest.mark.parametrize("key", ["rff_seed", "axis1_init"])
def test_removed_shared_keys_are_unknown(tmp_path, capsys, key):
    assert _run(["sweep", *TINY, "--set", f"shared.{key}=1"], tmp_path / "a") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown config key 'shared.{key}'")
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


# the smallest change to each kind's defaults that fits the TINY train set
_TINY_MODELS = {"ols": {"p_phi": 16}, "pcr": {"p_phi": 48, "p_pc": 8}}


def _tiny_model(kind):
    return [a for key, value in _TINY_MODELS.get(kind, {}).items()
            for a in ("--set", f"model.{key}={value}")]


def _fit_info(model, X, y):
    """The size entries of a fit report, from the library's own fits."""
    kind, seed, subset = model["kind"], model.get("seed"), model.get("subset_size")
    if kind == "pcr":
        return {"raw_params": model["p_pc"] + 1}  # components plus intercept
    if kind in ("ols", "minnorm", "svd_basis"):
        return {"raw_params": model["p_phi"]}
    if kind == "knn":
        return {"raw_params": None}
    # a forest, or averaged boosting runs, sums its members' leaves
    if kind == "tree":
        trees = [fit_tree(X, y, model["max_leaves"], seed=seed, subset_size=subset)]
    elif kind == "forest":
        trees = fit_ensemble(X, y, model["max_leaves"], model["p_ens"], base_seed=seed,
                             subset_size=subset).members
    else:
        boost = dict(learning_rate=model["learning_rate"],
                     leaf_budget=model["leaf_budget"], subset_size=subset)
        if kind == "boost":
            fit = fit_boost(X, y, n_rounds=model["n_rounds"], seed=seed,
                            stop_tol=model["stop_tol"], **boost)
            return {"raw_params": sum(t.n_leaves for t in fit.trees),
                    "rounds_used": fit.n_rounds}
        runs = fit_boost_ensemble(X, y, model["n_rounds"], model["p_ens"],
                                  base_seed=seed, **boost).members
        trees = [t for run in runs for t in run.trees]
    return {"raw_params": sum(t.n_leaves for t in trees)}


@pytest.mark.parametrize("command", ["fit", "effparams"])
@pytest.mark.parametrize("kind", sorted(MODEL_DEFAULTS))
def test_every_model_kind_fits_with_its_defaults(tmp_path, command, kind):
    out = tmp_path / "a"
    argv = [command, *TINY, "--set", f"model.kind={kind}", *_tiny_model(kind)]
    assert _run(argv, out) == 0
    config = _echoed(out)["config"]
    assert config["model"] == {**MODEL_DEFAULTS[kind], **_TINY_MODELS.get(kind, {})}
    if command == "fit":
        report = json.loads((out / "fit_report.json").read_text())
        train, _ = load_datasets(config["dataset"])
        y = one_vs_all_targets(train, train.task_classes, column=0)
        expected = _fit_info(config["model"], train.features, y)
        assert {key: report[key] for key in expected} == expected


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


@pytest.mark.parametrize(
    "family, axis1", [("tree", "[8]"), ("tree", "[2,8]"), ("boosting", "[1,3,6]")]
)
def test_one_member_schedules_still_fill_the_prefit_pool(
    tmp_path, monkeypatch, family, axis1
):
    # one member is one task at every a1 value; its classes are split so
    # that every pool worker gets a prefit task
    cls, first_rounds = FAMILY_RUNNERS[family], {}  # family -> its first call's count
    prefit_tasks = cls.prefit_tasks

    def counted(self):
        tasks = prefit_tasks(self)
        first_rounds.setdefault(self, (self.threads, len(tasks)))
        return tasks

    monkeypatch.setattr(cls, "prefit_tasks", counted)
    argv = ["sweep", *TINY, "--set", f"family={family}",
            "--set", f"axis1_values={axis1}", "--set", "axis2_values=[1]"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run([*argv, "--threads", "1"], a) == 0
    assert _run([*argv, "--threads", "3"], b) == 0
    assert list(first_rounds.values()) == [(1, 1), (3, 3)]  # TINY has 3 classes
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_boosting_back_to_u_over_several_row_blocks_is_thread_independent(tmp_path):
    # more training and test rows than one block, so the p0 row blocks run
    # in separate workers and are joined in row order
    argv = ["back-to-u",
            "--set", f"dataset.n_train={ROW_BLOCK + 21}",
            "--set", f"dataset.n_test={2 * ROW_BLOCK + 9}",
            "--set", "dataset.side=6", "--set", "dataset.n_classes=3",
            "--set", "family=boosting",
            "--set", "axis1_values=[1,3]", "--set", "axis2_values=[1,3]"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run([*argv, "--threads", "1"], a) == 0
    assert _run([*argv, "--threads", "3"], b) == 0
    assert (a / "back_to_u.csv").read_bytes() == (b / "back_to_u.csv").read_bytes()


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


@pytest.mark.parametrize("command, extra, lines, dashed", [
    ("sweep", [], 2, 0),  # test and train loss
    ("peaks", ["--set", "switches=[8,12,23]"], 3, 0),  # one per switch
    ("back-to-u", [], 4, 2),  # axis1, axis2, and one dashed contour per axis-2 value
], ids=["sweep", "peaks", "back-to-u"])
def test_svg_draws_one_line_per_series(tmp_path, command, extra, lines, dashed):
    argv = [command, *TINY, *TINY_AXES, *extra]
    assert _run(argv, tmp_path / "plain") == 0
    assert not list((tmp_path / "plain").glob("*.svg"))  # no chart without --svg
    assert _run([*argv, "--svg"], tmp_path / "a") == 0
    text = (tmp_path / "a" / f"{command.replace('-', '_')}.svg").read_text()
    assert text.startswith("<svg")
    polylines = [line for line in text.splitlines() if line.startswith("<polyline")]
    assert len(polylines) == lines
    assert sum("stroke-dasharray" in line for line in polylines) == dashed


def test_grid_is_not_a_command(tmp_path, capsys):
    # the axis-1 x axis-2 grid is the contour rows of back_to_u.csv
    out = tmp_path / "a"
    assert _run(["grid", *TINY], out) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'grid'" in err and "Traceback" not in err
    assert not out.exists()


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


def test_repeated_switch_exits_one_naming_it(tmp_path, capsys):
    # both switches would write peaks_switch20.csv, the second over the first
    argv = ["peaks", *TINY, "--set", "switches=[20,20]"]
    assert _run(argv, tmp_path / "a") == 1
    assert capsys.readouterr().err.startswith(
        "error: config key 'switches' must be null or a non-empty list of "
        "distinct values, got [20, 20]\n")


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


def test_non_finite_setting_is_written_as_a_json_string(tmp_path):
    """An infinite --set value reaches config.json and the report as the
    string "inf", never as the bare ``Infinity`` strict JSON rejects."""
    def strict(name):
        raise ValueError(f"non-standard JSON constant {name}")

    out = tmp_path / "a"
    assert _run(["fixed-design", "--set", "loss_tol=1e999"], out) == 0
    config = json.loads((out / "config.json").read_text(), parse_constant=strict)
    report = json.loads((out / "fixed_design.json").read_text(), parse_constant=strict)
    assert config["config"]["loss_tol"] == "inf"
    assert report["tolerance"] == "inf"


def test_dead_sweep_worker_exits_three_with_one_line(tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    class Dying(FAMILY_RUNNERS["rff_linear"]):
        def evaluate(self, *state):
            if os.getpid() != parent:
                os._exit(1)
            return super().evaluate(*state)

    monkeypatch.setitem(FAMILY_RUNNERS, "rff_linear", Dying)
    code = _run(["sweep", *TINY, *TINY_AXES, "--threads", "2"], tmp_path)
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "worker error: a sweep worker process died during the evaluate stage"
    ]


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
    # below 1 is out of range wherever k is set; above n depends on the data
    bound = ">= 1" if k < 1 else "in [1, 40]"
    assert err.startswith(f"error: config key 'model.k' must be {bound}, got {k}")


def test_bias_variance_without_noise_exits_one_naming_it(tmp_path, capsys):
    assert _run(["bias-variance", "--set", "spec.noise_std=0"], tmp_path / "a") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'spec.noise_std' must be > 0, got 0")


def test_bias_variance_without_test_points_exits_one_naming_them(tmp_path, capsys):
    assert _run(["bias-variance", "--set", "n_test_points=0"], tmp_path / "a") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'n_test_points' must be >= 1")


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
    "command", [["ingest"], ["fit", "--set", "model.kind=knn"]], ids=["ingest", "fit-knn"]
)
@pytest.mark.parametrize("normalize", [True, False])
def test_file_sets_of_different_widths_exit_one(tmp_path, capsys, command, normalize):
    train = tmp_path / "train.csv"
    train.write_text("x1,x2,x3,label\n" + "".join(f"{i},1,{i % 3},{i % 2}\n"
                                                  for i in range(8)))
    test = tmp_path / "test.csv"
    test.write_text("x1,x2,label\n" + "".join(f"{i},1,{i % 2}\n" for i in range(4)))
    sets = [*_csv_sets(train, test), f"dataset.normalize={json.dumps(normalize)}"]
    argv = [*command, *(a for expr in sets for a in ("--set", expr))]
    assert _run(argv, tmp_path / "a") == 1
    err = capsys.readouterr().err
    assert err == "error: dataset.test has 2 features per row, dataset.train has 3\n"


def test_idx_sets_of_different_widths_exit_one(tmp_path, capsys):
    argv = ["ingest", "--set", "dataset.kind=idx"]
    for stem, side in (("train", 3), ("test", 2)):
        images, labels = tmp_path / f"{stem}-images", tmp_path / f"{stem}-labels"
        images.write_bytes(struct.pack(">iiii", 0x803, 2, side, side) + bytes(2 * side**2))
        labels.write_bytes(struct.pack(">ii", 0x801, 2) + bytes([0, 1]))
        prefix = "" if stem == "train" else "test_"
        argv += ["--set", f"dataset.{prefix}images={images}",
                 "--set", f"dataset.{prefix}labels={labels}"]
    assert _run(argv, tmp_path / "a") == 1
    err = capsys.readouterr().err
    assert err == "error: dataset.test_images has 4 features per row, dataset.images has 9\n"


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
    # below 1 is caught at merge, above the row count where the file is read
    bound = "null or >= 1" if value < 1 else f"in [1, {4 if key == 'n_train' else 2}]"
    assert err.startswith(f"error: config key 'dataset.{key}' must be {bound}, got {value}")
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
    by_id = {span["id"]: span for span in spans}
    if family in ("tree", "boosting"):
        # every class's tree is fit through the names the tracer wraps:
        # families.fit_tree for trees, boosting.fit_tree inside fit_boost
        fitted = [s for s in spans if s["name"] == "trees.fit_tree"]
        assert fitted
        parent = "boosting.fit_boost" if family == "boosting" else "sweep.prefit_task"
        assert all(by_id[s["parent"]]["name"] == parent for s in fitted)
        # one fit per class and member (and budget, for trees): 3 classes,
        # members 1..3 and, for trees, budgets 2, 8 and 24
        fits = fitted if family == "tree" else [
            s for s in spans if s["name"] == "boosting.fit_boost"]
        assert len(fits) == 3 * 3 * (3 if family == "tree" else 1)
    if family == "rff_linear":
        assert "linear.pcr_smoother" in names
        # the benchmark reads the cache rows off the sampling span's parent
        sampled = [s for s in spans if s["name"] == "rff.sample_frequencies"]
        assert sampled and all(by_id[s["parent"]]["name"] == "families.init" for s in sampled)


@pytest.mark.parametrize(
    "script", ["run_rff_decomposition.py", "run_tree_boosting.py", "run_diagnostics.py"]
)
def test_scripts_run_every_step_at_tiny_scale(tmp_path, monkeypatch, script):
    # the scripts chain CLI steps; a renamed or removed config key breaks them
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    steps = runpy.run_path(str(path))["STEPS"]
    fixed = ["--set", "family=rff_linear"] if script == "run_rff_decomposition.py" else []
    monkeypatch.chdir(tmp_path)
    for step in steps:
        defaults, tiny = command_defaults(step[0]), []
        if "dataset" in defaults:
            tiny = [*TINY, *_tiny_model(defaults.get("model", {}).get("kind"))]
        assert main([*step, *fixed, *tiny, "--threads", "1"]) == 0, step


def test_shipped_sweep_config_template_runs(tmp_path):
    # README offers it as a template; a renamed or removed config key breaks it
    path = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "rff_sweep_small.json"
    assert _run(["sweep", "--config", str(path), "--threads", "1"], tmp_path / "a") == 0


@pytest.mark.parametrize(
    "script", ["run_rff_decomposition.py", "run_tree_boosting.py", "run_diagnostics.py"]
)
def test_scripts_name_the_step_that_failed(tmp_path, monkeypatch, capsys, script):
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script, "--seed", "-1"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(path), run_name="__main__")
    assert done.value.code == 1
    first = runpy.run_path(str(path))["STEPS"][0]
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("step failed with exit code 1: smootherlab " + " ".join(first))
    assert last.endswith("--seed -1")


def test_readme_python_example_runs_as_written():
    # the one Python example README gives, with the import paths it shows
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]
    dataset = {**command_defaults("sweep")["dataset"], "n_train": 60, "n_test": 120}
    train, test = load_datasets(dataset)
    namespace = {"train": train, "test": test}
    exec(block, namespace)
    assert len(namespace["result"].records) == 10


def test_readme_synopsis_lists_every_command_in_order():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = text.split("smootherlab {", 1)[1].split("}", 1)[0]
    assert synopsis.split("|") == list(_COMMANDS)


def test_every_module_imports_on_its_own():
    # a package __init__ imports nothing, so a module that leans on another
    # having been imported first would fail only in a fresh interpreter
    code = """
import importlib, pkgutil, sys
import smootherlab
names = [m.name for m in pkgutil.walk_packages(smootherlab.__path__, "smootherlab.")]
for name in names:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "smootherlab"]:
        del sys.modules[loaded]
    importlib.import_module(name)
print("\\n".join(names))
"""
    done = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    src = Path(smootherlab.__file__).resolve().parent
    files = {".".join(("smootherlab", *path.relative_to(src).with_suffix("").parts))
             .removesuffix(".__init__") for path in src.rglob("*.py")}
    assert set(done.stdout.split()) == files - {"smootherlab"}
