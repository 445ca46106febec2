"""Command-line harness around the sweeps and studies.

Every subcommand follows the same shape: a complete default config, an
optional JSON config file merged over it, repeatable --set key.path=value
overrides merged over that, and a strict key check that rejects anything the
defaults do not know about. The effective config is echoed to the output
directory as config.json next to the result tables, so a run directory is
self-describing and reruns are byte-for-byte reproducible.

Exit codes: 0 on success, 1 for validation problems (bad flags, unknown
config keys, malformed datasets, schedule violations), 2 for numerical
failures inside an otherwise valid run.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .blas import one_blas_thread
from .boosting import (
    DEFAULT_LEAF_BUDGET,
    DEFAULT_LEARNING_RATE,
    DEFAULT_STOP_TOL,
    fit_boost,
    fit_boost_ensemble,
)
from .dataset import (
    Dataset,
    SyntheticSpec,
    load_csv,
    load_idx,
    normalize_minmax,
    one_vs_all_targets,
    subsample,
    synth_generate,
    synth_images,
)
from .effparams import (
    generalized_eff_params,
    p_eff,
    train_eff_params_classical,
    write_effparams_csv,
)
from .errors import SingularDesignError, ValidationError
from .experiments import (
    AXIS2_INIT,
    AnalyticModelConfig,
    ConditionRow,
    SelectionRow,
    SweepConfig,
    back_to_u,
    bias_variance,
    composite_schedule,
    cond_study,
    fixed_design_check,
    model_selection_study,
    peak_move,
    run_grid,
    run_sweep,
)
from .knn import fit_knn
from .linear import fit_minnorm, fit_ols, fit_pcr, fit_svd_basis
from .rff import DEFAULT_SCALE, RffModel, sample_frequencies, transform
from .svg import LineChart
from .tableio import atomic_write_text, write_csv, write_rows
from .trees import fit_ensemble, fit_tree

# --------------------------------------------------------------------------- defaults

_DESK_IMAGES = {
    "kind": "images",
    "n_train": 300,
    "n_test": 600,
    "side": 16,
    "n_classes": 5,
    "noise_std": 0.25,
    "label_noise": 0.15,
    "seed": 0,
}

_FULL_IMAGES = {**_DESK_IMAGES, "n_train": 1000, "n_test": 2000, "side": 28,
                "n_classes": 10}

DATASET_DEFAULTS = {
    "idx": {
        "kind": "idx",
        "images": "",
        "labels": "",
        "test_images": "",
        "test_labels": "",
        "n_train": None,
        "n_test": None,
        "balanced": False,
        "seed": 0,
    },
    "csv": {
        "kind": "csv",
        "train": "",
        "test": "",
        "normalize": True,
        "n_train": None,
        "n_test": None,
        "balanced": False,
        "seed": 0,
    },
    "synthetic": {
        "kind": "synthetic",
        "generator": "sine",
        "n_train": 200,
        "n_test": 400,
        "d": 2,
        "noise_std": 0.1,
        "seed": 0,
    },
    "images": dict(_DESK_IMAGES),
}

MODEL_DEFAULTS = {
    "ols": {"kind": "ols", "p_phi": 64, "rff_seed": 0, "rff_scale": DEFAULT_SCALE,
            "class_index": 0},
    "minnorm": {"kind": "minnorm", "p_phi": 600, "rff_seed": 0,
                "rff_scale": DEFAULT_SCALE, "class_index": 0},
    "svd_basis": {"kind": "svd_basis", "p_phi": 600, "rff_seed": 0,
                  "rff_scale": DEFAULT_SCALE, "class_index": 0},
    "pcr": {"kind": "pcr", "p_phi": 512, "p_pc": 128, "rff_seed": 0,
            "rff_scale": DEFAULT_SCALE, "class_index": 0},
    "knn": {"kind": "knn", "k": 5, "class_index": 0},
    "tree": {"kind": "tree", "max_leaves": 10, "seed": 1, "subset_size": None,
             "class_index": 0},
    "forest": {"kind": "forest", "max_leaves": 10, "p_ens": 5, "seed": 1,
               "subset_size": None, "class_index": 0},
    "boost": {"kind": "boost", "n_rounds": 100, "learning_rate": DEFAULT_LEARNING_RATE,
              "leaf_budget": DEFAULT_LEAF_BUDGET, "seed": 1,
              "stop_tol": DEFAULT_STOP_TOL, "subset_size": None, "class_index": 0},
    "boost_ensemble": {"kind": "boost_ensemble", "n_rounds": 20, "p_ens": 5,
                       "learning_rate": DEFAULT_LEARNING_RATE,
                       "leaf_budget": DEFAULT_LEAF_BUDGET, "seed": 1,
                       "subset_size": None, "class_index": 0},
}


def _sweep_defaults():
    return {
        "dataset": dict(_DESK_IMAGES),
        "family": "rff_linear",
        "axis1_values": None,  # None picks a family default sized to n_train
        "axis2_values": None,
        "shared": dataclasses.asdict(SweepConfig()),
    }


def command_defaults(command: str) -> dict:
    if command == "ingest":
        return {"dataset": dict(_DESK_IMAGES)}
    if command == "fit":
        return {"dataset": dict(_DESK_IMAGES), "model": dict(MODEL_DEFAULTS["pcr"])}
    if command in ("sweep", "grid", "back-to-u"):
        return _sweep_defaults()
    if command == "peaks":
        cfg = _sweep_defaults()
        cfg["switches"] = None
        return cfg
    if command == "effparams":
        return {
            "dataset": dict(_DESK_IMAGES),
            "model": dict(MODEL_DEFAULTS["pcr"]),
            "knn_k": [1, 2, 5, 10],
        }
    if command == "cond-study":
        return {
            "dataset": dict(_DESK_IMAGES),
            "p_phi_values": None,
            "k_values": None,
            "rff_seed": 0,
            "rff_scale": DEFAULT_SCALE,
        }
    if command == "fixed-design":
        return {
            "n": 60,
            "d": 3,
            "generator": "sine",
            "noise_std": 0.3,
            "seed": 0,
            "resample_seed": 123,
            # low-d inputs need wide frequencies for a full-rank cosine design
            "rff_scale": 3.0,
            "interp_tol": 1e-4,
            "loss_tol": 1e-8,
        }
    if command == "bias-variance":
        return {
            "spec": {"generator": "sine", "n": 40, "d": 1, "noise_std": 0.3,
                     "seed": 0},
            "model": dataclasses.asdict(AnalyticModelConfig("ols", k=3)),
            "n_resamples": 400,
            "n_test_points": 25,
        }
    if command == "select":
        return {
            "dataset": dict(_DESK_IMAGES),
            "leaf_grid": [2, 5, 10, "max"],
            "lr_grid": [0.5, 0.85],
            "interp_tol": 1e-4,
            "max_rounds": 200,
            "seed": 1,
        }
    raise ValidationError(f"unknown command {command!r}")


# where --seed lands for each command
_SEED_PATHS = {
    "ingest": ("dataset", "seed"),
    "fit": ("model", "seed"),
    "sweep": ("shared", "base_seed"),
    "grid": ("shared", "base_seed"),
    "peaks": ("shared", "base_seed"),
    "back-to-u": ("shared", "base_seed"),
    "effparams": ("model", "seed"),
    "cond-study": ("rff_seed",),
    "fixed-design": ("seed",),
    "bias-variance": ("spec", "seed"),
    "select": ("seed",),
}


# --------------------------------------------------------------------------- config plumbing


# keys whose null default is derived from the data; set, they take a list of ints
_LIST_KEYS = {"axis1_values", "axis2_values", "switches", "p_phi_values", "k_values"}
# grids a command walks; empty, there is nothing to compute. An empty
# axis2_values is an axis-1-only walk, and the grid command checks its own axes.
_NONEMPTY_KEYS = {"axis1_values", "switches", "p_phi_values", "k_values",
                  "leaf_grid", "lr_grid"}


def _fits(default, value) -> bool:
    """Whether a config value has its default's type.

    An int may stand for a float, a bool never for a number. List elements
    must fit one of the default list's elements, where a string element must
    be one the default list holds.
    """
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and all(
            any(v == d if isinstance(d, str) else _fits(d, v) for d in default)
            for v in value
        )
    return type(value) is type(default)


def _merge_strict(defaults: dict, user: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        if key not in defaults:
            known = ", ".join(sorted(defaults))
            raise ValidationError(
                f"unknown config key {path + key!r} (known: {known})"
            )
        base = defaults[key]
        if isinstance(base, dict) and isinstance(value, dict):
            out[key] = _merge_strict(base, value, path + key + ".")
            continue
        like = base
        if base is None:  # derived from the data unless set
            like = [0] if key in _LIST_KEYS else 0
        if not (_fits(like, value) or base is None and value is None):
            either = "null or " if base is None else ""
            raise ValidationError(
                f"config key {path + key!r} must be {either}typed like "
                f"{json.dumps(like)}, got {json.dumps(value)}"
            )
        if key in _NONEMPTY_KEYS and value == []:
            raise ValidationError(f"config key {path + key!r} must not be empty")
        out[key] = value
    return out


def _merge_kinded(defaults_by_kind, user, fallback: dict, path: str) -> dict:
    """Merge a dict whose legal keys depend on its 'kind' entry."""
    if not isinstance(user, dict):
        raise ValidationError(f"config key {path!r} takes an object, got {user!r}")
    kind = user.get("kind", fallback["kind"])
    if not isinstance(kind, str) or kind not in defaults_by_kind:
        raise ValidationError(
            f"unknown {path} kind {kind!r}; choose from {sorted(defaults_by_kind)}"
        )
    base = dict(defaults_by_kind[kind])
    if fallback.get("kind") == kind:
        base.update(fallback)  # keep caller-tuned defaults for the same kind
    return _merge_strict(base, user, path + ".")


def build_config(
    command: str, file_config: dict, sets: list[str], full_scale: bool = False
) -> dict:
    user = copy.deepcopy(file_config)
    for expr in sets:
        _apply_set(user, expr)
    defaults = command_defaults(command)
    if full_scale and "dataset" in defaults:
        defaults["dataset"] = dict(_FULL_IMAGES)
    # kind-dependent sections are matched against their own key tables
    kinded = {"dataset": DATASET_DEFAULTS} if "dataset" in defaults else {}
    if command in ("fit", "effparams"):
        kinded["model"] = MODEL_DEFAULTS
    out = _merge_strict({k: v for k, v in defaults.items() if k not in kinded},
                        {k: v for k, v in user.items() if k not in kinded})
    for key, table in kinded.items():
        out[key] = _merge_kinded(table, user.get(key, {}) or {}, defaults[key], key)
    return out


def _apply_set(user: dict, expr: str) -> None:
    key, sep, raw = expr.partition("=")
    if not sep or not key:
        raise ValidationError(f"--set needs key.path=value, got {expr!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = user
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if nxt is None:
            nxt = node[part] = {}
        elif not isinstance(nxt, dict):
            raise ValidationError(f"--set path {key!r} descends into non-dict {part!r}")
        node = nxt
    node[parts[-1]] = value


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _echo_config(out_dir: Path, command: str, config: dict) -> None:
    payload = {"command": command, "config": _jsonable(config)}
    atomic_write_text(
        out_dir / "config.json", json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


# --------------------------------------------------------------------------- datasets


def load_datasets(cfg: dict) -> tuple[Dataset, Dataset]:
    kind = cfg["kind"]
    if kind in ("synthetic", "images"):  # sizes of the generated split
        for key in ("n_train", "n_test"):
            if cfg[key] < 1:
                raise ValidationError(f"dataset.{key} must be >= 1, got {cfg[key]}")
    if kind == "idx":
        for key in ("images", "labels", "test_images", "test_labels"):
            if not cfg[key]:
                raise ValidationError(f"dataset.{key} is required for kind 'idx'")
        train = load_idx(cfg["images"], cfg["labels"], name="idx-train")
        test = load_idx(cfg["test_images"], cfg["test_labels"], name="idx-test")
    elif kind == "csv":
        for key in ("train", "test"):
            if not cfg[key]:
                raise ValidationError(f"dataset.{key} is required for kind 'csv'")
        train = load_csv(cfg["train"], name="csv-train", normalize=False)
        test = load_csv(cfg["test"], name="csv-test", normalize=False)
        if cfg["normalize"]:  # one scale for both sets, fitted on train
            train, test = normalize_minmax(train), normalize_minmax(test, train)
    elif kind == "synthetic":
        full = synth_generate(SyntheticSpec(
            cfg["generator"], cfg["n_train"] + cfg["n_test"], cfg["d"],
            cfg["noise_std"], cfg["seed"],
        ))
    elif kind == "images":
        full = synth_images(
            cfg["n_train"] + cfg["n_test"],
            side=cfg["side"],
            n_classes=cfg["n_classes"],
            noise_std=cfg["noise_std"],
            seed=cfg["seed"],
            label_noise=cfg["label_noise"],
        )
    else:  # pragma: no cover - kinds validated during merge
        raise ValidationError(f"unknown dataset kind {kind!r}")
    if kind in ("synthetic", "images"):  # one generated set, split at n_train
        n = cfg["n_train"]
        return full.take(slice(None, n)), full.take(slice(n, None))
    drawn = []
    for key, ds, seed in (("n_train", train, cfg["seed"]), ("n_test", test, cfg["seed"] + 1)):
        if cfg[key] is not None:
            if not 1 <= cfg[key] <= ds.n:
                raise ValidationError(f"dataset.{key} must be in [1, {ds.n}], got {cfg[key]}")
            ds = subsample(ds, cfg[key], seed, balanced=cfg["balanced"])
        drawn.append(ds)
    return tuple(drawn)


# --------------------------------------------------------------------------- axis defaults


def default_axis_values(family: str, n: int) -> tuple[list[int], list[int]]:
    if family == "rff_linear":
        axis1 = sorted(
            {v for v in (2, 8, 32, 64, 128, 192, 256, 384, 512, 768) if v < n}
            | {n - 1}
        )
        axis2 = [0, n, 3 * n]
    elif family == "tree":
        axis1 = sorted({v for v in (2, 5, 10, 20, 50, 100, 200) if v < n} | {n})
        axis2 = [1, 2, 5, 10]
    elif family == "boosting":
        axis1 = [1, 2, 3, 5, 8, 12, 20, 30]
        axis2 = [1, 2, 5, 10]
    else:
        raise ValidationError(f"unknown family {family!r}")
    return axis1, axis2


# ranges of the shared sweep settings, checked for every family
_SHARED_RANGES = {
    "rff_scale": ("> 0", lambda v: v > 0),
    "learning_rate": ("in (0, 1]", lambda v: 0 < v <= 1),
    "boost_leaf_budget": (">= 1", lambda v: v >= 1),
    "tree_subset": ("null or >= 1", lambda v: v is None or v >= 1),
}


def _sweep_inputs(cfg: dict):
    """train, test, axis-1 and axis-2 values, and the SweepConfig of a sweep command."""
    for key, (bound, ok) in _SHARED_RANGES.items():
        value = cfg["shared"][key]
        if not ok(value):
            raise ValidationError(
                f"config key {'shared.' + key!r} must be {bound}, got {value!r}"
            )
    train, test = load_datasets(cfg["dataset"])
    d1, d2 = default_axis_values(cfg["family"], train.n)
    axis1 = cfg["axis1_values"] if cfg["axis1_values"] is not None else d1
    axis2 = cfg["axis2_values"] if cfg["axis2_values"] is not None else d2
    return train, test, axis1, axis2, SweepConfig(**cfg["shared"])


def _composite_axis2(family: str, values: list[int]) -> list[int]:
    """Drop axis-2 values equal to the leg's starting state, so composite
    walks do not evaluate the switch point twice."""
    init = AXIS2_INIT[family]
    kept = [v for v in values if v != init]
    return kept or values


# --------------------------------------------------------------------------- model fitting (fit / effparams)


def _fit_model(cfg: dict, X: np.ndarray, y: np.ndarray):
    """Returns (smoother on raw inputs, info dict)."""
    kind = cfg["kind"]
    if kind in ("ols", "minnorm", "svd_basis", "pcr"):
        fmap = sample_frequencies(cfg["rff_seed"], cfg["p_phi"], X.shape[1],
                                  cfg["rff_scale"])
        Phi = transform(fmap, X, cfg["p_phi"])
        if kind == "pcr":
            fit = fit_pcr(Phi, y, cfg["p_pc"])
        else:
            fit = {"ols": fit_ols, "minnorm": fit_minnorm,
                   "svd_basis": fit_svd_basis}[kind](Phi, y)
        raw = cfg["p_phi"] if kind != "pcr" else cfg["p_pc"] + 1
        return RffModel(fmap, cfg["p_phi"], fit), {"raw_params": raw}
    if kind == "knn":
        return fit_knn(X, y, cfg["k"]), {"raw_params": None}
    if kind == "tree":
        model = fit_tree(X, y, cfg["max_leaves"], seed=cfg["seed"],
                         subset_size=cfg["subset_size"])
        return model, {"raw_params": model.n_leaves}
    if kind == "forest":
        model = fit_ensemble(X, y, cfg["max_leaves"], cfg["p_ens"],
                             base_seed=cfg["seed"], subset_size=cfg["subset_size"])
        return model, {"raw_params": sum(t.n_leaves for t in model.members)}
    if kind == "boost":
        model = fit_boost(X, y, n_rounds=cfg["n_rounds"],
                          learning_rate=cfg["learning_rate"],
                          leaf_budget=cfg["leaf_budget"], seed=cfg["seed"],
                          stop_tol=cfg["stop_tol"], subset_size=cfg["subset_size"])
        raw = sum(t.n_leaves for t in model.trees)
        return model, {"raw_params": raw, "rounds_used": model.n_rounds}
    if kind == "boost_ensemble":
        model = fit_boost_ensemble(X, y, cfg["n_rounds"], cfg["p_ens"],
                                   base_seed=cfg["seed"],
                                   learning_rate=cfg["learning_rate"],
                                   leaf_budget=cfg["leaf_budget"],
                                   subset_size=cfg["subset_size"])
        raw = sum(sum(t.n_leaves for t in m.trees) for m in model.members)
        return model, {"raw_params": raw}
    raise ValidationError(f"unknown model kind {kind!r}")


# --------------------------------------------------------------------------- svg helpers


def _sweep_chart(result, title: str) -> LineChart:
    idx = np.array([r.point_index for r in result.records], dtype=float)
    chart = LineChart(title, "schedule position", "summed squared loss", log_y=True)
    chart.add("test", idx, result.test_mse)
    chart.add("train", idx, np.maximum(result.train_mse, 1e-18))
    return chart


# --------------------------------------------------------------------------- subcommands


def _cmd_ingest(cfg, out, args) -> str:
    train, test = load_datasets(cfg["dataset"])
    summary = {
        "train": {"n": train.n, "d": train.d, "classes": train.n_classes,
                  "name": train.name},
        "test": {"n": test.n, "d": test.d, "classes": test.n_classes,
                 "name": test.name},
    }
    atomic_write_text(out / "dataset.json",
                      json.dumps(_jsonable(summary), indent=2) + "\n")
    return (
        f"ingest: train n={train.n} d={train.d} classes={train.n_classes} "
        f"test n={test.n} -> {out / 'dataset.json'}"
    )


def _cmd_fit(cfg, out, args) -> str:
    train, test = load_datasets(cfg["dataset"])
    c, n_classes = cfg["model"]["class_index"], train.task_classes
    y_tr = one_vs_all_targets(train, n_classes, column=c)
    y_te = one_vs_all_targets(test, n_classes, column=c)
    model, info = _fit_model(cfg["model"], train.features, y_tr)
    W_tr = model.weight_matrix(train.features)
    W_te = model.weight_matrix(test.features)
    n = train.n
    report = {
        "model": cfg["model"]["kind"],
        "train_mse": float(np.mean((W_tr @ y_tr - y_tr) ** 2)),
        "test_mse": float(np.mean((model.predict(test.features) - y_te) ** 2)),
        "p_train": p_eff(W_tr, n),
        "p_test": p_eff(W_te, n),
        **info,
    }
    report["effective_knn_test"] = float(n / report["p_test"])
    atomic_write_text(out / "fit_report.json",
                      json.dumps(_jsonable(report), indent=2) + "\n")
    return (
        f"fit: {report['model']} train_mse={report['train_mse']:.4g} "
        f"test_mse={report['test_mse']:.4g} p_train={report['p_train']:.4g} "
        f"p_test={report['p_test']:.4g} -> {out / 'fit_report.json'}"
    )


def _cmd_sweep(cfg, out, args) -> str:
    train, test, axis1, axis2, shared = _sweep_inputs(cfg)
    schedule = composite_schedule(cfg["family"], axis1,
                                  _composite_axis2(cfg["family"], axis2), shared=shared)
    result = run_sweep(schedule, train, test, threads=args.threads)
    path = out / "sweep.csv"
    result.write_csv(path)
    if args.svg:
        _sweep_chart(result, f"composite sweep ({cfg['family']})").write(
            out / "sweep.svg"
        )
    peak = int(np.argmax(result.test_mse))
    return (
        f"sweep: family={cfg['family']} points={len(result.records)} "
        f"peak_test_mse={result.test_mse[peak]:.4g}@{peak} "
        f"final_test_mse={result.test_mse[-1]:.4g} -> {path}"
    )


def _cmd_grid(cfg, out, args) -> str:
    train, test, axis1, axis2, shared = _sweep_inputs(cfg)
    result = run_grid(cfg["family"], axis1, axis2, train, test,
                      shared=shared, threads=args.threads)
    path = out / "grid.csv"
    result.write_csv(path)
    if args.svg:
        chart = LineChart(f"grid ({cfg['family']})", "axis-1 value",
                          "summed squared loss", log_y=True)
        for a2 in axis2:
            rows = [r for r in result.records if r.axis2_value == a2]
            chart.add(
                f"{rows[0].axis2_name}={a2}",
                np.array([r.axis1_value for r in rows], dtype=float),
                np.array([r.test_mse for r in rows]),
            )
        chart.write(out / "grid.svg")
    return (
        f"grid: family={cfg['family']} points={len(result.records)} -> {path}"
    )


def _cmd_peaks(cfg, out, args) -> str:
    train, test, axis1, axis2, shared = _sweep_inputs(cfg)
    switches = cfg["switches"]
    if switches is None:
        top = axis1[-1]
        switches = sorted({max(2, int(round(top * f))) for f in (0.8, 0.9, 1.0)})
    results = peak_move(cfg["family"], switches, train, test,
                        shared=shared, axis1_grid=axis1,
                        axis2_values=_composite_axis2(cfg["family"], axis2),
                        threads=args.threads)
    chart = LineChart(f"peak moving ({cfg['family']})", "schedule position",
                      "summed squared loss", log_y=True)
    lines = []
    for switch, result in zip(switches, results):
        path = out / f"peaks_switch{switch}.csv"
        result.write_csv(path)
        peak = int(np.argmax(result.test_mse))
        switch_at = result.schedule.switch_indices()
        lines.append(f"switch={switch} peak@{peak} (axis change @{switch_at})")
        idx = np.array([r.point_index for r in result.records], dtype=float)
        chart.add(f"switch={switch}", idx, result.test_mse)
    if args.svg:
        chart.write(out / "peaks.svg")
    return f"peaks: family={cfg['family']} " + "; ".join(lines) + f" -> {out}"


def _cmd_back_to_u(cfg, out, args) -> str:
    train, test, axis1, axis2, shared = _sweep_inputs(cfg)
    result = back_to_u(cfg["family"], train, test, axis1, axis2,
                       shared=shared, threads=args.threads)
    path = out / "back_to_u.csv"
    result.write_csv(path)
    if args.svg:
        chart = LineChart(f"back to U ({cfg['family']})",
                          "generalized params (test inputs)",
                          "summed squared loss", log_y=True, log_x=True)
        for name in result.branch_names():
            rows = result.branch(name)
            chart.add(name, np.array([r.p_test for r in rows]),
                      np.array([r.test_mse for r in rows]),
                      dashed=name.startswith("contour"))
        chart.write(out / "back_to_u.svg")
    n_contours = sum(1 for b in result.branch_names() if b.startswith("contour"))
    return (
        f"back-to-u: family={cfg['family']} branches={len(result.branch_names())} "
        f"contours={n_contours} -> {path}"
    )


def _cmd_effparams(cfg, out, args) -> str:
    train, test = load_datasets(cfg["dataset"])
    y = one_vs_all_targets(train, train.task_classes,
                           column=cfg["model"]["class_index"])
    model, _ = _fit_model(cfg["model"], train.features, y)
    kind = cfg["model"]["kind"]
    rows = [
        (kind, generalized_eff_params(model, train.features, set_name="train")),
        (kind, generalized_eff_params(model, test.features, set_name="test")),
    ]
    for k in cfg["knn_k"]:
        knn = fit_knn(train.features, y, k)
        rows.append((f"knn_k={k}", generalized_eff_params(knn, test.features,
                                                          set_name="test")))
    path = out / "effparams.csv"
    write_effparams_csv(path, rows)
    extra = {}
    if isinstance(model, RffModel):
        extra = train_eff_params_classical(model.fit.hat_matrix())
        atomic_write_text(out / "classical.json",
                          json.dumps(_jsonable(extra), indent=2) + "\n")
    head = rows[1][1]
    line = (
        f"effparams: {cfg['model']['kind']} p_test={head.p_generalized:.4g} "
        f"effective_knn={head.effective_knn:.4g}"
    )
    if extra:
        line += f" p_cov={extra['p_cov']:.4g}"
    return line + f" -> {path}"


def _cmd_cond_study(cfg, out, args) -> str:
    train, _ = load_datasets(cfg["dataset"])
    n = train.n
    p_values = cfg["p_phi_values"]
    if p_values is None:
        p_values = sorted({max(2, n // 8), n // 2, n - 1, n, 2 * n})
    k_values = cfg["k_values"]
    if k_values is None:
        k_values = [1, max(1, n // 2), n - 1, n]
    fmap = sample_frequencies(cfg["rff_seed"], max(p_values), train.d,
                              cfg["rff_scale"])
    rows = cond_study(fmap, train, p_values, k_values)
    path = out / "conditioning.csv"
    write_rows(path, ConditionRow, rows)
    worst = max((r for r in rows if np.isfinite(r.cond_k)),
                key=lambda r: r.cond_k, default=None)
    tag = f"max_finite_cond={worst.cond_k:.4g}@p_phi={worst.p_phi},k={worst.k}" \
        if worst else "all_infinite"
    return f"cond-study: rows={len(rows)} {tag} -> {path}"


def _cmd_fixed_design(cfg, out, args) -> str:
    spec = SyntheticSpec(cfg["generator"], cfg["n"], cfg["d"], cfg["noise_std"],
                         cfg["seed"])
    ds = synth_generate(spec)
    X, y = ds.features, ds.targets
    rng = np.random.default_rng(cfg["resample_seed"])
    y_new = ds.true_values + rng.normal(0.0, cfg["noise_std"], size=ds.n)
    # interpolators of very different raw size: min-norm at n, 2n and 8n
    # features, a fully grown tree, and 1-nearest-neighbour
    widths = [ds.n, 2 * ds.n, 8 * ds.n]
    fmap = sample_frequencies(cfg["seed"], widths[-1], ds.d, cfg["rff_scale"])
    Phi = transform(fmap, X, widths[-1])
    models: dict[str, object] = {
        f"minnorm_p{w}": fit_minnorm(Phi[:, :w], y) for w in widths
    }
    models["full_tree"] = fit_tree(X, y, max_leaves=ds.n, seed=1, subset_size=ds.d)
    models["knn_k1"] = fit_knn(X, y, 1)
    report = fixed_design_check(models, y, y_new, interp_tol=cfg["interp_tol"],
                                loss_tol=cfg["loss_tol"])
    atomic_write_text(out / "fixed_design.json",
                      json.dumps(_jsonable(report), indent=2) + "\n")
    return (
        f"fixed-design: models={len(models)} reference={report.reference_loss:.6g} "
        f"max_dev={report.max_loss_deviation:.3g} -> {out / 'fixed_design.json'}"
    )


def _cmd_bias_variance(cfg, out, args) -> str:
    report = bias_variance(SyntheticSpec(**cfg["spec"]),
                           AnalyticModelConfig(**cfg["model"]),
                           n_resamples=cfg["n_resamples"],
                           n_test_points=cfg["n_test_points"])
    # one column per per-point array of the report
    names = [f.name for f in dataclasses.fields(report)
             if np.ndim(getattr(report, f.name)) == 1]
    columns = [getattr(report, name) for name in names]
    path = out / "bias_variance.csv"
    write_csv(path, ["point", *names],
              [[j, *row] for j, row in enumerate(zip(*columns))])
    return (
        f"bias-variance: {cfg['model']['kind']} max_z_bias={report.max_z_bias:.2f} "
        f"max_z_var={report.max_z_variance:.2f} max_z_mse={report.max_z_mse:.2f} "
        f"-> {path}"
    )


def _cmd_select(cfg, out, args) -> str:
    train, test = load_datasets(cfg["dataset"])
    result = model_selection_study(
        train, test, cfg["leaf_grid"], cfg["lr_grid"],
        interp_tol=cfg["interp_tol"], max_rounds=cfg["max_rounds"],
        seed=cfg["seed"],
    )
    path = out / "selection.csv"
    write_rows(path, SelectionRow, result.rows)
    sel = result.selected
    picked = (
        f"selected leaf_budget={sel.leaf_budget} lr={sel.learning_rate} "
        f"test_mse={sel.test_mse:.4g}" if sel else "selected none"
    )
    rho = "n/a" if result.spearman is None else f"{result.spearman:.3f}"
    return f"select: configs={len(result.rows)} {picked} spearman={rho} -> {path}"


_COMMANDS = {
    "ingest": _cmd_ingest,
    "fit": _cmd_fit,
    "sweep": _cmd_sweep,
    "grid": _cmd_grid,
    "peaks": _cmd_peaks,
    "back-to-u": _cmd_back_to_u,
    "effparams": _cmd_effparams,
    "cond-study": _cmd_cond_study,
    "fixed-design": _cmd_fixed_design,
    "bias-variance": _cmd_bias_variance,
    "select": _cmd_select,
}


# --------------------------------------------------------------------------- entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we use 1
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="smootherlab",
        description="Smoother-weight experiments: sweeps, effective parameter "
        "counts, and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file merged over the defaults")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (repeatable, dotted paths)")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default runs/<command>)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed override routed to the command's seed knob")
        p.add_argument("--threads", type=int, default=None,
                       help="sweep worker processes (default: one per core)")
        p.add_argument("--full-scale", action="store_true",
                       help="use the large preset dataset instead of desk scale")
        p.add_argument("--svg", action="store_true",
                       help="also render charts next to the CSV output")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        file_cfg = {}
        if args.config is not None:
            try:
                file_cfg = json.loads(Path(args.config).read_text())
            except OSError as exc:
                raise ValidationError(f"cannot read config: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ValidationError(f"config is not valid JSON: {exc}") from exc
            if not isinstance(file_cfg, dict):
                raise ValidationError("config file must hold a JSON object")
        cfg = build_config(args.command, file_cfg, args.set,
                           full_scale=args.full_scale)
        if args.seed is not None:
            node = cfg
            *head, last = _SEED_PATHS[args.command]
            for part in head:
                node = node[part]
            if last not in node:
                last = "rff_seed"  # linear models seed only their feature map
            if last not in node:
                raise ValidationError(f"--seed does not apply to {head[0]}.kind="
                                      f"{node['kind']!r}, which has no seed")
            node[last] = args.seed
        out_dir = args.out if args.out is not None else Path("runs") / args.command
        out_dir.mkdir(parents=True, exist_ok=True)
        _echo_config(out_dir, args.command, cfg)
        with one_blas_thread():  # outputs must not depend on the BLAS threads
            line = _COMMANDS[args.command](cfg, out_dir, args)
        print(line)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SingularDesignError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
