"""Acceptance gate: one test and one printed verdict line per shipped guarantee.

Each test prints ``ACCEPTANCE C<k>: PASS/FAIL <measurements>`` through
``capsys.disabled()`` so the verdicts land in the terminal even on quiet runs,
then asserts. The heavier criteria (C6-C9, C12) run at desk scale on the
synthetic image surrogate and stay well inside their stated runtime budgets.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import _split, _write_idx_pair
from smootherlab.boosting import fit_boost, fit_boost_ensemble
from smootherlab.dataset import (
    SyntheticSpec,
    load_idx,
    one_vs_all_targets,
    synth_generate,
    synth_images,
)
from smootherlab.effparams import (
    generalized_eff_params,
    hessian_proxy_eff_params,
    train_eff_params_classical,
)
from smootherlab.experiments.schedule import SweepConfig, composite_schedule
from smootherlab.experiments.studies import (
    AnalyticModelConfig,
    bias_variance,
    fixed_design_check,
)
from smootherlab.experiments.sweep import (
    back_to_u,
    increase_violations,
    median_curve,
    peak_move,
    replicated_sweep,
    run_grid,
    run_sweep,
    seed_standard_error,
)
from smootherlab.knn import fit_knn
from smootherlab.linear import fit_minnorm, fit_ols, fit_pcr, fit_svd_basis
from smootherlab.rff import sample_frequencies, transform
from smootherlab.trees import fit_ensemble, fit_tree

SEEDS = (0, 1, 2)


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE C{num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion C{num}: {detail}"


# ---------------------------------------------------------------------------
# shared datasets
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def images_1k(tmp_path_factory):
    """1000/2000 28x28 10-class images, round-tripped through IDX files."""
    full = synth_images(3000, side=28, n_classes=10, noise_std=0.25, seed=0,
                        label_noise=0.15)
    train_raw, test_raw = _split(full, 1000)
    d = tmp_path_factory.mktemp("idx")
    ip, lp = _write_idx_pair(d, replace(train_raw, name="train"), 28)
    tip, tlp = _write_idx_pair(d, replace(test_raw, name="test"), 28)
    return load_idx(ip, lp, name="train"), load_idx(tip, tlp, name="test")


@pytest.fixture(scope="module")
def images_240():
    full = synth_images(540, side=12, n_classes=3, noise_std=0.25, seed=3,
                        label_noise=0.15)
    return _split(full, 240)


@pytest.fixture(scope="module")
def images_400():
    full = synth_images(900, side=16, n_classes=5, noise_std=0.25, seed=5,
                        label_noise=0.15)
    return _split(full, 400)


# ---------------------------------------------------------------------------
# closed-form guarantees
# ---------------------------------------------------------------------------


def test_c01_minnorm_matches_svd_basis_predictions(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 51))
        p = int(rng.integers(n, 4 * n + 1))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        X0 = rng.normal(size=(30, p))
        a = fit_minnorm(X, y).predict(X0)
        b = fit_svd_basis(X, y).predict(X0)
        worst = max(worst, float(np.max(np.abs(a - b)) / np.max(np.abs(a))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _verdict(capsys, 1, ok,
             f"max rel discrepancy {worst:.2e} (tol 1e-6), {elapsed:.2f}s (< 5s)")


def test_c02_pcr_all_components_matches_minnorm(capsys):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(10, 31))
        p = int(rng.integers(n, 3 * n + 1))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        a = fit_pcr(Xs, y, min(n - 1, p)).predict(Xs)
        # centering costs one rank, so the matching min-norm system carries
        # the same intercept column the principal-component design appends
        A = np.hstack([Xs, np.ones((n, 1))])
        b = fit_minnorm(A, y).predict(A)
        worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst <= 1e-5
    _verdict(capsys, 2, ok, f"max train-prediction gap {worst:.2e} (tol 1e-5)")


def test_c03_ols_trace_identities(capsys):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 10))
    y = rng.normal(size=50)
    worst = 0.0
    for p in range(1, 11):
        t = train_eff_params_classical(fit_ols(X[:, :p], y).hat_matrix())
        worst = max(worst, abs(t["p_cov"] - p), abs(t["p_var"] - p),
                    abs(t["p_err"] - p))
    ok = worst <= 1e-8
    _verdict(capsys, 3, ok,
             f"max |trace - p| {worst:.2e} over p=1..10 (tol 1e-8)")


def test_c04_weight_prediction_duality_all_families(capsys):
    full = synth_images(180, side=6, n_classes=3, noise_std=0.25, seed=7,
                        label_noise=0.15)
    train, test = _split(full, 80)
    y = (train.class_labels == 0).astype(float)
    X, Q = train.features, test.features[:100]
    fmap = sample_frequencies(0, 160, train.d)
    Phi, PhiQ = transform(fmap, X, 160), transform(fmap, Q, 160)
    models = {
        "ols": (fit_ols(Phi[:, :30], y), PhiQ[:, :30]),
        "minnorm": (fit_minnorm(Phi, y), PhiQ),
        "pcr": (fit_pcr(Phi[:, :120], y, 20), PhiQ[:, :120]),
        "tree": (fit_tree(X, y, 12, seed=1), Q),
        "forest": (fit_ensemble(X, y, 8, 5, base_seed=1), Q),
        "boost": (fit_boost(X, y, n_rounds=25, learning_rate=0.85,
                            leaf_budget=8, seed=1), Q),
        "boost_ensemble": (fit_boost_ensemble(X, y, 10, 3, base_seed=1,
                                              learning_rate=0.85,
                                              leaf_budget=8), Q),
    }
    worst = 0.0
    for model, inputs in models.values():
        pred = model.predict(inputs)
        gap = np.max(np.abs(model.weight_matrix(inputs) @ y - pred))
        worst = max(worst, float(gap / max(np.max(np.abs(pred)), 1e-12)))
    ok = worst <= 1e-8
    _verdict(capsys, 4, ok,
             f"max rel weights*y vs predict gap {worst:.2e} over "
             f"{len(models)} families (tol 1e-8)")


def test_c05_knn_effective_params_exact(capsys):
    rng = np.random.default_rng(5)
    n = 40
    X = rng.uniform(size=(n, 3))
    y = rng.normal(size=n)
    X0 = rng.uniform(size=(25, 3))
    worst = 0.0
    for k in (1, 2, 5, n):
        rep = generalized_eff_params(fit_knn(X, y, k), X0, set_name="probe")
        worst = max(worst, abs(rep.p_generalized - n / k) / (n / k))
    ok = worst <= 1e-12
    _verdict(capsys, 5, ok, f"max rel |p0 - n/k| {worst:.2e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# desk-scale sweep behavior
# ---------------------------------------------------------------------------


def test_c06_interpolation_plateau(images_1k, capsys):
    t0 = time.perf_counter()
    train, test = images_1k
    y = one_vs_all_targets(train, train.task_classes, column=0)
    n = train.n
    fmap = sample_frequencies(0, 4 * n, train.d)
    Phi = transform(fmap, train.features, 4 * n)
    Phi_te = transform(fmap, test.features, 4 * n)
    p_trains, p_tests = [], []
    for w in (n, 2 * n, 4 * n):
        fit = fit_minnorm(Phi[:, :w], y)
        H = fit.hat_matrix()
        Wt = fit.weight_matrix(Phi_te[:, :w])
        p_trains.append(n * np.mean(np.sum(H * H, axis=1)))
        p_tests.append(n * np.mean(np.sum(Wt * Wt, axis=1)))
    elapsed = time.perf_counter() - t0
    plateau_dev = float(np.max(np.abs(np.array(p_trains) - n)))
    spread = float(np.min(np.abs(np.diff(sorted(p_tests)))))
    ok = plateau_dev <= 1e-4 * n and spread > 1e-3 and elapsed < 120.0
    _verdict(capsys, 6, ok,
             f"max |p_train - n| {plateau_dev:.2e} (tol {1e-4 * n:.2g}), "
             f"p_test spread {p_tests[0]:.3g}/{p_tests[1]:.3g}/{p_tests[2]:.3g}, "
             f"{elapsed:.1f}s (< 120s)")


def test_c07_double_descent_shape(images_1k, capsys):
    t0 = time.perf_counter()
    train, test = images_1k
    n = train.n
    schedule = composite_schedule(
        "rff_linear",
        [2, 8, 32, 64, 128, 256, 400, 600, 800, n - 1],
        [n // 2 + 1, n + 1, 2 * n + 1, 3 * n + 1],  # raw widths 1.5n .. 4n
        shared=SweepConfig(),
    )
    runs = replicated_sweep(schedule, train, test, seeds=SEEDS)
    elapsed = time.perf_counter() - t0
    med = median_curve([r.test_mse for r in runs])
    raw = np.array([r.raw_params for r in runs[0].records])
    peak = int(np.argmin(np.abs(raw - n)))
    local_max = med[peak] > med[peak - 1] and med[peak] > med[peak + 1]
    ratio = float(med[peak] / med[raw < n // 2].min())
    final_drop = float(med[-1] / med[peak])
    ok = (local_max and ratio >= 1.3 and final_drop <= 0.8
          and raw[-1] == 4 * n and elapsed < 600.0)
    _verdict(capsys, 7, ok,
             f"peak at raw={raw[peak]} (local max: {local_max}), "
             f"peak/min ratio {ratio:.3g} (>= 1.3), final/peak {final_drop:.3g} "
             f"(<= 0.8), {elapsed:.1f}s (< 600s)")


def test_c08_second_axis_never_hurts(images_240, capsys):
    train, test = images_240
    n = train.n
    cases = {
        "tree": ([n], [1, 2, 5, 10, 20]),
        "boosting": ([30], [1, 2, 5, 10]),
        "rff_linear": ([n - 1], [0, n, 2 * n, 4 * n]),
    }
    report = []
    ok = True
    for family, (ax1, ax2) in cases.items():
        curves = [
            run_grid(family, ax1, ax2, train, test,
                     shared=SweepConfig(base_seed=s)).test_mse
            for s in SEEDS
        ]
        viol = increase_violations(median_curve(curves),
                                   seed_standard_error(curves))
        ok = ok and not viol
        report.append(f"{family}={viol or 'none'}")
    _verdict(capsys, 8, ok, "axis-2 increase violations: " + ", ".join(report))


def test_c09_peak_follows_the_switch_point(images_400, capsys):
    train, test = images_400
    n = train.n
    grid = [2, 8, 24, 48, 96, 160, 240, 320, 360, n - 1]
    switches = [320, 360, n - 1]
    per_seed = [
        peak_move("rff_linear", switches, train, test,
                  shared=SweepConfig(base_seed=s), axis1_grid=grid,
                  axis2_values=[n + 1, 2 * n + 1, 3 * n + 1])
        for s in SEEDS
    ]
    report = []
    ok = True
    for j, switch in enumerate(switches):
        med = median_curve([per_seed[s][j].test_mse for s in range(len(SEEDS))])
        switch_idx = len([v for v in grid if v < switch])  # index of the switch
        gap = abs(int(np.argmax(med)) - switch_idx)
        ok = ok and gap <= 1
        report.append(f"switch={switch}: argmax off by {gap}")
    _verdict(capsys, 9, ok, "; ".join(report) + " (tol 1 step)")


# ---------------------------------------------------------------------------
# decomposition diagnostics
# ---------------------------------------------------------------------------


def test_c10_fixed_design_losses_identical(capsys):
    ds = synth_generate(SyntheticSpec("sine", 60, 3, 0.3, 0))
    rng = np.random.default_rng(123)
    y_new = ds.true_values + rng.normal(0.0, 0.3, size=ds.n)
    # low-d inputs need wide frequencies for a full-rank cosine design
    fmap = sample_frequencies(0, 8 * ds.n, ds.d, 3.0)
    Phi = transform(fmap, ds.features, 8 * ds.n)
    fits = {
        f"minnorm_p{w}": fit_minnorm(Phi[:, :w], ds.targets)
        for w in (ds.n, 2 * ds.n, 8 * ds.n)
    }
    report = fixed_design_check(fits, ds.targets, y_new)
    ok = report.max_loss_deviation <= 1e-8
    _verdict(capsys, 10, ok,
             f"max fixed-design loss deviation {report.max_loss_deviation:.2e} "
             f"across widths n/2n/8n (tol 1e-8)")


def test_c11_bias_variance_decomposition_within_se(capsys):
    spec = SyntheticSpec("sine", 20, 1, 0.5, 1)
    model = AnalyticModelConfig(kind="ols", n_features=2)
    rep = bias_variance(spec, model, n_resamples=2000, n_test_points=25)
    worst = max(rep.max_z_bias, rep.max_z_variance, rep.max_z_mse)
    ok = worst <= 3.0
    _verdict(capsys, 11, ok,
             f"max |analytic - monte-carlo| z-score {worst:.2f} "
             f"(bias {rep.max_z_bias:.2f}, var {rep.max_z_variance:.2f}, "
             f"mse {rep.max_z_mse:.2f}; tol 3 SE)")


def test_c12_fold_back_to_u(images_240, capsys):
    train, test = images_240
    n = train.n
    cases = {
        "rff_linear": ([2, 8, 24, 48, 96, 160, n - 1], [0, n, 2 * n, 4 * n]),
        "tree": ([2, 5, 10, 20, 60, n], [1, 2, 5, 10, 20]),
        "boosting": ([1, 2, 5, 10, 20, 30], [1, 2, 5, 10]),
    }
    report = []
    ok = True
    for family, (ax1, ax2) in cases.items():
        p_curves = []
        for s in SEEDS:
            res = back_to_u(family, train, test, ax1, ax2,
                            shared=SweepConfig(base_seed=s))
            p_curves.append([r.p_test for r in res.branch("axis2")])
        med_p = median_curve(p_curves)
        viol = increase_violations(med_p, seed_standard_error(p_curves))
        folded = bool(np.all(med_p <= med_p[0] * 1.02))
        ok = ok and not viol and folded
        report.append(
            f"{family}: p_test {med_p[0]:.3g}->{med_p[-1]:.3g}, "
            f"violations {viol or 'none'}, folded {folded}"
        )
    _verdict(capsys, 12, ok, "; ".join(report))


def test_c13_hessian_proxy_saturates_at_n(capsys):
    rng = np.random.default_rng(13)
    n = 100
    worst = 0.0
    for p in (n // 2, n, 2 * n, 4 * n):
        Phi = rng.normal(size=(n, p))
        worst = max(worst, abs(hessian_proxy_eff_params(Phi, 0.0) - min(n, p)))
    ok = worst <= 1e-6
    _verdict(capsys, 13, ok,
             f"max |proxy - min(n,p)| {worst:.2e} over p=n/2..4n (tol 1e-6)")


def test_c14_reruns_byte_identical(images_240, tmp_path, capsys):
    train, test = images_240
    n = train.n
    schedule = composite_schedule("rff_linear", [2, 24, 96, n - 1], [n, 2 * n],
                                  shared=SweepConfig())
    pairs = []
    for tag in ("a", "b"):
        sweep_path = tmp_path / f"sweep_{tag}.csv"
        grid_path = tmp_path / f"grid_{tag}.csv"
        run_sweep(schedule, train, test).write_csv(sweep_path)
        run_grid("tree", [n], [1, 5], train, test,
                 shared=SweepConfig()).write_csv(grid_path)
        pairs.append((sweep_path.read_bytes(), grid_path.read_bytes()))
    same_sweep = pairs[0][0] == pairs[1][0]
    same_grid = pairs[0][1] == pairs[1][1]
    ok = same_sweep and same_grid
    _verdict(capsys, 14, ok,
             f"byte-identical reruns: composite sweep {same_sweep}, "
             f"tree grid {same_grid}")
