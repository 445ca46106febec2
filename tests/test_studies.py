"""Diagnostics: conditioning tables, fixed-design checks, bias/variance, selection."""

from __future__ import annotations

import numpy as np
import pytest

from smootherlab.dataset import Dataset, SyntheticSpec, synth_generate
from smootherlab.errors import PreconditionError, ValidationError
from smootherlab.experiments.studies import (
    AnalyticModelConfig,
    bias_variance,
    cond_study,
    fixed_design_check,
    model_selection_study,
)
from smootherlab.boosting import fit_boost
from smootherlab.knn import fit_knn
from smootherlab.linear import fit_minnorm
from smootherlab.rff import sample_frequencies, transform
from smootherlab.trees import fit_tree


# ---------------------------------------------------------------------------
# Conditioning of the standardized design
# ---------------------------------------------------------------------------


def _uniform_dataset(n, d, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(features=rng.uniform(size=(n, d)), targets=rng.normal(size=n))


def test_cond_study_matches_direct_svd():
    ds = _uniform_dataset(12, 3)
    fmap = sample_frequencies(4, 20, 3)
    rows = cond_study(fmap, ds, p_phi_values=[8], k_values=[1, 3, 8])
    Phi = transform(fmap, ds.features, 8)
    Xs = (Phi - Phi.mean(axis=0)) / Phi.std(axis=0)
    s = np.linalg.svd(Xs, compute_uv=False)
    for row, k in zip(rows, (1, 3, 8)):
        assert row.p_phi == 8 and row.k == k
        assert row.sigma_k == pytest.approx(s[k - 1], rel=1e-12)
        assert row.cond_k == pytest.approx(s[0] / s[k - 1], rel=1e-12)


def test_cond_study_first_index_is_unit():
    ds = _uniform_dataset(10, 2)
    fmap = sample_frequencies(0, 12, 2)
    rows = cond_study(fmap, ds, [6, 12], [1])
    assert all(r.cond_k == 1.0 for r in rows)


def test_cond_study_past_rank_is_infinite():
    ds = _uniform_dataset(6, 2)
    fmap = sample_frequencies(1, 10, 2)
    (row,) = cond_study(fmap, ds, [10], [9])  # only 6 singular values exist
    assert row.sigma_k == 0.0
    assert row.cond_k == np.inf


def test_cond_study_rounding_noise_past_the_centered_rank_is_infinite():
    # centering n rows leaves rank n - 1 however wide the design is, so the
    # n-th singular value is rounding noise and must not read as finite
    ds = _uniform_dataset(12, 3)
    fmap = sample_frequencies(2, 48, 3, scale=2.0)
    rows = cond_study(fmap, ds, [24, 48], [11, 12])
    for row in rows:
        if row.k == 11:
            assert row.sigma_k > 0.0 and np.isfinite(row.cond_k)
        else:
            assert row.sigma_k == 0.0 and row.cond_k == np.inf
    # at the default scale the columns are nearly constant, standardizing
    # amplifies the centering error, and sigma_12 lands above svd_cutoff
    (row,) = cond_study(sample_frequencies(2, 48, 3), _uniform_dataset(12, 3), [24], [12])
    assert row.sigma_k == 0.0 and row.cond_k == np.inf


def test_cond_study_widening_design_improves_conditioning():
    ds = _uniform_dataset(30, 4, seed=2)
    fmap = sample_frequencies(3, 240, 4)
    rows = cond_study(fmap, ds, [30, 240], [29])
    near_square, wide = rows
    assert near_square.cond_k > wide.cond_k


def test_cond_study_rejects_bad_index():
    ds = _uniform_dataset(5, 2)
    fmap = sample_frequencies(0, 4, 2)
    with pytest.raises(ValidationError):
        cond_study(fmap, ds, [4], [0])


# ---------------------------------------------------------------------------
# Fixed-design equivalence of interpolators
# ---------------------------------------------------------------------------


def _interpolating_setup(seed=0):
    spec = SyntheticSpec("sine", n=25, d=2, noise_std=0.3, seed=seed)
    ds = synth_generate(spec)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9,)))
    y_new = ds.true_values + rng.normal(scale=0.3, size=ds.n)
    return ds, y_new


def test_fixed_design_interpolators_agree():
    ds, y_new = _interpolating_setup()
    # low-d inputs need wide frequencies for a full-rank cosine design
    fmap = sample_frequencies(5, 60, 2, scale=4.0)
    Phi = transform(fmap, ds.features, 60)
    models = {
        "minnorm": fit_minnorm(Phi, ds.targets),
        "knn1": fit_knn(ds.features, ds.targets, 1),
        "tree_full": fit_tree(ds.features, ds.targets, max_leaves=25, seed=0,
                              subset_size=2),
    }
    report = fixed_design_check(models, ds.targets, y_new)
    assert report.reference_loss == pytest.approx(np.mean((ds.targets - y_new) ** 2))
    assert set(report.model_losses) == {"minnorm", "knn1", "tree_full"}
    assert report.max_loss_deviation <= 1e-8
    # interpolating linear smoothers have identity hat rows
    assert report.hat_identity_deviation["minnorm"] <= 1e-6
    assert "knn1" not in report.hat_identity_deviation


def test_fixed_design_identical_targets_give_zero_loss():
    ds, _ = _interpolating_setup(seed=1)
    models = {"knn1": fit_knn(ds.features, ds.targets, 1)}
    report = fixed_design_check(models, ds.targets, ds.targets.copy())
    assert report.reference_loss == 0.0
    assert report.model_losses["knn1"] <= 1e-20


def test_fixed_design_names_non_interpolator():
    ds, y_new = _interpolating_setup(seed=2)
    models = {"knn5": fit_knn(ds.features, ds.targets, 5)}
    with pytest.raises(PreconditionError) as err:
        fixed_design_check(models, ds.targets, y_new)
    assert "knn5" in str(err.value)


def test_fixed_design_flags_sloppy_interpolator():
    ds, y_new = _interpolating_setup(seed=3)
    # boosting stopped at 1e-4 is within the interpolation tolerance but its
    # residual leaks into the fixed-design loss well beyond 1e-8
    model = fit_boost(ds.features, ds.targets, n_rounds=500, learning_rate=0.85,
                      leaf_budget=10, seed=0, stop_tol=1e-4)
    with pytest.raises(PreconditionError) as err:
        fixed_design_check({"boost": model}, ds.targets, y_new)
    assert "deviates" in str(err.value)


def test_fixed_design_shape_mismatch():
    with pytest.raises(ValidationError):
        fixed_design_check({}, np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# Analytic bias/variance against Monte Carlo
# ---------------------------------------------------------------------------


def test_mean_smoother_closed_form():
    spec = SyntheticSpec("sine", n=30, d=1, noise_std=0.4, seed=5)
    report = bias_variance(spec, AnalyticModelConfig("mean"), n_resamples=300)
    assert np.allclose(report.analytic_variance, 0.4**2 / 30.0, atol=1e-15)
    base = synth_generate(spec)
    expected_bias = np.sin(2 * np.pi * report.test_points[:, 0]) - base.true_values.mean()
    assert np.allclose(report.analytic_bias, expected_bias, atol=1e-12)
    assert np.allclose(
        report.analytic_mse,
        0.4**2 + report.analytic_bias**2 + report.analytic_variance,
        atol=1e-14,
    )


def test_intercept_only_regression_equals_mean_smoother():
    spec = SyntheticSpec("linear", n=20, d=2, noise_std=0.5, seed=6)
    a = bias_variance(spec, AnalyticModelConfig("mean"), n_resamples=50)
    b = bias_variance(spec, AnalyticModelConfig("ols", n_features=1), n_resamples=50)
    assert np.allclose(a.analytic_bias, b.analytic_bias, atol=1e-10)
    assert np.allclose(a.analytic_variance, b.analytic_variance, atol=1e-10)


def test_monte_carlo_agrees_within_sampling_error():
    spec = SyntheticSpec("sine", n=20, d=2, noise_std=0.5, seed=3)
    report = bias_variance(spec, AnalyticModelConfig("ols", n_features=2),
                           n_resamples=400)
    assert report.max_z_bias <= 5.0
    assert report.max_z_variance <= 5.0
    assert report.max_z_mse <= 5.0


def test_bias_variance_deterministic():
    spec = SyntheticSpec("sine", n=15, d=1, noise_std=0.3, seed=7)
    cfg = AnalyticModelConfig("knn", k=3)
    a = bias_variance(spec, cfg, n_resamples=60)
    b = bias_variance(spec, cfg, n_resamples=60)
    assert np.array_equal(a.mc_mse, b.mc_mse)
    assert a.max_z_variance == b.max_z_variance


def test_bias_variance_validation():
    spec = SyntheticSpec("sine", n=10, d=1, noise_std=0.1, seed=0)
    with pytest.raises(ValidationError):
        bias_variance(spec, AnalyticModelConfig("mean"), n_resamples=1)
    with pytest.raises(ValidationError) as err:
        bias_variance(spec, AnalyticModelConfig("boost"))
    assert "adaptive" in str(err.value)
    with pytest.raises(ValidationError):
        bias_variance(spec, AnalyticModelConfig("minnorm", rff_p=5))
    with pytest.raises(ValidationError):
        bias_variance(spec, AnalyticModelConfig("ols", n_features=10))


def test_interpolating_smoother_has_zero_bias_at_train_inputs():
    # k=1 weights at the training inputs are indicators, so the analytic bias
    # computed there must vanish while the variance equals sigma^2
    spec = SyntheticSpec("sine", n=12, d=1, noise_std=0.2, seed=8)
    ds = synth_generate(spec)
    from smootherlab.experiments.studies import _analytic_weights

    W = _analytic_weights(AnalyticModelConfig("knn", k=1), ds.features, ds.features)
    assert np.allclose(W, np.eye(12), atol=1e-12)


# ---------------------------------------------------------------------------
# Interpolation-driven model selection
# ---------------------------------------------------------------------------


def _selection_data(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(40, 1))
    y = np.sin(2 * np.pi * X[:, 0]) + 0.3 * rng.normal(size=40)
    X_test = rng.uniform(size=(80, 1))
    y_test = np.sin(2 * np.pi * X_test[:, 0]) + 0.3 * rng.normal(size=80)
    train = Dataset(features=X, targets=y)
    test = Dataset(features=X_test, targets=y_test)
    return train, test


def test_selection_prefers_smallest_test_side_count():
    train, test = _selection_data()
    result = model_selection_study(
        train, test, leaf_grid=[4, "max"], lr_grid=[0.85], max_rounds=300,
        subset_size=1,
    )
    assert len(result.rows) == 2
    assert all(r.interpolating for r in result.rows)
    good = [r for r in result.rows if r.interpolating]
    assert result.selected is result.rows[np.argmin([r.p_test for r in good])]
    budgets = {r.leaf_budget for r in result.rows}
    assert budgets == {4, 40}  # "max" resolves to n
    if result.spearman is not None:
        assert -1.0 <= result.spearman <= 1.0


def test_selection_with_no_interpolating_config():
    train, test = _selection_data(seed=1)
    result = model_selection_study(
        train, test, leaf_grid=[2], lr_grid=[0.02], max_rounds=1, subset_size=1
    )
    assert result.selected is None
    assert result.spearman is None
    assert not result.rows[0].interpolating
    assert result.rows[0].rounds_used == 1


def test_selection_uses_binary_targets_for_labeled_data(toy_images):
    train, test = toy_images
    result = model_selection_study(
        train, test, leaf_grid=["max"], lr_grid=[0.85], max_rounds=80
    )
    (row,) = result.rows
    assert row.interpolating
    # squared error against the {0,1} indicator of class zero stays in [0, ~1]
    assert 0.0 <= row.test_mse <= 1.0
    assert row.rounds_used < 80


def test_selection_early_stop_bounds_rounds():
    train, test = _selection_data(seed=2)
    result = model_selection_study(
        train, test, leaf_grid=["max"], lr_grid=[1.0], max_rounds=50, subset_size=1
    )
    (row,) = result.rows
    assert row.rounds_used == 1  # full budget at unit rate interpolates at once
    assert row.train_mse <= 1e-20
