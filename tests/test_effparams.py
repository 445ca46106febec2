"""Effective parameter counts: generalized, classical trace, and curvature proxy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smootherlab.dataset import (
    SyntheticSpec,
    one_vs_all_targets,
    synth_generate,
    synth_images,
)
from smootherlab.effparams import (
    generalized_eff_params,
    hessian_proxy_eff_params,
    train_eff_params_classical,
    write_effparams_csv,
)
from smootherlab.errors import ValidationError
from smootherlab.knn import fit_knn
from smootherlab.linear import fit_minnorm, fit_ols
from smootherlab.rff import sample_frequencies, transform
from smootherlab.trees import fit_tree


def _knn_data(n, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(n, d)), rng.normal(size=n)


# ---------------------------------------------------------------------------
# Generalized count, Definition-style n/m * sum ||s(x0)||^2
# ---------------------------------------------------------------------------


def test_knn_calibration_n_over_k():
    X, y = _knn_data(64)
    X0 = np.random.default_rng(1).uniform(size=(50, 3))
    for k in (1, 2, 5, 64):
        model = fit_knn(X, y, k)
        report = generalized_eff_params(model, X0, set_name="fresh")
        expected = 64.0 / k
        assert abs(report.p_generalized - expected) <= 1e-12 * expected
        assert abs(report.effective_knn - k) <= 1e-12 * k
        assert report.n_train == 64 and report.n_inputs == 50
        assert report.set_name == "fresh"


def test_sample_mean_smoother_counts_one_parameter():
    X, y = _knn_data(40)
    model = fit_knn(X, y, 40)  # k = n averages everything
    report = generalized_eff_params(model, X[:10])
    assert report.p_generalized == pytest.approx(1.0, abs=1e-12)
    tree = fit_tree(X, y, max_leaves=1, seed=0)
    report_tree = generalized_eff_params(tree, X[:10])
    assert report_tree.p_generalized == pytest.approx(1.0, abs=1e-12)


def test_ols_training_count_equals_dimension():
    rng = np.random.default_rng(2)
    Phi = rng.normal(size=(50, 6))
    fit = fit_ols(Phi, rng.normal(size=50))
    report = generalized_eff_params(fit, Phi)
    assert report.p_generalized == pytest.approx(6.0, abs=1e-8)


def test_interpolator_training_count_equals_n():
    rng = np.random.default_rng(3)
    Phi = rng.normal(size=(20, 45))
    fit = fit_minnorm(Phi, rng.normal(size=20))
    report = generalized_eff_params(fit, Phi)
    assert report.p_generalized == pytest.approx(20.0, abs=1e-8)


def test_duplicating_inputs_leaves_count_unchanged():
    X, y = _knn_data(30)
    model = fit_knn(X, y, 4)
    X0 = np.random.default_rng(4).uniform(size=(12, 3))
    single = generalized_eff_params(model, X0).p_generalized
    doubled = generalized_eff_params(model, np.vstack([X0, X0])).p_generalized
    assert doubled == pytest.approx(single, rel=1e-12)


def test_per_point_norms_recorded():
    X, y = _knn_data(16)
    model = fit_knn(X, y, 4)
    X0 = np.random.default_rng(5).uniform(size=(6, 3))
    report = generalized_eff_params(model, X0)
    assert report.per_point_sq_norms.shape == (6,)
    assert np.allclose(report.per_point_sq_norms, 0.25, atol=1e-12)
    assert report.p_generalized == pytest.approx(
        16.0 * report.per_point_sq_norms.mean(), rel=1e-12
    )


def test_empty_inputs_rejected():
    X, y = _knn_data(10)
    model = fit_knn(X, y, 2)
    with pytest.raises(ValidationError):
        generalized_eff_params(model, np.empty((0, 3)))


def _scope_data(name, seed):
    if name == "sine":
        ds = synth_generate(SyntheticSpec("sine", 120, 2, 0.1, seed))
        return ds.features, ds.targets
    ds = synth_images(120, side=6, n_classes=5, seed=seed, label_noise=0.15)
    return ds.features, one_vs_all_targets(ds, ds.task_classes, column=0)


@pytest.mark.parametrize("name", ["sine", "images"])
def test_tree_p0_reads_the_fitted_partition_not_the_refit(name):
    """p0 of a tree is that of its frozen partition. Refitting on y + τz
    moves the partition too, and the refit variance n·mean Var / τ², which
    a frozen linear smoother would hold at p_train, exceeds it and grows as
    τ shrinks (search degrees of freedom: Ye 1998, Efron 2004)."""
    for seed in range(10):
        X, y = _scope_data(name, seed)
        n = len(y)
        p_train = generalized_eff_params(fit_tree(X, y, 8, seed=1), X).p_generalized
        assert p_train == pytest.approx(8.0, rel=1e-12)  # one per leaf
        Z = np.random.default_rng(seed).choice([-1.0, 1.0], size=(24, n))
        ratios = []
        for tau in (0.2, 0.05):
            fits = np.array([fit_tree(X, y + tau * z, 8, seed=1).predict(X) for z in Z])
            ratios.append(n * fits.var(axis=0, ddof=1).mean() / tau**2 / p_train)
        assert ratios[0] >= 2.0 and ratios[1] > ratios[0], (seed, ratios)


# ---------------------------------------------------------------------------
# Classical train-set counts from the hat matrix
# ---------------------------------------------------------------------------


def test_classical_counts_on_identity_hat():
    out = train_eff_params_classical(np.eye(7))
    assert out == {"p_cov": pytest.approx(7.0), "p_err": pytest.approx(7.0),
                   "p_var": pytest.approx(7.0)}


def test_classical_counts_on_ols_hat():
    rng = np.random.default_rng(6)
    for p in (1, 3, 9):
        Phi = rng.normal(size=(50, p))
        hat = fit_ols(Phi, rng.normal(size=50)).hat_matrix()
        out = train_eff_params_classical(hat)
        for key in ("p_cov", "p_err", "p_var"):
            assert out[key] == pytest.approx(p, abs=1e-8), key


def test_classical_counts_hand_matrix():
    S = np.array([[0.5, 0.5], [0.0, 1.0]])
    out = train_eff_params_classical(S)
    assert out["p_cov"] == pytest.approx(1.5)
    assert out["p_var"] == pytest.approx(1.5)  # 0.25+0.25+0+1
    assert out["p_err"] == pytest.approx(2 * 1.5 - 1.5)


def test_classical_rejects_non_square():
    with pytest.raises(ValidationError):
        train_eff_params_classical(np.zeros((3, 4)))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(min_value=2, max_value=8))
def test_classical_identity_relation(seed, n):
    S = np.random.default_rng(seed).normal(size=(n, n))
    out = train_eff_params_classical(S)
    assert out["p_err"] == pytest.approx(2 * out["p_cov"] - out["p_var"], rel=1e-10)
    assert out["p_cov"] == pytest.approx(np.trace(S), rel=1e-10)


def test_classical_projection_equals_rank():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(9, 4))
    Q = np.linalg.qr(A)[0]
    P = Q @ Q.T
    out = train_eff_params_classical(P)
    for key in ("p_cov", "p_err", "p_var"):
        assert out[key] == pytest.approx(4.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Curvature-based proxy
# ---------------------------------------------------------------------------


def test_proxy_diagonal_design():
    Phi = np.diag([np.sqrt(2.0), 1.0])
    # eigenvalues of Phi'Phi are 2 and 1 -> 2/(2+1) + 1/(1+1)
    assert hessian_proxy_eff_params(Phi, 1.0) == pytest.approx(2.0 / 3.0 + 0.5, rel=1e-12)
    assert hessian_proxy_eff_params(Phi, 0.0) == pytest.approx(2.0, abs=1e-12)


def test_proxy_single_feature_half_point():
    Phi = np.array([[2.0], [0.0]])  # theta = 4
    assert hessian_proxy_eff_params(Phi, 4.0) == pytest.approx(0.5, rel=1e-12)


def test_proxy_saturates_at_min_n_p():
    rng = np.random.default_rng(8)
    for p in (15, 30, 60, 120):
        Phi = rng.normal(size=(30, p))
        assert hessian_proxy_eff_params(Phi, 0.0) == pytest.approx(min(30, p), abs=1e-9)


def test_proxy_vanishes_for_huge_damping():
    Phi = np.random.default_rng(9).normal(size=(10, 4))
    assert hessian_proxy_eff_params(Phi, 1e12) <= 1e-8


def test_proxy_monotone_in_damping():
    Phi = np.random.default_rng(10).normal(size=(12, 6))
    alphas = [0.0, 0.1, 1.0, 10.0, 100.0]
    vals = [hessian_proxy_eff_params(Phi, a) for a in alphas]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_proxy_rejects_negative_damping():
    with pytest.raises(ValidationError):
        hessian_proxy_eff_params(np.eye(2), -1.0)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def test_effparams_csv_golden(tmp_path):
    X, y = _knn_data(8)
    model = fit_knn(X, y, 2)
    X0 = X[:4]
    rows = [
        ("cfg-a", generalized_eff_params(model, X0, set_name="train")),
        ("cfg-b", generalized_eff_params(model, X0, set_name="test")),
    ]
    path = tmp_path / "eff.csv"
    write_effparams_csv(path, rows)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "config_id,set_name,n_inputs,n_train,p_generalized,effective_knn"
    assert len(lines) == 3
    assert lines[1].startswith("cfg-a,train,4,8,")
    assert lines[2].startswith("cfg-b,test,4,8,")
    # numeric fields round-trip exactly through repr
    p_str = lines[1].split(",")[4]
    assert float(p_str) == rows[0][1].p_generalized


def test_effparams_csv_rewrites_identically(tmp_path):
    X, y = _knn_data(8)
    rows = [("c", generalized_eff_params(fit_knn(X, y, 3), X[:2]))]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_effparams_csv(a, rows)
    write_effparams_csv(b, rows)
    assert a.read_bytes() == b.read_bytes()
