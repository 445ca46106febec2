"""Linear smoothers: OLS, minimum-norm interpolation, SVD basis, principal components.

Closed-form oracles (normal equations, hand SVD, null-space geometry) pin the
solvers; duality and hat-matrix identities pin the smoother-weight view.
"""

from __future__ import annotations

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smootherlab.errors import SingularDesignError, ValidationError
from smootherlab.linear import (
    PcrSmoother,
    fit_minnorm,
    fit_ols,
    fit_pcr,
    fit_svd_basis,
    pcr_smoother,
    standardize,
    svd_cutoff,
)


def _instance(seed, n, p):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, p)), rng.normal(size=n)


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------


def test_ols_matches_normal_equations():
    Phi, y = _instance(0, 12, 4)
    fit = fit_ols(Phi, y)
    beta = np.linalg.solve(Phi.T @ Phi, Phi.T @ y)
    assert np.allclose(fit.coefficients, beta, atol=1e-10)


def test_ols_single_column():
    fit = fit_ols(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
    assert np.allclose(fit.coefficients, [1.0], atol=1e-12)
    assert np.allclose(fit.predict(np.array([[3.0]])), [3.0], atol=1e-12)


def test_ols_residual_orthogonality():
    Phi, y = _instance(1, 30, 6)
    fit = fit_ols(Phi, y)
    residual = y - fit.fitted_values
    assert np.max(np.abs(Phi.T @ residual)) <= 1e-6 * np.linalg.norm(y)


def test_ols_beats_every_submodel():
    Phi, y = _instance(2, 6, 5)
    full_sse = np.sum((y - fit_ols(Phi, y).fitted_values) ** 2)
    for k in range(1, 5):
        for cols in itertools.combinations(range(5), k):
            sub = fit_ols(Phi[:, cols], y)
            sub_sse = np.sum((y - sub.fitted_values) ** 2)
            assert sub_sse >= full_sse - 1e-10


def test_ols_intercept_only_gives_uniform_weights():
    _, y = _instance(3, 9, 1)
    fit = fit_ols(np.ones((9, 1)), y)
    W = fit.weight_matrix(np.ones((4, 1)))
    assert np.allclose(W, 1.0 / 9.0, atol=1e-12)
    assert np.allclose(fit.fitted_values, y.mean(), atol=1e-12)


def test_ols_hat_matrix_idempotent_with_trace_p():
    Phi, y = _instance(4, 25, 7)
    hat = fit_ols(Phi, y).hat_matrix()
    assert np.allclose(hat @ hat, hat, atol=1e-9)
    assert np.allclose(hat, hat.T, atol=1e-10)
    assert abs(np.trace(hat) - 7.0) <= 1e-8


def test_ols_weights_are_y_independent():
    Phi, y1 = _instance(5, 15, 4)
    y2 = np.random.default_rng(99).normal(size=15)
    X0 = np.random.default_rng(100).normal(size=(6, 4))
    assert np.array_equal(fit_ols(Phi, y1).weight_matrix(X0), fit_ols(Phi, y2).weight_matrix(X0))


def test_ols_rejects_wide_design():
    Phi, y = _instance(6, 5, 5)
    with pytest.raises(ValidationError):
        fit_ols(Phi, y)


def test_ols_singular_design_raises():
    base = np.array([[1.0], [2.0], [3.0], [4.0]])
    Phi = np.hstack([base, base])
    with pytest.raises(SingularDesignError) as err:
        fit_ols(Phi, np.array([1.0, 2.0, 3.0, 4.0]))
    assert "singular value" in str(err.value)


# ---------------------------------------------------------------------------
# Minimum-norm interpolation
# ---------------------------------------------------------------------------


def test_minnorm_interpolates():
    Phi, y = _instance(7, 20, 50)
    fit = fit_minnorm(Phi, y)
    assert np.linalg.norm(Phi @ fit.coefficients - y) <= 1e-6 * np.linalg.norm(y)
    assert not fit.rank_deficient


def test_minnorm_matches_gram_solve():
    Phi, y = _instance(8, 10, 30)
    fit = fit_minnorm(Phi, y)
    beta = Phi.T @ np.linalg.solve(Phi @ Phi.T, y)
    assert np.allclose(fit.coefficients, beta, atol=1e-9)


def test_minnorm_is_shortest_interpolator():
    Phi, y = _instance(9, 8, 20)
    beta = fit_minnorm(Phi, y).coefficients
    # any null-space perturbation strictly lengthens the solution
    projector = np.eye(20) - np.linalg.pinv(Phi) @ Phi
    rng = np.random.default_rng(10)
    for _ in range(200):
        z = projector @ rng.normal(size=20)
        assert np.linalg.norm(beta + z) >= np.linalg.norm(beta)
        # Pythagoras: beta lies in the row space, orthogonal to z
        assert abs(np.dot(beta, z)) <= 1e-8 * np.linalg.norm(beta) * np.linalg.norm(z) + 1e-12


def test_minnorm_identity_block():
    Phi = np.hstack([np.eye(3), np.zeros((3, 2))])
    y = np.array([1.0, -2.0, 3.0])
    beta = fit_minnorm(Phi, y).coefficients
    assert np.allclose(beta, [1.0, -2.0, 3.0, 0.0, 0.0], atol=1e-12)


def test_minnorm_train_weights_are_identity():
    Phi, y = _instance(11, 12, 24)
    fit = fit_minnorm(Phi, y)
    assert np.allclose(fit.weight_matrix(Phi), np.eye(12), atol=1e-6)
    assert np.allclose(fit.hat_matrix(), np.eye(12), atol=1e-6)


def test_minnorm_weight_matrix_closed_form():
    Phi, y = _instance(12, 6, 9)
    X0 = np.random.default_rng(13).normal(size=(4, 9))
    W = fit_minnorm(Phi, y).weight_matrix(X0)
    direct = X0 @ Phi.T @ np.linalg.inv(Phi @ Phi.T)
    assert np.allclose(W, direct, atol=1e-8)


def test_minnorm_rank_deficient_projects():
    rng = np.random.default_rng(14)
    base = rng.normal(size=(2, 4))
    Phi = np.vstack([base, base.sum(axis=0, keepdims=True)])  # rank 2, n=3
    y = rng.normal(size=3)
    fit = fit_minnorm(Phi, y)
    assert fit.rank_deficient
    assert fit.rank == 2
    # fitted values are the orthogonal projection of y onto the column space
    U = np.linalg.svd(Phi, full_matrices=False)[0][:, :2]
    assert np.allclose(fit.fitted_values, U @ (U.T @ y), atol=1e-10)


def test_minnorm_rejects_tall_design():
    Phi, y = _instance(15, 6, 5)
    with pytest.raises(ValidationError):
        fit_minnorm(Phi, y)


# ---------------------------------------------------------------------------
# SVD-basis regression and the equivalence of predictions
# ---------------------------------------------------------------------------


def test_svd_basis_hand_factorization():
    Phi = np.array([[3.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    y = np.array([6.0, 4.0])
    fit = fit_svd_basis(Phi, y)
    assert np.allclose(fit.coefficients, [2.0, 2.0], atol=1e-12)
    assert np.allclose(fit.fitted_values, y, atol=1e-12)


@pytest.mark.parametrize("fit, shape, deficient", [
    (fit_ols, (8, 3), False),
    (fit_minnorm, (3, 8), False),
    (fit_minnorm, (3, 8), True),
    (fit_svd_basis, (8, 3), False),
    (fit_svd_basis, (8, 3), True),
    (fit_svd_basis, (3, 8), False),
    (fit_svd_basis, (3, 8), True),
])
def test_svd_fits_flag_a_rank_below_the_shorter_side(fit, shape, deficient):
    # OLS on a rank-deficient design raises (test_ols_singular_design_raises)
    rng = np.random.default_rng(31)
    n, p = shape
    k = min(shape) - deficient
    Phi = rng.normal(size=(n, k)) @ rng.normal(size=(k, p))
    result = fit(Phi, rng.normal(size=n))
    assert result.rank == k
    assert result.rank_deficient == (result.rank < min(Phi.shape)) == deficient


def test_svd_basis_matches_minnorm_predictions():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        p = int(rng.integers(n, 3 * n))
        Phi = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        X0 = rng.normal(size=(40, p))
        a = fit_minnorm(Phi, y).predict(X0)
        b = fit_svd_basis(Phi, y).predict(X0)
        assert np.max(np.abs(a - b) / (1.0 + np.abs(a))) <= 1e-8


def test_square_full_rank_equals_exact_solve():
    Phi, y = _instance(16, 7, 7)
    exact = np.linalg.solve(Phi, y)
    X0 = np.random.default_rng(17).normal(size=(5, 7))
    for fit in (fit_minnorm(Phi, y), fit_svd_basis(Phi, y)):
        assert np.allclose(fit.predict(X0), X0 @ exact, atol=1e-7)


# ---------------------------------------------------------------------------
# Weight / prediction duality across modes
# ---------------------------------------------------------------------------


def test_duality_all_linear_modes():
    rng = np.random.default_rng(18)
    X0_narrow = rng.normal(size=(20, 5))
    X0_wide = rng.normal(size=(20, 30))
    Phi_tall, y_tall = _instance(19, 40, 5)
    Phi_wide, y_wide = _instance(20, 15, 30)
    fits = [
        (fit_ols(Phi_tall, y_tall), X0_narrow, y_tall),
        (fit_pcr(Phi_tall, y_tall, 3), X0_narrow, y_tall),
        (fit_minnorm(Phi_wide, y_wide), X0_wide, y_wide),
        (fit_svd_basis(Phi_wide, y_wide), X0_wide, y_wide),
    ]
    for fit, X0, y in fits:
        via_weights = fit.weight_matrix(X0) @ y
        direct = fit.predict(X0)
        assert np.max(np.abs(via_weights - direct) / (1.0 + np.abs(direct))) <= 1e-10


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=3, max_value=12),
)
def test_duality_property_ols(seed, n):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, n))
    Phi = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    X0 = rng.normal(size=(3, p))
    fit = fit_ols(Phi, y)
    assert np.allclose(fit.weight_matrix(X0) @ y, fit.predict(X0), atol=1e-8)


def test_single_row_query_matches_batch_row():
    Phi, y = _instance(21, 10, 20)
    fit = fit_minnorm(Phi, y)
    X0 = np.random.default_rng(22).normal(size=(5, 20))
    assert np.allclose(fit.weight_matrix(X0[2][None])[0], fit.weight_matrix(X0)[2], atol=1e-12)


# ---------------------------------------------------------------------------
# Principal component regression
# ---------------------------------------------------------------------------


def test_pcr_all_components_equals_centered_ols():
    Phi, y = _instance(23, 20, 6)
    fit = fit_pcr(Phi, y, 6)
    A = np.hstack([Phi - Phi.mean(axis=0), np.ones((20, 1))])
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    X0 = np.random.default_rng(24).normal(size=(8, 6))
    A0 = np.hstack([X0 - Phi.mean(axis=0), np.ones((8, 1))])
    assert np.allclose(fit.fitted_values, A @ beta, atol=1e-8)
    assert np.allclose(fit.predict(X0), A0 @ beta, atol=1e-8)


def test_pcr_rank_one_design_recovers_linear_signal():
    rng = np.random.default_rng(25)
    t = rng.normal(size=30)
    u = np.array([0.6, -0.8, 0.1])
    Phi = np.outer(t, u)
    y = 2.0 * t + 1.0
    fit = fit_pcr(Phi, y, 1)
    assert np.max(np.abs(fit.fitted_values - y)) <= 1e-6


def test_pcr_constant_targets_load_on_intercept():
    Phi, _ = _instance(26, 15, 4)
    y = np.full(15, 3.7)
    fit = fit_pcr(Phi, y, 2)
    assert abs(fit.coefficients[-1] - 3.7) <= 1e-9
    assert np.max(np.abs(fit.coefficients[:-1])) <= 1e-9


def test_pcr_weight_rows_sum_to_one():
    Phi, y = _instance(27, 18, 40)
    sm = pcr_smoother(Phi, 10)
    X0 = np.random.default_rng(28).normal(size=(6, 40))
    W = sm.weight_matrix(X0)
    assert np.allclose(W.sum(axis=1), 1.0, atol=1e-9)


def test_pcr_max_components_interpolates_wide_design():
    Phi, y = _instance(29, 15, 30)
    fit = fit_pcr(Phi, y, 14)
    assert np.max(np.abs(fit.fitted_values - y)) <= 1e-6


def test_pcr_smoother_is_y_independent_and_dual():
    Phi, y = _instance(30, 12, 20)
    sm = pcr_smoother(Phi, 5)
    fit = fit_pcr(Phi, y, 5)
    X0 = np.random.default_rng(31).normal(size=(7, 20))
    assert np.allclose(sm.weight_matrix(X0) @ y, fit.predict(X0), atol=1e-9)


@pytest.mark.parametrize("n, p, p_pc", [(12, 20, 5), (20, 8, 6)], ids=["wide", "narrow"])
def test_pcr_hat_matrix_reads_the_stored_training_design(monkeypatch, n, p, p_pc):
    """The PCR hat matrix is the smoother's own train_design @ solver: the raw
    training design is not standardized and projected a second time."""
    Phi, y = _instance(34, n, p)
    fit = fit_pcr(Phi, y, p_pc)

    def no_rescaling(self, Phi0):
        raise AssertionError("the training design was rescaled")

    monkeypatch.setattr(PcrSmoother, "scale", no_rescaling)
    H = fit.hat_matrix()
    assert H.shape == (n, n)
    assert np.array_equal(H, fit.pcr.hat_matrix())


def test_pcr_zero_variance_column_warns_and_drops():
    Phi, y = _instance(32, 14, 3)
    Phi = np.hstack([Phi, np.full((14, 1), 2.5)])
    with pytest.warns(UserWarning):
        fit = fit_pcr(Phi, y, 2)
    X0 = np.random.default_rng(33).normal(size=(4, 4))
    preds = fit.predict(X0)
    assert np.all(np.isfinite(preds))
    # the constant column carries no information: shifting it leaves predictions alone
    X0_shift = X0.copy()
    X0_shift[:, 3] += 100.0
    assert np.allclose(fit.predict(X0_shift), preds, atol=1e-9)


def _two_svd_pcr(Phi, p_pc):
    """Reference PCR: an SVD of the standardized design, then a cutoff
    pseudo-inverse through a second SVD of the projected design with its
    intercept column. Returns (weights, hat matrix, rank, singular values)."""
    Xs, mean, std, kept = standardize(Phi)
    U, s, Vt = np.linalg.svd(Xs, full_matrices=False)
    k = min(p_pc, s.size)
    A = np.hstack([U[:, :k] * s[:k], np.ones((Phi.shape[0], 1))])
    Ua, sa, Vta = np.linalg.svd(A, full_matrices=False)
    keep = sa > svd_cutoff(sa, A.shape)
    solver = (Vta[keep].T / sa[keep]) @ Ua[:, keep].T

    def weights(Phi0):
        Z0 = ((Phi0[:, kept] - mean) / std) @ Vt[:k].T
        return np.hstack([Z0, np.ones((Phi0.shape[0], 1))]) @ solver

    return weights, A @ solver, int(keep.sum()), s


@st.composite
def _pcr_cases(draw):
    """Designs with p < n, p = n - 1, p >= n, or duplicated columns, the
    last with p_pc past the numerical rank; some with a constant column."""
    layout = draw(st.sampled_from(["tall", "n-1", "wide", "duplicated"]))
    n = draw(st.integers(min_value=8, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if layout == "duplicated":
        q = draw(st.integers(min_value=2, max_value=n // 2))
        base = rng.normal(size=(n, q))
        Phi = np.hstack([base, 2.0 * base + 1.0])  # numerical rank q
        p_pc = draw(st.integers(min_value=q + 1, max_value=min(n - 1, 2 * q)))
    else:
        p = {
            "tall": draw(st.integers(min_value=2, max_value=n - 2)),
            "n-1": n - 1,
            "wide": draw(st.integers(min_value=n, max_value=3 * n)),
        }[layout]
        Phi = rng.normal(size=(n, p))
        p_pc = draw(st.integers(min_value=1, max_value=min(n - 1, p)))
    if draw(st.booleans()):
        Phi[:, 0] = 2.5
    return Phi, p_pc, rng.normal(size=(5, Phi.shape[1]))


@settings(deadline=None, max_examples=60)
@given(case=_pcr_cases())
def test_pcr_smoother_matches_two_svd_oracle(case):
    Phi, p_pc, X0 = case
    weights, hat, rank, s = _two_svd_pcr(Phi, p_pc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the constant column's drop warning
        sm = pcr_smoother(Phi, p_pc)
    assert sm.rank == rank
    if s[0] / s[rank - 2] <= 1e4:  # well conditioned over the kept components
        W = weights(X0)
        assert np.abs(sm.weight_matrix(X0) - W).max() <= 1e-8 * np.abs(W).max()
        assert np.abs(sm.hat_matrix() - hat).max() <= 1e-8 * np.abs(hat).max()


@pytest.mark.parametrize("m", [1, 257, 600])
@pytest.mark.parametrize(
    "n, p, p_pc, masked",
    [(300, 40, 30, False), (50, 400, 40, False), (60, 30, 29, True)],
    ids=["narrow", "wide", "masked"],
)
def test_pcr_products_keep_the_bits_of_the_plain_expressions(n, p, p_pc, masked, m):
    """The designs are written into place and the solver formed on demand;
    each gives exactly the bits of the plain expression: the concatenation,
    (A0 * A0) @ sa_inv_sq and (A * sa_inv_sq).T @ y."""
    rng = np.random.default_rng(n + p)
    Phi, X0 = rng.normal(size=(n, p)), rng.normal(size=(m, p))
    if masked:
        Phi[:, 1] = Phi[:, 0]  # a direction the cutoff masks
        Phi[:, 2] = 2.5  # a column the kept mask drops
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sm = pcr_smoother(Phi, p_pc)
    k = sm.components.shape[1]
    assert (sm.rank < k + 1) == masked

    def concatenated(Xs):
        return np.concatenate([Xs @ sm.components, np.ones((Xs.shape[0], 1))], axis=1)

    A, A0 = sm.train_design, sm.standardized_design(sm.scale(X0))
    assert np.array_equal(A, concatenated(sm.scale(Phi)))
    assert np.array_equal(A0, concatenated(sm.scale(X0)))
    assert np.array_equal(sm.design(X0), A0)
    for D in (A, A0):
        assert np.array_equal(sm.sq_norms(D.copy()), (D * D) @ sm.sa_inv_sq)
    solver = (A * sm.sa_inv_sq).T
    assert np.array_equal(sm.solver, solver)
    y, Y = rng.normal(size=n), rng.normal(size=(n, 3))
    assert np.array_equal(sm.coefficients(y), solver @ y)
    assert np.array_equal(sm.coefficients(Y), solver @ Y)


def test_pcr_query_design_is_written_into_its_final_array():
    """Projecting m queries allocates the (m, p_pc + 1) design and nothing of
    its size besides: no (m, p_pc) product is copied into it."""
    rng = np.random.default_rng(3)
    sm = pcr_smoother(rng.normal(size=(60, 400)), 40)
    Xs0 = sm.scale(rng.normal(size=(500, 400)))
    sm.standardized_design(Xs0)  # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sm.standardized_design(Xs0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 500 * 41 + 4096, peak


def test_pcr_component_count_validation():
    Phi, y = _instance(34, 10, 6)
    with pytest.raises(ValidationError):
        fit_pcr(Phi, y, 0)
    with pytest.raises(ValidationError):
        fit_pcr(Phi, y, 7)  # > p
    with pytest.raises(ValidationError):
        fit_pcr(Phi, y, 10)  # > n - 1


# ---------------------------------------------------------------------------
# Shared validation
# ---------------------------------------------------------------------------


def test_design_validation():
    with pytest.raises(ValidationError):
        fit_ols(np.array([[np.inf], [1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(ValidationError):
        fit_ols(np.zeros((3, 1)), np.zeros(4))
    with pytest.raises(ValidationError):
        fit_minnorm(np.zeros((2, 3)), np.array([np.nan, 0.0]))


def test_predict_rejects_wrong_width():
    Phi, y = _instance(35, 10, 4)
    fit = fit_ols(Phi, y)
    with pytest.raises(ValidationError):
        fit.predict(np.zeros((2, 5)))
