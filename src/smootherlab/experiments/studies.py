"""Smaller diagnostic studies that sit beside the main sweeps.

Each study returns a plain report dataclass; CSV serialization lives with the
caller (CLI or script) so the functions stay usable from notebooks and tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..boosting import fit_boost
from ..dataset import (
    GENERATORS,
    Dataset,
    SyntheticSpec,
    one_vs_all_targets,
    synth_generate,
)
from ..effparams import p_eff
from ..errors import PreconditionError, ValidationError
from ..knn import fit_knn
from ..linear import LinearFit, fit_minnorm, standardize, svd_cutoff
from ..rff import DEFAULT_SCALE, RffMap, sample_frequencies, transform

# --------------------------------------------------------------------------- conditioning


@dataclass
class ConditionRow:
    p_phi: int
    k: int
    sigma_k: float
    cond_k: float  # sigma_1 / sigma_k, inf past the rank


def cond_study(
    fmap: RffMap, ds: Dataset, p_phi_values, k_values
) -> list[ConditionRow]:
    """Singular-value decay of the standardized random-feature design.

    For each design width the columns are standardized as PCR does (see
    linear.standardize: centered, scaled, constant columns dropped), and
    sigma_k / the condition number sigma_1 / sigma_k is tabulated for each
    requested k. Indices past the centered rank (centering n rows leaves at
    most n - 1 independent directions), and singular values at or below the
    rank cutoff (linear.svd_cutoff), are rounding noise of a rank-deficient
    design: they get sigma_k = 0 and an infinite condition number.

    This study takes a full SVD of its own rather than PCR's Gram route: it
    needs every singular value, down to the smallest, at SVD accuracy.
    """
    rows = []
    for p_phi in p_phi_values:
        Xs = standardize(transform(fmap, ds.features, int(p_phi)))[0]
        s = np.linalg.svd(Xs, compute_uv=False)
        cutoff = svd_cutoff(s, Xs.shape)
        rank_bound = min(s.size, Xs.shape[0] - 1)
        for k in k_values:
            k = int(k)
            if k < 1:
                raise ValidationError(f"singular value index must be >= 1, got {k}")
            if k <= rank_bound and s[k - 1] > cutoff:
                rows.append(
                    ConditionRow(int(p_phi), k, float(s[k - 1]), float(s[0] / s[k - 1]))
                )
            else:
                rows.append(ConditionRow(int(p_phi), k, 0.0, float("inf")))
    return rows


# --------------------------------------------------------------------------- fixed design


@dataclass
class FixedDesignReport:
    reference_loss: float
    model_losses: dict[str, float]
    max_loss_deviation: float
    hat_identity_deviation: dict[str, float]
    tolerance: float


def fixed_design_check(
    models: dict[str, object],
    y_train: np.ndarray,
    y_test: np.ndarray,
    interp_tol: float = 1e-4,
    loss_tol: float = 1e-8,
) -> FixedDesignReport:
    """Interpolating models are indistinguishable on resampled fixed inputs.

    With the inputs held at the training points and only the targets redrawn,
    every model that interpolates the training targets has the same expected
    loss as the memorizing map x_i -> y_i. The check verifies each model's
    training error is below interp_tol (raising PreconditionError naming the
    first offender otherwise), then asserts all fixed-design losses match the
    reference within loss_tol; interpolating linear smoothers must also have
    identity hat-matrix rows.
    """
    y_train = np.asarray(y_train, dtype=float)
    y_test = np.asarray(y_test, dtype=float)
    if y_test.shape != y_train.shape:
        raise ValidationError(
            f"resampled targets shape {y_test.shape} != train {y_train.shape}"
        )
    reference = float(np.mean((y_train - y_test) ** 2))
    losses: dict[str, float] = {}
    hat_dev: dict[str, float] = {}
    for name, model in models.items():
        preds = model.train_predictions()
        train_err = float(np.mean((preds - y_train) ** 2))
        if train_err > interp_tol:
            raise PreconditionError(
                f"model {name!r} does not interpolate: train mse {train_err:.3e} "
                f"> {interp_tol:.1e}"
            )
        losses[name] = float(np.mean((preds - y_test) ** 2))
        if isinstance(model, LinearFit):
            hat = model.hat_matrix()
            hat_dev[name] = float(
                np.max(np.abs(hat - np.eye(hat.shape[0])))
            )
    max_dev = max(abs(v - reference) for v in losses.values()) if losses else 0.0
    report = FixedDesignReport(
        reference_loss=reference,
        model_losses=losses,
        max_loss_deviation=max_dev,
        hat_identity_deviation=hat_dev,
        tolerance=loss_tol,
    )
    if max_dev > loss_tol:
        worst = max(losses, key=lambda k: abs(losses[k] - reference))
        raise PreconditionError(
            f"fixed-design loss of {worst!r} deviates from the reference by "
            f"{max_dev:.3e} > {loss_tol:.1e}"
        )
    return report


# --------------------------------------------------------------------------- bias / variance


@dataclass
class AnalyticModelConfig:
    """Which y-independent smoother the bias/variance study builds.

    kind "ols" regresses on an intercept plus the first (n_features - 1) raw
    coordinates; "mean" is the intercept-only special case; "knn" averages the
    k nearest training points; "minnorm" interpolates on a random cosine
    design of width rff_p (which must be >= n; None means 2n). Only minnorm
    reads rff_p.
    """

    kind: str
    n_features: int = 2
    k: int = 1
    rff_p: int | None = None
    rff_seed: int = 0
    rff_scale: float = DEFAULT_SCALE


@dataclass
class BiasVarianceReport:
    test_points: np.ndarray
    analytic_bias: np.ndarray
    analytic_variance: np.ndarray
    analytic_mse: np.ndarray
    mc_bias: np.ndarray
    mc_variance: np.ndarray
    mc_mse: np.ndarray
    se_bias: np.ndarray
    se_variance: np.ndarray
    se_mse: np.ndarray
    max_z_bias: float
    max_z_variance: float
    max_z_mse: float


def _analytic_weights(config: AnalyticModelConfig, X: np.ndarray, X0: np.ndarray):
    n = X.shape[0]
    if config.kind == "mean":
        return np.full((X0.shape[0], n), 1.0 / n)
    if config.kind == "ols":
        q = config.n_features
        if not (1 <= q <= min(n - 1, X.shape[1] + 1)):
            raise ValidationError(f"n_features={q} out of range for n={n}")
        A = np.concatenate([np.ones((n, 1)), X[:, : q - 1]], axis=1)
        A0 = np.concatenate([np.ones((X0.shape[0], 1)), X0[:, : q - 1]], axis=1)
        return A0 @ np.linalg.pinv(A)
    if config.kind == "knn":
        return fit_knn(X, np.zeros(n), config.k).weight_matrix(X0)
    if config.kind == "minnorm":
        p = 2 * n if config.rff_p is None else config.rff_p
        if p < n:
            raise ValidationError(
                f"minnorm needs rff_p >= n, got rff_p={p}, n={n}"
            )
        fmap = sample_frequencies(config.rff_seed, p, X.shape[1], config.rff_scale)
        Phi = transform(fmap, X, p)
        fit = fit_minnorm(Phi, np.zeros(n))
        return fit.weight_matrix(transform(fmap, X0, p))
    raise ValidationError(
        f"unknown analytic model kind {config.kind!r}; adaptive smoothers "
        "(trees, boosting) have data-dependent weights and are not supported"
    )


def bias_variance(
    spec: SyntheticSpec,
    config: AnalyticModelConfig,
    n_resamples: int = 200,
    n_test_points: int = 25,
) -> BiasVarianceReport:
    """Closed-form bias/variance of a y-independent smoother vs Monte Carlo.

    The training inputs stay fixed at the spec's draw; only the noise is
    redrawn. For weights s(x0):

        bias(x0) = f*(x0) - s(x0) . f*(X)
        var(x0)  = ||s(x0)||^2 sigma^2
        mse(x0)  = sigma^2 + bias^2 + var

    The Monte Carlo side redraws targets n_resamples times and reports means
    with standard errors; max_z_* summarize the agreement in SE units.
    """
    if n_resamples < 2:
        raise ValidationError("need at least 2 resamples")
    if n_test_points < 1:
        raise ValidationError(f"n_test_points must be >= 1, got {n_test_points}")
    if spec.noise_std <= 0:  # else every z-score is a ratio of rounding errors
        raise ValidationError(f"noise_std must be > 0, got {spec.noise_std}")
    base = synth_generate(spec)
    if base.true_values is None:
        raise ValidationError("spec generator must supply noise-free values")
    X = base.features
    f_train = base.true_values
    sigma = spec.noise_std

    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(1,)))
    X0 = rng.uniform(size=(n_test_points, spec.d))
    f0 = GENERATORS[spec.generator](X0)

    W = _analytic_weights(config, X, X0)
    bias = f0 - W @ f_train
    var = np.sum(W * W, axis=1) * sigma**2
    mse = sigma**2 + bias**2 + var

    noise = rng.normal(scale=sigma, size=(n_resamples, X.shape[0]))
    Y = f_train[None, :] + noise
    preds = Y @ W.T  # (R, m)
    y0 = f0[None, :] + rng.normal(scale=sigma, size=(n_resamples, n_test_points))

    mc_mean = preds.mean(axis=0)
    mc_bias = f0 - mc_mean
    mc_var = preds.var(axis=0, ddof=1)
    sq_err = (y0 - preds) ** 2
    mc_mse = sq_err.mean(axis=0)

    se_bias = preds.std(axis=0, ddof=1) / np.sqrt(n_resamples)
    se_var = mc_var * np.sqrt(2.0 / (n_resamples - 1))
    se_mse = sq_err.std(axis=0, ddof=1) / np.sqrt(n_resamples)

    def z(a, b, se):
        safe = np.where(se > 0, se, np.inf)
        return float(np.max(np.abs(a - b) / safe))

    return BiasVarianceReport(
        test_points=X0,
        analytic_bias=bias,
        analytic_variance=var,
        analytic_mse=mse,
        mc_bias=mc_bias,
        mc_variance=mc_var,
        mc_mse=mc_mse,
        se_bias=se_bias,
        se_variance=se_var,
        se_mse=se_mse,
        max_z_bias=z(bias, mc_bias, se_bias),
        max_z_variance=z(var, mc_var, se_var),
        max_z_mse=z(mse, mc_mse, se_mse),
    )


# --------------------------------------------------------------------------- model selection


@dataclass
class SelectionRow:
    leaf_budget: int
    learning_rate: float
    rounds_used: int
    train_mse: float
    interpolating: bool
    test_mse: float
    p_test: float


@dataclass
class SelectionResult:
    rows: list[SelectionRow] = field(default_factory=list)
    selected: SelectionRow | None = None
    spearman: float | None = None  # p_test vs test_mse among interpolating rows


def model_selection_study(
    train: Dataset,
    test: Dataset,
    leaf_grid,
    lr_grid,
    interp_tol: float = 1e-4,
    max_rounds: int = 500,
    seed: int = 1,
) -> SelectionResult:
    """Boost every config to interpolation; rank survivors by test-side p.

    Among configurations that reach training error below interp_tol, the one
    with the smallest generalized parameter count on the test inputs is
    selected, and the Spearman rank correlation between that count and test
    error is reported (None when fewer than two configs interpolate).
    """
    y_train = one_vs_all_targets(train, train.task_classes, column=0)
    y_test = one_vs_all_targets(test, train.task_classes, column=0)
    n = train.n
    result = SelectionResult()
    for leaf_budget in leaf_grid:
        leaf_budget = n if leaf_budget == "max" else int(leaf_budget)
        for lr in lr_grid:
            model = fit_boost(
                train.features,
                y_train,
                n_rounds=max_rounds,
                learning_rate=float(lr),
                leaf_budget=leaf_budget,
                seed=seed,
                stop_tol=interp_tol,
            )
            train_mse = model.train_mse_history[-1]
            W_test = model.weight_matrix(test.features)
            preds = W_test @ y_train
            row = SelectionRow(
                leaf_budget=leaf_budget,
                learning_rate=float(lr),
                rounds_used=model.n_rounds,
                train_mse=float(train_mse),
                interpolating=bool(train_mse < interp_tol),
                test_mse=float(np.mean((preds - y_test) ** 2)),
                p_test=p_eff(W_test, n),
            )
            result.rows.append(row)
    good = [r for r in result.rows if r.interpolating]
    if good:
        result.selected = min(good, key=lambda r: r.p_test)
    if len(good) >= 2:
        from scipy import stats  # imported here: it dominates the package's import time

        rho = stats.spearmanr([r.p_test for r in good], [r.test_mse for r in good])
        corr = float(rho.statistic)
        result.spearman = None if np.isnan(corr) else corr
    return result
