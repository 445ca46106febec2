"""Effective parameter counts read off smoother weight vectors.

Every model in the package is a smoother: it exposes ``n_train``,
``weight_matrix(X0)`` (the rows s(x0) with f(x0) = s(x0) . y_train),
``predict(X0)`` and ``train_predictions()``. The generalized count over an
input set I0 = {x0_1 .. x0_m} is

    p0 = (n / m) * sum_j || s(x0_j) ||^2

which ``p_eff_of_sq_norms`` reduces from the squared row norms; every p0 in
the package goes through it. ``p_eff`` feeds it the rows of a weight
matrix, and PCR sweep points feed it norms read off their projection
coefficients (``linear.PcrSmoother.sq_norms``) without forming rows. It is
calibrated so a k-nearest-neighbour smoother scores n/k regardless of the
input set; n/p0 is therefore the "effective k" of any smoother. Unlike the
classical train-time counts it needs no hat matrix and can be evaluated
anywhere in input space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linear import svd_cutoff
from .tableio import write_csv


@dataclass
class EffParamsReport:
    set_name: str
    n_train: int
    n_inputs: int
    p_generalized: float
    effective_knn: float
    per_point_sq_norms: np.ndarray


def p_eff_of_sq_norms(sq_norms: np.ndarray, n: int) -> float:
    """p0 from the squared weight-row norms ||s(x0_j)||^2: n times their mean."""
    return float(n * np.mean(sq_norms))


def p_eff(W: np.ndarray, n: int) -> float:
    """p0 of the weight rows W (m, n_train)."""
    return p_eff_of_sq_norms(np.sum(W * W, axis=1), n)


def generalized_eff_params(model, inputs: np.ndarray, set_name: str = "") -> EffParamsReport:
    """Generalized count for any model exposing weight_matrix / n_train."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape[0] < 1:
        raise ValidationError("need at least one evaluation input")
    W = model.weight_matrix(inputs)
    sq_norms = np.sum(W * W, axis=1)
    n = model.n_train
    p0 = p_eff_of_sq_norms(sq_norms, n)
    return EffParamsReport(
        set_name=set_name,
        n_train=n,
        n_inputs=inputs.shape[0],
        p_generalized=p0,
        effective_knn=float(n / p0) if p0 > 0 else float("inf"),
        per_point_sq_norms=sq_norms,
    )


def train_eff_params_classical(hat: np.ndarray) -> dict[str, float]:
    """Covariance / error / variance counts from the train-time hat matrix.

    p_cov = tr(S), p_err = tr(2S - S S'), p_var = tr(S S'). For a symmetric
    idempotent S (least squares) all three equal the raw parameter count.
    """
    hat = np.asarray(hat, dtype=float)
    if hat.ndim != 2 or hat.shape[0] != hat.shape[1]:
        raise ValidationError(f"hat matrix must be square, got {hat.shape}")
    p_cov = float(np.trace(hat))
    p_var = float(np.einsum("ij,ij->", hat, hat))  # tr(S S')
    return {"p_cov": p_cov, "p_err": 2.0 * p_cov - p_var, "p_var": p_var}


def hessian_proxy_eff_params(Phi: np.ndarray, alpha: float) -> float:
    """Curvature-spectrum proxy sum_j theta_j / (theta_j + alpha).

    theta_j are the eigenvalues of Phi' Phi. At alpha = 0 this is the rank,
    which saturates at min(n, p) and is why the proxy cannot see width growth
    past interpolation.
    """
    Phi = np.asarray(Phi, dtype=float)
    if Phi.ndim != 2:
        raise ValidationError(f"design must be 2-d, got {Phi.shape}")
    if alpha < 0:
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    s = np.linalg.svd(Phi, compute_uv=False)
    theta = s * s
    if alpha == 0.0:
        return float(np.count_nonzero(s > svd_cutoff(s, Phi.shape)))
    return float(np.sum(theta / (theta + alpha)))


def write_effparams_csv(path, rows) -> None:
    """rows: iterable of (config_id, EffParamsReport)."""
    header = ["config_id", "set_name", "n_inputs", "n_train", "p_generalized", "effective_knn"]
    out = [
        [cid, rep.set_name, rep.n_inputs, rep.n_train, rep.p_generalized, rep.effective_knn]
        for cid, rep in rows
    ]
    write_csv(path, header, out)
