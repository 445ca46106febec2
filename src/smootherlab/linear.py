"""Linear smoothers on explicit feature designs.

Every fit here predicts f(x0) = s(x0) . y_train where the weight vector s(x0)
does not depend on y_train. Fits keep the SVD factors of their design so the
weights can be recovered for arbitrary inputs:

    under-determined (p >= n):  s(x0) = phi(x0)' Phi' (Phi Phi')^-1
    over-determined  (p <  n):  s(x0) = phi(x0)' (Phi' Phi)^-1 Phi'

both of which reduce to phi(x0)' V S^-1 U' on the compact SVD Phi = U S V'.
The OLS, min-norm and SVD-basis fits invert through that SVD with a relative
singular-value cutoff (``svd_cutoff``). PCR needs only its top components:
it takes them from one eigendecomposition of the Gram matrix of the
standardized design's shorter side, solves the intercept in closed form,
and floors the cutoff at the Gram's rounding level (see ``pcr_smoother``).

A PCR smoother projects onto [Z, 1], whose columns are orthogonal, so the
squared norm of a weight row is a sum over the query's projection
coefficients (``PcrSmoother.sq_norms``) and p0 needs no weight rows.
Callers that standardize their columns once for many fits (the sweep's
cosine cache) pass the standardized design with its scaling, project
standardized queries with ``PcrSmoother.standardized_design`` and read p0
that way; ``weight_matrix`` and ``hat_matrix`` still form explicit rows for
the single fits of ``fit``, ``effparams`` and ``bias-variance``.

A sweep point's memory is dominated by the (p, p_pc) components and the
(rows, p_pc + 1) designs, so PCR makes no second copy of them: the
components are scaled in place, the designs are written straight into
their final arrays, and the (p_pc + 1, n) solver is formed only when asked
for. Each gives the same bits as the plain expression it replaces.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularDesignError, ValidationError


def svd_cutoff(s: np.ndarray, shape: tuple[int, int]) -> float:
    """Relative rank tolerance: max(n, p) * eps * largest singular value."""
    if s.size == 0:
        return 0.0
    return max(shape) * np.finfo(float).eps * float(s.max())


def _masked_inverse(s: np.ndarray, cutoff: float) -> np.ndarray:
    inv = np.zeros_like(s)
    keep = s > cutoff
    inv[keep] = 1.0 / s[keep]
    return inv


# --------------------------------------------------------------------------- fit objects


@dataclass
class PcrSmoother:
    """The y-independent half of a PCR fit.

    Holds the standardization + projection pipeline and what the
    pseudo-inverse of [Z, 1] needs (the training design and its inverse
    squared column norms), so weight matrices and fits for many target
    vectors at once can be produced without refactoring the design per
    target. The solver is formed on demand, not stored: a sweep point uses
    it once, through ``coefficients``.
    """

    mean: np.ndarray          # per kept column
    std: np.ndarray           # per kept column
    kept: np.ndarray          # boolean mask over original columns
    components: np.ndarray    # (p_kept, p_pc) right singular vectors
    train_design: np.ndarray  # (n, p_pc + 1) projected columns + intercept
    sa_inv_sq: np.ndarray     # (p_pc + 1,) 1 / column norm^2 of [Z, 1]; 0 past the cutoff
    tolerance: float
    rank: int

    def scale(self, Phi0: np.ndarray) -> np.ndarray:
        """The kept columns of raw queries, standardized with the training
        means and scales."""
        Phi0 = np.atleast_2d(np.asarray(Phi0, dtype=float))
        if Phi0.shape[1] != self.kept.size:
            raise ValidationError(
                f"query has {Phi0.shape[1]} columns, design had {self.kept.size}"
            )
        return (Phi0[:, self.kept] - self.mean) / self.std

    def design(self, Phi0: np.ndarray) -> np.ndarray:
        return self.standardized_design(self.scale(Phi0))

    def standardized_design(self, Xs0: np.ndarray) -> np.ndarray:
        """Projection coefficients [Z0, 1] of queries already standardized
        like ``scale`` does (kept columns only), shape (m, p_pc + 1)."""
        if Xs0.shape[1] != self.components.shape[0]:
            raise ValidationError(
                f"standardized query has {Xs0.shape[1]} columns, "
                f"the fit kept {self.components.shape[0]}"
            )
        return _project(Xs0, self.components)

    @property
    def solver(self) -> np.ndarray:
        """(p_pc + 1, n) pseudo-inverse of [Z, 1]: beta = solver @ y."""
        return (self.train_design * self.sa_inv_sq).T

    def weight_matrix(self, Phi0: np.ndarray) -> np.ndarray:
        return self.design(Phi0) @ self.solver

    def hat_matrix(self) -> np.ndarray:
        return self.train_design @ self.solver

    def sq_norms(self, A0: np.ndarray) -> np.ndarray:
        """||s(x0)||^2 of each row a0 of A0, projected queries as ``design``
        or ``standardized_design`` return them, without forming the weights.

        The weight row a0 diag(sa_inv_sq) A' has squared norm
        a0 diag(sa_inv_sq) A'A diag(sa_inv_sq) a0', and A'A is diagonal with
        entries 1 / sa_inv_sq on the kept columns, so it is
        sum_j a0_j^2 sa_inv_sq_j. It differs from the explicit rows only by
        A's rounding away from orthogonality, of order
        eps * sigma_1^2 / sigma_j^2 relative in component j.
        """
        return (A0 * A0) @ self.sa_inv_sq

    def coefficients(self, y: np.ndarray) -> np.ndarray:
        return self.solver @ np.asarray(y, dtype=float)


@dataclass
class LinearFit:
    """A fitted linear smoother; mode is one of ols / min_norm / svd_basis / pcr."""

    mode: str
    coefficients: np.ndarray
    train_design: np.ndarray
    fitted_values: np.ndarray
    tolerance: float
    rank: int
    rank_deficient: bool = False
    pcr: PcrSmoother | None = None  # the pipeline a pcr-mode fit delegates to
    # compact SVD factors of the (possibly transformed) design
    _U: np.ndarray = field(default=None, repr=False)
    _s_inv: np.ndarray = field(default=None, repr=False)
    _Vt: np.ndarray = field(default=None, repr=False)

    @property
    def n_train(self) -> int:
        return self.train_design.shape[0]

    def train_predictions(self) -> np.ndarray:
        return self.fitted_values

    # -- prediction path (through the coefficients) -------------------------

    def predict(self, Phi0: np.ndarray) -> np.ndarray:
        Phi0 = self._check_query(Phi0)
        if self.mode == "svd_basis":
            B0 = Phi0 @ self._Vt.T
            return B0 @ self.coefficients
        if self.mode == "pcr":
            return self.pcr.design(Phi0) @ self.coefficients
        return Phi0 @ self.coefficients

    # -- weight path (rows of the smoother matrix) --------------------------

    def weight_matrix(self, Phi0: np.ndarray) -> np.ndarray:
        """Rows s(x0) for each row of Phi0, shape (m, n_train)."""
        Phi0 = self._check_query(Phi0)
        if self.mode == "pcr":
            return self.pcr.weight_matrix(Phi0)
        return ((Phi0 @ self._Vt.T) * self._s_inv) @ self._U.T

    def hat_matrix(self) -> np.ndarray:
        """Smoother matrix at the training points (n, n).

        For the SVD-backed modes the training rows reduce exactly to the
        orthogonal projection U U' onto the fitted column space.
        """
        if self.mode == "pcr":
            return self.pcr.hat_matrix()
        U = self._U[:, : self.rank]
        return U @ U.T

    def _check_query(self, Phi0: np.ndarray) -> np.ndarray:
        Phi0 = np.atleast_2d(np.asarray(Phi0, dtype=float))
        p = self.train_design.shape[1]
        if Phi0.shape[1] != p:
            raise ValidationError(f"query has {Phi0.shape[1]} columns, design had {p}")
        return Phi0


# --------------------------------------------------------------------------- fits


def fit_ols(Phi: np.ndarray, y: np.ndarray) -> LinearFit:
    """Ordinary least squares; requires p < n and full column rank."""
    Phi, y = _check_design(Phi, y)
    n, p = Phi.shape
    if p >= n:
        raise ValidationError(f"fit_ols needs p < n, got p={p}, n={n}")
    U, s, Vt = np.linalg.svd(Phi, full_matrices=False)
    cut = svd_cutoff(s, Phi.shape)
    if s[-1] <= cut:
        raise SingularDesignError(
            f"design is rank deficient: smallest singular value {s[-1]:.3e} "
            f"<= cutoff {cut:.3e}"
        )
    s_inv = 1.0 / s
    beta = Vt.T @ (s_inv * (U.T @ y))
    return LinearFit(
        mode="ols", coefficients=beta, train_design=Phi,
        fitted_values=Phi @ beta, tolerance=cut, rank=p,
        _U=U, _s_inv=s_inv, _Vt=Vt,
    )


def fit_minnorm(Phi: np.ndarray, y: np.ndarray) -> LinearFit:
    """Minimum-norm interpolant beta = Phi'(Phi Phi')^-1 y; requires p >= n.

    When rank(Phi) < n the pseudo-inverse solution is returned and the fit is
    flagged rank_deficient.
    """
    Phi, y = _check_design(Phi, y)
    n, p = Phi.shape
    if p < n:
        raise ValidationError(f"fit_minnorm needs p >= n, got p={p}, n={n}")
    U, s, Vt = np.linalg.svd(Phi, full_matrices=False)
    cut = svd_cutoff(s, Phi.shape)
    rank = int(np.count_nonzero(s > cut))
    s_inv = _masked_inverse(s, cut)
    beta = Vt.T @ (s_inv * (U.T @ y))
    return LinearFit(
        mode="min_norm", coefficients=beta, train_design=Phi,
        fitted_values=Phi @ beta, tolerance=cut, rank=rank,
        rank_deficient=rank < n, _U=U, _s_inv=s_inv, _Vt=Vt,
    )


def fit_svd_basis(Phi: np.ndarray, y: np.ndarray) -> LinearFit:
    """Least squares on the rotated basis B = U S from the compact SVD.

    Predictions for a new point use b(x0) = V' phi(x0); on that basis the fit
    is plain least squares, and it reproduces the minimum-norm predictions.
    """
    Phi, y = _check_design(Phi, y)
    U, s, Vt = np.linalg.svd(Phi, full_matrices=False)
    cut = svd_cutoff(s, Phi.shape)
    rank = int(np.count_nonzero(s > cut))
    s_inv = _masked_inverse(s, cut)
    beta = s_inv * (U.T @ y)  # solves (U S) beta = y in the least-squares sense
    return LinearFit(
        mode="svd_basis", coefficients=beta, train_design=Phi,
        fitted_values=U @ (s * beta), tolerance=cut, rank=rank,
        rank_deficient=rank < min(Phi.shape), _U=U, _s_inv=s_inv, _Vt=Vt,
    )


def standardize(Phi: np.ndarray):
    """Center and scale the columns, dropping zero-variance ones.

    Returns (Xs, mean, std, kept): the standardized kept columns, their means
    and scales, and the boolean kept-column mask. A column is kept when its
    scale exceeds 1e-12 * max(1, max |Phi|); every statistic is per column,
    so for a design with |Phi| <= 1 each column's values, mean, scale and
    mask are the same whichever other columns are standardized with it.
    """
    mean_all = Phi.mean(axis=0)
    std_all = Phi.std(axis=0)
    kept = std_all > 1e-12 * max(1.0, float(np.abs(Phi).max()))
    std = std_all[kept]
    return (Phi[:, kept] - mean_all[kept]) / std, mean_all[kept], std, kept


def pcr_smoother(Phi: np.ndarray, p_pc: int, scaling=None) -> PcrSmoother:
    """Fit the target-independent part of principal-component regression.

    Pipeline: standardize the columns (see ``standardize``), project onto the
    top p_pc principal directions, append an intercept column, and form the
    cutoff pseudo-inverse of that (p_pc + 1)-column system. Near-square
    designs are legitimately ill-conditioned here; their variance blow-up is
    something we measure rather than reject.

    A caller that has standardized the design already passes it as Phi with
    ``scaling = (mean, std, kept)`` as ``standardize`` returns them: Phi
    keeps every original column, those ``kept`` selects hold the
    standardized values, and the others are ignored. The fit is then the one
    the raw design would give, and raw queries still go through
    ``weight_matrix``.

    The principal directions come from one symmetric eigendecomposition of
    the Gram matrix of the design's shorter side, Xs Xs' (n x n) when p >= n
    and Xs' Xs (p x p) otherwise: sigma = sqrt(lambda), and the other factor
    is one product away (V = Xs' U / sigma, or U = Xs V / sigma). The
    training design is Z = Xs V, formed as for a query: the wide-case
    shortcut U sigma differs from Xs V by the eigenvector rounding divided by
    sigma, which breaks the weights-reproduce-fitted-values identity for
    small kept sigma. The centered columns Z = U sigma are orthogonal to the
    intercept, so [Z, 1] has orthogonal columns with norms {sigma, sqrt(n)}
    and its pseudo-inverse is [Z' / sigma^2 ; 1' / n] in closed form. The
    smoother keeps those inverse squared norms as ``sa_inv_sq``, so the
    squared norm of a query's weight row is sum_j a0_j^2 sa_inv_sq_j over
    its projection coefficients a0 (``PcrSmoother.sq_norms``); this is the
    degrees-of-freedom identity of projection smoothers, and p0 read this
    way needs no (m, n) weight matrix.

    Gram eigenvalues carry an absolute rounding error of about
    max(n, p) * eps * lambda_1, so a sigma below sqrt(max(n, p) * eps) *
    sigma_1 cannot be told from zero. The rank cutoff is the larger of that
    floor and ``svd_cutoff`` of [Z, 1]; without the floor, components past
    the numerical rank (duplicated columns, say) would be inverted as noise.
    """
    Phi = np.asarray(Phi, dtype=float)
    if Phi.ndim != 2:
        raise ValidationError(f"design must be 2-d, got shape {Phi.shape}")
    if not np.isfinite(Phi).all():
        raise ValidationError("design contains non-finite values")
    n, p = Phi.shape
    if not (1 <= p_pc <= min(n - 1, p)):
        raise ValidationError(
            f"p_pc must be in [1, min(n-1, p)] = [1, {min(n - 1, p)}], got {p_pc}"
        )
    if scaling is None:
        Xs, mean, std, kept = standardize(Phi)
    else:
        mean, std, kept = scaling
        if kept.shape != (p,):
            raise ValidationError(f"kept mask has shape {kept.shape}, design has {p} columns")
        Xs = Phi if kept.all() else Phi[:, kept]
    if not kept.all():
        warnings.warn(
            f"dropping {int((~kept).sum())} zero-variance column(s) before PCA",
            stacklevel=2,
        )
    if not kept.any():
        raise ValidationError("all columns have zero variance")
    wide = Xs.shape[1] >= n
    lam, Q = np.linalg.eigh(Xs @ Xs.T if wide else Xs.T @ Xs)
    k = min(p_pc, lam.size)
    top = Q[:, ::-1][:, :k]
    sigma = np.sqrt(np.maximum(lam[::-1][:k], 0.0))
    sa = np.append(sigma, np.sqrt(n))  # column norms of [Z, 1]
    floor = np.sqrt(max(Xs.shape) * np.finfo(float).eps) * sigma[0]
    cut = max(svd_cutoff(sa, (n, k + 1)), floor)
    sa_inv = _masked_inverse(sa, cut)
    if wide:
        components = Xs.T @ top
        components *= sa_inv[:k]
        del Q, top  # the (n, n) eigenvectors are not needed past here
    else:
        components = top
    # the training design goes through the same product as a query, so the
    # fitted values equal the training-input weights times y to rounding
    return PcrSmoother(
        mean=mean, std=std, kept=kept, components=components,
        train_design=_project(Xs, components), sa_inv_sq=sa_inv**2,
        tolerance=cut, rank=int(np.count_nonzero(sa > cut)),
    )


def _project(Xs: np.ndarray, components: np.ndarray) -> np.ndarray:
    """[Xs @ components, 1], with the product written straight into the
    first columns of the result: a strided ``out`` gives the same bits as
    the product on its own, and no (rows, k) temporary is copied."""
    k = components.shape[1]
    A = np.empty((Xs.shape[0], k + 1))
    np.matmul(Xs, components, out=A[:, :k])
    A[:, k] = 1.0
    return A


def fit_pcr(Phi: np.ndarray, y: np.ndarray, p_pc: int) -> LinearFit:
    """Principal-component regression with an appended intercept.

    See pcr_smoother for the pipeline; this adds the solve for one target
    vector and wraps everything as a LinearFit that delegates to it.
    """
    Phi, y = _check_design(Phi, y)
    sm = pcr_smoother(Phi, p_pc)
    beta = sm.coefficients(y)
    return LinearFit(
        mode="pcr", coefficients=beta, train_design=Phi,
        fitted_values=sm.train_design @ beta, tolerance=sm.tolerance,
        rank=sm.rank,
        rank_deficient=sm.rank < sm.train_design.shape[1],
        pcr=sm,
    )


def _check_design(Phi, y):
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if Phi.ndim != 2:
        raise ValidationError(f"design must be 2-d, got shape {Phi.shape}")
    if y.shape != (Phi.shape[0],):
        raise ValidationError(
            f"targets shape {y.shape} does not match n={Phi.shape[0]}"
        )
    if not np.isfinite(Phi).all() or not np.isfinite(y).all():
        raise ValidationError("design or targets contain non-finite values")
    return Phi, y
