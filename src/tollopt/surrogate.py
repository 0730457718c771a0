"""Ordinary and regressing kriging with reinterpolation error and cross-validation.

The model works on inputs normalized to the unit cube and on responses
standardized to zero mean / unit variance; predictions are mapped back to the
original response units on output.  The Gaussian correlation kernel is

    psi(x, x') = exp(-sum_l theta_l (x_l - x'_l)^2)

and regularization adds a constant ``lambda`` to the correlation-matrix
diagonal, turning the interpolator into a regressor.  The reinterpolation
variance makes the prediction error vanish at every sampled point even when
``lambda > 0``, which keeps expected-improvement search from re-proposing
already-sampled points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .ga import GAParams, ga_maximize
from .toll import Bounds

JITTER_START = 1e-10
JITTER_MAX = 1e-6

THETA_BOUNDS = (1e-3, 1e2)
DEFAULT_LAMBDA_BOUNDS = (1e-6, 1.0)


class NumericalError(RuntimeError):
    """Matrix factorization failed even after the maximum diagonal jitter."""

    def __init__(self, message: str):
        super().__init__(f"{message} (last jitter attempted: {JITTER_MAX:g})")


def _cholesky_with_jitter(a: np.ndarray, strict: bool = False) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, escalating diagonal jitter from 0 up to 1e-6.

    In strict mode a factorization that only succeeds because the jitter
    itself props up a rank-deficient matrix (smallest pivot on the order of
    the jitter) still counts as a failure; jitter is allowed to cure roundoff
    indefiniteness, not singularity.  Used on the likelihood path so the
    hyperparameter search steers clear of degenerate correlation structures.
    """
    n = a.shape[0]
    jitter = 0.0
    while True:
        try:
            chol = np.linalg.cholesky(a + jitter * np.eye(n))
            if strict and jitter > 0.0 and float(np.min(np.diag(chol))) ** 2 <= 100.0 * jitter:
                raise np.linalg.LinAlgError("pivot dominated by jitter")
            return chol, jitter
        except np.linalg.LinAlgError:
            jitter = JITTER_START if jitter == 0.0 else jitter * 10.0
            if jitter > JITTER_MAX * (1.0 + 1e-12):
                raise NumericalError("correlation matrix not positive definite")


def _bordered_cholesky(a: np.ndarray, borders: Sequence, lams: np.ndarray, strict: bool):
    """Lower factors of ``(P, n + k, n + k)`` stacked ``[[R, B^T], [B, cI]]``, whose
    last k rows start with ``(L^-1 B^T)^T`` (L the factor of R), and the mask
    of members that factored.  ``a`` holds Psi's lower triangle; this fills in
    R = Psi + lambda I, the k rows of B and c = 2|B|^2 / lambda + 1, which keeps
    the last k x k block positive definite as R's eigenvalues are at least
    lambda (a pinned lambda = 0 takes machine epsilon's bound).  A stack that
    will not factor falls back to R alone, member by member through
    :func:`_cholesky_with_jitter`, and the inverse of its transpose
    (:func:`_inverse_factor_t`); a failed member's factor is I.
    """
    k = len(borders)
    n = a.shape[-1] - k
    a[:, np.arange(n), np.arange(n)] = 1.0 + lams[:, None]
    for j, row in enumerate(borders):
        a[:, n + j, :n] = row
    c = 2.0 * np.sum(a[:, n:, :n] ** 2, axis=(1, 2)) / np.maximum(lams, np.finfo(float).eps)
    a[:, np.arange(n, n + k), np.arange(n, n + k)] = c[:, None] + 1.0
    ok = np.ones(len(a), dtype=bool)
    try:
        return np.linalg.cholesky(a), ok
    except np.linalg.LinAlgError:
        chol = np.broadcast_to(np.eye(n + k), a.shape).copy()
        for p, member in enumerate(a):
            try:
                chol[p, :n, :n], _ = _cholesky_with_jitter(member[:n, :n], strict)
            except NumericalError:
                ok[p] = False
        chol[:, n:, :n] = a[:, n:, :n] @ _inverse_factor_t(chol[:, :n, :n])
        return chol, ok


def _inverse_factor_t(chol: np.ndarray) -> np.ndarray:
    """``L^-T`` of lower factors ``L``, stacked or not: numpy's LU of the upper
    triangular ``L^T`` pivots nowhere, so this is back substitution, and the
    result is upper triangular and C-contiguous."""
    return np.linalg.inv(chol.mT)


def corr_vector(design: np.ndarray, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Correlations between query points ``x`` (k, d) and the design rows: (k, n);
    ``x = design`` gives the design's correlation matrix (no regularization)."""
    diff = x[:, None, :] - design[None, :, :]
    return np.exp(-np.einsum("kjl,l->kj", diff * diff, theta))


def _gls_profile(zy: np.ndarray, z1: np.ndarray, floor: float):
    """Generalized-least-squares ``(mu, L^-1 (y - mu), sigma2)`` from ``L^-1 y``
    and ``L^-1 1`` rows, L the lower Cholesky factor of R: ``mu`` from the
    2 x 2 form ``[y, 1]^T R^-1 [y, 1]``, ``sigma2 = |L^-1 (y - mu)|^2 / n``
    clamped below at ``floor``."""
    mu = np.vecdot(z1, zy) / np.vecdot(z1, z1)
    resid = zy - mu[..., None] * z1
    sigma2 = np.maximum(np.vecdot(resid, resid) / zy.shape[-1], floor)
    return mu, resid, sigma2


def log_likelihood(design: np.ndarray, y: np.ndarray, theta, lam) -> np.ndarray:
    """Concentrated Gaussian-process log-likelihood with mean and variance profiled out.

    Equals the multivariate-normal log-density of ``y`` with mean ``mu_hat``
    and covariance ``sigma2_hat * (Psi + lambda I)`` where both estimates are
    the closed-form maximizers; no constant terms are dropped.

    A ``(P, d)`` theta stack with ``(P,)`` lambdas gives ``(P,)`` values from one
    correlation stack and one stacked Cholesky of R bordered by ``[y, 1]``,
    which carries ``L^-1 [y, 1]`` (:func:`_bordered_cholesky`); a member that
    will not factor even through the strict jitter ladder scores ``-inf``.
    """
    design, y, theta, lam = (np.asarray(a, dtype=float) for a in (design, y, theta, lam))
    n, d = design.shape
    if n < 2 or y.shape != (n,) or not np.all(np.isfinite(y)):
        raise ValueError(f"need at least 2 sample points and one finite y per point, not {y.shape}")
    if theta.ndim != 2 or theta.shape[1] != d or not np.all((theta >= 0) & (theta < np.inf)):
        raise ValueError(f"theta must be a finite, nonnegative (P, {d}) stack, not {theta.shape}")
    if lam.shape != theta.shape[:1] or not np.all((lam >= 0) & (lam < np.inf)):
        raise ValueError(f"lam must be finite, nonnegative and {theta.shape[:1]}, not {lam.shape}")
    # np.linalg.cholesky reads only the lower triangle, so only it is built
    rows, cols = np.nonzero(np.tri(n, k=-1, dtype=bool))
    diff = design[rows] - design[cols]
    a = np.zeros((len(theta), n + 2, n + 2))
    a[:, rows, cols] = np.exp(-(theta @ (diff * diff).T))
    chol, ok = _bordered_cholesky(a, (y, 1.0), lam, strict=True)
    _, _, sigma2 = _gls_profile(chol[:, n, :n], chol[:, n + 1, :n], 1e-300)
    log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)[:, :n]), axis=1)
    return np.where(ok, -0.5 * (n * math.log(2.0 * math.pi) + n * np.log(sigma2) + n + log_det),
                    -np.inf)


@dataclass
class RKModel:
    """Fitted regressing-kriging state.

    ``design`` rows live in the unit cube of the toll box's k free
    dimensions, with one ``theta`` per column; ``y`` is in original response
    units.  ``mu_hat``, ``sigma2_hat`` and ``sigma2_ri`` are reported in
    original units as well.  The inverse Cholesky factors of R = Psi + lambda I
    and Psi are kept, transposed, so a prediction's variances are
    ``|L^-1 psi|^2`` terms (Rasmussen & Williams 2006, Alg. 2.1).
    """

    design: np.ndarray          # (n, k)
    y: np.ndarray               # (n,) original units
    theta: np.ndarray           # (k,)
    lam: float
    mu_hat: float
    sigma2_hat: float
    sigma2_ri: float
    y_shift: float
    y_scale: float
    # internal, standardized-space quantities
    _inv_r_t: np.ndarray = field(repr=False)    # L_R^-T, upper triangular
    _inv_psi_t: np.ndarray = field(repr=False)  # L_Psi^-T
    _weights: np.ndarray = field(repr=False)    # R^-1 (y_std - mu_std)
    _mu_std: float = field(repr=False)
    _sigma2_std: float = field(repr=False)
    _sigma2_ri_std: float = field(repr=False)

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def d(self) -> int:
        return self.design.shape[1]


@dataclass
class Prediction:
    """Predictive mean and error at a stack of query points, one entry per point."""

    mean: np.ndarray
    variance: np.ndarray
    ri_variance: np.ndarray


@dataclass
class CVRecord:
    """One leave-one-out fold: held-out observation vs refit-free prediction."""

    index: int
    observed: float
    predicted: float
    std_error: float
    standardized_residual: float
    degenerate: bool = False


def _standardize(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    shift = float(np.mean(y))
    scale = float(np.std(y))
    if scale < 1e-12:
        scale = 1.0
    return (y - shift) / scale, shift, scale


def _assemble(design: np.ndarray, y: np.ndarray, theta: np.ndarray, lam: float) -> RKModel:
    n = design.shape[0]
    y_std, shift, scale = _standardize(y)
    psi = corr_vector(design, theta, design)
    a = np.zeros((1, n + 2, n + 2))
    a[0, :n, :n] = psi
    chol, ok = _bordered_cholesky(a, (y_std, 1.0), np.array([lam]), strict=False)
    if not ok[0]:
        raise NumericalError("correlation matrix not positive definite")
    inv_r_t = _inverse_factor_t(chol[0, :n, :n])
    mu_std, resid, sigma2_std = _gls_profile(chol[0, n, :n], chol[0, n + 1, :n], 0.0)
    weights = inv_r_t @ resid
    sigma2_ri_std = max(float(weights @ psi @ weights) / n, 0.0)
    return RKModel(
        design=design,
        y=y.copy(),
        theta=np.asarray(theta, dtype=float).copy(),
        lam=float(lam),
        mu_hat=shift + scale * mu_std,
        sigma2_hat=scale ** 2 * sigma2_std,
        sigma2_ri=scale ** 2 * sigma2_ri_std,
        y_shift=shift,
        y_scale=scale,
        _inv_r_t=inv_r_t,
        _inv_psi_t=_inverse_factor_t(_cholesky_with_jitter(psi)[0]),
        _weights=weights,
        _mu_std=mu_std,
        _sigma2_std=sigma2_std,
        _sigma2_ri_std=sigma2_ri_std,
    )


def fit(
    x: np.ndarray,
    y: np.ndarray,
    bounds: Bounds,
    lambda_bounds: tuple[float, float] = DEFAULT_LAMBDA_BOUNDS,
    ga_params: Optional[GAParams] = None,
    *,
    rng: np.random.Generator,
) -> RKModel:
    """Fit a regressing-kriging model by GA maximization of the log-likelihood.

    ``x`` is an ``(n, 2m)`` stack of toll rows and ``y`` their ``(n,)``
    responses; the model's design is the rows' ``(n, k)`` coordinates in the
    unit cube of the box's free dimensions (``bounds.to_unit``), one theta
    per free dimension.  ``theta`` and ``lambda`` are searched in log10 space
    inside ``THETA_BOUNDS`` and ``lambda_bounds``; passing equal lambda bounds
    pins ``lambda`` (``(0, 0)`` gives an interpolating ordinary-kriging fit).
    Each GA generation, ``(P, k)`` or ``(P, k + 1)`` genes, is scored by one
    :func:`log_likelihood` call on its ``(P, k)`` theta stack and ``(P,)``
    lambdas; a candidate whose correlation matrix will not factor scores ``-inf``.
    """
    if len(x) < 2:
        raise ValueError("need at least 2 sample points")
    design, y = bounds.to_unit(x), np.asarray(y, dtype=float)
    if np.unique(design, axis=0).shape[0] < 2:
        raise ValueError("need at least 2 distinct sample points")
    k = design.shape[1]
    y_std, _, _ = _standardize(y)

    lam_fixed = lambda_bounds[0] == lambda_bounds[1]
    gene_bounds = [THETA_BOUNDS] * k + ([] if lam_fixed else [lambda_bounds])
    lower, upper = np.log10(np.array(gene_bounds, dtype=float)).T

    def decode(zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gene rows -> (P, k) thetas and (P,) lambdas; a pinned lambda has no gene."""
        return 10.0 ** zs[:, :k], np.full(len(zs), lambda_bounds[0]) if lam_fixed else 10.0 ** zs[:, k]

    with warnings.catch_warnings():
        # singular Psi at extreme theta is expected during the search
        warnings.simplefilter("ignore")
        best_z, _ = ga_maximize(lambda zs: log_likelihood(design, y_std, *decode(zs)),
                                (lower, upper), params=ga_params, rng=rng)
    theta, lam = decode(best_z[None])
    return _assemble(design, y, theta[0], float(lam[0]))


def fit_fixed(x: np.ndarray, y: np.ndarray, bounds: Bounds, theta, lam: float) -> RKModel:
    """Assemble a model on toll rows ``x`` and responses ``y`` at given hyperparameters:
    ``theta`` holds one value per free dimension of ``bounds``."""
    return _assemble(bounds.to_unit(x), np.asarray(y, dtype=float),
                     np.asarray(theta, dtype=float), float(lam))


def predict(model: RKModel, x) -> Prediction:
    """Predictive mean, variance, and reinterpolation variance at the rows of ``x``.

    ``x`` is a ``(k, d)`` stack of unit-cube points and each field a ``(k,)``
    array.  Querying outside the cube is allowed.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.d:
        raise ValueError(f"query points must be a (k, {model.d}) stack, not {x.shape}")
    psi = corr_vector(model.design, model.theta, x)           # (k, n)
    # vecdot and the (k, 1, n) @ (n, n) stack take each row on its own, so
    # each row predicts bit for bit what a stack of one predicts
    mean_std = model._mu_std + np.vecdot(psi, model._weights)
    rows = psi[:, None, :]
    z = (rows @ model._inv_r_t)[:, 0]                          # row i: L_R^-1 psi_i
    var_std = model._sigma2_std * (1.0 + model.lam - np.vecdot(z, z))
    z = (rows @ model._inv_psi_t)[:, 0]
    ri_std = model._sigma2_ri_std * (1.0 - np.vecdot(z, z))
    scale2 = model.y_scale ** 2
    mean = model.y_shift + model.y_scale * mean_std
    variance = np.maximum(var_std, 0.0) * scale2
    ri_variance = np.maximum(ri_std, 0.0) * scale2
    return Prediction(mean, variance, ri_variance)


def loo_cv(model: RKModel) -> list[CVRecord]:
    """Leave-one-out cross-validation holding ``theta`` and ``lambda`` fixed.

    Each fold refits only the profiled mean and variance on the remaining
    points and predicts the held-out observation with its standard error.
    Folds with singular reduced matrices or vanishing error are flagged
    degenerate rather than raising.
    """
    n = model.n
    if n < 3:
        raise ValueError("need at least 3 sample points for cross-validation")
    psi_full = corr_vector(model.design, model.theta, model.design)
    y_std = (model.y - model.y_shift) / model.y_scale
    # fold i keeps every row but i: column j of its index row is j, or j + 1 from i on
    keep = np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])
    # its R is bordered by y, 1 and the held-out point's correlations psi_i
    a = np.zeros((n, n + 2, n + 2))
    a[:, :n - 1, :n - 1] = psi_full[keep[:, :, None], keep[:, None, :]]
    chol, ok = _bordered_cholesky(a, (y_std[keep], 1.0, psi_full[keep, np.arange(n)[:, None]]),
                                  np.full(n, model.lam), strict=False)
    zy, z1, q = (chol[:, j, :n - 1] for j in range(n - 1, n + 2))
    mu, resid, sigma2 = _gls_profile(zy, z1, 0.0)
    # psi_i^T R^-1 (y - mu) = (L^-1 psi_i) . (L^-1 (y - mu))
    mean_std = mu + np.vecdot(q, resid)
    var_std = sigma2 * (1.0 + model.lam - np.vecdot(q, q))
    predicted = np.where(ok, model.y_shift + model.y_scale * mean_std, math.nan)
    std_err = np.where(ok, model.y_scale * np.sqrt(np.maximum(var_std, 0.0)), math.nan)
    degenerate = ~ok | (std_err <= 1e-300)
    resid = np.divide(model.y - predicted, std_err, out=np.full(n, math.nan), where=~degenerate)
    return [CVRecord(i, float(model.y[i]), float(predicted[i]), float(std_err[i]),
                     float(resid[i]), bool(degenerate[i])) for i in range(n)]
