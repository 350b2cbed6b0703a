"""L1-regularized linear regression (lasso) by coordinate descent.

Step 3 of Algorithm 1 uses an L1 penalty to discard irrelevant counters in a
high-dimensional space before stepwise refinement.  We implement the
standard cyclic coordinate-descent solver on standardized predictors, plus a
geometric regularization path with BIC-based selection so callers do not
have to hand-tune the penalty per platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.arraysan import contracted


def soft_threshold(value: float, threshold: float) -> float:
    """The lasso shrinkage operator sign(v) * max(|v| - t, 0)."""
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


@dataclass(frozen=True)
class LassoFit:
    """A lasso solution on the original (unstandardized) scale."""

    intercept: float
    coefficients: np.ndarray
    alpha: float
    n_iterations: int
    converged: bool

    @property
    def selected(self) -> np.ndarray:
        """Indices of features with nonzero coefficients."""
        return np.flatnonzero(self.coefficients != 0.0)

    def predict(self, design: np.ndarray) -> np.ndarray:
        design = np.asarray(design, dtype=float)
        return self.intercept + design @ self.coefficients


# (mean, scale, y_mean, gram, correlations, column_norms)
_Problem = tuple[
    np.ndarray, np.ndarray, float, np.ndarray, np.ndarray, np.ndarray
]


def _covariance_form(design: np.ndarray, y: np.ndarray) -> _Problem:
    """Standardize and build the covariance-form problem in one place.

    Returns ``(mean, scale, y_mean, gram, correlations, column_norms)``
    with G = Z'Z/n, c = Z'(y - mean(y))/n and the diagonal of G.  Constant
    columns get unit scale (and zero z), hence a zero column norm.
    """
    n = y.size
    mean = design.mean(axis=0)
    scale = design.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    z = (design - mean) / scale
    y_mean = float(y.mean())
    gram = (z.T @ z) / n
    correlations = (z.T @ (y - y_mean)) / n
    return mean, scale, y_mean, gram, correlations, np.diag(gram).copy()


def _alpha_top(design: np.ndarray, correlations: np.ndarray) -> float:
    # max(|c_j|) for c = Z'y/n equals max(|Z'y|)/n bit for bit: correctly
    # rounded division by n is monotone.
    return float(np.max(np.abs(correlations))) if design.size else 0.0


def max_alpha(design: np.ndarray, response: np.ndarray) -> float:
    """Smallest penalty that zeroes every coefficient (path entry point)."""
    design = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    return _alpha_top(design, _covariance_form(design, y)[4])


def _coordinate_descent(
    gram: np.ndarray,
    correlations: np.ndarray,
    column_norms: np.ndarray,
    alpha: float,
    beta0: np.ndarray,
    max_iterations: int,
    tolerance: float,
) -> tuple[np.ndarray, int, bool]:
    """Covariance-form cyclic coordinate descent.

    Works on the Gram matrix G = Z'Z/n and correlations c = Z'y/n, so each
    coordinate update costs O(p) regardless of sample count — important
    because Algorithm 1 runs hundreds of lasso fits over pooled 1 Hz data.

    The inner loop runs on Python floats and updates the gradient in place
    through one scratch buffer.  It performs the same IEEE operations in the
    same order as the textbook loop (``soft_threshold``, then
    ``gradient -= G[:, j] * delta``), so results are identical bit for bit.
    """
    beta = beta0.tolist()
    gradient = correlations - gram @ beta0  # c - G beta
    # Constant columns (zero norm) are never selected: skip them up front.
    # Each entry carries G[:, j] as a contiguous row.
    active = [
        (j, norm, column)
        for j, (norm, column) in enumerate(
            zip(column_norms.tolist(), gram.T.copy())
        )
        if norm != 0.0
    ]
    buffer = np.empty_like(gradient)
    multiply, subtract = np.multiply, np.subtract
    read = gradient.item
    negative_alpha = -alpha
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        max_delta = 0.0
        for j, norm, column in active:
            old = beta[j]
            rho = read(j) + norm * old
            if rho > alpha:
                new = (rho - alpha) / norm
            elif rho < negative_alpha:
                new = (rho + alpha) / norm
            else:
                new = 0.0 / norm  # soft_threshold's 0.0, divided as before
            if new != old:
                delta = new - old
                # gradient -= column * delta, same two roundings, no
                # temporary (positional ``out`` skips keyword parsing).
                multiply(column, delta, buffer)
                subtract(gradient, buffer, gradient)
                beta[j] = new
                step = abs(delta)
                if step > max_delta:
                    max_delta = step
        if max_delta < tolerance:
            converged = True
            break
    return np.array(beta, dtype=float), iteration, converged


def _descend(
    problem: _Problem,
    alpha: float,
    beta0: np.ndarray,
    max_iterations: int = 1000,
    tolerance: float = 1e-7,
) -> tuple[LassoFit, np.ndarray]:
    """One coordinate-descent solve mapped back to the original scale."""
    mean, scale, y_mean, gram, correlations, column_norms = problem
    beta, n_iterations, converged = _coordinate_descent(
        gram, correlations, column_norms, alpha, beta0,
        max_iterations, tolerance,
    )
    coefficients = beta / scale
    fit = LassoFit(
        intercept=float(y_mean - mean @ coefficients),
        coefficients=coefficients,
        alpha=float(alpha),
        n_iterations=n_iterations,
        converged=converged,
    )
    return fit, beta


@contracted
def fit_lasso(
    design: np.ndarray,
    response: np.ndarray,
    alpha: float,
    max_iterations: int = 1000,
    tolerance: float = 1e-7,
) -> LassoFit:
    """Solve (1/2n)||y - b0 - Xb||^2 + alpha * ||b||_1 by coordinate descent.

    Predictors are standardized internally; the returned coefficients are on
    the original scale.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    if design.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    n, p = design.shape
    if y.shape[0] != n:
        raise ValueError("design and response lengths differ")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    problem = _covariance_form(design, y)
    return _descend(problem, alpha, np.zeros(p), max_iterations, tolerance)[0]


@dataclass(frozen=True)
class LassoPathResult:
    """The fit chosen from a regularization path plus the path itself.

    ``alphas``, ``bics`` and ``fits`` have one entry per *fitted* path
    entry.  Under a ``max_features`` cap the path ends at the first entry
    whose support exceeds the cap (kept, with BIC = inf), so these can be
    shorter than ``n_alphas``.
    """

    best: LassoFit
    alphas: np.ndarray
    bics: np.ndarray
    fits: tuple[LassoFit, ...]


def fit_lasso_path(
    design: np.ndarray,
    response: np.ndarray,
    n_alphas: int = 30,
    alpha_min_ratio: float = 1e-3,
    max_features: int | None = None,
) -> LassoPathResult:
    """Fit a geometric alpha path and pick the fit with the lowest BIC.

    ``max_features`` optionally caps model size, which mirrors the paper's
    goal of reducing to "on the order of 10" counters per machine.  Like
    glmnet's ``dfmax``, the path stops at the first entry selecting more
    features than the cap: that entry is kept with BIC = inf to mark the
    cut, and later (smaller) alphas are not fitted.  Warm starts make the
    fitted entries the exact prefix of the uncapped path; the cut changes
    the selection only if a later entry falls back under the cap *and*
    beats every BIC in the prefix.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    n, p = y.size, design.shape[1]
    problem = _covariance_form(design, y)
    alpha_top = _alpha_top(design, problem[4])
    if alpha_top <= 0:
        fit, _ = _descend(problem, alpha=0.0, beta0=np.zeros(p))
        return LassoPathResult(
            best=fit,
            alphas=np.array([0.0]),
            bics=np.array([0.0]),
            fits=(fit,),
        )

    alphas = alpha_top * np.geomspace(1.0, alpha_min_ratio, n_alphas)
    fits: list[LassoFit] = []
    bics: list[float] = []
    beta = np.zeros(p)
    for alpha in alphas:
        # Warm-start each path entry from the previous solution.
        fit, beta = _descend(problem, alpha=float(alpha), beta0=beta)
        residual = y - fit.predict(design)
        rss = float(residual @ residual)
        k = int(np.count_nonzero(fit.coefficients)) + 1
        bic = float(n * np.log(max(rss, 1e-12) / n) + k * np.log(n))
        over_cap = max_features is not None and k - 1 > max_features
        fits.append(fit)
        bics.append(np.inf if over_cap else bic)
        if over_cap:
            break

    best_index = int(np.argmin(bics))
    return LassoPathResult(
        best=fits[best_index],
        alphas=alphas[: len(fits)],
        bics=np.asarray(bics),
        fits=tuple(fits),
    )
