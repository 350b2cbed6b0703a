"""Oracle tests: the fast lasso kernel against the textbook loop.

``_reference_coordinate_descent`` (and the ``_standardize`` /
``max_alpha`` pair it was set up with) is the straightforward
numpy-scalar implementation the optimized kernel replaced, kept here
verbatim.  The kernel must reproduce it bit for bit: same ``beta`` bits,
same iteration count, same convergence flag.  The path properties pin the
``max_features`` cut: a capped path is the exact prefix of the uncapped
one and ends at the first entry over the cap.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regression import fit_lasso_path, max_alpha, soft_threshold
from repro.regression.lasso import _coordinate_descent, _covariance_form


def _reference_standardize(design):
    """Center/scale columns; constant columns get unit scale (and zero z)."""
    mean = design.mean(axis=0)
    scale = design.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return (design - mean) / scale, mean, scale


def _reference_max_alpha(design, response):
    """Smallest penalty that zeroes every coefficient (path entry point)."""
    design = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    z, _, _ = _reference_standardize(design)
    centered = y - y.mean()
    n = y.size
    return float(np.max(np.abs(z.T @ centered)) / n) if design.size else 0.0


def _reference_coordinate_descent(
    gram,
    correlations,
    column_norms,
    alpha,
    beta0,
    max_iterations,
    tolerance,
):
    """Covariance-form cyclic coordinate descent."""
    p = correlations.size
    beta = beta0.copy()
    gradient = correlations - gram @ beta  # c - G beta
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        max_delta = 0.0
        for j in range(p):
            norm = column_norms[j]
            if norm == 0.0:
                continue  # constant column: never selected
            old = beta[j]
            rho = gradient[j] + norm * old
            new = soft_threshold(rho, alpha) / norm
            if new != old:
                delta = new - old
                gradient -= gram[:, j] * delta
                beta[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta < tolerance:
            converged = True
            break
    return beta, iteration, converged


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _problem(seed, n, p, n_constant, n_copies):
    """A random design with constant and near-duplicate columns."""
    rng = np.random.default_rng(seed)
    design = rng.normal(size=(n, p)) * rng.uniform(0.1, 50.0, size=p)
    for j in range(min(n_copies, p - 1)):
        # Near-collinear pairs make coordinate descent take many sweeps.
        design[:, j + 1] = design[:, j] * 2.0 + rng.normal(0, 0.01, n)
    for j in rng.choice(p, size=min(n_constant, p), replace=False):
        design[:, j] = rng.uniform(-3.0, 3.0)
    weights = rng.normal(size=p) * (rng.uniform(size=p) < 0.5)
    response = design @ weights + rng.normal(0, 1.0, n) + 4.0
    return design, response


problems = st.builds(
    _problem,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 60),
    p=st.integers(1, 10),
    n_constant=st.integers(0, 3),
    n_copies=st.integers(0, 3),
)


class TestKernelOracle:
    @given(
        problem=problems,
        alpha_fraction=st.floats(0.0, 1.0),
        warm_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        max_iterations=st.integers(1, 200),
    )
    @settings(max_examples=200, deadline=None)
    def test_kernel_is_bit_identical(
        self, problem, alpha_fraction, warm_seed, max_iterations
    ):
        design, response = problem
        _, _, _, gram, correlations, column_norms = _covariance_form(
            design, response
        )
        p = design.shape[1]
        alpha = alpha_fraction * max_alpha(design, response)
        if warm_seed is None:
            beta0 = np.zeros(p)
        else:
            beta0 = np.random.default_rng(warm_seed).normal(size=p)
        args = dict(
            gram=gram,
            correlations=correlations,
            column_norms=column_norms,
            alpha=alpha,
            max_iterations=max_iterations,
            tolerance=1e-7,
        )
        expected = _reference_coordinate_descent(beta0=beta0.copy(), **args)
        actual = _coordinate_descent(beta0=beta0.copy(), **args)
        assert _bits(actual[0]) == _bits(expected[0])
        assert actual[1:] == expected[1:]

    @given(problem=problems)
    @settings(max_examples=100, deadline=None)
    def test_max_alpha_and_alphas_are_bit_identical(self, problem):
        design, response = problem
        top = _reference_max_alpha(design, response)
        assert _bits([max_alpha(design, response)]) == _bits([top])
        path = fit_lasso_path(design, response)
        if top > 0:
            expected = top * np.geomspace(1.0, 1e-3, 30)
            assert _bits(path.alphas) == _bits(expected)


def _same_fit(a, b):
    return (
        _bits(a.coefficients) == _bits(b.coefficients)
        and _bits([a.intercept, a.alpha]) == _bits([b.intercept, b.alpha])
        and a.n_iterations == b.n_iterations
        and a.converged == b.converged
    )


class TestCappedPath:
    @given(problem=problems, max_features=st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_capped_path_is_the_prefix_up_to_the_cut(
        self, problem, max_features
    ):
        design, response = problem
        full = fit_lasso_path(design, response)
        capped = fit_lasso_path(design, response, max_features=max_features)

        m = len(capped.fits)
        assert len(capped.alphas) == len(capped.bics) == m
        assert 1 <= m <= len(full.fits)
        assert _bits(capped.alphas) == _bits(full.alphas[:m])
        assert all(_same_fit(a, b) for a, b in zip(capped.fits, full.fits))

        sizes = [len(fit.selected) for fit in capped.fits]
        # Every entry before the last is within the cap ...
        assert all(size <= max_features for size in sizes[:-1])
        assert _bits(capped.bics[:-1]) == _bits(full.bics[: m - 1])
        if sizes[-1] > max_features:
            # ... and the path stops at the first entry over it.
            assert capped.bics[-1] == np.inf
        else:
            assert m == len(full.fits)
            assert _bits(capped.bics) == _bits(full.bics)
        assert len(capped.best.selected) <= max_features or m == 1

    def test_uncapped_path_fits_every_alpha(self):
        rng = np.random.default_rng(11)
        design = rng.normal(size=(80, 12))
        response = design @ rng.normal(size=12)
        path = fit_lasso_path(design, response, n_alphas=17)
        assert len(path.fits) == len(path.alphas) == len(path.bics) == 17
        assert np.all(np.isfinite(path.bics))
