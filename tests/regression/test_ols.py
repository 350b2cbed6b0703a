"""Tests for OLS with Wald statistics."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special, stats

import repro
from repro.regression import add_intercept, fit_ols


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestAddIntercept:
    def test_prepends_ones(self):
        design = np.array([[1.0, 2.0], [3.0, 4.0]])
        augmented = add_intercept(design)
        assert augmented.shape == (2, 3)
        assert np.all(augmented[:, 0] == 1.0)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            add_intercept(np.array([1.0, 2.0]))


class TestFitOLS:
    def test_recovers_known_coefficients(self, rng):
        design = rng.normal(size=(500, 3))
        response = 5.0 + design @ np.array([1.0, -2.0, 0.5])
        fit = fit_ols(design, response)
        assert fit.intercept == pytest.approx(5.0, abs=1e-8)
        assert fit.slopes == pytest.approx([1.0, -2.0, 0.5], abs=1e-8)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_fit_estimates_residual_variance(self, rng):
        design = rng.normal(size=(4000, 2))
        response = design @ np.array([1.0, 2.0]) + rng.normal(0, 0.5, 4000)
        fit = fit_ols(design, response)
        assert fit.residual_variance == pytest.approx(0.25, rel=0.1)

    def test_significant_feature_has_small_p_value(self, rng):
        design = rng.normal(size=(300, 2))
        response = 3.0 * design[:, 0] + rng.normal(0, 1.0, 300)
        fit = fit_ols(design, response)
        assert fit.p_values[1] < 1e-6  # real feature
        assert fit.p_values[2] > 0.01  # pure-noise feature

    def test_predict_matches_training_projection(self, rng):
        design = rng.normal(size=(100, 2))
        response = 1.0 + design @ np.array([2.0, -1.0])
        fit = fit_ols(design, response)
        assert fit.predict(design) == pytest.approx(response)

    def test_predict_validates_feature_count(self, rng):
        design = rng.normal(size=(50, 2))
        fit = fit_ols(design, design[:, 0])
        with pytest.raises(ValueError, match="features"):
            fit.predict(rng.normal(size=(10, 3)))

    def test_rank_deficient_design_still_fits(self, rng):
        base = rng.normal(size=(100, 1))
        design = np.hstack([base, 2.0 * base])  # exactly collinear
        response = base.ravel() * 3.0
        fit = fit_ols(design, response)
        assert fit.rank == 2  # intercept + one independent direction
        # Predictions remain exact even though coefficients are not unique.
        assert fit.predict(design) == pytest.approx(response, abs=1e-8)

    def test_too_few_samples_rejected(self, rng):
        with pytest.raises(ValueError, match="at least"):
            fit_ols(rng.normal(size=(2, 5)), np.zeros(2))

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="rows"):
            fit_ols(rng.normal(size=(10, 2)), np.zeros(9))


class TestPValueKernel:
    def test_stdtr_matches_the_t_survival_function(self):
        rng = np.random.default_rng(3)
        t = np.abs(
            np.concatenate(
                [
                    rng.standard_cauchy(5_000),
                    [0.0, np.inf, -np.inf, np.nan, 1e-300, 1e300],
                ]
            )
        )
        for dof in (1, 2, 3, 7, 30, 117, 1_000, 10**6):
            expected = 2.0 * stats.t.sf(t, df=dof)
            actual = 2.0 * special.stdtr(dof, -t)
            assert np.array_equal(actual, expected, equal_nan=True), dof

    def test_fit_p_values_are_the_t_survival_function(self, rng):
        for n, p in ((12, 1), (40, 4), (500, 9)):
            design = rng.normal(size=(n, p)) * rng.uniform(0.1, 1e6, p)
            response = design @ rng.normal(size=p) + rng.normal(0, 5.0, n)
            fit = fit_ols(design, response)
            finite = np.isfinite(fit.standard_errors)
            t = fit.coefficients[finite] / fit.standard_errors[finite]
            expected = 2.0 * stats.t.sf(np.abs(t), df=n - fit.rank)
            assert np.array_equal(fit.p_values[finite], expected)

    def test_runtime_imports_leave_scipy_stats_out(self):
        code = (
            "import sys\n"
            "import repro.dse, repro.serving, repro.selection\n"
            "assert 'scipy.stats' not in sys.modules\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            path
            for path in (
                os.path.dirname(os.path.dirname(repro.__file__)),
                env.get("PYTHONPATH"),
            )
            if path
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
