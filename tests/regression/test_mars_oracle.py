"""Oracle tests: the cached MARS passes against the straightforward ones.

``_reference_forward_pass`` and ``_reference_backward_pass`` (with its
``fit_subset``) are the passes the cached implementation replaced, kept
here verbatim: the forward pass re-derived every (parent, feature)
candidate block on every iteration and re-evaluated the whole basis
matrix after each accepted pair; the backward pass re-evaluated the basis
matrix of every trial subset.  ``fit_mars`` must reproduce them bit for
bit: the same bases, and the same coefficients, GCV and training RSS.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.regression import fit_mars
from repro.regression.hinge import (
    INTERCEPT_BASIS,
    BasisFunction,
    Hinge,
    evaluate_bases,
)
from repro.regression.mars import (
    _backward_pass,
    _forward_pass,
    _gcv,
    _knot_candidates,
    _pair_rss_reductions,
)


def _reference_forward_pass(
    design: np.ndarray,
    response: np.ndarray,
    max_degree: int,
    max_terms: int,
    n_knot_candidates: int,
    min_rss_decrease: float,
) -> list[BasisFunction]:
    n_samples = design.shape[0]
    n_features = design.shape[1]
    bases: list[BasisFunction] = [INTERCEPT_BASIS]
    basis_matrix = np.ones((n_samples, 1))
    q_matrix, _ = np.linalg.qr(basis_matrix)
    residual = response - q_matrix @ (q_matrix.T @ response)
    rss = float(residual @ residual)
    total_ss = max(rss, 1e-10)

    feature_columns = [design[:, j] for j in range(n_features)]
    feature_is_constant = [
        bool(np.all(column == column[0])) for column in feature_columns
    ]

    while len(bases) + 2 <= max_terms:
        best = None  # (reduction, parent_index, feature, knot)
        for parent_index, parent in enumerate(bases):
            if parent.degree >= max_degree:
                continue
            parent_values = basis_matrix[:, parent_index]
            for feature in range(n_features):
                if feature_is_constant[feature] or parent.involves(feature):
                    continue
                column = feature_columns[feature]
                knots = _knot_candidates(
                    column, parent_values, n_knot_candidates
                )
                if knots.size == 0:
                    continue
                plus = parent_values[:, None] * np.maximum(
                    column[:, None] - knots[None, :], 0.0
                )
                minus = parent_values[:, None] * np.maximum(
                    knots[None, :] - column[:, None], 0.0
                )
                reductions = _pair_rss_reductions(
                    q_matrix, residual, plus, minus
                )
                local_best = int(np.argmax(reductions))
                reduction = float(reductions[local_best])
                if best is None or reduction > best[0]:
                    best = (
                        reduction,
                        parent_index,
                        feature,
                        float(knots[local_best]),
                    )

        if best is None or best[0] < min_rss_decrease * total_ss:
            break

        _, parent_index, feature, knot = best
        parent = bases[parent_index]
        new_plus = parent.extended(Hinge(feature=feature, knot=knot, sign=+1))
        new_minus = parent.extended(Hinge(feature=feature, knot=knot, sign=-1))
        for new_basis in (new_plus, new_minus):
            bases.append(new_basis)
        basis_matrix = evaluate_bases(bases, design)
        q_matrix, _ = np.linalg.qr(basis_matrix)
        residual = response - q_matrix @ (q_matrix.T @ response)
        new_rss = float(residual @ residual)
        if rss - new_rss < min_rss_decrease * total_ss:
            # The exact refit confirms no useful progress; undo and stop.
            bases = bases[:-2]
            break
        rss = new_rss

    return bases


def _reference_backward_pass(
    design: np.ndarray,
    response: np.ndarray,
    bases: list[BasisFunction],
    penalty: float,
) -> tuple[list[BasisFunction], np.ndarray, float, float]:
    """Prune bases to minimize GCV; returns (bases, coefficients, gcv, rss)."""
    n_samples = design.shape[0]

    def fit_subset(
        subset: list[BasisFunction],
    ) -> tuple[np.ndarray, float]:
        matrix = evaluate_bases(subset, design)
        coefficients, _, _, _ = np.linalg.lstsq(matrix, response, rcond=None)
        residual = response - matrix @ coefficients
        rss = float(residual @ residual)
        return coefficients, rss

    current = list(bases)
    coefficients, rss = fit_subset(current)
    best_bases = list(current)
    best_coefficients = coefficients
    best_rss = rss
    best_gcv = _gcv(rss, n_samples, len(current), penalty)

    while len(current) > 1:
        trial_best = None  # (gcv, index, coefficients, rss)
        for index in range(1, len(current)):  # never drop the intercept
            subset = current[:index] + current[index + 1:]
            subset_coefficients, subset_rss = fit_subset(subset)
            subset_gcv = _gcv(subset_rss, n_samples, len(subset), penalty)
            if trial_best is None or subset_gcv < trial_best[0]:
                trial_best = (subset_gcv, index, subset_coefficients, subset_rss)
        if trial_best is None:
            break
        gcv_value, index, coefficients, rss = trial_best
        current = current[:index] + current[index + 1:]
        if gcv_value < best_gcv:
            best_gcv = gcv_value
            best_bases = list(current)
            best_coefficients = coefficients
            best_rss = rss

    return best_bases, best_coefficients, best_gcv, best_rss


def _problem(seed, n, p, decimals, n_constant, n_sparse):
    """A random design and a hinge-shaped response.

    ``decimals`` rounds the design so candidate knots tie; constant
    columns are skipped by the forward pass; a sparse column (zero except
    one sample) yields no knots at all once ``n`` exceeds 20.  Column 0
    stays live unless ``p`` is 1 and a column is asked to be constant or
    sparse.
    """
    rng = np.random.default_rng(seed)
    design = rng.uniform(-2.0, 2.0, size=(n, p)) * rng.uniform(0.5, 20.0, p)
    if decimals is not None:
        design = np.round(design, decimals)
    columns = np.append(rng.permutation(np.arange(1, p)), 0)
    for j in columns[:n_constant]:
        design[:, j] = rng.uniform(-3.0, 3.0)
    for j in columns[n_constant:n_constant + n_sparse]:
        design[:, j] = 0.0
        design[rng.integers(n), j] = 1.0
    response = rng.normal(0.0, 0.5, n) + 3.0
    for j in range(p):
        knot = np.median(design[:, j])
        response += rng.normal() * np.maximum(design[:, j] - knot, 0.0)
        response += rng.normal() * np.maximum(knot - design[:, j], 0.0)
    if p > 1:
        response += rng.normal() * design[:, 0] * design[:, 1] / 10.0
    return design, response


problems = st.builds(
    _problem,
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(8, 60), st.integers(61, 600)),
    p=st.integers(1, 8),
    decimals=st.one_of(st.none(), st.integers(0, 1)),
    n_constant=st.integers(0, 2),
    n_sparse=st.integers(0, 2),
)

# A fit whose output moves when the backward pass hands the F-ordered
# column selection to ``matrix @ coefficients`` instead of a C-ordered copy.
_PINNED = _problem(seed=5, n=300, p=4, decimals=None, n_constant=0, n_sparse=0)


def _assert_same_model(model, bases, coefficients, gcv, rss):
    assert model.bases == tuple(bases)
    assert np.array_equal(model.coefficients, coefficients)
    assert model.gcv == gcv
    assert model.training_rss == rss


class TestMarsOracle:
    @given(
        problem=problems,
        max_degree=st.sampled_from([1, 2]),
        max_terms=st.integers(3, 17),
    )
    @example(problem=_PINNED, max_degree=1, max_terms=17)
    @example(problem=_PINNED, max_degree=2, max_terms=17)
    @settings(max_examples=150, deadline=None)
    def test_fit_is_bit_identical(self, problem, max_degree, max_terms):
        design, response = problem
        forward_args = dict(
            max_degree=max_degree,
            max_terms=max_terms,
            n_knot_candidates=12,
            min_rss_decrease=1e-5,
        )
        expected_bases = _reference_forward_pass(
            design, response, **forward_args
        )
        assert _forward_pass(design, response, **forward_args) == (
            expected_bases
        )
        expected = _reference_backward_pass(
            design, response, expected_bases, penalty=3.0
        )
        actual = _backward_pass(design, response, expected_bases, penalty=3.0)
        assert actual[0] == expected[0]
        assert np.array_equal(actual[1], expected[1])
        assert actual[2:] == expected[2:]

        model = fit_mars(
            design, response, max_degree=max_degree, max_terms=max_terms
        )
        _assert_same_model(model, *expected)

    def test_design_without_knots_fits_the_intercept(self):
        design, response = _problem(
            seed=3, n=40, p=3, decimals=None, n_constant=1, n_sparse=2
        )
        model = fit_mars(design, response, max_degree=2)
        assert model.bases == (INTERCEPT_BASIS,)
        bases = _reference_forward_pass(
            design, response, 2, 17, 12, 1e-5
        )
        _assert_same_model(
            model, *_reference_backward_pass(design, response, bases, 3.0)
        )
