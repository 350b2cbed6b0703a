"""Tests for the streaming online power predictor."""

import numpy as np
import pytest

from repro.framework import OnlinePowerPredictor, StaleSampleError
from repro.models import (
    PlatformModel,
    QuadraticPowerModel,
    cluster_plus_lagged_frequency,
    pool_features,
)
from repro.models.featuresets import CPU_UTILIZATION_COUNTER, FREQUENCY_COUNTER
from repro.cluster import Cluster, execute_runs
from repro.platforms import CORE2
from repro.workloads import SortWorkload


@pytest.fixture(scope="module")
def trained():
    cluster = Cluster.homogeneous(CORE2, n_machines=2, seed=88)
    runs = execute_runs(cluster, SortWorkload(), n_runs=2)
    feature_set = cluster_plus_lagged_frequency(
        (CPU_UTILIZATION_COUNTER, FREQUENCY_COUNTER)
    )
    design, power = pool_features(runs, feature_set)
    model = QuadraticPowerModel(feature_set.feature_names).fit(design, power)
    platform_model = PlatformModel(
        platform_key="core2", model=model, feature_set=feature_set
    )
    return platform_model, runs


class TestOnlinePowerPredictor:
    def test_streaming_matches_batch(self, trained):
        platform_model, runs = trained
        log = runs[0].logs[runs[0].machine_ids[0]]
        batch = platform_model.predict_log(log)

        predictor = OnlinePowerPredictor(platform_model)
        streamed = []
        for t in range(log.n_seconds):
            sample = {
                name: float(log.column(name)[t])
                for name in predictor.required_counters
            }
            streamed.append(predictor.observe(sample))
        assert np.asarray(streamed) == pytest.approx(batch)

    def test_required_counters_exclude_lag_duplicates(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model)
        required = predictor.required_counters
        assert CPU_UTILIZATION_COUNTER in required
        assert FREQUENCY_COUNTER in required
        assert len(required) == 2  # the lagged copy reuses FREQUENCY_COUNTER

    def test_missing_counter_rejected(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model)
        with pytest.raises(KeyError, match="missing"):
            predictor.observe({CPU_UTILIZATION_COUNTER: 50.0})

    def test_rolling_statistics(self, trained):
        platform_model, runs = trained
        log = runs[0].logs[runs[0].machine_ids[0]]
        predictor = OnlinePowerPredictor(platform_model, history_seconds=50)
        for t in range(60):
            sample = {
                name: float(log.column(name)[t])
                for name in predictor.required_counters
            }
            predictor.observe(sample)
        assert predictor.n_observed == 60
        assert predictor.peak_w() >= predictor.rolling_mean_w()
        assert predictor.rolling_mean_w(window_seconds=10) > 0

    def test_reset_clears_state(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model)
        predictor.observe({
            CPU_UTILIZATION_COUNTER: 50.0, FREQUENCY_COUNTER: 2260.0
        })
        predictor.reset()
        assert predictor.n_observed == 0
        with pytest.raises(ValueError):
            predictor.rolling_mean_w()

    def test_empty_history_errors(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model)
        with pytest.raises(ValueError, match="no samples"):
            predictor.peak_w()

    def test_bad_history_size_rejected(self, trained):
        platform_model, _ = trained
        with pytest.raises(ValueError):
            OnlinePowerPredictor(platform_model, history_seconds=0)


class TestFeatureRowPlan:
    """The per-model column plan ``prepare_row`` walks each sample."""

    def test_required_counters_order_and_dedup_with_lag(self, trained):
        platform_model, _ = trained
        lagged = FREQUENCY_COUNTER + " (t-1)"
        assert platform_model.feature_set.feature_names == [
            CPU_UTILIZATION_COUNTER, FREQUENCY_COUNTER, lagged,
        ]
        predictor = OnlinePowerPredictor(platform_model)
        assert predictor.required_counters == [
            CPU_UTILIZATION_COUNTER, FREQUENCY_COUNTER,
        ]
        # Callers get a copy; the predictor's plan cannot be edited.
        predictor.required_counters.append("junk")
        assert predictor.required_counters == [
            CPU_UTILIZATION_COUNTER, FREQUENCY_COUNTER,
        ]

    def test_lag_column_reads_previous_sample(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model)
        first = predictor.prepare_row(
            {CPU_UTILIZATION_COUNTER: 10.0, FREQUENCY_COUNTER: 1600.0}
        )
        second = predictor.prepare_row(
            {CPU_UTILIZATION_COUNTER: 20.0, FREQUENCY_COUNTER: 2260.0}
        )
        # Cold start: the lag column repeats the current frequency.
        np.testing.assert_array_equal(first, [10.0, 1600.0, 1600.0])
        np.testing.assert_array_equal(second, [20.0, 2260.0, 1600.0])


_BAD_UTILIZATION = [
    pytest.param({CPU_UTILIZATION_COUNTER: None}, id="none"),
    pytest.param({}, id="missing-key"),
    pytest.param({CPU_UTILIZATION_COUNTER: float("nan")}, id="float-nan"),
    pytest.param({CPU_UTILIZATION_COUNTER: np.float64("inf")}, id="np-inf"),
    pytest.param({CPU_UTILIZATION_COUNTER: np.nan}, id="np-nan"),
    pytest.param({CPU_UTILIZATION_COUNTER: float("-inf")}, id="float-ninf"),
]


class TestResolveFiniteness:
    """Which values are accepted, patched or rejected."""

    @pytest.mark.parametrize("bad", _BAD_UTILIZATION)
    def test_strict_mode_rejects(self, trained, bad):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model)
        with pytest.raises(KeyError, match="missing"):
            predictor.prepare_row({FREQUENCY_COUNTER: 2260.0, **bad})
        assert predictor.n_patched == 0

    @pytest.mark.parametrize("bad", _BAD_UTILIZATION)
    def test_allow_missing_patches_from_last_sample(self, trained, bad):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model, allow_missing=True)
        predictor.prepare_row(
            {CPU_UTILIZATION_COUNTER: 42.0, FREQUENCY_COUNTER: 1600.0}
        )
        row = predictor.prepare_row({FREQUENCY_COUNTER: 2260.0, **bad})
        np.testing.assert_array_equal(row, [42.0, 2260.0, 1600.0])
        assert predictor.n_patched == 1
        assert predictor.consecutive_patched == 1

    @pytest.mark.parametrize("bad", _BAD_UTILIZATION)
    def test_allow_missing_rejects_cold(self, trained, bad):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model, allow_missing=True)
        with pytest.raises(KeyError, match="missing"):
            predictor.prepare_row({FREQUENCY_COUNTER: 2260.0, **bad})

    @pytest.mark.parametrize(
        "value", [50, np.int64(50), np.float32(50.0), np.float64(50.0)]
    )
    def test_finite_numeric_types_accepted(self, trained, value):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model)
        row = predictor.prepare_row(
            {CPU_UTILIZATION_COUNTER: value, FREQUENCY_COUNTER: 2260.0}
        )
        np.testing.assert_array_equal(row, [50.0, 2260.0, 2260.0])
        assert predictor.n_patched == 0


class TestMissingCounterHandling:
    def _sample(self, util=50.0, freq=2260.0):
        return {
            CPU_UTILIZATION_COUNTER: util,
            FREQUENCY_COUNTER: freq,
        }

    def test_strict_mode_raises_on_nan(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model)
        with pytest.raises(KeyError):
            predictor.observe(self._sample(util=float("nan")))

    def test_allow_missing_patches_from_last_sample(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model, allow_missing=True)
        first = predictor.observe(self._sample(util=60.0))
        # Second sample drops the utilization counter entirely.
        patched = predictor.observe({FREQUENCY_COUNTER: 2260.0})
        assert np.isfinite(patched)
        assert predictor.n_patched == 1
        # Patching reuses the previous utilization, so the prediction
        # matches a fully-populated repeat of the first sample.
        repeat = predictor.observe(self._sample(util=60.0))
        assert patched == pytest.approx(repeat, rel=1e-6)
        del first

    def test_allow_missing_still_raises_with_no_history(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model, allow_missing=True)
        with pytest.raises(KeyError):
            predictor.observe({FREQUENCY_COUNTER: 2260.0})

    def test_reset_clears_patch_count(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model, allow_missing=True)
        predictor.observe(self._sample())
        predictor.observe({FREQUENCY_COUNTER: 2260.0})
        predictor.reset()
        assert predictor.n_patched == 0
        assert predictor.n_patched_samples == 0
        assert predictor.patched_fraction == 0.0
        assert predictor.consecutive_patched == 0

    def test_patched_fraction_counts_samples_not_values(self, trained):
        """One sample missing both counters is one patched sample, even
        though two values were patched."""
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model, allow_missing=True)
        predictor.observe(self._sample())
        predictor.observe({})  # both counters patched
        predictor.observe(self._sample())
        predictor.observe({FREQUENCY_COUNTER: 2260.0})
        assert predictor.n_patched == 3
        assert predictor.n_patched_samples == 2
        assert predictor.patched_fraction == pytest.approx(0.5)

    def test_patched_fraction_is_zero_before_any_sample(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(platform_model, allow_missing=True)
        assert predictor.patched_fraction == 0.0

    def test_consecutive_cap_raises_then_recovers(self, trained):
        platform_model, _ = trained
        predictor = OnlinePowerPredictor(
            platform_model, allow_missing=True, max_consecutive_patches=2
        )
        predictor.observe(self._sample())
        predictor.observe({})
        predictor.observe({})
        assert predictor.consecutive_patched == 2
        with pytest.raises(StaleSampleError, match="consecutive"):
            predictor.observe({})
        # A rejected sample is not recorded as observed.
        assert predictor.n_observed == 3
        # A clean sample resets the run and prediction resumes.
        clean = predictor.observe(self._sample())
        assert np.isfinite(clean)
        assert predictor.consecutive_patched == 0
        predictor.observe({})  # tolerated again after recovery
        assert predictor.n_observed == 5

    def test_cap_validation(self, trained):
        platform_model, _ = trained
        with pytest.raises(ValueError, match="max_consecutive_patches"):
            OnlinePowerPredictor(
                platform_model,
                allow_missing=True,
                max_consecutive_patches=0,
            )


class TestPrepareCommitSplit:
    """The two-phase API the serving micro-batcher drives."""

    def test_prepare_then_commit_equals_observe(self, trained):
        platform_model, runs = trained
        log = runs[0].logs[runs[0].machine_ids[0]]
        one_shot = OnlinePowerPredictor(platform_model)
        two_phase = OnlinePowerPredictor(platform_model)
        rows = []
        for t in range(20):
            sample = {
                name: float(log.column(name)[t])
                for name in one_shot.required_counters
            }
            expected = one_shot.observe(sample)
            row = two_phase.prepare_row(sample)
            rows.append(row)
            prediction = float(
                platform_model.model.predict(row[None, :])[0]
            )
            assert two_phase.commit(prediction) == expected
        assert two_phase.n_observed == one_shot.n_observed
        # The prepared rows are exactly the batch design matrix.
        batch = platform_model.feature_set.extract(log)
        np.testing.assert_array_equal(np.vstack(rows), batch[:20])

    def test_carry_state_preserves_lag_and_history(self, trained):
        platform_model, runs = trained
        log = runs[0].logs[runs[0].machine_ids[0]]
        reference = OnlinePowerPredictor(platform_model)
        swapped = OnlinePowerPredictor(platform_model)
        replacement = OnlinePowerPredictor(platform_model)
        for t in range(10):
            sample = {
                name: float(log.column(name)[t])
                for name in reference.required_counters
            }
            reference.observe(sample)
            swapped.observe(sample)
        replacement.carry_state_from(swapped)
        assert replacement.n_observed == 10
        assert replacement.rolling_mean_w() == reference.rolling_mean_w()
        # The lagged MHz(t-1) feature survives the swap: the next
        # prediction is identical to an un-swapped predictor's.
        sample = {
            name: float(log.column(name)[10])
            for name in reference.required_counters
        }
        assert replacement.observe(sample) == reference.observe(sample)
