"""Tests for the input-drift detector."""

import numpy as np
import pytest

from repro.framework.drift import InputDriftDetector

NAMES = ["util", "freq", "pages"]


@pytest.fixture
def fitted():
    rng = np.random.default_rng(31)
    training = np.column_stack([
        rng.uniform(0, 100, 2000),
        rng.uniform(1000, 2000, 2000),
        rng.uniform(0, 5000, 2000),
    ])
    detector = InputDriftDetector(NAMES, window_seconds=60, min_samples=20)
    detector.fit(training)
    return detector, training


class TestFitting:
    def test_envelope_brackets_training_bulk(self, fitted):
        detector, training = fitted
        inside = (
            (training >= detector._low) & (training <= detector._high)
        ).all(axis=1)
        assert inside.mean() > 0.95

    def test_unfitted_observe_rejected(self):
        detector = InputDriftDetector(NAMES)
        with pytest.raises(RuntimeError, match="not fitted"):
            detector.observe(np.zeros(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            InputDriftDetector([])
        with pytest.raises(ValueError):
            InputDriftDetector(NAMES, envelope_quantile=0.4)
        detector = InputDriftDetector(NAMES)
        with pytest.raises(ValueError, match="training design"):
            detector.fit(np.zeros((100, 2)))


class TestDetection:
    def test_in_distribution_stays_quiet(self, fitted):
        detector, training = fitted
        rng = np.random.default_rng(32)
        rows = training[rng.integers(0, training.shape[0], 60)]
        for row in rows:
            verdict = detector.observe(row)
        assert not verdict.drifting
        assert verdict.out_of_envelope_fraction < 0.1

    def test_shifted_inputs_trigger_drift(self, fitted):
        detector, _ = fitted
        # A new workload type: pages/sec an order of magnitude beyond
        # anything seen in training.
        for _ in range(40):
            verdict = detector.observe(np.array([50.0, 1500.0, 80000.0]))
        assert verdict.drifting
        assert verdict.worst_feature == "pages"
        assert verdict.worst_feature_fraction == 1.0
        assert "DRIFT" in verdict.describe()

    def test_needs_min_samples_before_alarming(self, fitted):
        detector, _ = fitted
        verdict = detector.observe(np.array([50.0, 1500.0, 80000.0]))
        # One wild sample is not a drift declaration.
        assert not verdict.drifting

    def test_reset_clears_window(self, fitted):
        detector, _ = fitted
        for _ in range(30):
            detector.observe(np.array([50.0, 1500.0, 80000.0]))
        detector.reset()
        with pytest.raises(RuntimeError, match="no samples"):
            detector.verdict()

    def test_non_finite_input_counts_as_outside(self, fitted):
        """A stuck NaN counter is not in-distribution: it compares False
        against both bounds, so it must count as outside the envelope."""
        detector, _ = fitted
        middle = (detector.envelope_low + detector.envelope_high) / 2
        row = middle.copy()
        row[0] = np.nan
        verdict = detector.observe(row)
        assert verdict.out_of_envelope_fraction == 1.0
        assert verdict.worst_feature == "util"
        row = middle.copy()
        row[2] = np.inf
        verdict = detector.observe(row)
        assert verdict.worst_feature_fraction == 0.5

    def test_wrong_width_sample_rejected(self, fitted):
        detector, _ = fitted
        with pytest.raises(ValueError, match="values"):
            detector.observe(np.zeros(2))


class TestEndToEndWithWorkloads:
    def test_unseen_workload_type_detected(self):
        """Train the envelope on Prime, stream Sort: the disk/network
        counters leave the envelope and the detector fires — the
        operational form of the cross-workload experiment."""
        from repro.cluster import Cluster, execute_runs
        from repro.models import cluster_set, pool_features
        from repro.platforms import OPTERON
        from repro.workloads import PrimeWorkload, SortWorkload

        cluster = Cluster.homogeneous(OPTERON, n_machines=2, seed=37)
        feature_set = cluster_set((
            r"\Processor(_Total)\% Processor Time",
            r"\PhysicalDisk(_Total)\Disk Bytes/sec",
            r"\Network Interface(Ethernet)\Datagrams/sec",
        ))
        prime_runs = execute_runs(cluster, PrimeWorkload(), n_runs=2)
        design, _ = pool_features(prime_runs, feature_set)
        detector = InputDriftDetector(
            feature_set.feature_names, window_seconds=90, min_samples=30
        ).fit(design)

        sort_run = execute_runs(cluster, SortWorkload(), n_runs=1)[0]
        matrix = feature_set.extract(
            sort_run.logs[sort_run.machine_ids[0]]
        )
        fired = False
        for row in matrix:
            if detector.observe(row).drifting:
                fired = True
                break
        assert fired
