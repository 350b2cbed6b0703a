"""The ring-buffer drift window against the window it replaced.

``InputDriftDetector`` keeps its trailing window as a ring of outside
flags plus running counts.  The reference below is the earlier
implementation verbatim: a deque of per-sample flag rows that
``verdict()`` re-stacks and re-reduces on every call.  On finite inputs
the two must agree on every ``DriftVerdict`` field, compared with ``==``
-- no tolerance.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.framework import OnlinePowerPredictor
from repro.framework.drift import DriftVerdict, InputDriftDetector
from repro.serving import load_replay_fixture

FIXTURE_PATH = (
    Path(__file__).parents[1] / "serving" / "fixtures"
    / "atom_sort_replay.json"
)


class ReferenceDetector:
    """The deque-and-vstack window, kept as the oracle."""

    def __init__(self, detector: InputDriftDetector):
        self.feature_names = detector.feature_names
        self.min_samples = detector.min_samples
        self.trigger_ratio = detector.trigger_ratio
        self.expected_fraction = detector.expected_fraction
        self._low = detector.envelope_low
        self._high = detector.envelope_high
        self._window: deque = deque(maxlen=detector.window_seconds)

    def observe(self, sample: np.ndarray) -> DriftVerdict:
        row = np.asarray(sample, dtype=float).ravel()
        outside = (row < self._low) | (row > self._high)
        self._window.append(outside)
        return self.verdict()

    def verdict(self) -> DriftVerdict:
        if not self._window:
            raise RuntimeError("no samples observed yet")
        matrix = np.vstack(self._window)
        sample_outside = matrix.any(axis=1)
        fraction = float(sample_outside.mean())
        per_feature = matrix.mean(axis=0)
        worst_index = int(np.argmax(per_feature))
        drifting = (
            len(self._window) >= self.min_samples
            and fraction > self.trigger_ratio * self.expected_fraction
        )
        return DriftVerdict(
            drifting=drifting,
            out_of_envelope_fraction=fraction,
            expected_fraction=self.expected_fraction,
            worst_feature=(
                self.feature_names[worst_index]
                if per_feature[worst_index] > 0
                else None
            ),
            worst_feature_fraction=float(per_feature[worst_index]),
        )

    def reset(self) -> None:
        self._window.clear()


# Sample values relative to a [0, 1] envelope: below, on the low bound,
# inside, on the high bound, above.  Few levels make argmax ties and
# all-inside windows common.
LEVELS = (-1.0, 0.0, 0.5, 1.0, 2.0)
RESET = None


def _pair(n_features, window, min_samples, quantile, trigger_ratio):
    detector = InputDriftDetector.from_envelope(
        [f"f{i}" for i in range(n_features)],
        low=np.zeros(n_features),
        high=np.ones(n_features),
        envelope_quantile=quantile,
        window_seconds=window,
        trigger_ratio=trigger_ratio,
        min_samples=min_samples,
    )
    return detector, ReferenceDetector(detector)


def _replay(detector, reference, ops):
    """Drive both detectors through ``ops``; return the verdicts seen."""
    seen = []
    for op in ops:
        if op is RESET:
            detector.reset()
            reference.reset()
            assert detector.n_samples == 0
            with pytest.raises(RuntimeError, match="no samples"):
                detector.verdict()
            continue
        row = np.array([LEVELS[level] for level in op])
        got = detector.observe(row)
        want = reference.observe(row)
        assert got == want
        assert detector.verdict() == want
        assert detector.n_samples == len(reference._window)
        seen.append(got)
    return seen


@st.composite
def streams(draw):
    n_features = draw(st.integers(1, 4))
    window = draw(st.integers(1, 12))
    min_samples = draw(st.integers(1, window + 2))
    quantile = draw(st.sampled_from((0.9, 0.99, 0.995)))
    trigger_ratio = draw(st.sampled_from((0.5, 1.0, 8.0)))
    sample = st.tuples(
        *[st.integers(0, len(LEVELS) - 1) for _ in range(n_features)]
    )
    ops = draw(
        st.lists(
            st.one_of(sample, sample, sample, st.just(RESET)),
            max_size=60,
        )
    )
    return (n_features, window, min_samples, quantile, trigger_ratio), ops


WRAP = ((2, 3, 2, 0.99, 1.0), [(4, 2), (2, 2), (2, 0), (2, 2), (3, 3)])
ALL_INSIDE = ((3, 4, 1, 0.995, 8.0), [(2, 1, 3)] * 6)
TIES = ((3, 5, 1, 0.9, 0.5), [(0, 4, 2), (4, 0, 2), (2, 2, 0)])
MIN_SAMPLES = ((1, 5, 3, 0.9, 0.5), [(4,), (4,), (4,), (4,)])
AFTER_RESET = ((2, 4, 1, 0.9, 0.5), [(0, 0), (4, 2), RESET, (2, 4), (2, 2)])


@given(stream=streams())
@example(stream=WRAP)
@example(stream=ALL_INSIDE)
@example(stream=TIES)
@example(stream=MIN_SAMPLES)
@example(stream=AFTER_RESET)
@settings(max_examples=300, deadline=None)
def test_ring_window_matches_reference(stream):
    params, ops = stream
    detector, reference = _pair(*params)
    _replay(detector, reference, ops)


def test_named_cases_reach_the_paths_they_name():
    """Each pinned example really exercises its case."""
    seen = _replay(*_pair(*WRAP[0]), WRAP[1])
    # Five samples through a 3-slot window: the first sample, the only
    # one outside on f0, has been evicted by the last verdict.
    assert seen[0].worst_feature == "f0"
    assert seen[-1].worst_feature == "f1"
    assert seen[-1].worst_feature_fraction == 1 / 3
    assert seen[-1].out_of_envelope_fraction == 1 / 3

    seen = _replay(*_pair(*ALL_INSIDE[0]), ALL_INSIDE[1])
    assert all(v.worst_feature is None for v in seen)
    assert all(v.out_of_envelope_fraction == 0.0 for v in seen)

    seen = _replay(*_pair(*TIES[0]), TIES[1])
    # Every feature is outside once in three samples: first index wins.
    assert seen[-1].worst_feature == "f0"

    seen = _replay(*_pair(*MIN_SAMPLES[0]), MIN_SAMPLES[1])
    assert [v.drifting for v in seen] == [False, False, True, True]

    seen = _replay(*_pair(*AFTER_RESET[0]), AFTER_RESET[1])
    # Without the reset, f0 (outside twice before it) would be worst.
    assert seen[-1].worst_feature == "f1"
    assert seen[-1].out_of_envelope_fraction == 0.5


@pytest.mark.parametrize(
    "window, trigger_ratio, min_samples, flips",
    [
        pytest.param(120, 8.0, 30, False, id="served"),
        # Tight enough that the fixture's few out-of-envelope seconds
        # flip the flag on and off again.
        pytest.param(30, 1.0, 10, True, id="tight"),
    ],
)
def test_golden_fixture_replay_flags_match(
    window, trigger_ratio, min_samples, flips
):
    """The committed replay fixture, scored as a serving session scores
    it: every per-sample verdict matches the reference window."""
    bundle, machines = load_replay_fixture(FIXTURE_PATH)
    all_flags = []
    for machine in machines:
        predictor = OnlinePowerPredictor(bundle.platform_model)
        required = predictor.required_counters
        detector = InputDriftDetector.from_envelope(
            bundle.platform_model.feature_set.feature_names,
            low=bundle.envelope_low,
            high=bundle.envelope_high,
            envelope_quantile=bundle.envelope_quantile,
            window_seconds=window,
            trigger_ratio=trigger_ratio,
            min_samples=min_samples,
        )
        reference = ReferenceDetector(detector)
        flags, reference_flags = [], []
        for values in machine.log.select(list(required)):
            row = predictor.prepare_row(dict(zip(required, values)))
            got = detector.observe(row)
            want = reference.observe(row)
            assert got == want
            flags.append(got.drifting)
            reference_flags.append(want.drifting)
        assert len(flags) > window
        assert flags == reference_flags
        all_flags.extend(flags)
    assert (True in all_flags and False in all_flags) == flips
