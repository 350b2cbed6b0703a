"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestPlatformsCommand:
    def test_lists_all_six(self):
        code, text = _run(["platforms"])
        assert code == 0
        for key in ("atom", "core2", "athlon", "opteron", "xeon_sata",
                    "xeon_sas"):
            assert key in text


class TestSelectCommand:
    def test_prints_feature_set(self):
        code, text = _run([
            "select", "--platform", "atom", "--runs", "2", "--seed", "9"
        ])
        assert code == 0
        assert "Algorithm 1" in text
        assert "% Processor Time" in text

    def test_unknown_platform_fails_cleanly(self):
        code, text = _run(["select", "--platform", "sparc"])
        assert code == 1
        assert "error" in text


class TestTrainPredictRoundTrip:
    def test_train_export_predict(self, tmp_path):
        model_path = tmp_path / "atom.json"
        code, text = _run([
            "train", "--platform", "atom", "--runs", "2", "--seed", "9",
            "--model", "L", "--out", str(model_path),
        ])
        assert code == 0
        assert model_path.exists()
        assert "trained L model" in text

        log_path = tmp_path / "log.csv"
        code, text = _run([
            "export-log", "--platform", "atom", "--workload", "wordcount",
            "--machine", "0", "--seed", "9", "--out", str(log_path),
        ])
        assert code == 0
        assert log_path.exists()

        code, text = _run([
            "predict", "--model-file", str(model_path),
            "--log", str(log_path),
        ])
        assert code == 0
        assert "rMSE" in text

    def test_export_bad_machine_index(self, tmp_path):
        code, text = _run([
            "export-log", "--platform", "atom", "--workload", "wordcount",
            "--machine", "99", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "out of range" in text

    def test_predict_missing_file(self):
        code, text = _run([
            "predict", "--model-file", "/nonexistent.json",
            "--log", "/nonexistent.csv",
        ])
        assert code == 1
        assert "error" in text


class TestEvaluateCommand:
    def test_evaluate_reports_dre(self):
        code, text = _run([
            "evaluate", "--platform", "atom", "--workload", "wordcount",
            "--model", "L", "--runs", "2", "--seed", "9",
        ])
        assert code == 0
        assert "DRE" in text


class TestCountersCommand:
    def test_lists_catalog(self):
        code, text = _run(["counters", "--platform", "atom"])
        assert code == 0
        assert "% Processor Time" in text
        assert "Memory" in text

    def test_category_filter(self):
        code, text = _run([
            "counters", "--platform", "atom", "--category", "Memory"
        ])
        assert code == 0
        assert "\\Memory\\" in text
        assert "PhysicalDisk" not in text

    def test_unknown_category(self):
        code, text = _run([
            "counters", "--platform", "atom", "--category", "GPU"
        ])
        assert code == 2
        assert "unknown category" in text


class TestReproduceCommand:
    def test_reproduce_figure1_reduced(self):
        code, text = _run([
            "reproduce", "figure1", "--runs", "2", "--machines", "2",
            "--seed", "3",
        ])
        assert code == 0
        assert "Figure 1" in text
        assert "2x Core 2 Duo" in text

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "figure99"])


class TestServingCommands:
    def test_train_publish_replay_round_trip(self, tmp_path):
        """The deployment loop end to end: train a bundle, publish it
        to a fresh registry, replay a simulated cluster against it with
        the bit-identity check on."""
        import json

        bundle_path = tmp_path / "bundle.json"
        code, text = _run([
            "train", "--platform", "atom", "--runs", "2", "--seed", "9",
            "--model", "Q", "--out", str(tmp_path / "model.json"),
            "--bundle-out", str(bundle_path),
        ])
        assert code == 0
        assert bundle_path.exists()
        assert "serving bundle" in text

        registry_path = tmp_path / "registry"
        code, text = _run([
            "publish", "--bundle", str(bundle_path),
            "--registry", str(registry_path),
        ])
        assert code == 0
        assert "published" in text and "generation 1" in text

        stats_path = tmp_path / "stats.json"
        code, text = _run([
            "replay", "--bundle", str(bundle_path), "--machines", "2",
            "--seed", "9", "--speed", "200", "--verify",
            "--stats-out", str(stats_path),
        ])
        assert code == 0
        assert "0 dropped" in text
        assert "bit-for-bit" in text
        stats = json.loads(stats_path.read_text())
        assert stats["dropped_samples"] == 0
        assert stats["samples_scored"] > 0
        # No --shards: the replay runs through the one server with its
        # default single shard.
        assert stats["router"]["shards"] == 1

    def test_serve_refuses_an_empty_registry(self, tmp_path):
        code, text = _run([
            "serve", "--registry", str(tmp_path / "empty-registry"),
        ])
        assert code == 2
        assert "no published models" in text

    def test_replay_needs_a_source(self):
        with pytest.raises(SystemExit):
            main(["replay"])


class TestArgumentValidation:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required_rejected(self):
        with pytest.raises(SystemExit):
            main(["train"])


class TestEngineFailureFlags:
    SWEEP = [
        "sweep", "--platform", "atom", "--workload", "wordcount",
        "--features", "U", "--runs", "2", "--machines", "2", "--seed", "3",
    ]

    def test_resume_is_incompatible_with_no_cache(self):
        code, text = _run(self.SWEEP + ["--resume", "--no-cache"])
        assert code == 2
        assert "drop --no-cache" in text

    def test_invalid_failure_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(self.SWEEP + ["--failure-policy", "best_effort"])

    def test_failure_policy_continue_is_accepted(self, tmp_path):
        code, text = _run(self.SWEEP + [
            "--failure-policy", "continue",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        assert "best cell" in text

    def test_resume_replays_against_the_warm_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, cold_text = _run(self.SWEEP + ["--cache-dir", cache_dir])
        assert code == 0
        code, warm_text = _run(self.SWEEP + [
            "--cache-dir", cache_dir, "--resume", "--telemetry",
        ])
        assert code == 0
        assert "resuming against cache" in warm_text
        # Every fold is served warm on resume.
        assert "hit rate 100%" in warm_text
        # The reported grid is identical to the cold run's.
        best = [line for line in cold_text.splitlines()
                if line.startswith("best cell")]
        assert best and best == [
            line for line in warm_text.splitlines()
            if line.startswith("best cell")
        ]
