"""The benchmark's four workloads, driven through public entry points.

Each workload class builds its inputs from a seed (``setup``), runs one
closed-loop step at a time (``step``) and checks its outputs
(``check``).  A step returns a dict: ``attempted`` and ``failed`` work
items, ``busy_s`` (the time spent inside the measured entry point) and
``latencies_s`` of its blocking units.  ``select`` and ``wire`` repeat
one identical call, which is its own latency sample; ``dse`` reports
the engine's per-candidate task times and ``fleet`` one per tick.
"""

from __future__ import annotations

import shutil
import tempfile
import time

import numpy as np

from repro.cluster import Cluster, execute_runs
from repro.models.composition import PlatformModel
from repro.models.featuresets import (
    CPU_UTILIZATION_COUNTER,
    FREQUENCY_COUNTER,
    cluster_set,
    pool_features,
)
from repro.models.registry import build_model
from repro.platforms import get_platform

PLATFORM = "atom"
BUNDLE_VERSION = "Q@perfbench"


def fixed_counters(cluster, n_counters=8):
    """A fixed 8-counter cluster set: utilization and frequency, then
    the catalog's activity-linked counters in declaration order."""
    catalog = cluster.catalog_for(PLATFORM)
    names = [CPU_UTILIZATION_COUNTER, FREQUENCY_COUNTER]
    for definition in catalog.definitions:
        if len(names) == n_counters:
            break
        if definition.informative and definition.name not in names:
            names.append(definition.name)
    return tuple(names)


def fit_bundle(seed):
    """The serving bundle: a Q model on the fixed cluster set, fitted on
    two sort runs of a 2-machine atom cluster."""
    from repro.serving import make_bundle
    from repro.workloads import SortWorkload

    spec = get_platform(PLATFORM)
    cluster = Cluster.homogeneous(spec, n_machines=2, seed=seed)
    runs = execute_runs(cluster, SortWorkload(), n_runs=2, jobs=1)
    feature_set = cluster_set(fixed_counters(cluster))
    design, power = pool_features(runs, feature_set)
    model = build_model("Q", feature_set).fit(design, power)
    platform_model = PlatformModel(
        platform_key=spec.key, model=model, feature_set=feature_set
    )
    return make_bundle(
        platform_model,
        design,
        idle_power_w=spec.idle_power_w,
        meta={"scenario": "perfbench"},
    )


def stream_logs(seed, n_machines, n_runs):
    """Per-machine Perfmon logs of ``n_runs`` back-to-back pagerank runs
    on a fresh cluster: long, real counter streams for serving."""
    from repro.telemetry.perfmon import PerfmonLog
    from repro.workloads import PageRankWorkload

    cluster = Cluster.homogeneous(
        get_platform(PLATFORM), n_machines=n_machines, seed=seed + 1
    )
    runs = execute_runs(cluster, PageRankWorkload(), n_runs=n_runs, jobs=1)
    logs = []
    for machine_id in runs[0].machine_ids:
        parts = [run.logs[machine_id] for run in runs]
        logs.append(
            PerfmonLog(
                machine_id=machine_id,
                counter_names=list(parts[0].counter_names),
                counters=np.vstack([part.counters for part in parts]),
                power_w=np.concatenate([part.power_w for part in parts]),
            )
        )
    return logs


class StepInputs:
    """The inputs of one step at a time, generated from (seed, index).

    Only the current step's inputs are alive, so peak memory does not
    depend on how many steps a run fits; a replayed step regenerates
    its inputs, which is deterministic and cheap next to the step.
    """

    def __init__(self, generate):
        self.generate = generate
        self.index = None
        self.inputs = None

    def __call__(self, index):
        if index != self.index:
            self.index, self.inputs = None, None
            self.inputs = self.generate(index)
            self.index = index
        return self.inputs


def sub_seed(seed, index):
    """The input seed of step ``index`` of a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Select:
    """Algorithm 1 on a homogeneous atom cluster, 2 metered machines.

    Step ``i`` runs on its own cluster, generated from the run seed and
    ``i``, so a run that fits several calls averages over several
    data sets; one or two calls (12-28 s each on 2 cores) fill a run.
    """

    min_steps = 1
    n_machines = 4
    n_metered = 2

    def setup(self, seed):
        self.seed = seed
        self.inputs = StepInputs(self.generate)
        self.selected = {}
        start_s = time.perf_counter()
        self.inputs(0)
        return {"generate_s": time.perf_counter() - start_s}

    def generate(self, index):
        from repro.framework.chaos import collect_workload_runs

        cluster = Cluster.homogeneous(
            get_platform(PLATFORM),
            n_machines=self.n_machines,
            seed=sub_seed(self.seed, index),
        )
        runs = collect_workload_runs(cluster, n_runs=1)
        machine_ids = [
            machine.machine_id for machine in cluster.machines
        ][: self.n_metered]
        return cluster, runs, machine_ids

    def step(self, index):
        from repro.selection import run_algorithm1

        cluster, runs, machine_ids = self.inputs(index)
        start_s = time.perf_counter()
        result = run_algorithm1(cluster, runs, machine_ids=machine_ids)
        elapsed = time.perf_counter() - start_s
        self.selected.setdefault(index, []).append(list(result.selected))
        return {
            "attempted": 1,
            "failed": 0,
            "busy_s": elapsed,
            "latencies_s": [elapsed],
        }

    def outputs(self):
        return {str(i): runs[0] for i, runs in sorted(self.selected.items())}

    def check(self, expected):
        """Replayed steps select what they selected the first time, and
        every step selects the tuple recorded for it, if one was."""
        return _check_outputs(self.selected, expected, "selected")


class Dse:
    """The candidate path of a cold, serial dse campaign.

    Step ``i`` builds a campaign substrate (2 atom machines, 2 sort
    runs, catalog ranking) from the run seed and ``i`` and evaluates a
    fixed grid of the CHAOS design space on it — every model and
    feature family at counter budgets 2 and 8, train fractions drawn
    from the seed — through the campaign's own ``CampaignEvaluator``:
    one engine graph, a fresh artifact cache, ``jobs=1``, then Pareto
    and MCDM ranking.  A GA search picks a different model mix per
    seed, and MARS cost moves with the data, so a run averages over
    many small substrates instead of one campaign.
    """

    min_steps = 1
    probe_seconds = 20
    budgets = (2, 8)

    def __init__(self, scratch_dir):
        self.scratch_dir = scratch_dir

    def setup(self, seed):
        self.seed = seed
        self.inputs = StepInputs(self.generate)
        self.digests = {}
        self.frontiers = []
        start_s = time.perf_counter()
        self.inputs(0)
        return {"generate_s": time.perf_counter() - start_s}

    def generate(self, index):
        from repro.dse import build_substrate, chaos_space

        step_seed = sub_seed(self.seed, index)
        substrate = build_substrate(
            PLATFORM, "sort", n_machines=2, n_runs=2, seed=step_seed,
            ranking="catalog",
        )
        space = chaos_space(substrate)
        rng = np.random.default_rng(step_seed)
        train_fraction = space.parameter("train_fraction")
        genotypes = {}
        for model in space.parameter("model").choices:
            for features in space.parameter("features").choices:
                budgets = self.budgets[:1] if features == "U" else self.budgets
                for n_counters in budgets:
                    genotype = {
                        "model": model,
                        "features": features,
                        "n_counters": n_counters,
                        "train_fraction": train_fraction.sample(rng),
                    }
                    genotypes[space.candidate_digest(genotype)] = genotype
        return step_seed, substrate, space, genotypes

    def evaluate(self, index, jobs):
        """Every grid candidate, cold; returns (evaluator, seconds)."""
        from repro.dse import CampaignEvaluator
        from repro.engine import ArtifactCache

        step_seed, substrate, space, genotypes = self.inputs(index)
        cache_dir = tempfile.mkdtemp(prefix="dse-", dir=self.scratch_dir)
        try:
            evaluator = CampaignEvaluator(
                substrate,
                space,
                seed=step_seed,
                probe_seconds=self.probe_seconds,
                jobs=jobs,
                cache=ArtifactCache(cache_dir),
            )
            start_s = time.perf_counter()
            evaluator(list(genotypes), genotypes)
            return evaluator, time.perf_counter() - start_s
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def step(self, index):
        from repro.dse import DEFAULT_WEIGHTS, rank_candidates
        from repro.dse.runner import CANDIDATE_TASK_FN
        from repro.engine.hashing import canonical_json, sha256_hex

        evaluator, elapsed = self.evaluate(index, jobs=1)
        _, _, space, genotypes = self.inputs(index)
        candidates = {}
        for digest, genotype in genotypes.items():
            verdict = dict(evaluator.verdicts[digest])
            verdict.pop("measured", None)
            verdict["params"] = space.normalize(genotype)
            candidates[digest] = verdict
        frontier, mcdm = rank_candidates(candidates, DEFAULT_WEIGHTS)
        self.frontiers.append(
            [candidates[digest]["feasible"] for digest in frontier]
        )
        payload = {
            "candidates": candidates, "frontier": frontier, "mcdm": mcdm
        }
        self.digests.setdefault(index, []).append(
            sha256_hex(canonical_json(payload))
        )
        telemetry = evaluator.telemetry
        return {
            "attempted": len(candidates),
            "failed": telemetry.n_failed,
            "busy_s": elapsed,
            "latencies_s": [
                record.seconds
                for record in telemetry.records
                if record.fn == CANDIDATE_TASK_FN
            ],
            "counts": {
                "engine.tasks": telemetry.n_tasks,
                "engine.cache_hits": telemetry.n_cache_hits,
            },
        }

    def warm_up(self):
        """Evaluate step 0's grid once, untimed by the loop, so lazy
        imports and first-call costs land in set-up."""
        start_s = time.perf_counter()
        self.evaluate(0, jobs=1)
        return time.perf_counter() - start_s

    def pool_over_serial(self):
        """Wall time of step 0's grid at jobs=2 over jobs=1, both cold.
        Reported, never gated: the pool path's spread is too wide."""
        _, serial_s = self.evaluate(0, jobs=1)
        _, pool_s = self.evaluate(0, jobs=2)
        return pool_s / serial_s

    def outputs(self):
        return {str(i): runs[0] for i, runs in sorted(self.digests.items())}

    def check(self, expected):
        errors = _check_outputs(self.digests, expected, "payload digest")
        for frontier in self.frontiers:
            if not frontier:
                errors.append("empty frontier")
            elif not all(frontier):
                errors.append("infeasible candidate on the frontier")
        return errors


def _check_outputs(outputs, expected, what):
    """Each step's output is the same on every replay and equals the
    value recorded for (seed, step), where one was recorded."""
    errors = []
    for index, values in sorted(outputs.items()):
        if any(value != values[0] for value in values):
            errors.append(f"step {index}: {what} changed on replay")
        if not values[0]:
            errors.append(f"step {index}: empty {what}")
        recorded = (expected or {}).get(str(index))
        if recorded is not None and values[0] != recorded:
            errors.append(
                f"step {index}: {what} {values[0]} != recorded {recorded}"
            )
    return errors


class Fleet:
    """One shard worker's tick loop: 500 sessions, one sample each."""

    min_steps = 1
    n_sessions = 500

    def setup(self, seed):
        from repro.serving import ShardWorker, worker_config
        from repro.serving.shard import static_bundle_payloads

        start_s = time.perf_counter()
        self.logs = stream_logs(seed, n_machines=4, n_runs=1)
        generate_s = time.perf_counter() - start_s
        self.bundle = fit_bundle(seed)
        config = worker_config(
            static_bundles=static_bundle_payloads(
                {PLATFORM: (BUNDLE_VERSION, self.bundle)}
            )
        )
        self.worker = ShardWorker(config)
        self.machine_ids = [f"m{i:04d}" for i in range(self.n_sessions)]
        self.index = {m: i for i, m in enumerate(self.machine_ids)}
        required = None
        for machine_id in self.machine_ids:
            reply = self.worker.open_session(
                {"machine_id": machine_id, "platform": PLATFORM}
            )
            required = reply["required_counters"]
        # One counter dict per (log, second), shared by every session
        # streaming that log; session i reads log i % 4 from offset i.
        self.rows = []
        self.reference = []
        for log in self.logs:
            columns = log.select(list(required))
            self.rows.append(
                [
                    {name: row[j] for j, name in enumerate(required)}
                    for row in columns
                ]
            )
            self.reference.append(
                self.bundle.platform_model.predict_log(log)
            )
        self.t = 0
        self.n_submitted = 0
        self.n_scored = 0
        self.n_mismatched = 0
        self.window = self.worker.session_config.drift_window_seconds
        return {"generate_s": generate_s}

    def step(self, index):
        submits = []
        for i, machine_id in enumerate(self.machine_ids):
            rows = self.rows[i % len(self.rows)]
            submits.append(
                (machine_id, self.t, rows[(self.t + i) % len(rows)], None)
            )
        start_s = time.perf_counter()
        result = self.worker.tick_batch({"submits": submits})
        elapsed = time.perf_counter() - start_s
        # Checked as it arrives, so memory does not grow with the tick
        # count: each session's watts must equal the offline prediction
        # for the row it was sent.
        for sample in result.scored:
            i = self.index[sample.machine_id]
            reference = self.reference[i % len(self.reference)]
            if sample.power_w != reference[(sample.t + i) % reference.size]:
                self.n_mismatched += 1
        self.n_submitted += len(submits)
        self.n_scored += len(result.scored)
        self.t += 1
        return {
            "attempted": len(submits),
            "failed": len(submits) - len(result.scored),
            "busy_s": elapsed,
            "latencies_s": [elapsed],
        }

    def warm_up(self):
        """Tick until every session's drift window is full."""
        start_s = time.perf_counter()
        while self.t < self.window:
            self.step(self.t)
        return time.perf_counter() - start_s

    def outputs(self):
        return {}

    def check(self, expected):
        errors = []
        if self.n_scored != self.n_submitted:
            errors.append(f"scored {self.n_scored} of {self.n_submitted}")
        snapshot = self.worker.snapshot()
        if snapshot["dropped_samples"]:
            errors.append(f"{snapshot['dropped_samples']} dropped")
        if self.n_mismatched:
            errors.append(
                f"{self.n_mismatched} online watts differ from predict_log"
            )
        return errors


class Wire:
    """Localhost TCP replay of 2 long machine streams, unpaced."""

    min_steps = 1
    n_machines = 2
    n_runs = 6
    speed = 1e9

    def setup(self, seed):
        from repro.serving import ReplayMachine

        start_s = time.perf_counter()
        logs = stream_logs(
            seed, n_machines=self.n_machines, n_runs=self.n_runs
        )
        generate_s = time.perf_counter() - start_s
        self.bundle = fit_bundle(seed)
        self.machines = [
            ReplayMachine(
                machine_id=log.machine_id, platform_key=PLATFORM, log=log
            )
            for log in logs
        ]
        self.errors = []
        return {"generate_s": generate_s}

    def step(self, index):
        from repro.serving import replay

        start_s = time.perf_counter()
        result = replay(
            self.machines,
            static_bundles={PLATFORM: (BUNDLE_VERSION, self.bundle)},
            speed=self.speed,
        )
        elapsed = time.perf_counter() - start_s
        submitted = sum(m.log.n_seconds for m in self.machines)
        self.errors.extend(self.verify(result))
        # A sample dropped, shed, late, stale-rejected or lost to a
        # protocol error never comes back as a prediction.
        return {
            "attempted": submitted,
            "failed": submitted - result.total_scored,
            "busy_s": elapsed,
            "latencies_s": [elapsed],
        }

    def outputs(self):
        return {}

    def verify(self, result):
        """Online watts equal the offline reference, nothing dropped.
        Run on each replay as it ends, so results are not kept."""
        from repro.serving import max_deviation_w

        errors = []
        if result.total_dropped:
            errors.append(f"{result.total_dropped} dropped")
        for machine in self.machines:
            deviation = max_deviation_w(
                result.machines[machine.machine_id], self.bundle, machine.log
            )
            if deviation != 0.0:
                errors.append(
                    f"{machine.machine_id}: online deviates from offline "
                    f"by {deviation} W"
                )
        return errors

    def check(self, expected):
        return self.errors


def make(name, scratch_dir):
    if name == "select":
        return Select()
    if name == "dse":
        return Dse(scratch_dir)
    if name == "fleet":
        return Fleet()
    if name == "wire":
        return Wire()
    raise ValueError(f"unknown workload {name!r}")

