"""Per-layer spans recorded from outside the program.

The tracer wraps public functions and class methods of the program's
layers (module attributes, replaced in the namespace where callers look
them up) so nothing inside ``src/`` is instrumented.  Every wrapped
call opens a span on a stack; a span's self time is its duration minus
the durations of the spans it caused.  Spans are kept in memory and
written out when the run ends.

Some boundaries are crossed ~10^5 times per run (``prepare``,
``complete``, drift, protocol encode/decode).  Those are *folded*: they
still sit on the stack, so their parents' self times stay exact, but
only their totals and counts are kept, not one record per call.

All wrapped functions are synchronous, so the single stack stays
consistent under asyncio too: a synchronous call finishes before the
event loop can switch tasks.
"""

from __future__ import annotations

import functools
import importlib
import time


class Tracer:
    """An in-memory span stack with per-name self-time totals."""

    def __init__(self):
        self.spans = []
        """``(span_id, parent_id, name, start_s, end_s)`` of every
        unfolded span, in completion order."""
        self.self_s = {}
        self.calls = {}
        self.counters = {}
        self._stack = []
        self._next_id = 1
        self._patched = []

    # -- spans ---------------------------------------------------------
    def push(self, name):
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def pop(self, frame, fold):
        end_s = time.perf_counter()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        span_id, name, start_s, child_s = frame
        duration = end_s - start_s
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        self.calls[name] = self.calls.get(name, 0) + 1
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        if not fold:
            self.spans.append((span_id, parent_id, name, start_s, end_s))

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def total_self_s(self):
        """Sum of every layer's self time = time inside any root span."""
        return sum(self.self_s.values())

    # -- wrapping ------------------------------------------------------
    def wrap(self, target, name, fold=False, after=None):
        """Replace ``module:attr`` or ``module:Class.method`` with a
        traced wrapper; ``after(tracer, args, result)`` records counts
        from the call's arguments and result."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = tracer.push(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.pop(frame, fold)
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self, table):
        for target, name, fold, after in table:
            self.wrap(target, name, fold=fold, after=after)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def to_payload(self):
        return {
            "spans": [
                {
                    "id": span_id,
                    "parent": parent_id,
                    "name": name,
                    "start_s": start_s,
                    "end_s": end_s,
                }
                for span_id, parent_id, name, start_s, end_s in self.spans
            ],
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }


# -- counts taken from call results ---------------------------------------

def _after_lasso_path(tracer, args, path):
    tracer.count("regression.lasso_entries", len(path.fits))
    tracer.count(
        "regression.lasso_sweeps",
        sum(fit.n_iterations for fit in path.fits),
    )
    tracer.count(
        "regression.lasso_unconverged",
        sum(1 for fit in path.fits if not fit.converged),
    )
    tracer.count(
        "regression.lasso_finite_bic",
        sum(1 for bic in path.bics if bic != float("inf")),
    )


def _after_candidate(tracer, args, verdict):
    tracer.count("dse.candidates")
    if verdict["feasible"]:
        tracer.count("dse.feasible")


def _after_batcher_tick(tracer, args, scored):
    if scored:
        tracer.count("serving.batches")
        tracer.count("serving.batched_samples", len(scored))


def _after_encode(tracer, args, data):
    tracer.count("serving.protocol_bytes", len(data))


def _after_decode(tracer, args, message):
    tracer.count("serving.protocol_bytes", len(args[0]))


# (target, span name, fold, after) for every traced layer boundary.
LAYERS = (
    # Algorithm 1 steps, looked up in the orchestrator's namespace.
    ("repro.selection.algorithm1:pool_runs", "cluster.pool_runs_s",
     False, None),
    ("repro.selection.algorithm1:prune_correlated",
     "selection.correlation_s", False, None),
    ("repro.selection.algorithm1:eliminate_codependent",
     "selection.codependence_s", False, None),
    ("repro.selection.algorithm1:select_machine_features",
     "selection.machine_s", False, None),
    ("repro.selection.algorithm1:pool_and_refine",
     "selection.pooling_s", False, None),
    # Fitters.
    ("repro.selection.machine_selection:fit_lasso_path",
     "regression.lasso_path_s", False, _after_lasso_path),
    ("repro.selection.machine_selection:backward_eliminate",
     "regression.stepwise_s", False, None),
    ("repro.selection.pooling:backward_eliminate",
     "regression.stepwise_s", False, None),
    ("repro.regression.stepwise:fit_ols", "regression.ols_s", True, None),
    ("repro.models.linear:fit_ols", "regression.ols_s", True, None),
    ("repro.models.switching:fit_ols", "regression.ols_s", True, None),
    ("repro.models.piecewise:fit_mars", "regression.mars_s", False, None),
    # Design-space exploration and the engine under it.
    ("repro.dse.objectives:evaluate_candidate",
     "dse.evaluate_candidate_s", False, _after_candidate),
    ("repro.dse.objectives:evaluate_fold",
     "framework.evaluate_fold_s", False, None),
    ("repro.dse.objectives:replay_probe", "serving.replay_probe_s",
     False, None),
    ("repro.engine.cache:ArtifactCache.get", "engine.cache_get_s",
     False, None),
    ("repro.engine.cache:ArtifactCache.put", "engine.cache_put_s",
     False, None),
    # The serving tick, outermost first.
    ("repro.serving.shard:ShardWorker.tick_batch", "serving.tick_batch_s",
     False, None),
    ("repro.serving.batcher:MicroBatchScorer.tick", "serving.batcher_tick_s",
     False, _after_batcher_tick),
    ("repro.serving.session:MachineSession.submit", "serving.submit_s",
     True, None),
    ("repro.serving.session:MachineSession.take_ready",
     "serving.take_ready_s", True, None),
    ("repro.serving.session:MachineSession.prepare", "serving.prepare_s",
     True, None),
    ("repro.framework.online:OnlinePowerPredictor.prepare_row",
     "framework.prepare_row_s", True, None),
    ("repro.models.base:PowerModel.predict", "models.predict_s", True, None),
    ("repro.serving.session:MachineSession.complete", "serving.complete_s",
     True, None),
    ("repro.framework.drift:InputDriftDetector.observe",
     "framework.drift_observe_s", True, None),
    ("repro.framework.drift:InputDriftDetector.verdict",
     "framework.drift_verdict_s", True, None),
    ("repro.serving.aggregate:ClusterAggregator.tick", "serving.aggregate_s",
     False, None),
    # The wire protocol.
    ("repro.serving.protocol:encode_message", "serving.protocol_encode_s",
     True, _after_encode),
    ("repro.serving.protocol:decode_line", "serving.protocol_decode_s",
     True, _after_decode),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, name, _, _ in LAYERS))
