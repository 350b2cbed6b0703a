"""Router tier end to end: real TCP, consistent hashing, the barrier.

Mirrors ``test_server.py``'s structure — raw protocol lines over
localhost streams — but with more than one shard, plus the gates that
sharding adds: the golden replay's predictions do not depend on the
shard count, reconnects across ring boundaries, and the exactly-once
hot-swap barrier under a racing publish.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import numpy as np
import pytest

from repro.serving import (
    ModelRegistry,
    ShardedPowerServer,
    load_replay_fixture,
    protocol,
    replay,
)
from repro.serving.router import HashRing

TICK_S = 0.01

FIXTURE_PATH = (
    Path(__file__).parent / "fixtures" / "atom_sort_replay.json"
)


@pytest.fixture(scope="module")
def golden_fixture():
    if not FIXTURE_PATH.exists():
        pytest.fail(
            f"replay fixture missing at {FIXTURE_PATH}; run "
            "`pytest tests/serving --regen-golden` to create it"
        )
    return load_replay_fixture(FIXTURE_PATH)


def _run(coroutine):
    return asyncio.run(coroutine)


async def _connect(server):
    return await asyncio.open_connection(
        server.host, server.port, limit=protocol.MAX_LINE_BYTES
    )


async def _send(writer, message):
    writer.write(protocol.encode_message(message))
    await writer.drain()


async def _recv(reader):
    line = await asyncio.wait_for(reader.readline(), timeout=5.0)
    assert line, "server closed the connection unexpectedly"
    return protocol.decode_line(line)


async def _hello(server, machine_id, platform_key):
    reader, writer = await _connect(server)
    await _send(writer, {
        "type": protocol.HELLO,
        "machine_id": machine_id,
        "platform": platform_key,
    })
    welcome = await _recv(reader)
    return reader, writer, welcome


def _sharded_server(scenario, code="Q", n_shards=2, **kwargs):
    return ShardedPowerServer(
        static_bundles={
            scenario.platform_key: (f"{code}@v1", scenario.bundle(code))
        },
        n_shards=n_shards,
        shard_backend="inline",
        tick_interval_s=TICK_S,
        **kwargs,
    )


def _sample_messages(scenario, log, n, code="Q"):
    from repro.serving import MachineSession

    probe = MachineSession("probe", "v", scenario.bundle(code))
    required = probe.predictor.required_counters
    columns = log.select(list(required))
    return [
        {
            "type": protocol.SAMPLE,
            "t": t,
            "counters": {
                name: columns[t, i] for i, name in enumerate(required)
            },
        }
        for t in range(n)
    ]


def _ids_per_shard(ring, n_wanted):
    """One machine ID owned by each shard (probing a candidate pool)."""
    chosen = {}
    for i in range(10_000):
        machine_id = f"machine-{i}"
        shard = ring.owner(machine_id)
        if shard not in chosen:
            chosen[shard] = machine_id
        if len(chosen) == n_wanted:
            return [chosen[s] for s in range(n_wanted)]
    raise AssertionError("ring never covered every shard")


async def _stream_to_drained(reader, writer, messages):
    for message in messages:
        await _send(writer, message)
    await _send(writer, {"type": protocol.BYE})
    predictions = []
    while True:
        message = await _recv(reader)
        if message["type"] == protocol.PREDICTION:
            predictions.append(message)
        elif message["type"] == protocol.DRAINED:
            return predictions, message["session"]


def test_fleet_scores_bit_identical_across_shards(
    scenario, holdout_log
):
    """Machines on both shards: every prediction matches the offline
    reference and the merged telemetry adds up fleet-wide."""
    ids = _ids_per_shard(HashRing(2), 2)

    async def scenario_run():
        server = _sharded_server(scenario, n_shards=2)
        await server.start()
        try:
            messages = _sample_messages(scenario, holdout_log, 15)
            outcomes = {}
            for machine_id in ids:
                reader, writer, welcome = await _hello(
                    server, machine_id, scenario.platform_key
                )
                assert welcome["type"] == protocol.WELCOME
                assert welcome["model_version"] == "Q@v1"
                outcomes[machine_id] = await _stream_to_drained(
                    reader, writer, messages
                )
                writer.close()
            telemetry = await server.telemetry_async(
                extra_session_rows=[
                    final for _, final in outcomes.values()
                ]
            )
            return outcomes, telemetry
        finally:
            await server.stop()

    outcomes, telemetry = _run(scenario_run())
    offline = scenario.bundle("Q").platform_model.predict_log(holdout_log)
    for machine_id, (predictions, final) in outcomes.items():
        assert [p["t"] for p in predictions] == list(range(15))
        np.testing.assert_array_equal(
            [p["power_w"] for p in predictions], offline[:15]
        )
        assert final["scored"] == 15
        assert final["shed_dropped"] == 0

    json.dumps(telemetry)
    assert telemetry["samples_scored"] == 30
    assert telemetry["sessions_opened"] == 2
    assert telemetry["sessions_closed"] == 2
    assert telemetry["dropped_samples"] == 0
    assert telemetry["router"]["shards"] == 2
    assert telemetry["router"]["ticks"] > 0
    # Both shards actually scored work (the IDs were chosen per shard).
    assert all(b > 0 for b in telemetry["router"]["busy_seconds"])


def test_shards_1_and_2_replays_deliver_identical_predictions(
    golden_fixture,
):
    """The acceptance gate: the golden fixture replayed at shards=1
    and at shards=2 delivers byte-identical prediction messages to
    every machine and scores the same number of samples.

    The end-of-replay ``telemetry["cluster"]`` is deliberately not
    compared: it is the last tick's Eq. 5 sum over the sessions still
    open, so it depends on which tick each machine's ``bye`` drains in,
    and that follows the wall clock, not the shard count."""
    bundle, machines = golden_fixture
    static = {bundle.platform_key: ("golden@v1", bundle)}
    one = replay(machines, static_bundles=static, speed=50.0, shards=1)
    two = replay(machines, static_bundles=static, speed=50.0, shards=2)
    assert one.total_dropped == 0 and two.total_dropped == 0
    assert one.telemetry["router"]["shards"] == 1
    assert two.telemetry["router"]["shards"] == 2
    assert set(one.machines) == set(two.machines)
    for machine_id, machine_result in one.machines.items():
        assert json.dumps(
            two.machines[machine_id].predictions, sort_keys=True
        ) == json.dumps(machine_result.predictions, sort_keys=True)
    assert (
        two.telemetry["samples_scored"]
        == one.telemetry["samples_scored"]
    )


def test_reconnect_same_ring_reuses_the_same_shard(
    scenario, holdout_log
):
    """Abrupt disconnect, then a reconnect of the same machine ID: the
    ring maps it to the same shard, and a fresh session scores."""
    machine_id = _ids_per_shard(HashRing(2), 2)[0]

    async def scenario_run():
        server = _sharded_server(scenario, n_shards=2)
        await server.start()
        try:
            shard = server.ring.owner(machine_id)
            reader, writer, welcome = await _hello(
                server, machine_id, scenario.platform_key
            )
            assert welcome["type"] == protocol.WELCOME
            for message in _sample_messages(scenario, holdout_log, 5):
                await _send(writer, message)
            writer.close()  # abrupt: no bye
            worker = server._hosts[shard].worker
            for _ in range(500):
                if machine_id not in worker.sessions:
                    break
                await asyncio.sleep(TICK_S)
            assert machine_id not in worker.sessions

            reader, writer, welcome = await _hello(
                server, machine_id, scenario.platform_key
            )
            assert welcome["type"] == protocol.WELCOME
            predictions, final = await _stream_to_drained(
                reader,
                writer,
                _sample_messages(scenario, holdout_log, 10),
            )
            writer.close()
            telemetry = await server.telemetry_async(
                extra_session_rows=[final]
            )
            return server.ring.owner(machine_id) == shard, final, telemetry
        finally:
            await server.stop()

    same_shard, final, telemetry = _run(scenario_run())
    assert same_shard
    assert final["scored"] == 10
    assert telemetry["sessions_opened"] == 2
    assert telemetry["sessions_closed"] == 2


def test_reconnect_lands_on_a_different_shard_after_reshard(
    scenario, holdout_log
):
    """A machine that disconnects from a 2-shard fleet and reconnects
    to a 3-shard fleet is owned by a *different* shard — the stream
    completes cleanly there (sessions are shared-nothing, so nothing
    about the machine lives on the old owner)."""
    small, large = HashRing(2), HashRing(3)
    machine_id = next(
        f"machine-{i}"
        for i in range(10_000)
        if small.owner(f"machine-{i}") != large.owner(f"machine-{i}")
    )

    async def scenario_run():
        before = _sharded_server(scenario, n_shards=2)
        await before.start()
        try:
            reader, writer, welcome = await _hello(
                before, machine_id, scenario.platform_key
            )
            assert welcome["type"] == protocol.WELCOME
            for message in _sample_messages(scenario, holdout_log, 5):
                await _send(writer, message)
            writer.close()  # abrupt mid-stream
        finally:
            await before.stop()

        after = _sharded_server(scenario, n_shards=3)
        await after.start()
        try:
            reader, writer, welcome = await _hello(
                after, machine_id, scenario.platform_key
            )
            assert welcome["type"] == protocol.WELCOME
            predictions, final = await _stream_to_drained(
                reader,
                writer,
                _sample_messages(scenario, holdout_log, 10),
            )
            writer.close()
            owner_after = after.ring.owner(machine_id)
            worker_snapshot = after._hosts[owner_after].worker.stats
            return predictions, final, worker_snapshot.n_samples_scored
        finally:
            await after.stop()

    assert small.owner(machine_id) != large.owner(machine_id)
    predictions, final, owner_scored = _run(scenario_run())
    assert [p["t"] for p in predictions] == list(range(10))
    assert final["scored"] == 10
    assert final["shed_dropped"] == 0
    # The new owner did the scoring.
    assert owner_scored == 10


def test_registry_publish_swaps_the_whole_fleet_exactly_once(
    scenario, holdout_log, tmp_path
):
    """The barrier gate: a publish mid-stream flips every session in
    the fleet exactly once, in one coordinated barrier round."""
    registry = ModelRegistry(tmp_path / "registry")
    v1, _ = registry.publish(scenario.bundle("Q"))
    ids = _ids_per_shard(HashRing(2), 2)

    async def scenario_run():
        server = ShardedPowerServer(
            registry=registry,
            n_shards=2,
            shard_backend="inline",
            tick_interval_s=TICK_S,
        )
        await server.start()
        try:
            messages = _sample_messages(scenario, holdout_log, 60)
            streams = {}
            for machine_id in ids:
                reader, writer, welcome = await _hello(
                    server, machine_id, scenario.platform_key
                )
                assert welcome["model_version"] == v1.label
                streams[machine_id] = (reader, writer)
                for message in messages[:30]:
                    await _send(writer, message)
            # Wait until each machine has at least one v1 prediction.
            first = {}
            for machine_id, (reader, _) in streams.items():
                first[machine_id] = await _recv(reader)
                assert first[machine_id]["type"] == protocol.PREDICTION
            v2, _ = registry.publish(scenario.bundle("L"))
            outcomes = {}
            for machine_id, (reader, writer) in streams.items():
                predictions, final = await _stream_to_drained(
                    reader, writer, messages[30:]
                )
                outcomes[machine_id] = (
                    [first[machine_id]] + predictions,
                    final,
                )
                writer.close()
            telemetry = await server.telemetry_async(
                extra_session_rows=[
                    final for _, final in outcomes.values()
                ]
            )
            return outcomes, telemetry, v2
        finally:
            await server.stop()

    outcomes, telemetry, v2 = _run(scenario_run())
    for machine_id, (predictions, final) in outcomes.items():
        assert [p["t"] for p in predictions] == list(range(60))
        versions = [p["model_version"] for p in predictions]
        assert versions[0] == v1.label
        assert versions[-1] == v2.label
        flips = sum(1 for a, b in zip(versions, versions[1:]) if a != b)
        assert flips == 1
        assert final["model_swaps"] == 1
        assert final["shed_dropped"] == 0
    # One barrier round swapped both shards; both committed the same
    # generation — no tick anywhere scored two versions per platform.
    assert telemetry["hot_swaps"] == 2
    assert telemetry["router"]["barrier_swaps"] == 1
    generations = telemetry["router"]["committed_generations"]
    assert len(set(generations)) == 1


def test_barrier_aborts_when_shards_observe_different_generations(
    scenario, tmp_path
):
    """A publish racing the stage fan-out makes shards disagree: the
    round commits nowhere and the next tick converges."""
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(scenario.bundle("Q"))

    async def scenario_run():
        server = ShardedPowerServer(
            registry=registry,
            n_shards=2,
            shard_backend="inline",
            tick_interval_s=60.0,  # ticks driven manually below
        )
        await server.start()
        try:
            worker_0 = server._hosts[0].worker
            baseline = worker_0.committed_generation
            original_stage = worker_0.stage_swap
            state = {"lagged": False}

            def lagging_stage(payload=None):
                # First stage answers with the *previous* generation,
                # as if this shard's manifest read raced the publish.
                generation = original_stage(payload)
                if not state["lagged"]:
                    state["lagged"] = True
                    return generation - 1
                return generation

            worker_0.stage_swap = lagging_stage
            registry.publish(scenario.bundle("L"))

            await server.run_tick()
            aborted = (
                server.n_barrier_aborts,
                server.n_barrier_swaps,
                worker_0.committed_generation,
                server._hosts[1].worker.committed_generation,
            )
            await server.run_tick()
            converged = (
                server.n_barrier_swaps,
                worker_0.committed_generation,
                server._hosts[1].worker.committed_generation,
            )
            return baseline, aborted, converged
        finally:
            await server.stop()

    baseline, aborted, converged = _run(scenario_run())
    n_aborts, n_swaps, gen_0, gen_1 = aborted
    assert n_aborts == 1 and n_swaps == 0
    # Nothing committed anywhere on the aborted round.
    assert gen_0 == baseline and gen_1 == baseline
    n_swaps, gen_0, gen_1 = converged
    assert n_swaps == 1
    assert gen_0 == gen_1 == baseline + 1


def test_router_protocol_violations_are_counted(scenario):
    async def scenario_run():
        server = _sharded_server(scenario, n_shards=2)
        await server.start()
        try:
            outcomes = {}
            reader, writer = await _connect(server)
            await _send(writer, {"type": protocol.STATS})
            outcomes["not_hello"] = await _recv(reader)
            writer.close()

            reader, writer, _ = await _hello(
                server, "dup", scenario.platform_key
            )
            r2, w2 = await _connect(server)
            await _send(w2, {
                "type": protocol.HELLO,
                "machine_id": "dup",
                "platform": scenario.platform_key,
            })
            outcomes["duplicate"] = await _recv(r2)
            writer.close()
            w2.close()

            reader, writer = await _connect(server)
            await _send(writer, {
                "type": protocol.HELLO,
                "machine_id": "m-oversized",
                "platform": scenario.platform_key,
            })
            await _recv(reader)  # welcome
            writer.write(
                b'{"type": "sample", "pad": "'
                + b"x" * (protocol.MAX_LINE_BYTES + 1024)
                + b'"}\n'
            )
            await writer.drain()
            outcomes["oversized"] = await _recv(reader)
            writer.close()

            outcomes["n_errors"] = server.stats.n_protocol_errors
            return outcomes
        finally:
            await server.stop()

    outcomes = _run(scenario_run())
    assert outcomes["not_hello"]["type"] == protocol.ERROR
    assert outcomes["duplicate"]["type"] == protocol.ERROR
    assert "already has a session" in outcomes["duplicate"]["error"]
    assert outcomes["oversized"]["type"] == protocol.ERROR
    assert "oversized" in outcomes["oversized"]["error"]
    assert outcomes["n_errors"] == 3


def test_sharded_server_validates_arguments(scenario):
    with pytest.raises(ValueError, match="exactly one"):
        ShardedPowerServer()
    with pytest.raises(ValueError, match="tick_interval_s"):
        ShardedPowerServer(
            static_bundles={}, n_shards=1, tick_interval_s=0
        )
    with pytest.raises(ValueError, match="unknown shard backend"):
        server = ShardedPowerServer(
            static_bundles={}, shard_backend="quantum"
        )
        _run(server.start())
