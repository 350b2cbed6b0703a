"""End-to-end server tests over real localhost TCP.

The server is :class:`ShardedPowerServer` with one inline shard — what
``repro serve`` and ``repro replay`` run by default.  The tick loop
runs fast (10 ms) so these stay well under a second each; tests drive
raw protocol lines through asyncio streams, exactly like a production
agent would.  Session counts come from the merged telemetry snapshot,
since the sessions themselves live in the shard.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.serving import ModelRegistry, SessionConfig, ShardedPowerServer
from repro.serving import protocol

TICK_S = 0.01


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


def _static_server(scenario, code="Q", **kwargs):
    return ShardedPowerServer(
        static_bundles={
            scenario.platform_key: (f"{code}@v1", scenario.bundle(code))
        },
        n_shards=1,
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


def test_hello_samples_predictions_bye(scenario, holdout_log):
    async def scenario_run():
        server = _static_server(scenario)
        await server.start()
        try:
            reader, writer = await _connect(server)
            await _send(writer, {
                "type": protocol.HELLO,
                "machine_id": "m0",
                "platform": scenario.platform_key,
            })
            welcome = await _recv(reader)
            assert welcome["type"] == protocol.WELCOME
            assert welcome["model_version"] == "Q@v1"
            assert welcome["required_counters"]

            for message in _sample_messages(scenario, holdout_log, 15):
                await _send(writer, message)
            await _send(writer, {"type": protocol.BYE})

            predictions = []
            while True:
                message = await _recv(reader)
                if message["type"] == protocol.PREDICTION:
                    predictions.append(message)
                elif message["type"] == protocol.DRAINED:
                    final = message["session"]
                    break
            writer.close()
            return predictions, final
        finally:
            await server.stop()

    predictions, final = _run(scenario_run())
    assert [p["t"] for p in predictions] == list(range(15))
    offline = scenario.bundle("Q").platform_model.predict_log(holdout_log)
    np.testing.assert_array_equal(
        [p["power_w"] for p in predictions], offline[:15]
    )
    assert final["scored"] == 15
    assert final["late_dropped"] == 0 and final["shed_dropped"] == 0


def test_stats_request_returns_full_telemetry(scenario, holdout_log):
    async def scenario_run():
        server = _static_server(scenario)
        await server.start()
        try:
            reader, writer = await _connect(server)
            await _send(writer, {
                "type": protocol.HELLO,
                "machine_id": "m0",
                "platform": scenario.platform_key,
            })
            await _recv(reader)  # welcome
            for message in _sample_messages(scenario, holdout_log, 5):
                await _send(writer, message)
            # Let at least one tick score before asking.
            await asyncio.sleep(TICK_S * 5)
            await _send(writer, {"type": protocol.STATS})
            while True:
                message = await _recv(reader)
                if message["type"] == protocol.STATS:
                    writer.close()
                    return message["stats"]
        finally:
            await server.stop()

    stats = _run(scenario_run())
    json.dumps(stats)
    assert stats["sessions_opened"] == 1
    assert stats["samples_scored"] == 5
    assert stats["cluster"] is not None
    assert stats["cluster"]["n_machines"] == 1
    assert stats["sessions"][0]["machine_id"] == "m0"


def test_protocol_violations_are_rejected(scenario):
    async def scenario_run():
        server = _static_server(scenario)
        await server.start()
        outcomes = {}
        try:
            # Not a hello first.
            reader, writer = await _connect(server)
            await _send(writer, {"type": protocol.STATS})
            outcomes["not_hello"] = await _recv(reader)
            writer.close()

            # Unknown platform.
            reader, writer = await _connect(server)
            await _send(writer, {
                "type": protocol.HELLO,
                "machine_id": "m1",
                "platform": "no-such-platform",
            })
            outcomes["bad_platform"] = await _recv(reader)
            writer.close()

            # Malformed JSON after a valid hello.
            reader, writer = await _connect(server)
            await _send(writer, {
                "type": protocol.HELLO,
                "machine_id": "m2",
                "platform": scenario.platform_key,
            })
            await _recv(reader)  # welcome
            writer.write(b"this is not json\n")
            await writer.drain()
            outcomes["bad_json"] = await _recv(reader)
            writer.close()

            # Duplicate machine_id.
            r1, w1 = await _connect(server)
            await _send(w1, {
                "type": protocol.HELLO,
                "machine_id": "dup",
                "platform": scenario.platform_key,
            })
            await _recv(r1)
            r2, w2 = await _connect(server)
            await _send(w2, {
                "type": protocol.HELLO,
                "machine_id": "dup",
                "platform": scenario.platform_key,
            })
            outcomes["duplicate"] = await _recv(r2)
            w1.close()
            w2.close()
            outcomes["n_errors"] = server.stats.n_protocol_errors
            return outcomes
        finally:
            await server.stop()

    outcomes = _run(scenario_run())
    assert outcomes["not_hello"]["type"] == protocol.ERROR
    assert "hello" in outcomes["not_hello"]["error"]
    assert outcomes["bad_platform"]["type"] == protocol.ERROR
    assert "no live model" in outcomes["bad_platform"]["error"]
    assert outcomes["bad_json"]["type"] == protocol.ERROR
    assert outcomes["duplicate"]["type"] == protocol.ERROR
    assert "already has a session" in outcomes["duplicate"]["error"]
    assert outcomes["n_errors"] == 4


def test_registry_publish_hot_swaps_live_sessions(
    scenario, holdout_log, tmp_path
):
    """A publish while a machine streams swaps its model mid-stream
    without dropping or double-scoring any sample."""
    registry = ModelRegistry(tmp_path / "registry")
    v1, _ = registry.publish(scenario.bundle("Q"))

    async def scenario_run():
        server = ShardedPowerServer(
            registry=registry,
            n_shards=1,
            shard_backend="inline",
            tick_interval_s=TICK_S,
            session_config=SessionConfig(queue_limit=256, gap_tolerance=8),
        )
        await server.start()
        try:
            reader, writer = await _connect(server)
            await _send(writer, {
                "type": protocol.HELLO,
                "machine_id": "m0",
                "platform": scenario.platform_key,
            })
            welcome = await _recv(reader)
            assert welcome["model_version"] == v1.label

            messages = _sample_messages(scenario, holdout_log, 60)
            for message in messages[:30]:
                await _send(writer, message)
            # Wait until at least one sample is scored under v1...
            predictions = [await _recv(reader)]
            assert predictions[0]["type"] == protocol.PREDICTION
            # ...then publish v2 while samples are still in flight.
            v2, _ = registry.publish(scenario.bundle("L"))
            for message in messages[30:]:
                await _send(writer, message)
            await _send(writer, {"type": protocol.BYE})

            while True:
                message = await _recv(reader)
                if message["type"] == protocol.PREDICTION:
                    predictions.append(message)
                elif message["type"] == protocol.DRAINED:
                    final = message["session"]
                    break
            writer.close()
            return predictions, final, v2
        finally:
            await server.stop()

    predictions, final, v2 = _run(scenario_run())
    # Exactly once: every t delivered once, none dropped or duplicated.
    assert [p["t"] for p in predictions] == list(range(60))
    assert final["scored"] == 60
    assert final["late_dropped"] == 0 and final["shed_dropped"] == 0
    versions = [p["model_version"] for p in predictions]
    assert versions[0] == v1.label
    assert versions[-1] == v2.label
    assert final["model_swaps"] == 1
    # The version sequence flips exactly once (no flapping).
    flips = sum(
        1 for a, b in zip(versions, versions[1:]) if a != b
    )
    assert flips == 1
    # Every sample's watts match the model that scored it.
    offline = {
        v1.label: scenario.bundle("Q").platform_model.predict_log(
            holdout_log
        ),
        v2.label: scenario.bundle("L").platform_model.predict_log(
            holdout_log
        ),
    }
    for prediction in predictions:
        expected = offline[prediction["model_version"]][prediction["t"]]
        assert prediction["power_w"] == expected


def test_abrupt_disconnect_closes_the_session(scenario, holdout_log):
    async def scenario_run():
        server = _static_server(scenario)
        await server.start()
        try:
            reader, writer = await _connect(server)
            await _send(writer, {
                "type": protocol.HELLO,
                "machine_id": "m0",
                "platform": scenario.platform_key,
            })
            await _recv(reader)
            writer.close()  # no bye
            await asyncio.sleep(TICK_S * 5)
            telemetry = await server.telemetry_async()
            return telemetry["sessions_closed"], len(telemetry["sessions"])
        finally:
            await server.stop()

    closed, remaining = _run(scenario_run())
    assert closed == 1
    assert remaining == 0


def test_oversized_line_mid_stream_counts_a_protocol_error(scenario):
    """Regression: an oversized line *after* the hello used to be
    swallowed silently (no error reply, no counter). It must account
    identically to the oversized-hello path."""
    async def scenario_run():
        server = _static_server(scenario)
        await server.start()
        try:
            reader, writer = await _connect(server)
            await _send(writer, {
                "type": protocol.HELLO,
                "machine_id": "m0",
                "platform": scenario.platform_key,
            })
            await _recv(reader)  # welcome
            writer.write(
                b'{"type": "sample", "pad": "'
                + b"x" * (protocol.MAX_LINE_BYTES + 1024)
                + b'"}\n'
            )
            await writer.drain()
            error = await _recv(reader)
            tail = await reader.read()  # server closes the connection
            await asyncio.sleep(TICK_S * 2)
            telemetry = await server.telemetry_async()
            return (
                error,
                tail,
                server.stats.n_protocol_errors,
                len(telemetry["sessions"]),
            )
        finally:
            await server.stop()

    error, tail, n_errors, remaining = _run(scenario_run())
    assert error["type"] == protocol.ERROR
    assert "oversized" in error["error"]
    assert tail == b""
    assert n_errors == 1
    assert remaining == 0


def test_stalled_consumer_is_closed_without_blocking_the_tick(
    scenario, holdout_log
):
    """Regression: ``run_tick`` used to drain after every prediction
    write, so one stalled peer head-of-line blocked the whole fleet.
    Writes are now buffered per client and drained once per tick with
    a deadline; the stalled peer is closed and counted, and healthy
    clients keep receiving predictions."""

    async def scenario_run():
        server = _static_server(scenario, drain_timeout_s=0.05)
        await server.start()
        try:
            slow_reader, slow_writer = await _connect(server)
            await _send(slow_writer, {
                "type": protocol.HELLO,
                "machine_id": "slow",
                "platform": scenario.platform_key,
            })
            await _recv(slow_reader)
            fast_reader, fast_writer = await _connect(server)
            await _send(fast_writer, {
                "type": protocol.HELLO,
                "machine_id": "fast",
                "platform": scenario.platform_key,
            })
            await _recv(fast_reader)

            # Simulate a peer that never reads: pause the stream
            # protocol's flow control, exactly what the transport does
            # when the socket buffer to that peer is full. drain()
            # then blocks until the deadline.
            server._clients["slow"].writer._protocol.pause_writing()

            messages = _sample_messages(scenario, holdout_log, 10)
            for message in messages[:5]:
                await _send(slow_writer, message)
            for message in messages[:5]:
                await _send(fast_writer, message)
            fast_predictions = [await _recv(fast_reader) for _ in range(5)]
            for _ in range(200):
                if server.stats.n_stalled_closed:
                    break
                await asyncio.sleep(TICK_S)
            # The fast client is still live end to end.
            for message in messages[5:]:
                await _send(fast_writer, message)
            await _send(fast_writer, {"type": protocol.BYE})
            while True:
                message = await _recv(fast_reader)
                if message["type"] == protocol.DRAINED:
                    final = message["session"]
                    break
                fast_predictions.append(message)
            fast_writer.close()
            slow_writer.close()
            return (
                server.stats.n_stalled_closed,
                "slow" in server._clients,
                [p["t"] for p in fast_predictions],
                final,
            )
        finally:
            await server.stop()

    n_stalled, slow_live, fast_ts, final = _run(scenario_run())
    assert n_stalled == 1
    assert not slow_live
    assert fast_ts == list(range(10))
    assert final["scored"] == 10
