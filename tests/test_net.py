"""Networked trials: handshake, lockstep equivalence, realtime coasting."""

import logging
import socket
import threading
import time

import pytest

from affectsim import net
from affectsim.config import parse_scenario, resolve_scenario
from affectsim.harness import controller_for_slot, homogeneous_team, mixed_team, run_trial
from affectsim.net import (
    AgentClient,
    SimulationServer,
    ViewerClient,
    _Session,
    run_networked_trial,
)
from affectsim.temperament import TemperamentKind
from affectsim.wire import MotorCommand, Motors, Sensors, WireError, decode, encode
from affectsim.world import SensorReadings

SMALL = """
[arena]
width = 8
height = 8

[beacon]
x = 7
y = 7
radius = 0.5

[spawns]
s0 = 2 2 45
s1 = 4 2 45
s2 = 6 2 90
s3 = 2 4 0
s4 = 4 4 45
s5 = 6 4 90
s6 = 2 6 0
s7 = 4 6 45
s8 = 6 6 45
"""

TEAM = homogeneous_team(TemperamentKind.SANGUINE)

CLEAR = SensorReadings((1.0, 1.0, 1.0), None, 0.0, False, False)


def _line(sock_file) -> str:
    return sock_file.readline()


def _connect(port):
    conn = socket.create_connection(("127.0.0.1", port))
    reader = conn.makefile("r", encoding="ascii", newline="\n")
    return conn, reader


# -- session mailbox (over a socketpair, no server) ----------------------


def _session_pair():
    left, right = socket.socketpair()
    session = _Session(left, "agent", "probe")
    thread = threading.Thread(target=session.run_reader, daemon=True)
    thread.start()
    writer = right.makefile("w", encoding="ascii", newline="\n")
    return session, right, writer


def test_duplicate_motors_last_write_wins():
    session, peer, writer = _session_pair()
    try:
        session.send(Sensors(3, CLEAR))
        writer.write(encode(Motors(3, MotorCommand(0.1, 0.1))))
        writer.write(encode(Motors(3, MotorCommand(0.9, -0.9))))
        writer.flush()
        cmd = session.collect(3, deadline=None)
        assert cmd == MotorCommand(0.9, -0.9)
        assert session.dup_warnings == 1
    finally:
        session.close()
        peer.close()


def test_stale_commands_are_discarded_with_warning():
    session, peer, writer = _session_pair()
    try:
        session.send(Sensors(0, CLEAR))
        writer.write(encode(Motors(0, MotorCommand(0.5, 0.5))))
        writer.flush()
        session.send(Sensors(1, CLEAR))
        deadline = time.monotonic() + 0.1
        assert session.collect(1, deadline) is None  # timed out, coast
        assert session.stale_warnings == 1
        assert session.answer is None
    finally:
        session.close()
        peer.close()


def test_motors_ahead_of_sensors_are_discarded_and_the_mailbox_stays_bounded():
    session, peer, writer = _session_pair()
    try:
        session.send(Sensors(0, CLEAR))
        writer.write(encode(Motors(0, MotorCommand(0.5, -0.5))))
        for cycle in range(1, 20_001):
            writer.write(encode(Motors(cycle, MotorCommand(0.1, 0.1))))
        writer.flush()
        deadline = time.monotonic() + 20.0
        while session.early_warnings < 20_000 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert session.early_warnings == 20_000
        assert session.answer == MotorCommand(0.5, -0.5)  # the one command held
        assert session.alive
        assert session.collect(0, time.monotonic() + 5.0) == MotorCommand(0.5, -0.5)
    finally:
        session.close()
        peer.close()


def test_collect_returns_none_once_peer_dies():
    session, peer, writer = _session_pair()
    writer.close()
    peer.close()
    time.sleep(0.05)
    assert session.collect(0, deadline=None) is None
    session.close()


def test_malformed_line_is_echoed_as_parse_error():
    session, peer, writer = _session_pair()
    reader = peer.makefile("r", encoding="ascii", newline="\n")
    try:
        writer.write("MOT spam 0.1 0.2\n")
        writer.flush()
        reply = decode(reader.readline())
        assert reply.code == "parse"
    finally:
        session.close()
        peer.close()


def test_non_ascii_line_is_a_parse_error_and_the_session_lives():
    session, peer, writer = _session_pair()
    peer.settimeout(5.0)
    reader = peer.makefile("r", encoding="ascii", newline="\n")
    try:
        peer.sendall("MOT 0 0.\u00e90 0\n".encode("utf-8"))
        reply = decode(reader.readline())
        assert isinstance(reply, WireError) and reply.code == "parse"
        assert session.alive
        session.send(Sensors(0, CLEAR))
        writer.write(encode(Motors(0, MotorCommand(0.25, -0.25))))
        writer.flush()
        assert session.collect(0, time.monotonic() + 5.0) == MotorCommand(0.25, -0.25)
    finally:
        session.close()
        peer.close()


def test_non_ascii_registration_is_refused():
    spec = parse_scenario(SMALL)
    with SimulationServer(spec, TEAM, seed=0) as server:
        conn, reader = _connect(server.port)
        conn.settimeout(5.0)
        conn.sendall(b"REG agent \xff\n")
        reply = decode(reader.readline())
        assert reply.code == "register"
        assert not server.sessions
        conn.close()


def test_non_motors_message_is_rejected():
    session, peer, writer = _session_pair()
    reader = peer.makefile("r", encoding="ascii", newline="\n")
    try:
        writer.write("FIN 3\n")
        writer.flush()
        reply = decode(reader.readline())
        assert reply.code == "unexpected"
    finally:
        session.close()
        peer.close()


# -- registration --------------------------------------------------------


def test_slots_assigned_in_registration_order_and_overflow_refused():
    spec = parse_scenario(SMALL)
    with SimulationServer(spec, TEAM, seed=0) as server:
        conns = []
        try:
            for i in range(9):
                conn, reader = _connect(server.port)
                conn.sendall(f"REG agent a{i}\n".encode("ascii"))
                hello = decode(reader.readline())
                assert hello.agent_id == i
                assert hello.cycle_period == spec.physics.cycle_period
                conns.append((conn, reader))
            extra, extra_reader = _connect(server.port)
            extra.sendall(b"REG agent late\n")
            refusal = decode(extra_reader.readline())
            assert refusal.code == "full"
            extra.close()
        finally:
            for conn, _ in conns:
                conn.close()


def test_first_line_must_register():
    spec = parse_scenario(SMALL)
    with SimulationServer(spec, TEAM, seed=0) as server:
        conn, reader = _connect(server.port)
        conn.sendall(b"MOT 0 0.000000 0.000000\n")
        reply = decode(reader.readline())
        assert reply.code == "register"
        conn.close()


def test_silent_client_is_dropped_within_the_handshake_timeout(monkeypatch):
    monkeypatch.setattr(net, "HANDSHAKE_TIMEOUT", 0.2)
    with SimulationServer(parse_scenario(SMALL), TEAM, seed=0) as server:
        conn, reader = _connect(server.port)
        conn.settimeout(5.0)
        start = time.monotonic()
        assert reader.readline() == ""  # closed without a word
        assert time.monotonic() - start < 2.0
        assert not server.sessions
        conn.close()


def test_over_long_first_line_is_refused_and_closed():
    with SimulationServer(parse_scenario(SMALL), TEAM, seed=0) as server:
        conn, reader = _connect(server.port)
        conn.settimeout(5.0)
        # No newline: the server must stop reading at its cap, not wait
        # for the end of the line.
        conn.sendall(b"REG agent " + b"x" * net.MAX_REGISTER_LINE)
        reply = decode(reader.readline())
        assert reply.code == "register"
        assert reader.readline() == ""
        assert not server.sessions
        conn.close()


def test_registered_agent_may_stay_silent_past_the_handshake_timeout(monkeypatch):
    monkeypatch.setattr(net, "HANDSHAKE_TIMEOUT", 0.2)
    with SimulationServer(parse_scenario(SMALL), TEAM, seed=0) as server:
        conn, reader = _connect(server.port)
        conn.settimeout(5.0)
        conn.sendall(b"REG agent slow\n")
        assert decode(reader.readline()).agent_id == 0
        time.sleep(0.5)  # longer than the handshake timeout
        session = server.sessions[0]
        assert session.alive
        assert session.conn.gettimeout() is None
        conn.close()


def test_viewer_welcome_has_no_slot():
    spec = parse_scenario(SMALL)
    with SimulationServer(spec, TEAM, seed=0) as server:
        conn, reader = _connect(server.port)
        conn.sendall(b"REG viewer tv\n")
        hello = decode(reader.readline())
        assert hello.agent_id == -1
        conn.close()


def test_wait_for_agents_times_out():
    spec = parse_scenario(SMALL)
    with SimulationServer(spec, TEAM, seed=0) as server:
        with pytest.raises(TimeoutError, match="0/9"):
            server.wait_for_agents(timeout=0.1)


# -- full loopback trials ------------------------------------------------


def test_lockstep_run_matches_in_process_run():
    spec = parse_scenario(SMALL, name="small")
    direct = run_trial(spec, TEAM, seed=3, t_max=60)
    networked = run_networked_trial(spec, TEAM, seed=3, t_max=60)
    assert networked == direct


def test_viewer_streams_frames_during_a_trial():
    spec = parse_scenario(SMALL, name="small")
    server = SimulationServer(spec, TEAM, seed=1, t_max=40).start()
    frames = []
    try:
        def watch():
            viewer = ViewerClient("127.0.0.1", server.port)
            frames.extend(viewer.frames(limit=10))

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        time.sleep(0.05)  # let the viewer register before cycles start

        threads = []
        for i in range(9):
            client = AgentClient(
                "127.0.0.1",
                server.port,
                lambda slot: controller_for_slot(spec, TEAM, 1, slot),
                name=f"a{i}",
            )
            t = threading.Thread(target=client.run, daemon=True)
            t.start()
            threads.append(t)
        metrics = server.run_trial()
        watcher.join(timeout=5.0)
        for t in threads:
            t.join(timeout=5.0)
    finally:
        server.close()
    assert len(metrics.agents) == 9
    assert len(frames) == 10
    assert all(len(f.poses) == 9 for f in frames)
    cycles = [f.cycle for f in frames]
    assert cycles == sorted(cycles)


def test_viewer_decodes_every_frame_of_a_social_trial():
    # The social arena spawns bodies at 225, 270 and 315 degrees: raw
    # spawn headings above pi that the first frame must still carry.
    spec = resolve_scenario("social")
    mixed = mixed_team()
    server = SimulationServer(spec, mixed, seed=0, t_max=3).start()
    frames = []
    try:
        viewer = ViewerClient("127.0.0.1", server.port)
        watcher = threading.Thread(target=lambda: frames.extend(viewer.frames()), daemon=True)
        watcher.start()
        deadline = time.monotonic() + 10.0
        while not server.viewers and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.viewers, "viewer never registered"
        threads = []
        for i in range(9):
            client = AgentClient(
                "127.0.0.1",
                server.port,
                lambda slot: controller_for_slot(spec, mixed, 0, slot),
                name=f"a{i}",
            )
            t = threading.Thread(target=client.run, daemon=True)
            t.start()
            threads.append(t)
        server.run_trial()
        watcher.join(timeout=5.0)
        for t in threads:
            t.join(timeout=5.0)
    finally:
        server.close()
    assert [f.cycle for f in frames] == [0, 1, 2]
    assert all(len(f.poses) == 9 for f in frames)


def test_realtime_silent_agent_coasts_and_trial_still_ends(caplog):
    spec = parse_scenario(SMALL, name="small")
    server = SimulationServer(
        spec, TEAM, seed=0, lockstep=False, t_max=20, cycle_deadline=0.02
    ).start()
    try:
        threads = []
        for i in range(8):
            client = AgentClient(
                "127.0.0.1",
                server.port,
                lambda slot: controller_for_slot(spec, TEAM, 0, slot),
                name=f"a{i}",
            )
            t = threading.Thread(target=client.run, daemon=True)
            t.start()
            threads.append(t)
        # The ninth agent registers last and then never answers a single cycle.
        server.wait_for_agents(8, timeout=10.0)
        mute, mute_reader = _connect(server.port)
        mute.sendall(b"REG agent mute\n")
        assert decode(mute_reader.readline()).agent_id == 8

        with caplog.at_level(logging.INFO, logger="affectsim.net"):
            metrics = server.run_trial()
        assert len(metrics.agents) == 9
        assert server.sessions[8].drops == 20
        assert all(server.sessions[i].drops == 0 for i in range(8))
        about_mute = [r for r in caplog.records if r.getMessage().startswith("agent 8 ")]
        assert [r.levelno for r in about_mute] == [logging.WARNING, logging.INFO]
        assert about_mute[-1].getMessage() == "agent 8 coasted 20 silent cycles"
        mute.close()
        for t in threads:
            t.join(timeout=5.0)
    finally:
        server.close()
