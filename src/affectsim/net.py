"""Cycle-synchronized simulation server and clients.

The simulator is the server; agent minds and read-only viewers are
clients on a newline-delimited TCP stream. Each cycle the server sends
every live agent its Sensors line (and every viewer a ViewFrame), then
collects Motors replies. In lockstep mode (the default) it waits
indefinitely for every reply, which makes a networked run reproduce the
in-process run bit for bit; in realtime mode late agents simply coast
that cycle. Concurrent I/O, serialized simulation: reader threads only
fill per-session mailboxes, and the world is touched by the cycle driver
alone.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from typing import Callable, Dict, List, Optional

from .harness import (
    CommandSource,
    TEAM_SIZE,
    TeamSpec,
    TrialEngine,
    TrialMetrics,
    T_MAX,
    _assemble_metrics,
    build_controllers,
    controller_for_slot,
    team_profiles,
)
from .appraisal import EmotionTracker
from .config import make_world, resolve_scenario
from .mind import AgentController
from .pad import scale_for_report
from .wire import (
    Finish,
    Motors,
    PoseReport,
    Register,
    ROLE_AGENT,
    ROLE_VIEWER,
    Sensors,
    ViewFrame,
    Welcome,
    WireError,
    canonical_command,
    decode,
    encode,
)
from .world import MotorCommand, SensorReadings, wrap_angle

log = logging.getLogger("affectsim.net")


class _Session:
    """One client connection: writer plus a Motors mailbox that holds at
    most the answer to the last Sensors sent (PROTOCOL.md, Mailbox discipline)."""

    def __init__(self, conn: socket.socket, role: str, name: str) -> None:
        self.conn = conn
        self.role = role
        self.name = name
        self.agent_id = -1
        # Bytes, not text: a non-ASCII line must reach decode() and be
        # answered, not raise inside the reader and end the session.
        self.reader = conn.makefile("rb")
        self.cond = threading.Condition()
        self.asked: Optional[int] = None  # cycle of the last Sensors sent
        self.answer: Optional[MotorCommand] = None  # its unread Motors
        self.alive = True
        self.dup_warnings = 0
        self.stale_warnings = 0
        self.early_warnings = 0
        self.drops = 0
        self._wlock = threading.Lock()

    def send(self, msg) -> bool:
        if not self.alive:
            return False
        if isinstance(msg, Sensors):
            with self.cond:  # an unread answer to an earlier Sensors is stale
                if self.answer is not None:
                    self.stale_warnings += 1
                self.answer = None
                self.asked = msg.cycle
        try:
            with self._wlock:
                self.conn.sendall(encode(msg).encode("ascii"))
            return True
        except OSError:
            self.mark_dead()
            return False

    def mark_dead(self) -> None:
        with self.cond:
            self.alive = False
            self.cond.notify_all()

    def run_reader(self) -> None:
        """Pump Motors lines into the mailbox until the peer goes away."""
        try:
            for line in self.reader:
                msg = decode(line.decode("ascii", "replace"))
                if isinstance(msg, Motors):
                    self._receive(msg)
                elif isinstance(msg, WireError):
                    self.send(msg)
                else:
                    self.send(WireError("unexpected", f"cannot accept {type(msg).__name__}"))
        except (OSError, ValueError):
            pass
        self.mark_dead()

    def _receive(self, msg: Motors) -> None:
        with self.cond:
            if self.asked is None or msg.cycle > self.asked:
                self.early_warnings += 1
            elif msg.cycle < self.asked:
                self.stale_warnings += 1
            else:
                if self.answer is not None:
                    self.dup_warnings += 1  # last write wins
                self.answer = msg.command
                self.cond.notify_all()

    def collect(self, cycle: int, deadline: Optional[float]) -> Optional[MotorCommand]:
        """Take this cycle's command; None means coast.

        Lockstep (deadline None) blocks until the command arrives or the
        session dies.
        """
        with self.cond:
            while True:
                if cycle == self.asked and self.answer is not None:
                    answer, self.answer = self.answer, None
                    return answer
                if not self.alive:
                    return None
                if deadline is None:
                    self.cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0 or not self.cond.wait(timeout=remaining):
                        return None

    def close(self) -> None:
        self.mark_dead()
        try:
            self.conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.conn.close()
        except OSError:
            pass


class _NetSource(CommandSource):
    """CommandSource that trades wire messages for a SimulationServer."""

    def __init__(self, server: "SimulationServer") -> None:
        self.server = server

    def commands(self, cycle: int, readings: Dict[int, SensorReadings]):
        server = self.server
        for agent_id in sorted(readings):
            session = server.sessions.get(agent_id)
            if session is not None:
                session.send(Sensors(cycle, readings[agent_id]))
        server.broadcast_frame(cycle)
        deadline = None
        if not server.lockstep:
            deadline = time.monotonic() + server.cycle_deadline
        out: Dict[int, MotorCommand] = {}
        for agent_id in sorted(readings):
            session = server.sessions.get(agent_id)
            if session is None:
                continue
            cmd = session.collect(cycle, deadline)
            if cmd is None:
                if not session.drops:  # once per agent; close() reports the count
                    log.warning("agent %d silent at cycle %d; coasting", agent_id, cycle)
                session.drops += 1
                continue
            out[agent_id] = cmd
        return out

    def notify_finish(self, agent_id: int, cycle: int) -> None:
        session = self.server.sessions.get(agent_id)
        if session is not None:
            session.send(Finish(cycle))

    def close(self, cycle: int) -> None:
        for agent_id, session in sorted(self.server.sessions.items()):
            if session.drops:
                log.info("agent %d coasted %d silent cycles", agent_id, session.drops)
        self.server.finish_all(cycle)


class SimulationServer:
    """Serve one networked trial: registration, cycle loop, metrics.

    Agent slots are assigned in registration order. The server owns the
    world and a mirror EmotionTracker per agent (profiles are a pure
    function of seed and slot), which is how ViewFrames carry PAD data
    and how TrialMetrics stay comparable with in-process runs.
    """

    def __init__(
        self,
        scenario,
        team: TeamSpec,
        seed: int,
        host: str = "127.0.0.1",
        port: int = 0,
        lockstep: bool = True,
        t_max: int = T_MAX,
        cycle_deadline: Optional[float] = None,
    ) -> None:
        self.spec = resolve_scenario(scenario)
        self.team = team
        self.seed = seed
        self.host = host
        self.requested_port = port
        self.lockstep = lockstep
        self.t_max = t_max
        self.cycle_deadline = (
            cycle_deadline if cycle_deadline is not None else self.spec.physics.cycle_period
        )
        self.profiles = team_profiles(team, seed, self.spec.temperament)
        self.world = None
        self.trackers: Dict[int, EmotionTracker] = {}
        self.sessions: Dict[int, _Session] = {}
        self.viewers: List[_Session] = []
        self._lock = threading.Lock()
        self._registered = threading.Condition(self._lock)
        self._next_slot = 0
        self._listener: Optional[socket.socket] = None
        self.port = port

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "SimulationServer":
        listener = socket.create_server((self.host, self.requested_port))
        listener.listen(TEAM_SIZE + 4)
        self._listener = listener
        self.port = listener.getsockname()[1]
        threading.Thread(target=self._accept_loop, daemon=True).start()
        return self

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._handshake, args=(conn,), daemon=True).start()

    def _handshake(self, conn: socket.socket) -> None:
        reader = conn.makefile("rb")
        line = reader.readline().decode("ascii", "replace")
        msg = decode(line) if line else WireError("parse", "no registration")
        if not isinstance(msg, Register):
            try:
                conn.sendall(encode(WireError("register", "expected REG first")).encode("ascii"))
                conn.close()
            except OSError:
                pass
            return
        session = _Session(conn, msg.role, msg.name)
        session.reader = reader
        if msg.role == ROLE_AGENT:
            with self._lock:
                if self._next_slot >= len(self.team.composition):
                    session.send(WireError("full", "all agent slots taken"))
                    session.close()
                    return
                slot = self._next_slot
                self._next_slot += 1
                session.agent_id = slot
                self.sessions[slot] = session
                self._registered.notify_all()
            session.send(Welcome(slot, self.spec.physics.cycle_period))
            threading.Thread(target=session.run_reader, daemon=True).start()
        else:
            with self._lock:
                self.viewers.append(session)
            session.send(Welcome(-1, self.spec.physics.cycle_period))
            threading.Thread(target=session.run_reader, daemon=True).start()

    def wait_for_agents(self, count: Optional[int] = None, timeout: Optional[float] = None) -> None:
        expected = count if count is not None else len(self.team.composition)
        with self._registered:
            ok = self._registered.wait_for(
                lambda: len(self.sessions) >= expected, timeout=timeout
            )
        if not ok:
            raise TimeoutError(
                f"only {len(self.sessions)}/{expected} agents registered"
            )

    def run_trial(self, expected_agents: Optional[int] = None) -> TrialMetrics:
        """Wait for registration, drive the trial, return its metrics."""
        self.wait_for_agents(expected_agents)
        self.world = make_world(self.spec, self.profiles, self.seed)
        controllers = build_controllers(self.spec, self.profiles, self.seed)
        self.trackers = {slot: c.tracker for slot, c in controllers.items()}
        engine = TrialEngine(self.world, self.trackers, self.t_max)
        finish, traj = engine.run(_NetSource(self))
        return _assemble_metrics(
            self.spec, self.team, self.seed, self.profiles, finish, traj, self.t_max
        )

    def broadcast_frame(self, cycle: int) -> None:
        if not self.viewers or self.world is None:
            return
        poses = []
        for body in self.world.bodies:
            tracker = self.trackers.get(body.agent_id)
            reported = (
                scale_for_report(tracker.state.current) if tracker else (0.0, 0.0, 0.0)
            )
            poses.append(
                PoseReport(
                    body.agent_id,
                    body.x,
                    body.y,
                    wrap_angle(body.heading),  # a spawn heading may lie past pi
                    body.broadcast_label,
                    reported[0],
                    reported[1],
                    reported[2],
                )
            )
        frame = ViewFrame(cycle, tuple(poses))
        with self._lock:
            viewers = list(self.viewers)
        for viewer in viewers:
            viewer.send(frame)

    def finish_all(self, cycle: int) -> None:
        for session in list(self.sessions.values()) + list(self.viewers):
            session.send(Finish(cycle))

    def close(self) -> None:
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for session in list(self.sessions.values()) + list(self.viewers):
            session.close()

    def __enter__(self) -> "SimulationServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


class AgentClient:
    """A remote agent mind: register, answer Sensors with Motors, stop on
    Finish. The controller factory receives the slot assigned by the
    server so the client can rebuild its own profile deterministically."""

    def __init__(
        self,
        host: str,
        port: int,
        controller_factory: Callable[[int], AgentController],
        name: str = "agent",
    ) -> None:
        self.host = host
        self.port = port
        self.controller_factory = controller_factory
        self.name = name
        self.agent_id = -1
        self.cycles = 0

    def run(self) -> int:
        with socket.create_connection((self.host, self.port)) as conn:
            reader = conn.makefile("r", encoding="ascii", newline="\n")
            conn.sendall(encode(Register(ROLE_AGENT, self.name)).encode("ascii"))
            hello = decode(reader.readline())
            if not isinstance(hello, Welcome):
                raise RuntimeError(f"server refused registration: {hello!r}")
            self.agent_id = hello.agent_id
            controller = self.controller_factory(self.agent_id)
            for line in reader:
                msg = decode(line)
                if isinstance(msg, Sensors):
                    verdict = controller.step(msg.readings, msg.cycle)
                    reply = Motors(msg.cycle, canonical_command(verdict.command))
                    conn.sendall(encode(reply).encode("ascii"))
                    self.cycles += 1
                elif isinstance(msg, Finish):
                    break
                elif isinstance(msg, WireError):
                    log.warning("server error for agent %d: %s", self.agent_id, msg)
        return self.agent_id


class ViewerClient:
    """Read-only observer: registers as a viewer and yields ViewFrames."""

    def __init__(self, host: str, port: int, name: str = "viewer") -> None:
        self.host = host
        self.port = port
        self.name = name

    def frames(self, limit: Optional[int] = None):
        with socket.create_connection((self.host, self.port)) as conn:
            reader = conn.makefile("r", encoding="ascii", newline="\n")
            conn.sendall(encode(Register(ROLE_VIEWER, self.name)).encode("ascii"))
            hello = decode(reader.readline())
            if not isinstance(hello, Welcome):
                raise RuntimeError(f"server refused viewer: {hello!r}")
            seen = 0
            for line in reader:
                msg = decode(line)
                if isinstance(msg, ViewFrame):
                    yield msg
                    seen += 1
                    if limit is not None and seen >= limit:
                        return
                elif isinstance(msg, Finish):
                    return


def run_networked_trial(
    scenario,
    team: TeamSpec,
    seed: int,
    lockstep: bool = True,
    t_max: int = T_MAX,
    host: str = "127.0.0.1",
) -> TrialMetrics:
    """Full loopback run: server plus one local client thread per slot."""
    spec = resolve_scenario(scenario)
    server = SimulationServer(
        spec, team, seed, host=host, port=0, lockstep=lockstep, t_max=t_max
    )
    server.start()
    try:
        def spawn(i: int) -> threading.Thread:
            client = AgentClient(
                host,
                server.port,
                lambda slot: controller_for_slot(spec, team, seed, slot),
                name=f"agent-{i}",
            )
            thread = threading.Thread(target=client.run, daemon=True)
            thread.start()
            return thread

        threads = [spawn(i) for i in range(len(team.composition))]
        metrics = server.run_trial()
        for thread in threads:
            thread.join(timeout=10.0)
        return metrics
    finally:
        server.close()
