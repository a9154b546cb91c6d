"""Newline-delimited wire codec for the simulation protocol.

One message per line, space-separated fields in fixed order, reals
printed with six decimals. The codec is total in the sense that decode
accepts exactly the language encode emits and answers anything else with
an Error message instead of raising. Because encode quantizes reals,
decode(encode(m)) == m exactly when m's reals already sit on the
six-decimal grid; q6/canonical_* put values onto that grid, and the trial
engine runs on canonical values so that networked and in-process runs
agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

from .pad import EmotionLabel
from .world import MotorCommand, SensorReadings, VisionContact

ROLE_AGENT = "agent"
ROLE_VIEWER = "viewer"


def q6(x: float) -> float:
    """Quantize to the wire's six-decimal grid."""
    return float(f"{x:.6f}")


def canonical_command(cmd: MotorCommand) -> MotorCommand:
    return MotorCommand(q6(cmd.left), q6(cmd.right))


def canonical_readings(r: SensorReadings) -> SensorReadings:
    vision = tuple(
        VisionContact(q6(c.bearing), q6(c.distance), c.label) for c in r.vision
    )
    return replace(
        r,
        proximity=tuple(q6(p) for p in r.proximity),
        beacon_bearing=None if r.beacon_bearing is None else q6(r.beacon_bearing),
        compass=q6(r.compass),
        vision=vision,
    )


def _token(name: str, value: str) -> str:
    if not value or any(ch.isspace() for ch in value):
        raise ValueError(f"{name} must be a single non-empty token, got {value!r}")
    return value


@dataclass(frozen=True)
class Register:
    role: str
    name: str

    def __post_init__(self) -> None:
        if self.role not in (ROLE_AGENT, ROLE_VIEWER):
            raise ValueError(f"role must be agent or viewer, got {self.role!r}")
        _token("name", self.name)


@dataclass(frozen=True)
class Welcome:
    agent_id: int  # -1 for viewers
    cycle_period: float


@dataclass(frozen=True)
class Sensors:
    cycle: int
    readings: SensorReadings


@dataclass(frozen=True)
class Motors:
    cycle: int
    command: MotorCommand


@dataclass(frozen=True)
class PoseReport:
    agent_id: int
    x: float
    y: float
    heading: float
    label: EmotionLabel
    pleasure: float  # reported scale, [-10, 10]
    arousal: float
    dominance: float


@dataclass(frozen=True)
class ViewFrame:
    cycle: int
    poses: Tuple[PoseReport, ...]


@dataclass(frozen=True)
class Finish:
    cycle: int


@dataclass(frozen=True)
class WireError:
    code: str
    text: str = ""

    def __post_init__(self) -> None:
        _token("code", self.code)
        if self.text != " ".join(self.text.split()):
            raise ValueError("error text must be single-space normalized")


WireMessage = Union[Register, Welcome, Sensors, Motors, ViewFrame, Finish, WireError]


def _f(x: float) -> str:
    return f"{x:.6f}"


def _b(flag: bool) -> str:
    return "1" if flag else "0"


def encode(msg: WireMessage) -> str:
    """Render a message as one newline-terminated line."""
    if isinstance(msg, Register):
        body = f"REG {msg.role} {msg.name}"
    elif isinstance(msg, Welcome):
        body = f"WEL {msg.agent_id} {_f(msg.cycle_period)}"
    elif isinstance(msg, Sensors):
        r = msg.readings
        beacon = "-" if r.beacon_bearing is None else _f(r.beacon_bearing)
        parts = [
            "SEN",
            str(msg.cycle),
            _f(r.proximity[0]),
            _f(r.proximity[1]),
            _f(r.proximity[2]),
            beacon,
            _f(r.compass),
            _b(r.ground),
            _b(r.collision),
            str(len(r.vision)),
        ]
        for c in r.vision:
            parts += [_f(c.bearing), _f(c.distance), c.label.name]
        body = " ".join(parts)
    elif isinstance(msg, Motors):
        body = f"MOT {msg.cycle} {_f(msg.command.left)} {_f(msg.command.right)}"
    elif isinstance(msg, ViewFrame):
        parts = ["VIEW", str(msg.cycle), str(len(msg.poses))]
        for p in msg.poses:
            parts += [
                str(p.agent_id),
                _f(p.x),
                _f(p.y),
                _f(p.heading),
                p.label.name,
                _f(p.pleasure),
                _f(p.arousal),
                _f(p.dominance),
            ]
        body = " ".join(parts)
    elif isinstance(msg, Finish):
        body = f"FIN {msg.cycle}"
    elif isinstance(msg, WireError):
        body = f"ERR {msg.code} {msg.text}".rstrip()
    else:
        raise TypeError(f"not a wire message: {msg!r}")
    return body + "\n"


class _Cursor:
    """Token stream with strict, typed consumption."""

    def __init__(self, tokens: list) -> None:
        self.tokens = tokens
        self.pos = 0

    def take(self) -> str:
        if self.pos >= len(self.tokens):
            raise ValueError("truncated message")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def take_int(self) -> int:
        tok = self.take()
        if not (tok.isdigit() or (tok.startswith("-") and tok[1:].isdigit())):
            raise ValueError(f"expected integer, got {tok!r}")
        return int(tok)

    def take_real(self) -> float:
        return float(self.take())

    def take_bool(self) -> bool:
        tok = self.take()
        if tok == "1":
            return True
        if tok == "0":
            return False
        raise ValueError(f"expected flag 0/1, got {tok!r}")

    def take_label(self) -> EmotionLabel:
        tok = self.take()
        try:
            return EmotionLabel[tok]
        except KeyError:
            raise ValueError(f"unknown label {tok!r}") from None

    def finish(self) -> None:
        if self.pos != len(self.tokens):
            raise ValueError("trailing tokens")


def decode(line: str) -> WireMessage:
    """Parse one line; malformed input yields WireError('parse', ...).

    The wire is ASCII: a line holding any other character is malformed,
    so only ASCII digits ever read as numbers.
    """
    if not line.isascii():
        return WireError("parse", "line is not ASCII")
    tokens = line.split()
    if not tokens:
        return WireError("parse", "empty line")
    tag = tokens[0]
    cur = _Cursor(tokens[1:])
    try:
        if tag == "REG":
            msg: WireMessage = Register(cur.take(), cur.take())
        elif tag == "WEL":
            msg = Welcome(cur.take_int(), cur.take_real())
        elif tag == "SEN":
            cycle = cur.take_int()
            prox = (cur.take_real(), cur.take_real(), cur.take_real())
            btok = cur.take()
            beacon = None if btok == "-" else float(btok)
            compass = cur.take_real()
            ground = cur.take_bool()
            collision = cur.take_bool()
            n = cur.take_int()
            if n < 0:
                raise ValueError("negative vision count")
            vision = tuple(
                VisionContact(cur.take_real(), cur.take_real(), cur.take_label())
                for _ in range(n)
            )
            msg = Sensors(
                cycle,
                SensorReadings(prox, beacon, compass, ground, collision, vision),
            )
        elif tag == "MOT":
            msg = Motors(cur.take_int(), MotorCommand(cur.take_real(), cur.take_real()))
        elif tag == "VIEW":
            cycle = cur.take_int()
            n = cur.take_int()
            if n < 0:
                raise ValueError("negative pose count")
            poses = tuple(
                PoseReport(
                    cur.take_int(),
                    cur.take_real(),
                    cur.take_real(),
                    cur.take_real(),
                    cur.take_label(),
                    cur.take_real(),
                    cur.take_real(),
                    cur.take_real(),
                )
                for _ in range(n)
            )
            msg = ViewFrame(cycle, poses)
        elif tag == "FIN":
            msg = Finish(cur.take_int())
        elif tag == "ERR":
            code = cur.take()
            text = " ".join(cur.tokens[cur.pos :])
            return WireError(code, text)
        else:
            return WireError("parse", f"unknown tag {tag}")
        cur.finish()
        return msg
    except (ValueError, IndexError) as exc:
        return WireError("parse", " ".join(str(exc).split()) or "malformed message")
