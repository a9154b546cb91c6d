"""Wire codec: exact line format, round trips, malformed input."""

import math

import numpy as np
import pytest

from affectsim.pad import EmotionLabel
from affectsim.wire import (
    Finish,
    Motors,
    PoseReport,
    Register,
    Sensors,
    ViewFrame,
    Welcome,
    WireError,
    canonical_command,
    canonical_readings,
    decode,
    encode,
    q6,
)
from affectsim.world import MotorCommand, SensorReadings, VisionContact


def _readings(**kw):
    base = dict(
        proximity=(1.0, 0.5, 0.25),
        beacon_bearing=None,
        compass=0.0,
        ground=False,
        collision=False,
        vision=(),
    )
    base.update(kw)
    return SensorReadings(**base)


# -- exact byte format ---------------------------------------------------


def test_motors_line_is_bit_exact():
    line = encode(Motors(12, MotorCommand(0.5, -0.5)))
    assert line == "MOT 12 0.500000 -0.500000\n"


def test_register_and_welcome_lines():
    assert encode(Register("agent", "alpha")) == "REG agent alpha\n"
    assert encode(Welcome(3, 0.1)) == "WEL 3 0.100000\n"
    assert encode(Welcome(-1, 0.1)) == "WEL -1 0.100000\n"


def test_finish_and_error_lines():
    assert encode(Finish(42)) == "FIN 42\n"
    assert encode(WireError("full", "team is complete")) == "ERR full team is complete\n"
    assert encode(WireError("parse")) == "ERR parse\n"


def test_sensors_line_shape():
    r = _readings(
        beacon_bearing=-0.25,
        ground=True,
        vision=(VisionContact(0.1, 2.0, EmotionLabel.EXUBERANT),),
    )
    line = encode(Sensors(7, r))
    assert line == (
        "SEN 7 1.000000 0.500000 0.250000 -0.250000 0.000000 1 0 1 "
        "0.100000 2.000000 EXUBERANT\n"
    )


def test_missing_beacon_encodes_as_dash():
    line = encode(Sensors(0, _readings()))
    assert " - " in line
    back = decode(line)
    assert back.readings.beacon_bearing is None


def test_viewframe_line_shape():
    frame = ViewFrame(
        5,
        (PoseReport(0, 1.0, 2.0, 0.5, EmotionLabel.BORED, -1.0, 0.0, 2.5),),
    )
    assert encode(frame) == (
        "VIEW 5 1 0 1.000000 2.000000 0.500000 BORED -1.000000 0.000000 2.500000\n"
    )


def test_every_line_ends_with_newline_and_has_no_inner_newline():
    msgs = [
        Register("viewer", "watch"),
        Welcome(0, 0.1),
        Sensors(1, _readings()),
        Motors(1, MotorCommand(0.0, 0.0)),
        ViewFrame(1, ()),
        Finish(1),
        WireError("deadline", "late"),
    ]
    for msg in msgs:
        line = encode(msg)
        assert line.endswith("\n") and "\n" not in line[:-1]


# -- round trips ---------------------------------------------------------


def test_q6_grid():
    assert q6(0.1234567) == 0.123457
    assert q6(-1.0) == -1.0
    assert q6(0.0) == 0.0


def test_canonical_command_idempotent():
    cmd = canonical_command(MotorCommand(1 / 3, -2 / 3))
    assert cmd == MotorCommand(0.333333, -0.666667)
    assert canonical_command(cmd) == cmd


def test_canonical_readings_touch_all_reals():
    r = _readings(
        proximity=(1 / 3, 1 / 7, 1 / 9),
        beacon_bearing=math.pi / 7,
        compass=-math.pi / 5,
        vision=(VisionContact(1 / 11, 1 / 13, EmotionLabel.DOCILE),),
    )
    c = canonical_readings(r)
    assert c.proximity == tuple(q6(p) for p in r.proximity)
    assert c.beacon_bearing == q6(r.beacon_bearing)
    assert c.compass == q6(r.compass)
    assert c.vision[0].bearing == q6(r.vision[0].bearing)
    assert c.vision[0].label is EmotionLabel.DOCILE
    assert canonical_readings(c) == c


def _random_message(rng):
    kind = rng.integers(0, 7)
    if kind == 0:
        return Register(["agent", "viewer"][rng.integers(0, 2)], f"n{rng.integers(1000)}")
    if kind == 1:
        return Welcome(int(rng.integers(-1, 9)), q6(float(rng.uniform(0.01, 1.0))))
    if kind == 2:
        vision = tuple(
            VisionContact(
                q6(float(rng.uniform(-math.pi, math.pi))),
                q6(float(rng.uniform(0.0, 4.0))),
                rng.choice(list(EmotionLabel)),
            )
            for _ in range(rng.integers(0, 4))
        )
        readings = SensorReadings(
            proximity=tuple(q6(float(x)) for x in rng.uniform(0.0, 1.0, 3)),
            beacon_bearing=(
                q6(float(rng.uniform(-math.pi, math.pi)))
                if rng.uniform() < 0.7
                else None
            ),
            compass=q6(float(rng.uniform(-math.pi, math.pi))),
            ground=bool(rng.integers(0, 2)),
            collision=bool(rng.integers(0, 2)),
            vision=vision,
        )
        return Sensors(int(rng.integers(0, 100000)), readings)
    if kind == 3:
        return Motors(
            int(rng.integers(0, 100000)),
            MotorCommand(q6(float(rng.uniform(-1, 1))), q6(float(rng.uniform(-1, 1)))),
        )
    if kind == 4:
        poses = tuple(
            PoseReport(
                int(rng.integers(0, 9)),
                q6(float(rng.uniform(0, 20))),
                q6(float(rng.uniform(0, 20))),
                q6(float(rng.uniform(-math.pi, math.pi))),
                rng.choice(list(EmotionLabel)),
                q6(float(rng.uniform(-10, 10))),
                q6(float(rng.uniform(-10, 10))),
                q6(float(rng.uniform(-10, 10))),
            )
            for _ in range(rng.integers(0, 3))
        )
        return ViewFrame(int(rng.integers(0, 100000)), poses)
    if kind == 5:
        return Finish(int(rng.integers(0, 100000)))
    return WireError(f"c{rng.integers(10)}", "some text here")


def test_random_canonical_round_trip():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        msg = _random_message(rng)
        assert decode(encode(msg)) == msg


def test_encode_rejects_non_messages():
    with pytest.raises(TypeError):
        encode("MOT 1 0 0")


# -- malformed input -----------------------------------------------------


@pytest.mark.parametrize(
    "line",
    [
        "",
        "\n",
        "NOP 1\n",
        "MOT x 0.1 0.2\n",
        "MOT 1 0.1\n",
        "MOT 1 0.1 0.2 0.3\n",
        "MOT 1 0.1 spam\n",
        "SEN 1 0.5 0.5\n",
        "SEN 1 0.5 0.5 0.5 - 0.0 2 0 0\n",
        "SEN 1 0.5 0.5 0.5 - 0.0 1 0 1 0.1 2.0 SMUG\n",
        "SEN 1 0.5 0.5 0.5 - 0.0 1 0 -1\n",
        "VIEW 1 -2\n",
        "WEL one 0.1\n",
        "FIN\n",
        "REG pilot name\n",
    ],
)
def test_malformed_lines_become_parse_errors(line):
    msg = decode(line)
    assert isinstance(msg, WireError)
    assert msg.code == "parse"


def test_motor_command_bounds_enforced_on_decode():
    msg = decode("MOT 1 1.500000 0.000000\n")
    assert isinstance(msg, WireError) and msg.code == "parse"


def test_decode_error_lines_round_trip():
    msg = decode("ERR full team is complete\n")
    assert msg == WireError("full", "team is complete")


def test_register_validation():
    with pytest.raises(ValueError, match="role"):
        Register("pilot", "x")
    with pytest.raises(ValueError, match="token"):
        Register("agent", "two words")


def test_error_text_normalization_enforced():
    with pytest.raises(ValueError, match="normalized"):
        WireError("x", "two  spaces")


@pytest.mark.parametrize("line", ["MOT \u0661 0 0", "MOT 0 \u0660.5 0", "FIN \u0661\u0662"])
def test_non_ascii_digits_are_parse_errors(line):
    reply = decode(line)
    assert isinstance(reply, WireError)
    assert reply.code == "parse"
