"""Property tests: the wire and scenario parsers under fuzzing, and the
closed-form arena boundary against the slab test it replaces."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from affectsim.config import ScenarioError, ScenarioSpec, parse_scenario  # noqa: E402
from affectsim.pad import EmotionLabel  # noqa: E402
from affectsim.wire import WireError, decode, encode  # noqa: E402
from affectsim.world import _RAY_OFFSETS, _boundary_distances, _ray_distances  # noqa: E402

# -- wire codec ------------------------------------------------------------

_TAGS = ["REG", "WEL", "SEN", "MOT", "VIEW", "FIN", "ERR", "XYZ", ""]
_NUMBERS = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-4.0, 4.0).map(lambda x: f"{x:.7f}"),
    st.sampled_from(["-0", "007", "-", "1e400", "-0.0000004", "3.1415925", "0.9999996", "1_0"]),
)
_WORDS = st.one_of(
    st.sampled_from(["agent", "viewer", "parse"] + [label.name for label in EmotionLabel]),
    st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=6),
)
# Lines shaped like messages, which reach far deeper into decode than
# random text does.
_MESSAGE_LINES = st.builds(
    lambda tag, tokens, end: " ".join([tag] + tokens) + end,
    st.sampled_from(_TAGS),
    st.lists(st.one_of(_NUMBERS, _WORDS), max_size=30),
    st.sampled_from(["", "\n", "\r\n", " \n"]),
)
_ANY_LINES = st.one_of(_MESSAGE_LINES, st.text(), st.text(st.characters(max_codepoint=127)))


@given(_ANY_LINES)
def test_decode_never_raises(line):
    decode(line)


@given(_MESSAGE_LINES)
def test_accepted_lines_survive_an_encode_round_trip(line):
    msg = decode(line)
    # decode answers a line it rejects with ERR parse; an ERR line it
    # accepts decodes to its own WireError.
    assume(not isinstance(msg, WireError) or line.split()[:1] == ["ERR"])
    again = decode(encode(msg))
    assert type(again) is type(msg)
    assert encode(again) == encode(msg)


# -- scenario files --------------------------------------------------------

FULL = """\
[arena]
name = fuzz
width = 12
height = 10
v_max = 0.5

[walls]
w0 = 5.0 4.0 5.4 8.0

[beacon]
x = 10.5
y = 8.5
radius = 0.5

[spawns]
s0 = 1.0 1.0 45
s1 = 2.0 1.0 90

[temperament]
upper_band = 0.6 0.9
drift_rate = 0.01
anxiety_choleric = 0.5

[appraisal_gains]
event_gain = 0.05

[thresholds]
recover_cycles = 5
clear_path_angle_deg = 30
"""

_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1", "0", "", "abc", "1 2", "0x10", "2.7"]),
    st.floats(-20.0, 20.0).map(repr),
    st.text(st.characters(max_codepoint=127), max_size=8),
)
# Mostly one swapped number, which gets past the INI syntax into the
# value checks.
_EDITS = ["token"] * 4 + ["value", "delete", "duplicate", "insert", "chars"]


@st.composite
def _mangled_scenarios(draw):
    lines = FULL.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(_EDITS))
        line = lines[k]
        if edit == "value" and "=" in line:
            lines[k] = line.split("=")[0] + "= " + draw(_VALUES)
        elif edit == "token" and "=" in line:
            key, raw = line.split("=", 1)
            tokens = raw.split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_VALUES)
            lines[k] = key + "= " + " ".join(tokens)
        elif edit == "delete":
            del lines[k]
        elif edit == "duplicate":
            lines.insert(k, line)
        elif edit == "insert":
            lines.insert(k, draw(st.text(st.characters(max_codepoint=127), max_size=20)))
        else:
            at = draw(st.integers(0, len(line)))
            lines[k] = line[:at] + draw(st.text(max_size=3)) + line[at:]
        if not lines:
            lines = [""]
    return "\n".join(lines) + "\n"


@given(_mangled_scenarios())
def test_mangled_scenario_fails_with_scenario_error_or_parses_to_finite_numbers(text):
    try:
        spec = parse_scenario(text)
    except ScenarioError:
        return
    assert isinstance(spec, ScenarioSpec)
    arena = spec.arena
    numbers = [arena.width, arena.height, arena.arrival_radius, *(arena.beacon or ())]
    numbers += [v for wall in arena.walls for v in (wall.xmin, wall.ymin, wall.xmax, wall.ymax)]
    numbers += [v for spawn in spec.spawns for v in spawn]
    assert all(math.isfinite(v) for v in numbers)


# -- closed-form arena boundary --------------------------------------------

_PAD = 1.0


def _slab_boundary(width, height, origins, dirs):
    """Distance to the arena edge by the slab test over four blocks padded
    outside the arena."""
    rects = [
        (-_PAD, -_PAD, 0.0, height + _PAD),
        (width, -_PAD, width + _PAD, height + _PAD),
        (-_PAD, -_PAD, width + _PAD, 0.0),
        (-_PAD, height, width + _PAD, height + _PAD),
    ]
    lo = np.array([[r[0], r[1]] for r in rects])
    hi = np.array([[r[2], r[3]] for r in rects])
    return _ray_distances(origins, dirs, lo, hi)


def _assert_same_bits(width, height, x, y, c, s):
    # A direction component near the smallest subnormal overflows the
    # quotient to the same infinity in both methods.
    with np.errstate(divide="ignore", over="ignore"):
        closed = _boundary_distances(x, y, c, s, width, height)
        origins = np.stack([x, y], axis=-1)
        slab = _slab_boundary(width, height, origins, np.stack([c, s], axis=-1))
    assert closed.shape == slab.shape
    assert closed.tobytes() == slab.tobytes(), (closed, slab)


_HEADINGS = st.one_of(
    st.sampled_from([0.0, -0.0, -math.pi / 3.0, math.pi / 3.0, math.pi / 2.0, -math.pi]),
    st.floats(-math.pi, math.pi),
)


@st.composite
def _bodies(draw):
    """(width, height, x, y, headings) with every body inside the arena."""
    radius = draw(st.floats(0.05, 0.5))
    width = draw(st.floats(2.0 * radius, 60.0))
    height = draw(st.floats(2.0 * radius, 60.0))
    n = draw(st.integers(1, 12))
    xs = draw(st.lists(st.floats(radius, width - radius), min_size=n, max_size=n))
    ys = draw(st.lists(st.floats(radius, height - radius), min_size=n, max_size=n))
    headings = draw(st.lists(_HEADINGS, min_size=n, max_size=n))
    return width, height, np.array(xs), np.array(ys), np.array(headings)


@given(_bodies())
def test_closed_form_boundary_matches_the_slab_test_bit_for_bit(case):
    width, height, xs, ys, headings = case
    # The sweep's own rays: front, left and right of each heading.
    angles = headings[:, None] + _RAY_OFFSETS
    c, s = np.cos(angles), np.sin(angles)
    x = np.broadcast_to(xs[:, None], c.shape)
    y = np.broadcast_to(ys[:, None], c.shape)
    _assert_same_bits(width, height, x, y, c, s)


@given(_bodies(), st.sampled_from([0.0, -0.0]), st.sampled_from([1.0, -1.0, 0.6, -0.6]))
def test_closed_form_boundary_matches_on_axis_parallel_rays(case, zero, unit):
    width, height, xs, ys, _ = case
    zeros = np.full(len(xs), zero)
    units = np.full(len(xs), unit)
    _assert_same_bits(width, height, xs, ys, zeros, units)
    _assert_same_bits(width, height, xs, ys, units, zeros)


def test_left_ray_of_heading_minus_sixty_degrees_has_an_exact_zero_component():
    assert np.sin(-math.pi / 3.0 + _RAY_OFFSETS[1]) == 0.0
