import io
import math
import time
from unittest import mock

import numpy as np
import pytest

from flowseg import synth
from flowseg.events import (DEFAULT_GEOMETRY, GeometryError, ParseError,
                            SensorGeometry)
from flowseg.synth import (CONTOUR_SPACING, ConstantMotion, GroundTruth,
                           PendulumMotion, RotationMotion, build_contour,
                           generate_scene, read_gt, write_gt)

# independently derived: v_max = sqrt(2*9.82*0.72*(1 - cos(23 deg))),
# period = 2*pi*sqrt(0.72/9.82), both frozen to full precision
PENDULUM_V_MAX = 1.0602475976392172
PENDULUM_PERIOD = 1.701337100711786


def test_pendulum_energy_and_period():
    p = PendulumMotion()
    assert p.v_max_ms == pytest.approx(PENDULUM_V_MAX, rel=1e-12)
    assert p.period_s == pytest.approx(PENDULUM_PERIOD, rel=1e-12)
    assert p.peak_flow == pytest.approx(190.0 * PENDULUM_V_MAX, rel=1e-12)


def test_pendulum_velocity_profile():
    p = PendulumMotion()
    vu0, vv0 = p.velocity_at(0, 0, 0.0)
    assert vu0 == pytest.approx(p.peak_flow)
    assert vv0 == 0.0
    # quarter period after the peak the bob is at the turning point
    vu_quarter, _ = p.velocity_at(0, 0, p.period_s / 4.0)
    assert abs(vu_quarter) < 1e-9 * p.peak_flow
    vu_later, _ = p.velocity_at(0, 0, 0.3)
    vu_wrapped, _ = p.velocity_at(0, 0, 0.3 + p.period_s)
    assert vu_later == pytest.approx(vu_wrapped, rel=1e-9)


def test_pendulum_displacement_integrates_velocity():
    p = PendulumMotion()
    # numeric integral of v(t) should land on the displacement closed form
    ts = np.linspace(0.0, 0.4, 20001)
    vs = np.array([p.velocity_at(0, 0, t)[0] for t in ts])
    integral = np.trapezoid(vs, ts)
    moved = p.positions(np.zeros((1, 2)), 0.4)[0, 0]
    assert moved == pytest.approx(integral, abs=1e-3)


def test_rotation_velocity_field():
    r = RotationMotion(omega=2.0, center=(120.0, 90.0))
    vu, vv = r.velocity_at(130.0, 90.0, 0.0)     # 10 px right of the pivot
    assert (vu, vv) == pytest.approx((0.0, 20.0))
    vu, vv = r.velocity_at(120.0, 95.0, 0.0)     # 5 px below
    assert (vu, vv) == pytest.approx((-10.0, 0.0))
    # quarter turn moves a point from +u to +v side
    quarter = math.pi / 2.0 / r.omega
    moved = r.positions(np.array([[130.0, 90.0]]), quarter)
    assert moved[0] == pytest.approx([120.0, 100.0])


def test_constant_motion_trivials():
    m = ConstantMotion(3.0, -4.0)
    assert m.velocity_at(50, 50, 1.0) == (3.0, -4.0)
    assert m.max_speed(np.zeros((1, 2))) == pytest.approx(5.0)


def test_build_contour_shapes():
    circle = build_contour("circle", radius=10.0, center=(100.0, 90.0))
    radii = np.hypot(circle.points[:, 0] - 100.0, circle.points[:, 1] - 90.0)
    assert radii.max() <= 10.6 and radii.min() >= 9.4

    hexagon = build_contour("hexagon", width=65.0, center=(0.0, 0.0))
    assert hexagon.points[:, 0].max() - hexagon.points[:, 0].min() == \
        pytest.approx(65.0, abs=1.1)

    with pytest.raises(ValueError):
        build_contour("circle", width=10.0)
    with pytest.raises(ValueError):
        build_contour("blob", radius=5.0)


@pytest.mark.parametrize("shape, size", [
    ("circle", dict(radius=1e7)),
    ("bar", dict(length=1e9, thickness=3.0))])
def test_huge_shapes_raise_before_sampling(shape, size):
    # sampled first, these did not finish in 20 s
    start = time.perf_counter()
    with pytest.raises(GeometryError, match=rf"^{shape} diameter .* exceeds "
                                            r"the diagonal of sensor 240x180$"):
        build_contour(shape, **size)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("rotate_deg", [0.0, 20.0, 45.0, 70.0, 135.0])
def test_diameter_check_refuses_only_what_sampling_refuses(rotate_deg):
    # just past the diameter bound, each shape fails the extent check
    # after sampling too: the early check refuses no shape it accepts
    diameter = (math.hypot(DEFAULT_GEOMETRY.width, DEFAULT_GEOMETRY.height)
                + 2 * CONTOUR_SPACING + 1e-6)
    sizes = {"circle": dict(radius=diameter / 2),
             "hexagon": dict(width=diameter),
             "rectangle": dict(width=0.6 * diameter, height=0.8 * diameter),
             "bar": dict(length=math.sqrt(diameter ** 2 - 9.0),
                         thickness=3.0)}
    for shape, size in sizes.items():
        with pytest.raises(GeometryError, match="diameter"):
            build_contour(shape, rotate_deg=rotate_deg, **size)
        with mock.patch.object(synth, "_check_diameter",
                               lambda *args: None), \
                pytest.raises(GeometryError, match="extent"):
            build_contour(shape, rotate_deg=rotate_deg, **size)


def test_generate_scene_deterministic_and_aligned():
    contour = build_contour("circle", radius=8.0, center=(60.0, 60.0))
    kwargs = dict(objects=[(contour, ConstantMotion(40.0, 0.0))],
                  duration=0.5, noise_rate=400.0, seed=9)
    stream_a, gt_a = generate_scene(**kwargs)
    stream_b, gt_b = generate_scene(**kwargs)
    assert stream_a.events == stream_b.events
    assert gt_a.records == gt_b.records
    assert len(stream_a) == len(gt_a.records)
    stream_c, _ = generate_scene(
        objects=kwargs["objects"], duration=0.5, noise_rate=400.0, seed=10)
    assert stream_c.events != stream_a.events

    times = [e.t for e in stream_a.events]
    assert times == sorted(times)
    structures = {rec[1] for rec in gt_a.records}
    assert structures == {-1, 0}         # noise and the one object
    for event, (t_us, structure, vu, vv) in zip(stream_a.events, gt_a.records):
        assert event.t == t_us
        if structure == 0:
            assert (vu, vv) == (40.0, 0.0)


def test_burst_size_repeats_structure_events():
    contour = build_contour("circle", radius=8.0, center=(60.0, 60.0))
    single, _ = generate_scene([(contour, ConstantMotion(40.0, 0.0))],
                               duration=0.4, seed=9)
    tripled, gt3 = generate_scene([(contour, ConstantMotion(40.0, 0.0))],
                                  duration=0.4, burst_size=3, seed=9)
    assert len(tripled) == 3 * len(single)
    assert tripled.events[0] == tripled.events[1] == tripled.events[2]
    assert gt3.records[0] == gt3.records[1] == gt3.records[2]


@pytest.mark.parametrize("option", ["noise_rate", "jitter_us",
                                    "refractory_us"])
def test_negative_rates_and_periods_raise(option):
    contour = build_contour("circle", radius=8.0, center=(60.0, 60.0))
    with pytest.raises(ValueError,
                       match=rf"^{option} must be non-negative, got -5"):
        generate_scene([(contour, ConstantMotion(40.0, 0.0))],
                       duration=0.4, **{option: -5})


@pytest.mark.parametrize("option, value, message", [
    ("duration", math.inf, "positive and finite"),
    ("duration", math.nan, "positive and finite"),
    ("noise_rate", math.inf, "finite"),
    ("noise_rate", math.nan, "finite")])
def test_non_finite_duration_and_noise_rate_raise(option, value, message):
    # inf ended in an OverflowError; a NaN duration failed on a message
    # naming nothing, and a NaN noise rate wrote a scene with no noise
    contour = build_contour("circle", radius=8.0, center=(60.0, 60.0))
    kwargs = dict(duration=0.4, noise_rate=100.0)
    kwargs[option] = value
    with pytest.raises(ValueError,
                       match=rf"^{option} must be {message}, got {value}$"):
        generate_scene([(contour, ConstantMotion(40.0, 0.0))], **kwargs)


def test_two_structures_get_distinct_ids():
    a = build_contour("bar", length=20.0, thickness=3.0, center=(50.0, 60.0))
    b = build_contour("bar", length=20.0, thickness=3.0, center=(180.0, 120.0))
    _, gt = generate_scene([(a, ConstantMotion(30.0, 0.0)),
                            (b, ConstantMotion(-30.0, 0.0))],
                           duration=0.5, seed=21)
    assert {rec[1] for rec in gt.records} == {0, 1}


def test_clipping_warns():
    contour = build_contour("circle", radius=10.0, center=(-20.0, 90.0))
    with pytest.warns(UserWarning):
        generate_scene([(contour, ConstantMotion(30.0, 0.0))],
                       duration=0.3, seed=2)


def test_gt_round_trip():
    gt = GroundTruth(records=[(100, 0, 58.0, 0.0), (200, -1, 0.0, 0.0)])
    buf = io.StringIO()
    write_gt(gt, buf)
    back = read_gt(io.StringIO(buf.getvalue()))
    assert back == gt.records



def test_read_gt_names_the_bad_line_and_field():
    head = "# t v_u v_v structure_id\n100 58.0 0.0 0\n"
    for row, message in [
            ("200 0.0 0.0", r"line 3: expected 4 fields, got 3"),
            ("200 0.0 0.0 -1 7", r"line 3: expected 4 fields, got 5"),
            ("200 0.0 0.0 x", r"line 3, field 4: not an integer: 'x'"),
            ("200 0.0 y -1", r"line 3, field 3: not a number: 'y'")]:
        with pytest.raises(ParseError, match=rf"^{message}$"):
            read_gt(io.StringIO(head + row + "\n"))
