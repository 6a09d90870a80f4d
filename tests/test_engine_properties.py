"""Property tests of the engine's invariants on adversarial streams.

A small configuration (4 x 4 discovery array, short stability and
maintenance periods) lets streams of a few hundred events emit, merge
and prune planes.  Whatever the stream, every event must come back as
exactly one record carrying its own (u, v, t, s), the hit and unlabeled
counts must add up, a record is unlabeled exactly when its flow is nan,
and no grid may be asked to retract what it never held.  Maintenance
runs after every `_MAINTENANCE_PERIOD`-th event and once at the end, and
plane ids are the creation counts: every label names a plane created
earlier, and no two live planes share an id.
"""

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from flowseg import engine as engine_module
from flowseg import flow_plane
from flowseg.engine import UNLABELED, Engine, EngineConfig
from flowseg.events import DEFAULT_GEOMETRY, Event
from flowseg.flow_plane import FlowPlaneConfig

# 80 examples in the default profile (tests/conftest.py), scaled with
# the active one
SETTINGS = settings(max_examples=settings.default.max_examples * 4 // 5)
W, H = DEFAULT_GEOMETRY.width, DEFAULT_GEOMETRY.height
POLARITY = st.sampled_from((1, -1))


@st.composite
def pieces(draw, t):
    """One stretch of a stream starting at time t; returns its events
    and the time it ends at."""
    kind = draw(st.sampled_from(
        ("burst", "pixel", "edge", "stall", "moving", "noise")))
    events = []
    if kind == "burst":
        # many events at one timestamp
        for _ in range(draw(st.integers(1, 60))):
            events.append(Event(draw(st.integers(0, W - 1)),
                                draw(st.integers(0, H - 1)), t,
                                draw(POLARITY)))
    elif kind == "pixel":
        u, v = draw(st.integers(0, W - 1)), draw(st.integers(0, H - 1))
        for _ in range(draw(st.integers(1, 60))):
            t += draw(st.integers(0, 2_000))
            events.append(Event(u, v, t, draw(POLARITY)))
    elif kind == "edge":
        for _ in range(draw(st.integers(1, 40))):
            t += draw(st.integers(0, 5_000))
            events.append(Event(draw(st.sampled_from((0, W - 1))),
                                draw(st.sampled_from((0, H - 1))), t,
                                draw(POLARITY)))
    elif kind == "stall":
        t += draw(st.integers(1_000_000, 5_000_000))
    elif kind == "moving":
        # a short bar moving at anything from rest to far beyond the
        # candidate flows, possibly leaving the sensor
        speed = st.one_of(st.integers(-100, 100),
                          st.integers(-20_000, 20_000))
        vu, vv = draw(speed), draw(speed)
        u0, v0 = draw(st.integers(0, W - 1)), draw(st.integers(0, H - 1))
        length = draw(st.integers(1, 6))
        start = t
        for _ in range(draw(st.integers(10, 120))):
            t += draw(st.integers(0, 3_000))
            dt = (t - start) * 1e-6
            events.append(Event(u0 + round(vu * dt),
                                v0 + round(vv * dt)
                                + draw(st.integers(0, length - 1)),
                                t, draw(POLARITY)))
    else:
        for _ in range(draw(st.integers(1, 60))):
            t += draw(st.integers(0, 20_000))
            events.append(Event(draw(st.integers(0, W - 1)),
                                draw(st.integers(0, H - 1)), t,
                                draw(POLARITY)))
    return events, t


@st.composite
def streams(draw):
    t = draw(st.integers(0, 10_000_000))
    events = []
    for _ in range(draw(st.integers(0, 8))):
        piece, t = draw(pieces(t))
        events.extend(piece)
    return events


@SETTINGS
@given(events=streams(), p_stable=st.integers(1, 30),
       period=st.integers(1, 60), w=st.sampled_from((0.0, 1.0, 2.0)))
def test_engine_invariants_hold_on_adversarial_streams(events, p_stable,
                                                       period, w):
    cfg = EngineConfig(flow_plane=FlowPlaneConfig(n=4, p_stable=p_stable))
    engine = Engine(cfg)
    labeled = []
    with mock.patch.object(engine_module, "_MAINTENANCE_PERIOD", period), \
            mock.patch.object(flow_plane, "_SEED_W", w):
        for ev in events:
            labeled.append(engine.process(ev))
            # live planes keep their creation order, and no two share an id
            ids = [plane.plane_id for plane in engine.planes]
            assert ids == sorted(set(ids))
        engine.finish()
    stats = engine.stats
    assert len(labeled) == len(events) == stats.events_in
    assert stats.hits + stats.unlabeled == stats.events_in
    assert stats.hits == sum(rec.segment != UNLABELED for rec in labeled)
    assert stats.maintenance_runs == len(events) // period + bool(events)
    assert all(rec.segment < stats.planes_created for rec in labeled)
    for ev, rec in zip(events, labeled):
        assert (rec.u, rec.v, rec.t, rec.s) == ev
        unlabeled = rec.segment == UNLABELED
        assert unlabeled == math.isnan(rec.v_u) == math.isnan(rec.v_v)
        if not unlabeled:
            assert math.isfinite(rec.v_u) and math.isfinite(rec.v_v)
