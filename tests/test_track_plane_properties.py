"""Property tests of tracking.

A tracking plane keeps its m x m grids incrementally: hits add one
event to every grid, expiry retracts a batch of events, and recenters
rebuild grids.  After every call each grid must equal the image
rebuilt from the plane's held events, and the footprint must be the
nonzero center cells plus the promoted ones.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowseg.events import Event
from flowseg.projection import AccumulatorGrid, event_columns, grid_images
from flowseg.track_plane import TrackPlane, TrackPlaneConfig

from oracles import array_flows, bruteforce_image, metric_bruteforce

# 150 examples in the default profile (tests/conftest.py), scaled with
# the active one
SETTINGS = settings(max_examples=settings.default.max_examples * 3 // 2)
# small patches and slow flows make projections collide and cells cancel
PATCH = st.integers(0, 2)
FLOWS = st.tuples(st.integers(-30, 30), st.integers(-30, 30))
# short steps stay within one event lifetime (at least 70 ms here),
# medium ones expire part of the held events, long ones all of them at
# any speed (3 s at the 1 px/s floor)
STEPS = st.one_of(st.integers(0, 3_000), st.integers(0, 300_000),
                  st.integers(0, 3_000_000))

OPS = st.one_of(
    st.tuples(st.just("offer"), PATCH, PATCH, STEPS, st.sampled_from((1, -1))),
    st.tuples(st.just("expire"), STEPS),
    st.tuples(st.just("recenter"), st.lists(st.integers(0, 60),
                                            min_size=9, max_size=9)),
)


def nonzero(cells):
    return {k: c for k, c in cells.items() if c}


def check_plane(plane):
    center = plane.grids[plane.center_index]
    assert plane.active == center.nonzero_cells() | plane.promoted
    # grid k = j*m + i projects along column i's v_u and row j's v_v,
    # every grid from the plane's one t_ref
    flows = array_flows(plane.col_vu, plane.row_vv)
    assert flows[plane.center_index] == plane.center_flow
    for grid, flow in zip(plane.grids, flows):
        assert nonzero(grid.cells) == nonzero(
            bruteforce_image(plane.held, flow, plane.t_ref_us))
        assert grid.metric == metric_bruteforce(plane.held, flow,
                                                plane.t_ref_us)


def on_track(flow, du, dv, t, s):
    """An event at patch offset (du, dv) of a structure moving at flow."""
    return Event(du + round(flow[0] * t * 1e-6),
                 dv + round(flow[1] * t * 1e-6), t, s)


@SETTINGS
@given(flow=FLOWS,
       seed=st.lists(st.tuples(PATCH, PATCH, st.integers(0, 2_000),
                               st.sampled_from((1, -1))),
                     min_size=1, max_size=8),
       ops=st.lists(OPS, max_size=40),
       evolve=st.integers(1, 2),
       recenter_hits=st.integers(1, 8),
       h0_deg=st.sampled_from((0.02, 1.0, 5.0)))
# a promoted cell takes a hit, and expiry brings it back to 0
@example(flow=(0, 25), seed=[(0, 0, 0, 1)],
         ops=[("offer", 0, 1, 0, 1), ("offer", 0, 1, 0, 1),
              ("expire", 3_000_000)],
         evolve=1, recenter_hits=1, h0_deg=0.02)
# a hit cancels a cell, and expiring the older event revives it
@example(flow=(0, 25), seed=[(0, 0, 0, 1)],
         ops=[("offer", 0, 0, 50_000, -1), ("expire", 100_000)],
         evolve=2, recenter_hits=8, h0_deg=0.02)
# expiry moves the oldest held event, and a center win rebuilds every
# grid from the t_ref the plane was laid with, not from that event
@example(flow=(20, 0), seed=[(0, 0, 0, 1)],
         ops=[("offer", 0, 0, 100_000, 1), ("expire", 100_000),
              ("recenter", [0, 0, 0, 0, 60, 0, 0, 0, 0]),
              ("offer", 0, 0, 0, 1)],
         evolve=2, recenter_hits=8, h0_deg=0.02)
# then everything expires: every grid retracts through that same t_ref
@example(flow=(20, 0), seed=[(0, 0, 0, 1)],
         ops=[("offer", 0, 0, 100_000, 1), ("expire", 100_000),
              ("recenter", [0, 0, 0, 0, 60, 0, 0, 0, 0]),
              ("offer", 0, 0, 0, 1), ("expire", 3_000_000)],
         evolve=2, recenter_hits=8, h0_deg=0.02)
def test_track_plane_matches_bruteforce(flow, seed, ops, evolve,
                                        recenter_hits, h0_deg):
    cfg = TrackPlaneConfig(evolve_threshold=evolve,
                           min_recenter_hits=recenter_hits, h0_deg=h0_deg)
    t = 0
    events = []
    for du, dv, dt, s in seed:
        t += dt
        events.append(on_track(flow, du, dv, t, s))
    plane = TrackPlane(0, flow, events, cfg)
    check_plane(plane)
    for op in ops:
        if op[0] == "offer":
            _, du, dv, dt, s = op
            t += dt
            plane.try_match(on_track(flow, du, dv, t, s))
        elif op[0] == "expire":
            t += op[1]
            plane.expire(t)
        else:
            plane.hits = list(op[1])
            plane.recenter(t)
        check_plane(plane)


# flows of hundreds of px/s: a reference time off by 1 ms moves a
# projection by up to a pixel
FAST_FLOWS = st.tuples(st.integers(-900, 900),
                       st.integers(-900, 900)).filter(
    lambda flow: math.hypot(*flow) >= 200)
# lifetimes are 3.3-15 ms here: short steps stay within one, medium
# ones expire part of the held events, long ones all of them
FAST_STEPS = st.one_of(st.integers(0, 1_000), st.integers(0, 10_000),
                       st.integers(0, 40_000))
FAST_OPS = st.one_of(
    st.tuples(st.just("offer"), PATCH, PATCH, FAST_STEPS,
              st.sampled_from((1, -1))),
    st.tuples(st.just("expire"), FAST_STEPS),
)


def bruteforce_hit(plane, ev):
    """Whether offering `ev` is a hit: its center-flow cell, projected
    from the plane's t_ref, is promoted or nonzero in the center image
    of the events still held once those older than the lifetime at
    ev.t have expired."""
    cutoff = ev.t - int(plane.event_lifetime_s() * 1e6)
    live = [e for e in plane.held if e.t >= cutoff]
    (key,) = bruteforce_image([ev], plane.center_flow, plane.t_ref_us)
    image = bruteforce_image(live, plane.center_flow, plane.t_ref_us)
    return key in plane.promoted or image.get(key, 0) != 0


@SETTINGS
@given(flow=FAST_FLOWS,
       seed=st.lists(st.tuples(PATCH, PATCH, st.integers(0, 1_000),
                               st.sampled_from((1, -1))),
                     min_size=1, max_size=8),
       ops=st.lists(FAST_OPS, max_size=40),
       evolve=st.integers(1, 2))
def test_fast_offers_hit_the_center_image_at_t_ref(flow, seed, ops, evolve):
    # every offer hits or misses as the brute-force center image at
    # t_ref_us says, and expiry retracts through that same t_ref
    cfg = TrackPlaneConfig(evolve_threshold=evolve)
    t = 0
    events = []
    for du, dv, dt, s in seed:
        t += dt
        events.append(on_track(flow, du, dv, t, s))
    plane = TrackPlane(0, flow, events, cfg)
    check_plane(plane)
    for op in ops:
        if op[0] == "offer":
            _, du, dv, dt, s = op
            t += dt
            ev = on_track(flow, du, dv, t, s)
            hit = bruteforce_hit(plane, ev)
            assert plane.try_match(ev) == hit
        else:
            t += op[1]
            plane.expire(t)
        check_plane(plane)


EVENTS = st.lists(st.tuples(PATCH, PATCH, st.integers(0, 40_000),
                            st.sampled_from((1, -1))),
                  min_size=1, max_size=15)


@SETTINGS
@given(flow=FLOWS,
       ops=st.lists(st.one_of(st.tuples(st.just("add"), EVENTS),
                              st.tuples(st.just("retract"),
                                        st.lists(st.integers(0, 10 ** 6),
                                                 max_size=15))),
                    max_size=12))
def test_accumulator_batches_match_scalar_path(flow, ops):
    t = 0
    batched = AccumulatorGrid()
    live, touched = [], set()
    for op in ops:
        if op[0] == "add":
            batch = []
            for u, v, dt, s in op[1]:
                t += dt
                batch.append(Event(u, v, t, s))
            batched.accumulate_batch(*grid_images(event_columns(batch), 0,
                                                  [flow[0]], [flow[1]])[0])
            live.extend(batch)
            touched.update(bruteforce_image(batch, flow, 0))
        else:
            picks = {i % len(live) for i in op[1]} if live else set()
            batch = [e for i, e in enumerate(live) if i in picks]
            live = [e for i, e in enumerate(live) if i not in picks]
            cells = batched.retract_batch(
                *grid_images(event_columns(batch), 0, [flow[0]], [flow[1]])[0])
            assert cells == sorted(bruteforce_image(batch, flow, 0))
        # every cell ever touched stays, holding its live sum (0 when
        # cancelled), so that a cancelled cell stays retractable
        expected = dict.fromkeys(touched, 0)
        expected.update(bruteforce_image(live, flow, 0))
        assert batched.cells == expected
        assert batched.metric == metric_bruteforce(live, flow, 0)


@SETTINGS
@given(m=st.sampled_from((1, 3, 5)),
       speeds=st.lists(st.floats(-300.0, 300.0), min_size=10, max_size=10),
       t_ref=st.integers(-200_000, 200_000),
       events=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                                 st.integers(0, 40_000),
                                 st.sampled_from((1, -1))),
                       max_size=40))
def test_grid_kernel_matches_per_flow_projection(m, speeds, t_ref, events):
    # grid k = j*m + i of the kernel is the flow (col[i], row[j]), and
    # holds every cell its events touch, cancelled ones included
    col, row = speeds[:m], speeds[5:5 + m]
    t = 0
    batch = []
    for u, v, dt, s in events:
        t += dt
        batch.append(Event(u, v, t, s))
    images = grid_images(event_columns(batch), t_ref, col, row)
    assert len(images) == m * m
    for k, (keys, sums) in enumerate(images):
        flow = (col[k % m], row[k // m])
        expected = bruteforce_image(batch, flow, t_ref)
        assert keys.tolist() == sorted(expected)
        assert sums.tolist() == [expected[key] for key in sorted(expected)]
