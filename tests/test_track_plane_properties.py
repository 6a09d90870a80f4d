"""Property tests of tracking.

A tracking plane keeps its one grid incrementally: a hit adds one
event, expiry retracts a batch of events, and a recenter rebuilds the
grid in a new frame.  After every call the grid must equal the image
rebuilt from the plane's held events, the cell kept for each held event
must be its projection in the plane's frame, and the footprint must be
the nonzero cells plus the promoted ones.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowseg.events import Event
from flowseg.projection import AccumulatorGrid, event_columns, project_keys
from flowseg.track_plane import TrackPlane, TrackPlaneConfig

from oracles import (bruteforce_image, bruteforce_keys,
                     bruteforce_row_images, image_batch, metric_bruteforce,
                     sum_squares)
from test_projection import filled

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
    st.tuples(st.just("recenter"), FLOWS, st.integers(0, 2)),
)


def nonzero(cells):
    return {k: c for k, c in cells.items() if c}


def check_plane(plane):
    grid = plane.grid
    # the grid projects along the plane's flow from its t_ref
    flow, t_ref = plane.center_flow, plane.t_ref_us
    # each held event is kept with the cell it projects to in this frame
    assert list(plane.held_keys) == bruteforce_keys(plane.held, flow, t_ref)
    image = nonzero(bruteforce_image(plane.held, flow, t_ref))
    assert nonzero(grid.cells) == image
    # the footprint counts the nonzero cells and the promoted ones
    assert plane.footprint_size() == len(image.keys() | plane.promoted)
    assert sum_squares(grid.cells) == metric_bruteforce(plane.held, flow,
                                                        t_ref)


def same_plane(plane, fresh):
    """Whether `plane` is in the state of `fresh`, a new plane."""
    return (plane.center_flow == fresh.center_flow
            and plane.t_ref_us == fresh.t_ref_us
            and plane.held == fresh.held
            and plane.held_keys == fresh.held_keys
            and plane.grid.cells == fresh.grid.cells
            and plane.promoted == fresh.promoted
            and plane.miss_counts == fresh.miss_counts)


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
       evolve=st.integers(1, 2))
# a promoted cell takes a hit, and expiry brings it back to 0
@example(flow=(0, 25), seed=[(0, 0, 0, 1)],
         ops=[("offer", 0, 1, 0, 1), ("offer", 0, 1, 0, 1),
              ("expire", 3_000_000)],
         evolve=1)
# a hit cancels a cell, and expiring the older event revives it
@example(flow=(0, 25), seed=[(0, 0, 0, 1)],
         ops=[("offer", 0, 0, 50_000, -1), ("expire", 100_000)],
         evolve=2)
# expiry moves the oldest held event, and a recenter lays its frame at
# the oldest event it is given, not at the old t_ref
@example(flow=(20, 0), seed=[(0, 0, 0, 1)],
         ops=[("offer", 0, 0, 100_000, 1), ("expire", 100_000),
              ("recenter", (20, 0), 0), ("offer", 0, 0, 0, 1)],
         evolve=2)
# then everything expires: the grid retracts through that new t_ref
@example(flow=(20, 0), seed=[(0, 0, 0, 1)],
         ops=[("offer", 0, 0, 100_000, 1), ("expire", 100_000),
              ("recenter", (20, 0), 0), ("offer", 0, 0, 0, 1),
              ("expire", 3_000_000)],
         evolve=2)
def test_track_plane_matches_bruteforce(flow, seed, ops, evolve):
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
        elif op[0] == "expire":
            t += op[1]
            plane.expire(t)
        else:
            # a new flow over the held events less the oldest `drop`, or
            # over all of them when that leaves none; a recenter needs one
            _, new_flow, drop = op
            held = list(plane.held)
            kept = held[drop:] or held
            if kept:
                plane.recenter(new_flow, kept)
                assert same_plane(plane, TrackPlane(0, new_flow, kept, cfg))
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
            batched.accumulate_batch(*image_batch(batch, flow, 0))
            live.extend(batch)
            touched.update(bruteforce_image(batch, flow, 0))
        else:
            picks = {i % len(live) for i in op[1]} if live else set()
            batch = [e for i, e in enumerate(live) if i in picks]
            live = [e for i, e in enumerate(live) if i not in picks]
            # one key per event, as a tracking plane expires them
            batched.retract_batch(bruteforce_keys(batch, flow, 0),
                                  [e.s for e in batch])
        # every cell ever touched stays, holding its live sum (0 when
        # cancelled), so that a cancelled cell stays retractable
        expected = dict.fromkeys(touched, 0)
        expected.update(bruteforce_image(live, flow, 0))
        assert batched.cells == expected
        assert sum_squares(batched.cells) == metric_bruteforce(live,
                                                               flow, 0)


@SETTINGS
@given(m=st.sampled_from((2, 3, 5)),
       speeds=st.lists(st.floats(-300.0, 300.0), min_size=10, max_size=10),
       t_ref=st.integers(-200_000, 200_000),
       events=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                                 st.integers(0, 40_000),
                                 st.sampled_from((1, -1))),
                       max_size=40))
def test_grid_kernel_matches_per_flow_projection(m, speeds, t_ref, events):
    # grid k = j*m + i of a filled array is the flow (col[i], row[j]),
    # and holds every cell its events touch, cancelled ones included, in
    # key order.  The keys a tracking plane keeps are `project_keys`
    # along one flow, one per event
    col, row = speeds[:m], speeds[5:5 + m]
    t = 0
    batch = []
    for u, v, dt, s in events:
        t += dt
        batch.append(Event(u, v, t, s))
    us, vs, ts, ss = event_columns(batch)
    keys = project_keys(us, vs, (ts - t_ref) * 1e-6, col[0], row[0])
    assert keys.tolist() == bruteforce_keys(batch, (col[0], row[0]), t_ref)
    _, rows = filled(batch, col, row, t_ref)
    assert rows == [sorted(image.items()) for image in
                    bruteforce_row_images(batch, col, row, t_ref)]
