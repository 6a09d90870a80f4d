"""Property tests of batched discovery.

The cell store and the deferred ingest must be a change of data layout
only: batch boundaries, flushes and drain timing may not move a metric,
an argmax or an emission.
"""

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from flowseg import flow_plane
from flowseg.events import Event
from flowseg.flow_plane import FlowPlane, FlowPlaneConfig, MetricArray
from flowseg.projection import metric_bruteforce, pack_cell, project_event

SETTINGS = settings(max_examples=60, deadline=None)
# (candidate, event) pairs per projected block: tiny blocks put block
# boundaries (and argmax ties across them) inside every batch
BLOCKS = st.sampled_from((1, 5, flow_plane._BLOCK_PAIRS))


@st.composite
def event_streams(draw, min_size=1, max_size=60, span=4):
    """Time-ordered events on a small patch, so that projections collide
    and cells cancel often."""
    steps = draw(st.lists(
        st.tuples(st.integers(0, span), st.integers(0, span),
                  st.integers(0, 40_000), st.sampled_from((1, -1))),
        min_size=min_size, max_size=max_size))
    t = 0
    events = []
    for u, v, dt, s in steps:
        t += dt
        events.append(Event(u, v, t, s))
    return events


def split(events, cuts):
    bounds = sorted({c % (len(events) + 1) for c in cuts} | {0, len(events)})
    return [events[a:b] for a, b in zip(bounds, bounds[1:])]


def nonzero_grids(array):
    grids = []
    for k in range(len(array.flows)):
        cells, values = array.grid(k)
        grids.append({c: v for c, v in zip(cells.tolist(), values.tolist())
                      if v})
    return grids


def bruteforce_grids(array):
    grids = []
    for flow in array.flows:
        image = {}
        for e in array.held:
            key = pack_cell(*project_event(e, flow, array.t_ref_us))
            image[key] = image.get(key, 0) + e.s
        grids.append({c: v for c, v in image.items() if v})
    return grids


@SETTINGS
@given(events=event_streams(), cuts=st.lists(st.integers(0, 60), max_size=6),
       n=st.integers(2, 4), block=BLOCKS)
def test_ingest_batch_splits_match_single_events(events, cuts, n, block):
    cfg = FlowPlaneConfig(n=n)
    single = MetricArray(cfg)
    expected = [single.ingest(e) for e in events]
    batched = MetricArray(cfg)
    got = []
    with mock.patch.object(flow_plane, "_BLOCK_PAIRS", block):
        for batch in split(events, cuts):
            got.extend(batched.ingest_batch(batch).tolist())
    assert got == expected
    assert batched.metrics == single.metrics
    assert batched.argmax_index == single.argmax_index
    assert nonzero_grids(batched) == nonzero_grids(single)


@SETTINGS
@given(events=event_streams(max_size=80),
       ops=st.lists(st.tuples(st.integers(1, 20), st.booleans(),
                              st.integers(0, 100)), min_size=1, max_size=12),
       n=st.integers(2, 3), block=BLOCKS)
def test_ingest_and_flush_match_bruteforce(events, ops, n, block):
    array = MetricArray(FlowPlaneConfig(n=n))
    at = 0
    for size, by_fill, cutoff_pct in ops:
        batch = events[at:at + size]
        at += size
        with mock.patch.object(flow_plane, "_BLOCK_PAIRS", block):
            if by_fill:
                array.fill(batch)
            else:
                array.ingest_batch(batch)
        if array.held:
            first, last = array.held[0].t, array.held[-1].t
            array.flush_older_than(first + (last - first) * cutoff_pct // 100)
        if array.t_ref_us is None:
            continue
        for k, flow in enumerate(array.flows):
            assert array.metrics[k] == metric_bruteforce(array.held, flow,
                                                         array.t_ref_us)
        assert nonzero_grids(array) == bruteforce_grids(array)


# refinement ranges pi/q**level of the default q, and arbitrary ones
RANGES = st.one_of(st.sampled_from([math.pi / 9.0 ** level
                                    for level in range(4)]),
                   st.floats(1e-3, math.pi))
CENTERS = st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))


@SETTINGS
@given(events=event_streams(span=40), n=st.integers(2, 5), center=CENTERS,
       angular_range=RANGES, block=BLOCKS,
       cuts=st.lists(st.integers(0, 60), max_size=4))
def test_off_center_arrays_match_bruteforce(events, n, center, angular_range,
                                            block, cuts):
    # every grid rounds its column's v_u and its row's v_v once per
    # event; around any center and at any range, each candidate must
    # still see its own flow
    cfg = FlowPlaneConfig(n=n)
    scan, filled, ingested = (MetricArray(cfg, center, angular_range)
                              for _ in range(3))
    with mock.patch.object(flow_plane, "_BLOCK_PAIRS", block):
        scan.fill_scan(events)
        filled.fill(events)
        for batch in split(events, cuts):
            ingested.ingest_batch(batch)
    expected = [metric_bruteforce(events, flow, events[0].t)
                for flow in scan.flows]
    for array in (scan, filled, ingested):
        assert array.metrics == expected
    images = bruteforce_grids(filled)
    assert nonzero_grids(filled) == images
    assert nonzero_grids(ingested) == images


def test_cancelled_cell_retracts_after_compaction():
    # a and b cancel in every grid; the flush of z compacts their cell
    # away, and the flush of a must then read it as 0, leaving b's -1
    z = Event(50, 50, 0, 1)
    a = Event(5, 5, 1, 1)
    b = Event(5, 5, 10, -1)
    array = MetricArray(FlowPlaneConfig(n=3))
    array.fill([z, a, b])
    assert array.flush_older_than(1) == 1
    assert all(len(array.grid(k)[0]) == 0 for k in range(9))
    assert array.flush_older_than(5) == 1
    for k, flow in enumerate(array.flows):
        assert array.metrics[k] == metric_bruteforce([b], flow,
                                                     array.t_ref_us) == 1
    assert nonzero_grids(array) == bruteforce_grids(array)


def run_plane(events, cfg, eager, flush_every):
    """Drive a FlowPlane as the engine does; with `eager`, read its array
    after every event, which drains the pending events one at a time."""
    plane = FlowPlane(cfg)
    record = []
    for i, ev in enumerate(events):
        plane.ingest(ev)
        if eager:
            plane.array  # the read drains the pending event
        if plane.stability_check():
            seed = plane.try_emit()
            if seed is not None:
                record.append(("emit", i, seed.flow, seed.events))
        if i % flush_every == flush_every - 1:
            record.append(("flush", i, plane.flush_noise(ev.t)))
    return record, plane.array.held, plane.array.metrics


@SETTINGS
@given(events=event_streams(min_size=20, max_size=200, span=3),
       p_stable=st.integers(1, 25), n=st.integers(2, 3),
       w=st.sampled_from((0.0, 0.5, 1.0)), flush_every=st.integers(7, 60))
def test_deferred_plane_emits_like_eager(events, p_stable, n, w, flush_every):
    cfg = FlowPlaneConfig(n=n, p_stable=p_stable, w=w, noise_lifespan_s=0.2)
    assert (run_plane(events, cfg, False, flush_every)
            == run_plane(events, cfg, True, flush_every))
