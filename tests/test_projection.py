import random

import numpy as np
import pytest

from flowseg.events import Event
from flowseg.projection import (AccumulatorGrid, ConsistencyError, FlowVector,
                                KEY_M, cell_key, event_columns, grid_images,
                                project_keys, round_half_away, unpack_cell)

from oracles import bruteforce_image, metric_bruteforce, pack_cell


def random_events(rng, count, t_span_us=500_000, width=240, height=180):
    t = 0
    out = []
    for _ in range(count):
        t += rng.randrange(0, max(2, 2 * t_span_us // count))
        out.append(Event(rng.randrange(width), rng.randrange(height), t,
                         rng.choice((1, -1))))
    return out


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(-0.5) == -1
    assert round_half_away(1.5) == 2
    assert round_half_away(-1.5) == -2
    assert round_half_away(0.4) == 0
    assert round_half_away(-0.4) == 0
    assert round_half_away(0.0) == 0


def test_cell_key_round_trip():
    for xy in [(0, 0), (239, 179), (-7, 3), (5, -11), (-300, -300)]:
        assert unpack_cell(pack_cell(*xy)) == xy
    assert pack_cell(1, 0) - pack_cell(0, 0) == KEY_M


def test_project_keys_shift_against_flow():
    flow = FlowVector(100.0, 0.0)
    us, vs = np.array([10.0]), np.array([20.0])
    # 0.1 s after the reference, and at it
    assert project_keys(us, vs, np.array([0.1]), *flow).tolist() == [
        pack_cell(0, 20)]
    assert project_keys(us, vs, np.array([0.0]), *flow).tolist() == [
        pack_cell(10, 20)]
    # the scalar key of the tracking hit path agrees
    assert cell_key(10, 20, 0.1, *flow) == pack_cell(0, 20)


def projected(events, flow, t_ref_us):
    """The batch image of events along one flow: a 1 x 1 candidate array."""
    return grid_images(event_columns(events), t_ref_us, [flow[0]],
                       [flow[1]])[0]


def add(grid, events, flow):
    grid.accumulate_batch(*projected(events, flow, grid.t_ref_us))


def remove(grid, events, flow):
    return grid.retract_batch(*projected(events, flow, grid.t_ref_us))


def test_accumulate_deltas_and_inverse():
    grid = AccumulatorGrid(t_ref_us=0)
    flow = FlowVector(0.0, 0.0)
    e = Event(5, 5, 0, 1)
    metrics = []
    for step in (add, add, remove, remove):
        step(grid, [e], flow)
        metrics.append(grid.metric)
    # deltas 1 (fresh cell), 3 (2c+1 at c=1), then their inverses
    assert metrics == [1, 4, 1, 0]
    # opposite polarity on a positive cell lowers the metric
    add(grid, [e], flow)
    add(grid, [Event(5, 5, 0, -1)], flow)
    assert grid.metric == 0


def test_retract_untouched_cell_raises():
    grid = AccumulatorGrid(t_ref_us=0)
    flow = FlowVector(0.0, 0.0)
    add(grid, [Event(2, 2, 0, 1)], flow)
    with pytest.raises(ConsistencyError):
        remove(grid, [Event(1, 1, 0, 1)], flow)


def test_cancelled_cell_still_retractable():
    grid = AccumulatorGrid(t_ref_us=0)
    flow = FlowVector(0.0, 0.0)
    add(grid, [Event(3, 3, 0, 1)], flow)
    add(grid, [Event(3, 3, 10, -1)], flow)
    assert grid.metric == 0
    assert grid.nonzero_cells() == set()
    # the zero entry stays, so retraction does not look untouched
    assert remove(grid, [Event(3, 3, 0, 1)], flow) == [pack_cell(3, 3)]
    assert grid.metric == 1
    # a batch that cancels within itself leaves its cell retractable too
    fresh = AccumulatorGrid(t_ref_us=0)
    add(fresh, [Event(3, 3, 0, 1), Event(3, 3, 10, -1)], flow)
    assert fresh.cells == {pack_cell(3, 3): 0}
    remove(fresh, [Event(3, 3, 10, -1)], flow)
    assert fresh.metric == 1


def test_incremental_matches_bruteforce_small():
    rng = random.Random(101)
    events = random_events(rng, 400)
    for trial in range(5):
        flow = FlowVector(rng.uniform(-200, 200), rng.uniform(-200, 200))
        grid = AccumulatorGrid(events[0].t)
        live = []
        for i, e in enumerate(events):
            add(grid, [e], flow)
            live.append(e)
            if i % 5 == 4:
                victim = live.pop(rng.randrange(len(live)))
                remove(grid, [victim], flow)
        assert grid.metric == metric_bruteforce(live, flow, grid.t_ref_us)


def test_batch_matches_scalar():
    rng = random.Random(7)
    events = random_events(rng, 300)
    flow = FlowVector(37.0, -12.0)
    batched = AccumulatorGrid(events[0].t)
    add(batched, events, flow)
    assert batched.metric == metric_bruteforce(events, flow,
                                               batched.t_ref_us)
    # every touched cell is kept, cancelled ones at 0
    assert batched.cells == bruteforce_image(events, flow, batched.t_ref_us)

    # a second batch merges into the populated grid
    more = random_events(rng, 150)
    shifted = [Event(e.u, e.v, e.t + events[-1].t, e.s) for e in more]
    add(batched, shifted, flow)
    assert batched.metric == metric_bruteforce(events + shifted, flow,
                                               batched.t_ref_us)
    assert batched.cells == bruteforce_image(events + shifted, flow,
                                             batched.t_ref_us)

    touched = remove(batched, shifted, flow)
    assert touched == sorted(bruteforce_image(shifted, flow,
                                              batched.t_ref_us))
    assert batched.metric == metric_bruteforce(events, flow,
                                               batched.t_ref_us)
    # the cells only the retracted batch touched stay, at 0
    expected = dict.fromkeys(touched, 0)
    expected.update(bruteforce_image(events, flow, batched.t_ref_us))
    assert batched.cells == expected


def test_event_columns_shapes():
    events = [Event(1, 2, 3, 1), Event(4, 5, 6, -1)]
    us, vs, ts, ss = event_columns(events)
    assert us.tolist() == [1.0, 4.0]
    assert ss.tolist() == [1.0, -1.0]
    empty = event_columns([])
    assert all(col.size == 0 for col in empty)


def test_metric_counts_coincident_events():
    # n coincident same-sign events score n^2, the crispness reward
    flow = FlowVector(0.0, 0.0)
    grid = AccumulatorGrid(0)
    for i in range(6):
        add(grid, [Event(9, 9, i, 1)], flow)
    assert grid.metric == 36
    spread = AccumulatorGrid(0)
    for i in range(6):
        add(spread, [Event(i, 0, 0, 1)], flow)
    assert spread.metric == 6
