import random

import numpy as np
import pytest

from flowseg.events import Event
from flowseg.projection import (AccumulatorGrid, ConsistencyError, FlowVector,
                                KEY_M, event_columns, grid_images,
                                metric_bruteforce, pack_cell, project_event,
                                round_half_away, unpack_cell)


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


def test_project_event_shifts_against_flow():
    flow = FlowVector(100.0, 0.0)
    e = Event(10, 20, 100_000, 1)    # 0.1 s after the reference
    assert project_event(e, flow, 0) == (0, 20)
    assert project_event(e, flow, e.t) == (10, 20)


def test_accumulate_deltas_and_inverse():
    grid = AccumulatorGrid(t_ref_us=0)
    flow = FlowVector(0.0, 0.0)
    e = Event(5, 5, 0, 1)
    assert grid.accumulate(e, flow) == 1      # fresh cell
    assert grid.accumulate(e, flow) == 3      # 2c+1 at c=1
    assert grid.metric == 4
    assert grid.retract(e, flow) == -3
    assert grid.retract(e, flow) == -1
    assert grid.metric == 0
    # opposite polarity on a positive cell lowers the metric
    grid.accumulate(e, flow)
    assert grid.accumulate(Event(5, 5, 0, -1), flow) == -1
    assert grid.metric == 0


def test_retract_untouched_cell_raises():
    grid = AccumulatorGrid(t_ref_us=0)
    with pytest.raises(ConsistencyError):
        grid.retract(Event(1, 1, 0, 1), FlowVector(0.0, 0.0))


def test_cancelled_cell_still_retractable():
    grid = AccumulatorGrid(t_ref_us=0)
    flow = FlowVector(0.0, 0.0)
    grid.accumulate(Event(3, 3, 0, 1), flow)
    grid.accumulate(Event(3, 3, 10, -1), flow)
    assert grid.metric == 0
    assert grid.nonzero_cells() == set()
    # the zero entry stays, so retraction does not look untouched
    grid.retract(Event(3, 3, 0, 1), flow)
    assert grid.metric == 1


def test_incremental_matches_bruteforce_small():
    rng = random.Random(101)
    events = random_events(rng, 400)
    for trial in range(5):
        flow = FlowVector(rng.uniform(-200, 200), rng.uniform(-200, 200))
        grid = AccumulatorGrid(events[0].t)
        live = []
        for i, e in enumerate(events):
            grid.accumulate(e, flow)
            live.append(e)
            if i % 5 == 4:
                victim = live.pop(rng.randrange(len(live)))
                grid.retract(victim, flow)
        assert grid.metric == metric_bruteforce(live, flow, grid.t_ref_us)


def projected(events, flow, t_ref_us):
    """The batch image of events along one flow: a 1 x 1 candidate array."""
    return grid_images(event_columns(events), t_ref_us, [flow[0]],
                       [flow[1]])[0]


def test_batch_matches_scalar():
    rng = random.Random(7)
    events = random_events(rng, 300)
    flow = FlowVector(37.0, -12.0)
    scalar = AccumulatorGrid(events[0].t)
    for e in events:
        scalar.accumulate(e, flow)
    batched = AccumulatorGrid(events[0].t)
    batched.accumulate_batch(*projected(events, flow, batched.t_ref_us))
    assert batched.metric == scalar.metric
    assert ({k: c for k, c in batched.cells.items() if c != 0}
            == {k: c for k, c in scalar.cells.items() if c != 0})

    # a second batch merges into the populated grid
    more = random_events(rng, 150)
    shifted = [Event(e.u, e.v, e.t + events[-1].t, e.s) for e in more]
    for e in shifted:
        scalar.accumulate(e, flow)
    batched.accumulate_batch(*projected(shifted, flow, batched.t_ref_us))
    assert batched.metric == scalar.metric

    batched.retract_batch(*projected(shifted, flow, batched.t_ref_us))
    for e in shifted:
        scalar.retract(e, flow)
    assert batched.metric == scalar.metric


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
        grid.accumulate(Event(9, 9, i, 1), flow)
    assert grid.metric == 36
    spread = AccumulatorGrid(0)
    for i in range(6):
        spread.accumulate(Event(i, 0, 0, 1), flow)
    assert spread.metric == 6
