import random

import numpy as np
import pytest

from flowseg.events import Event
from flowseg.flow_plane import FlowPlaneConfig, MetricArray
from flowseg.projection import (AccumulatorGrid, ConsistencyError, FlowVector,
                                KEY_M, event_columns, grid_flow, project_keys,
                                round_half_away, runs, unpack_cell)

from oracles import (array_flows, bruteforce_image, bruteforce_keys,
                     bruteforce_row_images, image_batch, metric_bruteforce,
                     pack_cell, sum_squares)


def random_events(rng, count, t_span_us=500_000, width=240, height=180):
    t = 0
    out = []
    for _ in range(count):
        t += rng.randrange(0, max(2, 2 * t_span_us // count))
        out.append(Event(rng.randrange(width), rng.randrange(height), t,
                         rng.choice((1, -1))))
    return out


def filled(events, col_vu, row_vv, t_ref_us):
    """A `MetricArray` with the n speeds `col_vu` and `row_vv` as its
    axes and `t_ref_us` as its reference, filled with `events`; and per
    speed row j, its grids' (grid key, value) cells in key order, read
    through `MetricArray.grid` and keyed as `bruteforce_row_images`
    keys them."""
    n = len(col_vu)
    array = MetricArray(FlowPlaneConfig(n=n))
    array.col_vu = np.array(col_vu, dtype=np.float64)
    array.row_vv = np.array(row_vv, dtype=np.float64)
    array.t_ref_us = t_ref_us
    array.fill(events)
    rows = [[((k << 43) + cell, value)
             for k in range(j * n, j * n + n)
             for cell, value in zip(*(a.tolist() for a in array.grid(k)))]
            for j in range(n)]
    return array, rows


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


def add(grid, events, flow, t_ref_us):
    """Accumulate the batch image of events along one flow."""
    grid.accumulate_batch(*image_batch(events, flow, t_ref_us))


def remove(grid, events, flow, t_ref_us):
    """Retract events one key each, as a tracking plane expires them."""
    us, vs, ts, _ = event_columns(events)
    keys = project_keys(us, vs, (ts - t_ref_us) * 1e-6, flow[0], flow[1])
    grid.retract_batch(keys.tolist(), [e.s for e in events])


def test_accumulate_deltas_and_inverse():
    grid = AccumulatorGrid()
    flow = FlowVector(0.0, 0.0)
    e = Event(5, 5, 0, 1)
    metrics = []
    for step in (add, add, remove, remove):
        step(grid, [e], flow, 0)
        metrics.append(sum_squares(grid.cells))
    # deltas 1 (fresh cell), 3 (2c+1 at c=1), then their inverses
    assert metrics == [1, 4, 1, 0]
    # opposite polarity on a positive cell lowers the metric
    add(grid, [e], flow, 0)
    add(grid, [Event(5, 5, 0, -1)], flow, 0)
    assert sum_squares(grid.cells) == 0


def test_retract_untouched_cell_raises():
    grid = AccumulatorGrid()
    flow = FlowVector(0.0, 0.0)
    add(grid, [Event(2, 2, 0, 1)], flow, 0)
    with pytest.raises(ConsistencyError):
        remove(grid, [Event(1, 1, 0, 1)], flow, 0)


def test_cancelled_cell_still_retractable():
    grid = AccumulatorGrid()
    flow = FlowVector(0.0, 0.0)
    add(grid, [Event(3, 3, 0, 1)], flow, 0)
    add(grid, [Event(3, 3, 10, -1)], flow, 0)
    assert sum_squares(grid.cells) == 0
    assert grid.nonzero_cells() == set()
    # the zero entry stays, so retraction does not look untouched
    remove(grid, [Event(3, 3, 0, 1)], flow, 0)
    assert grid.cells == {pack_cell(3, 3): -1}
    assert sum_squares(grid.cells) == 1
    # a batch that cancels within itself leaves its cell retractable too
    fresh = AccumulatorGrid()
    add(fresh, [Event(3, 3, 0, 1), Event(3, 3, 10, -1)], flow, 0)
    assert fresh.cells == {pack_cell(3, 3): 0}
    remove(fresh, [Event(3, 3, 10, -1)], flow, 0)
    assert sum_squares(fresh.cells) == 1


def test_incremental_matches_bruteforce_small():
    rng = random.Random(101)
    events = random_events(rng, 400)
    t_ref = events[0].t
    for trial in range(5):
        flow = FlowVector(rng.uniform(-200, 200), rng.uniform(-200, 200))
        grid = AccumulatorGrid()
        live = []
        for i, e in enumerate(events):
            add(grid, [e], flow, t_ref)
            live.append(e)
            if i % 5 == 4:
                victim = live.pop(rng.randrange(len(live)))
                remove(grid, [victim], flow, t_ref)
        assert sum_squares(grid.cells) == metric_bruteforce(live, flow,
                                                            t_ref)


def test_batch_matches_scalar():
    rng = random.Random(7)
    events = random_events(rng, 300)
    flow = FlowVector(37.0, -12.0)
    batched = AccumulatorGrid()
    t_ref = events[0].t
    add(batched, events, flow, t_ref)
    assert sum_squares(batched.cells) == metric_bruteforce(events, flow,
                                                           t_ref)
    # every touched cell is kept, cancelled ones at 0
    assert batched.cells == bruteforce_image(events, flow, t_ref)

    # a second batch merges into the populated grid
    more = random_events(rng, 150)
    shifted = [Event(e.u, e.v, e.t + events[-1].t, e.s) for e in more]
    add(batched, shifted, flow, t_ref)
    assert sum_squares(batched.cells) == metric_bruteforce(events + shifted,
                                                           flow, t_ref)
    assert batched.cells == bruteforce_image(events + shifted, flow, t_ref)

    remove(batched, shifted, flow, t_ref)
    touched = bruteforce_image(shifted, flow, t_ref)
    assert sum_squares(batched.cells) == metric_bruteforce(events, flow,
                                                           t_ref)
    # the cells only the retracted batch touched stay, at 0
    expected = dict.fromkeys(touched, 0)
    expected.update(bruteforce_image(events, flow, t_ref))
    assert batched.cells == expected


def test_project_keys_match_bruteforce():
    rng = random.Random(11)
    events = random_events(rng, 200)
    us, vs, ts, _ = event_columns(events)
    for _ in range(5):
        flow = (rng.uniform(-300, 300), rng.uniform(-300, 300))
        t_ref = rng.randrange(-100_000, 100_000)
        keys = project_keys(us, vs, (ts - t_ref) * 1e-6, *flow)
        assert keys.tolist() == bruteforce_keys(events, flow, t_ref)


def test_retract_batch_takes_repeated_keys_in_any_order():
    grid = AccumulatorGrid()
    flow = FlowVector(0.0, 0.0)
    events = [Event(4, 4, 0, 1), Event(2, 2, 5, -1), Event(4, 4, 9, 1)]
    add(grid, events, flow, 0)
    grid.retract_batch([pack_cell(4, 4), pack_cell(2, 2), pack_cell(4, 4)],
                       [1, -1, 1])
    assert grid.cells == {pack_cell(2, 2): 0, pack_cell(4, 4): 0}


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
    grid = AccumulatorGrid()
    for i in range(6):
        add(grid, [Event(9, 9, i, 1)], flow, 0)
    assert sum_squares(grid.cells) == 36
    spread = AccumulatorGrid()
    for i in range(6):
        add(spread, [Event(i, 0, 0, 1)], flow, 0)
    assert sum_squares(spread.cells) == 6


@pytest.mark.parametrize("n", [3, 20])
def test_grid_flow_is_column_speed_and_row_speed(n):
    # distinct axes: a swapped or transposed lookup picks a wrong speed
    col_vu = np.linspace(-150.0, 140.0, n) + 0.25
    row_vv = np.linspace(-90.0, 160.0, n) - 0.75
    rng = random.Random(n)
    events = random_events(rng, 60)
    flows = array_flows(col_vu.tolist(), row_vv.tolist())
    assert len(flows) == n * n
    for k, flow in enumerate(flows):
        got = grid_flow(col_vu, row_vv, k)
        assert got == flow
        # numpy scalars would print as np.float64(...) in label files
        assert type(got.v_u) is float and type(got.v_v) is float
    # and the kernel projects grid k's events along that same flow
    _, rows = filled(events, col_vu, row_vv, 1234)
    assert rows == [sorted(image.items()) for image in
                    bruteforce_row_images(events, col_vu, row_vv, 1234)]


def test_runs_split_where_any_column_changes():
    # the second row repeats the first; every later row changes one
    # column of the row before it: u, v, dt, then the sign
    us = np.array([3.0, 3.0, 4.0, 4.0, 4.0, 4.0, 4.0])
    vs = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0])
    dt = np.array([0.5, 0.5, 0.5, 0.5, 0.7, 0.7, 0.7])
    signs = np.array([1, 1, 1, 1, 1, -1, -1], dtype=np.int32)
    first, weights = runs(us, vs, dt, signs)
    assert first.tolist() == [0, 2, 3, 4, 5]
    assert weights.tolist() == [2, 1, 1, 1, -2]
    assert weights.dtype == np.int32


def test_weighted_runs_match_repeated_events():
    # a fill projects a run of k identical events once, with weight k
    # (times its sign): it must give the cells and metrics of the k
    # events each counted once
    rng = random.Random(5)
    events = [e for e in random_events(rng, 40)
              for _ in range(rng.randint(1, 4))]
    col_vu, row_vv = [-40.0, 0.0, 35.0], [-20.0, 25.0, 60.0]
    us, vs, ts, ss = event_columns(events)
    signs = np.where(ss > 0, np.int32(1), np.int32(-1))
    first, _ = runs(us, vs, (ts - 77) * 1e-6, signs)
    assert len(first) < len(events)
    array, rows = filled(events, col_vu, row_vv, 77)
    assert rows == [sorted(image.items()) for image in
                    bruteforce_row_images(events, col_vu, row_vv, 77)]
    assert array.metrics == [metric_bruteforce(events, flow, 77)
                             for flow in array_flows(col_vu, row_vv)]
