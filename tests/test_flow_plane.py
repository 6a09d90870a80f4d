import math
import random
from unittest import mock

import numpy as np
import pytest

from flowseg import flow_plane
from flowseg.events import Event
from flowseg.flow_plane import (AssociationError, AssociationResult, FlowPlane,
                                FlowPlaneConfig, MetricArray, axis_speeds,
                                cell_value_stats, extract_associated,
                                flood_fill_cells)
from flowseg.projection import FlowVector, grid_flow
from flowseg.synth import ConstantMotion, build_contour, generate_scene

from oracles import (array_flows, bruteforce_image, metric_bruteforce,
                     pack_cell, top_array)
from test_projection import random_events


def test_axis_speeds_tan_mapping():
    cfg = FlowPlaneConfig(n=3, v_ref=100.0)
    # cell angles for n=3 over (-pi/2, pi/2): -pi/3, 0, pi/3
    speeds = axis_speeds(0.0, math.pi, cfg)
    assert len(speeds) == 3
    assert speeds[2] == pytest.approx(100.0 * math.sqrt(3.0), rel=1e-12)
    assert speeds[1] == pytest.approx(0.0, abs=1e-12)
    assert speeds[0] == pytest.approx(-100.0 * math.sqrt(3.0), rel=1e-12)


def test_axis_speeds_symmetry_and_offset():
    cfg = FlowPlaneConfig(n=5, v_ref=80.0)
    speeds = axis_speeds(0.0, math.pi, cfg)
    for i in range(5):
        assert speeds[i] == pytest.approx(-speeds[4 - i], abs=1e-9)
    assert axis_speeds(17.0, math.pi, cfg)[2] == pytest.approx(17.0)
    assert axis_speeds(-4.0, math.pi, cfg)[2] == pytest.approx(-4.0)


def test_metric_array_refuses_unusable_axes():
    # grid k = j*n + i keys its cells from bit 43 up, so an axis holds
    # at most isqrt(MAX_GRIDS) = 1024 speeds
    for col_vu, row_vv in (([1.0, 2.0], [1.0]), ([], []),
                           ([0.0] * 1025, [0.0] * 1025)):
        with pytest.raises(ValueError, match="^the axes must hold 1 to 1024 "):
            MetricArray(col_vu, row_vv)
    array = MetricArray([5.0, -3.0, 5.0], [0.0, 1.0, 2.0])
    assert array.n == 3
    with pytest.raises(ValueError, match="read-only"):
        array.col_vu[0] = 1.0


def test_refine_scores_the_flows_its_axes_span():
    # unsorted, with a repeated speed: the argmax ties go to the lower grid
    events = random_events(random.Random(30), 300)
    col_vu, row_vv = [40.0, -25.0, 40.0, 3.5], [-7.0, 12.0, 0.0, 12.0]
    flows = array_flows(col_vu, row_vv)
    metrics = [metric_bruteforce(events, flow, events[0].t) for flow in flows]
    assert (flow_plane.refine(events, col_vu, row_vv)
            == flows[metrics.index(max(metrics))])


def test_refined_flow_lays_each_level_around_the_last(monkeypatch):
    # each level spans 1/_RANGE_SHRINK of the range before it, around the
    # flow the level before it returned; `refine` is looked up by name
    cfg = FlowPlaneConfig(n=4)
    levels = []

    def spy(events, col_vu, row_vv):
        levels.append((col_vu, row_vv))
        return FlowVector(col_vu[1], row_vv[2])

    monkeypatch.setattr(flow_plane, "refine", spy)
    assoc = AssociationResult([0], [Event(1, 2, 3, 1)],
                              FlowVector(10.0, -5.0), 1.0, 0.0, 1.0)
    flow = flow_plane.refined_flow(assoc, cfg)
    center, angular_range = assoc.flow, flow_plane._ANGULAR_RANGE
    for col_vu, row_vv in levels:
        angular_range /= flow_plane._RANGE_SHRINK
        assert col_vu == axis_speeds(center.v_u, angular_range, cfg)
        assert row_vv == axis_speeds(center.v_v, angular_range, cfg)
        center = FlowVector(col_vu[1], row_vv[2])
    assert len(levels) == flow_plane._DEPTH_MAX
    assert flow == center


def test_metric_array_matches_bruteforce():
    rng = random.Random(31)
    events = random_events(rng, 500)
    cfg = FlowPlaneConfig(n=4, p_stable=10)
    array = top_array(cfg)
    for e in events:
        array.apply_batch([e])
    for k, flow in enumerate(array_flows(array.col_vu, array.row_vv)):
        assert array.metrics[k] == metric_bruteforce(events, flow,
                                                     array.t_ref_us)
    assert array.argmax_index == array.metrics.index(max(array.metrics))


def test_metric_array_fill_equals_ingest():
    rng = random.Random(32)
    events = random_events(rng, 400)
    cfg = FlowPlaneConfig(n=4)
    one = top_array(cfg)
    for e in events:
        one.apply_batch([e])
    two = top_array(cfg)
    two.fill(events)
    assert one.metrics == two.metrics
    assert one.argmax_index == two.argmax_index
    for k in range(cfg.n * cfg.n):
        grids = []
        for array in (one, two):
            cells, values = array.grid(k)
            grids.append(dict(zip(cells[values != 0].tolist(),
                                  values[values != 0].tolist())))
        assert grids[0] == grids[1]
        # the store holds exactly the cells of the brute-force image
        flow = array_flows(one.col_vu, one.row_vv)[k]
        expected = bruteforce_image(events, flow, one.t_ref_us)
        assert grids[0] == {key: c for key, c in expected.items() if c}


def test_hot_pixel_squares_pass_int32_exactly():
    # 50,000 events at one pixel and one time: each grid holds one cell
    # of 50,000 (stored as int32), whose square 2.5e9 is past int32
    events = [Event(7, 9, 1000, 1)] * 50_000
    cfg = FlowPlaneConfig(n=2)
    batched, filled = top_array(cfg), top_array(cfg)
    batched.apply_batch(events[:25_000])
    batched.apply_batch(events[25_000:])
    filled.fill(events)
    for k, flow in enumerate(array_flows(filled.col_vu, filled.row_vv)):
        metric = metric_bruteforce(events, flow, filled.t_ref_us)
        assert metric == 50_000 ** 2
        for array in (batched, filled):
            assert array.metrics[k] == metric
            cells, values = array.grid(k)
            assert cells.tolist() == [pack_cell(7, 9)]
            assert values.tolist() == [50_000]


def test_batch_past_the_held_limit_raises_before_any_work():
    events = random_events(random.Random(37), 10)
    array = top_array(FlowPlaneConfig(n=2))
    with mock.patch.object(flow_plane, "_HELD_MAX", 8):
        array.apply_batch(events[:5])
        stores = [a.tolist() for a in array.row_keys + array.row_values]
        metrics = array.metrics
        with pytest.raises(ValueError, match="int32"):
            array.apply_batch(events[5:9], [(2, 1)])
        assert array.held == events[:5]
        assert array.metrics == metrics
        assert stores == [a.tolist()
                          for a in array.row_keys + array.row_values]
        array.apply_batch(events[5:8])          # 8 held: at the limit
    assert array.held == events[:8]


def test_largest_array_keeps_its_last_rows_exact():
    # n = 1024 gives 2**20 grids, the most whose keys k * 2**43 + packed
    # fit in int64: the last row store ends just below 2**63
    cfg = FlowPlaneConfig(n=1024)
    array = top_array(cfg)
    events = [Event(3, 4, 0, 1), Event(200, 170, 2000, -1),
              Event(3, 5, 4000, 1), Event(0, 0, 9000, 1)]
    array.apply_batch(events[:3])
    array.apply_batch(events[3:], [(0, 1)])
    held = events[1:]
    assert array.held == held
    n = cfg.n
    metrics = array.metrics
    for k in (0, n - 1, n * n // 2, n * n - n - 1, n * n - n, n * n - 1):
        flow = grid_flow(array.col_vu, array.row_vv, k)
        assert metrics[k] == metric_bruteforce(held, flow, array.t_ref_us)
        cells, values = array.grid(k)
        image = bruteforce_image(held, flow, array.t_ref_us)
        assert dict(zip(cells.tolist(), values.tolist())) == {
            cell: value for cell, value in image.items() if value}
    for keys in array.row_keys[-2:]:
        assert len(keys) == 3 * n and (np.diff(keys) > 0).all()


def test_flush_retracts_exactly():
    rng = random.Random(33)
    events = random_events(rng, 600)
    cfg = FlowPlaneConfig(n=3)
    array = top_array(cfg)
    array.fill(events)
    stale = len(events) // 2
    survivors = events[stale:]
    # a flush before any event of the batch: the `stale` oldest leave
    best, after = array.apply_batch((), [(0, stale)])
    assert len(best) == 0
    assert array.held == survivors
    metrics = [metric_bruteforce(survivors, flow, array.t_ref_us)
               for flow in array_flows(array.col_vu, array.row_vv)]
    assert array.metrics == metrics
    assert after == [array.argmax_index] == [metrics.index(max(metrics))]


def test_cell_value_stats():
    mu, sigma = cell_value_stats([5, 5, -1, 1, 0])
    assert mu == pytest.approx(3.0)
    assert sigma == pytest.approx(2.0)
    with pytest.raises(AssociationError):
        cell_value_stats([0, 0])


def test_flood_fill_connectivity():
    a, b, c = pack_cell(0, 0), pack_cell(1, 1), pack_cell(2, 1)
    island = pack_cell(10, 10)
    nonzero = {a, b, c, island}
    filled = flood_fill_cells(nonzero, {a})
    assert filled == {a, b, c}        # diagonal connects, island excluded


def test_extract_associated_selects_crisp_cluster():
    # structure: 40 coincident-cell events at zero flow; background: single
    # events scattered far away.  zero-flow grid wins; association should
    # keep the cluster and drop the scatter.
    cfg = FlowPlaneConfig(n=5)          # seeds above mu + 2 sigma
    events = []
    t = 0
    rng = random.Random(5)
    for i in range(40):
        t += 500
        events.append(Event(50 + i % 3, 50, t, 1))
    for i in range(30):
        t += 500
        events.append(Event(rng.randrange(200), 120 + rng.randrange(50), t,
                            rng.choice((1, -1))))
    array = top_array(cfg)
    array.fill(events)
    assoc = extract_associated(array)
    assert abs(assoc.flow.v_u) < 1e-9 and abs(assoc.flow.v_v) < 1e-9
    kept_vs = {e.v for e in assoc.events}
    assert kept_vs == {50}
    assert len(assoc.events) == 40


def test_extract_associated_raises_without_seeds(monkeypatch):
    monkeypatch.setattr(flow_plane, "_SEED_W", 50.0)   # unreachable threshold
    cfg = FlowPlaneConfig(n=3)
    array = top_array(cfg)
    array.fill(random_events(random.Random(8), 50))
    with pytest.raises(AssociationError):
        extract_associated(array)


def test_flow_plane_emits_accurate_seed():
    contour = build_contour("hexagon", width=50.0, center=(60.0, 90.0))
    stream, _ = generate_scene(
        objects=[(contour, ConstantMotion(58.0, 10.0))],
        duration=0.8, noise_rate=200.0, burst_size=2, seed=3)
    plane = FlowPlane(FlowPlaneConfig(p_stable=400))
    seed = None
    ingested = 0
    for ev in stream.events:
        seed = plane.ingest(ev)
        ingested += 1
        if seed is not None:
            break
    assert seed is not None
    speed = math.hypot(seed.flow.v_u, seed.flow.v_v)
    true_speed = math.hypot(58.0, 10.0)
    assert abs(speed - true_speed) / true_speed < 0.10
    angle = math.degrees(abs(
        math.atan2(seed.flow.v_v, seed.flow.v_u) - math.atan2(10.0, 58.0)))
    assert angle < 10.0
    assert seed.events
    # the emitting plane restarts on the leftovers (nothing was flushed)
    assert len(plane.array.held) == ingested - len(seed.events)


def test_flow_plane_noise_flush_retracts():
    rng = random.Random(44)
    plane = FlowPlane(FlowPlaneConfig(n=4, noise_lifespan_s=0.1))
    events = random_events(rng, 200, t_span_us=400_000)
    for ev in events:
        plane.ingest(ev)
    removed = plane.flush_noise(events[-1].t)
    cutoff = events[-1].t - 100_000
    assert removed == sum(1 for e in events if e.t < cutoff)
    assert all(e.t >= cutoff for e in plane.array.held)


def test_flow_plane_noise_flush_waits_for_next_drain():
    rng = random.Random(45)
    plane = FlowPlane(FlowPlaneConfig(n=4, p_stable=200, noise_lifespan_s=0.1))
    events = random_events(rng, 300, t_span_us=400_000)
    for ev in events:
        plane.ingest(ev)
    array = plane._array
    stores = list(zip(array.row_keys, array.row_values))
    held = list(array.held)
    cutoff = events[-1].t - 100_000
    stale = sum(1 for e in events if e.t < cutoff)
    # the stale events reach past the held ones into the pending ones
    assert len(held) < stale < len(events)
    with mock.patch.object(flow_plane, "grid_pairs",
                           side_effect=AssertionError("kernel called")), \
            mock.patch.object(MetricArray, "apply_batch",
                              side_effect=AssertionError("store written")):
        assert plane.flush_noise(events[-1].t) == stale
    # every row store still holds the very arrays it held: not rewritten
    assert len(array.row_keys) == len(array.row_values) == len(stores)
    for j, (keys, values) in enumerate(stores):
        assert array.row_keys[j] is keys and array.row_values[j] is values
    assert array.held == held
    # the next read of the array drains the pending events and the flush
    assert plane.array.held == events[stale:]
    for k, flow in enumerate(array_flows(array.col_vu, array.row_vv)):
        assert array.metrics[k] == metric_bruteforce(events[stale:], flow,
                                                     array.t_ref_us)


def drained_run(plane, events):
    """Ingest `events`, drain them with a read of the array, and return
    the stable run and the argmax."""
    for ev in events:
        assert plane.ingest(ev) is None
    argmax = plane.array.argmax_index
    return plane.stability_count, argmax


# at n = 3 the array's speeds are -173, 0 and 173 px/s, so events 10 ms
# apart on one pixel raise the still grid 4 above the others, and a
# burst at one pixel and time ties every grid, which goes to grid 0
def still(t0_us, count):
    return [Event(5, 5, t0_us + 10_000 * i, 1) for i in range(count)]


def burst(t_us, count):
    return [Event(5, 5, t_us, 1)] * count


def test_first_event_of_a_drain_is_compared_with_the_argmax_before():
    plane = FlowPlane(FlowPlaneConfig(n=3, p_stable=100))
    assert drained_run(plane, still(0, 1)) == (1, 0)
    # grid 4 from the drain's first event on: a new run of 3, not 1 + 3
    assert drained_run(plane, still(10_000, 3)) == (3, 4)
    # grid 4 still: the run goes on
    assert drained_run(plane, still(40_000, 2)) == (5, 4)


def test_flush_that_keeps_the_argmax_keeps_the_run():
    plane = FlowPlane(FlowPlaneConfig(n=3, p_stable=100,
                                      noise_lifespan_s=0.1))
    assert drained_run(plane, still(0, 3)) == (2, 4)
    later = still(300_000, 3)
    for ev in later:
        plane.ingest(ev)
    # retracts the 3 held events behind the pending ones; grid 4 holds
    assert plane.flush_noise(later[-1].t) == 3
    assert drained_run(plane, []) == (5, 4)


def test_flush_that_empties_the_array_restarts_the_run():
    plane = FlowPlane(FlowPlaneConfig(n=3, p_stable=100,
                                      noise_lifespan_s=0.1))
    assert drained_run(plane, burst(0, 3)) == (3, 0)
    assert plane.flush_noise(1_000_000) == 3
    # grid 0 before and after, but the empty array between restarts it
    assert drained_run(plane, burst(1_000_000, 2)) == (2, 0)


def noise(rng, t0_us, count, span_us):
    times = sorted(rng.randrange(span_us) for _ in range(count))
    return [Event(rng.randrange(240), rng.randrange(180), t0_us + t,
                  rng.choice((-1, 1))) for t in times]


def wrong_grids(array):
    return sum(metric != metric_bruteforce(array.held, flow, array.t_ref_us)
               for metric, flow in zip(array.metrics,
                                       array_flows(array.col_vu,
                                                   array.row_vv)))


def test_drain_rebuilds_the_array_before_its_keys_overflow():
    # a grid key holds a projected column below 2**21 px: the fastest
    # candidate, 1,271 px/s, passes that 1,650 s after t_ref.  Without
    # the rebuild, 59 of the 400 grids went wrong at 1,800 s
    rng = random.Random(46)
    plane = FlowPlane(FlowPlaneConfig(p_stable=10**6))
    for t0_s in (0, 1800, 3600):
        block = noise(rng, t0_s * 10**6, 2000, 100_000)
        for ev in block:
            plane.ingest(ev)
        plane.flush_noise(block[-1].t)
        assert plane.array.held == block
        assert wrong_grids(plane.array) == 0
        assert plane.array.t_ref_us == block[0].t


def test_sparse_long_stream_keeps_its_metrics_exact():
    # ten events a second for 1,900 s, flushed as the engine flushes:
    # 41 of the 400 grids went wrong without the rebuild
    rng = random.Random(47)
    plane = FlowPlane(FlowPlaneConfig(p_stable=10**6, noise_lifespan_s=20))
    events = noise(rng, 0, 19_000, 1_900 * 10**6)
    for i, ev in enumerate(events, 1):
        plane.ingest(ev)
        if i % 1000 == 0:
            plane.flush_noise(ev.t)
    cutoff = events[-1].t - 20 * 10**6
    assert plane.array.held == [e for e in events if e.t >= cutoff]
    assert wrong_grids(plane.array) == 0


def test_config_validation():
    with pytest.raises(ValueError):
        FlowPlaneConfig(n=1)
    FlowPlaneConfig(n=1024)
    with pytest.raises(ValueError, match="n must be at most 1024"):
        FlowPlaneConfig(n=1025)         # grid keys past int64
    with pytest.raises(ValueError):
        FlowPlaneConfig(v_ref=0.0)
    # a NaN or infinite v_ref ran over NaN candidate speeds; such a
    # noise_lifespan_s failed at the first maintenance, naming no field
    for field in ("v_ref", "noise_lifespan_s"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError,
                               match=f"^{field} must be positive and finite$"):
                FlowPlaneConfig(**{field: value})
