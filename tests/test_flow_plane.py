import math
import random
from unittest import mock

import pytest

from flowseg import flow_plane
from flowseg.events import Event
from flowseg.flow_plane import (AssociationError, FlowPlane, FlowPlaneConfig,
                                MetricArray, cell_value_stats,
                                extract_associated, flood_fill_cells,
                                index_to_flow)
from flowseg.synth import ConstantMotion, build_contour, generate_scene

from oracles import bruteforce_image, metric_bruteforce, pack_cell
from test_projection import random_events


def test_index_to_flow_tan_mapping():
    cfg = FlowPlaneConfig(n=3, v_ref=100.0)
    # cell angles for n=3 over (-pi/2, pi/2): -pi/3, 0, pi/3
    f = index_to_flow(2, 1, (0.0, 0.0), math.pi, cfg)
    assert f.v_u == pytest.approx(100.0 * math.sqrt(3.0), rel=1e-12)
    assert f.v_v == pytest.approx(0.0, abs=1e-12)
    center = index_to_flow(1, 1, (0.0, 0.0), math.pi, cfg)
    assert center.v_u == pytest.approx(0.0, abs=1e-12)


def test_index_to_flow_symmetry_and_offset():
    cfg = FlowPlaneConfig(n=5, v_ref=80.0)
    for i in range(5):
        f_pos = index_to_flow(i, 2, (0.0, 0.0), math.pi, cfg)
        f_neg = index_to_flow(4 - i, 2, (0.0, 0.0), math.pi, cfg)
        assert f_pos.v_u == pytest.approx(-f_neg.v_u, abs=1e-9)
    shifted = index_to_flow(2, 2, (17.0, -4.0), math.pi, cfg)
    assert (shifted.v_u, shifted.v_v) == pytest.approx((17.0, -4.0))


def test_metric_array_matches_bruteforce():
    rng = random.Random(31)
    events = random_events(rng, 500)
    cfg = FlowPlaneConfig(n=4, p_stable=10)
    array = MetricArray(cfg)
    for e in events:
        array.apply_batch([e])
    for k, flow in enumerate(array.flows):
        assert array.metrics[k] == metric_bruteforce(events, flow,
                                                     array.t_ref_us)
    assert array.argmax_index == array.metrics.index(max(array.metrics))


def test_metric_array_fill_equals_ingest():
    rng = random.Random(32)
    events = random_events(rng, 400)
    cfg = FlowPlaneConfig(n=4)
    one = MetricArray(cfg)
    for e in events:
        one.apply_batch([e])
    two = MetricArray(cfg)
    two.fill(events)
    assert one.metrics == two.metrics
    assert one.argmax_index == two.argmax_index

    scan = MetricArray(cfg)
    scan.fill_scan(events)
    assert scan.metrics == one.metrics
    for k in range(cfg.n * cfg.n):
        grids = []
        for array in (one, two):
            cells, values = array.grid(k)
            grids.append(dict(zip(cells[values != 0].tolist(),
                                  values[values != 0].tolist())))
        assert grids[0] == grids[1]
        # the store holds exactly the cells of the brute-force image
        expected = bruteforce_image(events, one.flows[k], one.t_ref_us)
        assert grids[0] == {key: c for key, c in expected.items() if c}


def test_flush_retracts_exactly():
    rng = random.Random(33)
    events = random_events(rng, 600)
    cfg = FlowPlaneConfig(n=3)
    array = MetricArray(cfg)
    array.fill(events)
    stale = len(events) // 2
    survivors = events[stale:]
    # a flush before any event of the batch: the `stale` oldest leave
    best, after = array.apply_batch((), [(0, stale)])
    assert len(best) == 0
    assert array.held == survivors
    metrics = [metric_bruteforce(survivors, flow, array.t_ref_us)
               for flow in array.flows]
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
    cfg = FlowPlaneConfig(n=5, w=2.0)
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
    array = MetricArray(cfg)
    array.fill(events)
    assoc = extract_associated(array)
    assert abs(assoc.flow.v_u) < 1e-9 and abs(assoc.flow.v_v) < 1e-9
    kept_vs = {e.v for e in assoc.events}
    assert kept_vs == {50}
    assert len(assoc.events) == 40


def test_extract_associated_raises_without_seeds():
    cfg = FlowPlaneConfig(n=3, w=50.0)    # unreachable threshold
    array = MetricArray(cfg)
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
    for ev in stream.events:
        plane.ingest(ev)
        if plane.stability_check():
            seed = plane.try_emit()
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
    # the emitting plane restarts on the leftovers
    assert plane.emissions == 1
    assert len(plane.array.held) < plane.total_ingested


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
    keys, values, held = array.cell_keys, array.cell_values, list(array.held)
    cutoff = events[-1].t - 100_000
    stale = sum(1 for e in events if e.t < cutoff)
    # the stale events reach past the held ones into the pending ones
    assert len(held) < stale < len(events)
    with mock.patch.object(flow_plane, "grid_pairs",
                           side_effect=AssertionError("kernel called")), \
            mock.patch.object(MetricArray, "apply_batch",
                              side_effect=AssertionError("store written")):
        assert plane.flush_noise(events[-1].t) == stale
    assert array.cell_keys is keys and array.cell_values is values
    assert array.held == held
    # the next read of the array drains the pending events and the flush
    assert plane.array.held == events[stale:]
    for k, flow in enumerate(array.flows):
        assert array.metrics[k] == metric_bruteforce(events[stale:], flow,
                                                     array.t_ref_us)


def test_config_validation():
    with pytest.raises(ValueError):
        FlowPlaneConfig(n=1)
    with pytest.raises(ValueError):
        FlowPlaneConfig(v_ref=0.0)
    with pytest.raises(ValueError):
        FlowPlaneConfig(q=1.0)
    with pytest.raises(ValueError):
        FlowPlaneConfig(angular_range=4.0)
