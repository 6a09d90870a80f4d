"""End-to-end acceptance suite.

Each test prints one summary line with the measured numbers next to the
bound it enforces.  Scene parameters are frozen; every expected value
was produced by an independent oracle (closed-form arithmetic, a
brute-force reimplementation, or the scene's own ground truth), never
copied from the code under test.
"""

import math
import random
import statistics
import time

import numpy as np
import pytest

from flowseg.engine import Engine, EngineConfig, UNLABELED, write_labeled
from flowseg.evaluation import cross_label_fraction, flow_errors
from flowseg.events import Event
from flowseg.flow_plane import _ANGULAR_RANGE, FlowPlaneConfig, axis_speeds
from flowseg.projection import (AccumulatorGrid, FlowVector, event_columns,
                                project_keys)
from flowseg.synth import (ConstantMotion, PendulumMotion, RotationMotion,
                           build_contour, generate_scene)
from flowseg.track_plane import (_LIFETIME_PX, TrackPlaneConfig,
                                 event_lifetime_s)

from conftest import HEXAGON_SETTLED_US, angled, hexagon_scene
from oracles import metric_bruteforce, sum_squares, top_array


def median_errors(errors, t_cut_us):
    late = [e for e in errors if e.t_us > t_cut_us]
    mag = statistics.median(abs(e.mag_pct) for e in late)
    mag_signed = statistics.median(e.mag_pct for e in late)
    angle = statistics.median(e.angle_deg for e in late)
    return mag, mag_signed, angle


def test_01_incremental_metric_equals_bruteforce():
    rng = random.Random(97)
    events = []
    t = 0
    for _ in range(10_000):
        t += rng.randrange(0, 100)
        events.append(Event(rng.randrange(240), rng.randrange(180), t,
                            rng.choice((1, -1))))
    flows = [FlowVector(rng.uniform(-300.0, 300.0),
                        rng.uniform(-300.0, 300.0)) for _ in range(50)]
    checkpoints = {2500, 5000, 7500, len(events)}
    start = time.perf_counter()
    us, vs, ts, _ = event_columns(events)
    polarities = np.array([e.s for e in events], dtype=np.int64)
    t_ref = events[0].t
    for flow in flows:
        grid = AccumulatorGrid()
        # each event's cell, projected once; one event per batch call
        keys = project_keys(us, vs, (ts - t_ref) * 1e-6, flow.v_u, flow.v_v)
        live = []                   # indices of the events still in
        for i in range(len(events)):
            grid.accumulate_batch(keys[i:i + 1], polarities[i:i + 1])
            live.append(i)
            if (i + 1) % 7 == 0:
                j = live.pop(rng.randrange(len(live)))
                grid.retract_batch(keys[j:j + 1], polarities[j:j + 1])
            if i + 1 in checkpoints:
                assert sum_squares(grid.cells) == metric_bruteforce(
                    [events[j] for j in live], flow, t_ref)
    elapsed = time.perf_counter() - start
    print(f"incremental==bruteforce for 50 flows x 10k events "
          f"with retractions, {elapsed:.2f} s (bound 10 s)")
    assert elapsed < 10.0


def test_02_metric_argmax_lands_on_true_flow():
    contour = build_contour("hexagon", width=65.0, center=(45.0, 90.0))
    stream, _ = generate_scene(
        objects=[(contour, ConstantMotion(58.0, 0.0))], duration=2.0, seed=1)
    events = list(stream.events)[:20_000]
    cfg = FlowPlaneConfig()
    array = top_array(cfg)
    array.fill(events)
    # the cells whose flow is closest to the truth (symmetric ties allowed)
    speeds = axis_speeds(0.0, _ANGULAR_RANGE, cfg)
    best = None
    nearest = []
    for j in range(cfg.n):
        for i in range(cfg.n):
            d = math.hypot(speeds[i] - 58.0, speeds[j] - 0.0)
            if best is None or d < best - 1e-9:
                best, nearest = d, [(i, j)]
            elif d < best + 1e-9:
                nearest.append((i, j))
    got = array.argmax_index % cfg.n, array.argmax_index // cfg.n
    print(f"argmax cell {got} after {len(events)} events; "
          f"nearest-to-truth cells {nearest}")
    assert got in nearest


def test_03_flow_accuracy_and_lk_comparison(hexagon_run, rectangle_runs):
    errors, coverage = flow_errors(hexagon_run["labeled"],
                                   hexagon_run["gt"].records)
    mag, _, angle = median_errors(errors, hexagon_run["settled_after_us"])
    print(f"hexagon settled medians: |magnitude| {mag:.2f}% (bound 10%), "
          f"angle {angle:.2f} deg (bound 10 deg), coverage {coverage:.2f}")
    assert mag < 10.0
    assert angle < 10.0

    cut = rectangle_runs["settled_after_us"]
    engine_err, _ = flow_errors(rectangle_runs["labeled"],
                                rectangle_runs["gt"].records)
    lk_err, _ = flow_errors(rectangle_runs["baseline"],
                            rectangle_runs["gt"].records)
    _, engine_signed, engine_angle = median_errors(engine_err, cut)
    _, lk_signed, lk_angle = median_errors(lk_err, cut)
    print(f"rectangle signed magnitude: engine {engine_signed:.2f}% "
          f"(bound +-10%), plane-fit baseline {lk_signed:.2f}% "
          f"(expected -20..-50%); angle {engine_angle:.2f} vs "
          f"{lk_angle:.2f} deg")
    assert -10.0 < engine_signed < 10.0
    assert -50.0 <= lk_signed <= -20.0
    assert engine_angle < lk_angle


@pytest.mark.parametrize("seed", range(1, 11))
def test_03_hexagon_bounds_hold_on_every_seed(seed):
    # test_03's hexagon bounds, over ten noise draws of the same scene
    events, gt, cfg = hexagon_scene(seed)
    errors, _ = flow_errors(Engine(cfg).run(events), gt.records)
    mag, _, angle = median_errors(errors, HEXAGON_SETTLED_US)
    print(f"hexagon seed {seed} settled medians: |magnitude| {mag:.2f}% "
          f"(bound 10%), angle {angle:.2f} deg (bound 10 deg)")
    assert mag < 10.0
    assert angle < 10.0


def test_04_magnitude_bound_across_speed_range(hexagon_run):
    results = {}

    contour = build_contour("hexagon", width=65.0, center=(100.0, 88.0))
    stream, gt = generate_scene(
        objects=[(contour, ConstantMotion(*angled(5.8)))],
        duration=10.0, noise_rate=500.0, burst_size=5, seed=17)
    engine = Engine(EngineConfig(
        flow_plane=FlowPlaneConfig(p_stable=5000, v_ref=10.0,
                                   noise_lifespan_s=2.0),
        track_plane=TrackPlaneConfig(evolve_threshold=12)))
    errors, _ = flow_errors(engine.run(stream.events), gt.records)
    results[5.8], _, _ = median_errors(errors, 6.0e6)

    errors, _ = flow_errors(hexagon_run["labeled"], hexagon_run["gt"].records)
    results[58.0], _, _ = median_errors(errors,
                                        hexagon_run["settled_after_us"])

    contour = build_contour("hexagon", width=60.0, center=(30.5, 90.0))
    stream, gt = generate_scene(
        objects=[(contour, ConstantMotion(*angled(289.0)))],
        duration=0.62, noise_rate=1500.0, burst_size=2, seed=19)
    engine = Engine(EngineConfig(
        flow_plane=FlowPlaneConfig(n=40, p_stable=2000,
                                   noise_lifespan_s=0.1),
        track_plane=TrackPlaneConfig(evolve_threshold=5)))
    errors, _ = flow_errors(engine.run(stream.events), gt.records)
    results[289.0], _, _ = median_errors(errors, 0.341e6)

    line = ", ".join(f"{speed} px/s: {m:.2f}%"
                     for speed, m in sorted(results.items()))
    print(f"median |magnitude error| (bound 10%) at {line}")
    for speed, mag in results.items():
        assert mag < 10.0, f"magnitude bound failed at {speed} px/s"


def test_05_opposite_bars_segment_cleanly():
    bar_a = build_contour("bar", length=40.0, thickness=3.0,
                          center=(40.0, 75.0))
    bar_b = build_contour("bar", length=32.0, thickness=3.0,
                          center=(200.0, 131.0))
    stream, gt = generate_scene(
        objects=[(bar_a, ConstantMotion(58.0, 0.0)),
                 (bar_b, ConstantMotion(-58.0, 0.0))],
        duration=1.8, noise_rate=800.0, burst_size=2, seed=29)
    engine = Engine(EngineConfig(
        track_plane=TrackPlaneConfig(evolve_threshold=5)))
    labeled = engine.run(stream.events)
    errors, _ = flow_errors(labeled, gt.records)
    cross = cross_label_fraction(errors)

    assert len(engine.planes) == 2
    flows = [p.center_flow for p in engine.planes]
    targets = {}
    for f in flows:
        target = 58.0 if f.v_u > 0 else -58.0
        miss = math.hypot(f.v_u - target, f.v_v) / 58.0
        targets[target] = miss
    print(f"two planes at {[(round(f.v_u, 1), round(f.v_v, 1)) for f in flows]}, "
          f"misses {targets}, cross-label {100 * cross:.2f}% (bound 5%)")
    assert set(targets) == {58.0, -58.0}, "both directions must be covered"
    for target, miss in targets.items():
        assert miss < 0.10, f"flow for {target} px/s off by {miss:.1%}"
    assert cross < 0.05


def test_06_entering_object_planes_merge_quickly():
    vu, vv = angled(58.0)
    contour = build_contour("hexagon", width=70.0, center=(-15.0, 90.0))
    with pytest.warns(UserWarning):        # starts outside the frame
        stream, _ = generate_scene(
            objects=[(contour, ConstantMotion(vu, vv))],
            duration=2.2, noise_rate=800.0, burst_size=2, seed=37)
    # first instant the trailing edge is fully inside
    t_full_us = (35.0 + 15.0) / vu * 1e6
    engine = Engine(EngineConfig(
        flow_plane=FlowPlaneConfig(p_stable=350),
        track_plane=TrackPlaneConfig(evolve_threshold=12)))
    created_at_full = None
    sweeps_after_full = 0
    converged_on_sweep = None
    seen_sweeps = 0
    for ev in stream.events:
        engine.process(ev)
        if engine.stats.maintenance_runs != seen_sweeps:
            seen_sweeps = engine.stats.maintenance_runs
            if ev.t >= t_full_us:
                if created_at_full is None:
                    created_at_full = engine.stats.planes_created
                sweeps_after_full += 1
                if converged_on_sweep is None and len(engine.planes) == 1:
                    converged_on_sweep = sweeps_after_full
    engine.finish()
    print(f"{created_at_full} planes created by full visibility; "
          f"single plane on sweep {converged_on_sweep} (bound 3); "
          f"{len(engine.planes)} live at end")
    assert created_at_full >= 2, "scene must actually split the object"
    assert converged_on_sweep is not None and converged_on_sweep <= 3
    assert len(engine.planes) == 1


def test_07_pendulum_flow_tracks_ground_truth():
    motion = PendulumMotion()
    contour = build_contour("circle", radius=10.0, center=(120.0, 90.0))
    stream, gt = generate_scene(
        objects=[(contour, motion)],
        duration=1.71, noise_rate=500.0, burst_size=3, seed=47)
    engine = Engine(EngineConfig(
        flow_plane=FlowPlaneConfig(p_stable=300, noise_lifespan_s=0.1),
        track_plane=TrackPlaneConfig(evolve_threshold=10 ** 9)))
    labeled = engine.run(stream.events)

    bin_us = 25_000
    est_bins, gt_bins = {}, {}
    for rec, (t_us, structure, gu, gv) in zip(labeled, gt.records):
        if structure < 0 or rec.segment == UNLABELED:
            continue
        b = t_us // bin_us
        est_bins.setdefault(b, []).append(math.hypot(rec.v_u, rec.v_v))
        gt_bins.setdefault(b, []).append(math.hypot(gu, gv))
    covered = sorted(b for b, vals in est_bins.items() if len(vals) >= 5)
    est = [statistics.median(est_bins[b]) for b in covered]
    truth = [statistics.median(gt_bins[b]) for b in covered]
    n = len(covered)
    assert n >= 20, "most of the period should have labeled output"
    me, mt = sum(est) / n, sum(truth) / n
    cov = sum((e - me) * (g - mt) for e, g in zip(est, truth))
    r = cov / math.sqrt(sum((e - me) ** 2 for e in est)
                        * sum((g - mt) ** 2 for g in truth))
    peak = max(est)
    peak_err = (peak - motion.peak_flow) / motion.peak_flow
    print(f"pendulum correlation r={r:.3f} (bound 0.8) over {n} bins; "
          f"peak {peak:.1f} vs {motion.peak_flow:.1f} px/s "
          f"({100 * peak_err:+.1f}%, bound +-25%)")
    assert r > 0.8
    assert abs(peak_err) < 0.25


def test_08_event_lifetime_arithmetic():
    lifetime = event_lifetime_s((58.0, 0.0))
    print(f"lifetime at 58 px/s: {lifetime!r} s == 3/58 s")
    assert _LIFETIME_PX == 3.0
    assert lifetime == pytest.approx(3.0 / 58.0, rel=1e-12)


def test_09_runs_are_byte_identical(tmp_path, hexagon_run):
    again = Engine(hexagon_run["cfg"]).run(hexagon_run["events"])
    path_a = str(tmp_path / "a.txt")
    path_b = str(tmp_path / "b.txt")
    write_labeled(hexagon_run["labeled"], path_a)
    write_labeled(again, path_b)
    bytes_a = open(path_a, "rb").read()
    bytes_b = open(path_b, "rb").read()
    print(f"two runs, {len(bytes_a)} bytes each, identical: "
          f"{bytes_a == bytes_b}")
    assert bytes_a == bytes_b


def test_10_throughput(hexagon_run):
    count = len(hexagon_run["events"])
    wall = hexagon_run["wall_s"]
    print(f"{count} events in {wall:.2f} s "
          f"({count / wall:.0f}/s; bound: >=81700 events in <=13.6 s)")
    assert count >= 81_700
    assert wall <= 13.6


def test_11_rotating_bar_completes_and_reports():
    contour = build_contour("bar", length=100.0, thickness=3.0,
                            center=(120.0, 90.0))
    stream, gt = generate_scene(
        objects=[(contour, RotationMotion(omega=2.0, center=(120.0, 90.0)))],
        duration=1.0, noise_rate=500.0, burst_size=2, seed=61)
    engine = Engine(EngineConfig())
    labeled = engine.run(stream.events)        # the bar: completion itself
    assert len(labeled) == len(stream.events)

    errors, coverage = flow_errors(labeled, gt.records)
    near, far = [], []
    it = iter(errors)
    for rec, (t_us, structure, gu, gv) in zip(labeled, gt.records):
        if structure < 0 or rec.segment == UNLABELED or not (
                math.isfinite(rec.v_u) and math.isfinite(rec.v_v)):
            continue
        err = next(it)
        radius = math.hypot(rec.u - 120.0, rec.v - 90.0)
        (near if radius < 15.0 else far).append(err)
    assert near and far
    near_mag = statistics.median(abs(e.mag_pct) for e in near)
    near_angle = statistics.median(e.angle_deg for e in near)
    far_mag = statistics.median(abs(e.mag_pct) for e in far)
    # reported, deliberately unbounded: rotation breaks the
    # constant-velocity model near the pivot
    print(f"rotating bar completed, coverage {coverage:.2f}; near-pivot "
          f"medians |magnitude| {near_mag:.1f}% angle {near_angle:.1f} deg "
          f"(n={len(near)}, unbounded by design); far-field |magnitude| "
          f"{far_mag:.1f}%")
    assert math.isfinite(near_mag) and math.isfinite(near_angle)
