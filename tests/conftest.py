"""Shared scene fixtures and the hypothesis profiles.

The two expensive end-to-end scenes (fast hexagon, rotated rectangle)
are generated and segmented once per session; several tests slice
different assertions out of the same run.

Property tests draw the same examples on every run: the `default`
profile derandomizes hypothesis and keeps no example database.  The
opt-in `explore` profile (`pytest --hypothesis-profile=explore`) draws
fresh random examples, ten times as many.
"""

import math
import time

import pytest
from hypothesis import settings

from flowseg.engine import Engine, EngineConfig
from flowseg.flow_plane import FlowPlaneConfig
from flowseg.lk import run_lk
from flowseg.synth import ConstantMotion, build_contour, generate_scene
from flowseg.track_plane import TrackPlaneConfig

settings.register_profile("default", derandomize=True, database=None,
                          deadline=None)
settings.register_profile("explore", derandomize=False, max_examples=1000,
                          deadline=None)
settings.load_profile("default")

OFF_AXIS = math.radians(3.0)   # slight tilt keeps the argmax off knife edges


def angled(speed, angle=OFF_AXIS):
    return speed * math.cos(angle), speed * math.sin(angle)


# events after this time count toward the hexagon's settled flow
HEXAGON_SETTLED_US = 1.3e6


def hexagon_scene(seed):
    """The fast hexagon (test_10's scene, and perfbench's `hexagon`):
    events, truth and engine config.  The seed moves only the noise."""
    contour = build_contour("hexagon", width=65.0, center=(45.0, 90.0))
    stream, gt = generate_scene(
        objects=[(contour, ConstantMotion(*angled(58.0)))],
        duration=2.6, noise_rate=1500.0, burst_size=5, seed=seed)
    cfg = EngineConfig(track_plane=TrackPlaneConfig(evolve_threshold=12))
    return list(stream.events), gt, cfg


@pytest.fixture(scope="session")
def hexagon_run():
    """Fast hexagon scene: events, truth, one timed engine run."""
    events, gt, cfg = hexagon_scene(11)
    engine = Engine(cfg)
    start = time.perf_counter()
    labeled = engine.run(events)
    wall_s = time.perf_counter() - start
    return {
        "events": events,
        "gt": gt,
        "cfg": cfg,
        "engine": engine,
        "labeled": labeled,
        "wall_s": wall_s,
        "true_flow": angled(58.0),
        "settled_after_us": HEXAGON_SETTLED_US,
    }


@pytest.fixture(scope="session")
def rectangle_runs():
    """Rotated rectangle at (58, 0): engine run and plane-fit baseline."""
    contour = build_contour("rectangle", width=120.0, height=60.0,
                            center=(68.0, 90.0), rotate_deg=40.0)
    stream, gt = generate_scene(
        objects=[(contour, ConstantMotion(58.0, 0.0))],
        duration=1.75, noise_rate=1000.0, burst_size=3, seed=13)
    events = list(stream.events)
    engine = Engine(EngineConfig(
        track_plane=TrackPlaneConfig(evolve_threshold=10)))
    labeled = engine.run(events)
    baseline = run_lk(events, stream.geometry)
    return {
        "events": events,
        "gt": gt,
        "labeled": labeled,
        "baseline": baseline,
        "true_flow": (58.0, 0.0),
        "settled_after_us": 0.875e6,
    }
