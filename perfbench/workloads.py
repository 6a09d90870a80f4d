"""The benchmark's named scenes and the engine configuration for each.

A workload is a synthetic scene (built from a seed by
`flowseg.synth.generate_scene`), the number of such scenes one run
labels, and the `EngineConfig` the engine runs them with.  The seed only
moves the background noise; the structures and their motion are fixed.
A run with seed s labels the scenes of `scene_seeds(s, count)`, the
first of which is built from s itself, so that the median of a run does
not hang on the noise of one scene.  See README.md in this directory for
why each workload is here.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from flowseg.engine import EngineConfig
from flowseg.synth import ConstantMotion, build_contour, generate_scene
from flowseg.track_plane import TrackPlaneConfig


class Workload(NamedTuple):
    default_seed: int
    scenes: int            # scenes labeled per untraced run
    scene: Callable        # seed -> (EventStream, GroundTruth)
    config: Callable       # () -> EngineConfig


def scene_seeds(seed: int, count: int) -> list[int]:
    return [seed + 100_003 * i for i in range(count)]


def _hexagon_scene(seed: int, duration: float = 2.6):
    # the fast hexagon of tests/conftest.py (hexagon_run) and test_10,
    # tilted 3 degrees off the axis as there
    tilt = math.radians(3.0)
    contour = build_contour("hexagon", width=65.0, center=(45.0, 90.0))
    motion = ConstantMotion(58.0 * math.cos(tilt), 58.0 * math.sin(tilt))
    return generate_scene([(contour, motion)], duration=duration,
                          noise_rate=1500.0, burst_size=5, seed=seed)


def _hexagon_config() -> EngineConfig:
    return EngineConfig(track_plane=TrackPlaneConfig(evolve_threshold=12))


def _bars_scene(seed: int):
    # the opposite bars of test_05
    bar_a = build_contour("bar", length=40.0, thickness=3.0,
                          center=(40.0, 75.0))
    bar_b = build_contour("bar", length=32.0, thickness=3.0,
                          center=(200.0, 131.0))
    return generate_scene([(bar_a, ConstantMotion(58.0, 0.0)),
                           (bar_b, ConstantMotion(-58.0, 0.0))],
                          duration=1.8, noise_rate=800.0, burst_size=2,
                          seed=seed)


def _bars_config() -> EngineConfig:
    return EngineConfig(
        track_plane=TrackPlaneConfig(evolve_threshold=5, h_max_deg=0.1))


def _noise_scene(seed: int):
    # background activity of a static sensor: no structure at all
    return generate_scene([], duration=3.0, noise_rate=5000.0, seed=seed)


# scene counts: 10-20 s of labeling per run on a 2-core x86 box
WORKLOADS = {
    "hexagon": Workload(11, 1, _hexagon_scene, _hexagon_config),
    "bars": Workload(29, 2, _bars_scene, _bars_config),
    "noise": Workload(5, 2, _noise_scene, EngineConfig),
    # not in BENCHMARK.json: a 0.4 s cut of the hexagon for the self-test
    "tiny": Workload(3, 2, lambda seed: _hexagon_scene(seed, duration=0.4),
                     _hexagon_config),
}
