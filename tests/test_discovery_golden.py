"""Discovery goldens: what discovery emits, and when, on three fixed scenes.

A label digest alone is blind to discovery on a noise-only scene, where
every event stays unlabeled whatever planes come and go.  So besides the
labels' sha256, each case pins the engine counters and every emission:
the index of the event that triggered it, the seed flow's repr, and the
number of seed events.  The scenes are the first events of the
benchmark's hexagon (seed 11, test_10's scene), opposite bars (seed 29)
and noise (seed 5) scenes.  The noise values were recorded with the
per-candidate dict implementation of MetricArray, before discovery was
batched; the bars values when every grid of a tracking plane came to
project from one reference time; the hexagon values when a default
tracking plane came to keep its center grid alone, with no velocity
walk.  Any change to them is a change of behaviour.
"""

import hashlib
import io

import pytest

from flowseg.engine import Engine, EngineConfig, write_labeled
from flowseg.synth import ConstantMotion, build_contour, generate_scene
from flowseg.track_plane import TrackPlaneConfig

from conftest import hexagon_scene


def hexagon_events():
    events, _, cfg = hexagon_scene(11)
    return events, cfg


def bars_scene():
    bar_a = build_contour("bar", length=40.0, thickness=3.0,
                          center=(40.0, 75.0))
    bar_b = build_contour("bar", length=32.0, thickness=3.0,
                          center=(200.0, 131.0))
    stream, _ = generate_scene([(bar_a, ConstantMotion(58.0, 0.0)),
                                (bar_b, ConstantMotion(-58.0, 0.0))],
                               duration=1.8, noise_rate=800.0, burst_size=2,
                               seed=29)
    return stream.events, EngineConfig(
        track_plane=TrackPlaneConfig(evolve_threshold=5))


def noise_scene():
    stream, _ = generate_scene([], duration=3.0, noise_rate=5000.0, seed=5)
    return stream.events, EngineConfig()


GOLDENS = {
    "hexagon": (hexagon_events, 24000, {
        "sha256": "ea9fa17fbb37bc79d0980d16f9da53fd"
                  "18edb8eb104a0341212675d124c02b9c",
        "stats": dict(events_in=24000, hits=15516, unlabeled=8484,
                      planes_created=5, merges=3, prunes=0,
                      noise_flushed=234, maintenance_runs=25),
        "emissions": [
            (3139, "FlowVector(v_u=56.5261327274048, v_v=-5.510551909305901)",
             3005),
            (5622, "FlowVector(v_u=52.655743079109364, "
                   "v_v=-8.268839876999309)", 345),
            (7694, "FlowVector(v_u=61.91574544922686, "
                   "v_v=5.18693659110013)", 1316),
            (11558, "FlowVector(v_u=60.68744834623664, "
                    "v_v=-6.803557640867373)", 490),
            (19990, "FlowVector(v_u=54.840606856617455, "
                    "v_v=7.570520569419016)", 1757),
        ],
    }),
    "bars": (bars_scene, 10000, {
        "sha256": "59c0ef5e6e0a9291ab10ae0366de073e"
                  "4f840cdf3c75d44f305adf043f29fedb",
        "stats": dict(events_in=10000, hits=602, unlabeled=9398,
                      planes_created=2, merges=0, prunes=0,
                      noise_flushed=42, maintenance_runs=11),
        "emissions": [
            (8327, "FlowVector(v_u=56.95910263985001, "
                   "v_v=-1.0989514590908105)", 4380),
            (8926, "FlowVector(v_u=-58.984696599401836, "
                   "v_v=-0.9911968454947508)", 3844),
        ],
    }),
    "noise": (noise_scene, 6000, {
        "sha256": "72e222e05ed926d3576ba3c438f15bd7"
                  "e3a1b9d1f8ea96865c862f1d9e780862",
        "stats": dict(events_in=6000, hits=0, unlabeled=6000,
                      planes_created=3, merges=0, prunes=3,
                      noise_flushed=3330, maintenance_runs=7),
        "emissions": [
            (1571, "FlowVector(v_u=-164.96286318423014, "
                   "v_v=41.60451980236712)", 49),
            (4673, "FlowVector(v_u=-162.3555765444267, "
                   "v_v=-241.28128722685258)", 119),
            (5593, "FlowVector(v_u=241.19509812165273, "
                   "v_v=-241.32438180146147)", 97),
        ],
    }),
}


def run_recorded(events, cfg):
    """Full engine pass that also records every emission."""
    engine = Engine(cfg)
    emissions = []
    try_emit = engine.flow_plane.try_emit

    def recording_try_emit():
        seed = try_emit()
        if seed is not None:
            emissions.append((engine.stats.events_in - 1, repr(seed.flow),
                              len(seed.events)))
        return seed

    engine.flow_plane.try_emit = recording_try_emit
    labeled = engine.run(events)
    text = io.StringIO()
    write_labeled(labeled, text)
    return (hashlib.sha256(text.getvalue().encode()).hexdigest(),
            engine.stats, emissions)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_discovery_matches_golden(name):
    scene, cut, golden = GOLDENS[name]
    events, cfg = scene()
    digest, stats, emissions = run_recorded(list(events)[:cut], cfg)
    assert emissions == golden["emissions"]
    assert vars(stats) == golden["stats"]
    assert digest == golden["sha256"]
