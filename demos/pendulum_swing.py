#!/usr/bin/env python3
"""Pendulum swing: a succession of planes rides a time-varying velocity.

A disc swings like a pendulum bob, decelerating into the turn near the
end of the stream.  A constant-flow fit would smear this.  A tracking
plane keeps its flow, so as the velocity changes its hits thin out, it
is pruned, and discovery seeds a new plane at the current flow: the
planes follow the swing one after another (23 created, 4 merged and 18
pruned on this scene).
The table bins labeled events into 25 ms windows and prints the median
tracked speed next to the true profile.
"""

import math
import statistics

from flowseg import (EngineConfig, FlowPlaneConfig, PendulumMotion,
                     TrackPlaneConfig, UNLABELED, build_contour,
                     generate_scene, run_stream)

BIN_US = 25_000

motion = PendulumMotion()
contour = build_contour("circle", radius=10, center=(120.0, 90.0))
events, gt = generate_scene([(contour, motion)], duration=1.71,
                            noise_rate=500.0, burst_size=3, seed=47)
print(f"peak flow {motion.peak_flow:.0f} px/s, period {motion.period_s:.2f}s, "
      f"{len(events)} events")

# promotion grows a footprint at the plane's flow, which an accelerating
# target soon leaves, so disable it outright
cfg = EngineConfig(
    flow_plane=FlowPlaneConfig(p_stable=300, noise_lifespan_s=0.1),
    track_plane=TrackPlaneConfig(evolve_threshold=10 ** 9))
labeled, _ = run_stream(events.events, cfg)

bins = {}
for rec in labeled:
    if rec.segment == UNLABELED:
        continue
    bins.setdefault(rec.t // BIN_US, []).append(math.hypot(rec.v_u, rec.v_v))

print(" t(ms)  tracked    true")
for k in sorted(bins):
    if len(bins[k]) < 5:
        continue
    mid_s = (k + 0.5) * BIN_US / 1e6
    est = statistics.median(bins[k])
    vu, vv = motion.velocity_at(0.0, 0.0, mid_s)
    true = math.hypot(vu, vv)
    print(f"{int(mid_s * 1e3):6d}  {est:7.1f} {true:7.1f}  {'#' * int(est / 5)}")
