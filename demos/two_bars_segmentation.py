#!/usr/bin/env python3
"""Two thin bars crossing in opposite directions.

Velocity is the segmentation signal here: the bars look identical, so
nothing but motion separates them.  Each should end the stream on its
own plane with its own flow sign, with essentially no events labeled
across structures."""

from flowseg import (ConstantMotion, EngineConfig, TrackPlaneConfig,
                     build_contour, cross_label_fraction, flow_errors,
                     generate_scene, majority_structure_map, run_stream)


def main():
    objects = [
        (build_contour("bar", length=40, thickness=3, center=(40.0, 75.0)),
         ConstantMotion(58.0, 0.0)),
        (build_contour("bar", length=32, thickness=3, center=(200.0, 131.0)),
         ConstantMotion(-58.0, 0.0)),
    ]
    events, gt = generate_scene(objects, duration=1.8, noise_rate=800.0,
                                burst_size=2, seed=29)

    # A straight bar carries no texture along its length, so its
    # along-edge flow component is unobservable.  A plane keeps its
    # seed's flow until a merge, so it does not wander along the edge.
    # Promote misses quickly.
    cfg = EngineConfig(track_plane=TrackPlaneConfig(evolve_threshold=5))
    labeled, engine = run_stream(events.events, cfg)

    print(f"{len(events)} events, {len(engine.planes)} planes at end of stream")
    for plane in sorted(engine.planes, key=lambda p: p.plane_id):
        f = plane.center_flow
        print(f"  plane {plane.plane_id}: ({f.v_u:+.1f}, {f.v_v:+.1f}) px/s")

    errors, _ = flow_errors(labeled, gt.records)
    settled = [e for e in errors if e.t_us >= 0.9e6]
    print("segment -> structure:", majority_structure_map(settled))
    print(f"cross-labeled fraction: {cross_label_fraction(settled):.4f}")


if __name__ == "__main__":
    main()
