"""The measured program: label one event file through the public API.

    python3 perfbench/measure.py EVENTS --workload NAME [--trace]

One process labels one file once (a pass), so that its peak memory is
that of the engine on that one scene, and so that the trace wrappers of
a traced pass never reach an untraced one.  It receives only the event
file; the workload name selects the engine configuration.

The set-up is `load_stream` of the file plus `Engine(cfg)`; it runs REPS
times and the last engine labels the file.  The pass is a closed loop
that offers each event to `Engine.process` after the previous call
returned, then calls `Engine.finish`.  The labels are written with
`write_labeled` in REPS timed pieces during the pass, outside the
loop's timing, and then whole next to the file (EVENTS with the suffix
.labeled) for the checks.  The last stdout line is a JSON
object of raw samples and counts; run.py turns it into metrics."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import flowseg.engine as fs_engine                       # noqa: E402
import flowseg.events as fs_events                       # noqa: E402
import flowseg.flow_plane as fs_flow_plane               # noqa: E402
import flowseg.projection as fs_projection               # noqa: E402
import flowseg.track_plane as fs_track_plane             # noqa: E402

from workloads import WORKLOADS                          # noqa: E402

REPS = 5            # set-ups, and pieces of the timed write, per pass


def _is_seed(result) -> bool:
    return result is not None


# (span name, owner, attribute, what the return value counts)
TRACED = (
    ("engine.process", fs_engine.Engine, "process", None),
    ("engine.maintenance", fs_engine.Engine, "maintenance", None),
    ("flow_plane.ingest", fs_flow_plane.FlowPlane, "ingest", None),
    ("flow_plane.try_emit", fs_flow_plane.FlowPlane, "try_emit", _is_seed),
    ("flow_plane.extract_associated", fs_flow_plane, "extract_associated",
     None),
    ("flow_plane.refine", fs_flow_plane, "refine", None),
    ("flow_plane.MetricArray.fill", fs_flow_plane.MetricArray, "fill", None),
    ("flow_plane.flush_noise", fs_flow_plane.FlowPlane, "flush_noise", int),
    ("track_plane.try_match", fs_track_plane.TrackPlane, "try_match", int),
    ("track_plane.expire", fs_track_plane.TrackPlane, "expire", int),
    ("track_plane.recenter", fs_track_plane.TrackPlane, "recenter", None),
    ("track_plane.init", fs_track_plane.TrackPlane, "__init__", None),
    ("projection.accumulate_batch", fs_projection.AccumulatorGrid,
     "accumulate_batch", None),
    ("events.load_stream", fs_events, "load_stream", None),
)


class Tracer:
    """Aggregated spans around calls into the engine's layers.

    Each traced call adds its duration to its own totals and to its
    caller's child time, so self time is the span minus the spans of the
    traced calls it made.  Counts come from return values (a hit, a
    seed, events flushed or expired).
    """

    def __init__(self):
        self.spans: dict[str, dict] = {}
        self._child_s = [0.0]

    def install(self) -> None:
        for name, owner, attr, count in TRACED:
            setattr(owner, attr, self._wrap(name, getattr(owner, attr), count))

    def _wrap(self, name, fn, count):
        span = self.spans[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "count": 0}
        child_s = self._child_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_s.pop()
                child_s[-1] += elapsed
                span["calls"] += 1
                span["total_s"] += elapsed
                span["self_s"] += elapsed - inner
            if count is not None:
                span["count"] += count(result)
            return result

        return traced


def _check_pass(events, labeled, stats) -> list[str]:
    """Invariants of one pass; returns the broken ones."""
    broken = []
    if len(labeled) != len(events):
        broken.append(f"{len(labeled)} records for {len(events)} events")
    if stats.events_in != len(events):
        broken.append(f"events_in={stats.events_in} for {len(events)} events")
    if stats.hits + stats.unlabeled != stats.events_in:
        broken.append(f"hits={stats.hits} + unlabeled={stats.unlabeled} "
                      f"!= events_in={stats.events_in}")
    labeled_count = 0
    for i, (ev, rec) in enumerate(zip(events, labeled)):
        if (rec.u, rec.v, rec.t, rec.s) != tuple(ev):
            broken.append(f"record {i} does not match its event")
            break
        unlabeled = rec.segment == fs_engine.UNLABELED
        if unlabeled == (math.isfinite(rec.v_u) and math.isfinite(rec.v_v)):
            broken.append(f"record {i}: segment {rec.segment} with flow "
                          f"({rec.v_u}, {rec.v_v})")
            break
        labeled_count += not unlabeled
    if labeled_count != stats.hits:
        broken.append(f"{labeled_count} labeled records, hits={stats.hits}")
    return broken


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def labeled_path(events_path: Path) -> Path:
    return events_path.with_suffix(".labeled")


def measure(events_path: Path, workload: str, tracer=None) -> dict:
    clock = time.perf_counter
    cfg = WORKLOADS[workload].config()
    begun = clock()
    setup_s = []
    for _ in range(REPS):
        stream = engine = None
        start = clock()
        stream = fs_events.load_stream(str(events_path))
        engine = fs_engine.Engine(cfg)
        setup_s.append(clock() - start)
    events = stream.events
    result = {"events": len(events), "setup_s": setup_s, "failed": 0,
              "errors": []}

    labeled = []
    samples = []
    process = engine.process
    record = labeled.append
    sample = samples.append
    # the output is timed in REPS pieces spread over the pass, so that a
    # short slow spell of a shared machine cannot set it alone
    part = events_path.with_suffix(".part")
    size = max(1, -(-len(events) // REPS))
    wall = output_s = 0.0
    try:
        for first in range(0, len(events), size):
            piece = events[first:first + size]
            start = clock()
            for ev in piece:
                t0 = clock()
                rec = process(ev)
                sample(clock() - t0)
                record(rec)
            wall += clock() - start
            start = clock()
            fs_engine.write_labeled(labeled[first:], str(part))
            output_s += clock() - start
        start = clock()
        engine.finish()
        wall += clock() - start
    except Exception as exc:            # the engine failed: count the pass
        result["failed"] = 1
        result["errors"].append(f"{type(exc).__name__}: {exc}")
        return result
    part.unlink()
    broken = _check_pass(events, labeled, engine.stats)
    out = labeled_path(events_path)
    fs_engine.write_labeled(labeled, str(out))
    stats = dict(vars(engine.stats), planes_live_end=len(engine.planes))
    result.update({
        "failed": int(bool(broken)),
        "errors": broken,
        "pass_s": wall,
        "output_s": output_s,
        "latency_s": samples,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": _sha256(out),
        "stats": stats,
        "wall_s": clock() - begun,
    })
    if tracer is not None:
        result["spans"] = tracer.spans
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("events", type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    result = measure(args.events, args.workload, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
