"""flowseg benchmark: labeling throughput, latency, memory and accuracy.

    python3 perfbench/run.py --workload {hexagon,bars,noise}
        [--seed N] [--seconds S] [--trace 0|1]

Builds the workload's scenes from the seed and writes them with
`save_stream`, outside any timed region.  Then it runs the measured
program (measure.py) once per pass, each time in a child process that
receives only one scene file, and checks the labels the children wrote
against the scenes and their ground truth.  With --trace 0 it prints
the end-to-end metrics of BENCHMARK.json over all the workload's scenes,
and more figures as `info` lines.  With --trace 1 it labels the seed's
own scene in untraced and then in traced passes (each for half of
--seconds) and prints the per-layer metrics, the tracing overhead among
them.  Every metric is printed as a line with its unit and better
direction, and the labels' sha256 is compared with the one recorded in
goldens.json for the scene's seed; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

attempted and failed count passes (one scene labeled once): a pass
fails when the engine raises or breaks an invariant.  Work files go to
.perfbench/ at the root of the checkout; a run removes its own at the
end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import flowseg
except ImportError as exc:
    sys.exit(f"perfbench: cannot import flowseg from {SRC}: {exc}")
if Path(flowseg.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: flowseg comes from {flowseg.__file__}, "
             f"not from {SRC}")

from flowseg.engine import UNLABELED, read_labeled      # noqa: E402
from flowseg.evaluation import (flow_errors,            # noqa: E402
                                majority_structure_map)
from flowseg.events import save_stream                  # noqa: E402

from measure import labeled_path                         # noqa: E402
from workloads import WORKLOADS, scene_seeds             # noqa: E402

WORK = ROOT / ".perfbench"
# a labeled structure event's flow counts as right within the settled
# accuracy bounds of tests/test_acceptance.py (test_03, test_04)
MAG_TOL_PCT = 10.0
ANGLE_TOL_DEG = 10.0
CHILD_TIMEOUT_S = 170


def run_pass(events_path: Path, workload: str, trace: bool) -> dict:
    """Label one scene once in a child process (measure.py)."""
    cmd = [sys.executable, str(HERE / "measure.py"), str(events_path),
           "--workload", workload]
    if trace:
        cmd.append("--trace")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: measure.py exited with {done.returncode}")
    result = json.loads(lines[-1])
    result["scene"] = events_path
    return result


def run_rounds(scenes, workload: str, seconds: float, trace: bool) -> list:
    """One pass per scene per round; rounds repeat while the next one is
    more likely than not to end within `seconds`."""
    passes = []
    measured_s = round_s = 0.0
    while not passes or measured_s + round_s / 2 <= seconds:
        start = time.perf_counter()
        passes.extend(run_pass(path, workload, trace) for path, _, _ in scenes)
        round_s = time.perf_counter() - start
        measured_s += round_s
    return passes


def read_checked(scenes, passes, problems: list[str]) -> list:
    """Check the passes and the labels they left against the scenes;
    returns (labels, truth records) per scene."""
    digests: dict[Path, str] = {}
    for p in passes:
        problems.extend(f"{p['scene'].name}: {err}" for err in p["errors"])
        if "digest" in p and digests.setdefault(p["scene"],
                                                p["digest"]) != p["digest"]:
            problems.append(f"{p['scene'].name}: labels differ between passes")
    out = []
    for path, stream, gt in scenes:
        labels_path = labeled_path(path)
        if path not in digests:
            problems.append(f"{path.name}: no pass completed")
            continue
        if hashlib.sha256(labels_path.read_bytes()).hexdigest() != digests[path]:
            problems.append(f"{labels_path.name} changed after its pass")
        labeled = read_labeled(str(labels_path))
        events = stream.events
        if len(labeled) != len(events):
            problems.append(f"{labels_path.name}: {len(labeled)} records "
                            f"for {len(events)} events")
        elif any((r.u, r.v, r.t, r.s) != tuple(e)
                 for r, e in zip(labeled, events)):
            problems.append(f"{labels_path.name}: records do not match the "
                            "input events")
        out.append((labeled, gt.records))
    return out


def golden_lines(workload: str, seeds: list[int], scenes,
                 passes) -> list[str]:
    """Compare each scene's labels with the digest recorded for its seed."""
    goldens = json.loads((HERE / "goldens.json").read_text())
    digests = {p["scene"]: p["digest"] for p in passes if "digest" in p}
    lines = []
    for seed, (path, stream, _) in zip(seeds, scenes):
        if path not in digests:
            continue
        got = {"sha256": digests[path], "records": len(stream)}
        text = f"sha256={got['sha256']} records={got['records']}"
        recorded = goldens.get(workload, {}).get(str(seed))
        if recorded is None:
            lines.append(f"labels seed={seed} {text} (no digest recorded)")
        elif recorded == got:
            lines.append(f"labels seed={seed} {text} match the recorded digest")
        else:
            lines.append(f"LABELS DIFFER seed={seed}: {text}, recorded "
                         f"sha256={recorded['sha256']} "
                         f"records={recorded['records']}")
    return lines


def accuracy(labeled_scenes) -> tuple[dict, dict]:
    """End-to-end accuracy metrics, and the per-structure ones as info.

    Every event has a right answer.  A noise event is right when it is
    left unlabeled.  A structure event's segment is right when it is a
    segment whose majority structure (in its own scene) is the event's
    own.  Counts pool over the scenes.
    """
    total = noise = noise_labeled = structure = segment_right = 0
    cross_wrong = 0
    errors = []
    for labeled, gt_records in labeled_scenes:
        scene_errors, _ = flow_errors(labeled, gt_records)
        owner = majority_structure_map(scene_errors)
        total += len(gt_records)
        for rec, (_, sid, _, _) in zip(labeled, gt_records):
            if sid < 0:
                noise += 1
                noise_labeled += rec.segment != UNLABELED
            else:
                structure += 1
        right = sum(1 for e in scene_errors if owner[e.segment] == e.structure)
        segment_right += right
        cross_wrong += len(scene_errors) - right
        errors.extend(scene_errors)
    unlabeled_noise = noise - noise_labeled
    metrics = {
        "segment_right_pct": 100.0 * (segment_right + unlabeled_noise) / total,
        "noise_unlabeled_pct": 100.0 * unlabeled_noise / noise,
    }
    info = {"noise_labeled_pct": 100.0 * noise_labeled / noise}
    if structure:
        info["coverage_pct"] = 100.0 * len(errors) / structure
    if errors:
        info["cross_label_pct"] = 100.0 * cross_wrong / len(errors)
        info["flow_mag_err_pct_p50"] = statistics.median(
            abs(e.mag_pct) for e in errors)
        info["flow_angle_err_deg_p50"] = statistics.median(
            e.angle_deg for e in errors)
        flow_right = sum(1 for e in errors if abs(e.mag_pct) <= MAG_TOL_PCT
                         and e.angle_deg <= ANGLE_TOL_DEG)
        info["flow_right_pct"] = 100.0 * (flow_right + unlabeled_noise) / total
    return metrics, info


def rate(passes) -> float:
    return sum(p["events"] for p in passes) / sum(p["pass_s"] for p in passes)


def percentile(ordered: list[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(passes) -> tuple[dict, dict]:
    """Metrics over the completed passes, and the figures left out of
    them as info.  The rate and the latency percentiles pool the passes;
    the rest are medians."""
    def pooled(key):
        return sorted(x for p in passes for x in p[key])

    latency_s = pooled("latency_s")
    return {
        "events_per_s": rate(passes),
        "latency_p95_us": 1e6 * percentile(latency_s, 0.95),
        "setup_s": statistics.median(pooled("setup_s")),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }, {
        # follows the machine's speed about twice as strongly as
        # events_per_s does; see README.md
        "output_s": statistics.median(p["output_s"] for p in passes),
        # these sit on cliffs between the service times of the hit,
        # ingest and expire paths; see README.md
        "latency_p25_us": 1e6 * percentile(latency_s, 0.25),
        "latency_p50_us": 1e6 * percentile(latency_s, 0.50),
        "latency_p99_us": 1e6 * percentile(latency_s, 0.99),
    }


def summed(passes, field: str) -> dict:
    total: dict = {}
    for p in passes:
        for name, value in p[field].items():
            if isinstance(value, dict):
                into = total.setdefault(name, dict.fromkeys(value, 0))
                for key, v in value.items():
                    into[key] += v
            else:
                total[name] = total.get(name, 0) + value
    return total


def per_layer(traced, untraced, problems: list[str]) -> dict:
    """Per-pass layer metrics of the traced passes; adds to `problems`
    where their counts disagree with `EngineStats`."""
    passes = len(traced)
    spans = summed(traced, "spans")
    stats = summed(traced, "stats")

    def per_pass(value):
        return value / passes

    def calls(name):
        return per_pass(spans[name]["calls"])

    def total(name):
        return per_pass(spans[name]["total_s"])

    def self_s(name):
        return per_pass(spans[name]["self_s"])

    def count(name):
        return per_pass(spans[name]["count"])

    def ratio(a, b):
        return a / b if b else 0.0

    ingest, emit = "flow_plane.ingest", "flow_plane.try_emit"
    flush, match = "flow_plane.flush_noise", "track_plane.try_match"
    engine_s = per_pass(sum(p["pass_s"] for p in traced))
    discovery_s = self_s(ingest) + total(emit) + total(flush)
    traced_rate = rate(traced)
    untraced_rate = rate(untraced)
    metrics = {
        "flow_plane.ingest.calls": calls(ingest),
        "flow_plane.ingest.self_s": self_s(ingest),
        "flow_plane.ingest.us_per_call":
            1e6 * ratio(self_s(ingest), calls(ingest)),
        "flow_plane.try_emit.calls": calls(emit),
        "flow_plane.try_emit.self_s": self_s(emit),
        "flow_plane.try_emit.seeds": count(emit),
        "flow_plane.try_emit.yield": ratio(count(emit), calls(emit)),
        "flow_plane.extract_associated.s":
            total("flow_plane.extract_associated"),
        "flow_plane.refine.s": total("flow_plane.refine"),
        "flow_plane.MetricArray.fill.s": total("flow_plane.MetricArray.fill"),
        "flow_plane.flush_noise.calls": calls(flush),
        "flow_plane.flush_noise.s": total(flush),
        "flow_plane.flush_noise.events": count(flush),
        "flow_plane.discovery_time_pct": 100.0 * discovery_s / engine_s,
        "track_plane.try_match.calls": calls(match),
        "track_plane.try_match.self_s": self_s(match),
        "track_plane.try_match.hits": count(match),
        "track_plane.try_match.hit_ratio": ratio(count(match), calls(match)),
        "track_plane.offers_per_event":
            ratio(calls(match), per_pass(stats["events_in"])),
        "track_plane.tracking_time_pct": 100.0 * total(match) / engine_s,
        "track_plane.expire.calls": calls("track_plane.expire"),
        "track_plane.expire.s": total("track_plane.expire"),
        "track_plane.expire.events": count("track_plane.expire"),
        "track_plane.recenter.calls": calls("track_plane.recenter"),
        "track_plane.recenter.s": total("track_plane.recenter"),
        "track_plane.init.calls": calls("track_plane.init"),
        "track_plane.init.s": total("track_plane.init"),
        "projection.accumulate_batch.calls":
            calls("projection.accumulate_batch"),
        "projection.accumulate_batch.s": total("projection.accumulate_batch"),
        "engine.process.self_s": self_s("engine.process"),
        "engine.maintenance.calls": calls("engine.maintenance"),
        "engine.maintenance.self_s": self_s("engine.maintenance"),
        "engine.discovery_share":
            ratio(stats["unlabeled"], stats["events_in"]),
        "engine.planes_created": per_pass(stats["planes_created"]),
        "engine.merges": per_pass(stats["merges"]),
        "engine.prunes": per_pass(stats["prunes"]),
        "engine.planes_live_end": per_pass(stats["planes_live_end"]),
        "events.load_stream.s": ratio(spans["events.load_stream"]["total_s"],
                                      spans["events.load_stream"]["calls"]),
        "engine.write_labeled.s":
            statistics.median(p["output_s"] for p in traced),
        "trace.events_per_s": traced_rate,
        "trace.untraced_events_per_s": untraced_rate,
        "trace.overhead_pct": 100.0 * (untraced_rate / traced_rate - 1.0),
    }
    cross = (
        ("flow_plane.ingest.calls", spans[ingest]["calls"], "unlabeled"),
        ("track_plane.try_match.hits", spans[match]["count"], "hits"),
        ("flow_plane.flush_noise.events", spans[flush]["count"],
         "noise_flushed"),
        ("flow_plane.try_emit.seeds", spans[emit]["count"], "planes_created"),
        ("engine.maintenance.calls", spans["engine.maintenance"]["calls"],
         "maintenance_runs"),
    )
    problems.extend(
        f"trace {name}={got} but EngineStats.{field}={stats[field]}"
        for name, got, field in cross if got != stats[field])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int,
                        help="scene seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in
                spec["per_layer" if args.trace else "end_to_end"]}

    # a traced run labels the seed's own scene only, so that its counts
    # are those of that one scene
    seeds = scene_seeds(seed, 1 if args.trace else workload.scenes)
    WORK.mkdir(exist_ok=True)
    scenes = []
    for scene_seed in seeds:
        path = WORK / f"{args.workload}-{scene_seed}.events"
        stream, gt = workload.scene(scene_seed)
        save_stream(stream, str(path))
        scenes.append((path, stream, gt))

    problems: list[str] = []
    if args.trace:
        untraced = run_rounds(scenes, args.workload, args.seconds / 2, False)
        read_checked(scenes, untraced, problems)
        traced = run_rounds(scenes, args.workload, args.seconds / 2, True)
        read_checked(scenes, traced, problems)
        all_passes, done = untraced + traced, traced
    else:
        all_passes = run_rounds(scenes, args.workload, args.seconds, False)
        labeled_scenes = read_checked(scenes, all_passes, problems)
        done = all_passes
    completed = [p for p in all_passes if "pass_s" in p]
    metrics, info = {}, {}
    if args.trace and all("pass_s" in p for p in all_passes):
        metrics = per_layer(traced, untraced, problems)
    elif not args.trace and completed:
        metrics, info = end_to_end(completed)
        accurate, accuracy_info = accuracy(labeled_scenes)
        metrics.update(accurate)
        info.update(accuracy_info)

    if metrics and set(metrics) != set(declared):
        sys.exit("perfbench: metrics disagree with BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(declared))}")
    print(f"workload={args.workload} seeds={seeds} "
          f"events={sum(len(s) for _, s, _ in scenes)} "
          f"passes={len(all_passes)} trace={args.trace}")
    for line in golden_lines(args.workload, seeds, scenes, done):
        print(line)
    for p in done:
        if "stats" in p:
            print(f"stats {p['scene'].name} " + " ".join(
                f"{k}={v}" for k, v in p["stats"].items()))
    for name, value in metrics.items():
        m = declared[name]
        print(f"{name} = {value:.6g} {m['unit']} ({m['better']} is better)")
    for name, value in info.items():
        print(f"info {name} = {value:.6g}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    for path, _, _ in scenes:
        path.unlink()
        labeled_path(path).unlink(missing_ok=True)
    failed = sum(p["failed"] for p in all_passes)
    print(json.dumps({
        "correct": not problems and not failed and bool(metrics),
        "attempted": len(all_passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]["unit"]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
