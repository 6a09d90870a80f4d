"""Command line front end.

Subcommands: synth (scene generation), run (segmentation engine), lk
(plane-fit baseline), eval (labeled output vs ground truth), render
(frame images).  Exit codes: 0 success, 1 usage, 2 bad input data, 3
internal error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Optional

from .config import (ConfigError, config_lines, load_config, manifest_lines,
                     write_manifest)
from .engine import Engine, read_labeled, write_labeled
from .evaluation import report_lines
from .events import (DEFAULT_GEOMETRY, EventStream, SensorGeometry,
                     StreamError, load_stream, save_stream)
from .lk import LKConfig, run_lk
from .projection import ConsistencyError
from .render import MODES, RenderConfig, render_to_dir
from .synth import (ConstantMotion, PendulumMotion, RotationMotion,
                    build_contour, generate_scene, read_gt, write_gt)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _geometry(text: str) -> SensorGeometry:
    try:
        w, h = text.lower().split("x")
        return SensorGeometry(int(w), int(h))
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError(
            f"geometry must look like 240x180, got {text!r}") from None


_SHAPE_KEYS = {
    "circle": ("radius",),
    "hexagon": ("width",),
    "rectangle": ("width", "height"),
    "bar": ("length", "thickness"),
}


def parse_object_spec(text: str, geometry: SensorGeometry):
    """One --object value: comma-separated key=value pairs.

    shape=circle|hexagon|rectangle|bar with its size keys (radius;
    width; width,height; length,thickness), optional cx, cy, rotate
    (degrees).  Motion: vu, vv for constant (default), or
    motion=pendulum [length, theta_max, ppm, phase_deg, g] or
    motion=rotation omega_deg [about the object's center].
    """
    fields = {}
    for part in text.split(","):
        if "=" not in part:
            raise ConfigError(f"object spec piece {part!r} is not key=value")
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()

    shape = fields.pop("shape", None)
    if shape not in _SHAPE_KEYS:
        raise ConfigError(
            f"object spec needs shape= one of {sorted(_SHAPE_KEYS)}")
    def number(key: str, default: Optional[float] = None) -> float:
        raw = fields.pop(key, default)
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"object spec {key}: expected a number, "
                              f"got {raw!r}") from None

    cx = number("cx", geometry.width / 2.0)
    cy = number("cy", geometry.height / 2.0)
    rotate = number("rotate", 0.0)
    size_kwargs = {}
    for key in _SHAPE_KEYS[shape]:
        if key not in fields:
            raise ConfigError(f"shape={shape} needs {key}=")
        size_kwargs[key] = number(key)

    motion_kind = fields.pop("motion", "constant")
    if motion_kind == "constant":
        model = ConstantMotion(number("vu", 0.0), number("vv", 0.0))
    elif motion_kind == "pendulum":
        model = PendulumMotion(
            length_m=number("length", 0.72),
            theta_max_deg=number("theta_max", 23.0),
            g=number("g", 9.82),
            pixels_per_meter=number("ppm", 190.0),
            phase=math.radians(number("phase_deg", 0.0)))
    elif motion_kind == "rotation":
        if "omega_deg" not in fields:
            raise ConfigError("motion=rotation needs omega_deg=")
        model = RotationMotion(
            omega=math.radians(number("omega_deg")),
            center=(cx, cy))
    else:
        raise ConfigError(f"unknown motion {motion_kind!r}")
    if fields:
        raise ConfigError(f"unknown object keys: {sorted(fields)}")

    contour = build_contour(shape, center=(cx, cy), rotate_deg=rotate,
                            geometry=geometry, **size_kwargs)
    return contour, model


def _cmd_synth(args) -> int:
    geometry = args.geometry
    objects = [parse_object_spec(spec, geometry) for spec in args.object]
    stream, gt = generate_scene(
        objects, args.duration, geometry, noise_rate=args.noise_rate,
        burst_size=args.burst_size, jitter_us=args.jitter_us,
        refractory_us=args.refractory_us, seed=args.seed)
    save_stream(stream, args.out)
    print(f"wrote {len(stream)} events to {args.out}")
    if args.gt:
        write_gt(gt, args.gt)
        print(f"wrote ground truth to {args.gt}")
    return EXIT_OK


def _cmd_run(args) -> int:
    stream = load_stream(args.input)
    cfg = load_config(args.config or [], args.set)
    engine = Engine(cfg)
    start = time.perf_counter()
    labeled = engine.run(stream.events)
    elapsed = time.perf_counter() - start
    outputs = {}
    write_labeled(labeled, args.out)
    outputs["labeled"] = args.out
    if args.snapshots:
        with open(args.snapshots, "w") as fh:
            fh.write("\n".join(engine.snapshot_rows()) + "\n")
        outputs["snapshots"] = args.snapshots
    if args.stats:
        with open(args.stats, "w") as fh:
            fh.write("\n".join(engine.stats.as_lines()) + "\n")
        outputs["stats"] = args.stats
    if args.manifest:
        counts = {"events": len(labeled), "hits": engine.stats.hits,
                  "planes_live": len(engine.planes),
                  "planes_created": engine.stats.planes_created}
        write_manifest(args.manifest, manifest_lines(
            "run", args.input, outputs, counts, elapsed, cfg))
        outputs["manifest"] = args.manifest
    frac = engine.stats.hits / max(1, engine.stats.events_in)
    print(f"{engine.stats.events_in} events, {frac:.1%} labeled, "
          f"{len(engine.planes)} planes live, {elapsed:.2f} s")
    return EXIT_OK


def _cmd_lk(args) -> int:
    stream = load_stream(args.input)
    cfg = LKConfig(window_half=args.window_half, min_valid=args.min_valid)
    labeled = run_lk(stream.events, stream.geometry, cfg)
    write_labeled(labeled, args.out)
    solved = sum(1 for rec in labeled if math.isfinite(rec.v_u))
    print(f"{len(labeled)} events, {solved} solved, wrote {args.out}")
    return EXIT_OK


def _read(reader, path):
    """`reader(path)`, with a bad record's message led by the path: eval
    reads two files, and a line number alone does not say which."""
    try:
        return reader(path)
    except StreamError as exc:
        raise StreamError(f"{path}: {exc}") from exc


def _cmd_eval(args) -> int:
    labeled = _read(read_labeled, args.labeled)
    gt_records = _read(read_gt, args.gt)
    for line in report_lines(labeled, gt_records,
                             mag_bin=args.mag_bin, angle_bin=args.angle_bin):
        print(line)
    return EXIT_OK


def _cmd_render(args) -> int:
    labeled = _read(read_labeled, args.labeled)
    cfg = RenderConfig(mode=args.mode, frame_dt_s=args.frame_dt,
                       v_sat=args.v_sat)
    paths = render_to_dir(labeled, args.out_dir, args.geometry, cfg)
    print(f"wrote {len(paths)} frames to {args.out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowseg",
                     description="Event-stream optical flow and segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--out", required=True, help="event stream output path")
    p.add_argument("--gt", help="ground-truth sidecar output path")
    p.add_argument("--object", action="append", required=True,
                   help="object spec, e.g. shape=hexagon,width=65,vu=58,vv=0 "
                        "(repeatable)")
    p.add_argument("--duration", type=float, required=True, help="seconds")
    p.add_argument("--geometry", type=_geometry, default=DEFAULT_GEOMETRY)
    p.add_argument("--noise-rate", type=float, default=0.0,
                   help="background noise events/s")
    p.add_argument("--burst-size", type=int, default=1,
                   help="events fired per contour pixel crossing")
    p.add_argument("--jitter-us", type=int, default=0)
    p.add_argument("--refractory-us", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="run the segmentation engine")
    p.add_argument("input", help="event stream file")
    p.add_argument("--out", required=True, help="labeled output path")
    p.add_argument("--snapshots", help="plane snapshot CSV path")
    p.add_argument("--stats", help="engine counters path")
    p.add_argument("--manifest", help="run manifest path")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="config override (repeatable)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("lk", help="run the plane-fit baseline")
    p.add_argument("input", help="event stream file")
    p.add_argument("--out", required=True, help="labeled output path")
    p.add_argument("--window-half", type=int, default=3)
    p.add_argument("--min-valid", type=int, default=10)
    p.set_defaults(func=_cmd_lk)

    p = sub.add_parser("eval", help="score labeled output against truth")
    p.add_argument("--labeled", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--mag-bin", type=float, default=5.0)
    p.add_argument("--angle-bin", type=float, default=5.0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("render", help="render labeled output to frames")
    p.add_argument("--labeled", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mode", choices=MODES, default="flow")
    p.add_argument("--frame-dt", type=float, default=1.0 / 30.0,
                   help="seconds per frame")
    p.add_argument("--v-sat", type=float, default=100.0)
    p.add_argument("--geometry", type=_geometry, default=DEFAULT_GEOMETRY)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (StreamError, ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
