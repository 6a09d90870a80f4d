"""Frame rendering of labeled event output.

Labeled events are bucketed into fixed-length intervals and each bucket
becomes one image: flow mode colors pixels by flow direction (hue) and
speed (saturation), segment mode colors by plane id, count mode is a
grayscale event-count image.  Output is binary PPM (P6) or PGM (P5),
chosen by mode, so no imaging dependency is needed.  Frames are drawn
and written one at a time, so memory holds one frame however many the
records span.
"""

from __future__ import annotations

import colorsys
import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .engine import UNLABELED, FlowLabeledEvent
from .events import (DEFAULT_GEOMETRY, GeometryError, OrderingError,
                     SensorGeometry)

MODES = ("flow", "segment", "count")
UNLABELED_GRAY = (96, 96, 96)
GOLDEN = 0.6180339887498949


@dataclass
class RenderConfig:
    mode: str = "flow"
    frame_dt_s: float = 1.0 / 30.0
    v_sat: float = 100.0       # px/s mapped to full saturation

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        # timestamps are whole microseconds, so no frame is shorter
        if not 1e-6 <= self.frame_dt_s < math.inf:      # NaN fails too
            raise ValueError(f"frame_dt_s must be finite and at least "
                             f"1e-6 s, got {self.frame_dt_s}")
        if not 0 < self.v_sat < math.inf:
            raise ValueError(f"v_sat must be positive and finite, "
                             f"got {self.v_sat}")


def segment_color(segment: int) -> tuple[int, int, int]:
    """Stable palette: golden-ratio hue walk over plane ids."""
    hue = (segment * GOLDEN) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.80, 1.0)
    return int(r * 255), int(g * 255), int(b * 255)


def flow_color(v_u: float, v_v: float, v_sat: float) -> tuple[int, int, int]:
    speed = math.hypot(v_u, v_v)
    hue = (math.atan2(v_v, v_u) + math.pi) / (2.0 * math.pi)
    sat = min(1.0, speed / v_sat)
    r, g, b = colorsys.hsv_to_rgb(hue % 1.0, sat, 1.0)
    return int(r * 255), int(g * 255), int(b * 255)


def _check_records(records: Sequence[FlowLabeledEvent],
                   geometry: SensorGeometry) -> None:
    """Raise GeometryError or OrderingError, naming its index, for the
    first record outside `geometry` or earlier than the one before it."""
    last_t = records[0].t
    for i, rec in enumerate(records):
        if not geometry.contains(rec.u, rec.v):
            raise GeometryError(
                f"record {i}: coordinate ({rec.u}, {rec.v}) outside "
                f"{geometry.width}x{geometry.height}")
        if rec.t < last_t:
            raise OrderingError(
                f"record {i}: timestamp {rec.t} before previous {last_t}", i)
        last_t = rec.t


def render_frames(records: Sequence[FlowLabeledEvent],
                  geometry: SensorGeometry = DEFAULT_GEOMETRY,
                  cfg: RenderConfig = None) -> Iterator[np.ndarray]:
    """The frames of `records`, one per interval, drawn one at a time in
    time order: (H, W, 3) uint8, or (H, W) for count mode.  Records must
    lie inside `geometry`, in non-decreasing time order; a bad record
    raises here, before any frame is drawn."""
    cfg = cfg or RenderConfig()
    if records:
        _check_records(records, geometry)
    return _draw(records, (geometry.height, geometry.width), cfg)


def _draw(records, shape, cfg: RenderConfig) -> Iterator[np.ndarray]:
    if not records:
        return
    dt_us = int(cfg.frame_dt_s * 1e6)
    t0 = records[0].t
    count = cfg.mode == "count"
    i = 0
    for frame_end in range(t0 + dt_us, records[-1].t + dt_us + 1, dt_us):
        frame = np.zeros(shape if count else shape + (3,),
                         dtype=np.int64 if count else np.uint8)
        while i < len(records) and records[i].t < frame_end:
            rec = records[i]
            i += 1
            if count:
                frame[rec.v, rec.u] += 1
            elif rec.segment == UNLABELED or not (math.isfinite(rec.v_u)
                                                  and math.isfinite(rec.v_v)):
                frame[rec.v, rec.u] = UNLABELED_GRAY
            elif cfg.mode == "segment":
                frame[rec.v, rec.u] = segment_color(rec.segment)
            else:
                frame[rec.v, rec.u] = flow_color(rec.v_u, rec.v_v, cfg.v_sat)
        if count:
            frame = (frame * 255 // max(1, frame.max())).astype(np.uint8)
        yield frame


def write_pnm(path, image: np.ndarray) -> None:
    """Binary PGM (P5) of an (H, W) image, or PPM (P6) of an (H, W, 3)
    one; uint8."""
    h, w = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{'P5' if image.ndim == 2 else 'P6'}\n{w} {h}\n255\n"
                 .encode("ascii"))
        fh.write(image.astype(np.uint8).tobytes())


def render_to_dir(records: Sequence[FlowLabeledEvent], out_dir,
                  geometry: SensorGeometry = DEFAULT_GEOMETRY,
                  cfg: RenderConfig = None) -> list[str]:
    """Write numbered frames into out_dir, each as soon as it is drawn;
    returns the paths written."""
    cfg = cfg or RenderConfig()
    frames = render_frames(records, geometry, cfg)
    os.makedirs(out_dir, exist_ok=True)
    ext = "pgm" if cfg.mode == "count" else "ppm"
    paths = []
    for i, frame in enumerate(frames):
        paths.append(os.path.join(out_dir, f"frame_{i:05d}.{ext}"))
        write_pnm(paths[-1], frame)
    return paths
