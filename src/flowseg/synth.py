"""Synthetic event generation with exact ground truth.

Shapes are closed contours sampled at sub-pixel spacing (CONTOUR_SPACING)
with outward unit normals.  A motion model moves the contour; an event is
emitted when a contour point crosses an integer pixel boundary into a pixel
no other contour point currently occupies (a sliding edge does not change
intensity, so tangential re-entries are suppressed).  Polarity is +1 on the
leading side (outward normal along the motion) and -1 on the trailing side.

Ground truth is per event: the generating point's velocity and the
structure id, in the same order as the emitted stream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .events import (DEFAULT_GEOMETRY, Event, EventStream, GeometryError,
                     RecordFormat, SensorGeometry, read_records, source_text,
                     write_records)
from .projection import KEY_M, _round_array, round_half_away

CONTOUR_SPACING = 0.5         # px between contour sample points
_MAX_STEP_PX = 0.2            # max motion per simulation step


# ---------------------------------------------------------------------------
# contours

@dataclass
class ShapeContour:
    """Sampled closed contour: points and outward unit normals, (N, 2)."""

    points: np.ndarray
    normals: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


def _polygon_contour(vertices: Sequence[tuple[float, float]]) -> ShapeContour:
    verts = np.asarray(vertices, dtype=np.float64)
    centroid = verts.mean(axis=0)
    pts: list[np.ndarray] = []
    nrm: list[np.ndarray] = []
    n_v = len(verts)
    for i in range(n_v):
        a = verts[i]
        b = verts[(i + 1) % n_v]
        edge = b - a
        length = float(np.hypot(*edge))
        n_seg = max(1, math.ceil(length / CONTOUR_SPACING))
        direction = edge / length
        normal = np.array([direction[1], -direction[0]])
        if np.dot(normal, (a + b) / 2 - centroid) < 0:
            normal = -normal
        for k in range(n_seg):
            pts.append(a + (k / n_seg) * edge)
            nrm.append(normal)
    return ShapeContour(np.array(pts), np.array(nrm))


def _check_diameter(shape: str, diameter: float,
                    geometry: SensorGeometry) -> None:
    """Raise GeometryError before sampling a shape whose `diameter`
    less 2 * `CONTOUR_SPACING` exceeds the sensor's diagonal.  Sample
    points lie within one spacing of the diameter's two ends, so the
    extent of such a shape's samples would fail the sensor-size check
    too, which runs only after sampling has taken time and memory in
    proportion to the contour's length."""
    if diameter - 2 * CONTOUR_SPACING > math.hypot(geometry.width,
                                                   geometry.height):
        raise GeometryError(
            f"{shape} diameter {diameter:.1f} exceeds the diagonal of "
            f"sensor {geometry.width}x{geometry.height}")


def build_contour(shape: str, *, radius: float | None = None,
                  width: float | None = None, height: float | None = None,
                  length: float | None = None, thickness: float | None = None,
                  center: tuple[float, float] = (120.0, 90.0),
                  rotate_deg: float = 0.0,
                  geometry: SensorGeometry = DEFAULT_GEOMETRY) -> ShapeContour:
    """Build a contour for one of: circle, hexagon, rectangle, bar.

    circle(radius); hexagon(width = extent across opposite corners);
    rectangle(width, height); bar(length, thickness), a thickness x
    length rectangle.  The shape is placed at `center` and optionally
    rotated.  A shape larger than the sensor is a geometry error, raised
    before sampling when the shape's diameter alone shows it
    (`_check_diameter`).
    """
    if shape == "circle":
        if radius is None or radius <= 0:
            raise ValueError("circle needs a positive radius")
        _check_diameter(shape, 2 * radius, geometry)
        n = max(3, math.ceil(2 * math.pi * radius / CONTOUR_SPACING))
        ang = 2 * math.pi * np.arange(n) / n
        ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        contour = ShapeContour(radius * ring, ring.copy())
    elif shape == "hexagon":
        if width is None or width <= 0:
            raise ValueError("hexagon needs a positive width")
        _check_diameter(shape, width, geometry)
        r = width / 2.0
        verts = [(r * math.cos(math.radians(60 * k)),
                  r * math.sin(math.radians(60 * k))) for k in range(6)]
        contour = _polygon_contour(verts)
    elif shape in ("rectangle", "bar"):
        sizes = "width and height"
        if shape == "bar":
            sizes, width, height = "length and thickness", thickness, length
        if width is None or height is None or width <= 0 or height <= 0:
            raise ValueError(f"{shape} needs positive {sizes}")
        _check_diameter(shape, math.hypot(width, height), geometry)
        w2, h2 = width / 2.0, height / 2.0
        contour = _polygon_contour(
            [(-w2, -h2), (w2, -h2), (w2, h2), (-w2, h2)])
    else:
        raise ValueError(f"unknown shape {shape!r}")

    if rotate_deg:
        a = math.radians(rotate_deg)
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        contour.points = contour.points @ rot.T
        contour.normals = contour.normals @ rot.T
    contour.points = contour.points + np.asarray(center, dtype=np.float64)

    span = contour.points.max(axis=0) - contour.points.min(axis=0)
    if span[0] >= geometry.width or span[1] >= geometry.height:
        raise GeometryError(
            f"{shape} extent {span[0]:.1f}x{span[1]:.1f} exceeds sensor "
            f"{geometry.width}x{geometry.height}")
    return contour


# ---------------------------------------------------------------------------
# motion models

class ConstantMotion:
    def __init__(self, v_u: float, v_v: float):
        self.v_u = float(v_u)
        self.v_v = float(v_v)

    def positions(self, points: np.ndarray, t: float) -> np.ndarray:
        return points + np.array([self.v_u * t, self.v_v * t])

    def velocity_at(self, pos_u: float, pos_v: float, t: float) -> tuple[float, float]:
        return self.v_u, self.v_v

    def world_normal(self, normal, t: float):
        return normal

    def max_speed(self, points: np.ndarray) -> float:
        return math.hypot(self.v_u, self.v_v)


class PendulumMotion:
    """Horizontal lossless pendulum swing.

    v_max = sqrt(2*g*L*(1 - cos(theta_max))), period T = 2*pi*sqrt(L/g);
    pixel velocity v(t) = pixels_per_meter * v_max * cos(2*pi*t/T + phase).
    Defaults give a peak flow of about 200 px/s.
    """

    def __init__(self, length_m: float = 0.72, theta_max_deg: float = 23.0,
                 g: float = 9.82, pixels_per_meter: float = 190.0,
                 phase: float = 0.0):
        if length_m <= 0 or g <= 0 or pixels_per_meter <= 0:
            raise ValueError("pendulum parameters must be positive")
        self.phase = phase
        self.v_max_ms = math.sqrt(
            2 * g * length_m * (1 - math.cos(math.radians(theta_max_deg))))
        self.period_s = 2 * math.pi * math.sqrt(length_m / g)
        self.peak_flow = pixels_per_meter * self.v_max_ms
        # displacement amplitude in px, integral of the velocity
        self.amplitude_px = self.peak_flow * self.period_s / (2 * math.pi)

    def _displacement(self, t: float) -> float:
        w = 2 * math.pi / self.period_s
        return self.amplitude_px * (math.sin(w * t + self.phase) - math.sin(self.phase))

    def positions(self, points: np.ndarray, t: float) -> np.ndarray:
        return points + np.array([self._displacement(t), 0.0])

    def velocity_at(self, pos_u: float, pos_v: float, t: float) -> tuple[float, float]:
        w = 2 * math.pi / self.period_s
        return self.peak_flow * math.cos(w * t + self.phase), 0.0

    def world_normal(self, normal, t: float):
        return normal

    def max_speed(self, points: np.ndarray) -> float:
        return self.peak_flow


class RotationMotion:
    def __init__(self, omega: float, center: tuple[float, float]):
        self.omega = float(omega)   # rad/s, positive = +u toward +v
        self.center = (float(center[0]), float(center[1]))

    def positions(self, points: np.ndarray, t: float) -> np.ndarray:
        a = self.omega * t
        c, s = math.cos(a), math.sin(a)
        rel = points - self.center
        return np.stack([rel[:, 0] * c - rel[:, 1] * s,
                         rel[:, 0] * s + rel[:, 1] * c], axis=1) + self.center

    def velocity_at(self, pos_u: float, pos_v: float, t: float) -> tuple[float, float]:
        # positions come from numpy arrays; the truth records hold floats
        return (float(-self.omega * (pos_v - self.center[1])),
                float(self.omega * (pos_u - self.center[0])))

    def world_normal(self, normal, t: float):
        a = self.omega * t
        c, s = math.cos(a), math.sin(a)
        return (normal[0] * c - normal[1] * s, normal[0] * s + normal[1] * c)

    def max_speed(self, points: np.ndarray) -> float:
        rel = points - self.center
        return abs(self.omega) * float(np.hypot(rel[:, 0], rel[:, 1]).max())


MotionModel = Union[ConstantMotion, PendulumMotion, RotationMotion]


# ---------------------------------------------------------------------------
# ground truth

@dataclass
class GroundTruth:
    """Per-event truth aligned with the generated stream.

    records[i] = (t_us, structure_id, v_u, v_v) for stream event i;
    structure_id -1 marks noise (flow meaningless).
    """

    records: list[tuple[int, int, float, float]]


GT_FORMAT = RecordFormat((int, float, float, int), (0, 3, 1, 2), tuple)


def write_gt(gt: GroundTruth, destination) -> None:
    """Write truth rows after a header comment, to a path or a file."""
    write_records(destination, GT_FORMAT, "# t v_u v_v structure_id",
                  gt.records)


def read_gt(source) -> list[tuple[int, int, float, float]]:
    """Read sidecar rows back as (t_us, structure_id, v_u, v_v), from a
    path or the file's lines, as `events.read_records` reads any record
    format; a row that is not ``t v_u v_v structure_id`` raises
    ParseError naming its line and field.  A file must be ASCII (see
    `read_ascii`)."""
    return read_records(source_text(source), GT_FORMAT)


# ---------------------------------------------------------------------------
# generation

def _simulate_structure(contour: ShapeContour, model: MotionModel,
                        duration: float, geometry: SensorGeometry,
                        structure_id: int):
    """Run the boundary-crossing simulation for one structure.

    Returns (records, clipped): records are (t_us, u, v, s, structure_id,
    v_u, v_v) in time order.
    """
    points = contour.points
    normals = contour.normals
    vmax = model.max_speed(points)
    if vmax == 0.0:
        warnings.warn("zero-velocity motion produces no events", stacklevel=3)
        return [], False

    step = _MAX_STEP_PX / vmax
    n_steps = max(1, math.ceil(duration / step))
    step = duration / n_steps

    pos0 = model.positions(points, 0.0)
    px = _round_array(pos0[:, 0])
    py = _round_array(pos0[:, 1])
    occupancy: dict[int, int] = {}
    for x, y in zip(px.tolist(), py.tolist()):
        k = x * KEY_M + y
        occupancy[k] = occupancy.get(k, 0) + 1

    records: list[tuple[int, int, int, int, int, float, float]] = []
    clipped = False
    cur_x = px.tolist()
    cur_y = py.tolist()
    width, height = geometry.width, geometry.height

    for n in range(n_steps):
        t0 = n * step
        t1 = (n + 1) * step
        pos1 = model.positions(points, t1)
        nx = _round_array(pos1[:, 0])
        ny = _round_array(pos1[:, 1])
        changed = np.nonzero((nx != px) | (ny != py))[0]

        if changed.size:
            # collect axis crossings inside this step, then apply in time order;
            # steps are short enough for at most one crossing per axis
            transitions: list[tuple[float, int, int, int]] = []
            for idx in changed.tolist():
                x0, y0 = pos0[idx, 0], pos0[idx, 1]
                x1, y1 = pos1[idx, 0], pos1[idx, 1]
                if nx[idx] != px[idx]:
                    boundary = max(px[idx], nx[idx]) - 0.5
                    frac = (boundary - x0) / (x1 - x0)
                    transitions.append((t0 + frac * step, idx, 0, int(nx[idx])))
                if ny[idx] != py[idx]:
                    boundary = max(py[idx], ny[idx]) - 0.5
                    frac = (boundary - y0) / (y1 - y0)
                    transitions.append((t0 + frac * step, idx, 1, int(ny[idx])))
            transitions.sort(key=lambda tr: (tr[0], tr[1], tr[2]))

            for t_cross, idx, axis, new_value in transitions:
                old_key = cur_x[idx] * KEY_M + cur_y[idx]
                if axis == 0:
                    cur_x[idx] = new_value
                else:
                    cur_y[idx] = new_value
                new_key = cur_x[idx] * KEY_M + cur_y[idx]
                count = occupancy.get(old_key, 0)
                if count <= 1:
                    occupancy.pop(old_key, None)
                else:
                    occupancy[old_key] = count - 1
                entered = occupancy.get(new_key, 0) == 0
                occupancy[new_key] = occupancy.get(new_key, 0) + 1
                if not entered:
                    continue
                eu, ev = cur_x[idx], cur_y[idx]
                if not (0 <= eu < width and 0 <= ev < height):
                    clipped = True
                    continue
                # interpolated position for velocity/normal evaluation
                frac = (t_cross - t0) / step
                pu = pos0[idx, 0] + frac * (pos1[idx, 0] - pos0[idx, 0])
                pv = pos0[idx, 1] + frac * (pos1[idx, 1] - pos0[idx, 1])
                vel_u, vel_v = model.velocity_at(pu, pv, t_cross)
                w_n = model.world_normal(normals[idx], t_cross)
                s = 1 if (w_n[0] * vel_u + w_n[1] * vel_v) >= 0 else -1
                records.append((round_half_away(t_cross * 1e6), eu, ev, s,
                                structure_id, vel_u, vel_v))
        px = nx
        py = ny
        pos0 = pos1

    return records, clipped


def generate_scene(objects: Sequence[tuple[ShapeContour, MotionModel]],
                   duration: float,
                   geometry: SensorGeometry = DEFAULT_GEOMETRY,
                   noise_rate: float = 0.0,
                   jitter_us: int = 0,
                   refractory_us: int = 0,
                   burst_size: int = 1,
                   seed: int = 0) -> tuple[EventStream, GroundTruth]:
    """Generate a multi-structure scene with per-event ground truth.

    Structures are numbered by position in `objects`.  Optional uniform
    background noise (events/s over the whole array), timestamp jitter
    (+-jitter_us), and a per-pixel refractory period; all default off.
    burst_size repeats every structure event that many times at one
    timestamp: physical sensors fire several events per edge crossing,
    and event counts comparable to recordings need this bumped to 4-6.
    """
    if not 0 < duration < math.inf:                     # NaN fails too
        raise ValueError(f"duration must be positive and finite, "
                         f"got {duration}")
    if burst_size < 1:
        raise ValueError("burst_size must be at least 1")
    for name, value in (("noise_rate", noise_rate), ("jitter_us", jitter_us),
                        ("refractory_us", refractory_us)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    if not math.isfinite(noise_rate):
        raise ValueError(f"noise_rate must be finite, got {noise_rate}")
    all_records: list[tuple[int, int, int, int, int, float, float]] = []
    clipped = False
    for sid, (contour, model) in enumerate(objects):
        records, was_clipped = _simulate_structure(
            contour, model, duration, geometry, sid)
        clipped = clipped or was_clipped
        if burst_size > 1:
            records = [r for r in records for _ in range(burst_size)]
        all_records.extend(records)

    rng = np.random.default_rng(seed)
    if noise_rate > 0:
        n_noise = int(round(noise_rate * duration))
        ts = np.sort(rng.uniform(0.0, duration, n_noise))
        us = rng.integers(0, geometry.width, n_noise)
        vs = rng.integers(0, geometry.height, n_noise)
        ss = rng.choice((-1, 1), n_noise)
        for i in range(n_noise):
            all_records.append((round_half_away(ts[i] * 1e6), int(us[i]),
                                int(vs[i]), int(ss[i]), -1, 0.0, 0.0))

    all_records.sort(key=lambda r: r[0])

    if jitter_us > 0:
        shifts = rng.integers(-jitter_us, jitter_us + 1, len(all_records))
        all_records = [(max(0, r[0] + int(shifts[i])),) + r[1:]
                       for i, r in enumerate(all_records)]
        all_records.sort(key=lambda r: r[0])

    if refractory_us > 0:
        last_kept: dict[int, int] = {}
        kept = []
        for r in all_records:
            k = r[1] * KEY_M + r[2]
            prev = last_kept.get(k)
            if prev is not None and r[0] - prev < refractory_us:
                continue
            last_kept[k] = r[0]
            kept.append(r)
        all_records = kept

    if clipped:
        warnings.warn("contour leaves the sensor frame; events clipped",
                      stacklevel=2)

    events = [Event(r[1], r[2], r[0], r[3]) for r in all_records]
    gt = GroundTruth([(r[0], r[4], r[5], r[6]) for r in all_records])
    return EventStream(geometry, events), gt

