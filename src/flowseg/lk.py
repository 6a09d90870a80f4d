"""Per-event plane-fit flow on timestamp surfaces.

Each polarity keeps a most-recent-timestamp surface.  For every event
the window around its pixel is fit with a plane t = a*x + b*y + c over
the valid (previously written) pixels; the gradient (a, b) of that plane
is the inverse velocity, so the estimate is (a, b) / (a^2 + b^2).  The
fit is refused when too few pixels are valid, when the valid pixels are
too collinear for a stable solve, or when the surface is flat.  The
window sees only one polarity, so the two edges of a thin structure do
not contaminate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .engine import UNLABELED, FlowLabeledEvent
from .events import Event, GeometryError, SensorGeometry, DEFAULT_GEOMETRY


@dataclass
class LKConfig:
    window_half: int = 3          # 7 x 7 window
    min_valid: int = 10           # valid pixels required for a fit

    def __post_init__(self):
        if self.window_half < 1:
            raise ValueError("window_half must be at least 1")
        if self.min_valid < 3:
            raise ValueError("min_valid must be at least 3 for a plane fit")


class TimestampSurfaces:
    """One most-recent-timestamp image per polarity, seconds, nan = never."""

    def __init__(self, geometry: SensorGeometry = DEFAULT_GEOMETRY):
        self.geometry = geometry
        shape = (geometry.height, geometry.width)
        self.positive = np.full(shape, np.nan)
        self.negative = np.full(shape, np.nan)

    def surface_for(self, polarity: int) -> np.ndarray:
        return self.positive if polarity > 0 else self.negative

    def update(self, e: Event) -> None:
        if not self.geometry.contains(e.u, e.v):
            raise GeometryError(
                f"event at ({e.u}, {e.v}) outside {self.geometry.width}x"
                f"{self.geometry.height}")
        self.surface_for(e.s)[e.v, e.u] = e.t * 1e-6


_EIG_FLOOR = 0.5      # min eigenvalue of the position spread
_GRAD_FLOOR = 1e-8    # |grad t|^2 below this is a flat surface


def fit_plane_flow(surface: np.ndarray, u: int, v: int,
                   cfg: LKConfig) -> Optional[tuple[float, float]]:
    """Flow at (u, v) from the surrounding window, or None if unsolvable."""
    h, w = surface.shape
    half = cfg.window_half
    u0, u1 = max(0, u - half), min(w, u + half + 1)
    v0, v1 = max(0, v - half), min(h, v + half + 1)
    window = surface[v0:v1, u0:u1]
    valid = np.isfinite(window)
    n = int(valid.sum())
    if n < cfg.min_valid:
        return None
    ys, xs = np.nonzero(valid)
    ts = window[ys, xs]
    x = xs + (u0 - u)      # window coords relative to the event pixel
    y = ys + (v0 - v)
    xm = x.mean()
    ym = y.mean()
    tm = ts.mean()
    xc = x - xm
    yc = y - ym
    tc = ts - tm
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    sxy = float(xc @ yc)
    # smaller eigenvalue of the centered position scatter
    half_tr = 0.5 * (sxx + syy)
    root = math.sqrt(max(0.0, (0.5 * (sxx - syy)) ** 2 + sxy * sxy))
    if half_tr - root < _EIG_FLOOR:
        return None
    det = sxx * syy - sxy * sxy
    sxt = float(xc @ tc)
    syt = float(yc @ tc)
    a = (syy * sxt - sxy * syt) / det
    b = (sxx * syt - sxy * sxt) / det
    g2 = a * a + b * b
    if g2 < _GRAD_FLOOR:
        return None
    return a / g2, b / g2


def run_lk(events: Iterable[Event],
           geometry: SensorGeometry = DEFAULT_GEOMETRY,
           cfg: Optional[LKConfig] = None) -> list[FlowLabeledEvent]:
    """Estimate flow for every event; unsolvable fits get nan flow.

    Output rows use the labeled-event format so the evaluation tooling
    applies unchanged: solved fits carry segment 0, unsolvable ones the
    unlabeled marker.
    """
    cfg = cfg or LKConfig()
    surfaces = TimestampSurfaces(geometry)
    out = []
    for ev in events:
        surfaces.update(ev)
        fit = fit_plane_flow(surfaces.surface_for(ev.s), ev.u, ev.v, cfg)
        if fit is None:
            out.append(FlowLabeledEvent(ev.u, ev.v, ev.t, ev.s, UNLABELED,
                                        math.nan, math.nan))
        else:
            out.append(FlowLabeledEvent(ev.u, ev.v, ev.t, ev.s, 0,
                                        fit[0], fit[1]))
    return out
