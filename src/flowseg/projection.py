"""Event projection along candidate flows and sparse accumulation grids.

Projecting an event along a flow (v_u, v_v) removes the motion component:
``proj(e) = (round(u - v_u*dt), round(v - v_v*dt))`` with dt relative to the
grid's reference timestamp.  Signed polarities are summed per cell; the
sharpness metric is the sum of squared cell values and is maintained
incrementally (accumulating s into a cell holding c changes the metric by
2*c*s + s**2).  Rounding is half-away-from-zero.

Timestamps are integer microseconds everywhere; they become float seconds
only inside the projection arithmetic.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import math
import numpy as np

from .events import Event


class ConsistencyError(Exception):
    """Retraction from a cell that never accumulated anything."""


class FlowVector(NamedTuple):
    v_u: float
    v_v: float

    @property
    def speed(self) -> float:
        return math.hypot(self.v_u, self.v_v)

    @property
    def normal(self) -> tuple[float, float, float]:
        # direction of constant-brightness displacement in (u, v, t) space
        return (self.v_u, self.v_v, 1.0)


# cell keys are packed into a single int: key = x * KEY_M + y, |y| < 2**20
KEY_M = 1 << 21
_KEY_HALF = 1 << 20


def pack_cell(x: int, y: int) -> int:
    return x * KEY_M + y


def unpack_cell(key: int) -> tuple[int, int]:
    q, r = divmod(key, KEY_M)
    if r >= _KEY_HALF:
        return q + 1, r - KEY_M
    return q, r


def round_half_away(z: float) -> int:
    # int() truncates toward zero, so shifting by +-0.5 rounds half away
    return int(z + 0.5) if z >= 0.0 else -int(0.5 - z)


def _round_array(z: np.ndarray) -> np.ndarray:
    return np.trunc(z + np.copysign(0.5, z)).astype(np.int64)


def cell_key(u, v, dt: float, v_u: float, v_v: float) -> int:
    """Packed cell of (u, v) projected back `dt` seconds along (v_u, v_v)."""
    return (round_half_away(u - v_u * dt) * KEY_M
            + round_half_away(v - v_v * dt))


def project_event(e: Event, flow: FlowVector, t_ref_us: int) -> tuple[int, int]:
    """Projected cell of `e` along `flow` relative to `t_ref_us`."""
    dt = (e.t - t_ref_us) * 1e-6
    return (round_half_away(e.u - flow[0] * dt),
            round_half_away(e.v - flow[1] * dt))


class AccumulatorGrid:
    """Sparse signed accumulation image for one candidate flow.

    Cells live in a dict keyed by packed (x, y); entries are kept when a
    cell returns to zero so retraction can distinguish a cancelled cell
    from one never touched.  `t_ref_us` is frozen at construction: events
    must retract through the same reference they accumulated under.
    """

    __slots__ = ("cells", "metric", "t_ref_us")

    def __init__(self, t_ref_us: int):
        self.cells: dict[int, int] = {}
        self.metric: int = 0
        self.t_ref_us = t_ref_us

    def cell_of(self, e: Event, flow) -> int:
        return cell_key(e.u, e.v, (e.t - self.t_ref_us) * 1e-6,
                        flow[0], flow[1])

    def accumulate(self, e: Event, flow) -> int:
        """Add one event; returns the metric delta."""
        key = self.cell_of(e, flow)
        c = self.cells.get(key, 0)
        self.cells[key] = c + e.s
        delta = 2 * c * e.s + 1
        self.metric += delta
        return delta

    def retract(self, e: Event, flow) -> int:
        """Exact inverse of accumulate; returns the metric delta."""
        key = self.cell_of(e, flow)
        c = self.cells.get(key)
        if c is None:
            raise ConsistencyError(
                f"retract from untouched cell {unpack_cell(key)}")
        self.cells[key] = c - e.s
        delta = -2 * c * e.s + 1
        self.metric += delta
        return delta

    def accumulate_batch(self, us, vs, ts, ss, flow) -> None:
        """Vectorized accumulate of event columns (numpy arrays)."""
        keys, sums = _project_sums(us, vs, ts, ss, flow, self.t_ref_us)
        cells = self.cells
        if not cells:
            # untouched grid: keys are unique, build the dict in one shot
            self.cells = dict(zip(keys.tolist(), sums.tolist()))
            self.metric += int(np.dot(sums, sums))
            return
        metric = self.metric
        for key, add in zip(keys.tolist(), sums.tolist()):
            c = cells.get(key, 0)
            cells[key] = c + add
            metric += add * (2 * c + add)
        self.metric = metric

    def retract_batch(self, us, vs, ts, ss, flow) -> list[int]:
        """Vectorized retract; returns the packed cells it touched."""
        keys, sums = _project_sums(us, vs, ts, ss, flow, self.t_ref_us)
        touched = keys.tolist()
        cells = self.cells
        metric = self.metric
        for key, sub in zip(touched, sums.tolist()):
            c = cells.get(key)
            if c is None:
                raise ConsistencyError(
                    f"batch retract from untouched cell {unpack_cell(key)}")
            cells[key] = c - sub
            metric += sub * (sub - 2 * c)
        self.metric = metric
        return touched

    def nonzero_cells(self) -> set[int]:
        return {k for k, c in self.cells.items() if c != 0}


def project_keys(us, vs, dt, v_u, v_v):
    """Packed projected cells of event columns along one flow (v_u, v_v).

    `dt` is each event's time since the reference, in seconds; one key
    per event.
    """
    return _round_array(us - v_u * dt) * KEY_M + _round_array(vs - v_v * dt)


def group_starts(ordered: np.ndarray) -> np.ndarray:
    """Indices at which a new value begins in a sorted, non-empty array."""
    new = np.empty(len(ordered), dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    return np.flatnonzero(new)


def _project_sums(us, vs, ts, ss, flow, t_ref_us):
    """Project event columns and reduce to (unique packed keys, signed sums).

    Keys come back sorted ascending.
    """
    keys = project_keys(us, vs, (ts - t_ref_us) * 1e-6, flow[0], flow[1])
    if keys.size == 0:
        return keys, np.zeros(0, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    starts = group_starts(sk)
    sums = np.add.reduceat(ss[order], starts).astype(np.int64)
    return sk[starts], sums


def event_columns(events: Sequence[Event]):
    """Split events into float64 numpy columns (u, v, t, s)."""
    table = np.array(events, dtype=np.float64)
    if table.size == 0:
        empty = np.zeros(0, dtype=np.float64)
        return empty, empty, empty, empty
    return table[:, 0], table[:, 1], table[:, 2], table[:, 3]


def metric_bruteforce(events: Iterable[Event], flow, t_ref_us: int) -> int:
    """Rebuild the accumulation image from scratch and sum squared cells.

    Oracle for the incremental metric.  It writes the projection and the
    half-away rounding out itself rather than calling `cell_key`, so that
    a fault in the shared kernel cannot hide behind the oracle.
    """
    f: dict[int, int] = {}
    vu, vv = flow[0], flow[1]
    for u, v, t, s in events:
        dt = (t - t_ref_us) * 1e-6
        x = u - vu * dt
        y = v - vv * dt
        xi = int(x + 0.5) if x >= 0.0 else -int(0.5 - x)
        yi = int(y + 0.5) if y >= 0.0 else -int(0.5 - y)
        key = xi * KEY_M + yi
        f[key] = f.get(key, 0) + s
    return sum(c * c for c in f.values())
