"""Event projection along candidate flows and sparse accumulation grids.

Projecting an event along a flow (v_u, v_v) removes the motion component:
``proj(e) = (round(u - v_u*dt), round(v - v_v*dt))`` with dt relative to the
grid's reference timestamp.  Signed polarities are summed per cell; the
sharpness metric is the sum of squared cell values (accumulating s into a
cell holding c changes it by 2*c*s + s**2).  A tracking grid computes it
only when read.  Rounding is half-away-from-zero.  A grid's owner keeps
its flow and reference time.  A candidate array is stored as its two
speed axes, grid k's flow is `grid_flow(col_vu, row_vv, k)`, and batches
of events are projected onto a whole array one speed row of candidates
at a time (`grid_pairs`), the kernel that discovery's n x n array and
tracking's m x m grids share.  `grid_sums` groups each row into grid
cells as it comes, so its callers hold one row's temporaries at a
time; discovery bounds a row's size by how many events it projects at
once.

Timestamps are integer microseconds everywhere; they become float seconds
only inside the projection arithmetic.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Sequence

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


# cell keys are packed into a single int: key = x * KEY_M + y, |y| < 2**20
KEY_M = 1 << 21
_KEY_HALF = 1 << 20
# packed-key offsets of a cell's 8-neighborhood
NEIGHBORS_8 = (1, -1, KEY_M, -KEY_M, KEY_M + 1, KEY_M - 1, -KEY_M + 1,
               -KEY_M - 1)


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


def grid_flow(col_vu, row_vv, k: int) -> FlowVector:
    """Flow of grid k = j*n + i of a Cartesian array with n column speeds:
    (col_vu[i], row_vv[j]), as Python floats."""
    n = len(col_vu)
    return FlowVector(float(col_vu[k % n]), float(row_vv[k // n]))


class AccumulatorGrid:
    """Sparse signed accumulation image for one candidate flow.

    Cells live in a dict keyed by packed (x, y); entries are kept when a
    cell returns to zero so retraction can distinguish a cancelled cell
    from one never touched.  The grid's owner keeps the reference time:
    events must retract through the same reference they accumulated
    under.
    """

    __slots__ = ("cells",)

    def __init__(self):
        self.cells: dict[int, int] = {}

    @property
    def metric(self) -> int:
        """Contrast: the sum of squared cell values, computed on each read."""
        return sum(c * c for c in self.cells.values())

    def accumulate_batch(self, keys: np.ndarray, sums: np.ndarray) -> None:
        """Add a projected batch: unique packed cells, ascending, and the
        signed polarity sum of the batch in each (see `grid_images`)."""
        cells = self.cells
        if not cells:
            # untouched grid: keys are unique, build the dict in one shot
            self.cells = dict(zip(keys.tolist(), sums.tolist()))
            return
        for key, add in zip(keys.tolist(), sums.tolist()):
            cells[key] = cells.get(key, 0) + add

    def retract_batch(self, keys: np.ndarray, sums: np.ndarray) -> list[int]:
        """Exact inverse of accumulate_batch; returns the packed cells it
        touched."""
        touched = keys.tolist()
        cells = self.cells
        for key, sub in zip(touched, sums.tolist()):
            c = cells.get(key)
            if c is None:
                raise ConsistencyError(
                    f"batch retract from untouched cell {unpack_cell(key)}")
            cells[key] = c - sub
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


def event_columns(events: Sequence[Event]):
    """Split events into float64 numpy columns (u, v, t, s).

    The table is read with `np.fromiter` from the flattened event fields,
    which is several times faster than `np.array` over the tuples.
    """
    table = np.fromiter(chain.from_iterable(events), np.float64,
                        4 * len(events)).reshape(-1, 4)
    return table[:, 0], table[:, 1], table[:, 2], table[:, 3]


# The cells of all grids of a candidate array share one sorted int64 key
# space: grid k's cell `packed` (KEY_M packing) has grid key
# k * 2**43 + packed.  Packed cells lie in (-2**42, 2**42) whenever the
# KEY_M packing is valid, so grid keys order by grid, then by cell.
_K_SHIFT = 43
_HALF = 1 << 42
# grids whose keys k * 2**43 + packed all fit in int64: 2**20, so an
# n x n array has n <= 1024
MAX_GRIDS = 1 << (63 - _K_SHIFT)


def grid_edges(count: int) -> np.ndarray:
    """Grid keys at which each of `count` grids begins, and one past the
    last."""
    return (np.arange(count + 1, dtype=np.int64) << _K_SHIFT) - _HALF


def grid_pairs(us, vs, dt, col_vu, row_vv, low: np.ndarray, bits: int):
    """Project events onto every candidate of a Cartesian candidate array,
    one speed row of candidates at a time.

    Candidate k = j*n + i has flow `grid_flow(col_vu, row_vv, k)`; `dt`
    is each event's time since the reference, in seconds, and there is
    at least one event.  Yields (j, pairs) per speed row j: `pairs` is
    sorted and holds, for each (candidate i of the row, event) pair,
    (i * 2**43 + packed + 2**42) << bits | low[event], so that pairs
    group by cell and, within a cell, by `low`.  The caller keeps
    n * 2**(43 + bits) within 2**63, so that they fit in int64.

    Each axis is rounded once per column or row of the array: a row's
    pairs are the sums of its y and its columns' x, which carry the
    column offset i.  The pairs of one candidate are contiguous and share
    their high bits, so sorting each candidate's pairs sorts the row.
    """
    col_vu = np.reshape(col_vu, (-1, 1))
    # the bias, the column offsets and the shift above `low` are folded
    # into per-column constants: few numpy calls per row
    xs = _round_array(us - col_vu * dt) * (KEY_M << bits)
    xs += (np.arange(len(col_vu), dtype=np.int64)[:, None] << _K_SHIFT
           | _HALF) << bits
    xs += low
    for j, v_v in enumerate(row_vv):
        pairs = xs + (_round_array(vs - v_v * dt) << bits)
        pairs.sort()
        yield j, pairs.ravel()
        del pairs                       # not kept while the next is made


def grid_sums(us, vs, dt, ss, col_vu, row_vv):
    """Per speed row j of `grid_pairs`: (j, keys, sums), the grid keys
    its grids touch, ascending, and the signed sum of the events'
    polarities in each.

    An event counts by the sign of its polarity.  The rows come in grid
    order, so the caller consumes each row's cells while only that
    row's temporaries are alive.
    """
    n = len(col_vu)
    for j, pairs in grid_pairs(us, vs, dt, col_vu, row_vv, ss > 0, 1):
        cells = pairs >> 1
        starts = group_starts(cells)
        keys = cells[starts] + ((j * n << _K_SHIFT) - _HALF)
        del cells
        # the +-1 polarity terms, in place: the pairs are not read again
        np.bitwise_and(pairs, 1, out=pairs)
        pairs *= 2
        pairs -= 1
        sums = np.add.reduceat(pairs, starts)
        del pairs, starts               # not kept while the caller works
        yield j, keys, sums


def grid_images(columns, t_ref_us: int, col_vu, row_vv):
    """Per candidate k = j*n + i of a Cartesian array, the packed cells
    that event `columns` (from `event_columns`) project to relative to
    `t_ref_us`, ascending, and the signed polarity sum in each.

    Each grid is cut from the `grid_sums` row that holds it."""
    us, vs, ts, ss = columns
    if not len(us):
        empty = np.zeros(0, dtype=np.int64)
        return [(empty, empty)] * (len(col_vu) * len(row_vv))
    n = len(col_vu)
    edges = grid_edges(n * len(row_vv))
    images = []
    for j, keys, sums in grid_sums(us, vs, (ts - t_ref_us) * 1e-6, ss,
                                   col_vu, row_vv):
        bounds = np.searchsorted(keys, edges[j * n:j * n + n + 1]).tolist()
        # each grid key less its grid's offset: the packed cell
        cells = keys - ((keys + _HALF) >> _K_SHIFT << _K_SHIFT)
        images += [(cells[lo:hi], sums[lo:hi])
                   for lo, hi in zip(bounds, bounds[1:])]
    return images
