"""Event projection along candidate flows and sparse accumulation grids.

Projecting an event along a flow (v_u, v_v) removes the motion component:
``proj(e) = (round(u - v_u*dt), round(v - v_v*dt))`` with dt relative to the
grid's reference timestamp.  Signed polarities are summed per cell; the
sharpness metric is the sum of squared cell values (accumulating s into a
cell holding c changes it by 2*c*s + s**2).  A tracking grid computes it
only when read.  Rounding is half-away-from-zero.  A grid's owner keeps
its flow and reference time.  A candidate array is stored as its two
speed axes, grid k's flow is `grid_flow(col_vu, row_vv, k)`, and batches
of events are projected onto a whole array in one pass, a block of
candidates at a time (`grid_pairs`), which discovery's n x n array and
tracking's m x m grids share.  `grid_sums` groups each block into grid
cells as it comes, so its callers hold one block's temporaries at a
time.

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
# (candidate, event) pairs sorted per block.  Each block-sized int64
# temporary (the pairs, their cells, a drain's running metrics) takes
# 8 * 2**16 bytes = 512 KiB, and a drain holds about seven at once.  At
# 2**17 a noise drain's temporaries were about as large as the store;
# at 2**15 fills of more than 1,638 events split the speed rows of the
# default 20 x 20 array over blocks, and a fill's temporaries, which
# then include a split row's parts, no longer stay within six blocks
_BLOCK_PAIRS = 1 << 16


def grid_edges(count: int) -> np.ndarray:
    """Grid keys at which each of `count` grids begins, and one past the
    last."""
    return (np.arange(count + 1, dtype=np.int64) << _K_SHIFT) - _HALF


def grid_pairs(us, vs, dt, col_vu, row_vv, low: np.ndarray, bits: int):
    """Project events onto every candidate of a Cartesian candidate array,
    a block of candidates at a time.

    Candidate k has flow `grid_flow(col_vu, row_vv, k)`; `dt` is each
    event's time since the reference, in seconds, and there is at least
    one event.  Yields (k0, k1, pairs) per block of candidates
    k0..k1-1: `pairs` is sorted and holds, for each (candidate k, event)
    pair, ((k - k0) * 2**43 + packed + 2**42) << bits | low[event], so
    that pairs group by cell and, within a cell, by `low`.

    Each axis is rounded once per column or row of the array.  A block
    is whole rows, or part of one row, and its pairs are the sums of its
    rows' y and its columns' x, which carry the block offset k - k0
    between them.  The pairs of one candidate are contiguous and share
    their high bits, so sorting each candidate's pairs sorts the block.
    """
    col_vu = np.reshape(col_vu, (-1, 1))
    row_vv = np.reshape(row_vv, (-1, 1))
    n, m, b = len(col_vu), len(row_vv), len(us)
    cols = min(n, max(1, _BLOCK_PAIRS // b))
    rows = max(1, _BLOCK_PAIRS // (n * b)) if cols == n else 1
    # the bias, the block offsets and the shift above `low` are folded
    # into per-column and per-row constants: few numpy calls per pass
    xs = _round_array(us - col_vu * dt) * (KEY_M << bits)
    xs += np.array([(_HALF + (i % cols << _K_SHIFT)) << bits
                    for i in range(n)])[:, None]
    xs += low
    ys = _round_array(vs - row_vv * dt) << bits
    ys += np.array([j % rows * n << (_K_SHIFT + bits)
                    for j in range(m)])[:, None]
    for j0 in range(0, m, rows):
        j1 = min(j0 + rows, m)
        for i0 in range(0, n, cols):
            i1 = min(i0 + cols, n)
            pairs = ys[j0:j1, None] + xs[None, i0:i1]
            pairs.sort()
            yield j0 * n + i0, (j1 - 1) * n + i1, pairs.ravel()


def grid_sums(us, vs, dt, ss, col_vu, row_vv):
    """Per block of candidates k0..k1-1 of `grid_pairs`: (k0, k1, keys,
    sums), the grid keys the block's grids touch, ascending, and the
    signed sum of the events' polarities in each.

    An event counts by the sign of its polarity.  A grid lies in one
    block, and the blocks come in grid order, so the caller consumes
    each block's cells while only that block's temporaries are alive.
    """
    for k0, k1, pairs in grid_pairs(us, vs, dt, col_vu, row_vv, ss > 0, 1):
        cells = pairs >> 1
        starts = group_starts(cells)
        keys = cells[starts] + ((k0 << _K_SHIFT) - _HALF)
        sums = np.add.reduceat((pairs & 1) * 2 - 1, starts)
        del cells, starts               # not kept while the caller works
        yield k0, k1, keys, sums


def grid_images(columns, t_ref_us: int, col_vu, row_vv):
    """Per candidate k = j*n + i of a Cartesian array, the packed cells
    that event `columns` (from `event_columns`) project to relative to
    `t_ref_us`, ascending, and the signed polarity sum in each.

    Each grid is cut from the `grid_sums` block that holds it."""
    us, vs, ts, ss = columns
    if not len(us):
        empty = np.zeros(0, dtype=np.int64)
        return [(empty, empty)] * (len(col_vu) * len(row_vv))
    images = []
    for k0, k1, keys, sums in grid_sums(us, vs, (ts - t_ref_us) * 1e-6, ss,
                                        col_vu, row_vv):
        bounds = np.searchsorted(keys, grid_edges(k1)[k0:]).tolist()
        # each grid key less its grid's offset: the packed cell
        cells = keys - ((keys + _HALF) >> _K_SHIFT << _K_SHIFT)
        images += [(cells[lo:hi], sums[lo:hi])
                   for lo, hi in zip(bounds, bounds[1:])]
    return images
