"""Flow initialization: an n x n array of perturbed projections.

A candidate array (`MetricArray`) is its two speed axes, and it only
scores: grid k = j*n + i holds the events projected along (col_vu[i],
row_vv[j]), and its metric is their contrast.  `FlowPlane` lays out its
top array once, a tan-mapped angular grid around zero flow
(`axis_speeds`); every incoming event is accumulated into all n*n
grids and the argmax is tracked per event.  Events are accumulated in
batches: numpy projects a slice of a batch onto all candidates and
groups the projections by sorting, one speed row of candidates at a
time.  A run of identical consecutive rows (the same u, v, t and
signed row: one burst of events, or of their retractions) projects to
the same cell of every grid, so it is projected once, as one row
weighted by its length; the replay of the argmax after each event
still keeps one column per row.  The cells of each speed row's n grids
share one sorted row store (int64 keys, int32 values), and a batch
looks up, merges and compacts a row store right after projecting onto
it, one row (about 1/n of the cells) at a time, once per slice.  Speed
rows share no store and no metric, so on a machine with two CPUs a
large enough batch splits each slice's rows between the calling thread
and a worker thread opened for that slice alone (`MetricArray._apply`).
A noise flush rides the next batch as retractions at its own place in
it.  Once the argmax has been stable for p_stable consecutive events,
the events backing the winning projection are extracted (statistical
threshold over cell values plus 8-connected flood fill), and
`refined_flow` sharpens their flow through `_DEPTH_MAX` levels, each a
`refine` over axes it lays out around the previous level's flow, with
a range `_RANGE_SHRINK` times narrower.  The final association seeds a
tracking plane; everything else is re-projected into a fresh top
array.  The drained array is freed first, and these rebuilds
(`MetricArray.fill`) take the same slices and kernel as a drain
without the replay.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .events import Event
from .projection import (_HALF, _K_SHIFT, MAX_GRIDS, NEIGHBORS_8,
                         FlowVector, event_columns, grid_edges, grid_flow,
                         grid_pairs, group_starts, project_keys, runs)


class AssociationError(Exception):
    """No seed cells above threshold, or an empty winning grid."""


@dataclass
class FlowPlaneConfig:
    n: int = 20                    # array is n x n candidate flows
    v_ref: float = 100.0           # px/s mapped to 45 deg
    p_stable: int = 500            # consecutive stable-argmax events
    noise_lifespan_s: float = 0.5  # unassociated events older than this flush

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.n > _N_MAX:
            raise ValueError(f"n must be at most {_N_MAX}: "
                             f"the keys of n*n grids must fit in int64")
        if self.p_stable < 1:
            raise ValueError("p_stable must be at least 1")
        for name in ("v_ref", "noise_lifespan_s"):
            if not 0 < getattr(self, name) < math.inf:     # NaN fails too
                raise ValueError(f"{name} must be positive and finite")


# each axis of the top array spans pi radians of angle, all of the
# tangent's (-pi/2, pi/2), so that it reaches every speed, however fast
_ANGULAR_RANGE = math.pi
# each refinement level spans 1/9 of its parent's range: 2.2 of the
# parent's cells around its argmax at n = 20, each cell 9x finer
_RANGE_SHRINK = 9.0
# refinement levels below the top array: the last one's cells are
# 9**3 = 729x finer in angle, about 0.02 px/s at v_ref = 100 and n = 20
_DEPTH_MAX = 3
# SOFAS's seed threshold w: a seed cell's |value| exceeds mu + w * sigma
# of the winning grid's nonzero cells (at 0, any cell above the mean)
_SEED_W = 2.0
# the most speeds an axis holds: the keys of n*n grids must fit in int64
_N_MAX = math.isqrt(MAX_GRIDS)


def axis_speeds(center: float, angular_range: float,
                cfg: FlowPlaneConfig) -> list[float]:
    """The n speeds of one array axis: center + v_ref*tan of each cell
    angle."""
    return [center + cfg.v_ref * math.tan(
                angular_range * ((i + 0.5) / cfg.n - 0.5))
            for i in range(cfg.n)]


# (candidate, event) pairs per kernel block: a drain or a fill projects
# at most _BLOCK_PAIRS // n events or retractions at a time, one speed
# row of n candidates per block, and a slice may end inside a flush.
# Each block-sized int64 temporary (the pairs, their cells, a drain's
# running metrics) takes 8 * 2**16 bytes = 512 KiB, and a drain holds
# about seven at once; at 2**17 a noise drain's temporaries were about
# as large as the store.  The bound also keeps the sort keys of
# `grid_pairs`, n * 2**(43 + bits) with 2**bits < 2 * _BLOCK_PAIRS // n,
# within int64
_BLOCK_PAIRS = 1 << 16
# events a MetricArray may hold: a stored cell is int32, and its value
# is at most the number of events held
_HELD_MAX = np.iinfo(np.int32).max
# a grid key holds a projected column only below 2**21 px (`grid_pairs`),
# and an array keeps its first event's t_ref: once its fastest candidate
# would carry the oldest held event this far from t_ref (412 s at the
# defaults), a drain rebuilds the array from its held events, which
# moves t_ref to the oldest of them.  Held events that themselves span
# 2**21 px are not caught
_REBUILD_PX = 1 << 19
_time = itemgetter(2)
# mean cells per row store from which a drain's slice splits its speed
# rows between two threads.  Timed inside whole `Engine.run` passes over
# perfbench's scenes (two vCPUs, medians of six alternating runs), the
# drains of the fast hexagon, 12k-20k cells a row, took as long on two
# threads as on one (1.20 against 1.18 s) while the rest of the run
# slowed by 10%; drains above 24k cells a row took 0.67 (noise) to 0.79
# (bars) of their serial time
_THREAD_ROW_CELLS = 24_000


class _Slice(NamedTuple):
    """One slice of the rows of `_apply`, as `_drain_rows` takes it, in
    one form whether or not its rows repeat.  Each run of identical
    rows (`projection.runs`, at least one row) is projected once, at its
    first row, and weighs its length times its sign; its rows share
    that sign.  The replay keeps one column per row: the d-th
    row after a run's first finds its cell d signs further along, so its
    metric delta is the first row's plus 2 * d."""
    us: np.ndarray          # u, v and dt of each run's first row
    vs: np.ndarray
    dt: np.ndarray
    first: np.ndarray       # each run's first row
    weights: np.ndarray     # per row, int32: a run's weight at its first
    copies: np.ndarray      # the rows that repeat the row before them
    sources: np.ndarray     # the first row of each copy's run
    steps: np.ndarray       # 2 * (copy - source), int64
    compact: bool           # drop the row stores' 0 cells after merging

    @classmethod
    def of(cls, us, vs, dt, signs, compact: bool) -> "_Slice":
        first, run_weights = runs(us, vs, dt, signs)
        weights = np.zeros(len(signs), dtype=np.int32)
        weights[first] = run_weights
        # a run's later rows weigh 0
        copies = np.flatnonzero(weights == 0)
        sources = first[np.searchsorted(first, copies, side="right") - 1]
        steps = 2 * (copies - sources)
        return cls(us[first], vs[first], dt[first], first, weights, copies,
                   sources, steps, compact)


def _running_argmax(b: int, replay: bool):
    """The argmax after each of b rows and its metric, before any grid
    is applied; (None, None) without the replay."""
    if not replay:
        return None, None
    return np.zeros(b, dtype=np.int64), np.full(b, -1, dtype=np.int64)


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity on this platform
        return os.cpu_count() or 1


class MetricArray:
    """n x n sparse accumulation grids sharing one event set.

    The array is its two speed axes, `col_vu` and `row_vv`, n speeds
    each in any order, kept as read-only float64 copies; the caller
    lays them out.  Grid k = j*n + i (row-major) has flow
    `grid_flow(col_vu, row_vv, k)`, and the argmax ties break to the
    lowest (j, i).  All grids share t_ref, frozen at the first event.
    Cells are kept in n sorted row stores, one per speed row: row store
    j holds the grid keys (`row_keys[j]`, int64; `projection.grid_edges`)
    of grids j*n .. j*n + n - 1 and their values (`row_values[j]`,
    int32), 12 bytes a cell.  A value is at most the number of events
    held; the metrics and every delta to them are int64.  A drain
    (`apply_batch`) and a fill write the array by one path (`_apply`);
    a fill only skips the replay of the argmax after each event.  It
    writes every row store, one at a time: each lookup, merge and
    compaction runs over about 1/n of the cells, while they are in
    cache.  A row store takes one merge per slice (`_insert`).  A cell
    may hold 0 until the next batch that retracts events compacts its
    row.  An event counts by the sign of its polarity, and a run of k
    identical events counts once, by k times that sign.  `held` is in
    time order.  No two speed rows share a store or a metric, so a
    drain or a fill may write the lower half of the rows on the calling
    thread while a worker thread, which lives for one slice, writes the
    upper half; every other method runs on the calling thread alone.
    """

    def __init__(self, col_vu: Sequence[float], row_vv: Sequence[float]):
        self.n = n = len(col_vu)
        if len(row_vv) != n or not 0 < n <= _N_MAX:
            raise ValueError(f"the axes must hold 1 to {_N_MAX} speeds each,"
                             f" got {n} and {len(row_vv)}")
        axes = np.array([col_vu, row_vv], dtype=np.float64)
        axes.flags.writeable = False
        self.col_vu, self.row_vv = axes
        self._edges = grid_edges(n * n)
        self.row_keys = [np.zeros(0, dtype=np.int64) for _ in range(n)]
        self.row_values = [np.zeros(0, dtype=np.int32) for _ in range(n)]
        self._metrics = np.zeros(n * n, dtype=np.int64)
        self.held: list[Event] = []
        self.t_ref_us: Optional[int] = None

    def __len__(self) -> int:
        return len(self.held)

    @property
    def metrics(self) -> list[int]:
        return self._metrics.tolist()

    @property
    def argmax_index(self) -> Optional[int]:
        """The grid of greatest metric, ties to the lowest index; None
        while the array holds no events."""
        return int(np.argmax(self._metrics)) if self.held else None

    def grid(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Grid k's stored cells: packed cell keys ascending, and values."""
        j = k // self.n
        keys = self.row_keys[j]
        lo, hi = np.searchsorted(keys, self._edges[k:k + 2])
        return keys[lo:hi] - (k << _K_SHIFT), self.row_values[j][lo:hi]

    def _columns(self, events):
        """Event columns (u, v, seconds since t_ref, s); sets t_ref."""
        us, vs, ts, ss = event_columns(events)
        if self.t_ref_us is None:
            self.t_ref_us = events[0].t
        return us, vs, (ts - self.t_ref_us) * 1e-6, ss

    def _lookup(self, j: int, keys: np.ndarray, adds: np.ndarray,
                old: Optional[np.ndarray] = None):
        """Add `adds` to those of the cells `keys` (ascending, all in row
        j) that row store j holds, in place, and write each one's value
        before into `old`, if given (a cell not stored keeps its 0
        there).  Returns the cells not stored: their keys, their adds and
        where they go in the store (None when the store is empty)."""
        stored, values = self.row_keys[j], self.row_values[j]
        if not len(stored):
            return keys, adds, None
        pos = np.searchsorted(stored, keys)
        hit = stored.take(pos, mode="clip") == keys
        hit_at = pos[hit]
        if old is not None:
            old[hit] = values[hit_at]
        values[hit_at] += adds[hit]
        miss = np.flatnonzero(~hit)
        pos = pos[miss]                 # freed before the other two
        return keys[miss], adds[miss], pos

    def _insert(self, j: int, missing: list, compact: bool) -> None:
        """Merge the cells that `_lookup` found missing from row store j
        into the store in one pass, and with `compact` then drop its
        cells that hold 0.  `missing` is a one-element list of what
        `_lookup` returned; it is popped, so that the caller holds no
        reference to those cells.  Each merged array replaces the old
        one as soon as it is built, and the missing cells are dropped
        before the compaction, so no old row waits beside its merged and
        compacted copies.  The one place a row store is replaced."""
        keys, adds, pos = missing.pop()
        if pos is None:                 # an empty store: the cells are it
            self.row_keys[j], self.row_values[j] = keys, adds
        elif len(pos):
            new = np.add(pos, np.arange(len(pos)), out=pos)
            size = len(self.row_keys[j]) + len(new)
            kept = np.ones(size, dtype=bool)
            kept[new] = False
            # where the stored cells go, worked out once for both arrays:
            # scattering by index took 355 against 637 us for
            # boolean-mask assignment (55k stored + 8.5k new cells)
            moved = np.flatnonzero(kept)
            del kept
            merged = np.empty(size, dtype=np.int64)
            merged[new] = keys
            merged[moved] = self.row_keys[j]
            self.row_keys[j] = merged
            merged = np.empty(size, dtype=np.int32)
            merged[new] = adds
            merged[moved] = self.row_values[j]
            self.row_values[j] = merged
            del keys, adds, pos, new, moved, merged
        if compact:
            nonzero = np.flatnonzero(self.row_values[j])
            self.row_keys[j] = self.row_keys[j].take(nonzero)
            self.row_values[j] = self.row_values[j].take(nonzero)

    def apply_batch(self, events: Sequence[Event],
                    flushes: Sequence[tuple[int, int]] = ()
                    ) -> tuple[np.ndarray, list[Optional[int]]]:
        """Apply one ordered batch: accumulate `events` in order and, at
        each (at, count) of `flushes` (ascending `at`), once the first `at`
        of them are in, retract the `count` oldest events still held.

        Returns the argmax after each event, and after each flush (None
        when the flush empties the array), as applying one event or one
        flush at a time would (`_apply`, with the replay)."""
        return self._apply(events, flushes, True)

    def fill(self, events: Sequence[Event]) -> None:
        """Accumulate an event list into the array (order preserved for
        held): `apply_batch` without the replay, so no argmax is kept
        per event and after the last slice the metric of each grid is
        set to the sum of its cells' squares."""
        self._apply(events, (), False)

    def _apply(self, events: Sequence[Event],
               flushes: Sequence[tuple[int, int]], replay: bool):
        """The one write path of the array: `apply_batch`'s batch, and
        with `replay` its argmax after each event and each flush.

        The events and retractions are the rows of the kernel, in order,
        taken in consecutive slices of at most _BLOCK_PAIRS // n rows;
        each slice writes its cells to the row stores before the next
        one looks them up.  A slice projects, sorts, groups, sums and
        looks up one pair per (candidate, run of identical rows),
        weighted by the run's length times its sign (`_Slice`); a
        retraction and its event, or two polarities, are never one run.
        The replay of each grid's metric keeps one column per row, so
        the argmax after each row is that of one row at a time; without
        it, the metrics are summed from the row stores after the last
        slice.  A kernel block is one speed row of such pairs: its cells
        are looked up and added to the cells its store holds, and once
        the block's temporaries are freed its new cells go into the
        store in one merge, so a slice merges into each row store once.
        If the batch retracted anything, the last slice compacts each
        row store right after its merge, dropping the cells that hold
        0.  A retraction from a cell no longer stored reads it as 0:
        its events had cancelled.

        A slice takes its speed rows on two threads when (a) the process
        may run on at least two CPUs, (b) its two blocks in flight fit
        in one block's budget (2 * rows * n <= _BLOCK_PAIRS) and (c) the
        row stores hold at least `_THREAD_ROW_CELLS` cells a row on
        average; otherwise it takes them in order on the calling thread.
        On two threads the calling thread takes rows [0, n // 2) and a
        worker thread, opened for that slice and closed before the next,
        rows [n // 2, n), each in row order with its own running argmax;
        the upper half's replaces the lower's only where strictly
        greater, so ties still go to the lowest grid and the result is
        the serial one.  No thread outlives the call, and an exception
        from either half propagates once both have finished.

        Stored cells are int32 and metrics int64.  A cell's value is at
        most the number of events held, so a batch after which more than
        2**31 - 1 would be held raises ValueError before any work.
        """
        held = self.held
        if len(held) + len(events) > _HELD_MAX:
            raise ValueError(
                f"{len(held) + len(events)} events would be held, more "
                f"than the {_HELD_MAX} an int32 cell can count")
        retired = sum(count for _, count in flushes)
        stale = held[:retired] + list(events[:max(0, retired - len(held))])
        rows: list[Event] = []
        ends, emptied = [], []      # each flush's last row; nothing left?
        at = gone = 0
        for pos, count in flushes:
            rows += events[at:pos]
            rows += stale[gone:gone + count]
            at, gone = pos, gone + count
            ends.append(len(rows) - 1)
            emptied.append(gone == len(held) + pos)
        rows += events[at:]
        if not rows:
            return np.zeros(0, dtype=np.int64), []
        retract = np.zeros(len(rows), dtype=bool)
        for end, (_, count) in zip(ends, flushes):
            retract[end + 1 - count:end + 1] = True
        us, vs, dt, ss = self._columns(rows)
        sign = np.where((ss > 0) != retract, np.int32(1), np.int32(-1))
        best, best_metric = _running_argmax(len(rows), replay)
        n = self.n
        step = max(1, _BLOCK_PAIRS // n)
        for r0 in range(0, len(rows), step):
            r1 = min(r0 + step, len(rows))
            compact = bool(retired) and r1 == len(rows)
            kernel = _Slice.of(us[r0:r1], vs[r0:r1], dt[r0:r1], sign[r0:r1],
                               compact)
            # views: the argmax after each of the slice's rows
            top_index, top_so_far = ((best[r0:r1], best_metric[r0:r1])
                                     if replay else (None, None))
            if not self._two_threads(r1 - r0):
                self._drain_rows(0, n, kernel, top_index, top_so_far)
                continue
            # imported here: imported with this module, it made
            # perfbench's `noise` set-up 10% slower (median 12.7 against
            # 14.0 ms over 15 passes each), though no thread had started
            from concurrent.futures import ThreadPoolExecutor
            # the worker lives for this slice alone: leaving the block
            # waits for it, and no thread outlives the call
            with ThreadPoolExecutor(1) as worker:
                upper = worker.submit(self._drain_rows, n // 2, n, kernel,
                                      *_running_argmax(r1 - r0, replay))
                self._drain_rows(0, n // 2, kernel, top_index, top_so_far)
            upper_index, upper_metric = upper.result()
            if replay:
                # strict: a tie keeps the lower half's lower index
                better = upper_metric > top_so_far
                top_index[better] = upper_index[better]
                top_so_far[better] = upper_metric[better]
        held.extend(events)
        del held[:retired]
        if replay:
            return best[~retract], [None if empty else int(best[end])
                                    for end, empty in zip(ends, emptied)]
        for j in range(n):
            self._metrics[j * n:j * n + n] = self._grid_squares(j)

    def _two_threads(self, b: int) -> bool:
        """Whether a slice of b rows takes its speed rows on two threads:
        the process may run on two CPUs, the two blocks in flight fit in
        one block's budget, and the row stores are large enough to pay
        for the hand-off (`_THREAD_ROW_CELLS`)."""
        n = self.n
        return (2 * b * n <= _BLOCK_PAIRS
                and sum(map(len, self.row_keys)) >= _THREAD_ROW_CELLS * n
                and _cpus() >= 2)

    def _drain_rows(self, lo: int, hi: int, kernel: _Slice,
                    top_index: Optional[np.ndarray],
                    top_so_far: Optional[np.ndarray]):
        """Write speed rows [lo, hi) of one slice of `_apply` in row
        order: per row, its `grid_pairs` block of the slice's runs,
        `_apply_block` and `_insert`.  `top_index` and `top_so_far` are
        the running argmax over these rows' grids after each row of the
        slice, advanced in place and returned, or None without the
        replay.  Touches only these rows' stores and metrics, so two
        calls over disjoint rows may run at once."""
        bits = max(1, (len(kernel.weights) - 1).bit_length())
        for j, pairs in grid_pairs(kernel.us, kernel.vs, kernel.dt,
                                   self.col_vu, self.row_vv[lo:hi],
                                   kernel.first, bits):
            j += lo
            missing = [self._apply_block(j, pairs, bits, kernel,
                                         top_index, top_so_far)]
            del pairs                   # the block's temporaries go first
            self._insert(j, missing, kernel.compact)
        return top_index, top_so_far

    def _apply_block(self, j: int, pairs: np.ndarray, bits: int,
                     kernel: _Slice, top_index: Optional[np.ndarray],
                     top_so_far: Optional[np.ndarray]) -> tuple:
        """Speed row j's `grid_pairs` block of a slice of `_apply`, one
        pair per (candidate, run): look its cells up in row store j
        (`_lookup`) and, with the replay (`top_index` not None), advance
        the metrics of the row's grids and the argmax after each row of
        the slice.  Returns the cells the store lacks, for `_insert`;
        its temporaries die on return."""
        n, b = self.n, len(kernel.weights)
        k0 = j * n
        cells = pairs >> bits
        # in place: the pairs are not read again
        row = np.bitwise_and(pairs, (1 << bits) - 1, out=pairs)
        w = kernel.weights[row]
        starts = group_starts(cells)
        keys = cells[starts] + ((k0 << _K_SHIFT) - _HALF)
        adds = np.add.reduceat(w, starts, dtype=np.int32)
        if top_index is None:
            del cells, row, w, starts   # not kept through the lookup
            return self._lookup(j, keys, adds)
        old = np.zeros(len(starts), dtype=np.int64)
        missing = self._lookup(j, keys, adds, old)
        del keys, adds
        # each pair's cell value before its run: the stored value plus the
        # earlier runs of the slice in that cell
        before = np.cumsum(w)
        before -= w
        old -= before[starts]
        before += np.repeat(old, np.diff(starts, append=len(cells)))
        s = np.sign(w)                  # the sign of each of the run's rows
        del starts, old, w
        # metric of each grid after each row: running sum of deltas, a
        # run's copies each 2 above the row before
        run = np.empty((n, b), dtype=np.int64)
        run[cells >> _K_SHIFT, row] = s * (2 * before + s)
        del cells, row, s, before
        copied = run[:, kernel.sources]
        copied += kernel.steps
        run[:, kernel.copies] = copied
        del copied
        np.cumsum(run, axis=1, out=run)
        run += self._metrics[k0:k0 + n, None]
        self._metrics[k0:k0 + n] = run[:, -1]
        top = run.argmax(axis=0)
        top_metric = run[top, np.arange(b)]
        # strict: a tie keeps the lower index of an earlier block
        better = top_metric > top_so_far
        top_index[better] = top[better] + k0
        top_so_far[better] = top_metric[better]
        return missing

    def _grid_squares(self, j: int) -> np.ndarray:
        """The sum of the squares of each of row j's grids' stored cells."""
        n = self.n
        keys, values = self.row_keys[j], self.row_values[j]
        total = np.zeros(len(values) + 1, dtype=np.int64)
        np.square(values, out=total[1:], dtype=np.int64)
        np.cumsum(total, out=total)
        bounds = np.searchsorted(keys, self._edges[j * n:j * n + n + 1])
        return total[bounds[1:]] - total[bounds[:-1]]


@dataclass
class AssociationResult:
    event_indices: list[int]       # into the array's held list
    events: list[Event]
    flow: FlowVector
    mu: float
    sigma: float
    threshold: float


def cell_value_stats(values: Sequence[int]) -> tuple[float, float]:
    """Mean and population standard deviation of |f| over nonzero cells.

    Both come from exact integer sums, so they do not depend on the order
    of the cells.
    """
    mags = np.abs(np.asarray(values, dtype=np.int64))
    mags = mags[mags != 0]
    count = len(mags)
    if not count:
        raise AssociationError("winning grid has no nonzero cells")
    total = int(mags.sum())
    square = int(np.dot(mags, mags))
    return total / count, math.sqrt((count * square - total * total)
                                    / (count * count))


def flood_fill_cells(nonzero: set[int], seeds: set[int]) -> set[int]:
    """8-connected closure of seeds over the nonzero cell set (packed keys)."""
    footprint = set()
    queue = deque(sorted(seeds))
    while queue:
        key = queue.popleft()
        if key in footprint:
            continue
        footprint.add(key)
        for off in NEIGHBORS_8:
            nb = key + off
            if nb in nonzero and nb not in footprint:
                queue.append(nb)
    return footprint


def extract_associated(array: MetricArray) -> AssociationResult:
    """Select the events backing the winning projection.

    Seeds are cells with |f| strictly above mu + _SEED_W * sigma (stats
    over the winning grid's nonzero cells); the footprint is their
    8-connected flood-fill closure over nonzero cells.  Raises
    AssociationError when no cell clears the threshold.
    """
    k = array.argmax_index
    if k is None:
        raise AssociationError("empty array")
    cells, values = array.grid(k)
    mu, sigma = cell_value_stats(values)
    threshold = mu + _SEED_W * sigma
    nonzero = values != 0
    seeds = set(cells[nonzero & (np.abs(values) > threshold)].tolist())
    if not seeds:
        raise AssociationError(
            f"no cell above threshold {threshold:.2f} (mu={mu:.2f}, sigma={sigma:.2f})")
    footprint = flood_fill_cells(set(cells[nonzero].tolist()), seeds)

    flow = grid_flow(array.col_vu, array.row_vv, k)
    us, vs, ts, _ = event_columns(array.held)
    keys = project_keys(us, vs, (ts - array.t_ref_us) * 1e-6, flow.v_u, flow.v_v)
    inside = np.isin(keys, np.fromiter(footprint, np.int64, len(footprint)))
    indices = np.flatnonzero(inside).tolist()
    return AssociationResult(
        event_indices=indices,
        events=[array.held[i] for i in indices],
        flow=flow,
        mu=mu, sigma=sigma, threshold=threshold)


def refine(events: Sequence[Event], col_vu: Sequence[float],
           row_vv: Sequence[float]) -> FlowVector:
    """One refinement level: the flow of greatest contrast among those
    that the axes span, over `events` (at least one).  The level's array
    is freed on return."""
    level = MetricArray(col_vu, row_vv)
    level.fill(events)
    return grid_flow(level.col_vu, level.row_vv, level.argmax_index)


def refined_flow(assoc: AssociationResult, cfg: FlowPlaneConfig) -> FlowVector:
    """The association's flow sharpened by `_DEPTH_MAX` `refine` levels
    of its events, each around the previous level's flow (the
    association's first) over 1/`_RANGE_SHRINK` of its range."""
    flow, angular_range = assoc.flow, _ANGULAR_RANGE
    for _ in range(_DEPTH_MAX):
        angular_range /= _RANGE_SHRINK
        flow = refine(assoc.events, *(axis_speeds(float(center), angular_range,
                                                  cfg) for center in flow))
    return flow


class PlaneSeed(NamedTuple):
    events: list[Event]
    flow: FlowVector


class FlowPlane:
    """Stateful initializer: ingest events, emit tracking seeds.

    Ingest is deferred: events wait in a pending list until
    p_stable - stability_count of them are pending, then enter the array
    as one batch (a drain).  The stability count grows by at most 1 per
    event and a flush can only lower it, so no emission can fall inside
    such a window and the result is the one of ingesting event by event.
    A noise flush only marks its stale events, a prefix of the held then
    pending ones; the next drain retracts them at the flush's place among
    the pending events.  `stability_count` is the run of events over
    which the drained array's argmax has held: over the argmax after
    each drained event and each flush, in order (-1 once a flush empties
    the array), the run restarts wherever the argmax moves.  When a
    drain leaves it at p_stable, `ingest` emits (`try_emit`) and returns
    the seed.  A drain rebuilds the array once its oldest held event
    nears the grid keys' limit (`_REBUILD_PX`).  Pending events and
    flushes are drained before an emission and any read of `array`.
    """

    def __init__(self, cfg: Optional[FlowPlaneConfig] = None):
        self.cfg = cfg or FlowPlaneConfig()
        # the top array's axes, laid out once: the same n speeds around 0
        self._top_axes = (axis_speeds(0.0, _ANGULAR_RANGE, self.cfg),) * 2
        self._array = MetricArray(*self._top_axes)
        self._pending: list[Event] = []
        # (pending events before the flush, events it retracts)
        self._flushes: list[tuple[int, int]] = []
        self.stability_count = 0

    @property
    def array(self) -> MetricArray:
        self._drain()
        return self._array

    def ingest(self, ev: Event) -> Optional[PlaneSeed]:
        """Take one event; returns the seed of a new tracking plane when
        the drain it ends leaves the stable run at p_stable and
        `try_emit` succeeds, else None."""
        self._pending.append(ev)
        if len(self._pending) >= self.cfg.p_stable - self.stability_count:
            self._drain()
            if self.stability_count >= self.cfg.p_stable:
                return self.try_emit()
        return None

    def _drain(self) -> None:
        if not self._pending and not self._flushes:
            return
        before = self._array.argmax_index
        best, tops = self._array.apply_batch(self._pending, self._flushes)
        # the argmax after each event and after each flush, in order (-1:
        # the array is empty), and how many events each of them is; the
        # run restarts wherever the argmax moves
        at = [pos for pos, _ in self._flushes]
        order = np.insert(best, at, [-1 if k is None else k for k in tops])
        events = np.insert(np.ones(len(best), dtype=np.int64), at, 0)
        moved = np.flatnonzero(
            np.diff(order, prepend=-1 if before is None else before))
        if len(moved):
            self.stability_count = int(events[moved[-1]:].sum())
        else:
            self.stability_count += len(best)
        self._pending = []
        self._flushes = []
        array = self._array
        if array.held and (array.held[0].t - array.t_ref_us) * max(
                np.abs(array.col_vu).max(),
                np.abs(array.row_vv).max()) >= _REBUILD_PX * 1e6:
            self._array = MetricArray(*self._top_axes)
            self._array.fill(array.held)
            # a rebuild that moves the argmax restarts the run, as a flush
            if self._array.argmax_index != array.argmax_index:
                self.stability_count = 0

    def try_emit(self) -> Optional[PlaneSeed]:
        """Extract, refine coarse-to-fine, emit; rebuild with the remainder.

        `ingest` calls it once the stable run reaches p_stable; it does
        not check the run itself.  Association runs once on the drained
        top-level array; the refinement levels re-project only the
        associated events and sharpen the flow through their argmax.
        The drained array is dropped before the refinement arrays and
        the rebuild are filled, so its store never coexists with theirs.
        Returns a PlaneSeed, or None when association failed.  Either
        way the stable run restarts.
        """
        try:
            assoc = extract_associated(self.array)
        except AssociationError:
            self.stability_count = 0
            return None
        taken = set(assoc.event_indices)
        remaining = [e for i, e in enumerate(self._array.held)
                     if i not in taken]
        # nothing else refers to the drained array: its store is freed
        # here (no local may keep it)
        self._array = MetricArray(*self._top_axes)
        flow = refined_flow(assoc, self.cfg)
        self._array.fill(remaining)
        self.stability_count = 0
        return PlaneSeed(assoc.events, flow)

    def flush_noise(self, now_us: int) -> int:
        """Mark the events older than the noise lifespan for retraction at
        the next drain; returns how many.  Does no work on the array."""
        cutoff = now_us - int(self.cfg.noise_lifespan_s * 1e6)
        held, pending = self._array.held, self._pending
        marked = sum(count for _, count in self._flushes)
        end = marked
        if end < len(held):
            end = bisect_left(held, cutoff, lo=end, key=_time)
        if end >= len(held):
            end = len(held) + bisect_left(pending, cutoff,
                                          lo=end - len(held), key=_time)
        if end > marked:
            self._flushes.append((len(pending), end - marked))
        return end - marked
