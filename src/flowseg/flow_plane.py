"""Flow initialization: an n x n array of perturbed projections.

Candidate flows are laid out on a tan-mapped angular grid around a center
flow; every incoming event is accumulated into all n*n grids and the
sharpness metric argmax is tracked per event.  Events are accumulated in
batches: numpy projects a slice of a batch onto all candidates and
groups the projections by sorting, one speed row of candidates at a
time.  The cells of each speed row's n grids share one sorted row store
(int64 keys, int32 values), and a batch looks up, merges and compacts a
row store right after projecting onto it: a batch still rewrites every
row store, but one row (about 1/n of the cells) at a time, while it is
in cache, and once per slice.  Speed rows share no store and no
metric, so on a machine with two CPUs a large enough drain splits each
slice's rows between the calling thread and one worker thread, which
numpy's kernels let run at once (`MetricArray.apply_batch`).  A noise
flush rides the next batch as retractions at its own place in it.  Once
the argmax cell has been stable for p_stable consecutive events, the
events backing the winning projection are extracted (statistical
threshold over cell values plus 8-connected flood fill) and re-projected
through progressively narrower arrays (`_RANGE_SHRINK` per level).
The final association seeds a tracking plane; everything else is
re-projected into a fresh level-0 array.  The drained array is freed
first, and these rebuilds (`MetricArray.fill`) write each projected
speed row into its row store as it comes.
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
                         grid_pairs, grid_sums, group_starts, project_keys)


class AssociationError(Exception):
    """No seed cells above threshold, or an empty winning grid."""


@dataclass
class FlowPlaneConfig:
    n: int = 20                    # array is n x n candidate flows
    v_ref: float = 100.0           # px/s mapped to 45 deg
    p_stable: int = 500            # consecutive stable-argmax events
    depth_max: int = 3             # refinement levels below the top array
    w: float = 2.0                 # seed threshold: |f| > mu + w*sigma
    noise_lifespan_s: float = 0.5  # unassociated events older than this flush

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.n * self.n > MAX_GRIDS:
            raise ValueError(f"n must be at most {math.isqrt(MAX_GRIDS)}: "
                             f"the keys of n*n grids must fit in int64")
        if self.v_ref <= 0:
            raise ValueError("v_ref must be positive")
        if self.p_stable < 1:
            raise ValueError("p_stable must be at least 1")
        if self.depth_max < 0:
            raise ValueError("depth_max must be non-negative")
        if self.w < 0:
            raise ValueError("w must be non-negative")
        if self.noise_lifespan_s <= 0:
            raise ValueError("noise_lifespan_s must be positive")


# each axis of the top array spans pi radians of angle, all of the
# tangent's (-pi/2, pi/2), so that it reaches every speed, however fast
_ANGULAR_RANGE = math.pi
# each refinement level spans 1/9 of its parent's range: 2.2 of the
# parent's cells around its argmax at n = 20, each cell 9x finer
_RANGE_SHRINK = 9.0


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
_time = itemgetter(2)
# mean cells per row store from which a drain's slice splits its speed
# rows between two threads.  Timed inside whole `Engine.run` passes over
# perfbench's scenes (two vCPUs, medians of six alternating runs), the
# drains of the fast hexagon, 12k-20k cells a row, took as long on two
# threads as on one (1.20 against 1.18 s) while the rest of the run
# slowed by 10%; drains above 24k cells a row took 0.67 (noise) to 0.79
# (bars) of their serial time
_THREAD_ROW_CELLS = 24_000
# the executor of the worker thread of two-thread drains, and the
# process that made it: made on first use, and again in a forked child,
# which inherits the executor but not its thread (a submit there would
# never run)
_worker = None
_worker_pid = 0


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity on this platform
        return os.cpu_count() or 1


def _drain_worker():
    """This process's executor of one drain worker thread, made on first
    use.  Its module is imported here too: imported with this one, it
    made perfbench's `noise` set-up 10% slower (median 12.7 against
    14.0 ms over 15 passes each), though no thread had started."""
    global _worker, _worker_pid
    if _worker_pid != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _worker = ThreadPoolExecutor(1, thread_name_prefix="flowseg-drain")
        _worker_pid = os.getpid()
    return _worker


class MetricArray:
    """n x n sparse accumulation grids sharing one event set.

    The array is its two speed axes, `col_vu` and `row_vv`, laid out
    around the center flow over the angular range: grid k = j*n + i
    (row-major) has flow `grid_flow(col_vu, row_vv, k)`, and the argmax
    ties break to the lowest (j, i).  All grids share t_ref, frozen at
    the first event.  Cells are kept in n sorted row stores, one per
    speed row: row store j holds the grid keys (`row_keys[j]`, int64;
    `projection.grid_edges`) of grids j*n .. j*n + n - 1 and their
    values (`row_values[j]`, int32), 12 bytes a cell.  A value is at
    most the number of events held; the metrics and every delta to
    them are int64.  A drain writes every row store, one at a time:
    each lookup, merge and compaction runs over about 1/n of the cells,
    while they are in cache, and no pass runs over the whole store.  A
    row store takes one merge per slice of a drain (`_insert`).  A
    cell may hold 0 until the next batch that retracts events compacts
    its row.  An event counts by the sign of its polarity.  `held` is in
    time order.  No two speed rows share a store or a metric, so a
    drain may write the lower half of the rows on the calling thread
    while a worker thread writes the upper half (`apply_batch`); fills
    and every other method run on the calling thread alone.
    """

    def __init__(self, cfg: FlowPlaneConfig, center_flow=(0.0, 0.0),
                 angular_range: float = _ANGULAR_RANGE):
        self.cfg = cfg
        self.angular_range = angular_range
        self.col_vu = np.array(axis_speeds(float(center_flow[0]),
                                           self.angular_range, cfg))
        self.row_vv = np.array(axis_speeds(float(center_flow[1]),
                                           self.angular_range, cfg))
        self._edges = grid_edges(cfg.n * cfg.n)
        self.row_keys = [np.zeros(0, dtype=np.int64) for _ in range(cfg.n)]
        self.row_values = [np.zeros(0, dtype=np.int32) for _ in range(cfg.n)]
        self._metrics = np.zeros(cfg.n * cfg.n, dtype=np.int64)
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
        j = k // self.cfg.n
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
        elif not compact:
            return                      # every cell was stored: no change
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
        flush at a time would.  The events and retractions are the rows
        of the kernel, in order, taken in consecutive slices of at most
        _BLOCK_PAIRS // n rows; each slice writes its cells to the row
        stores before the next one looks them up.  A kernel block is one
        speed row: its cells are looked up and added to the cells its
        store holds, and once the block's temporaries are freed its new
        cells go into the store in one merge, so a slice merges into each
        row store once.  If the batch retracted anything, the last slice
        compacts each row store right after its merge, dropping the
        cells that hold 0.  A retraction from a cell no longer stored
        reads it as 0: its events had cancelled.

        A slice drains its speed rows on two threads when (a) the
        process may run on at least two CPUs, (b) its two blocks in
        flight fit in one block's budget (2 * rows * n <= _BLOCK_PAIRS)
        and (c) the row stores hold at least `_THREAD_ROW_CELLS` cells
        a row on average; otherwise it drains them in order on the
        calling thread.  On two threads the calling thread drains rows
        [0, n // 2) and the worker rows [n // 2, n), each in row order
        with its own running argmax; the upper half's replaces the
        lower's only where strictly greater, so ties still go to the
        lowest grid and the result is the serial one.

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
        best = np.zeros(len(rows), dtype=np.int64)
        best_metric = np.full(len(rows), -1, dtype=np.int64)
        n = self.cfg.n
        step = max(1, _BLOCK_PAIRS // n)
        for r0 in range(0, len(rows), step):
            r1 = min(r0 + step, len(rows))
            compact = bool(retired) and r1 == len(rows)
            # views: the slice's rows and the argmax after each of them
            kernel = (us[r0:r1], vs[r0:r1], dt[r0:r1], sign[r0:r1], compact)
            top_index, top_so_far = best[r0:r1], best_metric[r0:r1]
            if not self._two_threads(r1 - r0):
                self._drain_rows(0, n, kernel, top_index, top_so_far)
                continue
            upper = _drain_worker().submit(
                self._drain_rows, n // 2, n, kernel,
                np.zeros(r1 - r0, dtype=np.int64),
                np.full(r1 - r0, -1, dtype=np.int64))
            try:
                self._drain_rows(0, n // 2, kernel, top_index, top_so_far)
            finally:
                upper_index, upper_metric = upper.result()
            # strict: a tie keeps the lower half's lower index
            better = upper_metric > top_so_far
            top_index[better] = upper_index[better]
            top_so_far[better] = upper_metric[better]
        tops = [None if empty else int(best[end])
                for end, empty in zip(ends, emptied)]
        held.extend(events)
        del held[:retired]
        return best[~retract], tops

    def _two_threads(self, b: int) -> bool:
        """Whether a slice of b rows drains on two threads: the process
        may run on two CPUs, the two blocks in flight fit in one block's
        budget, and the row stores are large enough to pay for the
        hand-off (`_THREAD_ROW_CELLS`)."""
        n = self.cfg.n
        return (2 * b * n <= _BLOCK_PAIRS
                and sum(map(len, self.row_keys)) >= _THREAD_ROW_CELLS * n
                and _cpus() >= 2)

    def _drain_rows(self, lo: int, hi: int, kernel: tuple,
                    top_index: np.ndarray, top_so_far: np.ndarray):
        """Drain speed rows [lo, hi) of one slice of `apply_batch` in
        row order: per row, its `grid_pairs` block, `_apply_block` and
        `_insert`.  `kernel` is the slice's (u, v, dt, sign) columns and
        whether its rows are compacted; `top_index` and `top_so_far` are
        the running argmax over these rows' grids after each row of the
        slice, advanced in place and returned.  Touches only these rows'
        stores and metrics, so two calls over disjoint rows may run at
        once."""
        us, vs, dt, signs, compact = kernel
        b = len(signs)
        bits = max(1, (b - 1).bit_length())
        for j, pairs in grid_pairs(us, vs, dt, self.col_vu,
                                   self.row_vv[lo:hi], np.arange(b), bits):
            j += lo
            missing = [self._apply_block(j, pairs, bits, signs,
                                         top_index, top_so_far)]
            del pairs                   # the block's temporaries go first
            self._insert(j, missing, compact)
        return top_index, top_so_far

    def _apply_block(self, j: int, pairs: np.ndarray, bits: int,
                     signs: np.ndarray, top_index: np.ndarray,
                     top_so_far: np.ndarray) -> tuple:
        """Speed row j's `grid_pairs` block of a slice of `apply_batch`:
        look its cells up in row store j (`_lookup`), and advance the
        metrics of the row's grids and the argmax after each row of the
        slice.  Returns the cells the store lacks, for `_insert`; its
        temporaries die on return."""
        n, b = self.cfg.n, len(signs)
        k0 = j * n
        cells = pairs >> bits
        # in place: the pairs are not read again
        row = np.bitwise_and(pairs, (1 << bits) - 1, out=pairs)
        s = signs[row]
        starts = group_starts(cells)
        old = np.zeros(len(starts), dtype=np.int64)
        missing = self._lookup(j, cells[starts] + ((k0 << _K_SHIFT) - _HALF),
                               np.add.reduceat(s, starts, dtype=np.int32),
                               old)
        # each pair's cell value before its row: the stored value plus the
        # earlier rows of the slice in that cell
        before = np.cumsum(s)
        before -= s
        old -= before[starts]
        before += np.repeat(old, np.diff(starts, append=len(cells)))
        del starts, old
        # metric of each grid after each row: running sum of deltas
        run = np.empty((n, b), dtype=np.int64)
        run[cells >> _K_SHIFT, row] = s * (2 * before + s)
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

    def fill(self, events: Sequence[Event]) -> None:
        """Accumulate an event list into the array, which must hold no
        events yet (order preserved for held).

        Projects at most _BLOCK_PAIRS // n events at a time, one speed
        row per kernel block: the first slice's cells of a row are its
        store, a later slice's go in through `_lookup` and `_insert`,
        and the last slice sets the metric of each of the row's grids to
        the sum of its cells' squares.  No temporary spans more than one
        block or one row store."""
        # a second write path on purpose: `apply_batch` on a fresh array
        # gives the same store, metrics and argmax, but builds the metric
        # after every row, which only drains need, and took 2.2-2.8x as
        # long over the fills of perfbench's hexagon, bars and noise
        if not events:
            return
        n = self.cfg.n
        step = max(1, _BLOCK_PAIRS // n)
        us, vs, dt, ss = self._columns(events)
        for e0 in range(0, len(events), step):
            e1 = min(e0 + step, len(events))
            for j, keys, sums in grid_sums(us[e0:e1], vs[e0:e1], dt[e0:e1],
                                           ss[e0:e1], self.col_vu,
                                           self.row_vv):
                values = sums.astype(np.int32)
                del sums
                missing = [self._lookup(j, keys, values)]
                del keys, values
                self._insert(j, missing, False)
                if e1 == len(events):
                    self._metrics[j * n:j * n + n] = self._grid_squares(j)
        self.held.extend(events)

    def _grid_squares(self, j: int) -> np.ndarray:
        """The sum of the squares of each of row j's grids' stored cells."""
        n = self.cfg.n
        keys, values = self.row_keys[j], self.row_values[j]
        total = np.zeros(len(values) + 1, dtype=np.int64)
        np.square(values, out=total[1:], dtype=np.int64)
        np.cumsum(total, out=total)
        bounds = np.searchsorted(keys, self._edges[j * n:j * n + n + 1])
        return total[bounds[1:]] - total[bounds[:-1]]

    @property
    def argmax_flow(self) -> Optional[FlowVector]:
        k = self.argmax_index
        return None if k is None else grid_flow(self.col_vu, self.row_vv, k)


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

    Seeds are cells with |f| strictly above mu + w*sigma (stats over the
    winning grid's nonzero cells); the footprint is their 8-connected
    flood-fill closure over nonzero cells.  Raises AssociationError when
    no cell clears the threshold.
    """
    k = array.argmax_index
    if k is None:
        raise AssociationError("empty array")
    cells, values = array.grid(k)
    mu, sigma = cell_value_stats(values)
    threshold = mu + array.cfg.w * sigma
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


def refine(assoc: AssociationResult, cfg: FlowPlaneConfig, parent_range: float,
           center_flow) -> MetricArray:
    """Re-project associated events through an array of the parent's
    range over `_RANGE_SHRINK` around `center_flow`: the association's
    flow at the first level, the previous level's argmax flow below it."""
    child = MetricArray(cfg, center_flow, parent_range / _RANGE_SHRINK)
    child.fill(assoc.events)
    return child


def refined_flow(assoc: AssociationResult, cfg: FlowPlaneConfig) -> FlowVector:
    """The association's flow sharpened through the depth_max refinement
    levels below the top-level array; the last level's array is freed on
    return."""
    flow, parent_range = assoc.flow, _ANGULAR_RANGE
    for _ in range(cfg.depth_max):
        deeper = refine(assoc, cfg, parent_range, center_flow=flow)
        parent_range = deeper.angular_range
        flow = deeper.argmax_flow
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
    the pending events, and applies each flush's stability reset there.
    Pending events and flushes are drained before an emission and any
    read of `array`; `stability_count` is that of the last drain, the
    run of events over which the drained array's argmax has held.
    """

    def __init__(self, cfg: Optional[FlowPlaneConfig] = None):
        self.cfg = cfg or FlowPlaneConfig()
        self._array = MetricArray(self.cfg)
        self._pending: list[Event] = []
        # (pending events before the flush, events it retracts)
        self._flushes: list[tuple[int, int]] = []
        self.stability_count = 0

    @property
    def array(self) -> MetricArray:
        self._drain()
        return self._array

    def ingest(self, ev: Event) -> None:
        self._pending.append(ev)
        if len(self._pending) >= self.cfg.p_stable - self.stability_count:
            self._drain()

    def _drain(self) -> None:
        if not self._pending and not self._flushes:
            return
        last = self._array.argmax_index
        best, after = self._array.apply_batch(self._pending, self._flushes)
        start = 0
        for (at, _), top in zip(self._flushes, after):
            if at > start:
                self._settle(best[start:at], last)
                last, start = int(best[at - 1]), at
            # a flush that moves the argmax restarts the stable run
            if top != last:
                self.stability_count = 0
            last = top
        if start < len(best):
            self._settle(best[start:], last)
        self._pending = []
        self._flushes = []

    def _settle(self, indices: np.ndarray, before: Optional[int]) -> None:
        """Advance the stable run over the argmax after each of a run of
        ingested events; `before` is the argmax before the run."""
        # the run of equal argmaxes that ends the batch
        last = int(indices[-1])
        changed = np.flatnonzero(indices != last)
        if len(changed):
            self.stability_count = len(indices) - 1 - int(changed[-1])
        elif last == before:
            self.stability_count += len(indices)
        else:
            self.stability_count = len(indices)

    def stability_check(self) -> bool:
        # pending events cannot reach p_stable before the drain that
        # their window ends with, so the last drain's count decides
        return self.stability_count >= self.cfg.p_stable

    def try_emit(self) -> Optional[PlaneSeed]:
        """Extract, refine coarse-to-fine, emit; rebuild with the remainder.

        Association runs once on the stable top-level array; the
        refinement levels re-project only the associated events and
        sharpen the flow through their argmax.  The drained array is
        dropped before the refinement arrays and the rebuild are filled,
        so its store never coexists with theirs.  Returns a PlaneSeed,
        or None when not stable or when association failed (the
        stability counter resets in the failure case).
        """
        if not self.stability_check():
            return None
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
        self._array = MetricArray(self.cfg)
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
