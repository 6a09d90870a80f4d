"""Flow initialization: an n x n array of perturbed projections.

Candidate flows are laid out on a tan-mapped angular grid around a center
flow; every incoming event is accumulated into all n*n grids and the
sharpness metric argmax is tracked per event.  Events are accumulated in
batches: one numpy pass projects a batch onto all candidates and groups
the projections by sorting, and the cells of all grids share one sorted
store.  A noise flush rides the next batch as retractions at its own
place in it.  Once the argmax cell has been stable for p_stable
consecutive events, the events backing the winning projection are
extracted (statistical threshold over cell values plus 8-connected flood
fill) and re-projected through progressively narrower arrays (range/q
per level).  The final association seeds a tracking plane; everything
else is re-projected into a fresh level-0 array.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .events import Event
from .projection import (_HALF, _K_SHIFT, KEY_M, FlowVector, event_columns,
                         grid_edges, grid_pairs, grid_sums, group_starts,
                         project_keys)


class AssociationError(Exception):
    """No seed cells above threshold, or an empty winning grid."""


@dataclass
class FlowPlaneConfig:
    n: int = 20                    # array is n x n candidate flows
    angular_range: float = math.pi
    v_ref: float = 100.0           # px/s mapped to 45 deg
    p_stable: int = 500            # consecutive stable-argmax events
    q: float = 9.0                 # range shrink factor per refinement
    depth_max: int = 3             # refinement levels below the top array
    w: float = 2.0                 # seed threshold: |f| > mu + w*sigma
    noise_lifespan_s: float = 0.5  # unassociated events older than this flush

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 0 < self.angular_range <= math.pi:
            raise ValueError("angular_range must be in (0, pi]")
        if self.v_ref <= 0:
            raise ValueError("v_ref must be positive")
        if self.p_stable < 1:
            raise ValueError("p_stable must be at least 1")
        if self.q <= 1:
            raise ValueError("q must exceed 1")
        if self.depth_max < 0:
            raise ValueError("depth_max must be non-negative")
        if self.w < 0:
            raise ValueError("w must be non-negative")
        if self.noise_lifespan_s <= 0:
            raise ValueError("noise_lifespan_s must be positive")


def index_to_flow(i: int, j: int, center_flow, angular_range: float,
                  cfg: FlowPlaneConfig) -> FlowVector:
    """Flow of array cell (i, j): center + v_ref*tan of the cell angle."""
    theta_u = angular_range * ((i + 0.5) / cfg.n - 0.5)
    theta_v = angular_range * ((j + 0.5) / cfg.n - 0.5)
    return FlowVector(center_flow[0] + cfg.v_ref * math.tan(theta_u),
                      center_flow[1] + cfg.v_ref * math.tan(theta_v))


# rows (events ingested or retracted) per kernel slice of an ordered
# batch; slices may end inside a flush.  With the kernel's blocks of at
# most this many pairs, keeps the composite sort keys of `grid_pairs`
# within int64
_BATCH_ROWS = 1 << 17
_time = itemgetter(2)


class MetricArray:
    """n x n sparse accumulation grids sharing one event set.

    Grid k = j*n + i (row-major); the argmax ties break to the lowest
    (j, i).  All grids share t_ref, frozen at the first event.  Cells of
    every grid are kept in one sorted store (`cell_keys`, `cell_values`,
    grid keys of `projection.grid_edges`); a cell may hold 0 until the
    next batch that retracts events compacts it.  An event counts by the
    sign of its polarity.  `held` is in time order.
    """

    def __init__(self, cfg: FlowPlaneConfig, center_flow=(0.0, 0.0),
                 angular_range: Optional[float] = None):
        self.cfg = cfg
        self.center_flow = FlowVector(float(center_flow[0]), float(center_flow[1]))
        self.angular_range = cfg.angular_range if angular_range is None else angular_range
        n = cfg.n
        flows = []
        for j in range(n):
            for i in range(n):
                flows.append(index_to_flow(i, j, self.center_flow,
                                           self.angular_range, cfg))
        self.flows: list[FlowVector] = flows
        # grid k = j*n + i takes v_u from column i and v_v from row j
        self.col_vu = np.array([f.v_u for f in flows[:n]])
        self.row_vv = np.array([f.v_v for f in flows[::n]])
        self._edges = grid_edges(n * n)
        self.cell_keys = np.zeros(0, dtype=np.int64)
        self.cell_values = np.zeros(0, dtype=np.int64)
        self._metrics = np.zeros(n * n, dtype=np.int64)
        self.held: list[Event] = []
        self.t_ref_us: Optional[int] = None
        self.argmax_index: Optional[int] = None

    def __len__(self) -> int:
        return len(self.held)

    @property
    def metrics(self) -> list[int]:
        return self._metrics.tolist()

    def grid(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Grid k's stored cells: packed cell keys ascending, and values."""
        lo, hi = np.searchsorted(self.cell_keys, self._edges[k:k + 2])
        return (self.cell_keys[lo:hi] - (k << _K_SHIFT),
                self.cell_values[lo:hi])

    def _columns(self, events):
        """Event columns (u, v, seconds since t_ref, s); sets t_ref."""
        us, vs, ts, ss = event_columns(events)
        if self.t_ref_us is None:
            self.t_ref_us = events[0].t
        return us, vs, (ts - self.t_ref_us) * 1e-6, ss

    def _sums(self, events) -> tuple[np.ndarray, np.ndarray]:
        """Store keys the events touch, ascending, and the signed sum of
        their polarities in each."""
        us, vs, dt, ss = self._columns(events)
        return grid_sums(us, vs, dt, ss, self.col_vu, self.row_vv)

    def _per_flow(self, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Sum of `values` over each grid, for ascending store keys."""
        bounds = np.searchsorted(keys, self._edges)
        total = np.concatenate(([0], np.cumsum(values)))
        return total[bounds[1:]] - total[bounds[:-1]]

    def _lookup(self, keys: np.ndarray):
        """Store positions of ascending keys, whether each is stored, and
        its value (0 when missing)."""
        pos = np.searchsorted(self.cell_keys, keys)
        if not len(self.cell_keys):
            return pos, np.zeros(len(keys), dtype=bool), np.zeros_like(keys)
        at = np.minimum(pos, len(self.cell_keys) - 1)
        hit = self.cell_keys[at] == keys
        return pos, hit, np.where(hit, self.cell_values[at], 0)

    def _write(self, keys, adds, pos, hit) -> None:
        """Add `adds` to the cells of `_lookup(keys)`, merging the cells
        not yet stored into the store in one pass."""
        if not len(self.cell_keys):
            self.cell_keys, self.cell_values = keys, adds
            return
        self.cell_values[pos[hit]] += adds[hit]
        miss = ~hit
        if not miss.any():
            return
        new = pos[miss] + np.arange(np.count_nonzero(miss))
        size = len(self.cell_keys) + len(new)
        kept = np.ones(size, dtype=bool)
        kept[new] = False
        for name, added in (("cell_keys", keys), ("cell_values", adds)):
            merged = np.empty(size, dtype=np.int64)
            merged[new] = added[miss]
            merged[kept] = getattr(self, name)
            setattr(self, name, merged)

    def _add(self, keys: np.ndarray, adds: np.ndarray) -> None:
        pos, hit, old = self._lookup(keys)
        self._metrics += self._per_flow(keys, adds * (2 * old + adds))
        self._write(keys, adds, pos, hit)

    def _update_argmax(self) -> None:
        self.argmax_index = int(np.argmax(self._metrics)) if self.held else None

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
        _BATCH_ROWS rows; each slice writes its cells to the store before
        the next one looks them up.  Cells that drop to 0 leave the store
        if the batch retracted anything.  A retraction from a cell no
        longer stored reads it as 0: its events had cancelled.
        """
        held = self.held
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
        sign = np.where((ss > 0) != retract, 1, -1)
        best = np.zeros(len(rows), dtype=np.int64)
        best_metric = np.full(len(rows), -1, dtype=np.int64)
        for r0 in range(0, len(rows), _BATCH_ROWS):
            r1 = min(r0 + _BATCH_ROWS, len(rows))
            b = r1 - r0
            bits = max(1, (b - 1).bit_length())
            # views: the slice's rows and the argmax after each of them
            signs, top_index, top_so_far = (
                sign[r0:r1], best[r0:r1], best_metric[r0:r1])
            keys, adds, positions, hits = [], [], [], []
            for k0, k1, pairs in grid_pairs(us[r0:r1], vs[r0:r1], dt[r0:r1],
                                            self.col_vu, self.row_vv,
                                            np.arange(b), bits):
                cells = pairs >> bits
                row = pairs & ((1 << bits) - 1)
                s = signs[row]
                starts = group_starts(cells)
                count = np.diff(starts, append=len(cells))
                cell_keys = cells[starts] + ((k0 << _K_SHIFT) - _HALF)
                pos, hit, old = self._lookup(cell_keys)
                # each pair's cell value before its row: the stored value
                # plus the earlier rows of the slice in that cell
                before = np.cumsum(s) - s
                before += np.repeat(old - before[starts], count)
                # metric of each grid after each row: running sum of deltas
                run = np.empty((k1 - k0, b), dtype=np.int64)
                run[cells >> _K_SHIFT, row] = s * (2 * before + s)
                np.cumsum(run, axis=1, out=run)
                run += self._metrics[k0:k1, None]
                self._metrics[k0:k1] = run[:, -1]
                top = run.argmax(axis=0)
                top_metric = run[top, np.arange(b)]
                # strict: a tie keeps the lower index of an earlier block
                better = top_metric > top_so_far
                top_index[better] = top[better] + k0
                top_so_far[better] = top_metric[better]
                keys.append(cell_keys)
                adds.append(np.add.reduceat(s, starts))
                positions.append(pos)
                hits.append(hit)
            self._write(np.concatenate(keys), np.concatenate(adds),
                        np.concatenate(positions), np.concatenate(hits))
        if retired:
            kept = self.cell_values != 0
            self.cell_keys = self.cell_keys[kept]
            self.cell_values = self.cell_values[kept]
        tops = [None if empty else int(best[end])
                for end, empty in zip(ends, emptied)]
        held.extend(events)
        del held[:retired]
        self.argmax_index = int(best[-1]) if held else None
        return best[~retract], tops

    def fill(self, events: Sequence[Event]) -> None:
        """Batch-accumulate an event list (order preserved for held)."""
        # a second write path on purpose: `apply_batch` on a fresh array
        # gives the same store, metrics and argmax, but builds the metric
        # after every row, which only drains need, and took 1.4-1.6x as
        # long over the emissions of perfbench's hexagon, bars and noise
        if not events:
            return
        self._add(*self._sums(events))
        self.held.extend(events)
        self._update_argmax()

    def fill_scan(self, events: Sequence[Event]) -> None:
        """Metrics-only fill for single-shot arrays (refinement levels).

        Leaves the cell store empty, so the array must not be ingested
        into afterwards.
        """
        if not events:
            return
        keys, sums = self._sums(events)
        self._metrics = self._per_flow(keys, sums * sums)
        self.held.extend(events)
        self._update_argmax()

    @property
    def argmax_flow(self) -> Optional[FlowVector]:
        if self.argmax_index is None:
            return None
        return self.flows[self.argmax_index]


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
    neighbor_offsets = (1, -1, KEY_M, -KEY_M, KEY_M + 1, KEY_M - 1,
                        -KEY_M + 1, -KEY_M - 1)
    while queue:
        key = queue.popleft()
        if key in footprint:
            continue
        footprint.add(key)
        for off in neighbor_offsets:
            nb = key + off
            if nb in nonzero and nb not in footprint:
                queue.append(nb)
    return footprint


def extract_associated(array: MetricArray,
                       w: Optional[float] = None) -> AssociationResult:
    """Select the events backing the winning projection.

    Seeds are cells with |f| strictly above mu + w*sigma (stats over the
    winning grid's nonzero cells); the footprint is their 8-connected
    flood-fill closure over nonzero cells.  Raises AssociationError when
    no cell clears the threshold.
    """
    if array.argmax_index is None:
        raise AssociationError("empty array")
    if w is None:
        w = array.cfg.w
    k = array.argmax_index
    cells, values = array.grid(k)
    mu, sigma = cell_value_stats(values)
    threshold = mu + w * sigma
    nonzero = values != 0
    seeds = set(cells[nonzero & (np.abs(values) > threshold)].tolist())
    if not seeds:
        raise AssociationError(
            f"no cell above threshold {threshold:.2f} (mu={mu:.2f}, sigma={sigma:.2f})")
    footprint = flood_fill_cells(set(cells[nonzero].tolist()), seeds)

    flow = array.flows[k]
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
           center_flow=None) -> MetricArray:
    """Re-project associated events through a range/q array around a flow.

    The center defaults to the association's flow; deeper levels pass the
    previous level's argmax flow instead.
    """
    if center_flow is None:
        center_flow = assoc.flow
    child = MetricArray(cfg, center_flow, parent_range / cfg.q)
    child.fill_scan(assoc.events)
    return child


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
    read of `array`; `stability_count` is that of the last drain.
    """

    def __init__(self, cfg: Optional[FlowPlaneConfig] = None):
        self.cfg = cfg or FlowPlaneConfig()
        self._array = MetricArray(self.cfg)
        self._pending: list[Event] = []
        # (pending events before the flush, events it retracts)
        self._flushes: list[tuple[int, int]] = []
        self.stability_count = 0
        self._stable_index: Optional[int] = None
        self.total_ingested = 0
        self.emissions = 0

    @property
    def array(self) -> MetricArray:
        self._drain()
        return self._array

    def ingest(self, ev: Event) -> None:
        self._pending.append(ev)
        self.total_ingested += 1
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
                self._settle(best[start:at])
                last, start = int(best[at - 1]), at
            # a flush that moves the argmax restarts the stable run
            if top != last:
                self.stability_count = 0
                self._stable_index = top
            last = top
        if start < len(best):
            self._settle(best[start:])
        self._pending = []
        self._flushes = []

    def _settle(self, indices: np.ndarray) -> None:
        """Advance the stable run over the argmax after each of a run of
        ingested events."""
        # the run of equal argmaxes that ends the batch
        last = int(indices[-1])
        changed = np.flatnonzero(indices != last)
        if len(changed):
            self.stability_count = len(indices) - 1 - int(changed[-1])
        elif last == self._stable_index:
            self.stability_count += len(indices)
        else:
            self.stability_count = len(indices)
        self._stable_index = last

    def stability_check(self) -> bool:
        # pending events cannot reach p_stable before the drain that
        # their window ends with, so the last drain's count decides
        return self.stability_count >= self.cfg.p_stable

    def try_emit(self) -> Optional[PlaneSeed]:
        """Extract, refine coarse-to-fine, emit; rebuild with the remainder.

        Association runs once on the stable top-level array; the
        refinement levels re-project only the associated events and
        sharpen the flow through their argmax.  Returns a PlaneSeed, or
        None when not stable or when association failed (the stability
        counter resets in the failure case).
        """
        if not self.stability_check():
            return None
        cfg = self.cfg
        array = self.array
        try:
            assoc = extract_associated(array, cfg.w)
        except AssociationError:
            self.stability_count = 0
            self._stable_index = None
            return None

        flow = assoc.flow
        parent_range = array.angular_range
        for _ in range(cfg.depth_max):
            deeper = refine(assoc, cfg, parent_range, center_flow=flow)
            parent_range = deeper.angular_range
            flow = deeper.argmax_flow

        taken = set(assoc.event_indices)
        remaining = [e for i, e in enumerate(array.held) if i not in taken]
        seed = PlaneSeed(assoc.events, flow)
        self._array = MetricArray(cfg)
        self._array.fill(remaining)
        self.stability_count = 0
        self._stable_index = self._array.argmax_index
        self.emissions += 1
        return seed

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
