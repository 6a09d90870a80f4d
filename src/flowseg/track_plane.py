"""Velocity tracking: one plane per segmented structure.

A plane holds its structure's recent events in one accumulation grid:
their projections along the plane's flow from one reference time.  Its
footprint is the grid's nonzero cells plus the promoted ones; an event
whose projection lands in it is a hit and accumulates into the grid.
Misses are counted per projected cell; a cell missed evolve_threshold
times is promoted into the footprint, which is how the plane follows
contour change.  Events expire `_LIFETIME_PX` / speed seconds after
arrival and retract from the grid in one batch.  `recenter` is the one
place a plane's flow changes: it adopts a flow and a set of events and
lays a new frame, at creation and when the engine merges two planes.

Each held event is projected once per frame: a hit keeps the cell it
was matched in, a recenter projects its events in one numpy pass, and
an expiry retracts the kept cells, so the per-event calls (`try_match`,
`expire`) run in plain Python with no numpy call.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import InitVar, dataclass
from typing import Optional, Sequence

import numpy as np

from .events import Event
from .projection import (KEY_M, AccumulatorGrid, ConsistencyError,
                         FlowVector, event_columns, project_keys,
                         round_half_away)


V_FLOOR = 1.0                  # px/s floor for lifetime and rate estimates
# an event is held while its plane travels this many pixels: each grid
# cell of a moving edge holds the events of its last three crossings
_LIFETIME_PX = 3.0
# hits are counted over this many event lifetimes for the hit fraction
_HIT_WINDOW_LIFETIMES = 2.0


@dataclass
class TrackPlaneConfig:
    evolve_threshold: int = 3      # misses in one cell before promotion
    # accepted and ignored: the benchmark's bars configuration still
    # passes it, and the benchmark's files change only with the benchmark
    h_max_deg: InitVar[Optional[float]] = None

    def __post_init__(self, h_max_deg):
        if self.evolve_threshold < 1:
            raise ValueError("evolve_threshold must be at least 1")


def event_lifetime_s(flow) -> float:
    """Seconds an event stays relevant: _LIFETIME_PX / max(speed, V_FLOOR)."""
    speed = math.hypot(flow[0], flow[1])
    return _LIFETIME_PX / max(speed, V_FLOOR)


class TrackPlane:
    """Tracks one structure: its flow, its footprint, its recent events.

    The grid projects along `center_flow` relative to `t_ref_us`, the
    oldest held event's time when the frame was laid; the promoted
    cells and the miss counts are cells of that frame.  The footprint,
    the grid's nonzero cells plus the promoted ones, is read from them
    and kept nowhere else.
    """

    def __init__(self, plane_id: int, flow, events: Sequence[Event],
                 cfg: Optional[TrackPlaneConfig] = None):
        self.cfg = cfg or TrackPlaneConfig()
        self.plane_id = plane_id
        self.hit_times: deque[int] = deque()
        self.recenter(flow, events)
        self.created_us = events[-1].t

    def recenter(self, flow, events: Sequence[Event]) -> None:
        """Adopt `flow`, hold `events` (oldest first) and lay a new frame:
        the reference time becomes the oldest event's, the grid is
        rebuilt from `events`, and the promoted cells and miss counts,
        which are cells of the old frame, are cleared."""
        if not events:
            raise ValueError("a tracking plane needs at least one event")
        self.center_flow = FlowVector(float(flow[0]), float(flow[1]))
        # flat copies: the match loop runs per event
        self._center_vu, self._center_vv = self.center_flow
        self._lifetime_us = int(self.event_lifetime_s() * 1e6)
        self.held: deque[Event] = deque(events)
        self.t_ref_us = events[0].t
        us, vs, ts, ss = event_columns(events)
        keys = project_keys(us, vs, (ts - self.t_ref_us) * 1e-6,
                            self._center_vu, self._center_vv)
        # the cell each held event was added under, in `held`'s order
        self.held_keys: deque[int] = deque(keys.tolist())
        cells, index = np.unique(keys, return_inverse=True)
        sums = np.zeros(len(cells), dtype=np.int64)
        np.add.at(sums, index, ss.astype(np.int64))
        self.grid = AccumulatorGrid()
        self.grid.accumulate_batch(cells, sums)
        self.promoted: set[int] = set()
        self.miss_counts: dict[int, int] = {}

    def event_lifetime_s(self) -> float:
        return event_lifetime_s(self.center_flow)

    def __len__(self) -> int:
        return len(self.held)

    def try_match(self, ev: Event) -> bool:
        """Offer one event.  True: absorbed as a hit.  False: miss."""
        u, v, t, s = ev
        held = self.held
        if held and held[0].t < t - self._lifetime_us:
            self.expire(t)
        dt = (t - self.t_ref_us) * 1e-6
        x = u - self._center_vu * dt
        y = v - self._center_vv * dt
        # `round_half_away` of both axes, written out: the three calls
        # took about 90 ns of each 1.0-1.2 us offer
        key = ((int(x + 0.5) if x >= 0.0 else -int(0.5 - x)) * KEY_M
               + (int(y + 0.5) if y >= 0.0 else -int(0.5 - y)))

        cells = self.grid.cells
        c = cells.get(key, 0)
        if not c and key not in self.promoted:     # outside the footprint
            miss_counts = self.miss_counts
            count = miss_counts.get(key, 0) + 1
            if count >= self.cfg.evolve_threshold:
                # persistent misses promote the cell; the footprint evolves
                self.promoted.add(key)
                miss_counts.pop(key, None)
            else:
                miss_counts[key] = count
            return False

        cells[key] = c + s
        held.append(ev)
        self.held_keys.append(key)
        self.hit_times.append(t)
        return True

    def expire(self, now_us: int) -> int:
        """Retract events older than the lifetime; returns how many."""
        cutoff = now_us - self._lifetime_us
        held = self.held
        if not held or held[0].t >= cutoff:
            return 0
        held_keys = self.held_keys
        keys = []
        polarities = []
        while held and held[0].t < cutoff:
            polarities.append(held.popleft().s)
            keys.append(held_keys.popleft())
        try:
            self.grid.retract_batch(keys, polarities)
        except ConsistencyError as exc:
            raise ConsistencyError(f"plane {self.plane_id}: {exc}") from exc
        return len(keys)

    def footprint_size(self) -> int:
        """Cells in the footprint: the nonzero cells and the promoted ones,
        a promoted cell counted whatever it holds."""
        return len(self.grid.nonzero_cells() | self.promoted)

    def footprint_at(self, now_us: int) -> set[int]:
        """Nonzero grid cells translated to sensor position at now_us."""
        dt = (now_us - self.t_ref_us) * 1e-6
        dx = round_half_away(self._center_vu * dt)
        dy = round_half_away(self._center_vv * dt)
        shift = dx * KEY_M + dy
        return {key + shift for key in self.grid.nonzero_cells()}

    def expected_hit_fraction(self, now_us: int) -> float:
        """Hits over the last `_HIT_WINDOW_LIFETIMES` event lifetimes vs
        the rate the flow predicts.

        The prediction is |footprint| * speed events per second, which
        overcounts interiors but is a stable normalizer; healthy planes
        sit well above the prune threshold on it.
        """
        window_s = _HIT_WINDOW_LIFETIMES * self.event_lifetime_s()
        cutoff = now_us - int(window_s * 1e6)
        times = self.hit_times
        while times and times[0] < cutoff:
            times.popleft()
        speed = max(self.center_flow.speed, V_FLOOR)
        expected = self.footprint_size() * speed * window_s
        if expected <= 0.0:
            return 0.0
        return len(times) / expected

    def age_lifetimes(self, now_us: int) -> float:
        """Plane age in units of the current event lifetime."""
        return (now_us - self.created_us) * 1e-6 / self.event_lifetime_s()

    def snapshot_row(self, now_us: int) -> str:
        f = self.center_flow
        return (f"{self.plane_id},{now_us},{f.v_u!r},{f.v_v!r},"
                f"{self.footprint_size()},{len(self.held)}")
