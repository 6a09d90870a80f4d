"""Velocity tracking: one plane per segmented structure.

A plane owns m x m accumulation grids whose flows are angular
perturbations (step h per axis) around the plane's center flow; by
default m = 1, the center grid alone.  An event whose center-grid
projection lands in the active footprint is a hit: it accumulates into
every grid, and each grid whose own projected cell was already nonzero
scores a hit point.  When any grid's points clear hit_fraction *
|footprint| the plane recenters: it adopts an off-center grid's flow
and doubles h when that grid wins clearly, halves h when the center
wins, and doubles h on a tie, when no grid separated.  This velocity
walk needs m >= 3: with the center grid alone every recenter is a tie,
and the flow moves only when the engine merges planes.
Misses are counted per projected cell; a cell missed evolve_threshold
times is promoted into the footprint, which is how the plane follows
contour change.  All grids project from one reference time, set when a
frame is laid: at creation and when an off-center grid wins.  Events
expire lifetime_px / speed seconds after arrival and retract from all
grids in one batch.  Bulk updates (a new plane, an expiry, a
regeneration) project their events onto all m x m grids through the
kernel that discovery uses, one speed row of m grids at a time.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .events import Event
from .projection import (KEY_M, MAX_GRIDS, AccumulatorGrid, ConsistencyError,
                         FlowVector, cell_key, event_columns, grid_flow,
                         grid_images, round_half_away)


@dataclass
class TrackPlaneConfig:
    m_grid: int = 1                # grids per axis (odd, center = current flow)
                                   # the walk (h*_deg, hit_fraction,
                                   # min_recenter_hits) acts only at 3 and up
    v_ref: float = 100.0           # px/s mapped to 45 deg, as in the flow plane
    h0_deg: float = 0.02           # initial angular perturbation step
    h_min_deg: float = 0.001
    h_max_deg: float = 5.0
    hit_fraction: float = 0.10     # recenter when a grid's hits clear this * |A|
    min_recenter_hits: int = 16    # floor on that trigger; tiny footprints would
                                   # otherwise recenter on 2-3 events of noise
    evolve_threshold: int = 3      # misses in one cell before promotion
    lifetime_px: float = 3.0       # event lifetime = lifetime_px / speed
    v_floor: float = 1.0           # px/s floor for lifetime and rate estimates

    def __post_init__(self):
        if self.m_grid < 1 or self.m_grid % 2 == 0:
            raise ValueError("m_grid must be odd and at least 1")
        if self.m_grid * self.m_grid > MAX_GRIDS:
            # the largest odd m with m*m grids: 1023
            raise ValueError(
                f"m_grid must be at most {math.isqrt(MAX_GRIDS) - 1 | 1}: "
                f"the keys of m_grid**2 grids must fit in int64")
        if self.v_ref <= 0:
            raise ValueError("v_ref must be positive")
        if not 0 < self.h_min_deg <= self.h0_deg <= self.h_max_deg:
            raise ValueError("need 0 < h_min_deg <= h0_deg <= h_max_deg")
        if not 0 < self.hit_fraction:
            raise ValueError("hit_fraction must be positive")
        if self.min_recenter_hits < 1:
            raise ValueError("min_recenter_hits must be at least 1")
        if self.evolve_threshold < 1:
            raise ValueError("evolve_threshold must be at least 1")
        if self.lifetime_px <= 0 or self.v_floor <= 0:
            raise ValueError("lifetime_px and v_floor must be positive")


def event_lifetime_s(flow, cfg: TrackPlaneConfig) -> float:
    """Seconds an event stays relevant: lifetime_px / max(speed, v_floor)."""
    speed = math.hypot(flow[0], flow[1])
    return cfg.lifetime_px / max(speed, cfg.v_floor)


class TrackPlane:
    """Tracks one structure: its flow, its footprint, its recent events.

    The grids are an array stored as its two speed axes, `col_vu` and
    `row_vv`, the center flow perturbed by -m//2..m//2 steps of h: grid
    k's flow is `grid_flow(col_vu, row_vv, k)`.  Every grid projects
    relative to `t_ref_us`, the oldest held event's time when the frame
    was laid; the footprint `active` and the miss counts are cells of the
    center grid in that frame.
    """

    def __init__(self, plane_id: int, flow, events: Sequence[Event],
                 cfg: Optional[TrackPlaneConfig] = None):
        if not events:
            raise ValueError("a tracking plane needs at least one event")
        self.cfg = cfg or TrackPlaneConfig()
        self.plane_id = plane_id
        self.center_flow = FlowVector(float(flow[0]), float(flow[1]))
        self.h = math.radians(self.cfg.h0_deg)
        self._h_min = math.radians(self.cfg.h_min_deg)
        self._h_max = math.radians(self.cfg.h_max_deg)
        m = self.cfg.m_grid
        self.center_index = (m // 2) * m + m // 2
        self.held: deque[Event] = deque(events)
        self.hits = [0] * (m * m)
        self.miss_counts: dict[int, int] = {}
        self.hit_times: deque[int] = deque()
        self.created_us = events[-1].t
        self._regenerate(lay_frame=True)

    def _perturb(self, value: float, steps: int) -> float:
        if steps == 0:
            return value
        v_ref = self.cfg.v_ref
        return v_ref * math.tan(math.atan(value / v_ref) + steps * self.h)

    def event_lifetime_s(self) -> float:
        return event_lifetime_s(self.center_flow, self.cfg)

    def __len__(self) -> int:
        return len(self.held)

    def try_match(self, ev: Event) -> bool:
        """Offer one event.  True: absorbed as a hit.  False: miss."""
        u, v, t, s = ev
        held = self.held
        if held and held[0].t < t - self._lifetime_us:
            self.expire(t)
        dt = (t - self.t_ref_us) * 1e-6
        key = cell_key(u, v, dt, self._center_vu, self._center_vv)

        if key not in self.active:
            count = self.miss_counts.get(key, 0) + 1
            if count >= self.cfg.evolve_threshold:
                # persistent misses promote the cell; the footprint evolves
                self.active.add(key)
                self.promoted.add(key)
                self.miss_counts.pop(key, None)
            else:
                self.miss_counts[key] = count
            return False

        # each axis is rounded once per column or row of the grids
        xs = [round_half_away(u - vu * dt) * KEY_M for vu in self.col_vu]
        grids = self.grids
        hits = self.hits
        k = 0
        for vv in self.row_vv:
            y = round_half_away(v - vv * dt)
            for x in xs:
                gkey = x + y
                cells = grids[k].cells
                c = cells.get(gkey, 0)
                if c != 0:
                    hits[k] += 1
                cells[gkey] = c + s
                k += 1
        center_cells = grids[self.center_index].cells
        if center_cells[key] == 0 and key not in self.promoted:
            self.active.discard(key)
        held.append(ev)
        self.hit_times.append(t)

        thr = self.cfg.hit_fraction * len(self.active)
        if thr < self.cfg.min_recenter_hits:
            thr = self.cfg.min_recenter_hits
        if max(hits) > thr:
            self.recenter(t)
        return True

    def expire(self, now_us: int) -> int:
        """Retract events older than the lifetime; returns how many."""
        cutoff = now_us - self._lifetime_us
        held = self.held
        stale = []
        while held and held[0].t < cutoff:
            stale.append(held.popleft())
        if not stale:
            return 0
        images = grid_images(event_columns(stale), self.t_ref_us,
                             self.col_vu, self.row_vv)
        center = self.center_index
        for k, (grid, image) in enumerate(zip(self.grids, images)):
            try:
                touched = grid.retract_batch(*image)
            except ConsistencyError as exc:
                raise ConsistencyError(f"plane {self.plane_id}: {exc}") from exc
            if k == center:
                # the footprint is the nonzero center cells plus the
                # promoted ones; only the touched cells can have changed
                cells = grid.cells
                for key in touched:
                    if cells[key]:
                        self.active.add(key)
                    elif key not in self.promoted:
                        self.active.discard(key)
        return len(stale)

    def recenter(self, now_us: int) -> None:
        """Adopt the winning grid's flow and rebuild the perturbations.

        Ties that still separate some grids prefer the center; h halves
        on such a center win (clamped to h_min) and doubles when an edge
        grid wins (clamped to h_max).  Only an off-center win lays a new
        frame; a center win or a tie keeps the reference time and the
        footprint, so the rebuilt center grid has the same nonzero cells.

        Three guards keep the walk sane.  An off-center grid is adopted
        only when it beats the center by a clear hit margin; below that
        the difference is counting luck near cell boundaries, and
        chasing it sends the flow on a runaway random walk.  The winner
        must also beat the center's contrast metric, otherwise a noisy
        hit surplus can drag the flow off a projection that is plainly
        crisper; this is the only read of a tracking grid's contrast, so
        it is summed here and not kept up to date per hit.  And when
        every projection counted about the same hits the perturbations
        are below what 1 px cells resolve over one lifetime, so instead
        of the halve (which would ratchet h to the floor and freeze the
        flow even as the true velocity drifts away) the tie keeps the
        center flow and doubles h, widening the net until the grids
        separate.
        """
        hits = self.hits
        peak = max(hits)
        center = self.center_index
        center_hits = hits[center]
        winner = center if center_hits == peak else hits.index(peak)
        # spreads below this are boundary-rounding luck, not signal
        margin = max(3, math.ceil(0.25 * peak))
        if (winner != center and peak >= center_hits + margin
                and self.grids[winner].metric > self.grids[center].metric):
            self.center_flow = grid_flow(self.col_vu, self.row_vv, winner)
            self.h = min(self.h * 2.0, self._h_max)
            self._regenerate(lay_frame=True)
        else:
            if peak - min(hits) >= margin:
                new_h = max(self.h / 2.0, self._h_min)
            else:
                new_h = min(self.h * 2.0, self._h_max)
            # h pinned at a bound leaves every grid flow unchanged, so
            # regeneration would rebuild identical grids; skip it
            if new_h != self.h:
                self.h = new_h
                self._regenerate(lay_frame=False)
        self.hits = [0] * (self.cfg.m_grid ** 2)

    def _regenerate(self, lay_frame: bool) -> None:
        """Lay the axes around the center flow and rebuild every grid from
        the held events.  `lay_frame` also sets a new reference time (the
        oldest held event's; the old one when nothing is held) and a new
        footprint; otherwise both stay."""
        m = self.cfg.m_grid
        half = m // 2
        vu, vv = self.center_flow
        # flat copies: the match loop runs per event
        self._center_vu, self._center_vv = vu, vv
        self.col_vu = [self._perturb(vu, i - half) for i in range(m)]
        self.row_vv = [self._perturb(vv, j - half) for j in range(m)]
        self._lifetime_us = int(self.event_lifetime_s() * 1e6)
        if lay_frame and self.held:
            self.t_ref_us = self.held[0].t
        images = grid_images(event_columns(self.held), self.t_ref_us,
                             self.col_vu, self.row_vv)
        self.grids = [AccumulatorGrid() for _ in images]
        for grid, image in zip(self.grids, images):
            grid.accumulate_batch(*image)
        if lay_frame:
            self.active = self.grids[self.center_index].nonzero_cells()
            self.promoted = set()
            # miss counts survive: promotion pressure must outlive recenters

    def footprint_at(self, now_us: int) -> set[int]:
        """Nonzero center cells translated to sensor position at now_us."""
        dt = (now_us - self.t_ref_us) * 1e-6
        dx = round_half_away(self._center_vu * dt)
        dy = round_half_away(self._center_vv * dt)
        shift = dx * KEY_M + dy
        cells = self.grids[self.center_index].nonzero_cells()
        return {key + shift for key in cells}

    def expected_hit_fraction(self, now_us: int,
                              window_lifetimes: float = 2.0) -> float:
        """Observed hits over the window vs the rate the flow predicts.

        The prediction is |footprint| * speed events per second, which
        overcounts interiors but is a stable normalizer; healthy planes
        sit well above the prune threshold on it.
        """
        window_s = window_lifetimes * self.event_lifetime_s()
        cutoff = now_us - int(window_s * 1e6)
        times = self.hit_times
        while times and times[0] < cutoff:
            times.popleft()
        speed = max(self.center_flow.speed, self.cfg.v_floor)
        expected = len(self.active) * speed * window_s
        if expected <= 0.0:
            return 0.0
        return len(times) / expected

    def age_lifetimes(self, now_us: int) -> float:
        """Plane age in units of the current event lifetime."""
        return (now_us - self.created_us) * 1e-6 / self.event_lifetime_s()

    def snapshot_row(self, now_us: int) -> str:
        f = self.center_flow
        h_deg = math.degrees(self.h)
        return (f"{self.plane_id},{now_us},{f.v_u!r},{f.v_v!r},{h_deg!r},"
                f"{len(self.active)},{len(self.held)}")
