"""Streaming segmentation engine.

Events are offered to tracking planes oldest-first; the first hit labels
the event with that plane's id and current flow.  Events every plane
misses feed the flow initializer, which emits a new tracking plane once
a candidate flow has been stable and its support extracted.  Every
maintenance_period events the engine flushes stale initializer events
(they are retracted with the initializer's next batch), expires old
tracking events, merges planes that agree in flow and overlap in
footprint, and prunes planes whose hit rate has collapsed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from .events import Event, OrderingError
from .flow_plane import FlowPlane, FlowPlaneConfig
from .projection import KEY_M, FlowVector
from .track_plane import TrackPlane, TrackPlaneConfig

UNLABELED = -1


class FlowLabeledEvent(NamedTuple):
    u: int
    v: int
    t: int          # microseconds
    s: int
    segment: int    # plane id, or UNLABELED
    v_u: float      # nan when unlabeled
    v_v: float

    def line(self) -> str:
        return (f"{self.t} {self.u} {self.v} {self.s} {self.segment} "
                f"{self.v_u!r} {self.v_v!r}")


def write_labeled(records: Iterable[FlowLabeledEvent], destination) -> int:
    """Write labeled events, one per line; returns the record count."""
    count = 0
    with open(destination, "w") as fh:
        fh.write("# t u v s segment v_u v_v\n")
        for rec in records:
            fh.write(rec.line() + "\n")
            count += 1
    return count


def read_labeled(source) -> list[FlowLabeledEvent]:
    records = []
    with open(source) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            t, u, v, s, seg = (int(parts[0]), int(parts[1]), int(parts[2]),
                               int(parts[3]), int(parts[4]))
            records.append(FlowLabeledEvent(u, v, t, s, seg,
                                            float(parts[5]), float(parts[6])))
    return records


@dataclass
class EngineConfig:
    flow_plane: FlowPlaneConfig = field(default_factory=FlowPlaneConfig)
    track_plane: TrackPlaneConfig = field(default_factory=TrackPlaneConfig)
    maintenance_period: int = 1000     # events between maintenance sweeps
    merge_flow_tol: float = 0.15       # relative flow difference
    # cells of the larger footprint within one cell (8-neighborhood) of
    # the smaller one, over the smaller footprint's size; can exceed 1
    merge_overlap_tol: float = 0.25
    prune_fraction: float = 0.1        # expected_hit_fraction floor
    prune_window_lifetimes: float = 2.0
    prune_grace_lifetimes: float = 1.0

    def __post_init__(self):
        if self.maintenance_period < 1:
            raise ValueError("maintenance_period must be at least 1")
        for name in ("merge_flow_tol", "merge_overlap_tol", "prune_fraction",
                     "prune_window_lifetimes", "prune_grace_lifetimes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class EngineStats:
    events_in: int = 0
    hits: int = 0
    unlabeled: int = 0
    planes_created: int = 0
    merges: int = 0
    prunes: int = 0
    noise_flushed: int = 0
    maintenance_runs: int = 0

    def as_lines(self) -> list[str]:
        return [f"{name}={getattr(self, name)}" for name in (
            "events_in", "hits", "unlabeled", "planes_created", "merges",
            "prunes", "noise_flushed", "maintenance_runs")]


def _dilate_cells(cells: set[int]) -> set[int]:
    """1-cell 8-neighborhood dilation over packed keys."""
    out = set()
    offsets = (0, 1, -1, KEY_M, -KEY_M, KEY_M + 1, KEY_M - 1,
               -KEY_M + 1, -KEY_M - 1)
    for key in cells:
        for off in offsets:
            out.add(key + off)
    return out


class Engine:
    def __init__(self, cfg: Optional[EngineConfig] = None):
        self.cfg = cfg or EngineConfig()
        self.flow_plane = FlowPlane(self.cfg.flow_plane)
        self.planes: list[TrackPlane] = []
        self.next_plane_id = 0
        self.stats = EngineStats()
        self._last_t: Optional[int] = None
        self._since_maintenance = 0

    def process(self, ev: Event) -> FlowLabeledEvent:
        """Label one event; may create, merge or prune planes as a side
        effect.  Events must arrive in non-decreasing time order, with
        polarity +1 or -1.

        The engine has no sensor geometry and projects any coordinate;
        `events.load_stream` is where off-sensor events are rejected.
        """
        u, v, t, s = ev
        if s != 1 and s != -1:
            # the grids count an event by s with s*s == 1
            raise ValueError(f"event {self.stats.events_in}: polarity must "
                             f"be +1 or -1, got {s}")
        if self._last_t is not None and t < self._last_t:
            raise OrderingError(
                f"event at {t} us arrived after {self._last_t} us",
                index=self.stats.events_in)
        self._last_t = t
        self.stats.events_in += 1

        label = UNLABELED
        flow_u = flow_v = math.nan
        for plane in self.planes:
            if plane.try_match(ev):
                label = plane.plane_id
                flow_u = plane.center_flow.v_u
                flow_v = plane.center_flow.v_v
                break
        if label == UNLABELED:
            self.flow_plane.ingest(ev)
            if self.flow_plane.stability_check():
                seed = self.flow_plane.try_emit()
                if seed is not None:
                    plane = TrackPlane(self.next_plane_id, seed.flow,
                                       seed.events, self.cfg.track_plane)
                    self.next_plane_id += 1
                    self.planes.append(plane)
                    self.stats.planes_created += 1
            self.stats.unlabeled += 1
        else:
            self.stats.hits += 1

        self._since_maintenance += 1
        if self._since_maintenance >= self.cfg.maintenance_period:
            self._since_maintenance = 0
            self.maintenance(t)
        return FlowLabeledEvent(u, v, t, s, label, flow_u, flow_v)

    def run(self, events: Iterable[Event]) -> list[FlowLabeledEvent]:
        out = [self.process(ev) for ev in events]
        self.finish()
        return out

    def finish(self) -> None:
        """End-of-stream maintenance; call after the last event."""
        if self._last_t is not None:
            self.maintenance(self._last_t)

    def maintenance(self, now_us: int) -> None:
        self.stats.maintenance_runs += 1
        self.stats.noise_flushed += self.flow_plane.flush_noise(now_us)
        for plane in self.planes:
            plane.expire(now_us)
        self._merge_planes(now_us)
        self._prune_planes(now_us)

    def _flows_agree(self, a: TrackPlane, b: TrackPlane) -> bool:
        fa, fb = a.center_flow, b.center_flow
        diff = math.hypot(fa.v_u - fb.v_u, fa.v_v - fb.v_v)
        scale = max(fa.speed, fb.speed, self.cfg.track_plane.v_floor)
        return diff / scale < self.cfg.merge_flow_tol

    def _footprints_overlap(self, a: TrackPlane, b: TrackPlane,
                            now_us: int) -> bool:
        fp_a = a.footprint_at(now_us)
        fp_b = b.footprint_at(now_us)
        if not fp_a or not fp_b:
            return False
        if len(fp_a) <= len(fp_b):
            smaller, larger = fp_a, fp_b
        else:
            smaller, larger = fp_b, fp_a
        shared = len(_dilate_cells(smaller) & larger)
        return shared / len(smaller) > self.cfg.merge_overlap_tol

    def _merge_pair(self, keep: TrackPlane, drop: TrackPlane) -> TrackPlane:
        total = len(keep.held) + len(drop.held)
        wa = len(keep.held) / total
        wb = len(drop.held) / total
        flow = FlowVector(
            wa * keep.center_flow.v_u + wb * drop.center_flow.v_u,
            wa * keep.center_flow.v_v + wb * drop.center_flow.v_v)
        events = sorted(list(keep.held) + list(drop.held), key=lambda e: e.t)
        merged = TrackPlane(keep.plane_id, flow, events, self.cfg.track_plane)
        merged.created_us = min(keep.created_us, drop.created_us)
        # hit history must survive, or the next prune sweep reads an
        # empty window and kills the merged plane on the spot
        merged.hit_times.extend(sorted(list(keep.hit_times)
                                       + list(drop.hit_times)))
        merged.total_hits = keep.total_hits + drop.total_hits
        merged.total_misses = keep.total_misses + drop.total_misses
        merged.recenters = keep.recenters + drop.recenters
        merged.promotions = keep.promotions + drop.promotions
        merged.expired = keep.expired + drop.expired
        return merged

    def _merge_planes(self, now_us: int) -> None:
        changed = True
        while changed:
            changed = False
            n = len(self.planes)
            for i in range(n):
                for j in range(i + 1, n):
                    a, b = self.planes[i], self.planes[j]
                    if len(a.held) + len(b.held) == 0:
                        continue
                    if not self._flows_agree(a, b):
                        continue
                    if not self._footprints_overlap(a, b, now_us):
                        continue
                    self.planes[i] = self._merge_pair(a, b)
                    del self.planes[j]
                    self.stats.merges += 1
                    changed = True
                    break
                if changed:
                    break

    def _prune_planes(self, now_us: int) -> None:
        cfg = self.cfg
        survivors = []
        for plane in self.planes:
            if plane.age_lifetimes(now_us) <= cfg.prune_grace_lifetimes:
                survivors.append(plane)
                continue
            rate = plane.expected_hit_fraction(now_us,
                                               cfg.prune_window_lifetimes)
            if rate < cfg.prune_fraction:
                self.stats.prunes += 1
            else:
                survivors.append(plane)
        self.planes = survivors

    def snapshot_rows(self, now_us: Optional[int] = None) -> list[str]:
        """One CSV row per live plane, ascending id."""
        if now_us is None:
            now_us = self._last_t if self._last_t is not None else 0
        rows = ["id,t,v_u,v_v,h_deg,cells,events"]
        for plane in sorted(self.planes, key=lambda p: p.plane_id):
            rows.append(plane.snapshot_row(now_us))
        return rows


def run_stream(events: Sequence[Event],
               cfg: Optional[EngineConfig] = None
               ) -> tuple[list[FlowLabeledEvent], Engine]:
    """Convenience wrapper: fresh engine, full pass, finish, results."""
    engine = Engine(cfg)
    labeled = engine.run(events)
    return labeled, engine
