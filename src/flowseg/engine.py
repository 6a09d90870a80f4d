"""Streaming segmentation engine.

Events are offered to tracking planes oldest-first; the first hit labels
the event with that plane's id and current flow.  Events every plane
misses feed the flow initializer, whose `ingest` returns the seed of a
new tracking plane once a candidate flow has been stable for p_stable
events and its support extracted.  Every `_MAINTENANCE_PERIOD` events
the engine flushes stale initializer events (they are retracted with
the initializer's next batch), expires old tracking events, merges
planes that agree in flow and overlap in footprint, and prunes planes
whose hit rate has collapsed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Sequence

from .events import (Event, OrderingError, RecordFormat, read_records,
                     source_text, write_records)
from .flow_plane import FlowPlane, FlowPlaneConfig
from .projection import NEIGHBORS_8, FlowVector
from .track_plane import V_FLOOR, TrackPlane, TrackPlaneConfig

UNLABELED = -1


class FlowLabeledEvent(NamedTuple):
    u: int
    v: int
    t: int          # microseconds
    s: int
    segment: int    # plane id, or UNLABELED
    v_u: float      # nan when unlabeled
    v_v: float


# builds a FlowLabeledEvent from one 7-tuple with no Python-level call
_labeled_event = partial(tuple.__new__, FlowLabeledEvent)

LABELED_FORMAT = RecordFormat((int, int, int, int, int, float, float),
                              (1, 2, 0, 3, 4, 5, 6), FlowLabeledEvent)


def write_labeled(records: Iterable[FlowLabeledEvent], destination) -> int:
    """Write labeled events, one per line after a header comment, to a
    path or an open text file; returns the record count."""
    return write_records(destination, LABELED_FORMAT,
                         "# t u v s segment v_u v_v", records)


def read_labeled(source) -> list[FlowLabeledEvent]:
    """Read a file written by `write_labeled`, from its path or its
    lines, as `events.read_records` reads any record format; a record
    that is not ``t u v s segment v_u v_v`` raises ParseError naming its
    line and field.  A file must be ASCII (see `read_ascii`)."""
    return read_records(source_text(source), LABELED_FORMAT)


@dataclass
class EngineConfig:
    flow_plane: FlowPlaneConfig = field(default_factory=FlowPlaneConfig)
    track_plane: TrackPlaneConfig = field(default_factory=TrackPlaneConfig)


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
        return [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]


# events between maintenance sweeps, which walk every plane and pair of
# planes: 28 ms of the 36k events/s hexagon, 0.2 s of 5k events/s noise
_MAINTENANCE_PERIOD = 1000
# maintenance thresholds
_MERGE_FLOW_TOL = 0.15          # relative flow difference
# cells of the larger footprint within one cell (8-neighborhood) of the
# smaller one, over the smaller footprint's size; can exceed 1
_MERGE_OVERLAP_TOL = 0.25
_PRUNE_FRACTION = 0.1           # expected_hit_fraction floor
# a plane no older than this many event lifetimes is never pruned
_PRUNE_GRACE_LIFETIMES = 1.0


def _dilate_cells(cells: set[int]) -> set[int]:
    """1-cell 8-neighborhood dilation over packed keys."""
    out = set(cells)
    for key in cells:
        for off in NEIGHBORS_8:
            out.add(key + off)
    return out


class Engine:
    def __init__(self, cfg: Optional[EngineConfig] = None):
        self.cfg = cfg or EngineConfig()
        self.flow_plane = FlowPlane(self.cfg.flow_plane)
        self.planes: list[TrackPlane] = []
        self.stats = EngineStats()
        self._last_t: Optional[int] = None

    def process(self, ev: Event) -> FlowLabeledEvent:
        """Label one event; may create, merge or prune planes as a side
        effect.  Events must arrive in non-decreasing time order, with
        polarity +1 or -1.

        The engine has no sensor geometry and projects any coordinate;
        `events.load_stream` is where off-sensor events are rejected.
        """
        u, v, t, s = ev
        stats = self.stats
        if s != 1 and s != -1:
            # the grids count an event by s with s*s == 1
            raise ValueError(f"event {stats.events_in}: polarity must "
                             f"be +1 or -1, got {s}")
        last_t = self._last_t
        if last_t is not None and t < last_t:
            raise OrderingError(f"event at {t} us arrived after {last_t} us",
                                index=stats.events_in)
        self._last_t = t
        stats.events_in += 1

        for plane in self.planes:
            if plane.try_match(ev):
                stats.hits += 1
                record = _labeled_event((u, v, t, s, plane.plane_id,
                                         plane._center_vu, plane._center_vv))
                break
        else:
            seed = self.flow_plane.ingest(ev)
            if seed is not None:
                # ids count the planes created: each is used once
                self.planes.append(TrackPlane(
                    stats.planes_created, seed.flow, seed.events,
                    self.cfg.track_plane))
                stats.planes_created += 1
            stats.unlabeled += 1
            record = _labeled_event((u, v, t, s, UNLABELED, math.nan,
                                     math.nan))

        if stats.events_in % _MAINTENANCE_PERIOD == 0:
            self.maintenance(t)
        return record

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
        scale = max(fa.speed, fb.speed, V_FLOOR)
        return diff / scale < _MERGE_FLOW_TOL

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
        return shared / len(smaller) > _MERGE_OVERLAP_TOL

    def _merge_pair(self, keep: TrackPlane, drop: TrackPlane) -> None:
        """Recenter `keep` on both planes' events, at the held-weighted
        mean of their flows."""
        total = len(keep.held) + len(drop.held)
        wa = len(keep.held) / total
        wb = len(drop.held) / total
        flow = FlowVector(
            wa * keep.center_flow.v_u + wb * drop.center_flow.v_u,
            wa * keep.center_flow.v_v + wb * drop.center_flow.v_v)
        keep.recenter(flow, sorted(list(keep.held) + list(drop.held),
                                   key=lambda e: e.t))
        keep.created_us = min(keep.created_us, drop.created_us)
        # hit history must survive, or the next prune sweep reads an
        # empty window and kills the merged plane on the spot
        keep.hit_times = deque(sorted(list(keep.hit_times)
                                      + list(drop.hit_times)))

    def _merge_planes(self, now_us: int) -> None:
        """Merge the first pair of planes, in plane order, that agree in
        flow and overlap in footprint, until no pair does."""
        while pair := next((
                (a, b) for a, b in combinations(self.planes, 2)
                if self._flows_agree(a, b)
                and self._footprints_overlap(a, b, now_us)), None):
            self._merge_pair(*pair)
            self.planes.remove(pair[1])
            self.stats.merges += 1

    def _prune_planes(self, now_us: int) -> None:
        survivors = []
        for plane in self.planes:
            if plane.age_lifetimes(now_us) <= _PRUNE_GRACE_LIFETIMES:
                survivors.append(plane)
                continue
            if plane.expected_hit_fraction(now_us) < _PRUNE_FRACTION:
                self.stats.prunes += 1
            else:
                survivors.append(plane)
        self.planes = survivors

    def snapshot_rows(self) -> list[str]:
        """One CSV row per live plane, ascending id, at the last event's
        time (0 before any event)."""
        now_us = self._last_t if self._last_t is not None else 0
        rows = ["id,t,v_u,v_v,cells,events"]
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
