import dataclasses

import pytest

from flowseg.events import Event
from flowseg.projection import ConsistencyError
from flowseg.track_plane import (_LIFETIME_PX, TrackPlane, TrackPlaneConfig,
                                 event_lifetime_s)

from oracles import pack_cell, sum_squares


def make_plane(flow=(58.0, 0.0), cfg=None, n_events=5):
    # a short burst of coincident-trajectory events seeds the footprint
    events = [Event(20 + i, 40, i * 1000, 1) for i in range(n_events)]
    return TrackPlane(0, flow, events, cfg or TrackPlaneConfig())


def test_event_lifetime_is_pixels_over_speed():
    assert _LIFETIME_PX == 3.0
    lifetime = event_lifetime_s((58.0, 0.0))
    assert lifetime == pytest.approx(3.0 / 58.0, rel=1e-12)
    # slow flows clamp to the velocity floor instead of diverging
    assert event_lifetime_s((0.0, 0.0)) == pytest.approx(3.0)
    assert event_lifetime_s((30.0, 40.0)) == pytest.approx(3.0 / 50.0)


def test_try_match_hits_and_march():
    cfg = TrackPlaneConfig(evolve_threshold=1000)   # promotion off
    plane = make_plane((100.0, 0.0), cfg)
    # 10 ms later the structure has marched 1 px in +u: an event there
    # projects straight back onto the footprint
    ev = Event(25, 40, 10_000, 1)
    assert plane.try_match(ev) is True
    assert len(plane) == 6 and plane.held[-1] == ev
    far = Event(200, 170, 11_000, 1)
    assert plane.try_match(far) is False
    # a miss is not held; its projected cell only counts toward promotion
    assert len(plane) == 6
    assert list(plane.miss_counts.values()) == [1]
    assert not plane.promoted


def test_persistent_misses_promote_cell():
    cfg = TrackPlaneConfig(evolve_threshold=3)
    plane = make_plane((0.0, 0.0), cfg)
    ev = Event(90, 90, 1000, 1)
    key = pack_cell(90, 90)           # zero flow projects in place
    assert plane.try_match(ev) is False
    assert plane.try_match(ev._replace(t=2000)) is False
    assert key not in plane.promoted and plane.footprint_size() == 5
    assert plane.try_match(ev._replace(t=3000)) is False   # third strike
    assert key in plane.promoted and plane.footprint_size() == 6
    assert plane.try_match(ev._replace(t=4000)) is True


def test_expire_drops_old_events():
    cfg = TrackPlaneConfig(evolve_threshold=1000)
    plane = make_plane((100.0, 0.0), cfg)
    lifetime_us = int(plane.event_lifetime_s() * 1e6)    # 30 ms at 100 px/s
    held_before = len(plane)
    removed = plane.expire(plane.held[-1].t + lifetime_us + 1)
    assert removed == held_before
    assert len(plane) == 0
    assert sum_squares(plane.grid.cells) == 0


def test_expire_keeps_promoted_cell_in_footprint():
    cfg = TrackPlaneConfig(evolve_threshold=1)
    plane = make_plane((0.0, 0.0), cfg, n_events=1)
    stray = Event(90, 90, 1000, 1)
    assert plane.try_match(stray) is False       # promoted at once
    assert plane.try_match(stray._replace(t=2000)) is True
    key = pack_cell(90, 90)
    plane.expire(2000 + int(plane.event_lifetime_s() * 1e6) + 1)
    assert len(plane) == 0
    # the cell is back at 0, but a promoted cell stays in the footprint:
    # it is counted, and an event there is a hit
    assert plane.grid.cells[key] == 0
    assert key in plane.promoted and plane.footprint_size() == 1
    now_us = plane.hit_times[-1] + 10 ** 7
    assert plane.snapshot_row(now_us).split(",")[4:] == ["1", "0"]
    assert plane.try_match(stray._replace(t=now_us)) is True


def test_expire_raises_on_event_never_accumulated():
    cfg = TrackPlaneConfig(evolve_threshold=1000)
    plane = make_plane((100.0, 0.0), cfg)
    # a foreign event in `held`, kept under a cell the grid never
    # accumulated, has no cell to retract from
    plane.held.append(Event(200, 170, plane.held[-1].t + 1, 1))
    plane.held_keys.append(pack_cell(200, 170))
    assert pack_cell(200, 170) not in plane.grid.cells
    with pytest.raises(ConsistencyError, match="plane 0"):
        plane.expire(plane.held[-1].t + 10 ** 6)


def test_recenter_lays_a_new_frame():
    cfg = TrackPlaneConfig(evolve_threshold=2)
    plane = make_plane((58.0, 0.0), cfg)
    # the structure has marched 2.3 px in +u by 40 ms: a hit
    assert plane.try_match(Event(22, 40, 40_000, 1)) is True
    stray = Event(90, 90, 41_000, 1)
    assert plane.try_match(stray) is False
    assert plane.try_match(stray._replace(t=41_500)) is False   # promoted
    assert plane.try_match(Event(5, 5, 42_000, 1)) is False     # counted
    assert plane.promoted and plane.miss_counts
    hit_times, created_us = list(plane.hit_times), plane.created_us

    events = list(plane.held)[2:]
    plane.recenter((60.0, 1.0), events)
    fresh = TrackPlane(0, (60.0, 1.0), events, cfg)
    assert plane.center_flow == fresh.center_flow == (60.0, 1.0)
    assert plane.t_ref_us == fresh.t_ref_us == 2000
    assert list(plane.held) == events
    assert plane.held_keys == fresh.held_keys
    assert plane.grid.cells == fresh.grid.cells
    assert (plane.footprint_size() == fresh.footprint_size()
            == len(plane.grid.nonzero_cells()))
    # promoted cells and miss counts belong to the old frame
    assert plane.promoted == set() and plane.miss_counts == {}
    # the hit history and the age are the plane's, not the frame's
    assert list(plane.hit_times) == hit_times
    assert plane.created_us == created_us
    with pytest.raises(ValueError, match="at least one event"):
        plane.recenter((60.0, 1.0), [])


def test_config_validation():
    assert [f.name for f in dataclasses.fields(TrackPlaneConfig)] == [
        "evolve_threshold"]
    # h_max_deg is accepted and ignored, and is no field
    assert TrackPlaneConfig(h_max_deg=0.1) == TrackPlaneConfig()
    with pytest.raises(ValueError):
        TrackPlaneConfig(evolve_threshold=0)
    with pytest.raises(TypeError):
        TrackPlaneConfig(v_floor=1.0)          # a constant, V_FLOOR
    with pytest.raises(TypeError):
        TrackPlaneConfig(lifetime_px=3.0)      # a constant, _LIFETIME_PX
    with pytest.raises(ValueError):
        TrackPlane(0, (1.0, 0.0), [], TrackPlaneConfig())
