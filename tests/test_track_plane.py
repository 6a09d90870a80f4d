import math
from unittest import mock

import pytest

from flowseg import track_plane
from flowseg.events import Event
from flowseg.projection import ConsistencyError, FlowVector, grid_flow
from flowseg.track_plane import TrackPlane, TrackPlaneConfig, event_lifetime_s

from oracles import pack_cell


def make_plane(flow=(58.0, 0.0), cfg=None, n_events=5):
    # a short burst of coincident-trajectory events seeds the footprint
    events = [Event(20 + i, 40, i * 1000, 1) for i in range(n_events)]
    return TrackPlane(0, flow, events, cfg or TrackPlaneConfig())


def set_cells(grid, values):
    # in place: the plane's match loop holds each grid's cell dict
    grid.cells.clear()
    grid.cells.update(values)


def test_event_lifetime_is_pixels_over_speed():
    cfg = TrackPlaneConfig()
    assert cfg.lifetime_px == 3.0
    lifetime = event_lifetime_s((58.0, 0.0), cfg)
    assert lifetime == pytest.approx(3.0 / 58.0, rel=1e-12)
    # slow flows clamp to the velocity floor instead of diverging
    assert event_lifetime_s((0.0, 0.0), cfg) == pytest.approx(3.0)
    assert event_lifetime_s((30.0, 40.0), cfg) == pytest.approx(3.0 / 50.0)


def test_perturbation_walks_in_angle_space():
    plane = make_plane((0.0, 0.0))
    h = plane.h
    v_ref = plane.cfg.v_ref
    up = plane._perturb(0.0, 1)
    down = plane._perturb(0.0, -1)
    assert up == pytest.approx(v_ref * math.tan(h), rel=1e-12)
    assert down == pytest.approx(-up, rel=1e-9)
    # one step up from a fast flow is a bigger velocity change than from
    # zero: equal angle steps, tan-stretched velocity steps
    fast = plane._perturb(200.0, 1) - 200.0
    assert fast > up


def test_grid_flows_center_and_shape():
    cfg = TrackPlaneConfig(m_grid=3)
    plane = make_plane((58.0, 0.0), cfg)
    assert len(plane.col_vu) == len(plane.row_vv) == 3
    assert (plane.col_vu[1], plane.row_vv[1]) == (58.0, 0.0)
    # the corner grid differs in both components
    corner = grid_flow(plane.col_vu, plane.row_vv, 0)
    assert corner == (plane.col_vu[0], plane.row_vv[0])
    assert corner.v_u != 58.0 and corner.v_v != 0.0


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
    assert key not in plane.active and key not in plane.promoted
    assert plane.try_match(ev._replace(t=3000)) is False   # third strike
    assert key in plane.active and key in plane.promoted
    assert plane.try_match(ev._replace(t=4000)) is True


def test_expire_drops_old_events():
    cfg = TrackPlaneConfig(evolve_threshold=1000)
    plane = make_plane((100.0, 0.0), cfg)
    lifetime_us = int(plane.event_lifetime_s() * 1e6)    # 30 ms at 100 px/s
    held_before = len(plane)
    removed = plane.expire(plane.held[-1].t + lifetime_us + 1)
    assert removed == held_before
    assert len(plane) == 0
    assert plane.grids[plane.center_index].metric == 0


def test_expire_keeps_promoted_cell_in_footprint():
    cfg = TrackPlaneConfig(evolve_threshold=1)
    plane = make_plane((0.0, 0.0), cfg, n_events=1)
    stray = Event(90, 90, 1000, 1)
    assert plane.try_match(stray) is False       # promoted at once
    assert plane.try_match(stray._replace(t=2000)) is True
    key = pack_cell(90, 90)
    plane.expire(2000 + int(plane.event_lifetime_s() * 1e6) + 1)
    assert len(plane) == 0
    # the cell is back at 0, but a promoted cell stays in the footprint
    assert plane.grids[plane.center_index].cells[key] == 0
    assert key in plane.active


def test_expire_raises_on_event_never_accumulated():
    cfg = TrackPlaneConfig(evolve_threshold=1000)
    plane = make_plane((100.0, 0.0), cfg)
    # a foreign event in `held` has no cell to retract from in any grid
    plane.held.append(Event(200, 170, plane.held[-1].t + 1, 1))
    with pytest.raises(ConsistencyError, match="plane 0"):
        plane.expire(plane.held[-1].t + 10 ** 6)


# the velocity walk compares the perturbation grids, so its tests lay
# out m_grid = 3; the default plane keeps the center grid alone


def test_recenter_tie_widens_perturbations():
    plane = make_plane((58.0, 0.0), TrackPlaneConfig(m_grid=3))
    h0 = plane.h
    flow0 = plane.center_flow
    plane.hits = [20] * 9            # no grid separated
    plane.recenter(now_us=10_000)
    assert plane.h == pytest.approx(2 * h0)
    assert plane.center_flow == flow0
    assert plane.hits == [0] * 9


def test_recenter_center_win_narrows():
    cfg = TrackPlaneConfig(m_grid=3, h0_deg=0.08)
    plane = make_plane((58.0, 0.0), cfg)
    h0 = plane.h
    plane.hits = [10] * 9
    plane.hits[plane.center_index] = 60   # decisive center win
    plane.recenter(now_us=10_000)
    assert plane.h == pytest.approx(h0 / 2)
    assert plane.center_flow == FlowVector(58.0, 0.0)


def test_recenter_h_clamps():
    cfg = TrackPlaneConfig(m_grid=3, h0_deg=0.002, h_min_deg=0.001,
                           h_max_deg=0.004)
    plane = make_plane((58.0, 0.0), cfg)
    plane.hits = [10] * 9
    plane.hits[plane.center_index] = 60
    plane.recenter(10_000)
    plane.hits = [10] * 9
    plane.hits[plane.center_index] = 60
    plane.recenter(20_000)
    assert plane.h == pytest.approx(math.radians(cfg.h_min_deg))
    for _ in range(4):
        plane.hits = [20] * 9
        plane.recenter(30_000)
    assert plane.h == pytest.approx(math.radians(cfg.h_max_deg))


# cell values whose contrasts (sums of squares) read 100, 50 and 40
CRISP = {pack_cell(0, 0): 10}
MEDIUM = {pack_cell(0, 0): 5, pack_cell(1, 0): -5}
BLURRY = {pack_cell(0, 0): 6, pack_cell(1, 0): 2}


def test_recenter_adopts_decisive_off_center_winner():
    plane = make_plane((58.0, 0.0), TrackPlaneConfig(m_grid=3))
    h0 = plane.h
    winner = plane.center_index + 1       # one step up in v_u
    target_flow = (plane.col_vu[2], plane.row_vv[1])
    plane.hits = [0] * 9
    plane.hits[plane.center_index] = 10
    plane.hits[winner] = 40               # clears the margin
    set_cells(plane.grids[winner], CRISP)
    set_cells(plane.grids[plane.center_index], MEDIUM)
    assert (plane.grids[winner].metric,
            plane.grids[plane.center_index].metric) == (100, 50)
    plane.recenter(10_000)
    assert plane.center_flow == target_flow
    assert plane.h == pytest.approx(2 * h0)    # an edge win widens


def test_recenter_rejects_weak_or_blurry_winner():
    # a small hit surplus is boundary luck; keep the center flow
    # (both spreads clear the margin over the empty grids, so the refusal
    # counts as a center win and narrows h)
    plane = make_plane((58.0, 0.0), TrackPlaneConfig(m_grid=3))
    h0 = plane.h
    winner = plane.center_index + 1
    plane.hits = [0] * 9
    plane.hits[plane.center_index] = 38
    plane.hits[winner] = 40
    set_cells(plane.grids[winner], CRISP)
    set_cells(plane.grids[plane.center_index], MEDIUM)
    plane.recenter(10_000)
    assert plane.center_flow == FlowVector(58.0, 0.0)
    assert plane.h == pytest.approx(h0 / 2)

    # a decisive surplus with a weaker contrast metric is also refused
    plane2 = make_plane((58.0, 0.0), TrackPlaneConfig(m_grid=3))
    winner2 = plane2.center_index + 1
    plane2.hits = [0] * 9
    plane2.hits[plane2.center_index] = 10
    plane2.hits[winner2] = 40
    set_cells(plane2.grids[winner2], BLURRY)
    set_cells(plane2.grids[plane2.center_index], MEDIUM)
    assert (plane2.grids[winner2].metric,
            plane2.grids[plane2.center_index].metric) == (40, 50)
    plane2.recenter(10_000)
    assert plane2.center_flow == FlowVector(58.0, 0.0)
    assert plane2.h == pytest.approx(h0 / 2)


def aged_plane():
    """A plane whose oldest held event is no longer the one it was laid
    from: the five seed events expired, two later hits remain."""
    cfg = TrackPlaneConfig(m_grid=3, evolve_threshold=1000)
    plane = make_plane((58.0, 0.0), cfg)
    # the structure has marched 2.3 and 2.6 px in +u by then
    assert plane.try_match(Event(22, 40, 40_000, 1)) is True
    assert plane.try_match(Event(23, 40, 45_000, 1)) is True
    assert plane.expire(60_000) == 5
    assert plane.held[0].t == 40_000 and plane.t_ref_us == 0
    return plane


@pytest.mark.parametrize("center_hits", [60, 20])
def test_center_win_and_tie_keep_the_reference_time(center_hits):
    plane = aged_plane()
    h0 = plane.h
    active = set(plane.active)
    plane.hits = [20] * 9
    plane.hits[plane.center_index] = center_hits
    plane.recenter(60_000)
    # the center win halves h, the tie doubles it; both rebuild the grids
    assert plane.h == pytest.approx(h0 / 2 if center_hits == 60 else 2 * h0)
    assert plane.t_ref_us == 0
    assert plane.active == active
    # the structure, 3.5 px on, still projects into the footprint
    assert plane.try_match(Event(23, 40, 60_000, 1)) is True


def test_off_center_win_lays_a_new_frame():
    plane = aged_plane()
    winner = plane.center_index + 1
    target_flow = grid_flow(plane.col_vu, plane.row_vv, winner)
    plane.hits = [0] * 9
    plane.hits[plane.center_index] = 10
    plane.hits[winner] = 40
    set_cells(plane.grids[winner], CRISP)
    set_cells(plane.grids[plane.center_index], MEDIUM)
    plane.recenter(60_000)
    assert plane.center_flow == target_flow
    assert plane.t_ref_us == plane.held[0].t == 40_000
    assert plane.active == plane.grids[plane.center_index].nonzero_cells()


def test_expire_projects_once_after_a_center_win():
    plane = aged_plane()
    plane.hits = [20] * 9
    plane.hits[plane.center_index] = 60
    plane.recenter(60_000)
    # the 40 ms hit expires, the 45 ms one stays
    now = 41_000 + int(plane.event_lifetime_s() * 1e6)
    with mock.patch.object(track_plane, "grid_images",
                           wraps=track_plane.grid_images) as images:
        assert plane.expire(now) == 1
    assert images.call_count == 1
    assert len(plane) == 1


def test_config_validation():
    TrackPlaneConfig(m_grid=1)           # the center grid alone
    for m_grid in (0, 2):                # no grid, or no center grid
        with pytest.raises(ValueError, match="m_grid must be odd"):
            TrackPlaneConfig(m_grid=m_grid)
    TrackPlaneConfig(m_grid=1023)
    with pytest.raises(ValueError, match="m_grid must be at most 1023"):
        TrackPlaneConfig(m_grid=1025)    # grid keys past int64
    with pytest.raises(ValueError):
        TrackPlaneConfig(h_min_deg=0.5, h_max_deg=0.1)
    with pytest.raises(ValueError):
        TrackPlaneConfig(evolve_threshold=0)
    with pytest.raises(ValueError):
        TrackPlaneConfig(min_recenter_hits=0)
    with pytest.raises(ValueError):
        TrackPlane(0, (1.0, 0.0), [], TrackPlaneConfig())
