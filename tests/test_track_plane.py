import math

import pytest

from flowseg.events import Event
from flowseg.projection import ConsistencyError, FlowVector
from flowseg.track_plane import TrackPlane, TrackPlaneConfig, event_lifetime_s

from oracles import pack_cell


def make_plane(flow=(58.0, 0.0), cfg=None, n_events=5):
    # a short burst of coincident-trajectory events seeds the footprint
    events = [Event(20 + i, 40, i * 1000, 1) for i in range(n_events)]
    return TrackPlane(0, flow, events, cfg or TrackPlaneConfig())


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
    assert len(plane.flows) == 9
    center = plane.flows[plane.center_index]
    assert (center.v_u, center.v_v) == (58.0, 0.0)
    # corner grid differs in both components
    corner = plane.flows[0]
    assert corner.v_u != 58.0 and corner.v_v != 0.0


def test_try_match_hits_and_march():
    cfg = TrackPlaneConfig(evolve_threshold=1000)   # promotion off
    plane = make_plane((100.0, 0.0), cfg)
    # 10 ms later the structure has marched 1 px in +u: an event there
    # projects straight back onto the footprint
    ev = Event(25, 40, 10_000, 1)
    assert plane.try_match(ev) is True
    assert plane.total_hits == 1
    far = Event(200, 170, 11_000, 1)
    assert plane.try_match(far) is False
    assert plane.total_misses == 1


def test_persistent_misses_promote_cell():
    cfg = TrackPlaneConfig(evolve_threshold=3)
    plane = make_plane((0.0, 0.0), cfg)
    ev = Event(90, 90, 1000, 1)
    assert plane.try_match(ev) is False
    assert plane.try_match(ev._replace(t=2000)) is False
    assert plane.promotions == 0
    assert plane.try_match(ev._replace(t=3000)) is False   # third strike
    assert plane.promotions == 1
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


def test_recenter_tie_widens_perturbations():
    plane = make_plane((58.0, 0.0))
    h0 = plane.h
    flow0 = plane.center_flow
    plane.hits = [20] * 9            # no grid separated
    plane.recenter(now_us=10_000)
    assert plane.h == pytest.approx(2 * h0)
    assert plane.center_flow == flow0
    assert plane.hits == [0] * 9


def test_recenter_center_win_narrows():
    cfg = TrackPlaneConfig(h0_deg=0.08)
    plane = make_plane((58.0, 0.0), cfg)
    h0 = plane.h
    plane.hits = [10] * 9
    plane.hits[plane.center_index] = 60   # decisive center win
    plane.recenter(now_us=10_000)
    assert plane.h == pytest.approx(h0 / 2)
    assert plane.center_flow == FlowVector(58.0, 0.0)


def test_recenter_h_clamps():
    cfg = TrackPlaneConfig(h0_deg=0.002, h_min_deg=0.001, h_max_deg=0.004)
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


def test_recenter_adopts_decisive_off_center_winner():
    plane = make_plane((58.0, 0.0))
    winner = plane.center_index + 1       # one step up in v_u
    target_flow = plane.flows[winner]
    plane.hits = [0] * 9
    plane.hits[plane.center_index] = 10
    plane.hits[winner] = 40               # clears the margin
    plane.grids[winner].metric = 100
    plane.grids[plane.center_index].metric = 50
    plane.recenter(10_000)
    assert plane.center_flow == target_flow
    assert plane.recenters == 1


def test_recenter_rejects_weak_or_blurry_winner():
    # a small hit surplus is boundary luck; keep the center flow
    plane = make_plane((58.0, 0.0))
    winner = plane.center_index + 1
    plane.hits = [0] * 9
    plane.hits[plane.center_index] = 38
    plane.hits[winner] = 40
    plane.grids[winner].metric = 100
    plane.grids[plane.center_index].metric = 50
    plane.recenter(10_000)
    assert plane.center_flow == FlowVector(58.0, 0.0)

    # a decisive surplus with a weaker contrast metric is also refused
    plane2 = make_plane((58.0, 0.0))
    winner2 = plane2.center_index + 1
    plane2.hits = [0] * 9
    plane2.hits[plane2.center_index] = 10
    plane2.hits[winner2] = 40
    plane2.grids[winner2].metric = 40
    plane2.grids[plane2.center_index].metric = 50
    plane2.recenter(10_000)
    assert plane2.center_flow == FlowVector(58.0, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        TrackPlaneConfig(m_grid=2)       # needs a center grid
    with pytest.raises(ValueError):
        TrackPlaneConfig(h_min_deg=0.5, h_max_deg=0.1)
    with pytest.raises(ValueError):
        TrackPlaneConfig(evolve_threshold=0)
    with pytest.raises(ValueError):
        TrackPlaneConfig(min_recenter_hits=0)
    with pytest.raises(ValueError):
        TrackPlane(0, (1.0, 0.0), [], TrackPlaneConfig())
