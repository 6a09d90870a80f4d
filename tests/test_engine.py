import io
import math

import pytest

from flowseg.engine import (_MAINTENANCE_PERIOD, Engine, EngineConfig,
                            FlowLabeledEvent, UNLABELED, _dilate_cells,
                            read_labeled, run_stream, write_labeled)
from flowseg.events import Event, ParseError, load_stream
from flowseg.synth import (ConstantMotion, build_contour, generate_scene,
                           read_gt)
from flowseg.track_plane import TrackPlane

from oracles import pack_cell


@pytest.fixture(scope="module")
def small_scene():
    contour = build_contour("hexagon", width=50.0, center=(55.0, 90.0))
    stream, gt = generate_scene(
        objects=[(contour, ConstantMotion(57.0, 8.0))],
        duration=1.0, noise_rate=300.0, burst_size=2, seed=23)
    return list(stream.events), gt


def test_output_aligned_and_typed(small_scene):
    events, _ = small_scene
    labeled, _ = run_stream(events)
    assert len(labeled) == len(events)
    buf = io.StringIO()
    write_labeled(labeled, buf)
    header, *lines = buf.getvalue().splitlines()
    assert header == "# t u v s segment v_u v_v" and len(lines) == len(events)
    kinds = set()
    for ev, rec, line in zip(events, labeled, lines):
        # the record type itself, with its methods, not a bare tuple
        assert type(rec) is FlowLabeledEvent
        assert (rec.u, rec.v, rec.t, rec.s) == (ev.u, ev.v, ev.t, ev.s)
        if rec.segment == UNLABELED:
            assert math.isnan(rec.v_u) and math.isnan(rec.v_v)
            assert line == f"{ev.t} {ev.u} {ev.v} {ev.s} -1 nan nan"
        else:
            assert math.isfinite(rec.v_u) and math.isfinite(rec.v_v)
            assert type(rec.v_u) is float and type(rec.v_v) is float
            assert line == (f"{ev.t} {ev.u} {ev.v} {ev.s} "
                            f"{rec.segment} {rec.v_u!r} {rec.v_v!r}")
        kinds.add(rec.segment == UNLABELED)
    assert kinds == {True, False}          # both kinds were checked


def test_events_before_first_seed_are_unlabeled(small_scene):
    events, _ = small_scene
    labeled, _ = run_stream(events)
    first_hit = next(i for i, rec in enumerate(labeled)
                     if rec.segment != UNLABELED)
    assert first_hit > 0
    assert all(rec.segment == UNLABELED for rec in labeled[:first_hit])


def test_stats_balance(small_scene):
    events, _ = small_scene
    engine = Engine(EngineConfig())
    labeled = engine.run(events)
    stats = engine.stats
    assert stats.events_in == len(events)
    assert stats.hits + stats.unlabeled == stats.events_in
    assert stats.hits == sum(1 for rec in labeled if rec.segment != UNLABELED)
    assert stats.planes_created >= 1
    # periodic sweeps plus the end-of-stream one
    assert (stats.maintenance_runs
            == len(events) // _MAINTENANCE_PERIOD + 1)


def test_engine_repeatable(small_scene):
    events, _ = small_scene
    a, _ = run_stream(events)
    b, _ = run_stream(events)
    assert a == b


def test_labeled_file_round_trip(tmp_path, small_scene):
    events, _ = small_scene
    labeled, _ = run_stream(events)
    labeled = labeled[:500]
    path = str(tmp_path / "labeled.txt")
    count = write_labeled(labeled, path)
    assert count == 500
    back = read_labeled(path)
    assert len(back) == len(labeled)
    for a, b in zip(labeled, back):
        assert (a.u, a.v, a.t, a.s, a.segment) == (b.u, b.v, b.t, b.s, b.segment)
        assert (a.v_u == b.v_u) or (math.isnan(a.v_u) and math.isnan(b.v_u))



def test_read_labeled_names_the_bad_line_and_field(tmp_path):
    path = tmp_path / "labeled.txt"
    head = "# t u v s segment v_u v_v\n100 5 5 1 0 1.5 -2.0\n\n"
    for record, message in [
            ("200 6 5 1", r"line 4: expected 7 fields, got 4"),
            ("200 6 5 1 0 1.5 -2.0 9", r"line 4: expected 7 fields, got 8"),
            ("200 6 5 1 0.5 1.5 -2.0",
             r"line 4, field 5: not an integer: '0.5'"),
            ("200 6 5 1 0 1.5 x", r"line 4, field 7: not a number: 'x'")]:
        path.write_text(head + record + "\n")
        with pytest.raises(ParseError, match=rf"^{message}$"):
            read_labeled(str(path))
    path.write_text(head + "200 6 5 1 -1 nan nan\n")
    back = read_labeled(str(path))
    assert [(r.t, r.segment, r.v_u) for r in back[:1]] == [(100, 0, 1.5)]
    assert back[1].segment == UNLABELED and math.isnan(back[1].v_u)


@pytest.mark.parametrize("read, lines", [
    (load_stream, ["geometry 240 180", "100 5 5 1", "200 6 5 1 # \u00e9"]),
    (read_labeled, ["# t u v s segment v_u v_v", "100 5 5 1 0 1.5 -2.0",
                    "200 6 5 1 0 1.5 -2.0 \u00e9"]),
    (read_gt, ["# t v_u v_v structure_id", "100 1.5 -2.0 0",
               "\u00e9 200 1.5 -2.0 0"])])
def test_non_ascii_byte_names_its_line(tmp_path, read, lines):
    # every reader and writer of the text formats is ASCII; a stray byte
    # is reported by line, not by its offset in the file
    path = tmp_path / "records.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"^line 3: non-ASCII byte 0xc3$"):
        read(str(path))
    path.write_text("\n".join(lines[:2]) + "\n", encoding="ascii")
    assert len(read(str(path))) == 1


def test_dilate_cells():
    out = _dilate_cells({pack_cell(5, 5)})
    assert len(out) == 9
    assert pack_cell(4, 4) in out and pack_cell(6, 6) in out
    assert _dilate_cells(set()) == set()


def test_out_of_order_event_rejected(small_scene):
    events, _ = small_scene
    engine = Engine(EngineConfig())
    engine.process(events[10])
    with pytest.raises(Exception) as err:
        engine.process(events[0])
    assert "after" in str(err.value)


@pytest.mark.parametrize("s", [0, 2, -2])
def test_polarity_outside_unit_rejected(s):
    engine = Engine(EngineConfig())
    engine.process(Event(3, 3, 0, 1))
    with pytest.raises(ValueError, match=f"event 1: polarity .* got {s}"):
        engine.process(Event(3, 3, 1, s))
    # the rejected event left no trace
    assert engine.stats.events_in == 1
    assert engine.process(Event(3, 3, 2, -1)).s == -1
    assert engine.stats.events_in == 2


def test_merge_combines_agreeing_overlapping_planes():
    events = [Event(30 + i % 5, 40, i * 500, 1) for i in range(30)]
    engine = Engine(EngineConfig())
    a = TrackPlane(0, (50.0, 0.0), events, engine.cfg.track_plane)
    b = TrackPlane(1, (52.0, 0.0), events, engine.cfg.track_plane)
    engine.planes = [a, b]
    engine._merge_planes(events[-1].t)
    assert len(engine.planes) == 1
    assert engine.stats.merges == 1
    merged = engine.planes[0]
    # the kept plane is recentered in place on both planes' events
    assert merged is a and merged.plane_id == 0
    assert 50.0 <= merged.center_flow.v_u <= 52.0
    assert len(merged.held) == 60
    assert merged.t_ref_us == events[0].t
    assert merged.promoted == set()
    assert merged.footprint_size() == len(merged.grid.nonzero_cells())


def test_merge_skips_disagreeing_flows():
    events = [Event(30 + i % 5, 40, i * 500, 1) for i in range(30)]
    engine = Engine(EngineConfig())
    engine.planes = [TrackPlane(0, (50.0, 0.0), events, engine.cfg.track_plane),
                     TrackPlane(1, (-50.0, 0.0), events, engine.cfg.track_plane)]
    engine._merge_planes(events[-1].t)
    assert len(engine.planes) == 2


def test_prune_removes_starved_planes():
    events = [Event(30 + i % 5, 40, i * 100, 1) for i in range(20)]
    engine = Engine(EngineConfig())
    plane = TrackPlane(0, (50.0, 0.0), events, engine.cfg.track_plane)
    engine.planes = [plane]
    lifetime_us = int(plane.event_lifetime_s() * 1e6)
    # within the grace period nothing happens
    engine._prune_planes(events[-1].t + lifetime_us // 2)
    assert engine.planes == [plane]
    # past grace with an empty hit window the plane goes
    engine._prune_planes(events[-1].t + 3 * lifetime_us)
    assert engine.planes == []
    assert engine.stats.prunes == 1
