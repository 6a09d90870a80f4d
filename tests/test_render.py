import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from flowseg.engine import FlowLabeledEvent, UNLABELED
from flowseg.events import GeometryError, OrderingError, SensorGeometry
from flowseg.render import (RenderConfig, UNLABELED_GRAY, flow_color,
                            render_frames, render_to_dir, segment_color,
                            write_pnm)


def test_flow_color_direction_and_saturation():
    right = flow_color(50.0, 0.0, v_sat=100.0)
    left = flow_color(-50.0, 0.0, v_sat=100.0)
    assert right != left
    # zero flow is unsaturated (gray-ish): all channels equal
    r, g, b = flow_color(0.0, 0.0, v_sat=100.0)
    assert r == g == b
    # speed clamps at v_sat: colors stop changing beyond it
    assert flow_color(200.0, 0.0, 100.0) == flow_color(900.0, 0.0, 100.0)


def test_segment_color_stable():
    assert segment_color(3) == segment_color(3)
    distinct = {segment_color(i) for i in range(8)}
    assert len(distinct) >= 6


def test_render_frames_places_events():
    geom = SensorGeometry(16, 12)
    records = [
        FlowLabeledEvent(2, 3, 0, 1, 0, 40.0, 0.0),
        FlowLabeledEvent(5, 7, 40_000, 1, UNLABELED, math.nan, math.nan),
    ]
    cfg = RenderConfig(mode="flow", frame_dt_s=0.033)
    frames = list(render_frames(records, geom, cfg))
    assert len(frames) == 2
    assert frames[0].shape == (12, 16, 3)
    assert tuple(frames[0][3, 2]) != (0, 0, 0)
    assert tuple(frames[1][7, 5]) == UNLABELED_GRAY
    assert list(render_frames([], geom, cfg)) == []
    # 1 us, the shortest frame whole-microsecond timestamps tell apart
    records[1] = records[1]._replace(t=3)
    frames = list(render_frames(records, geom,
                                RenderConfig(mode="count", frame_dt_s=1e-6)))
    assert [int(frame.sum()) for frame in frames] == [255, 0, 0, 255]


@pytest.mark.parametrize("u, t, error, message", [
    # past the width, a record raised IndexError; at u = -3 it was drawn
    # at u = 13; earlier than the first, it left no frame: IndexError
    (16, 60_000, GeometryError,
     r"record 2: coordinate \(16, 3\) outside 16x12"),
    (-3, 60_000, GeometryError,
     r"record 2: coordinate \(-3, 3\) outside 16x12"),
    (2, 0, OrderingError, "record 2: timestamp 0 before previous 50000"),
], ids=["past_the_width", "negative_u", "earlier"])
def test_render_frames_rejects_bad_records(u, t, error, message):
    records = [FlowLabeledEvent(2, 3, 40_000, 1, 0, 40.0, 0.0),
               FlowLabeledEvent(2, 3, 50_000, 1, 0, 40.0, 0.0),
               FlowLabeledEvent(u, 3, t, 1, 0, 40.0, 0.0)]
    with pytest.raises(error, match=f"^{message}$") as info:
        render_frames(records, SensorGeometry(16, 12))
    if error is OrderingError:
        assert info.value.index == 2


@pytest.mark.parametrize("field, value, message", [
    ("frame_dt_s", math.nan, "frame_dt_s must be finite and at least 1e-6 s"),
    ("frame_dt_s", math.inf, "frame_dt_s must be finite and at least 1e-6 s"),
    ("frame_dt_s", 1e-9, "frame_dt_s must be finite and at least 1e-6 s"),
    ("frame_dt_s", 0.0, "frame_dt_s must be finite and at least 1e-6 s"),
    ("v_sat", math.nan, "v_sat must be positive and finite"),
    ("v_sat", math.inf, "v_sat must be positive and finite"),
], ids=["dt_nan", "dt_inf", "dt_1ns", "dt_0", "v_sat_nan", "v_sat_inf"])
def test_render_config_refuses_unusable_settings(field, value, message):
    # a NaN frame length failed later on a message naming no field, a
    # NaN v_sat rendered, and 1-ns frames were made 1-us frames
    with pytest.raises(ValueError,
                       match=rf"^{re.escape(message)}, got {value}$"):
        RenderConfig(**{field: value})


def test_write_ppm_header(tmp_path):
    img = np.zeros((4, 6, 3), dtype=np.uint8)
    path = tmp_path / "frame.ppm"
    write_pnm(str(path), img)
    data = path.read_bytes()
    assert data.startswith(b"P6\n6 4\n255\n")
    assert len(data) == len(b"P6\n6 4\n255\n") + 4 * 6 * 3
    # a gray image is a PGM
    write_pnm(str(path), img[:, :, 0])
    data = path.read_bytes()
    assert data == b"P5\n6 4\n255\n" + bytes(4 * 6)


TWO_RECORDS = [FlowLabeledEvent(2, 3, 0, 1, 0, 40.0, 0.0),
               FlowLabeledEvent(5, 7, 50_000, 1, 0, 40.0, 0.0)]


@pytest.mark.parametrize("mode", ["flow", "count"])
def test_frames_are_drawn_one_at_a_time(mode):
    # 501 frames of 240x180: all of them at once took about 65 MB
    cfg = RenderConfig(mode=mode, frame_dt_s=1e-4)
    frame_bytes = 240 * 180 * (3 if mode == "flow" else 8)
    drawn = 0
    tracemalloc.start()
    try:
        for frame in render_frames(TWO_RECORDS, cfg=cfg):
            drawn += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drawn == 501
    assert peak < 4 * frame_bytes


def test_render_to_dir_writes_each_frame_as_drawn(tmp_path):
    # 51 frames, each written before the next is drawn
    tracemalloc.start()
    try:
        paths = render_to_dir(TWO_RECORDS, tmp_path,
                              cfg=RenderConfig(frame_dt_s=1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [os.path.basename(path) for path in paths] == [
        f"frame_{i:05d}.ppm" for i in range(51)]
    assert peak < 4 * 240 * 180 * 3
    # the first frame holds the first record, the last the second
    header = len(b"P6\n240 180\n255\n")
    first = (tmp_path / "frame_00000.ppm").read_bytes()
    last = (tmp_path / "frame_00050.ppm").read_bytes()
    assert first[header + 3 * (3 * 240 + 2)] != 0
    assert last[header + 3 * (7 * 240 + 5)] != 0
