import pytest

from flowseg.events import (DEFAULT_GEOMETRY, Event, GeometryError,
                            OrderingError, ParseError, SensorGeometry,
                            decode_event, encode_event, load_stream,
                            save_stream, EventStream)


def test_decode_basic():
    assert decode_event("1000 12 34 1") == Event(12, 34, 1000, 1)


def test_encode_decode_round_trip():
    e = Event(239, 179, 123456789, -1)
    assert decode_event(encode_event(e)) == e


def test_decode_rejects_bad_polarity():
    with pytest.raises(ParseError):
        decode_event("1000 12 34 0")
    with pytest.raises(ParseError):
        decode_event("1000 12 34 2")


def test_decode_rejects_malformed():
    with pytest.raises(ParseError):
        decode_event("1000 12 34")
    with pytest.raises(ParseError):
        decode_event("1000 12 x 1")
    with pytest.raises(ParseError):
        decode_event("-5 12 34 1")


def test_load_stream_rejects_off_sensor_events():
    # the engine projects any coordinate: loading is where the sensor
    # geometry, from the header or the argument, bounds the events
    geometry = SensorGeometry(64, 48)
    for header, argument in ((["geometry 64 48"], None), ([], geometry)):
        stream = load_stream(header + ["0 5 5 1", "10 63 47 -1", "20 0 0 1"],
                             argument)
        assert stream.geometry == geometry
        assert [(e.u, e.v) for e in stream] == [(5, 5), (63, 47), (0, 0)]
        for u, v in [(64, 0), (0, 48), (-1, 0)]:
            with pytest.raises(GeometryError,
                               match=rf"event 1: .*\({u}, {v}\)"):
                load_stream(header + ["0 5 5 1", f"10 {u} {v} 1"], argument)


def test_geometry_contains():
    assert DEFAULT_GEOMETRY == SensorGeometry(240, 180)
    assert DEFAULT_GEOMETRY.contains(0, 0)
    assert not DEFAULT_GEOMETRY.contains(-1, 0)


def test_load_stream_orders_and_bounds():
    lines = ["geometry 240 180", "10 5 5 1", "20 6 5 -1"]
    stream = load_stream(lines)
    assert len(stream) == 2
    assert stream.geometry == SensorGeometry(240, 180)
    assert [e.t for e in stream] == [10, 20]

    with pytest.raises(OrderingError) as err:
        load_stream(["geometry 240 180", "20 5 5 1", "10 6 5 1"])
    assert err.value.index == 1


def test_save_load_round_trip(tmp_path):
    stream = EventStream(SensorGeometry(64, 48),
                         [Event(1, 2, 100, 1), Event(3, 4, 250, -1)])
    path = str(tmp_path / "events.txt")
    save_stream(stream, path)
    back = load_stream(path)
    assert back.geometry == stream.geometry
    assert back.events == stream.events
