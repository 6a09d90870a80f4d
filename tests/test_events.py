import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowseg.events import (DEFAULT_GEOMETRY, Event, GeometryError,
                            OrderingError, ParseError, SensorGeometry,
                            decode_event, encode_event, load_stream,
                            save_stream, EventStream)

from oracles import load_stream_per_line


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
        # the second event sits on line 3 under the header, 2 without it
        line = len(header) + 2
        for u, v in [(64, 0), (0, 48), (-1, 0)]:
            with pytest.raises(GeometryError,
                               match=rf"^line {line}: coordinate \({u}, {v}\) "
                                     rf"outside 64x48$"):
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

    for header in (["geometry 240 180"], []):
        with pytest.raises(OrderingError,
                           match=rf"^line {len(header) + 3}: timestamp 10 "
                                 rf"before previous 20$") as err:
            load_stream(header + ["# comment", "20 5 5 1", "10 6 5 1"],
                        SensorGeometry(240, 180))
        assert err.value.index == 1      # still the event index


def test_header_is_a_record_whose_first_field_is_geometry():
    # a first record that only begins with "geometry" is an event record
    for first in ("geometryXYZ 10 10", "geometry12 5"):
        with pytest.raises(ParseError, match=r"^line 1: expected 4 fields"):
            load_stream([first, "0 1 1 1"])
    stream = load_stream(["geometry\t10 10", "0 1 1 1"])
    assert stream.geometry == SensorGeometry(10, 10)


def test_save_load_round_trip(tmp_path):
    stream = EventStream(SensorGeometry(64, 48),
                         [Event(1, 2, 100, 1), Event(3, 4, 250, -1)])
    path = str(tmp_path / "events.txt")
    save_stream(stream, path)
    back = load_stream(path)
    assert back.geometry == stream.geometry
    assert back.events == stream.events


# the loader reference test: generated line soups through `load_stream`
# and the per-line oracle, as a list of lines and as a file
SEPARATORS = [" ", "  ", "\t", " \t", "\v", "\f", "\x1c", "\x1f"]
ENDINGS = ["\n", "\r\n", "\r"]
BLANKS = ["", " ", "\t", "\v", "\f", "\x1f", " \x1c "]
COMMENTS = ["#", "# t u v s", "  #geometry 4 3", "#1 2 3 1"]
GEOMETRIES = [SensorGeometry(12, 5), SensorGeometry(240, 180)]
# each soup carries at most one fault, of one of these kinds
FAULTS = [None, None, None, "token", "polarity", "negative t", "order",
          "bound", "field count", "late header", "bad header"]


def respelled(value: int) -> list[str]:
    """Spellings `int` reads as `value`, numpy's parser only some."""
    sign, digits = ("-" if value < 0 else ""), str(abs(value))
    return [str(value), (sign or "+") + digits, f"{sign}00{digits}",
            sign + "_".join(digits), "-0" if value == 0 else str(value)]


@st.composite
def line_soups(draw):
    """(lines, geometry argument): valid events in time order, some
    fields respelled, with comments, blank lines, a header perhaps, and
    at most one fault."""
    width, height = draw(st.sampled_from(GEOMETRIES))
    count = draw(st.integers(0, 8))
    rows = [[t, draw(st.integers(0, width - 1)),
             draw(st.integers(0, height - 1)), draw(st.sampled_from([1, -1]))]
            for t in sorted(draw(st.lists(st.integers(0, 30), min_size=count,
                                          max_size=count)))]
    rows = [[draw(st.sampled_from(respelled(value)))
             if draw(st.integers(0, 5)) == 0 else str(value)
             for value in row] for row in rows]
    fault = draw(st.sampled_from(FAULTS))
    row = draw(st.integers(0, count - 1)) if count else None
    if row is None or fault in (None, "late header", "bad header"):
        pass
    elif fault == "token":
        rows[row][draw(st.integers(0, 3))] = draw(st.sampled_from(
            ["1.0", "1e3", "x", "12345678901234567890"]))
    elif fault == "polarity":
        rows[row][3] = draw(st.sampled_from(["0", "-0", "2", "007"]))
    elif fault == "negative t":
        rows[row][0] = draw(st.sampled_from(["-1", "-30"]))
    elif fault == "order" and row + 1 < count:
        rows[row], rows[row + 1] = rows[row + 1], rows[row]
    elif fault == "bound":
        axis = draw(st.sampled_from([1, 2]))
        rows[row][axis] = str(draw(st.sampled_from(
            [-1, width if axis == 1 else height])))
    elif fault == "field count":
        rows[row] = rows[row][:3] if draw(st.booleans()) else rows[row] + ["1"]
    lines = []
    for fields in rows:
        text = fields[0]
        for field in fields[1:]:
            text += draw(st.sampled_from(SEPARATORS)) + field
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + text
                     + draw(st.sampled_from(["", " ", "\f"])))
    geometry = draw(st.sampled_from([None, SensorGeometry(width, height)]))
    header = draw(st.sampled_from([None, f"geometry {width} {height}"]))
    if fault == "bad header":
        header, geometry = draw(st.sampled_from([
            ("geometry 0 5", None), ("geometry 12", None),
            ("geometry x 5", None), ("geometry12 5", None),
            (f"geometry {width} {height}", SensorGeometry(width + 1, height)),
        ]))
    if header is not None:
        late = fault == "late header" and count
        lines.insert(draw(st.integers(1, count)) if late else 0, header)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(BLANKS + COMMENTS)))
    return lines, geometry


def outcome(load, source, geometry):
    """A loader's stream, or its error with every field it carries."""
    try:
        stream = load(source, geometry)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None), getattr(exc, "index", None))
    # repr shows the types too: Event, and int rather than np.int64
    return stream.geometry, repr(stream.events)


@settings(max_examples=settings.default.max_examples * 3)
@given(soup=line_soups(), endings=st.lists(st.sampled_from(ENDINGS),
                                           min_size=9, max_size=9),
       trailing=st.booleans())
def test_load_stream_matches_per_line_oracle(tmp_path_factory, soup,
                                             endings, trailing):
    lines, geometry = soup
    expected = outcome(load_stream_per_line, lines, geometry)
    assert outcome(load_stream, lines, geometry) == expected
    terminated = [line + endings[i % len(endings)]
                  for i, line in enumerate(lines)]
    assert outcome(load_stream, terminated, geometry) == outcome(
        load_stream_per_line, terminated, geometry)
    if not trailing and terminated:
        terminated[-1] = lines[-1]
    path = tmp_path_factory.getbasetemp() / "soup.txt"
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("".join(terminated))
    assert outcome(load_stream, str(path), geometry) == outcome(
        load_stream_per_line, str(path), geometry)
