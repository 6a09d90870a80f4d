import gc
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowseg import events
from flowseg.engine import (LABELED_FORMAT, FlowLabeledEvent, read_labeled,
                            run_stream, write_labeled)
from flowseg.events import (DEFAULT_GEOMETRY, EVENT_FORMAT, Event,
                            GeometryError, OrderingError, ParseError,
                            SensorGeometry, StreamError, build_records,
                            load_stream, save_stream, write_records,
                            EventStream)
from flowseg.synth import ConstantMotion, build_contour, generate_scene
from flowseg.synth import GT_FORMAT, GroundTruth, read_gt, write_gt

from oracles import (load_stream_per_line, read_gt_per_line,
                     read_labeled_per_line)


def test_decode_basic():
    assert load_stream(["1000 12 34 1"]).events == [Event(12, 34, 1000, 1)]


def raises_at(message, line, column, source):
    """`load_stream(source)` raises ParseError `message` at `line` and
    `column`."""
    with pytest.raises(ParseError, match=f"^{message}$") as err:
        load_stream(source)
    assert (err.value.line, err.value.column) == (line, column)


def test_decode_rejects_bad_polarity():
    for s in (0, 2):
        raises_at(rf"line 2, field 4: polarity must be \+1 or -1, got {s}",
                  2, 4, ["10 1 1 1", f"1000 12 34 {s}"])


def test_decode_rejects_malformed():
    raises_at("line 1: expected 4 fields, got 3", 1, 0, ["1000 12 34"])
    raises_at("line 2, field 3: not an integer: 'x'", 2, 3,
              ["# c", "1000 12 x 1"])
    raises_at("line 1, field 1: negative timestamp -5", 1, 1, ["-5 12 34 1"])


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


# the round-trip test: random records of each format through
# `write_records`, as Python scalars and as numpy scalars, and back
# through the format's reader, with floats a writer must keep exactly
# drawn often
EXTREME_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324,
                  1.7976931348623157e308]
INT64 = st.integers(-2**63, 2**63 - 1)
FLOATS = st.floats() | st.sampled_from(EXTREME_FLOATS)
# a sensor no generated coordinate leaves
WIDE = SensorGeometry(2**62, 2**62)


def as_numpy(records):
    """Each record as a tuple of numpy int64 and float64 scalars."""
    return [tuple(np.float64(x) if isinstance(x, float) else np.int64(x)
                  for x in record) for record in records]


@st.composite
def event_records(draw):
    """Valid events in time order inside `WIDE`."""
    count = draw(st.integers(0, 6))
    times = sorted(draw(st.lists(st.integers(0, 2**63 - 1),
                                 min_size=count, max_size=count)))
    return [Event(draw(st.integers(0, WIDE.width - 1)),
                  draw(st.integers(0, WIDE.height - 1)), t,
                  draw(st.sampled_from([1, -1]))) for t in times]


ROUND_TRIPS = {
    "events": (EVENT_FORMAT, f"geometry {WIDE.width} {WIDE.height}",
               event_records(), lambda lines: load_stream(lines).events),
    "labeled": (LABELED_FORMAT, "# t u v s segment v_u v_v",
                st.lists(st.builds(FlowLabeledEvent, INT64, INT64, INT64,
                                   INT64, INT64, FLOATS, FLOATS),
                         max_size=6), read_labeled),
    "gt": (GT_FORMAT, "# t v_u v_v structure_id",
           st.lists(st.tuples(INT64, INT64, FLOATS, FLOATS), max_size=6),
           read_gt),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
@given(data=st.data())
def test_write_records_round_trip(name, data):
    fmt, header, records, read = ROUND_TRIPS[name]
    records = data.draw(records)
    texts = []
    for written in (records, as_numpy(records)):
        buf = io.StringIO()
        assert write_records(buf, fmt, header, written) == len(records)
        texts.append(buf.getvalue())
    # a numpy scalar writes the bytes of the equal Python scalar
    assert texts[0] == texts[1]
    # repr shows the types, -0.0, and that a nan reads back as nan
    assert repr(read(io.StringIO(texts[0]))) == repr(records)


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


# the labeled- and truth-file reference tests: generated record files
# through `read_labeled` and `read_gt` and their per-line oracles
LABELED_TYPES = (int, int, int, int, int, float, float)
GT_TYPES = (int, float, float, int)
FLOAT_SPELLINGS = ["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e3",
                   ".5", "5.", "-0.0", "1_0.5", "1E-7"]
# each file carries at most one fault, of one of these kinds
RECORD_FAULTS = [None, None, None, "int token", "float token",
                 "field count", "inline comment"]


@st.composite
def record_files(draw, types, header):
    """Lines of a labeled or truth file: records of `types` with some
    fields respelled, nan and inf among the floats, whitespace-only and
    comment lines, the header comment perhaps, and at most one fault."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = []
        for kind in types:
            value = draw(st.integers(-10**6, 10**6) if kind is int
                         else st.floats())
            text = str(value) if kind is int else repr(value)
            if draw(st.integers(0, 7)) == 0:
                text = draw(st.sampled_from(respelled(value) if kind is int
                                            else FLOAT_SPELLINGS))
            row.append(text)
        rows.append(row)
    fault = draw(st.sampled_from(RECORD_FAULTS)) if rows else None
    row = rows[draw(st.integers(0, len(rows) - 1))] if rows else None
    if fault in ("int token", "float token"):
        kind = int if fault == "int token" else float
        col = draw(st.sampled_from([i for i, k in enumerate(types)
                                    if k is kind]))
        row[col] = draw(st.sampled_from(
            ["1.0", "1_0", "1e3", "x", "12345678901234567890"]
            if kind is int else ["x", "1,5", "0x1p3", "nan(1)", "1.5.0"]))
    elif fault == "field count":
        del row[draw(st.integers(0, len(row) - 1))]
    elif fault == "inline comment":
        at = len(row) if draw(st.booleans()) else draw(st.integers(1, len(row)))
        row.insert(at, draw(st.sampled_from(["#", "# note", "#1"])))
    lines = []
    for fields in rows:
        text = fields[0]
        for field in fields[1:]:
            text += draw(st.sampled_from(SEPARATORS)) + field
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + text
                     + draw(st.sampled_from(["", " ", "\f"])))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(BLANKS + COMMENTS)))
    if draw(st.booleans()):
        lines.insert(0, header)
    return lines


def read_outcome(read, source):
    """A reader's records, or its error with every field it carries."""
    try:
        records = read(source)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    # repr shows the types, and that a nan reads as nan
    return repr(records)


def assert_reads_like_oracle(read, oracle, path, lines, endings, trailing):
    """`read` and `oracle` agree on `lines` as a list, as terminated
    lines, and as a file at `path` with or without a final newline."""
    assert read_outcome(read, lines) == read_outcome(oracle, lines)
    terminated = [line + endings[i % len(endings)]
                  for i, line in enumerate(lines)]
    assert read_outcome(read, terminated) == read_outcome(oracle, terminated)
    if not trailing and terminated:
        terminated[-1] = lines[-1]
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("".join(terminated))
    assert read_outcome(read, str(path)) == read_outcome(oracle, str(path))


@settings(max_examples=settings.default.max_examples * 2)
@given(lines=record_files(LABELED_TYPES, "# t u v s segment v_u v_v"),
       endings=st.lists(st.sampled_from(ENDINGS), min_size=9, max_size=9),
       trailing=st.booleans())
@example(lines=[], endings=["\n"] * 9, trailing=False)       # an empty file
def test_read_labeled_matches_per_line_oracle(tmp_path_factory, lines,
                                              endings, trailing):
    assert_reads_like_oracle(read_labeled, read_labeled_per_line,
                             tmp_path_factory.getbasetemp() / "labeled.txt",
                             lines, endings, trailing)


@settings(max_examples=settings.default.max_examples * 2)
@given(lines=record_files(GT_TYPES, "# t v_u v_v structure_id"),
       endings=st.lists(st.sampled_from(ENDINGS), min_size=9, max_size=9),
       trailing=st.booleans())
@example(lines=[], endings=["\n"] * 9, trailing=False)       # an empty file
def test_read_gt_matches_per_line_oracle(tmp_path_factory, lines, endings,
                                         trailing):
    assert_reads_like_oracle(read_gt, read_gt_per_line,
                             tmp_path_factory.getbasetemp() / "gt.txt",
                             lines, endings, trailing)


@pytest.fixture(scope="module")
def written_files(tmp_path_factory):
    """Paths of what `save_stream`, `write_labeled` and `write_gt` write
    for a generated scene, and for records of numpy scalars with the
    extreme floats among them, each with and without whole-line comments
    added, and the records each must read back as."""
    contour = build_contour("circle", radius=8.0, center=(40.0, 40.0))
    stream, gt = generate_scene([(contour, ConstantMotion(40.0, 5.0))],
                                duration=0.2, noise_rate=400.0, seed=4,
                                geometry=SensorGeometry(80, 60))
    labeled, _ = run_stream(stream.events)
    extreme_labeled = [rec._replace(v_u=x, v_v=-x)
                       for rec, x in zip(labeled, EXTREME_FLOATS)]
    extreme_gt = [(t, sid, x, -x)
                  for (t, sid, _, _), x in zip(gt.records, EXTREME_FLOATS)]
    base = tmp_path_factory.mktemp("written")
    files = []
    for name, write, written, read, expected in [
            ("events", save_stream, stream, load_stream, stream.events),
            ("labeled", write_labeled, labeled, read_labeled, labeled),
            ("gt", write_gt, gt, read_gt, gt.records),
            ("events-numpy", save_stream,
             EventStream(stream.geometry, as_numpy(stream.events)),
             load_stream, stream.events),
            ("labeled-numpy", write_labeled, as_numpy(extreme_labeled),
             read_labeled, extreme_labeled),
            ("gt-numpy", write_gt, GroundTruth(as_numpy(extreme_gt)),
             read_gt, extreme_gt)]:
        path = base / name
        write(written, str(path))
        lines = path.read_text().splitlines()
        commented = base / f"{name}-commented"
        commented.write_text("\n".join(
            line + ("\n  # note\n#" if i % 7 == 3 else "")
            for i, line in enumerate(lines)) + "\n")
        files += [(read, str(path), expected), (read, str(commented), expected)]
    return files


def test_written_files_load_through_the_table_reader(monkeypatch,
                                                     written_files):
    # the line-by-line decoder is correct but slow: a well-formed file
    # that reached it would lose the numpy pass unseen
    def no_decoding(*args):
        raise AssertionError("a well-formed file reached the line decoder")

    monkeypatch.setattr(events, "decode_records", no_decoding)
    for read, path, expected in written_files:
        records = read(path)
        records = records.events if read is load_stream else records
        assert repr(records) == repr(expected), path
        with open(path, encoding="ascii") as fh:
            assert repr(read(fh)) == repr(read(path)), path


BAD_INPUTS = [
    (load_stream, ["0 1 1 1", "5 1 1 x"]),            # ParseError
    (load_stream, ["0 1 1 1", "5 1 1 0"]),            # polarity
    (load_stream, ["geometry 4 4", "0 9 1 1"]),       # GeometryError
    (load_stream, ["5 1 1 1", "0 1 1 1"]),            # OrderingError
    (load_stream, ["geometry 4"]),                    # header
    (read_labeled, ["0 1 1 1 0 nan"]),
    (read_labeled, ["0 1 1 1 0.5 nan nan"]),
    (read_gt, ["0 1.5 -2.0 0 # note"]),
    (read_gt, ["0 1.5 y 0"]),
]
GOOD_INPUTS = [
    (load_stream, ["geometry 4 4", "0 1 1 1", "# c", "5 2 1 -1"]),
    (read_labeled, ["# t u v s segment v_u v_v", "0 1 1 1 -1 nan nan"]),
    (read_gt, ["# t v_u v_v structure_id", "0 1.5 -2.0 0"]),
]


@pytest.mark.parametrize("caller_enabled", [True, False])
def test_readers_leave_the_collector_as_they_found_it(tmp_path,
                                                      caller_enabled):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0 1 1 1\n\xff\n")
    was = gc.isenabled()
    try:
        (gc.enable if caller_enabled else gc.disable)()
        for read, lines in GOOD_INPUTS:
            assert len(read(lines)) == 1 + (read is load_stream)
            assert gc.isenabled() == caller_enabled
        for read, lines in BAD_INPUTS + [(read, str(path)) for read in
                                         (load_stream, read_labeled, read_gt)]:
            with pytest.raises(StreamError):
                read(lines)
            assert gc.isenabled() == caller_enabled
        with pytest.raises(TypeError):
            build_records(Event, [1])
        assert gc.isenabled() == caller_enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_build_records_runs_no_collection():
    # the gain of the paused build: a bulk build of tuples would
    # otherwise trigger the collector again and again
    collections = []

    def count(phase, info):
        collections.append(phase)

    column = list(range(50_000))
    gc.callbacks.append(count)
    try:
        records = build_records(Event, [column, column, column, column])
    finally:
        gc.callbacks.remove(count)
    assert collections == []
    assert records[7] == Event(7, 7, 7, 7) and type(records[7]) is Event
