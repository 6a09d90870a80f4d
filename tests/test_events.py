import gc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowseg import events
from flowseg.engine import read_labeled, run_stream, write_labeled
from flowseg.events import (DEFAULT_GEOMETRY, Event, GeometryError,
                            OrderingError, ParseError, SensorGeometry,
                            StreamError, build_records, decode_event,
                            encode_event, load_stream, save_stream,
                            EventStream)
from flowseg.synth import ConstantMotion, build_contour, generate_scene
from flowseg.synth import read_gt, write_gt

from oracles import (load_stream_per_line, read_gt_per_line,
                     read_labeled_per_line)


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
    for a generated scene, each with and without whole-line comments
    added, and the records each must read back as."""
    contour = build_contour("circle", radius=8.0, center=(40.0, 40.0))
    stream, gt = generate_scene([(contour, ConstantMotion(40.0, 5.0))],
                                duration=0.2, noise_rate=400.0, seed=4,
                                geometry=SensorGeometry(80, 60))
    labeled, _ = run_stream(stream.events)
    base = tmp_path_factory.mktemp("written")
    files = []
    for name, write, written, read, expected in [
            ("events", save_stream, stream, load_stream, stream.events),
            ("labeled", write_labeled, labeled, read_labeled, labeled),
            ("gt", write_gt, gt, read_gt, gt.records)]:
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
