"""Core event types and the plain-text event stream format.

An event is (u, v, t, s): integer pixel coordinates, a microsecond
timestamp, and a polarity of +1 or -1.  Streams are time-ordered
(non-decreasing t) and bound to a sensor geometry.

Text format, one event per line::

    t u v s

with t in microseconds.  Blank lines and lines starting with '#'
(comments) may appear anywhere.  The first other line may be a header
``geometry W H``, and no later one; a line is a header only when its
first field is exactly ``geometry``.

A `RecordFormat` declares this format and each other line-oriented
record file (labeled events, ground truth) once.  `write_records` writes
any of them, and `read_records` reads any of them: one numpy pass over
a well-formed file, and the line-by-line decoder, which raises, for any
other.
"""

from __future__ import annotations

import gc
import io
import os
import re
import warnings
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from operator import itemgetter
from typing import (Callable, Iterable, Iterator, NamedTuple, Optional,
                    Sequence, Union)

import numpy as np


class StreamError(Exception):
    """Base class for event-stream errors."""


class ParseError(StreamError):
    """Malformed record; carries 1-based line and field numbers."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, field {column}: {message}" if column
                         else f"line {line}: {message}")
        self.line = line
        self.column = column


class GeometryError(StreamError):
    """Coordinate or dimension outside the sensor array."""


class OrderingError(StreamError):
    """Timestamps not non-decreasing; carries the offending event index."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class Event(NamedTuple):
    u: int
    v: int
    t: int          # microseconds
    s: int          # +1 or -1


class SensorGeometry(NamedTuple):
    width: int = 240
    height: int = 180

    def contains(self, u: int, v: int) -> bool:
        return 0 <= u < self.width and 0 <= v < self.height


DEFAULT_GEOMETRY = SensorGeometry(240, 180)


@dataclass
class EventStream:
    """A time-ordered sequence of events plus the sensor geometry."""

    geometry: SensorGeometry = DEFAULT_GEOMETRY
    events: list[Event] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __getitem__(self, i):
        return self.events[i]


def record_lines(text: str) -> Iterator[tuple[int, str, int]]:
    """Yield (1-based line number, stripped text, offset of the line) for
    each line of `text` that is neither blank nor a comment starting
    with '#'.  It reads only as far as it is asked to."""
    line_no = pos = 0
    while pos < len(text):
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
        line_no += 1
        record = text[pos:end].strip()
        if record and record[0] != "#":
            yield line_no, record, pos
        pos = end + 1


def read_ascii(path) -> str:
    """The text of an ASCII file, newlines translated as in any text-mode
    read; a non-ASCII byte raises ParseError naming its line."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
    at = re.search(rb"[\x80-\xff]", data).start()
    raise ParseError(f"non-ASCII byte 0x{data[at]:02x}",
                     data.count(b"\n", 0, at) + 1) from None


def parse_record(record: str, line: int, types: Sequence[type]) -> list:
    """Split a whitespace-separated record into exactly ``len(types)``
    fields and convert field i with ``types[i]`` (int or float).

    Raises ParseError naming the line, and the field that does not
    convert.
    """
    fields = record.split()
    if len(fields) != len(types):
        raise ParseError(f"expected {len(types)} fields, got {len(fields)}",
                         line, 0)
    values = []
    for col, (kind, text) in enumerate(zip(types, fields), start=1):
        try:
            values.append(kind(text))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ParseError(f"not {noun}: {text!r}", line, col) from None
    return values


class RecordFormat(NamedTuple):
    """One line-oriented record format, as `read_records` reads it and
    `write_records` writes it."""

    types: tuple[type, ...]     # each field of a line: int or float
    fields: tuple[int, ...]     # the line field of each record field
    record: type                # the tuple type of a record
    # valid(*columns) -> whether the line fields, as numpy columns in
    # line order, are all valid records; None accepts any that parse
    valid: Optional[Callable[..., bool]] = None
    # check(record, line, records so far) raises the format's own error
    # naming the line; None accepts any record that parses
    check: Optional[Callable[[tuple, int, list], None]] = None


# ``t u v s``; `load_stream` adds the checks against the geometry
EVENT_FORMAT = RecordFormat((int, int, int, int), (1, 2, 0, 3), Event)


def source_text(source: Union[str, os.PathLike, Iterable[str]]) -> str:
    """The text of a file path (see `read_ascii`), or of an iterable of
    lines: one line per item, with the item's whitespace-separated
    fields joined by single spaces, so that each line keeps the number
    and the fields of its item."""
    if isinstance(source, (str, os.PathLike)):
        return read_ascii(source)
    return "\n".join(" ".join(line.split()) for line in source)


# the text of a whole-line comment
_COMMENT_LINE = re.compile(r"^[^\S\n]*#.*", re.MULTILINE)


def read_records(text: str, fmt: RecordFormat, skip: int = 0) -> list:
    """The records of `text` after its first `skip` records (a header).

    Blank lines and lines starting with '#' are skipped.  Every other
    line is parsed in one numpy pass with the format's field types and
    checked as whole columns, and the records are built with the cyclic
    collector paused.  Any text the pass rejects is decoded line by line
    by `decode_records`, and the first bad line raises.
    """
    first = next(islice(record_lines(text), skip, None), None)
    if first is None:
        return []
    line_no, _, start = first
    # a comment after the first record: blank each whole-line one, which
    # keeps the line count, and leave an inline '#' to fail the pass
    uncommented = (_COMMENT_LINE.sub("", text) if text.find("#", start) >= 0
                   else text)
    # `lines` lives until the records are built.  Freed after them, its
    # strings leave warm memory that the caller's next allocations
    # reuse; freed before, the records take it, and a labeling loop
    # that follows faults in fresh pages instead (+11% on perfbench's
    # noise p95, on a two-core virtual machine)
    lines = uncommented.split("\n")
    columns = _table_columns(islice(lines, line_no - 1, None), fmt.types)
    if columns is not None and (fmt.valid is None or fmt.valid(*columns)):
        return build_records(fmt.record,
                             [columns[i].tolist() for i in fmt.fields])
    return decode_records(islice(record_lines(text), skip, None), fmt)


def build_records(record: type, columns: Sequence[list]) -> list:
    """[record(*row) for row in zip(*columns)], each made by
    tuple.__new__ with no Python-level call.  The cyclic collector is
    paused meanwhile (a bulk build of tuples would trigger it again and
    again) and left as the caller had it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return list(map(partial(tuple.__new__, record), zip(*columns)))
    finally:
        if enabled:
            gc.enable()


def decode_records(records: Iterable[tuple[int, str, int]],
                   fmt: RecordFormat) -> list:
    """Decode the records `record_lines` yields one at a time: parse the
    line's fields, put them in record order and check the record; the
    first bad one raises."""
    out: list = []
    for line_no, text, _ in records:
        values = parse_record(text, line_no, fmt.types)
        record = tuple.__new__(fmt.record, [values[i] for i in fmt.fields])
        if fmt.check is not None:
            fmt.check(record, line_no, out)
        out.append(record)
    return out


def _table_columns(lines: Iterable[str],
                   types: Sequence[type]) -> Optional[list]:
    """The fields of every nonblank line as numpy columns (int64 for int,
    float64 for float), or None unless each such line has exactly
    ``len(types)`` fields that numpy parses as their type.  Any value
    numpy parses is the value `int` or `float` reads from it; the
    spellings only those read (``1_0``, a value past int64) give None,
    and so does a '#'."""
    dtype = np.dtype([(f"f{i}", np.int64 if kind is int else np.float64)
                      for i, kind in enumerate(types)])
    try:
        with warnings.catch_warnings():
            # numpy before 2.0 parses '1.0', and a value past int64, in an
            # int column via a float with only a DeprecationWarning; a
            # text with no records warns too
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    return [table[name] for name in dtype.names]


# records `write_records` joins into one write: about 5% faster than a
# write per line, and about 4 kB of text, so that little memory is held
_WRITE_CHUNK = 64


def write_records(destination: Union[str, os.PathLike, io.TextIOBase],
                  fmt: RecordFormat, header: Optional[str],
                  records: Iterable[tuple]) -> int:
    """Write `header`, if any, then one line of `fmt` per record, to a
    path (as ASCII) or an open text file; returns the record count.  Ints
    are written by ``%d`` and floats by `str`, so a numpy scalar writes
    as the equal Python scalar, and every float reads back as itself."""
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "w", encoding="ascii") as fh:
            return write_records(fh, fmt, header, records)
    if header is not None:
        destination.write(header + "\n")
    line = (" ".join("%d" if kind is int else "%s" for kind in fmt.types)
            + "\n").__mod__
    line_order = itemgetter(*map(fmt.fields.index, range(len(fmt.fields))))
    records = iter(records)
    count = 0
    while chunk := list(islice(records, _WRITE_CHUNK)):
        destination.write("".join(map(line, map(line_order, chunk))))
        count += len(chunk)
    return count


def load_stream(source: Union[str, Iterable[str]],
                geometry: Optional[SensorGeometry] = None) -> EventStream:
    """Load an event stream from a file path or an iterable of lines.

    Blank lines and '#' comment lines may appear anywhere and are
    skipped.  Only the first other line may be a ``geometry W H``
    header; it sets the geometry, and an explicit `geometry` argument
    must agree with it when both are present.  Every further line is one
    ``t u v s`` event of integers, with a polarity of +1 or -1 and t >= 0,
    inside the geometry and no earlier than the event before it.

    A well-formed stream is read by `read_records` in one numpy pass
    (0.9-1.0 us per event against 5.5-6.9 us line by line, on the
    93,780-event hexagon scene).  Any other input is decoded line by
    line, and the first bad line raises a ParseError, GeometryError or
    OrderingError that names the line (ParseError also the field).
    """
    text = source_text(source)
    effective = geometry or DEFAULT_GEOMETRY
    first = next(record_lines(text), None)
    skip = 0
    if first and first[1].split()[0] == "geometry":
        effective = _header_geometry(first[0], first[1], geometry)
        skip = 1
    fmt = EVENT_FORMAT._replace(valid=partial(_valid_events, effective),
                                check=partial(_check_event, effective))
    return EventStream(effective, read_records(text, fmt, skip))


def _header_geometry(line_no: int, text: str,
                     geometry: Optional[SensorGeometry]) -> SensorGeometry:
    """The geometry a ``geometry W H`` header line sets."""
    parts = text.split()
    if len(parts) != 3:
        raise ParseError("geometry header needs 'geometry W H'", line_no)
    try:
        w, h = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError("geometry dimensions must be integers", line_no) from None
    if w <= 0 or h <= 0:
        raise GeometryError(f"line {line_no}: non-positive geometry {w}x{h}")
    effective = SensorGeometry(w, h)
    if geometry is not None and geometry != effective:
        raise GeometryError(
            f"geometry argument {geometry} disagrees with header {effective}")
    return effective


def _valid_events(geometry: SensorGeometry, t, u, v, s) -> bool:
    """Whether the t, u, v, s columns form valid, in-order events inside
    `geometry`."""
    return bool(((s == 1) | (s == -1)).all() and (t >= 0).all()
                and (u >= 0).all() and (u < geometry.width).all()
                and (v >= 0).all() and (v < geometry.height).all()
                and (np.diff(t) >= 0).all())


def _check_event(geometry: SensorGeometry, e: Event, line_no: int,
                 events: list[Event]) -> None:
    """Check one event's polarity and time, that it lies inside
    `geometry`, and that it is no earlier than the event before it."""
    if e.s not in (1, -1):
        raise ParseError(f"polarity must be +1 or -1, got {e.s}", line_no, 4)
    if e.t < 0:
        raise ParseError(f"negative timestamp {e.t}", line_no, 1)
    if not geometry.contains(e.u, e.v):
        raise GeometryError(
            f"line {line_no}: coordinate ({e.u}, {e.v}) outside "
            f"{geometry.width}x{geometry.height}")
    if events and e.t < events[-1].t:
        raise OrderingError(
            f"line {line_no}: timestamp {e.t} before previous "
            f"{events[-1].t}", len(events))


def save_stream(stream: EventStream, destination: Union[str, io.TextIOBase]) -> None:
    """Write a stream in the text format, geometry header first."""
    write_records(destination, EVENT_FORMAT,
                  f"geometry {stream.geometry.width} {stream.geometry.height}",
                  stream.events)
