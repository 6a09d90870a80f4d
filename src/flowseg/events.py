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
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

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


def record_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped text) for each line of
    `lines` that is neither blank nor a comment starting with '#'."""
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if text and not text.startswith("#"):
            yield line_no, text


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


def decode_event(record: str, line: int = 0) -> Event:
    """Parse one ``t u v s`` record into an Event.

    Raises ParseError for malformed fields.  Coordinates are checked
    against the sensor geometry by `load_stream`, once it is known.
    """
    t, u, v, s = parse_record(record, line, (int, int, int, int))
    if s not in (1, -1):
        raise ParseError(f"polarity must be +1 or -1, got {s}", line, 4)
    if t < 0:
        raise ParseError(f"negative timestamp {t}", line, 1)
    return Event(u, v, t, s)


def encode_event(e: Event) -> str:
    return f"{e.t} {e.u} {e.v} {e.s}"


def load_stream(source: Union[str, Iterable[str]],
                geometry: Optional[SensorGeometry] = None) -> EventStream:
    """Load an event stream from a file path or an iterable of lines.

    Blank lines and '#' comment lines may appear anywhere and are
    skipped.  Only the first other line may be a ``geometry W H``
    header; it sets the geometry, and an explicit `geometry` argument
    must agree with it when both are present.  Every further line is one
    ``t u v s`` event as `decode_event` defines it, inside the geometry
    and no earlier than the event before it.

    A well-formed stream is parsed in one numpy pass and checked as
    whole columns (about 1.4 us per event against 4.5 us line by line, on
    the 93,780-event hexagon scene).  Any other input is decoded line by
    line, and the first bad line raises a ParseError, GeometryError or
    OrderingError that names the line (ParseError also the field).
    """
    if isinstance(source, str):
        lines = read_ascii(source).split("\n")
    else:
        lines = list(source)
    # the texts of `record_lines(lines)`, without the line numbers
    texts = [text for raw in lines
             if (text := raw.strip()) and text[0] != "#"]
    effective = geometry or DEFAULT_GEOMETRY
    first = 0
    if texts and texts[0].split()[0] == "geometry":
        effective = _header_geometry(*next(record_lines(lines)), geometry)
        first = 1
    table = _event_table(texts[first:], effective)
    if table is None:
        events = _decode_events(islice(record_lines(lines), first, None),
                                effective)
    else:
        t, u, v, s = table.T.tolist()
        # tuple.__new__ builds each Event with no Python-level call
        events = list(map(partial(tuple.__new__, Event), zip(u, v, t, s)))
    return EventStream(effective, events)


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


def _event_table(rows: list[str],
                 geometry: SensorGeometry) -> Optional[np.ndarray]:
    """The (len(rows), 4) int64 table of t, u, v, s, or None unless every
    row parses as four int64 values that form valid, in-order events
    inside `geometry`.  None sends the rows to `_decode_events`, which
    also accepts spellings numpy rejects (``1_0``, 20-digit values)."""
    try:
        with warnings.catch_warnings():
            # numpy before 2.0 parses '1.0', and a value past int64, via
            # a float with only a DeprecationWarning; an empty `rows`
            # warns too
            warnings.simplefilter("error")
            table = np.loadtxt(rows, dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    if table.shape != (len(rows), 4):
        return None
    t, u, v, s = table.T
    valid = (((s == 1) | (s == -1)).all() and (t >= 0).all()
             and (u >= 0).all() and (u < geometry.width).all()
             and (v >= 0).all() and (v < geometry.height).all()
             and (np.diff(t) >= 0).all())
    return table if valid else None


def _decode_events(records: Iterable[tuple[int, str]],
                   geometry: SensorGeometry) -> list[Event]:
    """Decode numbered event records one at a time, checking each
    against `geometry` and the time order; the first bad record raises."""
    events: list[Event] = []
    for line_no, text in records:
        e = decode_event(text, line_no)
        if not geometry.contains(e.u, e.v):
            raise GeometryError(
                f"line {line_no}: coordinate ({e.u}, {e.v}) outside "
                f"{geometry.width}x{geometry.height}")
        if events and e.t < events[-1].t:
            raise OrderingError(
                f"line {line_no}: timestamp {e.t} before previous "
                f"{events[-1].t}", len(events))
        events.append(e)
    return events


def save_stream(stream: EventStream, destination: Union[str, io.TextIOBase]) -> None:
    """Write a stream in the text format, geometry header first."""
    if isinstance(destination, str):
        with open(destination, "w", encoding="ascii") as fh:
            save_stream(stream, fh)
        return
    destination.write(f"geometry {stream.geometry.width} {stream.geometry.height}\n")
    for e in stream.events:
        destination.write(encode_event(e) + "\n")
