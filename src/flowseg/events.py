"""Core event types and the plain-text event stream format.

An event is (u, v, t, s): integer pixel coordinates, a microsecond
timestamp, and a polarity of +1 or -1.  Streams are time-ordered
(non-decreasing t) and bound to a sensor geometry.

Text format, one event per line::

    t u v s

with t in microseconds.  Lines starting with '#' are comments.  The first
non-comment line may be a header ``geometry W H``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Union


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


def decode_event(record: str, line: int = 0) -> Event:
    """Parse one ``t u v s`` record into an Event.

    Raises ParseError for malformed fields.  Coordinates are checked
    against the sensor geometry by `load_stream`, once it is known.
    """
    fields = record.split()
    if len(fields) != 4:
        raise ParseError(f"expected 4 fields, got {len(fields)}", line, 0)
    values = []
    for col, text in enumerate(fields, start=1):
        try:
            values.append(int(text))
        except ValueError:
            raise ParseError(f"not an integer: {text!r}", line, col) from None
    t, u, v, s = values
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

    A ``geometry W H`` header in the file sets the geometry; it must come
    before any event, and an explicit `geometry` argument must agree with
    it when both are present.  Each event's coordinates and time order are
    checked as its line is decoded; errors name the line.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="ascii") as fh:
            return load_stream(fh, geometry)

    effective = geometry or DEFAULT_GEOMETRY
    events: list[Event] = []
    saw_data = False
    for line_no, raw in enumerate(source, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        if not saw_data and text.startswith("geometry"):
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
            saw_data = True
            continue
        saw_data = True
        e = decode_event(text, line_no)
        if not effective.contains(e.u, e.v):
            raise GeometryError(
                f"line {line_no}: coordinate ({e.u}, {e.v}) outside "
                f"{effective.width}x{effective.height}")
        if events and e.t < events[-1].t:
            raise OrderingError(
                f"line {line_no}: timestamp {e.t} before previous "
                f"{events[-1].t}", len(events))
        events.append(e)
    return EventStream(effective, events)


def save_stream(stream: EventStream, destination: Union[str, io.TextIOBase]) -> None:
    """Write a stream in the text format, geometry header first."""
    if isinstance(destination, str):
        with open(destination, "w", encoding="ascii") as fh:
            save_stream(stream, fh)
        return
    destination.write(f"geometry {stream.geometry.width} {stream.geometry.height}\n")
    for e in stream.events:
        destination.write(encode_event(e) + "\n")
