"""Brute-force oracles for the tests.

They rebuild accumulation images event by event and write the
projection and its half-away rounding out themselves instead of calling
the kernels of `flowseg.projection`, so that a fault in a shared kernel
cannot hide behind an oracle.  The event-, labeled- and truth-file
oracles decode one line at a time with their own copy of the record
parser.
"""

from typing import Iterable, Iterator, Optional, Union

import numpy as np

from flowseg.engine import FlowLabeledEvent
from flowseg.events import (DEFAULT_GEOMETRY, Event, EventStream,
                            GeometryError, OrderingError, ParseError,
                            SensorGeometry)
from flowseg.projection import KEY_M


def pack_cell(x: int, y: int) -> int:
    return x * KEY_M + y


def metric_bruteforce(events: Iterable[Event], flow, t_ref_us: int) -> int:
    """Rebuild the accumulation image from scratch and sum squared cells.

    Oracle for the incremental metric.  It writes the projection and the
    half-away rounding out itself rather than calling `project_keys`, so
    that a fault in the shared kernel cannot hide behind the oracle.
    """
    f: dict[int, int] = {}
    vu, vv = flow[0], flow[1]
    for u, v, t, s in events:
        dt = (t - t_ref_us) * 1e-6
        x = u - vu * dt
        y = v - vv * dt
        xi = int(x + 0.5) if x >= 0.0 else -int(0.5 - x)
        yi = int(y + 0.5) if y >= 0.0 else -int(0.5 - y)
        key = xi * KEY_M + yi
        f[key] = f.get(key, 0) + s
    return sum(c * c for c in f.values())


def sum_squares(cells: dict[int, int]) -> int:
    """The contrast of a grid's cells: the sum of their squares."""
    return sum(c * c for c in cells.values())


def bruteforce_keys(events: Iterable[Event], flow,
                    t_ref_us: int) -> list[int]:
    """The packed cell each event projects to along `flow` relative to
    `t_ref_us`, in the events' order."""
    keys = []
    vu, vv = flow[0], flow[1]
    for u, v, t, _ in events:
        dt = (t - t_ref_us) * 1e-6
        x = u - vu * dt
        y = v - vv * dt
        xi = int(x + 0.5) if x >= 0.0 else -int(0.5 - x)
        yi = int(y + 0.5) if y >= 0.0 else -int(0.5 - y)
        keys.append(pack_cell(xi, yi))
    return keys


def bruteforce_image(events: Iterable[Event], flow,
                     t_ref_us: int) -> dict[int, int]:
    """The signed polarity sum in every packed cell that `events` project
    to along `flow` relative to `t_ref_us`; a cell whose events cancel
    holds 0."""
    events = list(events)
    image: dict[int, int] = {}
    for key, ev in zip(bruteforce_keys(events, flow, t_ref_us), events):
        image[key] = image.get(key, 0) + ev.s
    return image


def image_batch(events: Iterable[Event], flow,
                t_ref_us: int) -> tuple[np.ndarray, np.ndarray]:
    """`bruteforce_image` as `AccumulatorGrid.accumulate_batch` takes
    it: the packed cells ascending, and the sum in each."""
    image = bruteforce_image(events, flow, t_ref_us)
    keys = sorted(image)
    return (np.array(keys, dtype=np.int64),
            np.array([image[key] for key in keys], dtype=np.int64))


def array_flows(col_vu, row_vv) -> list[tuple[float, float]]:
    """The candidate flows of a Cartesian array in grid order: row by
    row, and within a row column by column."""
    flows = []
    for vv in row_vv:
        for vu in col_vu:
            flows.append((vu, vv))
    return flows


def bruteforce_row_images(events: Iterable[Event], col_vu, row_vv,
                          t_ref_us: int) -> list[dict[int, int]]:
    """Per speed row j of a Cartesian array, the `bruteforce_image` of
    each of its grids k = j*n + i, keyed by grid key k * 2**43 + packed
    (the key layout of a `MetricArray` row store)."""
    n = len(col_vu)
    rows = []
    for j, vv in enumerate(row_vv):
        row = {}
        for i, vu in enumerate(col_vu):
            for key, s in bruteforce_image(events, (vu, vv),
                                           t_ref_us).items():
                row[((j * n + i) << 43) + key] = s
        rows.append(row)
    return rows


def decode_event_per_line(record: str, line: int = 0) -> Event:
    """The event-line decoder of `load_stream` as it was before
    `parse_record`, for `load_stream_per_line`."""
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


def load_stream_per_line(source: Union[str, Iterable[str]],
                         geometry: Optional[SensorGeometry] = None
                         ) -> EventStream:
    """Oracle for `load_stream`: the loader that decodes and checks one
    line at a time, as `load_stream` did before its numpy pass.  Every
    input must give the same stream or the same error from both."""
    if isinstance(source, str):
        with open(source, "r", encoding="ascii") as fh:
            return load_stream_per_line(fh, geometry)

    effective = geometry or DEFAULT_GEOMETRY
    events: list[Event] = []
    saw_data = False
    for line_no, raw in enumerate(source, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        if not saw_data and text.split()[0] == "geometry":
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
        e = decode_event_per_line(text, line_no)
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


def parse_fields_per_line(record: str, line: int, types) -> list:
    """`events.parse_record` written out again, for the labeled- and
    truth-file oracles."""
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


def numbered_records_per_line(source: Union[str, Iterable[str]]
                              ) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each line of a path or of an
    iterable of lines that is neither blank nor a '#' comment."""
    if isinstance(source, str):
        with open(source, "r", encoding="ascii") as fh:
            yield from numbered_records_per_line(list(fh))
        return
    for line_no, raw in enumerate(source, start=1):
        text = raw.strip()
        if text and not text.startswith("#"):
            yield line_no, text


def read_labeled_per_line(source: Union[str, Iterable[str]]
                          ) -> list[FlowLabeledEvent]:
    """Oracle for `engine.read_labeled`: one line at a time, as it read
    before its numpy pass."""
    records = []
    for line_no, text in numbered_records_per_line(source):
        t, u, v, s, seg, v_u, v_v = parse_fields_per_line(
            text, line_no, (int, int, int, int, int, float, float))
        records.append(FlowLabeledEvent(u, v, t, s, seg, v_u, v_v))
    return records


def read_gt_per_line(source: Union[str, Iterable[str]]
                     ) -> list[tuple[int, int, float, float]]:
    """Oracle for `synth.read_gt`: one line at a time, as it read before
    its numpy pass."""
    records = []
    for line_no, text in numbered_records_per_line(source):
        t_us, v_u, v_v, structure = parse_fields_per_line(
            text, line_no, (int, float, float, int))
        records.append((t_us, structure, v_u, v_v))
    return records
