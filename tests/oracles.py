"""Brute-force oracles for the tests.

They rebuild accumulation images event by event and write the
projection and its half-away rounding out themselves instead of calling
the kernels of `flowseg.projection`, so that a fault in a shared kernel
cannot hide behind an oracle.
"""

from typing import Iterable

from flowseg.events import Event
from flowseg.projection import KEY_M


def pack_cell(x: int, y: int) -> int:
    return x * KEY_M + y


def metric_bruteforce(events: Iterable[Event], flow, t_ref_us: int) -> int:
    """Rebuild the accumulation image from scratch and sum squared cells.

    Oracle for the incremental metric.  It writes the projection and the
    half-away rounding out itself rather than calling `cell_key`, so that
    a fault in the shared kernel cannot hide behind the oracle.
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


def bruteforce_image(events: Iterable[Event], flow,
                     t_ref_us: int) -> dict[int, int]:
    """The signed polarity sum in every packed cell that `events` project
    to along `flow` relative to `t_ref_us`; a cell whose events cancel
    holds 0."""
    image: dict[int, int] = {}
    vu, vv = flow[0], flow[1]
    for u, v, t, s in events:
        dt = (t - t_ref_us) * 1e-6
        x = u - vu * dt
        y = v - vv * dt
        xi = int(x + 0.5) if x >= 0.0 else -int(0.5 - x)
        yi = int(y + 0.5) if y >= 0.0 else -int(0.5 - y)
        key = pack_cell(xi, yi)
        image[key] = image.get(key, 0) + s
    return image


def array_flows(col_vu, row_vv) -> list[tuple[float, float]]:
    """The candidate flows of a Cartesian array in grid order: row by
    row, and within a row column by column."""
    flows = []
    for vv in row_vv:
        for vu in col_vu:
            flows.append((vu, vv))
    return flows
