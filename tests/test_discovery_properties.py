"""Property tests of batched discovery.

The cell store, the deferred ingest, the two-thread drain and the
projection of each run of identical events as one weighted row must be
a change of data layout or of schedule only: batch boundaries, flushes,
drain timing, the thread a speed row drains on and where a run is cut
may not move a metric, an argmax or an emission.
"""

import math
import os
import sys
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowseg import flow_plane, projection
from flowseg.engine import Engine
from flowseg.events import Event
from flowseg.flow_plane import FlowPlane, FlowPlaneConfig, MetricArray

from conftest import hexagon_scene
from oracles import array_flows, bruteforce_image, metric_bruteforce

# 60 examples in the default profile (tests/conftest.py), scaled with
# the active one
SETTINGS = settings(max_examples=settings.default.max_examples * 6 // 10)
# (candidate, event) pairs per kernel block.  A block is one speed row
# of n candidates, so a slice of a batch or a fill is max(1, pairs // n)
# rows: small values put slice boundaries between events, between
# flushes and inside flushes
BLOCKS = st.sampled_from((1, 5, 6, 21, flow_plane._BLOCK_PAIRS))
# a drain's slices run on the calling thread alone, or split their
# speed rows with a worker thread wherever the two blocks in flight fit
# in one (`MetricArray._two_threads`)
DRAINS = pytest.mark.parametrize("drain", ["serial", "two-thread"])
STEPS = st.integers(0, 40_000)
# with gaps longer than a 0.2 s noise lifespan
GAPPY_STEPS = st.one_of(STEPS, STEPS, st.integers(200_000, 600_000))


@st.composite
def event_streams(draw, min_size=1, max_size=60, span=4, steps=STEPS):
    """Time-ordered events on a small patch, so that projections collide
    and cells cancel often."""
    steps = draw(st.lists(
        st.tuples(st.integers(0, span), st.integers(0, span), steps,
                  st.sampled_from((1, -1))),
        min_size=min_size, max_size=max_size))
    t = 0
    events = []
    for u, v, dt, s in steps:
        t += dt
        events.append(Event(u, v, t, s))
    return events


@st.composite
def burst_streams(draw, max_size=80, span=4):
    """`event_streams` with each event repeated 1-5 times, as the synth's
    bursts do, and sometimes next to copies of opposite polarity: runs
    of identical events that slices, flushes and retractions cut."""
    events = []
    for e in draw(event_streams(max_size=max(1, max_size // 3), span=span)):
        run = [e] * draw(st.integers(1, 5))
        flipped = [e._replace(s=-e.s)] * draw(st.sampled_from((0, 0, 1, 2)))
        events += run + flipped if draw(st.booleans()) else flipped + run
    return events[:max_size]


# event streams whose runs of identical events are one event long, or
# several
STREAMS = st.one_of(event_streams(max_size=80), burst_streams(max_size=80))


@contextmanager
def drain_path(drain):
    """Make every drain take the path `drain`: one CPU patched in, or two
    and no row-store threshold."""
    threads = drain == "two-thread"
    with mock.patch.object(flow_plane, "_cpus", lambda: 2 if threads else 1), \
            mock.patch.object(flow_plane, "_THREAD_ROW_CELLS",
                              0 if threads else flow_plane._THREAD_ROW_CELLS):
        yield


@contextmanager
def upper_halves():
    """Record, for each `_drain_rows` call that drains the upper half of
    a split slice (`lo` above 0), the thread it ran on.  The threads
    themselves, not their idents: an ended thread's ident may be reused."""
    threads = []
    drain_rows = MetricArray._drain_rows

    def spy(self, lo, hi, *args):
        if lo:
            threads.append(threading.current_thread())
        return drain_rows(self, lo, hi, *args)

    with mock.patch.object(MetricArray, "_drain_rows", spy):
        yield threads


def split(events, cuts):
    bounds = sorted({c % (len(events) + 1) for c in cuts} | {0, len(events)})
    return [events[a:b] for a, b in zip(bounds, bounds[1:])]


def flows(array):
    """The array's candidate flows in grid order."""
    return array_flows(array.col_vu, array.row_vv)


def nonzero_grids(array):
    grids = []
    for k in range(len(array.col_vu) * len(array.row_vv)):
        cells, values = array.grid(k)
        grids.append({c: v for c, v in zip(cells.tolist(), values.tolist())
                      if v})
    return grids


def bruteforce_grids(array):
    return [{c: v for c, v in bruteforce_image(array.held, flow,
                                               array.t_ref_us).items() if v}
            for flow in flows(array)]


def ingest_one(array, e):
    """Accumulate one event as a one-event batch; the argmax after it."""
    return int(array.apply_batch([e])[0][0])


def flush_before(array, cutoff_us):
    """Retract the held events with t < cutoff_us, a prefix of `held`, as
    a one-flush batch; returns how many."""
    count = bisect_left(array.held, cutoff_us, key=itemgetter(2))
    if count:
        array.apply_batch((), [(0, count)])
    return count


@SETTINGS
@given(events=event_streams(), cuts=st.lists(st.integers(0, 60), max_size=6),
       n=st.integers(2, 4), block=BLOCKS)
def test_ingest_batch_splits_match_single_events(events, cuts, n, block):
    cfg = FlowPlaneConfig(n=n)
    single = MetricArray(cfg)
    expected = [ingest_one(single, e) for e in events]
    batched = MetricArray(cfg)
    got = []
    with mock.patch.object(flow_plane, "_BLOCK_PAIRS", block):
        for batch in split(events, cuts):
            got.extend(batched.apply_batch(batch)[0].tolist())
    assert got == expected
    assert batched.metrics == single.metrics
    assert batched.argmax_index == single.argmax_index
    assert nonzero_grids(batched) == nonzero_grids(single)


@DRAINS
@SETTINGS
@given(events=STREAMS,
       ops=st.lists(st.tuples(st.integers(1, 20), st.booleans(),
                              st.integers(0, 100)), min_size=1, max_size=12),
       n=st.integers(2, 3), block=BLOCKS)
def test_ingest_and_flush_match_bruteforce(drain, events, ops, n, block):
    array = MetricArray(FlowPlaneConfig(n=n))
    at = 0
    for size, by_fill, cutoff_pct in ops:
        batch = events[at:at + size]
        at += size
        with mock.patch.object(flow_plane, "_BLOCK_PAIRS", block), \
                drain_path(drain):
            if by_fill:
                array.fill(batch)
            else:
                array.apply_batch(batch)
            if array.held:
                first, last = array.held[0].t, array.held[-1].t
                flush_before(array,
                             first + (last - first) * cutoff_pct // 100)
        if array.t_ref_us is None:
            continue
        for k, flow in enumerate(flows(array)):
            assert array.metrics[k] == metric_bruteforce(array.held, flow,
                                                         array.t_ref_us)
        assert nonzero_grids(array) == bruteforce_grids(array)


# the top array's range and each refinement level's, and arbitrary ones
RANGES = st.one_of(st.sampled_from([flow_plane._ANGULAR_RANGE
                                    / flow_plane._RANGE_SHRINK ** level
                                    for level in range(4)]),
                   st.floats(1e-3, math.pi))
CENTERS = st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))


@SETTINGS
@given(events=event_streams(span=40), n=st.integers(2, 5), center=CENTERS,
       angular_range=RANGES, block=BLOCKS,
       cuts=st.lists(st.integers(0, 60), max_size=4))
def test_off_center_arrays_match_bruteforce(events, n, center, angular_range,
                                            block, cuts):
    # every grid rounds its column's v_u and its row's v_v once per
    # event; around any center and at any range, each candidate must
    # still see its own flow
    cfg = FlowPlaneConfig(n=n)
    filled, ingested = (MetricArray(cfg, center, angular_range)
                        for _ in range(2))
    with mock.patch.object(flow_plane, "_BLOCK_PAIRS", block):
        filled.fill(events)
        for batch in split(events, cuts):
            ingested.apply_batch(batch)
    expected = [metric_bruteforce(events, flow, events[0].t)
                for flow in flows(filled)]
    for array in (filled, ingested):
        assert array.metrics == expected
    images = bruteforce_grids(filled)
    assert nonzero_grids(filled) == images
    assert nonzero_grids(ingested) == images
    # a fill writes each speed row from every slice of the events
    assert row_store_faults(filled, False) == []


@SETTINGS
@given(events=burst_streams(max_size=120, span=6), n=st.integers(2, 4),
       block=BLOCKS)
def test_fill_of_bursts_matches_bruteforce(events, n, block):
    # a fill projects each run of identical events once, weighted by its
    # length; the small blocks put slice boundaries inside runs
    array = MetricArray(FlowPlaneConfig(n=n))
    with mock.patch.object(flow_plane, "_BLOCK_PAIRS", block):
        array.fill(events)
    for k, flow in enumerate(flows(array)):
        assert array.metrics[k] == metric_bruteforce(events, flow,
                                                     events[0].t)
    assert nonzero_grids(array) == bruteforce_grids(array)
    assert row_store_faults(array, False) == []


def bruteforce_argmax(array):
    """The argmax of the brute-force metrics of the held events, lowest
    index on ties; None when nothing is held."""
    if not array.held:
        return None
    metrics = [metric_bruteforce(array.held, flow, array.t_ref_us)
               for flow in flows(array)]
    return metrics.index(max(metrics))


@DRAINS
@SETTINGS
@given(events=STREAMS,
       prefill=st.integers(0, 20),
       ops=st.lists(st.one_of(st.tuples(st.just("ingest"), st.integers(1, 12)),
                              st.tuples(st.just("flush"), st.integers(0, 100))),
                    min_size=1, max_size=16),
       n=st.integers(2, 3), block=BLOCKS)
def test_ordered_batch_matches_one_operation_at_a_time(drain, events, prefill,
                                                       ops, n, block):
    # the operations applied one at a time, each checked against brute
    # force, give the argmax after every event and every flush
    cfg = FlowPlaneConfig(n=n)
    single = MetricArray(cfg)
    single.fill(events[:prefill])
    at = prefill
    batch, flushes, expected, expected_flushes = [], [], [], []
    for kind, value in ops:
        if kind == "ingest":
            for e in events[at:at + value]:
                expected.append(ingest_one(single, e))
                assert expected[-1] == bruteforce_argmax(single)
                batch.append(e)
            at += value
        elif single.held:
            # from nothing (0) to every held event (100)
            first, last = single.held[0].t, single.held[-1].t + 1
            count = flush_before(single,
                                 first + (last - first) * value // 100)
            assert single.argmax_index == bruteforce_argmax(single)
            if count:
                flushes.append((len(batch), count))
                expected_flushes.append(single.argmax_index)
    # the same operations as one ordered batch
    batched = MetricArray(cfg)
    batched.fill(events[:prefill])
    with mock.patch.object(flow_plane, "_BLOCK_PAIRS", block), \
            drain_path(drain):
        best, after = batched.apply_batch(batch, flushes)
    assert best.tolist() == expected
    assert after == expected_flushes
    assert batched.argmax_index == single.argmax_index
    assert batched.held == single.held
    assert batched.metrics == single.metrics
    if batched.t_ref_us is not None:
        assert batched.metrics == [
            metric_bruteforce(batched.held, flow, batched.t_ref_us)
            for flow in flows(batched)]
        assert nonzero_grids(batched) == bruteforce_grids(batched)


def row_store_faults(array, retracted):
    """How the row stores break their layout: each must be strictly
    ascending, hold only its own speed row's grid keys and, after a
    batch that retracted events, no 0; together they must be the
    brute-force store of the held events (ignoring 0 cells otherwise)."""
    n = array.cfg.n
    edges = projection.grid_edges(n * n)[::n]
    faults = []
    for j, (keys, values) in enumerate(zip(array.row_keys, array.row_values)):
        if len(keys) != len(values):
            faults.append(f"row {j}: {len(keys)} keys, {len(values)} values")
        if (np.diff(keys) <= 0).any():
            faults.append(f"row {j}: keys not strictly ascending")
        if len(keys) and not edges[j] <= keys[0] <= keys[-1] < edges[j + 1]:
            faults.append(f"row {j}: keys of another row")
        if retracted and not values.all():
            faults.append(f"row {j}: 0 cell after a retracting batch")
    keys = np.concatenate(array.row_keys).tolist()
    values = np.concatenate(array.row_values).tolist()
    stored = [(key, value) for key, value in zip(keys, values)
              if value or retracted]
    expected = sorted(
        (cell + (k << projection._K_SHIFT), value)
        for k, image in enumerate(bruteforce_grids(array))
        for cell, value in image.items()) if array.held else []
    if stored != expected:
        faults.append("store differs from brute force")
    return faults


@DRAINS
@SETTINGS
@given(events=event_streams(max_size=80),
       batches=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12),
                                  st.integers(0, 100)),
                        min_size=1, max_size=8),
       n=st.integers(2, 5), block=BLOCKS)
# the second batch is 9 rows: 1 event and 8 retractions, in slices of
# 6 // 3 = 2 rows.  The first slice holds the event and a retraction,
# the next three end inside the flush, and the last, 1 retraction,
# compacts each row store
@example(events=[Event(i % 3, i % 2, 1000 * i, 1 - 2 * (i % 2))
                 for i in range(20)],
         batches=[(8, 0, 0), (1, 1, 90)], n=3, block=6)
def test_row_stores_stay_sorted_and_own_their_rows(drain, events, batches, n,
                                                   block):
    # each batch ingests `size` events and, once `where` of them are in,
    # retracts `pct` percent of the events then held
    array = MetricArray(FlowPlaneConfig(n=n))
    at = 0
    for size, where, pct in batches:
        batch = events[at:at + size]
        at += size
        where = min(where, len(batch))
        count = (len(array.held) + where) * pct // 100
        with mock.patch.object(flow_plane, "_BLOCK_PAIRS", block), \
                drain_path(drain):
            array.apply_batch(batch, [(where, count)] if count else [])
        assert row_store_faults(array, count > 0) == []


def test_cancelled_cell_retracts_after_compaction():
    # a and b cancel in every grid; the flush of z compacts their cell
    # away, and the flush of a must then read it as 0, leaving b's -1
    z = Event(50, 50, 0, 1)
    a = Event(5, 5, 1, 1)
    b = Event(5, 5, 10, -1)
    array = MetricArray(FlowPlaneConfig(n=3))
    array.fill([z, a, b])
    assert flush_before(array, 1) == 1
    assert all(len(array.grid(k)[0]) == 0 for k in range(9))
    assert flush_before(array, 5) == 1
    for k, flow in enumerate(flows(array)):
        assert array.metrics[k] == metric_bruteforce([b], flow,
                                                     array.t_ref_us) == 1
    assert nonzero_grids(array) == bruteforce_grids(array)


def flush_now(plane, now_us):
    """A noise flush applied on the spot: the pending events enter the
    array, the stale ones leave it, and a moved argmax (None when the
    array empties) restarts the stable run."""
    array = plane.array
    before = array.argmax_index
    removed = flush_before(array,
                           now_us - int(plane.cfg.noise_lifespan_s * 1e6))
    if removed and array.argmax_index != before:
        plane.stability_count = 0
    return removed


def offer(plane, ev, eager):
    """Ingest one event as the engine does and return its seed's flow and
    events; with `eager`, then read the array, which drains the event
    on its own if `ingest` left it pending."""
    seed = plane.ingest(ev)
    if eager:
        plane.array
        # `ingest` drains once the run could reach p_stable
        assert plane.stability_count < plane.cfg.p_stable
    return None if seed is None else (seed.flow, seed.events)


def stable_run(plane):
    # the array as the last drain left it: `plane.array` would drain
    return plane.stability_count, plane._array.argmax_index


@SETTINGS
@given(events=event_streams(min_size=20, max_size=200, span=3,
                            steps=GAPPY_STEPS),
       p_stable=st.integers(1, 25), n=st.integers(2, 3),
       w=st.sampled_from((0.0, 0.5, 1.0)),
       # several flushes per window, some after the last event; one 0.3 s
       # ahead of its event retracts everything held and pending
       flush_at=st.lists(st.tuples(st.integers(-3, 199),
                                   st.sampled_from((0, 0, 0, 300_000))),
                         max_size=40))
# the flush after event 28 retracts the 27 events at t = 0 and moves the
# argmax from grid 4 to grid 0; the next event takes it back to grid 4,
# which starts a new stable run only because the flush restarted it
@example(events=[Event(0, 0, 0, 1)] * 27
         + [Event(0, 0, 2887, 1), Event(0, 1, 202887, 1),
            Event(0, 0, 202887, 1)],
         p_stable=4, n=3, w=0.0, flush_at=[(28, 0)])
def test_deferred_plane_emits_like_eager(events, p_stable, n, w, flush_at):
    # the deferred plane marks its flushes and drains once per window;
    # the eager one drains every event and applies every flush on the
    # spot.  They must emit the same seeds, and agree on the stable run
    # whenever the deferred one has just drained
    cfg = FlowPlaneConfig(n=n, p_stable=p_stable, noise_lifespan_s=0.2)
    flushes = {}
    for i, ahead in flush_at:
        flushes.setdefault(i % len(events), []).append(ahead)
    deferred, eager = FlowPlane(cfg), FlowPlane(cfg)
    with mock.patch.object(flow_plane, "_SEED_W", w):
        for i, ev in enumerate(events):
            assert offer(deferred, ev, False) == offer(eager, ev, True)
            if not deferred._pending:
                assert stable_run(deferred) == stable_run(eager)
            for ahead in flushes.get(i, ()):
                assert (deferred.flush_noise(ev.t + ahead)
                        == flush_now(eager, ev.t + ahead))
    assert deferred.array.held == eager.array.held
    assert deferred.array.metrics == eager.array.metrics
    assert stable_run(deferred) == stable_run(eager)


def array_state(array):
    """Everything a drain writes: the metrics, the row stores with their
    0 cells, and the held events."""
    return (array.metrics, [keys.tolist() for keys in array.row_keys],
            [values.tolist() for values in array.row_values], array.held)


@SETTINGS
@given(events=STREAMS,
       batches=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30),
                                  st.integers(0, 100)),
                        min_size=1, max_size=6),
       n=st.integers(2, 3), block=BLOCKS)
def test_two_thread_drains_match_serial(events, batches, n, block):
    # the halves are uneven at n = 3: one row on the calling thread, two
    # on the worker.  Every batch must give both paths the same argmax
    # after each event and each flush, and leave the same array
    arrays = {drain: MetricArray(FlowPlaneConfig(n=n))
              for drain in ("serial", "two-thread")}
    at = 0
    for size, where, pct in batches:
        batch = events[at:at + size]
        at += size
        where = min(where, len(batch))
        count = (len(arrays["serial"].held) + where) * pct // 100
        flushes = [(where, count)] if count else []
        results = []
        for drain, array in arrays.items():
            with mock.patch.object(flow_plane, "_BLOCK_PAIRS", block), \
                    drain_path(drain):
                best, tops = array.apply_batch(batch, flushes)
            results.append((best.tolist(), tops, array_state(array)))
        assert results[0] == results[1]


def hexagon_cut():
    """The first 0.4 s of the fast hexagon: about 14k events and several
    emissions."""
    events, _, cfg = hexagon_scene(11)
    return [e for e in events if e.t < 400_000], cfg


def test_engine_labels_do_not_depend_on_the_drain_path():
    events, cfg = hexagon_cut()
    runs = {}
    for drain in ("serial", "two-thread"):
        engine = Engine(cfg)
        threads = threading.active_count()
        with drain_path(drain), upper_halves() as uppers:
            labels = engine.run(events)
        runs[drain] = labels, engine.stats, uppers
        # each split slice's worker has ended with its slice
        assert threading.active_count() == threads
    assert runs["serial"][:2] == runs["two-thread"][:2]
    assert runs["serial"][1].planes_created > 0
    # one CPU: no drain split its rows; two: the drains did, and drained
    # the upper half off the calling thread
    assert runs["serial"][2] == []
    assert runs["two-thread"][2]
    assert threading.current_thread() not in runs["two-thread"][2]


def test_engine_and_a_drain_under_the_threshold_start_no_thread():
    events, cfg = hexagon_cut()
    with mock.patch.object(flow_plane, "_cpus", lambda: 2), \
            upper_halves() as uppers:
        threads = threading.active_count()
        Engine(cfg)
        array = MetricArray(cfg.flow_plane)
        array.fill(events[:200])
        assert (sum(map(len, array.row_keys))
                < flow_plane._THREAD_ROW_CELLS * cfg.flow_plane.n)
        array.apply_batch(events[200:700], [(100, 50)])
        assert uppers == []
        assert threading.active_count() == threads


def drain_three_batches(cfg, events):
    """Fill an array with 300 events, then drain three batches of 100
    with a flush in each; the argmaxes and the array they leave."""
    array = MetricArray(cfg)
    array.fill(events[:300])
    results = [array.apply_batch(events[at:at + 100], [(50, 40)])[0].tolist()
               for at in range(300, 600, 100)]
    return results, array_state(array)


# a thread or a forked child that hangs is given up after this long
HANG_TIMEOUT_S = 60


# a 3 x 3 array over a 3 x 3 patch: many ties between the two halves
SMALL_PATCH = (FlowPlaneConfig(n=3),
               [Event(i % 3, i // 3 % 3, 997 * i, 1 if i % 7 else -1)
                for i in range(600)])


@pytest.mark.parametrize("case", ["hexagon", "small-patch"])
def test_concurrent_callers_each_drain_on_their_own_worker(case):
    # four threads on two cores, each draining its own array with a
    # worker of its own per split slice while the interpreter switches
    # threads every 10 us: a row written by the wrong thread, a half
    # applied twice or not at all, or a tie resolved by which half
    # finished first would change an argmax or a store
    if case == "hexagon":
        events, cfg = hexagon_cut()
        cfg = cfg.flow_plane
    else:
        cfg, events = SMALL_PATCH
    callers = 4
    with drain_path("serial"):
        expected = drain_three_batches(cfg, events)
    got = [None] * callers

    def drain(i):
        got[i] = drain_three_batches(cfg, events)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with drain_path("two-thread"), upper_halves() as uppers:
            threads = [threading.Thread(target=drain, args=(i,))
                       for i in range(callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(HANG_TIMEOUT_S)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [expected] * callers
    # each caller's fill and three drains split every slice (a fill
    # takes a drain's path without the replay), and no caller drained
    # an upper half itself
    assert len(uppers) == 4 * callers
    assert not set(threads) & set(uppers)


@pytest.mark.parametrize("failing", ["lower", "upper"])
def test_a_failing_half_raises_once_both_halves_end(failing):
    # the other half, slowed down, must have ended by the time the error
    # reaches the caller, and its worker with it
    cfg, events = SMALL_PATCH
    array = MetricArray(cfg)
    array.fill(events[:300])
    drain_rows = MetricArray._drain_rows
    ended = []

    def spy(self, lo, hi, *args):
        if (lo > 0) == (failing == "upper"):
            raise RuntimeError(f"the {failing} half failed")
        time.sleep(0.05)
        result = drain_rows(self, lo, hi, *args)
        ended.append(lo)
        return result

    threads = threading.active_count()
    with drain_path("two-thread"), \
            mock.patch.object(MetricArray, "_drain_rows", spy), \
            pytest.raises(RuntimeError, match=f"^the {failing} half failed$"):
        array.apply_batch(events[300:400])
    assert ended == [0 if failing == "upper" else cfg.n // 2]
    assert threading.active_count() == threads


@pytest.mark.skipif(sys.platform != "linux", reason="fork is Linux-only here")
def test_forked_child_drains_on_its_own_worker():
    # a child forked after the parent's two-thread drains inherits no
    # thread: its own split drains must still drain the upper half on a
    # worker, or wait forever for one that does not exist
    events, cfg = hexagon_cut()
    array = MetricArray(cfg.flow_plane)
    array.fill(events[:300])
    with drain_path("two-thread"), upper_halves() as uppers:
        expected = array.apply_batch(events[300:600])[0].tolist()
        assert uppers and threading.current_thread() not in uppers
        pid = os.fork()
        if pid == 0:                    # the child: never back into pytest
            code = 1
            try:
                del uppers[:]
                again = MetricArray(cfg.flow_plane)
                again.fill(events[:300])
                got = again.apply_batch(events[300:600])[0].tolist()
                code = 0 if (got == expected and uppers and
                             threading.current_thread() not in uppers) else 3
            finally:
                os._exit(code)
    deadline = time.monotonic() + HANG_TIMEOUT_S
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail(f"the forked child hung for {HANG_TIMEOUT_S} s")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 0
