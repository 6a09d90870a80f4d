"""Memory bounds of discovery's rebuilds and drains, measured with
`tracemalloc`.

A kernel block is the (candidate, event) pairs of one speed row, and
`MetricArray.fill` and `apply_batch` project at most
`_BLOCK_PAIRS // n` events or retractions at a time, so a block never
holds more than `_BLOCK_PAIRS` pairs.  A fill consumes the kernel one
block at a time, so its temporaries above the store it builds are a
few blocks, and with more than one slice, the merge of one row.  An
emission frees the drained array's store before it fills the new one,
so two level-0 stores never coexist.  A drain frees each block's
temporaries before it merges the block's row, once per slice, so its
transient is a few blocks plus the merge of one row.
"""

import random
import tracemalloc
from unittest import mock

import numpy.ma  # noqa: F401  (see ASSOCIATION_SLACK)
import pytest

from flowseg import flow_plane
from flowseg.flow_plane import (FlowPlane, FlowPlaneConfig, MetricArray,
                                extract_associated)
from flowseg.synth import ConstantMotion, build_contour, generate_scene

from test_discovery_properties import drain_path
from test_projection import random_events

# bytes of one kernel block of int64 (candidate, event) pairs (512 KiB)
BLOCK_BYTES = 8 * flow_plane._BLOCK_PAIRS
# a fill's temporaries, each at most one block: the projected x of every
# column, the pairs of one speed row, their cells, group starts, grid
# keys and sums
FILL_TRANSIENT_BOUND = 6 * BLOCK_BYTES


def store_bytes(array):
    return (sum(a.nbytes for a in array.row_keys + array.row_values)
            + array._metrics.nbytes)


def fill_transient(cfg, events):
    """The traced peak of one `fill` of `events` into a fresh array, less
    what was traced before it and what the filled array holds."""
    array = MetricArray(cfg)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        array.fill(events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before - store_bytes(array)


# on the default 20 x 20 array, 500 noise events make blocks of 10,000
# pairs, 2,000 events of 40,000, and 3,276 fill each of the 20 blocks
# with 65,520 pairs
@pytest.mark.parametrize("count", [500, 2000, 3276],
                         ids=["1x", "4x", "full-block"])
def test_fill_transient_does_not_grow_with_events(count):
    events = random_events(random.Random(71), count)
    assert fill_transient(FlowPlaneConfig(), events) <= FILL_TRANSIENT_BOUND


def row_bytes(array):
    """Bytes of each row store: its keys and its values."""
    return [keys.nbytes + values.nbytes
            for keys, values in zip(array.row_keys, array.row_values)]


def test_multi_slice_fill_transient_is_blocks_plus_one_row_merge():
    # 8,000 events in slices of 3,276, 3,276 and 1,448: each later slice
    # merges its new cells into every row store, and the last sums the
    # squares of each row (about 3.6 blocks a row here)
    events = random_events(random.Random(71), 8000)
    array = MetricArray(FlowPlaneConfig())
    array.fill(events)
    largest_row = max(row_bytes(array))
    assert (fill_transient(FlowPlaneConfig(), events)
            <= FILL_TRANSIENT_BOUND + 2 * largest_row)


def emitting_scene():
    """A hexagon in dense noise: the first emission drains a store larger
    than a fill's transient."""
    contour = build_contour("hexagon", width=50.0, center=(60.0, 90.0))
    stream, _ = generate_scene(
        objects=[(contour, ConstantMotion(58.0, 10.0))],
        duration=0.8, noise_rate=3000.0, burst_size=2, seed=3)
    return stream.events


# slack for the association's per-event temporaries and the remainder
# list, about 0.2 MiB for this scene.  `np.unique` (in the association's
# `np.isin`) imports numpy.ma on its first call, about 0.5 MiB of module
# objects that are no emission's memory, so this module imports it first
ASSOCIATION_SLACK = BLOCK_BYTES


@pytest.mark.parametrize("depth_max", [0, 3])
def test_emission_frees_the_drained_store_before_the_rebuild(depth_max):
    cfg = FlowPlaneConfig(p_stable=400, depth_max=depth_max)
    seed = None
    tracemalloc.start()
    try:
        plane = FlowPlane(cfg)
        for ev in emitting_scene():
            plane.ingest(ev)
            if not plane.stability_check():
                continue
            drained = store_bytes(plane.array)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            seed = plane.try_emit()
            peak = tracemalloc.get_traced_memory()[1]
            if seed is not None:
                break
    finally:
        tracemalloc.stop()
    assert seed is not None
    transient = fill_transient(cfg, plane.array.held)
    # a second level-0 store, the size of the drained one less the
    # association's cells, would not fit in the bound below
    assert drained > transient + ASSOCIATION_SLACK
    # what was held before, plus one fill's transient: the new store
    # replaces the drained one instead of joining it
    assert peak - before <= transient + ASSOCIATION_SLACK


def test_flow_plane_without_refinement_emits_the_association():
    cfg = FlowPlaneConfig(p_stable=400, depth_max=0)
    plane = FlowPlane(cfg)
    seed = None
    for ev in emitting_scene():
        plane.ingest(ev)
        if not plane.stability_check():
            continue
        held = list(plane.array.held)
        assoc = extract_associated(plane.array)
        seed = plane.try_emit()
        if seed is not None:
            break
    assert seed is not None
    # no refinement level: the seed's flow is the association's
    assert seed.flow == assoc.flow
    assert seed.events == assoc.events
    # the rebuilt array holds the remainder, as a fresh fill of it would
    taken = set(assoc.event_indices)
    remainder = [e for i, e in enumerate(held) if i not in taken]
    assert plane.array.held == remainder
    rebuilt = MetricArray(cfg)
    rebuilt.fill(remainder)
    assert plane.array.metrics == rebuilt.metrics
    assert plane.array.argmax_index == rebuilt.argmax_index
    assert plane.stability_count == 0


# a drain's block temporaries at their peak, each at most one block of
# int64: the pairs (reused for their rows), their cells, group starts
# and counts, each cell's value before the block, the running value
# before each pair and one temporary of its update; the int32 signs and
# the slice's columns fit in the rest of the seventh
DRAIN_BLOCKS = 7


# 1,000 noise events held make about 400k cells (4.8 MB), half a block
# per row store; 4,000 about 1.6M (19 MB), 1.8 blocks per row store.
# The events and a flush of `flushed` held events once 380 of them are
# in: 1,092 rows, blocks of 21,840 pairs; 3,276 rows, one slice of full
# blocks of 65,520 pairs; or 5,333 and 6,333 rows, two slices whose
# last merges and compacts row stores grown by the first.  Two threads
# drain only a slice whose two blocks in flight fit in one block's
# budget: the 1,092 rows of "1x" and "4x" run on both paths
@pytest.mark.parametrize("held, ingested, flushed, drain",
                         [(1000, 759, 333, "serial"),
                          (4000, 759, 333, "serial"),
                          (1000, 2943, 333, "serial"),
                          (4000, 4000, 1333, "serial"),
                          (1000, 6000, 333, "serial"),
                          (1000, 759, 333, "two-thread"),
                          (4000, 759, 333, "two-thread")],
                         ids=["1x", "4x", "full-block", "two-slice-4x",
                              "two-slice-1x", "1x-two-thread",
                              "4x-two-thread"])
def test_drain_transient_is_blocks_plus_one_row_merge(held, ingested,
                                                      flushed, drain):
    events = random_events(random.Random(73), held + ingested,
                           t_span_us=2_000_000)
    array = MetricArray(FlowPlaneConfig())
    array.fill(events[:held])
    rows = row_bytes(array)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with drain_path(drain), \
                mock.patch.object(flow_plane, "_drain_worker",
                                  wraps=flow_plane._drain_worker) as worker:
            array.apply_batch(events[held:], [(380, flushed)])
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert worker.called == (drain == "two-thread")
    # the merge of one row holds its old array, the merged one and their
    # index arrays, and its compaction the merged row, the index of its
    # nonzero cells and the compacted copy: less than two of the larger
    # row stores.  With full blocks, the cells a block found missing
    # from its row store also wait beside its temporaries, for that merge
    largest_row = max(rows + row_bytes(array))
    assert (peak - max(before, after)
            <= DRAIN_BLOCKS * BLOCK_BYTES + 2 * largest_row)


class CountingList(list):
    """A list that counts the assignments to each index."""

    def __init__(self, items):
        super().__init__(items)
        self.sets = [0] * len(items)

    def __setitem__(self, index, value):
        self.sets[index] += 1
        super().__setitem__(index, value)


def test_row_stores_are_replaced_once_per_slice():
    cfg = FlowPlaneConfig()
    events = random_events(random.Random(79), 900)
    sliced, whole = MetricArray(cfg), MetricArray(cfg)
    sliced.fill(events[:300])
    whole.fill(events[:300])
    sliced.row_keys = CountingList(sliced.row_keys)
    batch, flushes = events[300:], [(200, 100)]
    # 700 rows in slices of 6000 // 20 = 300 rows: 300, 300 and 100, the
    # second ending inside the flush
    with mock.patch.object(flow_plane, "_BLOCK_PAIRS", 6000):
        best, tops = sliced.apply_batch(batch, flushes)
    # one merge per slice; the last slice, which compacts, then replaces
    # the merged row with its compacted copy
    assert sliced.row_keys.sets == [4] * cfg.n
    # the same argmaxes, metrics and store as one slice
    whole_best, whole_tops = whole.apply_batch(batch, flushes)
    assert best.tolist() == whole_best.tolist() and tops == whole_tops
    assert sliced.metrics == whole.metrics
    for mine, theirs in [(sliced.row_keys, whole.row_keys),
                         (sliced.row_values, whole.row_values)]:
        assert [a.tolist() for a in mine] == [a.tolist() for a in theirs]
