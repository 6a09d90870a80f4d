"""Accuracy metrics: labeled flow output against per-event ground truth.

Magnitude error is the signed percentage (|est| - |gt|) / |gt| * 100, so
aperture-style underestimates come out negative.  Angle error is the
unsigned angle between the vectors in [0, 180] degrees.  Ground truth
rows are (t_us, structure_id, v_u, v_v) aligned index-for-index with the
stream that produced the labels; structure_id -1 marks noise events,
which never enter the error lists.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .engine import UNLABELED, FlowLabeledEvent


def magnitude_pct_error(est_u: float, est_v: float,
                        gt_u: float, gt_v: float) -> float:
    """Signed magnitude error in percent; nan when the truth is zero."""
    gt_mag = math.hypot(gt_u, gt_v)
    if gt_mag == 0.0:
        return math.nan
    return 100.0 * (math.hypot(est_u, est_v) - gt_mag) / gt_mag


def angle_error_deg(est_u: float, est_v: float,
                    gt_u: float, gt_v: float) -> float:
    """Unsigned angle between estimate and truth, degrees in [0, 180]."""
    if (est_u == 0.0 and est_v == 0.0) or (gt_u == 0.0 and gt_v == 0.0):
        return math.nan
    cross = est_u * gt_v - est_v * gt_u
    dot = est_u * gt_u + est_v * gt_v
    return math.degrees(math.atan2(abs(cross), dot))


class FlowError(NamedTuple):
    t_us: int
    segment: int
    structure: int
    mag_pct: float
    angle_deg: float


def flow_errors(labeled: Sequence[FlowLabeledEvent],
                gt_records: Sequence[tuple[int, int, float, float]]
                ) -> tuple[list[FlowError], float]:
    """Per-event errors for labeled non-noise events, plus coverage.

    Coverage is the labeled fraction of non-noise events.  Raises
    ValueError when the two sequences disagree in length or, at the
    first index where they do, in time (they must be index-aligned).
    """
    if len(labeled) != len(gt_records):
        raise ValueError(
            f"{len(labeled)} labeled events vs {len(gt_records)} truth rows")
    errors = []
    eligible = 0
    covered = 0
    for i, (rec, (t_us, structure, gt_u, gt_v)) in enumerate(
            zip(labeled, gt_records)):
        if rec.t != t_us:
            raise ValueError(f"index {i}: labeled event at t={rec.t} vs "
                             f"truth row at t_us={t_us}")
        if structure < 0:
            continue
        eligible += 1
        if rec.segment == UNLABELED or not (math.isfinite(rec.v_u)
                                            and math.isfinite(rec.v_v)):
            continue
        covered += 1
        errors.append(FlowError(
            rec.t, rec.segment, structure,
            magnitude_pct_error(rec.v_u, rec.v_v, gt_u, gt_v),
            angle_error_deg(rec.v_u, rec.v_v, gt_u, gt_v)))
    coverage = covered / eligible if eligible else 0.0
    return errors, coverage


def majority_structure_map(errors: Sequence[FlowError]) -> dict[int, int]:
    """segment id -> the structure it most often labels (ties: lower id)."""
    votes: dict[int, dict[int, int]] = {}
    for err in errors:
        votes.setdefault(err.segment, {}).setdefault(err.structure, 0)
        votes[err.segment][err.structure] += 1
    mapping = {}
    for segment, counts in votes.items():
        best = max(sorted(counts), key=lambda sid: counts[sid])
        mapping[segment] = best
    return mapping


def cross_label_fraction(errors: Sequence[FlowError]) -> float:
    """Fraction of labeled events on a structure their segment does not
    majority-map to.  0.0 for an empty list."""
    if not errors:
        return 0.0
    mapping = majority_structure_map(errors)
    wrong = sum(1 for err in errors if mapping[err.segment] != err.structure)
    return wrong / len(errors)


@dataclass
class ErrorSummary:
    count: int
    mean: float
    median: float
    sigma: float            # population standard deviation
    histogram: dict[float, int]   # lower bin edge -> count
    bin_width: float

    def lines(self, label: str, unit: str) -> list[str]:
        out = [f"{label}: n={self.count} mean={self.mean:.3f}{unit} "
               f"median={self.median:.3f}{unit} sigma={self.sigma:.3f}{unit}"]
        for edge in sorted(self.histogram):
            out.append(f"  [{edge:+.1f}, {edge + self.bin_width:+.1f}) "
                       f"{self.histogram[edge]}")
        return out


def summarize(values: Sequence[float], bin_width: float = 5.0) -> ErrorSummary:
    """Mean / median / population sigma / histogram of the finite values.

    Raises ValueError when no finite value remains.
    """
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        raise ValueError("no finite values to summarize")
    histogram: dict[float, int] = {}
    for v in finite:
        edge = math.floor(v / bin_width) * bin_width
        histogram[edge] = histogram.get(edge, 0) + 1
    return ErrorSummary(
        count=len(finite),
        mean=sum(finite) / len(finite),
        median=statistics.median(finite),
        sigma=statistics.pstdev(finite),
        histogram=histogram,
        bin_width=bin_width)


def report_lines(labeled: Sequence[FlowLabeledEvent],
                 gt_records: Sequence[tuple[int, int, float, float]],
                 mag_bin: float = 5.0, angle_bin: float = 5.0) -> list[str]:
    """Human-readable evaluation report used by the eval command.

    Raises ValueError, naming it, for a bin width that is not positive
    and finite, or so small that an error's bin index overflows."""
    for name, width in (("mag_bin", mag_bin), ("angle_bin", angle_bin)):
        if not 0 < width < math.inf:                    # NaN fails too
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {width}")
    errors, coverage = flow_errors(labeled, gt_records)
    lines = [f"events={len(labeled)} labeled_coverage={coverage:.4f}"]
    if not errors:
        lines.append("no labeled events to score")
        return lines
    segments = sorted({err.segment for err in errors})
    lines.append(f"segments={len(segments)} "
                 f"cross_label_fraction={cross_label_fraction(errors):.4f}")
    mags = [err.mag_pct for err in errors]
    angles = [err.angle_deg for err in errors]
    # here, not in `summarize`, whose ValueError reads "none finite"
    for name, width, values in (("mag_bin", mag_bin, mags),
                                ("angle_bin", angle_bin, angles)):
        if any(math.isinf(v / width) for v in values if math.isfinite(v)):
            raise ValueError(f"{name} is too small to bin these errors, "
                             f"got {width}")
    try:
        lines.extend(summarize(mags, mag_bin).lines("magnitude_error", "%"))
    except ValueError:
        lines.append("magnitude_error: none finite")
    try:
        lines.extend(summarize(angles, angle_bin).lines("angle_error", "deg"))
    except ValueError:
        lines.append("angle_error: none finite")
    for segment in segments:
        seg_mags = [e.mag_pct for e in errors if e.segment == segment]
        seg_count = len(seg_mags)
        finite = [m for m in seg_mags if math.isfinite(m)]
        med = statistics.median(finite) if finite else math.nan
        lines.append(f"segment {segment}: n={seg_count} "
                     f"median_mag={med:.3f}%")
    return lines
