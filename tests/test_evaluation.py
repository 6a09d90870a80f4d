import math

import pytest

from flowseg.cli import main
from flowseg.engine import FlowLabeledEvent, UNLABELED, write_labeled
from flowseg.evaluation import (ErrorSummary, FlowError, angle_error_deg,
                                cross_label_fraction, flow_errors,
                                magnitude_pct_error, majority_structure_map,
                                report_lines, summarize)
from flowseg.synth import GroundTruth, write_gt


def test_magnitude_error_examples():
    assert magnitude_pct_error(58.0, 0.0, 58.0, 0.0) == 0.0
    assert magnitude_pct_error(37.7, 0.0, 58.0, 0.0) == pytest.approx(-35.0)
    assert magnitude_pct_error(63.8, 0.0, 58.0, 0.0) == pytest.approx(10.0)
    assert math.isnan(magnitude_pct_error(1.0, 1.0, 0.0, 0.0))


def test_magnitude_error_rotation_invariant():
    base = magnitude_pct_error(50.0, 0.0, 40.0, 0.0)
    c, s = math.cos(1.1), math.sin(1.1)
    rotated = magnitude_pct_error(50.0 * c, 50.0 * s, 40.0 * c, 40.0 * s)
    assert rotated == pytest.approx(base, rel=1e-12)


def test_angle_error_examples():
    assert angle_error_deg(1.0, 0.0, 1.0, 0.0) == 0.0
    assert angle_error_deg(1.0, 0.0, 0.0, 1.0) == pytest.approx(90.0)
    assert angle_error_deg(1.0, 1.0, 1.0, 0.0) == pytest.approx(45.0)
    assert angle_error_deg(1.0, 0.0, -1.0, 0.0) == pytest.approx(180.0)
    assert math.isnan(angle_error_deg(0.0, 0.0, 1.0, 0.0))


def test_angle_error_symmetric_and_scale_free():
    a = angle_error_deg(3.0, 1.0, -2.0, 5.0)
    b = angle_error_deg(-2.0, 5.0, 3.0, 1.0)
    assert a == pytest.approx(b, rel=1e-12)
    scaled = angle_error_deg(30.0, 10.0, -2.0, 5.0)
    assert scaled == pytest.approx(a, rel=1e-12)


def test_summarize_stats():
    s = summarize([10.0, 10.0, 10.0])
    assert (s.mean, s.median, s.sigma) == (10.0, 10.0, 0.0)
    s = summarize([-35.0, -35.0, 0.0])
    assert s.mean == pytest.approx(-70.0 / 3.0)
    assert s.median == -35.0
    assert s.histogram == {-35.0: 2, 0.0: 1}
    s = summarize([2.0, math.nan, 4.0])
    assert s.count == 2
    with pytest.raises(ValueError):
        summarize([math.nan])


def test_flow_errors_alignment_and_coverage(tmp_path, capsys):
    labeled = [
        FlowLabeledEvent(1, 1, 100, 1, 0, 58.0, 0.0),       # labeled, truth
        FlowLabeledEvent(2, 1, 200, 1, UNLABELED, math.nan, math.nan),
        FlowLabeledEvent(3, 1, 300, 1, 0, 29.0, 0.0),       # labeled, -50%
        FlowLabeledEvent(4, 1, 400, 1, 5, 58.0, 0.0),       # noise event
    ]
    gt = [
        (100, 0, 58.0, 0.0),
        (200, 0, 58.0, 0.0),
        (300, 0, 58.0, 0.0),
        (400, -1, 0.0, 0.0),
    ]
    errors, coverage = flow_errors(labeled, gt)
    assert len(errors) == 2
    assert coverage == pytest.approx(2.0 / 3.0)
    assert errors[0].mag_pct == 0.0
    assert errors[1].mag_pct == pytest.approx(-50.0)
    with pytest.raises(ValueError):
        flow_errors(labeled[:2], gt)
    # equal lengths, shifted times: the files are not index-aligned
    shifted = [(t + 400 * (i > 0), *rest) for i, (t, *rest) in enumerate(gt)]
    with pytest.raises(ValueError, match="index 1: labeled event at t=200 "
                                         "vs truth row at t_us=600"):
        flow_errors(labeled, shifted)
    labeled_path, gt_path = tmp_path / "labeled.txt", tmp_path / "gt.txt"
    write_labeled(labeled, str(labeled_path))
    write_gt(GroundTruth(shifted), str(gt_path))
    assert main(["eval", "--labeled", str(labeled_path),
                 "--gt", str(gt_path)]) == 2
    assert capsys.readouterr().err == (
        "error: index 1: labeled event at t=200 vs truth row at t_us=600\n")


def test_majority_map_and_cross_fraction():
    def err(segment, structure):
        return FlowError(0, segment, structure, 0.0, 0.0)

    errors = [err(0, 0), err(0, 0), err(0, 1),
              err(1, 1), err(1, 1), err(1, 1), err(1, 0)]
    assert majority_structure_map(errors) == {0: 0, 1: 1}
    assert cross_label_fraction(errors) == pytest.approx(2.0 / 7.0)
    assert cross_label_fraction([]) == 0.0


@pytest.mark.parametrize("option, width", [
    ("mag_bin", 0.0), ("mag_bin", math.nan), ("mag_bin", -5.0),
    ("angle_bin", math.inf)])
def test_report_refuses_unusable_bin_widths(option, width):
    # 0 ended in a ZeroDivisionError; NaN printed "none finite" over
    # finite errors, inf one [+nan, +nan) bin and -5 inverted bins
    labeled = [FlowLabeledEvent(1, 1, 100, 1, 0, 58.0, 0.0)]
    gt = [(100, 0, 50.0, 0.0)]
    assert len(report_lines(labeled, gt)) > 2
    with pytest.raises(ValueError, match=rf"^{option} must be positive and "
                                         rf"finite, got {width}$"):
        report_lines(labeled, gt, **{option: width})
