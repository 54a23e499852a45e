"""The record rule shared by the frozen dataclasses that hold arrays:
equality by value (NaN equal to NaN), read-only array copies, no hash."""

import dataclasses
import math

import numpy as np
import pytest

from roadlift.camera_geometry import (
    Box3D,
    LabelFrame,
    RigidTransform,
    ground_plane_from_extrinsics,
    rig_from_pose,
    rot_z,
)
from roadlift.evaluation import FrameStats, PRCurve, match, pr_curve_from_stats, stats_from_match
from roadlift.formats import parse_labels
from roadlift.loss_functions import Box3DParams
from roadlift.scene_cue_bank import CueMask, FeatureGrid

LABELS = "car 30 1 0 4 1.8 1.5 0.2 0.9\ntruck 50 -3 0 8 2.5 3 1.0\n"

# name: (build the record, the keyword of one field and a different value for it)
RECORDS = {
    "RigidTransform": (lambda: RigidTransform(rot_z(0.3), [1.0, 2.0, 3.0]),
                       {"translation": [1.0, 2.0, 4.0]}),
    "GroundPlane": (lambda: ground_plane_from_extrinsics(rig_from_pose(10.0, 30.0)),
                    {"d": -11.0}),
    "LabelFrame": (lambda: parse_labels(LABELS), {"categories": ("car", "van")}),
    "FeatureGrid": (lambda: FeatureGrid(np.arange(24.0).reshape(2, 3, 4)),
                    {"values": np.arange(1.0, 25.0).reshape(2, 3, 4)}),
    "CueMask": (lambda: CueMask([[0, 1], [1, 0]], skipped=2), {"skipped": 3}),
    "Box3DParams": (lambda: Box3DParams([1.0, 2.0, 3.0], [4.0, 2.0, 1.5], 0.6, 0.8),
                    {"dims": [4.0, 2.0, 1.6]}),
    "PRCurve": (lambda: PRCurve(np.linspace(1.0, 0.0, 40), 50.0), {"ap": 49.0}),
    "FrameStats": (lambda: FrameStats([0.9, 0.5], [True, False], 3),
                   {"is_tp": [False, False]}),
}


def _array_fields(record):
    return [f.name for f in dataclasses.fields(record)
            if isinstance(getattr(record, f.name), np.ndarray)]


@pytest.mark.parametrize("name", RECORDS)
class TestRecordRule:
    def test_equal_by_value_and_unequal_when_one_field_differs(self, name):
        build, change = RECORDS[name]
        record = build()
        assert type(record).__name__ == name
        assert (record == build()) is True
        assert (record != build()) is False
        assert record != dataclasses.replace(record, **change)
        assert record != object()

    def test_every_array_field_is_a_read_only_copy(self, name):
        record = RECORDS[name][0]()
        names = _array_fields(record)
        assert names
        again = dataclasses.replace(record)
        for field in names:
            arr = getattr(record, field)
            assert not np.shares_memory(arr, getattr(again, field))
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]

    def test_unhashable(self, name):
        with pytest.raises(TypeError, match="unhashable"):
            hash(RECORDS[name][0]())


def test_label_frames_compare_by_value_with_nan_scores():
    frame = parse_labels(LABELS)
    assert np.isnan(frame.scores[1])
    assert parse_labels(LABELS) == frame
    assert LabelFrame.of(list(frame)) == frame


def test_match_results_compare_by_value():
    gts = [Box3D(30, 0, 0, 4, 1.8, 1.5, 0.0), Box3D(60, 5, 0, 4, 1.8, 1.5, 0.5)]
    preds = [Box3D(30.3, 0.1, 0, 4, 1.8, 1.5, 0.05, score=0.8),
             Box3D(90, 0, 0, 4, 1.8, 1.5, 0.0, score=0.4)]
    result = match(gts, preds, 0.5)
    assert result == match(gts, preds, 0.5)
    assert result != match(gts, preds[:1], 0.5)
    assert stats_from_match(result) == stats_from_match(match(gts, preds, 0.5))


def test_curves_and_stats_compare_to_a_bool():
    stats = [FrameStats([0.9, 0.5], [True, False], 3)]
    assert (pr_curve_from_stats(stats) == pr_curve_from_stats(stats)) is True
    assert (stats[0] == FrameStats([0.9, 0.5], [True, True], 3)) is False


def test_array_dtypes():
    stats = FrameStats([1, 0], [1, 0], 2)
    assert stats.scores.dtype == float and stats.is_tp.dtype == bool
    assert PRCurve([0] * 40, 0.0).precisions.dtype == float
    assert CueMask([[1.0, 0.0]]).cells.dtype == np.uint8


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: CueMask(np.array([[0.5, 1.9]])), "mask entries must be 0 or 1"),
        (lambda: CueMask([[256]]), "mask entries must be 0 or 1"),
        (lambda: CueMask(np.array([[256]])), "mask entries must be 0 or 1"),
        (lambda: CueMask([[math.nan]]), "mask entries must be 0 or 1"),
        (lambda: CueMask(np.array([[2]], dtype=np.uint8)), "mask entries must be 0 or 1"),
        (lambda: FrameStats([0.9, 0.8], [0.5, 2], 2), "is_tp entries must be 0 or 1"),
        (lambda: FrameStats([0.9], [math.nan], 1), "is_tp entries must be 0 or 1"),
        (lambda: FrameStats([0.9], [-1], 1), "is_tp entries must be 0 or 1"),
    ],
    ids=["mask-fractions", "mask-256-list", "mask-256-array", "mask-nan", "mask-uint8-two",
         "tp-fraction-and-two", "tp-nan", "tp-minus-one"],
)
def test_flags_are_checked_before_the_cast(build, message):
    # The cast alone would store 0.5 and 256 as 0 and 2 as True.
    with pytest.raises(ValueError, match=message):
        build()
