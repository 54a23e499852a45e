import concurrent.futures
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from roadlift import cli
from roadlift.camera_geometry import (
    Box3D,
    CameraRig,
    GeometryError,
    RigidTransform,
    rig_from_pose,
)
from roadlift.cli import _observe, run_command
from roadlift.formats import (
    FormatError,
    check_json,
    parse_calibration_doc,
    parse_labels,
    serialize_calibration,
    serialize_labels,
)
from roadlift.position_embedding import embed_depth_map
from roadlift.scene_cue_bank import CueMask, FeatureGrid, _scattered_grid, make_mask
from roadlift.scene_cue_bank import CELL_BLOCK as _NOISE_CHUNK
from roadlift.scene_scheduler import SceneScheduler, SchedulerConfig, apply_augmentation
from roadlift.synthetic_world import SceneConfig, generate_scene


def nadir_calibration_text():
    ext = RigidTransform(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, 10.0]))
    rig = CameraRig(1000.0, 1000.0, 768.0, 512.0, ext, 1536, 1024)
    return serialize_calibration(rig, scene_id="nadir")


class TestCalibrationFormat:
    def test_minimal_nadir_round_trip(self):
        doc = parse_calibration_doc(nadir_calibration_text())
        assert doc.scene_id == "nadir"
        rig = doc.rig
        assert (rig.f_x, rig.f_y, rig.a_x, rig.a_y) == (1000.0, 1000.0, 768.0, 512.0)
        np.testing.assert_array_equal(rig.extrinsic.rotation, np.diag([1.0, -1.0, -1.0]))

    def test_missing_fy_names_field(self):
        data = json.loads(nadir_calibration_text())
        del data["intrinsics"]["fy"]
        with pytest.raises(FormatError, match="intrinsics.fy"):
            parse_calibration_doc(json.dumps(data)).rig

    def test_bad_bottom_row(self):
        data = json.loads(nadir_calibration_text())
        data["extrinsic"][3] = [0, 0, 0.1, 1]
        with pytest.raises(FormatError, match="bottom row"):
            parse_calibration_doc(json.dumps(data)).rig

    def test_non_orthonormal_rotation_rejected(self):
        data = json.loads(nadir_calibration_text())
        data["extrinsic"][0][0] = 1.3
        with pytest.raises(FormatError, match="orthonormal"):
            parse_calibration_doc(json.dumps(data)).rig

    def test_slightly_rounded_rotation_snapped(self):
        # Entries rounded to 7 decimals are beyond 1e-9 orthonormality but
        # within the parser's 1e-6 gate; parsing must still yield a valid rig.
        rig = rig_from_pose(7.0, 23.0, yaw_deg=31.0, roll_deg=1.7)
        data = json.loads(serialize_calibration(rig))
        data["extrinsic"] = [[round(v, 7) for v in row] for row in data["extrinsic"]]
        parsed = parse_calibration_doc(json.dumps(data)).rig
        assert np.max(np.abs(parsed.extrinsic.rotation - rig.extrinsic.rotation)) < 1e-6

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(pose=st.tuples(st.floats(1, 20), st.floats(5, 85), st.floats(-180, 180),
                          st.floats(-10, 10)),
           offsets=st.lists(st.floats(-1.5e-7, 1.5e-7), min_size=9, max_size=9))
    def test_snapped_near_rotation_has_determinant_one(self, pose, offsets):
        # Entries moved by at most 1.5e-7 keep R^T R within the parser's
        # 1e-6 of the identity, so the rotation is read and snapped.
        data = json.loads(serialize_calibration(rig_from_pose(*pose)))
        for k, offset in enumerate(offsets):
            data["extrinsic"][k // 3][k % 3] += offset
        rot = parse_calibration_doc(json.dumps(data)).rig.extrinsic.rotation
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rot.T @ rot, np.eye(3), rtol=0, atol=1e-12)

    def test_random_round_trips(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            rig = rig_from_pose(
                camera_height=rng.uniform(4, 12),
                pitch_deg=rng.uniform(5, 60),
                yaw_deg=rng.uniform(-180, 180),
                roll_deg=rng.uniform(-3, 3),
                f_x=rng.uniform(800, 2400),
                f_y=rng.uniform(800, 2400),
            )
            again = parse_calibration_doc(serialize_calibration(rig)).rig
            assert again == rig

    def test_not_json(self):
        with pytest.raises(FormatError, match="JSON"):
            parse_calibration_doc("fx: 1000").rig

    @pytest.mark.parametrize(
        "section,key,value,field",
        [
            ("intrinsics", "fx", -1000.0, "f_x must be finite and at least 1 px, got -1000.0"),
            ("intrinsics", "fy", 0, "f_y must be finite and at least 1 px, got 0.0"),
            ("intrinsics", "fx", 10**400, "intrinsics.fx"),
            ("intrinsics", "fy", 5e-324, "f_y must be finite and at least 1 px, got 5e-324"),
            ("image", "width", 0, "image_width must be an integer from 1 to 16384 px, got 0"),
            ("image", "height", -8, "image_height must be an integer from 1 to 16384 px, got -8"),
            ("extrinsic", 1, [0, -1, 0], r"extrinsic\[1\]"),
            ("extrinsic", 2, [0, 0, "-1", 10], r"extrinsic\[2\]\[2\]"),
            ("extrinsic", 2, [0, 0, {}, 10], r"extrinsic\[2\]\[2\]"),
            ("extrinsic", 3, [0, 0, 0, True], r"extrinsic\[3\]\[3\]"),
            ("intrinsics", "cx", 1e300,
             r"intrinsics\.cx must be a finite number within \+-1e\+12, got 1e\+300"),
            ("intrinsics", "cy", -1e300, r"intrinsics\.cy must be a finite number within"),
            ("intrinsics", "fx", 1e308, r"intrinsics\.fx must be a finite number within"),
        ],
        ids=["negative-fx", "zero-fy", "huge-fx", "subnormal-fy", "zero-width",
             "negative-height", "ragged-extrinsic", "string-entry", "object-entry", "bool-entry",
             "far-cx", "far-cy", "finite-huge-fx"],
    )
    def test_bad_value_raises_format_error_naming_field(self, section, key, value, field):
        data = json.loads(nadir_calibration_text())
        data[section][key] = value
        with pytest.raises(FormatError, match=field):
            parse_calibration_doc(json.dumps(data))

    @pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5000], ids=["deep", "long-integer"])
    def test_unreadable_json_raises_format_error(self, text):
        with pytest.raises(FormatError, match="JSON"):
            parse_calibration_doc(text)


class TestLabelFormat:
    def test_empty_file(self):
        assert list(parse_labels("")) == []
        assert list(parse_labels("# only a comment\n")) == []

    def test_single_line(self):
        boxes = list(parse_labels("car 1.0 2.0 0.3 4.0 2.0 1.5 0.4\n"))
        assert boxes == [Box3D(1.0, 2.0, 0.3, 4.0, 2.0, 1.5, 0.4, category="car")]

    def test_score_column(self):
        boxes = parse_labels("car 1 2 0.3 4 2 1.5 0.4 0.87\n")
        assert boxes[0].score == 0.87

    def test_field_count_error_carries_line_number(self):
        text = "car 1 2 0.3 4 2 1.5 0.4\ncar 1 2\n"
        with pytest.raises(FormatError, match="line 2"):
            parse_labels(text)

    def test_non_numeric_error(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_labels("car one 2 0.3 4 2 1.5 0.4\n")

    @pytest.mark.parametrize("number", ["1_0", "٣", "１", "1e1_0"],
                             ids=["underscore", "arabic-indic", "fullwidth", "exponent"])
    def test_numbers_must_be_ascii_without_underscore(self, number):
        text = f"traffic_cone 1 2 0.3 4 2 1.5 0.4\ncar {number} 2 0.3 4 2 1.5 0.4\n"
        with pytest.raises(FormatError, match=r"^line 2: numbers must be ASCII without '_'$"):
            parse_labels(text)

    def test_underscore_and_non_ascii_categories_read(self):
        frame = parse_labels("traffic_cone 1 2 0.3 4 2 1.5 0.4\nüber 1 2 0.3 4 2 1.5 0.4 0.5\n")
        assert frame.categories == ("traffic_cone", "über")

    def test_invalid_box_error(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_labels("car 1 2 0.3 -4 2 1.5 0.4\n")

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        boxes = [
            Box3D(
                x=rng.uniform(-100, 100),
                y=rng.uniform(-100, 100),
                z=rng.uniform(-2, 2),
                l=rng.uniform(0.5, 8),
                w=rng.uniform(0.5, 3),
                h=rng.uniform(0.5, 4),
                theta=rng.uniform(-math.pi, math.pi),
                category=rng.choice(["car", "big_vehicle", "cyclist"]),
                score=float(rng.uniform(0, 1)) if rng.random() < 0.5 else None,
            )
            for _ in range(1000)
        ]
        assert list(parse_labels(serialize_labels(boxes))) == boxes

    @settings(max_examples=300, deadline=None)
    @given(
        numbers=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=7,
                         max_size=7),
        category=st.sampled_from(["", "#x", "a b", "\x85", "x\u2028y", "über", "车", "٣", "a#"])
        | st.text(max_size=6),
        score=st.none() | st.floats(0.0, 1.0),
    )
    def test_every_accepted_box_round_trips(self, numbers, category, score):
        # Dimensions take |value|, so only a zero one is refused.
        x, y, z, l, w, h, theta = numbers
        try:
            box = Box3D(x, y, z, abs(l), abs(w), abs(h), theta, category=category, score=score)
        except ValueError:
            return
        assert list(parse_labels(serialize_labels([box]))) == [box]

    def test_whitespace_category_rejected(self):
        # Box3D itself refuses a category the reader could not read back.
        with pytest.raises(ValueError, match="whitespace"):
            serialize_labels([Box3D(0, 0, 0, 1, 1, 1, 0, category="big vehicle")])


# Any JSON value, for replacing one field of a valid document.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=8,
)
_CALIBRATION_PATHS = [
    ("intrinsics",), ("intrinsics", "fx"), ("intrinsics", "fy"), ("intrinsics", "cx"),
    ("intrinsics", "cy"), ("image",), ("image", "width"), ("image", "height"), ("scene_id",),
    ("extrinsic",), ("extrinsic", 0), ("extrinsic", 3), ("extrinsic", 0, 1), ("extrinsic", 1, 1),
    ("extrinsic", 2, 3), ("extrinsic", 3, 3),
]


@st.composite
def calibration_texts(draw):
    """A valid calibration document with up to three fields replaced,
    nudged or deleted, or arbitrary text."""
    rig = rig_from_pose(draw(st.floats(4.0, 12.0)), draw(st.floats(5.0, 60.0)),
                        yaw_deg=draw(st.floats(-180.0, 180.0)))
    doc = json.loads(serialize_calibration(rig, scene_id="fuzz"))
    for _ in range(draw(st.integers(0, 3))):
        *parents, key = draw(st.sampled_from(_CALIBRATION_PATHS))
        holder = doc
        try:
            for step in parents:
                holder = holder[step]
            old = holder[key]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier change removed this field
        if not isinstance(holder, (dict, list)):
            continue
        action = draw(st.sampled_from(["replace", "nudge", "delete"]))
        if action == "nudge" and isinstance(old, (int, float)) and not isinstance(old, bool):
            holder[key] = old + draw(st.sampled_from([1e-7, -1e-3, 0.5, -1.0, 1e6]))
        elif action == "delete" and isinstance(holder, dict):
            del holder[key]
        else:
            holder[key] = draw(json_values)
    return draw(st.sampled_from([json.dumps(doc), draw(st.text(max_size=40))]))


_LABEL_TOKENS = st.one_of(
    st.sampled_from(["car", "#", "nan", "-inf", "1e999", "1_0", "0", "-0.0", "0.5", "2", "٣"]),
    st.floats().map(repr),
    st.text(max_size=4),
)
_VALID_LABEL_LINE = st.builds(
    lambda cat, xyz, lwh, yaw, score: " ".join(
        [cat, *map(repr, xyz + lwh + [yaw])] + ([] if score is None else [repr(score)])
    ),
    st.sampled_from(["car", "truck", "ped"]),
    st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
    st.lists(st.floats(0.01, 20.0), min_size=3, max_size=3),
    st.floats(-10.0, 10.0),
    st.none() | st.floats(0.0, 1.0),
)
label_texts = st.lists(
    _VALID_LABEL_LINE | st.lists(_LABEL_TOKENS, max_size=10).map(" ".join), max_size=5
).map("\n".join)


def assert_success_or_one_error_line(argv, capsys):
    """Exit 0, or exit 1 with one ``error:`` line on stderr and no
    warning (a run outside pytest would print it there too)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command(argv)
    err = capsys.readouterr().err
    assert code == 0 or (
        code == 1 and err.startswith("error: ") and err.count("\n") == 1 and not caught
    ), (code, err, [str(w.message) for w in caught])


class TestReaderFuzz:
    """Every reader returns a value its serialiser round-trips, or
    raises FormatError; the CLI turns any input file into exit 0 or one
    error line and exit 1."""

    @settings(max_examples=60, deadline=None)
    @given(text=label_texts)
    def test_labels_round_trip_or_format_error(self, text):
        try:
            boxes = parse_labels(text)
        except FormatError:
            return
        assert list(parse_labels(serialize_labels(boxes))) == list(boxes)

    @settings(max_examples=60, deadline=None)
    @given(text=calibration_texts())
    def test_calibration_round_trips_or_format_error(self, text):
        try:
            doc = parse_calibration_doc(text)
        except FormatError:
            return
        assert parse_calibration_doc(serialize_calibration(doc.rig, doc.scene_id)) == doc

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.binary(max_size=120) | calibration_texts().map(str.encode))
    @example(data=nadir_calibration_text().replace("-1.0", "-1e200", 1).encode())
    def test_cli_on_any_calibration_bytes(self, tmp_path, capsys, data):
        calib = tmp_path / "calib.json"
        calib.write_bytes(data)
        assert_success_or_one_error_line(["plane", "--calib", str(calib)], capsys)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.binary(max_size=120) | label_texts.map(str.encode))
    def test_cli_on_any_label_bytes(self, tmp_path, capsys, data):
        fuzzed, good = tmp_path / "fuzzed.txt", tmp_path / "good.txt"
        fuzzed.write_bytes(data)
        good.write_text(serialize_labels([Box3D(30, 0, 0, 4, 1.8, 1.5, 0, score=0.9)]))
        for gt, pred in ((fuzzed, good), (good, fuzzed)):
            argv = ["evaluate", "--gt", str(gt), "--pred", str(pred), "--kind", "3d"]
            assert_success_or_one_error_line(argv, capsys)


# Number texts: negative exponents, subnormals, the ends of the float
# range, NaN and infinities, integers (--de takes only these) and text no
# number type reads.
_NUMBER_TEXTS = st.one_of(
    st.sampled_from([
        "0", "-0.0", "0.5", "1", "-1e-1", "1e-300", "5e-324", "-5e-324", "2.2250738585072014e-308",
        "1e308", "-1e308", "1.7976931348623157e308", "1e309", "nan", "-nan", "inf", "-inf",
        "2", "-2", "7", "64", str(2**24), "1" + "0" * 30, "", "1,2", "-1,2", "abc", "0x10",
    ]),
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:e}".format),
)
# Each command's numeric flags, their argparse types and a value that
# runs; ``--ratio-thresholds`` is a string of comma-separated numbers.
_NUMERIC_FLAGS = {
    "lift": {"--u": (float, "32"), "--v": (float, "30"), "--hr": (float, "0")},
    "sensitivity": {"--height": (float, "7"), "--range": (float, "200"),
                    "--dh": (float, "0.5"), "--hr": (float, "0")},
    "evaluate": {"--iou": (float, "0.5"), "--ratio-thresholds": (str, "1,5")},
    "embed": {"--de": (int, "8")},
}


@st.composite
def numeric_flag_runs(draw):
    """A command, and each of its numeric flags with a number text in
    the ``--flag text`` or the ``--flag=text`` form."""
    command = draw(st.sampled_from(sorted(_NUMERIC_FLAGS)))
    flags = []
    for flag, (kind, good) in _NUMERIC_FLAGS[command].items():
        numbers = _NUMBER_TEXTS
        if kind is int:
            numbers |= st.integers(-2, 130).map(str)
        elif kind is str:
            numbers = st.lists(_NUMBER_TEXTS, min_size=1, max_size=3).map(",".join)
        text = draw(st.just(good) | numbers)
        flags.append((flag, kind, text, draw(st.booleans())))
    sweep = command == "sensitivity" and draw(st.booleans())
    return command, flags, sweep


def _reads(kind, text: str) -> bool:
    try:
        kind(text)
    except ValueError:
        return False
    return True


@pytest.fixture(scope="module")
def numeric_flag_inputs(tmp_path_factory):
    """A small camera (a 64 x 32 image: 8 x 4 embedding cells) and a
    label file with one scored box."""
    root = tmp_path_factory.mktemp("numeric-flags")
    calib = root / "calib.json"
    calib.write_text(serialize_calibration(
        rig_from_pose(6.0, 30.0, image_width=64, image_height=32), "small"))
    labels = root / "labels.txt"
    labels.write_text(serialize_labels([Box3D(30, 0, 0, 4, 1.8, 1.5, 0, score=0.9)]))
    return {"lift": ["--calib", str(calib)], "embed": ["--calib", str(calib)],
            "evaluate": ["--gt", str(labels), "--pred", str(labels)], "sensitivity": []}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(run=numeric_flag_runs())
@example(run=("lift", [("--u", float, "32", True), ("--v", float, "30", True),
                       ("--hr", float, "-1e-1", True)], False))
@example(run=("lift", [("--u", float, "32", True), ("--v", float, "30", True),
                       ("--hr", float, "-1e308", False)], False))
@example(run=("sensitivity", [("--height", float, "1e308", True), ("--range", float, "1e308", True),
                              ("--dh", float, "1e308", True), ("--hr", float, "-1e308", True)],
              True))
@example(run=("evaluate", [("--iou", float, "0.5", True),
                           ("--ratio-thresholds", str, "", True)], False))
@example(run=("evaluate", [("--iou", float, "0.5", True),
                           ("--ratio-thresholds", str, "1.7976931348623157e308", True)], False))
def test_numeric_flags_end_in_a_result_or_one_error(numeric_flag_inputs, run):
    """Exit 0 with finite numbers in the output, exit 1 with one
    ``error:`` line and no output file, or exit 2 only for a text the
    flag's type cannot read."""
    command, flags, sweep = run
    argv = [command, *numeric_flag_inputs[command]]
    for flag, _, text, spaced in flags:
        argv += [flag, text] if spaced else [f"{flag}={text}"]
    argv += ["--sweep"] * sweep
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.txt"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_command([*argv, "--out", str(out)])
        written = out.read_text() if out.exists() else None
    unreadable = [text for _, kind, text, _ in flags if not _reads(kind, text)]
    assert (code == 2) == bool(unreadable), (code, err.getvalue())
    if code == 0:
        # Each number must read back finite as a float, too: 10 significant
        # digits of a value near the float range's end would read as inf.
        numbers = [float(t) for t in written.replace(",", " ").split() if _reads(float, t)]
        assert all(map(math.isfinite, numbers)), written
    else:
        assert written is None
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (
            err.getvalue())


# Each command's path flags, with the file a run reads (None for an
# output), and the flags it needs besides them.
_PATH_FLAGS = {
    "plane": {"--calib": "calib.json", "--out": None},
    "lift": {"--calib": "calib.json", "--out": None},
    "sensitivity": {"--out": None},
    "simulate": {"--config": "sim.json", "--out": None},
    "evaluate": {"--gt": "labels.txt", "--pred": "labels.txt", "--calib": "calib.json",
                 "--out": None, "--distance-csv": None},
    "bank-sim": {"--config": "bank.json", "--out": None, "--bank-out": None},
    "gradcheck": {"--out": None},
    "embed": {"--calib": "calib.json", "--out": None},
}
_OTHER_FLAGS = {"lift": ["--u", "32", "--v", "30", "--hr", "0"],
                "sensitivity": ["--height", "7", "--range", "200", "--dh", "0.5"],
                "embed": ["--de", "8"]}
# A file of the wrong kind for each input, and an existing file for an output.
_WRONG_KIND = {"calib.json": "labels.txt", "sim.json": "binary.bin", "bank.json": "binary.bin",
               "labels.txt": "calib.json", None: "binary.bin"}
_SMALL_SCENE = {"image_width": 128, "image_height": 64, "n_objects": 2, "focal_band": [100, 150],
                "range_band": [10, 60], "pitch_band_deg": [8, 25], "height_band": [5, 10]}


@st.composite
def path_flag_runs(draw):
    """A command and, for each of its path flags, the text written for
    the flag (in full, or cut short), a path and the ``--flag path`` or
    ``--flag=path`` form.  A path is the flag's own file (a new one for
    an output), a missing file, a directory, a new name ending in '/', a
    file of the wrong kind, a file in a missing directory, or another
    flag's path."""
    command = draw(st.sampled_from(sorted(_PATH_FLAGS)))
    paths = {}
    for flag, own in _PATH_FLAGS[command].items():
        kind = draw(st.sampled_from(
            ["own"] * 3 + ["missing", "directory", "new-directory", "wrong", "no-parent"]))
        paths[flag] = {"own": own or flag[2:] + ".new", "missing": "missing.txt",
                       "directory": "frames", "new-directory": "new/",
                       "wrong": _WRONG_KIND[own], "no-parent": "missing/new.txt"}[kind]
    for flag in paths:
        others = sorted(set(paths.values()) - {paths[flag]})
        if others and draw(st.integers(0, 5)) == 0:
            paths[flag] = draw(st.sampled_from(others))
    flags = []
    for flag, path in paths.items():
        cut = draw(st.integers(3, len(flag) - 1)) if draw(st.integers(0, 19)) == 0 else len(flag)
        flags.append((flag[:cut], path, draw(st.booleans())))
    return command, flags


def _tree(root: Path) -> dict[str, bytes | None]:
    """Every file's bytes and every directory (None) under ``root``."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(run=path_flag_runs())
@example(run=("evaluate", [("--gt", "labels.txt", True), ("--pred", "labels.txt", True),
                           ("--out", "out.new", True), ("--distance-csv", "frames", True)]))
@example(run=("bank-sim", [("--config", "bank.json", True), ("--out", "out.new", True),
                           ("--bank-out", "missing/new.txt", True)]))
@example(run=("plane", [("--calib", "calib.json", True), ("--ou", "out.new", True)]))
def test_path_flags_end_in_a_result_or_one_error(run):
    """Exit 0, exit 1 with one ``error:`` line, no warning and no file
    or directory written, or exit 2 (nothing written) exactly when a
    flag is not written in full."""
    command, flags = run
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = [command, *_OTHER_FLAGS.get(command, [])]
        for flag, path, spaced in flags:
            path = os.path.join(tmp, path)  # keeps a trailing '/'
            argv += [flag, path] if spaced else [f"{flag}={path}"]
        (root / "calib.json").write_text(serialize_calibration(
            rig_from_pose(6.0, 30.0, image_width=64, image_height=32), "small"))
        (root / "labels.txt").write_text(
            serialize_labels([Box3D(30, 0, 0, 4, 1.8, 1.5, 0, score=0.9)]))
        (root / "sim.json").write_text(json.dumps({"scene": _SMALL_SCENE, "frames": 2}))
        (root / "bank.json").write_text(
            json.dumps({"scene": _SMALL_SCENE, "frames": 2, "channels": 2}))
        (root / "binary.bin").write_bytes(bytes(range(256)))
        (root / "frames").mkdir()
        (root / "frames" / "a.txt").write_text((root / "labels.txt").read_text())
        before = _tree(root)
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = run_command(argv)
        after = _tree(root)
    assert not caught, [str(w.message) for w in caught]
    cut = [flag for flag, _, _ in flags if flag not in _PATH_FLAGS[command]]
    assert (code == 2) == bool(cut), (code, err.getvalue())
    assert code in (0, 1, 2)
    if code != 0:
        assert after == before, err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (
            err.getvalue())


def _reference_parse_labels(text: str) -> list[Box3D]:
    """The line-by-line reader ``parse_labels`` was before it read files
    into one array frame, kept verbatim as the behaviour to preserve,
    except for one added rule: numbers are ASCII without '_'."""
    boxes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (8, 9):
            raise FormatError(
                f"line {lineno}: expected 8 or 9 fields, got {len(fields)}"
            )
        if not all(f.isascii() and "_" not in f for f in fields[1:]):
            raise FormatError(f"line {lineno}: numbers must be ASCII without '_'")
        try:
            numbers = [float(f) for f in fields[1:]]
        except ValueError as exc:
            raise FormatError(f"line {lineno}: non-numeric field ({exc})") from exc
        if not all(math.isfinite(n) for n in numbers):
            raise FormatError(f"line {lineno}: non-finite value")
        try:
            boxes.append(
                Box3D(
                    x=numbers[0],
                    y=numbers[1],
                    z=numbers[2],
                    l=numbers[3],
                    w=numbers[4],
                    h=numbers[5],
                    theta=numbers[6],
                    category=fields[0],
                    score=numbers[7] if len(numbers) == 8 else None,
                )
            )
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return boxes


_WIDE_THETAS = [math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 1e300, -1e300]
_NEAR_PI = [math.nextafter(math.pi, 0.0), -math.nextafter(math.pi, 0.0),
            math.nextafter(math.pi, 4.0), math.tau, -0.0]
_THETA_LABEL_LINE = st.builds(
    lambda yaw, score: " ".join(
        "car 1 2 0.3 4 2 1.5".split() + [repr(yaw)] + ([] if score is None else [repr(score)])
    ),
    st.sampled_from(_WIDE_THETAS),
    st.none() | st.floats(0.0, 1.0),
)
_ODD_LABEL_LINES = st.sampled_from([
    "", "# comment", "  # indented comment", "\t# tab comment", "#",
    "car 1_0 2 0.3 4 2 1.5 0.4", "car ٣ 2 0.3 4 2 1.5 0.4 0.5", "car 1 2 0.3 4 2 1.5 0.4 1_0",
    "car 1 2 0.3 4 2 1.5 0.4 1.5", "car 1 2 0.3 4 0 1.5 0.4", "car 1 2 0.3 4 2 1.5 nan",
    "car 1 2 0.3 4 2 1.5 0.4 -0.0", "car 1 2 0.3 4 2 1.5 0.4 1.0000000000000002",
    "car 1 2 0.3 4 2 1.5 0.4 -5e-324", "car 1 2 0.3 5e-324 2 1.5 0.4 1",
    "car 1 2 0.3 4 -0.0 1.5 0.4", "car 1 2 0.3 4 2 inf 0.4", "car 1 2 0.3 4 2 1.5 0.4 nan",
])


@st.composite
def pinned_label_texts(draw):
    """``label_texts``, or lines that mix 8 and 9 fields, wide thetas,
    comments and odd numbers, with tabs, doubled spaces, leading
    whitespace and LF or CRLF line ends."""
    if draw(st.booleans()):
        return draw(label_texts)
    lines = draw(st.lists(
        _VALID_LABEL_LINE | _THETA_LABEL_LINE | _ODD_LABEL_LINES
        | st.lists(_LABEL_TOKENS, max_size=10).map(" ".join),
        max_size=6,
    ))
    out = []
    for line in lines:
        gap = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        out.append(lead + line.replace(" ", gap) + draw(st.sampled_from(["\n", "\r\n"])))
    return "".join(out)


# One line of each kind the reader refuses, by the check that refuses it.
_BAD_LABEL_LINES = {
    "car 1 2": "field-count",
    "car 1_0 2 0.3 4 2 1.5 0.4": "underscore",
    "car one 2 0.3 4 2 1.5 0.4": "non-numeric",
    "car 1 2 0.3 4 2 1.5 nan": "nan",
    "car 1 2 0.3 -4 2 1.5 0.4": "non-positive-size",
    "car 1 2 0.3 4 2 1.5 0.4 1.5": "score-above-one",
}


class TestLabelReaderPinned:
    """``parse_labels``, which reads each line into one frame's arrays,
    against the reference reader, which builds a ``Box3D`` per line."""

    @settings(max_examples=300, deadline=None)
    @given(text=pinned_label_texts())
    @example(text="car 1 2 0.3 4 2 1.5 0.4\ntruck 1 2 0.3 8 2 3 -3.14 0.5\r\n")
    @example(text="car 1 2 0.3 4 2 1.5 0.4 0.5\ncar 1 2\ncar 1 2 0.3 -4 2 1.5 0.4\n")
    @example(text="car 1 2 0.3 4 2 1.5 0.4\ncar 1 2 0.3 -4 2 1.5 0.4\ncar 1 2\n")
    def test_same_boxes_or_same_error(self, text):
        try:
            want = _reference_parse_labels(text)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                parse_labels(text)
            assert str(got.value) == str(exc)
            return
        assert list(parse_labels(text)) == want

    @pytest.mark.parametrize("first,second", itertools.permutations(_BAD_LABEL_LINES, 2),
                             ids=lambda line: _BAD_LABEL_LINES[line])
    def test_first_bad_line_raises(self, first, second):
        text = f"car 1 2 0.3 4 2 1.5 0.4\n{first}\n{second}\n"
        with pytest.raises(FormatError) as want:
            _reference_parse_labels(text)
        assert str(want.value).startswith("line 2: ")
        with pytest.raises(FormatError) as got:
            parse_labels(text)
        assert str(got.value) == str(want.value)

    @settings(max_examples=200, deadline=None)
    @given(thetas=st.lists(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from(_WIDE_THETAS + _NEAR_PI),
        min_size=1, max_size=20,
    ))
    def test_theta_wrap_equals_math_remainder(self, thetas):
        text = "".join(f"car 0 0 0 1 1 1 {t!r}\n" for t in thetas)
        got = parse_labels(text).params[:, 6].tolist()
        for theta, value in zip(thetas, got):
            want = math.remainder(theta, math.tau)
            if want <= -math.pi:
                want += math.tau
            assert value == want, theta


@pytest.fixture()
def nadir_calib_file(tmp_path):
    path = tmp_path / "nadir.json"
    path.write_text(nadir_calibration_text())
    return path


@pytest.fixture()
def sim_config_file(tmp_path):
    path = tmp_path / "sim.json"
    path.write_text(
        json.dumps(
            {
                "scene": {
                    "n_objects": 4,
                    "range_band": [10, 150],
                    "pitch_band_deg": [8, 25],
                    "height_band": [5, 10],
                },
                "noise": {"sigma_hr": 0.0},
                "frames": 2,
            }
        )
    )
    return path


class TestCli:
    def test_plane_output(self, nadir_calib_file, capsys):
        assert run_command(["plane", "--calib", str(nadir_calib_file)]) == 0
        out = capsys.readouterr().out
        assert out == "0 0 1 -10\nheight 10\n"

    def test_lift_output(self, nadir_calib_file, capsys):
        code = run_command(
            ["lift", "--calib", str(nadir_calib_file), "--u", "768", "--v", "512", "--hr", "0"]
        )
        assert code == 0
        assert capsys.readouterr().out.split() == ["0", "0", "0"]

    def test_sensitivity_scalar(self, capsys):
        code = run_command(["sensitivity", "--height", "7", "--range", "200", "--dh", "0.5"])
        assert code == 0
        value = float(capsys.readouterr().out)
        assert value == pytest.approx(200 * 0.5 / 7, abs=1e-6)

    def test_sensitivity_sweep_csv(self, capsys):
        code = run_command(
            ["sensitivity", "--height", "7", "--range", "50", "--dh", "0.5", "--sweep"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "range_m,error_m"
        assert len(lines) == 6  # 10..50 m in 10 m steps
        last = lines[-1].split(",")
        assert float(last[0]) == 50.0

    def test_sweep_over_the_row_cap_fails_before_any_row(self, capsys):
        argv = ["sensitivity", "--height", "7", "--range", "1e12", "--dh", "0.5", "--sweep"]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --sweep writes one row per 10 m and at most 100000 rows, "
            "got --range 1000000000000.0\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("range_m,code", [(50, 0), (59.9, 0), (60, 1)])
    def test_sweep_cap_counts_rows(self, monkeypatch, capsys, range_m, code):
        monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 5)
        argv = ["sensitivity", "--height", "7", "--range", str(range_m), "--dh", "0.5", "--sweep"]
        assert run_command(argv) == code
        out = capsys.readouterr().out
        assert len(out.splitlines()) == (6 if code == 0 else 0)

    def test_simulate_writes_parseable_files(self, sim_config_file, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run_command(
            ["simulate", "--config", str(sim_config_file), "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        assert (out / "calib.json").exists()
        gt_files = sorted((out / "gt").glob("*.txt"))
        pred_files = sorted((out / "pred").glob("*.txt"))
        assert len(gt_files) == 2 and len(pred_files) == 2
        parse_calibration_doc((out / "calib.json").read_text()).rig
        for f in gt_files + pred_files:
            parse_labels(f.read_text())

    def test_simulate_deterministic_bytes(self, sim_config_file, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert (
                run_command(
                    ["simulate", "--config", str(sim_config_file), "--seed", "9", "--out", str(out)]
                )
                == 0
            )
        for rel in ["calib.json", "gt/frame_0000.txt", "pred/frame_0001.txt"]:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

    def test_evaluate_perfect_predictions(self, sim_config_file, tmp_path, capsys):
        out = tmp_path / "sim"
        run_command(["simulate", "--config", str(sim_config_file), "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        code = run_command(
            ["evaluate", "--gt", str(out / "gt"), "--pred", str(out / "pred"),
             "--iou", "0.5", "--kind", "3d"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "metric,class,threshold,value"
        values = {tuple(line.split(",")[:2]): float(line.split(",")[3]) for line in lines[1:]}
        assert values[("ap_3d", "all")] == 100.0

    def test_evaluate_distance_and_ratio_outputs(self, sim_config_file, tmp_path, capsys):
        out = tmp_path / "sim"
        run_command(["simulate", "--config", str(sim_config_file), "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        dist_csv = tmp_path / "dist.csv"
        code = run_command(
            ["evaluate", "--gt", str(out / "gt"), "--pred", str(out / "pred"),
             "--iou", "0.5", "--kind", "bev",
             "--ratio-thresholds", "0.5,1,2", "--distance-csv", str(dist_csv)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "detection_ratio,all,0.5,1" in stdout
        lines = dist_csv.read_text().strip().splitlines()
        assert lines[0] == "bin_lo_m,bin_hi_m,mean_error_pct,matched"
        assert len(lines) == 5

    def test_evaluate_accepts_single_files(self, sim_config_file, tmp_path, capsys):
        out = tmp_path / "sim"
        run_command(["simulate", "--config", str(sim_config_file), "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        code = run_command(
            ["evaluate", "--gt", str(out / "gt" / "frame_0000.txt"),
             "--pred", str(out / "pred" / "frame_0000.txt"), "--iou", "0.5", "--kind", "bev"]
        )
        assert code == 0
        assert "ap_bev,all,0.5,100" in capsys.readouterr().out

    def test_evaluate_is_deterministic(self, sim_config_file, tmp_path, capsys):
        out = tmp_path / "sim"
        run_command(["simulate", "--config", str(sim_config_file), "--seed", "4", "--out", str(out)])
        capsys.readouterr()
        args = ["evaluate", "--gt", str(out / "gt"), "--pred", str(out / "pred"), "--iou", "0.5"]
        assert run_command(args) == 0
        first = capsys.readouterr().out
        assert run_command(args) == 0
        assert capsys.readouterr().out == first

    def test_evaluate_pairs_label_files_by_name(self, tmp_path, capsys):
        box = Box3D(30, 0, 0, 4, 1.8, 1.5, 0, score=0.9)
        for side, names in (("gt", ["frame_0001.txt", "frame_0002.txt"]),
                            ("pred", ["frame_0001.txt", "frame_0009.txt"])):
            (tmp_path / side).mkdir()
            for name in names:
                (tmp_path / side / name).write_text(serialize_labels([box]))
        code = run_command(
            ["evaluate", "--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred")]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: frame_0002.txt ")
        assert captured.out == ""

    @pytest.mark.parametrize("iou", ["nan", "7", "-1", "inf", "1.0000001"])
    def test_evaluate_rejects_iou_outside_unit_interval(self, tmp_path, capsys, iou):
        labels = tmp_path / "labels.txt"
        labels.write_text(serialize_labels([Box3D(30, 0, 0, 4, 1.8, 1.5, 0, score=0.9)]))
        code = run_command(["evaluate", "--gt", str(labels), "--pred", str(labels), "--iou", iou])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: --iou must be a number in [0, 1]")
        assert captured.out == ""

    @pytest.mark.parametrize("argv,message", [
        (["lift", "--calib", "{calib}", "--u", "nan", "--v", "800", "--hr", "0"],
         "--u must be a finite number"),
        (["lift", "--calib", "{calib}", "--u", "768", "--v", "inf", "--hr", "0"],
         "--v must be a finite number"),
        (["lift", "--calib", "{calib}", "--u", "768", "--v", "800", "--hr", "nan"],
         "--hr must be a finite number"),
        (["sensitivity", "--height", "nan", "--range", "200", "--dh", "0.5"],
         "--height must be a finite number"),
        (["sensitivity", "--height", "7", "--range", "inf", "--dh", "0.5"],
         "--range must be a finite number"),
        (["sensitivity", "--height", "7", "--range", "inf", "--dh", "0.5", "--sweep"],
         "--range must be a finite number"),
        (["sensitivity", "--height", "7", "--range", "200", "--dh=-inf"],
         "--dh must be a finite number"),
        (["sensitivity", "--height", "7", "--range", "200", "--dh", "0.5", "--hr", "nan"],
         "--hr must be a finite number"),
        (["evaluate", "--gt", "{labels}", "--pred", "{labels}", "--ratio-thresholds", "1,nan"],
         "--ratio-thresholds must be a finite number >= 0"),
        (["evaluate", "--gt", "{labels}", "--pred", "{labels}", "--ratio-thresholds=-5,2"],
         "--ratio-thresholds must be a finite number >= 0"),
        (["evaluate", "--gt", "{labels}", "--pred", "{labels}", "--ratio-thresholds", "1,abc"],
         "--ratio-thresholds must be a finite number >= 0"),
        (["evaluate", "--gt", "{labels}", "--pred", "{labels}", "--ratio-thresholds", "1,,2"],
         "--ratio-thresholds must be a finite number >= 0"),
        (["evaluate", "--gt", "{labels}", "--pred", "{labels}", "--ratio-thresholds", ""],
         "--ratio-thresholds must be a finite number >= 0"),
        (["simulate", "--config", "{config}", "--out", "{out}", "--seed", "-1"],
         "--seed must be a non-negative integer"),
        (["bank-sim", "--config", "{config}", "--out", "{out}", "--seed", "-1"],
         "--seed must be a non-negative integer"),
        (["gradcheck", "--seed", "-1"], "--seed must be a non-negative integer"),
        (["bank-sim", "--config", "{config}", "--out", "{out}", "--bank-out", "{out}/../out"],
         "--out and --bank-out must name different files"),
        (["evaluate", "--gt", "{labels}", "--pred", "{labels}", "--out", "{out}",
          "--distance-csv", "{out}"],
         "--out and --distance-csv must name different files"),
    ], ids=["lift-u", "lift-v", "lift-hr", "sensitivity-height", "sensitivity-range",
            "sweep-range", "sensitivity-dh", "sensitivity-hr", "ratio-threshold",
            "negative-ratio-threshold", "word-ratio-threshold", "empty-ratio-threshold",
            "blank-ratio-thresholds",
            "simulate-seed", "bank-sim-seed", "gradcheck-seed", "bank-sim-same-outputs",
            "evaluate-same-outputs"])
    def test_non_finite_numbers_rejected(self, nadir_calib_file, tmp_path, capsys, argv, message):
        labels = tmp_path / "labels.txt"
        labels.write_text(serialize_labels([Box3D(30, 0, 0, 4, 1.8, 1.5, 0, score=0.9)]))
        config = tmp_path / "config.json"
        config.write_text("{}")  # every default: a config that runs
        out = tmp_path / "out"
        argv = [a.format(calib=nadir_calib_file, labels=labels, config=config, out=out)
                for a in argv]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"error: {message}, got ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["evaluate", "--gt", "{gt}", "--pred", "{labels}", "--out", "{gt}"],
         "--out must not name an input file (--gt)"),
        (["evaluate", "--gt", "{labels}", "--pred", "{labels}", "--out", "{out}",
          "--distance-csv", "{labels}"],
         "--distance-csv must not name an input file (--gt)"),
        (["evaluate", "--gt", "{truth}", "--pred", "{preds}", "--out", "{preds}/../preds/p.txt"],
         "--out must not name an input file (--pred)"),
        (["evaluate", "--gt", "{truth}", "--pred", "{preds}", "--out", "{linked}"],
         "--out must not name an input file (--pred)"),
        (["evaluate", "--gt", "{labels}", "--pred", "{labels}", "--calib", "{calib}",
          "--out", "{calib}"],
         "--out must not name an input file (--calib)"),
        (["bank-sim", "--config", "{config}", "--out", "{config}"],
         "--out must not name an input file (--config)"),
        (["bank-sim", "--config", "{config}", "--out", "{out}", "--bank-out", "{config}"],
         "--bank-out must not name an input file (--config)"),
        (["simulate", "--config", "{config}", "--out", "{config}"],
         "--out must not name an input file (--config)"),
        (["plane", "--calib", "{calib}", "--out", "{calib}"],
         "--out must not name an input file (--calib)"),
    ], ids=["evaluate-out-gt", "evaluate-distance-gt", "evaluate-out-in-pred-dir",
            "evaluate-out-linked-from-pred-dir", "evaluate-out-calib", "bank-sim-out-config",
            "bank-sim-bank-out-config", "simulate-out-config", "plane-out-calib"])
    def test_output_naming_an_input_is_refused(self, tmp_path, capsys, argv, message):
        # Without the check, each of these but simulate-out-config exited
        # 0 and replaced the input it named.  simulate-out-config failed
        # already, on an OS error once it made the --out directory's
        # subdirectory; the check refuses it first, with a clear message.
        calib = tmp_path / "calib.json"
        calib.write_text(serialize_calibration(rig_from_pose(6.0, 20.0), "s"))
        gt = tmp_path / "g.txt"
        gt.write_text(serialize_labels([Box3D(30, 0, 0, 4, 1.8, 1.5, 0)]))
        labels = tmp_path / "labels.txt"
        labels.write_text(serialize_labels([Box3D(30, 0, 0, 4, 1.8, 1.5, 0, score=0.9)]))
        truth, preds = tmp_path / "truth", tmp_path / "preds"
        truth.mkdir()
        preds.mkdir()
        for name in ("p.txt", "q.txt"):
            (truth / name).write_text(gt.read_text())
        (preds / "p.txt").write_text(labels.read_text())
        linked = tmp_path / "linked.txt"
        linked.write_text(labels.read_text())
        (preds / "q.txt").symlink_to(linked)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scene": {"n_objects": 2, "image_width": 512,
                                                "image_height": 256}, "frames": 2}))
        out = tmp_path / "out"
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        argv = [a.format(calib=calib, gt=gt, labels=labels, truth=truth, preds=preds,
                         linked=linked, config=config, out=out)
                for a in argv]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"error: {message}, got ")
        assert captured.out == ""
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("argv,message", [
        (["evaluate", "--gt", "{labels}", "--pred", "{labels}", "--out", "{out}",
          "--distance-csv", "{dir}"],
         "--distance-csv must name a file, not a directory"),
        (["evaluate", "--gt", "{labels}", "--pred", "{labels}", "--out", "{out}",
          "--distance-csv", "{missing}/d.csv"],
         "--distance-csv must name a file in an existing directory"),
        (["evaluate", "--gt", "{labels}", "--pred", "{labels}", "--out", "{out}",
          "--distance-csv", "{missing}/"],
         "--distance-csv must name a file, not a directory"),
        (["bank-sim", "--config", "{config}", "--out", "{out}", "--bank-out", "{dir}"],
         "--bank-out must name a file, not a directory"),
        (["bank-sim", "--config", "{config}", "--out", "{out}", "--bank-out", "{missing}/b.bin"],
         "--bank-out must name a file in an existing directory"),
        (["evaluate", "--gt", "{labels}", "--pred", "{labels}", "--out", "{out}",
          "--distance-csv", "{loop}"],
         "--distance-csv must not name a symlink loop"),
        (["gradcheck", "--out", "{dir}/"], "--out must name a file, not a directory"),
        (["plane", "--calib", "{calib}", "--out", "{missing}/p.txt"],
         "--out must name a file in an existing directory"),
    ], ids=["distance-csv-directory", "distance-csv-missing-parent",
            "distance-csv-trailing-slash", "distance-csv-symlink-loop", "bank-out-directory",
            "bank-out-missing-parent", "out-directory", "out-missing-parent"])
    def test_output_that_cannot_be_written_is_refused(self, tmp_path, capsys, argv, message):
        # The first six exited 1 only once the second write failed, and
        # left the --out file on disk.
        calib = tmp_path / "calib.json"
        calib.write_text(serialize_calibration(rig_from_pose(6.0, 20.0), "s"))
        labels = tmp_path / "labels.txt"
        labels.write_text(serialize_labels([Box3D(30, 0, 0, 4, 1.8, 1.5, 0, score=0.9)]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scene": {"n_objects": 2, "image_width": 512,
                                                "image_height": 256}, "frames": 2}))
        (tmp_path / "dir").mkdir()
        (tmp_path / "loop").symlink_to(tmp_path / "loop2")
        (tmp_path / "loop2").symlink_to(tmp_path / "loop")
        before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
        argv = [a.format(calib=calib, labels=labels, config=config, out=tmp_path / "out.csv",
                         dir=tmp_path / "dir", missing=tmp_path / "missing",
                         loop=tmp_path / "loop")
                for a in argv]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"error: {message}, got ")
        assert captured.out == ""
        assert {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")} == before

    @pytest.mark.parametrize("value", ["100", "-1e-1"])
    @pytest.mark.parametrize("spaced", [True, False], ids=["spaced", "equals"])
    def test_abbreviated_flag_is_a_usage_error(self, capsys, value, spaced):
        # --ran 100 read as --range 100 and exited 0, but --ran -1e-1
        # exited 2: the dash-led value is joined only to a flag written in
        # full.  Every flag must now be written in full.
        flag = ["--ran", value] if spaced else [f"--ran={value}"]
        assert run_command(["sensitivity", "--height", "7", *flag, "--dh", "0.5"]) == 2
        captured = capsys.readouterr()
        assert "the following arguments are required: --range" in captured.err
        assert captured.out == ""

    def test_near_max_numbers_read_back_finite(self, tmp_path, capsys):
        # Ten significant digits of DBL_MAX, 1.797693135e+308, read back
        # as inf.
        for x in (sys.float_info.max, -sys.float_info.max, 1.7976931345e308):
            assert math.isfinite(float(cli._fmt(x))), x
        assert cli._fmt(np.float64(sys.float_info.max)) == repr(sys.float_info.max)
        labels = tmp_path / "labels.txt"
        labels.write_text(serialize_labels([Box3D(30, 0, 0, 4, 1.8, 1.5, 0, score=0.9)]))
        argv = ["evaluate", "--gt", str(labels), "--pred", str(labels),
                "--ratio-thresholds", repr(sys.float_info.max)]
        assert run_command(argv) == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert row[:2] == ["detection_ratio", "all"]
        assert float(row[2]) == sys.float_info.max

    @pytest.mark.parametrize("sweep", [[], ["--sweep"]], ids=["scalar", "sweep"])
    def test_negative_range_rejected(self, capsys, sweep):
        argv = ["sensitivity", "--height", "7", "--range", "-10", "--dh", "0.1", *sweep]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: horizontal range must be non-negative, got -10.0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("sweep", [[], ["--sweep"]], ids=["scalar", "sweep"])
    @pytest.mark.parametrize("argv,message", [
        (["--height", "1e308", "--range", "1e308", "--dh", "1e307"],
         "location error is not a finite number, got inf"),
        (["--height", "1e308", "--range", "1e308", "--dh", "1e308", "--hr=-1e308"],
         "location error is not a finite number, got nan"),
        (["--height", "1", "--range", "10", "--dh=-1", "--hr", "1"],
         "relative height above camera"),
    ], ids=["inf", "nan", "hr-at-camera"])
    def test_sensitivity_refuses_a_result_it_cannot_give(self, capsys, argv, message, sweep):
        # Finite input: the first two printed inf and nan with exit 0, the
        # third raised ZeroDivisionError.
        assert run_command(["sensitivity", *argv, *sweep]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["-1e-1", "-inf", "-0.1", "-1", "-1,2", "1e-1", "-5e-324"])
    @pytest.mark.parametrize("argv,flag", [
        (["lift", "--calib", "{calib}", "--u", "768", "--v", "900", "--hr", "0"], "--u"),
        (["lift", "--calib", "{calib}", "--u", "768", "--v", "900", "--hr", "0"], "--v"),
        (["lift", "--calib", "{calib}", "--u", "768", "--v", "900", "--hr", "0"], "--hr"),
        (["sensitivity", "--height", "7", "--range", "200", "--dh", "0.5"], "--height"),
        (["sensitivity", "--height", "7", "--range", "200", "--dh", "0.5"], "--range"),
        (["sensitivity", "--height", "7", "--range", "200", "--dh", "0.5"], "--dh"),
        (["sensitivity", "--height", "7", "--range", "200", "--dh", "0.5", "--hr", "0"], "--hr"),
        (["evaluate", "--gt", "{labels}", "--pred", "{labels}", "--iou", "0.5"], "--iou"),
        (["evaluate", "--gt", "{labels}", "--pred", "{labels}", "--ratio-thresholds", "1"],
         "--ratio-thresholds"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_dash_led_value_reads_as_with_equals(self, nadir_calib_file, tmp_path, capsys,
                                                 argv, flag, value):
        # argparse read -1e-1, -inf and -1,2 after a flag as an option and
        # exited 2 with "expected one argument"; --flag=value worked.
        labels = tmp_path / "labels.txt"
        labels.write_text(serialize_labels([Box3D(30, 0, 0, 4, 1.8, 1.5, 0, score=0.9)]))
        argv = [a.format(calib=nadir_calib_file, labels=labels) for a in argv]
        at = argv.index(flag)
        results = []
        for form in ([flag, value], [f"{flag}={value}"]):
            code = run_command(argv[:at] + form + argv[at + 2:])
            results.append((code, *capsys.readouterr()))
        assert results[0] == results[1]
        assert "expected one argument" not in results[0][2]

    def test_evaluate_all_row_matches_across_categories(self, tmp_path, capsys):
        # A car prediction on a truck: the "all" row counts it, the truck
        # row (which only sees truck predictions) does not.
        for side, box in (
            ("gt", Box3D(30, 0, 0, 10, 2.5, 3.2, 0, category="truck")),
            ("pred", Box3D(30, 0, 0, 10, 2.5, 3.2, 0, category="car", score=0.9)),
        ):
            (tmp_path / f"{side}.txt").write_text(serialize_labels([box]))
        code = run_command(
            ["evaluate", "--gt", str(tmp_path / "gt.txt"), "--pred", str(tmp_path / "pred.txt"),
             "--kind", "3d"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "ap_3d,all,0.5,100",
            "ap_3d,truck,0.5,0",
        ]

    @pytest.mark.parametrize("category", ["all", "car,truck"])
    def test_evaluate_refuses_a_category_no_row_can_name(self, tmp_path, capsys, category):
        # An "all" class would write a second all row, and a comma would
        # split its row into one field more than the header has.
        gt, pred, out = tmp_path / "gt.txt", tmp_path / "pred.txt", tmp_path / "e.csv"
        gt.write_text(f"{category} 30 0 0 4 1.8 1.5 0\ncar 60 0 0 4 1.8 1.5 0\n")
        pred.write_text(f"{category} 30 0 0 4 1.8 1.5 0 0.9\n")
        code = run_command(["evaluate", "--gt", str(gt), "--pred", str(pred), "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: --gt {gt}: category {category!r} cannot name an AP row")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["evaluate", "--gt", "{tmp}/gt", "--pred", "{tmp}/pred"],
             "--pred {tmp}/pred/b.txt: line 1: expected 8 or 9 fields, got 3"),
            (["evaluate", "--gt", "{tmp}/binary", "--pred", "{tmp}/pred/a.txt"],
             "--gt {tmp}/binary: 'utf-8' codec can't decode byte 0x80 in position 4: "
             "invalid start byte"),
            (["plane", "--calib", "{tmp}/binary"],
             "--calib {tmp}/binary: 'utf-8' codec can't decode byte 0x80 in position 4: "
             "invalid start byte"),
            (["embed", "--calib", "{tmp}/missing.json"],
             "--calib {tmp}/missing.json: No such file or directory"),
            (["simulate", "--config", "{tmp}/truncated.json", "--out", "{tmp}/sim"],
             "--config {tmp}/truncated.json: config is not valid JSON: "
             "Expecting ',' delimiter: line 1 column 13 (char 12)"),
            (["bank-sim", "--config", "{tmp}/binary"],
             "--config {tmp}/binary: 'utf-8' codec can't decode byte 0x80 in position 4: "
             "invalid start byte"),
        ],
        ids=["directory-label-line", "label-bytes", "calibration-bytes", "missing-calibration",
             "truncated-config", "config-bytes"],
    )
    def test_input_file_error_names_its_flag_and_file(self, tmp_path, capsys, argv, message):
        for side in ("gt", "pred"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "a.txt").write_text(
                serialize_labels([Box3D(30, 0, 0, 4, 1.8, 1.5, 0, score=0.9)]))
            (tmp_path / side / "b.txt").write_text(serialize_labels([]))
        (tmp_path / "pred" / "b.txt").write_text("car 1 2\n")
        (tmp_path / "binary").write_bytes(b"car \x80 1\n")
        (tmp_path / "truncated.json").write_text('{"frames": 1')
        before = sorted(tmp_path.rglob("*"))
        assert run_command([a.format(tmp=tmp_path) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(tmp=tmp_path)}\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_gradcheck_exit_code_and_csv(self, tmp_path, capsys):
        out = tmp_path / "grad.csv"
        code = run_command(["gradcheck", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "parameter,analytic,finite_difference,rel_error"
        assert len(lines) == 10
        for line in lines[1:]:
            assert float(line.split(",")[3]) < 1e-4

    # sha256 of `gradcheck --seed <s>` output, recorded before
    # finite_difference_gradient's step and random_smooth_case's margin
    # and tries became module constants.
    GRADCHECK_SHA256 = (
        "200446010b4dc1fa166a9cd432c05c17863746fda80487bf99a5351e0c1c2ca8",
        "4a6770efb7a7bae9a93aaa0d461f2472805c678c49ee5c8d7098184434b3d9f0",
        "d19882a4835e78c06b717c8263cf7d2e07d3c92eabf80ce179a75a1a737514cf",
        "57346f35bad3edcd47ade71f893130dcdac0f4462dbd73abf081c0d889dad1f6",
        "15f2f52a0fd2de2f951d6401efd461fdefe6803406e551ccf488fcfef1ebad00",
        "97f34b7ef808549606d02e518e43e9497b2dc5037d5de993e6a9f09c5cb20d02",
        "506a61ae32c4b2568a49df498032b060e1e904e33b36acf2ae38f4784f5ee41b",
        "0936fb91b152cfd35d1129719514d5dd7536c405e4bd4695a04f377536905e57",
        "23613d20e25432411aff4d3356a29e8fed52b4cacb0f2913e5567fe52ce1dcd9",
        "460d34c8f801901bf01bc4074cd1afa2dbb30e1d1d06dbc7d1d868e5372095d1",
    )

    @pytest.mark.parametrize("seed", range(10))
    def test_gradcheck_matches_recorded_bytes(self, tmp_path, seed):
        out = tmp_path / "grad.csv"
        assert run_command(["gradcheck", "--seed", str(seed), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GRADCHECK_SHA256[seed]

    def test_bank_sim_emits_convergence_csv(self, tmp_path, capsys):
        # Small grid + many objects so cells are revisited across frames and
        # the running mean visibly converges.
        config = tmp_path / "bank.json"
        config.write_text(
            json.dumps(
                {
                    "scene": {
                        "n_objects": 12,
                        "range_band": [10, 120],
                        "pitch_band_deg": [8, 25],
                        "height_band": [5, 10],
                        "focal_band": [300, 500],
                        "image_width": 320,
                        "image_height": 240,
                    },
                    "frames": 30,
                    "scheduler": {"tau": 12},
                    "channels": 2,
                    "cue_noise_sigma": 0.05,
                }
            )
        )
        out = tmp_path / "bank.csv"
        bank_path = tmp_path / "bank.bin"
        code = run_command(
            ["bank-sim", "--config", str(config), "--seed", "1",
             "--out", str(out), "--bank-out", str(bank_path)]
        )
        assert code == 0
        from roadlift.scene_cue_bank import load_bank

        loaded = load_bank(bank_path)
        assert len(loaded.scene_ids()) == 1
        assert loaded.memorized(loaded.scene_ids()[0]).values.shape[2] == 2
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "phase,frame,did_reset,cells,mean_abs_err,mean_sq_err"
        phases = {line.split(",")[0] for line in lines[1:]}
        assert phases == {"train", "infer"}
        # The running mean shrinks the inference error as frames accumulate.
        infer = [line.split(",") for line in lines[1:] if line.startswith("infer")]
        first, last = float(infer[0][5]), float(infer[-1][5])
        assert last < first

    def test_bank_sim_skips_an_object_behind_the_augmented_camera(self, tmp_path, monkeypatch):
        # A pitch drawn this wide turns the camera past the nadir, so some
        # objects fall behind it and stay out of that frame's mask.
        skipped = []
        real_project = cli.project_to_image

        def project(rig, point):
            try:
                return real_project(rig, point)
            except GeometryError:
                skipped.append(point)
                raise

        monkeypatch.setattr(cli, "project_to_image", project)
        config, out = tmp_path / "bank.json", tmp_path / "bank.csv"
        config.write_text(json.dumps({"scene": {"n_objects": 6}, "frames": 4, "channels": 2,
                                      "scheduler": {"tau": 1, "sigma_pitch_deg": 90}}))
        assert run_command(["bank-sim", "--config", str(config), "--out", str(out)]) == 0
        assert skipped
        assert out.read_text().startswith("phase,frame,did_reset,cells,mean_abs_err,mean_sq_err\n")

    @pytest.mark.parametrize(
        "override,message",
        [
            ({"frames": 0}, "error: --config {config}: frames must be at least 1"),
            ({"frames": -3}, "error: --config {config}: frames must be at least 1"),
            ({"cue_noise_sigma": -0.05},
             "error: --config {config}: cue_noise_sigma must be a finite number >= 0"),
            ({"cue_noise_sigma": math.nan},
             "error: --config {config}: cue_noise_sigma must be a finite number >= 0"),
            ([], "error: --config {config}: config must be a JSON object"),
            ({"frames": None}, "error: --config {config}: field frames must be like 60, got null"),
            ({"frames": [1]}, "error: --config {config}: field frames must be like 60, got [1]"),
            ({"frames": 2.5}, "error: --config {config}: field frames must be like 60, got 2.5"),
            ({"scene": {"n_objects": "5"}},
             'error: --config {config}: field scene.n_objects must be like 8, got "5"'),
            ({"scene": {"range_band": 5}},
             "error: --config {config}: field scene.range_band must be like [5.0, "),
            ({"momentum": None},
             "error: --config {config}: field momentum must be like 0.1, got null"),
            ({"cue_noise_sigma": 10**400},
             "error: --config {config}: field cue_noise_sigma must be like 0.05"),
            ({"scene": []}, "error: --config {config}: scene config must be a JSON object"),
            ({"scheduler": []}, "error: --config {config}: scheduler config must be a JSON object"),
            ({"scheduler": {"tau": 2.5}},
             "error: --config {config}: field scheduler.tau must be like 20, got 2.5"),
            ({"frmes": 2}, "error: --config {config}: unknown config keys: ['frmes']"),
            ({"tau": 12}, "error: --config {config}: unknown config keys: ['tau']"),
            ({"noise": {}}, "error: --config {config}: unknown config keys: ['noise']"),
            ({"scheduler": {"sigma_scale": math.nan}},
             "error: --config {config}: sigma_scale must be a finite number >= 0, got nan"),
            ({"scheduler": {"sigma_roll_deg": math.nan}},
             "error: --config {config}: sigma_roll_deg must be a finite number >= 0, got nan"),
            ({"scheduler": {"sigma_pitch_deg": math.nan}},
             "error: --config {config}: sigma_pitch_deg must be a finite number >= 0, got nan"),
            ({"momentum": 2.0}, "error: --config {config}: momentum must lie in [0, 1], got 2.0"),
            ({"momentum": math.nan},
             "error: --config {config}: momentum must lie in [0, 1], got nan"),
            ({"channels": 0}, "error: --config {config}: channels must be at least 1, got 0"),
            ({"scheduler": {"sigma_roll_deg": math.inf}},
             "error: --config {config}: field scheduler.sigma_roll_deg must be like 2.0, got "
             "Infinity"),
            ({"momentum": -math.inf},
             "error: --config {config}: field momentum must be like 0.1, got -Infinity"),
            ({"scene": {"range_band": [5, math.inf]}},
             "error: --config {config}: field scene.range_band[1] must be like 250.0, got "
             "Infinity"),
            ({"channels": 683},
             "error: --config {config}: a 128x192-cell grid with 683 channels exceeds "
             "16777216 values"),
            ({"scheduler": {"seed": 7}},
             "error: --config {config}: unknown scheduler config keys: ['seed']"),
            ({"channels": 400, "frames": 2, "scheduler": {"clamp_lo": 1.5, "clamp_hi": 1.5}},
             "error: --config {config}: a 192x288-cell grid with 400 channels exceeds "
             "16777216 values"),
            ({"scheduler": {"clamp_lo": 0.001, "clamp_hi": 0.001}},
             "error: --config {config}: intrinsic scale shrinks the image below one grid cell"),
            ({"scheduler": {"clamp_hi": 20}},
             "error: --config {config}: image_width must be an integer from 1 to 16384 px, "
             "got 30720"),
            ({"scheduler": {"clamp_hi": 1e308}},
             "error: --config {config}: field scheduler.clamp_hi must be like 0.9, got 1e+308"),
            ({"cue_noise_sigma": 1e308},
             "error: --config {config}: field cue_noise_sigma must be like 0.05, got 1e+308"),
            ({"scene": {"n_objects": 0, "image_width": 8, "image_height": 8}, "channels": 4097},
             "error: --config {config}: channels must be at most 4096, got 4097"),
            ({"frames": 100_001},
             "error: --config {config}: frames must be at most 100000, got 100001"),
            ({"scene": {"n_objects": 1001}},
             "error: --config {config}: n_objects must be at most 1000, got 1001"),
            ({"scene": {"focal_band": [1.0, 1.0]}, "scheduler": {"clamp_lo": 0.8}},
             "error: --config {config}: focal_band[0] * clamp_lo must be finite and at least "
             "1 px, got 0.8"),
        ],
        ids=["zero-frames", "negative-frames", "negative-sigma", "nan-sigma", "list-document",
             "null-frames", "list-frames", "float-frames", "string-objects", "number-band",
             "null-momentum", "huge-sigma", "list-scene", "list-scheduler", "float-tau",
             "misspelt-key", "top-level-tau", "noise-block", "nan-sigma-scale",
             "nan-sigma-roll", "nan-sigma-pitch", "momentum-above-one", "nan-momentum",
             "zero-channels", "infinite-sigma-roll", "minus-infinite-momentum",
             "infinite-band", "channels-over-grid-cap", "scheduler-seed",
             "augmented-grid-over-cap", "scale-below-one-cell", "augmented-side-over-cap",
             "scale-past-float-range", "huge-cue-noise-sigma", "channels-over-cap",
             "frames-over-cap", "objects-over-cap", "augmented-focal-below-floor"],
    )
    def test_bank_sim_rejects_bad_config(self, tmp_path, capsys, monkeypatch, override, message):
        # Configs are checked before any work: no scene is generated.
        generated = []
        real_generate = cli.generate_scene
        monkeypatch.setattr(cli, "generate_scene",
                            lambda *a: generated.append(a) or real_generate(*a))
        config = tmp_path / "bank.json"
        base = {"scene": {"n_objects": 2}, "channels": 2}
        doc = {**base, **override} if isinstance(override, dict) else override
        config.write_text(json.dumps(doc))
        out, bank_path = tmp_path / "bank.csv", tmp_path / "bank.bin"
        code = run_command(
            ["bank-sim", "--config", str(config), "--out", str(out), "--bank-out", str(bank_path)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(message.replace("{config}", str(config)))
        assert captured.out == ""
        assert not out.exists() and not bank_path.exists()
        assert generated == []

    @pytest.mark.parametrize(
        "override,message",
        [
            ({"frames": 0}, "error: --config {config}: frames must be at least 1"),
            ([], "error: --config {config}: config must be a JSON object"),
            ({"frames": None}, "error: --config {config}: field frames must be like 1, got null"),
            ({"frames": [1]}, "error: --config {config}: field frames must be like 1, got [1]"),
            ({"frames": 2.5}, "error: --config {config}: field frames must be like 1, got 2.5"),
            ({"scene": {"n_objects": "5"}},
             'error: --config {config}: field scene.n_objects must be like 8, got "5"'),
            ({"scene": {"range_band": 5}},
             "error: --config {config}: field scene.range_band must be like [5.0, "),
            ({"noise": {"sigma_hr": "x"}},
             'error: --config {config}: field noise.sigma_hr must be like 0.0, got "x"'),
            ({"noise": {"sigma_hr": math.nan}},
             "error: --config {config}: noise sigmas must be non-negative"),
            ({"scene": []}, "error: --config {config}: scene config must be a JSON object"),
            ({"noise": []}, "error: --config {config}: noise config must be a JSON object"),
            ({"frmes": 2}, "error: --config {config}: unknown config keys: ['frmes']"),
            ({"noise": {"sigma": 0.1}},
             "error: --config {config}: unknown noise config keys: ['sigma']"),
            ({"noise": {"sigma_hr": math.inf}},
             "error: --config {config}: field noise.sigma_hr must be like 0.0, got Infinity"),
            ({"noise": {"sigma_hr": -math.inf}},
             "error: --config {config}: field noise.sigma_hr must be like 0.0, got -Infinity"),
            ({"scene": {"range_band": [5, math.inf]}},
             "error: --config {config}: field scene.range_band[1] must be like 250.0, got "
             "Infinity"),
            ({"scene": {"edge_margin_px": 8}},
             "error: --config {config}: unknown scene config keys: ['edge_margin_px']"),
            ({"frames": 100_001},
             "error: --config {config}: frames must be at most 100000, got 100001"),
            ({"scene": {"n_objects": 1001}},
             "error: --config {config}: n_objects must be at most 1000, got 1001"),
            ({"scene": {"categories": [["car", [[5, 3], [1.6, 2], [1.3, 1.8]]]]}},
             "error: --config {config}: categories[0] dimension bands must satisfy 0 < lo <= hi < "
             "inf, got [5, 3]"),
            ({"scene": {"categories": [["car", [[4, 5], [1.6, 2], [1.3, 1.8]]],
                                       ["cone", [[0.3, 0.4], [-1, -0.5], [0.5, 0.7]]]]}},
             "error: --config {config}: categories[1] dimension bands must satisfy 0 < lo <= hi < "
             "inf, got [-1, -0.5]"),
            ({"scene": {"categories": [["#car", [[4, 5], [1.6, 2], [1.3, 1.8]]]]}},
             "error: --config {config}: category must be a non-empty string without whitespace, "
             "not starting with '#', got '#car'"),
            ({"scene": {"categories": [["", [[4, 5], [1.6, 2], [1.3, 1.8]]]]}},
             "error: --config {config}: category must be a non-empty string"),
            ({"scene": {"categories": [["my car", [[4, 5], [1.6, 2], [1.3, 1.8]]]]}},
             "error: --config {config}: category must be a non-empty string"),
            ({"scene": {"n_objects": 0, "categories": [["#car", [[4, 5], [1.6, 2], [1.3, 1.8]]]]}},
             "error: --config {config}: category must be a non-empty string"),
            ({"scene": {"range_band": [1e308, 1e308]}},
             "error: --config {config}: field scene.range_band[0] must be like 5.0, got 1e+308"),
            ({"scene": {"height_band": [4, 1e308]}},
             "error: --config {config}: field scene.height_band[1] must be like 12.0, got 1e+308"),
            ({"scene": {"height_band": [-5, -4]}},
             "error: --config {config}: height_band must start at a camera height of at least "
             "1e-06 m, got -5"),
            ({"scene": {"focal_band": [1e308, 1e308]}},
             "error: --config {config}: field scene.focal_band[0] must be like 1000.0, got 1e+308"),
            ({"noise": {"sigma_hr": 1e308}},
             "error: --config {config}: field noise.sigma_hr must be like 0.0, got 1e+308"),
            ({"noise": {"sigma_dims": 1e308}},
             "error: --config {config}: field noise.sigma_dims must be like 0.0, got 1e+308"),
        ],
        ids=["zero-frames", "list-document", "null-frames", "list-frames", "float-frames",
             "string-objects", "number-band", "string-sigma", "nan-sigma", "list-scene",
             "list-noise", "misspelt-key", "unknown-noise-key", "infinite-sigma",
             "minus-infinite-sigma", "infinite-band", "edge-margin-key", "frames-over-cap",
             "objects-over-cap", "reversed-category-band", "negative-category-band",
             "comment-category", "empty-category", "spaced-category",
             "comment-category-without-objects", "huge-range-band", "huge-height-band",
             "below-ground-height-band",
             "huge-focal-band", "huge-sigma-hr", "huge-sigma-dims"],
    )
    def test_simulate_rejects_bad_config(self, tmp_path, capsys, override, message):
        config = tmp_path / "sim.json"
        base = {"scene": {"n_objects": 2}, "frames": 1}
        doc = {**base, **override} if isinstance(override, dict) else override
        config.write_text(json.dumps(doc))
        out = tmp_path / "sim"
        assert run_command(["simulate", "--config", str(config), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(message.replace("{config}", str(config)))
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command,text,message", [
        ("simulate", '{"noise": {"sigma_hr": 1e999}}', "noise.sigma_hr must be like 0.0"),
        ("simulate", '{"scene": {"range_band": [5, -1e999]}}', "scene.range_band[1] must be"),
        ("bank-sim", '{"scheduler": {"sigma_roll_deg": 1e999}}', "scheduler.sigma_roll_deg"),
    ], ids=["simulate-sigma", "simulate-band", "bank-sim-sigma-roll"])
    def test_overflowing_literal_reads_as_infinity(self, tmp_path, capsys, command, text,
                                                   message):
        config = tmp_path / "config.json"
        config.write_text(text)
        out = tmp_path / "out"
        assert run_command([command, "--config", str(config), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --config {config}: field {message}")
        assert captured.err.endswith("Infinity\n") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    def test_embedding_over_the_grid_cap_fails_before_any_grid(
        self, nadir_calib_file, tmp_path, capsys, monkeypatch
    ):
        # 128 x 192 cells x 684 values is the least even --de over 2**24
        # (bank-sim's channels: the channels-over-grid-cap config case).
        from roadlift import position_embedding

        grids = []
        for module in (position_embedding, cli):
            monkeypatch.setattr(module, "cell_centers", lambda *a: grids.append(a))
        out = tmp_path / "out"
        argv = ["embed", "--calib", str(nadir_calib_file), "--de", "684", "--out", str(out)]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: a 128x192-cell grid with 684 channels exceeds 16777216 values\n"
        )
        assert captured.out == ""
        assert not out.exists()
        assert grids == []

    @pytest.mark.parametrize("command", ["simulate", "bank-sim", "embed"])
    @pytest.mark.parametrize("side", ["width", "height"])
    def test_image_side_over_the_cap_fails_before_any_grid(
        self, tmp_path, capsys, monkeypatch, command, side
    ):
        # 16,392 px is divisible by the stride 8 and one cell over 16,384.
        from roadlift import position_embedding, scene_cue_bank, synthetic_world

        grids = []
        real_cell_centers = scene_cue_bank.cell_centers
        for module in (scene_cue_bank, synthetic_world, position_embedding, cli):
            monkeypatch.setattr(module, "cell_centers",
                                lambda *a: grids.append(a) or real_cell_centers(*a))
        if command == "embed":
            doc = json.loads(nadir_calibration_text())
            doc["image"][side] = 16_392
            source = tmp_path / "calib.json"
            source.write_text(json.dumps(doc))
            argv, message = ["embed", "--calib", str(source)], (
                f"error: --calib {source}: image_{side} must be an integer from 1 to 16384 px, "
                "got 16392\n")
        else:
            source = tmp_path / "config.json"
            source.write_text(json.dumps({"scene": {f"image_{side}": 16_392}, "frames": 1}))
            argv = [command, "--config", str(source)]
            message = (f"error: --config {source}: image_{side} must be an integer from 1 to "
                       "16384 px, got 16392\n")
        out = tmp_path / "out"
        assert run_command(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""
        assert not out.exists()
        assert grids == []

    def test_deeply_nested_config_is_one_error_line(self, tmp_path, capsys):
        config = tmp_path / "deep.json"
        config.write_text("[" * 100_000 + "]" * 100_000)
        for command in ("simulate", "bank-sim"):
            out = tmp_path / command
            assert run_command([command, "--config", str(config), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: --config {config}: config is not valid JSON: ")
            assert "recursion" in err and err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["plane", "--calib", "{calib}"],
            ["lift", "--calib", "{calib}", "--u", "768", "--v", "512", "--hr", "0"],
            ["sensitivity", "--height", "7", "--range", "200", "--dh", "0.5"],
            ["evaluate", "--gt", "{labels}", "--pred", "{labels}"],
            ["embed", "--calib", "{calib}", "--de", "4"],
        ],
        ids=["plane", "lift", "sensitivity", "evaluate", "embed"],
    )
    def test_unseeded_commands_reject_seed(self, nadir_calib_file, tmp_path, capsys, argv):
        labels = tmp_path / "labels.txt"
        labels.write_text(serialize_labels([Box3D(30, 0, 0, 4, 1.8, 1.5, 0, score=0.9)]))
        argv = [a.format(calib=nadir_calib_file, labels=labels) for a in argv]
        assert run_command(argv) == 0
        assert run_command(argv + ["--seed", "1"]) == 2

    def test_evaluate_distance_csv_ranges_from_calib_camera(self, tmp_path, capsys):
        # Camera 10 m above ground point (100, 0): a GT 10 m past it falls
        # in the first bin with --calib, in the third (110 m) without.
        ext = RigidTransform(np.diag([1.0, -1.0, -1.0]), np.array([-100.0, 0.0, 10.0]))
        rig = CameraRig(1000.0, 1000.0, 768.0, 512.0, ext, 1536, 1024)
        np.testing.assert_array_equal(rig.camera_center_ground(), [100.0, 0.0, 10.0])
        calib = tmp_path / "calib.json"
        calib.write_text(serialize_calibration(rig, scene_id="offset"))
        for side, box in (
            ("gt", Box3D(110, 0, 0, 4, 1.8, 1.5, 0)),
            ("pred", Box3D(110.5, 0, 0, 4, 1.8, 1.5, 0, score=0.9)),
        ):
            (tmp_path / f"{side}.txt").write_text(serialize_labels([box]))
        base = ["evaluate", "--gt", str(tmp_path / "gt.txt"), "--pred", str(tmp_path / "pred.txt")]
        tables = {}
        for name, extra in (("origin", []), ("camera", ["--calib", str(calib)])):
            dist = tmp_path / f"{name}.csv"
            assert run_command(base + ["--distance-csv", str(dist)] + extra) == 0
            tables[name] = dist.read_text().splitlines()[1:]
        assert tables["camera"] == ["0,50,5,1", "50,100,-,0", "100,150,-,0", "150,200,-,0"]
        assert tables["origin"] == [
            "0,50,-,0", "50,100,-,0", f"100,150,{0.5 / 110 * 100:.10g},1", "150,200,-,0"
        ]

    def test_embed_csv(self, nadir_calib_file, capsys):
        code = run_command(["embed", "--calib", str(nadir_calib_file), "--de", "4"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "row,col,depth_m,sin0,cos0"
        assert lines[1].split(",")[2] == "10"

    def test_unknown_flag_exits_2(self, capsys):
        assert run_command(["plane", "--nope"]) == 2

    def test_closed_stdout_exits_1_without_a_message(self, nadir_calib_file, capsys,
                                                      monkeypatch):
        # As in `roadlift plane ... | head -c0`: the reader is gone.
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert run_command(["plane", "--calib", str(nadir_calib_file)]) == 1
        assert capsys.readouterr().err == ""

    def test_missing_file_reports_error(self, capsys):
        assert run_command(["plane", "--calib", "/does/not/exist.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_simulate_requires_out(self, sim_config_file, capsys):
        assert run_command(["simulate", "--config", str(sim_config_file)]) == 1
        assert "requires --out" in capsys.readouterr().err


@pytest.fixture(scope="module")
def three_class_set(tmp_path_factory):
    """Four simulated frames of ten objects in three classes."""
    root = tmp_path_factory.mktemp("three_class")
    config = root / "sim.json"
    config.write_text(json.dumps({
        "scene": {"n_objects": 10, "pitch_band_deg": [8, 12], "categories": [
            ["car", [[3.8, 5.2], [1.6, 2.0], [1.3, 1.8]]],
            ["truck", [[7.0, 12.0], [2.3, 2.6], [2.8, 3.8]]],
            ["ped", [[0.4, 0.9], [0.4, 0.9], [1.5, 1.9]]],
        ]},
        "noise": {"sigma_hr": 0.25, "drop_rate": 0.05, "false_positive_rate": 0.1},
        "frames": 4,
    }))
    assert run_command(["simulate", "--config", str(config), "--seed", "3",
                        "--out", str(root / "sim")]) == 0
    return root / "sim"


def _evaluate_3d(gt, pred, out):
    """``evaluate --kind 3d`` with every output; the two CSVs' bytes."""
    out.mkdir(exist_ok=True)
    code = run_command(["evaluate", "--gt", str(gt), "--pred", str(pred), "--kind", "3d",
                        "--ratio-thresholds", "0.5,1,2,5",
                        "--distance-csv", str(out / "distance.csv"),
                        "--out", str(out / "evaluate.csv")])
    assert code == 0
    return (out / "evaluate.csv").read_bytes(), (out / "distance.csv").read_bytes()


class TestEvaluateOnFrames:
    """evaluate reads each label file into one LabelFrame and scores it
    without building a Box3D per line."""

    def test_builds_no_box(self, three_class_set, tmp_path, capsys, monkeypatch):
        built = []
        real_post_init = Box3D.__post_init__
        monkeypatch.setattr(Box3D, "__post_init__",
                            lambda box: built.append(box) or real_post_init(box))
        evaluate_csv, _ = _evaluate_3d(three_class_set / "gt", three_class_set / "pred", tmp_path)
        assert built == []
        assert evaluate_csv.count(b"\n") == 9  # header, all, 3 classes, 4 ratios

    def test_scores_as_many_pairs_as_before(self, three_class_set, tmp_path, monkeypatch):
        from roadlift import evaluation

        scored = []
        real_iou3d = evaluation.iou3d
        monkeypatch.setattr(evaluation, "iou3d", lambda a, b: scored.append(1) or real_iou3d(a, b))
        _evaluate_3d(three_class_set / "gt", three_class_set / "pred", tmp_path)
        # The count the prefiltered overlap matrix gave when every label
        # line was read into a Box3D.
        assert len(scored) == 24

    def test_reformatted_labels_give_the_same_csvs(self, three_class_set, tmp_path):
        want = _evaluate_3d(three_class_set / "gt", three_class_set / "pred", tmp_path / "a")
        for side in ("gt", "pred"):
            (tmp_path / side).mkdir()
            for path in (three_class_set / side).glob("*.txt"):
                lines = path.read_text().splitlines()
                text = "\r\n".join(
                    "  # an added comment\r\n\t" + line.replace(" ", " \t  ") + "   "
                    for line in lines
                )
                (tmp_path / side / path.name).write_bytes(text.encode())
        assert _evaluate_3d(tmp_path / "gt", tmp_path / "pred", tmp_path / "b") == want

    def test_prediction_without_score_is_one_error_line(self, three_class_set, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        lines = (three_class_set / "pred" / "frame_0000.txt").read_text().splitlines()
        lines[3] = " ".join(lines[3].split()[:8])
        pred.write_text("\n".join(lines) + "\n")
        out = tmp_path / "evaluate.csv"
        code = run_command(["evaluate", "--gt", str(three_class_set / "gt" / "frame_0000.txt"),
                            "--pred", str(pred), "--kind", "3d", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: --pred {pred}: all predictions must carry a score\n"
        assert not out.exists()

    @pytest.mark.parametrize("side,line,message", [
        ("pred", "car 1 2 0 4 2 1.5 0.1", "all predictions must carry a score"),
        ("gt", "all 1 2 0 4 2 1.5 0.1", "category 'all' cannot name an AP row"),
        ("gt", "car,bus 1 2 0 4 2 1.5 0.1", "category 'car,bus' cannot name an AP row"),
    ], ids=["unscored-prediction", "all-category", "comma-category"])
    def test_label_content_error_names_the_file(self, tmp_path, capsys, side, line, message):
        # A rule on a file's content is checked as the file is read, so in
        # a directory of label files the error says which one is bad.
        for d in ("gt", "pred"):
            (tmp_path / d).mkdir()
            (tmp_path / d / "a.txt").write_text("car 1 2 0 4 2 1.5 0.1 0.9\n")
            (tmp_path / d / "b.txt").write_text("car 1 2 0 4 2 1.5 0.1 0.9\n")
        (tmp_path / side / "b.txt").write_text(line + "\n")
        out = tmp_path / "evaluate.csv"
        code = run_command(["evaluate", "--gt", str(tmp_path / "gt"), "--pred",
                            str(tmp_path / "pred"), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --{side} {tmp_path / side / 'b.txt'}: {message}")
        assert err.count("\n") == 1
        assert not out.exists()


def _observe_on_mask(truth: FeatureGrid, mask: CueMask, sigma: float, rng) -> FeatureGrid:
    """``_observe`` at the mask's cells of ``truth``, scattered by
    ``_scattered_grid`` as bank-sim does for both of its streams."""
    cells = np.flatnonzero(mask.cells)
    shape = truth.values.shape
    rows = _observe(truth.values.reshape(-1, shape[2])[cells], cells, sigma, rng)
    assert rows.shape == (cells.size, shape[2])
    return _scattered_grid(rows, cells, shape)


class TestBankSimNoise:
    """bank-sim draws observation noise only up to the last masked cell;
    numpy's Generator fills arrays in C order, so that draw is a prefix
    of the full-grid draw and every masked value is unchanged."""

    @pytest.mark.parametrize("seed", [0, 7, [0, 5, 0], [63, 6, 59]])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (4, 5, 3), (30, 40, 64), (128, 192, 4)])
    def test_flat_draw_is_prefix_of_grid_draw(self, seed, shape):
        h, w, c = shape
        full = np.random.default_rng(seed).standard_normal(shape).reshape(-1)
        for n in sorted({1, (h * w) // 3 + 1, h * w - 1, h * w} - {0}):
            part = np.random.default_rng(seed).standard_normal(n * c)
            assert np.array_equal(part, full[: n * c])

    def test_observe_equals_full_draw_on_mask(self):
        rng = np.random.default_rng(1)
        truth = FeatureGrid(rng.standard_normal((12, 16, 5)) * 3.0)
        masks = [
            make_mask([(4.0, 4.0)], (12, 16)),
            make_mask([(127.5, 95.5)], (12, 16)),
            make_mask([(60.0, 0.0), (0.0, 50.0)], (12, 16)),
            CueMask((rng.random((12, 16)) < 0.1).astype(np.uint8)),
            CueMask(np.zeros((12, 16), dtype=np.uint8)),
            CueMask(np.ones((12, 16), dtype=np.uint8)),
        ]
        for t, mask in enumerate(masks):
            noise = np.random.default_rng([3, 5, t]).standard_normal(truth.values.shape)
            full = (truth.values + 0.05 * noise) * mask.cells[:, :, None]
            got = _observe_on_mask(truth, mask, 0.05, np.random.default_rng([3, 5, t]))
            sel = mask.cells.astype(bool)
            assert got.values[sel].tobytes() == full[sel].tobytes()
            assert got.values[~sel].tobytes() == bytes(8 * 5 * int((~sel).sum()))

    @pytest.mark.parametrize("channels", [1, 64])
    @pytest.mark.parametrize("case", ["chunk-1", "chunk", "chunk+1", "final", "empty", "full"])
    def test_observe_equals_full_draw_across_chunks(self, channels, case):
        # A grid of about 2.5 chunks, so the draw spans several fills.
        w = 64
        h = -(-5 * _NOISE_CHUNK // (2 * w))
        n_cells = h * w
        rng = np.random.default_rng([channels, len(case)])
        truth = FeatureGrid(rng.standard_normal((h, w, channels)) * 3.0)
        if case == "empty":
            cells = np.zeros(n_cells, dtype=np.uint8)
        elif case == "full":
            cells = np.ones(n_cells, dtype=np.uint8)
        else:
            # The last masked cell sits at or next to a chunk boundary,
            # or at the grid's final cell.
            last = {"chunk-1": _NOISE_CHUNK - 1, "chunk": _NOISE_CHUNK,
                    "chunk+1": _NOISE_CHUNK + 1, "final": n_cells - 1}[case]
            cells = (rng.random(n_cells) < 0.05).astype(np.uint8)
            cells[last:] = 0
            cells[last] = 1
        mask = CueMask(cells.reshape(h, w))
        seed = [9, 6, channels]
        full = np.random.default_rng(seed).standard_normal(n_cells * channels + 1)
        noise = full[: n_cells * channels].reshape(h, w, channels)
        sel = mask.cells.astype(bool)
        want = np.zeros((h, w, channels))
        want[sel] = truth.values[sel] + 0.05 * noise[sel]

        draw = np.random.default_rng(seed)
        got = _observe_on_mask(truth, mask, 0.05, draw)
        assert got.values.tobytes() == want.tobytes()
        assert not got.values.flags.writeable
        # The draw stops at the last masked cell.
        drawn = (np.flatnonzero(cells)[-1] + 1) * channels if cells.any() else 0
        assert draw.standard_normal() == full[drawn]

    def test_bank_sim_repeats_and_matches_recorded_csv(self, tmp_path, capsys):
        # 64x48 inference cells; frame 0's last masked cell is cell 2,058,
        # so its draw spans three noise chunks.
        config = tmp_path / "bank.json"
        config.write_text(json.dumps({
            "scene": {"n_objects": 16, "range_band": [10, 150], "pitch_band_deg": [8, 20],
                      "height_band": [5, 10], "focal_band": [400, 700],
                      "image_width": 512, "image_height": 384},
            "frames": 16, "scheduler": {"tau": 6}, "channels": 8, "cue_noise_sigma": 0.05,
        }))
        runs = []
        for k in range(2):
            out, bank_path = tmp_path / f"bank{k}.csv", tmp_path / f"bank{k}.bin"
            code = run_command(["bank-sim", "--config", str(config), "--seed", "2",
                                "--out", str(out), "--bank-out", str(bank_path)])
            assert code == 0
            runs.append((out.read_bytes(), bank_path.read_bytes()))
        assert runs[0] == runs[1]
        # Recorded before the noise draw was chunked and threaded.
        assert hashlib.sha256(runs[0][0]).hexdigest() == (
            "3127966f0c6aa0d6f76d48bed0cbbf256a550ece8caef14a81a917bc32edf684"
        )

    def test_bank_sim_with_resized_augmentations_matches_recorded_outputs(self, tmp_path, capsys):
        # tau 3 over 12 frames resets the training bank four times, and the
        # scale band makes the augmented grid change size between resets.
        scene = {"n_objects": 16, "range_band": [10, 150], "pitch_band_deg": [8, 20],
                 "height_band": [5, 10], "focal_band": [400, 700],
                 "image_width": 512, "image_height": 384}
        scheduler = {"tau": 3, "clamp_lo": 0.6, "clamp_hi": 1.0}
        config = tmp_path / "bank.json"
        config.write_text(json.dumps({"scene": scene, "frames": 12, "scheduler": scheduler,
                                      "channels": 8, "cue_noise_sigma": 0.05}))
        out, bank_path = tmp_path / "bank.csv", tmp_path / "bank.bin"
        code = run_command(["bank-sim", "--config", str(config), "--seed", "4",
                            "--out", str(out), "--bank-out", str(bank_path)])
        assert code == 0
        base = generate_scene(check_json(scene, SceneConfig(), "scene"), 4)
        steps = SceneScheduler(SchedulerConfig(**scheduler), 4)
        sizes = []
        for _ in range(12):
            params, did_reset = steps.step(base.scene_id)
            rig = apply_augmentation(base.rig, params)
            if did_reset or not sizes:
                sizes.append((rig.image_height // 8, rig.image_width // 8))
        assert len(sizes) == 5 and len(set(sizes)) == 3
        assert any(a != b for a, b in zip(sizes, sizes[1:]))
        # Recorded before bank-sim evaluated the augmented cues at masked
        # cells only.
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d163e62888117f3ba8df02fe9e5a511337731d72626a1527b65e5e45cc14ffa3"
        )
        assert hashlib.sha256(bank_path.read_bytes()).hexdigest() == (
            "8f817cb4035c6c049e0508ad23aa49421f13e0bd7aca9fbd63e09635573a8a9c"
        )

    def test_bank_sim_renders_once_and_reads_memory_at_cells(self, tmp_path, monkeypatch):
        # The augmented cues are evaluated at each frame's masked cells, and
        # the error rows read the banks' channel 0 at cells: one full render
        # per run (the plain camera's) and no full-grid or all-channel
        # memory copy per frame.
        from roadlift.scene_cue_bank import SceneBank

        renders, reads = [], []
        real_render, real_memorized = cli.render_cue_grid, SceneBank.memorized
        monkeypatch.setattr(cli, "render_cue_grid",
                            lambda *a: renders.append(a) or real_render(*a))

        def memorized(bank, scene_id, cells=None, channel=slice(None)):
            reads.append((cells is None, channel))
            return real_memorized(bank, scene_id, cells, channel)

        monkeypatch.setattr(SceneBank, "memorized", memorized)
        config = tmp_path / "bank.json"
        config.write_text(json.dumps({
            "scene": {"n_objects": 6, "pitch_band_deg": [8, 12], "image_width": 512,
                      "image_height": 384},
            "frames": 9, "scheduler": {"tau": 3}, "channels": 3,
        }))
        code = run_command(["bank-sim", "--config", str(config), "--seed", "5",
                            "--out", str(tmp_path / "bank.csv")])
        assert code == 0
        assert len(renders) == 1
        assert reads and all(read == (False, 0) for read in reads)


    def test_bank_sim_outputs_do_not_depend_on_the_worker_thread(self, tmp_path, monkeypatch):
        # The inference noise draw runs on a worker thread; run inline on
        # this thread, each submit completing at once, the CSV and the
        # saved bank must be the same bytes.  The worker gathers its rows
        # and seeds its stream itself, in cmd_bank_sim's _observe_plain.
        config = tmp_path / "bank.json"
        config.write_text(json.dumps({
            "scene": {"n_objects": 12, "range_band": [10, 150], "pitch_band_deg": [8, 20],
                      "height_band": [5, 10], "focal_band": [400, 700],
                      "image_width": 512, "image_height": 384},
            "frames": 10, "scheduler": {"tau": 4, "clamp_lo": 0.6, "clamp_hi": 1.0},
            "channels": 6, "cue_noise_sigma": 0.05,
        }))

        def outputs(name):
            out, bank_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.bin"
            code = run_command(["bank-sim", "--config", str(config), "--seed", "3",
                                "--out", str(out), "--bank-out", str(bank_path)])
            assert code == 0
            return out.read_bytes(), bank_path.read_bytes()

        threaded = outputs("threaded")
        submitted = []

        class InlineExecutor:
            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                submitted.append(fn)
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlineExecutor)
        assert outputs("inline") == threaded
        assert [fn.__name__ for fn in submitted] == ["_observe_plain"] * 10


class TestBankSimMemory:
    # Traced peak of one bank-sim run, in plain cue grids: 768x512 px is a
    # 64x96-cell grid, 64 channels of float64 (3 MiB).  Three grids live
    # for the whole run (the plain cues and the two banks' memories); one
    # stream's observation at a time adds a scattered grid and its cues.
    # tracemalloc sees only the heap grids, of which the plain cues are
    # the largest.  The scattered grids, the cues, both banks' memories
    # and CueField.at's results are scene_cue_bank.zero_grid mappings,
    # which it does not trace.  Seeds 0-2 measured 1.38-2.03 grids
    # (Python 3.11, numpy 2); 2.25-2.84 while a reset copied the training
    # memory onto the heap, 4.9-5.4 with np.zeros grids, and 6.8-7.2
    # while the worker returned a scattered grid and the training cues
    # outlived the inference grids.
    MAX_PEAK_GRIDS = 2.5

    def test_traced_peak_is_about_five_grids(self, tmp_path):
        # tau 2 over 3 frames: a first update, a reset and a momentum blend.
        config = tmp_path / "bank.json"
        config.write_text(json.dumps({
            "scene": {"n_objects": 10, "image_width": 768, "image_height": 512},
            "frames": 3, "scheduler": {"tau": 2}, "channels": 64,
        }))
        grid_bytes = 64 * 96 * 64 * 8
        tracemalloc.start()
        try:
            code = run_command(["bank-sim", "--config", str(config), "--seed", "1",
                                "--out", str(tmp_path / "bank.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak / grid_bytes < self.MAX_PEAK_GRIDS


@pytest.mark.parametrize("command", ["simulate", "bank-sim"])
@pytest.mark.parametrize("focal", [5e-324, 1e-300, 0.5])
def test_focal_length_below_one_pixel_is_one_error_line(tmp_path, capsys, monkeypatch, command,
                                                        focal):
    # A subnormal focal length overflowed the ray directions (a numpy
    # RuntimeWarning traceback); the scene config now refuses it by the
    # rig's focal rule, before any scene is generated.
    generated = []
    monkeypatch.setattr(cli, "generate_scene", lambda *a: generated.append(a))
    scene = {"n_objects": 3, "image_width": 256, "image_height": 128,
             "focal_band": [focal, focal]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scene": scene, "frames": 2}))
    out = tmp_path / "out"
    assert run_command([command, "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith(
        f"error: --config {config}: focal_band[0] must be finite and at least 1 px, got {focal}"
    )
    assert captured.out == ""
    assert not out.exists()
    assert generated == []


@pytest.mark.parametrize("command", ["simulate", "bank-sim"])
@pytest.mark.parametrize("scene,message", [
    ({"image_width": 0}, "image_width must be an integer from 1 to 16384 px, got 0"),
    ({"image_width": -1536}, "image_width must be an integer from 1 to 16384 px, got -1536"),
    ({"image_width": 960, "image_height": 540},
     "image_height must be a multiple of 8 px, got 540"),
], ids=["zero-width", "negative-width", "height-off-the-stride"])
def test_bad_camera_in_a_scene_config_names_the_config(tmp_path, capsys, monkeypatch, command,
                                                       scene, message):
    # The scene config checks its image sides by the rig's own rule, so a
    # bad side is refused before any scene is generated, naming the file.
    generated = []
    monkeypatch.setattr(cli, "generate_scene", lambda *a: generated.append(a))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scene": {"n_objects": 2, **scene}, "frames": 1}))
    out = tmp_path / "out"
    assert run_command([command, "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --config {config}: {message}\n"
    assert captured.out == ""
    assert not out.exists()
    assert generated == []


def test_parser_is_garbage_before_the_command_runs(monkeypatch):
    # The parser is cyclic.  run_command drops it before the command runs,
    # so the collector frees it on this thread before a command starts a
    # worker thread, not later at a moment set by thread timing.
    parsers, alive = [], []
    build = cli._build_parser

    def tracked_build():
        parser = build()
        parsers.append(weakref.ref(parser))
        return parser

    def command(args):
        gc.collect()
        alive.append(parsers[0]() is not None)
        return 0

    monkeypatch.setattr(cli, "_build_parser", tracked_build)
    monkeypatch.setattr(cli, "cmd_plane", command)
    assert run_command(["plane", "--calib", "unused.json"]) == 0
    assert alive == [False]


def test_simulate_labels_match_recorded_bytes(tmp_path):
    # Two categories, noise, drops and false positives over 5 frames, so
    # both generate_scene and resample_objects place objects.  Recorded
    # while each object recomputed the rig's foot point, azimuth and
    # field of view.
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "scene": {"n_objects": 7, "range_band": [10, 200], "pitch_band_deg": [8, 25],
                  "categories": [["car", [[3.8, 5.2], [1.6, 2.0], [1.3, 1.8]]],
                                 ["cone", [[0.3, 0.4], [0.3, 0.4], [0.5, 0.7]]]]},
        "noise": {"sigma_hr": 0.2, "sigma_center_px": 1.0, "drop_rate": 0.1,
                  "false_positive_rate": 0.2},
        "frames": 5,
    }))
    want = {0: "589c09bee03fa8ecf9e1c034d3da7cc1b28a8d1fd1ba70d1a764c633b513e16b",
            9: "d717e3b5410212f727aec4ce60cd60492da3f91ddaee7004763065bccaa021ce"}
    for seed, digest in want.items():
        out = tmp_path / f"sim{seed}"
        code = run_command(["simulate", "--config", str(config), "--seed", str(seed),
                            "--out", str(out)])
        assert code == 0
        labels = hashlib.sha256()
        for path in sorted(out.rglob("*.txt")):
            labels.update(path.read_bytes())
        assert labels.hexdigest() == digest


def _snapshot(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_simulate_refuses_an_out_holding_a_run(tmp_path, capsys):
    # A second run into the same directory used to exit 0 and leave a mix:
    # the first run's frames 2-4 beside the second run's calibration.
    configs = {}
    for frames in (5, 2):
        configs[frames] = tmp_path / f"sim{frames}.json"
        configs[frames].write_text(json.dumps({"scene": {"n_objects": 2}, "frames": frames}))
    out = tmp_path / "s1"
    assert run_command(["simulate", "--config", str(configs[5]), "--seed", "1",
                        "--out", str(out)]) == 0
    first = _snapshot(out)
    capsys.readouterr()
    assert run_command(["simulate", "--config", str(configs[2]), "--seed", "2",
                        "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith(f"error: --out {out} already holds a simulate run")
    assert captured.out == ""
    assert _snapshot(out) == first


@pytest.mark.parametrize("leftover,refused", [
    ("calib.json", True), ("gt/frame_0007.txt", True), ("pred/x.txt", True),
    ("notes.txt", False), ("gt/readme.md", False), ("gt/", False),
])
def test_simulate_out_check_reads_calibration_and_label_files(tmp_path, capsys, leftover,
                                                              refused):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"scene": {"n_objects": 1}, "frames": 1}))
    out = tmp_path / "out"
    path = out / leftover
    if leftover.endswith("/"):
        path.mkdir(parents=True)
    else:
        path.parent.mkdir(parents=True)
        path.write_text("old\n")
    before = _snapshot(out)
    code = run_command(["simulate", "--config", str(config), "--out", str(out)])
    assert code == (1 if refused else 0)
    if refused:
        assert _snapshot(out) == before
        assert capsys.readouterr().err.count("\n") == 1
    else:
        assert (out / "calib.json").exists()


@pytest.mark.parametrize("out", ["afile", "afile/sub", "loop", "loop/sub"])
def test_simulate_out_that_cannot_be_a_directory_is_refused(tmp_path, capsys, monkeypatch, out):
    # Each generated the scene and then ended with an OS error ("[Errno 20]
    # Not a directory: 'afile/gt'" and the like) that named neither the
    # flag nor the cause.  The refusal now comes before the config is read.
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"scene": {"n_objects": 2}, "frames": 1}))
    (tmp_path / "afile").write_text("old\n")
    (tmp_path / "loop").symlink_to(tmp_path / "loop2")
    (tmp_path / "loop2").symlink_to(tmp_path / "loop")
    reads = []
    real_read = cli._read_config
    monkeypatch.setattr(cli, "_read_config", lambda *a: reads.append(a) or real_read(*a))
    before = sorted(os.listdir(tmp_path))
    code = run_command(["simulate", "--config", str(config), "--out", str(tmp_path / out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --out must name a directory, got {tmp_path / out}\n"
    assert captured.out == ""
    assert reads == []
    assert sorted(os.listdir(tmp_path)) == before
    assert (tmp_path / "afile").read_text() == "old\n"


@pytest.mark.parametrize("de", ["3", "0", "-2"])
def test_embed_size_error_names_the_flag(nadir_calib_file, tmp_path, capsys, de):
    # The size check was sine_encode's alone, whose message does not name
    # --de.
    out = tmp_path / "embed.csv"
    argv = ["embed", "--calib", str(nadir_calib_file), "--de", de, "--out", str(out)]
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --de must be a positive even integer, got {de}\n"
    assert captured.out == ""
    assert not out.exists()


# Every noise parameter non-zero, and sigma_dims 0.5 on a 0.3-0.4 m
# category, so that some predicted dimensions are clamped to 0.1 m.
_ALL_NOISE_SCENE = {
    "n_objects": 9, "range_band": [10, 120], "pitch_band_deg": [8, 25],
    "categories": [["car", [[3.8, 5.2], [1.6, 2.0], [1.3, 1.8]]],
                   ["cone", [[0.3, 0.4], [0.3, 0.4], [0.3, 0.4]]]],
}
_ALL_NOISE = {"sigma_hr": 0.2, "sigma_dims": 0.5, "sigma_yaw": 0.3, "sigma_center_px": 1.5,
              "drop_rate": 0.1, "false_positive_rate": 0.3}


@pytest.mark.parametrize("scene,seed,digest", [
    (_ALL_NOISE_SCENE, 0,
     "3ed71d83256746b45bfa7605a45bdb8e814b24c909fbc02937e0d37c676b8242"),
    (_ALL_NOISE_SCENE, 11,
     "5a0c1068e82fa516b8ca70c56b244c394e64d8516031506ca537fde7f3777ed7"),
    ({"n_objects": 0}, 4,
     "f948c69a882d8824b0cd0380b52d6e8ecdba7c9a92fbee36e24672c9cf8f09a9"),
], ids=["all-noise-0", "all-noise-11", "no-objects"])
def test_simulate_all_noise_labels_match_recorded_bytes(tmp_path, scene, seed, digest):
    # Recorded while placement drew each value with its own rng call,
    # box2d_of took one box and predictions drew their noise in five calls.
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"scene": scene, "noise": _ALL_NOISE, "frames": 4}))
    out = tmp_path / "sim"
    assert run_command(["simulate", "--config", str(config), "--seed", str(seed),
                        "--out", str(out)]) == 0
    labels = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            labels.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes())
    preds = [box for path in sorted((out / "pred").glob("*.txt"))
             for box in parse_labels(path.read_text())]
    if scene["n_objects"]:
        assert any(0.1 in (box.l, box.w, box.h) for box in preds)
    else:
        assert preds == []
    assert labels.hexdigest() == digest


def _calibration_with(change):
    data = json.loads(nadir_calibration_text())
    change(data)
    return json.dumps(data)


@pytest.mark.parametrize(
    "change,message",
    [
        (lambda d: d.update(image=[1536, 1024]), "field image must be an object"),
        (lambda d: d["image"].update(width=1536.5), "image dimensions must be integers"),
        (lambda d: d["extrinsic"][0].__setitem__(3, math.nan),
         "field extrinsic: transform contains non-finite values"),
        (lambda d: d.update(extrinsic=[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 10], [0, 0, 0, 1]]),
         r"field extrinsic: rotation determinant is not \+1"),
        (lambda d: d.update(scene_id=7), "field scene_id must be a string"),
    ],
    ids=["image-not-object", "fractional-width", "nan-extrinsic", "reflection", "numeric-id"],
)
def test_calibration_rejects_bad_documents(change, message):
    with pytest.raises(FormatError, match=message):
        parse_calibration_doc(_calibration_with(change))


def _two_prediction_files(tmp_path):
    (tmp_path / "pred").mkdir()
    for name in ("frame_0000.txt", "frame_0001.txt"):
        (tmp_path / "pred" / name).write_text(serialize_labels([]))
    gt = tmp_path / "gt.txt"
    gt.write_text(serialize_labels([]))
    return [str(gt), str(tmp_path / "pred")]


def _empty_label_directories(tmp_path):
    (tmp_path / "gt").mkdir()
    (tmp_path / "pred").mkdir()
    return [str(tmp_path / "gt"), str(tmp_path / "pred")]


@pytest.mark.parametrize(
    "paths,message",
    [
        (_empty_label_directories, "error: --gt {tmp}/gt: no .txt label files\n"),
        (_two_prediction_files, "error: frame count mismatch: 1 GT vs 2 prediction files\n"),
    ],
    ids=["empty-directory", "file-against-two-files"],
)
def test_evaluate_rejects_unpairable_inputs(tmp_path, capsys, paths, message):
    gt, pred = paths(tmp_path)
    assert run_command(["evaluate", "--gt", gt, "--pred", pred]) == 1
    captured = capsys.readouterr()
    assert captured.err == message.replace("{tmp}", str(tmp_path))
    assert captured.out == ""


@pytest.fixture(scope="module")
def tilted_calib_file(tmp_path_factory):
    # One seeded scene: pitched 8-25 deg down, rolled up to 3 deg, yawed
    # anywhere, principal point at the image centre.
    out = tmp_path_factory.mktemp("tilted")
    config = out / "sim.json"
    config.write_text(json.dumps({"scene": {"n_objects": 1, "pitch_band_deg": [8, 25]},
                                  "frames": 1}))
    argv = ["simulate", "--config", str(config), "--seed", "3", "--out", str(out / "sim")]
    assert run_command(argv) == 0
    return out / "sim" / "calib.json"


class TestGeometryCommandsPinned:
    # sha256 of each command's output on the tilted calibration, recorded
    # while rig_from_pose took the principal point and the camera's
    # ground position as arguments and the sine encoding its temperature.
    SHA256 = {
        "plane": "26324cdae6aaec035bd195923f6ba3b3ca4ca7b4f1fcaa23192b6b095dd5333a",
        "lift": "4e1d514d74555f5cc625892996556d8f77ca8c38643dbe4eb932b1656439a859",
        "sensitivity-sweep": "2d492b97382e53586fb5b60c7ae713b8f9046e75d645ce30e2ae1eead3593e24",
        "embed-8": "4fb16e07d97e6a1ef1158f31c86719de58821e59fc821c05b71cd7e7cd316e78",
        "embed-64": "4fb16e07d97e6a1ef1158f31c86719de58821e59fc821c05b71cd7e7cd316e78",
    }

    def _argv(self, name, calib, out):
        if name == "plane":
            return ["plane", "--calib", str(calib)]
        if name == "lift":
            return ["lift", "--calib", str(calib), "--u", "700.5", "--v", "800", "--hr", "0.25"]
        if name == "sensitivity-sweep":
            assert run_command(["plane", "--calib", str(calib), "--out", str(out)]) == 0
            height = out.read_text().split()[-1]
            return ["sensitivity", "--height", height, "--range", "250", "--dh", "0.3",
                    "--hr", "0.1", "--sweep"]
        return ["embed", "--calib", str(calib), "--de", name.split("-")[1]]

    @pytest.mark.parametrize("name", list(SHA256))
    def test_output_matches_recorded_bytes(self, tilted_calib_file, tmp_path, name):
        out = tmp_path / "out.txt"
        assert run_command(self._argv(name, tilted_calib_file, out) + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SHA256[name]

    # The CSV prints channels 0 and 1 only, whose frequency is 1 at any
    # size, so both `embed` digests above are equal; these pin every channel.
    GRID_SHA256 = {
        8: "2efa560fb8f53aa9798860393b9abbb1c1a169d9cf112cd6a27493e007ebaae6",
        64: "c9c98ca4502d6791cae1d4c020a33c641b89d34418ac27e87df73383b4734df8",
    }

    @pytest.mark.parametrize("d_e", list(GRID_SHA256))
    def test_embedding_grid_matches_recorded_bytes(self, tilted_calib_file, d_e):
        rig = parse_calibration_doc(tilted_calib_file.read_text()).rig
        grid = embed_depth_map(rig, d_e)
        assert hashlib.sha256(grid.tobytes()).hexdigest() == self.GRID_SHA256[d_e]
