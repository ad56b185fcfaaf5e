import copy
import dataclasses
import json
import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aerial3d.agent import load_planner_prompt
from aerial3d.boxes import Box3D, HorizontalBox2D, OrientedBox2D, derive_box3d, serialize_location
from aerial3d.camera import CameraPoint, PixelPoint, backproject_to_ground
from aerial3d.cli import _load_search_fixtures
from aerial3d.errors import LengthMismatch, ParseError, RayMissesGround, SchemaError
from aerial3d.evaluation import (
    EvalReport,
    annotation_from_dict,
    attribute_ground_truth,
    derive_objects,
    eval_attributes,
    eval_grounding,
    eval_regression,
    eval_retrieval,
    evaluate_attributes_file,
    evaluate_grounding_file,
    evaluate_retrieval_file,
    evaluate_sqa_file,
    extract_numeric,
    grounding_ground_truth,
    load_annotations,
    load_predictions,
    numeric_in_meters,
    render_report_table,
    retrieval_ground_truth,
    sqa_ground_truth,
    validate_annotation,
    within_5pct,
)
from aerial3d.instructions import load_templates, read_samples
from aerial3d.vehicles import load_table
from conftest import above_horizon_dict, degenerate_yaw_dict
from oracles import jsonschema_pointers


class TestExtractNumeric:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("It is 12.5 m away", 12.5),
            ("about 1,234 meters", 1234.0),
            ("-3.25", -3.25),
            ("depth: .5", 0.5),
            ("price is 231,900 yuan", 231900.0),
            ("answer 4 doors and 5 seats", 4.0),
            ("no digits here", None),
            ("", None),
            (None, None),
            ("1e308", 1e308),
        ],
    )
    def test_values(self, text, expected):
        assert extract_numeric(text) == expected

    # float() reads these as inf; a number past the float range is no answer.
    @pytest.mark.parametrize(
        "text", ["1e400", "9" * 400, "about -1e309 yuan", "1e400 mm"],
        ids=["1e400", "400-nines", "-1e309", "1e400-mm"],
    )
    def test_number_past_the_float_range_is_a_parse_failure(self, text):
        assert extract_numeric(text) is None
        assert numeric_in_meters(text) is None

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4694 mm", 4.694),
            ("150 cm tall", 1.5),
            ("12.5 m", 12.5),
            ("12.5", 12.5),
            ("no number", None),
            # The unit is the word right after the number, not any in the text.
            ("hmm, 3 m", 3.0),
            ("4.69 m, i.e. 4690 mm", 4.69),
            ("5 m (500 cm)", 5.0),
            ("4690 mm", 4.69),
            ("1.234 m", 1.234),
            ("It is about 1.23 meters.", 1.23),
            ("1.23m", 1.23),
            ("1.7e308 m", 1.7e308),
            ("1e308 mm", 1e305),
        ],
    )
    def test_unit_normalization(self, text, expected):
        assert numeric_in_meters(text) == expected

    # A tail can complete a unit or break one (the cases below), so the
    # property needs an answer that ends in a character no number or unit
    # runs through: not a word character, not whitespace, not one of ".,+-".
    @given(
        st.text(),
        st.characters(exclude_categories=("L", "N")).filter(
            lambda c: not re.match(r"[\w\s.,+-]", c)
        ),
        st.text(st.characters(exclude_categories=("Nd",))),  # no digit
    )
    @example("5 mm", ")", "x")
    @example("5", "!", " cm")
    @example("1,", ";", ",000")
    def test_tail_without_digits_keeps_the_value(self, head, last, tail):
        answer = head + last
        assert numeric_in_meters(answer + tail) == numeric_in_meters(answer)

    @pytest.mark.parametrize(
        "answer, tail, before, after",
        [("5", " cm", 5.0, 0.05), ("5 m", "m", 5.0, 0.005), ("5 mm", "x", 0.005, 5.0)],
    )
    def test_tail_can_complete_or_break_a_unit(self, answer, tail, before, after):
        assert numeric_in_meters(answer) == before
        assert numeric_in_meters(answer + tail) == after


class TestFivePercentRule:
    def test_boundary_inclusive(self):
        # 0.05 * 100 evaluates slightly above 5.0 in binary floating point,
        # so a 5.0 error is within tolerance and 5.1 is not.
        assert within_5pct(105.0, 100.0) is True
        assert within_5pct(105.1, 100.0) is False
        assert within_5pct(95.0, 100.0) is True

    def test_zero_ground_truth(self):
        assert within_5pct(0.0, 0.0) is True
        assert within_5pct(0.001, 0.0) is False

    @given(
        pred=st.floats(0.1, 1e6),
        gt=st.floats(0.1, 1e6),
        scale=st.floats(0.01, 100),
    )
    def test_scale_invariance(self, pred, gt, scale):
        assert within_5pct(pred, gt) == within_5pct(pred * scale, gt * scale)


class TestEvalRegression:
    def test_perfect_predictions(self):
        m = eval_regression([1, 2, 3, 4], [1, 2, 3, 4])
        assert m == (0.0, 0.0, 1.0, 1.0)

    def test_hand_computed_fixture(self):
        # Residuals all 1: SSres = 4; GT mean 2.5: SStot = 5 -> R2 = 0.2.
        m = eval_regression([2, 3, 4, 5], [1, 2, 3, 4])
        np.testing.assert_allclose(m.mae, 1.0, rtol=1e-12)
        np.testing.assert_allclose(m.rmse, 1.0, rtol=1e-12)
        np.testing.assert_allclose(m.r_squared, 0.2, rtol=1e-12)
        assert m.acc_5pct == 0.0

    def test_constant_mean_predictor_scores_zero(self):
        gts = [1.0, 2.0, 3.0, 4.0]
        mean = sum(gts) / len(gts)
        m = eval_regression([mean] * 4, gts)
        np.testing.assert_allclose(m.r_squared, 0.0, atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            eval_regression([1, 2], [1, 2, 3])
        with pytest.raises(LengthMismatch):
            eval_regression([], [])

    def test_degenerate_variance(self):
        m = eval_regression([1.0, 2.0], [3.0, 3.0])
        assert m.r_squared is None
        assert m.mae == 1.5

    @given(st.floats(-1e6, 1e6), st.integers(1, 50))
    @example(30.1, 3)
    @example(30.1, 6)
    @example(30.1, 7)
    def test_equal_ground_truths_have_no_r_squared(self, value, n):
        # n copies of 30.1 m (every depth of a nadir scene at that height)
        # sum and divide back to a mean an ulp off 30.1, so SStot comes out
        # near 1e-28 rather than 0, and R-squared near -1e27.
        preds, gts = [value + 0.1] * n, [value] * n
        assert eval_regression(preds, gts).r_squared is None

    # Each of these overflowed a plain sum: fsum raised, or RMSE read inf
    # and R-squared -inf. R-squared is None where SSres/SStot is past the
    # float range, and finite in the scaled sums otherwise.
    @pytest.mark.parametrize("preds, gts, mae, rmse, r_squared", [
        ([1e308] * 3, [50.0, 51.0, 52.0], 1e308, 1e308, None),
        ([1e200, 1.0], [1.0, 2.0], 5e199, math.sqrt(0.5) * 1e200, None),
        ([1.7e308, 1.7e308], [1.7e308, 1.6e308], 5e306, math.sqrt(0.5) * 1e307, -1.0),
    ], ids=["fsum-raised", "square-overflowed", "huge-ground-truths"])
    def test_overflowing_sums_are_scaled(self, preds, gts, mae, rmse, r_squared):
        m = eval_regression(preds, gts)
        assert m.mae == pytest.approx(mae, rel=1e-12)
        assert m.rmse == pytest.approx(rmse, rel=1e-12)
        assert m.r_squared == (None if r_squared is None else pytest.approx(r_squared, rel=1e-12))

    def test_residual_past_the_float_range_stays_infinite(self):
        m = eval_regression([-1.7e308], [1.7e308])
        assert m.mae == m.rmse == math.inf and m.r_squared is None

    @given(st.lists(st.integers(-1000, 1000).map(float), min_size=2, max_size=20))
    def test_gt_against_itself_is_perfect(self, gts):
        m = eval_regression(gts, gts)
        assert m.mae == 0.0 and m.rmse == 0.0
        if len(set(gts)) > 1:
            assert m.r_squared == 1.0


class TestEvalGrounding:
    def test_threshold_is_inclusive(self):
        gt = HorizontalBox2D(0, 0, 1, 2)
        pred = HorizontalBox2D(0, 0, 1, 1)  # IoU exactly 0.5
        assert eval_grounding([pred], [gt]) == 1.0

    def test_missing_prediction_is_incorrect(self):
        gt = HorizontalBox2D(0, 0, 1, 1)
        assert eval_grounding([None, gt], [gt, gt]) == 0.5


class TestEvalRetrieval:
    def test_threshold_is_strict(self, cam_nadir):
        gt = Box3D(CameraPoint(0, 0, 50), 2.0, 2.0, 1.5, 0.0)
        quarter = Box3D(CameraPoint(0, 0, 50), 1.0, 1.0, 1.5, 0.0)  # IoU = 0.25
        assert eval_retrieval([quarter], [gt], cam_nadir) == 0.0
        assert eval_retrieval([gt], [gt], cam_nadir) == 1.0

    def test_per_pair_cameras(self, cam_nadir, cam_oblique):
        gt_n = Box3D(CameraPoint(0, 0, 50), 4.5, 1.8, 1.5, 0.0)
        gt_o = Box3D(CameraPoint(0, 25, 25), 4.5, 1.8, 1.5, 0.0)
        acc = eval_retrieval(
            [gt_n, gt_o], [gt_n, gt_o], [cam_nadir, cam_oblique]
        )
        assert acc == 1.0

    def test_camera_count_mismatch(self, cam_nadir):
        gt = Box3D(CameraPoint(0, 0, 50), 2.0, 2.0, 1.5, 0.0)
        with pytest.raises(LengthMismatch):
            eval_retrieval([gt], [gt], [cam_nadir, cam_nadir])


class TestEvalAttributes:
    def test_text_normalization(self):
        assert eval_attributes(["  WHITE "], ["white"], attribute="color") == 1.0
        assert eval_attributes(["Model  3"], ["Model 3"], attribute="model") == 1.0

    def test_numeric_attributes_compare_by_value(self):
        assert eval_attributes(["It has 4 doors."], ["4"], attribute="doors") == 1.0
        assert eval_attributes(["five"], ["5"], attribute="seats") == 0.0

    def test_price_tolerance(self):
        # Price matches exactly: a near miss scores 0.
        preds, gts = ["The price is about 230,000."], ["231900"]
        assert eval_attributes(preds, gts, attribute="price") == 0.0
        assert eval_attributes(gts, gts, attribute="price") == 1.0

    def test_none_prediction_incorrect(self):
        assert eval_attributes([None], ["white"], attribute="color") == 0.0

    def test_infinite_price_is_a_parse_failure(self, annotation_dict):
        ann = annotation_from_dict(annotation_dict)
        preds = {"car0:price": {"answer": "1e400"}, "car1:price": {"answer": "219,800"}}
        _, per_attr = evaluate_attributes_file(ann, preds)
        assert per_attr["price"].n_parse_failures == 1
        assert per_attr["price"].accuracy == 0.5


class TestAnnotationValidation:
    def test_valid_annotation_passes(self, annotation_dict):
        validate_annotation(annotation_dict)

    def test_missing_camera_field_pointer(self, annotation_dict):
        del annotation_dict["camera"]["agl_m"]
        with pytest.raises(SchemaError) as info:
            validate_annotation(annotation_dict)
        assert info.value.pointer == "/camera/agl_m"

    def test_nonpositive_obb_side_rejected(self, annotation_dict):
        annotation_dict["objects"][0]["obb"]["w"] = 0
        with pytest.raises(SchemaError):
            validate_annotation(annotation_dict)

    def test_duplicate_object_ids_rejected(self, annotation_dict):
        annotation_dict["objects"][1]["id"] = "car0"
        with pytest.raises(SchemaError, match="car0"):
            validate_annotation(annotation_dict)

    def test_center_far_outside_frame_rejected(self, annotation_dict):
        annotation_dict["objects"][0]["obb"]["cx"] = 1500.0
        with pytest.raises(SchemaError, match="bounds"):
            validate_annotation(annotation_dict)

    @pytest.mark.parametrize("angle_deg", [0.0, 90.0])
    def test_box_without_pixel_extent_rejected_with_pointer(self, annotation_dict, angle_deg):
        annotation_dict["objects"][1]["obb"] = {
            "cx": 500.0, "cy": 500.0, "w": 90.0, "h": 1e-14, "angle_deg": angle_deg
        }
        for check in (annotation_from_dict, validate_annotation):
            with pytest.raises(SchemaError, match="degenerate box") as info:
                check(annotation_dict)
            assert info.value.pointer == "/objects/1/obb"

    def test_dims_wider_than_long_rejected_with_pointer(self, annotation_dict):
        # A 3D box needs length >= width, so no derive path could take it.
        annotation_dict["objects"][1]["dims_mm"] = {"length": 1800, "width": 4500.5, "height": 1500}
        for check in (annotation_from_dict, validate_annotation):
            with pytest.raises(SchemaError) as info:
                check(annotation_dict)
            assert info.value.pointer == "/objects/1/dims_mm"
            assert str(info.value) == (
                "/objects/1/dims_mm: width 4500.5 mm exceeds length 1800 mm"
            )

    def test_dims_as_wide_as_long_accepted(self, annotation_dict):
        annotation_dict["objects"][1]["dims_mm"] = {"length": 1800, "width": 1800, "height": 1500}
        assert annotation_from_dict(annotation_dict).objects[1].dims_mm == (1800, 1800, 1500)

    def test_pitch_above_90_rejected(self, annotation_dict):
        annotation_dict["camera"]["pitch_deg"] = 95.0
        with pytest.raises(SchemaError):
            validate_annotation(annotation_dict)

    @pytest.mark.parametrize(
        "path,value",
        [
            (("camera", "agl_m"), math.inf),
            (("camera", "pitch_deg"), math.nan),
            (("objects", 0, "dims_mm", "length"), math.inf),
            (("objects", 1, "obb", "angle_deg"), -math.inf),
            (("objects", 0, "obb", "cx"), math.nan),
            (("objects", 1, "obb", "w"), math.nan),
            (("image_width",), 10**400),  # beyond the float range
        ],
        ids=lambda x: (
            "/".join(map(str, x)) if isinstance(x, tuple)
            else repr(x) if isinstance(x, float) else f"{len(str(x))}-digit"
        ),
    )
    def test_non_finite_number_rejected(self, annotation_dict, path, value):
        *parents, key = path
        node = annotation_dict
        for p in parents:
            node = node[p]
        node[key] = value
        with pytest.raises(SchemaError) as info:
            annotation_from_dict(annotation_dict)
        assert info.value.pointer == "/" + "/".join(map(str, path))

    def test_json_infinity_rejected_on_load(self, tmp_path, annotation_dict):
        annotation_dict["camera"]["agl_m"] = math.inf
        path = tmp_path / "annotation.json"
        path.write_text(json.dumps(annotation_dict))  # writes a bare Infinity
        with pytest.raises(SchemaError) as info:
            load_annotations(path)
        assert info.value.pointer == "/camera/agl_m"

    def test_json_types_follow_json_schema(self, annotation_dict):
        annotation_dict["image_width"] = 1000.0  # an integer-valued number
        annotation_dict["objects"][0]["extra"] = "ignored"
        annotation_dict["objects"][1]["attributes"] = {}
        validate_annotation(annotation_dict)
        annotation_dict["objects"][0]["obb"]["h"] = True
        with pytest.raises(SchemaError) as info:
            validate_annotation(annotation_dict)
        assert info.value.pointer == "/objects/0/obb/h"

    def test_angle_a_hair_below_minus_90_degrees_is_accepted(self, annotation_dict):
        # (angle + pi/2) % pi rounds up to pi here; the OBB must wrap to -pi/2.
        annotation_dict["objects"][0]["obb"]["angle_deg"] = -90.00000000000001
        validate_annotation(annotation_dict)
        assert annotation_from_dict(annotation_dict).objects[0].obb.angle == -math.pi / 2

    @pytest.mark.parametrize("entry", [validate_annotation, annotation_from_dict])
    def test_pitch_that_rounds_to_zero_radians_rejected(self, annotation_dict, entry):
        # A positive JSON number, so schema-valid, but 0.0 once in radians.
        annotation_dict["camera"]["pitch_deg"] = 5e-324
        with pytest.raises(SchemaError) as info:
            entry(annotation_dict)
        assert info.value.pointer == "/camera/pitch_deg"

    def test_each_obb_is_normalized_once(self, annotation_dict, monkeypatch):
        calls = []
        normalized = OrientedBox2D.normalized

        def counting(cls, *args):
            calls.append(args)
            return normalized(*args)

        monkeypatch.setattr(OrientedBox2D, "normalized", classmethod(counting))
        annotation_from_dict(annotation_dict)
        assert len(calls) == len(annotation_dict["objects"])

    @pytest.mark.parametrize(
        "later_fault",
        [
            (("objects", 1, "id"), "car0"),  # a duplicate of object 0's id
            (("objects", 0, "obb", "cx"), 5000.0),  # past the image bounds
        ],
        ids=["duplicate-id", "out-of-bounds"],
    )
    def test_type_faults_come_before_id_and_bounds_faults(self, annotation_dict, later_fault):
        objects = annotation_dict["objects"]
        for i in (2, 3):
            objects.append(dict(copy.deepcopy(objects[i % 2]), id=f"car{i}"))
        validate_annotation(annotation_dict)
        _mutate(annotation_dict, *later_fault)
        _mutate(annotation_dict, ("objects", 3, "obb", "w"), "x")
        for entry in (validate_annotation, annotation_from_dict):
            with pytest.raises(SchemaError) as info:
                entry(annotation_dict)
            assert info.value.pointer == "/objects/3/obb/w"

    def test_non_object_root_pointer(self, tmp_path):
        with pytest.raises(SchemaError) as info:
            validate_annotation([])
        assert info.value.pointer == "/"
        path = tmp_path / "annotation.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError) as info:
            load_annotations(path)
        assert info.value.pointer == "/"


_DELETE = object()
_MUTATIONS = (_DELETE, None, "x", "", True, -1, 0, 95.0, [], {}, 1.5)


def _node_paths(node, prefix=()):
    """Paths of every node below the root, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _node_paths(child, prefix + (key,))


def _mutate(doc, path, value) -> None:
    """Set (or delete) the node at path in place; skip a path that is gone."""
    *parents, key = path
    try:
        node = doc
        for p in parents:
            node = node[p]
        if value is _DELETE:
            del node[key]
        else:
            node[key] = value
    except (KeyError, IndexError, TypeError):
        pass


def _outcome(doc):
    try:
        validate_annotation(doc)
    except SchemaError as exc:
        return exc.pointer, str(exc)
    return None, None


def _check_against_oracle(doc, exact: bool):
    best, pointers = jsonschema_pointers(doc)
    pointer, message = _outcome(doc)
    if best is None:
        # Schema-valid: only the duplicate-id, bounds and dims_mm width-over-
        # length checks may reject it.
        assert pointer is None or any(
            rule in message for rule in ("duplicate", "bounds", "exceeds length")
        ), message
    elif exact:
        assert pointer == best, (pointer, best)
    else:
        assert pointer in pointers, (pointer, pointers)


class TestValidatorAgainstJsonschema:
    """The validator reports the pointer the format's JSON Schema does."""

    @pytest.fixture(autouse=True)
    def _needs_jsonschema(self):
        pytest.importorskip("jsonschema")

    def test_single_faults_match_best_match(self, annotation_dict):
        checked = 0
        for path in _node_paths(annotation_dict):
            for value in _MUTATIONS:
                doc = copy.deepcopy(annotation_dict)
                _mutate(doc, path, copy.deepcopy(value))
                _check_against_oracle(doc, exact=True)
                checked += 1
        assert checked >= 400

    def test_several_faults_name_one_of_the_errors(self, annotation_dict):
        rng = random.Random(0)
        paths = list(_node_paths(annotation_dict))
        several = 0
        for _ in range(400):
            doc = copy.deepcopy(annotation_dict)
            for path in rng.sample(paths, rng.randint(2, 4)):
                _mutate(doc, path, copy.deepcopy(rng.choice(_MUTATIONS)))
            several += len(jsonschema_pointers(doc)[1]) > 1
            _check_against_oracle(doc, exact=False)
        assert several >= 100


class TestLoadPredictions:
    def test_reads_jsonl(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            '{"id": "car0", "answer": "12.5 m"}\n{"id": "car1", "hbb": "[1,2,3,4]"}\n'
        )
        preds = load_predictions(path)
        assert preds["car0"]["answer"] == "12.5 m"
        assert preds["car1"]["hbb"] == "[1,2,3,4]"

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": "a", "answer": "x"}\nnot-json\n')
        with pytest.raises(ParseError, match="line 2"):
            load_predictions(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": "a", "answer": "x"}\n{"id": "a", "answer": "y"}\n')
        with pytest.raises(ParseError, match="duplicate"):
            load_predictions(path)

    def test_missing_id_rejected(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"answer": "x"}\n')
        with pytest.raises(ParseError):
            load_predictions(path)


_HUGE_INT = "1" + "0" * 5000  # past Python's 4300-digit int conversion limit


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter has no int digit limit",
)
@pytest.mark.parametrize(
    "loader, text, where",
    [
        (load_annotations, '{"image": "a", "image_width": %s}', ""),
        (load_predictions, '{"id": "a"}\n{"id": "b", "answer": %s}\n', ": line 2"),
        (load_templates, '{"grounding": %s}', ""),
        (read_samples, '{"image": %s}\n', ": line 1"),
        (_load_search_fixtures, '{"q": %s}', ""),
    ],
    ids=[
        "load_annotations", "load_predictions", "load_templates", "read_samples",
        "_load_search_fixtures",
    ],
)
def test_oversized_json_integer_is_parse_error(tmp_path, loader, text, where):
    path = tmp_path / "huge.json"
    path.write_text(text % _HUGE_INT)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path) + where)}: "):
        loader(path)


_SAMPLE_LINE = json.dumps(
    {"image": "a", "query": "q", "aux": None, "target": "t", "kind": "k", "task": "x"}
)


@pytest.mark.parametrize(
    "loader, first_line, where",
    [
        (load_predictions, '{"id": "a"}', ": line 2"),
        (read_samples, _SAMPLE_LINE, ": line 2"),
        (load_table, "brand,model,length_mm,width_mm,height_mm,powertrain,price,doors,seats", ""),
        (_load_search_fixtures, '{"q":', ""),
        (load_planner_prompt, "You are a planner.", ""),
    ],
    ids=[
        "load_predictions", "read_samples", "load_table", "_load_search_fixtures",
        "load_planner_prompt",
    ],
)
def test_invalid_utf8_is_parse_error_with_line(tmp_path, loader, first_line, where):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(first_line.encode() + b"\n\xff\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path) + where)}: .*utf-8"):
        loader(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_jsonl_line_numbers_count_every_newline_style(tmp_path, newline):
    path = tmp_path / "preds.jsonl"
    path.write_bytes(newline.join(['{"id": "a"}', "", '{"id": "b"}', "nope", ""]).encode())
    with pytest.raises(ParseError, match="line 4"):
        load_predictions(path)


def test_read_samples_rejects_a_line_that_is_not_an_object(tmp_path):
    path = tmp_path / "samples.jsonl"
    path.write_text("[1]\n")
    with pytest.raises(ParseError, match=": line 1: "):
        read_samples(path)


class TestFileLevelEvaluation:
    @pytest.fixture
    def ann(self, annotation_dict):
        return annotation_from_dict(annotation_dict)

    def test_grounding_self_predictions_score_one(self, ann):
        preds = {
            obj_id: {"hbb": serialize_location(hbb)}
            for obj_id, hbb in grounding_ground_truth(ann).items()
        }
        report = evaluate_grounding_file(ann, preds)
        assert report.acc_at_05 == 1.0
        assert report.n_parse_failures == 0
        assert report.n_evaluated == 2

    def test_grounding_garbage_counts_as_parse_failure(self, ann):
        report = evaluate_grounding_file(ann, {"car0": {"hbb": "no box"}})
        assert report.n_parse_failures == 2  # car1 is missing entirely
        assert report.acc_at_05 == 0.0

    def test_agent_find_answer_scores_on_both_box_tasks(self, ann):
        # The agent's find answer names the 3D box before the image box.
        boxes = retrieval_ground_truth(ann)
        preds = {
            obj_id: {"answer": f"location: {serialize_location(boxes[obj_id])}; "
                               f"image box: {serialize_location(hbb)}"}
            for obj_id, hbb in grounding_ground_truth(ann).items()
        }
        assert evaluate_grounding_file(ann, preds).acc_at_05 == 1.0
        assert evaluate_retrieval_file(ann, preds).acc_at_bev_025 == 1.0

    def test_retrieval_self_predictions_score_one(self, ann):
        preds = {
            obj_id: {"box3d": serialize_location(box)}
            for obj_id, box in retrieval_ground_truth(ann).items()
        }
        report = evaluate_retrieval_file(ann, preds)
        assert report.acc_at_bev_025 == 1.0

    def test_sqa_self_predictions_near_perfect(self, ann):
        preds = {
            key: {"answer": f"{value:.6f} m"}
            for key, value in sqa_ground_truth(ann).items()
        }
        overall, per_task = evaluate_sqa_file(ann, preds)
        assert overall.n_evaluated == 10
        assert overall.mae < 1e-6
        assert overall.acc_5pct == 1.0
        assert set(per_task) == {"depth", "distance", "length", "width", "height"}
        # Depth at nadir is identical for both cars: degenerate variance.
        assert per_task["depth"].r_squared is None

    def test_sqa_parse_failures_hit_accuracy_denominator(self, ann):
        gts = sqa_ground_truth(ann)
        preds = {key: {"answer": f"{value:.6f}"} for key, value in gts.items()}
        preds["car0:depth"] = {"answer": "I do not know"}
        overall, _ = evaluate_sqa_file(ann, preds)
        assert overall.n_parse_failures == 1
        np.testing.assert_allclose(overall.acc_5pct, 9.0 / 10.0)

    @pytest.mark.parametrize("answers", [
        ["1e308 m"] * 3,  # fsum overflowed: a traceback
        ["1e400 m"],  # read as inf: "mae": Infinity
        ["1e308 m", "9" * 400 + " m"] * 5,
    ], ids=["three-1e308", "one-1e400", "1e308-and-400-nines"])
    def test_sqa_report_of_absurd_answers_is_strict_json(self, ann, answers):
        preds = {key: {"answer": text} for key, text in zip(sqa_ground_truth(ann), answers)}
        overall, per_task = evaluate_sqa_file(ann, preds)
        finite = sum(text == "1e308 m" for text in answers)
        assert overall.n_parse_failures == 10 - finite
        assert overall.mae == (1e308 if finite else None)
        for report in (overall, *per_task.values()):
            json.dumps(report.to_dict(), allow_nan=False)

    def test_attributes_self_predictions_score_one(self, ann):
        preds = {
            key: {"answer": value}
            for key, value in attribute_ground_truth(ann).items()
        }
        overall, per_attr = evaluate_attributes_file(ann, preds)
        assert overall.accuracy == 1.0
        assert per_attr["brand"].accuracy == 1.0
        assert per_attr["price"].n_evaluated == 2

    def test_overall_attribute_accuracy_is_hits_over_questions(self, annotation_dict):
        # 1 + 15 hits of 22 + 22 questions; summing acc * n per attribute in
        # floats gives 0.3636363636363636, one ulp below 16 / 44.
        car = annotation_dict["objects"][0]
        annotation_dict["objects"] = [
            {**car, "id": f"car{i}", "attributes": {"color": "white", "type": "sedan"}}
            for i in range(22)
        ]
        ann = annotation_from_dict(annotation_dict)
        preds = {f"car{i}:color": {"answer": "white" if i < 1 else "red"} for i in range(22)}
        preds.update({f"car{i}:type": {"answer": "sedan" if i < 15 else "suv"} for i in range(22)})
        overall, per_attr = evaluate_attributes_file(ann, preds)
        assert overall.accuracy == 16 / 44
        assert (per_attr["color"].accuracy, per_attr["type"].accuracy) == (1 / 22, 15 / 22)

    def test_report_bytes_ignore_last_bits_of_error_metrics(self):
        # Two annotation files that differ only in the last bits of some OBB
        # fields gave these rmse values for the README's sqa step.
        a, b = (
            EvalReport("sqa", 30, 0, mae=0.0023, rmse=rmse, r_squared=None, acc_5pct=1.0)
            for rmse in (0.05030282730857988, 0.05030282730857989)
        )
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
        assert a.to_dict()["rmse"] == 0.050303
        assert a.to_dict()["r_squared"] is None
        assert a.rmse == 0.05030282730857988  # the attribute keeps full precision

    def test_report_table_renders(self, ann):
        report = evaluate_grounding_file(ann, {}).to_dict()
        text = render_report_table(report)
        assert "grounding" in text and "acc_at_05" in text


class TestGroundTruthWithoutGeometry:
    """Eval fails on an object that lacks the geometry its task needs."""

    def test_degenerate_yaw_has_sqa_and_retrieval_truth(self):
        # A 1e-12 px segment still has an axis: its center below the horizon
        # gives both the SQA values and the box.
        ann = annotation_from_dict(degenerate_yaw_dict())
        assert list(sqa_ground_truth(ann)) == [
            f"car0:{task}" for task in ("depth", "distance", "length", "width", "height")
        ]
        (obj,) = ann.objects
        assert retrieval_ground_truth(ann) == {
            "car0": derive_box3d(obj.obb, obj.dims_m, ann.camera)
        }

    @pytest.mark.parametrize("ground_truth", [sqa_ground_truth, retrieval_ground_truth])
    def test_center_above_horizon_has_neither(self, ground_truth):
        with pytest.raises(RayMissesGround):
            ground_truth(annotation_from_dict(above_horizon_dict()))


class TestDeriveObjects:
    def test_center_and_box_are_the_primitives(self, annotation_dict):
        ann = annotation_from_dict(annotation_dict)
        derived = derive_objects(ann)
        assert [d.obj for d in derived] == list(ann.objects)
        for obj, center, box3d, error in derived:
            assert center == backproject_to_ground(PixelPoint(obj.obb.cx, obj.obb.cy), ann.camera)
            assert box3d == derive_box3d(obj.obb, obj.dims_m, ann.camera)
            assert error is None

    def test_center_above_horizon_has_neither(self):
        car0, car1 = derive_objects(annotation_from_dict(above_horizon_dict()))
        assert (car0.center, car0.box3d) == (None, None)
        assert type(car0.error) is RayMissesGround
        assert str(car0.error) == (
            "object 'car0': pixel (500.0, 30.0) is at or above the horizon "
            "(denominator -2.892e-03)"
        )
        assert (car1.center is None, car1.box3d is None, car1.error) == (False, False, None)

    def test_degenerate_yaw_keeps_the_center(self):
        # The 90 px x 1e-12 px segment along the pixel y-axis at nadir: the
        # v-flip between pixel y and e_lon makes it lie along the lateral axis
        # rotated by -90 degrees, which wraps to -pi/2.
        ann = annotation_from_dict(degenerate_yaw_dict())
        (car0,) = derive_objects(ann)
        assert car0.center == backproject_to_ground(PixelPoint(500.0, 500.0), ann.camera)
        assert car0.box3d == derive_box3d(car0.obj.obb, car0.obj.dims_m, ann.camera)
        assert car0.box3d.yaw == -math.pi / 2
        assert car0.error is None

    def test_axis_reaching_above_the_horizon_derives_a_box(self):
        # At 10 degrees pitch the horizon is near y = 323.7 px: the center
        # at y = 330 is below it, a point 9 px up the long axis above it.
        # Only the center is back-projected, so the box derives.
        data = above_horizon_dict()
        data["objects"][0]["obb"].update(cy=330.0, angle_deg=90.0)
        ann = annotation_from_dict(data)
        car0, _ = derive_objects(ann)
        assert car0.error is None
        assert car0.center == backproject_to_ground(PixelPoint(500.0, 330.0), ann.camera)
        assert car0.box3d == derive_box3d(car0.obj.obb, car0.obj.dims_m, ann.camera)
        # The axis runs along the pixel y-axis, which the ground plane maps
        # onto the longitudinal axis (up to direction).
        assert abs(car0.box3d.yaw) == math.pi / 2

    def test_bad_dims_fail_on_an_object_without_a_center(self):
        # The loader rejects such dims_mm, so the record is built in code.
        # The dims are checked before the center, so their fault is named.
        data = above_horizon_dict()
        data["objects"] = data["objects"][:1]
        ann = annotation_from_dict(data)
        (car0,) = ann.objects
        bad = dataclasses.replace(car0, dims_mm=(math.inf, 1800, 1500))
        (derived,) = derive_objects(dataclasses.replace(ann, objects=(bad,)))
        assert (derived.center, derived.box3d) == (None, None)
        assert type(derived.error) is ValueError
        assert str(derived.error) == (
            "object 'car0': dimensions must be positive and finite, got inf x 1.8 x 1.5 m"
        )

    def test_sqa_truth_fails_on_width_above_length(self, annotation_dict):
        # The loader rejects such dims_mm, so the record is built in code.
        ann = annotation_from_dict(annotation_dict)
        objects = list(ann.objects)
        objects[1] = dataclasses.replace(objects[1], dims_mm=(1800, 4500, 1500))
        with pytest.raises(ValueError, match="need length >= width > 0"):
            sqa_ground_truth(dataclasses.replace(ann, objects=tuple(objects)))
