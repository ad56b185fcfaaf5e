import copy
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
from aerial3d.boxes import Box3D, HorizontalBox2D, OrientedBox2D, serialize_location
from aerial3d.camera import CameraPoint
from aerial3d.cli import _load_search_fixtures
from aerial3d.errors import (
    DegenerateVariance,
    LengthMismatch,
    ParseError,
    SchemaError,
)
from aerial3d.evaluation import (
    EvalReport,
    annotation_from_dict,
    attribute_ground_truth,
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
        ],
    )
    def test_values(self, text, expected):
        assert extract_numeric(text) == expected

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
        with pytest.raises(DegenerateVariance):
            eval_regression([1.0, 2.0], [3.0, 3.0], strict_r2=True)

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
        with pytest.raises(DegenerateVariance):
            eval_regression(preds, gts, strict_r2=True)

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
        assert eval_grounding([pred], [gt], thresh=0.5) == 1.0

    def test_missing_prediction_is_incorrect(self):
        gt = HorizontalBox2D(0, 0, 1, 1)
        assert eval_grounding([None, gt], [gt, gt]) == 0.5

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            eval_grounding([], [], thresh=0.0)


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

    @pytest.mark.parametrize("thresh", [math.nan, math.inf, -math.inf, -3.0, 0.0, 1.0, 1.5])
    def test_bad_threshold(self, cam_nadir, thresh):
        # Unchecked, nan and inf score every pair 0.0 and -3 scores it 1.0.
        gt = Box3D(CameraPoint(0, 0, 50), 2.0, 2.0, 1.5, 0.0)
        with pytest.raises(ValueError, match="thresh must be in"):
            eval_retrieval([gt], [gt], cam_nadir, thresh=thresh)


class TestEvalAttributes:
    def test_text_normalization(self):
        assert eval_attributes(["  WHITE "], ["white"], attribute="color") == 1.0
        assert eval_attributes(["Model  3"], ["Model 3"], attribute="model") == 1.0

    def test_numeric_attributes_compare_by_value(self):
        assert eval_attributes(["It has 4 doors."], ["4"], attribute="doors") == 1.0
        assert eval_attributes(["five"], ["5"], attribute="seats") == 0.0

    def test_price_tolerance(self):
        preds, gts = ["The price is about 230,000."], ["231900"]
        assert eval_attributes(preds, gts, attribute="price") == 0.0
        assert eval_attributes(preds, gts, attribute="price", price_tol=0.05) == 1.0
        assert eval_attributes(gts, gts, attribute="price", price_tol=0.0) == 1.0

    def test_none_prediction_incorrect(self):
        assert eval_attributes([None], ["white"], attribute="color") == 0.0

    @pytest.mark.parametrize("price_tol", [math.nan, math.inf, -0.05, -math.inf])
    def test_bad_price_tolerance(self, annotation_dict, price_tol):
        # nan and negative tolerances would mark every price wrong.
        with pytest.raises(ValueError, match="price_tol must be finite and >= 0"):
            eval_attributes(["231900"], ["231900"], attribute="price", price_tol=price_tol)
        with pytest.raises(ValueError, match="price_tol must be finite and >= 0"):
            evaluate_attributes_file(annotation_from_dict(annotation_dict), {}, price_tol)


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
        # Schema-valid: only the duplicate-id and bounds checks may reject it.
        assert pointer is None or "duplicate" in message or "bounds" in message, message
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
