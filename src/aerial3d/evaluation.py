"""Annotation loading, metric primitives, and file-level evaluation reports.

Annotation files are JSON documents of the shape

    {
      "image": "scene.png", "image_width": 1000, "image_height": 1000,
      "camera": {"focal_length_m": 0.01, "pixel_size_m": 1e-05,
                 "pitch_deg": 90.0, "agl_m": 50.0},
      "objects": [
        {"id": "veh0",
         "obb": {"cx": 500.0, "cy": 400.0, "w": 93.8, "h": 37.0,
                 "angle_deg": 0.0},
         "dims_mm": {"length": 4694, "width": 1850, "height": 1443},
         "attributes": {"brand": "Tesla", "model": "Model 3", ...}}
      ]
    }

Prediction files are JSONL, one object per line, keyed by `id`:
`{"id": ..., "answer": <text>}` for free-text tasks, or `{"id": ...,
"hbb"|"box3d": <serialized location>}` for grounding/retrieval. Evaluation
ids pair a prediction with one question about one object:

    grounding / retrieval    <object_id>
    spatial QA               <object_id>:<task>      (task: depth, distance,
                                                      length, width, height)
    attributes               <object_id>:<attribute>

Scoring policy: a missing or unparseable prediction is a parse failure and
counts as incorrect; it is never silently excluded from accuracy
denominators. A numeric answer whose number is not finite ("1e400") fails
to parse too. MAE/RMSE/R-squared are computed over the parseable pairs only
(there is no number to difference otherwise), with the failure count
reported alongside.
Thresholds are fixed, as the report fields name them: grounding hits at HBB
IoU >= 0.5 (`acc_at_05`), retrieval at BEV IoU > 0.25 (`acc_at_bev_025`);
a numeric attribute, price included, hits on an exact match.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

from ._fsio import read_json, read_jsonl
from .boxes import (
    OBB_BOUNDS_MARGIN,
    Box3D,
    BoxDims,
    HorizontalBox2D,
    Location,
    OrientedBox2D,
    _derive,
    bev_iou,
    dims_from_mm,
    hbb_iou,
    obb_to_hbb,
    obb_within_image,
    scan_locations,
)
from .camera import CameraModel, CameraPoint, spatial_measures
from .errors import (
    DegenerateBox,
    IdMismatch,
    LengthMismatch,
    ParseError,
    RayMissesGround,
    SchemaError,
)

SQA_TASKS = ("depth", "distance", "length", "width", "height")
NUMERIC_ATTRIBUTES = frozenset({"price", "doors", "seats"})

# --------------------------------------------------------------------------
# Annotation schema and loading
# --------------------------------------------------------------------------

_TYPES = {
    "string": str, "object": dict, "array": list, "number": (int, float), "integer": (int, float)
}


def _check(value: Any, pointer: str, kind: str) -> Any:
    """`value` if it has JSON type `kind` (a number is finite, never a bool)."""
    if (
        not isinstance(value, _TYPES[kind])
        or isinstance(value, bool)
        or (kind == "integer" and isinstance(value, float) and not value.is_integer())
    ):
        raise SchemaError(pointer or "/", f"{value!r} is not of type {kind!r}")
    # nan fails every comparison; ints can exceed the float range.
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        raise SchemaError(pointer, "not a finite number")
    return value


def _field(
    parent: dict, path: str, name: str, kind: str = "number",
    minimum: float | None = None, maximum: float | None = None,
) -> Any:
    """parent[name], required, of type `kind`, > minimum and <= maximum."""
    pointer = f"{path}/{name}"
    if name not in parent:
        raise SchemaError(pointer, f"{name!r} is a required property")
    value = _check(parent[name], pointer, kind)
    if minimum is not None and value <= minimum:
        raise SchemaError(pointer, f"{value!r} is not greater than {minimum}")
    if maximum is not None and value > maximum:
        raise SchemaError(pointer, f"{value!r} is greater than the maximum of {maximum}")
    return value


def validate_annotation(data: dict) -> None:
    """Validate a raw annotation dict; SchemaError carries a JSON pointer.

    Every field of the format above is required except `attributes`, which
    must be an object when present; other keys are ignored. Numbers must be
    finite (nan and inf are rejected) and bools are not numbers. When a
    document has several violations, the pointer names the first one in
    document order: fields in the order the format lists them, objects by
    index. Object ids must be non-empty and unique, each box must have a
    pixel hull of positive width and height that lies within the image
    bounds plus a margin, and each `dims_mm` width must not exceed its
    length.
    """
    annotation_from_dict(data)


@dataclass(frozen=True)
class AnnotatedObject:
    id: str
    obb: OrientedBox2D
    dims_mm: tuple[float, float, float]
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def dims_m(self) -> BoxDims:
        return dims_from_mm(*self.dims_mm)


@dataclass(frozen=True)
class AnnotationFile:
    image: str
    image_width: int
    image_height: int
    camera: CameraModel
    objects: tuple[AnnotatedObject, ...]


def annotation_from_dict(data: dict) -> AnnotationFile:
    """Validate and convert a raw dict (degrees/mm) to typed form (radians/m).

    Each field is read once and checked as `validate_annotation` documents;
    the duplicate-id, bounds and length-before-width checks then run over
    the typed objects.
    """
    _check(data, "", "object")
    image = _field(data, "", "image", "string")
    width = _field(data, "", "image_width", "integer", minimum=0)
    height = _field(data, "", "image_height", "integer", minimum=0)
    cam_raw = _field(data, "", "camera", "object")
    focal_length = _field(cam_raw, "/camera", "focal_length_m", minimum=0)
    pixel_size = _field(cam_raw, "/camera", "pixel_size_m", minimum=0)
    pitch = math.radians(_field(cam_raw, "/camera", "pitch_deg", minimum=0, maximum=90))
    if pitch == 0.0:  # a subnormal pitch_deg rounds to 0 rad
        raise SchemaError("/camera/pitch_deg", f"{cam_raw['pitch_deg']!r} rounds to 0 radians")
    camera = CameraModel(
        focal_length=focal_length,
        pixel_size=pixel_size,
        image_width=width,
        image_height=height,
        pitch=pitch,
        agl=_field(cam_raw, "/camera", "agl_m", minimum=0),
    )
    checked = []
    for i, obj in enumerate(_field(data, "", "objects", "array")):
        path = f"/objects/{i}"
        _check(obj, path, "object")
        obj_id = _field(obj, path, "id", "string")
        if not obj_id:
            raise SchemaError(f"{path}/id", "'' should be non-empty")
        raw = _field(obj, path, "obb", "object")
        cx, cy, w, h, angle_deg = (
            _field(raw, f"{path}/obb", name, minimum=0 if name in ("w", "h") else None)
            for name in ("cx", "cy", "w", "h", "angle_deg")
        )
        dims = _field(obj, path, "dims_mm", "object")
        dims_mm = tuple(
            _field(dims, f"{path}/dims_mm", name, minimum=0)
            for name in ("length", "width", "height")
        )
        attributes = _check(obj.get("attributes", {}), f"{path}/attributes", "object")
        checked.append((obj_id, (cx, cy, w, h, math.radians(angle_deg)), dims_mm, attributes))

    # Boxes are built only once every field has passed its check, so no
    # error from building one can mask a field fault of a later object.
    seen_ids: set[str] = set()
    objects = []
    for i, (obj_id, obb_fields, dims_mm, attributes) in enumerate(checked):
        if obj_id in seen_ids:
            raise SchemaError(f"/objects/{i}/id", f"duplicate object id {obj_id!r}")
        seen_ids.add(obj_id)
        obb = OrientedBox2D.normalized(*obb_fields)
        try:
            within = obb_within_image(obb, width, height)
        except DegenerateBox as exc:  # a pixel hull with no width or height
            raise SchemaError(f"/objects/{i}/obb", str(exc)) from None
        if not within:
            raise SchemaError(
                f"/objects/{i}/obb",
                f"box extends past the image bounds by more than {OBB_BOUNDS_MARGIN:.0%}",
            )
        length_mm, width_mm, _ = dims_mm
        if width_mm > length_mm:  # a 3D box needs length >= width
            raise SchemaError(
                f"/objects/{i}/dims_mm",
                f"width {width_mm!r} mm exceeds length {length_mm!r} mm",
            )
        objects.append(AnnotatedObject(obj_id, obb, dims_mm, dict(attributes)))
    return AnnotationFile(image, width, height, camera, tuple(objects))


def load_annotations(path: str | Path) -> AnnotationFile:
    """Load and validate an annotation JSON file."""
    return annotation_from_dict(read_json(Path(path)))


def load_predictions(path: str | Path) -> dict[str, dict]:
    """Load a JSONL prediction file into an id-keyed dict.

    Raises ParseError (with the line number) on lines that are not UTF-8
    or not JSON, missing ids, or duplicate ids.
    """
    path = Path(path)
    preds: dict[str, dict] = {}
    for line_num, row in read_jsonl(path):
        if not isinstance(row, dict) or "id" not in row:
            raise ParseError(f"{path}: line {line_num}: missing 'id' field")
        key = str(row["id"])
        if key in preds:
            raise ParseError(f"{path}: line {line_num}: duplicate id {key!r}")
        preds[key] = row
    return preds


# --------------------------------------------------------------------------
# Numeric extraction
# --------------------------------------------------------------------------

_THOUSANDS = re.compile(r"(?<=\d),(?=\d)")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_SUBUNIT = re.compile(r"\s*(mm|millimet(?:er|re)s?|cm|centimet(?:er|re)s?)\b", re.IGNORECASE)


def _first_number(answer: str | None) -> re.Match[str] | None:
    return None if answer is None else _NUMBER.search(_THOUSANDS.sub("", answer))


def extract_numeric(answer: str | None) -> float | None:
    """First decimal number in the text after stripping thousands separators.

    Returns None when the text contains no digits, or when that number is
    past the float range; callers score that as a parse failure (and
    incorrect).
    """
    match = _first_number(answer)
    return _finite(float(match.group())) if match else None


def numeric_in_meters(answer: str | None) -> float | None:
    """extract_numeric plus unit normalization to meters.

    Answers are meter-denominated unless the word right after the number is
    a millimeter or centimeter unit ("4690 mm", "150cm"); units elsewhere in
    the text do not apply to it. A number past the float range is None.
    """
    match = _first_number(answer)
    return None if match is None else _finite(_in_meters(match))


def _finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _in_meters(match: re.Match[str]) -> float:
    """A number matched in an answer, in meters by numeric_in_meters' unit rule."""
    value = float(match.group())
    unit = _SUBUNIT.match(match.string, match.end())
    if unit is None:
        return value
    return value / (1000.0 if unit.group(1)[0] in "mM" else 100.0)


# --------------------------------------------------------------------------
# Metric primitives
# --------------------------------------------------------------------------


class RegressionMetrics(NamedTuple):
    mae: float
    rmse: float
    r_squared: float | None
    acc_5pct: float


def within_5pct(pred: float, gt: float) -> bool:
    """The 5%-rule correctness test, inclusive at the boundary."""
    return abs(pred - gt) <= 0.05 * abs(gt)


def eval_regression(preds: Sequence[float], gts: Sequence[float]) -> RegressionMetrics:
    """MAE, RMSE, R-squared about the GT mean, and the 5%-rule accuracy.

    When every ground-truth value is equal, R-squared has no defined value
    (SStot is zero, or a rounding residue where the rounded mean misses the
    common value): it is reported as None; the other metrics are still
    computed. It is None, too, when it is not finite. Where a plain sum
    overflows, all three are taken over the values divided by the largest.
    """
    if len(preds) != len(gts):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(gts)} ground truths")
    if not gts:
        raise LengthMismatch("cannot evaluate empty prediction/ground-truth lists")
    p = [float(v) for v in preds]
    g = [float(v) for v in gts]
    try:
        mae, rmse, r_squared = _error_metrics(p, g)
    except OverflowError:  # fsum raises where a partial sum overflows
        mae = rmse = r_squared = math.inf
    if not math.isfinite(rmse):  # RMSE >= MAE, so it overflows whenever a plain sum does
        scale = max(abs(v) for v in (*p, *g))
        if scale < math.inf:  # no input is infinite
            mae, rmse, r_squared = _error_metrics([v / scale for v in p], [v / scale for v in g])
            mae, rmse = mae * scale, rmse * scale
    if r_squared is not None and not math.isfinite(r_squared):
        r_squared = None
    acc = sum(1 for pi, gi in zip(p, g) if within_5pct(pi, gi)) / len(g)
    return RegressionMetrics(mae, rmse, r_squared, acc)


def _error_metrics(p: list[float], g: list[float]) -> tuple[float, float, float | None]:
    """MAE, RMSE and R-squared (None when every GT is equal) from plain sums."""
    n = len(g)
    residuals = [pi - gi for pi, gi in zip(p, g)]
    mae = math.fsum([abs(r) for r in residuals]) / n
    ss_res = math.fsum([r * r for r in residuals])
    rmse = math.sqrt(ss_res / n)
    g_mean = math.fsum(g) / n
    ss_tot = math.fsum([(gi - g_mean) * (gi - g_mean) for gi in g])
    if ss_tot == 0.0 or min(g) == max(g):
        return mae, rmse, None
    return mae, rmse, 1.0 - ss_res / ss_tot


def eval_grounding(
    preds: Sequence[HorizontalBox2D | None], gts: Sequence[HorizontalBox2D]
) -> float:
    """Fraction of pairs with IoU >= 0.5; missing predictions are wrong."""
    if len(preds) != len(gts):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(gts)} ground truths")
    if not gts:
        return 0.0
    hits = sum(1 for p, g in zip(preds, gts) if p is not None and hbb_iou(p, g) >= 0.5)
    return hits / len(gts)


def eval_retrieval(
    preds: Sequence[Box3D | None],
    gts: Sequence[Box3D],
    cams: CameraModel | Sequence[CameraModel],
) -> float:
    """Fraction of pairs whose BEV IoU strictly exceeds 0.25.

    `cams` is one camera for all pairs or one per pair (footprints live on
    each camera's own ground plane).
    """
    if len(preds) != len(gts):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(gts)} ground truths")
    if isinstance(cams, CameraModel):
        cam_list: Sequence[CameraModel] = [cams] * len(gts)
    else:
        cam_list = cams
        if len(cam_list) != len(gts):
            raise LengthMismatch(f"{len(cam_list)} cameras vs {len(gts)} ground truths")
    if not gts:
        return 0.0
    hits = sum(
        1
        for p, g, cam in zip(preds, gts, cam_list)
        if p is not None and bev_iou(p, g, cam) > 0.25
    )
    return hits / len(gts)


def _normalize_text(text: str) -> str:
    return " ".join(text.split()).casefold()


def eval_attributes(
    preds: Sequence[str | None], gts: Sequence[str], attribute: str = ""
) -> float:
    """Attribute-recognition accuracy.

    Text attributes compare case-insensitively with whitespace normalized.
    Numeric attributes (price, doors, seats) compare by extracted number,
    on an exact match; an answer with no finite number is a parse failure
    and incorrect.
    """
    if len(preds) != len(gts):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(gts)} ground truths")
    if not gts:
        return 0.0
    return _attribute_tally(zip(preds, gts), attribute)[0] / len(gts)


def _attribute_tally(pairs: Iterable[tuple[str | None, str]], attribute: str) -> tuple[int, int]:
    """(hits, parse failures); a missing answer, or a numeric one with no number, fails."""
    numeric = attribute in NUMERIC_ATTRIBUTES
    hits = failures = 0
    for pred, gt in pairs:
        if numeric:
            p_val, g_val = extract_numeric(pred), extract_numeric(gt)
            failures += p_val is None
            if p_val is None or g_val is None:
                continue
            hits += p_val == g_val
        elif pred is None:
            failures += 1
        else:
            hits += _normalize_text(pred) == _normalize_text(gt)
    return hits, failures


# --------------------------------------------------------------------------
# Ground-truth derivation from annotations
# --------------------------------------------------------------------------


def grounding_ground_truth(ann: AnnotationFile) -> dict[str, HorizontalBox2D]:
    """Per-object HBB ground truth (axis-aligned hull of the annotated OBB)."""
    return {obj.id: obb_to_hbb(obj.obb) for obj in ann.objects}


class DerivedObject(NamedTuple):
    """One object's geometry: `center` and `box3d` with no `error`, or
    neither and the error naming the object (see derive_objects)."""

    obj: AnnotatedObject
    center: CameraPoint | None
    box3d: Box3D | None
    error: RayMissesGround | ValueError | None


def derive_objects(ann: AnnotationFile) -> list[DerivedObject]:
    """Each object's ground center (its back-projected OBB center) and `derive_box3d` box.

    The one place that decides which objects have geometry. An object has
    both or neither. It has neither when its OBB center lies at or above
    the horizon, when the center's ground point or its distance from the
    camera is past the float range (RayMissesGround), or when its dims are
    not positive and finite or are wider than long (ValueError); `error`
    is then that fault, of the same type, naming the object. Each center
    is back-projected once, for the center and the box alike.
    """
    derived = []
    for obj in ann.objects:
        try:
            center, box3d = _derive(obj.obb, obj.dims_m, ann.camera)
        except (RayMissesGround, ValueError) as exc:
            error = type(exc)(f"object {obj.id!r}: {exc}")
            derived.append(DerivedObject(obj, None, None, error))
        else:
            derived.append(DerivedObject(obj, center, box3d, None))
    return derived


def retrieval_ground_truth(ann: AnnotationFile) -> dict[str, Box3D]:
    """Per-object 3D ground truth derived from the OBB + dimensions. Raises
    the derive_objects `error` of the first object without a box."""
    gts = {}
    for obj, _, box3d, error in derive_objects(ann):
        if error is not None:
            raise error
        gts[obj.id] = box3d
    return gts


def sqa_values(obj: AnnotatedObject, center: CameraPoint) -> dict[str, float]:
    """One object's five spatial-QA quantities, keyed by task in SQA_TASKS order.

    Depth and distance are measured to the object's ground center (see
    derive_objects); length, width, and height are the metric dimensions.
    All values in meters.
    """
    measures = spatial_measures(center)
    dims = obj.dims_m
    return {
        "depth": measures.depth,
        "distance": measures.distance,
        "length": dims.length,
        "width": dims.width,
        "height": dims.height,
    }


def sqa_ground_truth(ann: AnnotationFile) -> dict[str, float]:
    """Ground truth for the five spatial-QA tasks, keyed `<id>:<task>` (see
    sqa_values). Raises the derive_objects `error` of the first object without a center."""
    gts = {}
    for obj, center, _, error in derive_objects(ann):
        if error is not None:
            raise error
        for task, value in sqa_values(obj, center).items():
            gts[f"{obj.id}:{task}"] = value
    return gts


def attribute_ground_truth(ann: AnnotationFile) -> dict[str, str]:
    """Per-object attribute ground truth, keyed `<id>:<attribute>`."""
    gt: dict[str, str] = {}
    for obj in ann.objects:
        for name, value in obj.attributes.items():
            gt[f"{obj.id}:{name}"] = str(value)
    return gt


# --------------------------------------------------------------------------
# File-level evaluation
# --------------------------------------------------------------------------


@dataclass
class EvalReport:
    """One task's metric bundle; irrelevant metrics stay None."""

    task: str
    n_evaluated: int
    n_parse_failures: int
    acc_at_05: float | None = None
    acc_at_bev_025: float | None = None
    mae: float | None = None
    rmse: float | None = None
    r_squared: float | None = None
    acc_5pct: float | None = None
    accuracy: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """Fields as a dict, with the error metrics rounded to 6 decimals so
        a report's bytes do not follow the last bits of its inputs."""
        out = asdict(self)
        for name in ("mae", "rmse", "r_squared"):
            if out[name] is not None:
                out[name] = round(out[name], 6)
        return out


def _pred_text(pred: dict | None, *keys: str) -> str | None:
    if pred is None:
        return None
    for key in keys:
        value = pred.get(key)
        if isinstance(value, str) and value.strip():
            return value
    return None


def _pred_location(pred: dict | None, key: str, kind: type | tuple[type, ...]) -> Location | None:
    """First location of type `kind` in the prediction's `key` text (or answer, if blank)."""
    text = _pred_text(pred, key, "answer")
    if text is None:
        return None
    return next((loc for loc in scan_locations(text) if isinstance(loc, kind)), None)


def _pred_hbb(pred: dict | None) -> HorizontalBox2D | None:
    loc = _pred_location(pred, "hbb", (HorizontalBox2D, OrientedBox2D))
    return obb_to_hbb(loc) if isinstance(loc, OrientedBox2D) else loc


def evaluate_grounding_file(ann: AnnotationFile, preds: dict[str, dict]) -> EvalReport:
    gts = grounding_ground_truth(ann)
    pred_boxes = [_pred_hbb(preds.get(obj_id)) for obj_id in gts]
    acc = eval_grounding(pred_boxes, list(gts.values()))
    return EvalReport(
        task="grounding",
        n_evaluated=len(gts),
        n_parse_failures=sum(1 for b in pred_boxes if b is None),
        acc_at_05=acc,
    )


def evaluate_retrieval_file(ann: AnnotationFile, preds: dict[str, dict]) -> EvalReport:
    gts = retrieval_ground_truth(ann)
    pred_boxes = [_pred_location(preds.get(obj_id), "box3d", Box3D) for obj_id in gts]
    acc = eval_retrieval(pred_boxes, list(gts.values()), ann.camera)
    return EvalReport(
        task="retrieval",
        n_evaluated=len(gts),
        n_parse_failures=sum(1 for b in pred_boxes if b is None),
        acc_at_bev_025=acc,
    )


def _regression_report(
    task: str, pairs: list[tuple[float | None, float]]
) -> EvalReport:
    parsed = [(p, g) for p, g in pairs if p is not None]
    n_failures = len(pairs) - len(parsed)
    report = EvalReport(task=task, n_evaluated=len(pairs), n_parse_failures=n_failures)
    if parsed:
        metrics = eval_regression([p for p, _ in parsed], [g for _, g in parsed])
        report.mae = metrics.mae
        report.rmse = metrics.rmse
        report.r_squared = metrics.r_squared
        # The 5% accuracy denominator includes unparseable predictions.
        hits = sum(1 for p, g in parsed if within_5pct(p, g))
        report.acc_5pct = hits / len(pairs)
    elif pairs:
        report.acc_5pct = 0.0
    return report


def evaluate_sqa_file(
    ann: AnnotationFile, preds: dict[str, dict]
) -> tuple[EvalReport, dict[str, EvalReport]]:
    """Overall and per-task spatial-QA reports.

    Predictions are `{"id": "<object_id>:<task>", "answer": <text>}`; the
    numeric value is extracted from the text and unit-normalized to meters.
    """
    gts = sqa_ground_truth(ann)
    pairs_by_task: dict[str, list[tuple[float | None, float]]] = {
        task: [] for task in SQA_TASKS
    }
    all_pairs: list[tuple[float | None, float]] = []
    for key, gt_value in gts.items():
        task = key.rsplit(":", 1)[1]
        value = numeric_in_meters(_pred_text(preds.get(key), "answer"))
        pairs_by_task[task].append((value, gt_value))
        all_pairs.append((value, gt_value))
    overall = _regression_report("sqa", all_pairs)
    per_task = {
        task: _regression_report(task, pairs)
        for task, pairs in pairs_by_task.items()
        if pairs
    }
    return overall, per_task


def evaluate_attributes_file(
    ann: AnnotationFile, preds: dict[str, dict]
) -> tuple[EvalReport, dict[str, EvalReport]]:
    """Overall and per-attribute recognition reports.

    Predictions are `{"id": "<object_id>:<attribute>", "answer": <text>}`.
    """
    gts = attribute_ground_truth(ann)
    by_attr: dict[str, list[tuple[str | None, str]]] = {}
    for key, gt_value in gts.items():
        attr = key.rsplit(":", 1)[1]
        text = _pred_text(preds.get(key), "answer")
        by_attr.setdefault(attr, []).append((text, gt_value))

    per_attr: dict[str, EvalReport] = {}
    total_hits = 0
    for attr, pairs in sorted(by_attr.items()):
        hits, failures = _attribute_tally(pairs, attr)
        per_attr[attr] = EvalReport(
            task=attr,
            n_evaluated=len(pairs),
            n_parse_failures=failures,
            accuracy=hits / len(pairs),
        )
        total_hits += hits
    overall = EvalReport(
        task="attributes",
        n_evaluated=len(gts),
        n_parse_failures=sum(r.n_parse_failures for r in per_attr.values()),
        accuracy=total_hits / len(gts) if gts else 0.0,
    )
    return overall, per_attr


def render_report_table(report: dict[str, Any], indent: int = 0) -> str:
    """Plain-text rendering of a (possibly nested) report dict."""
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_report_table(value, indent + 1))
        elif isinstance(value, float):
            lines.append(f"{pad}{key:<18} {value:.4f}")
        else:
            lines.append(f"{pad}{key:<18} {value if value is not None else '-'}")
    return "\n".join(lines)
