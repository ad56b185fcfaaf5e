"""Instruction-sample construction for spatially-aware VLM fine-tuning.

`build_all` turns one annotation record into the training samples of
the stages it is given, in one pass over the objects:

  grounding   3 location formats (HBB, OBB, 3D box) x 5 query templates
              per object; 2D formats are kind GROUND_2D, the 3D format is
              kind GROUND_3D.
  sqa         5 numeric spatial questions per object (depth, distance,
              length, width, height), answers in meters at 2 decimals.
  phase2      per object and template index, a GROUND_2D / GROUND_3D pair
              (mixed 2D+3D supervision), an ASL sample (image + auxiliary
              2D location in the prompt context -> 3D target), and a GML
              sample (3D location in the query text, NO image -> 2D
              target).

Each object's referring phrase is made once, and its 3D box and location
strings once for grounding and phase 2 together. `build_grounding_samples`,
`build_sqa_samples` and `build_phase2_samples` are `build_all` with one
stage.

Output is line-delimited JSON with fields `image`, `query`, `aux`,
`target`, `kind`, `task`; sample order is fixed by (record order, stage,
object order, format/kind order, template index), so rebuilds are
byte-identical.

An object a stage cannot use is skipped by that stage and counted once for
it, never silently dropped: every stage needs the ground center and 3D box
that `evaluation.derive_objects` gives an object (none for a center at or
above the horizon, a ground point or distance past the float range, or
dims that are not positive and finite), and grounding and phase 2 also
need an annotated box and dimensions whose targets `parse_location` reads
back (no side that rounds to no pixel, no dimension that rounds to 0.00 m).
`BuildResult.skipped` holds each skipped object's reason once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from ._fsio import DATA_DIR, read_json, read_jsonl, write_text_atomic
from .boxes import HorizontalBox2D, _obb_hull, _wire_forms_parse, serialize_location
from .errors import ParseError
from .evaluation import SQA_TASKS, AnnotatedObject, AnnotationFile, derive_objects, sqa_values

GROUNDING_FORMATS = ("hbb", "obb", "box3d")
PHASE2_KINDS = ("ground_2d", "ground_3d", "asl", "gml")
STAGES = ("grounding", "sqa", "phase2")

_TEMPLATES_PER_FORMAT = 5

# The string escaper `json.dumps(..., ensure_ascii=False)` itself applies
# (the C one when the interpreter has it): quotes the string and escapes
# '"', '\\' and control characters, leaving other text as is.
_encode_str = json.encoder.encode_basestring


class InstructionSample(NamedTuple):
    """One JSONL training sample. A `NamedTuple` rather than a frozen
    dataclass: `build_all` makes 40 per object, and a tuple is built at
    about a third of the cost."""

    image: str | None
    query: str
    aux: str | None
    target: str
    kind: str
    task: str | None

    def to_json(self) -> str:
        """The sample as one JSON object, byte for byte what
        `json.dumps(self._asdict(), ensure_ascii=False)` gives for the
        annotated field types, without building an encoder per call."""
        image, aux, task = self.image, self.aux, self.task
        return (
            f'{{"image": {"null" if image is None else _encode_str(image)}, '
            f'"query": {_encode_str(self.query)}, '
            f'"aux": {"null" if aux is None else _encode_str(aux)}, '
            f'"target": {_encode_str(self.target)}, '
            f'"kind": {_encode_str(self.kind)}, '
            f'"task": {"null" if task is None else _encode_str(task)}}}'
        )


# Wire order of the JSONL fields; `None` is allowed in the nullable ones.
_SAMPLE_FIELDS = InstructionSample._fields
_NULLABLE_FIELDS = frozenset({"image", "aux", "task"})


@dataclass(frozen=True)
class BuildResult:
    samples: tuple[InstructionSample, ...]
    n_skipped: int
    skipped: tuple[str, ...] = ()


@dataclass(frozen=True)
class TemplateSet:
    grounding: dict[str, tuple[str, ...]]
    sqa: dict[str, str]
    phase2: dict[str, tuple[str, ...]]


def packaged_templates_path() -> Path:
    return DATA_DIR / "templates.json"


def load_templates(path: str | Path | None = None) -> TemplateSet:
    """Load and validate a template file (packaged defaults when omitted).

    Enforces exactly 5 templates per grounding format and per phase-2
    kind, one per spatial-QA task, and that every template renders with
    exactly the placeholders its builder supplies: `{target}` everywhere,
    plus `{loc3d}` in the GML templates.
    """
    path = Path(path) if path is not None else packaged_templates_path()
    data = read_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object, got {type(data).__name__}")

    def _require(section: str, keys: Sequence[str]) -> dict:
        block = data.get(section)
        if not isinstance(block, dict) or set(block) != set(keys):
            raise ParseError(f"{path}: section {section!r} must have keys {list(keys)}")
        return block

    grounding_raw = _require("grounding", GROUNDING_FORMATS)
    sqa_raw = _require("sqa", SQA_TASKS)
    phase2_raw = _require("phase2", PHASE2_KINDS)

    def _template_list(section: str, key: str, value) -> tuple[str, ...]:
        if not (isinstance(value, list) and len(value) == _TEMPLATES_PER_FORMAT):
            raise ParseError(
                f"{path}: {section}/{key} must list exactly "
                f"{_TEMPLATES_PER_FORMAT} templates"
            )
        return tuple(str(t) for t in value)

    grounding = {
        key: _template_list("grounding", key, value)
        for key, value in grounding_raw.items()
    }
    phase2 = {
        key: _template_list("phase2", key, value) for key, value in phase2_raw.items()
    }
    sqa = {key: str(value) for key, value in sqa_raw.items()}

    for label, template in [
        *((f"grounding/{k}", t) for k, ts in grounding.items() for t in ts),
        *((f"sqa/{k}", t) for k, t in sqa.items()),
        *((f"phase2/{k}", t) for k, ts in phase2.items() for t in ts),
    ]:
        slots = {"target": "x", "loc3d": "y"} if label == "phase2/gml" else {"target": "x"}
        try:
            template.format(**slots)
        # What `str.format` raises for a field that string arguments cannot
        # fill: `{loc3d}` unsupplied, `{0}`, `{target.x}`, `{target[x]}`, `{target:d}`.
        except (KeyError, IndexError, AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: template {label} does not render: {exc}") from None
    return TemplateSet(grounding=grounding, sqa=sqa, phase2=phase2)


def describe_object(obj: AnnotatedObject) -> str:
    """Readable referring phrase for a query, built from the attributes."""
    attrs = obj.attributes
    parts = [str(attrs[key]) for key in ("color", "brand", "model") if attrs.get(key)]
    if parts:
        return "the " + " ".join(parts)
    if attrs.get("type"):
        return f"the {attrs['type']}"
    return f"object {obj.id}"


def build_grounding_samples(ann: AnnotationFile, templates: TemplateSet) -> BuildResult:
    """15 samples per object: {HBB, OBB, 3D} x 5 templates."""
    return build_all(ann, templates, stages=("grounding",))


def build_sqa_samples(ann: AnnotationFile, templates: TemplateSet) -> BuildResult:
    """5 numeric QA samples per object, one per spatial task."""
    return build_all(ann, templates, stages=("sqa",))


def build_phase2_samples(
    ann: AnnotationFile, templates: TemplateSet, aux_format: str = "hbb"
) -> BuildResult:
    """20 samples per object: {2D, 3D, ASL, GML} x 5 template indices.

    The 2D location format (HBB by default, OBB with aux_format="obb") is
    shared by the GROUND_2D target, the ASL aux field, and the GML target,
    so the auxiliary and mapped locations are the exact same strings the
    model is trained to emit.
    """
    return build_all(ann, templates, aux_format, stages=("phase2",))


def _annotated_targets(obj: AnnotatedObject) -> tuple[str, str]:
    """The object's HBB and OBB wire strings. ValueError if a side rounds to
    no pixel, so that a target would not parse back."""
    hull = _obb_hull(obj.obb)
    hbb = serialize_location(HorizontalBox2D(*hull))
    obb = serialize_location(obj.obb)
    if not _wire_forms_parse(obj.obb, hull):
        raise ValueError(f"2D boxes {obb} and {hbb} have a side that rounds to no pixel")
    return hbb, obb


def build_all(
    ann: AnnotationFile,
    templates: TemplateSet,
    aux_format: str = "hbb",
    stages: Sequence[str] = STAGES,
) -> BuildResult:
    """The given stages (all three by default) for one record, in stage order.

    One pass over the objects: each object's phrase is made once, and its 3D
    box and location strings once for the grounding and phase-2 stages.
    Raises ValueError naming the first entry of `stages` not in STAGES.
    """
    for stage in stages:
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}; stages are {', '.join(STAGES)}")
    grounding, sqa, phase2 = (name in stages for name in STAGES)
    if phase2 and aux_format not in ("hbb", "obb"):
        raise ValueError(f"aux_format must be 'hbb' or 'obb', got {aux_format!r}")
    grounding_out: list[InstructionSample] = []
    sqa_out: list[InstructionSample] = []
    phase2_out: list[InstructionSample] = []
    n_skipped = 0
    skipped: list[str] = []
    image = ann.image
    for obj, center, box3d, error in derive_objects(ann):
        if error is not None:
            if grounding or sqa or phase2:
                n_skipped += grounding + sqa + phase2
                skipped.append(str(error))
            continue
        desc = describe_object(obj)
        if sqa:
            values = sqa_values(obj, center)
            for task in SQA_TASKS:
                sqa_out.append(InstructionSample(
                    image, templates.sqa[task].format(target=desc), None,
                    f"{values[task]:.2f} m", "SQA", task,
                ))
        if not (grounding or phase2):
            continue
        try:
            hbb, obb = _annotated_targets(obj)
            loc3d = serialize_location(box3d)
        except ValueError as exc:
            n_skipped += grounding + phase2
            skipped.append(f"object {obj.id!r}: {exc}")
            continue
        if grounding:
            for fmt, target in zip(GROUNDING_FORMATS, (hbb, obb, loc3d)):
                kind = "GROUND_3D" if fmt == "box3d" else "GROUND_2D"
                for template in templates.grounding[fmt]:
                    grounding_out.append(InstructionSample(
                        image, template.format(target=desc), None, target, kind, None
                    ))
        if phase2:
            loc2d = hbb if aux_format == "hbb" else obb
            for key, kind, aux, target in (
                ("ground_2d", "GROUND_2D", None, loc2d),
                ("ground_3d", "GROUND_3D", None, loc3d),
                ("asl", "ASL", loc2d, loc3d),
            ):
                for template in templates.phase2[key]:
                    phase2_out.append(InstructionSample(
                        image, template.format(target=desc), aux, target, kind, None
                    ))
            for template in templates.phase2["gml"]:  # text-only geometric mapping, no image
                phase2_out.append(InstructionSample(
                    None, template.format(target=desc, loc3d=loc3d), None, loc2d, "GML", None
                ))
    return BuildResult((*grounding_out, *sqa_out, *phase2_out), n_skipped, tuple(skipped))


def write_samples(samples: Iterable[InstructionSample], path: str | Path) -> int:
    """Write samples as JSONL (atomically); returns the number written."""
    lines = [sample.to_json() for sample in samples]
    write_text_atomic(path, "".join(line + "\n" for line in lines))
    return len(lines)


def read_samples(path: str | Path) -> list[InstructionSample]:
    """Read a JSONL instruction file back into samples."""
    path = Path(path)
    samples = []
    for line_num, row in read_jsonl(path):
        try:
            values = [row[key] for key in _SAMPLE_FIELDS]
            for key, value in zip(_SAMPLE_FIELDS, values):
                if not (isinstance(value, str) or (value is None and key in _NULLABLE_FIELDS)):
                    wanted = "a string or null" if key in _NULLABLE_FIELDS else "a string"
                    raise TypeError(f"field {key!r} must be {wanted}, got {type(value).__name__}")
            samples.append(InstructionSample(*values))
        # TypeError is a line that is JSON but not an object, or a field of
        # the wrong type.
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{path}: line {line_num}: {exc}") from None
    return samples
