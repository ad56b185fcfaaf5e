"""Instruction-sample construction for spatially-aware VLM fine-tuning.

Three builders turn one annotation record into training samples:

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

Output is line-delimited JSON with fields `image`, `query`, `aux`,
`target`, `kind`, `task`; sample order is fixed by (record order, object
order, format/kind order, template index), so rebuilds are byte-identical.

Objects whose OBB center back-projects above the horizon cannot have 3D
targets; such objects are skipped entirely and counted, never silently
dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from ._fsio import DATA_DIR, read_json, read_jsonl, write_text_atomic
from .boxes import derive_box3d, obb_to_hbb, serialize_location
from .errors import DegenerateYaw, ParseError, RayMissesGround
from .evaluation import SQA_TASKS, AnnotatedObject, AnnotationFile, sqa_values

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

    def __add__(self, other: "BuildResult") -> "BuildResult":
        return BuildResult(self.samples + other.samples, self.n_skipped + other.n_skipped)


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


def _object_locations(
    ann: AnnotationFile, inflation: float
) -> list[tuple[str, str, str] | None]:
    """Per object, its HBB, OBB and 3D-box location strings (in
    GROUNDING_FORMATS order), or None when it has no ground intersection."""
    locations: list[tuple[str, str, str] | None] = []
    for obj in ann.objects:
        try:
            box3d = derive_box3d(obj.obb, obj.dims_m, ann.camera, inflation)
        except (RayMissesGround, DegenerateYaw):
            locations.append(None)
            continue
        locations.append((
            serialize_location(obb_to_hbb(obj.obb)),
            serialize_location(obj.obb),
            serialize_location(box3d),
        ))
    return locations


def _grounding_samples(
    ann: AnnotationFile,
    templates: TemplateSet,
    locations: Sequence[tuple[str, str, str] | None],
) -> BuildResult:
    samples: list[InstructionSample] = []
    skipped = 0
    image = ann.image
    for obj, targets in zip(ann.objects, locations):
        if targets is None:
            skipped += 1
            continue
        desc = describe_object(obj)
        for fmt, target in zip(GROUNDING_FORMATS, targets):
            kind = "GROUND_3D" if fmt == "box3d" else "GROUND_2D"
            for template in templates.grounding[fmt]:
                samples.append(InstructionSample(
                    image, template.format(target=desc), None, target, kind, None
                ))
    return BuildResult(tuple(samples), skipped)


def build_grounding_samples(
    ann: AnnotationFile, templates: TemplateSet, inflation: float = 1.0
) -> BuildResult:
    """15 samples per object: {HBB, OBB, 3D} x 5 templates."""
    return _grounding_samples(ann, templates, _object_locations(ann, inflation))


def build_sqa_samples(ann: AnnotationFile, templates: TemplateSet) -> BuildResult:
    """5 numeric QA samples per object, one per spatial task."""
    samples: list[InstructionSample] = []
    skipped = 0
    for obj in ann.objects:
        try:
            values = sqa_values(obj, ann.camera)
        except RayMissesGround:
            skipped += 1
            continue
        desc = describe_object(obj)
        for task in SQA_TASKS:
            samples.append(
                InstructionSample(
                    image=ann.image,
                    query=templates.sqa[task].format(target=desc),
                    aux=None,
                    target=f"{values[task]:.2f} m",
                    kind="SQA",
                    task=task,
                )
            )
    return BuildResult(tuple(samples), skipped)


def _phase2_samples(
    ann: AnnotationFile,
    templates: TemplateSet,
    aux_format: str,
    locations: Sequence[tuple[str, str, str] | None],
) -> BuildResult:
    if aux_format not in ("hbb", "obb"):
        raise ValueError(f"aux_format must be 'hbb' or 'obb', got {aux_format!r}")
    samples: list[InstructionSample] = []
    skipped = 0
    image = ann.image
    phase2 = templates.phase2
    for obj, targets in zip(ann.objects, locations):
        if targets is None:
            skipped += 1
            continue
        hbb, obb, loc3d = targets
        loc2d = hbb if aux_format == "hbb" else obb
        desc = describe_object(obj)
        for template in phase2["ground_2d"]:
            samples.append(InstructionSample(
                image, template.format(target=desc), None, loc2d, "GROUND_2D", None
            ))
        for template in phase2["ground_3d"]:
            samples.append(InstructionSample(
                image, template.format(target=desc), None, loc3d, "GROUND_3D", None
            ))
        for template in phase2["asl"]:
            samples.append(InstructionSample(
                image, template.format(target=desc), loc2d, loc3d, "ASL", None
            ))
        for template in phase2["gml"]:  # text-only geometric mapping, no image
            samples.append(InstructionSample(
                None, template.format(target=desc, loc3d=loc3d), None, loc2d, "GML", None
            ))
    return BuildResult(tuple(samples), skipped)


def build_phase2_samples(
    ann: AnnotationFile,
    templates: TemplateSet,
    aux_format: str = "hbb",
    inflation: float = 1.0,
) -> BuildResult:
    """20 samples per object: {2D, 3D, ASL, GML} x 5 template indices.

    The 2D location format (HBB by default, OBB with aux_format="obb") is
    shared by the GROUND_2D target, the ASL aux field, and the GML target,
    so the auxiliary and mapped locations are the exact same strings the
    model is trained to emit.
    """
    return _phase2_samples(ann, templates, aux_format, _object_locations(ann, inflation))


def build_all(
    ann: AnnotationFile,
    templates: TemplateSet,
    aux_format: str = "hbb",
    inflation: float = 1.0,
    stages: Sequence[str] = STAGES,
) -> BuildResult:
    """The given stages (all three by default) for one record, in stage order.

    Equal to concatenating the per-stage builders, but each object's 3D box
    is derived, and its location strings serialized, once for both the
    grounding and the phase-2 stage.
    """
    locations = None
    if "grounding" in stages or "phase2" in stages:
        locations = _object_locations(ann, inflation)
    result = BuildResult((), 0)
    if "grounding" in stages:
        result += _grounding_samples(ann, templates, locations)
    if "sqa" in stages:
        result += build_sqa_samples(ann, templates)
    if "phase2" in stages:
        result += _phase2_samples(ann, templates, aux_format, locations)
    return result


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
