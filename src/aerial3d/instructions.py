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
from importlib.resources import files
from pathlib import Path
from typing import Iterable, Sequence

from ._fsio import write_text_atomic
from .boxes import Box3D, derive_box3d, obb_to_hbb, serialize_location
from .camera import PixelPoint, backproject_to_ground, spatial_measures
from .errors import DegenerateYaw, ParseError, RayMissesGround
from .evaluation import SQA_TASKS, AnnotatedObject, AnnotationFile

GROUNDING_FORMATS = ("hbb", "obb", "box3d")
PHASE2_KINDS = ("ground_2d", "ground_3d", "asl", "gml")
KINDS = ("GROUND_2D", "GROUND_3D", "ASL", "GML", "SQA")
STAGES = ("grounding", "sqa", "phase2")

_TEMPLATES_PER_FORMAT = 5


@dataclass(frozen=True)
class InstructionSample:
    image: str | None
    query: str
    aux: str | None
    target: str
    kind: str
    task: str | None

    def to_json(self) -> str:
        return json.dumps(
            {
                "image": self.image,
                "query": self.query,
                "aux": self.aux,
                "target": self.target,
                "kind": self.kind,
                "task": self.task,
            },
            ensure_ascii=False,
        )


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
    return Path(str(files("aerial3d") / "data" / "templates.json"))


def load_templates(path: str | Path | None = None) -> TemplateSet:
    """Load and validate a template file (packaged defaults when omitted).

    Enforces exactly 5 templates per grounding format and per phase-2
    kind, one per spatial-QA task, and that every template renders with
    the placeholders the builders supply.
    """
    path = Path(path) if path is not None else packaged_templates_path()
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise ParseError(f"{path}: not valid JSON: {exc}") from None

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
        try:
            template.format(target="x", loc3d="y")
        except (KeyError, IndexError, ValueError) as exc:
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


def _object_box3d(
    obj: AnnotatedObject, ann: AnnotationFile, inflation: float
) -> Box3D | None:
    """3D box for an object, or None when it has no ground intersection."""
    try:
        return derive_box3d(obj.obb, obj.dims_m, ann.camera, inflation)
    except (RayMissesGround, DegenerateYaw):
        return None


def build_grounding_samples(
    ann: AnnotationFile, templates: TemplateSet, inflation: float = 1.0
) -> BuildResult:
    """15 samples per object: {HBB, OBB, 3D} x 5 templates."""
    samples: list[InstructionSample] = []
    skipped = 0
    for obj in ann.objects:
        box3d = _object_box3d(obj, ann, inflation)
        if box3d is None:
            skipped += 1
            continue
        target_by_format = {
            "hbb": serialize_location(obb_to_hbb(obj.obb)),
            "obb": serialize_location(obj.obb),
            "box3d": serialize_location(box3d),
        }
        desc = describe_object(obj)
        for fmt in GROUNDING_FORMATS:
            kind = "GROUND_3D" if fmt == "box3d" else "GROUND_2D"
            for template in templates.grounding[fmt]:
                samples.append(
                    InstructionSample(
                        image=ann.image,
                        query=template.format(target=desc),
                        aux=None,
                        target=target_by_format[fmt],
                        kind=kind,
                        task=None,
                    )
                )
    return BuildResult(tuple(samples), skipped)


def build_sqa_samples(ann: AnnotationFile, templates: TemplateSet) -> BuildResult:
    """5 numeric QA samples per object, one per spatial task."""
    samples: list[InstructionSample] = []
    skipped = 0
    for obj in ann.objects:
        try:
            center = backproject_to_ground(
                PixelPoint(obj.obb.cx, obj.obb.cy), ann.camera
            )
        except RayMissesGround:
            skipped += 1
            continue
        measures = spatial_measures(center)
        dims = obj.dims_m
        values = {
            "depth": measures.depth,
            "distance": measures.distance,
            "length": dims.length,
            "width": dims.width,
            "height": dims.height,
        }
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
    if aux_format not in ("hbb", "obb"):
        raise ValueError(f"aux_format must be 'hbb' or 'obb', got {aux_format!r}")
    samples: list[InstructionSample] = []
    skipped = 0
    for obj in ann.objects:
        box3d = _object_box3d(obj, ann, inflation)
        if box3d is None:
            skipped += 1
            continue
        loc2d = serialize_location(
            obb_to_hbb(obj.obb) if aux_format == "hbb" else obj.obb
        )
        loc3d = serialize_location(box3d)
        desc = describe_object(obj)
        for kind_key in PHASE2_KINDS:
            for template in templates.phase2[kind_key]:
                if kind_key == "ground_2d":
                    sample = InstructionSample(
                        ann.image, template.format(target=desc), None, loc2d,
                        "GROUND_2D", None,
                    )
                elif kind_key == "ground_3d":
                    sample = InstructionSample(
                        ann.image, template.format(target=desc), None, loc3d,
                        "GROUND_3D", None,
                    )
                elif kind_key == "asl":
                    sample = InstructionSample(
                        ann.image, template.format(target=desc), loc2d, loc3d,
                        "ASL", None,
                    )
                else:  # gml: text-only geometric mapping, no image
                    sample = InstructionSample(
                        None, template.format(target=desc, loc3d=loc3d), None,
                        loc2d, "GML", None,
                    )
                samples.append(sample)
    return BuildResult(tuple(samples), skipped)


def build_all(
    ann: AnnotationFile,
    templates: TemplateSet,
    aux_format: str = "hbb",
    inflation: float = 1.0,
    stages: Sequence[str] = STAGES,
) -> BuildResult:
    """The given stages (all three by default) for one record, in stage order."""
    result = BuildResult((), 0)
    if "grounding" in stages:
        result += build_grounding_samples(ann, templates, inflation)
    if "sqa" in stages:
        result += build_sqa_samples(ann, templates)
    if "phase2" in stages:
        result += build_phase2_samples(ann, templates, aux_format, inflation)
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
    # bytes.splitlines breaks at \n, \r\n and \r, as text-mode reading does.
    for line_num, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            row = json.loads(line)
            samples.append(
                InstructionSample(
                    image=row["image"],
                    query=row["query"],
                    aux=row["aux"],
                    target=row["target"],
                    kind=row["kind"],
                    task=row["task"],
                )
            )
        # Bad UTF-8 and JSONDecodeError are ValueErrors; TypeError is a line
        # that is JSON but not an object.
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"{path}: line {line_num}: {exc}") from None
    return samples
