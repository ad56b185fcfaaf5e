"""The package's public surface: what `aerial3d` exports, and from where.

The names are recorded literally, so a change to how the package loads its
modules cannot add, drop or rebind one unnoticed.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aerial3d

_SRC = str(Path(aerial3d.__file__).resolve().parents[1])

EXPORTS = {
    "boxes": (
        "Box3D", "BoxDims", "GroundBasis", "HorizontalBox2D", "OrientedBox2D",
        "bev_footprint", "bev_iou", "box3d_corners", "derive_box3d", "dims_from_mm",
        "extract_location", "fit_min_area_obb", "ground_basis", "hbb_iou", "obb_to_hbb",
        "parse_location", "project_box3d", "serialize_location", "wrap_angle_half_pi",
    ),
    "camera": (
        "HORIZON_EPS", "CameraModel", "CameraPoint", "PixelPoint", "SpatialMeasures",
        "backproject_to_ground", "project_to_pixel", "spatial_measures",
    ),
    "errors": (
        "Aerial3DError", "BindingMissing", "DuplicateKey",
        "EmptyTable", "IdMismatch", "LengthMismatch", "NonPositiveDepth", "NotFound",
        "ParseError", "PlacementExhausted", "PlanParseError", "RayMissesGround",
        "SchemaError", "ToolError", "UnknownWorkflow",
    ),
    "evaluation": (
        "AnnotatedObject", "AnnotationFile", "EvalReport", "RegressionMetrics",
        "eval_attributes", "eval_grounding", "eval_regression", "eval_retrieval",
        "extract_numeric", "load_annotations", "load_predictions", "numeric_in_meters",
        "validate_annotation", "within_5pct",
    ),
    "instructions": (
        "BuildResult", "InstructionSample", "TemplateSet", "build_all",
        "build_grounding_samples", "build_phase2_samples", "build_sqa_samples",
        "load_templates", "read_samples", "write_samples",
    ),
    "synth": ("Scene", "SceneConfig", "generate_scene", "verify_roundtrip", "write_scene"),
    "vehicles": (
        "VehicleRecord", "VehicleTable", "load_table", "lookup", "match_dimensions",
        "min_pairwise_gap", "packaged_table_path",
    ),
}

# The public names `dir(aerial3d)` and `from aerial3d import *` give in a
# fresh interpreter: every export and the submodules that define them.
PUBLIC = sorted({*(n for names in EXPORTS.values() for n in names), *EXPORTS})


def test_export_count():
    assert sum(map(len, EXPORTS.values())) == 78
    assert len(PUBLIC) == 85


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in EXPORTS.items() for n in names]
)
def test_export_is_the_defining_modules_object(module, name):
    defining = importlib.import_module(f"aerial3d.{module}")
    assert getattr(aerial3d, name) is getattr(defining, name)


def test_dir_and_star_import_names():
    # A fresh interpreter: in this one, other tests have imported more submodules.
    # Private and dunder names are left out; they name the module's machinery.
    code = (
        "import json, aerial3d; ns = {}; exec('from aerial3d import *', ns); "
        "print(json.dumps([sorted(n for n in dir(aerial3d) if not n.startswith('_')), "
        "sorted(n for n in ns if not n.startswith('_'))]))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    from_dir, from_star = json.loads(done.stdout)
    assert from_dir == PUBLIC
    assert from_star == PUBLIC


def test_from_import_returns_submodules():
    from aerial3d import agent, boxes

    assert boxes is sys.modules["aerial3d.boxes"]
    assert agent is sys.modules["aerial3d.agent"]


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(aerial3d, "nope")
    with pytest.raises(AttributeError) as info:
        aerial3d.nope
    assert str(info.value) == "module 'aerial3d' has no attribute 'nope'"


def test_version():
    assert aerial3d.__version__ == "0.1.0"
