"""Monocular aerial 3D grounding toolkit.

Core geometry (ground-plane back-projection, 3D box derivation, BEV IoU),
instruction-set construction for spatially-aware VLM fine-tuning, evaluation
protocols, a synthetic-scene generator, a vehicle parameter table, and a
planner-executor-summarizer agent.

Importing the package loads none of its modules. A name exported here
(`aerial3d.bev_iou`, `from aerial3d import load_annotations`) imports its
defining module on first use (PEP 562), and `import aerial3d.boxes` loads
the geometry and what it imports, nothing else.
"""

__version__ = "0.1.0"

# Each submodule with the names the package exports from it.
_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_MODULE_OF, *_EXPORTS]


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:  # importing a submodule binds it here
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
