"""Monocular aerial 3D grounding toolkit.

Core geometry (ground-plane back-projection, 3D box derivation, BEV IoU),
instruction-set construction for spatially-aware VLM fine-tuning, evaluation
protocols, a synthetic-scene generator, a vehicle parameter table, and a
planner-executor-summarizer agent.
"""

from .boxes import (
    Box3D,
    BoxDims,
    GroundBasis,
    HorizontalBox2D,
    OrientedBox2D,
    bev_footprint,
    bev_iou,
    box3d_corners,
    derive_box3d,
    dims_from_mm,
    extract_location,
    fit_min_area_obb,
    ground_basis,
    hbb_iou,
    obb_to_hbb,
    parse_location,
    project_box3d,
    serialize_location,
    wrap_angle_half_pi,
)
from .camera import (
    HORIZON_EPS,
    CameraModel,
    CameraPoint,
    PixelPoint,
    SpatialMeasures,
    backproject_to_ground,
    project_to_pixel,
    spatial_measures,
)
from .errors import (
    Aerial3DError,
    BindingMissing,
    DegenerateVariance,
    DegenerateYaw,
    DuplicateKey,
    EmptyTable,
    IdMismatch,
    LengthMismatch,
    NonPositiveDepth,
    NotFound,
    ParseError,
    PlacementExhausted,
    PlanParseError,
    RayMissesGround,
    SchemaError,
    ToolError,
    UnknownWorkflow,
)
from .evaluation import (
    AnnotatedObject,
    AnnotationFile,
    EvalReport,
    RegressionMetrics,
    eval_attributes,
    eval_grounding,
    eval_regression,
    eval_retrieval,
    extract_numeric,
    load_annotations,
    load_predictions,
    numeric_in_meters,
    validate_annotation,
    within_5pct,
)
from .instructions import (
    BuildResult,
    InstructionSample,
    TemplateSet,
    build_all,
    build_grounding_samples,
    build_phase2_samples,
    build_sqa_samples,
    load_templates,
    read_samples,
    write_samples,
)
from .synth import Scene, SceneConfig, generate_scene, verify_roundtrip, write_scene
from .vehicles import (
    VehicleRecord,
    VehicleTable,
    load_table,
    lookup,
    match_dimensions,
    min_pairwise_gap,
    packaged_table_path,
)

__version__ = "0.1.0"
