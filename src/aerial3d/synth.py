"""Synthetic ground-truth scenes: vehicles on a plane, forward-projected.

Scenes place catalog vehicles at random non-overlapping poses on the
ground plane, project each footprint into the image, and fit the minimal
rotated rectangle — producing exactly the annotation format the rest of
the package consumes, plus the generating 3D poses. Because every
annotation is constructed by forward projection, back-projection can be
checked against absolute truth: at nadir pitch the plane-to-image map is
a similarity, so the fitted rectangle's center and axis are the projected
ground center and axis and the round trip recovers poses to floating-point
precision. At oblique pitch the map is a proper homography, the fitted
rectangle is only an approximation of the projected footprint, and
verify_roundtrip reports the resulting consistency error instead.

Two footprints overlap when `boxes.bev_overlaps` says so, which is exactly
when their BEV IoU is positive; a candidate is tested only against placed
boxes whose ground bounding circles meet its own.

The annotation conventions live in `boxes`: a box rests on the ground
(`Box3D.resting_on`), its annotated rectangle is the fit of its projected
bottom face (`ProjectedBox3D.annotated_obb`), and each candidate's
rectangle must pass the annotation loader's own image-bounds rule
(`boxes.obb_within_image`) before it is placed, so every generated
annotation loads without the document being re-read. The placement loop
writes those steps out on plain floats: an attempt's pixel and yaw are
`Generator.random` draws scaled by the scene's spans, its lifted center
and ground coordinates come from the lift `resting_on` uses, and its one
`Box3D` is built for the overlap test and the projection.

All randomness flows from one seeded generator (`_rng`, which draws the
stream of NumPy's `default_rng`), so a fixed config yields byte-identical
output files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

from ._fsio import write_text_atomic
from ._rng import Generator
from .boxes import (
    Box3D,
    _hull_within_image,
    _lifted,
    _obb_hull,
    _project_corners,
    _wire_forms_parse,
    bev_iou,
    bev_overlaps,
    derive_box3d,
    fit_min_area_obb,
    ground_uv,
    wrap_angle_half_pi,
)
from .camera import CameraModel, CameraPoint, backproject_to_ground
from .errors import (
    IdMismatch,
    NonPositiveDepth,
    PlacementExhausted,
    RayMissesGround,
)
from .vehicles import VehicleRecord, VehicleTable

if TYPE_CHECKING:
    from .evaluation import AnnotationFile

COLORS = ("black", "white", "silver", "gray", "red", "blue", "green")
FOCAL_LENGTH = 0.01  # meters
PIXEL_SIZE = 1e-5  # meters
FRAME_MARGIN = 0.12  # center-sampling inset, fraction of frame
MAX_REJECTIONS = 2000  # placement attempts per vehicle


# A record with checks, in the form the comment above `boxes.OrientedBox2D` gives.
class _SceneConfigFields(NamedTuple):
    n_vehicles: int
    pitch_range: tuple[float, float]  # radians
    agl_range: tuple[float, float]  # meters
    seed: int
    image_width: int
    image_height: int
    ground_extent: float | None  # optional cap on |u|,|v| from center


class SceneConfig(_SceneConfigFields):
    """Generation parameters; ranges are sampled uniformly per scene."""

    __slots__ = ()

    def __new__(
        cls,
        n_vehicles: int,
        pitch_range: tuple[float, float] = (math.pi / 2, math.pi / 2),
        agl_range: tuple[float, float] = (50.0, 50.0),
        seed: int = 0,
        image_width: int = 1000,
        image_height: int = 1000,
        ground_extent: float | None = None,
    ) -> "SceneConfig":
        if n_vehicles < 0:
            raise ValueError(f"n_vehicles must be >= 0, got {n_vehicles}")
        lo, hi = pitch_range
        if not (0 < lo <= hi <= math.pi / 2):
            raise ValueError(f"pitch_range must lie in (0, pi/2], got {pitch_range}")
        lo, hi = agl_range
        if not (0 < lo <= hi < math.inf):
            raise ValueError(f"agl_range must be positive and finite, got {agl_range}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if ground_extent is not None and not ground_extent > 0:
            raise ValueError(f"ground_extent must be > 0, got {ground_extent}")
        return tuple.__new__(
            cls,
            (n_vehicles, pitch_range, agl_range, seed, image_width, image_height, ground_extent),
        )


# Still a dataclass: the benchmark's output checks call `dataclasses.replace`
# on a scene (ROADMAP item 7).
@dataclass(frozen=True)
class Scene:
    """JSON-ready annotation and ground-truth documents for one scene."""

    annotation: dict[str, Any]
    ground_truth: dict[str, Any]


def _vehicle_type(record: VehicleRecord) -> str:
    if record.length_mm < 4300:
        return "hatchback"
    if record.height_mm >= 1620:
        return "SUV"
    return "sedan"


def _overlaps_placed(
    candidate: Box3D, cu: float, cv: float, radius: float,
    placed: list[tuple[Box3D, float, float, float]], cam: CameraModel,
) -> bool:
    """Whether the candidate, whose ground bounding circle has center (cu, cv)
    and `radius`, overlaps a placed box. A footprint lies inside its bounding
    circle, so two circles that are strictly apart cannot overlap; a plain
    loop costs less per placed box than a generator."""
    for other, u, v, r in placed:
        if math.hypot(cu - u, cv - v) <= radius + r and bev_overlaps(candidate, other, cam):
            return True
    return False


def generate_scene(cfg: SceneConfig, table: VehicleTable) -> Scene:
    """Sample a scene and emit its annotation + ground-truth documents.

    Vehicles are drawn from the table without replacement while it has
    enough rows (every scene vehicle then has unique dimensions, which the
    recognition workflows rely on), with replacement otherwise. Poses are
    rejection-sampled: the ground center comes from back-projecting a
    uniform in-frame pixel, and a candidate is rejected when its footprint
    overlaps an accepted one (`bev_overlaps`, after a bounding-circle test),
    any projected corner leaves the frame, its annotated box breaks the
    loader's image-bounds rule, or the box or its hull has a side that
    rounds to no pixel in the wire format. Each attempt draws its pixel and
    yaw before any check, so the order of the checks changes no outcome.
    """
    rng = Generator(cfg.seed)
    pitch = rng.uniform(*cfg.pitch_range)
    agl = rng.uniform(*cfg.agl_range)
    width, height = cfg.image_width, cfg.image_height
    cam = CameraModel(FOCAL_LENGTH, PIXEL_SIZE, width, height, pitch, agl)

    replace = cfg.n_vehicles > len(table)
    indices = rng.choice(len(table), size=cfg.n_vehicles, replace=replace)
    records = [table.records[i] for i in indices]

    # Each placed box with its ground bounding circle (u, v, radius).
    placed: list[tuple[Box3D, float, float, float]] = []
    ann_objects: list[dict[str, Any]] = []
    gt_objects: list[dict[str, Any]] = []
    if cfg.ground_extent is not None:
        pu, pv = ground_uv(backproject_to_ground(cam.principal_point, cam), cam)
        half = cfg.ground_extent / 2.0

    # An attempt's draws: rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(),
    # so each range's low end and span are the scene's.
    x_lo, y_lo, yaw_lo = FRAME_MARGIN * width, FRAME_MARGIN * height, -math.pi / 2
    x_span = (1 - FRAME_MARGIN) * width - x_lo
    y_span = (1 - FRAME_MARGIN) * height - y_lo
    yaw_span = math.pi / 2 - yaw_lo
    random = rng.random
    c, s = math.cos(pitch), math.sin(pitch)

    for i, record in enumerate(records):
        dims = record.dims_m
        radius = math.hypot(dims.length, dims.width) / 2.0
        box: Box3D | None = None
        for _ in range(MAX_REJECTIONS):
            px = x_lo + x_span * random()
            py = y_lo + y_span * random()
            yaw = yaw_lo + yaw_span * random()
            try:
                ground = backproject_to_ground((px, py), cam)
            except RayMissesGround:
                continue
            if cfg.ground_extent is not None:
                gu, gv = ground_uv(ground, cam)
                if abs(gu - pu) > half or abs(gv - pv) > half:
                    continue
            # Box3D.resting_on(ground, *dims, yaw, cam), and ground_uv of its
            # center, from floats. Every candidate past this point either
            # meets a placed circle or reaches projection, and both need it.
            gx, gy, gz = ground
            y, z = _lifted(gy, gz, dims.height, c, s)
            cu, cv = gx, y * -s + z * c
            candidate = Box3D(CameraPoint(gx, y, z), *dims, yaw)
            # Overlap first: it rejects most candidates in a dense scene.
            if _overlaps_placed(candidate, cu, cv, radius, placed, cam):
                continue
            try:
                xs, ys = _project_corners(candidate, cam)
            except NonPositiveDepth:  # behind the camera
                continue
            # Every corner is in frame exactly when the corners' hull is, and
            # a hull with no extent is `project_box3d`'s DegenerateBox.
            if not (0 <= min(xs) < max(xs) <= width and 0 <= min(ys) < max(ys) <= height):
                continue
            # The annotation: ProjectedBox3D.annotated_obb of the bottom face.
            obb = fit_min_area_obb(zip(xs[:4], ys[:4]))
            # The loader's image-bounds rule (`obb_within_image`), and each
            # wire form must parse.
            hull = _obb_hull(obb)
            if not (_hull_within_image(hull, width, height) and _wire_forms_parse(obb, hull)):
                continue
            box = candidate
            break
        if box is None:
            raise PlacementExhausted(
                f"could not place vehicle {i} ({record.brand} {record.model}) "
                f"after {MAX_REJECTIONS} attempts"
            )
        placed.append((box, cu, cv, radius))
        ann_objects.append(
            {
                "id": f"veh{i}",
                "obb": {
                    "cx": obb.cx,
                    "cy": obb.cy,
                    "w": obb.width,
                    "h": obb.height,
                    "angle_deg": math.degrees(obb.angle),
                },
                "dims_mm": {
                    "length": record.length_mm,
                    "width": record.width_mm,
                    "height": record.height_mm,
                },
                "attributes": {
                    "brand": record.brand,
                    "model": record.model,
                    "color": rng.choice(COLORS),
                    "type": _vehicle_type(record),
                    "powertrain": record.powertrain,
                    "price": record.price,
                    "doors": record.doors,
                    "seats": record.seats,
                },
            }
        )
        gt_objects.append(
            {
                "id": f"veh{i}",
                "center": [box.center.x, box.center.y, box.center.z],
                "length": box.length,
                "width": box.width,
                "height": box.height,
                "yaw": box.yaw,
                "brand": record.brand,
                "model": record.model,
            }
        )

    camera_block = {
        "focal_length_m": FOCAL_LENGTH,
        "pixel_size_m": PIXEL_SIZE,
        "pitch_deg": math.degrees(pitch),
        "agl_m": agl,
    }
    annotation = {
        "image": f"scene_{cfg.seed:05d}.png",
        "image_width": width,
        "image_height": height,
        "camera": camera_block,
        "objects": ann_objects,
    }
    ground_truth = {
        "image": annotation["image"],
        "camera": camera_block,
        "objects": gt_objects,
    }
    return Scene(annotation, ground_truth)


def ground_truth_boxes(ground_truth: dict[str, Any]) -> dict[str, Box3D]:
    """Typed 3D boxes from a ground-truth document, keyed by object id."""
    boxes = {}
    for obj in ground_truth["objects"]:
        boxes[obj["id"]] = Box3D(
            CameraPoint(*obj["center"]),
            obj["length"],
            obj["width"],
            obj["height"],
            obj["yaw"],
        )
    return boxes


def verify_roundtrip(ann: AnnotationFile, ground_truth: dict[str, Any]) -> dict[str, Any]:
    """Compare derived 3D boxes against the generating poses.

    Returns per-scene error statistics: center error (meters), yaw error
    (radians, modulo pi), and BEV IoU between the derived and true boxes.
    """
    gt_boxes = ground_truth_boxes(ground_truth)
    ann_ids = {obj.id for obj in ann.objects}
    if ann_ids != set(gt_boxes):
        raise IdMismatch(
            f"annotation ids {sorted(ann_ids)} != ground-truth ids {sorted(gt_boxes)}"
        )
    center_errs, yaw_errs, ious = [], [], []
    for obj in ann.objects:
        truth = gt_boxes[obj.id]
        derived = derive_box3d(obj.obb, obj.dims_m, ann.camera)
        center_errs.append(math.dist(derived.center, truth.center))
        yaw_errs.append(abs(wrap_angle_half_pi(derived.yaw - truth.yaw)))
        ious.append(bev_iou(derived, truth, ann.camera))
    if not center_errs:
        return {"n": 0}
    return {
        "n": len(center_errs),
        "center_err": {"max": max(center_errs), "mean": sum(center_errs) / len(center_errs)},
        "yaw_err": {"max": max(yaw_errs), "mean": sum(yaw_errs) / len(yaw_errs)},
        "bev_iou": {"min": min(ious), "mean": sum(ious) / len(ious)},
    }


def write_scene(scene: Scene, out_dir: str | Path) -> dict[str, Path]:
    """Write annotation, ground truth, and an image placeholder to a directory."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "annotation": out_dir / "annotation.json",
        "ground_truth": out_dir / "ground_truth.json",
        "image": out_dir / scene.annotation["image"],
    }
    write_text_atomic(
        paths["annotation"], json.dumps(scene.annotation, indent=2, sort_keys=True) + "\n"
    )
    write_text_atomic(
        paths["ground_truth"],
        json.dumps(scene.ground_truth, indent=2, sort_keys=True) + "\n",
    )
    paths["image"].write_bytes(b"")  # placeholder; no rendering here
    return paths
