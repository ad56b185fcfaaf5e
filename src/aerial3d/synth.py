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

All randomness flows from one seeded generator, so a fixed config yields
byte-identical output files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ._fsio import write_text_atomic
from .boxes import (
    Box3D,
    bev_iou,
    box3d_corners,
    derive_box3d,
    fit_min_area_obb,
    ground_basis,
    ground_uv,
    wrap_angle_half_pi,
)
from .camera import (
    CameraModel,
    CameraPoint,
    PixelPoint,
    backproject_to_ground,
    project_to_pixel,
)
from .errors import IdMismatch, NonPositiveDepth, PlacementExhausted, RayMissesGround
from .evaluation import AnnotationFile, validate_annotation
from .vehicles import VehicleRecord, VehicleTable

COLORS = ("black", "white", "silver", "gray", "red", "blue", "green")


@dataclass(frozen=True)
class SceneConfig:
    """Generation parameters; ranges are sampled uniformly per scene."""

    n_vehicles: int
    pitch_range: tuple[float, float] = (math.pi / 2, math.pi / 2)  # radians
    agl_range: tuple[float, float] = (50.0, 50.0)  # meters
    seed: int = 0
    image_width: int = 1000
    image_height: int = 1000
    focal_length: float = 0.01
    pixel_size: float = 1e-5
    ground_extent: float | None = None  # optional cap on |u|,|v| from center
    frame_margin: float = 0.12  # center-sampling inset, fraction of frame
    max_rejections: int = 2000  # placement attempts per vehicle

    def __post_init__(self) -> None:
        if self.n_vehicles < 0:
            raise ValueError(f"n_vehicles must be >= 0, got {self.n_vehicles}")
        lo, hi = self.pitch_range
        if not (0 < lo <= hi <= math.pi / 2):
            raise ValueError(f"pitch_range must lie in (0, pi/2], got {self.pitch_range}")
        lo, hi = self.agl_range
        if not (0 < lo <= hi):
            raise ValueError(f"agl_range must be positive, got {self.agl_range}")
        if not 0 <= self.frame_margin < 0.5:
            raise ValueError(f"frame_margin must be in [0, 0.5), got {self.frame_margin}")


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


def _in_frame(points: list[PixelPoint], width: int, height: int) -> bool:
    return all(0 <= p.x <= width and 0 <= p.y <= height for p in points)


def generate_scene(cfg: SceneConfig, table: VehicleTable) -> Scene:
    """Sample a scene and emit its annotation + ground-truth documents.

    Vehicles are drawn from the table without replacement while it has
    enough rows (every scene vehicle then has unique dimensions, which the
    recognition workflows rely on), with replacement otherwise. Poses are
    rejection-sampled: the ground center comes from back-projecting a
    uniform in-frame pixel, and a candidate is rejected when any projected
    corner leaves the frame or its footprint overlaps an accepted one.
    """
    rng = np.random.default_rng(cfg.seed)
    pitch = float(rng.uniform(*cfg.pitch_range))
    agl = float(rng.uniform(*cfg.agl_range))
    cam = CameraModel(
        focal_length=cfg.focal_length,
        pixel_size=cfg.pixel_size,
        image_width=cfg.image_width,
        image_height=cfg.image_height,
        pitch=pitch,
        agl=agl,
    )
    normal = ground_basis(cam).normal

    replace = cfg.n_vehicles > len(table)
    indices = rng.choice(len(table), size=cfg.n_vehicles, replace=replace)
    records = [table.records[int(i)] for i in indices]

    placed_boxes: list[Box3D] = []
    ann_objects: list[dict[str, Any]] = []
    gt_objects: list[dict[str, Any]] = []
    principal_ground = None
    if cfg.ground_extent is not None:
        principal_ground = backproject_to_ground(cam.principal_point, cam)

    x_lo, x_hi = cfg.frame_margin * cfg.image_width, (1 - cfg.frame_margin) * cfg.image_width
    y_lo, y_hi = cfg.frame_margin * cfg.image_height, (1 - cfg.frame_margin) * cfg.image_height

    for i, record in enumerate(records):
        dims = record.dims_m
        box: Box3D | None = None
        for _ in range(cfg.max_rejections):
            px = float(rng.uniform(x_lo, x_hi))
            py = float(rng.uniform(y_lo, y_hi))
            yaw = float(rng.uniform(-math.pi / 2, math.pi / 2))
            try:
                ground = backproject_to_ground(PixelPoint(px, py), cam)
            except RayMissesGround:
                continue
            if principal_ground is not None:
                gu, gv = ground_uv(ground, cam)
                pu, pv = ground_uv(principal_ground, cam)
                half = cfg.ground_extent / 2.0
                if abs(gu - pu) > half or abs(gv - pv) > half:
                    continue
            lift = dims.height / 2.0
            center = CameraPoint(*(g + lift * n for g, n in zip(ground, normal)))
            candidate = Box3D(center, dims.length, dims.width, dims.height, yaw)
            try:
                corners_px = [
                    project_to_pixel(c, cam) for c in box3d_corners(candidate, cam)
                ]
            except NonPositiveDepth:
                continue
            if not _in_frame(corners_px, cfg.image_width, cfg.image_height):
                continue
            if any(bev_iou(candidate, other, cam) > 0.0 for other in placed_boxes):
                continue
            box = candidate
            break
        if box is None:
            raise PlacementExhausted(
                f"could not place vehicle {i} ({record.brand} {record.model}) "
                f"after {cfg.max_rejections} attempts"
            )
        placed_boxes.append(box)

        bottom_px = [project_to_pixel(c, cam) for c in box3d_corners(box, cam)[:4]]
        obb = fit_min_area_obb([(p.x, p.y) for p in bottom_px])
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
                    "color": str(rng.choice(COLORS)),
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
        "focal_length_m": cfg.focal_length,
        "pixel_size_m": cfg.pixel_size,
        "pitch_deg": math.degrees(pitch),
        "agl_m": agl,
    }
    annotation = {
        "image": f"scene_{cfg.seed:05d}.png",
        "image_width": cfg.image_width,
        "image_height": cfg.image_height,
        "camera": camera_block,
        "objects": ann_objects,
    }
    validate_annotation(annotation)
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


def verify_roundtrip(
    ann: AnnotationFile, ground_truth: dict[str, Any], inflation: float = 1.0
) -> dict[str, Any]:
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
        derived = derive_box3d(obj.obb, obj.dims_m, ann.camera, inflation)
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
