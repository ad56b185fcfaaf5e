"""Independent oracles used by the test suite.

These deliberately avoid the closed forms under test: the ray-ground oracle
finds the intersection by sign-change bracketing plus bisection along the
ray, the IoU oracle estimates overlap by Monte-Carlo point membership, and
the annotation oracle runs the format's JSON Schema through `jsonschema`.
Agreement between a closed form and its oracle is evidence both are right;
sharing code between them would prove nothing.

It also keeps the camera's image-plane pieces (`ImagePoint`,
`pixel_to_image`, `image_to_pixel`, `ground_denominator`,
`ground_plane_residual`). The library writes their arithmetic out inline in
its kernels; the tests compose these as the references the kernels must
match.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

import numpy as np

from aerial3d.camera import CameraModel, CameraPoint, PixelPoint


class ImagePoint(NamedTuple):
    """Metric image-plane point about the principal point, axes as pixels."""

    x: float
    y: float


def pixel_to_image(pt, cam: CameraModel) -> ImagePoint:
    """Map a pixel to metric image-plane coordinates about the principal point."""
    x, y = (float(v) for v in pt)
    return ImagePoint(
        (x - cam.image_width / 2.0) * cam.pixel_size,
        (y - cam.image_height / 2.0) * cam.pixel_size,
    )


def image_to_pixel(pt, cam: CameraModel) -> PixelPoint:
    """Exact inverse of :func:`pixel_to_image`."""
    x, y = (float(v) for v in pt)
    return PixelPoint(
        x / cam.pixel_size + cam.image_width / 2.0,
        y / cam.pixel_size + cam.image_height / 2.0,
    )


def ground_denominator(pt, cam: CameraModel) -> float:
    """Denominator of the ray/ground-plane intersection for this pixel.

    Positive and bounded away from zero for rays that strike the ground in
    front of the camera; approaches zero at the horizon.
    """
    image = pixel_to_image(pt, cam)
    return image.y * math.cos(cam.pitch) + cam.focal_length * math.sin(cam.pitch)


def ground_plane_residual(pt, cam: CameraModel) -> float:
    """Signed value of the ground-plane equation at a camera-frame point.

    Zero on the plane, positive on the camera side.
    """
    x, y, z = (float(v) for v in pt)
    return -math.cos(cam.pitch) * y - math.sin(cam.pitch) * z + cam.agl


def _height_above_plane(t: float, direction: tuple[float, float, float], cam: CameraModel) -> float:
    """Signed clearance of the ray point camera + t*direction over the ground.

    The ground plane satisfies cos(pitch)*Y + sin(pitch)*Z = agl, with the
    camera (t = 0) sitting agl meters above it.
    """
    y = direction[1] * t
    z = direction[2] * t
    return cam.agl - (math.cos(cam.pitch) * y + math.sin(cam.pitch) * z)


def bisect_ray_ground(
    pixel: PixelPoint | tuple[float, float],
    cam: CameraModel,
    iters: int = 200,
    t_max: float = 1e12,
) -> CameraPoint:
    """Ray-ground intersection by bracketing + bisection (no closed form).

    Marches the ray parameter outward by doubling until the point crosses
    below the plane, then bisects the bracket. Raises ValueError when the
    ray never reaches the ground within t_max.
    """
    img = pixel_to_image(pixel, cam)
    direction = (img.x, img.y, cam.focal_length)

    t_hi = 1.0
    while _height_above_plane(t_hi, direction, cam) > 0.0:
        t_hi *= 2.0
        if t_hi > t_max:
            raise ValueError("ray does not reach the ground plane")
    t_lo = 0.0
    for _ in range(iters):
        t_mid = 0.5 * (t_lo + t_hi)
        if _height_above_plane(t_mid, direction, cam) > 0.0:
            t_lo = t_mid
        else:
            t_hi = t_mid
    t = 0.5 * (t_lo + t_hi)
    return CameraPoint(direction[0] * t, direction[1] * t, direction[2] * t)


def _points_in_convex(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Boolean membership mask for a CCW convex polygon (vectorized)."""
    inside = np.ones(len(points), dtype=bool)
    n = len(poly)
    for i in range(n):
        a = poly[i]
        edge = poly[(i + 1) % n] - a
        rel = points - a
        cross = edge[0] * rel[:, 1] - edge[1] * rel[:, 0]
        inside &= cross >= 0.0
    return inside


def monte_carlo_iou(
    poly_a: np.ndarray,
    poly_b: np.ndarray,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> float:
    """IoU of two CCW convex polygons by uniform membership sampling.

    Samples the joint bounding box; the box measure cancels in the
    intersection/union count ratio. Standard error at 1e6 samples is well
    under 2e-3 for footprint-sized overlaps.
    """
    poly_a = np.asarray(poly_a, dtype=float)
    poly_b = np.asarray(poly_b, dtype=float)
    lo = np.minimum(poly_a.min(axis=0), poly_b.min(axis=0))
    hi = np.maximum(poly_a.max(axis=0), poly_b.max(axis=0))
    rng = np.random.default_rng(seed)
    points = rng.uniform(lo, hi, size=(n_samples, 2))
    in_a = _points_in_convex(points, poly_a)
    in_b = _points_in_convex(points, poly_b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


ANNOTATION_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["image", "image_width", "image_height", "camera", "objects"],
    "properties": {
        "image": {"type": "string"},
        "image_width": {"type": "integer", "minimum": 1},
        "image_height": {"type": "integer", "minimum": 1},
        "camera": {
            "type": "object",
            "required": ["focal_length_m", "pixel_size_m", "pitch_deg", "agl_m"],
            "properties": {
                "focal_length_m": {"type": "number", "exclusiveMinimum": 0},
                "pixel_size_m": {"type": "number", "exclusiveMinimum": 0},
                "pitch_deg": {"type": "number", "exclusiveMinimum": 0, "maximum": 90},
                "agl_m": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "objects": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "obb", "dims_mm"],
                "properties": {
                    "id": {"type": "string", "minLength": 1},
                    "obb": {
                        "type": "object",
                        "required": ["cx", "cy", "w", "h", "angle_deg"],
                        "properties": {
                            "cx": {"type": "number"},
                            "cy": {"type": "number"},
                            "w": {"type": "number", "exclusiveMinimum": 0},
                            "h": {"type": "number", "exclusiveMinimum": 0},
                            "angle_deg": {"type": "number"},
                        },
                    },
                    "dims_mm": {
                        "type": "object",
                        "required": ["length", "width", "height"],
                        "properties": {
                            "length": {"type": "number", "exclusiveMinimum": 0},
                            "width": {"type": "number", "exclusiveMinimum": 0},
                            "height": {"type": "number", "exclusiveMinimum": 0},
                        },
                    },
                    "attributes": {"type": "object"},
                },
            },
        },
    },
}


def _pointer(err) -> str:
    path = list(err.absolute_path)
    if err.validator == "required":
        # Point at the missing property itself, not its parent object.
        path.append(err.message.split("'")[1])
    return "/" + "/".join(str(p) for p in path)


def jsonschema_pointers(doc: Any) -> tuple[str | None, set[str]]:
    """Schema check of an annotation document by `jsonschema`.

    Returns the pointer of jsonschema's best match (None for a valid
    document) and the pointers of all its errors. Only the schema: the
    duplicate-id and image-bounds checks are not part of it.
    """
    import jsonschema

    validator = jsonschema.Draft202012Validator(ANNOTATION_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        return None, set()
    best = jsonschema.exceptions.best_match(errors)
    return _pointer(best), {_pointer(e) for e in errors}
