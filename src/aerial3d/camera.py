"""Pinhole camera transforms and ground-plane back-projection.

Coordinate conventions used throughout the package:

  Pixel frame:   origin at the image top-left corner, x rightward,
                 y downward, units pixels. Sub-pixel values are allowed
                 and never rounded here.
  Image frame:   metric sensor plane, origin at the principal point
                 (image center), axes parallel to the pixel axes.
  Camera frame:  right-handed, X right, Y down (same direction as pixel y),
                 Z forward along the optical axis. z is the depth.

The camera is assumed to have zero roll and zero in-plane yaw; its
attitude is a single pitch angle measured from the horizontal, so
pitch = pi/2 means the optical axis points straight down (nadir).
Under those conventions the ground plane, at `agl` meters below the
camera, satisfies

    -cos(pitch) * y - sin(pitch) * z + agl = 0

in camera coordinates, and a pixel ray (x_i*t, y_i*t, f*t) strikes it at

    t = agl / (y_i * cos(pitch) + f * sin(pitch)).

All functions are pure and operate on immutable inputs.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence, Union

from .errors import NonPositiveDepth, RayMissesGround

# Rays whose plane-equation denominator falls at or below this bound (meters)
# are treated as horizon rays rather than returning near-infinite points.
HORIZON_EPS = 1e-9


class PixelPoint(NamedTuple):
    x: float
    y: float


class CameraPoint(NamedTuple):
    x: float
    y: float
    z: float


class SpatialMeasures(NamedTuple):
    depth: float
    distance: float


# Any (x, y) / (x, y, z) sequence is accepted where a point is expected.
Point2Like = Union[PixelPoint, Sequence[float]]
Point3Like = Union[CameraPoint, Sequence[float]]


def _xy(pt: Point2Like) -> tuple[float, float]:
    x, y = pt
    return float(x), float(y)


def _xyz(pt: Point3Like) -> tuple[float, float, float]:
    x, y, z = pt
    return float(x), float(y), float(z)


# A record with checks, in the form the comment above `boxes.OrientedBox2D` gives.
class _CameraModelFields(NamedTuple):
    focal_length: float
    pixel_size: float
    image_width: int
    image_height: int
    pitch: float
    agl: float


class CameraModel(_CameraModelFields):
    """Intrinsics and single-pitch extrinsics of a downward-looking camera.

    focal_length and pixel_size are in meters; pitch is in radians,
    measured from the horizontal (pi/2 = nadir); agl is the camera height
    above the ground plane in meters.
    """

    __slots__ = ()

    def __new__(
        cls, focal_length: float, pixel_size: float, image_width: int, image_height: int,
        pitch: float, agl: float,
    ) -> "CameraModel":
        if not focal_length > 0:
            raise ValueError(f"focal_length must be > 0, got {focal_length}")
        if not pixel_size > 0:
            raise ValueError(f"pixel_size must be > 0, got {pixel_size}")
        if image_width < 1 or image_height < 1:
            raise ValueError(f"image size must be >= 1x1, got {image_width}x{image_height}")
        # The frame is measured in floats, which an int past their range breaks.
        if max(image_width, image_height) > sys.float_info.max:
            raise ValueError(
                f"image size must be at most {sys.float_info.max:g} px per side, got "
                f"{image_width}x{image_height}"
            )
        if not 0 < pitch <= math.pi / 2:
            raise ValueError(f"pitch must be in (0, pi/2], got {pitch}")
        if not agl > 0:
            raise ValueError(f"agl must be > 0, got {agl}")
        return tuple.__new__(
            cls, (focal_length, pixel_size, image_width, image_height, pitch, agl)
        )

    @property
    def principal_point(self) -> PixelPoint:
        return PixelPoint(self.image_width / 2.0, self.image_height / 2.0)


def project_to_pixel(pt: Point3Like, cam: CameraModel) -> PixelPoint:
    """Perspective-project a camera-frame point onto the pixel grid.

    Raises NonPositiveDepth for points at or behind the camera plane.
    """
    x, y, z = _xyz(pt)
    if not z > 0:
        raise NonPositiveDepth(f"point has depth z={z}, must be > 0")
    # The image-plane point (f*x/z, f*y/z), in pixels about the principal point.
    f, size = cam.focal_length, cam.pixel_size
    return PixelPoint(
        f * x / z / size + cam.image_width / 2.0,
        f * y / z / size + cam.image_height / 2.0,
    )


def backproject_to_ground(pt: Point2Like, cam: CameraModel) -> CameraPoint:
    """Intersect the pixel's viewing ray with the ground plane.

    Returns the camera-frame ground point (x_i*t, y_i*t, f*t) with
    t = agl / (y_i*cos(pitch) + f*sin(pitch)). Raises RayMissesGround when
    the denominator is <= HORIZON_EPS, i.e. the pixel sits at or above the
    horizon, and when the point, or its distance from the camera, overflows
    the float range.
    """
    px, py = _xy(pt)
    # Metric image-plane coordinates about the principal point.
    size = cam.pixel_size
    ix = (px - cam.image_width / 2.0) * size
    iy = (py - cam.image_height / 2.0) * size
    f = cam.focal_length
    denom = iy * math.cos(cam.pitch) + f * math.sin(cam.pitch)
    if denom <= HORIZON_EPS:
        raise RayMissesGround(
            f"pixel ({px}, {py}) is at or above the horizon (denominator {denom:.3e})"
        )
    t = cam.agl / denom
    x, y, z = ix * t, iy * t, f * t
    # hypot is inf or nan for an inf or nan coordinate, and inf past the range.
    if not math.hypot(x, y, z) < math.inf:
        raise RayMissesGround(
            f"pixel ({px}, {py}) meets the ground beyond the float range at ({x}, {y}, {z})"
        )
    return CameraPoint(x, y, z)


def spatial_measures(pt: Point3Like) -> SpatialMeasures:
    """Depth (z) and straight-line distance from the camera origin."""
    x, y, z = _xyz(pt)
    distance = math.sqrt(x * x + y * y + z * z)
    if distance == math.inf:  # the squares overflow; hypot does not
        distance = math.hypot(x, y, z)
    return SpatialMeasures(depth=z, distance=distance)
