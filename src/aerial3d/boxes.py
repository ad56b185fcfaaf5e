"""2D boxes, ground-plane 3D cuboids, BEV IoU, and location wire formats.

Ground frame
------------
A camera with pitch from the horizontal sees the ground plane
-cos(pitch)*y - sin(pitch)*z + agl = 0. On that plane we use the
orthonormal basis

    e_lat = (1, 0, 0)                 lateral, parallel to the image x-axis
    n     = (0, -cos p, -sin p)       plane normal, pointing toward the camera
    e_lon = n x e_lat                 longitudinal, away from the camera foot

A cuboid's yaw is the rotation of its length axis within the ground plane,
measured from e_lat, and is reported modulo pi (vehicles carry no heading
annotation, so direction is ambiguous).

`ground_basis` returns this frame, and the per-box kernels write it in
closed form: a point's in-plane coordinates are u = x, v = -sin(p)*y +
cos(p)*z. `bev_iou` clips one footprint polygon by the other;
`bev_overlaps` answers whether that IoU is positive with a separating-axis
test, and clips only pairs within a rounding band of touching.

Annotation convention
---------------------
A vehicle's box rests on the ground (`Box3D.resting_on`), its annotation is
the min-area fit of the projected bottom face (`project_box3d(box,
cam).annotated_obb()`), and an annotation must lie within the image plus
`OBB_BOUNDS_MARGIN` (`obb_within_image`). `derive_box3d` inverts the map
with one back-projection: the OBB center's ground point is the box's, and
yaw is the ground direction of the OBB axis there, in closed form.
A projected face is a convex quad in cyclic order, so `fit_min_area_obb`
takes 4 points that turn strictly one way as their own hull, in the
monotone chain's order (CCW from the lexicographic minimum), and sorts
only other point sets through the chain. One caliper loop then fits every
hull: the quad hull skips only the sort.

Wire formats
------------
    Box3D  ->  <Xc,Yc,Zc,L,W,H,yaw_deg>      meters/degrees, 2 decimals
    OBB    ->  [cx,cy,w,h,angle_deg]         integer pixels, angle 2 decimals
    HBB    ->  [x1,y1,x2,y2]                 integer pixels

Bracket style plus field count disambiguates the three formats on parse.
A Box3D with a dimension that rounds to 0.00 has no wire form:
`serialize_location` raises ValueError rather than write a string
`parse_location` rejects.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .camera import (
    CameraModel,
    CameraPoint,
    PixelPoint,
    backproject_to_ground,
)
from .errors import DegenerateBox, NonPositiveDepth, ParseError

# A 2D polygon as a sequence of (x, y) vertices.
Polygon = Sequence[tuple[float, float]]


def wrap_angle_half_pi(angle: float) -> float:
    """Wrap an angle into [-pi/2, pi/2) (direction modulo pi)."""
    wrapped = (angle + math.pi / 2.0) % math.pi - math.pi / 2.0
    # The modulo rounds up to pi for an angle a hair below -pi/2.
    return -math.pi / 2.0 if wrapped >= math.pi / 2.0 else wrapped


@dataclass(frozen=True)
class OrientedBox2D:
    """Rotated pixel-space rectangle; angle is the long-axis direction.

    Convention: width >= height, angle in [-pi/2, pi/2) measured from the
    pixel x-axis. Use :meth:`normalized` to coerce arbitrary (w, h, angle)
    triples into this convention.
    """

    cx: float
    cy: float
    width: float
    height: float
    angle: float

    def __post_init__(self) -> None:
        if not (self.width > 0 and self.height > 0):
            raise ValueError(f"box sides must be positive, got {self.width}x{self.height}")
        if self.width < self.height:
            raise ValueError(
                f"width ({self.width}) must be >= height ({self.height}); "
                "use OrientedBox2D.normalized to swap axes"
            )
        if not -math.pi / 2 <= self.angle < math.pi / 2:
            raise ValueError(f"angle must be in [-pi/2, pi/2), got {self.angle}")

    @classmethod
    def normalized(
        cls, cx: float, cy: float, width: float, height: float, angle: float
    ) -> "OrientedBox2D":
        """Build an OBB, swapping axes / wrapping the angle into convention."""
        if width < height:
            width, height = height, width
            angle += math.pi / 2.0
        return cls(cx, cy, width, height, wrap_angle_half_pi(angle))

    def corners(self) -> Polygon:
        """Four (x, y) pixel corners in counter-clockwise order (y-down frame)."""
        return tuple(zip(*self._xs_ys()))

    def _xs_ys(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The x and the y coordinates of :meth:`corners`, in its order."""
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        hw, hh = self.width / 2.0, self.height / 2.0
        lx, ly = hw * ca, hw * sa  # half the long axis
        sx, sy = -hh * sa, hh * ca  # half the short axis
        cx, cy = self.cx, self.cy
        return (
            (cx + lx + sx, cx - lx + sx, cx - lx - sx, cx + lx - sx),
            (cy + ly + sy, cy - ly + sy, cy - ly - sy, cy + ly - sy),
        )


@dataclass(frozen=True)
class HorizontalBox2D:
    """Axis-aligned pixel rectangle with x1 < x2 and y1 < y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise DegenerateBox(
                f"degenerate box [{self.x1},{self.y1},{self.x2},{self.y2}]: "
                "need x1 < x2 and y1 < y2"
            )

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


class BoxDims(NamedTuple):
    """Cuboid dimensions in meters."""

    length: float
    width: float
    height: float


def dims_from_mm(length_mm: float, width_mm: float, height_mm: float) -> BoxDims:
    """Convert millimeter dimensions (table/annotation units) to meters."""
    return BoxDims(length_mm / 1000.0, width_mm / 1000.0, height_mm / 1000.0)


@dataclass(frozen=True)
class Box3D:
    """Ground-resting cuboid in camera coordinates.

    `center` is the geometric center of the cuboid (half the height above
    the ground plane along the plane normal); yaw rotates the length axis
    from e_lat within the plane.
    """

    center: CameraPoint
    length: float
    width: float
    height: float
    yaw: float

    def __post_init__(self) -> None:
        if not (self.length >= self.width > 0):
            raise ValueError(
                f"need length >= width > 0, got length={self.length} width={self.width}"
            )
        if not self.height > 0:
            raise ValueError(f"height must be positive, got {self.height}")

    @classmethod
    def resting_on(
        cls, ground: CameraPoint, length: float, width: float, height: float, yaw: float,
        cam: CameraModel,
    ) -> "Box3D":
        """The cuboid whose bottom face is centered on a ground-plane point.

        The center is lifted half the height along the normal
        n = (0, -cos p, -sin p).
        """
        gx, gy, gz = ground
        y, z = _lifted(gy, gz, height, math.cos(cam.pitch), math.sin(cam.pitch))
        return cls(CameraPoint(gx, y, z), length, width, height, yaw)


def _lifted(gy: float, gz: float, height: float, c: float, s: float) -> tuple[float, float]:
    """y and z of the point half `height` above the ground point (gx, gy, gz)
    along the normal, for c = cos(pitch) and s = sin(pitch); x stays gx."""
    lift = height / 2.0
    return gy - lift * c, gz - lift * s


class GroundBasis(NamedTuple):
    e_lat: CameraPoint
    e_lon: CameraPoint
    normal: CameraPoint


def ground_basis(cam: CameraModel) -> GroundBasis:
    """Orthonormal (lateral, longitudinal, normal) frame of the ground plane.

    The closed form of the frame in the module docstring, with
    e_lon = n x e_lat = (0, -sin p, cos p); it is right-handed
    (e_lat x e_lon = n) at every pitch.
    """
    c, s = math.cos(cam.pitch), math.sin(cam.pitch)
    return GroundBasis(
        CameraPoint(1.0, 0.0, 0.0), CameraPoint(0.0, -s, c), CameraPoint(0.0, -c, -s)
    )


def ground_uv(pt: CameraPoint, cam: CameraModel) -> tuple[float, float]:
    """In-plane (lateral, longitudinal) coordinates of a camera-frame point.

    The dot products with e_lat = (1, 0, 0) and e_lon = (0, -s, c).
    """
    x, y, z = pt
    c, s = math.cos(cam.pitch), math.sin(cam.pitch)
    return float(x), y * -s + z * c


def derive_box3d(obb: OrientedBox2D, dims: BoxDims, cam: CameraModel) -> Box3D:
    """Lift an annotated 2D OBB plus known metric dimensions to a 3D cuboid.

    The OBB center back-projects to the cuboid's ground-contact center
    (X, Y, Z). The image-to-ground map sends lines to lines, so the length
    axis is the derivative of the back-projection along the OBB axis (ca, sa)
    at the center, and yaw has a closed form:

        yaw = wrap_angle_half_pi(atan2(-Z*sa, ca*agl - X*cos(p)*sa))

    Derivation: a pixel at metric image point (ix, iy) lands on
    agl*(ix, iy, f)/D with D = iy*cos(p) + f*sin(p); its derivative along
    (ca, sa) has ground coordinates (u, v) proportional to
    (ca*D - ix*sa*cos(p), -f*sa), and times t = agl/D > 0 that is the
    pair above. A center below the horizon has D > 0, so the pair is never
    (0, 0). The box has the given dimensions, and its center is lifted half
    the height along the plane normal. ValueError, before the
    back-projection, unless all three dimensions are positive and finite.
    """
    return _derive(obb, dims, cam)[1]


def _derive(obb: OrientedBox2D, dims: BoxDims, cam: CameraModel) -> tuple[CameraPoint, Box3D]:
    """`derive_box3d`'s one kernel: the OBB center's ground point and the
    box over it, for `derive_box3d` and `evaluation.derive_objects` alike."""
    _check_dims(dims)
    center_ground = backproject_to_ground(PixelPoint(obb.cx, obb.cy), cam)
    gx, _, gz = center_ground
    ca, sa = math.cos(obb.angle), math.sin(obb.angle)
    yaw = math.atan2(-gz * sa, ca * cam.agl - gx * math.cos(cam.pitch) * sa)
    return center_ground, Box3D.resting_on(center_ground, *dims, wrap_angle_half_pi(yaw), cam)


def _check_dims(dims: BoxDims) -> None:
    """ValueError unless `derive_box3d`'s length, width and height are all
    positive and finite."""
    length, width, height = dims
    if not (0 < length < math.inf and 0 < width < math.inf and 0 < height < math.inf):
        raise ValueError(
            f"dimensions must be positive and finite, got {length} x {width} x {height} m"
        )


def box3d_corners(box: Box3D, cam: CameraModel) -> tuple[CameraPoint, ...]:
    """The cuboid's 8 corners: bottom face first, then the top face above it.

    Within each face the order is (+L,+W), (-L,+W), (-L,-W), (+L,-W) in the
    yaw-aligned in-plane frame; corner i+4 sits directly above corner i.
    """
    return tuple(CameraPoint(x, y, z) for x, y, z in _corner_coords(box, cam))


def _corner_coords(box: Box3D, cam: CameraModel) -> list[tuple[float, float, float]]:
    """The corners of :func:`box3d_corners` as plain (x, y, z) tuples.

    Corner = center + dl*d_yaw + dw*d_perp + dh*n with dl = +-L/2,
    dw = +-W/2, dh = +-H/2, d_yaw = cos(yaw)*e_lat + sin(yaw)*e_lon and
    d_perp = -sin(yaw)*e_lat + cos(yaw)*e_lon; the normal has no x term.
    Negating a factor negates its product exactly, so each signed term is
    one precomputed product added or subtracted in the same order.
    """
    c, s = math.cos(cam.pitch), math.sin(cam.pitch)
    ca, sa = math.cos(box.yaw), math.sin(box.yaw)
    hl, hw, hh = box.length / 2.0, box.width / 2.0, box.height / 2.0
    lx, ly, lz = hl * ca, hl * (sa * -s), hl * (sa * c)
    wx, wy, wz = hw * -sa, hw * (ca * -s), hw * (ca * c)
    hy, hz = hh * -c, hh * -s
    x, y, z = box.center
    return [
        # Bottom face (away from the camera) first, then the top face.
        (x + lx + wx, y + ly + wy - hy, z + lz + wz - hz),
        (x - lx + wx, y - ly + wy - hy, z - lz + wz - hz),
        (x - lx - wx, y - ly - wy - hy, z - lz - wz - hz),
        (x + lx - wx, y + ly - wy - hy, z + lz - wz - hz),
        (x + lx + wx, y + ly + wy + hy, z + lz + wz + hz),
        (x - lx + wx, y - ly + wy + hy, z - lz + wz + hz),
        (x - lx - wx, y - ly - wy + hy, z - lz - wz + hz),
        (x + lx - wx, y + ly - wy + hy, z + lz - wz + hz),
    ]


def _project_corners(box: Box3D, cam: CameraModel) -> tuple[list[float], list[float]]:
    """Pixel x and y lists of the corners of :func:`box3d_corners`; raises
    NonPositiveDepth if any corner lies at or behind the camera."""
    # project_to_pixel of each corner, written out.
    f, size = cam.focal_length, cam.pixel_size
    half_w, half_h = cam.image_width / 2.0, cam.image_height / 2.0
    xs, ys = [], []
    for x, y, z in _corner_coords(box, cam):
        if not z > 0:
            raise NonPositiveDepth(f"point has depth z={z}, must be > 0")
        xs.append(f * x / z / size + half_w)
        ys.append(f * y / z / size + half_h)
    return xs, ys


class ProjectedBox3D(NamedTuple):
    corners_px: tuple[PixelPoint, ...]
    hbb: HorizontalBox2D

    def annotated_obb(self) -> OrientedBox2D:
        """The box's 2D annotation: the min-area fit of its bottom face."""
        return fit_min_area_obb(self.corners_px[:4])


def project_box3d(box: Box3D, cam: CameraModel) -> ProjectedBox3D:
    """Project all 8 corners to pixels; the HBB is their axis-aligned hull.

    Raises NonPositiveDepth if any corner lies at or behind the camera.
    """
    xs, ys = _project_corners(box, cam)
    return ProjectedBox3D(
        tuple(map(PixelPoint, xs, ys)),
        HorizontalBox2D(min(xs), min(ys), max(xs), max(ys)),
    )


# --------------------------------------------------------------------------
# BEV footprints and polygon IoU
# --------------------------------------------------------------------------


def bev_footprint(box: Box3D, cam: CameraModel) -> Polygon:
    """Counter-clockwise footprint rectangle in ground (u, v) coordinates."""
    cu, cv = ground_uv(box.center, cam)
    ca, sa = math.cos(box.yaw), math.sin(box.yaw)
    hl, hw = box.length / 2.0, box.width / 2.0
    # The local corners (+-hl, +-hw) rotated by yaw; a negated factor
    # negates its product exactly, so each product is computed once.
    lc, ls, wc, ws = hl * ca, hl * sa, hw * ca, hw * sa
    corners = (
        (lc - ws + cu, ls + wc + cv),
        (-lc - ws + cu, -ls + wc + cv),
        (-lc + ws + cu, -ls - wc + cv),
        (lc + ws + cu, ls - wc + cv),
    )
    return ensure_ccw(corners)


def polygon_area(poly: Polygon) -> float:
    """Signed shoelace area; positive for counter-clockwise vertex order."""
    if len(poly) < 3:
        return 0.0
    fwd = back = 0.0
    for (x0, y0), (x1, y1) in zip(poly, (*poly[1:], poly[0])):
        fwd += x0 * y1
        back += y0 * x1
    return 0.5 * (fwd - back)


def ensure_ccw(poly: Polygon) -> Polygon:
    """Return the polygon with counter-clockwise orientation."""
    return poly if polygon_area(poly) >= 0 else poly[::-1]


def clip_convex(subject: Polygon, clipper: Polygon) -> Polygon:
    """Sutherland-Hodgman clip of a convex subject by a CCW convex clipper."""
    output = list(subject)
    for i in range(len(clipper)):
        if not output:
            break
        (ax, ay), (bx, by) = clipper[i], clipper[(i + 1) % len(clipper)]
        ex, ey = bx - ax, by - ay
        points, output = output, []
        for j in range(len(points)):
            (px, py), (qx, qy) = points[j], points[(j + 1) % len(points)]
            # Interior of a CCW clipper lies left of each edge: cross >= 0.
            p_in = ex * (py - ay) - ey * (px - ax) >= 0
            q_in = ex * (qy - ay) - ey * (qx - ax) >= 0
            if p_in:
                output.append((px, py))
            if p_in != q_in:
                # Crossing point of segment pq with the infinite edge line.
                # A segment collinear with the edge can still land here when
                # rounding puts its endpoints a few ulps on opposite sides;
                # its denominator is ~0 and the "crossing" is anywhere along
                # the shared line, so skip it (the endpoints are within
                # ~1e-12*|pq| of the line and already handled above).
                dx, dy = qx - px, qy - py
                denom = ex * dy - ey * dx
                if abs(denom) > 1e-12 * math.hypot(ex, ey) * math.hypot(dx, dy):
                    t = (ex * (ay - py) - ey * (ax - px)) / denom
                    output.append((px + t * dx, py + t * dy))
    return output


def bev_iou(a: Box3D, b: Box3D, cam: CameraModel) -> float:
    """Bird's-eye-view IoU of two cuboid footprints on the ground plane."""
    poly_a = bev_footprint(a, cam)
    poly_b = bev_footprint(b, cam)
    inter_poly = clip_convex(poly_a, poly_b)
    inter = abs(polygon_area(inter_poly))
    union = abs(polygon_area(poly_a)) + abs(polygon_area(poly_b)) - inter
    if union <= 0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


# Half-width of the band around touching, as a fraction of the footprints'
# coordinate scale, within which bev_overlaps defers to bev_iou.
_OVERLAP_BAND = 1e-6


def bev_overlaps(a: Box3D, b: Box3D, cam: CameraModel) -> bool:
    """Whether two footprints overlap: exactly ``bev_iou(a, b, cam) > 0.0``.

    A separating-axis test on the four edge normals of the two ground
    rectangles. The largest axis gap decides a pair that is apart, or
    overlaps, by more than a band around touching; a pair inside the band
    is decided by bev_iou itself, because its clip can leave a sliver of
    rounding area on touching footprints.
    """
    c, s = math.cos(cam.pitch), math.sin(cam.pitch)
    # ground_uv of both centers.
    ua, ya, za = a.center
    ub, yb, zb = b.center
    va, vb = ya * -s + za * c, yb * -s + zb * c
    ca, sa = math.cos(a.yaw), math.sin(a.yaw)
    cb, sb = math.cos(b.yaw), math.sin(b.yaw)
    hla, hwa, hlb, hwb = a.length / 2.0, a.width / 2.0, b.length / 2.0, b.width / 2.0
    du, dv = ub - ua, vb - va
    # |cos| and |sin| of the yaw difference: each axis of one box against
    # each axis of the other.
    k = abs(ca * cb + sa * sb)
    m = abs(ca * sb - sa * cb)
    gap = max(
        abs(du * ca + dv * sa) - (hla + hlb * k + hwb * m),
        abs(dv * ca - du * sa) - (hwa + hlb * m + hwb * k),
        abs(du * cb + dv * sb) - (hlb + hla * k + hwa * m),
        abs(dv * cb - du * sb) - (hwb + hla * m + hwa * k),
    )
    # Every footprint coordinate is at most `scale` in magnitude, and
    # bev_iou rounds its corners, clip tests and crossings to a few ulps of
    # that (~1e-15 * scale). Outside the band both answers follow the
    # geometry, not the rounding: a gap of 1e-6 * scale puts each vertex
    # well outside a separating edge, so the clip is empty; an overlap that
    # deep on every axis leaves an intersection of area ~1e-12 * scale**2
    # or more, far above the ~1e-15 * scale**2 rounding of its shoelace
    # sum, so the IoU is positive.
    band = _OVERLAP_BAND * (abs(ua) + abs(va) + abs(ub) + abs(vb) + hla + hwa + hlb + hwb)
    if gap > band:
        return False
    if gap < -band:
        return True
    return bev_iou(a, b, cam) > 0.0


def hbb_iou(a: HorizontalBox2D, b: HorizontalBox2D) -> float:
    """Axis-aligned intersection-over-union in [0, 1]."""
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def obb_to_hbb(obb: OrientedBox2D) -> HorizontalBox2D:
    """Axis-aligned hull of the OBB's corners."""
    return HorizontalBox2D(*_obb_hull(obb))


def _obb_hull(obb: OrientedBox2D) -> tuple[float, float, float, float]:
    """Min x, min y, max x and max y of the OBB's corners."""
    xs, ys = obb._xs_ys()
    return min(xs), min(ys), max(xs), max(ys)


# Annotated boxes may spill past the frame by at most this fraction of the
# image size (e.g. a vehicle half out of shot).
OBB_BOUNDS_MARGIN = 0.10


def obb_within_image(obb: OrientedBox2D, width: float, height: float) -> bool:
    """Whether the box's corners lie within the image bounds plus the margin.

    Raises DegenerateBox, as `obb_to_hbb` does, for a hull with no extent.
    """
    x1, y1, x2, y2 = hull = _obb_hull(obb)
    if not (x1 < x2 and y1 < y2):
        HorizontalBox2D(*hull)  # raises DegenerateBox
    return _hull_within_image(hull, width, height)


def _hull_within_image(hull: tuple[float, ...], width: float, height: float) -> bool:
    """`obb_within_image` of an OBB whose `_obb_hull` is given."""
    x1, y1, x2, y2 = hull
    mx, my = OBB_BOUNDS_MARGIN * width, OBB_BOUNDS_MARGIN * height
    return -mx <= x1 and x2 <= width + mx and -my <= y1 and y2 <= height + my


def _wire_forms_parse(obb: OrientedBox2D, hull: tuple[float, ...]) -> bool:
    """Whether `parse_location` reads back the wire forms of the OBB and of
    its hull (`_obb_hull`, the HBB `obb_to_hbb` gives). Both are written in
    whole pixels, and a side that rounds to no pixel does not parse; the
    OBB's height is its short side."""
    x1, y1, x2, y2 = hull
    return round(obb.height) >= 1 and round(x1) < round(x2) and round(y1) < round(y2)


def _check_wire_dims(dims: Sequence[float]) -> None:
    """ValueError if a dimension (m) rounds to 0.00, so that a 3D box of these
    dimensions has no wire form; `serialize_location` applies it."""
    if 0.0 in [round(v, 2) for v in dims]:
        length, width, height = dims
        raise ValueError(f"dimensions {length:g} x {width:g} x {height:g} m round to 0.00 m")


def fit_min_area_obb(points: Iterable[Sequence[float]]) -> OrientedBox2D:
    """Minimal-area rotated rectangle enclosing a 2D point set.

    Rotating-calipers over the convex hull: the optimal rectangle has one
    side collinear with a hull edge, so trying every hull-edge direction is
    exact. One caliper loop serves every hull size; a strictly convex quad
    only skips the monotone chain's sort. Raises ValueError on degenerate
    (collinear) input.
    """
    try:
        pts = [(float(x), float(y)) for x, y in points]
    except (TypeError, ValueError):
        pts = []
    if len(pts) < 3:
        raise ValueError("need at least 3 points of shape (n, 2)")
    hull = _convex_quad_hull(pts) if len(pts) == 4 else None
    if hull is None:
        hull = _convex_hull(pts)
    if len(hull) < 3:
        raise ValueError("points are collinear; no area-minimal rectangle exists")

    atan2, cos, sin = math.atan2, math.cos, math.sin
    (x, y), rest = hull[0], hull[1:]
    best = None
    for (x0, y0), (x1, y1) in zip(hull, (*rest, hull[0])):
        angle = atan2(y1 - y0, x1 - x0)
        ca, sa = cos(-angle), sin(-angle)
        # Hull in the frame rotated by -angle: this edge lies along +x.
        # min() and max() of each coordinate in one pass with the builtins'
        # strict comparisons, seeded from vertex 0, whose own comparisons
        # could never fire. lo <= hi holds throughout (or both are nan), so a
        # new minimum is never also a new maximum.
        lo_u = hi_u = x * ca - y * sa
        lo_v = hi_v = x * sa + y * ca
        for px, py in rest:
            u = px * ca - py * sa
            if u < lo_u:
                lo_u = u
            elif u > hi_u:
                hi_u = u
            v = px * sa + py * ca
            if v < lo_v:
                lo_v = v
            elif v > hi_v:
                hi_v = v
        w, h = hi_u - lo_u, hi_v - lo_v
        area = w * h
        if best is None or area < best[0] - 1e-12:
            mu, mv = (lo_u + hi_u) / 2.0, (lo_v + hi_v) / 2.0
            best = (area, ca * mu + sa * mv, -sa * mu + ca * mv, w, h, angle)

    _, cx, cy, w, h, angle = best
    return OrientedBox2D.normalized(cx, cy, w, h, angle)


def _convex_quad_hull(pts: list[tuple[float, float]]) -> list[tuple[float, float]] | None:
    """`_convex_hull` of 4 points in cyclic order that turn strictly one
    way, without sorting; None for any other quad.

    Each turn must clear a margin far above its rounding error (~1e-15 of
    the largest squared coordinate), so each orientation test of the
    monotone chain has the same sign and the chain keeps all four points.
    """
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = pts
    ta = (ax - dx) * (by - ay) - (ay - dy) * (bx - ax)
    tb = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
    tc = (cx - bx) * (dy - cy) - (cy - by) * (dx - cx)
    td = (dx - cx) * (ay - dy) - (dy - cy) * (ax - dx)
    margin = 1e-9 * max(ax * ax, ay * ay, bx * bx, by * by, cx * cx, cy * cy, dx * dx, dy * dy)
    # Each comparison is False for a nan turn, so nan and inf fall back.
    if ta > margin and tb > margin and tc > margin and td > margin:
        quad = pts
    elif ta < -margin and tb < -margin and tc < -margin and td < -margin:
        quad = pts[::-1]
    else:
        return None
    start = quad.index(min(quad))
    return quad[start:] + quad[:start]


def _convex_hull(pts: Polygon) -> list[tuple[float, float]]:
    """Andrew's monotone chain; returns hull vertices in CCW order."""
    # Sorted by x then y, with exact duplicates dropped to keep the
    # cross-product tests meaningful.
    pts = sorted(set(pts))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


# --------------------------------------------------------------------------
# Wire formats
# --------------------------------------------------------------------------

Location = Union[HorizontalBox2D, OrientedBox2D, Box3D]

_ANGLE_BRACKETS = re.compile(r"<([^<>]*)>")
_SQUARE_BRACKETS = re.compile(r"\[([^\[\]]*)\]")


def serialize_location(loc: Location) -> str:
    """Render a location in its text wire format (see module docstring)."""
    if isinstance(loc, Box3D):
        fields = (
            loc.center.x,
            loc.center.y,
            loc.center.z,
            loc.length,
            loc.width,
            loc.height,
            math.degrees(loc.yaw),
        )
        # parse_location rejects a zero dimension, so such a box has no
        # wire form.
        _check_wire_dims((loc.length, loc.width, loc.height))
        # round() first so values like -0.004 normalize to 0.00, not -0.00;
        # a "-0.00" would not survive a parse/serialize round trip.
        x, y, z, length, width, height, yaw = [round(v, 2) + 0.0 for v in fields]
        return f"<{x:.2f},{y:.2f},{z:.2f},{length:.2f},{width:.2f},{height:.2f},{yaw:.2f}>"
    if isinstance(loc, OrientedBox2D):
        angle_deg = round(math.degrees(loc.angle), 2) + 0.0
        return (
            f"[{round(loc.cx)},{round(loc.cy)},{round(loc.width)},{round(loc.height)},"
            f"{angle_deg:.2f}]"
        )
    if isinstance(loc, HorizontalBox2D):
        # round() of a float is already an int, so it prints without a ".0".
        return f"[{round(loc.x1)},{round(loc.y1)},{round(loc.x2)},{round(loc.y2)}]"
    raise TypeError(f"not a serializable location: {type(loc).__name__}")


def _parse_fields(body: str, where: str) -> list[float]:
    # float() strips the whitespace str.strip() does, so a well-formed body
    # converts in one pass; only a failure takes the per-field loop that
    # says which rule the body broke.
    try:
        vals = [float(p) for p in body.split(",")]
    except ValueError:
        parts = [p.strip() for p in body.split(",")]
        if any(not p for p in parts):
            raise ParseError(f"empty field in location {where!r}") from None
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"non-numeric field in location {where!r}: {exc}") from None
    if not all(map(math.isfinite, vals)):
        raise ParseError(f"non-finite field in location {where!r}")
    return vals


def _location_from(match: re.Match) -> Location:
    """The location one bracketed match spells; the one site of the format's
    rules, for `parse_location` and `scan_locations` alike."""
    where = match.group(0)
    vals = _parse_fields(match.group(1), where)
    if match.re is _ANGLE_BRACKETS:
        if len(vals) != 7:
            raise ParseError(f"3D location needs 7 fields, got {len(vals)} in {where!r}")
        x, y, z, length, width, height, yaw_deg = vals
        try:
            return Box3D(
                CameraPoint(x, y, z), length, width, height,
                wrap_angle_half_pi(math.radians(yaw_deg)),
            )
        except ValueError as exc:
            raise ParseError(f"invalid 3D box {where!r}: {exc}") from None
    try:
        if len(vals) == 4:
            return HorizontalBox2D(*vals)
        if len(vals) == 5:
            cx, cy, w, h, angle_deg = vals
            return OrientedBox2D.normalized(cx, cy, w, h, math.radians(angle_deg))
    except ValueError as exc:
        raise ParseError(f"invalid 2D box {where!r}: {exc}") from None
    raise ParseError(
        f"2D location needs 4 (HBB) or 5 (OBB) fields, got {len(vals)} in {where!r}"
    )


def parse_location(text: str) -> Location:
    """Parse a serialized HBB, OBB, or Box3D; inverse of serialize_location.

    Bracket style selects the family (<> = 3D, [] = 2D) and the field count
    selects HBB (4) vs OBB (5). Anything else raises ParseError.
    """
    stripped = text.strip()
    match = _ANGLE_BRACKETS.fullmatch(stripped) or _SQUARE_BRACKETS.fullmatch(stripped)
    if match is None:
        raise ParseError(f"no bracketed location in {text!r}")
    return _location_from(match)


def scan_locations(text: str) -> Iterator[Location]:
    """Every parseable location embedded in free text, in order of position.

    Every bracketed candidate of either kind (`<...>` or `[...]`, with no
    bracket of its own kind inside) is tried in order of its start, nested
    ones included: `"<[1,2,3,4]>"` yields the HBB inside the `<...>`
    candidate that fails to parse. Candidates that fail are skipped.
    """
    if "<" not in text:
        matches = _SQUARE_BRACKETS.finditer(text)
    elif "[" not in text:
        matches = _ANGLE_BRACKETS.finditer(text)
    else:
        matches = sorted(
            [*_ANGLE_BRACKETS.finditer(text), *_SQUARE_BRACKETS.finditer(text)],
            key=re.Match.start,
        )
    for match in matches:
        try:
            yield _location_from(match)
        except ParseError:
            continue


def extract_location(text: str) -> Location | None:
    """First parseable location embedded anywhere in free text, else None."""
    return next(scan_locations(text), None)
