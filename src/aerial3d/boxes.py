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

Wire formats
------------
    Box3D  ->  <Xc,Yc,Zc,L,W,H,yaw_deg>      meters/degrees, 2 decimals
    OBB    ->  [cx,cy,w,h,angle_deg]         integer pixels, angle 2 decimals
    HBB    ->  [x1,y1,x2,y2]                 integer pixels

Bracket style plus field count disambiguates the three formats on parse.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

from .camera import (
    CameraModel,
    CameraPoint,
    PixelPoint,
    backproject_to_ground,
    project_to_pixel,
)
from .errors import DegenerateYaw, ParseError

# Yaw probes closer together than this (meters) cannot define a direction.
_YAW_BASELINE_EPS = 1e-12

# A 2D polygon as a sequence of (x, y) vertices.
Polygon = Sequence[tuple[float, float]]


def wrap_angle_half_pi(angle: float) -> float:
    """Wrap an angle into [-pi/2, pi/2) (direction modulo pi)."""
    return (angle + math.pi / 2.0) % math.pi - math.pi / 2.0


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
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        hw, hh = self.width / 2.0, self.height / 2.0
        lx, ly = hw * ca, hw * sa  # half the long axis
        sx, sy = -hh * sa, hh * ca  # half the short axis
        cx, cy = self.cx, self.cy
        return (
            (cx + lx + sx, cy + ly + sy),
            (cx - lx + sx, cy - ly + sy),
            (cx - lx - sx, cy - ly - sy),
            (cx + lx - sx, cy + ly - sy),
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
            raise ValueError(
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


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def ground_uv(pt: CameraPoint, cam: CameraModel) -> tuple[float, float]:
    """In-plane (lateral, longitudinal) coordinates of a camera-frame point."""
    e_lat, e_lon, _ = ground_basis(cam)
    return _dot(pt, e_lat), _dot(pt, e_lon)


def derive_box3d(
    obb: OrientedBox2D,
    dims: BoxDims,
    cam: CameraModel,
    inflation: float = 1.0,
) -> Box3D:
    """Lift an annotated 2D OBB plus known metric dimensions to a 3D cuboid.

    The OBB center back-projects to the cuboid's ground-contact center. Yaw
    comes from back-projecting two probe points offset +-height/4 pixels
    along the OBB long axis: the plane-to-image map sends lines to lines, so
    the probes' ground displacement lies exactly along the vehicle's length
    axis. Dimensions are scaled by `inflation` (annotation boxes are often
    drawn slightly larger than the vehicle), and the center is lifted half
    the inflated height along the plane normal.
    """
    if inflation <= 0:
        raise ValueError(f"inflation must be positive, got {inflation}")
    e_lat, e_lon, normal = ground_basis(cam)

    center_ground = backproject_to_ground(PixelPoint(obb.cx, obb.cy), cam)

    delta = obb.height / 4.0
    ca, sa = math.cos(obb.angle), math.sin(obb.angle)
    probe_fwd = backproject_to_ground(
        PixelPoint(obb.cx + delta * ca, obb.cy + delta * sa), cam
    )
    probe_back = backproject_to_ground(
        PixelPoint(obb.cx - delta * ca, obb.cy - delta * sa), cam
    )
    displacement = tuple(f - b for f, b in zip(probe_fwd, probe_back))
    u, v = _dot(displacement, e_lat), _dot(displacement, e_lon)
    if math.hypot(u, v) < _YAW_BASELINE_EPS:
        raise DegenerateYaw(
            f"yaw probes around ({obb.cx}, {obb.cy}) back-project to coincident points"
        )
    yaw = wrap_angle_half_pi(math.atan2(v, u))

    length = dims.length * inflation
    width = dims.width * inflation
    height = dims.height * inflation
    lift = height / 2.0
    center = CameraPoint(*(g + lift * n for g, n in zip(center_ground, normal)))
    return Box3D(center, length, width, height, yaw)


def box3d_corners(box: Box3D, cam: CameraModel) -> tuple[CameraPoint, ...]:
    """The cuboid's 8 corners: bottom face first, then the top face above it.

    Within each face the order is (+L,+W), (-L,+W), (-L,-W), (+L,-W) in the
    yaw-aligned in-plane frame; corner i+4 sits directly above corner i.
    """
    e_lat, e_lon, normal = ground_basis(cam)
    ca, sa = math.cos(box.yaw), math.sin(box.yaw)
    d_yaw = [ca * a + sa * b for a, b in zip(e_lat, e_lon)]
    d_perp = [-sa * a + ca * b for a, b in zip(e_lat, e_lon)]
    hl, hw, hh = box.length / 2.0, box.width / 2.0, box.height / 2.0

    corners = []
    for sign_h in (-1.0, 1.0):  # bottom face (away from camera) first
        for sign_l, sign_w in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
            dl, dw, dh = sign_l * hl, sign_w * hw, sign_h * hh
            corners.append(
                CameraPoint(
                    *(
                        c + dl * a + dw * b + dh * n
                        for c, a, b, n in zip(box.center, d_yaw, d_perp, normal)
                    )
                )
            )
    return tuple(corners)


class ProjectedBox3D(NamedTuple):
    corners_px: tuple[PixelPoint, ...]
    hbb: HorizontalBox2D


def project_box3d(box: Box3D, cam: CameraModel) -> ProjectedBox3D:
    """Project all 8 corners to pixels; the HBB is their axis-aligned hull.

    Raises NonPositiveDepth if any corner lies at or behind the camera.
    """
    corners_px = tuple(project_to_pixel(c, cam) for c in box3d_corners(box, cam))
    xs = [p.x for p in corners_px]
    ys = [p.y for p in corners_px]
    return ProjectedBox3D(corners_px, HorizontalBox2D(min(xs), min(ys), max(xs), max(ys)))


# --------------------------------------------------------------------------
# BEV footprints and polygon IoU
# --------------------------------------------------------------------------


def bev_footprint(box: Box3D, cam: CameraModel) -> Polygon:
    """Counter-clockwise footprint rectangle in ground (u, v) coordinates."""
    cu, cv = ground_uv(box.center, cam)
    ca, sa = math.cos(box.yaw), math.sin(box.yaw)
    hl, hw = box.length / 2.0, box.width / 2.0
    local = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    corners = tuple((x * ca - y * sa + cu, x * sa + y * ca + cv) for x, y in local)
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
    xs, ys = zip(*obb.corners())
    return HorizontalBox2D(min(xs), min(ys), max(xs), max(ys))


def fit_min_area_obb(points: Sequence[Sequence[float]]) -> OrientedBox2D:
    """Minimal-area rotated rectangle enclosing a 2D point set.

    Rotating-calipers over the convex hull: the optimal rectangle has one
    side collinear with a hull edge, so trying every hull-edge direction is
    exact. Raises ValueError on degenerate (collinear) input.
    """
    try:
        pts = [(float(x), float(y)) for x, y in points]
    except (TypeError, ValueError):
        pts = []
    if len(pts) < 3:
        raise ValueError("need at least 3 points of shape (n, 2)")
    hull = _convex_hull(pts)
    if len(hull) < 3:
        raise ValueError("points are collinear; no area-minimal rectangle exists")

    best = None
    for (x0, y0), (x1, y1) in zip(hull, (*hull[1:], hull[0])):
        angle = math.atan2(y1 - y0, x1 - x0)
        ca, sa = math.cos(-angle), math.sin(-angle)
        # Hull in the frame rotated by -angle: this edge lies along +x.
        us = [x * ca - y * sa for x, y in hull]
        vs = [x * sa + y * ca for x, y in hull]
        lo_u, hi_u, lo_v, hi_v = min(us), max(us), min(vs), max(vs)
        w, h = hi_u - lo_u, hi_v - lo_v
        area = w * h
        if best is None or area < best[0] - 1e-12:
            mu, mv = (lo_u + hi_u) / 2.0, (lo_v + hi_v) / 2.0
            best = (area, ca * mu + sa * mv, -sa * mu + ca * mv, w, h, angle)

    _, cx, cy, w, h, angle = best
    return OrientedBox2D.normalized(cx, cy, w, h, angle)


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
        # round() first so values like -0.004 normalize to 0.00, not -0.00;
        # a "-0.00" would not survive a parse/serialize round trip.
        return "<" + ",".join(f"{round(v, 2) + 0.0:.2f}" for v in fields) + ">"
    if isinstance(loc, OrientedBox2D):
        ints = (loc.cx, loc.cy, loc.width, loc.height)
        angle_deg = round(math.degrees(loc.angle), 2) + 0.0
        return (
            "["
            + ",".join(str(int(round(v))) for v in ints)
            + f",{angle_deg:.2f}]"
        )
    if isinstance(loc, HorizontalBox2D):
        return (
            "["
            + ",".join(str(int(round(v))) for v in (loc.x1, loc.y1, loc.x2, loc.y2))
            + "]"
        )
    raise TypeError(f"not a serializable location: {type(loc).__name__}")


def _parse_fields(body: str, where: str) -> list[float]:
    parts = [p.strip() for p in body.split(",")]
    if any(not p for p in parts):
        raise ParseError(f"empty field in location {where!r}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"non-numeric field in location {where!r}: {exc}") from None
    if not all(map(math.isfinite, vals)):
        raise ParseError(f"non-finite field in location {where!r}")
    return vals


def parse_location(text: str) -> Location:
    """Parse a serialized HBB, OBB, or Box3D; inverse of serialize_location.

    Bracket style selects the family (<> = 3D, [] = 2D) and the field count
    selects HBB (4) vs OBB (5). Anything else raises ParseError.
    """
    stripped = text.strip()
    m = _ANGLE_BRACKETS.fullmatch(stripped)
    if m:
        vals = _parse_fields(m.group(1), stripped)
        if len(vals) != 7:
            raise ParseError(
                f"3D location needs 7 fields, got {len(vals)} in {stripped!r}"
            )
        x, y, z, length, width, height, yaw_deg = vals
        try:
            return Box3D(
                CameraPoint(x, y, z), length, width, height,
                wrap_angle_half_pi(math.radians(yaw_deg)),
            )
        except ValueError as exc:
            raise ParseError(f"invalid 3D box {stripped!r}: {exc}") from None
    m = _SQUARE_BRACKETS.fullmatch(stripped)
    if m:
        vals = _parse_fields(m.group(1), stripped)
        try:
            if len(vals) == 4:
                return HorizontalBox2D(*vals)
            if len(vals) == 5:
                cx, cy, w, h, angle_deg = vals
                return OrientedBox2D.normalized(cx, cy, w, h, math.radians(angle_deg))
        except ValueError as exc:
            raise ParseError(f"invalid 2D box {stripped!r}: {exc}") from None
        raise ParseError(
            f"2D location needs 4 (HBB) or 5 (OBB) fields, got {len(vals)} in {stripped!r}"
        )
    raise ParseError(f"no bracketed location in {text!r}")


def extract_location(text: str) -> Location | None:
    """First parseable location embedded anywhere in free text, else None."""
    candidates = []
    for m in _ANGLE_BRACKETS.finditer(text):
        candidates.append((m.start(), m.group(0)))
    for m in _SQUARE_BRACKETS.finditer(text):
        candidates.append((m.start(), m.group(0)))
    for _, token in sorted(candidates):
        try:
            return parse_location(token)
        except ParseError:
            continue
    return None
