"""Independent oracles used by the test suite.

These deliberately avoid the closed forms under test: the ray-ground oracle
finds the intersection by sign-change bracketing plus bisection along the
ray, the IoU oracle estimates overlap by Monte-Carlo point membership, and
the annotation oracle runs the format's JSON Schema through `jsonschema`.
Agreement between a closed form and its oracle is evidence both are right;
sharing code between them would prove nothing.

The wire parser oracle is the straightforward text parser `aerial3d.boxes`
once had: every bracketed candidate of both kinds collected and sorted by
position, each re-stripped and re-matched by `parse_location`, each field
stripped and converted one by one, and 2D boxes joined field by field. The
library's parser takes one regex pass and one float pass per location; it
must give the same locations, the same errors and the same bytes.

The agent oracles are the hops `aerial3d.agent` once took: the planner
reply's fence found by one lazy DOTALL regex, and each "$name.field"
reference resolved by a whole-value `fullmatch`, else by `re.sub` with a
lookup per match. The library finds the fence's opening alone and the
closing with `str.find`, and splits each argument around its references
once; it must select the same JSON and resolve to the same values and
errors.

The placement oracles are the loops synthesis once ran per candidate: the
minimum-area fit's caliper loop over any hull, each vertex in a loop with
strict min and max updates, and an OBB's hull as min and max over its
zipped corners. The library writes the 4-vertex caliper and the hull out;
they must give the same floats, by `repr`, and the same errors.

The yaw oracles are two. `derive_box3d_probes` is the construction
`derive_box3d` once used: two back-projected probes +-height/4 px along the
OBB axis, yaw from their ground displacement, with its two extra failure
paths (a probe that misses the ground, probes that meet at one ground
point). `exact_chord_yaw` computes the same chord in `fractions.Fraction`
at 1e-6 px: in exact arithmetic, probes placed symmetrically about a
center below the horizon give a chord parallel to the tangent of the axis's
ground image, for any offset, so its yaw is the true one for the float
inputs. The library takes yaw from that tangent in closed form.

It also keeps the camera's image-plane pieces (`ImagePoint`,
`pixel_to_image`, `image_to_pixel`, `ground_denominator`,
`ground_plane_residual`). The library writes their arithmetic out inline in
its kernels; the tests compose these as the references the kernels must
match.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Any, Iterator, NamedTuple

import numpy as np

from aerial3d.boxes import (
    Box3D,
    BoxDims,
    HorizontalBox2D,
    Location,
    OrientedBox2D,
    _convex_hull,
    _convex_quad_hull,
    wrap_angle_half_pi,
)
from aerial3d.camera import CameraModel, CameraPoint, PixelPoint, backproject_to_ground
from aerial3d.errors import ParseError


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


# --------------------------------------------------------------------------
# Reference wire parser
# --------------------------------------------------------------------------

_ANGLE_BRACKETS = re.compile(r"<([^<>]*)>")
_SQUARE_BRACKETS = re.compile(r"\[([^\[\]]*)\]")


def serialize_location(loc: Location) -> str:
    """The 2D branches of the reference serializer (HBB and OBB only)."""
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


def scan_locations(text: str) -> Iterator[Location]:
    """Every parseable location embedded in free text, in order of position."""
    matches = [*_ANGLE_BRACKETS.finditer(text), *_SQUARE_BRACKETS.finditer(text)]
    for match in sorted(matches, key=re.Match.start):
        try:
            yield parse_location(match.group(0))
        except ParseError:
            continue


# --------------------------------------------------------------------------
# Reference placement kernels
# --------------------------------------------------------------------------


def fit_min_area_obb(points) -> OrientedBox2D:
    """The minimum-area fit with one caliper loop for every hull size."""
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

    best = None
    for (x0, y0), (x1, y1) in zip(hull, (*hull[1:], hull[0])):
        angle = math.atan2(y1 - y0, x1 - x0)
        ca, sa = math.cos(-angle), math.sin(-angle)
        x, y = hull[0]
        lo_u = hi_u = x * ca - y * sa
        lo_v = hi_v = x * sa + y * ca
        for x, y in hull:
            u, v = x * ca - y * sa, x * sa + y * ca
            if u < lo_u:
                lo_u = u
            elif u > hi_u:
                hi_u = u
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


def obb_corners(obb: OrientedBox2D) -> tuple[tuple[float, float], ...]:
    """Four (x, y) corners in `OrientedBox2D.corners` order, one tuple each."""
    ca, sa = math.cos(obb.angle), math.sin(obb.angle)
    hw, hh = obb.width / 2.0, obb.height / 2.0
    lx, ly = hw * ca, hw * sa
    sx, sy = -hh * sa, hh * ca
    cx, cy = obb.cx, obb.cy
    return (
        (cx + lx + sx, cy + ly + sy),
        (cx - lx + sx, cy - ly + sy),
        (cx - lx - sx, cy - ly - sy),
        (cx + lx - sx, cy + ly - sy),
    )


def obb_hull(obb: OrientedBox2D) -> tuple[float, float, float, float]:
    """Min x, min y, max x and max y of the zipped corners."""
    xs, ys = zip(*obb_corners(obb))
    return min(xs), min(ys), max(xs), max(ys)


# --------------------------------------------------------------------------
# Reference yaw
# --------------------------------------------------------------------------


class CoincidentProbes(Exception):
    """`derive_box3d_probes` found its two probes at one ground point."""


def derive_box3d_probes(obb: OrientedBox2D, dims: BoxDims, cam: CameraModel) -> Box3D:
    """The box with yaw from two probes +-height/4 px along the OBB axis.

    Raises RayMissesGround where the center or a probe misses the ground,
    and CoincidentProbes where the probes' ground displacement is under
    1e-12 m.
    """
    center_ground = backproject_to_ground(PixelPoint(obb.cx, obb.cy), cam)
    c, s = math.cos(cam.pitch), math.sin(cam.pitch)
    delta = obb.height / 4.0
    ca, sa = math.cos(obb.angle), math.sin(obb.angle)
    probe_fwd = backproject_to_ground(
        PixelPoint(obb.cx + delta * ca, obb.cy + delta * sa), cam
    )
    probe_back = backproject_to_ground(
        PixelPoint(obb.cx - delta * ca, obb.cy - delta * sa), cam
    )
    # ground_uv of the probes' displacement.
    u = probe_fwd.x - probe_back.x
    v = (probe_fwd.y - probe_back.y) * -s + (probe_fwd.z - probe_back.z) * c
    if math.hypot(u, v) < 1e-12:
        raise CoincidentProbes(
            f"yaw probes around ({obb.cx}, {obb.cy}) back-project to coincident points"
        )
    yaw = wrap_angle_half_pi(math.atan2(v, u))
    return Box3D.resting_on(center_ground, *dims, yaw, cam)


def exact_chord_yaw(obb: OrientedBox2D, cam: CameraModel, delta: float = 1e-6) -> float:
    """Yaw of the ground chord between probes +-delta px along the OBB axis.

    Every step is exact in Fraction, from the float inputs (the pixel, the
    camera fields and the float cos and sin of pitch and angle) to the
    chord; only its direction is rounded, once per component, to a float.
    Not wrapped: compare modulo pi.
    """
    c, s = Fraction(math.cos(cam.pitch)), Fraction(math.sin(cam.pitch))
    ca, sa = Fraction(math.cos(obb.angle)), Fraction(math.sin(obb.angle))
    f, size, agl = Fraction(cam.focal_length), Fraction(cam.pixel_size), Fraction(cam.agl)
    ox = Fraction(obb.cx) - Fraction(cam.image_width, 2)
    oy = Fraction(obb.cy) - Fraction(cam.image_height, 2)
    step = Fraction(delta)

    def ground(sign: int) -> tuple[Fraction, Fraction, Fraction]:
        ix, iy = (ox + sign * step * ca) * size, (oy + sign * step * sa) * size
        t = agl / (iy * c + f * s)
        return ix * t, iy * t, f * t

    (x1, y1, z1), (x0, y0, z0) = ground(1), ground(-1)
    u, v = x1 - x0, (y1 - y0) * -s + (z1 - z0) * c
    scale = max(abs(u), abs(v))
    return math.atan2(v / scale, u / scale)


def yaw_tolerance(obb: OrientedBox2D, cam: CameraModel) -> float:
    """4e-15 rad, plus what rounding the back-projection's denominator moves yaw.

    Yaw is atan2(-f*sa, ca*D - ix*sa*cos(p)) with D = iy*cos(p) + f*sin(p).
    Near the horizon D cancels, and the few roundings that give the float D
    (of iy, of two products and of their sum) move it by up to
    4 * 2**-53 * (|iy*cos(p)| + f*sin(p)), whatever formula follows; yaw
    moves by that times |dyaw/dD| = |f*sa*ca| / (u**2 + v**2).
    """
    c, s = math.cos(cam.pitch), math.sin(cam.pitch)
    ca, sa = math.cos(obb.angle), math.sin(obb.angle)
    f = cam.focal_length
    ix = (obb.cx - cam.image_width / 2.0) * cam.pixel_size
    iy = (obb.cy - cam.image_height / 2.0) * cam.pixel_size
    u, v = ca * (iy * c + f * s) - ix * sa * c, -f * sa
    rounding = 4 * 2.0**-53 * (abs(iy * c) + f * s)
    return 4e-15 + abs(f * sa * ca) / (u * u + v * v) * rounding


def yaw_error(yaw: float, reference: float) -> float:
    """|yaw - reference| modulo pi (directions carry no heading)."""
    return abs(math.remainder(yaw - reference, math.pi))


# --------------------------------------------------------------------------
# Reference agent hops
# --------------------------------------------------------------------------

FENCED = re.compile(r"```(?:json)?\s*\n(.*?)```", re.DOTALL)
REF_PATTERN = re.compile(r"\$([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?")


def plan_body(text: str) -> str:
    """The JSON a planner reply holds: the first fenced body, else the text."""
    match = FENCED.search(text)
    return match.group(1) if match else text


def iter_refs(args: dict[str, Any]) -> Iterator[tuple[str, str | None]]:
    """All ($name, field-or-None) references inside a step's arguments."""
    for value in args.values():
        if isinstance(value, str):
            for match in REF_PATTERN.finditer(value):
                yield match.group(1), match.group(2)


def _lookup_ref(outputs: dict[str, Any], name: str, fieldname: str | None) -> Any:
    value = outputs[name]
    if fieldname is None:
        return value
    if isinstance(value, dict) and fieldname in value:
        return value[fieldname]
    raise KeyError(f"output ${name} has no field {fieldname!r}")


def resolve_value(value: Any, outputs: dict[str, Any]) -> Any:
    """A whole-value reference becomes its output; any other text has each
    reference replaced by str() of its output."""
    if not isinstance(value, str):
        return value
    whole = REF_PATTERN.fullmatch(value)
    if whole:
        return _lookup_ref(outputs, whole.group(1), whole.group(2))
    return REF_PATTERN.sub(
        lambda m: str(_lookup_ref(outputs, m.group(1), m.group(2))), value
    )
