"""The scalar geometry kernels against their vector-form compositions.

`camera` and `boxes` write the ground-frame arithmetic out term by term.
Each reference below composes the pieces instead (`ground_basis`, the
image-plane maps `pixel_to_image` and `image_to_pixel` kept in `oracles`,
dot products over zipped vectors, and the list-based min/max of the
minimum-area fit), in the operation order the kernels must keep. Results
are compared exactly: with `==` and by `repr`, which also tells -0.0 from
0.0. Exceptions must match in type and message.
"""

import math
import random

import pytest

from aerial3d.boxes import (
    Box3D,
    BoxDims,
    HorizontalBox2D,
    OrientedBox2D,
    ProjectedBox3D,
    _convex_hull,
    bev_footprint,
    box3d_corners,
    derive_box3d,
    ensure_ccw,
    fit_min_area_obb,
    ground_basis,
    ground_uv,
    project_box3d,
    wrap_angle_half_pi,
)
from aerial3d.camera import (
    HORIZON_EPS,
    CameraModel,
    CameraPoint,
    PixelPoint,
    backproject_to_ground,
    project_to_pixel,
)
from aerial3d.errors import DegenerateYaw, NonPositiveDepth, RayMissesGround

from oracles import ImagePoint, image_to_pixel, pixel_to_image

PITCHES_DEG = (0.5, 5.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0)
SAMPLES = 150


# --------------------------------------------------------------------------
# References: the vector form, built from its pieces
# --------------------------------------------------------------------------


def ref_backproject(pt, cam):
    px, py = float(pt[0]), float(pt[1])
    image = pixel_to_image((px, py), cam)
    denom = image.y * math.cos(cam.pitch) + cam.focal_length * math.sin(cam.pitch)
    if denom <= HORIZON_EPS:
        raise RayMissesGround(
            f"pixel ({px}, {py}) is at or above the horizon (denominator {denom:.3e})"
        )
    t = cam.agl / denom
    return CameraPoint(image.x * t, image.y * t, cam.focal_length * t)


def ref_project(pt, cam):
    x, y, z = (float(v) for v in pt)
    if not z > 0:
        raise NonPositiveDepth(f"point has depth z={z}, must be > 0")
    image = ImagePoint(cam.focal_length * x / z, cam.focal_length * y / z)
    return image_to_pixel(image, cam)


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def ref_ground_uv(pt, cam):
    e_lat, e_lon, _ = ground_basis(cam)
    return dot(pt, e_lat), dot(pt, e_lon)


def ref_derive_box3d(obb, dims, cam, inflation=1.0):
    e_lat, e_lon, normal = ground_basis(cam)
    center_ground = ref_backproject(PixelPoint(obb.cx, obb.cy), cam)
    delta = obb.height / 4.0
    ca, sa = math.cos(obb.angle), math.sin(obb.angle)
    fwd = ref_backproject(PixelPoint(obb.cx + delta * ca, obb.cy + delta * sa), cam)
    back = ref_backproject(PixelPoint(obb.cx - delta * ca, obb.cy - delta * sa), cam)
    displacement = tuple(f - b for f, b in zip(fwd, back))
    u, v = dot(displacement, e_lat), dot(displacement, e_lon)
    if math.hypot(u, v) < 1e-12:
        raise DegenerateYaw(
            f"yaw probes around ({obb.cx}, {obb.cy}) back-project to coincident points"
        )
    yaw = wrap_angle_half_pi(math.atan2(v, u))
    height = dims.height * inflation
    lift = height / 2.0
    center = CameraPoint(*(g + lift * n for g, n in zip(center_ground, normal)))
    return Box3D(center, dims.length * inflation, dims.width * inflation, height, yaw)


def ref_box3d_corners(box, cam):
    e_lat, e_lon, normal = ground_basis(cam)
    ca, sa = math.cos(box.yaw), math.sin(box.yaw)
    d_yaw = [ca * a + sa * b for a, b in zip(e_lat, e_lon)]
    d_perp = [-sa * a + ca * b for a, b in zip(e_lat, e_lon)]
    hl, hw, hh = box.length / 2.0, box.width / 2.0, box.height / 2.0
    corners = []
    for sign_h in (-1.0, 1.0):
        for sign_l, sign_w in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
            dl, dw, dh = sign_l * hl, sign_w * hw, sign_h * hh
            corners.append(CameraPoint(*(
                c + dl * a + dw * b + dh * n
                for c, a, b, n in zip(box.center, d_yaw, d_perp, normal)
            )))
    return tuple(corners)


def ref_project_box3d(box, cam):
    corners_px = tuple(ref_project(c, cam) for c in ref_box3d_corners(box, cam))
    xs = [p.x for p in corners_px]
    ys = [p.y for p in corners_px]
    return ProjectedBox3D(corners_px, HorizontalBox2D(min(xs), min(ys), max(xs), max(ys)))


def ref_bev_footprint(box, cam):
    cu, cv = ref_ground_uv(box.center, cam)
    ca, sa = math.cos(box.yaw), math.sin(box.yaw)
    hl, hw = box.length / 2.0, box.width / 2.0
    local = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    return ensure_ccw(tuple((x * ca - y * sa + cu, x * sa + y * ca + cv) for x, y in local))


def ref_fit_min_area_obb(points):
    hull = _convex_hull([(float(x), float(y)) for x, y in points])
    best = None
    for (x0, y0), (x1, y1) in zip(hull, (*hull[1:], hull[0])):
        angle = math.atan2(y1 - y0, x1 - x0)
        ca, sa = math.cos(-angle), math.sin(-angle)
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


# --------------------------------------------------------------------------
# Comparison
# --------------------------------------------------------------------------


def outcome(fn, *args):
    try:
        return fn(*args)
    except (RayMissesGround, NonPositiveDepth, DegenerateYaw) as exc:
        return type(exc), str(exc)


def assert_same(kernel, reference, *args):
    got, want = outcome(kernel, *args), outcome(reference, *args)
    assert got == want and repr(got) == repr(want), (kernel.__name__, args)
    return got


def camera_at(pitch_deg, rng):
    return CameraModel(0.01, 1e-5, 1000, 800, math.radians(pitch_deg), rng.uniform(5.0, 80.0))


def sample_pixel(rng):
    """A pixel in or around the frame; at low pitch the upper rows miss."""
    return rng.uniform(-300.0, 1300.0), rng.uniform(-300.0, 1100.0)


def sample_box(rng, cam):
    """A vehicle-sized cuboid on the ground, or one straddling the camera
    plane (z <= 0 corners), or an arbitrary one in front of it."""
    length = rng.uniform(2.5, 6.0)
    width = rng.uniform(1.4, min(length, 2.3))
    height = rng.uniform(1.1, 2.2)
    yaw = rng.uniform(-math.pi / 2, math.pi / 2)
    kind = rng.random()
    if kind < 0.6:
        try:
            return Box3D(backproject_to_ground(sample_pixel(rng), cam), length, width, height, yaw)
        except RayMissesGround:  # falls back to a box near the camera plane
            pass
    depth = rng.uniform(-1.5, 3.0) if kind < 0.8 else rng.uniform(3.0, 200.0)
    center = CameraPoint(rng.uniform(-20, 20), rng.uniform(-20, 20), depth)
    return Box3D(center, length, width, height, yaw)


# --------------------------------------------------------------------------
# Tests
# --------------------------------------------------------------------------


@pytest.mark.parametrize("pitch_deg", PITCHES_DEG)
def test_camera_kernels_match_pixel_image_composition(pitch_deg):
    rng = random.Random(f"camera-{pitch_deg}")
    cam = camera_at(pitch_deg, rng)
    misses = 0
    for _ in range(SAMPLES):
        pixel = sample_pixel(rng)
        ground = assert_same(backproject_to_ground, ref_backproject, pixel, cam)
        if isinstance(ground, CameraPoint):
            assert_same(project_to_pixel, ref_project, ground, cam)
        else:
            misses += 1
        point = (rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(-2.0, 100.0))
        assert_same(project_to_pixel, ref_project, point, cam)
    assert_same(project_to_pixel, ref_project, (1.0, 2.0, 0.0), cam)
    assert_same(project_to_pixel, ref_project, (1.0, 2.0, -0.0), cam)
    if pitch_deg <= 30.0:
        assert misses > 0  # the upper rows look at or above the horizon


@pytest.mark.parametrize("pitch_deg", PITCHES_DEG)
def test_box_kernels_match_ground_basis_composition(pitch_deg):
    rng = random.Random(f"boxes-{pitch_deg}")
    cam = camera_at(pitch_deg, rng)
    behind = 0
    for _ in range(SAMPLES):
        box = sample_box(rng, cam)
        assert_same(ground_uv, ref_ground_uv, box.center, cam)
        assert_same(box3d_corners, ref_box3d_corners, box, cam)
        assert_same(bev_footprint, ref_bev_footprint, box, cam)
        projected = assert_same(project_box3d, ref_project_box3d, box, cam)
        if not isinstance(projected, ProjectedBox3D):
            behind += 1
    assert behind > 0  # some corners at or behind the camera plane


@pytest.mark.parametrize("pitch_deg", PITCHES_DEG)
def test_derive_box3d_matches_ground_basis_composition(pitch_deg):
    rng = random.Random(f"derive-{pitch_deg}")
    cam = camera_at(pitch_deg, rng)
    misses = 0
    for _ in range(SAMPLES):
        px, py = sample_pixel(rng)
        w = rng.uniform(2.0, 120.0)
        obb = OrientedBox2D.normalized(px, py, w, rng.uniform(1.0, w), rng.uniform(-2.0, 2.0))
        dims = BoxDims(rng.uniform(3.0, 6.0), rng.uniform(1.4, 2.3), rng.uniform(1.1, 2.2))
        inflation = rng.choice((1.0, 1.1, 0.85, 1.25))
        got = assert_same(derive_box3d, ref_derive_box3d, obb, dims, cam, inflation)
        misses += not isinstance(got, Box3D)
    if pitch_deg <= 30.0:
        assert misses > 0


def test_ground_uv_keeps_signed_zeros():
    cam = CameraModel(0.01, 1e-5, 1000, 1000, math.pi / 2, 50.0)
    for pt in ((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (-0.0, 0.0, 5.0), (0, 0, 0)):
        assert_same(ground_uv, ref_ground_uv, pt, cam)


@pytest.mark.parametrize("pitch_deg", PITCHES_DEG)
def test_min_area_fit_matches_list_based_fit_on_projected_faces(pitch_deg):
    rng = random.Random(f"fit-{pitch_deg}")
    cam = camera_at(pitch_deg, rng)
    fitted = 0
    for _ in range(SAMPLES):
        projected = outcome(project_box3d, sample_box(rng, cam), cam)
        if isinstance(projected, ProjectedBox3D):
            assert_same(fit_min_area_obb, ref_fit_min_area_obb, projected.corners_px[:4])
            assert_same(fit_min_area_obb, ref_fit_min_area_obb, projected.corners_px)
            fitted += 1
    assert fitted > SAMPLES // 4


def test_min_area_fit_matches_list_based_fit_on_point_sets():
    rng = random.Random("fit-sets")
    for _ in range(400):
        n = rng.randint(3, 9)
        if rng.random() < 0.3:
            # Squares and rectangles on a grid: equal-area edges exercise
            # the 1e-12 tie-break, and repeated points the hull's dedup.
            side = rng.choice((1.0, 2.0, 0.5))
            pts = [(rng.randint(0, 3) * side, rng.randint(0, 3) * side) for _ in range(n + 2)]
        else:
            pts = [(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)) for _ in range(n)]
        try:
            want = ref_fit_min_area_obb(pts)
        except (ValueError, TypeError):  # collinear, or fewer than 3 distinct points
            with pytest.raises(ValueError):
                fit_min_area_obb(pts)
            continue
        got = fit_min_area_obb(pts)
        assert got == want and repr(got) == repr(want), pts
