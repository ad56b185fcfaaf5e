"""The scalar geometry kernels against their vector-form compositions.

`camera` and `boxes` write the ground-frame arithmetic out term by term.
Each reference below composes the pieces instead (`ground_basis`, the
image-plane maps `pixel_to_image` and `image_to_pixel` kept in `oracles`,
dot products over zipped vectors, and the list-based min/max of the
minimum-area fit), in the operation order the kernels must keep. Results
are compared exactly: with `==` and by `repr`, which also tells -0.0 from
0.0. Exceptions must match in type and message. The one exception is
`derive_box3d`'s yaw, a closed form checked against the exact chord of
`oracles` within its tolerance.
"""

import itertools
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
    _obb_hull,
    _project_corners,
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
from aerial3d.errors import NonPositiveDepth, RayMissesGround

import oracles
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


def ref_derive_box3d(obb, dims, cam):
    """The vector form of `derive_box3d`'s center and sizes. Its yaw is the
    exact chord's (`oracles.exact_chord_yaw`), which the kernel must match
    within `oracles.yaw_tolerance` rather than bit for bit."""
    _, _, normal = ground_basis(cam)
    center_ground = ref_backproject(PixelPoint(obb.cx, obb.cy), cam)
    yaw = oracles.exact_chord_yaw(obb, cam)
    lift = dims.height / 2.0
    center = CameraPoint(*(g + lift * n for g, n in zip(center_ground, normal)))
    return Box3D(center, dims.length, dims.width, dims.height, yaw)


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
    except (RayMissesGround, NonPositiveDepth) as exc:
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
        dims = (rng.uniform(3.0, 6.0), rng.uniform(1.4, 2.3), rng.uniform(1.1, 2.2))
        scale = rng.choice((1.0, 1.1, 0.85, 1.25))
        dims = BoxDims(*(v * scale for v in dims))
        got = outcome(derive_box3d, obb, dims, cam)
        want = outcome(ref_derive_box3d, obb, dims, cam)
        if not isinstance(want, Box3D):
            assert got == want  # the center misses: the same error and message
            misses += 1
            continue
        assert repr((got.center, got.length, got.width, got.height)) == repr(
            (want.center, want.length, want.width, want.height)
        )
        assert oracles.yaw_error(got.yaw, want.yaw) <= oracles.yaw_tolerance(obb, cam)
        # The probe construction this replaced, wherever it derived a box.
        try:
            probes = oracles.derive_box3d_probes(obb, dims, cam)
        except (RayMissesGround, oracles.CoincidentProbes):
            continue
        assert oracles.yaw_error(got.yaw, probes.yaw) <= 1e-11
    if pitch_deg <= 30.0:
        assert misses > 0


def test_ground_uv_keeps_signed_zeros():
    cam = CameraModel(0.01, 1e-5, 1000, 1000, math.pi / 2, 50.0)
    for pt in ((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0, 0, 0)):
        assert_same(ground_uv, ref_ground_uv, pt, cam)
    # u is x itself, so it keeps x's sign where the vector form's sum
    # -0.0 + 0.0 + 0.0 gives 0.0.
    assert repr(ground_uv((-0.0, 0.0, 5.0), cam)) == repr((-0.0, 5.0 * math.cos(math.pi / 2)))


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


def _quad_inputs(rng):
    """4-point inputs of each kind the quad path must treat as the chain
    does, by kind: those it takes and those it hands to the chain."""
    cam = CameraModel(0.01, 1e-5, 1000, 1000, math.radians(10.0), 400.0)
    kinds = {"cyclic": [], "clockwise": [], "bowtie": [], "degenerate": [], "far": []}
    for _ in range(60):
        # Squares and equal-area rectangles: every edge direction ties.
        side = rng.choice((1.0, 2.0, 0.5, 40.0))
        obb = OrientedBox2D.normalized(
            rng.uniform(0, 1000), rng.uniform(0, 1000), side * rng.choice((1.0, 2.0)), side,
            rng.choice((0.0, math.pi / 4, -math.pi / 4, math.pi / 3, rng.uniform(-1.5, 1.5))),
        )
        quad = list(obb.corners())
        start = rng.randrange(4)
        quad = quad[start:] + quad[:start]
        kinds["cyclic"].append(quad)
        kinds["clockwise"].append(quad[::-1])
        kinds["bowtie"].append([quad[0], quad[2], quad[1], quad[3]])
    kinds["degenerate"] += [
        [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.0)],  # collinear triple
        [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (2.0, 0.0)],
        [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],  # duplicate points
        [(3.0, 1.0), (0.0, 0.0), (3.0, 1.0), (0.0, 2.0)],
        [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)],  # all collinear
        [(5.0, 5.0)] * 4,
    ]
    # Signed zeros, with x ties between -0.0 and 0.0 at the lexicographic
    # minimum.
    kinds["cyclic"] += [
        [(-0.0, 0.0), (2.0, -0.0), (2.0, 1.0), (0.0, 1.0)],
        [(0.0, 1.0), (-0.0, 0.0), (2.0, -0.0), (2.0, 1.0)],
        [(0.0, -1.0), (2.0, -0.0), (1.0, 2.0), (-0.0, 1.0)],
    ]
    # Bottom faces near the horizon at pitch 10 degrees and 400 m: under a
    # pixel, some too thin for the quad path's margin.
    while len(kinds["far"]) < 150:
        try:
            ground = backproject_to_ground((rng.uniform(0, 1000), rng.uniform(300, 420)), cam)
        except RayMissesGround:
            continue
        box = Box3D.resting_on(ground, rng.uniform(3.5, 5.5), 1.8, 1.5, rng.uniform(-1.6, 1.6), cam)
        kinds["far"].append(list(project_box3d(box, cam).corners_px[:4]))
    return kinds


def test_quad_path_matches_monotone_chain_fit(monkeypatch):
    from aerial3d import boxes

    quad_hull, chain_hull = boxes._convex_quad_hull, boxes._convex_hull
    taken = []
    monkeypatch.setattr(boxes, "_convex_quad_hull", lambda pts: taken.append(
        quad_hull(pts) is not None) or quad_hull(pts))
    fallbacks = []
    monkeypatch.setattr(boxes, "_convex_hull", lambda pts: fallbacks.append(1) or chain_hull(pts))

    for kind, inputs in _quad_inputs(random.Random("quad")).items():
        del taken[:], fallbacks[:]
        for pts in inputs:
            if len(chain_hull(pts)) < 3:  # collinear: no rectangle
                with pytest.raises(ValueError, match="collinear"):
                    fit_min_area_obb(pts)
                continue
            got, want = fit_min_area_obb(pts), ref_fit_min_area_obb(pts)
            assert got == want and repr(got) == repr(want), (kind, pts)
        assert len(taken) == len(inputs)
        if kind in ("cyclic", "clockwise"):
            assert all(taken) and not fallbacks, kind
        elif kind in ("bowtie", "degenerate"):
            assert not any(taken) and len(fallbacks) == len(inputs), kind
        else:  # both paths run on far-field faces
            assert 0 < sum(taken) < len(inputs) and fallbacks, kind


# --------------------------------------------------------------------------
# Placement kernels against the loops they replaced (`oracles`)
# --------------------------------------------------------------------------

FUZZ_FITS, FUZZ_HULLS = 70_000, 30_000


def assert_same_repr(kernel, oracle, *args):
    def run(fn):
        try:
            return fn(*args)
        except ValueError as exc:
            return type(exc), str(exc)

    got = run(kernel)
    assert repr(got) == repr(run(oracle)), (kernel.__name__, args)
    return got


def _face_camera(rng, kind):
    """Nadir, oblique, or low pitch and high up, where faces near the
    horizon project to a few pixels."""
    if kind == "nadir":
        return CameraModel(0.01, 1e-5, 1000, 1000, math.pi / 2, rng.uniform(20.0, 400.0))
    if kind == "oblique":
        return CameraModel(0.01, 1e-5, 1000, 800, math.radians(rng.uniform(10.0, 89.0)),
                           rng.uniform(20.0, 200.0))
    return CameraModel(0.01, 1e-5, 1000, 1000, math.radians(rng.uniform(5.0, 15.0)),
                       rng.uniform(100.0, 400.0))


def _faces(rng, kind, cam):
    """The bottom and top faces and all 8 corners of one projected box;
    at nadir the footprint is a square half the time, so every edge of its
    image ties on area."""
    length = rng.uniform(2.5, 6.0)
    width = length if kind == "nadir" and rng.random() < 0.5 else rng.uniform(1.4, length)
    if kind == "horizon":  # rows just below the horizon
        horizon = cam.image_height / 2.0 - math.tan(cam.pitch) * cam.focal_length / cam.pixel_size
        pixel = (rng.uniform(0, 1000), horizon + rng.uniform(0.5, 80.0))
    else:
        pixel = (rng.uniform(0, cam.image_width), rng.uniform(0, cam.image_height))
    yaw = rng.choice((0.0, math.pi / 4, -math.pi / 2, rng.uniform(-math.pi / 2, math.pi / 2)))
    box = Box3D.resting_on(backproject_to_ground(pixel, cam), length, width, 1.5, yaw, cam)
    xs, ys = _project_corners(box, cam)
    corners = list(zip(xs, ys))
    return corners[:4], corners[4:], corners


def _signed_zero_quad(rng):
    """An axis-aligned rectangle at the origin, each zero of either sign."""
    w, h = rng.choice((1.0, 2.0, 0.5, 40.0)), rng.choice((1.0, 2.0, 0.5))

    def zero():
        return rng.choice((0.0, -0.0))

    return [(zero(), zero()), (w, zero()), (w, h), (zero(), h)]


def _fit_inputs(rng):
    """Endless (kind, points) pairs: faces in cyclic, clockwise and bowtie
    order, 4-vertex hulls the monotone chain finds, signed zeros, and
    general and degenerate point sets."""
    for round_ in itertools.count():
        kind = ("nadir", "oblique", "horizon")[round_ % 3]
        cam = _face_camera(rng, kind)
        try:
            bottom, top, corners = _faces(rng, kind, cam)
        except (RayMissesGround, NonPositiveDepth):
            continue
        start = rng.randrange(4)
        quad = bottom[start:] + bottom[:start]
        yield kind, quad
        yield "clockwise", quad[::-1]
        yield "bowtie", [quad[0], quad[2], quad[1], quad[3]]
        yield "top", top
        # The face with its centroid or a repeated vertex: 5 points whose
        # chain hull is the face.
        cx, cy = sum(x for x, _ in quad) / 4.0, sum(y for _, y in quad) / 4.0
        yield "chain", [*quad, (cx, cy) if rng.random() < 0.5 else quad[0]]
        yield "zeros", _signed_zero_quad(rng)
        n = rng.randint(3, 8)
        if round_ % 4 == 0:
            yield "corners", corners
        elif round_ % 4 == 1:  # a grid: ties, duplicates and collinear sets
            yield "general", [(rng.randint(0, 3) * 1.0, rng.randint(0, 3) * 1.0) for _ in range(n)]
        elif round_ % 4 == 2:
            yield "general", [(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)) for _ in range(n)]


def test_fit_matches_the_caliper_loop_oracle():
    from aerial3d import boxes

    rng = random.Random("caliper-oracle")
    hull_sizes = {}
    for i, (kind, pts) in enumerate(itertools.islice(_fit_inputs(rng), FUZZ_FITS)):
        got = assert_same_repr(fit_min_area_obb, oracles.fit_min_area_obb, pts)
        if i >= FUZZ_FITS // 4:  # the paths are tallied on the first quarter
            continue
        hull = boxes._convex_quad_hull(pts) if len(pts) == 4 else None
        path = "quad" if hull is not None else len(_convex_hull(pts))
        key = (kind, path, isinstance(got, OrientedBox2D))
        hull_sizes[key] = hull_sizes.get(key, 0) + 1
    paths = {(kind, path) for kind, path, fitted in hull_sizes if fitted}
    # Every face order takes the 4-vertex caliper, through the quad path or
    # the chain; near the horizon some faces are too thin for the quad path.
    for kind in ("nadir", "oblique", "horizon", "clockwise", "zeros"):
        assert (kind, "quad") in paths, kind
    for kind in ("bowtie", "chain", "horizon"):
        assert (kind, 4) in paths, kind
    assert {("general", 3), ("corners", 6), ("general", 5)} <= paths
    assert ("general", 2, False) in hull_sizes  # collinear: ValueError


def test_hull_matches_the_zipped_corners_oracle():
    rng = random.Random("hull-oracle")
    angles = (0.0, -0.0, -math.pi / 2, math.pi / 4, -math.pi / 4, math.pi / 3)
    for _ in range(FUZZ_HULLS):
        w = rng.choice((1.0, 2.0, rng.uniform(0.1, 200.0)))
        h = w if rng.random() < 0.2 else rng.uniform(0.05, w)
        cx, cy = (rng.choice((0.0, -0.0, rng.uniform(-100.0, 1100.0))) for _ in range(2))
        angle = rng.choice(angles) if rng.random() < 0.3 else rng.uniform(-math.pi / 2, math.pi / 2)
        obb = OrientedBox2D(cx, cy, w, h, angle)
        assert_same_repr(_obb_hull, oracles.obb_hull, obb)
        assert repr(obb.corners()) == repr(oracles.obb_corners(obb)), obb
