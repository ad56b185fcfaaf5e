import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aerial3d import boxes
from aerial3d.boxes import (
    Box3D,
    BoxDims,
    HorizontalBox2D,
    OrientedBox2D,
    bev_footprint,
    bev_iou,
    bev_overlaps,
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
    scan_locations,
    serialize_location,
    wrap_angle_half_pi,
)
from aerial3d.camera import CameraModel, CameraPoint, backproject_to_ground
from aerial3d.errors import ParseError, RayMissesGround

import oracles
from oracles import ground_plane_residual

# Location-like text: the three wire shapes with numbers of any size or kind
# (nan, inf, subnormals, huge integers), plus wrong brackets, counts and junk.
_NUMBER = st.one_of(
    st.floats(-1e4, 1e4).map(repr), st.floats().map(repr), st.integers().map(str)
)
_JUNK_FIELD = st.one_of(_NUMBER, st.text(alphabet="0123456789.eE+-_ naif", max_size=8))
_LOCATION_TEXT = st.one_of(
    st.lists(_NUMBER, min_size=7, max_size=7).map(lambda f: "<" + ",".join(f) + ">"),
    st.lists(_NUMBER, min_size=4, max_size=5).map(lambda f: "[" + ",".join(f) + "]"),
    st.builds(
        lambda brackets, fields: brackets[0] + ",".join(fields) + brackets[1],
        st.sampled_from(["<>", "[]", "<]", "[>"]),
        st.lists(_JUNK_FIELD, max_size=9),
    ),
)
_TEXT_WITH_LOCATIONS = st.lists(st.one_of(st.text(), _LOCATION_TEXT), max_size=6).map("".join)


def location_fields(loc) -> tuple[float, ...]:
    if isinstance(loc, Box3D):
        return (*loc.center, loc.length, loc.width, loc.height, loc.yaw)
    if isinstance(loc, OrientedBox2D):
        return (loc.cx, loc.cy, loc.width, loc.height, loc.angle)
    return (loc.x1, loc.y1, loc.x2, loc.y2)

CAR = BoxDims(4.5, 1.8, 1.5)


def nadir_box(u, v, length, width, yaw, height=1.5, z=50.0):
    """Box3D whose BEV footprint at nadir is centered at ground (u, v)."""
    # At nadir e_lat = +x and e_lon = -y, so ground v maps to camera -y.
    return Box3D(CameraPoint(u, -v, z), length, width, height, yaw)


def ground_box(cam, u, v, length, width, yaw, height=1.5):
    """Box3D resting on the ground plane with its footprint centered at (u, v)."""
    e_lat, e_lon, normal = ground_basis(cam)
    center = CameraPoint(
        *(u * a + v * b - (cam.agl - height / 2) * n for a, b, n in zip(e_lat, e_lon, normal))
    )
    return Box3D(center, length, width, height, yaw)


class TestAngleWrap:
    @pytest.mark.parametrize(
        "angle,expected",
        [
            (0.0, 0.0),
            (math.pi / 2, -math.pi / 2),
            (-math.pi / 2, -math.pi / 2),
            (math.pi, 0.0),
            (-3 * math.pi / 4, math.pi / 4),
            (math.pi / 4, math.pi / 4),
        ],
    )
    def test_values(self, angle, expected):
        np.testing.assert_allclose(wrap_angle_half_pi(angle), expected, atol=1e-12)

    @given(st.floats(-50, 50))
    @example(math.radians(-90.00000000000001))  # the modulo rounds up to pi
    def test_always_in_range(self, angle):
        wrapped = wrap_angle_half_pi(angle)
        assert -math.pi / 2 <= wrapped < math.pi / 2


class TestOrientedBox2D:
    def test_rejects_width_less_than_height(self):
        with pytest.raises(ValueError):
            OrientedBox2D(0, 0, 2, 4, 0.0)

    def test_normalized_swaps_axes(self):
        box = OrientedBox2D.normalized(10, 20, 2, 4, 0.0)
        assert (box.width, box.height) == (4, 2)
        np.testing.assert_allclose(box.angle, -math.pi / 2)

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(ValueError):
            OrientedBox2D(0, 0, 4, 2, math.pi / 2)

    def test_corners_axis_aligned(self):
        corners = OrientedBox2D(100, 50, 40, 20, 0.0).corners()
        expected = {(120, 60), (80, 60), (80, 40), (120, 40)}
        assert {tuple(c) for c in np.round(corners)} == expected

    def test_obb_to_hbb(self):
        hbb = obb_to_hbb(OrientedBox2D(100, 100, 40, 20, 0.0))
        assert (hbb.x1, hbb.y1, hbb.x2, hbb.y2) == (80, 90, 120, 110)


# The whole pitch range CameraModel accepts, from near-horizontal to nadir.
PITCHES_DEG = (1.0, 10.0, 30.0, 45.0, 60.0, 89.0, 90.0)


def cam_at(pitch_deg: float) -> CameraModel:
    return CameraModel(0.01, 1e-5, 1000, 1000, math.radians(pitch_deg), 50.0)


class TestGroundBasis:
    @pytest.mark.parametrize("pitch_deg", PITCHES_DEG)
    def test_orthonormal_and_right_handed(self, pitch_deg):
        basis = ground_basis(cam_at(pitch_deg))
        frame = np.array(basis)
        np.testing.assert_allclose(frame @ frame.T, np.eye(3), atol=1e-15)
        # np.cross is an independent oracle for the closed-form frame.
        np.testing.assert_allclose(
            np.cross(basis.e_lat, basis.e_lon), basis.normal, atol=1e-15
        )

    def test_nadir(self, cam_nadir):
        basis = ground_basis(cam_nadir)
        np.testing.assert_allclose(basis.e_lat, (1, 0, 0), atol=1e-15)
        np.testing.assert_allclose(basis.e_lon, (0, -1, 0), atol=1e-15)
        np.testing.assert_allclose(basis.normal, (0, 0, -1), atol=1e-15)

    def test_oblique_normal_points_at_camera(self, cam_oblique):
        basis = ground_basis(cam_oblique)
        s = math.sqrt(0.5)
        np.testing.assert_allclose(basis.normal, (0, -s, -s), atol=1e-12)
        np.testing.assert_allclose(basis.e_lon, (0, -s, s), atol=1e-12)
        # Right-handed: e_lat x e_lon points along the normal.
        np.testing.assert_allclose(
            np.cross(basis.e_lat, basis.e_lon), basis.normal, atol=1e-12
        )


class TestDeriveBox3D:
    """Hand-built nadir case: 0.05 m/px ground scale at f=1 cm, 50 m AGL.

    A 4.5 x 1.8 m car heading 30 degrees (ground frame) shows up as a
    90 x 36 px box at pixel angle -30 degrees (the v-flip between pixel y
    and longitudinal ground axis negates angles at nadir).
    """

    OBB = OrientedBox2D(540.0, 440.0, 90.0, 36.0, math.radians(-30.0))

    def test_center_and_yaw(self, cam_nadir):
        box = derive_box3d(self.OBB, CAR, cam_nadir)
        # Pixel (540, 440) is (40, -60) px off center -> ground (2, -3) m,
        # lifted half a height toward the camera.
        np.testing.assert_allclose(
            box.center, (2.0, -3.0, 50.0 - 0.75), rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(box.yaw, math.radians(30.0), atol=1e-12)
        assert (box.length, box.width, box.height) == (4.5, 1.8, 1.5)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 1e308, 0.0, -1.0])
    def test_dims_must_be_positive_and_finite(self, cam_nadir, scale):
        # inf and 1e308 (which overflows) would give boxes with infinite or
        # nan fields, and nan would fail later with an unrelated message.
        dims = BoxDims(*(v * scale for v in CAR))
        with pytest.raises(ValueError, match="dimensions must be positive and finite"):
            derive_box3d(self.OBB, dims, cam_nadir)

    @pytest.mark.parametrize("pitch_deg", PITCHES_DEG)
    def test_bottom_face_rests_on_ground(self, pitch_deg):
        # Pixel row 700 lies below the principal point, so it sees the
        # ground at every pitch, even 1 degree where the top half is sky.
        cam = cam_at(pitch_deg)
        obb = OrientedBox2D(520.0, 700.0, 80.0, 30.0, math.radians(12.0))
        box = derive_box3d(obb, CAR, cam)
        corners = box3d_corners(box, cam)
        # Rounding grows with the corners' distance: hundreds of meters at
        # 1 degree.
        tol = 1e-12 * max(math.dist((0.0, 0.0, 0.0), c) for c in corners)
        for corner in corners[:4]:
            assert abs(ground_plane_residual(corner, cam)) < tol
        # Top face floats one height above, along the plane normal.
        for corner in corners[4:]:
            np.testing.assert_allclose(ground_plane_residual(corner, cam), 1.5, atol=tol)

    def test_yaw_zero_points_along_lateral_axis(self, cam_nadir):
        obb = OrientedBox2D(500.0, 500.0, 90.0, 36.0, 0.0)
        box = derive_box3d(obb, CAR, cam_nadir)
        np.testing.assert_allclose(box.yaw, 0.0, atol=1e-12)

    def test_yaw_matches_the_exact_chord(self):
        # Pitch 0.5-90 degrees, AGL 5-400 m, focal length 10-1000 px, OBB
        # heights down to 1e-12 px, and half the centers just below the
        # horizon, where the back-projection's denominator cancels.
        rng = random.Random("exact-yaw")
        near_horizon = 0
        for _ in range(2000):
            pitch = math.radians(rng.uniform(0.5, 90.0))
            focal_px = 10 ** rng.uniform(1.0, 3.0)
            agl = math.exp(rng.uniform(math.log(5.0), math.log(400.0)))
            cam = CameraModel(focal_px * 1e-5, 1e-5, 1000, 800, pitch, agl)
            c = math.cos(pitch)
            near = rng.random() < 0.5
            if near:
                # 1e-4 / c px below the horizon row is where the float
                # denominator reaches HORIZON_EPS.
                horizon_row = 400.0 - focal_px * math.sin(pitch) / c
                cy = horizon_row + 1e-4 / c * 10 ** rng.uniform(0.01, 4.0)
            else:
                cy = rng.uniform(-300.0, 1100.0)
            height = 10 ** rng.uniform(-12.0, 1.5)
            obb = OrientedBox2D.normalized(
                rng.uniform(-300.0, 1300.0), cy, height + rng.uniform(0.0, 120.0), height,
                rng.uniform(-math.pi / 2, math.pi / 2),
            )
            try:
                backproject_to_ground((obb.cx, obb.cy), cam)
            except RayMissesGround:
                continue
            near_horizon += near
            yaw = derive_box3d(obb, CAR, cam).yaw
            error = oracles.yaw_error(yaw, oracles.exact_chord_yaw(obb, cam))
            assert error <= oracles.yaw_tolerance(obb, cam), (obb, cam)
        assert near_horizon > 500

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        pitch=st.floats(0.0, math.pi / 2, exclude_min=True),
        focal_px=st.floats(1.0, 1e5),
        agl=st.floats(0.0, 1e6, exclude_min=True),
        cx=st.floats(-1e4, 1e4),
        below_horizon_px=st.floats(0.0, 1e4),
        height=st.floats(0.0, 1e3, exclude_min=True),
        extra_width=st.floats(0.0, 1e3),
        angle=st.floats(-math.pi / 2, math.pi / 2, exclude_max=True),
        width_m=st.floats(0.0, 10.0),
        extra_length_m=st.floats(0.0, 10.0),
        height_m=st.floats(0.0, 10.0),
        scale=st.one_of(st.floats(-2.0, 2.0), st.sampled_from([math.nan, math.inf, 1e308])),
    )
    def test_every_center_that_lands_gives_a_box(
        self, pitch, focal_px, agl, cx, below_horizon_px, height, extra_width, angle,
        width_m, extra_length_m, height_m, scale,
    ):
        # Any valid OBB, over the whole pitch range (0, 90] degrees, with
        # its center anywhere from the horizon down.
        cam = CameraModel(focal_px * 1e-5, 1e-5, 1000, 800, pitch, agl)
        horizon_row = 400.0 - focal_px * math.sin(pitch) / math.cos(pitch)
        obb = OrientedBox2D(cx, horizon_row + below_horizon_px, height + extra_width, height, angle)
        # The scale reaches zero, negative, nan and overflowing dimensions.
        dims = BoxDims((width_m + extra_length_m) * scale, width_m * scale, height_m * scale)
        try:
            backproject_to_ground((obb.cx, obb.cy), cam)
        except RayMissesGround:
            assume(False)
        try:
            boxes._check_dims(dims)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                derive_box3d(obb, dims, cam)
            assert str(raised.value) == str(exc)
        else:
            assert isinstance(derive_box3d(obb, dims, cam), Box3D)


class TestProjectBox3D:
    def test_corner_count_and_hbb_bounds(self, cam_nadir):
        box = derive_box3d(TestDeriveBox3D.OBB, CAR, cam_nadir)
        projected = project_box3d(box, cam_nadir)
        assert len(projected.corners_px) == 8
        xs = [c.x for c in projected.corners_px]
        ys = [c.y for c in projected.corners_px]
        assert projected.hbb.x1 == min(xs) and projected.hbb.x2 == max(xs)
        assert projected.hbb.y1 == min(ys) and projected.hbb.y2 == max(ys)

    def test_bottom_corners_reproject_onto_obb_corners(self, cam_nadir):
        # At nadir the plane-to-image map is a similarity, so the projected
        # bottom face must be exactly the generating OBB's corner set.
        obb = TestDeriveBox3D.OBB
        box = derive_box3d(obb, CAR, cam_nadir)
        projected = project_box3d(box, cam_nadir)
        got = sorted((round(c.x, 6), round(c.y, 6)) for c in projected.corners_px[:4])
        want = sorted((round(x, 6), round(y, 6)) for x, y in obb.corners())
        np.testing.assert_allclose(got, want, atol=1e-6)


class TestHbbIoU:
    def test_hand_case(self):
        a = HorizontalBox2D(0, 0, 2, 2)
        b = HorizontalBox2D(1, 0, 3, 2)
        np.testing.assert_allclose(hbb_iou(a, b), 1.0 / 3.0)

    def test_disjoint_and_identical(self):
        a = HorizontalBox2D(0, 0, 1, 1)
        assert hbb_iou(a, HorizontalBox2D(5, 5, 6, 6)) == 0.0
        assert hbb_iou(a, a) == 1.0

    def test_containment(self):
        outer = HorizontalBox2D(0, 0, 2, 2)
        inner = HorizontalBox2D(0.5, 0.5, 1.5, 1.5)
        np.testing.assert_allclose(hbb_iou(outer, inner), 0.25)


class TestBevIoU:
    def test_identical_boxes(self, cam_nadir):
        box = nadir_box(2.0, 1.0, 4.5, 1.8, 0.4)
        np.testing.assert_allclose(bev_iou(box, box, cam_nadir), 1.0, rtol=1e-12)

    def test_near_identical_boxes_stay_finite(self, cam_nadir):
        # Two copies of the same footprint a few ulps apart: the clip edges
        # are collinear and rounding can place on-line vertices on opposite
        # sides, which must not inject an infinite crossing vertex.
        for yaw in np.linspace(-1.5, 1.5, 37):
            a = nadir_box(2.347, -1.913, 4.694, 1.850, float(yaw))
            b = Box3D(
                CameraPoint(a.center.x + 1e-15, a.center.y - 1e-15, a.center.z),
                a.length, a.width, a.height, a.yaw + 1e-16,
            )
            iou = bev_iou(a, b, cam_nadir)
            assert math.isfinite(iou)
            np.testing.assert_allclose(iou, 1.0, rtol=1e-9)

    def test_rotated_square_fixture(self, cam_nadir):
        # Concentric unit squares, one rotated 45 degrees: the intersection
        # is a regular octagon and the IoU collapses to exactly 1/sqrt(2).
        a = nadir_box(0.0, 0.0, 1.0, 1.0, 0.0)
        b = nadir_box(0.0, 0.0, 1.0, 1.0, math.pi / 4)
        np.testing.assert_allclose(bev_iou(a, b, cam_nadir), 1.0 / math.sqrt(2), rtol=1e-12)

    def test_half_shifted_squares(self, cam_nadir):
        a = nadir_box(0.0, 0.0, 1.0, 1.0, 0.0)
        b = nadir_box(0.5, 0.0, 1.0, 1.0, 0.0)
        np.testing.assert_allclose(bev_iou(a, b, cam_nadir), 1.0 / 3.0, rtol=1e-12)

    def test_disjoint(self, cam_nadir):
        a = nadir_box(0.0, 0.0, 4.5, 1.8, 0.0)
        b = nadir_box(50.0, 0.0, 4.5, 1.8, 0.0)
        assert bev_iou(a, b, cam_nadir) == 0.0

    def test_oblique_camera_same_analytic_value(self, cam_oblique):
        # The footprint lives in plane coordinates, so the camera pitch must
        # not change a BEV overlap between boxes resting on the plane.
        basis = ground_basis(cam_oblique)
        origin = CameraPoint(0.0, 25.0, 25.0)  # on the plane at 45 degrees
        center_b = CameraPoint(*(np.asarray(origin) + 0.5 * np.asarray(basis.e_lat)))
        a = Box3D(origin, 1.0, 1.0, 1.0, 0.0)
        b = Box3D(center_b, 1.0, 1.0, 1.0, 0.0)
        np.testing.assert_allclose(bev_iou(a, b, cam_oblique), 1.0 / 3.0, rtol=1e-9)

    def test_footprint_is_ccw_with_correct_area(self, cam_nadir):
        footprint = np.asarray(bev_footprint(nadir_box(1.0, 2.0, 4.5, 1.8, 0.7), cam_nadir))
        x, y = footprint[:, 0], footprint[:, 1]
        area2 = np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))
        np.testing.assert_allclose(area2 / 2.0, 4.5 * 1.8, rtol=1e-12)

    @given(
        u=st.floats(-10, 10),
        v=st.floats(-10, 10),
        du=st.floats(-5, 5),
        dv=st.floats(-5, 5),
        yaw_a=st.floats(-math.pi / 2, math.pi / 2, exclude_max=True),
        yaw_b=st.floats(-math.pi / 2, math.pi / 2, exclude_max=True),
    )
    @settings(max_examples=80, deadline=None)
    def test_symmetric_bounded_property(self, u, v, du, dv, yaw_a, yaw_b):
        cam = CameraModel(0.01, 1e-5, 1000, 1000, math.pi / 2, 50.0)
        a = nadir_box(u, v, 4.5, 1.8, yaw_a)
        b = nadir_box(u + du, v + dv, 3.9, 1.7, yaw_b)
        ab = bev_iou(a, b, cam)
        ba = bev_iou(b, a, cam)
        np.testing.assert_allclose(ab, ba, atol=1e-12)
        assert 0.0 <= ab <= 1.0


class TestBevOverlaps:
    """bev_overlaps answers exactly bev_iou(a, b, cam) > 0.0."""

    @pytest.fixture
    def iou_calls(self, monkeypatch):
        """Every bev_iou call bev_overlaps makes: its in-band fallback."""
        calls = []

        def counted(a, b, cam):
            calls.append((a, b))
            return bev_iou(a, b, cam)

        monkeypatch.setattr(boxes, "bev_iou", counted)
        return calls

    @pytest.mark.parametrize("pitch_deg", [10.0, 30.0, 45.0, 60.0, 75.0, 90.0])
    def test_agrees_with_bev_iou_near_touching(self, pitch_deg, iou_calls):
        # Corner to corner and edge to edge, 1e-12 to 1 m apart or
        # overlapping, around the ground point the principal ray hits.
        cam = CameraModel(0.01, 1e-5, 1000, 1000, math.radians(pitch_deg), 60.0)
        v_center = cam.agl / math.tan(cam.pitch)
        rng = np.random.default_rng(int(pitch_deg))

        def random_box():
            length, width = rng.uniform((3.0, 1.4), (6.0, 2.2))
            u, v = rng.uniform(-8.0, 8.0), v_center + rng.uniform(-8.0, 8.0)
            return ground_box(cam, u, v, length, width, rng.uniform(-math.pi / 2, math.pi / 2))

        def gap():
            return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 0.0)

        def uv(box):
            _, e_lon, _ = ground_basis(cam)
            return box.center.x, sum(p * e for p, e in zip(box.center, e_lon))

        def corner_to_corner(a):
            # b's (+L, +W) corner faces a's, each on its bounding circle.
            ua, va = uv(a)
            length, width = rng.uniform((3.0, 1.4), (6.0, 2.2))
            theta = a.yaw + math.atan2(a.width, a.length) + rng.normal(0.0, 1e-3)
            dist = math.hypot(a.length, a.width) / 2 + math.hypot(length, width) / 2 + gap()
            yaw_b = theta + math.pi - math.atan2(width, length) + rng.normal(0.0, 1e-3)
            return ground_box(
                cam, ua + dist * math.cos(theta), va + dist * math.sin(theta), length, width, yaw_b
            )

        def edge_to_edge(a):
            # b turned by a multiple of 90 degrees, one edge parallel to one
            # of a's, offset along that edge by less than their overlap.
            ua, va = uv(a)
            length, width = rng.uniform((3.0, 1.4), (6.0, 2.2))
            turns = int(rng.integers(4))
            side = int(rng.integers(4))
            normal = a.yaw + side * math.pi / 2
            half_a = (a.length, a.width)[side % 2] / 2
            half_a_along = (a.width, a.length)[side % 2] / 2
            half_b = (length, width)[(side + turns) % 2] / 2
            half_b_along = (width, length)[(side + turns) % 2] / 2
            dist = half_a + half_b + gap()
            slide = rng.uniform(-0.9, 0.9) * (half_a_along + half_b_along)
            return ground_box(
                cam,
                ua + dist * math.cos(normal) - slide * math.sin(normal),
                va + dist * math.sin(normal) + slide * math.cos(normal),
                length, width, a.yaw + turns * math.pi / 2,
            )

        answers = []
        for _ in range(600):
            for place in (corner_to_corner, edge_to_edge):
                a = random_box()
                b = place(a)
                want = bev_iou(a, b, cam) > 0.0
                assert bev_overlaps(a, b, cam) == want
                answers.append(want)
        # Both answers occur, the band sends some pairs to bev_iou, and the
        # axes decide most of them.
        assert 300 < sum(answers) < 900
        assert 0 < len(iou_calls) < len(answers) / 2

    def test_identical_boxes(self, cam_oblique, iou_calls):
        box = ground_box(cam_oblique, 2.0, 40.0, 4.5, 1.8, 0.4)
        assert bev_overlaps(box, box, cam_oblique)
        assert iou_calls == []

    def test_box_inside_another(self, cam_oblique, iou_calls):
        outer = ground_box(cam_oblique, 2.0, 40.0, 4.5, 1.8, 0.4)
        inner = ground_box(cam_oblique, 2.1, 40.1, 2.0, 1.0, -0.3)
        assert bev_overlaps(outer, inner, cam_oblique)
        assert bev_overlaps(inner, outer, cam_oblique)
        assert iou_calls == []

    def test_far_apart(self, cam_oblique, iou_calls):
        a = ground_box(cam_oblique, 2.0, 40.0, 4.5, 1.8, 0.4)
        b = ground_box(cam_oblique, -30.0, 90.0, 4.5, 1.8, 1.2)
        assert not bev_overlaps(a, b, cam_oblique)
        assert iou_calls == []

    @pytest.mark.parametrize("yaw", [0.0, 0.3, -1.1, math.pi / 2 - 1e-9])
    def test_shared_edge_and_touching_corners_go_to_bev_iou(self, cam_nadir, iou_calls, yaw):
        # Footprints that touch along an edge, or at a corner, sit inside
        # the band: only the clip can say whether rounding leaves a sliver.
        ca, sa = math.cos(yaw), math.sin(yaw)
        a = nadir_box(1.0, 2.0, 4.0, 2.0, yaw)
        pairs = [
            (a, nadir_box(1.0 - 2.0 * sa, 2.0 + 2.0 * ca, 4.0, 2.0, yaw)),  # long edges
            (a, nadir_box(1.0 + 4.0 * ca - 2.0 * sa, 2.0 + 4.0 * sa + 2.0 * ca, 4.0, 2.0, yaw)),
        ]
        for a, b in pairs:
            for first, second in ((a, b), (b, a)):
                assert bev_overlaps(first, second, cam_nadir) == (
                    bev_iou(first, second, cam_nadir) > 0.0
                )
        assert len(iou_calls) == 4


class TestMinAreaObb:
    def test_recovers_rotated_rectangle(self):
        source = OrientedBox2D(200.0, 300.0, 80.0, 40.0, 0.3)
        fitted = fit_min_area_obb(source.corners())
        np.testing.assert_allclose(
            (fitted.cx, fitted.cy, fitted.width, fitted.height, fitted.angle),
            (200.0, 300.0, 80.0, 40.0, 0.3),
            atol=1e-9,
        )

    def test_recovers_axis_aligned_rectangle(self):
        points = [(0, 0), (4, 0), (4, 2), (0, 2), (2, 1)]  # interior point too
        fitted = fit_min_area_obb(points)
        np.testing.assert_allclose(
            (fitted.cx, fitted.cy, fitted.width, fitted.height), (2, 1, 4, 2), atol=1e-12
        )

    def test_collinear_points_rejected(self):
        with pytest.raises(ValueError):
            fit_min_area_obb([(0, 0), (1, 1), (2, 2), (3, 3)])


class TestSerialization:
    def test_box3d_wire_format(self):
        box = Box3D(CameraPoint(2.0, -3.0, 49.25), 4.5, 1.8, 1.5, math.radians(30))
        assert serialize_location(box) == "<2.00,-3.00,49.25,4.50,1.80,1.50,30.00>"

    def test_obb_wire_format(self):
        obb = OrientedBox2D(540.4, 439.6, 90.0, 36.0, math.radians(-30))
        assert serialize_location(obb) == "[540,440,90,36,-30.00]"

    def test_hbb_wire_format(self):
        assert serialize_location(HorizontalBox2D(80, 90, 120.2, 110.0)) == "[80,90,120,110]"

    @pytest.mark.parametrize(
        "length, width, height",
        [(4.5, 0.004, 1.5), (4.5, 1.8, 0.004), (0.004, 0.004, 1.5), (1e-320, 1e-320, 1e-320)],
        ids=["width", "height", "length", "subnormal"],
    )
    def test_box3d_dimension_rounding_to_zero_raises(self, length, width, height):
        # "<...,0.00,...>" is a string parse_location rejects.
        box = Box3D(CameraPoint(2.0, -3.0, 49.25), length, width, height, 0.0)
        with pytest.raises(ValueError, match=r"^dimensions .* m round to 0\.00 m$"):
            serialize_location(box)

    def test_box3d_smallest_dimensions_on_the_wire_parse_back(self):
        box = Box3D(CameraPoint(2.0, -3.0, 49.25), 0.005, 0.005, 0.005, 0.0)
        wire = serialize_location(box)
        assert wire == "<2.00,-3.00,49.25,0.01,0.01,0.01,0.00>"
        assert serialize_location(parse_location(wire)) == wire

    def test_parse_box3d(self):
        box = parse_location("<2.00,-3.00,49.25,4.50,1.80,1.50,30.00>")
        assert isinstance(box, Box3D)
        np.testing.assert_allclose(box.center, (2.0, -3.0, 49.25))
        np.testing.assert_allclose(box.yaw, math.radians(30.0))

    def test_parse_yaw_wraps(self):
        box = parse_location("<0,0,10,4,2,1,90.00>")
        np.testing.assert_allclose(box.yaw, -math.pi / 2)

    def test_parse_field_count_disambiguates(self):
        assert isinstance(parse_location("[1,2,3,4]"), HorizontalBox2D)
        assert isinstance(parse_location("[500,500,90,36,-30.00]"), OrientedBox2D)

    @pytest.mark.parametrize(
        "text",
        [
            "[1,2,3]", "<1,2,3,4,5,6>", "[1,2,3,4,5,6]", "no box here", "[1,,3,4]", "[a,b,c,d]",
            "<nan,0,50,4,2,1.5,0>", "[0,0,inf,10]",
        ],
    )
    def test_bad_inputs_raise(self, text):
        with pytest.raises(ParseError):
            parse_location(text)

    @given(st.one_of(st.text(), _LOCATION_TEXT))
    def test_any_string_parses_to_finite_fields_or_raises(self, text):
        try:
            loc = parse_location(text)
        except ParseError:
            return
        assert all(map(math.isfinite, location_fields(loc)))

    @given(_TEXT_WITH_LOCATIONS)
    def test_every_scanned_location_has_finite_fields(self, text):
        for loc in scan_locations(text):
            assert all(map(math.isfinite, location_fields(loc)))

    def test_extract_first_parseable_token(self):
        text = "ignore [1,2,3] but keep [1,2,3,4] and <0,0,10,4,2,1,0.00> later"
        loc = extract_location(text)
        assert isinstance(loc, HorizontalBox2D)
        assert extract_location("nothing bracketed") is None

    def test_dims_from_mm(self):
        dims = dims_from_mm(4500, 1800, 1500)
        assert dims == BoxDims(4.5, 1.8, 1.5)

    @given(
        x=st.floats(-80, 80),
        y=st.floats(-80, 80),
        z=st.floats(1, 200),
        width=st.floats(1.0, 3.0),
        extra=st.floats(0.0, 4.0),
        height=st.floats(0.5, 3.0),
        yaw_deg=st.floats(-89.0, 89.0),
    )
    @settings(max_examples=150)
    def test_serialize_parse_is_idempotent(self, x, y, z, width, extra, height, yaw_deg):
        box = Box3D(
            CameraPoint(x, y, z), width + extra, width, height, math.radians(yaw_deg)
        )
        wire = serialize_location(box)
        assert serialize_location(parse_location(wire)) == wire


# Wire-format fragments: both bracket kinds, separators, Unicode whitespace
# that str.strip and float both strip, signs, and every number spelling float
# accepts or rejects near the fast path, plus canonical wire strings.
_WIRE_FIELD = st.one_of(
    st.sampled_from(
        ["0", "1", "7", "30", "-2", "+3", ".5", "1e3", "1_0", "2.50", "nan", "inf", "-inf",
         "", "x", "1 2", "_1", "1__0", "١"]
    ),
    st.builds(
        lambda pad, f, tail: pad + f + tail,
        st.sampled_from(["", " ", "\t", "\x1c", "\u3000"]),
        st.sampled_from(["1", "20", "4.5", "-35.45", ".5", "1e3", "nan"]),
        st.sampled_from(["", " ", "\t", "\x1c", "\u3000", "\x00"]),
    ),
)
_WIRE_NUMBER = st.builds(
    lambda pad, f, tail: pad + f + tail,
    st.sampled_from(["", " ", "\t", "\u3000"]),
    st.sampled_from(["9", "20", "4.5", "+3", "1e1", "1_0", "-35.45", ".5"]),
    st.sampled_from(["", " ", "\x1c"]),
)
_WIRE_CANDIDATE = st.one_of(
    st.builds(
        lambda brackets, fields: brackets[0] + ",".join(fields) + brackets[1],
        st.sampled_from(["<>", "[]", "<]", "[>"]),
        st.lists(_WIRE_FIELD, min_size=3, max_size=8),
    ),
    st.builds(
        lambda brackets, fields: brackets[0] + ",".join(fields) + brackets[1],
        st.sampled_from(["<>", "[]"]),
        st.integers(4, 7).flatmap(lambda n: st.lists(_WIRE_NUMBER, min_size=n, max_size=n)),
    ),
)
_WIRE_TOKEN = st.one_of(
    st.sampled_from(
        ["<", ">", "[", "]", ",", " ", "\t", "\x1c", "\u3000", "+", "-", "a",
         "[675,431,777,520]", "[540,440,90,36,-30.00]",
         "<11.29,-1.22,49.14,4.87,1.95,1.73,-35.45>", "<2.00,-3.00,49.25,4.50,1.80,1.50,30.00>"]
    ),
    _WIRE_FIELD,
    _WIRE_CANDIDATE,
)
# Free text, or one candidate padded with whitespace (for parse_location).
_WIRE_TEXT = st.one_of(
    st.lists(_WIRE_TOKEN, max_size=8).map("".join),
    st.builds(
        lambda pad, text: pad + text + pad,
        st.sampled_from(["", " ", "\t\u3000", "\x1c"]),
        _WIRE_CANDIDATE,
    ),
)
_HALF_PIXEL = st.integers(-4000, 4000).map(lambda n: n / 2)


def _outcome(fn, *args):
    """What a call returns (by repr, so -0.0 and 0.0 differ) or raises."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return "raises", type(exc), str(exc)
    return "returns", repr(result)


class TestWireEquivalence:
    """The one-pass parser agrees with the reference parser in `oracles`."""

    @given(_WIRE_TEXT)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_scan_and_parse_agree_with_the_reference(self, text):
        assert _outcome(lambda t: list(scan_locations(t)), text) == _outcome(
            lambda t: list(oracles.scan_locations(t)), text
        )
        assert _outcome(extract_location, text) == _outcome(
            lambda t: next(oracles.scan_locations(t), None), text
        )
        assert _outcome(parse_location, text) == _outcome(oracles.parse_location, text)

    @given(
        x1=_HALF_PIXEL, y1=_HALF_PIXEL, dx=st.integers(1, 800), dy=st.integers(1, 800),
        half=st.booleans(),
    )
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_hbb_bytes_agree_with_the_reference(self, x1, y1, dx, dy, half):
        x2, y2 = x1 + dx + 0.5 * half, y1 + dy
        # Float fields (halves included) and int fields: dx, dy >= 1 keeps the
        # floored box non-degenerate.
        for box in (
            HorizontalBox2D(x1, y1, x2, y2),
            HorizontalBox2D(*(math.floor(v) for v in (x1, y1, x2, y2))),
        ):
            assert serialize_location(box) == oracles.serialize_location(box)

    @given(
        cx=_HALF_PIXEL, cy=_HALF_PIXEL, h=st.integers(1, 400).map(lambda n: n / 2),
        extra=_HALF_PIXEL.map(abs), angle=st.floats(-math.pi / 2, math.pi / 2, exclude_max=True),
    )
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_obb_bytes_agree_with_the_reference(self, cx, cy, h, extra, angle):
        box = OrientedBox2D(cx, cy, h + extra, h, angle)
        assert serialize_location(box) == oracles.serialize_location(box)

    @pytest.mark.parametrize(
        "text, kinds",
        [
            ("<[1,2,3,4]>", [HorizontalBox2D]),
            ("[<1,2,30,5,4,3,7>]", [Box3D]),
            ("[1,2,3,4] <1,2,30,5,4,3,7> [5,6,7,8]", [HorizontalBox2D, Box3D, HorizontalBox2D]),
            ("<a[1,2,3,4>5]", []),
        ],
    )
    def test_scan_tries_every_candidate_of_either_kind_in_start_order(self, text, kinds):
        assert [type(loc) for loc in scan_locations(text)] == kinds

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1,,3,4]", "empty field in location '[1,,3,4]'"),
            ("[1, ,3,4]", "empty field in location '[1, ,3,4]'"),
            (
                "[1,x,3,4]",
                "non-numeric field in location '[1,x,3,4]': could not convert string to float: 'x'",
            ),
            ("[1,nan,3,4]", "non-finite field in location '[1,nan,3,4]'"),
        ],
    )
    def test_field_error_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_location(text)
        assert str(info.value) == message
