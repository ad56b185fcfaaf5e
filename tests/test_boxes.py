import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aerial3d.boxes import (
    Box3D,
    BoxDims,
    HorizontalBox2D,
    OrientedBox2D,
    bev_footprint,
    bev_iou,
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
from aerial3d.camera import CameraModel, CameraPoint
from aerial3d.errors import ParseError

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

    def test_inflation_scales_dims_only(self, cam_nadir):
        box = derive_box3d(self.OBB, CAR, cam_nadir, inflation=1.1)
        np.testing.assert_allclose(
            (box.length, box.width, box.height), (4.95, 1.98, 1.65)
        )
        np.testing.assert_allclose(box.center[:2], (2.0, -3.0), atol=1e-9)
        # Lifted by the inflated half height.
        np.testing.assert_allclose(box.center.z, 50.0 - 0.825, atol=1e-9)

    @pytest.mark.parametrize("inflation", [math.nan, math.inf, 1e308, 0.0, -1.0])
    def test_inflation_must_give_positive_finite_dims(self, cam_nadir, inflation):
        # inf and 1e308 (which overflows) once gave boxes with infinite or
        # nan fields, and nan failed later with an unrelated message.
        with pytest.raises(ValueError, match="inflated dimensions must be positive and finite"):
            derive_box3d(self.OBB, CAR, cam_nadir, inflation=inflation)

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
        with pytest.raises(ValueError, match="round to 0.00 in the wire format"):
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
