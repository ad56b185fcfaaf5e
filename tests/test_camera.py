import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerial3d.camera import (
    CameraModel,
    backproject_to_ground,
    project_to_pixel,
    spatial_measures,
)
from aerial3d.errors import NonPositiveDepth, RayMissesGround

from oracles import ground_denominator, ground_plane_residual, image_to_pixel, pixel_to_image


class TestCameraModel:
    def test_principal_point_is_frame_center(self, cam_nadir):
        assert cam_nadir.principal_point == (500.0, 500.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"focal_length": 0.0},
            {"focal_length": -0.01},
            {"pixel_size": 0.0},
            {"pitch": 0.0},
            {"pitch": math.pi / 2 + 0.01},
            {"pitch": -0.3},
            {"agl": 0.0},
            {"agl": -5.0},
            {"image_width": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        base = dict(
            focal_length=0.01,
            pixel_size=1e-5,
            image_width=1000,
            image_height=1000,
            pitch=math.pi / 2,
            agl=50.0,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            CameraModel(**base)


class TestPixelImagePlane:
    def test_principal_point_maps_to_origin(self, cam_nadir):
        img = pixel_to_image((500.0, 500.0), cam_nadir)
        assert img == (0.0, 0.0)

    def test_offsets_scale_by_pixel_size(self, cam_nadir):
        # 100 px right of center, 100 px above center, at 10 um pixels.
        img = pixel_to_image((600.0, 400.0), cam_nadir)
        np.testing.assert_allclose(img, (1e-3, -1e-3))

    def test_image_to_pixel_inverts(self, cam_nadir):
        px = image_to_pixel(pixel_to_image((123.25, 41.5), cam_nadir), cam_nadir)
        np.testing.assert_allclose(px, (123.25, 41.5))

    @given(
        x=st.floats(-5000, 5000),
        y=st.floats(-5000, 5000),
    )
    def test_roundtrip_property(self, x, y):
        cam = CameraModel(0.008, 4e-6, 2000, 1500, math.pi / 3, 80.0)
        px = image_to_pixel(pixel_to_image((x, y), cam), cam)
        np.testing.assert_allclose(px, (x, y), rtol=0, atol=1e-9)


class TestBackprojection:
    def test_nadir_principal_point_hits_straight_down(self, cam_nadir):
        point = backproject_to_ground((500.0, 500.0), cam_nadir)
        np.testing.assert_allclose(point, (0.0, 0.0, 50.0), rtol=1e-12, atol=0)

    def test_nadir_offcenter_hand_computed(self, cam_nadir):
        # 100 px right of center: x_i = 1e-3 m, t = 50/0.01 = 5000,
        # so X = 5 m, Y = 0, Z = 50 m.
        point = backproject_to_ground((600.0, 500.0), cam_nadir)
        np.testing.assert_allclose(point, (5.0, 0.0, 50.0), rtol=1e-12, atol=0)

    def test_oblique_principal_point_depth(self, cam_oblique):
        # Slant range along the axis is agl / sin(pitch).
        point = backproject_to_ground((500.0, 500.0), cam_oblique)
        expected_z = 50.0 / math.sin(math.pi / 4)
        np.testing.assert_allclose(point.z, expected_z, rtol=1e-12)
        np.testing.assert_allclose(point.x, 0.0, atol=1e-15)

    def test_result_lies_on_ground_plane(self, cam_oblique):
        point = backproject_to_ground((612.0, 703.5), cam_oblique)
        assert abs(ground_plane_residual(point, cam_oblique)) < 1e-9

    def test_ray_above_horizon_raises(self, cam_oblique):
        # y_i = -f makes the denominator exactly 0 at 45 degrees; anything
        # higher in the frame points above the horizon.
        assert ground_denominator((500.0, -500.0), cam_oblique) <= 1e-9
        with pytest.raises(RayMissesGround):
            backproject_to_ground((500.0, -500.0), cam_oblique)
        with pytest.raises(RayMissesGround):
            backproject_to_ground((500.0, -800.0), cam_oblique)

    def test_subpixel_input_not_rounded(self, cam_nadir):
        a = backproject_to_ground((600.0, 500.0), cam_nadir)
        b = backproject_to_ground((600.5, 500.0), cam_nadir)
        np.testing.assert_allclose(b.x - a.x, 0.025, rtol=1e-12)  # half of 5 cm/px

    @given(
        px=st.floats(0, 2000),
        py=st.floats(0, 1500),
        pitch=st.floats(0.1, math.pi / 2),
        agl=st.floats(5.0, 500.0),
    )
    @settings(max_examples=200)
    def test_projection_inverts_backprojection(self, px, py, pitch, agl):
        cam = CameraModel(0.008, 4e-6, 2000, 1500, pitch, agl)
        if ground_denominator((px, py), cam) <= 1e-6:
            return  # ray runs along/above the horizon; nothing to invert
        ground = backproject_to_ground((px, py), cam)
        back = project_to_pixel(ground, cam)
        np.testing.assert_allclose(back, (px, py), rtol=0, atol=1e-6)

    @given(
        px=st.floats(0, 1000),
        py=st.floats(0, 1000),
        pitch=st.floats(0.1, math.pi / 2),
    )
    @settings(max_examples=200)
    def test_backprojection_lands_on_plane(self, px, py, pitch):
        cam = CameraModel(0.01, 1e-5, 1000, 1000, pitch, 50.0)
        if ground_denominator((px, py), cam) <= 1e-6:
            return
        ground = backproject_to_ground((px, py), cam)
        assert abs(ground_plane_residual(ground, cam)) < 1e-9


class TestProjection:
    def test_known_point(self, cam_nadir):
        # (5, 0, 50): x_i = 0.01 * 5/50 = 1e-3 -> 100 px right of center.
        px = project_to_pixel((5.0, 0.0, 50.0), cam_nadir)
        np.testing.assert_allclose(px, (600.0, 500.0))

    @pytest.mark.parametrize("point", [(0.0, 0.0, 0.0), (3.0, 4.0, -2.0)])
    def test_nonpositive_depth_raises(self, cam_nadir, point):
        with pytest.raises(NonPositiveDepth):
            project_to_pixel(point, cam_nadir)


class TestSpatialMeasures:
    def test_depth_is_z_distance_is_norm(self):
        m = spatial_measures((3.0, 4.0, 12.0))
        assert m.depth == 12.0
        assert m.distance == 13.0
