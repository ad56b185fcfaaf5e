import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from aerial3d.camera import CameraModel


@pytest.fixture
def cam_nadir() -> CameraModel:
    """Straight-down camera, 50 m up: 1 px covers exactly 5 cm of ground."""
    return CameraModel(
        focal_length=0.01,
        pixel_size=1e-5,
        image_width=1000,
        image_height=1000,
        pitch=math.pi / 2,
        agl=50.0,
    )


@pytest.fixture
def cam_oblique() -> CameraModel:
    """45-degree camera at 50 m."""
    return CameraModel(
        focal_length=0.01,
        pixel_size=1e-5,
        image_width=1000,
        image_height=1000,
        pitch=math.pi / 4,
        agl=50.0,
    )


def make_annotation_dict(pitch_deg: float = 90.0, agl: float = 50.0) -> dict:
    """Two hand-placed vehicles on a 1000x1000 frame.

    At nadir/50 m the ground scale is 0.05 m/px, so a 4.5 x 1.8 m car is a
    90 x 36 px box.
    """
    return {
        "image": "scene.png",
        "image_width": 1000,
        "image_height": 1000,
        "camera": {
            "focal_length_m": 0.01,
            "pixel_size_m": 1e-5,
            "pitch_deg": pitch_deg,
            "agl_m": agl,
        },
        "objects": [
            {
                "id": "car0",
                "obb": {"cx": 540.0, "cy": 440.0, "w": 90.0, "h": 36.0, "angle_deg": -30.0},
                "dims_mm": {"length": 4500, "width": 1800, "height": 1500},
                "attributes": {
                    "brand": "Tesla",
                    "model": "Model 3",
                    "color": "white",
                    "type": "sedan",
                    "price": 231900,
                    "doors": 4,
                    "seats": 5,
                },
            },
            {
                "id": "car1",
                "obb": {"cx": 300.0, "cy": 650.0, "w": 93.0, "h": 37.0, "angle_deg": 10.0},
                "dims_mm": {"length": 4694, "width": 1850, "height": 1443},
                "attributes": {
                    "brand": "Toyota",
                    "model": "Camry",
                    "color": "silver",
                    "type": "sedan",
                    "price": 219800,
                    "doors": 4,
                    "seats": 5,
                },
            },
        ],
    }


def above_horizon_dict() -> dict:
    """10-degree pitch record: car0's OBB center lies above the horizon
    (its ray misses the ground), car1 sits safely below it."""
    data = make_annotation_dict(pitch_deg=10.0, agl=50.0)
    data["objects"][0]["obb"]["cy"] = 30.0
    data["objects"][0]["obb"]["cx"] = 500.0
    data["objects"][1]["obb"]["cy"] = 900.0
    return data


def degenerate_yaw_dict() -> dict:
    """Nadir record with one object whose OBB is a 90 px x 1e-12 px segment:
    its pixel hull is valid and its 3D box derives, but its box rounds to no
    pixel in the 2D wire formats."""
    data = make_annotation_dict()
    data["objects"] = data["objects"][:1]
    data["objects"][0]["obb"] = {
        "cx": 500.0, "cy": 500.0, "w": 90.0, "h": 1e-12, "angle_deg": 90.0
    }
    return data


@pytest.fixture
def annotation_dict() -> dict:
    return make_annotation_dict()
