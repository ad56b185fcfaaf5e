"""Scene inputs and reference geometry, written apart from aerial3d.

Nothing here imports the package under test. The benchmark builds its
annotation records with these functions and checks the program's outputs
against them, so a fault shared by the program and its checks cannot hide.

Camera conventions follow the package's documented contract: pixel frame
with y down, camera frame X right / Y down / Z forward, pitch measured
from the horizontal (90 degrees is nadir), ground plane `agl` metres below
the camera. On that plane the frame is closed-form:

    e_lat = (1, 0, 0)
    e_lon = (0, -sin p, cos p)
    n     = (0, -cos p, -sin p)        toward the camera
    foot  = (0, agl cos p, agl sin p)  ground point nearest the camera

and a ground point with in-plane coordinates (u, v) is foot + u e_lat + v e_lon.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

FOCAL = 0.01
PIXEL = 1e-5
WIDTH = HEIGHT = 1000
FRAME_MARGIN = 0.12
COLORS = ("black", "white", "silver", "gray", "red", "blue", "green")


@dataclass(frozen=True)
class Vehicle:
    brand: str
    model: str
    length_mm: int
    width_mm: int
    height_mm: int
    powertrain: str
    price: int
    doors: int
    seats: int


def read_table(csv_path: Path) -> list[Vehicle]:
    """The packaged vehicle CSV, read with the csv module only."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        return [
            Vehicle(
                row["brand"], row["model"], int(row["length_mm"]), int(row["width_mm"]),
                int(row["height_mm"]), row["powertrain"], int(float(row["price"])),
                int(row["doors"]), int(row["seats"]),
            )
            for row in csv.DictReader(fh)
        ]


@dataclass(frozen=True)
class Cam:
    pitch_deg: float
    agl: float

    @property
    def pitch(self) -> float:
        return math.radians(self.pitch_deg)

    def block(self) -> dict:
        return {"focal_length_m": FOCAL, "pixel_size_m": PIXEL,
                "pitch_deg": self.pitch_deg, "agl_m": self.agl}


def ground_point(cam: Cam, u: float, v: float) -> tuple[float, float, float]:
    c, s = math.cos(cam.pitch), math.sin(cam.pitch)
    return (u, cam.agl * c - v * s, cam.agl * s + v * c)


def to_uv(cam: Cam, pt) -> tuple[float, float]:
    c, s = math.cos(cam.pitch), math.sin(cam.pitch)
    return (pt[0], -s * pt[1] + c * pt[2])


def lift(cam: Cam, pt, h: float) -> tuple[float, float, float]:
    """Move a point h metres along the plane normal, toward the camera."""
    c, s = math.cos(cam.pitch), math.sin(cam.pitch)
    return (pt[0], pt[1] - h * c, pt[2] - h * s)


def project(cam: Cam, pt) -> tuple[float, float]:
    x, y, z = pt
    return (FOCAL * x / z / PIXEL + WIDTH / 2.0, FOCAL * y / z / PIXEL + HEIGHT / 2.0)


def backproject(cam: Cam, px: float, py: float):
    """Ray-plane intersection; None at or above the horizon."""
    xi, yi = (px - WIDTH / 2.0) * PIXEL, (py - HEIGHT / 2.0) * PIXEL
    denom = yi * math.cos(cam.pitch) + FOCAL * math.sin(cam.pitch)
    if denom <= 1e-9:
        return None
    t = cam.agl / denom
    return (xi * t, yi * t, FOCAL * t)


@dataclass(frozen=True)
class Pose:
    """A vehicle on the ground: footprint center (u, v), yaw from e_lat."""

    u: float
    v: float
    yaw: float
    length: float
    width: float
    height: float

    def footprint(self) -> list[tuple[float, float]]:
        ca, sa = math.cos(self.yaw), math.sin(self.yaw)
        hl, hw = self.length / 2.0, self.width / 2.0
        return [
            (self.u + sl * hl * ca - sw * hw * sa, self.v + sl * hl * sa + sw * hw * ca)
            for sl, sw in ((1, 1), (-1, 1), (-1, -1), (1, -1))
        ]

    def center3d(self, cam: Cam) -> tuple[float, float, float]:
        return lift(cam, ground_point(cam, self.u, self.v), self.height / 2.0)

    def corners3d(self, cam: Cam) -> list[tuple[float, float, float]]:
        bottom = [ground_point(cam, u, v) for u, v in self.footprint()]
        return bottom + [lift(cam, p, self.height) for p in bottom]


def rects_overlap(a: list, b: list, eps: float = 1e-9) -> bool:
    """Separating-axis test for two convex quads; touching is not overlap."""
    for poly in (a, b):
        for i in range(4):
            x0, y0 = poly[i]
            x1, y1 = poly[(i + 1) % 4]
            ax, ay = y0 - y1, x1 - x0
            norm = math.hypot(ax, ay)
            pa = [(p[0] * ax + p[1] * ay) / norm for p in a]
            pb = [(p[0] * ax + p[1] * ay) / norm for p in b]
            if max(pa) <= min(pb) + eps or max(pb) <= min(pa) + eps:
                return False
    return True


def min_area_rect(quad) -> tuple[float, float, float, float, float]:
    """Smallest rectangle around a convex quad: (cx, cy, w, h, angle_deg).

    One side of the optimum lies along a hull edge, so trying the four edge
    directions is exact. Returned with w >= h and angle in [-90, 90).
    """
    best = None
    for i in range(4):
        (x0, y0), (x1, y1) = quad[i], quad[(i + 1) % 4]
        ang = math.atan2(y1 - y0, x1 - x0)
        ca, sa = math.cos(ang), math.sin(ang)
        us = [p[0] * ca + p[1] * sa for p in quad]
        vs = [-p[0] * sa + p[1] * ca for p in quad]
        w, h = max(us) - min(us), max(vs) - min(vs)
        if best is None or w * h < best[0]:
            mu, mv = (max(us) + min(us)) / 2.0, (max(vs) + min(vs)) / 2.0
            best = (w * h, mu * ca - mv * sa, mu * sa + mv * ca, w, h, ang)
    _, cx, cy, w, h, ang = best
    if w < h:
        w, h, ang = h, w, ang + math.pi / 2.0
    ang = (ang + math.pi / 2.0) % math.pi - math.pi / 2.0
    return cx, cy, w, h, math.degrees(ang)


def obb_hull(obb: dict) -> tuple[float, float, float, float]:
    """Closed-form axis-aligned hull of an annotated OBB."""
    a = math.radians(obb["angle_deg"])
    ex = obb["w"] / 2.0 * abs(math.cos(a)) + obb["h"] / 2.0 * abs(math.sin(a))
    ey = obb["w"] / 2.0 * abs(math.sin(a)) + obb["h"] / 2.0 * abs(math.cos(a))
    return (obb["cx"] - ex, obb["cy"] - ey, obb["cx"] + ex, obb["cy"] + ey)


def _vehicle_type(v: Vehicle) -> str:
    if v.length_mm < 4300:
        return "hatchback"
    return "SUV" if v.height_mm >= 1620 else "sedan"


@dataclass(frozen=True)
class SceneInput:
    """One annotation record plus the poses that generated it."""

    name: str
    cam: Cam
    annotation: dict
    poses: tuple[Pose, ...]
    vehicles: tuple[Vehicle, ...]


def make_scene(rng: random.Random, table: list[Vehicle], n: int, cam: Cam,
               name: str) -> SceneInput:
    """Place n distinct table vehicles, each fully in frame, none overlapping.

    Centers come from back-projecting uniform pixels inside the frame
    margin; a pose is redrawn while any corner leaves the frame or its
    footprint comes within 0.4 m of a placed one (both grow 0.2 m a side).
    """
    vehicles = rng.sample(table, n)
    lo, hi = FRAME_MARGIN * WIDTH, (1 - FRAME_MARGIN) * WIDTH
    poses: list[Pose] = []
    padded: list[list] = []
    objects = []
    for i, veh in enumerate(vehicles):
        for _ in range(100_000):
            ground = backproject(cam, rng.uniform(lo, hi), rng.uniform(lo, hi))
            if ground is None:
                continue
            u, v = to_uv(cam, ground)
            pose = Pose(u, v, rng.uniform(-math.pi / 2, math.pi / 2),
                        veh.length_mm / 1000.0, veh.width_mm / 1000.0,
                        veh.height_mm / 1000.0)
            pix = [project(cam, p) for p in pose.corners3d(cam)]
            if not all(0 <= x <= WIDTH and 0 <= y <= HEIGHT for x, y in pix):
                continue
            pad = Pose(u, v, pose.yaw, pose.length + 0.4, pose.width + 0.4, pose.height)
            if any(rects_overlap(pad.footprint(), other) for other in padded):
                continue
            break
        else:
            raise RuntimeError(f"{name}: could not place vehicle {i}")
        poses.append(pose)
        padded.append(pad.footprint())
        cx, cy, w, h, ang = min_area_rect(pix[:4])
        objects.append({
            "id": f"veh{i}",
            "obb": {"cx": cx, "cy": cy, "w": w, "h": h, "angle_deg": ang},
            "dims_mm": {"length": veh.length_mm, "width": veh.width_mm,
                        "height": veh.height_mm},
            "attributes": {
                "brand": veh.brand, "model": veh.model, "color": rng.choice(COLORS),
                "type": _vehicle_type(veh), "powertrain": veh.powertrain,
                "price": veh.price, "doors": veh.doors, "seats": veh.seats,
            },
        })
    annotation = {"image": f"{name}.png", "image_width": WIDTH, "image_height": HEIGHT,
                  "camera": cam.block(), "objects": objects}
    return SceneInput(name, cam, annotation, tuple(poses), tuple(vehicles))


def yaw_error_deg(a: float, b: float) -> float:
    """Difference of two yaws in degrees, modulo 180 (no heading)."""
    d = (a - b + 90.0) % 180.0 - 90.0
    return abs(d)
