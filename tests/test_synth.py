import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest

from aerial3d.boxes import (
    Box3D,
    bev_iou,
    derive_box3d,
    ground_basis,
    ground_uv,
    obb_to_hbb,
    parse_location,
    project_box3d,
    serialize_location,
)
from aerial3d.camera import CameraModel, CameraPoint, backproject_to_ground
from aerial3d.cli import main
from aerial3d.errors import IdMismatch, PlacementExhausted
from aerial3d.evaluation import annotation_from_dict, load_annotations, validate_annotation
from aerial3d.synth import (
    FOCAL_LENGTH,
    PIXEL_SIZE,
    SceneConfig,
    generate_scene,
    ground_truth_boxes,
    verify_roundtrip,
    write_scene,
)
from aerial3d.vehicles import load_table, packaged_table_path

NADIR = math.pi / 2


@pytest.fixture(scope="module")
def table():
    return load_table(packaged_table_path())


def nadir_cfg(**kw):
    defaults = dict(n_vehicles=6, pitch_range=(NADIR, NADIR), agl_range=(60.0, 60.0), seed=3)
    defaults.update(kw)
    return SceneConfig(**defaults)


class TestSceneConfig:
    @pytest.mark.parametrize("agl_range", [(math.inf, math.inf), (50.0, math.inf),
                                           (math.nan, math.nan), (0.0, 50.0)])
    def test_agl_range_must_be_positive_and_finite(self, agl_range):
        with pytest.raises(ValueError, match="agl_range"):
            nadir_cfg(agl_range=agl_range)

    @pytest.mark.parametrize("extent", [math.nan, 0.0, -5.0, -math.inf])
    def test_ground_extent_must_be_positive(self, extent):
        # A nan cap compares false and would be dropped silently; a cap of 0
        # or less admits no pose and would end in a misleading
        # PlacementExhausted.
        with pytest.raises(ValueError, match="ground_extent must be > 0"):
            nadir_cfg(ground_extent=extent)


    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            nadir_cfg(seed=-1)


class TestGenerateScene:
    def test_empty_scene_is_valid(self, table):
        scene = generate_scene(nadir_cfg(n_vehicles=0), table)
        validate_annotation(scene.annotation)
        assert scene.annotation["objects"] == []

    def test_fixed_seed_reproduces_bytes(self, table):
        cfg = nadir_cfg(seed=11)
        a = generate_scene(cfg, table)
        b = generate_scene(cfg, table)
        assert json.dumps(a.annotation, sort_keys=True) == json.dumps(
            b.annotation, sort_keys=True
        )
        assert json.dumps(a.ground_truth, sort_keys=True) == json.dumps(
            b.ground_truth, sort_keys=True
        )

    def test_different_seeds_differ(self, table):
        a = generate_scene(nadir_cfg(seed=1), table)
        b = generate_scene(nadir_cfg(seed=2), table)
        assert a.annotation != b.annotation

    def test_annotation_validates(self, table):
        scene = generate_scene(nadir_cfg(), table)
        validate_annotation(scene.annotation)

    def test_all_projected_corners_stay_in_frame(self, table):
        scene = generate_scene(nadir_cfg(n_vehicles=8, seed=5), table)
        ann = annotation_from_dict(scene.annotation)
        for box in ground_truth_boxes(scene.ground_truth).values():
            projected = project_box3d(box, ann.camera)
            for corner in projected.corners_px:
                assert 0 <= corner.x <= ann.image_width
                assert 0 <= corner.y <= ann.image_height

    def test_footprints_never_overlap(self, table):
        scene = generate_scene(nadir_cfg(n_vehicles=8, seed=9), table)
        ann = annotation_from_dict(scene.annotation)
        boxes = list(ground_truth_boxes(scene.ground_truth).values())
        for a, b in itertools.combinations(boxes, 2):
            assert bev_iou(a, b, ann.camera) == 0.0

    def test_dense_oblique_footprints_never_overlap(self, table):
        pitch = math.radians(45.0)
        cfg = SceneConfig(30, (pitch, pitch), (60.0, 60.0), seed=9)
        scene = generate_scene(cfg, table)
        ann = annotation_from_dict(scene.annotation)
        boxes = list(ground_truth_boxes(scene.ground_truth).values())
        assert len(boxes) == 30
        for a, b in itertools.combinations(boxes, 2):
            assert bev_iou(a, b, ann.camera) == 0.0

    def test_dims_unique_within_scene(self, table):
        scene = generate_scene(nadir_cfg(n_vehicles=10, seed=4), table)
        dims = [tuple(o["dims_mm"].values()) for o in scene.annotation["objects"]]
        assert len(set(dims)) == len(dims)

    def test_vehicle_attributes_come_from_table(self, table):
        scene = generate_scene(nadir_cfg(seed=8), table)
        by_key = {(r.brand, r.model): r for r in table}
        for obj in scene.annotation["objects"]:
            attrs = obj["attributes"]
            rec = by_key[(attrs["brand"], attrs["model"])]
            assert obj["dims_mm"]["length"] == rec.length_mm
            assert attrs["price"] == rec.price
            assert attrs["powertrain"] == rec.powertrain

    def test_impossible_placement_exhausts(self, table):
        # A 40 px frame at nadir/60 m covers ~2.6 m of ground: no car fits
        # with every projected corner inside.
        cfg = nadir_cfg(n_vehicles=2, image_width=40, image_height=40)
        with pytest.raises(PlacementExhausted):
            generate_scene(cfg, table)

    @pytest.mark.parametrize("pitch_deg, extent", [(90.0, None), (50.0, None), (12.0, None), (70.0, 30.0)])
    def test_each_attempt_back_projects_once_and_builds_at_most_one_box(
        self, table, monkeypatch, pitch_deg, extent
    ):
        from aerial3d import synth

        pitch = math.radians(pitch_deg)
        cfg = SceneConfig(20, (pitch, pitch), (60.0, 60.0), seed=5, ground_extent=extent)
        want = generate_scene(cfg, table)
        events = []  # d: a draw, r: a back-projection, b: a Box3D built

        class LoggedGenerator(synth.Generator):
            def random(self):
                events.append("d")
                return super().random()

        class LoggedBox3D(Box3D):
            def __post_init__(self):
                events.append("b")
                super().__post_init__()

        def backproject(pt, cam):
            events.append("r")
            return backproject_to_ground(pt, cam)

        monkeypatch.setattr(synth, "Generator", LoggedGenerator)
        monkeypatch.setattr(synth, "Box3D", LoggedBox3D)
        monkeypatch.setattr(synth, "backproject_to_ground", backproject)
        assert generate_scene(cfg, table) == want
        log = "".join(events)
        # The pitch and AGL draws, and the frame center's ray for an extent;
        # then each attempt draws three times, casts one ray and builds at
        # most one box.
        prefix = "dd" + "r" * (extent is not None)
        assert log.startswith(prefix)
        assert re.fullmatch("(dddrb?)+", log[len(prefix):]), log
        attempts = log.count("ddd")
        assert attempts == log.count("r") - (extent is not None) > cfg.n_vehicles
        if pitch_deg < 20 or extent is not None:
            assert "dddrddd" in log  # a ray that misses, or a center out of extent

    @pytest.mark.parametrize(
        "n, pitch_deg, agl, seed, width, height",
        [
            (2, 10, 10, 8, 150, 60), (1, 19, 16, 42, 240, 80), (1, 18, 29, 40, 200, 40),
            (3, 20, 22, 79, 100, 100), (3, 14, 19, 19, 290, 40), (1, 19, 7, 70, 250, 190),
            (1, 25, 10, 90, 280, 150), (2, 22, 21, 63, 270, 80), (2, 19, 30, 77, 200, 40),
        ],
    )
    def test_small_low_pitch_frames_load(self, table, n, pitch_deg, agl, seed, width, height):
        # In each of these frames a candidate with every corner in frame has
        # a fitted box past the loader's bounds; placement must resample it.
        pitch = math.radians(pitch_deg)
        cfg = SceneConfig(n, (pitch, pitch), (agl, agl), seed=seed,
                          image_width=width, image_height=height)
        ann = annotation_from_dict(generate_scene(cfg, table).annotation)
        assert len(ann.objects) == n

    @pytest.mark.parametrize(
        "n, pitch_deg, agl, seed",
        [(8, 10, 40, 11), (8, 5, 40, 0), (8, 10, 400, 1), (8, 20, 150, 3), (8, 20, 400, 4)],
    )
    def test_every_wire_form_parses(self, table, n, pitch_deg, agl, seed):
        # Near the horizon a vehicle can project under a pixel; such a
        # candidate has an OBB height or HBB extent that rounds to 0, whose
        # wire form parse_location rejects, so placement must resample it.
        pitch = math.radians(pitch_deg)
        cfg = SceneConfig(n, (pitch, pitch), (agl, agl), seed=seed)
        ann = annotation_from_dict(generate_scene(cfg, table).annotation)
        assert len(ann.objects) == n
        for obj in ann.objects:
            for loc in (obj.obb, obb_to_hbb(obj.obb)):
                text = serialize_location(loc)
                assert serialize_location(parse_location(text)) == text, obj.id

    @pytest.mark.parametrize("pitch_deg", [10.0, 30.0, 45.0, 60.0, 75.0, 90.0])
    def test_apart_bounding_circles_mean_zero_iou(self, pitch_deg):
        # generate_scene skips bev_iou for pairs whose ground bounding
        # circles are strictly apart; that is exact only if such a pair's
        # IoU is exactly 0.0. The hardest pairs face corner to corner, each
        # corner on its circle, with the circles 1e-12 to 1 m apart or
        # overlapping.
        cam = CameraModel(0.01, 1e-5, 1000, 1000, math.radians(pitch_deg), 60.0)
        e_lat, e_lon, normal = ground_basis(cam)
        rng = np.random.default_rng(int(pitch_deg))

        def box_at(u, v, length, width, yaw):
            height = 1.5
            center = CameraPoint(
                *(u * a + v * b - (cam.agl - height / 2) * n
                  for a, b, n in zip(e_lat, e_lon, normal))
            )
            return Box3D(center, length, width, height, yaw)

        def radius(box):
            return math.hypot(box.length, box.width) / 2.0

        def facing(dims, phi):
            """A yaw that turns the (+L, +W) footprint corner to direction phi."""
            return phi - math.atan2(dims[1], dims[0]) + rng.normal(0.0, 1e-3)

        apart = 0
        for _ in range(2000):
            dims_a, dims_b = rng.uniform((3.0, 1.4), (6.0, 2.2), size=(2, 2))
            theta = rng.uniform(-math.pi, math.pi)
            a = box_at(*rng.uniform(-8.0, 8.0, size=2), *dims_a, facing(dims_a, theta))
            ua, va = ground_uv(a.center, cam)
            gap = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 0.0)
            dist = radius(a) + math.hypot(*dims_b) / 2.0 + gap
            b = box_at(
                ua + dist * math.cos(theta), va + dist * math.sin(theta),
                *dims_b, facing(dims_b, theta + math.pi),
            )
            ub, vb = ground_uv(b.center, cam)
            if math.hypot(ua - ub, va - vb) > radius(a) + radius(b):
                assert bev_iou(a, b, cam) == 0.0
                apart += 1
        assert 800 < apart < 1200

    def test_oblique_scene_generates(self, table):
        cfg = SceneConfig(
            n_vehicles=5,
            pitch_range=(math.radians(55.0), math.radians(75.0)),
            agl_range=(40.0, 90.0),
            seed=21,
        )
        scene = generate_scene(cfg, table)
        validate_annotation(scene.annotation)
        pitch = scene.annotation["camera"]["pitch_deg"]
        assert 55.0 <= pitch <= 75.0


# sha256 of json.dumps([annotation, ground_truth], sort_keys=True), keyed by
# (n_vehicles, pitch_deg, agl_m, seed): the README demo scene (`synth --n 6
# --seed 7`, nadir), an oblique scene, and three dense scenes whose
# placement makes hundreds of footprint-overlap decisions each.
SCENE_SHA256 = {
    (6, 90.0, 50.0, 7): "a23fd50097b176e48febe473d5636c20e3433534b9fa8df615bd65104dc1892a",
    (10, 35.0, 60.0, 35): "43dd7f03a40985aba8511854ee7eb97d546739cd46c536fb88cfd9c5fa8ded20",
    (30, 45.0, 65.0, 19): "62bda649b1741d4dd1abf49ae6667e466b400dab4d42ccd1682e95f87e897198",
    (30, 90.0, 80.0, 23): "fc6c7a33e71a0c38616ed5716163db645b83d144a231bca53c197f1afdd9c279",
    (40, 30.0, 60.0, 5): "bcee43797f998407bef6ad87e6281c31a259a8522bd12f324f68c599ee6bad73",
}
# sha256 of the annotation.json that `synth --n 6 --seed 7` writes.
DEMO_ANNOTATION_FILE_SHA256 = "9cc5272d5c974916e3ef1bf734789e1316124d17c7eeb6a66aadd8d3d1c61bb1"


def fixed_cfg(n, pitch_deg, agl, seed):
    pitch = math.radians(pitch_deg)
    return SceneConfig(n, pitch_range=(pitch, pitch), agl_range=(agl, agl), seed=seed)


class TestPinnedBytes:
    @pytest.mark.parametrize("n, pitch_deg, agl, seed", sorted(SCENE_SHA256))
    def test_scene_bytes(self, table, n, pitch_deg, agl, seed):
        scene = generate_scene(fixed_cfg(n, pitch_deg, agl, seed), table)
        text = json.dumps([scene.annotation, scene.ground_truth], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == SCENE_SHA256[n, pitch_deg, agl, seed]

    def test_demo_annotation_file(self, tmp_path):
        assert main(["synth", "--n", "6", "--seed", "7", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "annotation.json").read_bytes()).hexdigest()
        assert digest == DEMO_ANNOTATION_FILE_SHA256


@pytest.mark.parametrize("pitch_deg", [30.0, 37.5, 45.0, 52.5, 60.0, 67.5, 75.0, 82.5, 90.0])
def test_forward_model_reproduces_every_annotation(table, pitch_deg):
    """Each annotated box is the forward model of its ground-truth box."""
    checked = 0
    for seed in range(4):
        cfg = fixed_cfg(8 + seed, pitch_deg, 50.0 + 10.0 * seed, seed)
        scene = generate_scene(cfg, table)
        pitch, agl = cfg.pitch_range[0], cfg.agl_range[0]
        cam = CameraModel(FOCAL_LENGTH, PIXEL_SIZE, cfg.image_width, cfg.image_height, pitch, agl)
        boxes = ground_truth_boxes(scene.ground_truth)
        for obj in scene.annotation["objects"]:
            obb = project_box3d(boxes[obj["id"]], cam).annotated_obb()
            assert obj["obb"] == {
                "cx": obb.cx,
                "cy": obb.cy,
                "w": obb.width,
                "h": obb.height,
                "angle_deg": math.degrees(obb.angle),
            }
            checked += 1
    assert checked == 8 + 9 + 10 + 11


class TestVerifyRoundtrip:
    def test_noiseless_nadir_closure(self, table):
        scene = generate_scene(nadir_cfg(n_vehicles=10, seed=13), table)
        ann = annotation_from_dict(scene.annotation)
        stats = verify_roundtrip(ann, scene.ground_truth)
        assert stats["n"] == 10
        assert stats["center_err"]["max"] < 1e-6
        assert stats["yaw_err"]["max"] < 1e-6
        assert stats["bev_iou"]["min"] >= 1.0 - 1e-9

    def test_oblique_consistency_is_finite_and_tight(self, table):
        cfg = SceneConfig(
            n_vehicles=6,
            pitch_range=(math.radians(60.0), math.radians(60.0)),
            agl_range=(70.0, 70.0),
            seed=17,
        )
        scene = generate_scene(cfg, table)
        ann = annotation_from_dict(scene.annotation)
        stats = verify_roundtrip(ann, scene.ground_truth)
        # Oblique projection + min-area refit is not an exact inverse, but
        # the annotation was built from the very box it should recover.
        assert stats["center_err"]["max"] < 0.5
        assert stats["bev_iou"]["min"] > 0.8

    def test_pitch_perturbation_grows_errors_monotonically(self, table):
        scene = generate_scene(
            SceneConfig(
                n_vehicles=6,
                pitch_range=(math.radians(60.0), math.radians(60.0)),
                agl_range=(70.0, 70.0),
                seed=29,
            ),
            table,
        )
        ann = annotation_from_dict(scene.annotation)
        gt_boxes = ground_truth_boxes(scene.ground_truth)

        def mean_center_error(pitch_offset_deg: float) -> float:
            cam = CameraModel(
                ann.camera.focal_length,
                ann.camera.pixel_size,
                ann.camera.image_width,
                ann.camera.image_height,
                ann.camera.pitch + math.radians(pitch_offset_deg),
                ann.camera.agl,
            )
            errs = []
            for obj in ann.objects:
                derived = derive_box3d(obj.obb, obj.dims_m, cam)
                errs.append(math.dist(derived.center, gt_boxes[obj.id].center))
            return sum(errs) / len(errs)

        errors = [mean_center_error(offset) for offset in (0.0, 1.0, 2.0, 4.0)]
        assert errors[0] < 0.5  # refit slack only
        assert errors[1] > 0.3  # a 1-degree pitch error moves meters of ground
        assert errors[0] < errors[1] < errors[2] < errors[3]

    def test_mismatched_ids(self, table):
        scene = generate_scene(nadir_cfg(seed=2), table)
        ann = annotation_from_dict(scene.annotation)
        tampered = json.loads(json.dumps(scene.ground_truth))
        tampered["objects"][0]["id"] = "ghost"
        with pytest.raises(IdMismatch):
            verify_roundtrip(ann, tampered)


class TestWriteScene:
    def test_files_written_and_loadable(self, table, tmp_path):
        scene = generate_scene(nadir_cfg(seed=6), table)
        paths = write_scene(scene, tmp_path / "scene")
        ann = load_annotations(paths["annotation"])
        assert len(ann.objects) == 6
        gt = json.loads(paths["ground_truth"].read_text())
        assert {o["id"] for o in gt["objects"]} == {o.id for o in ann.objects}
        assert paths["image"].exists()
        assert ann.image == paths["image"].name
