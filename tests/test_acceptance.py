"""Top-level acceptance battery.

Each test exercises one release gate end to end and prints a single
[PASS]/[FAIL] line with the measured numbers (visible even under pytest's
capture). Everything here checks the library against independent oracles,
hand-computed fixtures, or its own generative ground truth — never against
itself alone.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from aerial3d.agent import (
    MockPlannerBackend,
    MockSummarizerBackend,
    MockVLMBackend,
    plan,
    run_query,
)
from aerial3d.agent.runtime import AgentConfig
from aerial3d.boxes import (
    Box3D,
    bev_footprint,
    bev_iou,
    derive_box3d,
    extract_location,
    obb_to_hbb,
    parse_location,
    serialize_location,
)
from aerial3d.camera import (
    CameraModel,
    CameraPoint,
    backproject_to_ground,
    project_to_pixel,
)
from aerial3d.errors import RayMissesGround
from aerial3d.evaluation import (
    annotation_from_dict,
    eval_regression,
    eval_retrieval,
    within_5pct,
)
from aerial3d.instructions import (
    build_grounding_samples,
    build_phase2_samples,
    build_sqa_samples,
    load_templates,
)
from aerial3d.synth import SceneConfig, generate_scene, ground_truth_boxes, verify_roundtrip
from aerial3d.vehicles import load_table, match_dimensions, min_pairwise_gap, packaged_table_path

from conftest import make_annotation_dict
from oracles import bisect_ray_ground, ground_denominator, monte_carlo_iou

NADIR = math.pi / 2


def report(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def random_camera(rng) -> CameraModel:
    return CameraModel(
        focal_length=rng.uniform(0.004, 0.035),
        pixel_size=rng.uniform(2e-6, 2e-5),
        image_width=int(rng.integers(640, 4096)),
        image_height=int(rng.integers(480, 3072)),
        pitch=rng.uniform(0.05, NADIR),
        agl=rng.uniform(10.0, 400.0),
    )


def sample_ground_cases(rng, count):
    """(camera, pixel) pairs whose viewing ray verifiably hits the ground."""
    cases = []
    while len(cases) < count:
        cam = random_camera(rng)
        px = (rng.uniform(0, cam.image_width), rng.uniform(0, cam.image_height))
        if ground_denominator(px, cam) > 1e-9:
            cases.append((cam, px))
    return cases


def test_1_projection_round_trip(capsys):
    rng = np.random.default_rng(1001)
    cases = sample_ground_cases(rng, 10_000)
    start = time.perf_counter()
    worst = 0.0
    for cam, px in cases:
        ground = backproject_to_ground(px, cam)
        back = project_to_pixel(ground, cam)
        worst = max(worst, abs(back.x - px[0]), abs(back.y - px[1]))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 5.0
    report(
        capsys,
        "1. pixel->ground->pixel round trip",
        ok,
        f"10k pairs, max error {worst:.3e} px in {elapsed:.2f} s",
    )


def test_2_ray_ground_against_bisection_oracle(capsys):
    rng = np.random.default_rng(1002)
    worst = 0.0
    for cam, px in sample_ground_cases(rng, 1_000):
        closed = backproject_to_ground(px, cam)
        marched = bisect_ray_ground(px, cam)
        worst = max(worst, math.dist(closed, marched))
    ok = worst < 1e-6
    report(
        capsys,
        "2. closed form vs bisection ray-march",
        ok,
        f"1k cases, max disagreement {worst:.3e} m",
    )


def test_3_principal_point_closed_forms(capsys):
    worst_rel = 0.0
    for agl in (12.0, 50.0, 150.0, 387.5):
        nadir_cam = CameraModel(0.012, 6e-6, 1600, 1200, NADIR, agl)
        point = backproject_to_ground(nadir_cam.principal_point, nadir_cam)
        worst_rel = max(
            worst_rel,
            abs(point.x) / agl,
            abs(point.y) / agl,
            abs(point.z - agl) / agl,
        )
        for pitch_deg in (20.0, 30.0, 45.0, 60.0, 75.0):
            cam = CameraModel(0.012, 6e-6, 1600, 1200, math.radians(pitch_deg), agl)
            depth = backproject_to_ground(cam.principal_point, cam).z
            expected = agl / math.sin(cam.pitch)
            worst_rel = max(worst_rel, abs(depth - expected) / expected)
    ok = worst_rel < 1e-9
    report(
        capsys,
        "3. nadir (0,0,H) and oblique depth H/sin(pitch)",
        ok,
        f"worst relative error {worst_rel:.3e}",
    )


def test_4_bev_iou_against_monte_carlo(capsys):
    cam = CameraModel(0.01, 1e-5, 1000, 1000, NADIR, 50.0)
    rng = np.random.default_rng(1004)

    def random_box(u, v):
        length = rng.uniform(2.5, 5.5)
        width = rng.uniform(1.4, min(length, 2.2))
        yaw = rng.uniform(-math.pi / 2, math.pi / 2)
        return Box3D(CameraPoint(u, -v, 50.0), length, width, 1.5, yaw)

    worst = 0.0
    for i in range(200):
        u, v = rng.uniform(-8, 8, size=2)
        a = random_box(u, v)
        b = random_box(u + rng.uniform(-4, 4), v + rng.uniform(-4, 4))
        exact = bev_iou(a, b, cam)
        sampled = monte_carlo_iou(
            bev_footprint(a, cam), bev_footprint(b, cam), 1_000_000, seed=2000 + i
        )
        worst = max(worst, abs(exact - sampled))

    fixture_a = Box3D(CameraPoint(0, 0, 50.0), 1.0, 1.0, 1.0, 0.0)
    fixture_b = Box3D(CameraPoint(0, 0, 50.0), 1.0, 1.0, 1.0, math.pi / 4)
    fixture = bev_iou(fixture_a, fixture_b, cam)
    fixture_err = abs(fixture - 0.70711)

    ok = worst < 0.005 and fixture_err <= 0.005
    report(
        capsys,
        "4. polygon-clip IoU vs 1e6-sample Monte-Carlo",
        ok,
        f"200 pairs, max |diff| {worst:.4f}; rotated-square fixture {fixture:.5f}",
    )


def test_5_generative_closure_and_retrieval_self_score(capsys):
    table = load_table(packaged_table_path())
    worst_center = 0.0
    worst_iou = 1.0
    self_scores = []
    for seed in range(50):
        cfg = SceneConfig(
            n_vehicles=10,
            pitch_range=(NADIR, NADIR),
            agl_range=(60.0, 60.0),
            seed=seed,
        )
        scene = generate_scene(cfg, table)
        ann = annotation_from_dict(scene.annotation)
        stats = verify_roundtrip(ann, scene.ground_truth)
        worst_center = max(worst_center, stats["center_err"]["max"])
        worst_iou = min(worst_iou, stats["bev_iou"]["min"])

        gt_boxes = ground_truth_boxes(scene.ground_truth)
        derived = {
            obj.id: derive_box3d(obj.obb, obj.dims_m, ann.camera)
            for obj in ann.objects
        }
        ids = sorted(gt_boxes)
        self_scores.append(
            eval_retrieval([derived[i] for i in ids], [gt_boxes[i] for i in ids], ann.camera)
        )
    ok = (
        worst_center < 1e-6
        and worst_iou >= 1.0 - 1e-9
        and all(score == 1.0 for score in self_scores)
    )
    report(
        capsys,
        "5. 50x10 noiseless scene closure",
        ok,
        f"max center err {worst_center:.3e} m, min BEV IoU {worst_iou:.12f}, "
        f"retrieval self-score {min(self_scores):.1f}",
    )


def test_6_metric_fixtures(capsys):
    metrics = eval_regression([2, 3, 4, 5], [1, 2, 3, 4])
    fixture_ok = (
        math.isclose(metrics.mae, 1.0, rel_tol=0, abs_tol=1e-9)
        and math.isclose(metrics.rmse, 1.0, rel_tol=0, abs_tol=1e-9)
        and math.isclose(metrics.r_squared, 0.2, rel_tol=0, abs_tol=1e-9)
    )
    boundary_ok = within_5pct(105.0, 100.0) and not within_5pct(105.1, 100.0)
    ok = fixture_ok and boundary_ok
    report(
        capsys,
        "6. regression fixture and 5%-rule boundary",
        ok,
        f"MAE {metrics.mae} RMSE {metrics.rmse} R2 {metrics.r_squared}; "
        f"105 in / 105.1 out at gt=100: {boundary_ok}",
    )


def four_object_annotation():
    data = make_annotation_dict()
    data["objects"].append(
        {
            "id": "car2",
            "obb": {"cx": 700.0, "cy": 220.0, "w": 88.0, "h": 35.0, "angle_deg": 45.0},
            "dims_mm": {"length": 4400, "width": 1750, "height": 1600},
            "attributes": {"brand": "Honda", "model": "CR-V", "color": "red",
                           "type": "SUV", "price": 163900, "doors": 5, "seats": 5},
        }
    )
    data["objects"].append(
        {
            "id": "car3",
            "obb": {"cx": 210.0, "cy": 310.0, "w": 96.0, "h": 38.0, "angle_deg": -75.0},
            "dims_mm": {"length": 4800, "width": 1900, "height": 1700},
            "attributes": {"brand": "BYD", "model": "Han", "color": "black",
                           "type": "sedan", "price": 209800, "doors": 4, "seats": 5},
        }
    )
    return annotation_from_dict(data)


def test_7_instruction_set_contract(capsys):
    ann = four_object_annotation()
    templates = load_templates()
    grounding = build_grounding_samples(ann, templates)
    sqa = build_sqa_samples(ann, templates)
    phase2 = build_phase2_samples(ann, templates)

    counts_ok = (
        len(grounding.samples) == 60
        and len(sqa.samples) == 20
        and len(phase2.samples) == 80
        and grounding.n_skipped == sqa.n_skipped == phase2.n_skipped == 0
    )

    gml = [s for s in phase2.samples if s.kind == "GML"]
    gml_ok = len(gml) == 20 and all(s.image is None for s in gml)

    # Object-major, kind-major layout: per object [0:5]=2D targets,
    # [10:15]=ASL aux; the ASL aux must be the exact sibling strings.
    aux_ok = True
    for base in range(0, len(phase2.samples), 20):
        targets_2d = [s.target for s in phase2.samples[base : base + 5]]
        aux_asl = [s.aux for s in phase2.samples[base + 10 : base + 15]]
        aux_ok = aux_ok and aux_asl == targets_2d

    reparsed = 0
    total = 0
    for sample in itertools.chain(grounding.samples, phase2.samples):
        total += 1
        try:
            parse_location(sample.target)
            reparsed += 1
        except Exception:
            pass
    for sample in sqa.samples:
        total += 1
        value, unit = sample.target.split()
        float(value)
        reparsed += unit == "m"
    parse_ok = reparsed == total

    ok = counts_ok and gml_ok and aux_ok and parse_ok
    report(
        capsys,
        "7. instruction build: 60/20/80 per 4 objects",
        ok,
        f"counts ({len(grounding.samples)},{len(sqa.samples)},{len(phase2.samples)}), "
        f"imageless GML {gml_ok}, aux==2D-target {aux_ok}, "
        f"targets re-parsed {reparsed}/{total}",
    )


def test_8_mock_agent_end_to_end(capsys):
    table = load_table(packaged_table_path())
    by_key = {(r.brand, r.model): r for r in table}

    n_zero_shot = 0
    n_zero_shot_correct = 0
    retrieval_preds: list[Box3D | None] = []
    retrieval_gts: list[Box3D] = []
    retrieval_cams: list[CameraModel] = []

    for seed in range(25):
        cfg = SceneConfig(
            n_vehicles=10,
            pitch_range=(NADIR, NADIR),
            agl_range=(65.0, 65.0),
            seed=1_000 + seed,
        )
        scene = generate_scene(cfg, table)
        ann = annotation_from_dict(scene.annotation)
        gt_boxes = ground_truth_boxes(scene.ground_truth)
        config = AgentConfig(
            planner=MockPlannerBackend(table),
            vlm=MockVLMBackend(ann),
            summarizer=MockSummarizerBackend(),
            table=table,
        )
        for obj in ann.objects:
            attrs = obj.attributes
            region = serialize_location(obb_to_hbb(obj.obb))
            answer = run_query(
                ann.image,
                f"What are the brand and model of the vehicle at {region}?",
                config,
            )["answer"]
            n_zero_shot += 1
            expected = f"brand: {attrs['brand']}; model: {attrs['model']}"
            n_zero_shot_correct += answer == expected

            answer = run_query(
                ann.image,
                f"Find the {attrs['brand']} {attrs['model']} in the image.",
                config,
            )["answer"]
            located = extract_location(answer)
            retrieval_preds.append(located if isinstance(located, Box3D) else None)
            retrieval_gts.append(gt_boxes[obj.id])
            retrieval_cams.append(ann.camera)

    zero_shot_acc = n_zero_shot_correct / n_zero_shot
    retrieval_acc = eval_retrieval(retrieval_preds, retrieval_gts, retrieval_cams)

    # Canonical tool sequences for the three workflows.
    planner = MockPlannerBackend(table)
    golden_ok = (
        plan("What brand is the vehicle at [100,100,200,200]?", planner).tools()
        == ["spatial_understanding", "query_table", "summarize"]
        and plan("How much does the vehicle at [100,100,200,200] cost?", planner).tools()
        == ["spatial_understanding", "query_table", "web_search", "summarize"]
        and plan("What color is the vehicle at [100,100,200,200]?", planner).tools()
        == ["image_understanding", "summarize"]
        and plan("Find the Tesla Model 3.", planner).tools()
        == ["query_table", "spatial_understanding", "summarize"]
    )

    # Same seed, same query -> byte-identical trace, twice over.
    scene = generate_scene(
        SceneConfig(n_vehicles=5, pitch_range=(NADIR, NADIR),
                    agl_range=(65.0, 65.0), seed=77),
        table,
    )
    ann = annotation_from_dict(scene.annotation)
    region = serialize_location(obb_to_hbb(ann.objects[0].obb))
    query = f"What are the brand and model of the vehicle at {region}?"
    traces = []
    for _ in range(2):
        config = AgentConfig(
            planner=MockPlannerBackend(table),
            vlm=MockVLMBackend(ann, noise_sigma_mm=4.0, seed=5),
            summarizer=MockSummarizerBackend(),
            table=table,
        )
        traces.append(
            json.dumps(run_query(ann.image, query, config)["trace"], sort_keys=True)
        )
    traces_ok = traces[0] == traces[1]

    total_queries = n_zero_shot + len(retrieval_preds)
    ok = (
        total_queries >= 500
        and zero_shot_acc == 1.0
        and retrieval_acc == 1.0
        and golden_ok
        and traces_ok
    )
    report(
        capsys,
        "8. mock agent end to end",
        ok,
        f"{total_queries} queries: zero-shot acc {zero_shot_acc:.3f}, "
        f"retrieval acc@BEV-0.25 {retrieval_acc:.3f}, golden plans {golden_ok}, "
        f"byte-identical traces {traces_ok}",
    )


def test_9_dimension_matcher_stability(capsys):
    table = load_table(packaged_table_path())
    exact_ok = all(
        match_dimensions(table, *rec.dims_mm).key == rec.key for rec in table
    )

    gap = min_pairwise_gap(table)
    rng = np.random.default_rng(1009)
    records = list(table)
    flips = 0
    for _ in range(1_000):
        rec = records[rng.integers(len(records))]
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        offset = direction * rng.uniform(0.0, 0.499 * gap)
        matched = match_dimensions(
            table,
            rec.length_mm + offset[0],
            rec.width_mm + offset[1],
            rec.height_mm + offset[2],
        )
        flips += matched.key != rec.key
    ok = exact_ok and flips == 0
    report(
        capsys,
        "9. dimension matcher stability",
        ok,
        f"exact self-match on {len(records)} records: {exact_ok}; "
        f"{flips}/1000 flips under half-gap ({gap / 2:.1f} mm) perturbation",
    )
