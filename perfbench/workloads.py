"""The three workloads: their inputs, the timed operation, and its checks.

Each workload holds one round: a fixed list of inputs made from the seed.
A run repeats whole rounds, so every run sees the same mix of inputs in the
same proportions, whatever its length. `op` is the only timed call and
reaches the program through its public modules (looked up at call time, so
the traced run sees the same calls). `verify` returns None for a correct
output and a message otherwise; `corruptions` gives outputs that `verify`
must reject.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import re
from pathlib import Path

import scenes as S

# Tolerances for 3D boxes the program derives, against the generating pose.
# Measured on these inputs: center error <= 0.082 m and yaw error <= 0.73
# degrees at pitch 50-90 (0.087 m at 45 degrees); wire rounding adds 0.01 m.
CENTER_TOL_M = 0.15
YAW_TOL_DEG = 2.0
DIM_TOL_M = 0.005 + 1e-9
PIXEL_TOL = 0.5 + 1e-6  # integer pixel fields against exact floats
NADIR_TOL_M = 1e-6

# build_eval and agent_sweep compare derived 3D boxes with the generating
# poses, and derive_box3d swaps length and width on short vehicles near the
# top of the frame at pitch 48.75 degrees and below (see CHANGES.md), so
# their scenes start at 55 degrees. synth_dense checks no derived box off
# nadir and keeps the full 45-90 range.
PITCHES_SYNTH = tuple(45.0 + 45.0 * k / 7 for k in range(8))
AGLS_SYNTH = (50.0, 57.5, 65.0, 72.5, 80.0)
PITCHES_DERIVED = (55.0, 60.0, 65.0, 70.0, 75.0, 80.0, 85.0, 90.0)

_BOX3D = re.compile(r"<([^<>]*)>")
_BOX2D = re.compile(r"\[([^\[\]]*)\]")


def parse_box3d(text: str):
    m = _BOX3D.fullmatch(text)
    vals = [float(v) for v in m.group(1).split(",")] if m else []
    return vals if len(vals) == 7 else None


def parse_box2d(text: str, n: int):
    m = _BOX2D.fullmatch(text)
    vals = [float(v) for v in m.group(1).split(",")] if m else []
    return vals if len(vals) == n else None


def check_box3d(text: str, pose: S.Pose, cam: S.Cam) -> str | None:
    vals = parse_box3d(text)
    if vals is None:
        return f"3D target {text!r} does not parse"
    center_err = math.dist(vals[:3], pose.center3d(cam))
    dims_err = max(abs(a - b) for a, b in zip(vals[3:6], (pose.length, pose.width, pose.height)))
    yaw_err = S.yaw_error_deg(vals[6], math.degrees(pose.yaw))
    if center_err > CENTER_TOL_M or dims_err > DIM_TOL_M or yaw_err > YAW_TOL_DEG:
        return (f"3D target {text} is off the generating pose: center {center_err:.3f} m, "
                f"dims {dims_err:.3f} m, yaw {yaw_err:.2f} deg")
    return None


def check_hbb(text: str, obb: dict) -> str | None:
    vals = parse_box2d(text, 4)
    if vals is None:
        return f"HBB {text!r} does not parse"
    if max(abs(a - b) for a, b in zip(vals, S.obb_hull(obb))) > PIXEL_TOL:
        return f"HBB {text} is not the hull of the annotated box"
    return None


def hbb_text(hull) -> str:
    return "[" + ",".join(str(round(v)) for v in hull) + "]"


def _grid_cams(rng: random.Random, pitches, count: int) -> list[S.Cam]:
    return [S.Cam(pitches[k % len(pitches)], rng.uniform(50.0, 80.0)) for k in range(count)]


# --------------------------------------------------------------------------
# synth_dense: generate_scene on 30-vehicle scenes
# --------------------------------------------------------------------------


class SynthDense:
    """One op generates one 30-vehicle scene. 40 scenes a round: every pair
    of 8 pitches (45-90 degrees) and 5 heights (50-80 m), seeds from --seed."""

    name = "synth_dense"
    n_vehicles = 30

    def __init__(self, api, table: list[S.Vehicle], rng: random.Random, workdir: Path):
        self.api = api
        self.by_name = {(v.brand, v.model): v for v in table}
        self.inputs = [
            (pitch, agl, rng.randrange(2**31))
            for pitch in PITCHES_SYNTH for agl in AGLS_SYNTH
        ]

    def units(self, inp) -> int:
        return self.n_vehicles

    objects = units

    def queries(self, inp) -> int:
        return 0

    def op(self, inp):
        pitch, agl, seed = inp
        p = math.radians(pitch)
        cfg = self.api.synth.SceneConfig(self.n_vehicles, (p, p), (agl, agl), seed=seed)
        return self.api.synth.generate_scene(cfg, self.api.table)

    def fingerprint(self, out):
        return json.dumps([out.annotation, out.ground_truth], sort_keys=True)

    def verify(self, inp, out) -> str | None:
        pitch, agl, _ = inp
        cam = S.Cam(pitch, agl)
        gt = out.ground_truth["objects"]
        ann = out.annotation["objects"]
        if len(gt) != self.n_vehicles or len(ann) != self.n_vehicles:
            return f"placed {len(gt)} of {self.n_vehicles} vehicles"
        poses = []
        for obj, a in zip(gt, ann):
            veh = self.by_name.get((obj["brand"], obj["model"]))
            if veh is None or a["dims_mm"] != {
                "length": veh.length_mm, "width": veh.width_mm, "height": veh.height_mm
            }:
                return f"{obj['id']}: dimensions are not the table's"
            if max(abs(obj["length"] - veh.length_mm / 1000), abs(obj["width"] - veh.width_mm / 1000),
                   abs(obj["height"] - veh.height_mm / 1000)) > 1e-12:
                return f"{obj['id']}: generating box dimensions are not the table's"
            ground = S.lift(cam, obj["center"], -obj["height"] / 2.0)
            u, v = S.to_uv(cam, ground)
            pose = S.Pose(u, v, obj["yaw"], obj["length"], obj["width"], obj["height"])
            for x, y in (S.project(cam, p) for p in pose.corners3d(cam)):
                if not (-1e-6 <= x <= S.WIDTH + 1e-6 and -1e-6 <= y <= S.HEIGHT + 1e-6):
                    return f"{obj['id']}: corner ({x:.2f}, {y:.2f}) is outside the frame"
            poses.append(pose)
        feet = [p.footprint() for p in poses]
        for i in range(len(feet)):
            for j in range(i):
                if S.rects_overlap(feet[i], feet[j]):
                    return f"footprints of {gt[i]['id']} and {gt[j]['id']} overlap"
        if pitch == 90.0:
            typed = self.api.evaluation.annotation_from_dict(out.annotation)
            for obj, pose, a in zip(typed.objects, poses, gt):
                box = self.api.boxes.derive_box3d(obj.obb, obj.dims_m, typed.camera)
                err = math.dist(box.center, pose.center3d(cam))
                yaw = S.yaw_error_deg(math.degrees(box.yaw), math.degrees(pose.yaw))
                if err > NADIR_TOL_M or yaw > math.degrees(NADIR_TOL_M):
                    return f"{a['id']}: nadir derivation off by {err:.2e} m, {yaw:.2e} deg"
        return None

    def corruptions(self, inp, out):
        gt = json.loads(json.dumps(out.ground_truth))
        gt["objects"][1]["center"] = list(gt["objects"][0]["center"])
        yield "shifted box", dataclasses.replace(out, ground_truth=gt)


# --------------------------------------------------------------------------
# build_eval: validate, build, write, load and score one annotation record
# --------------------------------------------------------------------------

SQA_TASKS = ("depth", "distance", "length", "width", "height")
ATTRS = ("brand", "model", "color", "type", "powertrain", "price", "doors", "seats")
NUMERIC_ATTRS = ("price", "doors", "seats")


@dataclasses.dataclass
class Record:
    scene: S.SceneInput
    text: str
    preds: dict
    expected: dict
    out_path: Path


def _kind(rng: random.Random) -> str:
    """Share of planted predictions: 60 % hits, 25 % misses, 15 % parse failures."""
    r = rng.random()
    return "hit" if r < 0.6 else "miss" if r < 0.85 else "missing" if r < 0.9 else "bad"


def _shifted_hbb(hull, iou: float) -> str:
    # Two equal w x h rectangles offset by d along x overlap (w-d)/(w+d).
    x1, y1, x2, y2 = hull
    d = (x2 - x1) * (1 - iou) / (1 + iou)
    return hbb_text((x1 + d, y1, x2 + d, y2))


def _shifted_box3d(pose: S.Pose, cam: S.Cam, iou: float) -> str:
    # Offset along the length axis by d: footprint IoU is (L-d)/(L+d).
    d = pose.length * (1 - iou) / (1 + iou)
    shifted = dataclasses.replace(pose, u=pose.u + d * math.cos(pose.yaw),
                                  v=pose.v + d * math.sin(pose.yaw))
    fields = (*shifted.center3d(cam), pose.length, pose.width, pose.height,
              math.degrees(pose.yaw))
    return "<" + ",".join(f"{v:.3f}" for v in fields) + ">"


def _sqa_truth(scene: S.SceneInput, i: int) -> dict[str, float]:
    pose = scene.poses[i]
    ground = S.ground_point(scene.cam, pose.u, pose.v)
    return {"depth": ground[2], "distance": math.dist(ground, (0, 0, 0)),
            "length": pose.length, "width": pose.width, "height": pose.height}


_SQA_FORMATS = ("{:.3f} m", "It is about {:.2f} meters.", "{:.2f}m")


def make_predictions(scene: S.SceneInput, rng: random.Random):
    """Four prediction files' rows and the scores they must get.

    Hits and misses sit far from each threshold: grounding IoU 0.75 / 0.2
    against 0.5, retrieval BEV IoU 0.7 / 0.1 against 0.25, spatial answers
    off by 2 % / 10 % against the 5 % rule. Missing rows and rows that do
    not parse are planted and counted.
    """
    rows = {"grounding": [], "retrieval": [], "sqa": [], "attr": []}
    hits = {k: 0 for k in rows}
    fails = {k: 0 for k in rows}
    for i, obj in enumerate(scene.annotation["objects"]):
        oid, pose = obj["id"], scene.poses[i]
        kind = _kind(rng)
        hull = S.obb_hull(obj["obb"])
        if kind == "hit":
            rows["grounding"].append({"id": oid, "hbb": _shifted_hbb(hull, 0.75)})
        elif kind == "miss":
            rows["grounding"].append({"id": oid, "answer": f"It is at {_shifted_hbb(hull, 0.2)}."})
        elif kind == "bad":
            rows["grounding"].append({"id": oid, "hbb": "[12,34,56]"})
        hits["grounding"] += kind == "hit"
        fails["grounding"] += kind in ("bad", "missing")

        kind = _kind(rng)
        if kind == "hit":
            rows["retrieval"].append({"id": oid, "box3d": _shifted_box3d(pose, scene.cam, 0.7)})
        elif kind == "miss":
            rows["retrieval"].append({"id": oid, "answer": "Here: " + _shifted_box3d(pose, scene.cam, 0.1)})
        elif kind == "bad":
            rows["retrieval"].append({"id": oid, "box3d": "<1.0,2.0,3.0>"})
        hits["retrieval"] += kind == "hit"
        fails["retrieval"] += kind in ("bad", "missing")

        for task, truth in _sqa_truth(scene, i).items():
            kind = _kind(rng)
            sign = rng.choice((-1.0, 1.0))
            fmt = rng.choice(_SQA_FORMATS)
            if kind == "hit":
                rows["sqa"].append({"id": f"{oid}:{task}", "answer": fmt.format(truth * (1 + 0.02 * sign))})
            elif kind == "miss":
                rows["sqa"].append({"id": f"{oid}:{task}", "answer": fmt.format(truth * (1 + 0.10 * sign))})
            elif kind == "bad":
                rows["sqa"].append({"id": f"{oid}:{task}", "answer": "cannot tell"})
            hits["sqa"] += kind == "hit"
            fails["sqa"] += kind in ("bad", "missing")

        attrs = obj["attributes"]
        for attr in ATTRS:
            kind = _kind(rng)
            value = attrs[attr]
            if kind == "hit":
                answer = f"{value:,}" if attr == "price" else f"  {str(value).upper()} "
            elif kind == "miss":
                answer = str(value + 1) if attr in NUMERIC_ATTRS else f"not {value}"
            else:
                answer = "n/a" if attr in NUMERIC_ATTRS else ""
            if kind != "missing":
                rows["attr"].append({"id": f"{oid}:{attr}", "answer": answer})
            hits["attr"] += kind == "hit"
            fails["attr"] += kind in ("bad", "missing")
    for k in rows:
        rng.shuffle(rows[k])
    return rows, hits, fails


class BuildEval:
    """One op takes one 10-30 object record through validation, instruction
    building, JSONL writing, and loading and scoring four prediction files.
    42 records a round: each size from 10 to 30 twice, pitch 55-90 degrees."""

    name = "build_eval"

    def __init__(self, api, table, rng: random.Random, workdir: Path):
        self.api = api
        sizes = [n for n in range(10, 31) for _ in range(2)]
        self.inputs = []
        for k, (n, cam) in enumerate(zip(sizes, _grid_cams(rng, PITCHES_DERIVED, len(sizes)))):
            scene = S.make_scene(rng, table, n, cam, f"rec{k:02d}")
            rows, hits, fails = make_predictions(scene, rng)
            preds = {}
            for task, task_rows in rows.items():
                path = workdir / f"rec{k:02d}_{task}.jsonl"
                path.write_text("".join(json.dumps(r) + "\n" for r in task_rows), encoding="utf-8")
                preds[task] = path
            counts = {"grounding": n, "retrieval": n, "sqa": 5 * n, "attr": 8 * n}
            expected = {t: (hits[t] / counts[t], fails[t], counts[t]) for t in counts}
            self.inputs.append(Record(scene, json.dumps(scene.annotation), preds, expected,
                                      workdir / f"rec{k:02d}_instructions.jsonl"))

    def units(self, rec: Record) -> int:
        return len(rec.scene.poses)

    objects = units

    def queries(self, rec) -> int:
        return 0

    def op(self, rec: Record):
        ev, ins = self.api.evaluation, self.api.instructions
        ann = ev.annotation_from_dict(json.loads(rec.text))
        built = ins.build_all(ann, self.api.templates)
        written = ins.write_samples(built.samples, rec.out_path)
        reports = (
            ev.evaluate_grounding_file(ann, ev.load_predictions(rec.preds["grounding"])),
            ev.evaluate_retrieval_file(ann, ev.load_predictions(rec.preds["retrieval"])),
            ev.evaluate_sqa_file(ann, ev.load_predictions(rec.preds["sqa"]))[0],
            ev.evaluate_attributes_file(ann, ev.load_predictions(rec.preds["attr"]))[0],
        )
        return built.n_skipped, written, reports

    def fingerprint(self, out):
        return out[0], out[1], repr(out[2])

    def verify(self, rec: Record, out) -> str | None:
        n_skipped, written, reports = out
        n = len(rec.scene.poses)
        if n_skipped != 0 or written != 40 * n:
            return f"{written} samples and {n_skipped} skipped for {n} objects, want {40 * n} and 0"
        problem = self._verify_samples(rec, n)
        if problem:
            return problem
        fields = ("acc_at_05", "acc_at_bev_025", "acc_5pct", "accuracy")
        for task, report, field in zip(("grounding", "retrieval", "sqa", "attr"), reports, fields):
            share, planted, count = rec.expected[task]
            score = getattr(report, field)
            if score is None or abs(score - share) > 1e-9:
                return f"{task} score {score} != {share} built to hit"
            if report.n_parse_failures != planted or report.n_evaluated != count:
                return (f"{task}: {report.n_parse_failures} parse failures of {report.n_evaluated},"
                        f" planted {planted} of {count}")
        return None

    def _verify_samples(self, rec: Record, n: int) -> str | None:
        with open(rec.out_path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        scene, image = rec.scene, rec.scene.annotation["image"]
        for i, obj in enumerate(scene.annotation["objects"]):
            ground = rows[15 * i:15 * i + 15]
            sqa = rows[15 * n + 5 * i:15 * n + 5 * i + 5]
            phase2 = rows[20 * n + 20 * i:20 * n + 20 * i + 20]
            hbb, obb, box3d = ground[0]["target"], ground[5]["target"], ground[10]["target"]
            want = (
                [(image, None, hbb, "GROUND_2D")] * 5 + [(image, None, obb, "GROUND_2D")] * 5
                + [(image, None, box3d, "GROUND_3D")] * 5
            )
            want2 = (
                [(image, None, hbb, "GROUND_2D")] * 5 + [(image, None, box3d, "GROUND_3D")] * 5
                + [(image, hbb, box3d, "ASL")] * 5 + [(None, None, hbb, "GML")] * 5
            )
            got = [(r["image"], r["aux"], r["target"], r["kind"]) for r in ground + phase2]
            if got != want + want2:
                return f"{obj['id']}: instruction layout differs from 15 grounding + 20 phase-2"
            if any(box3d not in r["query"] for r in phase2[15:]):
                return f"{obj['id']}: GML query does not carry the 3D location"
            problem = (check_hbb(hbb, obj["obb"]) or self._check_obb(obb, obj["obb"])
                       or check_box3d(box3d, scene.poses[i], scene.cam))
            if problem:
                return f"{obj['id']}: {problem}"
            truth = _sqa_truth(scene, i)
            for row, task in zip(sqa, SQA_TASKS):
                if row["kind"] != "SQA" or row["task"] != task or not row["target"].endswith(" m"):
                    return f"{obj['id']}: SQA sample {row} is out of place"
                value = float(row["target"][:-2])
                exact = task in ("length", "width", "height")
                if (row["target"] != f"{truth[task]:.2f} m") if exact else abs(value - truth[task]) > CENTER_TOL_M:
                    return f"{obj['id']}: SQA {task} target {row['target']} against {truth[task]:.3f}"
        return None

    @staticmethod
    def _check_obb(text: str, obb: dict) -> str | None:
        vals = parse_box2d(text, 5)
        if vals is None:
            return f"OBB {text!r} does not parse"
        ints = max(abs(a - obb[k]) for a, k in zip(vals, ("cx", "cy", "w", "h")))
        if ints > PIXEL_TOL or S.yaw_error_deg(vals[4], obb["angle_deg"]) > 0.005 + 1e-9:
            return f"OBB {text} is not the annotated box"
        return None

    def corruptions(self, rec, out):
        n_skipped, written, reports = out
        wrong = dataclasses.replace(reports[0], acc_at_05=reports[0].acc_at_05 + 1 / len(rec.scene.poses))
        yield "wrong score", (n_skipped, written, (wrong, *reports[1:]))


# --------------------------------------------------------------------------
# agent_sweep: mock-backend sessions, four questions per object
# --------------------------------------------------------------------------


@dataclasses.dataclass
class Session:
    scene: S.SceneInput
    annotation: object  # typed AnnotationFile, built before timing
    queries: list
    expected: list  # answer string, or ("find", object index)


_FIND = re.compile(r"location: (<[^<>]*>); image box: (\[[^\[\]]*\])")


class AgentSweep:
    """One op is a session on one scene: brand/model, price (web search
    fixture), color and "Find the <brand> <model>" for every object, with
    the default AgentConfig the CLI builds. 40 scenes a round: 24 of 10
    objects and 16 of 30, pitch 55-90 degrees."""

    name = "agent_sweep"

    def __init__(self, api, table, rng: random.Random, workdir: Path):
        self.api = api
        # Listed prices differ from the table's, so an answer that skips
        # the search step shows.
        self.fixtures = {
            f"{v.brand} {v.model} price": f"Listed price today: {v.price - 100 * rng.randint(1, 99):,} CNY."
            for v in table
        }
        self.prices = {key: int(text.split()[3].replace(",", "")) for key, text in self.fixtures.items()}
        sizes = [10] * 24 + [30] * 16
        self.inputs = []
        for k, (n, cam) in enumerate(zip(sizes, _grid_cams(rng, PITCHES_DERIVED, len(sizes)))):
            scene = S.make_scene(rng, table, n, cam, f"session{k:02d}")
            queries, expected = [], []
            for i, (obj, veh) in enumerate(zip(scene.annotation["objects"], scene.vehicles)):
                region = hbb_text(S.obb_hull(obj["obb"]))
                queries += [
                    f"What are the brand and model of the vehicle at {region}?",
                    f"What is the price of the vehicle at {region}?",
                    f"What color is the vehicle at {region}?",
                    f"Find the {veh.brand} {veh.model} in the image.",
                ]
                expected += [
                    f"brand: {veh.brand}; model: {veh.model}",
                    f"price: {self.prices[f'{veh.brand} {veh.model} price']}",
                    f"color: {obj['attributes']['color']}",
                    ("find", i),
                ]
            typed = api.evaluation.annotation_from_dict(scene.annotation)
            self.inputs.append(Session(scene, typed, queries, expected))

    def units(self, s: Session) -> int:
        return len(s.queries)

    queries = units

    def objects(self, s: Session) -> int:
        return len(s.scene.poses)

    def op(self, s: Session):
        ag = self.api.agent
        config = ag.AgentConfig(
            planner=ag.MockPlannerBackend(self.api.table),
            vlm=ag.MockVLMBackend(s.annotation),
            summarizer=ag.MockSummarizerBackend(),
            search=ag.FixtureSearchBackend(self.fixtures),
            table=self.api.table,
        )
        return [ag.run_query(s.annotation.image, q, config) for q in s.queries]

    def fingerprint(self, out):
        return tuple(r["answer"] for r in out)

    @staticmethod
    def failed_steps(out) -> int:
        return sum(1 for r in out for step in r["trace"]["steps"] if step["error"])

    def verify(self, s: Session, out) -> str | None:
        if len(out) != len(s.queries):
            return f"{len(out)} answers to {len(s.queries)} queries"
        for query, want, result in zip(s.queries, s.expected, out):
            answer = result["answer"]
            if isinstance(want, str):
                if answer != want:
                    return f"{query!r} answered {answer!r}, want {want!r}"
                continue
            i = want[1]
            m = _FIND.fullmatch(answer)
            obj = s.scene.annotation["objects"][i]
            problem = (f"answer {answer!r} is not a location" if m is None else
                       check_box3d(m.group(1), s.scene.poses[i], s.scene.cam)
                       or check_hbb(m.group(2), obj["obb"]))
            if problem:
                return f"{query!r}: {problem}"
        return None

    def corruptions(self, s: Session, out):
        bad = [dict(r) for r in out]
        bad[0]["answer"] = bad[0]["answer"].replace("brand: ", "brand: X")
        yield "wrong brand", bad
        bad = [dict(r) for r in out]
        vals = parse_box3d(_FIND.fullmatch(bad[3]["answer"]).group(1))
        vals[0] += 0.5
        box = "<" + ",".join(f"{v:.2f}" for v in vals) + ">"
        bad[3]["answer"] = _FIND.sub(lambda m: f"location: {box}; image box: {m.group(2)}", bad[3]["answer"])
        yield "shifted box", bad


WORKLOADS = {cls.name: cls for cls in (SynthDense, BuildEval, AgentSweep)}
