import hashlib
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aerial3d import instructions
from aerial3d.boxes import Box3D, HorizontalBox2D, OrientedBox2D, derive_box3d, parse_location
from aerial3d.cli import main
from aerial3d.errors import ParseError
from aerial3d.evaluation import SQA_TASKS, annotation_from_dict, load_annotations, sqa_ground_truth
from aerial3d.instructions import (
    STAGES,
    InstructionSample,
    build_all,
    build_grounding_samples,
    build_phase2_samples,
    build_sqa_samples,
    load_templates,
    read_samples,
    write_samples,
)

from conftest import make_annotation_dict


@pytest.fixture(scope="module")
def templates():
    return load_templates()


@pytest.fixture
def ann(annotation_dict):
    return annotation_from_dict(annotation_dict)


def _above_horizon_record():
    """10-degree pitch record: car0's OBB center lies above the horizon
    (its ray misses the ground), car1 sits safely below it."""
    data = make_annotation_dict(pitch_deg=10.0, agl=50.0)
    data["objects"][0]["obb"]["cy"] = 30.0
    data["objects"][0]["obb"]["cx"] = 500.0
    data["objects"][1]["obb"]["cy"] = 900.0
    return annotation_from_dict(data)


class TestTemplates:
    def test_packaged_set_loads(self, templates):
        assert set(templates.grounding) == {"hbb", "obb", "box3d"}
        assert all(len(v) == 5 for v in templates.grounding.values())
        assert set(templates.phase2) == {"ground_2d", "ground_3d", "asl", "gml"}
        assert all(len(v) == 5 for v in templates.phase2.values())
        assert set(templates.sqa) == {"depth", "distance", "length", "width", "height"}

    def test_gml_templates_carry_3d_slot(self, templates):
        assert all("{loc3d}" in t for t in templates.phase2["gml"])

    def test_wrong_template_count_rejected(self, tmp_path, templates):
        broken = {
            "grounding": {
                "hbb": list(templates.grounding["hbb"][:4]),
                "obb": list(templates.grounding["obb"]),
                "box3d": list(templates.grounding["box3d"]),
            },
            "sqa": {k: v for k, v in templates.sqa.items()},
            "phase2": {k: list(v) for k, v in templates.phase2.items()},
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        with pytest.raises(ParseError):
            load_templates(path)

    @pytest.mark.parametrize("root", ["[1]", "1", '"grounding"', "null"])
    def test_non_object_root_rejected(self, tmp_path, root):
        path = tmp_path / "t.json"
        path.write_text(root)
        with pytest.raises(ParseError, match=r"t\.json: top level must be a JSON object"):
            load_templates(path)

    def test_unbalanced_braces_rejected(self, tmp_path, templates):
        broken = {
            "grounding": {k: list(v) for k, v in templates.grounding.items()},
            "sqa": {k: v for k, v in templates.sqa.items()},
            "phase2": {k: list(v) for k, v in templates.phase2.items()},
        }
        broken["grounding"]["hbb"][0] = "Locate {target"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        with pytest.raises(ParseError):
            load_templates(path)

    @pytest.mark.parametrize(
        "section, key, template, reason",
        [
            # Only the GML builder supplies {loc3d}.
            ("sqa", "depth", "How deep is {target} at {loc3d}?", "'loc3d'"),
            ("grounding", "hbb", "Locate {target.x}.", "has no attribute 'x'"),
            ("phase2", "asl", "Locate {target[x]}.", "string indices must be integers"),
        ],
        ids=["loc3d-outside-gml", "attribute", "item"],
    )
    def test_template_the_builder_cannot_render_rejected(
        self, tmp_path, templates, section, key, template, reason
    ):
        data = {
            "grounding": {k: list(v) for k, v in templates.grounding.items()},
            "sqa": dict(templates.sqa),
            "phase2": {k: list(v) for k, v in templates.phase2.items()},
        }
        if section == "sqa":
            data[section][key] = template
        else:
            data[section][key][0] = template
        path = tmp_path / "t.json"
        path.write_text(json.dumps(data))
        label = f"{section}/{key}"
        with pytest.raises(ParseError, match=rf"t\.json: template {label} does not render: .*{reason}"):
            load_templates(path)


class TestGroundingSamples:
    def test_fifteen_per_object(self, ann, templates):
        result = build_grounding_samples(ann, templates)
        assert len(result.samples) == 30  # 2 objects x 3 formats x 5 templates
        assert result.n_skipped == 0

    def test_kind_follows_format(self, ann, templates):
        result = build_grounding_samples(ann, templates)
        kinds = {s.kind for s in result.samples}
        assert kinds == {"GROUND_2D", "GROUND_3D"}
        n_3d = sum(1 for s in result.samples if s.kind == "GROUND_3D")
        assert n_3d == 10  # the box3d format only

    def test_targets_reparse_to_expected_types(self, ann, templates):
        for sample in build_grounding_samples(ann, templates).samples:
            loc = parse_location(sample.target)
            if sample.kind == "GROUND_3D":
                assert isinstance(loc, Box3D)
            else:
                assert isinstance(loc, (HorizontalBox2D, OrientedBox2D))

    def test_queries_name_the_object(self, ann, templates):
        queries = [s.query for s in build_grounding_samples(ann, templates).samples]
        assert any("Tesla Model 3" in q for q in queries)
        assert any("Toyota Camry" in q for q in queries)


class TestSqaSamples:
    def test_five_per_object(self, ann, templates):
        result = build_sqa_samples(ann, templates)
        assert len(result.samples) == 10
        assert {s.task for s in result.samples} == {
            "depth",
            "distance",
            "length",
            "width",
            "height",
        }
        assert all(s.kind == "SQA" for s in result.samples)

    def test_targets_are_metric_strings(self, ann, templates):
        for sample in build_sqa_samples(ann, templates).samples:
            value, unit = sample.target.split()
            float(value)
            assert unit == "m"

    def test_length_target_matches_annotation(self, ann, templates):
        lengths = [
            s.target
            for s in build_sqa_samples(ann, templates).samples
            if s.task == "length" and "Tesla" in s.query
        ]
        assert lengths == ["4.50 m"]

    @pytest.mark.parametrize("pitch_deg", [90.0, 60.0, 35.0])
    def test_targets_match_sqa_ground_truth(self, templates, pitch_deg):
        # Builder and scorer must state the same quantities to the cent.
        ann = annotation_from_dict(make_annotation_dict(pitch_deg=pitch_deg))
        gt = sqa_ground_truth(ann)
        expected = [
            f"{gt[f'{obj.id}:{task}']:.2f} m" for obj in ann.objects for task in SQA_TASKS
        ]
        result = build_sqa_samples(ann, templates)
        assert result.n_skipped == 0
        assert [s.target for s in result.samples] == expected


class TestPhase2Samples:
    def test_twenty_per_object(self, ann, templates):
        result = build_phase2_samples(ann, templates)
        assert len(result.samples) == 40
        per_kind = {}
        for s in result.samples:
            per_kind[s.kind] = per_kind.get(s.kind, 0) + 1
        assert per_kind == {"GROUND_2D": 10, "GROUND_3D": 10, "ASL": 10, "GML": 10}

    def test_gml_is_imageless_with_inline_3d_location(self, ann, templates):
        gml = [s for s in build_phase2_samples(ann, templates).samples if s.kind == "GML"]
        assert all(s.image is None for s in gml)
        assert all("{loc3d}" not in s.query for s in gml)
        for s in gml:
            # The query embeds the 3D box; the target maps it back to 2D.
            assert "<" in s.query and ">" in s.query
            assert isinstance(parse_location(s.target), HorizontalBox2D)

    def test_asl_aux_equals_sibling_2d_target(self, ann, templates):
        samples = build_phase2_samples(ann, templates).samples
        # Object-major, kind-major, 5 templates per kind: per object the
        # slots are [0:5]=2D, [5:10]=3D, [10:15]=ASL, [15:20]=GML.
        for base in range(0, len(samples), 20):
            targets_2d = [s.target for s in samples[base : base + 5]]
            aux_asl = [s.aux for s in samples[base + 10 : base + 15]]
            assert aux_asl == targets_2d

    def test_aux_format_obb_switches_both_sides(self, ann, templates):
        samples = build_phase2_samples(ann, templates, aux_format="obb").samples
        two_d = [s for s in samples if s.kind == "GROUND_2D"]
        asl = [s for s in samples if s.kind == "ASL"]
        assert all(isinstance(parse_location(s.target), OrientedBox2D) for s in two_d)
        assert all(isinstance(parse_location(s.aux), OrientedBox2D) for s in asl)

    def test_bad_aux_format_rejected(self, ann, templates):
        with pytest.raises(ValueError):
            build_phase2_samples(ann, templates, aux_format="polygon")


class TestSkipPolicy:
    def test_object_above_horizon_skipped_everywhere(self, templates):
        # At 10-degree pitch the horizon line sits near the frame top;
        # putting one OBB center above it kills the back-projection.
        denom_zero_y = 500.0 - 0.01 * math.tan(math.radians(80.0)) / 1e-5  # ~-5171
        assert denom_zero_y < 0  # sanity: horizon is above the frame top here
        ann = _above_horizon_record()
        # 10-degree pitch: pixels above ~321 px point over the horizon.
        result = build_all(ann, templates)
        kept_each = 15 + 5 + 20
        assert len(result.samples) == kept_each
        assert result.n_skipped == 3  # once per stage


class TestBuildAllStages:
    @pytest.mark.parametrize(
        "stages", [("grounding",), ("sqa",), ("phase2",), ("phase2", "grounding")]
    )
    def test_stages_in_stage_order(self, ann, templates, stages):
        parts = {
            "grounding": build_grounding_samples(ann, templates),
            "sqa": build_sqa_samples(ann, templates),
            "phase2": build_phase2_samples(ann, templates),
        }
        expected = [
            s for name, part in parts.items() if name in stages for s in part.samples
        ]
        assert list(build_all(ann, templates, stages=stages).samples) == expected

    @pytest.mark.parametrize("aux_format", ["hbb", "obb"])
    @pytest.mark.parametrize("record", ["nadir", "above_horizon"])
    def test_equals_the_public_builders(self, ann, templates, aux_format, record):
        if record == "above_horizon":
            ann = _above_horizon_record()
        parts = [
            build_grounding_samples(ann, templates, 1.1),
            build_sqa_samples(ann, templates),
            build_phase2_samples(ann, templates, aux_format, 1.1),
        ]
        built = build_all(ann, templates, aux_format, 1.1)
        assert built.samples == sum((p.samples for p in parts), ())
        assert built.n_skipped == sum(p.n_skipped for p in parts)
        assert built.n_skipped == (3 if record == "above_horizon" else 0)

    def test_derives_each_box_once(self, ann, templates, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return derive_box3d(*args, **kwargs)

        monkeypatch.setattr(instructions, "derive_box3d", counting)
        build_all(ann, templates)
        assert calls == [obj.obb for obj in ann.objects]


class TestSampleRecord:
    SAMPLE = InstructionSample("a.png", "q", None, "[1,2,3,4]", "GROUND_2D", None)

    def test_repr(self):
        assert repr(self.SAMPLE) == (
            "InstructionSample(image='a.png', query='q', aux=None, target='[1,2,3,4]', "
            "kind='GROUND_2D', task=None)"
        )

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.SAMPLE.query = "other"
        assert self.SAMPLE.query == "q"

    def test_equal_samples_are_equal_and_hash_equal(self):
        twin = InstructionSample("a.png", "q", None, "[1,2,3,4]", "GROUND_2D", None)
        other = self.SAMPLE._replace(task="depth")
        assert twin is not self.SAMPLE
        assert twin == self.SAMPLE and hash(twin) == hash(self.SAMPLE)
        # As a NamedTuple, a sample also equals the plain tuple of its fields.
        assert self.SAMPLE == ("a.png", "q", None, "[1,2,3,4]", "GROUND_2D", None)
        assert other != self.SAMPLE
        assert len({self.SAMPLE, twin, other}) == 2

    def test_keyword_construction(self):
        sample = InstructionSample(
            task=None, kind="GROUND_2D", target="[1,2,3,4]", aux=None, query="q", image="a.png"
        )
        assert sample == self.SAMPLE
        assert sample._fields == ("image", "query", "aux", "target", "kind", "task")


# sha256 of the JSONL `build_all` + `write_samples` give for the README demo
# scene (`synth --n 6 --seed 7`) at inflation 1.0, per stage set and aux
# format. `build-instr` with its defaults writes the ("all", "hbb") file,
# which CI's no-deps job checks too.
DEMO_JSONL_SHA256 = {
    ("all", "hbb"): "cace09d9c8d2ee8eedfb7f3cb10429f685805da4716722284902c6f8ff51edc1",
    ("all", "obb"): "5d1fe24adef64f104047e641cd2bfade05ee358c4400161c3f6ba34d28a11fc8",
    ("grounding", "hbb"): "5160efa3360fae0a494ae1742a90fd5baced568254818f9a742bc9bd95b46a0e",
    ("grounding", "obb"): "5160efa3360fae0a494ae1742a90fd5baced568254818f9a742bc9bd95b46a0e",
    ("sqa", "hbb"): "ad77990e1c0a4753f422ffa9a6865bbc819bb50adbbff81107d3fcade8d55d64",
    ("sqa", "obb"): "ad77990e1c0a4753f422ffa9a6865bbc819bb50adbbff81107d3fcade8d55d64",
    ("phase2", "hbb"): "c5dd78454247476f3566a44032ec3f785ba2662ea25c1e9e5f5b6a0837f25bd3",
    ("phase2", "obb"): "ba72eb4248f980440f432ce933a0477b57ed123c38ab4783d9127b43c64af34c",
}

# sha256 of what `eval --task sqa` prints for the README demo scene when each
# prediction is its ground-truth value written as text to centimeters
# (`f"{v:.2f} m"`); CI's no-deps job checks the same bytes.
DEMO_SQA_REPORT_SHA256 = "1fa5f7bd4549f220d3a474c989ea183e892fe55a6cc2f5f3f5c4990b15ac7cd3"


@pytest.fixture(scope="module")
def demo_ann_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo") / "scene"
    assert main(["synth", "--n", "6", "--seed", "7", "--out", str(out)]) == 0
    return out / "annotation.json"


@pytest.fixture(scope="module")
def demo_ann(demo_ann_path):
    return load_annotations(demo_ann_path)


@pytest.mark.parametrize("stage, aux_format", sorted(DEMO_JSONL_SHA256))
def test_demo_jsonl_bytes_are_pinned(demo_ann, templates, tmp_path, stage, aux_format):
    stages = STAGES if stage == "all" else (stage,)
    path = tmp_path / "instr.jsonl"
    write_samples(build_all(demo_ann, templates, aux_format, 1.0, stages).samples, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == DEMO_JSONL_SHA256[stage, aux_format]


def test_demo_sqa_report_bytes_are_pinned(demo_ann_path, demo_ann, tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(
        json.dumps({"id": key, "answer": f"{value:.2f} m"}) + "\n"
        for key, value in sqa_ground_truth(demo_ann).items()
    ))
    assert main(["eval", "--task", "sqa", "--pred", str(preds), "--gt", str(demo_ann_path)]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["n_parse_failures"] == 0
    assert hashlib.sha256(printed.encode()).hexdigest() == DEMO_SQA_REPORT_SHA256


class TestJsonl:
    def test_write_read_roundtrip_and_key_order(self, ann, templates, tmp_path):
        samples = build_all(ann, templates).samples
        path = tmp_path / "train.jsonl"
        count = write_samples(samples, path)
        assert count == len(samples) == 80
        lines = path.read_text().splitlines()
        assert len(lines) == 80
        for line in lines:
            assert list(json.loads(line)) == [
                "image",
                "query",
                "aux",
                "target",
                "kind",
                "task",
            ]
        assert read_samples(path) == list(samples)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            # Surrogates and control characters included.
            st.text(st.characters(exclude_categories=())),
            min_size=6,
            max_size=6,
        ),
        st.sampled_from([(), ("image",), ("aux",), ("task",), ("image", "aux", "task")]),
    )
    @example(['a"b', "\\x\x00\x1f\x7f", "/<>", "é😀\ud800", "\n\u2028", ""], ("aux",))
    def test_to_json_matches_json_dumps(self, values, nulls):
        fields = dict(zip(("image", "query", "aux", "target", "kind", "task"), values))
        fields.update(dict.fromkeys(nulls))
        sample = InstructionSample(**fields)
        assert sample.to_json() == json.dumps(sample._asdict(), ensure_ascii=False)

    @pytest.mark.parametrize(
        "field, value",
        [("image", 1), ("query", None), ("query", ["q"]), ("aux", {}), ("target", 1.5),
         ("kind", None), ("task", True)],
    )
    def test_read_rejects_wrongly_typed_field(self, tmp_path, field, value):
        row = {"image": "a.png", "query": "q", "aux": None, "target": "[1,2,3,4]",
               "kind": "GROUND_2D", "task": None}
        row[field] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"bad\.jsonl: line 1: field '{field}'"):
            read_samples(path)
