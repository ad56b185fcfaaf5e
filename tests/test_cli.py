import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aerial3d
from aerial3d.boxes import Box3D, parse_location
from aerial3d.cli import main
from aerial3d.evaluation import (
    attribute_ground_truth,
    load_annotations,
    sqa_ground_truth,
)
from aerial3d.instructions import packaged_templates_path

from conftest import make_annotation_dict


@pytest.fixture
def ann_path(tmp_path, annotation_dict):
    path = tmp_path / "annotation.json"
    path.write_text(json.dumps(annotation_dict))
    return str(path)


def run(args):
    return main(args)


_SRC = str(Path(aerial3d.__file__).resolve().parents[1])


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this checkout's package."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True,
        text=True,
    )


def test_import_does_not_load_jsonschema():
    # jsonschema and numpy are test-only oracles and requests is no
    # dependency at all: the package must import none of them. The HTTP
    # stack loads on first use, so the mock agent path never pays for it.
    code = (
        "import sys, aerial3d, aerial3d.agent, aerial3d.cli; "
        "print(*(m in sys.modules for m in "
        "('jsonschema', 'requests', 'numpy', 'http.client', 'urllib.request')))"
    )
    done = _python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"] * 5


def test_import_does_not_load_importlib_resources():
    # Packaged data is found from the package directory. `-S` skips site
    # start-up, whose `.pth` files may import importlib.resources themselves.
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, aerial3d, aerial3d.agent, aerial3d.cli; "
         "print('importlib.resources' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_cli_runs_with_numpy_unimportable(tmp_path):
    # sys.modules["numpy"] = None makes every `import numpy` raise.
    code = """
import json, sys
sys.modules["numpy"] = None
from aerial3d.cli import main

d = sys.argv[1]
ann = d + "/scene/annotation.json"
with open(d + "/preds.jsonl", "w") as fh:
    for i, answer in enumerate(["4.1 m", "4.6 m", "3.9 m"]):
        fh.write(json.dumps({"id": f"veh{i}:length", "answer": answer}) + "\\n")
codes = [
    main(["synth", "--n", "6", "--seed", "7", "--out", d + "/scene"]),
    main(["build-instr", "--annotations", ann, "--out", d + "/instr.jsonl"]),
    main(["eval", "--task", "sqa", "--pred", d + "/preds.jsonl", "--gt", ann]),
    main(["agent", "run", "--backend", "mock", "--annotations", ann,
          "--noise-sigma-mm", "20", "--noise-sigma-px", "1",
          "--query", "What are the brand and model of the vehicle at [0,0,1000,1000]?"]),
]
print("exit codes", *codes, file=sys.stderr)
"""
    done = _python(code, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip() == "exit codes 0 0 0 0"


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["frobnicate"])
        assert info.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run(["match", "--length-mm", "4500"])
        assert info.value.code == 2

    def test_every_subcommand_has_help(self, capsys):
        for sub in ["derive3d", "project", "iou", "match", "build-instr", "eval", "synth"]:
            with pytest.raises(SystemExit) as info:
                run([sub, "--help"])
            assert info.value.code == 0
            assert "usage" in capsys.readouterr().out


class TestIou:
    def test_hand_hbb_pair(self, capsys):
        assert run(["iou", "--hbb", "[0,0,2,2]", "--hbb", "[1,0,3,2]"]) == 0
        assert capsys.readouterr().out.strip() == "0.3333"

    def test_single_hbb_is_usage_error(self, capsys):
        assert run(["iou", "--hbb", "[0,0,2,2]"]) == 2
        assert "error" in capsys.readouterr().err

    def test_box3d_pair_needs_camera(self, capsys, ann_path):
        box = "<0.00,0.00,50.00,4.50,1.80,1.50,0.00>"
        assert run(["iou", "--box3d", box, "--box3d", box]) == 2
        assert run(["iou", "--box3d", box, "--box3d", box, "--annotations", ann_path]) == 0
        assert capsys.readouterr().out.strip().endswith("1.0000")

    def test_unparseable_box_is_domain_error(self, capsys):
        assert run(["iou", "--hbb", "[0,0,2,2]", "--hbb", "nonsense"]) == 1
        assert "error:" in capsys.readouterr().err


class TestMatch:
    def test_by_dimensions(self, capsys):
        assert run(["match", "--length-mm", "4690", "--width-mm", "1848",
                    "--height-mm", "1440"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["brand"], record["model"]) == ("Tesla", "Model 3")

    def test_nonpositive_dims_domain_error(self, capsys):
        assert run(["match", "--length-mm", "0", "--width-mm", "1", "--height-mm", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_short_table_row_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text(
            "brand,model,length_mm,width_mm,height_mm,powertrain,price,doors,seats\n"
            "Tesla,Model X,5036,1999,1684\n"
        )
        assert run(["match", "--table", str(path), "--length-mm", "5036",
                    "--width-mm", "1999", "--height-mm", "1684"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: row 2: ") and err.count("\n") == 1

    def test_oversized_table_field_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text(
            "brand,model,length_mm,width_mm,height_mm,powertrain,price,doors,seats\n"
            'Tesla,"' + "x" * 131_073 + '",4500,1800,1500,BEV,100,4,5\n'
        )
        assert run(["match", "--table", str(path), "--length-mm", "4500",
                    "--width-mm", "1800", "--height-mm", "1500"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: row 2: ") and err.count("\n") == 1


class TestDerive3dAndProject:
    def test_derive_all_objects(self, capsys, ann_path):
        assert run(["derive3d", "--annotations", ann_path]) == 0
        result = json.loads(capsys.readouterr().out)
        assert set(result) == {"car0", "car1"}
        assert isinstance(parse_location(result["car0"]), Box3D)

    def test_derive_unknown_id_domain_error(self, capsys, ann_path):
        assert run(["derive3d", "--annotations", ann_path, "--id", "ghost"]) == 1
        assert "ghost" in capsys.readouterr().err

    def test_project_roundtrip(self, capsys, ann_path):
        run(["derive3d", "--annotations", ann_path, "--id", "car0"])
        box_text = json.loads(capsys.readouterr().out)["car0"]
        assert run(["project", "--annotations", ann_path, "--box3d", box_text]) == 0
        projected = json.loads(capsys.readouterr().out)
        assert len(projected["corners_px"]) == 8
        hbb = parse_location(projected["hbb"])
        # The car sits around pixel (540, 440); its hull must too.
        assert hbb.x1 < 540 < hbb.x2 and hbb.y1 < 440 < hbb.y2

    def test_project_rejects_2d_box(self, capsys, ann_path):
        assert run(["project", "--annotations", ann_path, "--box3d", "[1,2,3,4]"]) == 1

    def test_out_flag_writes_file(self, tmp_path, ann_path, capsys):
        out = tmp_path / "derived.json"
        assert run(["derive3d", "--annotations", ann_path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert set(json.loads(out.read_text())) == {"car0", "car1"}


@pytest.mark.parametrize("command", ["derive3d", "build-instr"])
def test_inflation_below_the_wire_resolution_is_domain_error(
    tmp_path, ann_path, capsys, command
):
    # 0.002 x 1.8 m is a 3.6 mm width, which the 3D wire format writes as
    # 0.00 and parse_location rejects.
    out = tmp_path / "out"
    code = run([command, "--annotations", ann_path, "--out", str(out),
                "--inflation", "0.002"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: 3D box dimensions ")
    assert err[0].endswith(" round to 0.00 in the wire format")
    assert not out.exists()


class TestSynthCli:
    def test_generates_scene_dir(self, tmp_path, capsys):
        out = tmp_path / "scene"
        code = run(["synth", "--n", "4", "--pitch-deg", "90", "--agl", "60",
                    "--seed", "5", "--out", str(out)])
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert info["n_objects"] == 4
        ann = load_annotations(info["annotation"])
        assert len(ann.objects) == 4

    def test_infinite_agl_is_domain_error(self, tmp_path):
        done = _python(
            "import sys; from aerial3d.cli import main; sys.exit(main(sys.argv[1:]))",
            "synth", "--n", "3", "--agl", "inf", "--out", str(tmp_path / "d"),
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: agl_range must be positive and finite")
        assert "Traceback" not in done.stderr

    def test_negative_seed_is_named(self, tmp_path, capsys):
        assert run(["synth", "--n", "3", "--seed", "-1", "--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "d").exists()

    def test_seed_reproducibility_bytes(self, tmp_path, capsys):
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["synth", "--n", "3", "--seed", "9", "--out", str(out)])
            info = json.loads(capsys.readouterr().out)
            with open(info["annotation"], "rb") as fh:
                payloads.append(fh.read())
        assert payloads[0] == payloads[1]


class TestReadmeWalkthrough:
    """The README's CLI walkthrough, run in order from a fresh directory."""

    def test_printed_strings(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        box = "<11.29,-1.22,49.14,4.87,1.95,1.73,-35.45>"

        def out(*argv):
            assert run(list(argv)) == 0
            return capsys.readouterr().out

        assert json.loads(out("synth", "--n", "6", "--seed", "7", "--out", "demo/scene")) == {
            "annotation": "demo/scene/annotation.json",
            "ground_truth": "demo/scene/ground_truth.json",
            "image": "demo/scene/scene_00007.png",
            "n_objects": 6,
        }
        ann = ["--annotations", "demo/scene/annotation.json"]
        assert json.loads(out("derive3d", *ann, "--id", "veh0")) == {"veh0": box}
        assert out("iou", "--hbb", "[0,0,2,2]", "--hbb", "[1,0,3,2]") == "0.3333\n"
        match = json.loads(out("match", "--length-mm", "4690", "--width-mm", "1848",
                               "--height-mm", "1440"))
        assert (match["brand"], match["model"]) == ("Tesla", "Model 3")
        assert out("build-instr", *ann, "--out", "demo/instr.jsonl") == (
            '{"written": 240, "objects_skipped": 0, "out": "demo/instr.jsonl"}\n'
        )
        gts = sqa_ground_truth(load_annotations("demo/scene/annotation.json"))
        Path("demo/preds.jsonl").write_text("".join(
            json.dumps({"id": key, "answer": f"{value:.2f} m"}) + "\n"
            for key, value in gts.items()
        ))
        report = json.loads(out("eval", "--task", "sqa", "--pred", "demo/preds.jsonl",
                                "--gt", "demo/scene/annotation.json"))
        assert (report["n_evaluated"], report["n_parse_failures"]) == (30, 0)
        assert (report["mae"], report["acc_5pct"]) == (0.002257, 1.0)
        agent = ["agent", "run", "--backend", "mock",
                 "--image", "demo/scene/scene_00007.png", *ann]
        query = "What are the brand and model of the vehicle at [675,431,777,520]?"
        assert out(*agent, "--query", query, "--trace", "demo/trace.json") == (
            "brand: BYD; model: Tang\n"
        )
        plan = json.loads(Path("demo/trace.json").read_text())["plan"]
        assert [step["tool"] for step in plan] == [
            "spatial_understanding", "query_table", "summarize"
        ]
        assert out(*agent, "--query", "Find the BYD Tang in the image.") == (
            f"location: {box}; image box: [675,431,777,520]\n"
        )


class TestBuildInstrCli:
    def test_all_stages_counts(self, tmp_path, ann_path, capsys):
        out = tmp_path / "train.jsonl"
        assert run(["build-instr", "--annotations", ann_path, "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["written"] == 80  # 2 objects x (15 + 5 + 20)
        assert len(out.read_text().splitlines()) == 80

    def test_stage_files_concatenate_to_all(self, tmp_path, ann_path):
        texts = {}
        for stage in ("all", "grounding", "sqa", "phase2"):
            out = tmp_path / f"{stage}.jsonl"
            assert run(["build-instr", "--annotations", ann_path, ann_path,
                        "--out", str(out), "--stage", stage]) == 0
            texts[stage] = out.read_text().splitlines()
        # Per file, the stages run in order; the second file follows the first.
        half = {stage: len(lines) // 2 for stage, lines in texts.items()}
        one_file = [
            line for stage in ("grounding", "sqa", "phase2")
            for line in texts[stage][: half[stage]]
        ]
        assert texts["all"] == one_file * 2

    def test_non_object_templates_is_domain_error(self, tmp_path, ann_path, capsys):
        templates = tmp_path / "t.json"
        templates.write_text("[1]")
        code = run(["build-instr", "--annotations", ann_path, "--templates", str(templates),
                    "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert "t.json: top level must be a JSON object" in capsys.readouterr().err

    def test_template_placeholder_the_builder_lacks_is_domain_error(
        self, tmp_path, ann_path, capsys
    ):
        data = json.loads(packaged_templates_path().read_text())
        data["sqa"]["depth"] = "How deep is {target} at {loc3d}?"
        templates = tmp_path / "t.json"
        templates.write_text(json.dumps(data))
        out = tmp_path / "o.jsonl"
        code = run(["build-instr", "--annotations", ann_path, "--templates", str(templates),
                    "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            f"error: {templates}: template sqa/depth does not render: 'loc3d'"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("inflation", ["inf", "nan", "1e308"])
    def test_non_finite_inflation_is_domain_error(self, tmp_path, ann_path, capsys, inflation):
        out = tmp_path / "o.jsonl"
        code = run(["build-instr", "--annotations", ann_path, "--out", str(out),
                    "--inflation", inflation])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: inflated dimensions must be positive and finite")
        assert not out.exists()

    def test_single_stage(self, tmp_path, ann_path, capsys):
        out = tmp_path / "sqa.jsonl"
        run(["build-instr", "--annotations", ann_path, "--out", str(out),
             "--stage", "sqa"])
        assert json.loads(capsys.readouterr().out)["written"] == 10


class TestEvalCli:
    def test_sqa_json_report(self, tmp_path, ann_path, capsys):
        ann = load_annotations(ann_path)
        pred_path = tmp_path / "preds.jsonl"
        lines = [
            json.dumps({"id": key, "answer": f"{value:.6f} m"})
            for key, value in sqa_ground_truth(ann).items()
        ]
        pred_path.write_text("\n".join(lines) + "\n")
        assert run(["eval", "--task", "sqa", "--pred", str(pred_path),
                    "--gt", ann_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["task"] == "sqa"
        assert report["acc_5pct"] == 1.0
        assert set(report["tasks"]) == {"depth", "distance", "length", "width", "height"}

    def test_attr_table_format(self, tmp_path, ann_path, capsys):
        ann = load_annotations(ann_path)
        pred_path = tmp_path / "preds.jsonl"
        lines = [
            json.dumps({"id": key, "answer": value})
            for key, value in attribute_ground_truth(ann).items()
        ]
        pred_path.write_text("\n".join(lines) + "\n")
        assert run(["eval", "--task", "attr", "--pred", str(pred_path),
                    "--gt", ann_path, "--format", "table"]) == 0
        text = capsys.readouterr().out
        assert "attributes" in text and "accuracy" in text

    def test_bad_prediction_file_domain_error(self, tmp_path, ann_path, capsys):
        pred_path = tmp_path / "preds.jsonl"
        pred_path.write_text("not json\n")
        assert run(["eval", "--task", "sqa", "--pred", str(pred_path),
                    "--gt", ann_path]) == 1

    @pytest.mark.parametrize(
        "task, flag, value, message",
        [
            ("retrieval", "--thresh", "nan", "thresh must be in (0, 1), got nan"),
            ("retrieval", "--thresh", "inf", "thresh must be in (0, 1), got inf"),
            ("retrieval", "--thresh", "-3", "thresh must be in (0, 1), got -3.0"),
            ("attr", "--price-tol", "nan", "price_tol must be finite and >= 0, got nan"),
            ("attr", "--price-tol", "-0.05", "price_tol must be finite and >= 0, got -0.05"),
        ],
    )
    def test_out_of_range_option_is_domain_error(
        self, tmp_path, ann_path, capsys, task, flag, value, message
    ):
        pred_path = tmp_path / "preds.jsonl"
        pred_path.write_text("")
        assert run(["eval", "--task", task, "--pred", str(pred_path), "--gt", ann_path,
                    flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestAgentCli:
    def test_mock_requires_annotations(self, capsys):
        assert run(["agent", "run", "--query", "anything", "--backend", "mock"]) == 2

    def test_zero_shot_query(self, tmp_path, capsys):
        # Give car1 the packaged Camry dims so matching is exact.
        data = make_annotation_dict()
        data["objects"][1]["dims_mm"] = {"length": 4885, "width": 1835, "height": 1455}
        ann_path = tmp_path / "a.json"
        ann_path.write_text(json.dumps(data))
        trace_path = tmp_path / "trace.json"
        code = run([
            "agent", "run",
            "--query", "What are the brand and model of the vehicle at [255,604,345,696]?",
            "--annotations", str(ann_path),
            "--trace", str(trace_path),
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "brand: Toyota; model: Camry"
        trace = json.loads(trace_path.read_text())
        assert [s["tool"] for s in trace["plan"]] == [
            "spatial_understanding", "query_table", "summarize",
        ]

    def test_dead_planner_exits_1_with_trace(self, tmp_path, capsys):
        dead = "http://127.0.0.1:9/unreachable"  # discard port: nothing listens
        trace_path = tmp_path / "trace.json"
        code = run(["agent", "run", "--query", "What color is it?",
                    "--backend", "http", "--planner-url", dead, "--vlm-url", dead,
                    "--summarizer-url", dead, "--timeout", "0.2",
                    "--trace", str(trace_path)])
        assert code == 1
        answer = capsys.readouterr().out.strip()
        assert answer.startswith("error: planning failed: http-planner backend failed")
        assert json.loads(trace_path.read_text())["answer"] == answer

    @staticmethod
    def _price_query(tmp_path, fixtures: bytes) -> int:
        # car1 has the packaged Camry dims, so the search query is "Toyota Camry price".
        data = make_annotation_dict()
        data["objects"][1]["dims_mm"] = {"length": 4885, "width": 1835, "height": 1455}
        ann_path = tmp_path / "a.json"
        ann_path.write_text(json.dumps(data))
        path = tmp_path / "fixtures.json"
        path.write_bytes(fixtures)
        return run(["agent", "run", "--annotations", str(ann_path),
                    "--search-fixtures", str(path),
                    "--query", "What is the price of the vehicle at [255,604,345,696]?"])

    @pytest.mark.parametrize(
        "fixtures",
        [b"[1]", b'["ab"]', b"{not json", b'{"Toyota Camry price": "\xff"}', b'{"q": 5}'],
        ids=["list-of-int", "list-of-str", "not-json", "bad-utf8", "non-string-value"],
    )
    def test_bad_search_fixtures_exit_1(self, tmp_path, capsys, fixtures):
        assert self._price_query(tmp_path, fixtures) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {tmp_path / 'fixtures.json'}: ")
        assert "Traceback" not in captured.err

    def test_search_fixtures_answer_the_price(self, tmp_path, capsys):
        fixtures = json.dumps({"Toyota Camry price": "Listed at 199,000 today."})
        assert self._price_query(tmp_path, fixtures.encode()) == 0
        assert capsys.readouterr().out.strip() == "price: 199000"

    def test_unplannable_query_exits_1(self, tmp_path, capsys, ann_path):
        code = run(["agent", "run", "--query", "Sing a song.",
                    "--annotations", ann_path])
        assert code == 1
        assert capsys.readouterr().out.startswith("error:")
