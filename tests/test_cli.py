import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aerial3d
from aerial3d.boxes import (
    Box3D,
    bev_iou,
    derive_box3d,
    hbb_iou,
    obb_to_hbb,
    parse_location,
    serialize_location,
)
from aerial3d.camera import PixelPoint, backproject_to_ground
from aerial3d.cli import main
from aerial3d.errors import ParseError, RayMissesGround
from aerial3d.evaluation import (
    annotation_from_dict,
    attribute_ground_truth,
    grounding_ground_truth,
    load_annotations,
    retrieval_ground_truth,
    sqa_ground_truth,
)
from aerial3d.instructions import packaged_templates_path
from aerial3d.synth import MAX_REJECTIONS

from conftest import above_horizon_dict, degenerate_yaw_dict, make_annotation_dict


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


def _loaded(code: str, modules: tuple[str, ...]) -> list[str]:
    """Which of `modules` a fresh `python -S` interpreter holds after running `code`."""
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys\n{code}\nprint(*(m for m in {modules!r} if m in sys.modules))"],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


def test_synth_imports_only_what_it_calls():
    # The package exports resolve on first use, so a submodule loads only
    # the modules it imports itself.
    assert _loaded(
        "import aerial3d.synth",
        ("aerial3d.evaluation", "aerial3d.instructions", "aerial3d.agent"),
    ) == []


def test_boxes_imports_no_evaluation():
    assert _loaded("import aerial3d.boxes", ("aerial3d.evaluation",)) == []


def test_geometry_and_table_records_load_no_dataclasses():
    # Generating a dataclass's methods, and importing `inspect` for it,
    # costs a cold start more than these modules' own code.
    code = "import aerial3d.boxes, aerial3d.camera, aerial3d.vehicles"
    assert _loaded(code, ("dataclasses", "inspect")) == []


@pytest.mark.parametrize("argv", [
    ["iou", "--hbb", "[0,0,2,2]", "--hbb", "[1,0,3,2]"],
    ["match", "--length-mm", "4870", "--width-mm", "1950", "--height-mm", "1725"],
])
def test_subcommand_loads_only_its_modules(argv):
    code = f"from aerial3d import cli\nassert cli.main({argv!r}) == 0"
    modules = ("aerial3d.agent", "aerial3d.synth", "aerial3d.instructions", "tempfile",
               "dataclasses", "inspect")
    assert _loaded(code, modules) == []


def test_stage_choices_are_the_instruction_stages():
    # The parser names the stages without importing instructions.
    from aerial3d import cli, instructions

    assert cli.STAGES == instructions.STAGES


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

    @pytest.mark.parametrize("command", [
        ["derive3d", "--annotations", "a.json"],
        ["build-instr", "--annotations", "a.json", "--out", "o.jsonl"],
        ["eval", "--task", "retrieval", "--pred", "p.jsonl", "--gt", "a.json"],
    ], ids=["derive3d", "build-instr", "eval"])
    def test_inflation_is_no_option(self, capsys, command):
        # Boxes are derived at the annotated dimensions; no flag scales them.
        with pytest.raises(SystemExit) as info:
            run([*command, "--inflation", "1.1"])
        assert info.value.code == 2
        assert "unrecognized arguments: --inflation 1.1" in capsys.readouterr().err

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

    @pytest.mark.parametrize("length", ["inf", "1e200"])
    def test_unmatchable_dims_domain_error(self, capsys, length):
        assert run(["match", "--length-mm", length, "--width-mm", "1800",
                    "--height-mm", "1500"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: query dims ") and captured.err.count("\n") == 1
        assert captured.out == ""

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

    @pytest.mark.parametrize(
        "row, message",
        [
            ("BYD,Tang,4870,1950,1725,PHEV,239,800,5,7", "more than 9 fields"),
            ("BYD,Tang,4870,1950,1725,PHEV,nan,5,7", "price must be finite and >= 0, got nan"),
            ("BYD,Tang,inf,1950,1725,PHEV,239800,5,7",
             "dimensions must be positive and finite, got (inf, 1950.0, 1725.0)"),
        ],
        ids=["long-row", "nan-price", "inf-length"],
    )
    def test_table_row_that_is_not_nine_finite_fields_is_domain_error(
        self, tmp_path, capsys, row, message
    ):
        # Each of these rows loaded: the match printed price 239 and doors
        # 800, or `"price": NaN`, which is not JSON, or failed to compare
        # the query with an infinite length.
        path = tmp_path / "bad.csv"
        path.write_text(
            "brand,model,length_mm,width_mm,height_mm,powertrain,price,doors,seats\n" + row + "\n"
        )
        assert run(["match", "--table", str(path), "--length-mm", "4870",
                    "--width-mm", "1950", "--height-mm", "1725"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: row 2: {message}\n"
        assert captured.out == ""

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

    def test_box_without_pixel_extent_names_its_pointer(self, tmp_path, annotation_dict, capsys):
        # A 1e-14 px side vanishes in the corner sums, so the box's pixel
        # hull has no height.
        annotation_dict["objects"][1]["obb"] = {
            "cx": 500.0, "cy": 500.0, "w": 90.0, "h": 1e-14, "angle_deg": 0.0
        }
        path = tmp_path / "annotation.json"
        path.write_text(json.dumps(annotation_dict))
        assert run(["derive3d", "--annotations", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: /objects/1/obb: degenerate box [455.0,500.0,545.0,500.0]: "
            "need x1 < x2 and y1 < y2\n"
        )


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

    def test_unplaceable_height_names_the_vehicle(self, tmp_path, capsys):
        # At this height every corner projects to one pixel: each candidate
        # is rejected, and the error names the vehicle that found no place.
        assert run(["synth", "--n", "2", "--agl", "1e300", "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: could not place vehicle 0 (")
        assert err.endswith(f" after {MAX_REJECTIONS} attempts\n")
        assert not (tmp_path / "d").exists()

    def test_negative_seed_is_named(self, tmp_path, capsys):
        assert run(["synth", "--n", "3", "--seed", "-1", "--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flag", ["--image-width", "--image-height"])
    def test_image_size_past_the_float_range_is_domain_error(self, tmp_path, capsys, flag):
        # Such an int passed the camera's >= 1 check and overflowed where
        # synth first measured the frame in floats.
        assert run(["synth", "--n", "1", flag, str(10**400), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: image size must be at most 1.79769e+308 px per side, got ")
        assert err.count("\n") == 1
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


# The README demo's two `agent run` queries: per query, the printed answer,
# the sha256 of `json.dumps(trace, sort_keys=True)`, and the sha256 of the
# file `--trace demo/trace.json` writes, which CI's no-deps job checks for
# the first query. The trace holds the image path, so the queries run from
# the demo's parent directory with the README's relative paths.
DEMO_AGENT_PINS = {
    "What are the brand and model of the vehicle at [675,431,777,520]?": (
        "brand: BYD; model: Tang",
        "ce155eba091c028c576c7053aa2775de17a9048a919572016f4bef2c48cf8149",
        "fcb8a05c059d4696a3a92f9039b9918a63b49d04df01e1351e23765562dcd78f",
    ),
    "Find the BYD Tang in the image.": (
        "location: <11.29,-1.22,49.14,4.87,1.95,1.73,-35.45>; image box: [675,431,777,520]",
        "e3b23feb7da9a6856b5e277da2f9b4dbf46b25a08efb1ba1648d7bf4176f53e2",
        "14594fb43e003b9e7e38fef9bff267c29d90f309121f543909109316028c2c54",
    ),
}


class TestReadmeWalkthrough:
    """The README's CLI walkthrough, run in order from a fresh directory."""

    def test_agent_answers_and_trace_bytes_are_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["synth", "--n", "6", "--seed", "7", "--out", "demo/scene"]) == 0
        agent = ["agent", "run", "--backend", "mock", "--image", "demo/scene/scene_00007.png",
                 "--annotations", "demo/scene/annotation.json"]
        for query, (answer, trace_sha, file_sha) in DEMO_AGENT_PINS.items():
            capsys.readouterr()
            assert run([*agent, "--query", query, "--trace", "demo/trace.json"]) == 0
            assert capsys.readouterr().out == answer + "\n"
            raw = Path("demo/trace.json").read_bytes()
            trace = json.loads(raw)
            assert trace["answer"] == answer
            compact = json.dumps(trace, sort_keys=True).encode()
            assert (hashlib.sha256(compact).hexdigest(), hashlib.sha256(raw).hexdigest()) == (
                trace_sha, file_sha
            )

    def test_cost_query_answers_the_table_price(self, tmp_path, monkeypatch, capsys):
        # No search backend: the web search fails and the table's price answers.
        monkeypatch.chdir(tmp_path)
        assert run(["synth", "--n", "6", "--seed", "7", "--out", "demo/scene"]) == 0
        capsys.readouterr()
        assert run(["agent", "run", "--backend", "mock", "--image", "demo/scene/scene_00007.png",
                    "--annotations", "demo/scene/annotation.json",
                    "--query", "What does the vehicle at [675,431,777,520] cost?"]) == 0
        assert capsys.readouterr().out == "price: 239800\n"

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

    def test_single_stage(self, tmp_path, ann_path, capsys):
        out = tmp_path / "sqa.jsonl"
        run(["build-instr", "--annotations", ann_path, "--out", str(out),
             "--stage", "sqa"])
        assert json.loads(capsys.readouterr().out)["written"] == 10


_ABOVE_HORIZON = "pixel (500.0, 30.0) is at or above the horizon (denominator -2.892e-03)"
_SEGMENT_ROUNDS_TO_NO_PIXEL = (
    "2D boxes [500,500,90,0,-90.00] and [500,455,500,545] have a side that rounds to no pixel"
)
_ROUNDS_TO_ZERO = "dimensions 0.004 x 0.003 x 0.002 m round to 0.00 m"
_PAST_FLOAT_RANGE = "pixel (540.0, 440.0) meets the ground beyond the float range at (inf, -inf, inf)"
_SUBNORMAL_DIMS = "dimensions must be positive and finite, got 0.0 x 0.0 x 0.0 m"


def _subnormal_dims_dict() -> dict:
    """The two-car record with car0's dims_mm positive but subnormal: they
    load, and are 0.0 in meters."""
    data = make_annotation_dict()
    data["objects"][0]["dims_mm"] = {"length": 5e-324, "width": 5e-324, "height": 5e-324}
    return data


class TestUnderivableObjects:
    """Each command's policy for an object without a ground center or 3D box."""

    @pytest.fixture
    def write(self, tmp_path):
        def write(data: dict) -> str:
            path = tmp_path / "annotation.json"
            path.write_text(json.dumps(data))
            return str(path)

        return write

    @pytest.mark.parametrize(
        "record, written, skipped",
        [(above_horizon_dict, 40, 3), (degenerate_yaw_dict, 5, 2), (_subnormal_dims_dict, 40, 3)],
        ids=["above-horizon", "degenerate-yaw", "subnormal-dims"],
    )
    def test_build_instr_counts_skips(self, tmp_path, write, capsys, record, written, skipped):
        out = str(tmp_path / "o.jsonl")
        assert run(["build-instr", "--annotations", write(record()), "--out", out]) == 0
        assert capsys.readouterr().out == json.dumps(
            {"written": written, "objects_skipped": skipped, "out": out}
        ) + "\n"

    def test_build_instr_skips_a_box_that_rounds_to_no_pixel(self, tmp_path, write, capsys):
        data = make_annotation_dict()
        data["objects"][0]["obb"].update(w=0.4, h=0.3)
        path, out = write(data), str(tmp_path / "o.jsonl")
        argv = ["build-instr", "--annotations", path, "--stage", "phase2", "--aux-format", "obb"]
        assert run([*argv, "--out", out]) == 0
        captured = capsys.readouterr()
        assert captured.out == json.dumps({"written": 20, "objects_skipped": 1, "out": out}) + "\n"
        assert captured.err == (
            f"skipped: {path}: object 'car0': 2D boxes [540,440,0,0,-30.00] and"
            " [540,440,540,440] have a side that rounds to no pixel\n"
        )
        rows = [json.loads(line) for line in Path(out).read_text().splitlines()]
        texts = [r["target"] for r in rows] + [r["aux"] for r in rows if r["aux"] is not None]
        assert len(texts) == 25
        for text in texts:
            parse_location(text)

    @pytest.mark.parametrize(
        "record, reason",
        [
            (above_horizon_dict, _ABOVE_HORIZON),
            (degenerate_yaw_dict, _SEGMENT_ROUNDS_TO_NO_PIXEL),
            (_subnormal_dims_dict, _SUBNORMAL_DIMS),
        ],
        ids=["above-horizon", "degenerate-yaw", "subnormal-dims"],
    )
    def test_build_instr_names_each_skipped_object(self, tmp_path, write, capsys, record, reason):
        path = write(record())
        assert run(["build-instr", "--annotations", path, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == f"skipped: {path}: object 'car0': {reason}\n"

    def test_derive3d_writes_what_derives_and_names_the_rest(self, write, capsys):
        assert run(["derive3d", "--annotations", write(above_horizon_dict())]) == 0
        captured = capsys.readouterr()
        assert list(json.loads(captured.out)) == ["car1"]
        assert captured.err == f"skipped: object 'car0': {_ABOVE_HORIZON}\n"

    def test_derive3d_degenerate_yaw_among_good_cars(self, annotation_dict, write, capsys):
        # derive3d writes the 3D box alone, so a segment's box is written.
        annotation_dict["objects"].append({
            **annotation_dict["objects"][0],
            "id": "car2",
            "obb": {"cx": 500.0, "cy": 500.0, "w": 90.0, "h": 1e-12, "angle_deg": 90.0},
        })
        assert run(["derive3d", "--annotations", write(annotation_dict)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["car2"] == "<0.00,0.00,49.25,4.50,1.80,1.50,-90.00>"
        assert list(json.loads(captured.out)) == ["car0", "car1", "car2"]
        assert captured.err == ""

    def test_derive3d_skips_dimensions_that_round_to_zero(self, write, capsys):
        data = make_annotation_dict()
        data["objects"][0]["dims_mm"] = {"length": 4, "width": 3, "height": 2}
        path = write(data)
        assert run(["derive3d", "--annotations", path]) == 0
        captured = capsys.readouterr()
        assert list(json.loads(captured.out)) == ["car1"]
        assert captured.err == f"skipped: object 'car0': {_ROUNDS_TO_ZERO}\n"
        assert run(["derive3d", "--annotations", path, "--id", "car0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: object 'car0': {_ROUNDS_TO_ZERO}\n"

    @pytest.fixture
    def past_float_range(self, write):
        """The two-car record seen from so high that each center's ground
        point overflows: t = agl / denominator is inf."""
        data = make_annotation_dict()
        data["camera"]["agl_m"] = 1.7e308
        return write(data)

    def test_derive3d_names_centers_past_the_float_range(self, past_float_range, capsys):
        assert run(["derive3d", "--annotations", past_float_range]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {}
        err = captured.err.splitlines()
        assert [line.split(": pixel ")[0] for line in err] == [
            "skipped: object 'car0'", "skipped: object 'car1'"
        ]
        assert err[0].startswith(f"skipped: object 'car0': {_PAST_FLOAT_RANGE}")

    def test_build_instr_names_centers_past_the_float_range(
        self, tmp_path, past_float_range, capsys
    ):
        out = str(tmp_path / "o.jsonl")
        assert run(["build-instr", "--annotations", past_float_range, "--out", out]) == 0
        captured = capsys.readouterr()
        assert captured.out == json.dumps({"written": 0, "objects_skipped": 6, "out": out}) + "\n"
        err = captured.err.splitlines()
        assert [line.split(": pixel ")[0] for line in err] == [
            f"skipped: {past_float_range}: object 'car0'",
            f"skipped: {past_float_range}: object 'car1'",
        ]
        assert Path(out).read_text() == ""

    @pytest.mark.parametrize("task", ["retrieval", "sqa"])
    def test_eval_names_a_center_past_the_float_range(
        self, tmp_path, past_float_range, capsys, task
    ):
        preds = tmp_path / "preds.jsonl"
        preds.write_text("")
        assert run(["eval", "--task", task, "--pred", str(preds), "--gt", past_float_range]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: object 'car0': {_PAST_FLOAT_RANGE}")

    def test_derive3d_names_subnormal_dims(self, write, capsys):
        assert run(["derive3d", "--annotations", write(_subnormal_dims_dict())]) == 0
        captured = capsys.readouterr()
        assert list(json.loads(captured.out)) == ["car1"]
        assert captured.err == f"skipped: object 'car0': {_SUBNORMAL_DIMS}\n"

    def test_eval_names_subnormal_dims(self, tmp_path, write, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text("")
        path = write(_subnormal_dims_dict())
        assert run(["eval", "--task", "sqa", "--pred", str(preds), "--gt", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: object 'car0': {_SUBNORMAL_DIMS}\n"

    def test_build_instr_writes_no_infinite_distance(self, tmp_path, write, capsys):
        # Seen from 1e200 m, a center's coordinates are finite but their
        # squares overflow; its distance is still a number.
        data = make_annotation_dict()
        data["camera"]["agl_m"] = 1e200
        out = tmp_path / "o.jsonl"
        assert run(["build-instr", "--annotations", write(data), "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["objects_skipped"] == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        sqa = [r["target"] for r in rows if r["kind"] == "SQA"]
        assert len(sqa) == 10
        assert not [text for text in sqa if "inf" in text]

    def test_derive3d_id_without_box_is_domain_error(self, write, capsys):
        path = write(above_horizon_dict())
        assert run(["derive3d", "--annotations", path, "--id", "car0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: object 'car0': {_ABOVE_HORIZON}\n"

    @pytest.mark.parametrize("task", ["retrieval", "sqa"])
    def test_eval_names_the_object(self, tmp_path, write, capsys, task):
        preds = tmp_path / "preds.jsonl"
        preds.write_text("")
        path = write(above_horizon_dict())
        assert run(["eval", "--task", task, "--pred", str(preds), "--gt", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: object 'car0': {_ABOVE_HORIZON}\n"


# About half the boxes are 1e-12 px segments, whose 2D wire forms do not parse.
_FUZZ_OBB = st.fixed_dictionaries({
    "cx": st.floats(100, 900),
    "cy": st.floats(60, 940),
    "w": st.floats(40, 120),
    "h": st.one_of(st.just(1e-12), st.floats(10, 40)),
    "angle_deg": st.floats(-90, 90),
})


@st.composite
def _fuzz_records(draw) -> dict:
    """Pitch 10-90 degrees and a focal length of 10-1000 px, so that the
    horizon crosses the frame in many records and some centers lie above it."""
    data = make_annotation_dict(pitch_deg=draw(st.floats(10, 90)), agl=draw(st.floats(20, 100)))
    data["camera"]["focal_length_m"] = 10 ** draw(st.floats(-4, -2))
    car = data["objects"][0]
    obbs = draw(st.lists(_FUZZ_OBB, min_size=1, max_size=4))
    data["objects"] = [{**car, "id": f"car{i}", "obb": obb} for i, obb in enumerate(obbs)]
    return data


def _derives(obj, cam) -> bool:
    """Whether the camera primitive gives the object a ground center; the
    box primitive must then give it a 3D box too."""
    try:
        backproject_to_ground(PixelPoint(obj.obb.cx, obj.obb.cy), cam)
    except RayMissesGround:
        return False
    assert isinstance(derive_box3d(obj.obb, obj.dims_m, cam), Box3D)
    return True


def _2d_targets_parse(obj) -> bool:
    """Whether the object's OBB and HBB wire forms parse back."""
    try:
        for box in (obj.obb, obb_to_hbb(obj.obb)):
            parse_location(serialize_location(box))
    except ParseError:
        return False
    return True


@pytest.mark.parametrize(
    "argv",
    [["derive3d"], ["build-instr", "--out", "o.jsonl"], ["eval", "--task", "sqa", "--pred", "p.jsonl"]],
    ids=["derive3d", "build-instr", "eval-sqa"],
)
def test_dims_wider_than_long_is_named_by_its_pointer(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    data = make_annotation_dict()
    data["objects"][1]["dims_mm"] = {"length": 1800, "width": 4500, "height": 1500}
    Path("a.json").write_text(json.dumps(data))
    Path("p.jsonl").write_text('{"id": "car0:length", "answer": "4.5 m"}\n')
    flag = "--gt" if argv[0] == "eval" else "--annotations"
    assert run([*argv, flag, "a.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: /objects/1/dims_mm: width 4500 mm exceeds length 1800 mm\n"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_fuzz_records())
def test_fuzz_each_command_applies_its_policy_to_underivable_objects(data):
    ann = annotation_from_dict(data)
    derives = {obj.id: _derives(obj, ann.camera) for obj in ann.objects}
    boxed = [obj_id for obj_id, ok in derives.items() if ok]
    unboxed = [obj_id for obj_id, ok in derives.items() if not ok]
    # A 1e-12 px segment's box derives, but its 2D targets would not parse,
    # so grounding and phase 2 skip it.
    subpixel = [obj.id for obj in ann.objects if derives[obj.id] and not _2d_targets_parse(obj)]
    targeted = [obj_id for obj_id in boxed if obj_id not in subpixel]

    def cli(*argv: str) -> tuple[int, str, list[str]]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        return code, out.getvalue(), err.getvalue().splitlines()

    def names(lines: list[str], prefix: str, ids: list[str]) -> bool:
        return len(lines) == len(ids) and all(
            line.startswith(f"{prefix}object {obj_id!r}: ") for line, obj_id in zip(lines, ids)
        )

    with tempfile.TemporaryDirectory() as tmp:
        path, preds, out_path = (os.path.join(tmp, n) for n in ("a.json", "p.jsonl", "o.jsonl"))
        Path(path).write_text(json.dumps(data))
        Path(preds).write_text("")

        code, out, err = cli("derive3d", "--annotations", path)
        assert code == 0 and list(json.loads(out)) == boxed
        assert names(err, "skipped: ", unboxed)

        code, out, err = cli("build-instr", "--annotations", path, "--out", out_path)
        assert code == 0
        assert json.loads(out) == {
            "written": 40 * len(targeted) + 5 * len(subpixel),
            "objects_skipped": 3 * len(unboxed) + 2 * len(subpixel),
            "out": out_path,
        }
        assert names(err, f"skipped: {path}: ", [i for i in derives if i not in targeted])

        for task in ("retrieval", "sqa"):
            code, out, err = cli("eval", "--task", task, "--pred", preds, "--gt", path)
            assert code == (1 if unboxed else 0)
            assert names(err, "error: ", unboxed[:1])


# Edge values for every numeric flag, as the shell would pass them: zero,
# negatives, a subnormal, the edge of the float range, inf, nan and an int
# past the float range.
_EDGE_VALUES = ("0", "-1", "-0.0", "1e-320", "1e308", "inf", "nan", str(10**400))


def _values(*ordinary: str):
    """An ordinary value half the time, so that the other flags of a
    command often pass and an edge value reaches the code behind them."""
    return st.one_of(st.sampled_from(ordinary), st.sampled_from(_EDGE_VALUES))


def _exit_code(argv: list[str]) -> int:
    """`cli.main`'s exit code, argparse's usage exit included; any other
    exception propagates and fails the test."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code


def _reject_constant(name: str):
    """json.loads' hook for NaN and Infinity, which strict JSON does not have."""
    raise ValueError(f"not strict JSON: {name}")


def _draw_flags(data, flags: dict) -> list[str]:
    """Each flag, or not, with a drawn value."""
    argv = []
    for flag, values in flags.items():
        if data.draw(st.booleans()):
            argv += [flag, data.draw(values, label=flag)]
    return argv


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_fuzz_synth_flags_exit_0_1_or_2(data):
    # A small --n keeps an unplaceable scene's rejection loop short.
    argv = ["synth", "--n", data.draw(st.sampled_from(["0", "1", "2"]), label="--n")]
    argv += _draw_flags(data, {
        "--pitch-deg": _values("30", "90"),
        "--agl": _values("50"),
        "--ground-extent": _values("40"),
        "--image-width": _values("800"),
        "--image-height": _values("600"),
        "--seed": _values("3"),
    })
    with tempfile.TemporaryDirectory() as tmp:
        assert _exit_code([*argv, "--out", os.path.join(tmp, "d")]) in (0, 1, 2)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """The two-car record and one prediction file every eval task reads."""
    root = tmp_path_factory.mktemp("fuzz")
    ann = root / "a.json"
    ann.write_text(json.dumps(make_annotation_dict()))
    preds = root / "p.jsonl"
    preds.write_text(
        '{"id": "car0", "hbb": "[450,380,630,500]", "box3d": "<0.50,1.00,50.00,4.50,1.80,1.50,0.00>"}\n'
        '{"id": "car0:price", "answer": "150000"}\n'
    )
    return str(ann), str(preds)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_fuzz_numeric_flags_exit_0_1_or_2(fuzz_files, data):
    ann, _ = fuzz_files
    command, flags = data.draw(st.sampled_from([
        (["match"], {f"--{axis}-mm": _values("1800") for axis in ("length", "width", "height")}),
        (["agent", "run", "--annotations", ann, "--query",
          "What are the brand and model of the vehicle at [462,350,618,530]?"],
         {"--noise-sigma-mm": _values("5")}),
        (["agent", "run", "--annotations", ann, "--query", "Find the Toyota Camry in the image."],
         {"--noise-sigma-px": _values("2")}),
    ]), label="command")
    assert _exit_code([*command, *_draw_flags(data, flags)]) in (0, 1, 2)


# Answers for the eval fuzz: ordinary numbers, the edge of the float range
# either way, a number past it (400 nines), the non-finite spellings, empty
# text and text with no number.
_EVAL_ANSWERS = ("4.5", "50 m", "1.7976e308 m", "-1.7976e308 m", "9" * 400 + " m", "inf", "nan",
                 "", "white")


@pytest.fixture(scope="module")
def eval_fuzz_dir(tmp_path_factory):
    """The two-car record seen from 50, 1e200 and 1e306 m, one file each.
    From the two heights near the float range, an answer at its edge can
    put an error, or its square, past it."""
    root = tmp_path_factory.mktemp("eval-fuzz")
    for agl in (50.0, 1e200, 1e306):
        (root / f"{agl:g}.json").write_text(json.dumps(make_annotation_dict(agl=agl)))
    return root


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_fuzz_eval_exits_0_or_1_alike_in_both_formats(eval_fuzz_dir, data):
    task = data.draw(st.sampled_from(["sqa", "attr"]), label="task")
    agl = data.draw(st.sampled_from([50.0, 1e200, 1e306]), label="agl_m")
    ann = eval_fuzz_dir / f"{agl:g}.json"
    truth = (sqa_ground_truth if task == "sqa" else attribute_ground_truth)(load_annotations(ann))
    answers = st.sampled_from(_EVAL_ANSWERS)
    pred = eval_fuzz_dir / "p.jsonl"
    pred.write_text("".join(
        json.dumps({"id": key, "answer": data.draw(answers, label=key)}) + "\n" for key in truth
    ))
    argv = ["eval", "--task", task, "--pred", str(pred), "--gt", str(ann), "--format"]
    codes = [_exit_code([*argv, fmt]) for fmt in ("json", "table")]
    assert codes[0] in (0, 1) and codes[0] == codes[1], codes


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

    @pytest.mark.parametrize("task, flag, value", [
        ("grounding", "--thresh", "0.5"),
        ("retrieval", "--thresh", "0.5"),
        ("attr", "--price-tol", "0.05"),
    ])
    def test_threshold_flags_are_usage_errors(self, fuzz_files, capsys, task, flag, value):
        # Each metric has one threshold, the one its report field names.
        ann, preds = fuzz_files
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--task", task, "--pred", preds, "--gt", ann, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} {value}" in err
        assert "Traceback" not in err

    def test_scores_at_each_fields_threshold(self, tmp_path, capsys):
        # One 80 x 40 px box at the nadir image center: a 4 x 2 m footprint.
        # The predictions keep half its height, then half its footprint
        # sides, so each overlap sits exactly on its task's threshold.
        data = make_annotation_dict()
        car = dict(data["objects"][0], obb={"cx": 500.0, "cy": 500.0, "w": 80.0, "h": 40.0,
                                            "angle_deg": 0.0},
                   dims_mm={"length": 4000, "width": 2000, "height": 1500})
        data["objects"] = [car]
        ann_path = tmp_path / "a.json"
        ann_path.write_text(json.dumps(data))
        ann = load_annotations(ann_path)
        hbb, box3d = "[460,480,540,500]", "<0.00,0.00,49.25,2.00,1.00,1.50,0.00>"
        assert hbb_iou(parse_location(hbb), grounding_ground_truth(ann)["car0"]) == 0.5
        gt_box = retrieval_ground_truth(ann)["car0"]
        assert bev_iou(parse_location(box3d), gt_box, ann.camera) == 0.25
        pred_path = tmp_path / "p.jsonl"
        pred_path.write_text(json.dumps({"id": "car0", "hbb": hbb, "box3d": box3d}) + "\n")
        argv = ["eval", "--pred", str(pred_path), "--gt", str(ann_path), "--task"]
        assert run([*argv, "grounding"]) == 0
        assert json.loads(capsys.readouterr().out)["acc_at_05"] == 1.0
        assert run([*argv, "retrieval"]) == 0
        assert json.loads(capsys.readouterr().out)["acc_at_bev_025"] == 0.0

    @pytest.mark.parametrize("answers", [
        ["1e308 m"] * 3,  # fsum overflowed: a traceback
        ["1e400 m"],  # read as inf: "mae": Infinity
        ["1e308 m", "9" * 400 + " m"] * 5,
    ], ids=["three-1e308", "one-1e400", "1e308-and-400-nines"])
    def test_sqa_report_of_absurd_answers_is_strict_json(
        self, tmp_path, ann_path, capsys, answers
    ):
        keys = sqa_ground_truth(load_annotations(ann_path))
        pred_path = tmp_path / "p.jsonl"
        pred_path.write_text("".join(
            json.dumps({"id": key, "answer": text}) + "\n" for key, text in zip(keys, answers)
        ))
        assert run(["eval", "--task", "sqa", "--pred", str(pred_path), "--gt", ann_path]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert report["mae"] == (1e308 if "1e308 m" in answers else None)

    def test_non_finite_report_is_a_domain_error(self, tmp_path, capsys):
        # From 1e306 m a depth is ~1e306; an answer of -1.7976e308 m is then
        # farther from it than the float range reaches, even scaled.
        ann_path = tmp_path / "a.json"
        ann_path.write_text(json.dumps(make_annotation_dict(agl=1e306)))
        pred_path = tmp_path / "p.jsonl"
        pred_path.write_text(json.dumps({"id": "car0:depth", "answer": "-1.7976e308 m"}) + "\n")
        out_path = tmp_path / "report.json"
        assert run(["eval", "--task", "sqa", "--pred", str(pred_path), "--gt", str(ann_path),
                    "--out", str(out_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: Out of range float values are not JSON compliant"
        )
        assert not out_path.exists()

    def test_non_finite_table_report_is_the_same_domain_error(self, tmp_path, capsys):
        # The record above, with both depth answers past the range: the
        # table reads the report the JSON format writes, so it fails alike.
        ann_path = tmp_path / "a.json"
        ann_path.write_text(json.dumps(make_annotation_dict(agl=1e306)))
        pred_path = tmp_path / "p.jsonl"
        pred_path.write_text("".join(
            json.dumps({"id": f"{car}:depth", "answer": "-1.7976e308 m"}) + "\n"
            for car in ("car0", "car1")
        ))
        argv = ["eval", "--task", "sqa", "--pred", str(pred_path), "--gt", str(ann_path),
                "--format"]
        assert run([*argv, "json"]) == 1
        json_err = capsys.readouterr().err
        assert json_err.startswith("error: Out of range float values are not JSON compliant")
        assert run([*argv, "table"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", json_err)


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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--noise-sigma-mm", "-5", "noise_sigma_mm must be finite and >= 0, got -5.0"),
            ("--noise-sigma-mm", "nan", "noise_sigma_mm must be finite and >= 0, got nan"),
            ("--noise-sigma-px", "inf", "noise_sigma_px must be finite and >= 0, got inf"),
        ],
    )
    def test_bad_noise_sigma_is_domain_error(self, capsys, ann_path, flag, value, message):
        assert run(["agent", "run", "--annotations", ann_path, flag, value,
                    "--query", "What color is the vehicle at [255,604,345,696]?"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_failed_locate_exits_1(self, tmp_path, capsys):
        # On the README demo scene, center noise this large sends the BYD
        # Tang's pixel past the horizon: the locate step fails, and the
        # looked-up table record alone does not answer a "find" query.
        assert run(["synth", "--n", "6", "--seed", "7", "--out", str(tmp_path / "scene")]) == 0
        capsys.readouterr()
        trace_path = tmp_path / "trace.json"
        code = run(["agent", "run", "--backend", "mock",
                    "--annotations", str(tmp_path / "scene" / "annotation.json"),
                    "--noise-sigma-px", "1e300", "--trace", str(trace_path),
                    "--query", "Find the BYD Tang in the image."])
        assert code == 1
        assert capsys.readouterr().out == "error: could not locate the BYD Tang\n"
        steps = json.loads(trace_path.read_text())["steps"]
        assert [(s["tool"], s["error"] is None) for s in steps] == [
            ("query_table", True), ("spatial_understanding", False)
        ]
        assert "is at or above the horizon" in steps[1]["error"]

    def test_unplannable_query_exits_1(self, tmp_path, capsys, ann_path):
        code = run(["agent", "run", "--query", "Sing a song.",
                    "--annotations", ann_path])
        assert code == 1
        assert capsys.readouterr().out.startswith("error:")
