import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from aerial3d.agent import (
    AgentConfig,
    FixtureSearchBackend,
    HTTPBackend,
    HTTPSearchBackend,
    MockPlannerBackend,
    MockSummarizerBackend,
    MockVLMBackend,
    Toolbox,
    execute,
    load_planner_prompt,
    parse_plan_text,
    plan,
    run_query,
    validate_bindings,
)
from aerial3d.agent import planning
from aerial3d.boxes import Box3D, extract_location
from aerial3d.errors import BindingMissing, PlanParseError, UnknownWorkflow
from aerial3d.evaluation import annotation_from_dict
from aerial3d.vehicles import load_table, packaged_table_path


@pytest.fixture(scope="module")
def table():
    return load_table(packaged_table_path())


@pytest.fixture
def ann(annotation_dict):
    # conftest's second car (Toyota Camry) carries the packaged-table dims,
    # so zero-shot matching must land on it exactly.
    annotation_dict["objects"][0]["dims_mm"] = {
        "length": 4694,
        "width": 1850,
        "height": 1443,
    }  # Tesla Model 3 table row
    annotation_dict["objects"][1]["dims_mm"] = {
        "length": 4885,
        "width": 1835,
        "height": 1455,
    }  # Toyota Camry table row
    return annotation_from_dict(annotation_dict)


def mock_config(ann, table, search=None, **vlm_kw):
    return AgentConfig(
        planner=MockPlannerBackend(table),
        vlm=MockVLMBackend(ann, **vlm_kw),
        summarizer=MockSummarizerBackend(),
        search=search,
        table=table,
    )


CAR0_REGION = "[462,350,618,530]"  # generous box around conftest car0


class ScriptedBackend:
    """Backend returning canned replies in order; records prompts."""

    name = "scripted"

    def __init__(self, replies):
        self.replies = list(replies)
        self.prompts = []

    def complete(self, prompt, image=None):
        self.prompts.append(prompt)
        return self.replies.pop(0)


class TestPlanParsing:
    VALID = """```json
[
  {"tool": "image_understanding", "args": {"attribute": "color"}, "output_name": "visual"},
  {"tool": "summarize", "args": {}, "output_name": "answer"}
]
```"""

    def test_fenced_json(self):
        parsed = parse_plan_text(self.VALID)
        assert [s.tool for s in parsed.steps] == ["image_understanding", "summarize"]

    def test_bare_json_accepted(self):
        bare = self.VALID.replace("```json", "").replace("```", "")
        assert len(parse_plan_text(bare).steps) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "not json at all",
            "```json\n{\"tool\": \"x\"}\n```",  # not an array
            "```json\n[]\n```",  # empty
            # Unknown tool name.
            '[{"tool": "teleport", "args": {}, "output_name": "a"},'
            ' {"tool": "summarize", "args": {}, "output_name": "z"}]',
            # Does not end with summarize.
            '[{"tool": "web_search", "args": {"query": "q"}, "output_name": "a"}]',
            # Duplicate output names.
            '[{"tool": "web_search", "args": {"query": "q"}, "output_name": "a"},'
            ' {"tool": "web_search", "args": {"query": "q"}, "output_name": "a"},'
            ' {"tool": "summarize", "args": {}, "output_name": "z"}]',
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(PlanParseError):
            parse_plan_text(text)


class TestPlanFunction:
    def test_single_retry_recovers(self):
        backend = ScriptedBackend(["garbage", TestPlanParsing.VALID])
        result = plan("What color is it?", backend)
        assert len(backend.prompts) == 2
        assert "valid JSON" in backend.prompts[1] or "json" in backend.prompts[1].lower()
        assert result.tools() == ["image_understanding", "summarize"]

    def test_two_failures_raise(self):
        backend = ScriptedBackend(["garbage", "more garbage"])
        with pytest.raises(PlanParseError):
            plan("What color is it?", backend)


class TestGoldenPlans:
    """The three canonical workflows, as emitted by the mock planner."""

    def test_zero_shot_attribute(self, table):
        result = plan(f"What brand is the vehicle at {CAR0_REGION}?", MockPlannerBackend(table))
        assert result.tools() == ["spatial_understanding", "query_table", "summarize"]

    def test_zero_shot_price_adds_web_search(self, table):
        result = plan(
            f"How much does the vehicle at {CAR0_REGION} cost?", MockPlannerBackend(table)
        )
        assert result.tools() == [
            "spatial_understanding",
            "query_table",
            "web_search",
            "summarize",
        ]

    def test_visual_attribute(self, table):
        result = plan(
            f"What color is the vehicle at {CAR0_REGION}?", MockPlannerBackend(table)
        )
        assert result.tools() == ["image_understanding", "summarize"]

    def test_retrieval(self, table):
        result = plan("Please find the Tesla Model 3 in the image.", MockPlannerBackend(table))
        assert result.tools() == ["query_table", "spatial_understanding", "summarize"]
        assert result.steps[0].args["mode"] == "lookup"
        assert result.steps[1].args["mode"] == "locate"

    def test_unclassifiable_query(self, table):
        with pytest.raises(UnknownWorkflow):
            plan("Write me a poem about clouds.", MockPlannerBackend(table))


class TestBindings:
    def test_undefined_reference_rejected(self):
        bad = parse_plan_text(
            '[{"tool": "query_table", "args": {"mode": "match", "length_m": "$dims.length_m",'
            ' "width_m": 1.8, "height_m": 1.5}, "output_name": "record"},'
            ' {"tool": "summarize", "args": {}, "output_name": "answer"}]'
        )
        with pytest.raises(BindingMissing):
            validate_bindings(bad)

    def test_forward_reference_rejected(self):
        bad = parse_plan_text(
            '[{"tool": "web_search", "args": {"query": "$record.brand"}, "output_name": "a"},'
            ' {"tool": "query_table", "args": {"mode": "lookup", "brand": "Tesla",'
            ' "model": "Model 3"}, "output_name": "record"},'
            ' {"tool": "summarize", "args": {}, "output_name": "answer"}]'
        )
        with pytest.raises(BindingMissing):
            validate_bindings(bad)


class TestExecution:
    def test_zero_shot_steps_resolve_references(self, ann, table):
        toolbox = Toolbox(table=table, vlm=MockVLMBackend(ann))
        steps = plan(
            f"What brand is the vehicle at {CAR0_REGION}?", MockPlannerBackend(table)
        )
        result = execute(steps, toolbox)
        assert not result.failed_steps
        assert result.outputs["record"]["brand"] == "Tesla"
        # The table query received the VLM's measured dimensions.
        resolved = result.steps[1].args
        assert resolved["length_m"] == pytest.approx(4.694, abs=1e-9)

    def test_failed_step_poisons_dependents(self, ann, table):
        # No search backend: web_search fails, summarize-independent steps
        # still succeed, and *dependent* steps are halted.
        toolbox = Toolbox(table=table, vlm=MockVLMBackend(ann), search=None)
        steps = parse_plan_text(
            json.dumps(
                [
                    {
                        "tool": "web_search",
                        "args": {"query": "anything"},
                        "output_name": "web",
                    },
                    {
                        "tool": "image_understanding",
                        "args": {"attribute": "color", "region": CAR0_REGION},
                        "output_name": "visual",
                    },
                    {
                        "tool": "web_search",
                        "args": {"query": "$web.text"},
                        "output_name": "dependent",
                    },
                    {"tool": "summarize", "args": {}, "output_name": "answer"},
                ]
            )
        )
        result = execute(steps, Toolbox(table=table, vlm=MockVLMBackend(ann)))
        errors = {s.output_name: s.error for s in result.steps}
        assert errors["web"] is not None
        assert errors["visual"] is None
        assert "halted" in errors["dependent"]
        assert result.outputs["visual"]["value"] == "white"


class TestMockVLM:
    def test_measure_reports_dims_in_meters(self, ann):
        vlm = MockVLMBackend(ann)
        reply = vlm.complete(f"Measure the vehicle at {CAR0_REGION}: report its "
                             "length, width and height in meters.")
        assert "length 4.694 m" in reply
        assert "width 1.850 m" in reply

    def test_locate_returns_both_boxes(self, ann):
        vlm = MockVLMBackend(ann)
        reply = vlm.complete(
            "Locate the vehicle with length 4.694 m, width 1.850 m, height 1.443 m."
        )
        assert isinstance(extract_location(reply), Box3D)

    def test_attribute_prompt(self, ann):
        vlm = MockVLMBackend(ann)
        reply = vlm.complete(f"What is the color of the vehicle at {CAR0_REGION}?")
        assert reply == "The color of the vehicle is white."

    def test_unmatched_region_refused(self, ann):
        vlm = MockVLMBackend(ann)
        reply = vlm.complete("Measure the vehicle at [0,0,5,5]: length, width, height.")
        assert "cannot" in reply


class TestRunQuery:
    def test_zero_shot_brand_model(self, ann, table):
        result = run_query(
            "scene.png",
            f"What are the brand and model of the vehicle at {CAR0_REGION}?",
            mock_config(ann, table),
        )
        assert result["answer"] == "brand: Tesla; model: Model 3"

    def test_visual_color(self, ann, table):
        result = run_query(
            "scene.png",
            f"What color is the vehicle at {CAR0_REGION}?",
            mock_config(ann, table),
        )
        assert result["answer"] == "color: white"

    def test_retrieval_returns_location(self, ann, table):
        result = run_query(
            "scene.png", "Find the Toyota Camry in the image.", mock_config(ann, table)
        )
        assert result["answer"].startswith("location: <")
        located = extract_location(result["answer"])
        assert isinstance(located, Box3D)

    def test_price_falls_back_to_table_without_search(self, ann, table):
        result = run_query(
            "scene.png",
            f"What is the price of the vehicle at {CAR0_REGION}?",
            mock_config(ann, table),
        )
        assert result["answer"] == "price: 231900"
        failed = [s for s in result["trace"]["steps"] if s["error"]]
        assert [s["tool"] for s in failed] == ["web_search"]

    def test_price_prefers_search_result(self, ann, table):
        search = FixtureSearchBackend({"Tesla Model 3 price": "Listed at 229,000 today."})
        result = run_query(
            "scene.png",
            f"What is the price of the vehicle at {CAR0_REGION}?",
            mock_config(ann, table, search=search),
        )
        assert result["answer"] == "price: 229000"

    def test_planning_failure_is_structured(self, ann, table):
        result = run_query("scene.png", "Write me a poem.", mock_config(ann, table))
        assert result["answer"].startswith("error: planning failed")
        assert result["trace"]["plan"] is None

    def test_blank_query_is_structured(self, ann, table):
        result = run_query("scene.png", "   ", mock_config(ann, table))
        assert result["answer"] == "error: planning failed: query must be non-empty"
        assert result["trace"]["plan"] is None
        assert result["trace"]["answer"] == result["answer"]

    def test_packaged_prompt_read_once(self, ann, table, monkeypatch):
        reads = []

        def counting_load(path=None):
            reads.append(path)
            return load_planner_prompt(path)

        monkeypatch.setattr(planning, "load_planner_prompt", counting_load)
        planning._packaged_planner_prompt.cache_clear()
        query = f"What color is the vehicle at {CAR0_REGION}?"
        answers = [
            run_query("scene.png", query, mock_config(ann, table))["answer"]
            for _ in range(3)
        ]
        assert answers == ["color: white"] * 3
        assert reads == [None]

    def test_traces_are_byte_identical(self, ann, table):
        query = f"What are the brand and model of the vehicle at {CAR0_REGION}?"
        dumps = []
        for _ in range(2):
            result = run_query(
                "scene.png", query, mock_config(ann, table, noise_sigma_mm=5.0, seed=42)
            )
            dumps.append(json.dumps(result["trace"], sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_trace_records_backend_calls(self, ann, table):
        result = run_query(
            "scene.png",
            f"What color is the vehicle at {CAR0_REGION}?",
            mock_config(ann, table),
        )
        trace = result["trace"]
        assert trace["planner_backend"] == "mock-planner"
        calls = trace["steps"][0]["backend_calls"]
        assert calls and calls[0]["backend"] == "mock-vlm"
        assert trace["answer"] == result["answer"]


class _Handler(BaseHTTPRequestHandler):
    fail_first = False
    seen: list[dict] = []

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        type(self).seen.append(json.loads(body))
        if type(self).fail_first:
            type(self).fail_first = False
            self.send_response(500)
            self.end_headers()
            return
        reply = b"pong: " + json.loads(body)["prompt"].encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def do_GET(self):
        from urllib.parse import parse_qs, urlparse

        q = parse_qs(urlparse(self.path).query).get("q", [""])[0]
        reply = f"results for {q}".encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.seen = []
    _Handler.fail_first = False
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


class TestHTTPBackends:
    def test_posts_prompt_and_image(self, http_url):
        backend = HTTPBackend(http_url, name="test")
        reply = backend.complete("hello", image="img.png")
        assert reply == "pong: hello"
        assert _Handler.seen[-1] == {"prompt": "hello", "image": "img.png"}

    def test_retries_one_failure(self, http_url):
        _Handler.fail_first = True
        backend = HTTPBackend(http_url, retries=1)
        assert backend.complete("again") == "pong: again"
        assert len(_Handler.seen) == 2

    def test_raises_after_retries_exhausted(self):
        backend = HTTPBackend("http://127.0.0.1:9/unreachable", retries=0, timeout=0.2)
        with pytest.raises(RuntimeError):
            backend.complete("nope")

    def test_search_get(self, http_url):
        backend = HTTPSearchBackend(http_url)
        assert backend.complete("camry price") == "results for camry price"
