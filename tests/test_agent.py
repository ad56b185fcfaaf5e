import json
import math
import random
import re
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
    Plan,
    Toolbox,
    VALID_TOOLS,
    execute,
    load_planner_prompt,
    parse_plan_text,
    plan,
    run_query,
    validate_bindings,
)
from aerial3d.agent import backends, planning, runtime, summarize
from aerial3d.boxes import (
    Box3D,
    OrientedBox2D,
    extract_location,
    hbb_iou,
    obb_to_hbb,
    serialize_location,
)
from aerial3d.errors import BackendError, BindingMissing, PlanParseError, UnknownWorkflow
from aerial3d.evaluation import annotation_from_dict
from aerial3d.synth import SceneConfig, generate_scene
from aerial3d.camera import CameraPoint
from aerial3d.vehicles import (
    VehicleRecord,
    VehicleTable,
    load_table,
    lookup,
    packaged_table_path,
)

import oracles
from conftest import make_annotation_dict


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

    def test_plan_without_steps_rejected(self):
        # plan_from_steps rejects an empty array first; Plan itself holds too.
        with pytest.raises(PlanParseError, match="^plan has no steps$"):
            Plan(())


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

    @pytest.mark.parametrize(
        "reply, message",
        [
            ("{}", "plan must be a non-empty JSON array of steps"),
            ("[]", "plan must be a non-empty JSON array of steps"),
            ("[1]", "step 0 is not an object"),
            ('[{"tool": "summarize", "args": {}}]', "step 0 is missing field 'output_name'"),
            (
                '[{"tool": "summarize", "args": [], "output_name": "answer"}]',
                "step 0: args must be an object",
            ),
            ('[{"tool": "summarize", "args": {}, "output_name": "1a"}]', "invalid output name '1a'"),
        ],
        ids=["object", "empty", "number-step", "no-output-name", "list-args", "digit-name"],
    )
    def test_invalid_plan_names_its_fault(self, reply, message):
        backend = ScriptedBackend([reply, reply])
        with pytest.raises(PlanParseError) as raised:
            plan("What color is it?", backend)
        assert str(raised.value) == f"planner output unparseable after one retry: {message}"
        assert len(backend.prompts) == 2


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


_DIMS_AND_MATCH_STEPS = """\
  {
    "tool": "spatial_understanding",
    "args": {
      "mode": "dims",
      "region": "[462,350,618,530]"
    },
    "output_name": "dims"
  },
  {
    "tool": "query_table",
    "args": {
      "mode": "match",
      "length_m": "$dims.length_m",
      "width_m": "$dims.width_m",
      "height_m": "$dims.height_m"
    },
    "output_name": "record"
  },"""
_SUMMARIZE_STEP = """\
  {
    "tool": "summarize",
    "args": {},
    "output_name": "answer"
  }"""


# The same plans as the mock planner writes them: json.dumps without indent.
_DIMS_AND_MATCH_COMPACT = (
    '{"tool": "spatial_understanding", "args": {"mode": "dims", "region": '
    '"[462,350,618,530]"}, "output_name": "dims"}, {"tool": "query_table", '
    '"args": {"mode": "match", "length_m": "$dims.length_m", "width_m": '
    '"$dims.width_m", "height_m": "$dims.height_m"}, "output_name": "record"}, '
)
_SUMMARIZE_COMPACT = '{"tool": "summarize", "args": {}, "output_name": "answer"}'


class TestMockPlannerReplies:
    """The exact reply text for the four question kinds of the benchmark's
    agent sessions: perfbench figures depend on these bytes. Each reply
    decodes to the plan of the indented reply earlier versions wrote."""

    @pytest.mark.parametrize(
        "query, compact, indented",
        [
            (
                f"What are the brand and model of the vehicle at {CAR0_REGION}?",
                _DIMS_AND_MATCH_COMPACT + _SUMMARIZE_COMPACT,
                _DIMS_AND_MATCH_STEPS + "\n" + _SUMMARIZE_STEP,
            ),
            (
                f"What is the price of the vehicle at {CAR0_REGION}?",
                _DIMS_AND_MATCH_COMPACT
                + '{"tool": "web_search", "args": {"query": '
                '"$record.brand $record.model price"}, "output_name": "web_price"}, '
                + _SUMMARIZE_COMPACT,
                _DIMS_AND_MATCH_STEPS
                + """
  {
    "tool": "web_search",
    "args": {
      "query": "$record.brand $record.model price"
    },
    "output_name": "web_price"
  },
"""
                + _SUMMARIZE_STEP,
            ),
            (
                f"What color is the vehicle at {CAR0_REGION}?",
                '{"tool": "image_understanding", "args": {"attribute": "color", '
                '"region": "[462,350,618,530]"}, "output_name": "visual"}, '
                + _SUMMARIZE_COMPACT,
                """\
  {
    "tool": "image_understanding",
    "args": {
      "attribute": "color",
      "region": "[462,350,618,530]"
    },
    "output_name": "visual"
  },
"""
                + _SUMMARIZE_STEP,
            ),
            (
                "Find the Toyota Camry in the image.",
                '{"tool": "query_table", "args": {"mode": "lookup", "brand": "Toyota", '
                '"model": "Camry"}, "output_name": "record"}, {"tool": '
                '"spatial_understanding", "args": {"mode": "locate", "length_mm": '
                '"$record.length_mm", "width_mm": "$record.width_mm", "height_mm": '
                '"$record.height_mm"}, "output_name": "location"}, '
                + _SUMMARIZE_COMPACT,
                """\
  {
    "tool": "query_table",
    "args": {
      "mode": "lookup",
      "brand": "Toyota",
      "model": "Camry"
    },
    "output_name": "record"
  },
  {
    "tool": "spatial_understanding",
    "args": {
      "mode": "locate",
      "length_mm": "$record.length_mm",
      "width_mm": "$record.width_mm",
      "height_mm": "$record.height_mm"
    },
    "output_name": "location"
  },
"""
                + _SUMMARIZE_STEP,
            ),
        ],
        ids=["brand-model", "price", "color", "find"],
    )
    def test_reply_bytes(self, table, query, compact, indented):
        prompt = load_planner_prompt().replace("{query}", query)
        reply = MockPlannerBackend(table).complete(prompt)
        assert reply == "```json\n[" + compact + "]\n```"
        assert json.loads("[" + compact + "]") == json.loads("[\n" + indented + "\n]")


class TestToolbox:
    # Per tool: its arguments, the reply its backend gives, and part of its output.
    CALLS = {
        "spatial_understanding": (
            {"mode": "dims", "region": CAR0_REGION},
            "length 4.885 m, width 1.835 m, height 1.455 m",
            {"length_m": 4.885, "width_m": 1.835, "height_m": 1.455},
        ),
        "image_understanding": (
            {"attribute": "color"},
            "The color of the vehicle is white.",
            {"attribute": "color", "value": "white"},
        ),
        "query_table": (
            {"mode": "lookup", "brand": "Toyota", "model": "Camry"},
            None,  # no backend call
            {"brand": "Toyota", "model": "Camry", "length_mm": 4885.0},
        ),
        "web_search": (
            {"query": "Toyota Camry price"},
            "Listed at 199,800 today.",
            {"text": "Listed at 199,800 today."},
        ),
    }

    @pytest.mark.parametrize("tool", VALID_TOOLS)
    def test_every_valid_tool_dispatches_to_its_tool(self, table, tool):
        args, reply, expected = self.CALLS[tool]
        backend = ScriptedBackend([reply])
        recorder = []
        output = Toolbox(table=table, vlm=backend, search=backend).invoke(
            tool, args, "scene.png", recorder
        )
        assert expected.items() <= output.items()
        assert [call["response"] for call in recorder] == ([reply] if reply else [])

    @pytest.mark.parametrize("mode", ["match", "lookup"])
    def test_query_table_returns_a_fresh_record_dict(self, table, mode):
        args = {"mode": mode, "brand": "Toyota", "model": "Camry",
                "length_m": 4.885, "width_m": 1.835, "height_m": 1.455}
        expected = list(lookup(table, "Toyota", "Camry")._asdict().items())
        toolbox = Toolbox(table=table)
        first = toolbox.invoke("query_table", args, None, [])
        assert list(first.items()) == expected
        first["price"] = -1.0  # must not reach the record behind it
        assert list(toolbox.invoke("query_table", args, None, []).items()) == expected

    @pytest.mark.parametrize("tool", ["teleport", "summarize", "_ask", ""])
    def test_unknown_tool_rejected(self, table, tool):
        toolbox = Toolbox(table=table, vlm=ScriptedBackend([]), search=ScriptedBackend([]))
        with pytest.raises(ValueError, match="unknown tool"):
            toolbox.invoke(tool, {}, "scene.png", [])


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


def _refs(value) -> list[tuple[str, str | None]]:
    """The ($name, field-or-None) references `execute`'s binding check reads
    from one argument value."""
    parts = planning._split_refs(value)
    return [] if parts is None else list(zip(parts[1::3], parts[2::3]))


def _resolve(value, outputs: dict):
    """The value `execute` hands the tool: an argument without a reference
    as is, any other substituted."""
    parts = planning._split_refs(value)
    return value if parts is None else runtime._substitute(parts, outputs)


class TestReferences:
    """_split_refs skips the pattern for a string with no "$"; a "$" that
    starts no name is text, as is a string without one."""

    OUTPUTS = {"record": {"brand": "Toyota", "model": "Camry"}, "dims": {"length_m": 4.885}}

    @pytest.mark.parametrize(
        "value",
        ["", "anything", CAR0_REGION, "US$ 5", "$5", "a$", "$", "$$", 4.885, None, ["$dims"]],
    )
    def test_text_without_a_reference(self, value):
        assert planning._split_refs(value) is None

    def test_whole_value_reference(self):
        assert _refs("$dims.length_m") == [("dims", "length_m")]
        assert _refs("$record") == [("record", None)]
        assert _resolve("$dims.length_m", self.OUTPUTS) == 4.885
        assert _resolve("$record", self.OUTPUTS) is self.OUTPUTS["record"]

    @pytest.mark.parametrize(
        "value, refs, resolved",
        [
            (
                "$record.brand $record.model price",
                [("record", "brand"), ("record", "model")],
                "Toyota Camry price",
            ),
            ("US$ 5 for a $record.model", [("record", "model")], "US$ 5 for a Camry"),
            ("$5 or $dims.length_m$", [("dims", "length_m")], "$5 or 4.885$"),
        ],
    )
    def test_embedded_references(self, value, refs, resolved):
        assert _refs(value) == refs
        assert _resolve(value, self.OUTPUTS) == resolved


class TestHopIdentities:
    """Each hop is the identity of the straightforward one in tests/oracles.py:
    the fence the lazy regex selects, the bytes `json.dumps` writes, the
    prompt `str.replace` builds, the references `fullmatch`/`re.sub` resolve."""

    # Backtick runs, fence words, every kind of whitespace `\s` matches
    # around a newline, and prose and JSON to put around them.
    FENCE_PIECES = (
        [*("`" * k for k in range(1, 7))] * 4
        + ["json", "JSON", "jsonl", "js"] * 2
        + list(" \t\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029\xa0")
        + ["\n"] * 12
        + [
            "Here is the plan:",
            "ok",
            "[",
            "]",
            "[]",
            '{"tool": "x"}',
            '[{"tool": "summarize", "args": {}, "output_name": "answer"}]',
            '[{"tool": "web_search", "args": {"query": "q"}, "output_name": "w"},',
            "é",
            '"',
            "\\",
        ]
    )

    def test_fence_selection_and_errors_match_the_lazy_regex(self, monkeypatch):
        rng = random.Random(2501)
        pieces = self.FENCE_PIECES

        def chunk(k):
            return "".join(rng.choices(pieces, k=rng.randint(0, k)))

        # Half free-form, half shaped like a reply: prose, an opening run,
        # a word and whitespace, a body, maybe a closing run, prose.
        texts = [
            "".join(rng.choices(pieces, k=rng.randint(1, 12))) if i % 2 else
            chunk(3) + "`" * rng.randint(1, 6) + chunk(3) + "\n" + chunk(4)
            + "`" * rng.randint(0, 6) + chunk(3)
            for i in range(100_000)
        ]
        fenced = 0
        for text in texts:
            body = planning._plan_body(text)
            assert body == oracles.plan_body(text), text
            fenced += body is not text

        def outcome(text):
            try:
                return parse_plan_text(text)
            except PlanParseError as exc:
                return str(exc)

        new = [outcome(text) for text in texts]
        monkeypatch.setattr(planning, "_plan_body", oracles.plan_body)
        assert new == [outcome(text) for text in texts]
        # Both branches are common, and some replies parse.
        assert 20_000 < fenced < 80_000
        assert sum(not isinstance(o, str) for o in new) > 100

    @staticmethod
    def _odd_table():
        """Names with non-ASCII letters, quotes and a backslash."""
        return VehicleTable.from_records([
            VehicleRecord("Citroën", 'C5 "Aircross"', 4500, 1840, 1670, "ICE", 199900, 5, 5),
            VehicleRecord("蔚来", "ES6 \\ Pro", 4850, 1965, 1731, "BEV", 368000, 5, 5),
            VehicleRecord("Škoda", "Octavia\u2028RS", 4689, 1814, 1469, "ICE", 189900, 5, 5),
        ])

    @pytest.mark.parametrize("which", ["packaged", "odd"])
    def test_planner_reply_is_json_dumps_of_the_plan(self, table, which):
        table = table if which == "packaged" else self._odd_table()
        planner = MockPlannerBackend(table)
        queries = [
            "What is the brand of the vehicle at [10,20,300,400]?",
            "What are the brand and model of the vehicle?",
            "How much is the vehicle at [100,200,40,20,-12.5]?",
            "What is the price and powertrain of the vehicle at <1,2,30,4.5,1.8,1.5,10>?",
            "What color is the vehicle at [1,2,30,40]?",
            "What type is the vehicle?",
            "Which colour is it?",
        ]
        for record in table.records:
            queries += [
                f"Find the {record.brand} {record.model} in the image.",
                f"Where is the {record.brand} {record.model}?",
                f"What does the {record.brand} {record.model} cost?",
            ]
        for query in queries:
            steps = planner._classify(query)
            reply = planner.complete(f"Query: {query}")
            assert reply == "```json\n" + json.dumps(steps) + "\n```"
            assert [s.tool for s in parse_plan_text(reply).steps] == [s["tool"] for s in steps]

    def test_plan_writer_is_json_dumps_on_any_strings(self):
        values = ["", " ", "\x00\x1f\x7f", '"\\/', "é\u2028\U0001f697", "$a.b", None]
        texts = values[:-1]
        steps = [
            {
                "tool": texts[i],
                "args": {key: values[(i + j) % len(values)] for j, key in enumerate(texts)},
                "output_name": texts[-1 - i],
            }
            for i in range(len(texts))
        ]
        steps.append({"tool": "summarize", "args": {}, "output_name": "answer"})
        assert backends._plan_json(steps) == json.dumps(steps)
        assert backends._plan_json(steps[-1:]) == json.dumps(steps[-1:])

    def test_summarizer_view_is_json_dumps(self):
        class Recording:
            name = "recording"

            def complete(self, prompt, image=None):
                self.prompt = prompt
                return "ok"

        outputs = {
            "visual": {"attribute": "colour", "value": "bleu clair «ciel»\u2028\"x\" \\"},
            "record": {"brand": "Citroën", "price": 199900, "ratio": 0.1 + 0.2, "doors": None},
            "box": Box3D(CameraPoint(0.5, -1.25, 30.0), 4.5, 1.8, 1.5, 0.25),
            "odd": {"set": frozenset({3}), "tuple": (1, "二"), "flag": True, "inf": math.inf},
            "web_price": {"text": "Listed price today: 199,800 CNY."},
        }
        backend = Recording()
        query = "Query: how much is the Citroën? {query}"
        summarize(query, outputs, backend)
        view = json.dumps(outputs, sort_keys=True, ensure_ascii=False, default=str)
        assert backend.prompt == (
            f"Query: {query}\nTool outputs (JSON):\n{view}\n"
            "Provide the final answer to the query."
        )

    @pytest.mark.parametrize(
        "query",
        [
            "What color is {{query}} at {region}?",
            "Query: what color is the vehicle at {region}?",
            "What color {{query}} Query: {{query}} {region}?",
        ],
    )
    def test_prompts_for_queries_holding_prompt_tokens(self, ann, table, query):
        class Recording(MockPlannerBackend):
            def complete(self, prompt, image=None):
                self.prompt = prompt
                return super().complete(prompt, image)

        query = query.format(region=CAR0_REGION)
        planner = Recording(table)
        plan(query, planner)
        assert planner.prompt == load_planner_prompt().replace("{query}", query)
        result = run_query("scene.png", query, mock_config(ann, table))
        assert result["answer"] == "color: white"
        summary = result["trace"]["summary"]
        # The summarizer reads the first "Query:" line, the planner the last.
        for prompt in (planner.prompt, summary["prompt"]):
            first = backends._QUERY_LINE.search(prompt)
            assert first.group(1) == backends._QUERY_LINE.findall(prompt)[0]
        assert summary["prompt"].startswith(f"Query: {query}\n")

    REF_PIECES = ["$", "$$", "record", "dims", "n", "_x", "é", ".", ".brand", ".model",
                  ".length_m", ".nope", "5", " ", "US", "price", "a"]
    OUTPUTS = {
        "record": {"brand": "Toyota", "model": "Camry"},
        "dims": {"length_m": 4.885},
        "n": 5,
        "_x": "é",
    }

    def test_references_match_fullmatch_and_sub(self):
        rng = random.Random(2502)

        def outcome(resolve, value):
            try:
                return resolve(value, self.OUTPUTS)
            except KeyError as exc:
                return ("KeyError", str(exc))

        wholes = 0
        for i in range(20_000):
            value = "".join(rng.choices(self.REF_PIECES, k=rng.randint(1, 8)))
            if i % 10 == 0:  # one whole reference, to an output or not
                value = "$" + rng.choice(["record", "dims", "n", "_x", "gone"]) + rng.choice(
                    ["", ".brand", ".length_m", ".nope"]
                )
            args = {"a": value, "b": 3, "c": None}
            refs = [ref for arg in args.values() for ref in _refs(arg)]
            assert refs == list(oracles.iter_refs(args)), value
            got = outcome(_resolve, value)
            assert got == outcome(oracles.resolve_value, value), value
            if oracles.REF_PATTERN.fullmatch(value) and not isinstance(got, (str, tuple)):
                assert got is outcome(oracles.resolve_value, value)
                wholes += 1
        assert wholes > 100


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

    def test_step_after_a_failure_halts_on_the_failed_reference(self, ann, table):
        # No search backend, so "web" fails; "combined" references the
        # healthy "record" and the failed "web" and is halted naming "web";
        # "visual", with no "$" anywhere, still runs after the failure.
        steps = parse_plan_text(
            json.dumps(
                [
                    {
                        "tool": "query_table",
                        "args": {"mode": "lookup", "brand": "Toyota", "model": "Camry"},
                        "output_name": "record",
                    },
                    {"tool": "web_search", "args": {"query": "x"}, "output_name": "web"},
                    {
                        "tool": "web_search",
                        "args": {"query": "$record.brand $web.text price"},
                        "output_name": "combined",
                    },
                    {
                        "tool": "image_understanding",
                        "args": {"attribute": "color", "region": CAR0_REGION},
                        "output_name": "visual",
                    },
                    {"tool": "summarize", "args": {}, "output_name": "answer"},
                ]
            )
        )
        result = execute(steps, Toolbox(table=table, vlm=MockVLMBackend(ann)))
        errors = {s.output_name: s.error for s in result.steps}
        assert errors["record"] is None and errors["visual"] is None
        assert errors["web"] is not None
        assert errors["combined"] == "step 2 (web_search): halted: depends on failed $web"
        combined = result.steps[2]
        assert combined.args == {"query": "$record.brand $web.text price"}
        assert combined.backend_calls == []
        assert sorted(result.outputs) == ["record", "visual"]
        assert result.outputs["visual"]["value"] == "white"

    def test_dims_reply_reads_exponent_numbers(self):
        toolbox = Toolbox(vlm=ScriptedBackend(["4.5e3 1.8 1.5"]))
        out = toolbox.invoke("spatial_understanding", {"mode": "dims"}, None, [])
        assert out == {"length_m": 4500.0, "width_m": 1.8, "height_m": 1.5}

    @pytest.mark.parametrize(
        "reply",
        [
            "length 4694 mm, width 1850 mm, height 1443 mm",
            "length 469.4 cm, width 185 cm, height 144.3 centimeters",
            "length 4694mm, width 1.85 m, height 1443 Millimetres",
            "4.694,1.850,1.443",  # a comma between digits separates values here
        ],
    )
    def test_dims_reply_reads_sub_meter_units(self, table, reply):
        toolbox = Toolbox(table=table, vlm=ScriptedBackend([reply]))
        out = toolbox.invoke("spatial_understanding", {"mode": "dims"}, None, [])
        assert out == pytest.approx({"length_m": 4.694, "width_m": 1.85, "height_m": 1.443})
        record = toolbox.invoke("query_table", {"mode": "match", **out}, None, [])
        assert (record["brand"], record["model"]) == ("Tesla", "Model 3")


class TestMockVLM:
    @pytest.mark.parametrize(
        "kw",
        [
            {"noise_sigma_mm": -5.0},
            {"noise_sigma_mm": math.nan},
            {"noise_sigma_mm": math.inf},
            {"noise_sigma_px": -0.5},
            {"noise_sigma_px": math.nan},
            {"noise_sigma_px": math.inf},
        ],
    )
    def test_bad_noise_sigma_rejected(self, ann, kw):
        (name, value), = kw.items()
        with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0, got {value}$"):
            MockVLMBackend(ann, **kw)

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

    def test_noise_is_seeded_and_near_the_annotation(self, ann):
        measure = f"Measure the vehicle at {CAR0_REGION}: length, width, height."
        locate = "Locate the vehicle with length 4.694 m, width 1.850 m, height 1.443 m."

        def replies(seed):
            vlm = MockVLMBackend(ann, noise_sigma_mm=5.0, noise_sigma_px=2.0, seed=seed)
            return vlm.complete(measure), vlm.complete(locate)

        assert replies(3) == replies(3)
        assert replies(3) != replies(4)

        def numbers(text):
            return [float(v) for v in re.findall(r"-?\d+\.?\d*", text)]

        clean = MockVLMBackend(ann)
        # Each bound is 5 sigma: 25 mm on a dimension, 10 px on a box edge.
        for noisy, exact, bound in zip(
            replies(3), (clean.complete(measure), clean.complete(locate)), (0.025, 10.0)
        ):
            assert numbers(noisy) != numbers(exact)
            assert len(numbers(noisy)) == len(numbers(exact))
            assert all(abs(a - b) <= bound for a, b in zip(numbers(noisy), numbers(exact)))


    def test_session_converts_each_annotated_obb_once(self, monkeypatch):
        # 30 cars on a 6x5 grid, each with its own color; before the fix,
        # every query converted every annotated OBB (n * queries calls).
        data = make_annotation_dict()
        car = data["objects"][0]
        data["objects"] = [
            dict(car, id=f"car{i}", attributes={"color": f"color{i}"},
                 obb=dict(car["obb"], cx=100.0 + 150.0 * (i % 6), cy=100.0 + 150.0 * (i // 6)))
            for i in range(30)
        ]
        ann = annotation_from_dict(data)
        calls = []

        def counting(obb):
            calls.append(obb)
            return obb_to_hbb(obb)

        monkeypatch.setattr(backends, "obb_to_hbb", counting)
        vlm = MockVLMBackend(ann)
        for i, obj in enumerate(ann.objects):
            region = serialize_location(obb_to_hbb(obj.obb))
            reply = vlm.complete(f"What is the color of the vehicle at {region}?")
            assert reply == f"The color of the vehicle is color{i}."
        assert len(calls) == 30


def _resolve_oracle(ann, prompt):
    """Brute force: argmax of hbb_iou over every object, strict >, so ties
    go to the first object and a region overlapping nothing gives None."""
    region = extract_location(prompt)
    if isinstance(region, OrientedBox2D):
        region = obb_to_hbb(region)
    best, best_iou = None, 0.0
    for obj in ann.objects:
        iou = hbb_iou(region, obb_to_hbb(obj.obb))
        if iou > best_iou:
            best, best_iou = obj, iou
    return best


def _hbb_text(x1, y1, x2, y2):
    return f"[{x1!r},{y1!r},{x2!r},{y2!r}]"  # full float precision


def _axis_aligned(data, *boxes):
    """`data` with one angle-0 object per (cx, cy, w, h, color): its HBB is
    exactly [cx - w/2, cy - h/2, cx + w/2, cy + h/2]."""
    car = data["objects"][0]
    data["objects"] = [
        dict(car, id=f"car{i}", attributes={"color": color},
             obb={"cx": cx, "cy": cy, "w": w, "h": h, "angle_deg": 0.0})
        for i, (cx, cy, w, h, color) in enumerate(boxes)
    ]
    return annotation_from_dict(data)


class TestRegionResolution:
    @pytest.mark.parametrize("n", [10, 30])
    @pytest.mark.parametrize("pitch_deg", [55.0, 70.0, 90.0])
    def test_matches_brute_force_on_generated_scenes(self, table, n, pitch_deg):
        pitch = math.radians(pitch_deg)
        cfg = SceneConfig(n_vehicles=n, pitch_range=(pitch, pitch),
                          agl_range=(50.0, 80.0), seed=int(pitch_deg) * 100 + n)
        ann = annotation_from_dict(generate_scene(cfg, table).annotation)
        assert len(ann.objects) == n
        vlm = MockVLMBackend(ann)
        hbbs = [obb_to_hbb(obj.obb) for obj in ann.objects]
        prompts = []
        for i, (obj, h) in enumerate(zip(ann.objects, hbbs)):
            w, t = h.x2 - h.x1, h.y2 - h.y1
            prompts.append(_hbb_text(h.x1, h.y1, h.x2, h.y2))
            prompts.append(serialize_location(h))  # rounded to whole pixels
            for dx, dy in [(0.5, 0.0), (-0.5, 0.25), (0.3, -0.6), (1.5, 1.5), (-0.99, 0.0)]:
                prompts.append(_hbb_text(h.x1 + dx * w, h.y1 + dy * t,
                                         h.x2 + dx * w, h.y2 + dy * t))
            group = [hbbs[i], hbbs[(i + 1) % n], hbbs[(i + 3) % n]]
            prompts.append(_hbb_text(min(b.x1 for b in group), min(b.y1 for b in group),
                                     max(b.x2 for b in group), max(b.y2 for b in group)))
            prompts.append(serialize_location(obj.obb))
            prompts.append(serialize_location(OrientedBox2D(
                obj.obb.cx + 0.3 * w, obj.obb.cy, obj.obb.width, obj.obb.height, 0.5)))
        resolved = [vlm._resolve(f"the vehicle at {p}") for p in prompts]
        expected = [_resolve_oracle(ann, f"the vehicle at {p}") for p in prompts]
        assert all(r is e for r, e in zip(resolved, expected))
        # The sweep meets both outcomes.
        assert None in expected and any(e is not None for e in expected)

    @pytest.mark.parametrize(
        "region",
        [
            _hbb_text(585.0, 422.0, 650.0, 458.0),  # touches car0's right edge
            _hbb_text(495.0, 458.0, 585.0, 500.0),  # touches car0's bottom edge
            _hbb_text(400.0, 300.0, 495.0, 422.0),  # touches car0's top-left corner
            _hbb_text(346.5, 600.0, 495.0, 700.0),  # touches car1's right edge
        ],
    )
    def test_edge_touching_region_resolves_to_none(self, annotation_dict, region):
        # car0's HBB is [495,422,585,458], car1's [253.5,631.5,346.5,668.5].
        ann = _axis_aligned(annotation_dict, (540.0, 440.0, 90.0, 36.0, "white"),
                            (300.0, 650.0, 93.0, 37.0, "silver"))
        prompt = f"What is the color of the vehicle at {region}?"
        assert _resolve_oracle(ann, prompt) is None
        assert MockVLMBackend(ann)._resolve(prompt) is None
        assert MockVLMBackend(ann).complete(prompt) == "I cannot tell the color."

    def test_identical_hbbs_resolve_to_the_first(self, annotation_dict):
        ann = _axis_aligned(annotation_dict, (300.0, 650.0, 93.0, 37.0, "silver"),
                            (540.0, 440.0, 90.0, 36.0, "white"),
                            (540.0, 440.0, 90.0, 36.0, "red"))
        vlm = MockVLMBackend(ann)
        for region in (_hbb_text(495.0, 422.0, 585.0, 458.0), "[500,430,700,500]"):
            prompt = f"What is the color of the vehicle at {region}?"
            assert vlm._resolve(prompt) is ann.objects[1] is _resolve_oracle(ann, prompt)
            assert vlm.complete(prompt) == "The color of the vehicle is white."


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

    def test_retrieval_with_unparseable_image_box_answers_the_3d_box(self, ann, table):
        # [1,2,1,2] has no extent, so the locate step keeps the 3D box alone.
        box3d = "<1.00,2.00,30.00,4.90,1.85,1.45,10.00>"
        vlm = ScriptedBackend([f"Found it at {box3d}; image box [1,2,1,2]."])
        config = AgentConfig(
            MockPlannerBackend(table), vlm, MockSummarizerBackend(), table=table
        )
        result = run_query("scene.png", "Find the Toyota Camry in the image.", config)
        assert result["answer"] == f"location: {box3d}"
        assert len(vlm.prompts) == 1

    def test_retrieval_without_a_location_is_an_error(self, table):
        # A "find" query whose locate step failed leaves only the table
        # record; its brand and model are not an answer to "where".
        record = lookup(table, "Toyota", "Camry")._asdict()
        answer = runtime.summarize(
            "Find the Toyota Camry in the image.", {"record": record}, MockSummarizerBackend()
        )
        assert answer == "error: could not locate the Toyota Camry"

    def test_record_without_a_location_still_answers_other_queries(self, table):
        record = lookup(table, "Toyota", "Camry")._asdict()
        summarizer = MockSummarizerBackend()
        for query, expected in [
            ("What are the brand and model of the vehicle at [1,2,3,4]?",
             "brand: Toyota; model: Camry"),
            ("How many seats does the Toyota Camry have?", f"seats: {record['seats']}"),
            ("Where can I buy a car?", "brand: Toyota; model: Camry"),
        ]:
            assert runtime.summarize(query, {"record": record}, summarizer) == expected

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

    def test_searched_price_past_the_float_range_falls_back_to_table(self, ann, table):
        # "1e400" is no number, so the table's price answers (it read as inf,
        # which the summarizer could not render).
        search = FixtureSearchBackend({"Tesla Model 3 price": "Listed at 1e400 today."})
        result = run_query(
            "scene.png",
            f"What is the price of the vehicle at {CAR0_REGION}?",
            mock_config(ann, table, search=search),
        )
        assert result["answer"] == "price: 231900"

    @pytest.mark.parametrize("query, expected", [
        (f"What does the vehicle at {CAR0_REGION} cost?", "price: 229000"),
        (f"What is the cost of the vehicle at {CAR0_REGION}?", "price: 229000"),
        (f"How much does the vehicle at {CAR0_REGION} cost?", "price: 229000"),
        (f"What are the brand and cost of the vehicle at {CAR0_REGION}?",
         "brand: Tesla; price: 229000"),
    ])
    def test_cost_asks_for_the_searched_price(self, ann, table, query, expected):
        search = FixtureSearchBackend({"Tesla Model 3 price": "Listed at 229,000 today."})
        result = run_query("scene.png", query, mock_config(ann, table, search=search))
        assert result["answer"] == expected
        assert [s["tool"] for s in result["trace"]["steps"]] == [
            "spatial_understanding", "query_table", "web_search"
        ]

    def test_braces_in_query_keep_tool_outputs(self, ann, table):
        result = run_query(
            "scene.png",
            f"What color is the vehicle {{left}} at {CAR0_REGION}?",
            mock_config(ann, table),
        )
        assert result["answer"] == "color: white"

    def test_planning_failure_is_structured(self, ann, table):
        result = run_query("scene.png", "Write me a poem.", mock_config(ann, table))
        assert result["answer"].startswith("error: planning failed")
        assert result["trace"]["plan"] is None

    def test_undefined_reference_is_an_invalid_plan(self, ann, table):
        config = mock_config(ann, table)
        config.planner = ScriptedBackend([
            '[{"tool": "query_table", "args": {"mode": "match", "length_m": "$dims.length_m",'
            ' "width_m": 1.8, "height_m": 1.5}, "output_name": "record"},'
            ' {"tool": "summarize", "args": {}, "output_name": "answer"}]'
        ])
        result = run_query("scene.png", "Which vehicle is it?", config)
        assert result["answer"] == (
            "error: invalid plan: step 'record' references undefined output $dims"
        )
        assert result["trace"]["steps"] == []

    def test_only_tool_step_failing_leaves_no_outputs(self, ann, table):
        config = mock_config(ann, table)
        config.planner = ScriptedBackend([
            '[{"tool": "spatial_understanding", "args": {"mode": "dims"}, "output_name": "dims"},'
            ' {"tool": "summarize", "args": {}, "output_name": "answer"}]'
        ])
        config.vlm = ScriptedBackend(["about four meters"])
        result = run_query("scene.png", "How big is it?", config)
        assert result["answer"] == (
            "error: no tool outputs (step 0 (spatial_understanding): could not read"
            " three dimensions from 'about four meters')"
        )
        assert result["trace"]["summary"] is None

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


DEAD_URL = "http://127.0.0.1:9/unreachable"  # discard port: nothing listens
# Request path -> (charset the reply declares, charset it is encoded in).
_CHARSETS = {
    "/latin1": ("iso-8859-1", "iso-8859-1"),
    "/unknown-charset": ("x-no-such-charset", "utf-8"),
}


class _Handler(BaseHTTPRequestHandler):
    fail_first = False
    seen: list[dict] = []
    posted: list[tuple[bytes, str]] = []  # raw body and Content-Type per POST

    def _reply(self, text: str) -> None:
        if type(self).fail_first:
            type(self).fail_first = False
            self.send_response(500)
            self.end_headers()
            return
        declared, actual = _CHARSETS.get(self.path, (None, "utf-8"))
        reply = text.encode(actual)
        self.send_response(200)
        if declared:
            self.send_header("Content-Type", f"text/plain; charset={declared}")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        type(self).posted.append((body, self.headers["Content-Type"]))
        type(self).seen.append(json.loads(body))
        self._reply("pong: " + json.loads(body)["prompt"])

    def do_GET(self):
        from urllib.parse import parse_qs, urlparse

        query = parse_qs(urlparse(self.path).query)
        type(self).seen.append(query)
        self._reply(f"results for {query.get('q', [''])[0]}")

    def log_message(self, *args):
        pass


@pytest.fixture
def http_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    # A short poll interval: shutdown() waits out the current poll.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    _Handler.seen = []
    _Handler.posted = []
    _Handler.fail_first = False
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestHTTPBackends:
    def test_posts_prompt_and_image(self, http_url):
        backend = HTTPBackend(http_url, name="test")
        reply = backend.complete("hello", image="img.png")
        assert reply == "pong: hello"
        assert _Handler.seen[-1] == {"prompt": "hello", "image": "img.png"}

    def test_post_body_is_json_bytes(self, http_url):
        HTTPBackend(http_url).complete("hello", image="img.png")
        payload = {"prompt": "hello", "image": "img.png"}
        assert _Handler.posted == [(json.dumps(payload).encode(), "application/json")]

    def test_retries_one_failure(self, http_url):
        _Handler.fail_first = True
        backend = HTTPBackend(http_url)
        assert backend.complete("again") == "pong: again"
        assert len(_Handler.seen) == 2

    def test_raises_after_retries_exhausted(self):
        backend = HTTPBackend(DEAD_URL, timeout=0.2)
        with pytest.raises(RuntimeError):
            backend.complete("nope")

    @pytest.mark.parametrize(
        "path, prompt",
        [
            ("", "Größe 4,69 m — 車"),
            ("/latin1", "Größe 4,69 m"),
            ("/unknown-charset", "Größe 4,69 m — 車"),
        ],
        ids=["utf8-undeclared", "latin1-declared", "unknown-declared"],
    )
    def test_non_ascii_reply_round_trips(self, http_url, path, prompt):
        assert HTTPBackend(http_url + path).complete(prompt) == "pong: " + prompt

    def test_search_get(self, http_url):
        backend = HTTPSearchBackend(http_url)
        assert backend.complete("camry price") == "results for camry price"

    def test_search_keeps_existing_query(self, http_url):
        backend = HTTPSearchBackend(http_url + "/search?k=v")
        assert backend.complete("camry price") == "results for camry price"
        assert _Handler.seen == [{"k": ["v"], "q": ["camry price"]}]

    def test_search_retries_one_failure(self, http_url):
        _Handler.fail_first = True
        backend = HTTPSearchBackend(http_url)
        assert backend.complete("camry price") == "results for camry price"
        assert len(_Handler.seen) == 2

    def test_unreachable_search_raises_backend_error(self):
        with pytest.raises(BackendError, match="http-search backend failed"):
            HTTPSearchBackend(DEAD_URL, timeout=0.2).complete("camry price")

    @pytest.mark.parametrize("backend_type", [HTTPBackend, HTTPSearchBackend])
    def test_malformed_url_rejected_up_front(self, backend_type):
        with pytest.raises(ValueError, match="unknown url type"):
            backend_type("no-scheme")


class RaisingBackend:
    name = "raising"

    def complete(self, prompt, image=None):
        raise RuntimeError("backend crashed")


class TestBackendFailures:
    @pytest.mark.parametrize("role", ["planner", "summarizer"])
    @pytest.mark.parametrize(
        "backend, message",
        [
            (FixtureSearchBackend({}), "no search fixture for"),  # a KeyError
            (RaisingBackend(), "backend crashed"),  # a RuntimeError
        ],
        ids=["KeyError", "RuntimeError"],
    )
    def test_any_backend_exception_is_structured(self, ann, table, role, backend, message):
        config = mock_config(ann, table)
        setattr(config, role, backend)
        result = run_query("scene.png", f"What color is the vehicle at {CAR0_REGION}?", config)
        stage = {"planner": "planning", "summarizer": "summarization"}[role]
        assert result["answer"].startswith(f"error: {stage} failed: ")
        assert message in result["answer"]
        trace = result["trace"]
        assert trace["answer"] == result["answer"]
        if role == "planner":
            assert trace["plan"] is None
        else:
            assert [s["tool"] for s in trace["steps"]] == ["image_understanding"]
            assert trace["steps"][0]["output"] == {"attribute": "color", "value": "white"}

    def test_planner_failure_is_structured(self, ann, table):
        config = mock_config(ann, table)
        config.planner = HTTPBackend(DEAD_URL, name="http-planner", timeout=0.2)
        result = run_query("scene.png", f"What color is the vehicle at {CAR0_REGION}?", config)
        assert result["answer"].startswith(
            "error: planning failed: http-planner backend failed after retries"
        )
        assert result["trace"]["plan"] is None
        assert result["trace"]["answer"] == result["answer"]

    def test_summarizer_failure_keeps_steps(self, ann, table):
        config = mock_config(ann, table)
        config.summarizer = HTTPBackend(DEAD_URL, name="http-summarizer", timeout=0.2)
        result = run_query("scene.png", f"What color is the vehicle at {CAR0_REGION}?", config)
        assert result["answer"].startswith(
            "error: summarization failed: http-summarizer backend failed after retries"
        )
        trace = result["trace"]
        assert [s["tool"] for s in trace["steps"]] == ["image_understanding"]
        assert trace["steps"][0]["output"] == {"attribute": "color", "value": "white"}
        assert "Tool outputs (JSON)" in trace["summary"]["prompt"]
        assert "response" not in trace["summary"]
