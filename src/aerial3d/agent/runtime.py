"""Plan execution, summarization, and the single-query entry point.

Execution is strictly sequential. Before any tool runs, every "$name"
reference is checked against the names defined earlier in the plan
(BindingMissing otherwise); that check scans each argument once, and
execution resolves only the arguments that hold a reference. A failing
step is recorded — not raised — and poisons its output name, so later
steps that reference it are halted while independent steps still run.
Summarization happens after execution over whatever outputs exist; if
nothing succeeded the query returns a structured `error:` answer instead.

The trace is a plain JSON-serializable dict recording the parsed plan,
each step's resolved arguments, output or error and the prompt/response of
every backend call its tool made, the summarizer's prompt and response,
and the final answer. The planner's prompt, reply and retry are not
recorded yet (ROADMAP item 6). With mock backends and fixed seeds,
identical queries produce byte-identical traces
(`json.dumps(trace, sort_keys=True)`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..errors import BindingMissing, ToolError
from ..vehicles import VehicleTable
from .backends import Backend
from .planning import Plan, _split_refs, plan as build_plan
from .tools import Toolbox

# The summarizer's view of the tool outputs: one-line JSON, keys sorted,
# text kept as is, anything not JSON-native written as str().
_VIEW = json.JSONEncoder(sort_keys=True, ensure_ascii=False, default=str)


@dataclass
class StepRecord:
    index: int
    tool: str
    output_name: str
    args: dict[str, Any]
    output: Any = None
    error: str | None = None
    backend_calls: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return dict(vars(self))  # shallow: asdict would deep-copy every output


@dataclass
class ExecutionResult:
    outputs: dict[str, Any]
    steps: list[StepRecord]

    @property
    def failed_steps(self) -> list[StepRecord]:
        return [s for s in self.steps if s.error is not None]


def _scan_bindings(plan: Plan) -> list[dict[str, list]]:
    """Each step's arguments that hold references, split by `_split_refs`,
    in argument order; BindingMissing for a reference to no earlier step's
    output."""
    defined: set[str] = set()
    scans = []
    for step in plan.steps:
        refs = {}
        for key, value in step.args.items():
            parts = _split_refs(value)
            if parts is None:
                continue
            for name in parts[1::3]:
                if name not in defined:
                    raise BindingMissing(
                        f"step {step.output_name!r} references undefined output ${name}"
                    )
            refs[key] = parts
        scans.append(refs)
        defined.add(step.output_name)
    return scans


def validate_bindings(plan: Plan) -> None:
    """Static check that every $reference names an earlier step's output."""
    _scan_bindings(plan)


def _lookup_ref(outputs: dict[str, Any], name: str, fieldname: str | None) -> Any:
    value = outputs[name]
    if fieldname is None:
        return value
    if isinstance(value, dict) and fieldname in value:
        return value[fieldname]
    raise KeyError(f"output ${name} has no field {fieldname!r}")


def _substitute(parts: list, outputs: dict[str, Any]) -> Any:
    """Resolve a value split by `_split_refs`: a value that is one whole
    reference becomes the referenced output itself, any other the text with
    each reference replaced by str() of its output."""
    if len(parts) == 4 and not parts[0] and not parts[3]:
        return _lookup_ref(outputs, parts[1], parts[2])
    text = [parts[0]]
    for i in range(1, len(parts), 3):
        text.append(str(_lookup_ref(outputs, parts[i], parts[i + 1])))
        text.append(parts[i + 2])
    return "".join(text)


def execute(plan: Plan, toolbox: Toolbox, image: str | None = None) -> ExecutionResult:
    """Run the plan's tool steps in order, recording outputs and failures.

    Each argument is scanned for references once, by the binding check;
    only the arguments that hold one are resolved.
    """
    scans = _scan_bindings(plan)
    outputs: dict[str, Any] = {}
    poisoned: set[str] = set()
    steps: list[StepRecord] = []
    for index, (call, refs) in enumerate(zip(plan.tool_steps, scans)):
        record = StepRecord(index, call.tool, call.output_name, dict(call.args))
        steps.append(record)
        # Only a failed step poisons a name, so until one fails no step
        # can depend on a failure.
        broken = (
            sorted({n for parts in refs.values() for n in parts[1::3] if n in poisoned})
            if poisoned
            else ()
        )
        if broken:
            record.error = str(
                ToolError(index, call.tool, f"halted: depends on failed ${broken[0]}")
            )
            poisoned.add(call.output_name)
            continue
        try:
            if refs:
                resolved = dict(record.args)
                for key, parts in refs.items():
                    resolved[key] = _substitute(parts, outputs)
                record.args = resolved
            output = toolbox.invoke(call.tool, record.args, image, record.backend_calls)
        except Exception as exc:  # recorded per step, never raised
            record.error = str(ToolError(index, call.tool, str(exc)))
            poisoned.add(call.output_name)
            continue
        record.output = output
        outputs[call.output_name] = output
    return ExecutionResult(outputs, steps)


def summarize(
    query: str,
    outputs: dict[str, Any],
    summarizer: Backend,
    trace_sink: dict | None = None,
) -> str:
    """Render the final answer from the gathered outputs."""
    if not outputs:
        raise ValueError("summarize requires at least one tool output")
    view = _VIEW.encode(outputs)
    prompt = (
        f"Query: {query}\n"
        f"Tool outputs (JSON):\n{view}\n"
        "Provide the final answer to the query."
    )
    if trace_sink is not None:
        trace_sink["prompt"] = prompt
    answer = summarizer.complete(prompt)
    if trace_sink is not None:
        trace_sink["response"] = answer
    return answer


@dataclass
class AgentConfig:
    planner: Backend
    vlm: Backend
    summarizer: Backend
    search: Backend | None = None
    table: VehicleTable | None = None


def run_query(image: str | None, query: str, config: AgentConfig) -> dict[str, Any]:
    """plan -> execute -> summarize, with a complete audit trace.

    Always returns {"answer", "trace"}; failures become structured
    "error: ..." answers rather than exceptions.
    """
    trace: dict[str, Any] = {
        "image": image,
        "query": query,
        "planner_backend": config.planner.name,
        "plan": None,
        "steps": [],
        "summary": None,
        "answer": None,
    }
    trace["answer"] = _answer(image, query, config, trace)
    return {"answer": trace["answer"], "trace": trace}


def _answer(image: str | None, query: str, config: AgentConfig, trace: dict) -> str:
    """Run the query, filling `trace`; a planning or summarizing failure of
    any kind is an "error: ..." answer, as a failing tool step is a record."""
    try:  # build_plan raises ValueError on a blank query
        the_plan = build_plan(query, config.planner)
    except Exception as exc:
        return f"error: planning failed: {exc}"
    trace["plan"] = [
        {"tool": s.tool, "args": s.args, "output_name": s.output_name}
        for s in the_plan.steps
    ]
    toolbox = Toolbox(table=config.table, vlm=config.vlm, search=config.search)
    try:
        result = execute(the_plan, toolbox, image)
    except BindingMissing as exc:
        return f"error: invalid plan: {exc}"
    trace["steps"] = [s.to_dict() for s in result.steps]
    if not result.outputs:
        failures = "; ".join(s.error for s in result.failed_steps) or "no steps ran"
        return f"error: no tool outputs ({failures})"
    trace["summary"] = {}
    try:
        return summarize(query, result.outputs, config.summarizer, trace["summary"])
    except Exception as exc:
        return f"error: summarization failed: {exc}"
