"""Plan execution, summarization, and the single-query entry point.

Execution is strictly sequential. Before any tool runs, every "$name"
reference is checked against the names defined earlier in the plan
(BindingMissing otherwise). A failing step is recorded — not raised — and
poisons its output name, so later steps that reference it are halted while
independent steps still run. Summarization happens after execution over
whatever outputs exist; if nothing succeeded the query returns a
structured `error:` answer instead.

The trace is a plain JSON-serializable dict recording the parsed plan,
each step's resolved arguments, output or error and the prompt/response of
every backend call its tool made, the summarizer's prompt and response,
and the final answer. The planner's prompt, reply and retry are not
recorded yet (ROADMAP item 5). With mock backends and fixed seeds,
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
from .planning import Plan, iter_refs, plan as build_plan, REF_PATTERN
from .tools import Toolbox


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


def validate_bindings(plan: Plan) -> None:
    """Static check that every $reference names an earlier step's output."""
    defined: set[str] = set()
    for step in plan.steps:
        for name, _field in iter_refs(step.args):
            if name not in defined:
                raise BindingMissing(
                    f"step {step.output_name!r} references undefined output ${name}"
                )
        defined.add(step.output_name)


def _lookup_ref(outputs: dict[str, Any], name: str, fieldname: str | None) -> Any:
    value = outputs[name]
    if fieldname is None:
        return value
    if isinstance(value, dict) and fieldname in value:
        return value[fieldname]
    raise KeyError(f"output ${name} has no field {fieldname!r}")


def _resolve_value(value: Any, outputs: dict[str, Any]) -> Any:
    if not isinstance(value, str) or "$" not in value:
        return value
    whole = REF_PATTERN.fullmatch(value)
    if whole:
        return _lookup_ref(outputs, whole.group(1), whole.group(2))

    def _sub(match) -> str:
        return str(_lookup_ref(outputs, match.group(1), match.group(2)))

    return REF_PATTERN.sub(_sub, value)


def execute(plan: Plan, toolbox: Toolbox, image: str | None = None) -> ExecutionResult:
    """Run the plan's tool steps in order, recording outputs and failures."""
    validate_bindings(plan)
    outputs: dict[str, Any] = {}
    poisoned: set[str] = set()
    steps: list[StepRecord] = []
    for index, call in enumerate(plan.tool_steps):
        record = StepRecord(index, call.tool, call.output_name, dict(call.args))
        steps.append(record)
        # Only a failed step poisons a name, so until one fails no step
        # can depend on a failure.
        broken = (
            sorted({name for name, _ in iter_refs(call.args) if name in poisoned})
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
            resolved = {
                key: _resolve_value(value, outputs) for key, value in call.args.items()
            }
            record.args = resolved
            output = toolbox.invoke(call.tool, resolved, image, record.backend_calls)
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
    view = json.dumps(outputs, sort_keys=True, ensure_ascii=False, default=str)
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
