"""Plan execution, summarization, and the single-query entry point.

Execution is strictly sequential. Before any tool runs, every "$name"
reference is checked against the names defined earlier in the plan
(BindingMissing otherwise). A failing step is recorded — not raised — and
poisons its output name, so later steps that reference it are halted while
independent steps still run. Summarization happens after execution over
whatever outputs exist; if nothing succeeded the query returns a
structured `error:` answer instead.

The trace is a plain JSON-serializable dict recording the plan, every
resolved tool call, every backend prompt/response, and the final answer.
With mock backends and fixed seeds, identical queries produce
byte-identical traces (`json.dumps(trace, sort_keys=True)`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..errors import BindingMissing, PlanParseError, ToolError, UnknownWorkflow
from ..vehicles import VehicleTable
from .backends import Backend
from .planning import Plan, ToolCall, iter_refs, plan as build_plan, REF_PATTERN
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
        return {
            "index": self.index,
            "tool": self.tool,
            "output_name": self.output_name,
            "args": self.args,
            "output": self.output,
            "error": self.error,
            "backend_calls": self.backend_calls,
        }


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
    if not isinstance(value, str):
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
        broken = sorted(
            {name for name, _ in iter_refs(call.args) if name in poisoned}
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
    answer = summarizer.complete(prompt)
    if trace_sink is not None:
        trace_sink["prompt"] = prompt
        trace_sink["response"] = answer
    return answer


@dataclass
class AgentConfig:
    planner: Backend
    vlm: Backend
    summarizer: Backend
    search: Backend | None = None
    table: VehicleTable | None = None
    prompt_template: str | None = None


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
    try:
        the_plan = build_plan(query, config.planner, config.prompt_template)
    except (PlanParseError, UnknownWorkflow, ValueError) as exc:  # ValueError: blank query
        trace["answer"] = f"error: planning failed: {exc}"
        return {"answer": trace["answer"], "trace": trace}

    trace["plan"] = [
        {"tool": s.tool, "args": s.args, "output_name": s.output_name}
        for s in the_plan.steps
    ]
    toolbox = Toolbox(table=config.table, vlm=config.vlm, search=config.search)
    try:
        result = execute(the_plan, toolbox, image)
    except BindingMissing as exc:
        trace["answer"] = f"error: invalid plan: {exc}"
        return {"answer": trace["answer"], "trace": trace}
    trace["steps"] = [s.to_dict() for s in result.steps]

    if result.outputs:
        summary_sink: dict[str, Any] = {}
        answer = summarize(query, result.outputs, config.summarizer, summary_sink)
        trace["summary"] = summary_sink
    else:
        failures = "; ".join(s.error for s in result.failed_steps) or "no steps ran"
        answer = f"error: no tool outputs ({failures})"
    trace["answer"] = answer
    return {"answer": answer, "trace": trace}
