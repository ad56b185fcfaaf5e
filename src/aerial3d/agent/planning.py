"""Plan types, the planner wire format, and plan construction.

A plan is an ordered list of tool calls ending in a `summarize` marker.
Planner backends emit it as a fenced JSON array of
`{"tool", "args", "output_name"}` objects; argument values may reference
earlier outputs as "$name" or "$name.field" (whole-value substitution) or
embed those tokens inside longer strings (text substitution). A malformed
planner reply triggers exactly one re-prompt before PlanParseError.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from .._fsio import DATA_DIR, read_utf8
from ..errors import PlanParseError
from .backends import Backend

VALID_TOOLS = (
    "spatial_understanding",
    "image_understanding",
    "query_table",
    "web_search",
)
SUMMARIZE = "summarize"

REF_PATTERN = re.compile(r"\$([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?")
_FENCED = re.compile(r"```(?:json)?\s*\n(.*?)```", re.DOTALL)
_NAME = re.compile(r"^[A-Za-z_]\w*$")
_RETRY_SUFFIX = (
    "\n\nYour previous reply could not be parsed. Respond with ONLY a "
    "fenced ```json code block containing the plan array."
)


@dataclass(frozen=True)
class ToolCall:
    tool: str
    args: dict[str, Any]
    output_name: str


@dataclass(frozen=True)
class Plan:
    """Validated tool sequence; the last step is always `summarize`."""

    steps: tuple[ToolCall, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise PlanParseError("plan has no steps")
        if self.steps[-1].tool != SUMMARIZE:
            raise PlanParseError(
                f"plan must end with a {SUMMARIZE} step, ends with {self.steps[-1].tool!r}"
            )
        names: set[str] = set()
        for step in self.steps:
            if step.tool != SUMMARIZE and step.tool not in VALID_TOOLS:
                raise PlanParseError(f"unknown tool {step.tool!r}")
            if not _NAME.match(step.output_name):
                raise PlanParseError(f"invalid output name {step.output_name!r}")
            if step.output_name in names:
                raise PlanParseError(f"duplicate output name {step.output_name!r}")
            names.add(step.output_name)

    @property
    def tool_steps(self) -> tuple[ToolCall, ...]:
        return self.steps[:-1]

    def tools(self) -> list[str]:
        return [step.tool for step in self.steps]


def iter_refs(args: dict[str, Any]) -> Iterator[tuple[str, str | None]]:
    """All ($name, field-or-None) references inside a step's arguments."""
    for value in args.values():
        # REF_PATTERN needs a literal "$", so a string without one has no refs.
        if isinstance(value, str) and "$" in value:
            for match in REF_PATTERN.finditer(value):
                yield match.group(1), match.group(2)


def plan_from_steps(raw_steps: Any) -> Plan:
    """Build and validate a Plan from decoded JSON; PlanParseError on misuse."""
    if not isinstance(raw_steps, list) or not raw_steps:
        raise PlanParseError("plan must be a non-empty JSON array of steps")
    calls = []
    for i, raw in enumerate(raw_steps):
        if not isinstance(raw, dict):
            raise PlanParseError(f"step {i} is not an object")
        try:
            tool = raw["tool"]
            output_name = raw["output_name"]
        except KeyError as exc:
            raise PlanParseError(f"step {i} is missing field {exc}") from None
        args = raw.get("args", {})
        if not isinstance(args, dict):
            raise PlanParseError(f"step {i}: args must be an object")
        calls.append(ToolCall(str(tool), args, str(output_name)))
    return Plan(tuple(calls))


def parse_plan_text(text: str) -> Plan:
    """Parse a planner reply: a fenced JSON array (or bare JSON array)."""
    match = _FENCED.search(text)
    body = match.group(1) if match else text
    try:
        decoded = json.loads(body)
    except json.JSONDecodeError as exc:
        raise PlanParseError(f"plan is not valid JSON: {exc}") from None
    return plan_from_steps(decoded)


def packaged_planner_prompt_path() -> Path:
    return DATA_DIR / "planner_prompt.txt"


def load_planner_prompt(path: str | Path | None = None) -> str:
    return read_utf8(Path(path) if path is not None else packaged_planner_prompt_path())


@functools.cache
def _packaged_planner_prompt() -> str:
    """The packaged prompt, read from disk once per process."""
    return load_planner_prompt()


def plan(query: str, planner: Backend) -> Plan:
    """Ask the planner backend for a plan; one re-prompt, then PlanParseError.

    The packaged prompt's literal "{query}" token is replaced with the query
    (no str.format, so JSON braces in few-shot examples are safe).
    """
    if not query.strip():
        raise ValueError("query must be non-empty")
    prompt = _packaged_planner_prompt().replace("{query}", query)
    error = None
    for suffix in ("", _RETRY_SUFFIX):
        try:
            return parse_plan_text(planner.complete(prompt + suffix))
        except PlanParseError as exc:
            error = exc
    raise PlanParseError(f"planner output unparseable after one retry: {error}")
