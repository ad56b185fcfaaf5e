"""Plan types, the planner wire format, and plan construction.

A plan is an ordered list of tool calls ending in a `summarize` marker.
Planner backends emit it as a fenced JSON array of
`{"tool", "args", "output_name"}` objects; the JSON parsed is the text from
the end of the first opening fence to the next "```", or the whole reply
without a closing one. Argument values may reference earlier outputs as
"$name" or "$name.field" (whole-value substitution) or embed those tokens
inside longer strings (text substitution); `_split_refs` splits a value
around them once, for the binding check and the substitution alike. A
malformed planner reply triggers exactly one re-prompt before
PlanParseError.
"""

from __future__ import annotations

import functools
import json
import re
from pathlib import Path
from typing import Any, NamedTuple

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
# A fence's opening; its body runs to the next "```".
_FENCE_OPEN = re.compile(r"```(?:json)?\s*\n")
_NAME = re.compile(r"^[A-Za-z_]\w*$")
_RETRY_SUFFIX = (
    "\n\nYour previous reply could not be parsed. Respond with ONLY a "
    "fenced ```json code block containing the plan array."
)


class ToolCall(NamedTuple):
    tool: str
    args: dict[str, Any]
    output_name: str


# A record with checks, in the form the comment above `boxes.OrientedBox2D` gives.
class _PlanFields(NamedTuple):
    steps: tuple[ToolCall, ...]


class Plan(_PlanFields):
    """Validated tool sequence; the last step is always `summarize`."""

    __slots__ = ()

    def __new__(cls, steps: tuple[ToolCall, ...]) -> "Plan":
        if not steps:
            raise PlanParseError("plan has no steps")
        if steps[-1].tool != SUMMARIZE:
            raise PlanParseError(
                f"plan must end with a {SUMMARIZE} step, ends with {steps[-1].tool!r}"
            )
        names: set[str] = set()
        for step in steps:
            if step.tool != SUMMARIZE and step.tool not in VALID_TOOLS:
                raise PlanParseError(f"unknown tool {step.tool!r}")
            if not _NAME.match(step.output_name):
                raise PlanParseError(f"invalid output name {step.output_name!r}")
            if step.output_name in names:
                raise PlanParseError(f"duplicate output name {step.output_name!r}")
            names.add(step.output_name)
        return tuple.__new__(cls, (steps,))

    @property
    def tool_steps(self) -> tuple[ToolCall, ...]:
        return self.steps[:-1]

    def tools(self) -> list[str]:
        return [step.tool for step in self.steps]


def _split_refs(value: Any) -> list[str | None] | None:
    """An argument value split around its references, as REF_PATTERN.split
    gives it (text, name, field-or-None, text, ...), or None if it has none."""
    # REF_PATTERN needs a literal "$", so a string without one has no refs.
    if isinstance(value, str) and "$" in value:
        parts = REF_PATTERN.split(value)
        if len(parts) > 1:
            return parts
    return None


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


def _plan_body(text: str) -> str:
    """The JSON of a planner reply: the text from the end of the first
    opening fence to the next "```", or the whole reply without one.

    Only the first opening needs a closing: a later opening starts past the
    first one's end (the first holds no backtick after its three), so if the
    first has no closing, neither has a later one.
    """
    match = _FENCE_OPEN.search(text)
    if match:
        end = text.find("```", match.end())
        if end != -1:
            return text[match.end() : end]
    return text


def parse_plan_text(text: str) -> Plan:
    """Parse a planner reply: a fenced JSON array (or bare JSON array)."""
    try:
        decoded = json.loads(_plan_body(text))
    except json.JSONDecodeError as exc:
        raise PlanParseError(f"plan is not valid JSON: {exc}") from None
    return plan_from_steps(decoded)


def packaged_planner_prompt_path() -> Path:
    return DATA_DIR / "planner_prompt.txt"


def load_planner_prompt(path: str | Path | None = None) -> str:
    return read_utf8(Path(path) if path is not None else packaged_planner_prompt_path())


@functools.cache
def _packaged_planner_prompt() -> tuple[str, ...]:
    """The packaged prompt, read from disk once per process, split at its
    "{query}" tokens."""
    return tuple(load_planner_prompt().split("{query}"))


def plan(query: str, planner: Backend) -> Plan:
    """Ask the planner backend for a plan; one re-prompt, then PlanParseError.

    The packaged prompt's literal "{query}" tokens are replaced with the
    query, by joining the prompt's pieces around them (no str.format, so
    JSON braces in few-shot examples are safe).
    """
    if not query.strip():
        raise ValueError("query must be non-empty")
    prompt = query.join(_packaged_planner_prompt())
    error = None
    for suffix in ("", _RETRY_SUFFIX):
        try:
            return parse_plan_text(planner.complete(prompt + suffix))
        except PlanParseError as exc:
            error = exc
    raise PlanParseError(f"planner output unparseable after one retry: {error}")
