"""Exception hierarchy shared across the package.

Every domain failure derives from Aerial3DError so the CLI can map it to
exit code 1 (usage errors exit 2 via argparse).
"""


class Aerial3DError(Exception):
    """Base class for all domain errors raised by this package."""


# -- geometry ----------------------------------------------------------------

class NonPositiveDepth(Aerial3DError):
    """A camera-frame point with z <= 0 cannot be projected."""


class RayMissesGround(Aerial3DError):
    """Pixel ray is at or above the horizon; no ground intersection ahead."""


class DegenerateBox(Aerial3DError, ValueError):
    """A horizontal box without x1 < x2 and y1 < y2, such as the pixel hull of
    a box whose corners all project to one point."""


# -- parsing / serialization -------------------------------------------------

class ParseError(Aerial3DError):
    """Malformed serialized location, numeric field, or table row."""


class SchemaError(Aerial3DError):
    """Annotation file violates the schema; message carries a JSON pointer."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


# -- vehicle table -----------------------------------------------------------

class DuplicateKey(Aerial3DError):
    """Two table rows share the same (brand, model)."""


class EmptyTable(Aerial3DError):
    """Operation requires a non-empty vehicle table."""


class NotFound(Aerial3DError):
    """Exact (brand, model) lookup found no record."""


# -- evaluation --------------------------------------------------------------

class LengthMismatch(Aerial3DError):
    """Prediction and ground-truth lists differ in length."""


class IdMismatch(Aerial3DError):
    """Annotation and ground-truth object id sets differ."""


# -- agent -------------------------------------------------------------------

class PlanParseError(Aerial3DError):
    """Planner output could not be parsed into a valid plan."""


class UnknownWorkflow(Aerial3DError):
    """Mock planner could not classify the query into a known workflow."""


class ToolError(Aerial3DError):
    """A plan step failed during execution."""

    def __init__(self, step: int, tool: str, cause: str):
        self.step = step
        self.tool = tool
        self.cause = cause
        super().__init__(f"step {step} ({tool}): {cause}")


class BindingMissing(Aerial3DError):
    """A plan step references an output name not produced earlier."""


class BackendError(Aerial3DError, RuntimeError):
    """A model backend could not be reached or answered with an error status."""


# -- synthetic scenes --------------------------------------------------------

class PlacementExhausted(Aerial3DError):
    """Rejection sampling failed to place a vehicle within the retry budget."""
