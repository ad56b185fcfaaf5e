"""Text-completion backends for the planner/VLM/summarizer/search roles.

Every backend exposes `complete(prompt, image=None) -> str`. The mock
family answers from an annotation file with optional seeded Gaussian
noise, so agent logic is testable without any model: a noiseless mock is
an oracle, a noisy one emulates imperfect perception. The noise comes
from the standard library's `random.Random(seed).gauss`. The HTTP backends
speak a minimal contract so any served model can drop in: `HTTPBackend`
POSTs JSON {prompt, image} and `HTTPSearchBackend` GETs ?q=<query>; the
reply body is the answer text.

Both HTTP backends share one standard-library transport (`_fetch`): one
attempt plus one retry on any connection, timeout or HTTP-status failure,
then a BackendError naming the backend. The reply is decoded with the
charset the response declares, UTF-8 when it declares none. The HTTP
stack (`urllib.request`, which loads `http.client`, `ssl` and `email`) is
imported on first use, so the mock path never loads it.

Mock backends hold RNG state and are single-flight; create one per
concurrent query (they are cheap). HTTP backends are stateless and safe
to share.
"""

from __future__ import annotations

import json
import math
import random
import re
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Protocol

from ..boxes import (
    HorizontalBox2D,
    OrientedBox2D,
    derive_box3d,
    extract_location,
    hbb_iou,
    obb_to_hbb,
    serialize_location,
)
from ..errors import BackendError, UnknownWorkflow
from ..evaluation import _NUMBER, AnnotatedObject, AnnotationFile, extract_numeric
from ..vehicles import VehicleTable

if TYPE_CHECKING:
    import urllib.request


class Backend(Protocol):
    """Invocation contract shared by all model backends."""

    name: str

    def complete(self, prompt: str, image: str | None = None) -> str:
        ...


def _floats(text: str) -> list[float]:
    return [float(m) for m in _NUMBER.findall(text)]


class MockVLMBackend:
    """Annotation-backed visual model.

    Understands three prompt families (matched by keyword):

      * measure ... length/width/height  -> dimensions of the referenced
        vehicle, meters at millimeter precision, with optional Gaussian
        noise (noise_sigma_mm) on each axis;
      * locate ... dimensions ...        -> 3D + 2D box of the vehicle
        whose dimensions are nearest the ones in the prompt, its center
        optionally perturbed by noise_sigma_px pixels;
      * what is the <attribute> ...      -> the annotated attribute value.

    Vehicles are referenced by an embedded 2D box (an OBB is taken as its
    HBB); the mock resolves it to the annotated object whose HBB has the
    highest IoU with it. Ties go to the first such object in annotation
    order, and a region that overlaps no object's HBB resolves to none.
    """

    name = "mock-vlm"

    def __init__(
        self,
        annotation: AnnotationFile,
        noise_sigma_mm: float = 0.0,
        noise_sigma_px: float = 0.0,
        seed: int = 0,
    ):
        sigmas = {"noise_sigma_mm": noise_sigma_mm, "noise_sigma_px": noise_sigma_px}
        for name, sigma in sigmas.items():
            if not 0 <= sigma < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {sigma}")
        self.annotation = annotation
        self.noise_sigma_mm = noise_sigma_mm
        self.noise_sigma_px = noise_sigma_px
        self._rng = random.Random(seed)
        # The annotation is frozen, so each object's HBB, and its bounds as
        # plain floats, are computed once.
        self._hbbs = []
        for obj in annotation.objects:
            hbb = obb_to_hbb(obj.obb)
            self._hbbs.append((hbb.x1, hbb.y1, hbb.x2, hbb.y2, hbb, obj))

    def _resolve(self, prompt: str) -> AnnotatedObject | None:
        region = extract_location(prompt)
        if region is None:
            if len(self.annotation.objects) == 1:
                return self.annotation.objects[0]
            return None
        if isinstance(region, OrientedBox2D):
            region = obb_to_hbb(region)
        if not isinstance(region, HorizontalBox2D):
            return None
        # An HBB that does not strictly overlap the region has IoU exactly
        # 0.0 (both boxes have positive area), which never beats best_iou,
        # so only overlapping objects are scored.
        rx1, ry1, rx2, ry2 = region.x1, region.y1, region.x2, region.y2
        best, best_iou = None, 0.0
        for x1, y1, x2, y2, hbb, obj in self._hbbs:
            if x1 < rx2 and rx1 < x2 and y1 < ry2 and ry1 < y2:
                iou = hbb_iou(region, hbb)
                if iou > best_iou:
                    best, best_iou = obj, iou
        return best

    def _noisy_dims_mm(self, obj: AnnotatedObject) -> tuple[float, float, float]:
        if self.noise_sigma_mm > 0:
            sigma = self.noise_sigma_mm
            return tuple(max(v + self._rng.gauss(0.0, sigma), 1.0) for v in obj.dims_mm)
        return tuple(float(v) for v in obj.dims_mm)

    def complete(self, prompt: str, image: str | None = None) -> str:
        lowered = prompt.lower()
        if "measure" in lowered:
            obj = self._resolve(prompt)
            if obj is None:
                return "I cannot find a vehicle there."
            length, width, height = (v / 1000.0 for v in self._noisy_dims_mm(obj))
            return (
                f"The vehicle measures length {length:.3f} m, "
                f"width {width:.3f} m, height {height:.3f} m."
            )
        if "locate" in lowered:
            values = _floats(prompt)
            if len(values) < 3 or not self.annotation.objects:
                return "I cannot locate that vehicle."
            tl, tw, th = (v * 1000.0 for v in values[:3])

            def gap(o: AnnotatedObject) -> float:  # squared distance, mm^2
                dl, dw, dh = o.dims_mm[0] - tl, o.dims_mm[1] - tw, o.dims_mm[2] - th
                return dl * dl + dw * dw + dh * dh

            obj = min(self.annotation.objects, key=gap)
            obb = obj.obb
            if self.noise_sigma_px > 0:
                dx = self._rng.gauss(0.0, self.noise_sigma_px)
                dy = self._rng.gauss(0.0, self.noise_sigma_px)
                obb = OrientedBox2D(obb.cx + dx, obb.cy + dy, obb.width, obb.height, obb.angle)
            box3d = derive_box3d(obb, obj.dims_m, self.annotation.camera)
            return (
                f"Found it at {serialize_location(box3d)}; "
                f"image box {serialize_location(obb_to_hbb(obb))}."
            )
        for attr in ("color", "colour", "type"):
            if attr in lowered:
                obj = self._resolve(prompt)
                key = "color" if attr == "colour" else attr
                if obj is None or key not in obj.attributes:
                    return f"I cannot tell the {key}."
                return f"The {key} of the vehicle is {obj.attributes[key]}."
        return "I cannot answer that."


ATTRIBUTE_WORDS = ("brand", "model", "price", "cost", "powertrain", "doors", "seats")
VISUAL_WORDS = ("color", "colour", "type")
RETRIEVAL_WORDS = ("find", "locate", "where")
# The live query of a planner or summarizer prompt.
_QUERY_LINE = re.compile(r"Query:\s*(.+)")
# What precedes the tool outputs in a summarizer prompt (agent.runtime.summarize).
_OUTPUTS_HEADER = "\nTool outputs (JSON):\n"
_JSON = json.JSONDecoder()


def _asked_fields(lowered: str) -> list[str]:
    """The table fields a lowered query asks for, in ATTRIBUTE_WORDS order.

    "price", "cost" and "how much" each ask for the price; "how much" alone
    puts it last. The planner reads the same list: a query that asks for
    any field is a zero-shot recognition, and one that asks for the price
    searches the web for it.
    """
    asked = []
    for word in ATTRIBUTE_WORDS:
        field = "price" if word == "cost" else word
        if word in lowered and field not in asked:
            asked.append(field)
    if "how much" in lowered and "price" not in asked:
        asked.append("price")
    return asked


def _plan_json(steps: list[dict]) -> str:
    """`json.dumps(steps)` for a plan of {"tool", "args", "output_name"}
    objects whose values are str or None, each string encoded once."""
    enc = encode_basestring_ascii
    return "[" + ", ".join([
        f'{{"tool": {enc(step["tool"])}, "args": {{'
        + ", ".join([
            f"{enc(key)}: {'null' if value is None else enc(value)}"
            for key, value in step["args"].items()
        ])
        + f'}}, "output_name": {enc(step["output_name"])}}}'
        for step in steps
    ]) + "]"


class MockPlannerBackend:
    """Keyword classifier that emits the canonical plan for a query.

    Three workflows are recognized: target retrieval ("find the <brand>
    <model>", needs the vehicle table to spot names), visual attributes
    (color/type -> image understanding only), and zero-shot recognition
    (brand/model/price/... -> measure dimensions, match the table,
    optionally search the web for the price). Anything else raises
    UnknownWorkflow. The reply is the plan as a fenced one-line JSON array,
    the bytes `json.dumps(steps)` would write, written by `_plan_json`
    from the plan's fixed shape; `parse_plan_text` accepts any whitespace
    inside the fence.
    """

    name = "mock-planner"

    def __init__(self, table: VehicleTable | None = None):
        # Each record's lowered "brand model" name, in table order.
        self._names = [
            (f"{r.brand} {r.model}".lower(), (r.brand, r.model))
            for r in (table.records if table is not None else ())
        ]

    def _find_named_vehicle(self, query: str) -> tuple[str, str] | None:
        lowered = query.lower()
        best: tuple[str, str] | None = None
        best_len = 0
        for name, brand_model in self._names:
            if name in lowered and len(name) > best_len:
                best, best_len = brand_model, len(name)
        return best

    def _classify(self, query: str) -> list[dict]:
        """The canonical tool sequence of the query's workflow."""
        lowered = query.lower()
        region = extract_location(query)
        region_text = serialize_location(region) if region is not None else None
        summarize = {"tool": "summarize", "args": {}, "output_name": "answer"}

        named = self._find_named_vehicle(query)
        if named and any(word in lowered for word in RETRIEVAL_WORDS):
            brand, model = named
            return [
                {
                    "tool": "query_table",
                    "args": {"mode": "lookup", "brand": brand, "model": model},
                    "output_name": "record",
                },
                {
                    "tool": "spatial_understanding",
                    "args": {
                        "mode": "locate",
                        "length_mm": "$record.length_mm",
                        "width_mm": "$record.width_mm",
                        "height_mm": "$record.height_mm",
                    },
                    "output_name": "location",
                },
                summarize,
            ]
        for word in VISUAL_WORDS:
            if word in lowered:
                args: dict = {"attribute": "color" if word == "colour" else word}
                if region_text:
                    args["region"] = region_text
                return [
                    {"tool": "image_understanding", "args": args, "output_name": "visual"},
                    summarize,
                ]
        asked = _asked_fields(lowered)
        if asked:
            steps = [
                {
                    "tool": "spatial_understanding",
                    "args": {"mode": "dims", "region": region_text},
                    "output_name": "dims",
                },
                {
                    "tool": "query_table",
                    "args": {
                        "mode": "match",
                        "length_m": "$dims.length_m",
                        "width_m": "$dims.width_m",
                        "height_m": "$dims.height_m",
                    },
                    "output_name": "record",
                },
            ]
            if "price" in asked:
                steps.append(
                    {
                        "tool": "web_search",
                        "args": {"query": "$record.brand $record.model price"},
                        "output_name": "web_price",
                    }
                )
            steps.append(summarize)
            return steps
        raise UnknownWorkflow(f"cannot classify query: {query!r}")

    def complete(self, prompt: str, image: str | None = None) -> str:
        # The planner prompt may contain few-shot examples with their own
        # "Query:" lines; the live query is the last one.
        queries = _QUERY_LINE.findall(prompt)
        query = queries[-1].strip() if queries else prompt.strip()
        return "```json\n" + _plan_json(self._classify(query)) + "\n```"


class MockSummarizerBackend:
    """Deterministic answer templates over the executed tool outputs.

    A retrieval query (one that names the looked-up vehicle and asks where
    it is) with no location output answers "error: could not locate ...".
    """

    name = "mock-summarizer"

    def complete(self, prompt: str, image: str | None = None) -> str:
        outputs = self._outputs_from(prompt)
        first = _QUERY_LINE.search(prompt)
        query = first.group(1).lower() if first else ""

        location = outputs.get("location")
        if isinstance(location, dict) and "box3d" in location:
            # locate leaves out an image box that does not parse.
            if "hbb" not in location:
                return f"location: {location['box3d']}"
            return f"location: {location['box3d']}; image box: {location['hbb']}"
        visual = outputs.get("visual")
        if isinstance(visual, dict) and "value" in visual:
            return f"{visual.get('attribute', 'attribute')}: {visual['value']}"
        record = outputs.get("record")
        if isinstance(record, dict):
            # The planner's retrieval rule: such a plan answers with the
            # location alone, so without one its locate step failed.
            name = f"{record.get('brand')} {record.get('model')}"
            if name.lower() in query and any(word in query for word in RETRIEVAL_WORDS):
                return f"error: could not locate the {name}"
            parts = []
            for attr in _asked_fields(query) or ["brand", "model"]:
                value = record.get(attr)
                if attr == "price":
                    web = outputs.get("web_price")
                    if isinstance(web, dict):
                        searched = extract_numeric(str(web.get("text", "")))
                        if searched is not None:
                            value = searched
                if value is None:
                    continue
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    number = float(value)
                    rendered = str(int(number)) if number == int(number) else str(number)
                else:
                    rendered = str(value)
                parts.append(f"{attr}: {rendered}")
            if parts:
                return "; ".join(parts)
        return "error: no usable tool outputs"

    @staticmethod
    def _outputs_from(prompt: str) -> dict:
        # The outputs are the one-line JSON after the last header; the query
        # comes before it and may hold braces of its own.
        start = prompt.rfind(_OUTPUTS_HEADER)
        if start == -1:
            return {}
        try:
            parsed, _ = _JSON.raw_decode(prompt, start + len(_OUTPUTS_HEADER))
        except json.JSONDecodeError:
            return {}
        return parsed if isinstance(parsed, dict) else {}


def _fetch(request: urllib.request.Request, name: str, timeout: float) -> str:
    """Send `request`: one attempt plus one retry, then BackendError."""
    import http.client
    import urllib.error
    import urllib.request

    last_error: Exception | None = None
    for _ in range(2):
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                body = response.read()
                charset = response.headers.get_content_charset() or "utf-8"
            break
        except urllib.error.HTTPError as exc:
            exc.close()  # an error status: release the connection, drop the body
            last_error = exc
        except (OSError, http.client.HTTPException) as exc:  # URLError, timeouts
            last_error = exc
    else:
        raise BackendError(f"{name} backend failed after retries: {last_error}")
    try:
        return body.decode(charset, errors="replace")
    except LookupError:  # a charset Python does not know
        return body.decode("utf-8", errors="replace")


class HTTPBackend:
    """Generic served-model backend: POST {prompt, image} -> answer text."""

    def __init__(self, url: str, name: str = "http", timeout: float = 30.0):
        import urllib.request

        urllib.request.Request(url)  # a malformed URL raises ValueError here
        self.url = url
        self.name = name
        self.timeout = timeout

    def complete(self, prompt: str, image: str | None = None) -> str:
        import urllib.request

        payload: dict = {"prompt": prompt}
        if image is not None:
            payload["image"] = image
        request = urllib.request.Request(
            self.url,
            data=json.dumps(payload, allow_nan=False).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        return _fetch(request, self.name, self.timeout)


class FixtureSearchBackend:
    """Web-search stand-in answering from a query -> text mapping."""

    name = "fixture-search"

    def __init__(self, fixtures: dict[str, str]):
        self.fixtures = dict(fixtures)

    def complete(self, prompt: str, image: str | None = None) -> str:
        key = prompt.strip()
        if key not in self.fixtures:
            raise KeyError(f"no search fixture for {key!r}")
        return self.fixtures[key]


class HTTPSearchBackend:
    """Web search over a generic GET endpoint (?q=<query> -> text body)."""

    name = "http-search"

    def __init__(self, url: str, timeout: float = 30.0):
        import urllib.request

        urllib.request.Request(url)  # a malformed URL raises ValueError here
        self.url = url
        self.timeout = timeout

    def complete(self, prompt: str, image: str | None = None) -> str:
        import urllib.parse
        import urllib.request

        parts = urllib.parse.urlsplit(self.url)
        q = urllib.parse.urlencode({"q": prompt})
        query = f"{parts.query}&{q}" if parts.query else q
        url = urllib.parse.urlunsplit(parts._replace(query=query))
        return _fetch(urllib.request.Request(url), self.name, self.timeout)
