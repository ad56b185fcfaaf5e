"""The four agent tools, bound to a table and model backends.

Tools take already-resolved argument dicts and return JSON-serializable
outputs that later steps and the summarizer consume:

    spatial_understanding  mode=dims    -> {length_m, width_m, height_m}
                                           (an answer in mm or cm is converted)
                           mode=locate  -> {box3d, hbb}   (wire strings)
    image_understanding                 -> {attribute, value}
    query_table            mode=match | mode=lookup -> vehicle record dict
    web_search                          -> {text}

Backend calls made while a tool runs are appended to the recorder list the
executor passes in, so traces capture every prompt/response verbatim.
"""

from __future__ import annotations

from typing import Any

from ..boxes import Box3D, HorizontalBox2D, scan_locations, serialize_location
from ..errors import EmptyTable
from ..evaluation import _NUMBER, _in_meters
from ..vehicles import VehicleTable, lookup, match_dimensions
from .backends import Backend
from .planning import VALID_TOOLS

BackendCallRecorder = list  # list of {"backend","prompt","image","response"} dicts


class Toolbox:
    """The tools of one agent configuration; tool `t` is the method `_t`."""

    def __init__(
        self,
        table: VehicleTable | None = None,
        vlm: Backend | None = None,
        search: Backend | None = None,
    ):
        self.table = table
        self.vlm = vlm
        self.search = search

    def invoke(
        self,
        tool: str,
        args: dict[str, Any],
        image: str | None,
        recorder: BackendCallRecorder,
    ) -> Any:
        """Run one tool; raises on failure (the executor wraps into ToolError)."""
        if tool not in VALID_TOOLS:
            raise ValueError(f"unknown tool {tool!r}")
        return getattr(self, f"_{tool}")(args, image, recorder)

    def _ask(
        self,
        backend: Backend | None,
        role: str,
        prompt: str,
        image: str | None,
        recorder: BackendCallRecorder,
    ) -> str:
        if backend is None:
            raise ValueError(f"no {role} backend configured")
        response = backend.complete(prompt, image)
        recorder.append(
            {
                "backend": backend.name,
                "prompt": prompt,
                "image": image,
                "response": response,
            }
        )
        return response

    def _spatial_understanding(
        self, args: dict[str, Any], image: str | None, recorder: BackendCallRecorder
    ) -> dict[str, Any]:
        mode = args.get("mode", "dims")
        if mode == "dims":
            region = args.get("region")
            where = f" at {region}" if region else ""
            prompt = (
                f"Measure the vehicle{where}: report its length, width and "
                "height in meters."
            )
            answer = self._ask(self.vlm, "vlm", prompt, image, recorder)
            # Thousands separators are not stripped: a comma between digits
            # may separate the three values.
            values = [_in_meters(match) for match in _NUMBER.finditer(answer)]
            if len(values) < 3:
                raise ValueError(f"could not read three dimensions from {answer!r}")
            return {
                "length_m": values[0],
                "width_m": values[1],
                "height_m": values[2],
            }
        if mode == "locate":
            length = float(args["length_mm"]) / 1000.0
            width = float(args["width_mm"]) / 1000.0
            height = float(args["height_mm"]) / 1000.0
            prompt = (
                f"Locate the vehicle with dimensions length {length:.3f} m, "
                f"width {width:.3f} m, height {height:.3f} m. Report its 3D "
                "bounding box and its 2D image box."
            )
            answer = self._ask(self.vlm, "vlm", prompt, image, recorder)
            locations = list(scan_locations(answer))
            box3d = next((loc for loc in locations if isinstance(loc, Box3D)), None)
            hbb = next((loc for loc in locations if isinstance(loc, HorizontalBox2D)), None)
            if box3d is None:
                raise ValueError(f"no 3D box in answer {answer!r}")
            result = {"box3d": serialize_location(box3d)}
            if hbb is not None:
                result["hbb"] = serialize_location(hbb)
            return result
        raise ValueError(f"unknown spatial_understanding mode {mode!r}")

    def _image_understanding(
        self, args: dict[str, Any], image: str | None, recorder: BackendCallRecorder
    ) -> dict[str, Any]:
        attribute = str(args.get("attribute", "color"))
        region = args.get("region")
        where = f" at {region}" if region else ""
        prompt = f"What is the {attribute} of the vehicle{where}?"
        answer = self._ask(self.vlm, "vlm", prompt, image, recorder)
        if "cannot" in answer.lower():
            raise ValueError(f"model could not answer: {answer!r}")
        # Answers read "... is <value>."; fall back to the raw text.
        marker = answer.rfind(" is ")
        value = answer[marker + 4 :] if marker != -1 else answer
        return {"attribute": attribute, "value": value.strip().rstrip(".")}

    def _query_table(
        self, args: dict[str, Any], image: str | None, recorder: BackendCallRecorder
    ) -> dict[str, Any]:
        if self.table is None:
            raise EmptyTable("no vehicle table configured")
        mode = args.get("mode", "match")
        if mode == "match":
            record = match_dimensions(
                self.table,
                float(args["length_m"]) * 1000.0,
                float(args["width_m"]) * 1000.0,
                float(args["height_m"]) * 1000.0,
            )
        elif mode == "lookup":
            record = lookup(self.table, str(args["brand"]), str(args["model"]))
        else:
            raise ValueError(f"unknown query_table mode {mode!r}")
        return dict(vars(record))  # a record of scalars: asdict's deep copy buys nothing

    def _web_search(
        self, args: dict[str, Any], image: str | None, recorder: BackendCallRecorder
    ) -> dict[str, Any]:
        query = str(args.get("query", "")).strip()
        if not query:
            raise ValueError("web_search needs a non-empty query")
        text = self._ask(self.search, "search", query, None, recorder)
        return {"text": text}
