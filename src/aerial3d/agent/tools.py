"""The four agent tools, bound to a table and model backends.

Tools take already-resolved argument dicts and return JSON-serializable
outputs that later steps and the summarizer consume:

    spatial_understanding  mode=dims    -> {length_m, width_m, height_m}
                           mode=locate  -> {box3d, hbb}   (wire strings)
    image_understanding                 -> {attribute, value}
    query_table            mode=match | mode=lookup -> vehicle record dict
    web_search                          -> {text}

Backend calls made while a tool runs are appended to the recorder list the
executor passes in, so traces capture every prompt/response verbatim.
"""

from __future__ import annotations

import re
from dataclasses import asdict
from typing import Any, Callable

from ..boxes import Box3D, HorizontalBox2D, extract_location, serialize_location
from ..errors import EmptyTable, NotFound
from ..vehicles import VehicleTable, lookup, match_dimensions
from .backends import Backend, _floats

BackendCallRecorder = list  # list of {"backend","prompt","image","response"} dicts


class Toolbox:
    """Tool registry for one agent configuration."""

    def __init__(
        self,
        table: VehicleTable | None = None,
        vlm: Backend | None = None,
        search: Backend | None = None,
    ):
        self.table = table
        self.vlm = vlm
        self.search = search
        self._tools: dict[str, Callable] = {
            "spatial_understanding": self._spatial_understanding,
            "image_understanding": self._image_understanding,
            "query_table": self._query_table,
            "web_search": self._web_search,
        }

    def invoke(
        self,
        tool: str,
        args: dict[str, Any],
        image: str | None,
        recorder: BackendCallRecorder,
    ) -> Any:
        """Run one tool; raises on failure (the executor wraps into ToolError)."""
        if tool not in self._tools:
            raise ValueError(f"unknown tool {tool!r}")
        return self._tools[tool](args, image, recorder)

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
            values = _floats(answer)
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
            box3d = hbb = None
            for token in re.findall(r"<[^<>]*>|\[[^\[\]]*\]", answer):
                loc = extract_location(token)
                if isinstance(loc, Box3D) and box3d is None:
                    box3d = loc
                elif isinstance(loc, HorizontalBox2D) and hbb is None:
                    hbb = loc
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
        return asdict(record)

    def _web_search(
        self, args: dict[str, Any], image: str | None, recorder: BackendCallRecorder
    ) -> dict[str, Any]:
        query = str(args.get("query", "")).strip()
        if not query:
            raise ValueError("web_search needs a non-empty query")
        text = self._ask(self.search, "search", query, None, recorder)
        return {"text": text}
