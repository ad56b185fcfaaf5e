"""Spans around the program's layer boundaries, recorded from outside it.

`instrument` replaces each listed function or method with a wrapper at
every binding the package's modules hold, so each caller sees the wrapper
under the name it already uses (for example `bev_iou` inside
`aerial3d.synth`). Nothing under `src/` changes. A span records its layer
name, the module whose binding was called, start, end, parent span and
operation id. Spans stay in memory; `write` saves them when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute); "Class.method" attributes wrap methods.
LAYERS = (
    ("camera.backproject_to_ground", "aerial3d.camera", "backproject_to_ground"),
    ("camera.project_to_pixel", "aerial3d.camera", "project_to_pixel"),
    ("boxes.ground_basis", "aerial3d.boxes", "ground_basis"),
    ("boxes.bev_iou", "aerial3d.boxes", "bev_iou"),
    ("boxes.box3d_corners", "aerial3d.boxes", "box3d_corners"),
    ("boxes.fit_min_area_obb", "aerial3d.boxes", "fit_min_area_obb"),
    ("boxes.derive_box3d", "aerial3d.boxes", "derive_box3d"),
    ("boxes.serialize_location", "aerial3d.boxes", "serialize_location"),
    ("boxes.extract_location", "aerial3d.boxes", "extract_location"),
    ("boxes.obb_to_hbb", "aerial3d.boxes", "obb_to_hbb"),
    ("evaluation.validate_annotation", "aerial3d.evaluation", "validate_annotation"),
    ("evaluation.annotation_from_dict", "aerial3d.evaluation", "annotation_from_dict"),
    ("evaluation.load_predictions", "aerial3d.evaluation", "load_predictions"),
    ("evaluation.evaluate_grounding_file", "aerial3d.evaluation", "evaluate_grounding_file"),
    ("evaluation.evaluate_retrieval_file", "aerial3d.evaluation", "evaluate_retrieval_file"),
    ("evaluation.evaluate_sqa_file", "aerial3d.evaluation", "evaluate_sqa_file"),
    ("evaluation.evaluate_attributes_file", "aerial3d.evaluation", "evaluate_attributes_file"),
    ("instructions.build_all", "aerial3d.instructions", "build_all"),
    ("instructions.build_grounding_samples", "aerial3d.instructions", "build_grounding_samples"),
    ("instructions.build_sqa_samples", "aerial3d.instructions", "build_sqa_samples"),
    ("instructions.build_phase2_samples", "aerial3d.instructions", "build_phase2_samples"),
    ("instructions.write_samples", "aerial3d.instructions", "write_samples"),
    ("instructions.to_json", "aerial3d.instructions", "InstructionSample.to_json"),
    ("synth.generate_scene", "aerial3d.synth", "generate_scene"),
    ("vehicles.match_dimensions", "aerial3d.vehicles", "match_dimensions"),
    ("vehicles.lookup", "aerial3d.vehicles", "lookup"),
    ("agent.run_query", "aerial3d.agent.runtime", "run_query"),
    ("agent.planning.plan", "aerial3d.agent.planning", "plan"),
    ("agent.planning.parse_plan_text", "aerial3d.agent.planning", "parse_plan_text"),
    ("agent.planning.load_planner_prompt", "aerial3d.agent.planning", "load_planner_prompt"),
    ("agent.runtime.execute", "aerial3d.agent.runtime", "execute"),
    ("agent.runtime.summarize", "aerial3d.agent.runtime", "summarize"),
    ("agent.tools.invoke", "aerial3d.agent.tools", "Toolbox.invoke"),
    ("agent.backends.planner", "aerial3d.agent.backends", "MockPlannerBackend.complete"),
    ("agent.backends.vlm", "aerial3d.agent.backends", "MockVLMBackend.complete"),
    ("agent.backends.summarizer", "aerial3d.agent.backends", "MockSummarizerBackend.complete"),
    ("agent.backends.search", "aerial3d.agent.backends", "FixtureSearchBackend.complete"),
)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.sites: list[str] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, site: str):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.sites.append(site)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.starts.append(0)
            self.ends.append(0)
            self._stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end

        return traced

    def instrument(self, layers=LAYERS) -> int:
        """Wrap every binding of every listed layer; returns bindings wrapped."""
        wrapped = 0
        modules = [(n, m) for n, m in sys.modules.items()
                   if m is not None and (n == "aerial3d" or n.startswith("aerial3d."))]
        for name, modname, attr in layers:
            owner = sys.modules.get(modname)
            if owner is None:  # a package this workload never imports
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), name, modname))
                wrapped += 1
                continue
            fn = getattr(owner, attr)
            for site, mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, self.wrap(fn, name, site))
                        wrapped += 1
        return wrapped

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms (duration minus children)."""
        child_ns = [0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            t = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            t["calls"] += 1
            t["ms"] += dur / 1e6
            t["self_ms"] += (dur - child_ns[idx]) / 1e6
        return out

    def calls_from(self, name: str, site: str) -> int:
        return sum(1 for n, s in zip(self.names, self.sites) if n == name and s == site)

    def write(self, path) -> None:
        """Save every span as one JSON line: name, site, start/end ns, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(self.names, self.sites, self.starts, self.ends, self.parents, self.ops):
                fh.write(json.dumps(row) + "\n")
