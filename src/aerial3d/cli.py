"""Command-line entry point.

Subcommands:

    derive3d     lift annotated 2D boxes to 3D boxes
    project      project a 3D box back to pixel corners + HBB
    iou          IoU of two serialized boxes (HBB pair or 3D pair)
    match        dimension-match a vehicle against the parameter table
    build-instr  emit instruction-tuning JSONL from annotations
    eval         score prediction files (grounding / sqa / retrieval / attr)
    synth        generate a synthetic annotated scene with ground truth
    agent run    answer one query with the planner-executor-summarizer

Results go to standard output (or --out); file outputs are written
atomically. Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from ._fsio import read_json, write_text_atomic
from .errors import Aerial3DError, NotFound, ParseError

# Each handler imports the modules it calls, so a subcommand loads only
# those. instructions.STAGES, written out so that building the parser does
# not import instructions; a test pins the two together.
STAGES = ("grounding", "sqa", "phase2")


def _emit(text: str, out: str | None) -> None:
    if out:
        write_text_atomic(out, text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _load_table_arg(path: str | None):
    from .vehicles import load_table, packaged_table_path

    return load_table(path if path else packaged_table_path())


def _load_search_fixtures(path: str) -> dict[str, str]:
    """A JSON object mapping each search query to its result text."""
    data = read_json(path)
    if not isinstance(data, dict) or not all(isinstance(v, str) for v in data.values()):
        raise ParseError(f"{path}: search fixtures must be a JSON object of string to string")
    return data


# --------------------------------------------------------------------------
# Handlers
# --------------------------------------------------------------------------


def _cmd_derive3d(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .boxes import serialize_location
    from .evaluation import derive_objects, load_annotations

    ann = load_annotations(args.annotations)
    if args.id is not None:
        ann = replace(ann, objects=tuple(o for o in ann.objects if o.id == args.id))
        if not ann.objects:
            raise NotFound(f"no object with id {args.id!r} in {args.annotations}")
    results = {}
    for obj, _, box3d, error in derive_objects(ann):
        if error is None:
            try:  # build-instr's rule: a box whose dimensions round to 0.00 m
                results[obj.id] = serialize_location(box3d)
            except ValueError as exc:
                error = ValueError(f"object {obj.id!r}: {exc}")
            else:
                continue
        if args.id is not None:
            raise error
        print(f"skipped: {error}", file=sys.stderr)
    _emit(json.dumps(results, indent=2), args.out)
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    from .boxes import Box3D, parse_location, project_box3d, serialize_location
    from .evaluation import load_annotations

    ann = load_annotations(args.annotations)
    loc = parse_location(args.box3d)
    if not isinstance(loc, Box3D):
        raise ParseError("project expects a 3D box of the form <Xc,Yc,Zc,L,W,H,yaw>")
    projected = project_box3d(loc, ann.camera)
    result = {
        "corners_px": [[round(p.x, 2), round(p.y, 2)] for p in projected.corners_px],
        "hbb": serialize_location(projected.hbb),
    }
    _emit(json.dumps(result, indent=2), args.out)
    return 0


def _cmd_iou(args: argparse.Namespace) -> int:
    from .boxes import Box3D, HorizontalBox2D, bev_iou, hbb_iou, parse_location

    hbbs = args.hbb or []
    boxes3d = args.box3d or []
    if len(hbbs) == 2 and not boxes3d:
        a, b = (parse_location(s) for s in hbbs)
        if not (isinstance(a, HorizontalBox2D) and isinstance(b, HorizontalBox2D)):
            raise ParseError("--hbb values must parse as [x1,y1,x2,y2]")
        value = hbb_iou(a, b)
    elif len(boxes3d) == 2 and not hbbs:
        if not args.annotations:
            print(
                "error: --annotations is required with --box3d (camera parameters)",
                file=sys.stderr,
            )
            return 2
        from .evaluation import load_annotations

        ann = load_annotations(args.annotations)
        a, b = (parse_location(s) for s in boxes3d)
        if not (isinstance(a, Box3D) and isinstance(b, Box3D)):
            raise ParseError("--box3d values must parse as <Xc,Yc,Zc,L,W,H,yaw>")
        value = bev_iou(a, b, ann.camera)
    else:
        print("error: provide exactly two --hbb or exactly two --box3d", file=sys.stderr)
        return 2
    _emit(f"{value:.4f}", args.out)
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from .vehicles import match_dimensions

    table = _load_table_arg(args.table)
    record = match_dimensions(table, args.length_mm, args.width_mm, args.height_mm)
    _emit(json.dumps(asdict(record), indent=2), args.out)
    return 0


def _cmd_build_instr(args: argparse.Namespace) -> int:
    from .evaluation import load_annotations
    from .instructions import STAGES, build_all, load_templates, write_samples

    templates = load_templates(args.templates)
    stages = STAGES if args.stage == "all" else (args.stage,)
    samples: list = []
    skipped = 0
    for path in args.annotations:
        ann = load_annotations(path)
        result = build_all(ann, templates, args.aux_format, stages)
        samples.extend(result.samples)
        skipped += result.n_skipped
        for reason in result.skipped:
            print(f"skipped: {path}: {reason}", file=sys.stderr)
    written = write_samples(samples, args.out)
    print(json.dumps({"written": written, "objects_skipped": skipped, "out": args.out}))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .evaluation import (
        evaluate_attributes_file,
        evaluate_grounding_file,
        evaluate_retrieval_file,
        evaluate_sqa_file,
        load_annotations,
        load_predictions,
        render_report_table,
    )

    ann = load_annotations(args.gt)
    preds = load_predictions(args.pred)
    if args.task == "grounding":
        report = evaluate_grounding_file(ann, preds).to_dict()
    elif args.task == "retrieval":
        report = evaluate_retrieval_file(ann, preds).to_dict()
    elif args.task == "sqa":
        overall, per_task = evaluate_sqa_file(ann, preds)
        report = overall.to_dict()
        report["tasks"] = {name: r.to_dict() for name, r in per_task.items()}
    else:  # attr
        overall, per_attr = evaluate_attributes_file(ann, preds)
        report = overall.to_dict()
        report["attributes"] = {name: r.to_dict() for name, r in per_attr.items()}
    # A value past the float range is a ValueError, in either format.
    text = json.dumps(report, indent=2, allow_nan=False)
    _emit(render_report_table(report) if args.format == "table" else text, args.out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .synth import SceneConfig, generate_scene, write_scene

    table = _load_table_arg(args.table)
    pitch = math.radians(args.pitch_deg)
    cfg = SceneConfig(
        n_vehicles=args.n,
        pitch_range=(pitch, pitch),
        agl_range=(args.agl, args.agl),
        seed=args.seed,
        image_width=args.image_width,
        image_height=args.image_height,
        ground_extent=args.ground_extent,
    )
    scene = generate_scene(cfg, table)
    paths = write_scene(scene, args.out)
    print(
        json.dumps(
            {
                "annotation": str(paths["annotation"]),
                "ground_truth": str(paths["ground_truth"]),
                "image": str(paths["image"]),
                "n_objects": len(scene.annotation["objects"]),
            },
            indent=2,
        )
    )
    return 0


def _cmd_agent_run(args: argparse.Namespace) -> int:
    from .agent import (
        AgentConfig,
        FixtureSearchBackend,
        HTTPBackend,
        HTTPSearchBackend,
        MockPlannerBackend,
        MockSummarizerBackend,
        MockVLMBackend,
        run_query,
    )

    table = _load_table_arg(args.table)
    if args.backend == "mock":
        if not args.annotations:
            print("error: --annotations is required with --backend mock", file=sys.stderr)
            return 2
        from .evaluation import load_annotations

        ann = load_annotations(args.annotations)
        planner = MockPlannerBackend(table)
        vlm = MockVLMBackend(
            ann,
            noise_sigma_mm=args.noise_sigma_mm,
            noise_sigma_px=args.noise_sigma_px,
            seed=args.seed,
        )
        summarizer = MockSummarizerBackend()
        search = None
        if args.search_fixtures:
            search = FixtureSearchBackend(_load_search_fixtures(args.search_fixtures))
    else:
        missing = [
            flag
            for flag, value in (
                ("--planner-url", args.planner_url),
                ("--vlm-url", args.vlm_url),
                ("--summarizer-url", args.summarizer_url),
            )
            if not value
        ]
        if missing:
            print(
                f"error: --backend http requires {', '.join(missing)}", file=sys.stderr
            )
            return 2
        planner = HTTPBackend(args.planner_url, name="http-planner", timeout=args.timeout)
        vlm = HTTPBackend(args.vlm_url, name="http-vlm", timeout=args.timeout)
        summarizer = HTTPBackend(
            args.summarizer_url, name="http-summarizer", timeout=args.timeout
        )
        search = HTTPSearchBackend(args.search_url, args.timeout) if args.search_url else None

    config = AgentConfig(
        planner=planner, vlm=vlm, summarizer=summarizer, search=search, table=table
    )
    result = run_query(args.image, args.query, config)
    print(result["answer"])
    if args.trace:
        write_text_atomic(
            args.trace, json.dumps(result["trace"], indent=2, sort_keys=True) + "\n"
        )
    return 1 if result["answer"].startswith("error:") else 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aerial3d",
        description="Monocular aerial 3D grounding toolkit: geometry, "
        "instruction building, evaluation, synthetic scenes, and a tool-using agent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive3d", help="lift annotated 2D boxes to 3D boxes")
    p.add_argument("--annotations", required=True, help="annotation JSON file")
    p.add_argument("--id", help="only this object id")
    p.add_argument("--out", help="write result to this file instead of stdout")
    p.set_defaults(func=_cmd_derive3d)

    p = sub.add_parser("project", help="project a 3D box to pixel corners + HBB")
    p.add_argument("--annotations", required=True, help="annotation JSON (camera source)")
    p.add_argument("--box3d", required=True, help="serialized <Xc,Yc,Zc,L,W,H,yaw>")
    p.add_argument("--out", help="write result to this file instead of stdout")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("iou", help="IoU of two serialized boxes")
    p.add_argument("--hbb", action="append", help="serialized [x1,y1,x2,y2]; give twice")
    p.add_argument("--box3d", action="append", help="serialized 3D box; give twice")
    p.add_argument("--annotations", help="annotation JSON (camera, for --box3d)")
    p.add_argument("--out", help="write result to this file instead of stdout")
    p.set_defaults(func=_cmd_iou)

    p = sub.add_parser("match", help="dimension-match against the vehicle table")
    p.add_argument("--table", help="vehicle CSV (packaged table when omitted)")
    p.add_argument("--length-mm", type=float, required=True)
    p.add_argument("--width-mm", type=float, required=True)
    p.add_argument("--height-mm", type=float, required=True)
    p.add_argument("--out", help="write result to this file instead of stdout")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("build-instr", help="build instruction-tuning JSONL")
    p.add_argument("--annotations", nargs="+", required=True, help="annotation JSON files")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--templates", help="template JSON (packaged set when omitted)")
    p.add_argument(
        "--stage",
        choices=("all", *STAGES),
        default="all",
        help="which sample stages to emit",
    )
    p.add_argument(
        "--aux-format",
        choices=("hbb", "obb"),
        default="hbb",
        help="2D location format for phase-2 targets/aux",
    )
    p.set_defaults(func=_cmd_build_instr)

    p = sub.add_parser("eval", help="score a prediction file", description="Grounding hits at "
                       "IoU >= 0.5 and retrieval at BEV IoU > 0.25; numeric attributes, price "
                       "included, match exactly; a non-finite numeric answer fails to parse.")
    p.add_argument("--task", choices=("grounding", "sqa", "retrieval", "attr"), required=True)
    p.add_argument("--pred", required=True, help="prediction JSONL")
    p.add_argument("--gt", required=True, help="annotation JSON (ground truth)")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out", help="write report to this file instead of stdout")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic annotated scene")
    p.add_argument("--n", type=int, required=True, help="number of vehicles")
    p.add_argument("--pitch-deg", type=float, default=90.0, help="camera pitch from horizontal")
    p.add_argument("--agl", type=float, default=50.0, help="camera height above ground, m")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--table", help="vehicle CSV (packaged table when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--image-width", type=int, default=1000)
    p.add_argument("--image-height", type=int, default=1000)
    p.add_argument("--ground-extent", type=float, help="optional cap on ground spread, m")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("agent", help="tool-using query agent")
    agent_sub = p.add_subparsers(dest="agent_command", required=True)
    run_p = agent_sub.add_parser("run", help="answer one query")
    run_p.add_argument("--image", help="image path handed to the backends")
    run_p.add_argument("--query", required=True)
    run_p.add_argument("--backend", choices=("mock", "http"), default="mock")
    run_p.add_argument("--annotations", help="annotation JSON (required for mock)")
    run_p.add_argument("--table", help="vehicle CSV (packaged table when omitted)")
    run_p.add_argument("--trace", help="write the audit trace JSON here")
    run_p.add_argument("--noise-sigma-mm", type=float, default=0.0)
    run_p.add_argument("--noise-sigma-px", type=float, default=0.0)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--search-fixtures", help="JSON file of query->text search results")
    run_p.add_argument("--planner-url")
    run_p.add_argument("--vlm-url")
    run_p.add_argument("--summarizer-url")
    run_p.add_argument("--search-url")
    run_p.add_argument("--timeout", type=float, default=30.0)
    run_p.set_defaults(func=_cmd_agent_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (Aerial3DError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
