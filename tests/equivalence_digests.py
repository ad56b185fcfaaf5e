"""Equivalence digests: one sha256 per output family over a seeded sweep.

"Same bytes" as a check. Each family hashes what the CLI writes for every
scene of SWEEP, and `equivalence_digests.json` next to this file holds the
digests as recorded before a change. Run from the repository root:

    PYTHONPATH=src python tests/equivalence_digests.py          # compare
    PYTHONPATH=src python tests/equivalence_digests.py --write  # re-record

Comparing prints every family that moved and exits 1 if any did. A change
that moves a family on purpose re-records the manifest and lists the moved
families in CHANGES.md. Every command runs in-process through `cli.main` in
a temporary directory, with relative paths, so no output holds the path of
the machine it ran on. Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from aerial3d import cli
from aerial3d.boxes import obb_to_hbb, project_box3d, serialize_location
from aerial3d.camera import spatial_measures
from aerial3d.evaluation import load_annotations
from aerial3d.synth import ground_truth_boxes
from aerial3d.vehicles import load_table, packaged_table_path

MANIFEST = Path(__file__).with_name("equivalence_digests.json")

# (seed, vehicles, pitch_deg, agl_m, further synth flags): pitch 10-90
# degrees, nadir included. Seed 7 is the README demo scene.
SWEEP = (
    (7, 6, 90.0, 50.0, ()),
    (11, 8, 10.0, 40.0, ()),
    (12, 8, 20.0, 60.0, ()),
    (13, 10, 30.0, 50.0, ("--image-width", "1200", "--image-height", "800")),
    (14, 8, 45.0, 70.0, ()),
    (15, 12, 60.0, 55.0, ("--ground-extent", "60")),
    (16, 8, 75.0, 80.0, ()),
    (17, 30, 90.0, 60.0, ()),
)
# Scenes whose every object is asked the four agent_sweep questions.
AGENT_SEEDS = (11, 13, 15)
# The README walkthrough's agent queries, asked of the demo scene.
README_QUERIES = (
    "What are the brand and model of the vehicle at [675,431,777,520]?",
    "Find the BYD Tang in the image.",
)
FAMILIES = (
    "synth",
    "build_instr_hbb",
    "build_instr_obb",
    "derive3d",
    "eval_grounding",
    "eval_retrieval",
    "eval_sqa",
    "eval_attr",
    "agent",
)


def _cli(*argv: str) -> bytes:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return f"{code}\n{out.getvalue()}\0{err.getvalue()}".encode()


def _write_predictions(scene: str) -> None:
    """Predictions for the four eval tasks, from the scene's generating poses
    (not from the annotation the reports score them against)."""
    ann = load_annotations(f"{scene}/annotation.json")
    truth = ground_truth_boxes(json.loads(Path(f"{scene}/ground_truth.json").read_text()))
    rows = {"grounding": [], "retrieval": [], "sqa": [], "attr": []}
    for i, obj in enumerate(ann.objects):
        box = truth[obj.id]
        rows["grounding"].append(
            {"id": obj.id, "hbb": serialize_location(project_box3d(box, ann.camera).hbb)}
        )
        rows["retrieval"].append({"id": obj.id, "box3d": serialize_location(box)})
        measures = spatial_measures(box.center)
        values = (measures.depth, measures.distance, box.length, box.width, box.height)
        for task, value in zip(("depth", "distance", "length", "width", "height"), values):
            rows["sqa"].append({"id": f"{obj.id}:{task}", "answer": f"{value:.4f} m"})
        for name, value in obj.attributes.items():
            # Every third object's color is answered wrong.
            answer = "purple" if name == "color" and i % 3 == 0 else str(value)
            rows["attr"].append({"id": f"{obj.id}:{name}", "answer": answer})
    for task, lines in rows.items():
        Path(f"{scene}/{task}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in lines))


def compute() -> dict[str, str]:
    """The digest of every family over the sweep."""
    hashes = {family: hashlib.sha256() for family in FAMILIES}

    def feed(family: str, label: str, data: bytes) -> None:
        hashes[family].update(f"{label}\0{len(data)}\0".encode() + data)

    table = load_table(packaged_table_path())
    # agent_sweep's search fixtures: a listed price below the table's.
    fixtures = {
        f"{v.brand} {v.model} price": f"Listed price today: {v.price - 100 * (k + 1):,} CNY."
        for k, v in enumerate(table)
    }
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("fixtures.json").write_text(json.dumps(fixtures))
            for seed, n, pitch, agl, flags in SWEEP:
                scene, label = f"s{seed}", f"seed {seed}"
                feed("synth", label, _cli(
                    "synth", "--n", str(n), "--seed", str(seed), "--pitch-deg", str(pitch),
                    "--agl", str(agl), *flags, "--out", scene,
                ))
                ann = f"{scene}/annotation.json"
                for name in ("annotation.json", "ground_truth.json"):
                    feed("synth", f"{label} {name}", Path(scene, name).read_bytes())
                for aux in ("hbb", "obb"):
                    out = f"{scene}/instr_{aux}.jsonl"
                    printed = _cli("build-instr", "--annotations", ann, "--aux-format", aux,
                                   "--out", out)
                    feed(f"build_instr_{aux}", label, printed + Path(out).read_bytes())
                feed("derive3d", label, _cli("derive3d", "--annotations", ann))
                _write_predictions(scene)
                for task in ("grounding", "retrieval", "sqa", "attr"):
                    feed(f"eval_{task}", label, _cli(
                        "eval", "--task", task, "--pred", f"{scene}/{task}.jsonl", "--gt", ann,
                    ))

                if seed == 7:
                    queries = [(q, ()) for q in README_QUERIES]
                elif seed in AGENT_SEEDS:
                    queries = []
                    for obj in load_annotations(ann).objects:
                        region = serialize_location(obb_to_hbb(obj.obb))
                        brand, model = obj.attributes["brand"], obj.attributes["model"]
                        queries += [
                            f"What are the brand and model of the vehicle at {region}?",
                            f"What is the price of the vehicle at {region}?",
                            f"What color is the vehicle at {region}?",
                            f"Find the {brand} {model} in the image.",
                        ]
                    queries = [(q, ("--search-fixtures", "fixtures.json")) for q in queries]
                else:
                    queries = []
                image = f"{scene}/scene_{seed:05d}.png"
                for query, extra in queries:
                    printed = _cli("agent", "run", "--backend", "mock", "--image", image,
                                   "--annotations", ann, *extra, "--query", query,
                                   "--trace", "trace.json")
                    feed("agent", f"{label} {query}", printed + Path("trace.json").read_bytes())
        finally:
            os.chdir(cwd)
    return {family: h.hexdigest() for family, h in hashes.items()}


def moved(digests: dict[str, str], manifest: dict[str, str]) -> list[str]:
    """Families whose digest differs from the manifest's (or is missing from it)."""
    return [f for f in FAMILIES if digests[f] != manifest.get(f)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="record the manifest anew")
    args = parser.parse_args()
    digests = compute()
    if args.write:
        MANIFEST.write_text(json.dumps(digests, indent=2) + "\n")
        print(f"wrote {len(digests)} digests to {MANIFEST.name}")
        return 0
    changed = moved(digests, json.loads(MANIFEST.read_text()))
    for family in changed:
        print(f"moved: {family} {digests[family]}")
    print(f"{len(FAMILIES) - len(changed)} of {len(FAMILIES)} families unchanged")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
