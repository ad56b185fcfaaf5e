"""Benchmark of aerial3d's dataset, scoring and agent paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
One process, one caller, closed loop: each operation starts when the
previous one returns. Inputs come only from `--seed`. Every output is
checked, and the check-of-checks feeds each workload's verifier corrupted
outputs first. The last line of stdout is one JSON object:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
Progress, and the unscaled CPU and wall-clock figures, go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Timing on a shared machine. Operations are timed in process CPU time, so
# time spent descheduled is not counted; every operation is single-threaded
# computation apart from small local file reads and writes. CPU time still
# varies with the load other tenants put on the physical cores (the same
# work runs up to 1.6x slower in bursts), so `speed_kernel` runs after every
# operation and operation times are scaled by REF_KERNEL_MS / (its mean CPU
# time in the run): they read as ms on a machine on which the kernel takes
# REF_KERNEL_MS. Import speed drifts apart from compute speed, so set-up
# time is scaled the same way by a standard-library reference import timed
# between the set-up probes.
OP_CLOCK = time.process_time
REF_KERNEL_MS = 2.0
REF_IMPORT_S = 0.09
SETUP_PROBES = 7
HASH_SEED = "0"
# Every input runs at least this often; its time is the mean of its runs.
MIN_ROUNDS = 3
# op_ms_tail is the nearest-rank p75 over inputs: with 40 or more inputs a
# round, at least ten lie beyond it.
TAIL_Q = 0.75

# Per-layer metrics: name, unit, better. "per query" rows are normalised by
# queries on agent_sweep and by operations elsewhere; layers that do not
# run on a workload read 0.
PER_LAYER = (
    ("setup.import_ms", "ms", "lower"),
    ("setup.import.numpy_ms", "ms", "lower"),
    ("setup.import.jsonschema_ms", "ms", "lower"),
    ("setup.import.requests_ms", "ms", "lower"),
    ("setup.load_table_ms", "ms", "lower"),
    ("setup.load_templates_ms", "ms", "lower"),
    ("setup.load_planner_prompt_ms", "ms", "lower"),
    ("synth.generate_scene.self_ms", "ms", "lower"),
    ("synth.placement_yield", "ratio", "higher"),
    ("boxes.bev_iou.calls", "count", "lower"),
    ("boxes.bev_iou.ms", "ms", "lower"),
    ("boxes.ground_basis.calls", "count", "lower"),
    ("boxes.ground_basis.ms", "ms", "lower"),
    ("camera.backproject_to_ground.calls", "count", "lower"),
    ("camera.backproject_to_ground.ms", "ms", "lower"),
    ("camera.project_to_pixel.ms", "ms", "lower"),
    ("boxes.box3d_corners.ms", "ms", "lower"),
    ("boxes.fit_min_area_obb.ms", "ms", "lower"),
    ("evaluation.validate_annotation.ms", "ms", "lower"),
    ("evaluation.annotation_from_dict.self_ms", "ms", "lower"),
    ("instructions.build_grounding_samples.ms", "ms", "lower"),
    ("instructions.build_sqa_samples.ms", "ms", "lower"),
    ("instructions.build_phase2_samples.ms", "ms", "lower"),
    ("instructions.to_json.ms", "ms", "lower"),
    ("boxes.derive_box3d.calls_per_object", "count", "lower"),
    ("boxes.derive_box3d.ms", "ms", "lower"),
    ("boxes.serialize_location.calls", "count", "lower"),
    ("boxes.serialize_location.ms", "ms", "lower"),
    ("boxes.extract_location.calls", "count", "lower"),
    ("boxes.extract_location.ms", "ms", "lower"),
    ("evaluation.load_predictions.ms", "ms", "lower"),
    ("evaluation.evaluate_grounding_file.self_ms", "ms", "lower"),
    ("evaluation.evaluate_retrieval_file.self_ms", "ms", "lower"),
    ("evaluation.evaluate_sqa_file.self_ms", "ms", "lower"),
    ("evaluation.evaluate_attributes_file.self_ms", "ms", "lower"),
    ("agent.run_query.self_ms", "ms", "lower"),
    ("agent.planning.plan.self_ms", "ms", "lower"),
    ("agent.planning.parse_plan_text.ms", "ms", "lower"),
    ("agent.runtime.execute.self_ms", "ms", "lower"),
    ("agent.runtime.summarize.self_ms", "ms", "lower"),
    ("agent.tools.invoke.self_ms", "ms", "lower"),
    ("agent.planning.load_planner_prompt.calls", "count", "lower"),
    ("agent.planning.load_planner_prompt.ms", "ms", "lower"),
    ("agent.backends.planner.ms", "ms", "lower"),
    ("agent.backends.vlm.ms", "ms", "lower"),
    ("agent.backends.summarizer.ms", "ms", "lower"),
    ("agent.backends.search.ms", "ms", "lower"),
    ("boxes.obb_to_hbb.calls", "count", "lower"),
    ("vehicles.match_dimensions.calls", "count", "lower"),
    ("vehicles.match_dimensions.ms", "ms", "lower"),
    ("vehicles.lookup.calls", "count", "lower"),
    ("vehicles.lookup.ms", "ms", "lower"),
    ("agent.backend_calls", "count", "lower"),
    ("agent.planner_retries", "count", "lower"),
    ("agent.failed_steps", "count", "lower"),
)
PER_QUERY = ("agent.", "vehicles.", "boxes.obb_to_hbb.")
BACKENDS = ("agent.backends.planner", "agent.backends.vlm",
            "agent.backends.summarizer", "agent.backends.search")
THIRD_PARTY = ("numpy", "jsonschema", "requests")


def speed_kernel() -> float:
    """CPU ms of a fixed pure-Python task like the program's hot paths:
    float math, small tuples, dict stores and a sort."""
    c0 = OP_CLOCK()
    acc, table, pts = 0.0, {}, []
    for i in range(4000):
        x = i * 0.001
        p = (math.cos(x) * 3.0, math.sin(x) * 2.0)
        pts.append(p)
        table[i & 63] = p
        acc += p[0] * p[1]
    pts.sort()
    return (OP_CLOCK() - c0) * 1000.0


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def probe_setup(workload: str, trace: bool) -> dict[str, float]:
    """Median set-up timings over fresh interpreters, alternating with the
    standard-library reference import, after one warm-up start of each that
    leaves compiled bytecode behind."""
    probe = [sys.executable, str(HERE / "setup_probe.py")]
    cmd = [*probe, workload, str(SRC)]
    runs, reference, imports = [], [], []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        ref = subprocess.run([*probe, "reference"], capture_output=True, text=True,
                             timeout=120, check=True)
        if i:
            runs.append(json.loads(done.stdout.splitlines()[-1]))
            reference.append(json.loads(ref.stdout.splitlines()[-1])["setup_s"])
    if trace:
        for _ in range(SETUP_PROBES):
            done = subprocess.run([sys.executable, "-X", "importtime", *cmd[1:]],
                                  capture_output=True, text=True, timeout=120, check=True)
            imports.append(_third_party_ms(done.stderr))
    keys = set().union(*runs)
    out = {key: statistics.median(r.get(key, 0.0) for r in runs) for key in keys}
    for pkg in THIRD_PARTY:
        out[f"import.{pkg}_ms"] = statistics.median(i[pkg] for i in imports) if imports else 0.0
    out["reference_s"] = statistics.median(reference)
    return out


def _third_party_ms(importtime_log: str) -> dict[str, float]:
    """Cumulative import time of each top-level third-party package."""
    found = dict.fromkeys(THIRD_PARTY, 0.0)
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in found:
            found[parts[2].strip()] = int(parts[1]) / 1000.0
    return found


def load_api(workload: str) -> SimpleNamespace:
    import aerial3d

    if Path(aerial3d.__file__).resolve().parent != (SRC / "aerial3d").resolve():
        raise SystemExit(f"error: imported aerial3d from {aerial3d.__file__}, not {SRC}")
    from aerial3d import boxes, evaluation, instructions, synth, vehicles

    api = SimpleNamespace(boxes=boxes, evaluation=evaluation, instructions=instructions,
                          synth=synth, vehicles=vehicles, agent=None, templates=None)
    api.table = vehicles.load_table(vehicles.packaged_table_path())
    if workload == "build_eval":
        api.templates = instructions.load_templates()
    if workload == "agent_sweep":
        from aerial3d import agent

        api.agent = agent
    return api


def check_the_checks(wl) -> list[str]:
    """Run the first input once, then feed its verifier corrupted copies.
    Returns the problems: a correct output rejected, or a corruption passed."""
    inp = wl.inputs[0]
    try:
        out = wl.op(inp)
    except Exception as exc:  # reported, and the run goes on to count failures
        return [f"first input raised {type(exc).__name__}: {exc}"]
    problems = []
    first = wl.verify(inp, out)
    if first:
        problems.append(f"correct output rejected: {first}")
    for label, bad in wl.corruptions(inp, out):
        if wl.verify(inp, bad) is None:
            problems.append(f"corrupted output passed ({label})")
        else:
            log(f"check-of-checks: {label} reported as a failed operation")
    return problems


def measure(wl, seconds: float, tracer):
    """Whole rounds of the workload's inputs until `seconds` of wall time
    have passed, and at least MIN_ROUNDS. The first round's outputs are
    verified; later rounds must reproduce them exactly. A tracer records
    the first MIN_ROUNDS rounds only, which bounds the spans kept."""
    n = len(wl.inputs)
    cpu = [[] for _ in range(n)]
    wall = [[] for _ in range(n)]
    failed, problems, failed_steps = 0, [], 0
    kernel = []
    seen: dict[int, object] = {}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for i, inp in enumerate(wl.inputs):
            if tracer is not None and rounds < MIN_ROUNDS:
                tracer.op = rounds * n + i
                tracer.active = True
            w0, c0 = time.perf_counter(), OP_CLOCK()
            try:
                out, error = wl.op(inp), None
            except Exception as exc:  # an operation that raises counts as failed
                out, error = None, f"{type(exc).__name__}: {exc}"
            c1, w1 = OP_CLOCK(), time.perf_counter()
            if tracer is not None:
                tracer.active = False
            cpu[i].append((c1 - c0) * 1000.0)
            wall[i].append((w1 - w0) * 1000.0)
            if error is None:
                fp = wl.fingerprint(out)
                if i not in seen:
                    error = wl.verify(inp, out)
                    seen[i] = fp
                elif fp != seen[i]:
                    error = "output differs from the same input's output in the first round"
                if tracer is not None and rounds < MIN_ROUNDS and hasattr(wl, "failed_steps"):
                    failed_steps += wl.failed_steps(out)
            if error is not None:
                failed += 1
                problems.append(f"input {i}: {error}")
            kernel.append(speed_kernel())
        rounds += 1
    return SimpleNamespace(
        cpu=cpu, wall=wall, failed=failed, problems=problems, rounds=rounds, kernel=kernel,
        attempted=rounds * n, failed_steps=failed_steps,
        units=sum(wl.units(i) for i in wl.inputs),
        queries=sum(wl.queries(i) for i in wl.inputs),
        objects=sum(wl.objects(i) for i in wl.inputs),
    )


def tail(values: list[float], q: float) -> float:
    """Order statistic at quantile q (nearest rank)."""
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def timing(per_input: list[list[float]], units: int, scale: float) -> tuple[float, float, float]:
    """p50 and p75 over inputs, and units per second for one round. Each
    input's time is the mean of its repeats times `scale`."""
    means = [statistics.fmean(t) * scale for t in per_input]
    return statistics.median(means), tail(means, TAIL_Q), units / (sum(means) / 1000.0)


def end_to_end(run, setup) -> dict[str, tuple[float, str]]:
    p50, slow, rate = timing(run.cpu, run.units, REF_KERNEL_MS / statistics.fmean(run.kernel))
    return {
        "setup_s": (setup["setup_s"] * REF_IMPORT_S / setup["reference_s"], "s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (slow, "ms"),
        "throughput": (rate, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run, setup, tracer) -> dict[str, tuple[float, str]]:
    totals = tracer.totals()
    rounds = min(run.rounds, MIN_ROUNDS)
    n_ops = rounds * len(run.cpu)
    per_query = run.queries * rounds or n_ops

    def stat(name: str, key: str, norm: float) -> float:
        return totals.get(name, {}).get(key, 0.0) / norm

    out = {}
    for metric, unit, _ in PER_LAYER:
        norm = per_query if metric.startswith(PER_QUERY) else n_ops
        if metric.startswith("setup."):
            value = setup.get(metric[len("setup."):], 0.0)
        elif metric == "synth.placement_yield":
            tries = tracer.calls_from("camera.backproject_to_ground", "aerial3d.synth")
            value = run.units * rounds / tries if tries else 0.0
        elif metric == "boxes.derive_box3d.calls_per_object":
            value = stat("boxes.derive_box3d", "calls", run.objects * rounds)
        elif metric == "agent.backend_calls":
            value = sum(stat(b, "calls", norm) for b in BACKENDS)
        elif metric == "agent.planner_retries":
            value = stat("agent.backends.planner", "calls", norm) - stat("agent.planning.plan", "calls", norm)
        elif metric == "agent.failed_steps":
            value = run.failed_steps / norm
        else:
            name, key = metric.rsplit(".", 1)
            value = stat(name, key, norm)
        out[metric] = (value, unit)
    return out


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes are salted per process, and the agent path alone
        # runs up to 15 % faster or slower with the salt. Re-executing with
        # a fixed salt keeps one process and makes runs comparable.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aerial3d" / "__init__.py").is_file():
        log(f"error: no aerial3d package under {SRC}; run from a checkout of the repository")
        return 2

    import scenes
    from spans import Tracer

    setup = probe_setup(args.workload, bool(args.trace))
    log(f"setup: {json.dumps(setup)}")
    sys.path.insert(0, str(SRC))
    api = load_api(args.workload)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        table = scenes.read_table(SRC / "aerial3d" / "data" / "vehicles.csv")
        wl = WORKLOADS[args.workload](api, table, random.Random(args.seed), work)
        check_problems = check_the_checks(wl)
        tracer = None
        if args.trace:
            tracer = Tracer()
            log(f"traced run: wrapped {tracer.instrument()} bindings")
        run = measure(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in (check_problems + run.problems)[:10]:
        log(f"FAILED {problem}")
    cpu, wall = timing(run.cpu, run.units, 1.0), timing(run.wall, run.units, 1.0)
    kernel = statistics.fmean(run.kernel)
    log(f"ops {run.attempted} in {run.rounds} rounds of {len(wl.inputs)} inputs; "
        f"speed kernel {kernel:.4f} ms")
    for label, (p50, slow, rate) in (("unscaled CPU", cpu), ("wall-clock", wall)):
        log(f"{label}: p50 {p50:.3f} ms, p75 {slow:.3f} ms, throughput {rate:.2f}/s")
    log(f"unscaled set-up: {setup['setup_s']:.4f} s wall-clock; "
        f"reference import {setup['reference_s']:.4f} s")
    if tracer is not None:
        # The rounds after the traced ones run untraced in the same process;
        # each part is scaled by the kernel runs made during it.
        cut = MIN_ROUNDS * len(wl.inputs)
        traced = timing([t[:MIN_ROUNDS] for t in run.cpu], run.units,
                        REF_KERNEL_MS / statistics.fmean(run.kernel[:cut]))
        log(f"traced rounds: op_ms_p50 {traced[0]:.3f} ms, {len(tracer.names)} spans")
        if run.rounds > MIN_ROUNDS:
            plain = timing([t[MIN_ROUNDS:] for t in run.cpu], run.units,
                           REF_KERNEL_MS / statistics.fmean(run.kernel[cut:]))
            log(f"untraced rounds: op_ms_p50 {plain[0]:.3f} ms; tracing overhead "
                f"{100 * (traced[0] / plain[0] - 1):.1f} %")
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = per_layer(run, setup, tracer)
    else:
        metrics = end_to_end(run, setup)
    result = {
        "correct": not check_problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
