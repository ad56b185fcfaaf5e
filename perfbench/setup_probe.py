"""Set-up cost in a fresh interpreter: import what a workload calls and
load the packaged data it needs, then print the timings as JSON.

    python3 perfbench/setup_probe.py <workload> <src directory>
    python3 perfbench/setup_probe.py reference

Run with `python3 -X importtime` to also get the cumulative import time of
each third-party package on stderr. `reference` imports a fixed set of
standard-library modules, pure-Python and C extensions, the same kind of
work as a workload's set-up; it does not change with the program and
measures how fast the machine imports at the moment.
"""

import sys
import time

MODULES = {
    "synth_dense": ("aerial3d.synth", "aerial3d.vehicles"),
    "build_eval": ("aerial3d.evaluation", "aerial3d.instructions", "aerial3d.vehicles"),
    "agent_sweep": ("aerial3d.agent", "aerial3d.evaluation", "aerial3d.vehicles"),
    "reference": (
        "argparse", "asyncio", "concurrent.futures", "csv", "ctypes", "decimal",
        "email.message", "http.client", "json", "logging", "multiprocessing",
        "sqlite3", "ssl", "tarfile", "unittest", "xml.etree.ElementTree", "zipfile",
    ),
}


def main() -> None:
    workload = sys.argv[1]
    if workload != "reference":
        sys.path.insert(0, sys.argv[2])
    clock = time.perf_counter
    t0 = clock()
    import importlib

    for name in MODULES[workload]:
        importlib.import_module(name)
    t_import = clock()
    times = {"import_ms": t_import - t0}
    if workload != "reference":
        vehicles = sys.modules["aerial3d.vehicles"]
        table = vehicles.load_table(vehicles.packaged_table_path())
        t_table = clock()
        times["load_table_ms"] = t_table - t_import
    if workload == "build_eval":
        sys.modules["aerial3d.instructions"].load_templates()
        times["load_templates_ms"] = clock() - t_table
    if workload == "agent_sweep":
        agent = sys.modules["aerial3d.agent"]
        agent.load_planner_prompt()
        times["load_planner_prompt_ms"] = clock() - t_table
        agent.MockPlannerBackend(table)
        agent.MockSummarizerBackend()
    total = clock() - t0
    import json

    out = {key: value * 1000.0 for key, value in times.items()}
    out["setup_s"] = total
    print(json.dumps(out))


if __name__ == "__main__":
    main()
