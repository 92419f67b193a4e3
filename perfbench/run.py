"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gravity --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0,
     "metrics": {"iter_s": {"value": 1.49, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics declared in BENCHMARK.json,
``--trace 1`` the per-layer ones; a per-layer metric of a layer the
workload does not run reads 0.  The traced run also writes its spans as
Chrome trace JSON under ``.perfbench_out/`` and prints an Amdahl table.
Exits 1 when an output check fails, 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    from repro.trees.kernels import numba_enabled

    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "numba": numba_enabled(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in WORKLOADS or args.workload not in names:
        parser.error(f"--workload must be one of {names}")

    env = environment(args.seed)
    print("perfbench env " + json.dumps(env), flush=True)
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    try:
        out = workload.run(args.seconds, tracer)
    finally:
        stop_resource_tracker()

    if tracer is None:
        wanted, values = spec["end_to_end"], out.e2e
    else:
        wanted, values = spec["per_layer"], out.layer
        out.problems += write_trace(tracer, args, env)
        print_amdahl(out)
    print(f"perfbench {args.workload} " + json.dumps(out.info, default=float))
    for problem in out.problems:
        print(f"perfbench check FAILED: {problem}", flush=True)
    correct = not out.problems
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": int(out.attempted),
                      "failed": int(out.failed),
                      "metrics": metrics if correct else {}}), flush=True)
    return 0 if correct else 1


def stop_resource_tracker() -> None:
    """Stop, and wait for, the helper process that
    ``multiprocessing.shared_memory`` starts for the process backend's
    arena; it would otherwise outlive the run by a moment."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def write_trace(tracer, args, env: dict) -> list[str]:
    """Dump the spans as Chrome trace JSON; returns validation problems."""
    from repro.obs.validate import validate_chrome_trace

    doc = tracer.to_chrome({"workload": args.workload, **env})
    problems = validate_chrome_trace(doc)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    print(f"perfbench trace {path.relative_to(ROOT)} "
          f"({len(doc['traceEvents'])} events)")
    return [f"chrome trace: {p}" for p in problems]


def print_amdahl(out) -> None:
    """Each layer's self time per unit and its share of the unit."""
    print(f"{'layer':<24}{'self s/unit':>14}{'share':>9}")
    for layer, seconds, share in out.amdahl:
        print(f"{layer:<24}{seconds:>14.6f}{share:>9.1%}")
    print(f"{'(coverage gap)':<24}{out.info.get('coverage_gap_max', 0.0):>23.2%}")


if __name__ == "__main__":
    sys.exit(main())
