"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, hostspeed, run  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYER = [m["name"] for m in SPEC["per_layer"]]


def bench(workload: str, trace: int, seed: int = 3) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_declares_the_four_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_runs_end_to_end(workload, trace):
    rc, result = bench(workload, trace)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == (LAYER if trace else E2E)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture(scope="module")
def traced():
    outcomes = {}
    for name, cls in WORKLOADS.items():
        outcomes[name] = cls(5, "tiny").run(1.0, Tracer())
    return outcomes


def test_emitted_names_equal_declared(traced):
    reported = set()
    for out in traced.values():
        assert set(out.e2e) == set(E2E)
        reported |= set(out.layer)
    assert reported == set(LAYER)


def test_traversal_counts_repeat_exactly(traced):
    again = WORKLOADS["gravity"](5, "tiny").run(1.0, Tracer())
    for key in ("core.opens", "core.nodes_visited", "core.pn_interactions",
                "core.pp_interactions", "decomp.split_buckets", "trees.nodes"):
        assert again.layer[key] == traced["gravity"].layer[key] > 0


def test_failed_check_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(checks, "ACCEL_ERR_P99_TOL", 0.0)
    rc = run.main(["--workload", "gravity", "--seed", "1", "--seconds", "0.1",
                   "--scale", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False and result["failed"] == 1
    assert result["metrics"] == {}


def test_host_meter_scales_by_the_kernel_mean():
    meter = hostspeed.HostMeter()
    meter.after(0.0, calls=3)
    assert len(meter.samples) == 3
    t = hostspeed.now()
    meter.after(0.5)
    assert hostspeed.now() - t >= hostspeed.SHARE * 0.5
    mean = sum(meter.samples) / len(meter.samples)
    assert meter.scale() == pytest.approx(hostspeed.REFERENCE_S / mean)


def test_no_library_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "__init__.py", "workloads.py", "tracing.py", "checks.py",
              "hostspeed.py"):
        (tmp_path / "perfbench" / f).write_text((ROOT / "perfbench" / f).read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gravity", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- each output check rejects a perturbed answer ------------------------------

def test_gravity_check_rejects_perturbed_accelerations():
    from repro.apps.gravity import compute_gravity
    from repro.particles import plummer_sphere

    p = plummer_sphere(800, seed=2)
    res = compute_gravity(p, theta=0.7, softening=1e-3)
    sample = np.arange(0, 800, 4)
    err = checks.accel_err_p99(res.accel, p.position, p.mass, sample, 1.0, 1e-3)
    assert checks.check_gravity(err) == []
    bad = res.accel.copy()
    bad[sample[::10]] *= 1.1
    err = checks.accel_err_p99(bad, p.position, p.mass, sample, 1.0, 1e-3)
    assert checks.check_gravity(err)


@pytest.fixture(scope="module")
def sph_state():
    from repro.apps.sph import compute_density_knn
    from repro.particles import clustered_clumps
    from repro.trees import build_tree

    tree = build_tree(clustered_clumps(1200, seed=4))
    state = compute_density_knn(tree, k=32)
    return tree.particles.position, state, np.arange(0, 1200, 7)


def test_sph_check_accepts_library_answer(sph_state):
    pos, state, sample = sph_state
    assert checks.check_sph(pos, state.neighbors.index, state.h, state.density,
                            sample, 1.001) == []


@pytest.mark.parametrize("field", ["index", "h", "density"])
def test_sph_check_rejects_perturbed_answer(sph_state, field):
    pos, state, sample = sph_state
    index, h, density = state.neighbors.index.copy(), state.h.copy(), state.density.copy()
    i = sample[3]
    if field == "index":
        index[i, 5] = next(j for j in range(len(pos)) if j not in index[i] and j != i)
    elif field == "h":
        h[i] *= 1.01
    else:
        density[i] = -density[i]
    assert checks.check_sph(pos, index, h, density, sample, 1.001)


@pytest.fixture(scope="module")
def serve_answers():
    from repro.serve.kernels import execute_queries
    from repro.serve.resident import build_resident_state

    state = build_resident_state({"kind": "clumps", "n": 3000, "seed": 6})
    rng = np.random.default_rng(0)
    lo, hi = state.tree.box_lo[0], state.tree.box_hi[0]
    queries = []
    for i in range(40):
        point = [float(c) for c in lo + rng.random(3) * (hi - lo)]
        if i % 2:
            queries.append({"id": str(i), "op": "knn", "point": point, "k": 16})
        else:
            queries.append({"id": str(i), "op": "range", "point": point, "radius": 0.3})
    # a small cap, so some range answers are truncated
    results = execute_queries(state.tree, queries, max_results=20)
    assert any(r.get("truncated") for r in results)
    return state.tree.particles.position, queries, results


def test_serve_check_accepts_library_answers(serve_answers):
    pos, queries, results = serve_answers
    assert checks.check_serve(pos, queries, results, 20) == []


@pytest.mark.parametrize("perturb", ["knn_idx", "knn_dist", "count", "truncated"])
def test_serve_check_rejects_perturbed_answer(serve_answers, perturb):
    pos, queries, results = serve_answers
    results = json.loads(json.dumps(results))
    knn = next(r for r in results if "dist" in r)
    capped = next(r for r in results if r.get("truncated"))
    if perturb == "knn_idx":
        knn["idx"][0] = next(j for j in range(len(pos)) if j not in knn["idx"])
    elif perturb == "knn_dist":
        knn["dist"][-1] *= 1.001
    elif perturb == "count":
        capped["count"] += 1
    else:
        del capped["truncated"]
    assert len(checks.check_serve(pos, queries, results, 20)) == 1
