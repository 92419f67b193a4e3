"""The four benchmark workloads.

Each workload sets up ``setup_repeats`` times (the median is
``setup_s``), measures for the requested number of seconds, checks its
outputs against an independent reference, and returns an
:class:`Outcome`.  With a tracer, it first measures a short untraced
segment (the base for ``bench.trace_overhead``), then wraps the layer
entry points and measures the traced segment the per-layer metrics come
from.  See README.md for why each workload exists.
"""

from __future__ import annotations

import asyncio
import ctypes
import gc
import importlib
import inspect
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import checks
from .hostspeed import SETUP_CALLS, HostMeter
from .tracing import Span, Tracer, now

#: a run measures at least this many iterations (closed-loop rounds on serve)
MIN_UNITS = 3
#: share of a traced run spent on the untraced overhead base
UNTRACED_SHARE = 0.3
#: the children of an iteration span must cover all but this share of it
COVERAGE_EPS = 0.03

SCALES: dict[str, dict[str, Any]] = {
    # sizes chosen so one iteration takes 1-1.5 s on a 2-CPU x86 host
    "full": {"gravity_n": 10_000, "sph_n": 4_000, "serve_n": 50_000},
    # for the benchmark's own tests
    "tiny": {"gravity_n": 1_500, "sph_n": 1_500, "serve_n": 3_000},
}

THETA = 0.7
SOFTENING = 1e-3
DT = 1e-3
ACCEL_SAMPLE = 512
SPH_K = 32
SPH_WORKERS = 2
SPH_SAMPLE = 256
SERVE_RATES = (150.0, 300.0)
#: share of the serve load step each open-loop rate runs; the closed
#: loop gets the rest
OPEN_SHARE = 0.25
SERVE_CLOSED = 64
SERVE_K = 16
SERVE_RADIUS = 0.1


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    #: figures printed for the reader but not part of the result line
    info: dict[str, Any] = field(default_factory=dict)
    tracer: Tracer | None = None
    #: Amdahl rows: (layer, seconds per unit, share of the unit)
    amdahl: list[tuple[str, float, float]] = field(default_factory=list)


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values: list[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _quantile(values: list[float], q: float) -> float:
    return float(np.quantile(values, q)) if values else 0.0


# -- pipelines ---------------------------------------------------------------

class Pipeline:
    """Common loop for the Driver workloads: one unit = one iteration."""

    name = ""
    #: set-ups per run; setup_s is their median
    setup_repeats = 3

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.sizes = SCALES[scale]
        self.iteration = 0

    # subclass hooks
    def make_driver(self):
        raise NotImplementedError

    def close(self, driver) -> None:
        driver.disable_parallel()

    def install(self, tracer: Tracer, driver) -> None:
        """Wrap the layer entry points this pipeline calls."""
        driver_mod = importlib.import_module("repro.core.driver")
        from repro.core.traverser import Traverser
        from repro.decomp import get_decomposer
        from repro.exec import ExecutionBackend

        decomposer = type(get_decomposer(driver.config.decomp_type))
        tracer.wrap(decomposer, "assign", "decomp.assign")
        tracer.wrap(driver_mod, "build_tree", "trees.build")
        tracer.wrap(driver_mod, "decompose", "decomp.decompose")
        tracer.wrap(Traverser, "traverse", "core.traverse")
        tracer.wrap(ExecutionBackend, "run", "exec.run",
                    observe=lambda args, _: self.exec_runs.append(_lanes(args[0])))

    def check(self, driver, out: Outcome) -> None:
        raise NotImplementedError

    def layer_metrics(self, driver, tracer: Tracer, per_iter: list[dict[str, float]],
                      traced: list[int], out: Outcome) -> None:
        """Pipeline-specific per-layer metrics; ``per_iter`` holds each
        traced iteration's span time by name, ``traced`` their numbers."""
        raise NotImplementedError

    # the loop
    def iterate(self, driver, seconds: float, tracer: Tracer | None,
                meter: HostMeter) -> list[float]:
        times: list[float] = []
        end = now() + seconds
        while len(times) < MIN_UNITS or now() + times[-1] <= end:
            it = self.iteration
            self.iteration += 1
            t = now()
            if tracer is None:
                driver.run_iteration(it)
            else:
                with tracer.span("iteration", iteration=it):
                    driver.run_iteration(it)
            times.append(now() - t)
            meter.after(times[-1], tracer=tracer)
        return times

    def run(self, seconds: float, tracer: Tracer | None) -> Outcome:
        out = Outcome(tracer=tracer)
        self.exec_runs: list[dict[str, Any]] = []
        setup: list[float] = []
        meter = HostMeter()
        driver = None
        try:
            for _ in range(self.setup_repeats):
                if driver is not None:
                    self.close(driver)
                    driver = None
                    _release_memory()
                t = now()
                driver = self.make_driver()
                # the cold first iteration is set-up: on their own, generation
                # and pool start take milliseconds, too few to time steadily
                driver.run_iteration(0)
                setup.append(now() - t)
                meter.after(setup[-1], SETUP_CALLS)
            setup_scale = meter.scale()
            self.iteration = 1
            mark = len(meter.samples)
            if tracer is None:
                times = self.iterate(driver, seconds, None, meter)
            else:
                base = self.iterate(driver, UNTRACED_SHARE * seconds, None, meter)
                base_scale = meter.scale(mark)
                mark = len(meter.samples)
                first = self.iteration
                self.install(tracer, driver)
                try:
                    times = self.iterate(driver, (1 - UNTRACED_SHARE) * seconds, tracer,
                                         meter)
                finally:
                    tracer.restore()
            scale = meter.scale(mark)
            if tracer is not None:
                out.layer["bench.trace_overhead"] = (
                    _median(times) * scale / (_median(base) * base_scale))
                per_iter = _pipeline_common(driver, tracer, self.exec_runs, out)
                self.layer_metrics(driver, tracer, per_iter,
                                   list(range(first, self.iteration)), out)
            out.e2e["iter_s"] = _median(times) * scale
            out.e2e["setup_s"] = _median(setup) * setup_scale
            out.info.update(iter_s_wall=_median(times), setup_s_wall=_median(setup),
                            host_scale=scale)
            out.info["iterations"] = len(times)
            out.attempted = self.iteration
            # before the checks, whose references allocate memory of their own
            out.e2e["peak_rss_mib"] = peak_rss_mib()
            self.check(driver, out)
        finally:
            if driver is not None:
                self.close(driver)
        return out


def _lanes(backend) -> dict[str, Any]:
    """What one ``ExecutionBackend.run`` left on the backend."""
    busy: dict[int, float] = {}
    for t in backend.last_tasks or ():
        lane = int(t.get("lane", 0))
        busy[lane] = busy.get(lane, 0.0) + t["end"] - t["start"]
    return {
        "busy": list(busy.values()),
        "chunks": len(backend.last_tasks or ()),
        "cache": dict(backend.last_cache_stats or {}),
        "retries": int((backend.last_supervision or {}).get("retries", 0)),
    }


def _pipeline_common(driver, tracer: Tracer, exec_runs: list[dict[str, Any]],
                     out: Outcome) -> list[dict[str, float]]:
    """Per-layer metrics every pipeline reports, plus the Amdahl table.
    Returns each traced iteration's span time by name."""
    units = tracer.named("iteration")
    per_iter = _per_unit(tracer, units)
    m = out.layer
    for key, span in (("decomp.assign_s", "decomp.assign"),
                      ("decomp.decompose_s", "decomp.decompose"),
                      ("trees.build_s", "trees.build")):
        m[key] = _median([d.get(span, 0.0) for d in per_iter])
    m["decomp.split_buckets"] = float(driver.reports[0].n_split_buckets)
    m["trees.nodes"] = float(driver.tree.n_nodes)
    # traversal entry time: engine calls, or backend runs that wrap them
    m["core.traverse_s"] = _median(
        [d.get("core.traverse", 0.0) + d.get("exec.run", 0.0)
         - d.get("core.traverse@exec.run", 0.0) for d in per_iter])
    stats = driver.reports[0].stats
    m["core.opens"] = float(stats.opens)
    m["core.nodes_visited"] = float(stats.nodes_visited)
    m["core.pn_interactions"] = float(stats.pn_interactions)
    m["core.pp_interactions"] = float(stats.pp_interactions)
    m["core.mac_accept_ratio"] = (stats.node_interactions / stats.opens
                                  if stats.opens else 0.0)

    runs = tracer.named("exec.run")
    run_s = [s.dur for s in runs]
    busy = [sum(r["busy"]) for r in exec_runs]
    m["exec.run_s"] = _median([d.get("exec.run", 0.0) for d in per_iter])
    m["exec.lane_busy_s"] = _median(busy)
    m["exec.lane_imbalance"] = _median(
        [max(r["busy"]) / (sum(r["busy"]) / len(r["busy"]))
         for r in exec_runs if r["busy"] and sum(r["busy"]) > 0])
    m["exec.overhead_s"] = _median(
        [w - max(r["busy"]) for w, r in zip(run_s, exec_runs) if r["busy"]])
    m["exec.chunks"] = _median([float(r["chunks"]) for r in exec_runs if r["chunks"]])
    hits = sum(r["cache"].get("attach_hits", 0) for r in exec_runs)
    misses = sum(r["cache"].get("attach_misses", 0) for r in exec_runs)
    m["exec.attach_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    m["exec.retries"] = float(sum(r["retries"] for r in exec_runs))

    _amdahl(tracer, units, out)
    return per_iter


def _per_unit(tracer: Tracer, units: list[Span]) -> list[dict[str, float]]:
    """Per unit span: total duration of each descendant span name.  A
    ``core.traverse`` nested in an ``exec.run`` (serial fallback) is also
    summed under ``core.traverse@exec.run`` so it can be counted once."""
    by_id = {s.span_id: s for s in tracer.spans}
    index = {u.span_id: i for i, u in enumerate(units)}
    out: list[dict[str, float]] = [{} for _ in units]
    for s in tracer.spans:
        p, inside_exec = s.parent, False
        while p is not None and p not in index:
            inside_exec = inside_exec or by_id[p].name == "exec.run"
            p = by_id[p].parent
        if p is None:
            continue
        d = out[index[p]]
        d[s.name] = d.get(s.name, 0.0) + s.dur
        if inside_exec and s.name == "core.traverse":
            d["core.traverse@exec.run"] = d.get("core.traverse@exec.run", 0.0) + s.dur
    return out


def _amdahl(tracer: Tracer, units: list[Span], out: Outcome) -> None:
    """Amdahl table over the units, and the coverage check: the direct
    children of every unit must add up to its wall time within
    COVERAGE_EPS (the remainder is loop glue, reported as ``other``)."""
    child: dict[int, float] = {}
    for s in tracer.spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.dur
    worst = max((1.0 - child.get(u.span_id, 0.0) / u.dur for u in units), default=0.0)
    out.info["coverage_gap_max"] = worst
    if worst > COVERAGE_EPS:
        out.problems.append(
            f"trace coverage: child spans leave {worst:.1%} of a "
            f"{units[0].name} uncovered (limit {COVERAGE_EPS:.0%})")
    total = sum(u.dur for u in units)
    selfs = tracer.self_seconds(units)
    hooks = {k: v for k, v in tracer.seconds.items() if k.startswith("gravity.")}
    if "core.traverse" in selfs and hooks:
        selfs["core.traverse"] -= sum(hooks.values())
        selfs.update(hooks)
    rows = [(name.replace(units[0].name, "other"), sec / len(units), sec / total)
            for name, sec in selfs.items()]
    out.amdahl = sorted(rows, key=lambda r: -r[2])


class Gravity(Pipeline):
    """Barnes-Hut GravityDriver; ``traverser`` picks the engine."""

    name = "gravity"
    traverser = "transposed"

    def make_driver(self):
        from repro.apps.gravity import GravityDriver
        from repro.core import Configuration
        from repro.particles import plummer_sphere

        particles = plummer_sphere(self.sizes["gravity_n"], seed=self.seed)
        driver = GravityDriver(Configuration(traverser=self.traverser),
                               theta=THETA, softening=SOFTENING, dt=DT)
        driver.configure(driver.config)
        driver.particles = particles
        return driver

    def install(self, tracer: Tracer, driver) -> None:
        super().install(tracer, driver)
        from repro.apps.gravity import GravityDriver, GravityVisitor

        solver = importlib.import_module("repro.apps.gravity.solver")
        tracer.wrap(solver, "compute_centroid_arrays", "gravity.prepare")
        tracer.wrap(GravityDriver, "post_traversal", "gravity.integrate")
        self.frontier = 0

        def frontier(args, _result) -> None:
            self.frontier = max(self.frontier, len(args[2]))

        for kind, group in (("open", "gravity.mac"), ("node", "gravity.pn"),
                            ("leaf", "gravity.pp")):
            for suffix in ("", "_batch", "_sources", "_pairs"):
                observe = frontier if kind + suffix == "open_pairs" else None
                tracer.wrap(GravityVisitor, kind + suffix, group, hot=True,
                            observe=observe)

    def layer_metrics(self, driver, tracer, per_iter, traced, out) -> None:
        m = out.layer
        m["gravity.prepare_s"] = _median([d.get("gravity.prepare", 0.0) for d in per_iter])
        m["gravity.integrate_s"] = _median([d.get("gravity.integrate", 0.0) for d in per_iter])
        n = len(traced)
        sec, calls = tracer.seconds, tracer.calls
        m["gravity.mac_s"] = sec["gravity.mac"] / n
        m["gravity.pn_s"] = sec["gravity.pn"] / n
        m["gravity.pp_s"] = sec["gravity.pp"] / n
        m["gravity.hook_calls"] = float(
            sum(calls[g] for g in ("gravity.mac", "gravity.pn", "gravity.pp")) / n)
        pn = sum(driver.reports[i].stats.pn_interactions for i in traced)
        pp = sum(driver.reports[i].stats.pp_interactions for i in traced)
        m["gravity.pn_rate"] = pn / sec["gravity.pn"] if sec["gravity.pn"] else 0.0
        m["gravity.pp_rate"] = pp / sec["gravity.pp"] if sec["gravity.pp"] else 0.0
        m["core.engine_self_s"] = (
            sum(d.get("core.traverse", 0.0) for d in per_iter)
            - sec["gravity.mac"] - sec["gravity.pn"] - sec["gravity.pp"]) / n
        m["core.peak_frontier_pairs"] = float(self.frontier)

    def check(self, driver, out: Outcome) -> None:
        # one more iteration without the drift, so the accelerations belong
        # to the positions the particles hold afterwards
        driver.dt = 0.0
        driver.run_iteration(self.iteration)
        self.iteration += 1
        out.attempted += 1
        p = driver.particles
        sample = np.random.default_rng([self.seed, 2]).choice(
            len(p), size=min(ACCEL_SAMPLE, len(p)), replace=False)
        err = checks.accel_err_p99(np.asarray(driver.accelerations), p.position,
                                   p.mass, sample, 1.0, SOFTENING)
        out.info["accel_err_p99"] = err
        if out.tracer is not None:
            out.layer["accel_err_p99"] = err
        problems = checks.check_gravity(err)
        out.problems += problems
        out.failed += bool(problems)


class GravityBatched(Gravity):
    name = "gravity-batched"
    traverser = "batched"


class SPH(Pipeline):
    """SPHDriver (kNN density + pressure forces) on a 2-process backend."""

    name = "sph-w2"

    def make_driver(self):
        from repro.apps.sph import SPHDriver
        from repro.core import Configuration
        from repro.particles import clustered_clumps

        particles = clustered_clumps(self.sizes["sph_n"], seed=self.seed)
        driver = SPHDriver(Configuration(), k_neighbors=SPH_K)
        driver.configure(driver.config)
        driver.particles = particles
        backend = driver.enable_parallel("processes", workers=SPH_WORKERS)
        # the pool forks lazily; start its workers now so set-up owns it
        pool = backend._ensure_pool()
        for f in [pool.submit(int, 0) for _ in range(SPH_WORKERS)]:
            f.result()
        return driver

    def install(self, tracer: Tracer, driver) -> None:
        super().install(tracer, driver)
        sph = importlib.import_module("repro.apps.sph.driver")
        tracer.wrap(sph, "compute_density_knn", "sph.density")
        tracer.wrap(sph, "compute_pressure_forces", "sph.forces")

    def layer_metrics(self, driver, tracer, per_iter, traced, out) -> None:
        m = out.layer
        m["sph.density_s"] = _median([d.get("sph.density", 0.0) for d in per_iter])
        m["sph.forces_s"] = _median([d.get("sph.forces", 0.0) for d in per_iter])
        stats = driver.reports[0].stats
        m["knn.pp_interactions"] = float(stats.pp_interactions)
        m["knn.opens"] = float(stats.opens)
        # visitor hooks run inside the workers, out of this process's sight
        m["core.engine_self_s"] = m["core.traverse_s"]

    def check(self, driver, out: Outcome) -> None:
        from repro.apps.sph.density import compute_density_knn

        state = driver.state
        pos = driver.tree.particles.position
        sample = np.random.default_rng([self.seed, 3]).choice(
            len(pos), size=min(SPH_SAMPLE, len(pos)), replace=False)
        eta = inspect.signature(compute_density_knn).parameters["eta"].default
        problems = checks.check_sph(pos, state.neighbors.index, state.h,
                                    state.density, sample, eta)
        out.problems += problems
        out.failed += bool(problems)


# -- serve -------------------------------------------------------------------

class Serve:
    """In-process QueryService over a resident clumps tree."""

    name = "serve"
    #: a set-up takes ~0.1 s and the host's speed swings within a second,
    #: so take the median of more of them than the pipelines do
    setup_repeats = 9

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.sizes = SCALES[scale]
        self.rng = np.random.default_rng([seed, 1])
        self.n_queries = 0
        self.records: list[dict[str, Any]] = []

    def make_service(self):
        from repro.serve.service import QueryService, ServeConfig

        return QueryService(ServeConfig(
            dataset={"kind": "clumps", "n": self.sizes["serve_n"],
                     "seed": self.seed, "tree_type": "oct", "bucket_size": 16},
            executor="inline", status_every=0.0))

    def install(self, tracer: Tracer) -> None:
        from repro.serve.executor import BatchExecutor

        resident = importlib.import_module("repro.serve.resident")
        kernels = importlib.import_module("repro.serve.kernels")
        tracer.wrap(resident, "build_tree", "trees.build")
        tracer.wrap(BatchExecutor, "execute", "serve.exec",
                    observe=lambda args, _: self.batch_sizes.append(len(args[1])))
        tracer.wrap(kernels, "knn_point", "serve.knn", hot=True)
        tracer.wrap(kernels, "range_point", "serve.range", hot=True)

    def queries(self, count: int, lo: np.ndarray, hi: np.ndarray):
        from repro.serve.protocol import Query

        out = []
        for _ in range(count):
            point = lo + self.rng.random(3) * (hi - lo)
            op = ("knn", "range")[self.n_queries % 2]  # equal shares
            out.append(Query(id=f"q{self.n_queries:07d}", op=op, point=point,
                             k=SERVE_K, radius=SERVE_RADIUS))
            self.n_queries += 1
        return out

    async def _one(self, svc, q, due: float, step: str, tracer, parent) -> None:
        sent = now()
        resp = await svc.submit(q)
        done = now()
        self.records.append({"step": step, "query": q, "resp": resp,
                             "latency": done - due})
        if tracer is not None:
            qspan = tracer.record("serve.query", due, done, parent, query_id=q.id)
            if resp.queue_s is not None and resp.service_s is not None:
                start = sent + resp.queue_s
                tracer.record("serve.queue", sent, start, qspan, query_id=q.id)
                tracer.record("serve.service", start, start + resp.service_s,
                              qspan, query_id=q.id)

    async def open_loop(self, svc, rate: float, seconds: float, lo, hi,
                        tracer) -> list[float]:
        """Offer ``rate`` q/s on a fixed schedule; each query is timed from
        its due time.  Returns how late the generator ran, per query."""
        batch = self.queries(max(1, int(rate * seconds)), lo, hi)
        late: list[float] = []
        tasks = []
        step = f"r{int(rate)}"
        with (tracer.span("serve.step", rate=rate) if tracer else nullcontext()) as sid:
            if tracer is not None:
                tracer.fallback_parent = sid
            t0 = now() + 0.01
            for i, q in enumerate(batch):
                due = t0 + i / rate
                delay = due - now()
                if delay > 0:
                    await asyncio.sleep(delay)
                late.append(now() - due)
                tasks.append(asyncio.ensure_future(
                    self._one(svc, q, due, step, tracer, sid)))
            await asyncio.gather(*tasks)
        return late

    async def closed_loop(self, svc, seconds: float, lo, hi, tracer, meter: HostMeter,
                          step: str = "closed") -> list[float]:
        """Rounds of SERVE_CLOSED queries submitted together; the next round
        starts when every answer is in, and after the meter's sample.
        Returns the round times."""
        rounds: list[float] = []
        hot = dict(tracer.seconds) if tracer else {}
        end = now() + seconds
        while len(rounds) < MIN_UNITS or now() + rounds[-1] <= end:
            batch = self.queries(SERVE_CLOSED, lo, hi)
            t = now()
            with (tracer.span("round") if tracer else nullcontext()) as sid:
                if tracer is not None:
                    tracer.fallback_parent = sid
                await asyncio.gather(*(self._one(svc, q, t, step, tracer, sid)
                                       for q in batch))
            rounds.append(now() - t)
            meter.after(rounds[-1], tracer=tracer)
        if tracer is not None:
            tracer.fallback_parent = None
            # kernel seconds spent inside the rounds, for the Amdahl table
            self.round_hot = {k: v - hot.get(k, 0.0) for k, v in tracer.seconds.items()}
        return rounds

    async def steps(self, svc, seconds: float, lo, hi, tracer, meter: HostMeter):
        """Both open-loop rates, then the closed loop."""
        late: list[float] = []
        t0 = now()
        for rate in SERVE_RATES:
            late += await self.open_loop(svc, rate, OPEN_SHARE * seconds, lo, hi, tracer)
        rounds = await self.closed_loop(svc, (1 - 2 * OPEN_SHARE) * seconds, lo, hi,
                                        tracer, meter)
        return rounds, late, now() - t0

    async def session(self, svc, seconds: float, tracer: Tracer | None,
                      meter: HostMeter):
        """Serve the load; with a tracer, an untraced closed loop first.
        ``self.traced_from`` is the first meter sample of the traced steps."""
        await svc.start()
        try:
            tree = svc.state.tree
            lo, hi = tree.box_lo[0], tree.box_hi[0]
            if tracer is None:
                return (*await self.steps(svc, seconds, lo, hi, None, meter), None)
            base = await self.closed_loop(svc, UNTRACED_SHARE * seconds, lo, hi,
                                          None, meter, step="untraced")
            self.base_records = len(self.records)
            self.traced_from = len(meter.samples)
            self.install(tracer)
            try:
                traced = await self.steps(svc, (1 - UNTRACED_SHARE) * seconds,
                                          lo, hi, tracer, meter)
            finally:
                tracer.restore()
            return (*traced, base)
        finally:
            await svc.stop()

    def run(self, seconds: float, tracer: Tracer | None) -> Outcome:
        out = Outcome(tracer=tracer)
        self.batch_sizes: list[int] = []
        if tracer is not None:
            self.install(tracer)
        setup: list[float] = []
        meter = HostMeter()
        svc = None
        try:
            for _ in range(self.setup_repeats):
                if svc is not None:
                    asyncio.run(svc.stop())
                    svc = None
                    _release_memory()
                t = now()
                svc = self.make_service()
                setup.append(now() - t)
                meter.after(setup[-1], SETUP_CALLS)
        finally:
            if tracer is not None:
                tracer.restore()
        setup_scale = meter.scale()
        load_from = len(meter.samples)
        rounds, late, wall, base = asyncio.run(self.session(svc, seconds, tracer, meter))
        if tracer is None:
            scale = meter.scale(load_from)
        else:
            scale = meter.scale(self.traced_from)
            out.layer["bench.trace_overhead"] = (
                _mean(rounds) * scale
                / (_mean(base) * meter.scale(load_from, self.traced_from)))
            self.layer_metrics(tracer, svc, wall, out)
        out.e2e["setup_s"] = _median(setup) * setup_scale
        out.e2e["iter_s"] = _mean(rounds) * scale
        out.info.update(iter_s_wall=_mean(rounds), setup_s_wall=_median(setup),
                        host_scale=scale)
        self.summarise(rounds, late, out)
        out.e2e["peak_rss_mib"] = peak_rss_mib()
        self.check(svc, out)
        return out

    def summarise(self, rounds: list[float], late: list[float], out: Outcome) -> None:
        from repro.serve.protocol import STATUS_OK

        lat: dict[str, list[float]] = {}
        for r in self.records:
            if r["resp"].status == STATUS_OK:
                lat.setdefault(r["step"], []).append(r["latency"])
        closed = lat.get("closed", [])
        figures = {"closed_qps": len(closed) / sum(rounds) if rounds else 0.0,
                   "bench.gen_late_ms_max": max(late, default=0.0) * 1e3}
        for rate in SERVE_RATES:
            step = lat.get(f"r{int(rate)}", [])
            figures[f"p50_ms_r{int(rate)}"] = _quantile(step, 0.5) * 1e3
            figures[f"p99_ms_r{int(rate)}"] = _quantile(step, 0.99) * 1e3
            out.info[f"samples_r{int(rate)}"] = len(step)
        out.info.update(figures)
        if out.tracer is not None:
            out.layer.update(figures)
        out.info["rounds"] = len(rounds)

    def layer_metrics(self, tracer: Tracer, svc, wall: float, out: Outcome) -> None:
        from repro.serve.protocol import STATUS_ERROR, STATUS_EXPIRED, STATUS_SHED

        m = out.layer
        m["trees.build_s"] = _median([s.dur for s in tracer.named("trees.build")])
        m["trees.nodes"] = float(svc.state.tree.n_nodes)
        execs = tracer.named("serve.exec")
        m["serve.exec_s"] = sum(s.dur for s in execs)
        m["serve.exec_util"] = m["serve.exec_s"] / wall
        m["serve.batches"] = float(len(execs))
        m["serve.batch_size_mean"] = (sum(self.batch_sizes) / len(self.batch_sizes)
                                      if self.batch_sizes else 0.0)
        for op in ("knn", "range"):
            calls = tracer.calls[f"serve.{op}"]
            m[f"serve.{op}_us"] = (tracer.seconds[f"serve.{op}"] / calls * 1e6
                                   if calls else 0.0)
        traced = self.records[self.base_records:]
        waits = [r["resp"].queue_s for r in traced if r["resp"].queue_s is not None]
        m["serve.queue_wait_p50_ms"] = _quantile(waits, 0.5) * 1e3
        m["serve.queue_wait_p99_ms"] = _quantile(waits, 0.99) * 1e3
        for key, status in (("serve.shed", STATUS_SHED),
                            ("serve.expired", STATUS_EXPIRED),
                            ("serve.errors", STATUS_ERROR)):
            m[key] = float(sum(r["resp"].status == status for r in traced))
        rounds = tracer.named("round")
        total = sum(u.dur for u in rounds)
        knn = self.round_hot.get("serve.knn", 0.0)
        rng = self.round_hot.get("serve.range", 0.0)
        ex = sum(s.dur for s in execs if s.parent in {u.span_id for u in rounds})
        rows = [("serve.knn", knn), ("serve.range", rng),
                ("serve.exec", ex - knn - rng), ("other", total - ex)]
        out.amdahl = sorted(((n, s / len(rounds), s / total) for n, s in rows),
                            key=lambda r: -r[2])
        # the rounds of the closed loop and the host-speed samples between
        # them must tile its step
        metered = sum(s.dur for s in tracer.named("bench.hostspeed")
                      if rounds[0].start <= s.start and s.end <= rounds[-1].end)
        gap = 1.0 - (total + metered) / (rounds[-1].end - rounds[0].start)
        out.info["coverage_gap_max"] = gap
        if gap > COVERAGE_EPS:
            out.problems.append(f"trace coverage: rounds leave {gap:.1%} of the "
                                f"closed-loop step uncovered (limit {COVERAGE_EPS:.0%})")

    def check(self, svc, out: Outcome) -> None:
        from repro.serve.protocol import STATUS_OK

        ok = [r for r in self.records if r["resp"].status == STATUS_OK]
        out.attempted = len(self.records)
        out.failed = len(self.records) - len(ok)
        problems = checks.check_serve(
            svc.state.tree.particles.position,
            [r["query"].to_wire() for r in ok], [r["resp"].result for r in ok],
            svc.config.max_results)
        out.failed += len(problems)
        out.problems += problems[:10]


def _release_memory() -> None:
    """Free a discarded set-up's memory and hand it back to the OS, so the
    next set-up (and the worker processes it forks) does not carry it."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: freed memory stays in the heap


def peak_rss_mib() -> float:
    """High-water RSS of this process plus every live child (workers)."""
    import os
    import resource

    def hwm(pid: str) -> float:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return float(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    own = hwm("self") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children: set[str] = set()
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children") as fh:
                children.update(fh.read().split())
    except OSError:
        pass
    return own + sum(hwm(pid) for pid in children)


WORKLOADS: dict[str, type] = {
    "gravity": Gravity,
    "gravity-batched": GravityBatched,
    "sph-w2": SPH,
    "serve": Serve,
}
