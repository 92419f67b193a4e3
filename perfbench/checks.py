"""Output checks: every workload's answers against an independent reference.

Each check returns a list of problems (empty = correct).  References
are computed here with plain NumPy or ``scipy.spatial.cKDTree``, never
with the library's own kernels.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy.spatial import cKDTree

#: p99 relative acceleration error allowed on the gravity sample.  At
#: theta=0.7 with monopoles the measured p99 sits near 1e-2; a MAC
#: loosened enough to matter pushes it past this.
ACCEL_ERR_P99_TOL = 0.03


def direct_accel(pos: np.ndarray, mass: np.ndarray, targets: np.ndarray,
                 G: float, softening: float) -> np.ndarray:
    """Plummer-softened direct sum on ``targets`` from every particle."""
    out = np.empty((len(targets), 3))
    eps2 = softening * softening
    for s in range(0, len(targets), 64):
        t = targets[s:s + 64]
        d = pos[None, :, :] - pos[t][:, None, :]
        r2 = (d * d).sum(axis=2)
        w = mass[None, :] / (r2 + eps2) ** 1.5
        w[r2 == 0.0] = 0.0
        out[s:s + 64] = G * (w[:, :, None] * d).sum(axis=1)
    return out


def accel_err_p99(accel: np.ndarray, pos: np.ndarray, mass: np.ndarray,
                  targets: np.ndarray, G: float, softening: float) -> float:
    """p99 over ``targets`` of |a_tree - a_direct| / |a_direct|."""
    exact = direct_accel(pos, mass, targets, G, softening)
    err = (np.linalg.norm(accel[targets] - exact, axis=1)
           / np.linalg.norm(exact, axis=1))
    return float(np.quantile(err, 0.99))


def check_gravity(err_p99: float) -> list[str]:
    if not np.isfinite(err_p99) or err_p99 > ACCEL_ERR_P99_TOL:
        return [f"accel_err_p99={err_p99:.4g} exceeds {ACCEL_ERR_P99_TOL}"]
    return []


def check_sph(pos: np.ndarray, index: np.ndarray, h: np.ndarray,
              density: np.ndarray, sample: np.ndarray, eta: float) -> list[str]:
    """Neighbour sets and ``h`` of ``sample`` against cKDTree; densities
    finite and positive everywhere."""
    problems: list[str] = []
    k = index.shape[1]
    dist, ref = cKDTree(pos).query(pos[sample], k=k + 1)
    for row, i in enumerate(sample):
        # drop the particle itself, not simply column 0: a coincident
        # neighbour may sort first
        mine = [j for j in ref[row] if j != i][:k]
        if set(index[i].tolist()) != set(mine):
            problems.append(f"particle {i}: neighbour set differs from cKDTree")
            continue
        want = eta * dist[row][ref[row] != i][k - 1]
        if not np.isclose(h[i], want, rtol=1e-9, atol=0.0):
            problems.append(f"particle {i}: h={h[i]!r}, cKDTree gives {want!r}")
    if not np.all(np.isfinite(density)) or not np.all(density > 0):
        problems.append("density not finite and positive everywhere")
    return problems[:10]


def check_serve(pos: np.ndarray, queries: list[dict[str, Any]],
                results: list[dict[str, Any]], max_results: int) -> list[str]:
    """Every kNN answer exact (index set and distances), every range
    ``count`` exact, with ``truncated`` set exactly when the hit list was
    capped at ``max_results``.  Returns one problem per wrong answer."""
    problems: list[str] = []
    tree = cKDTree(pos)
    knn = [i for i, q in enumerate(queries) if q["op"] == "knn"]
    rng = [i for i, q in enumerate(queries) if q["op"] == "range"]
    for group in {q["k"] for q in (queries[i] for i in knn)}:
        rows = [i for i in knn if queries[i]["k"] == group]
        pts = np.array([queries[i]["point"] for i in rows])
        dist, ref = tree.query(pts, k=group)
        ref = ref.reshape(len(rows), group)
        dist = dist.reshape(len(rows), group)
        for row, i in enumerate(rows):
            got = results[i]
            if (set(got.get("idx", ())) != set(ref[row].tolist())
                    or not np.allclose(got.get("dist", ()), dist[row],
                                       rtol=1e-9, atol=1e-12)):
                problems.append(f"query {queries[i]['id']}: wrong kNN answer")
    for radius in {queries[i]["radius"] for i in rng}:
        rows = [i for i in rng if queries[i]["radius"] == radius]
        pts = np.array([queries[i]["point"] for i in rows])
        for i, hits in zip(rows, tree.query_ball_point(pts, radius)):
            got = results[i]
            hits = sorted(hits)
            truncated = len(hits) > max_results
            if (got.get("count") != len(hits)
                    or bool(got.get("truncated", False)) != truncated
                    or got.get("idx") != hits[:max_results]):
                problems.append(f"query {queries[i]['id']}: wrong range answer")
    return problems
