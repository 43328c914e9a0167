"""Scene builders and brute-force oracles shared across the test suite."""

from __future__ import annotations

import numpy as np

from twinsync.analysis import SolutionPoint, dominates
from twinsync.model import SceneDrone, SceneObject, SceneSpec


def make_scene(
    drones,
    objects,
    *,
    width=50.0,
    height=50.0,
    k=2,
    sensing_range=10.0,
    gamma=0.9,
    delta=1.0,
    importance_period=30,
) -> SceneSpec:
    """Build a scene from (id, x, y) drone and (id, x, y, dir, important) object tuples."""
    return SceneSpec(
        width=width,
        height=height,
        k=k,
        sensing_range=sensing_range,
        gamma=gamma,
        delta=delta,
        importance_period=importance_period,
        drones=tuple(SceneDrone(*d) for d in drones),
        objects=tuple(SceneObject(*o) for o in objects),
    )


def brute_force_front(points) -> set[tuple[float, float]]:
    """Quadratic dominance filter; the reference for pareto_front."""
    unique = {SolutionPoint(*p) for p in points}
    return {
        tuple(p)
        for p in unique
        if not any(dominates(q, p) for q in unique if q != p)
    }


def grid_hypervolume(points, ref=(1.0, 1.0), cells=1000) -> float:
    """Estimate dominated area by counting dominated grid-cell centres."""
    pts = [p for p in points if p[0] <= ref[0] and p[1] <= ref[1]]
    if not pts:
        return 0.0
    xs = (np.arange(cells) + 0.5) * (ref[0] / cells)
    ys = (np.arange(cells) + 0.5) * (ref[1] / cells)
    dominated = np.zeros((cells, cells), dtype=bool)
    for px, py in pts:
        dominated |= (xs[:, None] >= px) & (ys[None, :] >= py)
    return float(dominated.mean() * ref[0] * ref[1])


def random_fronts(seed: int, count: int, max_points: int = 8):
    """Fixed-seed batches of random points in the unit square."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, max_points + 1))
        yield [SolutionPoint(float(x), float(y)) for x, y in rng.random((n, 2))]


# ------------------------------------------------------------
# Per-drone knowledge references
# ------------------------------------------------------------
# One dict of edge weights per drone, evolved from that drone's own
# (other drone, object) co-cover pairs, and a knowledge vector assembled
# pair by pair: the per-drone algorithms the fleet-wide weight matrix must
# match bit for bit.


def reference_co_cover(world, sensing_range):
    """Per drone id, the sorted (other drone id, object id) pairs it shares."""
    dpos = np.array([d.position for d in world.drones])
    opos = np.array([o.position for o in world.objects])
    diff = dpos[:, None, :] - opos[None, :, :]
    dist = np.hypot(diff[:, :, 0], diff[:, :, 1])
    covered_by = {o.id: [] for o in world.objects}
    sensed = {d.id: [] for d in world.drones}
    for di, oj in zip(*np.nonzero(dist <= sensing_range)):
        covered_by[world.objects[oj].id].append(world.drones[di].id)
        sensed[world.drones[di].id].append(world.objects[oj].id)
    return {
        me: sorted((other, oid) for oid in oids for other in covered_by[oid] if other != me)
        for me, oids in sensed.items()
    }


def reference_evolve(weights, co_cover, gamma, delta):
    """One drone's pheromone step: evaporate, then add delta per shared object."""
    out = {other: w * gamma for other, w in weights.items()}
    for other, _oid in co_cover:
        out[other] = out.get(other, 0.0) + delta
    return out


def reference_knowledge_vector(graphs):
    """Pairwise loop over id pairs; both endpoints must hold the same weight."""
    ids = sorted(graphs)
    values = []
    for a, i in enumerate(ids):
        for j in ids[a + 1:]:
            w_ij, w_ji = graphs[i].get(j, 0.0), graphs[j].get(i, 0.0)
            assert w_ij == w_ji, f"asymmetric edge ({i}, {j}): {w_ij!r} vs {w_ji!r}"
            values.append(w_ij)
    return np.asarray(values, dtype=float)
