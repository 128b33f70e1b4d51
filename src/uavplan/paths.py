"""Shortest paths over the location graph (edges = pairs within one epoch's reach)."""

from __future__ import annotations

import numpy as np


def step_graph(dist_km: np.ndarray, max_step_km: float) -> np.ndarray:
    """Adjacency weights: dist where a single-epoch hop is possible, inf elsewhere."""
    g = np.where(dist_km <= max_step_km + 1e-12, dist_km, np.inf)
    np.fill_diagonal(g, 0.0)
    return g


def all_pairs_shortest(dist_km: np.ndarray, max_step_km: float):
    """Floyd-Warshall over the step graph.

    Returns (path_km, next_hop) where path_km[i, j] is the shortest total
    distance and next_hop[i, j] the first node after i on that path (-1 when
    unreachable).  Ties resolve to the lowest intermediate node, so results
    are deterministic.
    """
    d = step_graph(dist_km, max_step_km)
    L = d.shape[0]
    nxt = np.where(np.isfinite(d), np.arange(L)[None, :], -1)
    np.fill_diagonal(nxt, np.arange(L))
    for k in range(L):
        # row and column k cannot improve at step k, so updating in place
        # reads the same values as a fresh copy would
        via = d[:, k, None] + d[k]
        better = via < d - 1e-12
        np.copyto(d, via, where=better)
        np.copyto(nxt, nxt[:, k, None], where=better)
    return d, nxt


def reconstruct(next_hop: np.ndarray, src: int, dst: int) -> list[int]:
    """Node sequence src..dst along the precomputed shortest path ([] if unreachable)."""
    if next_hop[src, dst] < 0:
        return []
    seq = [src]
    cur = src
    while cur != dst:
        cur = int(next_hop[cur, dst])
        seq.append(cur)
        if len(seq) > next_hop.shape[0] + 1:
            raise RuntimeError("broken next-hop table")
    return seq


def mst_max_edge(dist_km: np.ndarray) -> float:
    """Largest edge of a minimum spanning tree (Prim); the smallest per-epoch
    step that keeps the location graph connected."""
    L = dist_km.shape[0]
    if L <= 1:
        return 0.0
    in_tree = np.zeros(L, dtype=bool)
    in_tree[0] = True
    best = dist_km[0].copy()
    best[0] = np.inf
    largest = 0.0
    for _ in range(L - 1):
        j = int(np.argmin(np.where(in_tree, np.inf, best)))
        largest = max(largest, float(best[j]))
        in_tree[j] = True
        best = np.minimum(best, dist_km[j])
        best[in_tree] = np.inf
    return largest
