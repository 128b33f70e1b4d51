import numpy as np
import pytest

from uavplan.paths import all_pairs_shortest, step_graph


def _floyd_warshall_loops(dist_km, max_step_km):
    """Textbook triple loop with all_pairs_shortest's tie rule: a path via k
    replaces the current one only when shorter by more than 1e-12."""
    d = step_graph(dist_km, max_step_km).tolist()
    L = len(d)
    nxt = [[j if np.isfinite(d[i][j]) else -1 for j in range(L)] for i in range(L)]
    for i in range(L):
        nxt[i][i] = i
    for k in range(L):
        for i in range(L):
            for j in range(L):
                via = d[i][k] + d[k][j]
                if via < d[i][j] - 1e-12:
                    d[i][j] = via
                    nxt[i][j] = nxt[i][k]
    return np.array(d), np.array(nxt)


def _dist(coords):
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def _layouts():
    rng = np.random.default_rng(7)
    for seed in range(6):
        coords = rng.uniform(0.0, 10.0, size=(14, 2))
        coords[rng.integers(14, size=4)] = coords[rng.integers(14, size=4)]  # duplicated points
        yield pytest.param(_dist(coords), 3.0, id=f"random-{seed}")
    grid = np.array([(x, y) for x in range(5) for y in range(4)], dtype=float)
    yield pytest.param(_dist(grid), 1.0, id="unit-grid")  # many shortest paths of equal length
    yield pytest.param(_dist(grid), 1.5, id="unit-grid-diagonals")
    yield pytest.param(_dist(np.array([(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (6.0, 0.0)])), 1.0, id="disconnected")


@pytest.mark.parametrize("dist, step", list(_layouts()))
def test_all_pairs_shortest_matches_triple_loop(dist, step):
    path_km, next_hop = all_pairs_shortest(dist, step)
    ref_km, ref_hop = _floyd_warshall_loops(dist, step)
    assert np.array_equal(path_km, ref_km)
    assert np.array_equal(next_hop, ref_hop)
