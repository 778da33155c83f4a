"""Layer benchmarks of the distance oracle, with pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_graph_core.py --benchmark-json OUT.json

The graphs are Cayley balls of the RAAG Z^2 * Z = <a, b, c | [a, b]>: at
r=5 (2583 vertices) the oracle builds its matrix, at r=6 (10945
vertices, over MATRIX_CAP) it answers from BFS rows.  Every round asks a
fresh oracle (a fresh graph where the code under test asks the graph for
its oracle), so no round reads what an earlier one cached.  Within a
round, the repeated-query cases ask the same oracle many times, as the
library's own callers do.
"""

import numpy as np
import pytest

from hhskit import groups
from hhskit.graph_core import (DistanceOracle, MetricGraph, bfs_distances,
                               four_point_delta, quasiconvexity_constant)

RAAG = groups.raag_group(["a", "b", "c"], [("a", "b")])


@pytest.fixture(scope="module")
def ball5():
    return groups.cayley_ball(RAAG, 5).graph


@pytest.fixture(scope="module")
def ball6():
    return groups.cayley_ball(RAAG, 6).graph


def quad_query(n, count=4000, seed=5):
    """The six pair lists of ``count`` quadruples of distinct vertices,
    as one ``pairs`` query (the shape of a sampled four-point delta)."""
    q = np.random.default_rng(seed).integers(0, n, size=(2 * count, 4))
    distinct = np.array([len(set(row)) == 4 for row in q.tolist()])
    x, y, z, w = q[distinct][:count].T
    return (np.concatenate([x, z, x, y, x, y]),
            np.concatenate([y, w, z, w, w, z]))


def test_matrix_r5(benchmark, ball5):
    m = benchmark.pedantic(lambda o: o.matrix(), rounds=5,
                           setup=lambda: ((DistanceOracle(ball5),), {}))
    assert m.shape == (ball5.n, ball5.n)


def test_rows_pairs_r6_delta_query(benchmark, ball6):
    us, vs = quad_query(ball6.n)
    d = benchmark.pedantic(lambda o: o.pairs(us, vs), rounds=3,
                           setup=lambda: ((DistanceOracle(ball6),), {}))
    assert len(d) == len(us) and (d > 0).all()


def test_bfs_distances_one_source_r6(benchmark, ball6):
    row = benchmark(bfs_distances, ball6, [0])
    assert (row >= 0).all()


def test_rows_row_r6(benchmark, ball6):
    """64 single rows from one oracle, as the per-vertex row loops ask."""
    def rows(o):
        return [o.row(u) for u in range(64)]
    got = benchmark.pedantic(rows, rounds=5,
                             setup=lambda: ((DistanceOracle(ball6),), {}))
    assert (got[0] >= 0).all()


def test_rows_delta_r6_budget40000(benchmark, ball6):
    """Sampled delta of 40000 quadruples: 240k distances on one oracle."""
    rep = benchmark.pedantic(
        lambda g: four_point_delta(g, budget=40000, seed=1), rounds=2,
        setup=lambda: ((MetricGraph(ball6.n, ball6.edges),), {}))
    assert rep.delta == 2.0


def test_rows_quasiconvexity_r6(benchmark, ball6):
    """Quasi-convexity scan of 3000 pairs of ball vertices: about 5.8k
    distinct rows, past the scan's own 4096-row reuse window."""
    rep = benchmark.pedantic(
        lambda g: quasiconvexity_constant(g, range(g.n), pair_budget=3000,
                                          seed=2), rounds=2,
        setup=lambda: ((MetricGraph(ball6.n, ball6.edges),), {}))
    assert rep.q == 0
