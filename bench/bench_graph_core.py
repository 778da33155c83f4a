"""Layer benchmarks of the distance oracle, Cayley balls and the drift
scan, with pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_graph_core.py --benchmark-json OUT.json

The oracle graphs are Cayley balls of the RAAG Z^2 * Z = <a, b, c | [a, b]>:
at r=5 (2583 vertices) the oracle builds its matrix; at r=6 (10945
vertices, over MATRIX_CAP) it answers ``pairs`` from its block-cut tree
(8361 blocks, the largest of 81 vertices) and rows from BFS sweeps.  The
block strategy's build, on the first ``pairs`` call of a fresh oracle, is
timed on its own.  Every round asks a fresh oracle (a fresh graph where
the code under test asks the graph for its oracle), so no round reads what
an earlier one cached.  Within a round, the repeated-query cases ask the
same oracle many times, as the library's own callers do.

``cayley_ball`` is timed on F2 at r=8 (13121 vertices), on the RAAG at
r=6 and on the same group built as the free product Z^2 * Z at r=6,
``enumerate_cosets`` of <a> on F2 at r=6 and r=8 and on the RAAG at r=6
(one walk over the ball per round; a one-generator subgroup needs no
merge pass), ``family_from_cosets`` of <a> and <b> on F2 at r=6 (the
coset walks and the 1458 coset subgraphs of the factor-system op of the
``tree-factor-system`` scenario benchmark, at its r=6), and
``GroupModel.normal_form`` on 5000 random RAAG words of length 10.
``kapovich_rafi_report`` is timed on exhaustive drift scans: F2 coned
over the cosets of <a> and <b> at r=4 (161 vertices) and r=6 (1457), and
Z^2 coned over the cosets of <a> at r=8 (145), each on a cone-off built
afresh for the round.  Its coned delta is sampled with a budget of 1000
quadruples, so the drift scan dominates.

The F2 balls are trees.  ``four_point_delta`` samples 60000 quadruples of
the r=6 ball (1457 vertices, under MATRIX_CAP: the matrix) and of the r=8
ball (13121 vertices: the block-cut tree, every block an edge), each
round on a fresh graph, so the oracle's set-up is timed with the scan.  On
the r=7 ball (4373 vertices, over MATRIX_CAP) one ``pairs`` asks 100k
random pairs, of a fresh oracle (its set-up timed) and of one that has
answered before, and one ``block`` asks every vertex against a 13-vertex
coset of <a>, the shape of a member's projection sets in the
factor-system build.  ``verify_factor_system`` checks the cosets of <a>
and <b> in the r=6 ball with 45000 sampled member pairs, the
factor-system op of the ``tree-factor-system`` scenario benchmark.
"""

import numpy as np
import pytest

from hhskit import groups
from hhskit.coneoff import build_coneoff, kapovich_rafi_report
from hhskit.factor_system import family_from_cosets, verify_factor_system
from hhskit.graph_core import (DistanceOracle, MetricGraph, bfs_distances,
                               four_point_delta, quasiconvexity_constant)

RAAG = groups.raag_group(["a", "b", "c"], [("a", "b")])
F2 = groups.free_group(["a", "b"])
Z2 = groups.free_abelian_group(["a", "b"])
Z2_Z = groups.free_product(Z2, groups.free_group(["c"]))


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
    """The pair lists of 4000 quadruples on a fresh oracle: BFS rows until
    the block-cut tree answered ``pairs``, which it now does (its build
    included)."""
    us, vs = quad_query(ball6.n)
    d = benchmark.pedantic(lambda o: o.pairs(us, vs), rounds=3,
                           setup=lambda: ((DistanceOracle(ball6),), {}))
    assert len(d) == len(us) and (d > 0).all()


def test_blocks_build_r6(benchmark, ball6):
    """The first ``pairs`` call of a fresh oracle, one pair: the block-cut
    tree, the distances from the root, the lifting tables and every block
    matrix."""
    d = benchmark.pedantic(lambda o: o.pairs([0], [ball6.n - 1]), rounds=5,
                           setup=lambda: ((DistanceOracle(ball6),), {}))
    assert d[0] == 6


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
    """Quasi-convexity scan of 3000 sampled pairs of ball vertices (4906
    distinct ends): one ``block`` of the 64 ends of each 32 pairs, one
    sweep each, no row kept past its chunk."""
    rep = benchmark.pedantic(
        lambda g: quasiconvexity_constant(g, range(g.n), pair_budget=3000,
                                          seed=2), rounds=2,
        setup=lambda: ((MetricGraph(ball6.n, ball6.edges),), {}))
    assert rep.q == 0


@pytest.mark.parametrize("model,radius,n", [(F2, 8, 13121), (RAAG, 6, 10945),
                                            (Z2_Z, 6, 10945)],
                         ids=["F2_r8", "RAAG_r6", "Z2*Z_r6"])
def test_cayley_ball(benchmark, model, radius, n):
    ball = benchmark.pedantic(groups.cayley_ball, args=(model, radius),
                              rounds=3)
    assert ball.graph.n == n


@pytest.mark.parametrize("model,radius,cosets",
                         [(F2, 6, 729), (RAAG, 6, 6765), (F2, 8, 6561)],
                         ids=["F2_r6", "RAAG_r6", "F2_r8"])
def test_enumerate_cosets(benchmark, model, radius, cosets):
    ball = groups.cayley_ball(model, radius)
    sub = groups.SubgroupSpec(model, ["a"], label="A")
    got = benchmark.pedantic(groups.enumerate_cosets, args=(ball, sub),
                             rounds=3)
    assert len(got) == cosets


def test_family_from_cosets_F2_r6(benchmark):
    ball = groups.cayley_ball(F2, 6)
    subs = [groups.SubgroupSpec(F2, [x], label=x.upper()) for x in "ab"]
    cand = benchmark.pedantic(family_from_cosets, args=(ball, subs),
                              rounds=5)
    assert len(cand.family) == 1458
    assert sum(len(m) for m in cand.family) == 2 * ball.graph.n


def test_raag_normal_form_length10(benchmark):
    letters = np.random.default_rng(3).choice([1, -1, 2, -2, 3, -3],
                                              size=(5000, 10))
    words = [tuple(w) for w in letters.tolist()]
    forms = benchmark.pedantic(lambda: [RAAG.normal_form(w) for w in words],
                               rounds=5)
    assert len(forms) == len(words) and max(map(len, forms)) <= 10


def coned(model, radius, labels):
    """A fresh cone-off of the ball over the cosets of the given letters."""
    ball = groups.cayley_ball(model, radius)
    subs = [groups.SubgroupSpec(model, [x], label=x.upper()) for x in labels]
    return build_coneoff(ball.graph, family_from_cosets(ball, subs).family)


@pytest.mark.parametrize("model,radius,labels,rounds,H", [
    (F2, 4, "ab", 3, 1), (F2, 6, "ab", 1, 1), (Z2, 8, "a", 3, 1)],
    ids=["F2_r4", "F2_r6", "Z2_r8"])
def test_kapovich_rafi_report(benchmark, model, radius, labels, rounds, H):
    rep = benchmark.pedantic(
        lambda cg: kapovich_rafi_report(cg, seed=7, delta_budget=1000),
        rounds=rounds,
        setup=lambda: ((coned(model, radius, labels),), {}))
    assert rep["sample"].mode == "exhaustive" and rep["hausdorff_H"] == H


@pytest.mark.parametrize("radius,n", [(6, 1457), (8, 13121)],
                         ids=["F2_r6", "F2_r8"])
def test_four_point_delta_tree(benchmark, radius, n):
    ball = groups.cayley_ball(F2, radius).graph
    rep = benchmark.pedantic(
        lambda g: four_point_delta(g, budget=60000, seed=7), rounds=3,
        setup=lambda: ((MetricGraph(ball.n, ball.edges),), {}))
    assert ball.n == n and rep.delta == 0.0


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_tree_pairs_r7(benchmark, warm):
    """100k random pairs of the F2 r=7 tree, the tree LCA's path before the
    block-cut tree.  Cold, each round builds a fresh oracle and asks it, so
    the set-up is timed on both sides: the LCA tables were built with the
    oracle, the block-cut tree is built on the first ``pairs`` call.  Warm,
    the oracle has answered one pair before the round."""
    g = groups.cayley_ball(F2, 7).graph
    us, vs = np.random.default_rng(11).integers(0, g.n, size=(2, 100_000))

    def setup():
        oracle = DistanceOracle(g)
        if warm:
            oracle.pairs([0], [1])
        return (oracle,), {}
    d = benchmark.pedantic(
        lambda o: (o if warm else DistanceOracle(g)).pairs(us, vs),
        rounds=5, setup=setup)
    assert g.n == 4373 and d.max() == 14


def test_tree_block_r7_member(benchmark):
    ball = groups.cayley_ball(F2, 7)
    sub = groups.SubgroupSpec(F2, ["a"], label="A")
    member = next(m for m in family_from_cosets(ball, [sub]).family
                  if len(m) == 13).vertex_array()
    g = ball.graph
    d = benchmark.pedantic(
        lambda o: o.block(np.arange(g.n), member), rounds=5,
        setup=lambda: ((DistanceOracle(g),), {}))
    assert g.n == 4373 and d.shape == (g.n, 13) and d.min() == 0


def test_verify_factor_system_F2_r6(benchmark):
    subs = [groups.SubgroupSpec(F2, [x], label=x.upper()) for x in "ab"]
    rep = benchmark.pedantic(
        lambda cand: verify_factor_system(cand, pair_budget=45000, seed=7),
        rounds=2,
        setup=lambda: ((family_from_cosets(groups.cayley_ball(F2, 6), subs),),
                       {}))
    assert rep.passed and rep.projections.sample.drawn == 45000
