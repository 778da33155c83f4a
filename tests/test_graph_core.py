"""graph_core against independent brute-force oracles."""

import gc
import itertools
import pathlib
import re
import tracemalloc
import weakref
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhskit import graph_core, groups
from hhskit.errors import BudgetExceeded, Disconnected
from hhskit.graph_core import (MetricGraph, PathRecord, RaggedBlocks,
                               RaggedSets, Subgraph, bfs_distances, bfs_many,
                               connected_hull, four_point_delta,
                               quasiconvexity_constant, ragged_diameters,
                               ragged_hausdorff, ragged_set_distances,
                               row_parents, segments, to_dot, write_edge_list)
from hhskit.sampling import sample_unordered_pairs


# ---------------------------------------------------------------------------
# oracles (kept deliberately naive)

def bfs_oracle(edges, n, source):
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = {source: 0}
    q = deque([source])
    while q:
        w = q.popleft()
        for nb in adj[w]:
            if nb not in dist:
                dist[nb] = dist[w] + 1
                q.append(nb)
    return [dist.get(v, -1) for v in range(n)]


def diameter_loop(graph, verts):
    """Largest distance between two of ``verts``: one BFS row per vertex."""
    verts = np.asarray(list(verts), dtype=np.int64)
    return max((int(bfs_distances(graph, [u])[verts].max()) for u in verts),
               default=0)


def bfs_parents(graph, source):
    """BFS tree from one source, level by level: each level is expanded in
    increasing id order, so a vertex's parent is the smallest-id vertex of
    the level above next to it (-1 at the source and unreached vertices)."""
    dist = [-1] * graph.n
    parent = [-1] * graph.n
    dist[source] = 0
    level = [source]
    while level:
        nxt = []
        for u in sorted(level):
            for w in graph.neighbors(u):
                w = int(w)
                if dist[w] < 0:
                    dist[w], parent[w] = dist[u] + 1, u
                    nxt.append(w)
        level = nxt
    return np.array(dist), np.array(parent)


def bfs_levels(graph, sources):
    """Multi-source BFS one level at a time, ``np.unique`` on every level
    (the form ``bfs_distances`` had before it called ``bfs_many``)."""
    dist = np.full(graph.n, -1, dtype=np.int32)
    frontier = np.unique(np.asarray(list(sources), dtype=np.int64))
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        nbrs = graph.indices[segments(graph.indptr, frontier)[1]]
        if nbrs.size == 0:
            break
        fresh = np.unique(nbrs[dist[nbrs] < 0])
        dist[fresh] = level
        frontier = fresh
    return dist


def hausdorff_distance(graph, a, b):
    """Symmetric Hausdorff distance between two nonempty vertex sets."""
    rows = {v: bfs_oracle(graph.edges, graph.n, v) for v in set(a) | set(b)}
    return max(max(min(rows[x][y] for y in b) for x in a),
               max(min(rows[y][x] for x in a) for y in b))


def four_point_gap(rows, quad):
    """Half the gap between the largest and middle pair sums of a
    quadruple, from full distance rows (witness replay)."""
    x, y, z, w = quad
    sums = sorted([rows[x][y] + rows[z][w],
                   rows[x][z] + rows[y][w],
                   rows[x][w] + rows[y][z]])
    return (sums[2] - sums[1]) / 2.0


def delta_oracle(edges, n):
    rows = [bfs_oracle(edges, n, v) for v in range(n)]
    return max((four_point_gap(rows, q)
                for q in itertools.combinations(range(n), 4)), default=0.0)


def path_graph(n):
    return MetricGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return MetricGraph(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows, cols):
    def vid(r, c):
        return r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return MetricGraph(rows * cols, edges)


@st.composite
def connected_graphs(draw, max_n=11, min_n=2):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    edges = {(i, i + 1) for i in range(n - 1)}
    for u, v in extra:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return MetricGraph(n, sorted(edges))


@st.composite
def scattered_graphs(draw, max_n=12):
    """Graphs with components and isolated vertices; the last one is isolated."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    ends = st.integers(0, n - 2)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=14))
    return MetricGraph(n, sorted({(min(u, v), max(u, v))
                                  for u, v in pairs if u != v}))


@st.composite
def trees(draw, max_n=40, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = []
    for v in range(1, n):
        p = draw(st.integers(0, v - 1))
        edges.append((p, v))
    return MetricGraph(n, edges)


# ---------------------------------------------------------------------------
# shortest paths and distances

def test_shortest_path_identity():
    assert path_graph(5).oracle().geodesic(2, 2) == [2]


def test_six_cycle_antipodal():
    assert len(cycle_graph(6).oracle().geodesic(0, 3)) - 1 == 3


def test_shortest_path_disconnected():
    g = MetricGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        g.oracle().geodesic(0, 3)


@given(st.integers(0, 9), st.data())
@settings(max_examples=80, deadline=None)
def test_is_connected_is_one_bfs_on_first_use(n, data):
    """Graphs with no vertex, one vertex, several components or one: the
    flag is not computed by the constructor, and equals a BFS check."""
    ends = st.tuples(st.integers(0, max(n - 1, 0)),
                     st.integers(0, max(n - 1, 0)))
    pairs = data.draw(st.lists(ends, max_size=12)) if n else []
    g = MetricGraph(n, sorted({(min(u, v), max(u, v))
                               for u, v in pairs if u != v}))
    assert "is_connected" not in vars(g)
    expect = n == 0 or min(bfs_oracle(g.edges, n, 0)) >= 0
    assert g.is_connected == expect


@given(scattered_graphs())
@settings(max_examples=60, deadline=None)
def test_csr_holds_sorted_neighbour_lists(g):
    nbrs = [sorted({v for e in g.edges for v in e if u in e} - {u})
            for u in range(g.n)]
    assert g.indptr.tolist() == [0] + list(itertools.accumulate(
        len(x) for x in nbrs))
    assert g.indices.tolist() == [v for x in nbrs for v in x]
    assert g.nbr_starts.tolist() == [g.indptr[u] for u in range(g.n) if nbrs[u]]


def checked_edges(n, edges):
    """Reference: the edge checks of MetricGraph as one Python loop, which
    raises on the first bad edge in input order."""
    seen = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
    return tuple(sorted(seen))


@given(st.integers(0, 6), st.lists(st.tuples(st.integers(-1, 6),
                                             st.integers(-1, 6)), max_size=12))
@settings(max_examples=300, deadline=None)
def test_edge_checks_match_the_loop(n, edges):
    """Self-loops, out-of-range ends and repeats (in either orientation)
    raise the loop's message for the first bad edge; good lists give the
    loop's sorted edges."""
    try:
        expect = checked_edges(n, edges)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            MetricGraph(n, edges)
        assert str(got.value) == str(err)
    else:
        g = MetricGraph(n, edges)
        assert g.edges == expect
        assert g.degrees.tolist() == [sum(u in e for e in expect)
                                      for u in range(n)]


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_distances_match_bfs_oracle(g):
    oracle = g.oracle()
    for src in range(0, g.n, 3):
        expect = bfs_oracle(g.edges, g.n, src)
        got = oracle.row(src)
        assert list(got) == expect


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_triangle_inequality(g):
    oracle = g.oracle()
    rows = [oracle.row(u) for u in range(g.n)]
    for x, y, z in itertools.combinations(range(g.n), 3):
        assert rows[x][y] <= rows[x][z] + rows[z][y]


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_geodesic_is_valid_and_minimal(g):
    oracle = g.oracle()
    for u in range(g.n):
        for v in range(g.n):
            path = oracle.geodesic(u, v)
            PathRecord(tuple(path)).validate(g)
            assert path[0] == u and path[-1] == v
            assert len(path) - 1 == bfs_oracle(g.edges, g.n, u)[v]


@given(st.one_of(connected_graphs(), trees()), st.data())
@settings(max_examples=60, deadline=None)
def test_geodesic_is_the_bfs_parents_walk(g, data):
    """Every strategy walks the smallest-id parents back from v to u; on a
    tree that is its one geodesic."""
    u, v = (data.draw(st.integers(0, g.n - 1)) for _ in range(2))
    parent = bfs_parents(g, u)[1]
    walk = [v]
    while walk[-1] != u:
        walk.append(int(parent[walk[-1]]))
    for cap in STRATEGIES.values():
        assert oracle_with(g, cap).geodesic(u, v) == walk[::-1]


@given(st.one_of(scattered_graphs(), st.just(MetricGraph(1, []))),
       st.sampled_from([1, 63, 64]), st.data())
@settings(max_examples=60, deadline=None)
def test_bfs_many_equals_stacked_bfs(g, k, data):
    sources = data.draw(st.lists(st.integers(0, g.n - 1),
                                 min_size=k, max_size=k))
    rows = bfs_many(g, RaggedSets.singletons(np.asarray(sources)))
    assert rows.dtype == np.int32
    assert rows.tolist() == [bfs_levels(g, [u]).tolist() for u in sources]
    with pytest.raises(ValueError):
        bfs_many(g, RaggedSets.singletons(np.zeros(graph_core.WORD + 1)))


@given(st.one_of(scattered_graphs(), connected_graphs(), trees(),
                 st.just(MetricGraph(1, []))), st.data())
@settings(max_examples=60, deadline=None)
def test_row_parents_equal_bfs_parents(g, data):
    """The smallest-id neighbour one level closer is the BFS parent, from a
    row of every strategy (unreached vertices and the source get -1)."""
    u = data.draw(st.integers(0, g.n - 1))
    dist, parent = bfs_parents(g, u)
    for cap in STRATEGIES.values():
        row = oracle_with(g, cap).row(u)
        assert row_parents(g, row).tolist() == parent.tolist()


def vertex_sets(g, min_size=0, max_size=64):
    """Lists of vertex lists: empty sets, repeats and overlaps allowed."""
    return st.lists(st.lists(st.integers(0, g.n - 1), max_size=5),
                    min_size=min_size, max_size=max_size)


@given(st.one_of(scattered_graphs(), st.just(MetricGraph(1, []))), st.data())
@settings(max_examples=60, deadline=None)
def test_bfs_many_on_sets_equals_multi_source_bfs(g, data):
    """Bit i seeded at every vertex of set i gives the multi-source rows."""
    sets = data.draw(vertex_sets(g))
    rows = bfs_many(g, RaggedSets.from_arrays([np.asarray(x, dtype=np.int64)
                                               for x in sets]))
    assert rows.shape == (len(sets), g.n) and rows.dtype == np.int32
    assert rows.tolist() == [bfs_levels(g, x).tolist() for x in sets]
    assert [bfs_distances(g, x).tolist() for x in sets] == rows.tolist()


@given(st.one_of(scattered_graphs(), st.just(MetricGraph(1, [])),
                 # an end vertex reaches levels 7/8 and 15/16, which
                 # straddle a bit plane
                 st.sampled_from([9, 10, 17, 18]).map(path_graph)),
       st.sampled_from([0, 1, 63, 64]), st.data())
@settings(max_examples=80, deadline=None)
def test_bfs_many_reads_the_asked_columns(g, k, data):
    """Unpacking only ``cols`` (empty, repeated, unsorted) gives those
    columns of the full rows, -1 entries included."""
    sets = data.draw(vertex_sets(g, k, k))
    if k and data.draw(st.booleans()):
        sets[0] = [0]  # an end vertex of the paths
    ragged = RaggedSets.from_arrays([np.asarray(x, dtype=np.int64)
                                     for x in sets])
    cols = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
    got = bfs_many(g, ragged, cols)
    assert got.shape == (k, len(cols)) and got.dtype == np.int32
    assert got.tolist() == bfs_many(g, ragged)[:, cols].tolist()


def star_graph(n):
    return MetricGraph(n, [(0, v) for v in range(1, n)])


def complete_graph(n):
    return MetricGraph(n, list(itertools.combinations(range(n), 2)))


# a path 0..29, the complete graph on 30..37 and isolated vertices 38..40
PATH_CLIQUE = MetricGraph(41, [(i, i + 1) for i in range(29)]
                          + list(itertools.combinations(range(30, 38), 2)))


@pytest.mark.parametrize("g,sets,levels", [
    (path_graph(40), [[0]], "push"),
    (cycle_graph(41), [[0]], "push"),
    (PATH_CLIQUE, [[0], [], [31], [39]], "push"),
    (star_graph(30), [[v] for v in range(30)], "pull"),
    (complete_graph(12), [[v] for v in range(12)] + [[]], "pull"),
    (PATH_CLIQUE, [[v] for v in range(30, 38)] + [[], [0, 40], [5]],
     "both")],
    ids=["path", "cycle", "path_clique_isolated", "star", "complete",
         "mixed"])
def test_bfs_many_push_and_pull_levels(monkeypatch, g, sets, levels):
    """Levels that push (a small frontier of a sparse graph) and levels
    that pull (a frontier that covers the graph) give the stacked BFS rows
    and the same column readout; degree-0 vertices, components and empty
    sets included.  A push is one ``segments`` call, a pull none."""
    pushes = []
    real = graph_core.segments
    monkeypatch.setattr(graph_core, "segments",
                        lambda indptr, rows: pushes.append(len(rows))
                        or real(indptr, rows))
    ragged = RaggedSets.from_arrays([np.asarray(x, dtype=np.int64)
                                     for x in sets])
    rows = bfs_many(g, ragged)
    swept = rows.max() + 1  # the last level finds nothing new
    assert {"push": len(pushes) == swept, "pull": not pushes,
            "both": 0 < len(pushes) < swept}[levels]
    assert rows.tolist() == [bfs_levels(g, x).tolist() for x in sets]
    cols = np.random.default_rng(0).integers(0, g.n, 2 * g.n)
    assert bfs_many(g, ragged, cols).tolist() == rows[:, cols].tolist()


@given(st.one_of(scattered_graphs(), connected_graphs(), trees()), st.data())
@settings(max_examples=40, deadline=None)
def test_dist_to_sets_answers_like_multi_source_bfs(g, data):
    """More sets than one sweep holds, on every strategy, with the matrix
    unbuilt and built; dist_to_set is the one-set call."""
    sets = data.draw(vertex_sets(g, graph_core.WORD + 1, graph_core.WORD + 20))
    ragged = RaggedSets.from_arrays([np.asarray(x, dtype=np.int64)
                                     for x in sets])
    expect = [bfs_levels(g, x).tolist() for x in sets]
    for cap in STRATEGIES.values():
        oracle = oracle_with(g, cap)
        assert oracle.dist_to_sets(ragged).tolist() == expect
        assert [oracle.dist_to_set(x).tolist() for x in sets] == expect
        if oracle._use_matrix:
            oracle.matrix()
            assert oracle.dist_to_sets(ragged).tolist() == expect


@pytest.mark.parametrize("count", [10, 3 * graph_core.WORD])
def test_dist_to_sets_sweeps_at_most_the_matrix(monkeypatch, count):
    """Without a held matrix, sets that need at least as many sweeps as the
    matrix build it (ceil(n / WORD) sweeps, not ceil(len(sets) / WORD));
    fewer sets are swept themselves, and no matrix is kept."""
    calls = []

    def spy(graph, sets, *cols, _real=graph_core.bfs_many):
        calls.append(len(sets))
        return _real(graph, sets, *cols)

    g = cycle_graph(graph_core.WORD + 6)
    rng = np.random.default_rng(count)
    sets = [rng.choice(g.n, size=rng.integers(1, 4), replace=False)
            for _ in range(count)]
    oracle = g.oracle()
    monkeypatch.setattr(graph_core, "bfs_many", spy)
    got = oracle.dist_to_sets(RaggedSets.from_arrays(sets))
    assert got.tolist() == [bfs_levels(g, x).tolist() for x in sets]
    built = count >= g.n
    assert len(calls) == -(-(g.n if built else count) // graph_core.WORD)
    assert (oracle._matrix is not None) == built


def frontier_neighbors_loop(graph, frontier):
    """Reference: the neighbors and sources of a frontier, vertex by vertex."""
    nbrs = [int(w) for u in frontier for w in graph.neighbors(u)]
    srcs = [int(u) for u in frontier for _ in graph.neighbors(u)]
    return nbrs, srcs


@given(scattered_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_segments_gather_frontier_neighbors(g, data):
    """One CSR gather: positions in row order, owners as row indices."""
    rows = np.asarray(data.draw(st.lists(st.integers(0, g.n - 1),
                                         max_size=15)), dtype=np.int64)
    owner, pos = graph_core.segments(g.indptr, rows)
    assert pos.tolist() == [p for r in rows
                            for p in range(g.indptr[r], g.indptr[r + 1])]
    assert (g.indices[pos].tolist(), rows[owner].tolist()) == \
        frontier_neighbors_loop(g, rows)


# MATRIX_CAP values that force each distance strategy: the matrix on every
# graph, or no matrix ("capped"): the block-cut tree on trees (no block
# matrix to store) and BFS sweeps on graphs with a block over two vertices.
STRATEGIES = {"matrix": 4096, "capped": 0}


def oracle_with(g, matrix_cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_core, "MATRIX_CAP", matrix_cap)
        return graph_core.DistanceOracle(g)


def strategy_cases(graphs, tree_graphs):
    """(MATRIX_CAP, graphs) that put each strategy to work: the matrix on
    graphs and trees alike; with no matrix, the block-cut tree on trees
    ("lca": its lowest common block) and BFS sweeps on graphs closed into
    a cycle ("rows")."""
    cyclic = graphs.map(
        lambda g: MetricGraph(g.n, set(g.edges) | {(0, g.n - 1)}))
    return {"matrix": (STRATEGIES["matrix"], st.one_of(graphs, tree_graphs)),
            "lca": (STRATEGIES["capped"], tree_graphs),
            "rows": (STRATEGIES["capped"], cyclic)}


def assert_strategy(strategy, g, matrix_cap):
    oracle = oracle_with(g, matrix_cap)
    assert oracle._use_matrix == (strategy == "matrix")
    assert (oracle._blocks is not None) == (strategy == "lca")


@given(st.one_of(connected_graphs(), trees()), st.data())
@settings(max_examples=60, deadline=None)
def test_every_strategy_answers_like_bfs(g, data):
    rows = [bfs_oracle(g.edges, g.n, v) for v in range(g.n)]
    verts = st.lists(st.integers(0, g.n - 1), min_size=1, max_size=6)
    a, b = data.draw(verts), data.draw(verts)
    to_b = [min(rows[v][w] for w in b) for v in range(g.n)]
    for cap in STRATEGIES.values():
        oracle = oracle_with(g, cap)
        assert list(oracle.dist_to_set(b)) == to_b
        block = oracle.block(a, b)
        assert block.shape == (len(a), len(b))
        assert block.tolist() == [[rows[u][v] for v in b] for u in a]
        assert list(oracle.pairs(a, a[::-1])) == [
            rows[u][v] for u, v in zip(a, a[::-1])]
        # with the matrix built (where the strategy has one) the set
        # distances come from its rows
        assert list(oracle.dist_to_set(b)) == to_b
        assert ragged_diameters(oracle, RaggedSets(a, [0, len(a)])).tolist() \
            == [max(rows[u][v] for u in a for v in a)]
    # one sweeping query over more distinct sources than one sweep holds;
    # closing the path into a cycle makes one block over the cap
    wide = data.draw(connected_graphs(min_n=graph_core.WORD + 2, max_n=150))
    wide = MetricGraph(wide.n, set(wide.edges) | {(0, wide.n - 1)})
    rows = [bfs_oracle(wide.edges, wide.n, v) for v in range(wide.n)]
    order = st.permutations(range(wide.n))
    a = data.draw(order) + data.draw(verts.map(list))
    b = data.draw(order)[:graph_core.WORD + 1] * 2
    oracle = oracle_with(wide, STRATEGIES["capped"])
    assert list(oracle.pairs(a, a[::-1])) == [
        rows[u][v] for u, v in zip(a, a[::-1])]
    assert oracle.block(a, b).tolist() == [[rows[u][v] for v in b] for u in a]


def six_call_deltas(oracle, quads):
    """Reference four-point gaps: one oracle call per pair list."""
    x, y, z, w = (quads[:, i] for i in range(4))
    s1 = oracle.pairs(x, y).astype(np.int64) + oracle.pairs(z, w)
    s2 = oracle.pairs(x, z).astype(np.int64) + oracle.pairs(y, w)
    s3 = oracle.pairs(x, w).astype(np.int64) + oracle.pairs(y, z)
    sums = np.sort(np.stack([s1, s2, s3], axis=1), axis=1)
    return (sums[:, 2] - sums[:, 1]) / 2.0


QUAD_CASES = strategy_cases(connected_graphs(min_n=4),
                            trees().filter(lambda t: t.n >= 4))


@pytest.mark.parametrize("strategy", sorted(QUAD_CASES))
@given(st.data(), st.integers(0, 9))
@settings(max_examples=20, deadline=None)
def test_one_call_quad_deltas_match_six_calls(strategy, data, seed):
    matrix_cap, graphs = QUAD_CASES[strategy]
    g = data.draw(graphs)
    assert_strategy(strategy, g, matrix_cap)

    def delta(**kw):
        fresh = MetricGraph(g.n, g.edges)
        return [(r.delta, r.witness) for r in (
            four_point_delta(fresh, **kw),
            four_point_delta(fresh, budget=40, seed=seed, **kw))]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_core, "MATRIX_CAP", matrix_cap)
        # matrix gathers and block-tree lifts split mid-list, so chunk
        # boundaries fall inside queries
        mp.setattr(graph_core, "PAIRS_CHUNK", 6 * 5 + 1)
        one_call = delta()
        with pytest.MonkeyPatch.context() as chunked:
            # the first maximum holds across quadruple chunks
            chunked.setattr(graph_core, "QUAD_CHUNK", 5)
            assert delta() == one_call
        mp.setattr(graph_core, "_quad_deltas", six_call_deltas)
        assert one_call == delta()


GEODESIC_CASES = strategy_cases(
    connected_graphs(min_n=graph_core.WORD + 2, max_n=150),
    trees(min_n=graph_core.WORD + 2, max_n=150))


@pytest.mark.parametrize("strategy", sorted(GEODESIC_CASES))
@given(st.data())
@settings(max_examples=10, deadline=None)
def test_geodesics_walk_each_sources_bfs_parents(strategy, data):
    """One call over more distinct sources than a sweep holds, in shuffled
    order with repeats, walks each pair's bfs_parents back from v; with an
    isolated vertex added, a pair that cannot reach it raises."""
    matrix_cap, graphs = GEODESIC_CASES[strategy]
    g = data.draw(graphs)
    assert_strategy(strategy, g, matrix_cap)
    ends = st.integers(0, g.n - 1)
    us = data.draw(st.permutations(range(g.n))) + data.draw(st.lists(ends))
    vs = data.draw(st.lists(ends, min_size=len(us), max_size=len(us)))
    parents = {u: bfs_parents(g, u)[1] for u in set(us)}
    walks = []
    for u, v in zip(us, vs):
        walk = [v]
        while walk[-1] != u:
            walk.append(int(parents[u][walk[-1]]))
        walks.append(walk[::-1])
    assert oracle_with(g, matrix_cap).geodesics(us, vs) == walks
    lone = oracle_with(MetricGraph(g.n + 1, g.edges), matrix_cap)
    for pair in ((us[0], g.n), (g.n, us[0])):
        with pytest.raises(Disconnected):
            lone.geodesics(us + [pair[0]], vs + [pair[1]])


def test_rows_strategy_reads_only_the_queried_columns(monkeypatch):
    """Without a matrix, a cycle's ``pairs`` sweeps read each batch's own
    targets and a ``block``'s sweeps read its longer side, and no more."""
    calls = []

    def spy(graph, sets, *cols, _real=graph_core.bfs_many):
        calls.append((len(sets), *map(len, cols)))
        return _real(graph, sets, *cols)

    g = cycle_graph(3 * graph_core.WORD + 5)
    rows = [bfs_oracle(g.edges, g.n, v) for v in range(g.n)]
    oracle = oracle_with(g, STRATEGIES["capped"])
    monkeypatch.setattr(graph_core, "bfs_many", spy)
    rng = np.random.default_rng(0)
    us, vs = rng.integers(0, g.n, size=(2, 500))
    assert oracle.pairs(us, vs).tolist() == [rows[u][v] for u, v in zip(us, vs)]
    assert sum(k for k, _ in calls) == len(np.unique(us))
    assert sum(m for _, m in calls) == len(us)
    for a, b in ((us[:150], vs[:7]), (us[:7], vs[:150])):
        calls.clear()
        assert oracle.block(a, b).tolist() == [[rows[u][v] for v in b]
                                               for u in a]
        assert calls and all(m == 150 for _, m in calls)


def test_rows_strategy_caches_no_rows():
    """The sampled delta above MATRIX_CAP holds no more than a few sweeps."""
    raag = groups.raag_group(["a", "b", "c"], [("a", "b")])
    expect = four_point_delta(groups.cayley_ball(raag, 5).graph,
                              budget=3000, seed=1)
    g = groups.cayley_ball(raag, 5).graph
    assert g.n == 2583
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_core, "MATRIX_CAP", 8)
        tracemalloc.start()
        try:
            got = four_point_delta(g, budget=3000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a quarter of an int32 all-pairs matrix; caching every row is 26 MB
    assert peak < g.n * g.n * 4 / 4
    assert (got.delta, got.witness) == (expect.delta, expect.witness)


def test_strategy_follows_graph_size(monkeypatch):
    """A path of MATRIX_CAP vertices holds the matrix; one vertex more, a
    path answers from its block-cut tree, and a cycle, one block over the
    cap, by BFS sweeps; neither has a matrix."""
    cap = 40
    monkeypatch.setattr(graph_core, "MATRIX_CAP", cap)
    # each oracle holds its graph weakly: the graphs stay bound
    graphs = path_graph(cap), path_graph(cap + 1), cycle_graph(cap + 1)
    small = graphs[0].oracle()
    assert small.matrix().shape == (cap, cap)
    assert small.pairs([0], [cap - 1])[0] == cap - 1
    # decided (and the blocks built) before the spies go in: building the
    # blocks runs a BFS from the root
    tree, cycle = graphs[1].oracle(), graphs[2].oracle()
    assert tree._blocks is not None and cycle._blocks is None
    calls = []
    for name, owner in (("entries", graph_core._BlockMetric),
                        ("bfs_many", graph_core)):
        def spy(*args, _name=name, _real=getattr(owner, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(owner, name, spy)
    for oracle in (tree, cycle):
        with pytest.raises(BudgetExceeded):
            oracle.matrix()
    assert tree.pairs([0], [cap])[0] == cap and set(calls) == {"entries"}
    calls.clear()
    assert cycle.pairs([0], [cap])[0] == 1 and set(calls) == {"bfs_many"}


def test_dropped_graph_frees_its_matrix_without_the_collector():
    """The cached oracle holds its graph weakly: no reference cycle keeps a
    dropped graph, or its matrix, alive until the cycle collector runs."""
    g = groups.cayley_ball(groups.free_group(["a", "b"]), 3).graph
    oracle = g.oracle()
    assert oracle.matrix().shape == (g.n, g.n)
    alive, matrix = weakref.ref(g), weakref.ref(oracle)
    del oracle
    gc.disable()
    try:
        del g
        assert alive() is None and matrix() is None
    finally:
        gc.enable()


@st.composite
def glued_blocks(draw, max_pieces=8):
    """Edges, cycles and grids, each glued at one vertex to what came
    before or joined to it by a bridge, with the ids shuffled so that the
    root (vertex 0) falls anywhere: trees, cactus graphs, cycles glued at
    cut vertices and grids joined by bridges.  Returns the graph and the
    sum of |B|^2 over its blocks of more than two vertices."""
    edges, n, stored = [], 1, 0
    for _ in range(draw(st.integers(1, max_pieces))):
        at = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            edges.append((at, n))
            at, n = n, n + 1
        kind = draw(st.sampled_from(["edge", "cycle", "grid"]))
        if kind == "edge":
            piece = path_graph(2)
        elif kind == "cycle":
            piece = cycle_graph(draw(st.integers(3, 7)))
        else:
            piece = grid_graph(draw(st.integers(2, 3)), draw(st.integers(2, 3)))
        ids = [at] + list(range(n, n + piece.n - 1))
        edges += [(ids[x], ids[y]) for x, y in piece.edges]
        n += piece.n - 1
        stored += piece.n ** 2 if piece.n > 2 else 0
    perm = draw(st.permutations(range(n)))
    return MetricGraph(n, [(perm[x], perm[y]) for x, y in edges]), stored


@given(glued_blocks(), st.data())
@settings(max_examples=60, deadline=None)
def test_block_strategy_answers_like_bfs(case, data):
    """One vertex over the cap, the blocks answer when their matrices fit
    in the cap's (and sweeps otherwise): shuffled pairs with repeats, u ==
    v, and the root at either end."""
    g, stored = case
    cap = g.n - 1
    oracle = oracle_with(g, cap)
    assert (oracle._blocks is not None) == (stored <= cap * cap)
    rows = [bfs_oracle(g.edges, g.n, v) for v in range(g.n)]
    ends = st.integers(0, g.n - 1)
    us = data.draw(st.lists(ends, max_size=60))
    vs = data.draw(st.lists(ends, min_size=len(us), max_size=len(us)))
    verts = list(range(g.n))
    us, vs = us + vs + [0] * g.n + verts, vs + vs + verts + [0] * g.n
    assert oracle.pairs(us, vs).tolist() == [rows[u][v]
                                             for u, v in zip(us, vs)]


def bridged_grids():
    """Two 9x9 grids joined by a bridge: blocks of 81 vertices, more local
    indices than one sweep holds."""
    grid = grid_graph(9, 9)
    return MetricGraph(2 * grid.n, list(grid.edges) + [(0, grid.n)] + [
        (x + grid.n, y + grid.n) for x, y in grid.edges])


@pytest.mark.parametrize("make", [
    lambda: groups.cayley_ball(
        groups.raag_group(["a", "b", "c"], [("a", "b")]), 4).graph,
    bridged_grids], ids=["raag_r4", "grids_9x9"])
def test_block_strategy_on_large_blocks(make):
    """Every pair of the RAAG r=4 ball (blocks of up to 37 vertices) and
    of two bridged grids, one vertex over the cap, against the matrix."""
    g = make()
    blocks = oracle_with(g, g.n - 1)
    assert blocks._blocks is not None
    us, vs = np.divmod(np.arange(g.n * g.n), g.n)
    assert np.array_equal(blocks.pairs(us, vs),
                          oracle_with(g, g.n).pairs(us, vs))


@pytest.mark.parametrize("strategy,matrix_cap,g", [
    ("matrix", STRATEGIES["matrix"], cycle_graph(9)),
    ("lca", STRATEGIES["capped"], path_graph(9)),
    ("rows", STRATEGIES["capped"], cycle_graph(9))])
def test_pairs_rejects_ids_out_of_range(strategy, matrix_cap, g):
    """A negative id or one past the last vertex raises, on either side and
    at every entry point, where indexing would wrap or fail by accident."""
    assert_strategy(strategy, g, matrix_cap)
    oracle = oracle_with(g, matrix_cap)
    for bad in (-1, g.n):
        for us, vs in (([0, bad], [1, 2]), ([0, 1], [2, bad])):
            for query in (oracle.pairs, oracle.block, oracle.geodesics,
                          lambda us, vs: oracle.geodesic(us[-1], vs[-1])):
                with pytest.raises(IndexError):
                    query(us, vs)
        sets = RaggedSets.from_arrays([np.asarray([1]), np.asarray([bad])])
        for query in (lambda: oracle.dist_to_set([0, bad]),
                      lambda: oracle.dist_to_sets(sets)):
            with pytest.raises(IndexError):
                query()
    assert oracle.pairs([], []).tolist() == []


def components(n, edges, skip=None):
    """Connected components of the graph less the vertex ``skip``."""
    label = list(range(n))

    def find(x):
        while label[x] != x:
            x = label[x]
        return x
    for x, y in edges:
        if skip not in (x, y):
            label[find(x)] = find(y)
    return len({find(x) for x in range(n) if x != skip})


def edge_blocks(g):
    """The blocks as a partition of the edge indices: two edges at a vertex
    w lie in one block iff their other ends meet in the graph less w."""
    label = list(range(len(g.edges)))

    def find(x):
        while label[x] != x:
            x = label[x]
        return x
    for i, j in itertools.combinations(range(len(g.edges)), 2):
        common = set(g.edges[i]) & set(g.edges[j])
        if common:
            w = common.pop()
            x, y = set(g.edges[i]) - {w}, set(g.edges[j]) - {w}
            # connected in g - w: one component holds both x and y
            if components(g.n, g.edges + ((x.pop(), y.pop()),),
                          skip=w) == components(g.n, g.edges, skip=w):
                label[find(i)] = find(j)
    return {frozenset(e for e in range(len(g.edges)) if find(e) == r)
            for r in set(map(find, range(len(g.edges))))}


@given(st.one_of(glued_blocks().map(lambda case: case[0]),
                 connected_graphs(max_n=12)))
@settings(max_examples=60, deadline=None)
def test_block_cut_tree_matches_brute_force(g):
    """The cut vertices are the vertices whose removal splits the graph;
    each edge lies in exactly one block, and the blocks partition the
    edges as the brute-force relation does."""
    blk, top = graph_core.block_cut_tree(g)
    root = len(top) - 1
    assert blk[0] == root and top[root] == 0
    assert (blk[top[:root]] > np.arange(root)).all()
    hangs = top[:root].tolist()
    cut = {t for t in hangs if t != 0 or hangs.count(0) > 1}
    assert cut == {v for v in range(g.n) if components(g.n, g.edges, v) > 1}
    members = [{top[b]} | set(np.flatnonzero(blk == b)) for b in range(root)]
    owner = [[b for b in range(root) if {x, y} <= members[b]]
             for x, y in g.edges]
    assert all(len(bs) == 1 for bs in owner)
    assert {frozenset(e for e in range(len(owner)) if owner[e] == [b])
            for b in range(root)} == edge_blocks(g)


def test_only_graph_core_reaches_oracle_internals():
    """Every other module asks the oracle through its public queries."""
    internal = re.compile(r"\.(matrix\(|_matrix\b|_rows\b|_parents\b|_blocks\b"
                          r"|_use_matrix\b)")
    src = pathlib.Path(graph_core.__file__).parent
    offenders = [f"{path.name}:{i}"
                 for path in sorted(src.glob("*.py"))
                 if path.name != "graph_core.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if internal.search(line)]
    assert offenders == []


# ---------------------------------------------------------------------------
# hyperbolicity

def test_four_cycle_delta_exhaustive():
    report = four_point_delta(cycle_graph(4))
    assert report.delta == delta_oracle(cycle_graph(4).edges, 4) == 1.0
    assert report.exhaustive
    rows = [bfs_oracle(cycle_graph(4).edges, 4, v) for v in range(4)]
    assert four_point_gap(rows, report.witness) == report.delta


@given(trees())
@settings(max_examples=30, deadline=None)
def test_tree_delta_zero_exact(tree):
    report = four_point_delta(tree)
    assert report.delta == 0.0
    assert report.exhaustive


def test_delta_matches_oracle_on_grid():
    g = grid_graph(4, 4)
    report = four_point_delta(g)
    assert report.delta == delta_oracle(g.edges, g.n)
    rows = [bfs_oracle(g.edges, g.n, v) for v in range(g.n)]
    assert four_point_gap(rows, report.witness) == report.delta


def test_sampled_delta_is_lower_bound_and_deterministic():
    g = grid_graph(5, 5)
    exact = four_point_delta(g).delta
    s1 = four_point_delta(g, budget=400, seed=11)
    s2 = four_point_delta(g, budget=400, seed=11)
    assert s1.delta <= exact
    assert not s1.exhaustive
    assert s1.delta == s2.delta and s1.witness == s2.witness


def test_delta_monotone_in_quadruple_set():
    # the estimate over a growing quadruple set never decreases
    g = grid_graph(4, 4)
    rng = __import__("numpy").random.default_rng(2)
    quads = [tuple(int(x) for x in rng.choice(g.n, size=4, replace=False))
             for _ in range(40)]
    rows = [bfs_oracle(g.edges, g.n, v) for v in range(g.n)]
    best = 0.0
    seen = []
    for q in quads:
        seen.append(q)
        val = max(four_point_gap(rows, t) for t in seen)
        assert val >= best
        best = val


# ---------------------------------------------------------------------------
# projections

def projection(g, h, x):
    """The tie-complete projection of x onto the set h, as
    ``RaggedBlocks.projection`` gives it for the set {x}."""
    sets = RaggedSets.from_arrays([np.asarray(h, dtype=np.int64),
                                   np.asarray([x], dtype=np.int64)])
    blocks = RaggedBlocks(g.oracle(), sets, np.asarray([0]), sets,
                          np.asarray([1]))
    return blocks.projection()[0].tolist()


def test_projection_of_member_is_itself():
    assert projection(path_graph(7), [2, 3, 4], 3) == [3]


def test_projection_full_tie_set():
    # vertex 0 is adjacent to both 1 and 3
    assert projection(cycle_graph(4), [1, 2, 3], 0) == [1, 3]


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_projection_properties(g):
    verts = list(range(0, g.n, 2))
    sub = sorted(set(verts))
    for x in range(g.n):
        proj = projection(g, sub, x)
        assert proj
        assert set(proj) <= set(sub)
        row = bfs_oracle(g.edges, g.n, x)
        dists = {row[p] for p in proj}
        assert len(dists) == 1
        assert min(row[s] for s in sub) == dists.pop()


# ---------------------------------------------------------------------------
# quasiconvexity and Hausdorff distance

def test_subtree_is_convex():
    g = path_graph(9)
    rep = quasiconvexity_constant(g, Subgraph(g, [3, 4, 5]))
    assert rep.q == 0


def test_connected_hull_keeps_connected_sets_and_bridges_split_ones():
    g = MetricGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    kept = connected_hull(g, [3, 0, 2, 1, 0], label="K")
    assert kept.vertices == (0, 1, 2, 3) and kept.flags == ()
    assert kept.label == "K" and kept.induced_graph().n == 4
    bridged = connected_hull(g, [0, 4])
    assert bridged.vertices == (0, 1, 2, 3, 4)
    assert bridged.flags == ("hull-completed",)


def test_half_cycle_all_geodesics():
    # the antipodal pair (0,4) has a second geodesic around the far side,
    # so the all-geodesics constant is 2, matching the enumeration oracle
    g = cycle_graph(8)
    h = [0, 1, 2, 3, 4]
    rows = [bfs_oracle(g.edges, g.n, v) for v in range(g.n)]
    to_h = [min(rows[v][x] for x in h) for v in range(g.n)]
    expect = 0
    for u, v in itertools.combinations(h, 2):
        for z in range(g.n):
            if rows[u][z] + rows[z][v] == rows[u][v]:
                expect = max(expect, to_h[z])
    rep = quasiconvexity_constant(g, Subgraph(g, h))
    assert rep.q == expect == 2


def test_grid_boundary_row_matches_enumeration_oracle():
    g = grid_graph(5, 5)
    row = [i for i in range(5)]  # top row
    rows = [bfs_oracle(g.edges, g.n, v) for v in range(g.n)]
    to_h = [min(rows[v][h] for h in row) for v in range(g.n)]
    expect = 0
    for u, v in itertools.combinations(row, 2):
        d = rows[u][v]
        for z in range(g.n):
            if rows[u][z] + rows[z][v] == d:
                expect = max(expect, to_h[z])
    rep = quasiconvexity_constant(g, Subgraph(g, row))
    assert rep.q == expect
    # witness vertex actually realizes q on some geodesic
    u, v = rep.witness_pair
    z = rep.witness_vertex
    assert rows[u][z] + rows[z][v] == rows[u][v]
    assert to_h[z] == rep.q


QC_CASES = strategy_cases(connected_graphs(min_n=10, max_n=30),
                          trees(max_n=30).filter(lambda t: t.n >= 10))


def qc_loop(g, h, budget, seed):
    """(q, witness pair, witness vertex) of a per-pair, per-vertex scan of
    the sampled pairs of the sorted set h, over BFS rows."""
    rows = [bfs_oracle(g.edges, g.n, v) for v in range(g.n)]
    to_h = [min(rows[v][x] for x in h) for v in range(g.n)]
    expect = (0, None, None)
    us, vs, _ = sample_unordered_pairs(len(h), budget, seed)
    for u, v in zip((h[i] for i in us), (h[j] for j in vs)):
        for z in range(g.n):
            if (rows[u][z] + rows[z][v] == rows[u][v]
                    and (expect[1] is None or to_h[z] > expect[0])):
                expect = (to_h[z], (u, v), z)
    return expect


@pytest.mark.parametrize("strategy", sorted(QC_CASES))
@given(st.data())
@settings(max_examples=15, deadline=None)
def test_quasiconvexity_matches_per_pair_scan(strategy, data):
    """The chunked scan gives the q and witnesses of a per-pair scan, for
    one set on its own and for several sets of a block: several graphs of
    one vertex count on a stack, or one graph over the cap, its pairs
    swept WORD ends at a time."""
    matrix_cap, graphs = QC_CASES[strategy]
    g = data.draw(graphs)
    assert_strategy(strategy, g, matrix_cap)
    h = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=9)))
    budget = data.draw(st.sampled_from([None, 40]))
    # the stack holds g and g closed into a cycle
    block_graphs = [MetricGraph(g.n, g.edges)]
    if strategy == "matrix":
        block_graphs.append(MetricGraph(g.n, set(g.edges) | {(0, g.n - 1)}))
    sets = [h] + data.draw(st.lists(st.sets(
        st.integers(0, g.n - 1), min_size=1).map(sorted), max_size=3))
    slots = data.draw(st.lists(st.integers(0, len(block_graphs) - 1),
                               min_size=len(sets), max_size=len(sets)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_core, "MATRIX_CAP", matrix_cap)
        mp.setattr(graph_core, "BLOCK_CHUNK", data.draw(
            st.sampled_from([1, graph_core.BLOCK_CHUNK])))
        rep = quasiconvexity_constant(MetricGraph(g.n, g.edges), h,
                                      pair_budget=budget, seed=3)
        block = graph_core.GraphBlock(block_graphs)
        assert (block.stack is None) == (strategy != "matrix")
        reps = block.quasiconvexity(np.asarray(slots),
                                    RaggedSets.from_arrays(sets), budget, 3)
    assert (rep.q, rep.witness_pair, rep.witness_vertex) == qc_loop(
        g, h, budget, 3)
    assert [(r.q, r.witness_pair, r.witness_vertex) for r in reps] == [
        qc_loop(block_graphs[s], x, budget, 3) for s, x in zip(slots, sets)]


def test_quasiconvexity_raises_on_a_disconnected_graph():
    g = MetricGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        quasiconvexity_constant(g, [0, 1])


def test_hausdorff_basics():
    g = path_graph(6)
    assert hausdorff_distance(g, [1, 2], [1, 2]) == 0
    assert hausdorff_distance(g, [0], [1]) == 1
    assert hausdorff_distance(g, [0, 1], [3]) == 3


def test_hausdorff_grid_rows_gap_two():
    g = grid_graph(5, 5)
    row0 = [i for i in range(5)]
    row2 = [10 + i for i in range(5)]
    rows = [bfs_oracle(g.edges, g.n, v) for v in range(g.n)]
    expect = max(max(min(rows[a][b] for b in row2) for a in row0),
                 max(min(rows[a][b] for a in row0) for b in row2))
    assert hausdorff_distance(g, row0, row2) == expect == 2


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_hausdorff_symmetric_zero_iff_equal(g):
    a = list(range(0, g.n, 2))
    b = list(range(1, g.n, 2))
    if not a or not b:
        return
    assert hausdorff_distance(g, a, b) == hausdorff_distance(g, b, a)
    assert hausdorff_distance(g, a, a) == 0
    if set(a) != set(b):
        assert hausdorff_distance(g, a, b) > 0


# ---------------------------------------------------------------------------
# ragged distance blocks

@pytest.mark.parametrize("chunk", [None, 3])
@given(connected_graphs())
@settings(max_examples=30, deadline=None)
def test_ragged_blocks_match_per_set_queries(chunk, g):
    sets = [list(range(s, g.n, k)) for k in (1, 2, 3) for s in range(k)
            if s < g.n]
    ragged = RaggedSets.from_arrays([np.asarray(x) for x in sets])
    a_idx, b_idx = (np.asarray(x) for x in zip(
        *itertools.product(range(len(sets)), repeat=2)))
    rows = [bfs_oracle(g.edges, g.n, v) for v in range(g.n)]
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            # chunk boundaries then split the pairs into many chunks
            mp.setattr(graph_core, "RAGGED_CHUNK", chunk)
        haus = ragged_hausdorff(g.oracle(), ragged, a_idx, ragged, b_idx)
        diams = ragged_diameters(g.oracle(), ragged)
    for k, (a, b) in enumerate(zip(a_idx, b_idx)):
        assert haus[k] == hausdorff_distance(g, sets[a], sets[b])
    for x, d in zip(sets, diams):
        assert d == max(rows[u][v] for u in x for v in x)
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(graph_core, "RAGGED_CHUNK", chunk)
        gaps = ragged_set_distances(g.oracle(), ragged, a_idx, ragged, b_idx)
    assert gaps.tolist() == [min(rows[u][v] for u in sets[a] for v in sets[b])
                             for a, b in zip(a_idx, b_idx)]
    proj = RaggedBlocks(g.oracle(), ragged, a_idx, ragged, b_idx).projection()
    for k, (a, b) in enumerate(zip(a_idx, b_idx)):
        expect = set()
        for x in sets[b]:
            near = min(rows[x][v] for v in sets[a])
            expect |= {v for v in sets[a] if rows[x][v] == near}
        assert list(proj[k]) == sorted(expect)


@given(st.integers(1, 30), st.data())
@settings(max_examples=60, deadline=None)
def test_ragged_take_and_union(m, data):
    """take copies sets in the asked order; union sorts and deduplicates."""
    sets = data.draw(st.lists(st.lists(st.integers(0, m - 1), max_size=6),
                              min_size=1, max_size=8))
    ragged = RaggedSets.from_arrays([np.asarray(x, dtype=np.int64)
                                     for x in sets])
    idx = data.draw(st.lists(st.integers(0, len(sets) - 1), max_size=12))
    taken = ragged.take(np.asarray(idx, dtype=np.int64))
    assert [taken[i].tolist() for i in range(len(idx))] == [sets[i] for i in idx]
    merged = RaggedSets.union(ragged.owners(), ragged.flat, len(sets) + 1)
    assert [merged[i].tolist() for i in range(len(sets) + 1)] == \
        [sorted(set(x)) for x in sets] + [[]]


# ---------------------------------------------------------------------------
# export

def test_edge_list_round_trip():
    g = grid_graph(3, 4)
    header, *lines = write_edge_list(g).splitlines()
    assert header == f"# vertices {g.n}"
    again = MetricGraph(g.n, [tuple(map(int, line.split())) for line in lines])
    assert again.edges == g.edges


def test_dot_export_styles_requested_edges():
    g = cycle_graph(4)
    text = to_dot(g, styled_edges=[(0, 1)])
    assert "0 -- 1 [" in text and "dashed" in text
    assert "1 -- 2;" in text
