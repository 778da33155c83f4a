"""Cone-off construction, de-electrification, stability reports."""

import itertools

import numpy as np
import pytest

from hhskit import graph_core
from hhskit import groups as G
from hhskit.coneoff import (_path_taus, build_coneoff, coneoff_report,
                            de_electrify, kapovich_rafi_report,
                            measure_quasigeodesic)
from hhskit.graph_core import (MetricGraph, RaggedSets, Subgraph,
                               ragged_diameters)
from hhskit.groups import SubgroupSpec, coset_subgraph, enumerate_cosets
from hhskit.sampling import rng_for
from test_graph_core import bfs_parents

F2 = G.free_group(["a", "b"])


def path_graph(n):
    return MetricGraph(n, [(i, i + 1) for i in range(n - 1)])


def coset_family(ball, labels):
    fam = []
    for lab in labels:
        sub = SubgroupSpec(ball.model, [lab], label=lab.upper())
        fam.extend(coset_subgraph(ball, c) for c in enumerate_cosets(ball, sub))
    return fam


def test_empty_family_is_identity():
    g = path_graph(5)
    cg = build_coneoff(g, [])
    assert cg.coned.edges == g.edges
    kr = kapovich_rafi_report(cg)
    assert kr["hausdorff_H"] == 0


def test_fully_coned_path_has_diameter_one():
    g = path_graph(5)
    cg = build_coneoff(g, [Subgraph(g, range(5))])
    n = cg.coned.n
    whole = RaggedSets(np.arange(n), [0, n])
    assert ragged_diameters(cg.coned.oracle(), whole).tolist() == [1]
    # parallel base edges are dropped, the rest of the clique is added
    assert cg.dropped_parallel == 4
    assert len(cg.cone_edge_owner) == 10 - 4
    kr = kapovich_rafi_report(cg)
    assert kr["hausdorff_H"] <= 2


def test_coned_distance_matches_bfs_oracle():
    # within one member every pair is at distance <= 1; a,b-coset coning
    # puts a3b2 two steps from the origin (via a3), computed by the oracle
    ball = G.cayley_ball(F2, 5)
    e = ball.id_of(())
    x = ball.id_of_text("a a a b b")
    cg_a = build_coneoff(ball.graph, coset_family(ball, ["a"]))
    cg_ab = build_coneoff(ball.graph, coset_family(ball, ["a", "b"]))
    assert cg_a.coned.oracle().pairs([e], [x])[0] == 3
    assert cg_ab.coned.oracle().pairs([e], [x])[0] == 2
    a2, a3 = ball.id_of_text("a a"), ball.id_of_text("a a a")
    assert cg_a.coned.oracle().pairs([a2], [a3])[0] == 1


def test_distance_non_increasing():
    ball = G.cayley_ball(F2, 4)
    cg = build_coneoff(ball.graph, coset_family(ball, ["a", "b"]))
    base_m = ball.graph.oracle()
    coned_m = cg.coned.oracle()
    rng = np.random.default_rng(3)
    us = rng.integers(0, ball.graph.n, size=300)
    vs = rng.integers(0, ball.graph.n, size=300)
    assert (coned_m.pairs(us, vs) <= base_m.pairs(us, vs)).all()


def test_de_electrify_no_cone_edges_is_identity():
    ball = G.cayley_ball(F2, 4)
    cg = build_coneoff(ball.graph, coset_family(ball, ["a"]))
    p = ball.graph.oracle().geodesic(ball.id_of(()), ball.id_of_text("b b b"))
    rec = de_electrify(cg, p)
    assert rec.output_path.vertices == tuple(p)
    assert rec.pieces == ()


def test_de_electrify_axis_piece():
    ball = G.cayley_ball(F2, 4)
    cg = build_coneoff(ball.graph, coset_family(ball, ["a"]))
    e, a3 = ball.id_of(()), ball.id_of_text("a a a")
    rec = de_electrify(cg, [e, a3])
    labels = [ball.graph.label_of(v) for v in rec.output_path.vertices]
    assert labels == ["e", "a", "a a", "a a a"]
    assert len(rec.pieces) == 1


def test_de_electrify_length_identity():
    ball = G.cayley_ball(F2, 4)
    cg = build_coneoff(ball.graph, coset_family(ball, ["a"]))
    e = ball.id_of(())
    a2, a2b = ball.id_of_text("a a"), ball.id_of_text("a a b")
    path = [e, a2, a2b]   # cone edge then base edge
    rec = de_electrify(cg, path)
    cone_edges = len(rec.pieces)
    length = len(rec.output_path.vertices) - 1
    assert length == len(path) - 1 - cone_edges + sum(
        len(p) - 1 for _, p in rec.pieces)
    assert length == 3
    assert rec.output_path.vertices[0] == e
    assert rec.output_path.vertices[-1] == a2b


def taus_of_geodesic(cg, x, y):
    """Both path constants of the coned geodesic from x to y, measured as
    ``coneoff_report`` measures each sampled pair."""
    return _path_taus(cg, cg.coned.oracle().geodesic(x, y))


def test_tau_trivial_family_both_one():
    g = path_graph(6)
    cg = build_coneoff(g, [])
    taus = taus_of_geodesic(cg, 0, 5)
    assert taus["tau1"] == taus["tau2"] == 1.0


def test_tau_axis_geodesic():
    ball = G.cayley_ball(F2, 5)
    cg = build_coneoff(ball.graph, coset_family(ball, ["a"]))
    taus = taus_of_geodesic(cg, ball.id_of(()), ball.id_of_text("a a a a"))
    assert taus["tau2"] == 1.0


def test_tau_mixed_target_measured():
    ball = G.cayley_ball(F2, 6)
    cg = build_coneoff(ball.graph, coset_family(ball, ["a", "b"]))
    taus = taus_of_geodesic(cg, ball.id_of(()), ball.id_of_text("a a a b b b"))
    assert taus["tau1"] >= 1.0 and taus["tau2"] >= 1.0
    # the de-electrified path here is the plain geodesic (oracle value)
    assert taus["tau2"] == 1.0


def test_measure_quasigeodesic_detour():
    g = MetricGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    # walking the long way around the square: length 3 vs distance 1
    lam = measure_quasigeodesic([0, 1, 2, 3], g.oracle())
    assert lam == 1.5  # (3-0)/(d(0,3)+1) = 3/2


def test_kapovich_deterministic_and_stable_small_radii():
    reports = {}
    for r in (3, 4):
        ball = G.cayley_ball(F2, r)
        cg = build_coneoff(ball.graph, coset_family(ball, ["a", "b"]))
        kr1 = kapovich_rafi_report(cg, seed=5)
        kr2 = kapovich_rafi_report(cg, seed=5)
        assert kr1["delta_coned"] == kr2["delta_coned"]
        assert kr1["hausdorff_H"] == kr2["hausdorff_H"]
        assert kr1["witness"] == kr2["witness"]
        reports[r] = (kr1["delta_coned"], kr1["hausdorff_H"])
    assert reports[3] == reports[4]


def test_apex_mode_flags_and_bounded_error():
    g = path_graph(7)
    member = Subgraph(g, range(7))
    clique = build_coneoff(g, [member])
    apex = build_coneoff(g, [member], clique_threshold=3)
    assert "apex-approximation" in apex.flags
    assert apex.coned.n == g.n + 1
    dc = clique.coned.oracle()
    da = apex.coned.oracle()
    for u in range(g.n):
        for v in range(g.n):
            assert 0 <= da.pairs([u], [v])[0] - dc.pairs([u], [v])[0] <= 1


def test_full_report_shape():
    ball = G.cayley_ball(F2, 3)
    cg = build_coneoff(ball.graph, coset_family(ball, ["a", "b"]))
    rep = coneoff_report(cg, radius=3, seed=1, tau_pair_budget=40)
    for key in ("radius", "family_size", "delta_base", "delta_coned",
                "hausdorff_H", "tau1", "tau2", "flags", "seed"):
        assert key in rep
    assert rep["family_size"] == len(cg.family)
    assert rep["tau1"] >= 1.0 and rep["tau2"] >= 1.0


# ---------------------------------------------------------------------------
# the drift scan against a per-pair loop

def drift_loop(cg, pairs):
    """Reference: (H, witness), walking both parent paths of each pair by
    hand and asking the coned distances of the two paths as one block."""
    co = cg.coned.oracle()
    parents = {}
    best, witness = 0, None
    for u, v in pairs:
        paths = []
        for graph in (cg.base, cg.coned):
            if (graph, u) not in parents:
                parents[graph, u] = bfs_parents(graph, u)[1]
            parent = parents[graph, u]
            path = [v]
            while path[-1] != u:
                path.append(int(parent[path[-1]]))
            paths.append(path)
        d = co.block(*paths)
        h = int(max(d.min(axis=1).max(), d.min(axis=0).max()))
        if h > best:
            best, witness = h, (u, v)
    return best, witness


def sampled_pairs(n, pair_budget, seed):
    """The pairs a sampled scan draws, sorted, repeats kept."""
    rng = rng_for(seed)
    us = rng.integers(0, n, size=2 * pair_budget)
    vs = rng.integers(0, n, size=2 * pair_budget)
    keep = us < vs
    return sorted(zip(us[keep][:pair_budget].tolist(),
                      vs[keep][:pair_budget].tolist()))


Z2 = G.free_abelian_group(["a", "b"])


def drift_fixture(name):
    """A cone-off of a tree or of a Z^2 ball, clique-coned or apex-coned.

    On "theta" (a 10-cycle with a chord 0-3 and the path 3-4-5 coned) the
    maximum comes from a coned-path vertex far from the base path, so
    both sides of the Hausdorff distance count."""
    if name == "theta":
        g = MetricGraph(10, [(0, 1), (0, 3), (0, 8), (1, 2), (2, 3), (3, 4),
                             (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)])
        return build_coneoff(g, [Subgraph(g, [3, 4, 5])])
    model, r, labels = {"F2": (F2, 3, ["a", "b"]), "Z2": (Z2, 4, ["a"]),
                        "Z2ab": (Z2, 3, ["a", "b"])}[name.split("-")[0]]
    ball = G.cayley_ball(model, r)
    threshold = 4 if name.endswith("-apex") else 600
    return build_coneoff(ball.graph, coset_family(ball, labels),
                         clique_threshold=threshold)


# MATRIX_CAP forcing each distance strategy, and the chunk constant that a
# chunked case shrinks: the matrix everywhere with its ragged blocks split;
# with no matrix, "lca" splits the block-cut tree's lifting passes (its
# lowest common blocks) on the tree bases (the other fixtures sweep in
# whole chunks) and "rows" splits the BFS sweeps
STRATEGIES = {"matrix": (4096, "RAGGED_CHUNK"), "lca": (0, "PAIRS_CHUNK"),
              "rows": (0, "RAGGED_CHUNK")}


@pytest.mark.parametrize("strategy,chunk", [("matrix", None), ("matrix", 1),
                                            ("lca", 60), ("rows", 60)])
@pytest.mark.parametrize("name", ["F2", "F2-apex", "Z2", "Z2-apex", "Z2ab",
                                  "Z2ab-apex", "theta"])
def test_drift_scan_matches_per_pair_loop(monkeypatch, name, strategy, chunk):
    """Exhaustive and sampled scans (with repeated pairs) give the loop's H
    and witness; small chunks split a source's targets."""
    matrix_cap, chunk_name = STRATEGIES[strategy]
    monkeypatch.setattr(graph_core, "MATRIX_CAP", matrix_cap)
    if chunk is not None:
        monkeypatch.setattr(graph_core, chunk_name, chunk)
    cg = drift_fixture(name)
    assert ("apex-approximation" in cg.flags) == name.endswith("-apex")
    n = cg.base.n
    rep = kapovich_rafi_report(cg, delta_budget=100)
    assert rep["sample"].mode == "exhaustive"
    assert (rep["hausdorff_H"], rep["witness"]) == drift_loop(
        cg, itertools.combinations(range(n), 2))
    for seed in (0, 3):
        budget = n * (n - 1) // 4
        pairs = sampled_pairs(n, budget, seed)
        assert len(set(pairs)) < len(pairs)
        rep = kapovich_rafi_report(cg, pair_budget=budget, seed=seed,
                                   delta_budget=100)
        assert rep["sample"].mode == "sampled"
        assert rep["sample"].drawn == len(pairs)
        assert (rep["hausdorff_H"], rep["witness"]) == drift_loop(cg, pairs)
