"""Graph-of-groups moves, combination hypotheses, pipeline."""

import numpy as np
import pytest

from hhskit import embedding, graph_core
from hhskit import gog as gog_mod
from hhskit import groups as G
from hhskit.cli import _jsonable, stable_json
from hhskit.embedding import build_augmented_structure
from hhskit.errors import BudgetExceeded, MalformedMove, MissingStructure
from hhskit.gog import (GraphOfGroups, MoveRecord, _absorbed_edge_instance,
                        apply_star_move, build_tree_of_spaces,
                        check_combination_hypotheses,
                        check_hyperbolic_obtainable, run_main_pipeline)
from hhskit.graph_core import MetricGraph, four_point_delta
from hhskit.groups import SubgroupSpec, enumerate_cosets
from hhskit.hhs_core import (CONTAINS, NESTED, HHSInstance,
                             instance_from_ball)


def amalgam():
    """F(a,b) *_(<a>=<c>) F(c,d) as a star move on a singleton."""
    gog = GraphOfGroups()
    gog.add_vertex("Q", G.free_group(["a", "b"]))
    move = MoveRecord(
        kind="star-vertex", new_vertex="G", new_group=G.free_group(["c", "d"]),
        connections=[{"target": "Q", "edge": "e", "group": G.free_group(["t"]),
                      "maps": {"G": {"t": "c"}, "Q": {"t": "a"}}}])
    return apply_star_move(gog, move)


def test_star_move_singleton_from_empty():
    gog = GraphOfGroups()
    move = MoveRecord(kind="star-vertex", new_vertex="v",
                      new_group=G.free_group(["a"]), connections=[])
    out = apply_star_move(gog, move)
    assert sorted(out.vertices) == ["v"] and not out.edges


def test_star_move_assembles_amalgam():
    gog = amalgam()
    assert sorted(gog.vertices) == ["G", "Q"]
    assert list(gog.edges) == ["e"]
    assert gog.edges["e"].evidence["quasiconvexity"]["q"] == 0
    # moves never mutate the original
    fresh = GraphOfGroups()
    fresh.add_vertex("Q", G.free_group(["a", "b"]))
    move = MoveRecord(kind="edge-join",
                      connections=[{"edge": "x", "ends": ("Q", "Q")}])
    with pytest.raises(MalformedMove):
        apply_star_move(fresh, MoveRecord(kind="bogus"))


def test_malformed_moves_rejected():
    gog = GraphOfGroups()
    gog.add_vertex("Q", G.free_group(["a", "b"]))
    with pytest.raises(MalformedMove):
        apply_star_move(gog, MoveRecord(
            kind="star-vertex", new_vertex="Z",
            new_group=G.free_abelian_group(["x", "y"]), connections=[]))


def test_edge_map_validation():
    gog = amalgam()
    report = gog.validate_edge_maps(radius=3)
    for v, entry in report["e"].items():
        assert entry["homomorphism"] and entry["injective_on_ball"]


def test_edge_map_validation_checks_free_product_commutators():
    """A free product's edge group has its factors' relations: a map that
    sends the commuting a, b of Z^2 * Z to non-commuting letters is no
    homomorphism, and one that sends them to commuting letters is."""
    gog = GraphOfGroups()
    gog.add_vertex("F", G.free_group(["x", "y", "z"]))
    gog.add_vertex("R", G.raag_group(["x", "y", "z"], [("x", "y")]))
    edge = G.free_product(G.free_abelian_group(["a", "b"]),
                          G.free_group(["c"]))
    gog.add_edge("e", ("F", "R"), edge,
                 {v: {"a": "x", "b": "y", "c": "z"} for v in ("F", "R")})
    report = gog.validate_edge_maps(radius=2)["e"]
    assert report["F"]["homomorphism"] is False
    assert report["R"]["homomorphism"] is True


def test_obtainable_needs_instances():
    gog = amalgam()
    with pytest.raises(MissingStructure):
        check_hyperbolic_obtainable(gog, ["Q"])


def test_pipeline_amalgam_all_pass():
    gog, report = run_main_pipeline(amalgam(), base_vertices=["Q"],
                                    radius=4, seed=5)
    assert report["refused"] is None
    assert report["combination"].passed
    assert all(report["structural"].values())
    # index counts: 1 + number of <c>-cosets on the new side, and the
    # absorbed base has 1 + number of <a>-cosets
    ballG = gog.vertices["G"].instance.meta["ball"]
    subC = SubgroupSpec(G.free_group(["c", "d"]), ["c"], label="C")
    # the closure family has one member per coset
    assert report["step1"]["G"]["indices"] == 1 + len(
        enumerate_cosets(ballG, gog.edge_subgroup(gog.edges["e"], "G")))
    assert report["step2"]["Q"]["indices"] == gog.vertices["Q"].instance.n_indices()


def test_pipeline_judges_each_base_vertex_embedding_once(monkeypatch):
    """The absorption step reuses the obtainability verdict of its base
    vertex: one hyperbolic-embedding check per base vertex, and the same
    report as when the absorption judges the embedding again."""
    calls = []
    check = embedding.check_hyperbolically_embedded
    monkeypatch.setattr(embedding, "check_hyperbolically_embedded",
                        lambda *a, **k: calls.append(a) or check(*a, **k))
    _, once = run_main_pipeline(amalgam(), base_vertices=["Q"], radius=4,
                                seed=5)
    assert len(calls) == 1
    build = gog_mod.build_augmented_structure
    monkeypatch.setattr(
        gog_mod, "build_augmented_structure",
        lambda base, subs, embed_report=None, **k: build(base, subs, **k))
    _, twice = run_main_pipeline(amalgam(), base_vertices=["Q"], radius=4,
                                 seed=5)
    assert len(calls) == 3
    assert (stable_json(_jsonable(once["obtainable"]))
            == stable_json(_jsonable(twice["obtainable"])))
    for key in ("step1", "step2", "structural"):
        assert once[key] == twice[key]
    assert once["combination"].to_dict() == twice["combination"].to_dict()


def test_pipeline_deterministic():
    _, r1 = run_main_pipeline(amalgam(), base_vertices=["Q"], radius=4, seed=5)
    _, r2 = run_main_pipeline(amalgam(), base_vertices=["Q"], radius=4, seed=5)
    assert r1["combination"].to_dict() == r2["combination"].to_dict()
    assert r1["step1"] == r2["step1"]


def test_pipeline_edge_join_two_singletons():
    gog = GraphOfGroups()
    gog.add_vertex("Q1", G.free_group(["a", "b"]))
    gog.add_vertex("Q2", G.free_group(["c", "d"]))
    join = MoveRecord(kind="edge-join", connections=[
        {"edge": "e", "ends": ("Q1", "Q2"), "group": G.free_group(["t"]),
         "maps": {"Q1": {"t": "a"}, "Q2": {"t": "c"}}}])
    g2 = apply_star_move(gog, join)
    g3, rep = run_main_pipeline(g2, base_vertices=["Q1", "Q2"], radius=4,
                                seed=5)
    assert rep["refused"] is None and rep["combination"].passed
    assert rep["step2"]["Q1"]["absorbed"] == 1
    assert rep["step2"]["Q2"]["absorbed"] == 1


def test_absorbed_edge_image_outside_vertex_ball_is_over_budget():
    """An edge ball reaching past the vertex ball is refused by name."""
    gog = amalgam()
    edge = gog.edges["e"]
    sub = gog.edge_subgroup(edge, "Q")
    base = instance_from_ball(G.cayley_ball(gog.vertices["Q"].group, 3))
    line = instance_from_ball(G.cayley_ball(edge.group, 5))
    aug = build_augmented_structure(base, [(sub, line)], force=True)
    with pytest.raises(BudgetExceeded, match="edge image leaves"):
        _absorbed_edge_instance(edge, "Q", sub, line, aug)


def test_pipeline_refuses_z2_base():
    gog = GraphOfGroups()
    gog.add_vertex("Z", G.free_abelian_group(["a", "b"]))
    move = MoveRecord(
        kind="star-vertex", new_vertex="G", new_group=G.free_group(["c", "d"]),
        connections=[{"target": "Z", "edge": "e", "group": G.free_group(["t"]),
                      "maps": {"G": {"t": "c"}, "Z": {"t": "a"}}}])
    g2 = apply_star_move(gog, move)
    g3, rep = run_main_pipeline(g2, base_vertices=["Z"], radius=4, seed=5)
    assert rep["refused"] is not None
    verdict = rep["obtainable"]["per_vertex"]["Z"]
    witness = verdict["parts"]["hyperbolically_embedded"]["separation"]["witness"]
    assert witness is not None and witness["g"] == "b"


def test_sphere_edge_image_fails_hqc():
    gog, rep = run_main_pipeline(amalgam(), base_vertices=["Q"], radius=4,
                                 seed=5)
    assert rep["combination"].passed
    inst_e = gog.edges["e"].instance["Q"]
    ball = gog.vertices["Q"].instance.meta["ball"]
    row0 = ball.graph.oracle().row(0)
    sphere = np.flatnonzero(row0 == ball.radius)
    need = len(inst_e.meta["embed"])
    stride = max(1, len(sphere) // need)
    forced = sphere[::stride][:need].astype(np.int64)   # spread across branches
    inst_e.meta["embed"] = forced
    broken = check_combination_hypotheses(gog, seed=5)
    assert not broken.hqc["passed"]
    bad = [k for k, v in broken.hqc["per_edge"].items() if not v["passed"]]
    assert bad == ["e@Q"]
    assert not broken.passed


@pytest.mark.parametrize("cap", [None, 64])
def test_nesting_surjectivity_measures_large_spaces(monkeypatch, cap):
    """An index nested in an edge image's target but outside the image is
    exempt when its space has diameter at most 2, however many vertices it
    has: here a 70-vertex star.  A space over MATRIX_CAP is not scanned and
    stays unbounded, flagged as assumed."""
    if cap is not None:
        monkeypatch.setattr(graph_core, "MATRIX_CAP", cap)
    gog, _ = run_main_pipeline(amalgam(), base_vertices=["Q"], radius=4,
                               seed=5)
    vi = gog.vertices["G"].instance
    t = vi.index_of_label(gog.edges["e"].instance["G"].meta["index_map"][
        "e@G-coset[e]"])
    b = next(u for u in range(vi.n_indices()) if u not in (t, vi.maximal))
    rel, spaces = vi.rel.copy(), list(vi.spaces)
    rel[b, t], rel[t, b] = NESTED, CONTAINS
    spaces[b] = MetricGraph(70, [(0, v) for v in range(1, 70)])
    gog.vertices["G"].instance = HHSInstance(
        vi.X, vi.labels, spaces, rel, vi.maximal, vi.projections,
        vi._rho_provider, vi.space_to_x, vi.meta)
    entry = check_combination_hypotheses(gog, seed=5).fullness["per_edge"][
        "e@G"]
    if cap is None:
        assert entry["bounded_exemptions"] == 1 and entry["passed"]
        assert entry["unmatched_unbounded"] == []
    else:
        assert entry["bounded_exemptions"] == 0 and not entry["passed"]
        assert entry["unmatched_unbounded"] == [
            {"target": "e@G-coset[e]", "unmatched": vi.labels[b],
             "diam": None, "assumed_unbounded": True}]


def test_obtainability_rejects_duplicate_subgroup_family():
    # two new edges gluing along the same <a>: the family {<a>, <a>} is not
    # hyperbolically embedded (coset intersections are unbounded), so the
    # pipeline already refuses at the obtainability step
    gog = GraphOfGroups()
    gog.add_vertex("Q", G.free_group(["a", "b"]))
    move = MoveRecord(
        kind="star-vertex", new_vertex="G", new_group=G.free_group(["c", "d"]),
        connections=[
            {"target": "Q", "edge": "e1", "group": G.free_group(["t"]),
             "maps": {"G": {"t": "c"}, "Q": {"t": "a"}}},
            {"target": "Q", "edge": "e2", "group": G.free_group(["s"]),
             "maps": {"G": {"s": "d"}, "Q": {"s": "a"}}}])
    g2 = apply_star_move(gog, move)
    g3, rep = run_main_pipeline(g2, base_vertices=["Q"], radius=3, seed=5)
    assert rep["refused"] is not None


def test_bounded_supports_detector_on_shared_orbits():
    # force-absorb the same subgroup twice and point two edges at it: the
    # orbit sets coincide as vertex sets, which the detector must flag
    from hhskit.embedding import build_augmented_structure
    from hhskit.gog import check_bounded_supports
    from hhskit.hhs_core import instance_from_ball

    F2 = G.free_group(["a", "b"])
    base = instance_from_ball(G.cayley_ball(F2, 3))
    line = instance_from_ball(G.cayley_ball(G.free_group(["a"]), 3))
    sub1 = SubgroupSpec(F2, ["a"], label="e1@Q")
    sub2 = SubgroupSpec(F2, ["a"], label="e2@Q")
    aug = build_augmented_structure(base, [(sub1, line), (sub2, line)],
                                    seed=1, force=True)
    gog = GraphOfGroups()
    gog.add_vertex("Q", F2, instance=aug.result)
    gog.add_vertex("G", G.free_group(["c", "d"]),
                   instance=instance_from_ball(
                       G.cayley_ball(G.free_group(["c", "d"]), 2)))
    tgroup = G.free_group(["t"])
    gog.add_edge("e1", ("Q", "G"), tgroup,
                 {"Q": {"t": "a"}, "G": {"t": "c"}}, provenance="new")
    gog.add_edge("e2", ("Q", "G"), tgroup,
                 {"Q": {"t": "a"}, "G": {"t": "d"}}, provenance="new")
    supports = check_bounded_supports(gog)
    assert not supports["passed"]
    conflicts = supports["per_vertex"]["Q"]["conflicts"]
    assert conflicts and conflicts[0]["edges"] == ("e1", "e2")


def test_bounded_supports_disjoint_subgroups_pass():
    gog = GraphOfGroups()
    gog.add_vertex("Q", G.free_group(["a", "b"]))
    move = MoveRecord(
        kind="star-vertex", new_vertex="G", new_group=G.free_group(["c", "d"]),
        connections=[
            {"target": "Q", "edge": "e1", "group": G.free_group(["t"]),
             "maps": {"G": {"t": "c"}, "Q": {"t": "a"}}},
            {"target": "Q", "edge": "e2", "group": G.free_group(["s"]),
             "maps": {"G": {"s": "d"}, "Q": {"s": "b"}}}])
    g2 = apply_star_move(gog, move)
    g3, rep = run_main_pipeline(g2, base_vertices=["Q"], radius=3, seed=5)
    assert rep["refused"] is None
    assert rep["combination"].bounded_supports["passed"]


def test_tree_of_spaces_counts_and_delta():
    gog = amalgam()
    t0 = build_tree_of_spaces(gog, "Q", 0, radius=3)
    ballQ = G.cayley_ball(G.free_group(["a", "b"]), 3)
    assert t0.n == ballQ.graph.n
    t1 = build_tree_of_spaces(gog, "Q", 1, radius=3)
    # counting oracle: each <a>-coset glues a copy of ball(F(c,d),3) along
    # the matched axis stretch
    FG = G.free_group(["c", "d"])
    ballG = G.cayley_ball(FG, 3)
    subA = gog.edge_subgroup(gog.edges["e"], "Q")
    expected = ballQ.graph.n
    edge_ball = G.cayley_ball(G.free_group(["t"]), 3)
    for c in enumerate_cosets(ballQ, subA):
        overlap = 0
        for w in edge_ball.words:
            img_q = ballQ.model.multiply(
                c.representative, gog.edges["e"].map_word("Q", ballQ.model, w))
            img_g = gog.edges["e"].map_word("G", FG, w)
            if img_q in ballQ.index and img_g in ballG.index:
                overlap += 1
        expected += ballG.graph.n - overlap
    assert t1.n == expected
    assert t1.is_connected
    d1 = four_point_delta(t1, budget=30_000, seed=1).delta
    t2 = build_tree_of_spaces(gog, "Q", 2, radius=2)
    d2 = four_point_delta(t2, budget=30_000, seed=1).delta
    assert d1 == 0.0 and d2 == 0.0   # trees glued along trees stay trees
