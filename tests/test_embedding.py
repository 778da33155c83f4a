"""Relative metrics, embedded-subgroup verdicts, absorption."""

from functools import reduce

import numpy as np
import pytest

from hhskit import embedding
from hhskit import groups as G
from hhskit.errors import EmbeddingViolated, StructureMismatch
from hhskit.embedding import (build_augmented_structure,
                              check_hh_embedded,
                              check_hyperbolically_embedded,
                              decomposition_projection_check,
                              projection_uniform_bound, relative_metric,
                              subgroup_ball_vertices, verify_augmented)
from hhskit.factor_system import build_hhs_from_factor_system, family_from_cosets
from hhskit.groups import SubgroupSpec, subgroup_membership
from hhskit.hhs_core import check_structural, instance_from_ball, trivial_instance
from hhskit.graph_core import MetricGraph, bfs_distances

F2 = G.free_group(["a", "b"])
Z2 = G.free_abelian_group(["a", "b"])
SUB_A = SubgroupSpec(F2, ["a"], label="A")
SUB_B = SubgroupSpec(F2, ["b"], label="B")
LINE_MODEL = G.free_group(["a"])


def line_instance(r=5):
    return instance_from_ball(G.cayley_ball(LINE_MODEL, r), label="line")


@pytest.fixture(scope="module")
def aug5():
    base = instance_from_ball(G.cayley_ball(F2, 5))
    return build_augmented_structure(base, [(SUB_A, line_instance(5))], seed=3)


# ---------------------------------------------------------------------------
# relative metric

def test_relative_metric_identity_zero():
    ball = G.cayley_ball(F2, 3)
    t = relative_metric(ball, SUB_A)
    assert t.entry(0, 0) == 0


def test_relative_metric_free_axis_is_unreached():
    # the free group separates its factors: every coset clique hangs off a
    # single component of the punctured tree, so no detour exists at all
    ball = G.cayley_ball(F2, 4)
    t = relative_metric(ball, SUB_A)
    row = t.row_of_identity()
    assert row[0] == 0
    assert all(d is None for d in row[1:])


def test_relative_metric_z2_detour_is_three():
    # in Z^2 the detour 1 -> b -> (coset cone) -> b a^k -> a^k has length 3
    ball = G.cayley_ball(Z2, 4)
    t = relative_metric(ball, SubgroupSpec(Z2, ["a"], label="A"))
    row = {ball.model.format(w): d for w, d in zip(t.words, t.row_of_identity())}
    assert row["e"] == 0
    assert row["a"] == 3
    assert row["a a a"] == 3


def test_relative_metric_monotone_with_none_as_infinity():
    ball = G.cayley_ball(Z2, 4)
    t = relative_metric(ball, SubgroupSpec(Z2, ["a"], label="A"))
    by_power = {}
    for w, d in zip(t.words, t.row_of_identity()):
        k = sum(1 for x in w if x == 1) - sum(1 for x in w if x == -1)
        if k >= 0:
            by_power[k] = d
    vals = [by_power[k] for k in sorted(by_power)]
    as_inf = [v if v is not None else float("inf") for v in vals]
    assert as_inf == sorted(as_inf)

def test_relative_metric_dominates_coned_metric():
    ball = G.cayley_ball(Z2, 3)
    t = relative_metric(ball, SubgroupSpec(Z2, ["a"], label="A"))
    coned = t.coned_graph.coned.oracle()
    for (i, j), d in t.table.items():
        if d is not None:
            assert d >= coned.dist(t.elements[i], t.elements[j])


def ref_relative_table(t):
    """The table of ``relative_metric``, one BFS row per member."""
    members, inside = t.elements, set(t.elements)
    coned = t.coned_graph.coned
    punctured = MetricGraph(coned.n, [(u, v) for u, v in coned.edges
                                      if not (u in inside and v in inside)])
    table = {}
    for i, v in enumerate(members):
        dist = bfs_distances(punctured, [v])
        for j in range(i, len(members)):
            d = int(dist[members[j]])
            table[(i, j)] = d if d >= 0 else None
    return table


@pytest.mark.parametrize("model, radius", [(F2, 5), (Z2, 6)])
def test_relative_metric_matches_per_member_bfs(model, radius, monkeypatch):
    # with three members per sweep, sweep boundaries fall inside the list
    monkeypatch.setattr(embedding, "WORD", 3)
    ball = G.cayley_ball(model, radius)
    t = relative_metric(ball, SubgroupSpec(model, ["a"], label="A"))
    assert len(t.elements) > 3
    assert list(t.table.items()) == list(ref_relative_table(t).items())


# ---------------------------------------------------------------------------
# hyperbolically embedded verdicts

def test_free_axis_is_hyperbolically_embedded():
    w = check_hyperbolically_embedded(F2, [SUB_A], 6, seed=3)
    assert w.passed
    assert w.hyperbolicity["passed"]
    assert w.properness["per_subgroup"]["A"]["stable"]
    assert w.qi_embedding["per_subgroup"]["A"]["lambda"] == 1.0
    assert w.separation["passed"]


def test_central_axis_in_z2_fails_with_witness():
    sub = SubgroupSpec(Z2, ["a"], label="A")
    w = check_hyperbolically_embedded(Z2, [sub], 6, seed=3)
    assert not w.passed
    assert not w.separation["passed"]
    assert w.separation["witness"]["g"] == "b"
    assert not w.properness["per_subgroup"]["A"]["stable"]


def test_two_axes_pairwise_separation_finite():
    w = check_hyperbolically_embedded(F2, [SUB_A, SUB_B], 5, seed=3)
    assert w.passed
    assert all(v < 5 for v in w.separation["R"].values())


# ---------------------------------------------------------------------------
# hierarchical embedding

def test_hh_embedded_passes_on_trivial_base():
    base = instance_from_ball(G.cayley_ball(F2, 5))
    rep = check_hh_embedded(base, [SUB_A], seed=3)
    assert rep["passed"]
    assert rep["parts"]["generated_by_T"]["per_subgroup"]["A"]["generators_in_T"] == ["a"]


def test_hh_embedded_fails_when_T_misses_subgroup():
    base = instance_from_ball(G.cayley_ball(F2, 5))
    ab = SubgroupSpec(F2, ["a b"], label="AB")
    rep = check_hh_embedded(base, [ab], seed=3)
    assert not rep["parts"]["generated_by_T"]["passed"]
    assert "witness" in rep["parts"]["generated_by_T"]["per_subgroup"]["AB"]


def ref_generated_by_T(ball, sub, gens):
    """The ``generated_by_T`` part of ``check_hh_embedded``, by a walk from
    the identity along T's letters in H that stays inside H's ball
    vertices."""
    model = ball.model
    letters = [g for g in gens
               if subgroup_membership(model, sub, model.parse(g))]
    members = set(subgroup_ball_vertices(ball, sub))
    steps = [model.parse(token) for g in letters for token in (g, g + "'")]
    reach = {ball.id_of(())}
    stack = [ball.id_of(())]
    while stack:
        v = stack.pop()
        for word in steps:
            j = ball.index.get(reduce(model.step, word, ball.words[v]))
            if j is not None and j in members and j not in reach:
                reach.add(j)
                stack.append(j)
    missing = sorted(members - reach)
    entry = {"generators_in_T": letters, "covered": len(reach),
             "of": len(members)}
    if missing:
        entry["witness"] = ball.graph.label_of(missing[0])
    return {"passed": not missing, "per_subgroup": {sub.label: entry}}


@pytest.mark.parametrize("gens", [["a"], ["a b"], ["a", "b a b'"]])
def test_generated_by_T_matches_walk_inside_members(gens):
    base = instance_from_ball(G.cayley_ball(F2, 5))
    sub = SubgroupSpec(F2, gens, label="H")
    got = check_hh_embedded(base, [sub], seed=3, delta_budget=2000)
    expected = ref_generated_by_T(base.meta["ball"], sub,
                                  base.meta["cs_generating_set"])
    assert got["parts"]["generated_by_T"] == expected
    # only <a> is generated by its letters in T = {a, b}
    assert ("witness" in expected["per_subgroup"]["H"]) == (gens != ["a"])


def test_hh_embedded_vacuous_and_mismatch():
    base = instance_from_ball(G.cayley_ball(F2, 4))
    assert check_hh_embedded(base, [])["passed"]
    bare = trivial_instance(MetricGraph(3, [(0, 1), (1, 2)]))
    with pytest.raises(StructureMismatch):
        check_hh_embedded(bare, [SUB_A])


# ---------------------------------------------------------------------------
# projection bound

def test_projection_bound_vacuous_on_trivial_base():
    base = instance_from_ball(G.cayley_ball(F2, 4))
    rep = projection_uniform_bound(base, SUB_A)
    assert rep["vacuous"] and rep["C"] == 0


def test_projection_bound_on_factor_base():
    base = build_hhs_from_factor_system(
        family_from_cosets(G.cayley_ball(F2, 4), [SUB_B]))
    rep = projection_uniform_bound(base, SUB_A, seed=1)
    assert rep["C"] <= 1


# ---------------------------------------------------------------------------
# absorption

def test_augmented_index_count_and_relations(aug5):
    result = aug5.result
    assert result.n_indices() == 1 + result.meta["cosets"]
    S = result.maximal
    for u, prov in enumerate(aug5.provenance):
        if prov[0] == "coset" and u != S:
            assert result.rel[u, S] == 1      # nested in the top element
    # no orthogonality anywhere, cross-coset pairs transverse
    assert not (result.rel == 3).any()
    levels = aug5.coset_level_indices()
    assert (result.rel[np.ix_(levels, levels)][
        ~np.eye(len(levels), dtype=bool)] == 4).all()


def test_augmented_projection_factors_through_gate(aug5):
    # pi_(U,g)(x) must equal pi_(U,g) of the gate of x on the coset
    result = aug5.result
    ball = result.meta["ball"]
    rng = np.random.default_rng(5)
    levels = aug5.coset_level_indices()
    oracle = result.X.oracle()
    for u in rng.choice(levels, size=12, replace=False):
        u = int(u)
        rho_set = np.asarray(result.rho(u, result.maximal), dtype=np.int64)
        for x in rng.integers(0, result.X.n, size=8):
            x = int(x)
            d = oracle.block([x], rho_set)[0]
            gates = rho_set[d == d.min()]
            direct = set(int(p) for p in result.pi(u, x))
            via_gate = set(int(p) for g in gates for p in result.pi(u, int(g)))
            assert direct == via_gate


def test_augmented_top_space_distances_non_increasing(aug5):
    base_cs = aug5.base.spaces[aug5.base.maximal].oracle()
    new_cs = aug5.result.spaces[aug5.result.maximal].oracle()
    rng = np.random.default_rng(7)
    us = rng.integers(0, aug5.result.X.n, size=200)
    vs = rng.integers(0, aug5.result.X.n, size=200)
    assert (new_cs.pairs(us, vs) <= base_cs.pairs(us, vs)).all()


def test_augmented_spot_projection(aug5):
    result = aug5.result
    ball = result.meta["ball"]
    idx = result.labels.index("A[b].line")
    line_ball = aug5.subgroup_structures[0][1].meta["ball"]
    # p_{b<a>}(b a a b) = b a a, whose axis coordinate is a^2
    proj = result.pi(idx, ball.id_of_text("b a a b"))
    assert [line_ball.graph.label_of(int(p)) for p in proj] == ["a a"]


def test_augmented_empty_family_is_base():
    base = instance_from_ball(G.cayley_ball(F2, 3))
    aug = build_augmented_structure(base, [], seed=1)
    assert aug.result.n_indices() == 1
    assert aug.result.spaces[0].edges == base.spaces[0].edges


def test_augmented_two_subgroups(aug5):
    base = instance_from_ball(G.cayley_ball(F2, 4))
    aug = build_augmented_structure(
        base, [(SUB_A, line_instance(4)), (SUB_B, line_instance(4))], seed=2)
    rep = check_structural(aug.result)
    assert rep.passed
    assert aug.result.n_indices() == 1 + aug.result.meta["cosets"]


def test_augmentation_refuses_bad_embedding():
    base = instance_from_ball(G.cayley_ball(Z2, 4))
    sub = SubgroupSpec(Z2, ["a"], label="A")
    with pytest.raises(EmbeddingViolated):
        build_augmented_structure(base, [(sub, line_instance(4))], seed=1)
    forced = build_augmented_structure(base, [(sub, line_instance(4))],
                                       seed=1, force=True)
    assert forced.result.n_indices() == 1 + forced.result.meta["cosets"]


def test_augmented_hierarchy_path(aug5):
    from hhskit.hhs_core import find_hierarchy_path
    ball = aug5.result.meta["ball"]
    res = find_hierarchy_path(aug5.result, 0, ball.id_of_text("a a a b b"),
                              D_budget=4.0)
    assert res.success and res.D <= 4.0


def test_verify_augmented_battery_and_morphisms(aug5):
    rep = verify_augmented(aug5, seed=3)
    assert rep["passed"]
    m = rep["morphisms"][0]
    assert m["index_map_injective"] and m["relations_preserved"]
    assert m["projection_commute_gap"] == 0
    assert m["equivariance_gap"] <= 1
    assert m["equivariance_samples"] == 100


# ---------------------------------------------------------------------------
# decomposition

def test_decomposition_vacuous_without_proper_base_indices(aug5):
    ball = aug5.result.meta["ball"]
    rep = decomposition_projection_check(
        aug5, 0, ball.id_of_text("a a b b"), theta=2)
    assert rep.T == 0
    assert rep.per_index == []


def test_decomposition_on_factor_base():
    # base with proper indices: the b-coset factor structure; absorb <a>
    ball = G.cayley_ball(F2, 4)
    base = build_hhs_from_factor_system(family_from_cosets(ball, [SUB_B]))
    aug = build_augmented_structure(base, [(SUB_A, line_instance(4))],
                                    seed=2, force=True)
    x, y = 0, ball.id_of_text("a a b b")
    rep = decomposition_projection_check(aug, x, y, theta=1)
    assert rep.T >= 0
    assert rep.per_index
    # theta larger than any piece: everything merges into one segment
    rep_big = decomposition_projection_check(aug, x, y, theta=50)
    assert rep_big.T == 0
    kinds = {k for k, _ in rep_big.pieces}
    assert kinds == {"gamma"}
