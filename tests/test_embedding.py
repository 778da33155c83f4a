"""Relative metrics, embedded-subgroup verdicts, absorption."""

import copy
import dataclasses
import json
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest

from hhskit import embedding
from hhskit import groups as G
from hhskit.errors import EmbeddingViolated, Inconclusive, StructureMismatch
from hhskit.embedding import (build_augmented_structure,
                              check_hh_embedded,
                              check_hyperbolically_embedded, relative_metric,
                              verify_augmented)
from hhskit.groups import SubgroupSpec, enumerate_cosets, subgroup_membership
from hhskit.hhs_core import (ProjectionTable, check_structural,
                             instance_from_ball, instance_from_bundle,
                             instance_to_bundle, trivial_instance)
from hhskit.graph_core import MetricGraph, bfs_distances
from hhskit.sampling import rng_for
from test_graph_core import diameter_loop

F2 = G.free_group(["a", "b"])
Z2 = G.free_abelian_group(["a", "b"])
SUB_A = SubgroupSpec(F2, ["a"], label="A")
SUB_B = SubgroupSpec(F2, ["b"], label="B")
LINE_MODEL = G.free_group(["a"])


def line_instance(r=5):
    return instance_from_ball(G.cayley_ball(LINE_MODEL, r), label="line")


def members_loop(ball, sub):
    """The ball vertices in the subgroup, one membership call per vertex."""
    return [v for v in range(ball.graph.n)
            if subgroup_membership(ball.model, sub, ball.words[v])]


@pytest.fixture(scope="module")
def aug5():
    base = instance_from_ball(G.cayley_ball(F2, 5))
    return build_augmented_structure(base, [(SUB_A, line_instance(5))], seed=3)


# ---------------------------------------------------------------------------
# a subgroup's ball elements

RAAG3 = G.raag_group(["a", "b", "c"], [("a", "b")])
FREE_PRODUCT = G.free_product(Z2, G.free_group(["c"]))


@pytest.mark.parametrize("model, gens", [
    (F2, ["a"]), (F2, ["a", "b"]), (F2, ["a b"]), (F2, ["b a", "b"]),
    (Z2, ["a"]), (Z2, ["a b", "a a"]), (RAAG3, ["a", "b"]),
    (RAAG3, ["a", "c'"]), (FREE_PRODUCT, ["a", "c"]),
    (FREE_PRODUCT, ["b"])],
    ids=lambda x: x.kind if hasattr(x, "kind") else "+".join(x))
def test_identity_coset_is_the_membership_loop(model, gens):
    ball = G.cayley_ball(model, 4)
    sub = SubgroupSpec(model, gens, label="H")
    assert list(enumerate_cosets(ball, sub)[0].vertices) == \
        members_loop(ball, sub)


# ---------------------------------------------------------------------------
# relative metric

def test_relative_metric_identity_zero():
    ball = G.cayley_ball(F2, 3)
    t = relative_metric(ball, SUB_A)
    assert t.row[0] == 0


def test_relative_metric_free_axis_is_unreached():
    # the free group separates its factors: every coset clique hangs off a
    # single component of the punctured tree, so no detour exists at all
    ball = G.cayley_ball(F2, 4)
    row = relative_metric(ball, SUB_A).row
    assert row[0] == 0
    assert all(d is None for d in row[1:])


def test_relative_metric_z2_detour_is_three():
    # in Z^2 the detour 1 -> b -> (coset cone) -> b a^k -> a^k has length 3
    ball = G.cayley_ball(Z2, 4)
    t = relative_metric(ball, SubgroupSpec(Z2, ["a"], label="A"))
    row = {ball.model.format(w): d for w, d in zip(t.words, t.row)}
    assert row["e"] == 0
    assert row["a"] == 3
    assert row["a a a"] == 3


def test_relative_metric_monotone_with_none_as_infinity():
    ball = G.cayley_ball(Z2, 4)
    t = relative_metric(ball, SubgroupSpec(Z2, ["a"], label="A"))
    by_power = {}
    for w, d in zip(t.words, t.row):
        k = sum(1 for x in w if x == 1) - sum(1 for x in w if x == -1)
        if k >= 0:
            by_power[k] = d
    vals = [by_power[k] for k in sorted(by_power)]
    as_inf = [v if v is not None else float("inf") for v in vals]
    assert as_inf == sorted(as_inf)

def test_relative_metric_dominates_coned_metric():
    # d-hat(e, h) >= d_coned(e, h): the punctured cone-off has fewer edges
    ball = G.cayley_ball(Z2, 3)
    sub = SubgroupSpec(Z2, ["a"], label="A")
    coned = embedding.coned_over_cosets(ball, [sub])
    t = relative_metric(ball, sub, coned)
    d_coned = coned[0].coned.oracle().row(ball.id_of(()))
    assert all(d >= d_coned[v] for v, d in zip(t.elements, t.row)
               if d is not None)


def ref_identity_row(coned, members):
    """d-hat from the identity, ``members[0]``, to each member: one BFS in
    the cone-off ``coned`` less the edges between members, found by a set
    test."""
    inside = set(members)
    punctured = MetricGraph(coned.n, [(u, v) for u, v in coned.edges
                                      if not (u in inside and v in inside)])
    dist = bfs_distances(punctured, [members[0]])
    return [int(dist[v]) if dist[v] >= 0 else None for v in members]


@pytest.mark.parametrize("model, radius", [(F2, 5), (Z2, 6)])
def test_relative_metric_matches_per_member_bfs(model, radius):
    ball = G.cayley_ball(model, radius)
    sub = SubgroupSpec(model, ["a"], label="A")
    coned = embedding.coned_over_cosets(ball, [sub])
    t = relative_metric(ball, sub, coned)
    members = members_loop(ball, sub)
    assert list(t.elements) == members and len(members) > 3
    assert t.row == ref_identity_row(coned[0].coned, members)


# ---------------------------------------------------------------------------
# hyperbolically embedded verdicts

def test_free_axis_is_hyperbolically_embedded():
    w = check_hyperbolically_embedded(G.cayley_ball(F2, 6), [SUB_A], seed=3)
    assert w.passed
    assert w.hyperbolicity["passed"]
    assert w.properness["per_subgroup"]["A"]["stable"]
    assert w.qi_embedding["per_subgroup"]["A"]["lambda"] == 1.0
    assert w.separation["passed"]


def test_central_axis_in_z2_fails_with_witness():
    sub = SubgroupSpec(Z2, ["a"], label="A")
    w = check_hyperbolically_embedded(G.cayley_ball(Z2, 6), [sub], seed=3)
    assert not w.passed
    assert not w.separation["passed"]
    assert w.separation["witness"]["g"] == "b"
    assert not w.properness["per_subgroup"]["A"]["stable"]


def test_two_axes_pairwise_separation_finite():
    w = check_hyperbolically_embedded(G.cayley_ball(F2, 5), [SUB_A, SUB_B],
                                      seed=3)
    assert w.passed
    assert all(v < 5 for v in w.separation["R"].values())


def separation_loop(model, subs, radius):
    """Part (iv) of ``check_hyperbolically_embedded`` as one BFS per coset
    and one pairwise diameter per set, R and the witness kept in loop
    order."""
    ball = G.cayley_ball(model, radius)
    cg, cosets = embedding.coned_over_cosets(ball, subs)
    member_sets = [np.asarray(members_loop(ball, sub)) for sub in subs]
    caps = {e: max(radius, 2 * e + 2) for e in (0, 1, 2)}
    separation = {"passed": True, "R": {}, "witness": None, "cap": caps}
    R = {e: 0 for e in caps}
    for coset, c in zip(cg.family, cosets):
        sub_j, rep = c.subgroup, c.representative
        dist = bfs_distances(ball.graph, coset.vertices)
        for sub_i, hi in zip(subs, member_sets):
            if sub_i is sub_j and rep == ():
                continue
            for e in caps:
                inside = hi[dist[hi] <= e]
                if len(inside) > 1:
                    diam = diameter_loop(ball.graph, inside)
                    if diam > R[e]:
                        R[e] = diam
                        if diam >= caps[e]:
                            separation["passed"] = False
                            separation["witness"] = {
                                "g": ball.model.format(rep),
                                "i": sub_i.label, "j": sub_j.label,
                                "eps": e, "diam": diam}
    separation["R"] = R
    return separation


RAAG = G.raag_group(["a", "b", "c"], [("a", "b")])
MODELS = {"F2": F2, "Z2": Z2, "RAAG": RAAG}


def cases(*spec):
    """(model, gens, radius) parameters with readable ids."""
    return pytest.mark.parametrize(
        "model, gens, radius", [(MODELS[m], g, r) for m, g, r in spec],
        ids=[f"{m}-{'+'.join(g).replace(' ', '')}-r{r}" for m, g, r in spec])


@cases(("F2", ["a"], 4), ("F2", ["a"], 5), ("F2", ["a", "b"], 4),
       ("F2", ["a", "b"], 5), ("F2", ["a b"], 4), ("F2", ["a b"], 5),
       ("Z2", ["a"], 6))
def test_separation_matches_per_coset_loop(model, gens, radius, monkeypatch):
    # with three cosets per distance call, call boundaries fall inside the
    # coset list
    monkeypatch.setattr(embedding, "WORD", 3)
    subs = ([SubgroupSpec(model, [g], label=g) for g in gens]
            if len(gens) > 1 else [SubgroupSpec(model, gens, label="H")])
    got = check_hyperbolically_embedded(G.cayley_ball(model, radius), subs,
                                        seed=3).separation
    assert got == separation_loop(model, subs, radius)
    assert (got["witness"] is None) == (model is F2)


def intrinsic_loop(model, sub, needed_words):
    """The level-by-level walk ``_intrinsic_lengths`` had of its own."""
    targets = {w: None for w in needed_words}
    remaining = len(targets)
    if () in targets:
        targets[()] = 0
        remaining -= 1
    seen = {(): 0}
    frontier = [()]
    max_len = max((len(w) for w in needed_words), default=0) + 4
    while frontier and remaining:
        nxt = []
        for w in frontier:
            for g in sub.generator_words_with_inverses():
                p = model.multiply(w, g)
                if p in seen or len(p) > max_len:
                    continue
                seen[p] = seen[w] + 1
                if p in targets and targets[p] is None:
                    targets[p] = seen[p]
                    remaining -= 1
                nxt.append(p)
        frontier = nxt
    return targets


@cases(("F2", ["a"], 5), ("F2", ["a b"], 5), ("F2", ["a b", "b a"], 4),
       ("Z2", ["a", "b b"], 4), ("RAAG", ["a c"], 4), ("RAAG", ["a", "b"], 4))
def test_intrinsic_lengths_match_level_walk(model, gens, radius):
    ball = G.cayley_ball(model, radius)
    sub = SubgroupSpec(model, gens, label="H")
    # every ball element, so that some lengths stay None
    words = list(ball.words)
    for needed in (words, [()], []):
        assert embedding._intrinsic_lengths(model, sub, needed) == \
            intrinsic_loop(model, sub, needed)


def test_qi_part_reports_enumeration_budget(monkeypatch):
    monkeypatch.setattr(G, "MEMBERSHIP_BUDGET", 3)
    with pytest.raises(Inconclusive, match="MEMBERSHIP_BUDGET = 3"):
        embedding._intrinsic_lengths(F2, SUB_A, [F2.parse("a a a")])
    w = check_hyperbolically_embedded(G.cayley_ball(F2, 3), [SUB_A], seed=3)
    assert w.qi_embedding == {"passed": False, "per_subgroup": {
        "A": {"passed": False, "reason": "enumeration budget"}}}


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
    members = set(members_loop(ball, sub))
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
    got = check_hh_embedded(base, [sub], seed=3)
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


def test_round_tripped_instance_is_refused():
    """A bundle keeps the Cayley tag of an instance but not its ball: the
    embedding verdict and the absorption refuse the instance read back."""
    base = instance_from_ball(G.cayley_ball(F2, 3))
    again = instance_from_bundle(json.loads(json.dumps(
        instance_to_bundle(base))))
    assert again.meta["cayley"] and "ball" not in again.meta
    with pytest.raises(StructureMismatch, match="no Cayley ball"):
        check_hh_embedded(again, [SUB_A])
    with pytest.raises(StructureMismatch, match="no Cayley ball"):
        build_augmented_structure(again, [(SUB_A, line_instance(3))])


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
    levels = [i for i, p in enumerate(aug5.provenance) if p[0] == "coset"]
    assert (result.rel[np.ix_(levels, levels)][
        ~np.eye(len(levels), dtype=bool)] == 4).all()


def test_augmented_projection_factors_through_gate(aug5):
    # pi_(U,g)(x) must equal pi_(U,g) of the gate of x on the coset
    result = aug5.result
    ball = result.meta["ball"]
    rng = np.random.default_rng(5)
    levels = [i for i, p in enumerate(aug5.provenance) if p[0] == "coset"]
    oracle = result.X.oracle()
    for u in rng.choice(levels, size=12, replace=False):
        u = int(u)
        rho_set = result.rho_sets([u], [result.maximal])[0][0]
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


def test_verify_augmented_battery_and_morphisms(aug5):
    rep = verify_augmented(aug5, seed=3)
    assert rep["passed"]
    m = rep["morphisms"][0]
    assert m["index_map_injective"] and m["relations_preserved"]
    assert m["projection_commute_gap"] == 0
    assert m["equivariance_gap"] <= 1
    assert m["equivariance_samples"] == 100


def morphism_gaps_loop(aug, seed, samples=100):
    """(commute gap, equivariance gap, samples) of ``verify_augmented``'s
    one subgroup, one pairwise diameter per differing set."""
    result = aug.result
    ball = result.meta["ball"]
    model = ball.model
    (sub, sub_inst), = aug.subgroup_structures
    start = aug.phi_records[0]["identity_coset_block"]
    sub_ball = sub_inst.meta["ball"]
    commute_gap = 0
    members = members_loop(ball, sub)
    for v in members:
        hv = sub_ball.index.get(ball.words[v])
        if hv is None:
            continue
        for u in range(sub_inst.n_indices()):
            mine = set(result.pi(start + u, v).tolist())
            theirs = set(sub_inst.pi(u, hv).tolist())
            if mine != theirs:
                commute_gap = max(commute_gap, diameter_loop(
                    sub_inst.spaces[u], mine | theirs))
    rng = rng_for(seed)
    eq_gap = checked = attempts = 0
    while checked < samples and attempts < 20 * samples:
        attempts += 1
        h = ball.words[members[int(rng.integers(0, len(members)))]]
        x = ball.words[int(rng.integers(0, ball.graph.n))]
        hx = model.multiply(h, x)
        if hx not in ball.index or sub_ball.index.get(h) is None:
            continue
        xv, hxv = ball.index[x], ball.index[hx]
        for u in range(sub_inst.n_indices()):
            carrier = sub_inst.space_to_x[u]
            if carrier is None:
                continue
            moved = {sub_ball.index[w] for w in (
                model.multiply(h, sub_ball.words[int(carrier[p])])
                for p in result.pi(start + u, xv)) if w in sub_ball.index}
            target = {int(carrier[p]) for p in result.pi(start + u, hxv)}
            if moved and target != moved:
                eq_gap = max(eq_gap, diameter_loop(sub_ball.graph,
                                                   target | moved))
        checked += 1
    return commute_gap, eq_gap, checked


@pytest.fixture(scope="module")
def aug5_perturbed(aug5):
    """aug5 with the identity coset's line projection moved by 3 steps."""
    result = copy.copy(aug5.result)
    u = aug5.phi_records[0]["identity_coset_block"]
    table = result.projections[u]
    assert table.all_singletons()
    n = result.spaces[u].n
    result.projections = list(result.projections)
    result.projections[u] = ProjectionTable(table.indptr,
                                            (table.data + 3) % n)
    return dataclasses.replace(aug5, result=result)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_morphism_gaps_match_per_set_loop(aug5, aug5_perturbed, perturbed,
                                          seed, monkeypatch):
    # the battery does not enter the morphism entries
    monkeypatch.setattr(embedding, "run_axiom_battery",
                        lambda inst, seed: SimpleNamespace(passed=True))
    aug = aug5_perturbed if perturbed else aug5
    m, = verify_augmented(aug, seed=seed)["morphisms"]
    expected = morphism_gaps_loop(aug, seed)
    assert (m["projection_commute_gap"], m["equivariance_gap"],
            m["equivariance_samples"]) == expected
    assert (expected[0] > 0) == perturbed
