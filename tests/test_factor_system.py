"""Factor-system verification against a naive BFS oracle."""

import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhskit import graph_core
from hhskit import groups as G
from hhskit.errors import FactorSystemViolated
from hhskit.factor_system import (DEFAULT_MEMBER_BUDGET, AxiomOutcome,
                                  FactorSystemCandidate, _longest_chain,
                                  build_group_factor_closure, connected_hull,
                                  family_from_cosets, simple_family_check,
                                  verify_factor_system)
from hhskit.graph_core import (MetricGraph, Subgraph,
                               quasiconvexity_constant)
from hhskit.groups import SubgroupSpec
from hhskit.hhs_core import build_hhs_from_factor_system
from hhskit.sampling import sample_indices, sample_ordered_pairs

F2 = G.free_group(["a", "b"])
SUB_A = SubgroupSpec(F2, ["a"], label="A")
SUB_B = SubgroupSpec(F2, ["b"], label="B")


# ---------------------------------------------------------------------------
# naive oracle

def all_rows(graph):
    rows = []
    for src in range(graph.n):
        adj = [graph.neighbors(v) for v in range(graph.n)]
        dist = [-1] * graph.n
        dist[src] = 0
        q = deque([src])
        while q:
            w = q.popleft()
            for nb in adj[w]:
                if dist[nb] < 0:
                    dist[nb] = dist[w] + 1
                    q.append(nb)
        rows.append(dist)
    return rows


def oracle_projection(rows, h1, h2):
    proj = set()
    for w in h2:
        best = min(rows[w][u] for u in h1)
        proj |= {u for u in h1 if rows[w][u] == best}
    return proj


def oracle_diam(rows, verts):
    verts = list(verts)
    if len(verts) <= 1:
        return 0
    return max(rows[u][v] for u, v in itertools.combinations(verts, 2))


def oracle_hausdorff(rows, a, b):
    return max(max(min(rows[x][y] for y in b) for x in a),
               max(min(rows[x][y] for x in a) for y in b))


# ---------------------------------------------------------------------------
# fixtures

def _ladder():
    n = 6
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(n + i, n + i + 1) for i in range(n - 1)]
    edges += [(i, n + i) for i in range(n)]
    g = MetricGraph(2 * n, edges)
    return FactorSystemCandidate(g, [Subgraph(g, range(n), label="bottom"),
                                     Subgraph(g, range(n, 2 * n), label="top")],
                                 radius=n), {}


def _segments():
    g = MetricGraph(9, [(i, i + 1) for i in range(8)])
    fam = [Subgraph(g, [2, 3, 4], label="short"),
           Subgraph(g, [1, 2, 3, 4, 5, 6], label="long")]
    return FactorSystemCandidate(g, fam, radius=8), {}


def _cycle_arcs(with_gate):
    g = MetricGraph(16, [(i, (i + 1) % 16) for i in range(16)])
    fam = [Subgraph(g, range(0, 7), label="arc1"),
           Subgraph(g, range(8, 15), label="arc2")]
    kwargs = {"xi_candidate": 2, "axiom5_threshold": 1}
    if with_gate:
        # the hull of the 2-point projection, Hausdorff distance 3 from it
        fam.append(connected_hull(g, [0, 6], label="gate"))
        kwargs["B"] = 3
    return FactorSystemCandidate(g, fam, radius=8), kwargs


def longest_chain_recursive(above):
    """Reference: the recursive chain walk over an acyclic relation; the
    first longest chain in index order, each step to the first parent in
    ``above`` order that continues a longest one."""
    memo, parent = {}, {}

    def depth(i):
        if i not in memo:
            memo[i] = 0
            for j in above[i]:
                if depth(j) + 1 > memo[i]:
                    memo[i], parent[i] = depth(j) + 1, j
        return memo[i]

    if not above:
        return []
    chain = [max(range(len(above)), key=depth)]
    while chain[-1] in parent:
        chain.append(parent[chain[-1]])
    return chain


@given(st.integers(0, 9).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, max(n - 1, 0)), unique=True, max_size=n),
    min_size=n, max_size=n)))
@settings(max_examples=150, deadline=None)
def test_longest_chain_matches_recursive_walk_off_cycles(above):
    """On any relation, loops and cycles included, the chain is the
    recursive walk's over the indices that lie on no cycle."""
    n = len(above)
    reach = np.zeros((n, n), dtype=bool)
    for i, ups in enumerate(above):
        reach[i, ups] = True
    for k in range(n):
        reach |= reach[:, [k]] & reach[k]
    off = [not reach[i, i] for i in range(n)]
    # the relation on the acyclic indices, renumbered in index order
    keep = [i for i in range(n) if off[i]]
    new = {i: k for k, i in enumerate(keep)}
    sub = [[new[j] for j in above[i] if off[j]] for i in keep]
    assert _longest_chain(above) == [keep[k] for k in
                                     longest_chain_recursive(sub)]


def test_cosets_match_naive_oracle_small_radius():
    ball = G.cayley_ball(F2, 3)
    cand = family_from_cosets(ball, [SUB_A, SUB_B])
    rows = all_rows(ball.graph)
    members = [list(m.vertices) for m in cand.family]

    # oracle: max projection diameter over all ordered pairs
    xi_oracle = 0
    for i, j in itertools.permutations(range(len(members)), 2):
        proj = oracle_projection(rows, members[i], members[j])
        xi_oracle = max(xi_oracle, oracle_diam(rows, proj))
    # oracle: longest containment chain in links
    sets = [frozenset(m) for m in members]
    links = 0
    for i, j in itertools.permutations(range(len(members)), 2):
        if sets[i] < sets[j]:
            links = max(links, 1)
            for k in range(len(members)):
                if k != i and k != j and sets[j] < sets[k]:
                    links = max(links, 2)

    report = verify_factor_system(cand)
    assert report.passed
    assert report.projections.sample.mode == "exhaustive"
    assert report.projections.constant == xi_oracle == 0
    assert report.chains.constant == links == 1

    sf = simple_family_check(cand, (0, 1))
    R0_oracle = 0
    R1_oracle = 0
    for i, j in itertools.permutations(range(len(members)), 2):
        h2 = members[j]
        for eps, slot in ((0, "R0"), (1, "R1")):
            inside = [w for w in h2
                      if min(rows[w][u] for u in members[i]) <= eps]
            d = oracle_diam(rows, inside)
            if eps == 0:
                R0_oracle = max(R0_oracle, d)
            else:
                R1_oracle = max(R1_oracle, d)
    assert sf["R"][0] == R0_oracle == 0
    assert sf["R"][1] == R1_oracle


def test_parallel_copies_fail_separation():
    # ladder: two parallel paths at Hausdorff distance 1
    report = verify_factor_system(_ladder()[0])
    assert not report.separation.passed
    w = report.separation.witnesses[0]
    assert w["hausdorff"] == 1
    assert set(w["pair"]) == {"bottom", "top"}


def test_whole_graph_member_is_flagged():
    g = MetricGraph(4, [(0, 1), (1, 2), (2, 3)])
    fam = [Subgraph(g, range(4), label="all")]
    report = verify_factor_system(FactorSystemCandidate(g, fam, radius=3))
    assert "degenerate-member-equals-graph" in report.flags


def test_nested_segments_fail_and_build_refuses():
    # the two segments are Hausdorff-close; the radius-limited rendering
    # catches this through the coarse-containment axiom (the projection of
    # the short segment is Hausdorff-close to it without containment) and
    # the build refuses
    cand = _segments()[0]
    report = verify_factor_system(cand)
    assert not report.passed
    assert not report.coarse_containment.passed
    w = report.coarse_containment.witnesses[0]
    assert w["pair"] == ("long", "short")
    with pytest.raises(FactorSystemViolated):
        build_hhs_from_factor_system(cand, report=report)


def test_axiom2_dichotomy_witness_path():
    # a 16-cycle with two opposite arcs: the projection of one arc onto the
    # other is the pair of near endpoints, far apart along the cycle, so the
    # dichotomy needs the nested witness member to pass
    n = 16
    g = MetricGraph(n, [(i, (i + 1) % n) for i in range(n)])
    arc1 = list(range(0, 7))          # 0..6
    arc2 = list(range(8, 15))         # 8..14
    fam_broken = [Subgraph(g, arc1, label="arc1"), Subgraph(g, arc2, label="arc2")]
    rep_broken = verify_factor_system(
        FactorSystemCandidate(g, fam_broken, radius=8), xi_candidate=2,
        axiom5_threshold=1)
    assert not rep_broken.projections.passed

    rows = all_rows(g)
    proj = sorted(oracle_projection(rows, arc1, arc2))
    assert proj == [0, 6]   # oracle: both endpoints of arc1
    # the connected witness spanning the 2-point projection is its hull,
    # which sits at Hausdorff distance 3 from it, so the dichotomy needs B=3
    witness_member = connected_hull(g, proj, label="gate")
    assert oracle_hausdorff(rows, proj, witness_member.vertices) == 3
    fam_fixed = fam_broken + [witness_member]
    rep_fixed = verify_factor_system(
        FactorSystemCandidate(g, fam_fixed, radius=8), xi_candidate=2, B=3,
        axiom5_threshold=1)
    assert rep_fixed.projections.passed
    assert rep_fixed.projections.details["nested_witness_pairs"] >= 1


def test_closure_single_axis_fixpoint_zero():
    ball = G.cayley_ball(F2, 4)
    cand, info = build_group_factor_closure(ball, [SUB_A])
    assert info["fixpoint"] and info["iterations"] == 0
    assert len(cand.family) == sum(
        1 for w in ball.words if not w or abs(w[-1]) != 1)


def test_closure_two_axes_fixpoint_zero():
    ball = G.cayley_ball(F2, 4)
    cand, info = build_group_factor_closure(ball, [SUB_A, SUB_B])
    assert info["fixpoint"] and info["iterations"] == 0


def test_closure_word_generators_terminates_and_verifies():
    ball = G.cayley_ball(F2, 4)
    ab = SubgroupSpec(F2, ["a b"], label="AB")
    ba = SubgroupSpec(F2, ["b a"], label="BA")
    cand, info = build_group_factor_closure(ball, [ab, ba], budget=3)
    assert info["fixpoint"]
    report = verify_factor_system(cand)
    assert report.projections.passed
    assert report.chains.passed


def test_family_only_grows_and_idempotent_at_fixpoint():
    ball = G.cayley_ball(F2, 3)
    cand0 = family_from_cosets(ball, [SUB_A])
    cand1, info = build_group_factor_closure(ball, [SUB_A])
    assert set(m.vertices for m in cand0.family) <= set(
        m.vertices for m in cand1.family)
    cand2, info2 = build_group_factor_closure(ball, [SUB_A])
    assert [m.vertices for m in cand1.family] == [m.vertices for m in cand2.family]


def test_verify_deterministic_with_seed():
    ball = G.cayley_ball(F2, 5)
    cand = family_from_cosets(ball, [SUB_A, SUB_B])
    r1 = verify_factor_system(cand, pair_budget=5000, seed=3)
    r2 = verify_factor_system(cand, pair_budget=5000, seed=3)
    assert r1.to_dict() == r2.to_dict()
    assert r1.projections.sample.mode == "sampled"


# ---------------------------------------------------------------------------
# per-pair reference scans: one small distance block per member pair, the
# loops the chunked ragged-block scans replaced

def ref_block(oracle, a, b):
    aa = np.repeat(a, len(b))
    bb = np.tile(b, len(a))
    return oracle.pairs(aa, bb).reshape(len(a), len(b))


def ref_projection(block, a):
    mins = block.min(axis=0)
    return a[(block == mins[None, :]).any(axis=1)]


def ref_diameter(oracle, verts):
    if len(verts) <= 1:
        return 0
    ii, jj = np.triu_indices(len(verts), k=1)
    return int(oracle.pairs(verts[ii], verts[jj]).max())


def ref_hausdorff(block):
    return max(int(block.min(axis=1).max()), int(block.min(axis=0).max()))


def ref_axiom1(cand, member_budget, seed):
    """Axiom 1 of ``verify_factor_system``: per member, every pair of its
    vertices and every vertex on a geodesic between them."""
    graph, family = cand.graph, cand.family
    oracle = graph.oracle()
    member_idx, spec = sample_indices(len(family), member_budget, seed)
    K, worst = 0.0, None
    for i in member_idx:
        mem = family[int(i)]
        verts = mem.vertex_array()
        if len(verts) == 1:
            continue
        rows = oracle.block(verts, np.arange(graph.n))
        inner = mem.induced_graph().oracle()
        dist_to = oracle.dist_to_set(verts)
        ii, jj = np.triu_indices(len(verts), k=1)
        d_outer = rows[ii, verts[jj]].astype(np.float64)
        d_inner = inner.pairs(ii, jj).astype(np.float64)
        k_embed = float((d_inner / (d_outer + 1.0)).max())
        q = 0
        for a, b in zip(ii, jj):
            on_geo = rows[a] + rows[b] == rows[a][verts[b]]
            q = max(q, int(dist_to[on_geo].max()))
        val = max(k_embed, float(q))
        if val > K:
            K = val
            worst = {"member": mem.label, "k_embed": k_embed, "q": q}
    return AxiomOutcome(True, K, [worst] if worst else [], spec)


def axiom1_member_loop(cand, seed):
    """Axiom 1 as ``verify_factor_system`` computed it one member at a
    time, with one ``quasiconvexity_constant`` call per sampled member."""
    graph, family = cand.graph, cand.family
    oracle = graph.oracle()
    member_idx, spec = sample_indices(len(family), DEFAULT_MEMBER_BUDGET, seed)
    K, worst = 0.0, None
    for i in member_idx:
        mem = family[int(i)]
        verts = mem.vertex_array()
        if len(verts) <= 1:
            continue
        ii, jj = np.triu_indices(len(verts), k=1)
        d_outer = oracle.pairs(verts[ii], verts[jj]).astype(np.float64)
        d_inner = mem.induced_graph().oracle().pairs(ii, jj).astype(np.float64)
        k_embed = float((d_inner / (d_outer + 1.0)).max())
        q = quasiconvexity_constant(graph, mem, pair_budget=None).q
        val = max(k_embed, float(q))
        if val > K:
            K = val
            worst = {"member": mem.label, "k_embed": k_embed, "q": q}
    return AxiomOutcome(True, K, [worst] if worst else [], spec)


@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("radius", [4, 5])
def test_batched_axiom1_matches_member_loop(radius, seed):
    """Axiom 1 asks every sampled member's quasi-convexity in one call and
    reports what the per-member loop reports."""
    cand = family_from_cosets(G.cayley_ball(F2, radius), [SUB_A, SUB_B])
    got = verify_factor_system(cand, pair_budget=1000, seed=seed).embedding
    ref = axiom1_member_loop(cand, seed)
    assert got.witnesses == ref.witnesses
    assert got.to_dict() == ref.to_dict()


def ref_pair_scan(cand, report, pair_budget, seed):
    """Axioms 2, 3 and 5 of ``verify_factor_system``, pair by pair."""
    family = cand.family
    oracle = cand.graph.oracle()
    xi_candidate, B = report.xi_candidate, report.B
    threshold = report.separation.constant
    arrays = [mem.vertex_array() for mem in family]
    vsets = [frozenset(mem.vertices) for mem in family]
    us, vs, spec = sample_ordered_pairs(len(family), len(family), pair_budget,
                                        seed, skip_diagonal=True)
    xi, ax2_witnesses, ax2_failures = 0, [], []
    ax3_failures, ax3_skipped, ax5_failures = [], 0, []
    for i, j in zip(us, vs):
        i, j = int(i), int(j)
        pair = (family[i].label, family[j].label)
        block = ref_block(oracle, arrays[i], arrays[j])
        proj = ref_projection(block, arrays[i])
        pdiam = ref_diameter(oracle, proj)
        if pdiam > xi_candidate:
            found = [family[u].label for u, vset in enumerate(vsets)
                     if vset <= vsets[i]
                     and ref_hausdorff(ref_block(oracle, proj, arrays[u])) <= B]
            if found:
                ax2_witnesses.append({"pair": pair, "diam": pdiam,
                                      "nested": found})
            else:
                ax2_failures.append({"pair": pair, "diam": pdiam})
        else:
            xi = max(xi, pdiam)
        if ref_diameter(oracle, arrays[i]) > 2 * B:
            dh3 = ref_hausdorff(ref_block(oracle, arrays[i], proj))
            if dh3 <= B and not vsets[i] <= vsets[j]:
                ax3_failures.append({"pair": pair, "hausdorff": dh3})
        else:
            ax3_skipped += 1
        if i < j:
            dh5 = ref_hausdorff(block)
            if dh5 <= threshold and vsets[i] != vsets[j]:
                ax5_failures.append({"pair": pair, "hausdorff": dh5})
    ax2 = AxiomOutcome(not ax2_failures, xi, ax2_failures or ax2_witnesses,
                       spec, {"xi_candidate": xi_candidate, "B": B,
                              "nested_witness_pairs": len(ax2_witnesses)})
    ax3 = AxiomOutcome(not ax3_failures, B, ax3_failures, spec,
                       {"skipped_small_members": ax3_skipped,
                        "guard": "diam(H1) > 2B"})
    ax5 = AxiomOutcome(not ax5_failures, threshold, ax5_failures, spec,
                       {"threshold": threshold})
    return ax2, ax3, ax5


def ref_simple_family(cand, eps_grid, pair_budget, seed):
    """R(eps) table, witnesses and small members, pair by pair."""
    family = cand.family
    oracle = cand.graph.oracle()
    arrays = [mem.vertex_array() for mem in family]
    table = {e: 0 for e in eps_grid}
    witnesses = {e: None for e in eps_grid}
    us, vs, _ = sample_ordered_pairs(len(family), len(family), pair_budget,
                                     seed, skip_diagonal=True)
    for i, j in zip(us, vs):
        i, j = int(i), int(j)
        col_min = ref_block(oracle, arrays[i], arrays[j]).min(axis=0)
        for e in eps_grid:
            inside = arrays[j][col_min <= e]
            if len(inside) > 1:
                d = ref_diameter(oracle, inside)
                if d > table[e]:
                    table[e] = d
                    witnesses[e] = (family[i].label, family[j].label)
    base_row = oracle.row(0)
    small = [mem.label for mem, verts in zip(family, arrays)
             if ref_diameter(oracle, verts)
             < cand.radius - int(base_row[verts].min())]
    return table, witnesses, small


def ref_closure(ball, subs, xi_candidate, budget=3):
    """Family of ``build_group_factor_closure`` after at most budget rounds."""
    graph = ball.graph
    oracle = graph.oracle()
    family = list(family_from_cosets(ball, subs).family)
    history = []
    for rounds in range(budget + 1):
        arrays = [mem.vertex_array() for mem in family]
        us, vs, _ = sample_ordered_pairs(len(family), len(family), 200_000, 0,
                                         skip_diagonal=True)
        new_members = []
        for i, j in zip(us, vs):
            i, j = int(i), int(j)
            proj = ref_projection(ref_block(oracle, arrays[i], arrays[j]),
                                  arrays[i])
            if ref_diameter(oracle, proj) > xi_candidate:
                new_members.append((i, j, proj))
        added = 0
        for i, j, proj in new_members:
            hull = connected_hull(
                graph, proj, label=f"proj[{family[i].label}<-{family[j].label}]")
            if not any(ref_hausdorff(ref_block(oracle, hull.vertex_array(),
                                               mem.vertex_array())) <= 1
                       for mem in family):
                family.append(hull)
                added += 1
        history.append({"round": rounds, "projections_over_xi": len(new_members),
                        "added": added, "family_size": len(family)})
        if added == 0:
            break
    return [(mem.label, mem.vertices) for mem in family], history


SCAN_FIXTURES = {
    "f2-r3-exhaustive": lambda: (
        family_from_cosets(G.cayley_ball(F2, 3), [SUB_A, SUB_B]), {}),
    "f2-r5-sampled": lambda: (
        family_from_cosets(G.cayley_ball(F2, 5), [SUB_A, SUB_B]),
        {"pair_budget": 3000, "seed": 3}),
    "z2-r3-ties": lambda: (
        family_from_cosets(G.cayley_ball(G.free_abelian_group(["a", "b"]), 3),
                           [SubgroupSpec(G.free_abelian_group(["a", "b"]),
                                         ["a"], label="A")]),
        {"xi_candidate": 0}),
    "ladder-axiom5": _ladder,
    "segments-axiom3": _segments,
    "arcs-axiom2-failure": lambda: _cycle_arcs(False),
    "arcs-axiom2-nested": lambda: _cycle_arcs(True),
}


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("name", sorted(SCAN_FIXTURES))
def test_batched_scans_match_per_pair_reference(name, chunk, monkeypatch):
    if chunk is not None:
        # chunk boundaries then fall inside the scan, mid-member
        monkeypatch.setattr(graph_core, "RAGGED_CHUNK", chunk)
    cand, kwargs = SCAN_FIXTURES[name]()
    pair_budget = kwargs.get("pair_budget", 200_000)
    seed = kwargs.get("seed", 0)
    report = verify_factor_system(cand, **kwargs)
    expected = (ref_axiom1(cand, DEFAULT_MEMBER_BUDGET, seed),
                *ref_pair_scan(cand, report, pair_budget, seed))
    got = (report.embedding, report.projections, report.coarse_containment,
           report.separation)
    for ax_got, ax_ref in zip(got, expected):
        assert ax_got.witnesses == ax_ref.witnesses
        assert ax_got.to_dict() == ax_ref.to_dict()

    sf = simple_family_check(cand, (0, 1, 2), pair_budget=pair_budget,
                             seed=seed)
    table, witnesses, small = ref_simple_family(cand, (0, 1, 2), pair_budget,
                                                seed)
    assert (sf["R"], sf["witnesses"], sf["small_members"]) == (
        table, witnesses, small)


CLOSURE_FIXTURES = {
    # projections over xi, all identified with existing members
    "f2-words": (F2, ["a b", "b a"], 3, None),
    # the closure adjoins a member, then reaches its fixpoint
    "z2-axis-grows": (G.free_abelian_group(["a", "b"]), ["a"], 3, 0),
}


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("name", sorted(CLOSURE_FIXTURES))
def test_batched_closure_matches_per_pair_reference(name, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(graph_core, "RAGGED_CHUNK", chunk)
    model, gens, radius, xi = CLOSURE_FIXTURES[name]
    ball = G.cayley_ball(model, radius)
    subs = [SubgroupSpec(model, [g], label=f"S{i}") for i, g in enumerate(gens)]
    cand, info = build_group_factor_closure(ball, subs, budget=3,
                                            xi_candidate=xi)
    family, history = ref_closure(ball, subs, info["xi_candidate"])
    assert [(mem.label, mem.vertices) for mem in cand.family] == family
    assert info["history"] == history
