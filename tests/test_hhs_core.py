"""Instance constructions and the axiom battery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhskit import graph_core, hhs_checks
from hhskit import groups as G
from hhskit.errors import BudgetExceeded
from hhskit.factor_system import family_from_cosets
from hhskit.graph_core import (MetricGraph, RaggedSets, bfs_distances,
                               connected_hull)
from hhskit.groups import SubgroupSpec
from hhskit.hhs_checks import NESTED, TRANSVERSE
from hhskit.hhs_core import (HHSInstance, ProjectionTable,
                             build_hhs_from_factor_system, check_bgi,
                             check_consistency, check_hqc,
                             check_large_links, check_partial_realization,
                             check_structural, check_uniqueness,
                             distance_formula_fit, hqc_qc_equivalence,
                             instance_from_ball, instances_structurally_equal,
                             product_hhs, run_axiom_battery, trivial_instance)
from hhskit.sampling import sample_indices

F2 = G.free_group(["a", "b"])
SUB_A = SubgroupSpec(F2, ["a"], label="A")
SUB_B = SubgroupSpec(F2, ["b"], label="B")


@pytest.fixture(scope="module")
def factor4():
    return build_hhs_from_factor_system(
        family_from_cosets(G.cayley_ball(F2, 4), [SUB_A, SUB_B]))


def axis_vertices(inst, letter="a"):
    ok = {letter, letter + "'"}
    return sorted(v for v in range(inst.X.n)
                  if inst.X.labels[v] == "e"
                  or set(inst.X.labels[v].split()) <= ok)


def path_graph(n):
    return MetricGraph(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# structural

def test_trivial_instance_structural():
    inst = trivial_instance(path_graph(5))
    rep = check_structural(inst)
    assert rep.passed and rep.complexity == 1 and rep.xi == 0


def test_factor_instance_structural_exact(factor4):
    rep = check_structural(factor4)
    assert rep.passed
    # boundary singleton cosets nest into crossing axes, which nest into S:
    # the exhaustive relation scan gives complexity 3 on this family
    assert rep.complexity == 3
    assert rep.xi == 1           # members are coned to diameter 1 in CS
    assert rep.rho_sample.mode == "exhaustive" or rep.rho_sample.drawn > 0


def test_eligible_rho_pairs_in_loop_order(factor4):
    """The pair arrays list (u, v) in the order of a row-major scan."""
    n = factor4.n_indices()
    ref = [(u, v) for u in range(n) for v in range(n)
           if factor4.rel[u, v] in (NESTED, TRANSVERSE)]
    us, vs = factor4.eligible_rho_pairs()
    assert us.dtype == vs.dtype == np.int32
    assert list(zip(us.tolist(), vs.tolist())) == ref


def rho_chain_triples_loop(rel, nested):
    """Reference: the rho-consistency triples as a nested Python scan."""
    triples = []
    for k in range(len(nested)):
        u, v = int(nested[k][0]), int(nested[k][1])
        eligible = np.flatnonzero(
            (rel[v] == NESTED)
            | ((rel[v] == TRANSVERSE) & (rel[:, u] != hhs_checks.ORTHOGONAL)))
        triples.extend((k, int(w)) for w in eligible)
    return triples


def rho_chain_mask(rel, nested):
    """Rows ``lo:hi`` of the rho-chain mask: a row per nested pair (u, v), a
    column per index w with (u, v, w) a rho-consistency triple."""
    def chains(lo, hi):
        u, v = nested[lo:hi].T
        return (rel[v] == NESTED) | ((rel[v] == TRANSVERSE)
                                     & (rel[:, u].T != hhs_checks.ORTHOGONAL))
    return chains


@pytest.mark.parametrize("cap", [None, 1, 500])
def test_rho_chain_triples_in_loop_order(factor4, monkeypatch, cap):
    """An exhaustive ``_sample_pairs`` over the rho-chain mask lists the
    triples as the loop does, also when the mask blocks (one nested pair,
    several nested pairs) split the scan."""
    if cap is not None:
        monkeypatch.setattr(hhs_checks, "MASK_BLOCK", cap)
    nested = np.argwhere(factor4.rel == NESTED)
    ks, ws, spec = hhs_checks._sample_pairs(
        rho_chain_mask(factor4.rel, nested), len(nested),
        factor4.n_indices(), None, 0)
    triples = rho_chain_triples_loop(factor4.rel, nested)
    assert list(zip(ks.tolist(), ws.tolist())) == triples
    assert spec.mode == "exhaustive" and spec.drawn == len(triples)


@given(st.integers(1, 9), st.data(), st.sampled_from([1, 7, None]),
       st.sampled_from([None, 0, 1, 7, 60]), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_rho_chain_triples_on_any_relation_matrix(n, data, block, budget,
                                                  seed):
    """``_sample_pairs`` over the rho-chain mask draws what
    ``sample_indices`` draws from the listed triples, for every relation
    code, orthogonality included, with blocks of one row, of a few rows and
    of MASK_BLOCK entries."""
    codes = [hhs_checks.EQUAL, NESTED, hhs_checks.CONTAINS,
             hhs_checks.ORTHOGONAL, TRANSVERSE]
    rel = np.asarray(data.draw(st.lists(st.sampled_from(codes),
                                        min_size=n * n, max_size=n * n)),
                     dtype=np.int8).reshape(n, n)
    nested = np.argwhere(rel == NESTED)
    triples = rho_chain_triples_loop(rel, nested)
    idx, spec = sample_indices(len(triples), budget, seed)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(hhs_checks, "MASK_BLOCK", block)
        ks, ws, got = hhs_checks._sample_pairs(rho_chain_mask(rel, nested),
                                               len(nested), n, budget, seed)
    assert list(zip(ks.tolist(), ws.tolist())) == [triples[i] for i in idx]
    assert got == spec


def test_structural_reports_nesting_cycles():
    """A 2-cycle and a 3-cycle of nesting fail the relation checks, and the
    complexity counts the chains over the indices on no cycle."""
    point = MetricGraph(1, [])

    def structural(n, nested):
        rel = np.full((n, n), TRANSVERSE, dtype=np.int8)
        np.fill_diagonal(rel, hhs_checks.EQUAL)
        for u, v in nested:
            rel[u, v] = NESTED
        inst = HHSInstance(point, [str(i) for i in range(n)], [point] * n,
                           rel, n - 1, [ProjectionTable.identity(1)] * n,
                           lambda inst, us, vs: None)
        return check_structural(inst)

    # a < b < a, both below S; the mirror of a nesting is a nesting
    rep = structural(3, [(0, 1), (1, 0), (0, 2), (1, 2)])
    assert not rep.passed and rep.complexity == 1
    assert {f["check"] for f in rep.failures} >= {"nesting-antisymmetric",
                                                  "nesting-mirror"}
    # a < b < c < a, and d < S below none of them
    rep = structural(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    assert not rep.passed and rep.complexity == 2
    assert "nesting-transitive" in {f["check"] for f in rep.failures}


def test_structural_catches_broken_relation(factor4):
    rel = factor4.rel.copy()
    # make orthogonality asymmetric between two transverse indices
    pair = np.argwhere(rel == 4)[0]
    rel[pair[0], pair[1]] = 3
    broken = HHSInstance(factor4.X, factor4.labels, factor4.spaces, rel,
                         factor4.maximal, factor4.projections,
                         factor4._rho_provider, factor4.space_to_x,
                         factor4.meta)
    rep = check_structural(broken, rho_pair_budget=10)
    assert not rep.passed


def container_loop(below_eq, O):
    """Reference: the container axiom as a loop over every T and every U
    below T, with each W below T tried in turn."""
    cases, failures = 0, []
    for t in range(len(below_eq)):
        members_t = np.flatnonzero(below_eq[:, t])
        if len(members_t) <= 1:
            continue
        for u in members_t:
            orth = np.flatnonzero(O[u] & below_eq[:, t])
            if len(orth) == 0:
                continue
            cases += 1
            if not any(w != t and below_eq[orth, w].all() for w in members_t):
                failures.append((t, int(u)))
    return cases, failures


@given(st.integers(1, 9), st.data())
@settings(max_examples=150, deadline=None)
def test_container_cases_on_any_relation_matrix(n, data):
    """The container scan over the orthogonal U counts the cases and lists
    the failures of the loop over every (T, U), in its order, for every
    relation code off the diagonal, whether or not orthogonality is
    symmetric.  (The loop's skip of a T with nothing below it differs only
    where an index is orthogonal to itself, which the diagonal check
    fails.)"""
    codes = [hhs_checks.EQUAL, NESTED, hhs_checks.CONTAINS,
             hhs_checks.ORTHOGONAL, TRANSVERSE]
    rel = np.asarray(data.draw(st.lists(st.sampled_from(codes),
                                        min_size=n * n, max_size=n * n)),
                     dtype=np.int8).reshape(n, n)
    np.fill_diagonal(rel, hhs_checks.EQUAL)
    below_eq = (rel == NESTED) | np.eye(n, dtype=bool)
    orth = rel == hhs_checks.ORTHOGONAL
    if data.draw(st.booleans()):
        orth |= orth.T
    assert (hhs_checks._container_cases(below_eq, orth)
            == container_loop(below_eq, orth))


# ---------------------------------------------------------------------------
# consistency / large links / bgi / uniqueness

def test_single_index_checks_are_vacuous():
    inst = trivial_instance(path_graph(6))
    cons = check_consistency(inst)
    assert cons.kappa0 == 0
    ll = check_large_links(inst)
    assert all(v == 0.0 for v in ll["lambda_by_E"].values())
    bgi = check_bgi(inst)
    assert bgi["E_bgi"] == 0 and bgi["observations"] == 0


def test_factor_instance_constants(factor4):
    cons = check_consistency(factor4, seed=1)
    assert cons.kappa0 == 0
    bgi = check_bgi(factor4, seed=1)
    assert bgi["E_bgi"] == 0   # sampled shortlex geodesics off a member
    uniq = check_uniqueness(factor4, seed=1)                # project to a gate
    assert not uniq["saturated_at_grid_max"]


def test_uniqueness_trivial_instance_bounded_by_kappa():
    ball = G.cayley_ball(F2, 3)
    inst = instance_from_ball(ball)
    uniq = check_uniqueness(inst)   # all 1378 pairs
    for kappa, theta in uniq["theta"].items():
        assert theta <= kappa  # d_S = d_X exactly on the trivial instance


def test_uniqueness_flags_collapsed_projection():
    g = path_graph(7)
    collapsed = HHSInstance(
        g, ["S"], [MetricGraph(1, [])], np.zeros((1, 1), dtype=np.int8), 0,
        [ProjectionTable(np.arange(8), np.zeros(7, dtype=np.int32))],
        lambda inst, u, v: None)
    uniq = check_uniqueness(collapsed)
    assert uniq["saturated_at_grid_max"]


def image_of(table, xs):
    """The sorted union of the projection sets of xs, by ``images``."""
    xs = RaggedSets.from_arrays([np.asarray(xs, dtype=np.int64)])
    return table.images(xs)[0].tolist()


def test_projection_image_is_sorted_union():
    # sets [3], [0, 2], [2, 3], [1]
    table = ProjectionTable([0, 1, 3, 5, 6], [3, 0, 2, 2, 3, 1])
    assert image_of(table, [2, 1, 2]) == [0, 2, 3]
    assert image_of(table, []) == []


def table_from_sets(sets):
    """Reference CSR build: one sorted set per X-vertex, in a Python loop."""
    indptr = np.zeros(len(sets) + 1, dtype=np.int64)
    data = []
    for i, s in enumerate(sets):
        data.extend(sorted(int(v) for v in s))
        indptr[i + 1] = len(data)
    return ProjectionTable(indptr, np.asarray(data, dtype=np.int32))


def reverse_projection_loop(table, n_space):
    """Reference: the smallest x whose set holds each vertex, 0 if none."""
    rev = np.full(n_space, -1, dtype=np.int64)
    for x in range(len(table.indptr) - 2, -1, -1):
        rev[table.get(x)] = x
    rev[rev < 0] = 0
    return rev


def carrier_loop(inst, u):
    """Reference downward map C(u) -> X: ``space_to_x[u]``, else the
    reverse projection."""
    if inst.space_to_x[u] is not None:
        return np.asarray(inst.space_to_x[u], dtype=np.int64)
    return reverse_projection_loop(inst.projections[u], inst.spaces[u].n)


def pi_rep_distance(inst, u, xs, ys):
    """d_{C(u)} between the projection representatives of X-vertex arrays,
    asked of the space's own oracle."""
    rep = inst.pi_rep(u)
    return inst.spaces[u].oracle().pairs(rep[xs], rep[ys])


def same_table(a, b):
    return (a.indptr.dtype == b.indptr.dtype and a.data.dtype == b.data.dtype
            and a.indptr.tolist() == b.indptr.tolist()
            and a.data.tolist() == b.data.tolist()
            and a.rep.tolist() == b.rep.tolist())


@st.composite
def projection_tables(draw, max_rows=10, max_space=9):
    """(table, space size): sorted nonempty sets, sometimes all singletons."""
    m = draw(st.integers(1, max_space))
    rows = draw(st.integers(1, max_rows))
    size = 1 if draw(st.booleans()) else m
    sets = [draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=size))
            for _ in range(rows)]
    return table_from_sets(sets), m


@given(projection_tables(), st.data())
@settings(max_examples=80, deadline=None)
def test_table_operations_match_per_vertex_loops(tm, data):
    t, m = tm
    rows = len(t.indptr) - 1
    embed = np.asarray(data.draw(st.lists(st.integers(0, rows - 1),
                                          max_size=15)), dtype=np.int64)
    assert same_table(t.pullback(embed),
                      table_from_sets([t.get(e) for e in embed]))

    # gate: X-vertex -> positions of a coset; pull: position -> t's row
    gate, n_pos = data.draw(projection_tables(max_rows=12, max_space=6))
    pull = np.asarray(data.draw(st.lists(st.integers(0, rows - 1),
                                         min_size=n_pos, max_size=n_pos)),
                      dtype=np.int64)
    assert same_table(t.compose(gate, pull), table_from_sets(
        [image_of(t, pull[gate.get(x)]) for x in range(len(gate.indptr) - 1)]))

    inst = HHSInstance(MetricGraph(rows, []), ["S"], [MetricGraph(m, [])],
                       np.zeros((1, 1), dtype=np.int8), 0, [t],
                       lambda inst, u, v: None)
    assert inst.carrier(0).tolist() == reverse_projection_loop(t, m).tolist()


# ---------------------------------------------------------------------------
# partial realization and products

def test_product_of_lines_is_grid_with_exact_realization():
    Zm = G.free_group(["a"])
    line1 = instance_from_ball(G.cayley_ball(Zm, 4), label="L1")
    line2 = instance_from_ball(G.cayley_ball(Zm, 4), label="L2")
    prod = product_hhs(line1, line2)
    assert check_structural(prod).passed
    # the coordinate point (3, -2): indices 0 = A.L1, 1 = B.L2
    ball = G.cayley_ball(Zm, 4)
    p1 = ball.id_of_text("a a a")
    p2 = ball.id_of_text("a' a'")
    # exactly one point projects to the requested coordinates
    assert len(np.flatnonzero((prod.pi_rep(0) == p1)
                              & (prod.pi_rep(1) == p2))) == 1
    pr = check_partial_realization(prod, seed=2)
    assert pr["alpha"] == 0 and not pr["no_realizer"]


def test_product_point_times_instance(factor4):
    point = trivial_instance(MetricGraph(1, []), label="pt")
    prod = product_hhs(point, factor4)
    assert prod.X.n == factor4.X.n
    assert check_structural(prod).passed
    assert prod.n_indices() == factor4.n_indices() + 2


def test_tree_times_tree_container_axiom():
    t1 = instance_from_ball(G.cayley_ball(F2, 2), label="T1")
    t2 = instance_from_ball(G.cayley_ball(F2, 2), label="T2")
    prod = product_hhs(t1, t2)
    rep = check_structural(prod)
    assert rep.passed and rep.details["container_cases"] >= 1


# ---------------------------------------------------------------------------
# distance formula

def test_distance_formula_trivial_exact():
    inst = instance_from_ball(G.cayley_ball(F2, 3))
    fit = distance_formula_fit(inst, s=1)
    assert (fit["K"], fit["C"], fit["violations"]) == (1, 0, 0)


def test_distance_formula_factor_instance(factor4):
    fit = distance_formula_fit(factor4, s=3)
    assert fit["violations"] == 0
    assert fit["K"] is not None


def test_distance_formula_summand_example():
    # pair e, a3b2 at s=1: the per-index summands are BFS-computable by hand
    ball = G.cayley_ball(F2, 5)
    inst = build_hhs_from_factor_system(
        family_from_cosets(ball, [SUB_A, SUB_B]))
    e = ball.id_of(())
    x = ball.id_of_text("a a a b b")
    assert inst.X.oracle().pairs([e], [x])[0] == 5
    total = 0
    for u in range(inst.n_indices()):
        d = int(inst.spaces[u].oracle().pairs([inst.pi_rep(u)[e]],
                                              [inst.pi_rep(u)[x]])[0])
        total += d if d >= 1 else 0
    # oracle: a-axis contributes 3, the b-coset at a3 contributes 2, the
    # coned top space contributes 2, gates elsewhere contribute 0
    assert total == 7


# ---------------------------------------------------------------------------
# hierarchical quasi-convexity

def test_hqc_whole_space_is_zero(factor4):
    rep = check_hqc(factor4, range(factor4.X.n))
    assert rep.k0 == 0
    assert all(v == 0 for v in rep.k_table.values())


def test_hqc_axis_table_matches_exhaustive_oracle(factor4):
    # independent oracle: for each x, gap(x) = max over indices U of the
    # set distance d_CU(pi_U x, pi_U Y); k(r) = max d_X(x, Y) over gap <= r
    Y = axis_vertices(factor4)
    gaps = np.zeros(factor4.X.n, dtype=np.int64)
    for u in range(factor4.n_indices()):
        table = factor4.projections[u]
        proj = sorted({int(p) for v in Y for p in table.get(v)})
        dist = bfs_distances(factor4.spaces[u], proj).astype(np.int64)
        for x in range(factor4.X.n):
            gaps[x] = max(gaps[x], min(int(dist[p]) for p in table.get(x)))
    dist_y = bfs_distances(factor4.X, Y)
    rep = check_hqc(factor4, Y, r_grid=(0, 1, 2, 3))
    for r in (0, 1, 2, 3):
        expect = int(max(dist_y[gaps <= r], default=0))
        assert rep.k_table[r] == expect
    assert rep.k_table[0] == 0
    # monotone in r
    vals = [rep.k_table[r] for r in (0, 1, 2, 3)]
    assert vals == sorted(vals)


def test_hqc_qc_equivalence_on_axis(factor4):
    Y = axis_vertices(factor4)
    eq = hqc_qc_equivalence(factor4, Y)
    assert eq["q"] == 0 and eq["k0"] == 0
    assert eq["flags"] == []    # the tree is 0-hyperbolic


def test_hqc_qc_flags_non_hyperbolic():
    n = 14
    cyc = MetricGraph(n, [(i, (i + 1) % n) for i in range(n)])
    inst = trivial_instance(cyc)
    eq = hqc_qc_equivalence(inst, [0, 1, 2])
    assert "NotHyperbolicFlag" in eq["flags"]


def test_hqc_sphere_fixture_large_constants(factor4):
    # vertices at full radius form a sphere: far from convex
    radius = factor4.meta["radius"]
    row0 = factor4.X.oracle().row(0)
    sphere = [v for v in range(factor4.X.n) if row0[v] == radius]
    eq = hqc_qc_equivalence(factor4, sphere)
    assert eq["q"] >= radius - 1
    assert eq["k0"] >= 1 or eq["k_table"][3] >= 1


# ---------------------------------------------------------------------------
# normalized instances (a fixture: spaces that are proper subgraphs)

def normalized(inst):
    """Every index space cut down to the connected hull of its projection
    image, the projections and relative projections mapped onto the kept
    vertices; a space its projections cover stays the same object."""
    spaces, tables, carriers, maps = [], [], [], []
    for u, space in enumerate(inst.spaces):
        table = inst.projections[u]
        verts = table.entries()[1]
        carrier = inst.space_to_x[u]
        remap = np.arange(space.n)
        if len(np.unique(verts)) < space.n:
            sub = connected_hull(space, verts)
            kept = sub.vertex_array()
            remap = np.full(space.n, -1, dtype=np.int32)
            remap[kept] = np.arange(len(kept))
            space = sub.induced_graph()
            table = ProjectionTable(table.indptr - table.indptr[0],
                                    remap[verts])
            carrier = None if carrier is None else carrier[kept]
        spaces.append(space)
        tables.append(table)
        carriers.append(carrier)
        maps.append(remap)
    maps = RaggedSets.from_arrays(maps)

    def rho_provider(new_inst, us, vs):
        # the maps are increasing on the kept vertices, so sets stay sorted
        sets, reached = inst.rho_sets(us, vs)
        mapped = maps.flat[maps.offsets[vs][sets.owners()] + sets.flat]
        return (RaggedSets.from_mask(mapped, mapped >= 0, sets.offsets[:-1]),
                reached)

    return HHSInstance(inst.X, inst.labels, spaces, inst.rel.copy(),
                       inst.maximal, tables, rho_provider, carriers,
                       dict(inst.meta, normalized=True))


def test_normalize_identity_on_factor_instance(factor4):
    out = normalized(factor4)
    assert all(a is b for a, b in zip(out.spaces, factor4.spaces))


def test_normalize_removes_spur():
    g = path_graph(4)
    spur_space = MetricGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    inst = HHSInstance(
        g, ["S"], [spur_space], np.zeros((1, 1), dtype=np.int8), 0,
        [ProjectionTable.identity(4)], lambda i, u, v: None,
        space_to_x=[np.arange(4)])
    out = normalized(inst)
    assert out.spaces[0].n == 4
    rep = check_structural(out, rho_pair_budget=10)
    assert rep.passed


def test_normalize_maps_rho_down_through_kept_vertices():
    """Local ids of a restricted space map back to the kept vertices."""
    x = path_graph(4)
    rel = np.asarray([[hhs_checks.EQUAL, NESTED],
                      [hhs_checks.CONTAINS, hhs_checks.EQUAL]], dtype=np.int8)
    # S's space has a spur at 0 that no projection reaches
    inst = HHSInstance(
        x, ["U", "S"], [x, path_graph(5)], rel, 1,
        [ProjectionTable.identity(4),
         ProjectionTable(np.arange(5), np.arange(1, 5))],
        lambda i, u, v: None,
        space_to_x=[np.arange(4), np.asarray([0, 0, 1, 2, 3])])
    out = normalized(inst)
    assert out.spaces[0] is x and out.spaces[1].n == 4
    assert out.pi(1, 0).tolist() == [0]
    # local 0 and 2 of the restricted S are vertices 1 and 3, over X 0 and
    # 2: the carrier map the battery reads
    assert out.space_to_x[1][[0, 2]].tolist() == [0, 2]


# ---------------------------------------------------------------------------
# battery determinism and stability

def test_battery_reproducible(factor4):
    b1 = run_axiom_battery(factor4, seed=9)
    b2 = run_axiom_battery(factor4, seed=9)
    assert b1.to_dict() == b2.to_dict()


def test_battery_stable_across_radii_small():
    stable = {}
    for r in (3, 4):
        inst = build_hhs_from_factor_system(
            family_from_cosets(G.cayley_ball(F2, r), [SUB_A, SUB_B]))
        stable[r] = run_axiom_battery(inst, seed=5).stable_constants()
    assert stable[3] == stable[4]


def test_no_matrix_path_matches_matrix_path(monkeypatch):
    """With matrices capped away the oracles answer from LCA and BFS rows,
    and the instance and its battery come out the same."""
    def build():
        inst = build_hhs_from_factor_system(
            family_from_cosets(G.cayley_ball(F2, 4), [SUB_A, SUB_B]))
        return inst, run_axiom_battery(inst, seed=3)

    inst, battery = build()
    monkeypatch.setattr(graph_core, "MATRIX_CAP", 8)
    capped, capped_battery = build()
    with pytest.raises(BudgetExceeded):
        capped.X.oracle().matrix()
    with pytest.raises(BudgetExceeded):
        capped.spaces[capped.maximal].oracle().matrix()
    assert instances_structurally_equal(capped, inst)
    assert capped_battery.headline() == battery.headline()
    assert capped_battery.to_dict() == battery.to_dict()
