"""The per-target battery against the per-pair loops it replaced.

Each reference below is the earlier per-pair form of a check, with its own
distances (plain multi-source BFS) and one ``rho_sets`` call per pair.
The fixtures include instances whose kappa0 is positive and whose
relative projections are partly unreached, so that witness order and the
unreached counts are compared, not only zeros.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhskit import groups as G
from hhskit import hhs_checks
from hhskit.embedding import build_augmented_structure
from hhskit.factor_system import family_from_cosets
from hhskit.gog import (GraphOfGroups, MoveRecord, apply_star_move,
                        run_main_pipeline)
from hhskit.graph_core import (GraphBlock, MetricGraph, RaggedSets,
                               bfs_distances, four_point_delta)
from hhskit.groups import SubgroupSpec
from hhskit.hhs_checks import (CONTAINS, EQUAL, NESTED, ORTHOGONAL,
                               TRANSVERSE, check_bgi, check_consistency,
                               check_large_links, check_partial_realization,
                               check_structural)
from hhskit.hhs_core import (HHSInstance, ProjectionTable,
                             build_hhs_from_factor_system, instance_from_ball,
                             instance_from_bundle, instance_to_bundle,
                             product_hhs)
from hhskit.sampling import (SampleSpec, rng_for, sample_indices,
                             sample_unordered_pairs)
from test_graph_core import diameter_loop
from test_hhs_core import (carrier_loop, container_loop, normalized,
                           pi_rep_distance, rho_chain_triples_loop)

F2 = G.free_group(["a", "b"])
LINE = G.free_group(["a"])
SUB_A = SubgroupSpec(F2, ["a"], label="A")
SUB_B = SubgroupSpec(F2, ["b"], label="B")


def factor(r):
    return build_hhs_from_factor_system(
        family_from_cosets(G.cayley_ball(F2, r), [SUB_A, SUB_B]))


def line(r, label):
    return instance_from_ball(G.cayley_ball(LINE, r), label=label)


def augmented():
    """The F2 r=3 instance with the line structure absorbed along <a>."""
    return build_augmented_structure(instance_from_ball(G.cayley_ball(F2, 3)),
                                     [(SUB_A, line(3, "line"))]).result


def edited_bundle(inst, edit):
    """Round trip through a bundle whose rho entries ``edit`` rewrites."""
    bundle = instance_to_bundle(inst)
    for i, key in enumerate(sorted(bundle["rho"])):
        v = int(key.split(",")[1])
        bundle["rho"][key] = edit(i, bundle["rho"][key],
                                  bundle["spaces"][v]["n"])
    return instance_from_bundle(bundle)


def fixtures():
    prod = product_hhs(line(3, "L"), factor(2))
    aug = augmented()
    gog = GraphOfGroups()
    gog.add_vertex("Q", F2)
    gog = apply_star_move(gog, MoveRecord(
        kind="star-vertex", new_vertex="G", new_group=G.free_group(["c", "d"]),
        connections=[{"target": "Q", "edge": "e",
                      "group": G.free_group(["t"]),
                      "maps": {"G": {"t": "c"}, "Q": {"t": "a"}}}]))
    gog, _ = run_main_pipeline(gog, base_vertices=["Q"], radius=3, seed=5)
    out = {
        # orthogonal factors
        "lines": product_hhs(line(4, "L1"), line(4, "L2")),
        # kappa0 = 1 from the nested section
        "product": prod,
        "normalized": normalized(aug),
        "bundle": instance_from_bundle(instance_to_bundle(prod)),
        # every third rho unreached
        "holes": edited_bundle(prod, lambda i, r, n: None if i % 3 == 0 else r),
        # every fifth rho moved to the last vertex of its space: kappa0
        # comes from the transverse and rho-chain sections
        "far": edited_bundle(prod, lambda i, r, n: [n - 1] if i % 5 == 0
                             else None if i % 7 == 0 else r),
        # every other rho moved: bounded geodesic image violations in
        # more than one W, interleaved in sample order
        "far_half": edited_bundle(prod, lambda i, r, n: [n - 1] if i % 2
                                  else r),
        "factor3": factor(3),
        "gog_Q": gog.vertices["Q"].instance,
    }
    # every fourth rho reached but empty, which counts as unreached
    out["empty"] = edited_bundle(prod, lambda i, r, n: [] if i % 4 == 0
                                 else r)
    for e in gog.edges.values():
        for v, inst in e.instance.items():
            out[f"gog_edge_{v}"] = inst
    return out


FIXTURES = fixtures()
NAMES = sorted(FIXTURES)


# ---------------------------------------------------------------------------
# references: the per-pair loops

def pi_min_loop(inst, u, xs, target):
    dist = bfs_distances(inst.spaces[u], target)
    return np.asarray([dist[inst.pi(u, int(x))].min() for x in xs])


def rho_or_none(inst, u, v):
    """rho^u_v, or None when it is unreached or empty."""
    sets, reached = inst.rho_sets([u], [v])
    return sets[0] if reached[0] else None


def consistency_loop(inst, pair_budget=20_000, point_budget=60,
                     triple_budget=40_000, seed=0):
    rng = rng_for(seed)
    xs = (np.arange(inst.X.n) if inst.X.n <= point_budget
          else np.sort(rng.choice(inst.X.n, size=point_budget, replace=False)))
    kappa, witness, unreached = 0, None, 0
    trans = np.argwhere(np.triu(inst.rel == TRANSVERSE, k=1))
    tidx, tspec = sample_indices(len(trans), pair_budget, seed)
    for k in tidx:
        u, v = int(trans[k][0]), int(trans[k][1])
        rho_vu, rho_uv = rho_or_none(inst, v, u), rho_or_none(inst, u, v)
        if rho_vu is None or rho_uv is None:
            unreached += 1
            continue
        m = np.minimum(pi_min_loop(inst, u, xs, rho_vu),
                       pi_min_loop(inst, v, xs, rho_uv))
        i = int(np.argmax(m))
        if m[i] > kappa:
            kappa = int(m[i])
            witness = {"kind": "transverse",
                       "pair": (inst.labels[u], inst.labels[v]),
                       "x": int(xs[i])}
    nested = np.argwhere(inst.rel == NESTED)
    nidx, nspec = sample_indices(len(nested), pair_budget, seed + 1)
    for k in nidx:
        v, w = int(nested[k][0]), int(nested[k][1])
        rho_vw = rho_or_none(inst, v, w)
        if rho_vw is None:
            unreached += 1
            continue
        mw = pi_min_loop(inst, w, xs, rho_vw)
        down = inst.pi_rep(v)[carrier_loop(inst, w)[inst.pi_rep(w)[xs]]]
        mv = np.asarray([bfs_distances(inst.spaces[v], [a])[b] for a, b
                         in zip(inst.pi_rep(v)[xs], down)])
        m = np.minimum(mw, mv)
        i = int(np.argmax(m))
        if m[i] > kappa:
            kappa = int(m[i])
            witness = {"kind": "nested",
                       "pair": (inst.labels[v], inst.labels[w]),
                       "x": int(xs[i])}
    triples = rho_chain_triples_loop(inst.rel, nested)
    tridx, trspec = sample_indices(len(triples), triple_budget, seed + 2)
    for k, w in (triples[i] for i in tridx):
        u, v = int(nested[k][0]), int(nested[k][1])
        ru, rv = rho_or_none(inst, u, w), rho_or_none(inst, v, w)
        if ru is None or rv is None:
            unreached += 1
            continue
        d = int(bfs_distances(inst.spaces[w], ru)[rv].min())
        if d > kappa:
            kappa = d
            witness = {"kind": "rho-chain",
                       "triple": (inst.labels[u], inst.labels[v],
                                  inst.labels[w])}
    samples = {"transverse": tspec.to_dict(), "nested": nspec.to_dict(),
               "rho_chain": trspec.to_dict(), "points": len(xs)}
    return {"kappa0": kappa, "witness": witness, "samples": samples,
            "unreached": unreached}


def structural_rho_loop(inst, rho_pair_budget, seed):
    """(xi, unreached, sample) from the pi set diameters and a per-pair
    scan of the sampled rho diameters."""
    xi = max((diameter_loop(inst.spaces[u], s)
              for u, t in enumerate(inst.projections)
              for s in {tuple(t.get(x).tolist()) for x in range(t.n)}
              if len(s) > 1), default=0)
    us, vs = inst.eligible_rho_pairs()
    idx, spec = sample_indices(len(us), rho_pair_budget, seed)
    unreached = 0
    for u, v in zip(us[idx].tolist(), vs[idx].tolist()):
        r = rho_or_none(inst, u, v)
        if r is None:
            unreached += 1
        elif len(r) > 1:
            xi = max(xi, diameter_loop(inst.spaces[v], r))
    return xi, unreached, spec.to_dict()


def bgi_observations(inst, pair_budget=4000, geodesics_per_pair=12, seed=0):
    """(avoid, image, diam, V, W) per geodesic in sample and draw order,
    diam the largest ``pairs`` distance over the image, and the unreached
    count and sample spec."""
    rng = rng_for(seed)
    nested = np.argwhere(inst.rel == NESTED)
    idx, spec = sample_indices(len(nested), pair_budget, seed)
    observations = []
    unreached = 0
    for k in idx:
        v, w = int(nested[k][0]), int(nested[k][1])
        rho = rho_or_none(inst, v, w)
        if rho is None:
            unreached += 1
            continue
        cw = inst.spaces[w]
        oracle_w = cw.oracle()
        dist_rho = bfs_distances(cw, rho)
        carrier = carrier_loop(inst, w)
        rep_v = inst.pi_rep(v)
        for _ in range(geodesics_per_pair):
            a, b = int(rng.integers(0, cw.n)), int(rng.integers(0, cw.n))
            if a == b:
                continue
            path = np.asarray(oracle_w.geodesic(a, b), dtype=np.int64)
            image = np.unique(rep_v[carrier[path]])
            diam = diameter_loop(inst.spaces[v], image)
            observations.append((int(dist_rho[path].min()), tuple(image),
                                 diam, inst.labels[v], inst.labels[w]))
    return observations, unreached, spec


def bgi_loop(inst, E_grid=(0, 1, 2, 3, 4, 6, 8), pair_budget=4000,
             geodesics_per_pair=12, seed=0):
    observations, unreached, spec = bgi_observations(
        inst, pair_budget, geodesics_per_pair, seed)
    observations = [(a, d, v, w) for a, _, d, v, w in observations]
    E_bgi = None
    for E in sorted(E_grid):
        if all(diam <= E for avoid, diam, *_ in observations if avoid > E):
            E_bgi = E
            break
    violations = []
    if E_bgi is None:
        Emax = max(E_grid)
        violations = [{"V": v, "W": w, "avoid": a, "diam": d}
                      for a, d, v, w in observations if a > Emax and d > Emax]
    return {"E_bgi": E_bgi, "violations": violations[:8],
            "observations": len(observations), "unreached": unreached,
            "sample": spec.to_dict()}


def large_links_loop(inst, E_grid=hhs_checks.DEFAULT_E_GRID, pair_budget=150,
                     seed=0):
    rng = rng_for(seed)
    n = inst.n_indices()
    parents = np.flatnonzero((inst.rel == NESTED).any(axis=0))
    if inst.X.n * (inst.X.n - 1) // 2 <= pair_budget:
        us, vs, spec = sample_unordered_pairs(inst.X.n, pair_budget, seed)
    else:
        us = rng.integers(0, inst.X.n, size=pair_budget)
        vs = rng.integers(0, inst.X.n, size=pair_budget)
        keep = us != vs
        us, vs = us[keep], vs[keep]
        spec = SampleSpec("sampled", inst.X.n * (inst.X.n - 1) // 2,
                          len(us), seed)
    results = {E: 0.0 for E in E_grid}
    witnesses = {}
    no_finite = []
    for w in parents:
        children = np.flatnonzero(inst.rel[:, w] == NESTED)
        ds = np.stack([pi_rep_distance(inst, int(t), us, vs)
                       for t in children])           # (|children|, pairs)
        dw = pi_rep_distance(inst, w, us, vs)
        rhos, reached = inst.rho_sets(children, w)
        reached &= rhos.sizes() > 0
        rel_sub = inst.rel[np.ix_(children, children)]
        oracle_w = inst.spaces[w].oracle()
        for pi in range(len(us)):
            col = ds[:, pi]
            pi_set = inst.pi(w, int(us[pi]))
            for E in E_grid:
                viol = np.flatnonzero(col >= E)
                if len(viol) == 0:
                    continue
                sub = rel_sub[np.ix_(viol, viol)]
                maximal = viol[~(sub == NESTED).any(axis=1)]
                if not reached[maximal].all():
                    no_finite.append({"W": inst.labels[w], "E": int(E),
                                      "detail": "unreached rho for cover"})
                    continue
                lam1 = len(maximal) / (dw[pi] + 1.0)
                dist_side = max(
                    int(oracle_w.block(pi_set, rhos[ci]).min())
                    for ci in maximal)
                lam2 = dist_side / (dw[pi] + 1.0)
                need = max(lam1, lam2)
                if need > results[E]:
                    results[E] = float(need)
                    witnesses[E] = {"W": inst.labels[w],
                                    "pair": (int(us[pi]), int(vs[pi])),
                                    "cover": len(maximal)}
    return {"lambda_by_E": {int(E): results[E] for E in E_grid},
            "witnesses": {int(E): witnesses.get(E) for E in E_grid},
            "no_finite_lambda": no_finite[:8],
            "sample": spec.to_dict()}


def realization_gap_loop(inst, assignments):
    all_x = np.arange(inst.X.n)
    need = np.zeros(inst.X.n, dtype=np.int64)
    for v, p in assignments:
        np.maximum(need, pi_min_loop(inst, v, all_x, [int(p)]), out=need)
        for w in range(inst.n_indices()):
            if inst.rel[v, w] in (NESTED, TRANSVERSE):
                rw = rho_or_none(inst, v, w)
                if rw is None:
                    continue
                np.maximum(need, pi_min_loop(inst, w, all_x, rw), out=need)
    return need


def partial_realization_loop(inst, family_budget=12, points_per_family=3,
                             alpha_cap=8, seed=0):
    rng = rng_for(seed)
    n = inst.n_indices()
    orth_pairs = np.argwhere(np.triu(inst.rel == ORTHOGONAL, k=1))
    families = [[int(v)] for v in
                rng.choice(n, size=min(n, family_budget), replace=False)]
    if len(orth_pairs):
        take = rng.choice(len(orth_pairs),
                          size=min(len(orth_pairs), family_budget),
                          replace=False)
        families += [[int(orth_pairs[i][0]), int(orth_pairs[i][1])]
                     for i in take]
    alpha, witness, failures = 0, None, []
    for fam in families:
        for _ in range(points_per_family):
            targets = [int(inst.pi_rep(v)[int(rng.integers(0, inst.X.n))])
                       for v in fam]
            need = realization_gap_loop(inst, list(zip(fam, targets)))
            i = int(np.argmin(need))
            if need[i] > alpha:
                alpha = int(need[i])
                witness = {"family": [inst.labels[v] for v in fam],
                           "realizer": i}
            if need[i] > alpha_cap:
                failures.append({"family": [inst.labels[v] for v in fam],
                                 "best": int(need[i])})
    return {"alpha": alpha, "witness": witness, "no_realizer": failures[:8],
            "families_scanned": len(families), "seed": seed}


# ---------------------------------------------------------------------------
# the checks against the loops

def test_fixtures_cover_positive_kappa_and_unreached_rho():
    reports = {name: check_consistency(FIXTURES[name], seed=1).to_dict()
               for name in ("product", "holes", "far")}
    assert all(r["kappa0"] > 0 for r in reports.values())
    assert reports["holes"]["unreached"] > 0
    assert reports["far"]["witness"]["kind"] == "rho-chain"
    # without the rho-chain section, the transverse one sets kappa0
    far = check_consistency(FIXTURES["far"], seed=1, triple_budget=0)
    assert far.kappa0 > 0 and far.witness["kind"] == "transverse"


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [0, 1])
def test_consistency_matches_per_pair_loop(monkeypatch, name, seed):
    inst = FIXTURES[name]
    if seed:
        # relation-matrix blocks of a row or a few
        monkeypatch.setattr(hhs_checks, "MASK_BLOCK", 50)
    assert check_consistency(inst, seed=seed).to_dict() == \
        consistency_loop(inst, seed=seed)
    # sampled scans: a few pairs and points, so sample order matters
    small = {"pair_budget": 40, "point_budget": 7, "triple_budget": 60}
    assert check_consistency(inst, seed=seed, **small).to_dict() == \
        consistency_loop(inst, seed=seed, **small)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("budget", [None, 50])
def test_structural_rho_scan_matches_per_pair_loop(monkeypatch, name, budget):
    inst = FIXTURES[name]
    if budget:
        # relation-matrix blocks of a row or a few
        monkeypatch.setattr(hhs_checks, "MASK_BLOCK", 50)
    rep = check_structural(inst, rho_pair_budget=budget, seed=2)
    assert (rep.xi, rep.unreached_rho, rep.rho_sample.to_dict()) == \
        structural_rho_loop(inst, budget, 2)


@pytest.mark.parametrize("name", NAMES)
def test_structural_container_cases_match_loop(name):
    """The container axiom counts the loop's cases and reports its
    failures in its order; the product fixtures have orthogonal pairs."""
    inst = FIXTURES[name]
    below_eq = (inst.rel == NESTED) | np.eye(inst.n_indices(), dtype=bool)
    cases, failures = container_loop(below_eq, inst.rel == ORTHOGONAL)
    rep = check_structural(inst, seed=2)
    assert rep.details["container_cases"] == cases
    assert [f["witness"] for f in rep.failures if f["check"] == "container"] \
        == [(inst.labels[t], inst.labels[u]) for t, u in failures]


@pytest.mark.parametrize("name", NAMES)
def test_rep_distances_match_each_space(name):
    """``_rep_distances`` over every index gives each space's distance
    between the representatives, and leaves out the one-vertex spaces."""
    inst = FIXTURES[name]
    n = inst.n_indices()
    xs, ys, _ = sample_unordered_pairs(inst.X.n, 300, 0)
    got = np.zeros((n, len(xs)), dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for rows, d in hhs_checks._rep_distances(inst, np.arange(n), xs, ys):
        got[rows], seen[rows] = d, True
    assert seen.tolist() == [space.n > 1 for space in inst.spaces]
    for u in range(n):
        assert got[u].tolist() == pi_rep_distance(inst, u, xs, ys).tolist()


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("budget", [4000, 9])
@pytest.mark.parametrize("grid", [(0, 1, 2, 3, 4, 6, 8), (0,)])
def test_bgi_matches_per_pair_loop(name, budget, grid):
    """The one-point grid leaves E_bgi unset, so the violations are listed
    and their order is compared too."""
    inst = FIXTURES[name]
    assert check_bgi(inst, E_grid=grid, pair_budget=budget, seed=3) == \
        bgi_loop(inst, E_grid=grid, pair_budget=budget, seed=3)


@pytest.fixture(scope="module")
def bgi_instances():
    return {"factor4": factor(4), "factor5": factor(5),
            "augmented": augmented()}


@pytest.mark.parametrize("name", ["factor4", "factor5", "augmented"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bgi_diameters_match_per_image_loop(monkeypatch, bgi_instances,
                                            name, seed):
    """Every geodesic image of two or more vertices is measured once, by
    its block, to the largest ``pairs`` distance over it; the others are
    0."""
    inst = bgi_instances[name]
    measured = []
    diameters = GraphBlock.diameters

    def spy(block, slots, sets):
        d = diameters(block, slots, sets)
        measured.extend((tuple(sets[i].tolist()), int(x))
                        for i, x in enumerate(d.tolist()))
        return d

    monkeypatch.setattr(GraphBlock, "diameters", spy)
    report = check_bgi(inst, seed=seed)
    observations, _, _ = bgi_observations(inst, seed=seed)
    assert Counter(measured) == Counter(
        (image, diam) for _, image, diam, _, _ in observations
        if len(image) > 1)
    assert report == bgi_loop(inst, seed=seed)


def test_fixtures_cover_large_link_edge_cases():
    """Unreached covers, nesting among the children of one W (a nonempty
    cover join) and rho that the bundle stores reached but empty, which
    ``rho_sets`` reports unreached."""
    assert check_large_links(FIXTURES["holes"], seed=0)["no_finite_lambda"]
    nested_children = False
    for inst in FIXTURES.values():
        for w in range(inst.n_indices()):
            children = np.flatnonzero(inst.rel[:, w] == NESTED)
            sub = inst.rel[np.ix_(children, children)]
            nested_children |= bool((sub == NESTED).any())
    assert nested_children
    inst = FIXTURES["empty"]
    us, vs = inst.eligible_rho_pairs()
    stored = [inst._rho_provider(inst, np.asarray([u]), np.asarray([v]))
              for u, v in zip(us.tolist(), vs.tolist())]
    empty = [reached[0] and sets.sizes()[0] == 0 for sets, reached in stored]
    assert any(empty)
    assert inst.rho_sets(us, vs)[1].tolist() == [
        reached[0] and not e for (_, reached), e in zip(stored, empty)]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("kwargs", [{}, {"pair_budget": 7}, {"pair_budget": 0},
                                    {"E_grid": (1,)}],
                         ids=["default", "budget7", "budget0", "grid1"])
def test_large_links_matches_per_pair_loop(name, seed, kwargs):
    inst = FIXTURES[name]
    assert check_large_links(inst, seed=seed, **kwargs) == \
        large_links_loop(inst, seed=seed, **kwargs)


@pytest.mark.parametrize("name", NAMES)
def test_partial_realization_matches_per_point_loop(name):
    inst = FIXTURES[name]
    assert check_partial_realization(inst, family_budget=4, seed=4) == \
        partial_realization_loop(inst, family_budget=4, seed=4)


@pytest.mark.parametrize("name", NAMES)
def test_rho_columns_match_one_pair_calls(name):
    """A column over shuffled, repeated sources gives each pair's rho."""
    inst = FIXTURES[name]
    n = inst.n_indices()
    us = np.random.default_rng(7).integers(0, n, size=2 * n + 3)
    for v in range(n):
        sets, reached = inst.rho_sets(us, v)
        for i, u in enumerate(us.tolist()):
            r = rho_or_none(inst, u, v)
            assert reached[i] == (r is not None)
            assert sets[i].tolist() == ([] if r is None else r.tolist())


def test_augmented_cross_rho_unreached_where_top_rho_is():
    """A cross pair composes through rho^u_S, so it is unreached with it."""
    base = factor(2)
    provider = base._rho_provider

    def holed(inst, us, v):
        sets, reached = provider(inst, us, v)
        return sets, reached & ((us != 0) | (v != base.maximal))
    base._rho_provider = holed
    aug = build_augmented_structure(base, [(SUB_A, line(2, "line"))]).result
    assert rho_or_none(base, 0, base.maximal) is None
    new = np.flatnonzero(aug.rel[0] == TRANSVERSE)
    new = new[new >= base.n_indices()]
    assert len(new) and not aug.rho_sets(0, new)[1].any()
    assert aug.rho_sets(1, new)[1].all()


# ---------------------------------------------------------------------------
# relation joins against the dense products they replaced

def relation_witnesses_dense(rel):
    N = (rel == NESTED).astype(np.int64)
    O = (rel == ORTHOGONAL).astype(np.int64)
    out = {}
    bad = ((N @ N) > 0) & (N == 0)
    if bad.any():
        out["nesting-transitive"] = tuple(int(x) for x in np.argwhere(bad)[0])
    bad = ((N @ O) > 0) & (O == 0)
    np.fill_diagonal(bad, False)
    if bad.any():
        out["orthogonality-inherited"] = tuple(
            int(x) for x in np.argwhere(bad)[0])
    return out


@given(st.integers(1, 9), st.data())
@settings(max_examples=80, deadline=None)
def test_relation_joins_match_dense_products(n, data):
    codes = [EQUAL, NESTED, CONTAINS, ORTHOGONAL, TRANSVERSE]
    rel = np.asarray(data.draw(st.lists(st.sampled_from(codes),
                                        min_size=n * n, max_size=n * n)),
                     dtype=np.int8).reshape(n, n)
    point = MetricGraph(1, [])
    inst = HHSInstance(point, [str(i) for i in range(n)], [point] * n, rel,
                       0, [ProjectionTable.identity(1)] * n,
                       lambda inst, us, v: None)
    got = {f["check"]: tuple(int(x) for x in f["witness"])
           for f in check_structural(inst).failures
           if f["check"] in ("nesting-transitive", "orthogonality-inherited")}
    assert got == relation_witnesses_dense(rel)


def sample_pairs_walk(mask_row, n, budget, seed):
    """Reference: count, then unrank, with one ``mask_row(u)`` per row."""
    counts = np.asarray([np.count_nonzero(mask_row(u)) for u in range(n)],
                        dtype=np.int64)
    ends = np.cumsum(counts)
    idx, spec = sample_indices(int(ends[-1]) if n else 0, budget, seed)
    us = np.searchsorted(ends, idx, side="right")
    vs = np.empty_like(us)
    cuts = np.searchsorted(us, np.arange(n + 1))
    for u in np.unique(us).tolist():
        lo, hi = cuts[u], cuts[u + 1]
        vs[lo:hi] = np.flatnonzero(mask_row(u))[idx[lo:hi] - ends[u]
                                                + counts[u]]
    return us, vs, spec


@pytest.mark.parametrize("block", [None, 1, 7])
@given(st.integers(0, 12), st.integers(0, 40), st.integers(0, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_sample_pairs_match_row_walk(block, n, budget, seed, data):
    """The same pairs in the same order as the row walk, for both masks the
    checks use, with blocks of one row and blocks that split the rows."""
    codes = [EQUAL, NESTED, CONTAINS, ORTHOGONAL, TRANSVERSE]
    rel = np.asarray(data.draw(st.lists(st.sampled_from(codes),
                                        min_size=n * n, max_size=n * n)),
                     dtype=np.int8).reshape(n, n)
    masks = [(lambda u: (rel[u] == NESTED) | (rel[u] == TRANSVERSE),
              lambda lo, hi: ((rel[lo:hi] == NESTED)
                              | (rel[lo:hi] == TRANSVERSE))),
             (lambda u: (rel[u] == TRANSVERSE) & (np.arange(n) > u),
              lambda lo, hi: np.triu(rel[lo:hi] == TRANSVERSE, 1 + lo))]
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(hhs_checks, "MASK_BLOCK", block * max(n, 1))
        for mask_row, mask_rows in masks:
            us, vs, spec = hhs_checks._sample_pairs(mask_rows, n, n, budget,
                                                    seed)
            eus, evs, espec = sample_pairs_walk(mask_row, n, budget, seed)
            assert (us.tolist(), vs.tolist(), spec) == \
                (eus.tolist(), evs.tolist(), espec)


# ---------------------------------------------------------------------------
# projection tables

@st.composite
def tables(draw):
    m = draw(st.integers(1, 9))
    sets = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=1,
                                 max_size=m), min_size=1, max_size=10))
    indptr = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in sets], out=indptr[1:])
    return ProjectionTable(indptr, [v for s in sets for v in sorted(s)]), m


def image_loop(table, xs):
    """The old image: a per-call set union."""
    out = set()
    for x in xs:
        out.update(int(v) for v in table.get(x))
    return sorted(out)


@given(tables(), st.data())
@settings(max_examples=80, deadline=None)
def test_images_match_set_union_loop(tm, data):
    t, m = tm
    rows = len(t.rep)
    xsets = data.draw(st.lists(st.lists(st.integers(0, rows - 1), max_size=6),
                               max_size=8))
    got = t.images(RaggedSets.from_arrays([np.asarray(x, dtype=np.int64)
                                           for x in xsets]))
    assert [got[i].tolist() for i in range(len(xsets))] == \
        [image_loop(t, x) for x in xsets]


# ---------------------------------------------------------------------------
# the battery's space delta

def space_delta_loop(inst, seed, delta_budget=40_000):
    """Reference: one four-point delta per index, shared spaces included."""
    delta = 0.0
    for u in range(inst.n_indices()):
        space = inst.spaces[u]
        budget = None if space.n <= 40 else delta_budget
        delta = max(delta, four_point_delta(space, budget=budget,
                                            seed=seed).delta)
    return delta


@pytest.mark.parametrize("name", ["absorbed", "factor3", "gog_Q", "product"])
def test_battery_delta_once_per_distinct_space(monkeypatch, name):
    if name == "absorbed":
        # the cosets of the absorbed line share one space
        inst = build_augmented_structure(
            instance_from_ball(G.cayley_ball(F2, 3)),
            [(SUB_A, line(3, "line"))]).result
        assert len({id(s) for s in inst.spaces}) < inst.n_indices() - 8
    else:
        inst = FIXTURES[name]
    calls = []

    def counted(space, **kwargs):
        calls.append(space)
        return four_point_delta(space, **kwargs)

    monkeypatch.setattr(hhs_checks, "four_point_delta", counted)
    battery = hhs_checks.run_axiom_battery(inst, seed=4)
    assert len(calls) == len({id(s) for s in inst.spaces})
    reference = dataclasses.replace(battery,
                                    delta=space_delta_loop(inst, seed=4))
    assert battery.to_dict() == reference.to_dict()
