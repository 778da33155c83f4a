"""Pair-batched relative projections against the per-column path.

``HHSInstance.rho_sets(us, vs)`` answers a list of (u, v) pairs with one
provider call per RHO_CHUNK pairs.  The references below are the column
form the constructions used before: a column provider ``column(us, v)``
answers rho^u_v for many u and one target v, ``column_rho_sets`` is the
per-column ``rho_sets`` around it, and ``columns_loop`` asks one column per
distinct target, the way the battery asked.
"""

import numpy as np
import pytest

from hhskit import groups as G
from hhskit import graph_core, hhs_core
from hhskit.embedding import build_augmented_structure
from hhskit.factor_system import family_from_cosets
from hhskit.gog import (GraphOfGroups, MoveRecord, apply_star_move,
                        restrict_to_edge_group)
from hhskit.graph_core import RaggedSets, connected_hull
from hhskit.groups import SubgroupSpec, enumerate_cosets
from hhskit.hhs_core import (EQUAL, NESTED, ORTHOGONAL, TRANSVERSE,
                             build_hhs_from_factor_system, instance_from_ball,
                             instance_from_bundle, instance_to_bundle,
                             product_hhs, run_axiom_battery)
from test_hhs_core import normalized

F2 = G.free_group(["a", "b"])
LINE = G.free_group(["a"])
SUB_A = SubgroupSpec(F2, ["a"], label="A")
SUB_B = SubgroupSpec(F2, ["b"], label="B")


def factor(r):
    return build_hhs_from_factor_system(
        family_from_cosets(G.cayley_ball(F2, r), [SUB_A, SUB_B]))


def line(r, label="line"):
    return instance_from_ball(G.cayley_ball(LINE, r), label=label)


def augmented(r):
    return build_augmented_structure(instance_from_ball(G.cayley_ball(F2, r)),
                                     [(SUB_A, line(r))])


# ---------------------------------------------------------------------------
# the column path

def assemble_column(k, parts):
    """One column of k relative projections; sets meeting in a row merge
    and the last part's ``reached`` holds."""
    reached = np.zeros(k, dtype=bool)
    if len(parts) == 1 and len(parts[0][0]) == k:
        reached[:] = parts[0][2]
        return parts[0][1], reached
    owner, flat = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for rows, sets, hit in parts:
        reached[rows] = hit
        owner.append(np.asarray(rows)[sets.owners()])
        flat.append(sets.flat)
    return (RaggedSets.union(np.concatenate(owner), np.concatenate(flat), k),
            reached)


def column_rho_sets(inst, column, us, v):
    """rho^u_v for every u in ``us``, from one column."""
    us = np.asarray(us, dtype=np.int64)
    rel = inst.rel[us, v]
    rows = np.flatnonzero((rel == NESTED) | (rel == TRANSVERSE))
    out = column(us[rows], v) if len(rows) else None
    sets, reached = assemble_column(len(us), [] if out is None
                                    else [(rows, *out)])
    return sets, reached & (sets.sizes() > 0)


def columns_loop(inst, column, us, vs):
    """rho per pair as a sorted list or None, one column per target."""
    out = [None] * len(us)
    for v in np.unique(vs).tolist():
        rows = np.flatnonzero(vs == v)
        sets, reached = column_rho_sets(inst, column, us[rows], v)
        for i, k in enumerate(rows.tolist()):
            if reached[i]:
                out[k] = sets[i].tolist()
    return out


def trivial_column(us, v):
    return None


def factor_column(inst):
    S = inst.maximal
    members = RaggedSets.from_arrays([inst.space_to_x[u] for u in range(S)])

    def column(us, v):
        sets = members.take(us)
        if v != S:
            sets = inst.projections[v].images(sets)
        return sets, True
    return column


def product_column(prod, a, a_column, b, b_column):
    S, n_a = prod.maximal, a.n_indices()
    csa = a.spaces[a.maximal]

    def column(us, v):
        parts = []
        for f, f_column, lo, shift in ((a, a_column, 0, 0),
                                       (b, b_column, n_a, csa.n)):
            rows = np.flatnonzero((us >= lo) & (us < lo + f.n_indices()))
            local = us[rows] - lo
            if v != S:
                if lo <= v < lo + f.n_indices():
                    parts.append((rows, *column_rho_sets(f, f_column, local,
                                                         v - lo)))
                continue
            sets, reached = column_rho_sets(f, f_column, local, f.maximal)
            top, n_top = rows[local == f.maximal], f.spaces[f.maximal].n
            whole = RaggedSets(np.arange(n_top) + shift, [0, n_top])
            parts += [(rows, RaggedSets(sets.flat + shift, sets.offsets),
                       reached),
                      (top, whole.take(np.zeros(len(top), dtype=np.int64)),
                       True)]
        return assemble_column(len(us), parts)
    return column


def normalize_column(old, old_column, new):
    keep_maps = []
    for u in range(old.n_indices()):
        if new.spaces[u] is old.spaces[u]:
            keep_maps.append(None)
            continue
        space = old.spaces[u]
        kept = connected_hull(space, np.unique(old.projections[u].entries()[1]),
                              label=old.labels[u]).vertex_array()
        remap = np.full(space.n, -1, dtype=np.int32)
        remap[kept] = np.arange(len(kept))
        keep_maps.append(remap)

    def column(us, v):
        sets, reached = column_rho_sets(old, old_column, us, v)
        if keep_maps[v] is None:
            return sets, reached
        mapped = keep_maps[v][sets.flat]
        kept = mapped >= 0
        return (RaggedSets.union(sets.owners()[kept], mapped[kept], len(us)),
                reached)
    return column


def augmented_column(aug):
    """The absorbed structure's column provider, rebuilt from its parts."""
    base, result = aug.base, aug.result
    ball = base.meta["ball"]
    nb, S = base.n_indices(), base.maximal
    coset_data = [(sub_inst, c.representative,
                   np.asarray(c.vertices, dtype=np.int64))
                  for sub, sub_inst in aug.subgroup_structures
                  for c in enumerate_cosets(ball, sub)]
    coset_of, local_of = [-1] * nb, [-1] * nb
    for ci, (sub_inst, _, _) in enumerate(coset_data):
        coset_of += [ci] * sub_inst.n_indices()
        local_of += list(range(sub_inst.n_indices()))
    coset_of, local_of = np.asarray(coset_of), np.asarray(local_of)
    cosets = RaggedSets.from_arrays([verts for *_, verts in coset_data])

    def rho_into_top(u):
        if coset_of[u] < 0:
            sets, reached = base.rho_sets([u], [S])
            return sets[0] if reached[0] else np.zeros(0)
        sub_inst, rep, verts = coset_data[coset_of[u]]
        if local_of[u] == sub_inst.maximal:
            return verts
        sets, reached = sub_inst.rho_sets([local_of[u]], [sub_inst.maximal])
        r = sets[0] if reached[0] else None
        sub_ball = sub_inst.meta["ball"]
        carrier = sub_inst.space_to_x[sub_inst.maximal]
        words = (ball.model.multiply(rep, sub_ball.words[int(carrier[sv])])
                 for sv in ([] if r is None else r))
        return sorted({ball.index[w] for w in words if w in ball.index})

    tops = RaggedSets.from_arrays([np.asarray(rho_into_top(u), dtype=np.int64)
                                   for u in range(result.n_indices())])

    def column(us, v):
        if v < nb:
            old = np.flatnonzero(coset_of[us] < 0)
            parts = [(old, *base.rho_sets(us[old], v))]
            cross = np.flatnonzero(coset_of[us] >= 0)
            if v == S:
                return assemble_column(len(us), parts + [
                    (cross, cosets.take(coset_of[us[cross]]), True)])
        else:
            same = np.flatnonzero(coset_of[us] == coset_of[v])
            sub_inst = coset_data[coset_of[v]][0]
            parts = [(same, *sub_inst.rho_sets(local_of[us[same]],
                                               local_of[v]))]
            cross = np.flatnonzero(coset_of[us] != coset_of[v])
        cross = cross[tops.sizes()[us[cross]] > 0]
        parts.append((cross, result.projections[v].images(
            tops.take(us[cross])), True))
        return assemble_column(len(us), parts)
    return column


def bundle_column(bundle):
    def column(us, v):
        found = [bundle["rho"].get(f"{u},{v}") for u in us.tolist()]
        return (RaggedSets.from_arrays([np.asarray(r or [], dtype=np.int64)
                                        for r in found]),
                np.asarray([r is not None for r in found], dtype=bool))
    return column


def edge_column(edge_inst, parent):
    index_map = edge_inst.meta["index_map"]
    keep = np.asarray([parent.index_of_label(index_map[lab])
                       for lab in edge_inst.labels])

    def column(us, v):
        return parent.rho_sets(keep[us], keep[v])
    return column


def cases():
    """(name, instance, column provider) for every construction."""
    aug4 = augmented(4)
    # a base with proper indices, so old indices have cross pairs too
    ball = G.cayley_ball(F2, 3)
    aug_factor = build_augmented_structure(
        build_hhs_from_factor_system(family_from_cosets(ball, [SUB_B])),
        [(SUB_A, line(3))])
    l3, f2, f3, f4 = line(3, "L"), factor(2), factor(3), factor(4)
    l1, l2 = line(4, "L1"), line(4, "L2")
    prod, lines = product_hhs(l3, f2), product_hhs(l1, l2)
    aug4_column = augmented_column(aug4)
    prod_column = product_column(prod, l3, trivial_column, f2,
                                 factor_column(f2))
    out = [("factor3", f3, factor_column(f3)),
           ("factor4", f4, factor_column(f4)),
           ("augmented4", aug4.result, aug4_column),
           ("augmented_factor_base", aug_factor.result,
            augmented_column(aug_factor)),
           ("product", prod, prod_column),
           # orthogonal factors
           ("product_lines", lines, product_column(lines, l1, trivial_column,
                                                  l2, trivial_column))]
    for name, old, old_column in (("augmented4", aug4.result, aug4_column),
                                  ("product", prod, prod_column)):
        new = normalized(old)
        out.append((f"normalized_{name}", new,
                    normalize_column(old, old_column, new)))
    bundle = instance_to_bundle(aug4.result)
    out.append(("bundle", instance_from_bundle(bundle), bundle_column(bundle)))
    # the edge group <t> -> <a> of F2: its structure keeps the member of
    # <a>'s identity coset and the members nested in it
    gog = GraphOfGroups()
    gog.add_vertex("Q", F2)
    gog = apply_star_move(gog, MoveRecord(
        kind="star-vertex", new_vertex="G", new_group=G.free_group(["c", "d"]),
        connections=[{"target": "Q", "edge": "e",
                      "group": G.free_group(["t"]),
                      "maps": {"G": {"t": "c"}, "Q": {"t": "a"}}}]))
    edge = gog.edges["e"]
    vertex = factor(3)
    vertex.labels[vertex.labels.index("A-coset[e]")] = \
        f"{gog.edge_subgroup(edge, 'Q').label}-coset[e]"
    restricted = restrict_to_edge_group(vertex, gog, edge, "Q", 3)
    out.append(("edge_restriction", restricted,
                edge_column(restricted, vertex)))
    return out


CASES = cases()


def pair_list(inst, seed):
    """Every eligible pair, the EQUAL pairs, the ORTHOGONAL pairs, random
    pairs and repeats, shuffled."""
    n = inst.n_indices()
    rng = np.random.default_rng(seed)
    us, vs = inst.eligible_rho_pairs()
    orth = np.argwhere(inst.rel == ORTHOGONAL)
    pick = rng.integers(0, len(us), size=min(len(us), 50))
    us = np.concatenate([us, np.arange(n), orth[:, 0],
                         rng.integers(0, n, size=n), us[pick]])
    vs = np.concatenate([vs, np.arange(n), orth[:, 1],
                         rng.integers(0, n, size=n), vs[pick]])
    order = rng.permutation(len(us))
    return us[order].astype(np.int64), vs[order].astype(np.int64)


@pytest.mark.parametrize("chunk", [None, 7], ids=["whole", "chunked"])
@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=[name for name, *_ in CASES])
def test_pair_rho_matches_column_loop(monkeypatch, case, chunk):
    """With RHO_CHUNK patched, chunk boundaries fall inside the pair list."""
    if chunk:
        monkeypatch.setattr(hhs_core, "RHO_CHUNK", chunk)
    _, inst, column = CASES[case]
    us, vs = pair_list(inst, seed=case)
    sets, reached = inst.rho_sets(us, vs)
    got = [sets[i].tolist() if reached[i] else None for i in range(len(us))]
    assert got == columns_loop(inst, column, us, vs)
    assert any(r is not None for r in got)
    # neither nested nor transverse: unreached and empty
    rel = inst.rel[us, vs]
    other = (rel == EQUAL) | (rel == ORTHOGONAL)
    assert other.any() and not reached[other].any()
    assert (sets.sizes()[other] == 0).all()


def test_pair_rho_on_empty_input():
    inst = CASES[0][1]
    sets, reached = inst.rho_sets(np.zeros(0, dtype=np.int64),
                                  np.zeros(0, dtype=np.int64))
    assert len(sets) == 0 and len(reached) == 0


@pytest.mark.parametrize("name", ["augmented5", "factor4"])
def test_battery_asks_a_bounded_number_of_rho_calls(name):
    """Asking one column per target index, the battery made 734 provider
    calls on the augmented F2 r=5 instance and 816 on the F2 r=4 factor
    instance.  Pair lists keep it to a few per check."""
    inst = augmented(5).result if name == "augmented5" else factor(4)
    calls = []
    provider = inst._rho_provider

    def counted(*args):
        calls.append(len(args[1]))
        return provider(*args)
    inst._rho_provider = counted
    run_axiom_battery(inst, seed=0)
    assert 0 < len(calls) <= 16


@pytest.mark.parametrize("name", ["augmented4", "product"])
def test_min_over_pairs_matches_each_table(name):
    """Per row, the reduction of that row's own table: on singleton sets
    (the augmented instance) and on the product's two-vertex top sets."""
    inst = dict((n, i) for n, i, _ in CASES)[name]
    rng = np.random.default_rng(1)
    xs = rng.integers(0, inst.X.n, size=9)
    width = max(s.n for s in inst.spaces)
    mixed = np.append(rng.integers(0, inst.n_indices(), size=11), inst.maximal)
    for us in (mixed, np.full(5, inst.maximal)):
        values = rng.integers(0, 50, size=(len(us), width))
        got = inst.store.min_over_pairs(us, xs, values)
        assert got.tolist() == [
            [int(values[i][inst.pi(u, x)].min()) for x in xs]
            for i, u in enumerate(us.tolist())]


@pytest.mark.parametrize("name", ["augmented4", "product"])
def test_sweep_cap_leaves_the_battery_unchanged(monkeypatch, name):
    """With BLOCK_CHUNK at 1 every chunk of a block query holds one row, so
    the scatter back to sample rows crosses many chunk boundaries."""
    inst = dict((n, i) for n, i, _ in CASES)[name]
    whole = run_axiom_battery(inst, seed=0).to_dict()
    monkeypatch.setattr(graph_core, "BLOCK_CHUNK", 1)
    assert run_axiom_battery(inst, seed=0).to_dict() == whole
