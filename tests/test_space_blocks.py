"""Index spaces in vertex-count blocks, against per-space distances.

``HHSInstance.blocks`` holds every distinct index space once, in a
``GraphBlock`` per vertex count: a stack of all-pairs matrices up to
MATRIX_CAP vertices, a block of one on its own oracle above it.  The
references below are the per-index loops the battery ran before, one
oracle query per index space.
"""

import pathlib
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhskit import graph_core, hhs_checks
from hhskit import groups as G
from hhskit.embedding import build_augmented_structure
from hhskit.errors import Disconnected
from hhskit.factor_system import family_from_cosets
from hhskit.graph_core import (DistanceOracle, GraphBlock, MetricGraph,
                               RaggedSets, quasiconvexity_constant)
from hhskit.groups import SubgroupSpec
from hhskit.hhs_core import (NESTED, HHSInstance, ProjectionTable,
                             build_hhs_from_factor_system, check_hqc,
                             distance_formula_fit, instance_from_ball,
                             product_hhs, run_axiom_battery)
from hhskit.sampling import sample_indices, sample_unordered_pairs
from test_graph_core import (bfs_levels, connected_graphs, diameter_loop,
                             path_graph, scattered_graphs)
from test_hhs_core import image_of, pi_rep_distance

F2 = G.free_group(["a", "b"])
LINE = G.free_group(["a"])
SUB_A = SubgroupSpec(F2, ["a"], label="A")
SUB_B = SubgroupSpec(F2, ["b"], label="B")
CAP = 6


def factor(r):
    return build_hhs_from_factor_system(
        family_from_cosets(G.cayley_ball(F2, r), [SUB_A, SUB_B]))


def line(r, label="line"):
    return instance_from_ball(G.cayley_ball(LINE, r), label=label)


def augmented():
    return build_augmented_structure(instance_from_ball(G.cayley_ball(F2, 4)),
                                     [(SUB_A, line(4))], seed=3).result


@st.composite
def spaced_instances(draw):
    """An instance over a path whose index spaces mix one-vertex graphs,
    graphs of one vertex count with different edges (some disconnected),
    space objects shared by several indices, and one graph over CAP."""
    graphs = [MetricGraph(1, []), MetricGraph(1, []),
              draw(connected_graphs(max_n=CAP + 4, min_n=CAP + 1))]
    graphs += draw(st.lists(st.one_of(connected_graphs(max_n=CAP),
                                      scattered_graphs(max_n=CAP)),
                            min_size=2, max_size=8))
    picks = draw(st.lists(st.integers(0, len(graphs) - 1), min_size=1,
                          max_size=14))
    spaces = [graphs[i] for i in picks + list(range(len(graphs)))]
    X = path_graph(7)
    tables = [ProjectionTable(np.arange(X.n + 1), np.arange(X.n) % g.n)
              for g in spaces]
    inst = HHSInstance(X, [f"u{i}" for i in range(len(spaces))], spaces,
                       np.zeros((len(spaces),) * 2), 0, tables,
                       lambda inst, us, vs: None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_core, "MATRIX_CAP", CAP)
        inst.blocks
    return inst


@given(spaced_instances())
@settings(max_examples=40, deadline=None)
def test_every_stack_equals_per_space_bfs(inst):
    """Each distinct space sits in one slot of the block of its vertex
    count, whose matrix there is its BFS rows and is the matrix its oracle
    reads; the space over the cap is a block of one with no stack."""
    blocks, block_of, slot_of = inst.blocks
    keys = np.unique(inst.space_keys)
    assert sum(len(block.graphs) for block in blocks) == len(keys)
    assert len({block.n for block in blocks if block.n <= CAP}) == len(
        [block for block in blocks if block.n <= CAP])
    for u, space in enumerate(inst.spaces):
        block, slot = blocks[block_of[u]], slot_of[u]
        assert block.graphs[slot] is space and block.n == space.n
        if space.n > CAP:
            assert block.stack is None and len(block.graphs) == 1
            continue
        rows = [bfs_levels(space, [v]).tolist() for v in range(space.n)]
        assert block.stack[slot].tolist() == rows
        assert np.shares_memory(space.oracle().matrix(), block.stack)
        # the fill recorded the connectivity, so asking runs no BFS
        assert space.__dict__["is_connected"] == (min(rows[0]) >= 0)


def test_battery_delta_raises_on_a_disconnected_stacked_space():
    """The battery's delta loop reads the connectivity the stack fill
    recorded, and a disconnected space still raises."""
    spaces = [path_graph(3), MetricGraph(3, [(0, 1)]), path_graph(4)]
    X = path_graph(7)
    tables = [ProjectionTable(np.arange(X.n + 1), np.arange(X.n) % g.n)
              for g in spaces]
    inst = HHSInstance(X, ["u0", "u1", "u2"], spaces, np.zeros((3, 3)), 0,
                       tables, lambda inst, us, vs: None)
    inst.blocks
    assert [g.__dict__["is_connected"] for g in spaces] == [True, False, True]
    with pytest.raises(Disconnected):
        run_axiom_battery(inst)


@given(spaced_instances(), st.data())
@settings(max_examples=40, deadline=None)
def test_block_queries_answer_like_each_space(inst, data):
    """Every query of a block, asked for rows in several slots at once,
    equals the per-space answer: rows to sets, set diameters and
    distances, representative pairs, geodesic walks and quasi-convexity."""
    blocks, _, _ = inst.blocks
    for block in blocks:
        k = len(block.graphs)
        slots = np.asarray(data.draw(st.lists(st.integers(0, k - 1),
                                              min_size=1, max_size=6)))
        sets = [np.unique(data.draw(st.lists(st.integers(0, block.n - 1),
                                             min_size=1, max_size=4)))
                for _ in slots]
        ragged = RaggedSets.from_arrays(sets)
        graphs = [block.graphs[s] for s in slots]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_core, "BLOCK_CHUNK", data.draw(
                st.sampled_from([1, graph_core.BLOCK_CHUNK])))
            rows = np.concatenate([r for _, _, r in block.set_rows(
                slots, ragged, np.arange(len(slots)), 0)])
            # row i reads three vertices of set i, in its own graph
            table = np.stack([np.resize(x, 3) for x in sets])
            pairs = np.concatenate([d for _, _, d in block.table_pairs(
                slots, table, np.arange(len(slots)), np.arange(3),
                np.asarray([2, 0, 1]))])
        assert rows.tolist() == [bfs_levels(g, x).tolist()
                                 for g, x in zip(graphs, sets)]
        assert pairs.tolist() == [[int(bfs_levels(g, [a])[b])
                                   for a, b in zip(t, t[[2, 0, 1]])]
                                  for g, t in zip(graphs, table)]
        assert block.diameters(slots, ragged).tolist() == [
            diameter_loop(g, x) for g, x in zip(graphs, sets)]
        # the least pair distance, -1 where a pair is unreached
        both = RaggedSets.from_arrays(sets + sets[::-1])
        m = len(sets)
        assert block.set_distances(slots, both, np.arange(m),
                                   np.arange(m, 2 * m)).tolist() == [
            min(int(bfs_levels(g, [a])[b]) for a in x for b in y)
            for g, x, y in zip(graphs, sets, sets[::-1])]
        src = np.asarray([x[0] for x in sets])
        dst = np.asarray([x[-1] for x in sets[::-1]])
        reach = [bfs_levels(g, [a])[b] for g, a, b in zip(graphs, src, dst)]
        if min(reach) < 0:
            with pytest.raises(Disconnected):
                block.walks(slots, src, dst)
            continue
        walks = block.walks(slots, src, dst)
        assert [sorted(walks[i].tolist()) for i in range(len(slots))] == [
            sorted(g.oracle().geodesic(int(a), int(b)))
            for g, a, b in zip(graphs, src, dst)]
        if all(g.is_connected for g in graphs):
            # q, the witness pair and vertex, and the sample spec
            assert block.quasiconvexity(slots, ragged, 3, 1) == [
                quasiconvexity_constant(g, x, 3, 1)
                for g, x in zip(graphs, sets)]
        else:
            with pytest.raises(Disconnected):
                block.quasiconvexity(slots, ragged, 3, 1)


# ---------------------------------------------------------------------------
# the per-index loops

def lipschitz_loop(inst, seed=0):
    edges = np.asarray(inst.X.edges, dtype=np.int64)
    idx, spec = sample_indices(len(edges), 100_000, seed)
    us, vs = edges[idx, 0], edges[idx, 1]
    K, witness = 0, None
    for u in range(inst.n_indices()):
        d = pi_rep_distance(inst, u, us, vs)
        i = int(np.argmax(d))
        if d[i] > K:
            K = int(d[i])
            witness = {"index": inst.labels[u],
                       "edge": (int(us[i]), int(vs[i]))}
    return {"K": K, "witness": witness, "sample": spec.to_dict()}


def projection_max_loop(inst, pair_budget=20_000, seed=0):
    """The largest representative distance over the indices, per pair of
    the uniqueness sample."""
    us, vs, _ = sample_unordered_pairs(inst.X.n, pair_budget, seed)
    m = np.zeros(len(us), dtype=np.int64)
    for u in range(inst.n_indices()):
        np.maximum(m, pi_rep_distance(inst, u, us, vs), out=m)
    return m


def distance_formula_loop(inst, s=3, pair_budget=None, seed=0):
    exhaustive = (pair_budget is None
                  or inst.X.n * (inst.X.n - 1) // 2 <= pair_budget)
    us, vs, spec = sample_unordered_pairs(
        inst.X.n, None if exhaustive else pair_budget, seed)
    total = np.zeros(len(us), dtype=np.int64)
    for u in range(inst.n_indices()):
        d = pi_rep_distance(inst, u, us, vs).astype(np.int64)
        d[d < s] = 0
        total += d
    dx = inst.X.oracle().pairs(us, vs).astype(np.int64)
    for K, C in hhs_checks.DEFAULT_K_GRID:
        if ((dx <= K * total + C) & (total <= K * dx + C)).all():
            return {"K": K, "C": C, "violations": 0, "s": s,
                    "pairs": len(us), "sample": spec.to_dict()}
    K, C = hhs_checks.DEFAULT_K_GRID[-1]
    bad = ~((dx <= K * total + C) & (total <= K * dx + C))
    return {"K": None, "C": None, "violations": int(bad.sum()), "s": s,
            "witnesses": [(int(us[i]), int(vs[i]))
                          for i in np.flatnonzero(bad)[:8]],
            "pairs": len(us), "sample": spec.to_dict()}


def hqc_loop(inst, yverts, seed=0):
    """(k0, k0_witness, worst_gap): one quasi-convexity scan and one
    distance row per index space."""
    k0, witness = 0, None
    all_x = np.arange(inst.X.n, dtype=np.int64)
    worst_gap = np.zeros(inst.X.n, dtype=np.int64)
    for u in range(inst.n_indices()):
        table = inst.projections[u]
        proj = image_of(table, yverts)
        q = quasiconvexity_constant(inst.spaces[u], proj, pair_budget=20_000,
                                    seed=seed).q
        if q > k0:
            k0, witness = q, inst.labels[u]
        dist = inst.spaces[u].oracle().dist_to_set(proj).astype(np.int64)
        # the least distance over each x's projection set, by its CSR
        lo = table.indptr[0]
        np.maximum(worst_gap, np.minimum.reduceat(
            dist[table.data[lo:table.indptr[-1]]], table.indptr[:-1] - lo),
            out=worst_gap)
    return k0, witness, worst_gap


INSTANCES = {"factor4": lambda: factor(4), "factor5": lambda: factor(5),
             "augmented": augmented,
             "product": lambda: product_hhs(line(3, "L"), factor(2)),
             "trivial": lambda: instance_from_ball(G.cayley_ball(F2, 3))}


@pytest.fixture(scope="module")
def instances():
    return {name: build() for name, build in INSTANCES.items()}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_lipschitz_and_uniqueness_match_the_loops(instances, name):
    inst = instances[name]
    for seed in (0, 1):
        assert hhs_checks.check_projection_lipschitz(inst, seed=seed) == \
            lipschitz_loop(inst, seed=seed)
        m = projection_max_loop(inst, seed=seed)
        got = hhs_checks.check_uniqueness(inst, seed=seed)
        us, vs, _ = sample_unordered_pairs(inst.X.n, 20_000, seed)
        dx = inst.X.oracle().pairs(us, vs)
        for kappa, theta in got["theta"].items():
            assert theta == int(np.where(m < kappa, dx, 0).max(initial=0))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_distance_formula_skips_only_spaces_below_s(instances, name):
    """Leaving out the indices whose spaces have no distance of s or more
    gives the per-index loop's dict, exhaustive and sampled."""
    inst = instances[name]
    for s in (1, 3):
        for budget, seed in ((None, 0), (10 ** 4, 0), (10 ** 4, 2),
                             (10 ** 5, 1)):
            assert distance_formula_fit(inst, s, budget, seed) == \
                distance_formula_loop(inst, s, budget, seed)


def test_distance_formula_sampled_factor6():
    inst = factor(6)
    for seed in (0, 1, 2):
        assert distance_formula_fit(inst, 3, 10 ** 4, seed) == \
            distance_formula_loop(inst, 3, 10 ** 4, seed)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_hqc_matches_the_loop(instances, name):
    inst = instances[name]
    rng = np.random.default_rng(5)
    for Y in (np.arange(min(5, inst.X.n)),
              np.unique(rng.integers(0, inst.X.n, size=9))):
        k0, witness, gap = hqc_loop(inst, Y, seed=1)
        got = check_hqc(inst, Y, seed=1)
        assert (got.k0, got.k0_witness) == (k0, witness)
        for r, k in got.k_table.items():
            dist_y = inst.X.oracle().dist_to_set(Y)
            assert k == int(np.where(gap <= r, dist_y, 0).max(initial=0))


# ---------------------------------------------------------------------------
# one distance call per block

SECTIONS = {"check_structural": 2, "check_projection_lipschitz": 1,
            "check_consistency": 4, "check_bgi": 3,
            "check_partial_realization": 2, "check_uniqueness": 1}


def test_battery_asks_one_distance_call_per_block_and_section(monkeypatch):
    """On the F2 r=4 factor instance (163 indices, 6 blocks) every check
    section asks each block once, where the per-space loops asked each of
    its spaces.  Large links asks twice per block for each W, and no
    check, BGI included, asks an index space's own oracle."""
    inst = factor(4)
    blocks, _, _ = inst.blocks
    oracles = {id(space.oracle()) for space in inst.spaces}
    calls, check = Counter(), [None]

    def counted(owner, name, key):
        real = getattr(owner, name)

        def spy(self, *args):
            if key(self) is not None and check[0] is not None:
                calls[check[0], name, key(self)] += 1
            return real(self, *args)
        monkeypatch.setattr(owner, name, spy)

    for name in ("table_pairs", "set_rows", "diameters", "set_distances",
                 "walks", "quasiconvexity"):
        counted(GraphBlock, name, id)
    for name in ("pairs", "block", "dist_to_sets", "geodesics"):
        counted(DistanceOracle, name,
                lambda o: ("oracle", id(o)) if id(o) in oracles else None)
    for name in list(SECTIONS) + ["check_large_links"]:
        real = getattr(hhs_checks, name)

        def entered(*args, _name=name, _real=real, **kwargs):
            check[0] = _name
            try:
                return _real(*args, **kwargs)
            finally:
                check[0] = None
        monkeypatch.setattr(hhs_checks, name, entered)
    run_axiom_battery(inst, seed=0)
    assert [key for key in calls if isinstance(key[2], tuple)] == []
    per_block = Counter()
    for (name, method, key), count in calls.items():
        per_block[name, key] += count
    parents = len(np.unique(np.argwhere(inst.rel == NESTED)[:, 1]))
    for block in blocks:
        for name, sections in SECTIONS.items():
            assert per_block[name, id(block)] <= sections
        assert per_block["check_large_links", id(block)] <= 2 * parents
    assert len(blocks) == 6 and per_block


def test_checks_ask_index_spaces_only_through_blocks():
    """The battery, the absorption checks and the pipeline ask an index
    space through ``HHSInstance`` and its blocks, never through the space's
    own oracle."""
    direct = re.compile(r"space_oracle|spaces\[[^]]*\]\.oracle\("
                        r"|space\.oracle\(")
    src = pathlib.Path(graph_core.__file__).parent
    offenders = [f"{name}:{i}"
                 for name in ("hhs_checks.py", "embedding.py", "gog.py")
                 for i, line in enumerate(
                     (src / name).read_text().splitlines(), 1)
                 if direct.search(line)]
    assert offenders == []
