"""The hierarchical-structure data model and its constructions.

An instance bundles a total space X, an index set with pairwise relations
(nested / orthogonal / transverse), one hyperbolic graph per index,
projection sets for every X-vertex, and relative projections between
indices.  Projections are set-valued (full tie sets); all measured
distances between coarse sets are taken between their canonical
representatives (first element of the sorted set) with the set diameters
reported separately as part of xi.  Relative projections that a
construction cannot populate inside the built ball are 'unreached': they
are excluded from constant estimation and counted in reports.

Constructions: the trivial structure (on any graph, or a Cayley ball),
the structure induced by a factor system (``instance_from_factor_system``;
``build_hhs_from_factor_system`` verifies the axioms first and refuses a
failed system unless forced), and products.  Instances round-trip through
bundles.  The verification battery itself lives in hhs_checks and is
re-exported here.
"""

import itertools
from functools import cached_property

import numpy as np

from . import graph_core
from .coneoff import build_coneoff
from .errors import BudgetExceeded, FactorSystemViolated
from .factor_system import _containment_dag, verify_factor_system
from .graph_core import (GraphBlock, MetricGraph, RaggedSets, Subgraph,
                         segments)
# the battery is re-exported so callers only deal with this module; it also
# owns the relation codes
from .hhs_checks import (CONTAINS, EQUAL, NESTED, ORTHOGONAL,  # noqa: F401
                         TRANSVERSE, AxiomBatteryReport, HQCReport, _by_block,
                         check_bgi, check_consistency, check_hqc,
                         check_large_links, check_partial_realization,
                         check_structural, check_uniqueness,
                         distance_formula_fit, hqc_qc_equivalence,
                         run_axiom_battery)

# Largest vertex count of a product fixture's total space.
PRODUCT_CAP = 200_000
# Most pairs one relative-projection provider call is asked for.
RHO_CHUNK = 1 << 14


class ProjectionTable:
    """CSR storage of one index's projection sets over all X-vertices; a
    view into a ``ProjectionStore`` has offsets into all the store's data."""

    def __init__(self, indptr, data):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.int32)
        self.n = len(self.indptr) - 1
        if not (self.indptr[:-1] < self.indptr[1:]).all():
            raise ValueError("projection sets must be nonempty")
        # canonical representative: first element of each (sorted) set; n
        # nonempty sets with n entries are singletons, whose data is the reps
        lo, hi = self.indptr[0], self.indptr[-1]
        self.rep = (self.data[lo:hi] if hi - lo == self.n
                    else self.data[self.indptr[:-1]])

    def get(self, x):
        return self.data[self.indptr[x]:self.indptr[x + 1]]

    def images(self, sets):
        """Per set of X-vertices (``RaggedSets``): the sorted union of their
        projection sets, as ``RaggedSets``."""
        owner, pos = segments(self.indptr, sets.flat)
        return RaggedSets.union(sets.owners()[owner], self.data[pos],
                                len(sets))

    def all_singletons(self):
        # n nonempty sets with n entries
        return bool(self.indptr[-1] - self.indptr[0] == self.n)

    def entries(self):
        """``(x, vertex)`` for every entry of the table, x ascending."""
        return (np.repeat(np.arange(self.n), np.diff(self.indptr)),
                self.data[self.indptr[0]:self.indptr[-1]])

    def pullback(self, embed):
        """The table x -> set of ``embed[x]``."""
        owner, pos = segments(self.indptr, embed)
        return ProjectionTable.from_entries(owner, self.data[pos], len(embed))

    def compose(self, gate, pull):
        """The table x -> sorted union of the sets of ``pull[g]``, g in the
        set of x in ``gate``."""
        sets = self.images(RaggedSets(pull[gate.data], gate.indptr))
        return ProjectionTable(sets.offsets, sets.flat)

    @staticmethod
    def from_entries(xs, data, n):
        """The n sets holding ``data[i]`` in set ``xs[i]`` (xs sorted)."""
        return ProjectionTable(np.searchsorted(xs, np.arange(n + 1)), data)

    @staticmethod
    def identity(n):
        return ProjectionTable(np.arange(n + 1), np.arange(n))


class ProjectionStore:
    """Every index's projection sets in one CSR, ``keyed``: key
    ``u * n_x + x`` holds pi_u(x).  It is filled from ``count`` tables over
    ``n_x`` X-vertices read one at a time; ``table(u)`` is a view of index
    u's keys, with no copy."""

    def __init__(self, n_x, count, tables):
        indptr = np.zeros(count * n_x + 1, dtype=np.int64)
        data = [np.zeros(0, dtype=np.int32)]
        for u, t in enumerate(tables):
            if u >= count or t.n != n_x:
                raise ValueError("index data sizes disagree")
            lo = u * n_x
            indptr[lo + 1:lo + n_x + 1] = (t.indptr[1:] - t.indptr[0]
                                           + indptr[lo])
            data.append(t.data[t.indptr[0]:t.indptr[-1]])
        if len(data) != count + 1:
            raise ValueError("index data sizes disagree")
        self.n_x = n_x
        self.keyed = ProjectionTable(indptr, np.concatenate(data))

    def table(self, u):
        lo = u * self.n_x
        return ProjectionTable(self.keyed.indptr[lo:lo + self.n_x + 1],
                               self.keyed.data)

    def images_of(self, us, sets, idx):
        """Per pair ``(us[i], sets[idx[i]])``: the sorted union of the
        pi_us[i] sets of its X-vertices."""
        part = sets.take(idx)
        keys = np.repeat(np.asarray(us, dtype=np.int64) * self.n_x,
                         part.sizes()) + part.flat
        return self.keyed.images(RaggedSets(keys, part.offsets))

    def min_over_pairs(self, us, xs, values):
        """Per row i of ``values`` and x in xs: min of ``values[i]`` over
        pi_us[i](x), shape ``(len(us), len(xs))``."""
        keys = np.asarray(us, dtype=np.int64)[:, None] * self.n_x + xs
        if self.keyed.all_singletons():
            return values[np.arange(len(keys))[:, None], self.keyed.rep[keys]]
        owner, pos = segments(self.keyed.indptr, keys.ravel())
        return np.minimum.reduceat(
            values[owner // keys.shape[1], self.keyed.data[pos]],
            np.searchsorted(owner, np.arange(keys.size))).reshape(keys.shape)


def assemble_sets(k, parts):
    """k relative projections, assembled from parts.

    Each part is ``(rows, sets, reached)``: set i of ``sets`` goes to row
    ``rows[i]``, and ``reached`` is a bool array or one bool for them all.
    A part's rows ascend and no row is named twice; rows that no part names
    are empty and unreached.
    """
    reached = np.zeros(k, dtype=bool)
    if len(parts) == 1 and len(parts[0][0]) == k:
        reached[:] = parts[0][2]
        return parts[0][1], reached
    owner, flat = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for rows, sets, hit in parts:
        reached[rows] = hit
        owner.append(np.asarray(rows, dtype=np.int64)[sets.owners()])
        flat.append(sets.flat)
    return (RaggedSets.union(np.concatenate(owner), np.concatenate(flat), k),
            reached)


class HHSInstance:
    """A concrete hierarchical structure on a finite graph.

    Every index's projection sets live in one ``ProjectionStore``,
    ``store``, keyed by (index, X-vertex); ``projections[u]`` is index u's
    view of it.  A construction states its relative projections in one
    place, ``rho_provider(inst, us, vs)``: rho^us[i]_vs[i] for a list of
    distinct pairs, ``(RaggedSets, reached)`` with one sorted set of
    C(vs[i])-vertex ids per pair and a bool array (or one bool) saying
    which were reached (an unreached set is empty), or None when none is.
    It is only asked for pairs with u nested in v or transverse to it.
    ``space_to_x[u]`` maps C(u)-vertices to X-vertices when the index space
    is carried by X; None otherwise.  The battery maps C(w) down to C(v),
    at representative level, through ``carrier(w)`` followed by pi_v.
    ``space_keys[u]`` names index u's space object by its first index, and
    ``blocks`` holds each distinct space once, in the ``GraphBlock`` of its
    vertex count: every query of an index space goes through its block.
    """

    def __init__(self, X, labels, spaces, rel, maximal, projections,
                 rho_provider, space_to_x=None, meta=None):
        self.X = X
        self.labels = list(labels)
        self.spaces = list(spaces)
        self.rel = np.asarray(rel, dtype=np.int8)
        self.maximal = int(maximal)
        self._rho_provider = rho_provider
        self.space_to_x = space_to_x or [None] * len(self.labels)
        self.meta = dict(meta or {})
        self._carriers = {}
        n = len(self.labels)
        if not (self.rel.shape == (n, n) and len(self.spaces) == n):
            raise ValueError("index data sizes disagree")
        self.store = ProjectionStore(X.n, n, projections)
        self.projections = [self.store.table(u) for u in range(n)]
        # index u's projection representatives are row u
        self.reps = self.store.keyed.rep.reshape(n, X.n)
        first = {}
        # per index, the first index with the same space object
        self.space_keys = np.asarray([first.setdefault(id(space), u)
                                      for u, space in enumerate(self.spaces)],
                                     dtype=np.int64)

    # -- basic queries ----------------------------------------------------
    def n_indices(self):
        return len(self.labels)

    def pi(self, u, x):
        return self.projections[u].get(x)

    def pi_rep(self, u):
        return self.projections[u].rep

    @cached_property
    def blocks(self):
        """The distinct index spaces (``space_keys``) as ``GraphBlock``s: one
        block per vertex count up to MATRIX_CAP, and one per space over it.
        ``(blocks, block_of, slot_of)``: index u's space is slot
        ``slot_of[u]`` of block ``block_of[u]``."""
        keys = np.flatnonzero(self.space_keys == np.arange(len(self.spaces)))
        sizes = np.asarray([self.spaces[k].n for k in keys])
        order = np.argsort(sizes, kind="stable")
        ordered = sizes[order]
        groups = np.split(order, np.flatnonzero(
            (np.diff(ordered) != 0)
            | (ordered[1:] > graph_core.MATRIX_CAP)) + 1)
        block, slot = np.empty((2, len(keys)), dtype=np.int64)
        for b, group in enumerate(groups):
            block[group], slot[group] = b, np.arange(len(group))
        at = np.searchsorted(keys, self.space_keys)
        return ([GraphBlock([self.spaces[k] for k in keys[group]])
                 for group in groups], block[at], slot[at])

    def diameters(self, us, sets):
        """The diameter of ``sets[i]`` in C(us[i]), per i: one
        ``GraphBlock.diameters`` call per block (none for no sets)."""
        out = np.zeros(len(us), dtype=np.int64)
        if len(us):
            for block, slots, rows in _by_block(self, us):
                out[rows] = block.diameters(slots, sets.take(rows))
        return out

    def rho_sets(self, us, vs):
        """rho^us[i]_vs[i] for every pair: ``(RaggedSets, reached)``.

        ``vs`` may be one index for every pair.  The provider is asked once
        per RHO_CHUNK pairs, for their distinct pairs.  Pairs that are
        neither nested nor transverse are unreached, and so is an empty rho,
        which has no distance to anything.
        """
        n = self.n_indices()
        us, vs = np.broadcast_arrays(np.asarray(us, dtype=np.int64),
                                     np.asarray(vs, dtype=np.int64))
        flat = [np.zeros(0, dtype=np.int64)]
        offsets = np.zeros(len(us) + 1, dtype=np.int64)
        reached = np.zeros(len(us), dtype=bool)
        for lo in range(0, len(us), RHO_CHUNK):
            keys, inv = np.unique(us[lo:lo + RHO_CHUNK] * n
                                  + vs[lo:lo + RHO_CHUNK], return_inverse=True)
            ku, kv = np.divmod(keys, n)
            rel = self.rel[ku, kv]
            rows = np.flatnonzero((rel == NESTED) | (rel == TRANSVERSE))
            out = (self._rho_provider(self, ku[rows], kv[rows]) if len(rows)
                   else None)
            sets, hit = assemble_sets(len(ku), [] if out is None
                                      else [(rows, *out)])
            got = sets.take(inv)
            flat.append(got.flat)
            offsets[lo + 1:lo + 1 + len(inv)] = got.offsets[1:] + offsets[lo]
            reached[lo:lo + len(inv)] = (hit & (sets.sizes() > 0))[inv]
        return RaggedSets(np.concatenate(flat), offsets), reached

    def carrier(self, u):
        """The downward map C(u) -> X, one X-vertex per C(u)-vertex:
        ``space_to_x[u]``, else the least X-vertex whose projection set
        holds the vertex, cached per index.  A C(u)-vertex in no projection
        set goes to X-vertex 0, unflagged (the apex of ``product_hhs``'s top
        space is one)."""
        if u not in self._carriers:
            rev = self.space_to_x[u]
            if rev is None:
                xs, verts = self.projections[u].entries()
                rev = np.full(self.spaces[u].n, self.X.n, dtype=np.int64)
                np.minimum.at(rev, verts, xs)
                rev[rev == self.X.n] = 0
            self._carriers[u] = np.asarray(rev, dtype=np.int64)
        return self._carriers[u]

    def eligible_rho_pairs(self):
        """Ordered pairs (u, v) with rho^u_v defined: u nested in v or transverse.

        Two int32 arrays ``(us, vs)``, in row-major order of ``rel``.
        """
        us, vs = np.nonzero((self.rel == NESTED) | (self.rel == TRANSVERSE))
        return us.astype(np.int32), vs.astype(np.int32)

    def index_of_label(self, label):
        return self.labels.index(label)


# ---------------------------------------------------------------------------
# constructions

def trivial_instance(graph, label="S", meta=None):
    """The one-index structure: CS = X and the identity projection."""
    n = graph.n
    rel = np.zeros((1, 1), dtype=np.int8)

    def rho_provider(inst, us, vs):
        return None

    return HHSInstance(graph, [label], [graph], rel, 0,
                       [ProjectionTable.identity(n)], rho_provider,
                       space_to_x=[np.arange(n, dtype=np.int64)],
                       meta=meta)


def instance_from_ball(ball, label="S"):
    """Trivial structure on a Cayley ball, tagged with its generating set."""
    meta = {"cs_generating_set": list(ball.gens), "radius": ball.radius,
            "cayley": True}
    inst = trivial_instance(ball.graph, label=label, meta=meta)
    inst.meta["ball"] = ball
    return inst


def _projection_sets_onto(oracle, member_verts):
    """Tie-complete closest-point projections onto a member, via X distances.

    Set x holds the positions in ``member_verts`` nearest to X-vertex x.
    """
    block = oracle.block(np.arange(oracle.n), member_verts)
    xs, data = np.nonzero(block == block.min(axis=1)[:, None])
    return ProjectionTable.from_entries(xs, data, oracle.n)


def instance_from_factor_system(cand, report=None):
    """The induced structure: indices = family + the whole graph.

    Index spaces are cone-offs over strictly contained members, projections
    are closest-point projections, nesting is vertex containment, no
    orthogonality, everything else transverse.  rho^U_V is the projection
    image of U (U itself in the coned top space).
    """
    graph, family = cand.graph, cand.family
    m = len(family)
    oracle = graph.oracle()

    above, vsets = _containment_dag(family)
    n_idx = m + 1
    S = m
    rel = np.full((n_idx, n_idx), TRANSVERSE, dtype=np.int8)
    np.fill_diagonal(rel, EQUAL)
    below = [[] for _ in family]   # ascending, as i runs in order
    for i in range(m):
        rel[i, S] = NESTED
        rel[S, i] = CONTAINS
        for j in above[i]:
            rel[i, j] = NESTED
            rel[j, i] = CONTAINS
            below[j].append(i)

    spaces = []
    space_to_x = []
    for i, mem in enumerate(family):
        local = mem.to_local()
        contained = [Subgraph(mem.induced_graph(),
                              [local[v] for v in family[j].vertices],
                              label=family[j].label)
                     for j in below[i]]
        coned = build_coneoff(mem.induced_graph(), contained).coned
        spaces.append(coned)
        space_to_x.append(mem.vertex_array())
    cs = build_coneoff(graph, family).coned
    spaces.append(cs)
    space_to_x.append(np.arange(graph.n, dtype=np.int64))
    # the store reads the tables one at a time, so they are not all held
    projections = itertools.chain(
        (_projection_sets_onto(oracle, mem.vertex_array()) for mem in family),
        [ProjectionTable.identity(graph.n)])

    members = RaggedSets.from_arrays([mem.vertex_array() for mem in family])

    def rho_provider(inst, us, vs):
        # S's table is the identity, so its images are the members
        return inst.store.images_of(vs, members, us), True

    labels = [mem.label or f"member{i}" for i, mem in enumerate(family)] + ["S"]
    meta = {"construction": "factor-system", "radius": cand.radius}
    if report is not None:
        meta["factor_report_passed"] = report.passed
        meta["xi_candidate"] = report.xi_candidate
    if cand.ball is not None:
        # the coned top space realizes the Cayley graph over the extended
        # generating set (finite generators plus the coned members)
        meta.update({"cayley": True, "cs_coned": True,
                     "cs_generating_set": list(cand.ball.gens),
                     "ball": cand.ball})
    return HHSInstance(graph, labels, spaces, rel, S, projections,
                       rho_provider, space_to_x, meta)


def build_hhs_from_factor_system(cand, force=False, report=None):
    """Assemble the induced hierarchical structure.

    Index set = family + the whole graph; each index space is the cone-off
    of the member over strictly contained members; projections are
    closest-point projections; nesting is containment, no orthogonality,
    transversality otherwise.
    """
    if report is None:
        report = verify_factor_system(cand)
    if not report.passed and not force:
        raise FactorSystemViolated(
            "factor-system axioms failed; pass force=True to build anyway")
    return instance_from_factor_system(cand, report)


def product_hhs(a, b):
    """The product fixture: Cartesian product graph, coordinate projections.

    Index set = both factors' indices (cross pairs orthogonal) plus a new
    maximal element whose space is the two top spaces joined through one
    apex vertex.
    """
    na, nb = a.X.n, b.X.n
    if na * nb > PRODUCT_CAP:
        raise BudgetExceeded(f"product would have {na * nb} vertices, over "
                             f"PRODUCT_CAP = {PRODUCT_CAP}")

    def vid(i, j):
        return i * nb + j

    edges = []
    for i in range(na):
        for (u, v) in b.X.edges:
            edges.append((vid(i, u), vid(i, v)))
    for (u, v) in a.X.edges:
        for j in range(nb):
            edges.append((vid(u, j), vid(v, j)))
    labels = None
    if a.X.labels is not None and b.X.labels is not None:
        labels = [f"({a.X.labels[i]},{b.X.labels[j]})"
                  for i in range(na) for j in range(nb)]
    X = MetricGraph(na * nb, edges, labels)

    n_a, n_b = a.n_indices(), b.n_indices()
    n_idx = n_a + n_b + 1
    S = n_idx - 1
    rel = np.full((n_idx, n_idx), ORTHOGONAL, dtype=np.int8)
    rel[:n_a, :n_a] = a.rel
    rel[n_a:n_a + n_b, n_a:n_a + n_b] = b.rel
    rel[:, S] = NESTED
    rel[S, :] = CONTAINS
    rel[S, S] = EQUAL

    # top space: both factor top spaces joined through an apex
    csa, csb = a.spaces[a.maximal], b.spaces[b.maximal]
    apex = csa.n + csb.n
    top_edges = list(csa.edges)
    top_edges += [(u + csa.n, v + csa.n) for u, v in csb.edges]
    top_edges += [(v, apex) for v in range(csa.n)]
    top_edges += [(v + csa.n, apex) for v in range(csb.n)]
    cs_top = MetricGraph(apex + 1, top_edges)

    spaces = list(a.spaces) + list(b.spaces) + [cs_top]
    labels_idx = ([f"A.{l}" for l in a.labels] + [f"B.{l}" for l in b.labels]
                  + ["S"])

    coord_a = np.repeat(np.arange(na, dtype=np.int64), nb)
    coord_b = np.tile(np.arange(nb, dtype=np.int64), na)

    projections = ([t.pullback(coord_a) for t in a.projections]
                   + [t.pullback(coord_b) for t in b.projections])
    # top sets are the pairs (rep_a, rep_b + csa.n), already sorted
    rep_a = a.projections[a.maximal].rep[coord_a]
    rep_b = b.projections[b.maximal].rep[coord_b] + csa.n
    top = np.column_stack([rep_a, rep_b]).ravel()
    projections.append(ProjectionTable(np.arange(0, 2 * X.n + 1, 2), top))

    def rho_provider(inst, us, vs):
        parts = []
        # (factor, its first index, its top copy's first vertex in cs_top);
        # a pair of indices in two factors is orthogonal, so never asked
        for f, lo, shift in ((a, 0, 0), (b, n_a, csa.n)):
            mine = (us >= lo) & (us < lo + f.n_indices())
            rows = np.flatnonzero(mine & (vs != S))
            parts.append((rows, *f.rho_sets(us[rows] - lo, vs[rows] - lo)))
            # each factor's top copy sits inside the join with diameter 2,
            # so the whole copy is the bounded relative projection of the
            # factor's top index
            rows = np.flatnonzero(mine & (vs == S) & (us != lo + f.maximal))
            sets, reached = f.rho_sets(us[rows] - lo, f.maximal)
            top = np.flatnonzero(mine & (vs == S) & (us == lo + f.maximal))
            n_top = f.spaces[f.maximal].n
            whole = RaggedSets(np.arange(n_top) + shift, [0, n_top])
            parts += [(rows, RaggedSets(sets.flat + shift, sets.offsets),
                       reached),
                      (top, whole.take(np.zeros(len(top), dtype=np.int64)),
                       True)]
        return assemble_sets(len(us), parts)

    meta = {"construction": "product",
            "factors": [a.meta.get("construction", "?"),
                        b.meta.get("construction", "?")],
            "coord_a": coord_a, "coord_b": coord_b,
            "split": (n_a, n_b)}
    return HHSInstance(X, labels_idx, spaces, rel, S, projections,
                       rho_provider, meta=meta)


# ---------------------------------------------------------------------------
# serialization

def instance_to_bundle(inst, rho_cap=250_000):
    """A JSON-ready bundle: relations, spaces, projections, rho tables.

    Refuses on instances whose rho table would explode; the cap counts
    eligible ordered pairs.
    """
    us, vs = inst.eligible_rho_pairs()
    if len(us) > rho_cap:
        raise BudgetExceeded(f"{len(us)} rho pairs exceed rho_cap = {rho_cap}")
    bundle = {
        "labels": list(inst.labels),
        "maximal": int(inst.maximal),
        "relations": inst.rel.tolist(),
        "X": {"n": inst.X.n, "edges": [list(e) for e in inst.X.edges],
              "labels": list(inst.X.labels) if inst.X.labels else None},
        "spaces": [{"n": s.n, "edges": [list(e) for e in s.edges]}
                   for s in inst.spaces],
        "projections": [{"indptr": (t.indptr - t.indptr[0]).tolist(),
                         "data": t.entries()[1].tolist()}
                        for t in inst.projections],
        "rho": {},
        "meta": {k: v for k, v in inst.meta.items()
                 if isinstance(v, (str, int, float, bool, list))},
    }
    # the table lists the pairs by v, then by u
    order = np.lexsort((us, vs))
    us, vs = us[order], vs[order]
    sets, reached = inst.rho_sets(us, vs)
    for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        bundle["rho"][f"{u},{v}"] = sets[i].tolist() if reached[i] else None
    return bundle


def instance_from_bundle(bundle):
    """Rebuild an instance from a bundle (rho comes from the stored table)."""
    X = MetricGraph(bundle["X"]["n"],
                    [tuple(e) for e in bundle["X"]["edges"]],
                    bundle["X"]["labels"])
    spaces = [MetricGraph(s["n"], [tuple(e) for e in s["edges"]])
              for s in bundle["spaces"]]
    projections = [ProjectionTable(np.asarray(t["indptr"]),
                                   np.asarray(t["data"]))
                   for t in bundle["projections"]]
    rho_table = {tuple(int(x) for x in k.split(",")): v
                 for k, v in bundle["rho"].items()}

    def rho_provider(inst, us, vs):
        found = [rho_table.get(pair) for pair in zip(us.tolist(), vs.tolist())]
        return (RaggedSets.from_arrays([np.asarray(r or [], dtype=np.int64)
                                        for r in found]),
                np.asarray([r is not None for r in found], dtype=bool))

    return HHSInstance(X, bundle["labels"], spaces,
                       np.asarray(bundle["relations"], dtype=np.int8),
                       bundle["maximal"], projections, rho_provider,
                       meta=dict(bundle.get("meta", {})))


def instances_structurally_equal(a, b):
    """Equality of labels, relations, X, spaces, projections and rho tables
    (the bundles of both, meta aside)."""
    ba, bb = (instance_to_bundle(i, rho_cap=float("inf")) for i in (a, b))
    return all(ba[k] == bb[k] for k in ba if k != "meta")
