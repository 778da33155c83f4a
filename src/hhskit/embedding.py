"""Relative metrics, hyperbolically embedded subgroups, and absorption.

The relative metric of a subgroup is measured from the identity in the
coset-coned Cayley ball with every edge between two subgroup elements,
its identity coset, removed.  A family is accepted as hyperbolically
embedded when four desk-scale checks pass on the caller's ball, whose
cosets are walked once for all four: the coned ball is hyperbolic with
radius-stable delta, the relative metric is proper (radius-stable growth
profile), the subgroup is quasi-isometrically embedded, and distinct
cosets have uniformly bounded coarse intersections.

The absorption construction rebuilds the ambient structure with one copy
of each subgroup's index set per coset, projections factoring through
closest-point projection onto the coset, and relative projections
composed through the coset gates.  Relative projections that cannot be
populated inside the ball are 'unreached' and excluded from constant
estimation, with counts reported.  ``verify_augmented`` runs the battery
on the result and measures the morphisms from each subgroup structure into
it (index map, relations, projection commute gap, equivariance gap).
"""

from dataclasses import dataclass, field

import numpy as np

from .coneoff import build_coneoff
from .errors import Inconclusive, StructureMismatch
from .graph_core import (WORD, MetricGraph, RaggedSets, Subgraph,
                         bfs_distances, four_point_delta, ragged_diameters)
from .groups import (SubgroupSpec, cayley_ball, coset_subgraph,
                     enumerate_cosets, inverse_word, subgroup_membership,
                     walk_subgroup)
from .hhs_core import (CONTAINS, EQUAL, NESTED, TRANSVERSE, HHSInstance,
                       _projection_sets_onto, assemble_sets,
                       run_axiom_battery)
from .sampling import rng_for


# ---------------------------------------------------------------------------
# relative metric

@dataclass
class RelativeMetricTable:
    elements: tuple         # ball vertex ids of subgroup elements, sorted
    words: list
    row: list               # d-hat from the identity, None = unreached

    def profile(self):
        """n -> number of elements with d-hat from the identity <= n."""
        finite = sorted(d for d in self.row if d is not None)
        out = {}
        for n in range(0, (finite[-1] if finite else 0) + 1):
            out[n] = sum(1 for d in finite if d <= n)
        return out


def coned_over_cosets(ball, subs):
    """The ball coned over every coset of every subgroup in the family.

    Returns the cone-off and the coset descriptors of its family, each
    subgroup's in ``enumerate_cosets`` order, so its identity coset first.
    """
    cosets = [c for sub in subs for c in enumerate_cosets(ball, sub)]
    cg = build_coneoff(ball.graph, [coset_subgraph(ball, c) for c in cosets])
    return cg, cosets


def relative_metric(ball, sub, coned=None):
    """d-hat from the identity to every ball element of ``sub``.

    ``coned`` is a cone-off of the ball with its cosets, as
    ``coned_over_cosets`` returns them (default: the ball coned over the
    cosets of ``sub``); the elements are ``sub``'s identity coset among
    them.  d-hat is the distance in the cone-off with every coned or base
    edge joining two elements removed: one BFS from the identity, read at
    the elements.
    """
    cg, cosets = coned or coned_over_cosets(ball, [sub])
    members = next(c for c in cosets if c.subgroup is sub).vertices
    at = np.asarray(members, dtype=np.int64)
    inside = np.zeros(cg.coned.n, dtype=bool)
    inside[at] = True
    edges = np.asarray(cg.coned.edges, dtype=np.int64).reshape(-1, 2)
    punctured = MetricGraph(cg.coned.n, edges[~inside[edges].all(axis=1)])
    row = bfs_distances(punctured, [ball.id_of(())])[at]
    return RelativeMetricTable(members, [ball.words[v] for v in members],
                               [d if d >= 0 else None for d in row.tolist()])


# ---------------------------------------------------------------------------
# hyperbolically embedded

@dataclass
class HHEmbeddingWitness:
    gens: tuple
    radius: int
    hyperbolicity: dict
    properness: dict
    qi_embedding: dict
    separation: dict
    flags: list = field(default_factory=list)

    @property
    def passed(self):
        return (self.hyperbolicity["passed"] and self.properness["passed"]
                and self.qi_embedding["passed"] and self.separation["passed"])

    def to_dict(self):
        return {"passed": self.passed, "gens": list(self.gens),
                "radius": self.radius, "hyperbolicity": self.hyperbolicity,
                "properness": self.properness,
                "qi_embedding": self.qi_embedding,
                "separation": self.separation, "flags": self.flags}


def _intrinsic_lengths(model, sub, needed_words):
    """Word length over subgroup generators for each needed element."""
    targets = {w: None for w in needed_words}
    remaining = len(targets)
    if () in targets:
        targets[()] = 0
        remaining -= 1
    max_len = max((len(w) for w in needed_words), default=0) + 4
    last = 0    # the layer that finds the last target is walked to its end
    for p, k in walk_subgroup(model, sub, max_len,
                              "intrinsic length enumeration"):
        if k is None:
            continue
        if not remaining and k > last:
            break
        if p in targets and targets[p] is None:
            targets[p] = last = k
            remaining -= 1
    return targets


def check_hyperbolically_embedded(ball, subs, seed=0):
    """The four desk-scale checks for a hyperbolically embedded family, on
    the given Cayley ball and one of radius two less over its generators."""
    model, radius = ball.model, ball.radius
    small = cayley_ball(model, max(radius - 2, 1), ball.gens)

    # (i) coned hyperbolicity, radius-stable
    coned = coned_over_cosets(ball, subs)
    coned_small = coned_over_cosets(small, subs)
    cg, cosets = coned
    d_big = four_point_delta(cg.coned, budget=40_000, seed=seed).delta
    d_small = four_point_delta(coned_small[0].coned, budget=40_000,
                               seed=seed).delta
    hyperbolicity = {"delta": d_big, "delta_smaller_radius": d_small,
                     "passed": d_big == d_small}

    # (ii) properness of the relative metric, radius-stable profile
    properness = {"passed": True, "per_subgroup": {}}
    tables = [relative_metric(ball, sub, coned) for sub in subs]
    for sub, t_big in zip(subs, tables):
        t_small = relative_metric(small, sub, coned_small)
        p_big, p_small = t_big.profile(), t_small.profile()
        small_total = len(t_small.elements)
        stable = True
        witness = None
        for n, count in sorted(p_small.items()):
            if count >= small_total:
                break   # the smaller profile is exhausted from here on
            if p_big.get(n, 0) != count:
                stable = False
                witness = {"n": n, "count_small": count,
                           "count_big": p_big.get(n, 0)}
                break
        unreached = t_big.row.count(None)
        properness["per_subgroup"][sub.label] = {
            "profile": p_big, "stable": stable, "witness": witness,
            "unreached": unreached}
        if not stable:
            properness["passed"] = False

    # (iii) quasi-isometric embedding constants
    qi = {"passed": True, "per_subgroup": {}}
    oracle = ball.graph.oracle()
    row = oracle.row(ball.id_of(()))
    for sub, t in zip(subs, tables):
        try:
            intrinsic = _intrinsic_lengths(model, sub, t.words)
        except Inconclusive:
            qi["per_subgroup"][sub.label] = {"passed": False,
                                             "reason": "enumeration budget"}
            qi["passed"] = False
            continue
        lam = 1.0
        for v, w in zip(t.elements, t.words):
            dh = intrinsic[w]
            dt = int(row[v])
            if dh is None:
                continue
            lam = max(lam, dh / (dt + 1.0), dt / (dh + 1.0))
        qi["per_subgroup"][sub.label] = {"lambda": lam, "passed": True,
                                         "elements": len(t.elements)}
    # (iv) separation of cosets; crossing members legitimately give
    # R(eps) ~ 2*eps, so the unbounded proxy only fires above that scale
    caps = {e: max(radius, 2 * e + 2) for e in (0, 1, 2)}
    separation = {"passed": True, "R": {}, "witness": None,
                  "cap": caps}
    member_sets = [np.asarray(t.elements, dtype=np.int64) for t in tables]
    inside, where = [], []     # sets of two or more, and (coset, i, eps)
    for lo in range(0, len(cg.family), WORD):
        dist = oracle.dist_to_sets(RaggedSets.from_arrays(
            [c.vertices for c in cg.family[lo:lo + WORD]]))
        for k, near in enumerate(dist, start=lo):
            sub_j, rep = cosets[k].subgroup, cosets[k].representative
            for sub_i, hi in zip(subs, member_sets):
                if (sub_i is sub_j and rep == ()):
                    continue
                for e in caps:
                    found = hi[near[hi] <= e]
                    if len(found) > 1:
                        inside.append(found)
                        where.append((k, sub_i, e))
    diams = ragged_diameters(oracle, RaggedSets.from_arrays(inside))
    R = {e: 0 for e in caps}
    for (k, sub_i, e), diam in zip(where, diams.tolist()):
        if diam > R[e]:
            R[e] = diam
            if diam >= caps[e]:
                separation["passed"] = False
                separation["witness"] = {
                    "g": model.format(cosets[k].representative),
                    "i": sub_i.label, "j": cosets[k].subgroup.label,
                    "eps": e, "diam": diam}
    separation["R"] = R

    return HHEmbeddingWitness(tuple(ball.gens), radius, hyperbolicity,
                              properness, qi, separation)


def _cayley_ball(base):
    """The Cayley ball that carries the base instance's CS."""
    if not base.meta.get("cayley"):
        raise StructureMismatch("base CS is not tagged as a Cayley graph")
    if "ball" not in base.meta:     # read back from a bundle
        raise StructureMismatch("base CS carries no Cayley ball")
    return base.meta["ball"]


def check_hh_embedded(base, subs, seed=0):
    """Three-part verdict for hierarchical embedding against a base instance.

    The base instance must carry its Cayley tag (CS realized as a Cayley
    graph with the inclusion projection); each subgroup must be generated
    by its intersection with that generating set; and the family must be
    hyperbolically embedded over the same generators.
    """
    ball = _cayley_ball(base)
    if not subs:
        return {"passed": True, "vacuous": True, "parts": {}}

    parts = {}
    generated = {"passed": True, "per_subgroup": {}}
    for sub in subs:
        letters_in_h = [g for g in ball.gens
                        if subgroup_membership(ball.model, sub,
                                               ball.model.parse(g))]
        members = enumerate_cosets(ball, sub)[0].vertices
        # T's letters in H generate a special subgroup of H; its ball
        # elements are its identity coset
        reach = enumerate_cosets(
            ball, SubgroupSpec(ball.model, letters_in_h))[0].vertices
        missing = sorted(set(members).difference(reach))
        entry = {"generators_in_T": letters_in_h,
                 "covered": len(reach), "of": len(members)}
        if missing:
            entry["witness"] = ball.graph.label_of(missing[0])
            generated["passed"] = False
        generated["per_subgroup"][sub.label] = entry
    parts["generated_by_T"] = generated
    parts["cs_is_cayley"] = {"passed": True, "gens": list(ball.gens)}
    witness = check_hyperbolically_embedded(ball, subs, seed=seed)
    parts["hyperbolically_embedded"] = witness.to_dict()
    passed = generated["passed"] and witness.passed
    return {"passed": passed, "vacuous": False, "parts": parts,
            "witness": witness}


# ---------------------------------------------------------------------------
# the absorption construction

@dataclass
class AugmentedStructure:
    base: HHSInstance
    subgroup_structures: list     # (SubgroupSpec, sub instance)
    result: HHSInstance
    provenance: list              # per index: ("old", label) or
                                  # ("coset", sub label, rep word, sub index)
    phi_records: list
    coned: object                 # the ConedGraph realizing the new top space
    clamped: int                  # coset elements clamped into the sub ball


def _subgroup_map(sub, sub_inst):
    """phi[v], the ambient normal form of ball vertex v's word with letter i
    read as the subgroup's generator i, and the dict phi[v] -> v."""
    sub_ball = sub_inst.meta.get("ball")
    if sub_ball is None:
        raise StructureMismatch("subgroup instance carries no ball")
    gens = sub.generators
    if sub_ball.model.rank() != len(gens):
        raise StructureMismatch(
            f"the ball of {sub.label}'s structure has {sub_ball.model.rank()}"
            f" generators, {sub.label} has {len(gens)}")
    image = {}
    for i, g in enumerate(gens, start=1):
        image[i], image[-i] = g, inverse_word(g)
    phi = [sub.ambient.normal_form(tuple(x for s in w for x in image[s]))
           for w in sub_ball.words]
    return phi, {w: v for v, w in enumerate(phi)}


def build_augmented_structure(base, subgroup_structures):
    """Absorb each subgroup's structure into the ambient one, per coset.

    The new index set is the old one plus one copy of every subgroup index
    per coset; the new top space is the old one coned over all cosets.
    This only builds: the caller judges the embedding (``check_hh_embedded``).
    A subgroup structure lives on the subgroup's own Cayley ball, whose
    words ``_subgroup_map``'s phi names in the ambient group.  The coset
    element rep*h goes to the ball vertex phi names h by; an h outside the
    ball goes to that of its longest prefix phi names, and is counted in
    ``clamped``.
    """
    ball = _cayley_ball(base)
    model = ball.model
    X = base.X
    S = base.maximal
    cs_graph = base.spaces[S]
    if cs_graph.n != X.n:
        raise StructureMismatch("base CS must be carried by the X vertices")

    # one pass over the cosets: each gets its block of indices, their
    # projection tables pi_(U,g) = pi_U o (pull back of the coset gate) and
    # rho^u_S as X-vertices (the coset for its top index; an empty one
    # leaves the cross pairs of its index unreached)
    nb = base.n_indices()
    labels = list(base.labels)
    provenance = [("old", l) for l in base.labels]
    spaces = list(base.spaces)
    space_to_x = list(base.space_to_x)
    space_to_x[S] = np.arange(X.n, dtype=np.int64)
    projections = list(base.projections)
    sets, reached = base.rho_sets(np.arange(nb), S)
    rho_top = [sets[u] if reached[u] else [] for u in range(nb)]
    family, coset_sets, blocks = [], [], []   # blocks: (structure, start)
    coset_of = [-1] * nb     # per index: its coset, -1 for old ones
    local_of = [-1] * nb     # and its index in the sub-structure
    phi_records = []
    clamped = 0
    for si, (sub, sub_inst) in enumerate(subgroup_structures):
        phi, named = _subgroup_map(sub, sub_inst)
        n_sub = sub_inst.n_indices()
        carrier = sub_inst.space_to_x[sub_inst.maximal]
        if carrier is None:
            carrier = np.arange(len(phi))
        sets, reached = sub_inst.rho_sets(np.arange(n_sub), sub_inst.maximal)
        for c in enumerate_cosets(ball, sub):
            rep = c.representative
            verts = np.asarray(c.vertices, dtype=np.int64)
            name = f"{sub.label}[{model.format(rep)}]"
            start = len(labels)
            if rep == ():
                phi_records.append({
                    "sub": sub.label, "identity_coset_block": start,
                    "index_map": {lab: f"{name}.{lab}"
                                  for lab in sub_inst.labels}})
            coset_of += [len(family)] * n_sub
            local_of += range(n_sub)
            family.append(Subgraph(cs_graph, verts, label=name))
            coset_sets.append(verts)
            blocks.append((si, start))
            labels += [f"{name}.{lab}" for lab in sub_inst.labels]
            provenance += [("coset", sub.label, rep, lab)
                           for lab in sub_inst.labels]
            spaces += sub_inst.spaces
            space_to_x += [None] * n_sub

            gate = _projection_sets_onto(X.oracle(), verts)
            pull, back = [], inverse_word(rep)
            for v in c.vertices:
                h = model.multiply(back, ball.words[v])
                clamped += h not in named
                while h not in named:
                    h = h[:-1]
                pull.append(named[h])
            pull = np.asarray(pull, dtype=np.int64)
            projections += [table.compose(gate, pull)
                            for table in sub_inst.projections]

            for uu in range(n_sub):
                words = (model.multiply(rep, phi[int(carrier[sv])])
                         for sv in (sets[uu] if reached[uu] else []))
                rho_top.append(verts if uu == sub_inst.maximal else sorted(
                    {ball.index[w] for w in words if w in ball.index}))
    coned = build_coneoff(cs_graph, family)
    spaces[S] = coned.coned

    rel = np.full((len(labels),) * 2, TRANSVERSE, dtype=np.int8)
    rel[:nb, :nb] = base.rel
    rel[nb:, S] = NESTED
    rel[S, nb:] = CONTAINS
    for si, start in blocks:
        sub_rel = subgroup_structures[si][1].rel
        block = slice(start, start + len(sub_rel))
        rel[block, block] = sub_rel
    np.fill_diagonal(rel, EQUAL)

    cosets = RaggedSets.from_arrays(coset_sets)
    coset_of, local_of = np.asarray(coset_of), np.asarray(local_of)
    sub_of = np.asarray([si for si, _ in blocks], dtype=np.int64)
    tops = RaggedSets.from_arrays([np.asarray(t, dtype=np.int64)
                                   for t in rho_top])

    def rho_provider(inst, us, vs):
        cu, cv = coset_of[us], coset_of[vs]
        old = np.flatnonzero((cu < 0) & (cv < 0))
        top = np.flatnonzero((cu >= 0) & (vs == S))
        parts = [(old, *base.rho_sets(us[old], vs[old])),
                 (top, cosets.take(cu[top]), True)]
        same = np.flatnonzero((cu >= 0) & (cu == cv))
        for si, (_, sub_inst) in enumerate(subgroup_structures):
            rows = same[sub_of[cu[same]] == si]
            parts.append((rows, *sub_inst.rho_sets(local_of[us[rows]],
                                                   local_of[vs[rows]])))
        # cross pairs: compose through the gate of S_v
        cross = np.flatnonzero((cu != cv) & ((cu < 0) | (vs != S))
                               & (tops.sizes()[us] > 0))
        parts.append((cross, inst.store.images_of(vs[cross], tops, us[cross]),
                      True))
        return assemble_sets(len(us), parts)

    meta = {"construction": "augmented", "radius": ball.radius,
            "cayley": True, "cs_generating_set": base.meta["cs_generating_set"],
            "ball": ball, "cosets": len(family)}
    result = HHSInstance(X, labels, spaces, rel, S, projections,
                         rho_provider, space_to_x, meta)
    return AugmentedStructure(base, list(subgroup_structures), result,
                              provenance, phi_records, coned, clamped)


def verify_augmented(aug, seed=0, equivariance_samples=100):
    """Full battery on the absorbed structure plus the morphism contract.

    For each subgroup embedding the index map must be injective and
    relation-preserving (exact), the index-space maps must commute with
    projections on the identity coset, and left multiplication by sampled
    subgroup elements must move projections the way it moves points.
    """
    result = aug.result
    battery = run_axiom_battery(result, seed=seed)
    ball = result.meta["ball"]
    model = ball.model

    morphisms = []
    for (sub, sub_inst), record in zip(aug.subgroup_structures,
                                       aug.phi_records):
        start = record["identity_coset_block"]
        labels_ok = len(set(record["index_map"].values())) == len(
            record["index_map"])
        block = slice(start, start + sub_inst.n_indices())
        rel_ok = np.array_equal(result.rel[block, block], sub_inst.rel)
        # projections commute on the identity coset: for h in H, the
        # absorbed projection of h equals the subgroup's own projection
        # at the ball vertex that phi names h by
        phi, named = _subgroup_map(sub, sub_inst)
        differ = [[] for _ in range(sub_inst.n_indices())]
        members = enumerate_cosets(ball, sub)[0].vertices
        for v in members:
            hv = named.get(ball.words[v])
            if hv is None:
                continue
            for u in range(sub_inst.n_indices()):
                mine = set(int(p) for p in result.pi(start + u, v))
                theirs = set(int(p) for p in sub_inst.pi(u, hv))
                if mine != theirs:
                    differ[u].append(sorted(mine | theirs))
        commute_gap = int(sub_inst.diameters(
            np.repeat(np.arange(len(differ)), [len(d) for d in differ]),
            RaggedSets.from_arrays([s for d in differ for s in d]))
            .max(initial=0))

        # coarse equivariance of left multiplication by subgroup elements
        rng = rng_for(seed)
        moved_apart = []
        checked = attempts = 0
        while checked < equivariance_samples and attempts < 20 * equivariance_samples:
            attempts += 1
            h = ball.words[members[int(rng.integers(0, len(members)))]]
            x = ball.words[int(rng.integers(0, ball.graph.n))]
            hx = model.multiply(h, x)
            if hx not in ball.index or h not in named:
                continue
            xv, hxv = ball.index[x], ball.index[hx]
            for u in range(sub_inst.n_indices()):
                carrier = sub_inst.space_to_x[u]
                if carrier is None:
                    continue
                # translate pi_U(x) by h inside the subgroup coordinates
                words = (model.multiply(h, phi[int(carrier[p])])
                         for p in result.pi(start + u, xv))
                moved = {named[w] for w in words if w in named}
                target = set(carrier[result.pi(start + u, hxv)].tolist())
                if moved and target != moved:
                    moved_apart.append(sorted(target | moved))
            checked += 1
        eq_gap = int(ragged_diameters(sub_inst.meta["ball"].graph.oracle(),
                                      RaggedSets.from_arrays(moved_apart))
                     .max(initial=0))
        morphisms.append({"sub": sub.label,
                          "index_map_injective": labels_ok,
                          "relations_preserved": rel_ok,
                          "projection_commute_gap": commute_gap,
                          "equivariance_gap": eq_gap,
                          "equivariance_samples": checked})
    passed = battery.passed and all(
        m["index_map_injective"] and m["relations_preserved"]
        and m["projection_commute_gap"] <= 1 and m["equivariance_gap"] <= 1
        for m in morphisms)
    return {"passed": passed, "battery": battery, "morphisms": morphisms,
            "clamped": aug.clamped, "seed": seed}
