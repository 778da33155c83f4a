"""Graphs of groups: moves, combination hypotheses, the main pipeline.

A graph of groups carries vertex and edge group models, word maps for the
edge inclusions, and (after the pipeline runs) one hierarchical structure
per vertex and edge.  The pipeline equips move-added vertices through the
coset-closure factor system, induces edge structures by restriction,
absorbs the new edge subgroups into the old vertices, and then checks the
four combination hypotheses.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, MalformedMove, MissingStructure
from .embedding import build_augmented_structure, check_hh_embedded
from .factor_system import build_group_factor_closure, verify_factor_system
from .graph_core import MetricGraph, quasiconvexity_constant
from .groups import (SubgroupSpec, cayley_ball, coset_subgraph,
                     enumerate_cosets, inverse_word)
from .hhs_core import (NESTED, ORTHOGONAL, HHSInstance,
                       build_hhs_from_factor_system, check_hqc,
                       check_structural, instance_from_ball)

# Largest piece count times piece size of a tree of spaces.
TREE_OF_SPACES_CAP = 60_000


@dataclass
class EdgeData:
    name: str
    ends: tuple                  # (vertex name, vertex name)
    group: object                # GroupModel of the edge group
    maps: dict                   # vertex name -> {edge gen label: word text}
    instance: object = None
    provenance: str = "base"
    evidence: dict = field(default_factory=dict)

    def map_word(self, vertex, model, word):
        """Push an edge-group word through the edge map into the vertex group."""
        table = self.maps[vertex]
        out = ()
        for x in word:
            label = self.group.gens[abs(x) - 1]
            image = model.parse(table[label])
            out = out + (image if x > 0 else inverse_word(image))
        return model.normal_form(out)


@dataclass
class VertexData:
    name: str
    group: object
    instance: object = None
    provenance: str = "base"


class GraphOfGroups:
    def __init__(self):
        self.vertices = {}
        self.edges = {}

    def copy(self):
        out = GraphOfGroups()
        out.vertices = {k: VertexData(v.name, v.group, v.instance, v.provenance)
                        for k, v in self.vertices.items()}
        out.edges = {k: EdgeData(e.name, e.ends, e.group, e.maps, e.instance,
                                 e.provenance, dict(e.evidence))
                     for k, e in self.edges.items()}
        return out

    def add_vertex(self, name, group, instance=None, provenance="base"):
        if name in self.vertices:
            raise ValueError(f"duplicate vertex {name}")
        self.vertices[name] = VertexData(name, group, instance, provenance)

    def add_edge(self, name, ends, group, maps, provenance="base"):
        if name in self.edges:
            raise ValueError(f"duplicate edge {name}")
        for v in ends:
            if v not in self.vertices:
                raise ValueError(f"edge end {v} is not a vertex")
        self.edges[name] = EdgeData(name, tuple(ends), group, dict(maps),
                                    provenance=provenance)

    def incident_edges(self, vertex):
        return [e for e in self.edges.values() if vertex in e.ends]

    def edge_subgroup(self, edge, vertex):
        """The edge group's image in a vertex group, as a SubgroupSpec."""
        model = self.vertices[vertex].group
        gens = [edge.map_word(vertex, model, (i + 1,))
                for i in range(edge.group.rank())]
        return SubgroupSpec(model, gens, label=f"{edge.name}@{vertex}")

    def validate_edge_maps(self, radius=4):
        """Homomorphism and ball-injectivity checks for every edge map."""
        report = {}
        for e in self.edges.values():
            entry = {}
            for v in e.ends:
                model = self.vertices[v].group
                ok = True
                # the relations of every kind: a commutator per commuting
                # pair of edge generators
                for i, j in e.group.commuting_pairs():
                    if e.map_word(v, model, (i, j, -i, -j)) != ():
                        ok = False
                ball = cayley_ball(e.group, radius)
                images = {}
                injective = True
                for w in ball.words:
                    img = e.map_word(v, model, w)
                    if img in images:
                        injective = False
                    images[img] = w
                entry[v] = {"homomorphism": ok,
                            "injective_on_ball": injective,
                            "radius": radius}
            report[e.name] = entry
        return report


# ---------------------------------------------------------------------------
# moves

@dataclass
class MoveRecord:
    kind: str                    # "edge-join" or "star-vertex"
    new_vertex: str = None
    new_group: object = None
    connections: list = field(default_factory=list)
    # each connection: {"target", "edge", "group", "maps"} with maps keyed
    # by the two vertex names


def apply_star_move(gog, move, evidence_radius=4):
    """Apply one obtainability move, recording quasi-convexity evidence."""
    out = gog.copy()
    if move.kind == "edge-join":
        if len(move.connections) != 1:
            raise MalformedMove("edge-join needs exactly one connection")
        c = move.connections[0]
        if c["group"].kind not in ("free", "free_product"):
            raise MalformedMove("edge-join edge group must be hyperbolic "
                                "(free or free-product kind)")
        out.add_edge(c["edge"], c["ends"], c["group"], c["maps"],
                     provenance="new")
        return out
    if move.kind != "star-vertex":
        raise MalformedMove(f"unknown move kind {move.kind!r}")
    if move.new_group.kind not in ("free", "free_product"):
        raise MalformedMove("star-vertex group must be hyperbolic "
                            "(free or free-product kind)")
    out.add_vertex(move.new_vertex, move.new_group, provenance="new")
    ball = cayley_ball(move.new_group, evidence_radius)
    for c in move.connections:
        if c["target"] not in gog.vertices:
            raise MalformedMove(f"target {c['target']} missing")
        out.add_edge(c["edge"], (move.new_vertex, c["target"]), c["group"],
                     c["maps"], provenance="new")
        edge = out.edges[c["edge"]]
        sub = out.edge_subgroup(edge, move.new_vertex)
        cosets = enumerate_cosets(ball, sub)
        member = coset_subgraph(ball, cosets[0])
        q = quasiconvexity_constant(ball.graph, member, seed=0)
        edge.evidence["quasiconvexity"] = {"q": q.q,
                                           "radius": evidence_radius}
    return out


def check_hyperbolic_obtainable(gog, base_vertices, seed=0):
    """Per base vertex: the new-edge subgroups must be hh-embedded."""
    verdicts = {}
    for v in base_vertices:
        vert = gog.vertices[v]
        if vert.instance is None:
            raise MissingStructure(f"vertex {v} has no attached instance")
        subs = [gog.edge_subgroup(e, v) for e in gog.incident_edges(v)
                if e.provenance == "new"]
        if not subs:
            verdicts[v] = {"passed": True, "vacuous": True}
            continue
        verdicts[v] = check_hh_embedded(vert.instance, subs, seed=seed)
    return {"passed": all(r["passed"] for r in verdicts.values()),
            "per_vertex": verdicts}


# ---------------------------------------------------------------------------
# restriction: the induced edge structure

def _edge_ball(gog, edge, vertex, radius):
    """The edge ball whose image under the edge map fits the vertex ball of
    this radius: radius over the longest edge-map word."""
    model = gog.vertices[vertex].group
    longest = max(len(model.parse(w)) for w in edge.maps[vertex].values())
    return cayley_ball(edge.group, max(1, radius // longest))


def restrict_to_edge_group(vertex_instance, gog, edge, vertex, radius):
    """Edge-group structure: the indices nested in the edge member.

    Spaces are shared with the vertex structure; the edge ball embeds by
    pushing words through the edge map, and projections restrict.
    """
    if vertex_instance.meta.get("ball") is None:
        raise MissingStructure("vertex instance carries no ball")
    sub = gog.edge_subgroup(edge, vertex)
    member_label = f"{sub.label}-coset[e]"
    if member_label not in vertex_instance.labels:
        raise MissingStructure(f"no member {member_label} in the structure")
    top = vertex_instance.index_of_label(member_label)
    keep = sorted(set(np.flatnonzero(
        vertex_instance.rel[:, top] == NESTED).tolist()) | {top})

    labels = [vertex_instance.labels[u] for u in keep]
    return _edge_instance(vertex_instance, keep, top, labels,
                          dict(zip(labels, labels)), edge, vertex,
                          _edge_ball(gog, edge, vertex, radius),
                          "edge-restriction")


def _edge_instance(parent, keep, top, labels, index_map, edge, vertex,
                   edge_ball, construction):
    """The edge structure on the indices ``keep`` of ``parent``, top ``top``.

    Spaces and relative projections are the parent's; the edge ball embeds
    into the parent's ball by pushing words through the edge map, and
    projections pull back along that embedding.
    """
    ball = parent.meta["ball"]
    embed = np.empty(edge_ball.graph.n, dtype=np.int64)
    for i, w in enumerate(edge_ball.words):
        img = edge.map_word(vertex, ball.model, w)
        if img not in ball.index:
            raise BudgetExceeded("edge image leaves the vertex ball")
        embed[i] = ball.index[img]

    def rho_provider(inst, us, vs):
        return parent.rho_sets(np.asarray(keep)[us], np.asarray(keep)[vs])

    meta = {"construction": construction, "radius": edge_ball.radius,
            "cayley": True, "cs_generating_set": list(edge_ball.gens),
            "ball": edge_ball, "vertex": vertex, "edge": edge.name,
            "index_map": index_map, "embed": embed}
    return HHSInstance(edge_ball.graph, labels,
                       [parent.spaces[u] for u in keep],
                       parent.rel[np.ix_(keep, keep)], keep.index(top),
                       [parent.projections[u].pullback(embed) for u in keep],
                       rho_provider, meta=meta)


# ---------------------------------------------------------------------------
# combination hypotheses

@dataclass
class CombinationReport:
    hqc: dict
    fullness: dict
    non_orthogonality: dict
    bounded_supports: dict

    @property
    def passed(self):
        return (self.hqc["passed"] and self.fullness["passed"]
                and self.non_orthogonality["passed"]
                and self.bounded_supports["passed"])

    def to_dict(self):
        return {"passed": self.passed, "hqc": self.hqc,
                "fullness": self.fullness,
                "non_orthogonality": self.non_orthogonality,
                "bounded_supports": self.bounded_supports}


def _edge_index_map(gog, edge, vertex):
    """Index labels of the edge structure -> labels in the vertex structure,
    or None when the vertex structure lacks one of them."""
    index_map = edge.instance[vertex].meta["index_map"]
    held = set(gog.vertices[vertex].instance.labels)
    return index_map if held.issuperset(index_map.values()) else None


def check_combination_hypotheses(gog, seed=0):
    """The four hypotheses, each with witnesses.

    (i) every edge image is hierarchically quasi-convex in both end
    structures (k(0), k(0) of the realization table and q at most 2);
    (ii) the edge hieromorphisms are full: per-index quasi-isometry
    constants plus nesting-surjectivity onto unbounded targets;
    (iii) the image of the edge's maximal element is orthogonal to
    nothing; (iv) distinct edges at a shared vertex use disjoint absorbed
    index families (the bounded-supports sufficient condition).
    """
    for v in gog.vertices.values():
        if v.instance is None:
            raise MissingStructure(f"vertex {v.name} has no instance")
    for e in gog.edges.values():
        if e.instance is None:
            raise MissingStructure(f"edge {e.name} has no instance")

    hqc = {"passed": True, "per_edge": {}}
    fullness = {"passed": True, "per_edge": {}}
    nonorth = {"passed": True, "per_edge": {}}
    for e in gog.edges.values():
        for v in e.ends:
            inst_e = e.instance[v]
            vert_inst = gog.vertices[v].instance
            embed = inst_e.meta["embed"]
            ball = vert_inst.meta["ball"]
            image = sorted(set(int(x) for x in embed))

            rep = check_hqc(vert_inst, image, r_grid=(0, 1, 2), seed=seed)
            q = quasiconvexity_constant(vert_inst.X, image, seed=seed)
            entry = {"k0": rep.k0, "k_table": rep.k_table, "q": q.q,
                     "q_witness": q.witness_pair}
            ok = rep.k0 <= 2 and rep.k_table[0] <= 2 and q.q <= 2
            entry["passed"] = ok
            hqc["per_edge"][f"{e.name}@{v}"] = entry
            if not ok:
                hqc["passed"] = False

            index_map = _edge_index_map(gog, e, v)
            fentry = {"index_map_found": index_map is not None}
            if index_map is None:
                fentry["passed"] = False
                fullness["passed"] = False
            else:
                targets = {lab: vert_inst.index_of_label(t)
                           for lab, t in index_map.items()}
                # relation preservation (injectivity is construction-level)
                labs = list(inst_e.labels)
                at = [targets[lab] for lab in labs]
                rel_ok = np.array_equal(np.triu(inst_e.rel, 1), np.triu(
                    vert_inst.rel[np.ix_(at, at)], 1))
                # per-index QI constants of the space maps
                xi = 1.0
                for lab in labs:
                    u_e = inst_e.index_of_label(lab)
                    u_v = targets[lab]
                    se, sv = inst_e.spaces[u_e], vert_inst.spaces[u_v]
                    if se is sv:
                        continue
                    if se.n == sv.n and se.edges == sv.edges:
                        continue
                    xi = max(xi, max(se.n, sv.n) / max(1, min(se.n, sv.n)))
                # nesting surjectivity onto unbounded targets
                missing = []
                exempt = 0
                image_labels = set(index_map.values())
                for lab, t in targets.items():
                    below = np.flatnonzero(vert_inst.rel[:, t] == NESTED)
                    for bidx in below:
                        blab = vert_inst.labels[int(bidx)]
                        if blab in image_labels:
                            continue
                        # the space's largest distance, from its block; a
                        # space over MATRIX_CAP is not scanned and counts as
                        # unbounded
                        blocks, block_of, slot_of = vert_inst.blocks
                        diam = blocks[block_of[bidx]].spans()[slot_of[bidx]]
                        if diam <= 2:
                            exempt += 1
                        else:
                            assumed = bool(np.isinf(diam))
                            missing.append({
                                "target": lab, "unmatched": blab,
                                "diam": None if assumed else int(diam),
                                "assumed_unbounded": assumed})
                fentry.update({"relations_preserved": rel_ok, "xi": xi,
                               "bounded_exemptions": exempt,
                               "unmatched_unbounded": missing[:4],
                               "passed": rel_ok and not missing})
                if not fentry["passed"]:
                    fullness["passed"] = False
            fullness["per_edge"][f"{e.name}@{v}"] = fentry

            if index_map is not None:
                top_label = inst_e.labels[inst_e.maximal]
                t = vert_inst.index_of_label(index_map[top_label])
                orth = np.flatnonzero(vert_inst.rel[t] == ORTHOGONAL)
                nentry = {"orthogonal_to": [vert_inst.labels[int(o)]
                                            for o in orth],
                          "passed": len(orth) == 0}
            else:
                nentry = {"passed": False, "reason": "no index map"}
            nonorth["per_edge"][f"{e.name}@{v}"] = nentry
            if not nentry["passed"]:
                nonorth["passed"] = False

    supports = check_bounded_supports(gog)
    return CombinationReport(hqc, fullness, nonorth, supports)


def check_bounded_supports(gog):
    """Disjointness of absorbed coset orbits of distinct edges per vertex.

    The comparison is on the underlying coset vertex sets, not on labels,
    so two edges gluing along the same subgroup conflict even though their
    absorbed indices carry different names.
    """
    supports = {"passed": True, "per_vertex": {}}
    for vname, vert in gog.vertices.items():
        if vert.instance is None:
            continue
        incident = gog.incident_edges(vname)
        inst = vert.instance
        # one rho^u_S call for the absorbed indices of every incident edge
        tags = [(f"{e.name}@{vname}[", f"{e.name}@{vname}-coset[")
                for e in incident]
        mine = [[u for u, lab in enumerate(inst.labels) if lab.startswith(tag)]
                for tag in tags]
        sets, reached = inst.rho_sets(np.asarray(sum(mine, []), dtype=np.int64),
                                      inst.maximal)
        ends = np.cumsum([0] + [len(m) for m in mine])
        present = {e.name: {frozenset(sets[k].tolist())
                            for k in range(lo, hi) if reached[k]}
                   for e, lo, hi in zip(incident, ends[:-1], ends[1:])}
        conflicts = []
        names = sorted(present)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                overlap = present[a] & present[b]
                if overlap:
                    conflicts.append({"edges": (a, b),
                                      "shared_cosets": len(overlap)})
        supports["per_vertex"][vname] = {
            "edge_families": {k: len(v) for k, v in present.items()},
            "conflicts": conflicts}
        if conflicts:
            supports["passed"] = False
    return supports


# ---------------------------------------------------------------------------
# the pipeline

def run_main_pipeline(gog, base_vertices, radius=5, seed=0):
    """Equip, absorb, and check: the three steps of the main construction.

    Returns the equipped graph of groups and the combination report.
    Refuses when an edge map is not a homomorphism or not injective on the
    edge group's ball of this radius, and when the obtainability check
    fails.
    """
    edge_maps = gog.validate_edge_maps(radius)
    if not all(end["homomorphism"] and end["injective_on_ball"]
               for entry in edge_maps.values() for end in entry.values()):
        return gog, {"refused": "edge-map check failed",
                     "edge_maps": edge_maps}
    gog = gog.copy()
    # step 0: base vertices need instances already (trivial or supplied)
    for v in base_vertices:
        if gog.vertices[v].instance is None:
            ball = cayley_ball(gog.vertices[v].group, radius)
            gog.vertices[v].instance = instance_from_ball(ball, label="S")

    obtainable = check_hyperbolic_obtainable(gog, base_vertices, seed=seed)
    if not obtainable["passed"]:
        return gog, {"refused": "hyperbolic-obtainable check failed",
                     "obtainable": obtainable}

    # step 1: equip new vertices via the coset closure, restrict to edges
    new_vertices = [v for v in gog.vertices.values() if v.provenance == "new"]
    step1 = {}
    for vert in new_vertices:
        ball = cayley_ball(vert.group, radius)
        subs = [gog.edge_subgroup(e, vert.name)
                for e in gog.incident_edges(vert.name)]
        cand, info = build_group_factor_closure(ball, subs, seed=seed)
        report = verify_factor_system(cand, seed=seed)
        inst = build_hhs_from_factor_system(cand, report=report,
                                            force=not report.passed)
        vert.instance = inst
        step1[vert.name] = {"closure": info, "factor_passed": report.passed,
                            "indices": inst.n_indices()}
        for e in gog.incident_edges(vert.name):
            e.instance = e.instance or {}
            e.instance[vert.name] = restrict_to_edge_group(
                inst, gog, e, vert.name, radius)

    # step 2: absorb the new edge subgroups into the base vertices
    step2 = {}
    for v in base_vertices:
        vert = gog.vertices[v]
        pairs = []
        for e in gog.incident_edges(v):
            if e.provenance != "new":
                continue
            other = e.ends[0] if e.ends[1] == v else e.ends[1]
            sub_inst = (e.instance or {}).get(other)
            if sub_inst is None:
                # an edge joining two base vertices: the hyperbolic edge
                # group carries its own trivial structure
                if e.instance and "_line" in e.instance:
                    sub_inst = e.instance["_line"]
                else:
                    sub_inst = instance_from_ball(
                        _edge_ball(gog, e, v, radius), label="S")
                    e.instance = e.instance or {}
                    e.instance["_line"] = sub_inst
            sub = gog.edge_subgroup(e, v)
            pairs.append((e, sub, sub_inst))
        if not pairs:
            step2[v] = {"absorbed": 0}
            continue
        # the obtainability check above judged these subgroups embedded
        aug = build_augmented_structure(vert.instance,
                                        [(sub, si) for _, sub, si in pairs])
        vert.instance = aug.result
        step2[v] = {"absorbed": len(pairs),
                    "indices": aug.result.n_indices(),
                    "clamped": aug.clamped}
        for e, sub, sub_inst in pairs:
            # the edge structure on the absorbed side: shared spaces with
            # the identity-coset block, embedding through the edge map
            e.instance[v] = _absorbed_edge_instance(e, v, sub, sub_inst, aug)

    # every constructed instance passes the exact structural battery
    structural = {}
    for vert in gog.vertices.values():
        structural[vert.name] = check_structural(
            vert.instance, rho_pair_budget=5000, seed=seed).passed
    report = check_combination_hypotheses(gog, seed=seed)
    return gog, {"refused": None, "obtainable": obtainable, "step1": step1,
                 "step2": step2, "structural": structural,
                 "combination": report}


def _absorbed_edge_instance(edge, vertex, sub, sub_inst, aug):
    """The edge structure mapped into the absorbed vertex structure."""
    result = aug.result
    record = next(r for r in aug.phi_records if r["sub"] == sub.label)
    index_map = dict(record["index_map"])
    labels = list(sub_inst.labels)
    keep = [result.index_of_label(index_map[lab]) for lab in labels]
    # the subgroup instance lives on the edge ball
    return _edge_instance(result, keep, keep[sub_inst.maximal], labels,
                          index_map, edge, vertex, sub_inst.meta["ball"],
                          "edge-absorbed")


# ---------------------------------------------------------------------------
# finite-depth tree of spaces

def build_tree_of_spaces(gog, base_vertex, depth, radius=3):
    """Glue coset copies of vertex balls along edge images, breadth-first."""
    balls = {v.name: cayley_ball(v.group, radius)
             for v in gog.vertices.values()}

    parent = {}

    def key(piece, vert):
        return (piece, int(vert))

    nodes = {}

    def node_id(piece, vert):
        k = key(piece, vert)
        if k not in nodes:
            nodes[k] = len(nodes)
        return nodes[k]

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    edges = set()
    piece_vertex = {0: base_vertex}
    glued_along = {0: None}

    # BFS over pieces
    all_pieces = [0]
    level = [0]
    for d in range(depth):
        nxt = []
        for piece in level:
            vname = piece_vertex[piece]
            ball = balls[vname]
            for e in gog.incident_edges(vname):
                other = e.ends[0] if e.ends[1] == vname else e.ends[1]
                sub = gog.edge_subgroup(e, vname)
                other_ball = balls[other]
                model_v = gog.vertices[vname].group
                model_o = gog.vertices[other].group
                # per edge-ball word h: phi_v(h), and phi_other(h) when it
                # lies in the other ball
                images = [(e.map_word(vname, model_v, w),
                           other_ball.index.get(e.map_word(other, model_o, w)))
                          for w in cayley_ball(e.group, max(1, radius)).words]
                for c in enumerate_cosets(ball, sub):
                    if glued_along[piece] == (e.name, c.representative):
                        continue
                    new_piece = len(all_pieces)
                    all_pieces.append(new_piece)
                    piece_vertex[new_piece] = other
                    # identify rep*phi_v(h) with phi_other(h)
                    for img_v, vo in images:
                        img_v = model_v.multiply(c.representative, img_v)
                        if img_v in ball.index and vo is not None:
                            union(node_id(piece, ball.index[img_v]),
                                  node_id(new_piece, vo))
                    glued_along[new_piece] = (e.name, ())
                    nxt.append(new_piece)
                    if len(all_pieces) * ball.graph.n > TREE_OF_SPACES_CAP:
                        raise BudgetExceeded(
                            "tree of spaces over TREE_OF_SPACES_CAP = "
                            f"{TREE_OF_SPACES_CAP} piece vertices")
        level = nxt

    for piece in all_pieces:
        ball = balls[piece_vertex[piece]]
        for u, v in ball.graph.edges:
            edges.add((node_id(piece, u), node_id(piece, v)))

    roots = {}
    for k, nid in nodes.items():
        roots[nid] = find(nid)
    remap = {}
    for nid in sorted(roots.values()):
        if nid not in remap:
            remap[nid] = len(remap)
    final_edges = set()
    for u, v in edges:
        ru, rv = remap[roots[u]], remap[roots[v]]
        if ru != rv:
            final_edges.add((min(ru, rv), max(ru, rv)))
    return MetricGraph(len(remap), sorted(final_edges))
