"""Factor-system axioms, the simple-family criterion, and closures.

A candidate is a connected graph with a family of connected subgraphs.
The five axioms are checked literally on the built graph; quantities that
are infinite in the limit ("finite Hausdorff distance", "infinite
diameter") become radius-limited thresholds and the report says so.
Pair scans follow the shared sampling policy: exhaustive below the budget,
seeded above it, sample spec recorded either way.  They run over chunks of
member pairs, one ragged distance query per chunk (graph_core.RaggedBlocks),
and report what a pair-by-pair scan reports, in the same order.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded
from .graph_core import (GraphBlock, RaggedSets, connected_hull,
                         four_point_delta, iter_ragged_blocks,
                         ragged_diameters, ragged_hausdorff)
from .groups import coset_subgraph, enumerate_cosets
from .sampling import (DEFAULT_PAIR_BUDGET, SampleSpec, sample_indices,
                       sample_ordered_pairs)

DEFAULT_MEMBER_BUDGET = 400


@dataclass
class FactorSystemCandidate:
    graph: object
    family: tuple
    radius: int | None = None
    ball: object = None            # BallGraph metadata when group-backed

    def __post_init__(self):
        self.family = tuple(self.family)
        for m in self.family:
            if m.parent is not self.graph:
                raise ValueError("family member not a subgraph of the candidate graph")

    def labels(self):
        return [m.label or f"member{i}" for i, m in enumerate(self.family)]


@dataclass
class AxiomOutcome:
    passed: bool
    constant: object
    witnesses: list
    sample: SampleSpec | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {"passed": self.passed, "constant": self.constant,
                "witnesses": self.witnesses[:8],
                "sample": self.sample.to_dict() if self.sample else None,
                "details": self.details}


@dataclass
class FactorSystemReport:
    embedding: AxiomOutcome        # axiom 1: K
    projections: AxiomOutcome      # axiom 2: xi (with B-witnesses)
    coarse_containment: AxiomOutcome   # axiom 3
    chains: AxiomOutcome           # axiom 4: c
    separation: AxiomOutcome       # axiom 5
    xi_candidate: int = 0
    B: int = 0
    flags: list = field(default_factory=list)

    @property
    def passed(self):
        return all(o.passed for o in (self.embedding, self.projections,
                                      self.coarse_containment, self.chains,
                                      self.separation))

    def to_dict(self):
        return {"passed": self.passed,
                "xi_candidate": self.xi_candidate, "B": self.B,
                "flags": self.flags,
                "axioms": {"embedding": self.embedding.to_dict(),
                           "projections": self.projections.to_dict(),
                           "coarse_containment": self.coarse_containment.to_dict(),
                           "chains": self.chains.to_dict(),
                           "separation": self.separation.to_dict()}}


def _member_sets(family):
    return RaggedSets.from_arrays([mem.vertex_array() for mem in family])


def _near_some(oracle, sub, members, bound):
    """Whether some member lies within Hausdorff distance ``bound`` of sub."""
    one = RaggedSets.from_arrays([sub.vertex_array()])
    idx = np.arange(len(members))
    return any((blocks.hausdorff() <= bound).any() for _, blocks
               in iter_ragged_blocks(oracle, one, np.zeros_like(idx),
                                     members, idx))


def _containment_dag(family):
    """Proper-containment edges, pruned through a vertex->members index."""
    vsets = [frozenset(m.vertices) for m in family]
    holder = {}
    for i, m in enumerate(family):
        for v in m.vertices:
            holder.setdefault(v, []).append(i)
    above = [[] for _ in family]
    for i, m in enumerate(family):
        v0 = m.vertices[0]
        for j in holder[v0]:
            if j != i and vsets[i] < vsets[j]:
                above[i].append(j)
    return above, vsets


def _longest_chain(above):
    """A longest chain i_0 < i_1 < ... of the relation ``above`` (i lies
    below each index of ``above[i]``), as its indices; [] for none.  It
    starts at the first index whose chain is longest, and each step goes to
    the first index of ``above[i]`` that continues a longest one.  An index
    on a cycle is in no chain: Tarjan's walk, without recursion, closes a
    component after every component above it, and a lone index without a
    loop then knows its chain."""
    n = len(above)
    order, low, links = [-1] * n, [0] * n, [-1] * n     # links -1: on a cycle
    stack, seen = [], 0
    for root in range(n):
        path = [(root, iter(above[root]))] if order[root] < 0 else []
        while path:
            i, ups = path[-1]
            if order[i] < 0:
                order[i] = low[i] = seen
                seen += 1
                stack.append(i)
            for j in ups:
                if order[j] < 0:
                    path.append((j, iter(above[j])))
                    break
                low[i] = min(low[i], order[j])
            else:
                path.pop()
                if path:
                    low[path[-1][0]] = min(low[path[-1][0]], low[i])
                if low[i] == order[i]:
                    component = stack[stack.index(i):]
                    del stack[-len(component):]
                    for j in component:     # closed: lowers no low
                        order[j] = n
                    if component == [i] and i not in above[i]:
                        links[i] = 1 + max((links[j] for j in above[i]),
                                           default=-1)
    chain = [links.index(max(links))] if max(links, default=-1) >= 0 else []
    while chain and links[chain[-1]] > 0:
        chain.append(next(j for j in above[chain[-1]]
                          if links[j] == links[chain[-1]] - 1))
    return chain


def verify_factor_system(cand, pair_budget=DEFAULT_PAIR_BUDGET, seed=0,
                         xi_candidate=None, B=None, axiom5_threshold=None):
    """Check the five factor-system axioms and estimate their constants.

    Axiom 2 follows the dichotomy contract: every scanned ordered pair
    either has projection diameter <= the xi candidate or comes with
    nested members Hausdorff-close to the projection (all such witnesses
    are recorded).  Axiom 3's hypothesis is only informative for members
    larger than 2B, smaller ones are counted as unobservable at this
    radius.  Axiom 5's "finite Hausdorff distance" is a threshold scaled
    from the radius; boundary-hugging members sit just above it, the
    parallel-copies violation sits below.
    """
    graph, family = cand.graph, cand.family
    if not graph.is_connected:
        raise ValueError("factor-system candidate must be connected")
    oracle = graph.oracle()
    flags = []
    m = len(family)

    if xi_candidate is None:
        delta = four_point_delta(graph, budget=20_000, seed=seed).delta
        xi_candidate = int(2 * delta + 2)
    if B is None:
        B = xi_candidate
    if axiom5_threshold is None:
        basis = cand.radius if cand.radius is not None else int(oracle.row(0).max())
        axiom5_threshold = max(1, basis // 8)
        flags.append("axiom5-radius-limited")

    whole = [i for i, mem in enumerate(family) if len(mem) == graph.n]

    # ---- axiom 1: embedding + quasi-convexity constants per member
    member_idx, spec1 = sample_indices(m, DEFAULT_MEMBER_BUDGET, seed)
    members = _member_sets(family)
    scan = member_idx[members.sizes()[member_idx] > 1]
    reports = GraphBlock([graph]).quasiconvexity(
        np.zeros(len(scan), dtype=np.int64), members.take(scan), None, 0)
    K = 0.0
    worst1 = None
    for i, rep in zip(scan.tolist(), reports):
        mem = family[i]
        verts = mem.vertex_array()
        ii, jj = np.triu_indices(len(verts), k=1)
        d_outer = oracle.pairs(verts[ii], verts[jj]).astype(np.float64)
        d_inner = mem.induced_graph().oracle().pairs(ii, jj).astype(np.float64)
        k_embed = float((d_inner / (d_outer + 1.0)).max())
        q = rep.q
        val = max(k_embed, float(q))
        if val > K:
            K = val
            worst1 = {"member": mem.label, "k_embed": k_embed, "q": q}
    ax1 = AxiomOutcome(True, K, [worst1] if worst1 else [], spec1)

    # ---- axiom 4: exact chain bound
    above, vsets = _containment_dag(family)
    chain = _longest_chain(above)
    c_links = max(len(chain) - 1, 0)
    dups = len(vsets) != len(set(vsets))
    details4 = {"convention": "links (strict inclusions) per chain"}
    if whole:
        details4["whole-graph-member"] = [family[i].label for i in whole]
        flags.append("degenerate-member-equals-graph")
    ax4 = AxiomOutcome(True, c_links,
                       [[family[i].label for i in chain]] if c_links else [],
                       None, details4)
    if dups:
        flags.append("duplicate-vertex-sets")

    # ---- pair scan: axioms 2, 3, 5
    us, vs, spec_pairs = sample_ordered_pairs(m, m, pair_budget, seed,
                                              skip_diagonal=True)
    xi_measured = 0
    ax2_witnesses = []
    ax2_failures = []
    ax3_failures = []
    ax3_skipped = 0
    ax5_failures = []
    member_diams = np.zeros(m, dtype=np.int64)
    scanned = np.flatnonzero(np.bincount(us, minlength=m))
    member_diams[scanned] = ragged_diameters(oracle, members, scanned)

    def pair_label(i, j):
        return (family[i].label, family[j].label)

    for lo, blocks in iter_ragged_blocks(oracle, members, us, members, vs):
        ci, cj = us[lo:lo + len(blocks)], vs[lo:lo + len(blocks)]
        proj = blocks.projection()
        pdiam = ragged_diameters(oracle, proj)
        over = pdiam > xi_candidate
        if not over.all():
            xi_measured = max(xi_measured, int(pdiam[~over].max()))
        for k in np.flatnonzero(over):
            nested = np.array([u for u, vset in enumerate(vsets)
                               if vset <= vsets[ci[k]]], dtype=np.int64)
            dh = ragged_hausdorff(oracle, proj, np.full(len(nested), k),
                                  members, nested)
            found = [family[u].label for u in nested[dh <= B]]
            witness = {"pair": pair_label(ci[k], cj[k]), "diam": int(pdiam[k])}
            if found:
                ax2_witnesses.append({**witness, "nested": found})
            else:
                ax2_failures.append(witness)

        # axiom 3, hypothesis guarded by member size
        big = np.flatnonzero(member_diams[ci] > 2 * B)
        ax3_skipped += len(ci) - len(big)
        dh3 = ragged_hausdorff(oracle, members, ci[big], proj, big)
        for k, d in zip(big, dh3):
            if d <= B and not (vsets[ci[k]] <= vsets[cj[k]]):
                ax3_failures.append({"pair": pair_label(ci[k], cj[k]),
                                     "hausdorff": int(d)})

        # axiom 5 on unordered pairs
        dh5 = blocks.hausdorff()
        for k in np.flatnonzero((ci < cj) & (dh5 <= axiom5_threshold)):
            if vsets[ci[k]] != vsets[cj[k]]:
                ax5_failures.append({"pair": pair_label(ci[k], cj[k]),
                                     "hausdorff": int(dh5[k])})

    ax2 = AxiomOutcome(not ax2_failures, xi_measured,
                       ax2_failures or ax2_witnesses, spec_pairs,
                       {"xi_candidate": xi_candidate, "B": B,
                        "nested_witness_pairs": len(ax2_witnesses)})
    ax3 = AxiomOutcome(not ax3_failures, B, ax3_failures, spec_pairs,
                       {"skipped_small_members": ax3_skipped,
                        "guard": "diam(H1) > 2B"})
    ax5 = AxiomOutcome(not ax5_failures, axiom5_threshold, ax5_failures,
                       spec_pairs, {"threshold": axiom5_threshold})

    return FactorSystemReport(ax1, ax2, ax3, ax4, ax5,
                              xi_candidate=xi_candidate, B=B, flags=flags)


def simple_family_check(cand, eps_grid=(0, 1, 2), pair_budget=DEFAULT_PAIR_BUDGET,
                        seed=0):
    """Table R(eps) = max diam(N_eps(H1) & H2) over distinct member pairs.

    Includes the infinite-diameter proxy: each member should reach
    diameter >= radius - (its distance from the basepoint), flagged
    otherwise.  Empty intersections have diameter 0 by convention.
    """
    graph, family = cand.graph, cand.family
    oracle = graph.oracle()
    m = len(family)
    eps_grid = sorted(set(int(e) for e in eps_grid))
    table = {e: 0 for e in eps_grid}
    witnesses = {e: None for e in eps_grid}
    members = _member_sets(family)

    us, vs, spec = sample_ordered_pairs(m, m, pair_budget, seed,
                                        skip_diagonal=True)
    for lo, blocks in iter_ragged_blocks(oracle, members, us, members, vs):
        col_min = blocks.col_min()
        for e in eps_grid:
            inside = RaggedSets.from_mask(blocks.col_verts, col_min <= e,
                                          blocks.pair_cols)
            ks = np.flatnonzero(inside.sizes() > 1)
            if len(ks) == 0:
                continue
            d = ragged_diameters(oracle, inside, ks)
            best = int(np.argmax(d))   # first maximum in scan order
            if d[best] > table[e]:
                table[e] = int(d[best])
                k = lo + ks[best]
                witnesses[e] = (family[us[k]].label, family[vs[k]].label)

    flags = []
    small_members = []
    if cand.radius is not None:
        base_row = oracle.row(0)
        diams = ragged_diameters(oracle, members)
        for mem, diam in zip(family, diams):
            access = int(base_row[mem.vertex_array()].min())
            diam_needed = cand.radius - access
            if diam < diam_needed:
                small_members.append(mem.label)
        if small_members:
            flags.append("diameter-proxy-violations")
    return {"R": table, "witnesses": witnesses, "sample": spec.to_dict(),
            "flags": flags, "small_members": small_members}


def family_from_cosets(ball, subs):
    """All coset subgraphs of the given subgroups in the ball."""
    fam = []
    for sub in subs:
        for c in enumerate_cosets(ball, sub):
            fam.append(coset_subgraph(ball, c))
    return FactorSystemCandidate(ball.graph, fam, radius=ball.radius,
                                 ball=ball)


def build_group_factor_closure(ball, subs, budget=3, seed=0,
                               xi_candidate=None):
    """Projection-closure approximation of the quasi-convex coset family.

    Start from all cosets of the subgroups; while some cross projection
    has diameter above the xi candidate, adjoin it as a new member
    (identifying members at Hausdorff distance <= 1); stop at a fixpoint
    or after ``budget`` rounds.
    """
    graph = ball.graph
    oracle = graph.oracle()
    cand = family_from_cosets(ball, subs)
    if xi_candidate is None:
        delta = four_point_delta(graph, budget=20_000, seed=seed).delta
        xi_candidate = int(2 * delta + 2)

    history = []
    family = list(cand.family)
    for rounds in range(budget + 1):
        members = _member_sets(family)
        m = len(family)
        us, vs, spec = sample_ordered_pairs(m, m, DEFAULT_PAIR_BUDGET, seed,
                                            skip_diagonal=True)
        new_members = []
        for lo, blocks in iter_ragged_blocks(oracle, members, us, members, vs):
            proj = blocks.projection()
            over = np.flatnonzero(ragged_diameters(oracle, proj) > xi_candidate)
            new_members.extend((us[lo + k], vs[lo + k], proj[k]) for k in over)
        added = 0
        for i, j, proj in new_members:
            hull = connected_hull(graph, proj,
                                  label=f"proj[{family[i].label}<-{family[j].label}]")
            if not _near_some(oracle, hull, members, 1):
                family.append(hull)
                members = _member_sets(family)
                added += 1
        history.append({"round": rounds, "projections_over_xi": len(new_members),
                        "added": added, "family_size": len(family)})
        if added == 0:
            return (FactorSystemCandidate(graph, family, radius=ball.radius,
                                          ball=ball),
                    {"iterations": rounds, "fixpoint": True,
                     "xi_candidate": xi_candidate, "history": history})
    raise BudgetExceeded(
        f"projection closure did not stabilize in budget = {budget} rounds",
        partial=FactorSystemCandidate(graph, family, radius=ball.radius,
                                      ball=ball))
