"""Empirical verification battery for hierarchical structures.

Every check estimates the smallest constant (on a grid where the axiom
needs one) satisfying all scanned configurations, with witnesses, and
records the sample spec.  Nothing here proves an axiom; the battery is a
measurement device and the reports say exactly what was scanned.

Each check asks for all the relative projections rho^u_v it needs in one
``HHSInstance.rho_sets`` call over their (u, v) pairs, and asks the index
spaces by block (``HHSInstance.blocks``): every distinct space sits in the
``GraphBlock`` of its vertex count, so each section of a check makes one
call per block where it made one per space; no check asks a space's own
oracle.  Representative distances are one gather from a block's stack of
matrices, distances to relative projections its row minima, and BGI
geodesics parent walks over its arrays.  A one-vertex space has every
distance 0: where a check takes a maximum of such terms, its block is left
out.  Relation-masked samples are all drawn by ``_sample_pairs``.
Witnesses stay the first strict maximum in sample order.  The exact
relation checks work on the relation matrix; the container axiom walks only
the pairs (T, U) with U orthogonal to some index.

Set-distance conventions, applied uniformly and recorded here: distances
from a projection set to a relative-projection set (or any fixed target
set) are exact minima over both sets; pairwise distances between two
projection sets (uniqueness, distance formula, large-link gaps) are taken
between canonical representatives, which is exact whenever the tie sets
are singletons and within one set-diameter (already part of xi) otherwise.
"""

from dataclasses import dataclass, field

import numpy as np

from .factor_system import _longest_chain
from .graph_core import (RaggedSets, four_point_delta, quasiconvexity_constant,
                         segments)
from .sampling import (DEFAULT_PAIR_BUDGET, SampleSpec, rng_for,
                       sample_indices, sample_unordered_pairs)

# relation codes between indices
EQUAL, NESTED, CONTAINS, ORTHOGONAL, TRANSVERSE = 0, 1, 2, 3, 4

DEFAULT_E_GRID = (1, 2, 3, 4, 6, 8)
DEFAULT_BGI_GRID = (0, 1, 2, 3, 4, 6, 8)
KAPPA_GRID = (1, 2, 3, 4, 6, 8)
DEFAULT_K_GRID = ((1, 0), (1, 1), (2, 2), (3, 3), (4, 4), (6, 6), (8, 8),
                  (12, 12), (16, 16))


def _by_target(tgt):
    """(t, rows) for every distinct t in ``tgt``; rows ascending."""
    order = np.argsort(tgt, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(tgt[order])) + 1):
        if len(rows):
            yield int(tgt[rows[0]]), rows


def _by_block(inst, us):
    """(block, slots, rows) per block of the spaces of the indices ``us``:
    ``rows`` ascending, ``slots`` the slots of ``us[rows]`` in the block."""
    blocks, block_of, slot_of = inst.blocks
    for b, rows in _by_target(block_of[us]):
        yield blocks[b], slot_of[us[rows]], rows


def _vertex_counts(inst):
    blocks, block_of, _ = inst.blocks
    return np.asarray([block.n for block in blocks])[block_of]


def _rep_distances(inst, us, xs, ys):
    """(rows, d) per chunk: ``d[i, p]`` is d_{C(u)}, u = ``us[rows[i]]``,
    between the representatives of pi_u(xs[p]) and pi_u(ys[p]).  One call
    per block; one-vertex spaces, where every distance is 0, are left out."""
    for block, slots, rows in _by_block(inst, us):
        if block.n > 1:
            for lo, hi, d in block.table_pairs(slots, inst.reps, us[rows],
                                               xs, ys):
                yield rows[lo:hi], d


def _min_to_sets(inst, sets, tgt, rows, xs):
    """(part, m) per chunk of ``rows``: ``m[i, p]`` is the least d_t(y,
    sets[k]) over y in pi_t(xs[p]), for k = ``part[i]`` and t = ``tgt[k]``.

    The sets named are nonempty.  One call per block of the targets; a
    target of one vertex, where every distance is 0, is left out."""
    for block, slots, group in _by_block(inst, tgt[rows]):
        if block.n > 1:
            part = rows[group]
            for lo, hi, dist in block.set_rows(slots, sets, part, len(xs)):
                yield part[lo:hi], inst.store.min_over_pairs(
                    tgt[part[lo:hi]], xs, dist)


def _first_max(values, kappa):
    """Index of the first strict maximum above kappa, else None."""
    if len(values) == 0:
        return None
    i = int(np.argmax(values))
    return i if values[i] > kappa else None


# Most relation-matrix entries one mask block of _sample_pairs holds.
MASK_BLOCK = 1 << 20


def _sample_pairs(mask_rows, rows, width, budget, seed):
    """Sampled (i, j) with ``mask_rows(lo, hi)[i - lo, j]``, row-major, over
    ``rows`` rows of ``width`` columns.

    The rows are masked a block at a time.  The ranks ``sample_indices``
    draws are unranked from per-block counts: rank k of a block is its k-th
    set entry in row-major order, so the full pair list is never built.
    """
    step = max(1, MASK_BLOCK // max(width, 1))
    blocks = [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]
    ends = np.cumsum([0] + [np.count_nonzero(mask_rows(*b)) for b in blocks])
    idx, spec = sample_indices(int(ends[-1]), budget, seed)
    cuts = np.searchsorted(idx, ends)
    flat = np.empty_like(idx)
    for b, (lo, hi) in enumerate(blocks):
        sel = slice(cuts[b], cuts[b + 1])
        flat[sel] = lo * width + np.flatnonzero(mask_rows(lo, hi))[
            idx[sel] - ends[b]]
    return *np.divmod(flat, width), spec


def _composed(first, second, n):
    """(u, w) for every (u, v) in ``first`` and (v, w) in ``second``.

    Both are (k, 2) pair arrays; ``second`` is sorted by its first column.
    """
    owner, pos = segments(np.searchsorted(second[:, 0], np.arange(n + 1)),
                          first[:, 1])
    return first[owner, 0], second[pos, 1]


# ---------------------------------------------------------------------------
# structural checks (exact)

def _container_cases(below_eq, O):
    """(cases, failures) of the container axiom, row-major in (T, U).

    A case is U below or equal to T and orthogonal to some index below T; it
    fails when no W properly below T holds every such index.  Only the U
    orthogonal to something are walked.
    """
    cases, failures = 0, []
    orthogonal = np.flatnonzero(O.any(axis=1))
    ts, k = np.nonzero(below_eq[orthogonal].T)
    for t, u in zip(ts, orthogonal[k]):
        orth = O[u] & below_eq[:, t]
        if not orth.any():
            continue
        cases += 1
        holds = below_eq[orth].all(axis=0) & below_eq[:, t]
        holds[t] = False
        if not holds.any():
            failures.append((int(t), int(u)))
    return cases, failures


@dataclass
class StructuralReport:
    passed: bool
    complexity: int
    xi: int
    failures: list
    rho_sample: SampleSpec
    unreached_rho: int
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {"passed": self.passed, "complexity": self.complexity,
                "xi": self.xi, "failures": self.failures[:8],
                "rho_sample": self.rho_sample.to_dict(),
                "unreached_rho": self.unreached_rho, "details": self.details}


def check_structural(inst, rho_pair_budget=DEFAULT_PAIR_BUDGET, seed=0):
    """Exact relation/order axioms plus bounded rho and pi set diameters."""
    n = inst.n_indices()
    rel = inst.rel
    failures = []

    if not (np.diag(rel) == EQUAL).all():
        failures.append({"check": "diagonal", "detail": "non-equal diagonal"})
    elif (rel == EQUAL).sum() != n:
        failures.append({"check": "equal-off-diagonal",
                         "detail": "equal relation off the diagonal"})
    N = rel == NESTED
    C = rel == CONTAINS
    O = rel == ORTHOGONAL
    T = rel == TRANSVERSE
    if not (N.T == C).all():
        failures.append({"check": "nesting-mirror",
                         "detail": "nested/contains not mirrored"})
    if not (O == O.T).all():
        failures.append({"check": "orthogonality-symmetric"})
    if not (T == T.T).all():
        failures.append({"check": "transversality-symmetric"})
    if (N & N.T).any():
        failures.append({"check": "nesting-antisymmetric"})
    # joins over the nested pair list: U < V < W needs U < W, and U < V
    # orthogonal to W needs U orthogonal to W
    nested = np.argwhere(N)
    cu, cw = _composed(nested, nested, n)
    bad = ~N[cu, cw]
    if bad.any():
        u, v = divmod(int((cu * n + cw)[bad].min()), n)
        failures.append({"check": "nesting-transitive",
                         "witness": (inst.labels[u], inst.labels[v])})
    maximal = np.flatnonzero(~N.any(axis=1))
    if len(maximal) != 1 or maximal[0] != inst.maximal:
        failures.append({"check": "unique-maximal",
                         "witness": [inst.labels[m] for m in maximal]})
    cu, cw = _composed(nested, np.argwhere(O), n)
    bad = ~O[cu, cw] & (cu != cw)
    if bad.any():
        u, v = divmod(int((cu * n + cw)[bad].min()), n)
        failures.append({"check": "orthogonality-inherited",
                         "witness": (inst.labels[u], inst.labels[v])})
    if (O & (N | C)).any():
        failures.append({"check": "orthogonal-incomparable"})

    # container axiom
    container_checked, bad = _container_cases(N | np.eye(n, dtype=bool), O)
    failures += [{"check": "container",
                  "witness": (inst.labels[t], inst.labels[u])}
                 for t, u in bad]

    # complexity: the elements of a longest chain of comparable indices,
    # over the indices on no nesting cycle
    complexity = len(_longest_chain([np.flatnonzero(row).tolist()
                                     for row in N]))

    # pi and rho set diameters
    keyed = inst.store.keyed
    xi = 0
    if not keyed.all_singletons():
        big = np.flatnonzero(np.diff(keyed.indptr) > 1)
        sets = RaggedSets(keyed.data, keyed.indptr).take(big)
        xi = int(inst.diameters(big // inst.X.n, sets).max(initial=0))
    us, vs, spec = _sample_pairs(
        lambda lo, hi: (rel[lo:hi] == NESTED) | (rel[lo:hi] == TRANSVERSE), n,
        n, rho_pair_budget, seed)
    sets, reached = inst.rho_sets(us, vs)
    unreached = int((~reached).sum())
    big = np.flatnonzero(reached & (sets.sizes() > 1))
    xi = max(xi, int(inst.diameters(vs[big], sets.take(big)).max(initial=0)))
    return StructuralReport(not failures, complexity, xi, failures, spec,
                            unreached,
                            {"container_cases": container_checked})


# ---------------------------------------------------------------------------
# projections: coarse-Lipschitz constant (axiom 1 measurement)

def check_projection_lipschitz(inst, seed=0):
    """Largest one-edge jump of any projection (the (K,K) constant)."""
    edges = np.asarray(inst.X.edges, dtype=np.int64)
    idx, spec = sample_indices(len(edges), 100_000, seed)
    us, vs = edges[idx, 0], edges[idx, 1]
    # per index its largest jump and the first edge with it; the witness
    # is the first index with the largest
    n = inst.n_indices()
    best, first = np.zeros((2, n), dtype=np.int64)
    for rows, d in _rep_distances(inst, np.arange(n), us, vs):
        first[rows] = np.argmax(d, axis=1)
        best[rows] = d[np.arange(len(rows)), first[rows]]
    K = int(best.max(initial=0))
    witness = None
    if K > 0:
        u = int(np.argmax(best))
        witness = {"index": inst.labels[u],
                   "edge": (int(us[first[u]]), int(vs[first[u]]))}
    return {"K": K, "witness": witness, "sample": spec.to_dict()}


# ---------------------------------------------------------------------------
# consistency (kappa_0)

@dataclass
class ConsistencyReport:
    kappa0: int
    witness: dict | None
    samples: dict
    unreached: int

    def to_dict(self):
        return {"kappa0": self.kappa0, "witness": self.witness,
                "samples": self.samples, "unreached": self.unreached}


def check_consistency(inst, pair_budget=20_000, point_budget=60,
                      triple_budget=40_000, seed=0):
    """max over scanned configurations of the three consistency minima."""
    n = inst.n_indices()
    rng = rng_for(seed)
    xs = (np.arange(inst.X.n) if inst.X.n <= point_budget
          else np.sort(rng.choice(inst.X.n, size=point_budget, replace=False)))
    rel = inst.rel
    kappa = 0
    witness = None

    # transverse: both directions of each pair, min over them per point;
    # each direction's sweep folds into the pair's row as it arrives, so
    # the scan holds one row per pair, not one per direction
    tu, tv, tspec = _sample_pairs(
        lambda lo, hi: np.triu(rel[lo:hi] == TRANSVERSE, 1 + lo), n, n,
        pair_budget, seed)
    tgt = np.concatenate([tu, tv])
    sets, hit = inst.rho_sets(np.concatenate([tv, tu]), tgt)
    ok = hit[:len(tu)] & hit[len(tu):]
    m = np.full((len(tu), len(xs)), np.iinfo(np.int32).max, dtype=np.int32)
    # a one-vertex target answers 0
    m[np.flatnonzero(hit & (_vertex_counts(inst)[tgt] == 1)) % len(tu)] = 0
    for rows, got in _min_to_sets(inst, sets, tgt, np.flatnonzero(hit), xs):
        # both directions of a pair may share a chunk, so each direction's
        # rows fold in apart; within one direction the pairs are distinct
        for side in (rows < len(tu), rows >= len(tu)):
            k = rows[side] % len(tu)
            m[k] = np.minimum(m[k], got[side])
    unreached = int((~ok).sum())
    m[~ok] = -1
    # the first maximum in row-major order: first pair, then first point
    k = _first_max(m.ravel(), kappa)
    if k is not None:
        (k, i), kappa = divmod(k, len(xs)), int(m.flat[k])
        witness = {"kind": "transverse",
                   "pair": (inst.labels[tu[k]], inst.labels[tv[k]]),
                   "x": int(xs[i])}

    nv, nw, nspec = _sample_pairs(lambda lo, hi: rel[lo:hi] == NESTED, n, n,
                                  pair_budget, seed + 1)
    # first term: d_W(pi_W(x), rho^V_W), exact set minimum
    sets, ok = inst.rho_sets(nv, nw)
    unreached += int((~ok).sum())
    mw = np.zeros((len(nv), len(xs)), dtype=np.int32)
    for rows, got in _min_to_sets(inst, sets, nw, np.flatnonzero(ok), xs):
        mw[rows] = got
    # second: diam(pi_V(x) u rho^W_V(pi_W(x))) at representative level,
    # one call per block of the spaces of V
    ws, w_of = np.unique(nw, return_inverse=True)
    down_x = np.asarray([inst.carrier(w)[inst.pi_rep(w)[xs]] for w in ws],
                        dtype=np.int64).reshape(len(ws), len(xs))
    mv = np.zeros_like(mw)
    for block, slots, rows in _by_block(inst, nv):
        if block.n > 1:
            for lo, hi, d in block.table_pairs(slots, inst.reps, nv[rows], xs,
                                               down_x[w_of[rows]]):
                mv[rows[lo:hi]] = d
    m = np.minimum(mw, mv, out=mw)
    m[~ok] = -1
    k = _first_max(m.ravel(), kappa)
    if k is not None:
        (k, i), kappa = divmod(k, len(xs)), int(m.flat[k])
        witness = {"kind": "nested",
                   "pair": (inst.labels[nv[k]], inst.labels[nw[k]]),
                   "x": int(xs[i])}

    # rho-consistency: U nested in V, and W nested in V or transverse to V
    # and not orthogonal to U; a mask row per nested pair (U, V)
    nested = np.argwhere(rel == NESTED)

    def chains(lo, hi):
        u, v = nested[lo:hi].T
        return (rel[v] == NESTED) | ((rel[v] == TRANSVERSE)
                                     & (rel[:, u].T != ORTHOGONAL))
    tk, cw, trspec = _sample_pairs(chains, len(nested), n, triple_budget,
                                   seed + 2)
    cu, cv = nested[tk].T
    d = np.full(len(cw), -1, dtype=np.int64)
    sets, reached = inst.rho_sets(np.concatenate([cu, cv]),
                                  np.concatenate([cw, cw]))
    hit = np.flatnonzero(reached[:len(cw)] & reached[len(cw):])
    unreached += len(cw) - len(hit)
    d[hit] = 0      # the distance in a one-vertex space
    for block, slots, rows in _by_block(inst, cw[hit]):
        if block.n > 1:
            k = hit[rows]
            ends = sets.take(np.concatenate([k, k + len(cw)]))
            d[k] = block.set_distances(slots, ends, np.arange(len(k)),
                                       np.arange(len(k), 2 * len(k)))
    k = _first_max(d, kappa)
    if k is not None:
        kappa = int(d[k])
        witness = {"kind": "rho-chain",
                   "triple": (inst.labels[cu[k]], inst.labels[cv[k]],
                              inst.labels[cw[k]])}

    samples = {"transverse": tspec.to_dict(), "nested": nspec.to_dict(),
               "rho_chain": trspec.to_dict(), "points": len(xs)}
    return ConsistencyReport(kappa, witness, samples, unreached)


# ---------------------------------------------------------------------------
# large links

def check_large_links(inst, E_grid=DEFAULT_E_GRID, pair_budget=150, seed=0):
    """Fitted lambda per E: cover violators by their nest-maximal elements.

    Per W, a child T violates at E on a pair when d_T of the pair is at
    least E, and is nest-maximal when no child it is nested in violates
    too, that is when the largest d over those children stays below E.
    That largest d is a join over the nested pairs among W's children, so
    each W takes one (E, child, pair) mask of nest-maximal violators and a
    few reductions of it, never a children x children product.  Witnesses
    are the first strict maximum per E over W, then over pairs.
    """
    rng = rng_for(seed)
    if inst.X.n * (inst.X.n - 1) // 2 <= pair_budget:
        us, vs, spec = sample_unordered_pairs(inst.X.n, pair_budget, seed)
    else:
        us = rng.integers(0, inst.X.n, size=pair_budget)
        vs = rng.integers(0, inst.X.n, size=pair_budget)
        keep = us != vs
        us, vs = us[keep], vs[keep]
        spec = SampleSpec("sampled", inst.X.n * (inst.X.n - 1) // 2,
                          len(us), seed)
    grid = np.asarray(E_grid, dtype=np.int64).reshape(-1, 1, 1)
    lowest = np.iinfo(np.int32).min
    lam = np.zeros(len(E_grid))
    witnesses = [None] * len(E_grid)
    no_finite = []
    # nested pairs (child, parent), sorted by child, and their CSR by child
    nested = np.argwhere(inst.rel == NESTED)
    if not len(us):     # with no sampled pair nothing violates
        nested = nested[:0]
    above_ptr = np.searchsorted(nested[:, 0], np.arange(inst.n_indices() + 1))
    all_rhos, all_reached = inst.rho_sets(*nested.T)
    for w, rows in _by_target(nested[:, 1]):
        children = nested[rows, 0]
        # (|children| + 1, pairs): the children's distances, then W's
        ds = np.zeros((len(rows) + 1, len(us)), dtype=np.int32)
        for at, d in _rep_distances(inst, np.append(children, w), us, vs):
            ds[at] = d
        ds, dw = ds[:-1], ds[-1] + 1.0
        reached = all_reached[rows]
        # per child, the largest d over the children it is nested in: a
        # join of the children with the nested pairs, which lists each
        # child's pairs together
        lo, pos = segments(above_ptr, children)
        up = nested[pos, 1]
        inner = np.isin(up, children)
        lo, hi = lo[inner], np.searchsorted(children, up[inner])
        above = np.full_like(ds, lowest)
        if len(lo):
            first = np.flatnonzero(np.diff(lo, prepend=-1))
            above[lo[first]] = np.maximum.reduceat(ds[hi], first, axis=0)
        maximal = ds >= grid                         # (E, |children|, pairs)
        maximal &= above < grid
        cover = maximal.sum(axis=1)                  # (E, pairs)
        blocked = np.any(maximal, axis=1, where=~reached[:, None])
        # d_W(pi_W(x), rho^T_W) per child T and pair (x, y), and its
        # largest value over each cover
        to_rho = np.zeros(ds.shape, dtype=np.int32)
        for part, got in _min_to_sets(inst, all_rhos, nested[:, 1],
                                      rows[reached], us):
            to_rho[np.searchsorted(rows, part)] = got
        side = np.maximum.reduce(np.broadcast_to(to_rho, maximal.shape),
                                 axis=1, where=maximal, initial=lowest)
        need = np.maximum(cover / dw, side / dw)
        need[(cover == 0) | blocked] = -np.inf
        # in (pair, E) order, the first 8 of the scan
        for e in np.argwhere(blocked.T)[:8 - len(no_finite), 1].tolist():
            no_finite.append({"W": inst.labels[w], "E": int(E_grid[e]),
                              "detail": "unreached rho for cover"})
        # the first strict maximum: earlier W, then earlier pairs, win ties
        best = need.argmax(axis=1)
        better = need[np.arange(len(lam)), best] > lam
        for e in np.flatnonzero(better).tolist():
            p = int(best[e])
            lam[e] = need[e, p]
            witnesses[e] = {"W": inst.labels[w],
                            "pair": (int(us[p]), int(vs[p])),
                            "cover": int(cover[e, p])}
    return {"lambda_by_E": {int(E): float(x) for E, x in zip(E_grid, lam)},
            "witnesses": {int(E): x for E, x in zip(E_grid, witnesses)},
            "no_finite_lambda": no_finite,
            "sample": spec.to_dict()}


# ---------------------------------------------------------------------------
# bounded geodesic image

def check_bgi(inst, E_grid=DEFAULT_BGI_GRID, pair_budget=4000, seed=0):
    """Minimal grid E bounding projections of geodesics missing N_E(rho)."""
    rng = rng_for(seed)
    n = inst.n_indices()
    vs, ws, spec = _sample_pairs(lambda lo, hi: inst.rel[lo:hi] == NESTED, n,
                                 n, pair_budget, seed)
    sets, reached = inst.rho_sets(vs, ws)
    keep = np.flatnonzero(reached)
    unreached = len(vs) - len(keep)
    # 12 geodesics per pair from one rng stream, drawn in sample order for
    # the reached pairs only: the bounds are laid out (pair, draw, a/b), as
    # scalar draws would take them; a draw with a == b is no geodesic
    sizes = _vertex_counts(inst)
    src, dst = rng.integers(0, np.repeat(sizes[ws[keep]], 24)).reshape(-1,
                                                                        2).T
    k = np.repeat(keep, 12)
    drawn = src != dst
    k, src, dst = k[drawn], src[drawn], dst[drawn]
    # per observation (sample position, draw): the least distance from its
    # geodesic in C(W) to rho^V_W, and its image through the carrier of W
    # and pi_V, one (observation, vertex) entry per geodesic vertex
    avoid = np.zeros(len(k), dtype=np.int64)
    owner, image = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    at_w, w_of = np.unique(ws[k], return_inverse=True)
    carriers = RaggedSets.from_arrays([inst.carrier(w) for w in at_w])
    for block, slots, rows in _by_block(inst, ws[k]):
        paths = block.walks(slots, src[rows], dst[rows])
        obs = rows[paths.owners()]
        owner.append(obs)
        image.append(inst.reps[vs[k[obs]], carriers.flat[
            carriers.offsets[w_of[obs]] + paths.flat]])
        # k ascends along rows, so each pair's observations are one run
        pairs, first = np.unique(k[rows], return_index=True)
        first = np.append(first, len(rows))
        for lo, hi, dist in block.set_rows(slots[first[:-1]], sets, pairs,
                                           0):
            run = np.arange(first[lo], first[hi])
            on, at = segments(paths.offsets, run)
            pair = np.searchsorted(first, run, side="right") - 1 - lo
            avoid[rows[run]] = np.minimum.reduceat(
                dist[pair[on], paths.flat[at]],
                paths.offsets[run] - paths.offsets[run[0]])
    images = RaggedSets.union(np.concatenate(owner), np.concatenate(image),
                              len(k))
    # an image of one vertex has diameter 0; the others are measured in
    # C(V), one call per block
    wide = np.flatnonzero(images.sizes() > 1)
    diam = np.zeros(len(k), dtype=np.int64)
    diam[wide] = inst.diameters(vs[k[wide]], images.take(wide))
    E_bgi = None
    for E in sorted(E_grid):
        if (diam[avoid > E] <= E).all():
            E_bgi = E
            break
    violations = []
    if E_bgi is None:
        Emax = max(E_grid)
        bad = np.flatnonzero((avoid > Emax) & (diam > Emax))[:8]
        violations = [{"V": inst.labels[vs[j]], "W": inst.labels[ws[j]],
                       "avoid": int(avoid[i]), "diam": int(diam[i])}
                      for i, j in zip(bad.tolist(), k[bad].tolist())]
    return {"E_bgi": E_bgi, "violations": violations[:8],
            "observations": len(k), "unreached": unreached,
            "sample": spec.to_dict()}


# ---------------------------------------------------------------------------
# partial realization

def _rho_terms(inst, vs):
    """Per v in vs and X-vertex x: max(0, the largest d_W(pi_W(x), rho^v_W)
    over the W with rho^v_W reached), one column per W."""
    n, all_x = inst.n_indices(), np.arange(inst.X.n, dtype=np.int64)
    out = np.zeros((len(vs), inst.X.n), dtype=np.int64)
    src, tgt = np.repeat(vs, n), np.tile(np.arange(n), len(vs))
    sets, reached = inst.rho_sets(src, tgt)
    for rows, got in _min_to_sets(inst, sets, tgt, np.flatnonzero(reached),
                                  all_x):
        # one v may have several W in a chunk; rows ascend, so each v's
        # rows are one run
        v = rows // n
        first = np.flatnonzero(np.diff(v, prepend=-1))
        if len(first) < len(v):
            got = np.maximum.reduceat(got, first)
        out[v[first]] = np.maximum(out[v[first]], got)
    return dict(zip(vs, out))


def _gaps(inst, families, rho_terms):
    """Per family of (index, target point) assignments, the per-x
    realization defect: the largest of the three realization conditions
    over its indices.  One call per block over all the assignments."""
    vs, ps = np.asarray([a for fam in families for a in fam],
                        dtype=np.int64).reshape(-1, 2).T
    need = np.stack([rho_terms[v] for v in vs.tolist()])
    for rows, got in _min_to_sets(inst, RaggedSets.singletons(ps), vs,
                                  np.arange(len(vs)),
                                  np.arange(inst.X.n, dtype=np.int64)):
        need[rows] = np.maximum(need[rows], got)
    return np.maximum.reduceat(need, np.cumsum([0] + [len(f) for f in
                                                      families[:-1]]))


def check_partial_realization(inst, family_budget=12, seed=0):
    """Smallest alpha realizing three sampled points per orthogonal family;
    a point that needs alpha above 8 has no realizer."""
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
    targets = [[[int(inst.pi_rep(v)[int(rng.integers(0, inst.X.n))])
                 for v in fam] for _ in range(3)]
               for fam in families]
    # the rho term of an index does not depend on its target point
    rho_terms = _rho_terms(inst, sorted({v for fam in families for v in fam}))
    needs = _gaps(inst, [list(zip(fam, point)) for fam, points
                         in zip(families, targets) for point in points],
                  rho_terms)
    alpha = 0
    witness = None
    failures = []
    for fam, need in zip(np.repeat(np.arange(len(families)), 3).tolist(),
                         needs):
        fam = families[fam]
        i = int(np.argmin(need))
        if need[i] > alpha:
            alpha = int(need[i])
            witness = {"family": [inst.labels[v] for v in fam],
                       "realizer": i}
        if need[i] > 8:
            failures.append({"family": [inst.labels[v] for v in fam],
                             "best": int(need[i])})
    return {"alpha": alpha, "witness": witness,
            "no_realizer": failures[:8],
            "families_scanned": len(families), "seed": seed}


# ---------------------------------------------------------------------------
# uniqueness

def check_uniqueness(inst, seed=0):
    """Table kappa -> max d_X over pairs whose projections all stay < kappa,
    on 20,000 sampled pairs (all of them when there are fewer)."""
    n = inst.n_indices()
    us, vs, spec = sample_unordered_pairs(inst.X.n, 20_000, seed)
    m = np.zeros(len(us), dtype=np.int64)
    for _, d in _rep_distances(inst, np.arange(n), us, vs):
        np.maximum(m, d.max(axis=0), out=m)
    dx = inst.X.oracle().pairs(us, vs).astype(np.int64)
    table = {}
    witnesses = {}
    max_dx = int(dx.max()) if len(dx) else 0
    for kappa in KAPPA_GRID:
        mask = m < kappa
        if mask.any():
            i = int(np.argmax(np.where(mask, dx, -1)))
            table[kappa] = int(dx[i])
            witnesses[kappa] = (int(us[i]), int(vs[i]))
        else:
            table[kappa] = 0
            witnesses[kappa] = None
    # collapsed projections: far-apart pairs that no index can tell apart
    kmin = KAPPA_GRID[0]
    saturated = max_dx > kmin and table[kmin] >= max_dx
    return {"theta": table, "witnesses": witnesses,
            "saturated_at_grid_max": saturated,
            "max_dx_sampled": max_dx, "sample": spec.to_dict()}


# ---------------------------------------------------------------------------
# distance formula

def distance_formula_fit(inst, s=3, pair_budget=None, seed=0):
    """Fit (K, C) for d_X against the thresholded projection sum."""
    exhaustive = (pair_budget is None
                  or inst.X.n * (inst.X.n - 1) // 2 <= pair_budget)
    us, vs, spec = sample_unordered_pairs(
        inst.X.n, None if exhaustive else pair_budget, seed)
    # every term below s is zeroed, so an index whose space has no distance
    # of s or more adds nothing
    counted = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        rows[block.spans()[slots] >= s] for block, slots, rows
        in _by_block(inst, np.arange(inst.n_indices()))])
    total = np.zeros(len(us), dtype=np.int64)
    for _, d in _rep_distances(inst, counted, us, vs):
        total += np.where(d >= s, d, 0).sum(axis=0, dtype=np.int64)
    dx = inst.X.oracle().pairs(us, vs).astype(np.int64)
    for K, C in DEFAULT_K_GRID:
        upper_ok = (dx <= K * total + C).all()
        lower_ok = (total <= K * dx + C).all()
        if upper_ok and lower_ok:
            return {"K": K, "C": C, "violations": 0, "s": s,
                    "pairs": len(us), "sample": spec.to_dict()}
    K, C = DEFAULT_K_GRID[-1]
    bad = ~((dx <= K * total + C) & (total <= K * dx + C))
    idx = np.flatnonzero(bad)[:8]
    return {"K": None, "C": None, "violations": int(bad.sum()), "s": s,
            "witnesses": [(int(us[i]), int(vs[i])) for i in idx],
            "pairs": len(us), "sample": spec.to_dict()}


# ---------------------------------------------------------------------------
# hierarchical quasi-convexity

@dataclass
class HQCReport:
    k0: int
    k0_witness: str | None
    k_table: dict
    witnesses: dict
    q_comparison: int | None = None

    def to_dict(self):
        return {"k0": self.k0, "k0_witness": self.k0_witness,
                "k_table": self.k_table, "witnesses": self.witnesses,
                "q_comparison": self.q_comparison}


def check_hqc(inst, Y, r_grid=(0, 1, 2, 3), seed=0):
    """Projection quasi-convexity (k(0)) and the realization table k(r)."""
    yverts = np.asarray(sorted(set(int(v) for v in
                               (Y.vertices if hasattr(Y, "vertices") else Y))),
                        dtype=np.int64)
    # the projection image of Y in each index space; an empty Y has none
    us = np.arange(inst.n_indices() if len(yverts) else 0)
    images = inst.store.images_of(us, RaggedSets(yverts, [0, len(yverts)]),
                                  np.zeros(len(us), dtype=np.int64))
    q = np.zeros(inst.n_indices(), dtype=np.int64)
    for block, slots, rows in _by_block(inst, us):
        if block.n > 1:
            q[rows] = [rep.q for rep in block.quasiconvexity(
                slots, images.take(rows), 20_000, seed)]
    # the first index with the largest constant
    k0 = int(q.max(initial=0))
    k0_witness = inst.labels[int(np.argmax(q))] if k0 > 0 else None
    worst_gap = np.zeros(inst.X.n, dtype=np.int64)
    for _, got in _min_to_sets(inst, images, us, us,
                               np.arange(inst.X.n, dtype=np.int64)):
        np.maximum(worst_gap, got.max(axis=0), out=worst_gap)
    dist_y = inst.X.oracle().dist_to_set(yverts)
    k_table = {}
    witnesses = {}
    for r in r_grid:
        mask = worst_gap <= r
        if mask.any():
            i = int(np.argmax(np.where(mask, dist_y, -1)))
            k_table[int(r)] = int(dist_y[i])
            witnesses[int(r)] = int(i)
        else:
            k_table[int(r)] = 0
            witnesses[int(r)] = None
    return HQCReport(int(k0), k0_witness, k_table, witnesses)


def hqc_qc_equivalence(inst, Y, r_grid=(0, 1, 2, 3), seed=0):
    """Compare plain quasi-convexity in X with the hierarchical constants."""
    yverts = (Y.vertices if hasattr(Y, "vertices") else sorted(Y))
    q = quasiconvexity_constant(inst.X, yverts, seed=seed)
    hqc = check_hqc(inst, yverts, r_grid=r_grid, seed=seed)
    hqc.q_comparison = q.q
    delta = four_point_delta(inst.X, budget=40_000, seed=seed)
    flags = []
    if delta.delta > 1.0:
        flags.append("NotHyperbolicFlag")
    return {"q": q.q, "k0": hqc.k0, "k_table": hqc.k_table,
            "delta_X": delta.delta, "flags": flags,
            "hqc": hqc.to_dict(),
            "observed": "k-values and q small together" if (
                q.q <= 1 and hqc.k0 <= 1) else "large constants co-vary"}


# ---------------------------------------------------------------------------
# the full battery

@dataclass
class AxiomBatteryReport:
    structural: StructuralReport
    lipschitz: dict
    consistency: ConsistencyReport
    large_links: dict
    bgi: dict
    partial_realization: dict
    uniqueness: dict
    delta: float
    seed: int

    @property
    def passed(self):
        return (self.structural.passed
                and self.E_ll is not None
                and self.bgi["E_bgi"] is not None
                and not self.partial_realization["no_realizer"])

    @property
    def E_ll(self):
        """Smallest grid E >= max(xi, kappa0) with all violator covers fine."""
        floor = max(self.structural.xi, self.consistency.kappa0)
        blocked = {entry["E"] for entry in self.large_links["no_finite_lambda"]}
        for E in sorted(self.large_links["lambda_by_E"]):
            if E >= floor and E not in blocked:
                return E
        return None

    def stable_constants(self):
        """Constants compared across radii at tolerance 0."""
        return {"delta": self.delta,
                "xi": self.structural.xi,
                "complexity": self.structural.complexity,
                "K": self.lipschitz["K"],
                "kappa0": self.consistency.kappa0,
                "E_bgi": self.bgi["E_bgi"],
                "E_ll": self.E_ll,
                "alpha": self.partial_realization["alpha"]}

    def headline(self):
        """Stable constants plus the radius-parameterized tables."""
        out = dict(self.stable_constants())
        out["lambda_by_E"] = self.large_links["lambda_by_E"]
        out["theta"] = self.uniqueness["theta"]
        return out

    def to_dict(self):
        return {"passed": self.passed,
                "headline": self.headline(),
                "structural": self.structural.to_dict(),
                "lipschitz": self.lipschitz,
                "consistency": self.consistency.to_dict(),
                "large_links": self.large_links,
                "bgi": self.bgi,
                "partial_realization": self.partial_realization,
                "uniqueness": self.uniqueness,
                "seed": self.seed}


def run_axiom_battery(inst, seed=0):
    """All nine checks, one seed, each check's own budgets; see .headline().

    The space delta is measured once per distinct space object: indices
    that share a space (the cosets of an absorbed structure) share it."""
    inst.blocks     # the delta scan reads the blocks' matrices
    delta = 0.0
    for space in {id(s): s for s in inst.spaces}.values():
        budget = None if space.n <= 40 else 40_000
        delta = max(delta, four_point_delta(space, budget=budget,
                                            seed=seed).delta)
    return AxiomBatteryReport(
        structural=check_structural(inst, seed=seed),
        lipschitz=check_projection_lipschitz(inst, seed=seed),
        consistency=check_consistency(inst, seed=seed),
        large_links=check_large_links(inst, seed=seed),
        bgi=check_bgi(inst, seed=seed),
        partial_realization=check_partial_realization(inst, seed=seed),
        uniqueness=check_uniqueness(inst, seed=seed),
        delta=delta,
        seed=seed)
