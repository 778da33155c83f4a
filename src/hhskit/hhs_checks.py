"""Empirical verification battery for hierarchical structures.

Every check estimates the smallest constant (on a grid where the axiom
needs one) satisfying all scanned configurations, with witnesses, and
records the sample spec.  Nothing here proves an axiom; the battery is a
measurement device and the reports say exactly what was scanned.

Set-distance conventions, applied uniformly and recorded here: distances
from a projection set to a relative-projection set (or any fixed target
set) are exact minima over both sets; pairwise distances between two
projection sets (uniqueness, distance formula, large-link gaps) are taken
between canonical representatives, which is exact whenever the tie sets
are singletons and within one set-diameter (already part of xi) otherwise.
"""

from dataclasses import dataclass, field

import numpy as np

from .graph_core import four_point_delta, quasiconvexity_constant
from .sampling import (DEFAULT_PAIR_BUDGET, SampleSpec, rng_for,
                       sample_indices, sample_unordered_pairs)

# relation codes between indices
EQUAL, NESTED, CONTAINS, ORTHOGONAL, TRANSVERSE = 0, 1, 2, 3, 4

DEFAULT_E_GRID = (1, 2, 3, 4, 6, 8)
DEFAULT_BGI_GRID = (0, 1, 2, 3, 4, 6, 8)
DEFAULT_KAPPA_GRID = (1, 2, 3, 4, 6, 8)
DEFAULT_K_GRID = ((1, 0), (1, 1), (2, 2), (3, 3), (4, 4), (6, 6), (8, 8),
                  (12, 12), (16, 16))


def _carrier(inst, u):
    """C(u)-vertex -> X-vertex used by representative-level downward maps."""
    if inst.space_to_x[u] is not None:
        return np.asarray(inst.space_to_x[u], dtype=np.int64)
    return inst._reverse_projection(u)


def _pi_rep_distance(inst, u, xs, ys):
    """d_{C(u)} between projection representatives of X-vertex arrays."""
    rep = inst.pi_rep(u)
    return inst.space_oracle(u).pairs(rep[xs], rep[ys])


def _dist_to_target(inst, u, target):
    """Distance from every C(u)-vertex to a target vertex set, exactly."""
    return inst.space_oracle(u).dist_to_set(target).astype(np.int64)


def _pi_min_to_target(inst, u, xs, target):
    """min over pi_u(x) of the distance to the target set, per x in xs."""
    return inst.projections[u].min_over_sets(xs, _dist_to_target(inst, u, target))


# ---------------------------------------------------------------------------
# structural checks (exact)

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
    reach = (N.astype(np.float32) @ N.astype(np.float32)) > 0
    bad = reach & ~N
    if bad.any():
        u, v = np.argwhere(bad)[0]
        failures.append({"check": "nesting-transitive",
                         "witness": (inst.labels[u], inst.labels[v])})
    maximal = np.flatnonzero(~N.any(axis=1))
    if len(maximal) != 1 or maximal[0] != inst.maximal:
        failures.append({"check": "unique-maximal",
                         "witness": [inst.labels[m] for m in maximal]})
    # nested into orthogonal stays orthogonal
    prop = (N.astype(np.float32) @ O.astype(np.float32)) > 0
    bad = prop & ~O
    np.fill_diagonal(bad, False)
    if bad.any():
        u, v = np.argwhere(bad)[0]
        failures.append({"check": "orthogonality-inherited",
                         "witness": (inst.labels[u], inst.labels[v])})
    if (O & (N | C)).any():
        failures.append({"check": "orthogonal-incomparable"})

    # container axiom
    below_eq = N | np.eye(n, dtype=bool)
    container_checked = 0
    for t in range(n):
        members_t = np.flatnonzero(below_eq[:, t])
        if len(members_t) <= 1:
            continue
        for u in members_t:
            orth = np.flatnonzero(O[u] & below_eq[:, t])
            if len(orth) == 0:
                continue
            container_checked += 1
            ok = False
            for w in members_t:
                if w == t:
                    continue
                if below_eq[orth, w].all():
                    ok = True
                    break
            if not ok:
                failures.append({"check": "container",
                                 "witness": (inst.labels[t], inst.labels[u])})

    # complexity: longest chain of comparable elements
    memo = np.full(n, -1, dtype=np.int64)

    def depth(i):
        if memo[i] >= 0:
            return memo[i]
        ups = np.flatnonzero(N[i])
        memo[i] = 1 + max((depth(int(j)) for j in ups), default=0)
        return memo[i]

    complexity = max((int(depth(i)) for i in range(n)), default=0)

    # pi and rho set diameters
    xi = 0
    for u in range(n):
        table = inst.projections[u]
        if not table.all_singletons():
            xi = max(xi, table.max_set_diameter(inst.space_oracle(u)))
    us, vs = inst.eligible_rho_pairs()
    idx, spec = sample_indices(len(us), rho_pair_budget, seed)
    unreached = 0
    for u, v in zip(us[idx].tolist(), vs[idx].tolist()):
        r = inst.rho(u, v)
        if r is None or len(r) == 0:
            unreached += 1
            continue
        if len(r) > 1:
            d = inst.space_oracle(v).diameter_of_set(r)
            if d > xi:
                xi = d
    return StructuralReport(not failures, complexity, xi, failures, spec,
                            unreached,
                            {"container_cases": container_checked})


# ---------------------------------------------------------------------------
# projections: coarse-Lipschitz constant (axiom 1 measurement)

def check_projection_lipschitz(inst, seed=0, edge_budget=100_000):
    """Largest one-edge jump of any projection (the (K,K) constant)."""
    edges = np.asarray(inst.X.edges, dtype=np.int64)
    idx, spec = sample_indices(len(edges), edge_budget, seed)
    us, vs = edges[idx, 0], edges[idx, 1]
    K = 0
    witness = None
    for u in range(inst.n_indices()):
        d = _pi_rep_distance(inst, u, us, vs)
        i = int(np.argmax(d))
        if d[i] > K:
            K = int(d[i])
            witness = {"index": inst.labels[u],
                       "edge": (int(us[i]), int(vs[i]))}
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


# Most relation entries one eligibility mask of check_consistency holds.
TRIPLE_MASK_CAP = 1 << 22


def _rho_chain_triples(rel, nested):
    """Rho-chain triples (U, V, W) over the nested pairs (U, V).

    W is nested in V, or transverse to V and not orthogonal to U.  Two int32
    arrays: the row of (U, V) in ``nested`` and W, in the order of a scan
    over ``nested`` and then over W.
    """
    chunk = max(1, TRIPLE_MASK_CAP // len(rel))
    parts = [np.empty((2, 0), dtype=np.int32)]
    for lo in range(0, len(nested), chunk):
        u, v = nested[lo:lo + chunk].T
        eligible = (rel[v] == NESTED) | ((rel[v] == TRANSVERSE)
                                         & (rel[:, u].T != ORTHOGONAL))
        k, w = np.nonzero(eligible)
        parts.append(np.stack([k + lo, w]).astype(np.int32))
    return np.concatenate(parts, axis=1)


def check_consistency(inst, pair_budget=20_000, point_budget=60,
                      triple_budget=40_000, seed=0):
    """max over scanned configurations of the three consistency minima."""
    n = inst.n_indices()
    rng = rng_for(seed)
    xs = (np.arange(inst.X.n) if inst.X.n <= point_budget
          else np.sort(rng.choice(inst.X.n, size=point_budget, replace=False)))
    kappa = 0
    witness = None
    unreached = 0

    trans = np.argwhere(np.triu(inst.rel == TRANSVERSE, k=1))
    tidx, tspec = sample_indices(len(trans), pair_budget, seed)
    for k in tidx:
        u, v = int(trans[int(k)][0]), int(trans[int(k)][1])
        rho_vu, rho_uv = inst.rho(v, u), inst.rho(u, v)
        if rho_vu is None or rho_uv is None:
            unreached += 1
            continue
        mu = _pi_min_to_target(inst, u, xs, rho_vu)
        mv = _pi_min_to_target(inst, v, xs, rho_uv)
        m = np.minimum(mu, mv)
        i = int(np.argmax(m))
        if m[i] > kappa:
            kappa = int(m[i])
            witness = {"kind": "transverse",
                       "pair": (inst.labels[u], inst.labels[v]),
                       "x": int(xs[i])}

    nested = np.argwhere(inst.rel == NESTED)
    nidx, nspec = sample_indices(len(nested), pair_budget, seed + 1)
    for k in nidx:
        v, w = int(nested[int(k)][0]), int(nested[int(k)][1])
        rho_vw = inst.rho(v, w)
        if rho_vw is None:
            unreached += 1
            continue
        # first term: d_W(pi_W(x), rho^V_W), exact set minimum
        mw = _pi_min_to_target(inst, w, xs, rho_vw)
        # second: diam(pi_V(x) u rho^W_V(pi_W(x))) at representative level
        carrier = _carrier(inst, w)
        down = inst.pi_rep(v)[carrier[inst.pi_rep(w)[xs]]]
        mv = inst.space_oracle(v).pairs(inst.pi_rep(v)[xs], down)
        m = np.minimum(mw, mv)
        i = int(np.argmax(m))
        if m[i] > kappa:
            kappa = int(m[i])
            witness = {"kind": "nested",
                       "pair": (inst.labels[v], inst.labels[w]),
                       "x": int(xs[i])}

    # rho-consistency: U nested in V, W sees both
    tk, tw = _rho_chain_triples(inst.rel, nested)
    tridx, trspec = sample_indices(len(tk), triple_budget, seed + 2)
    for k, w in zip(tk[tridx].tolist(), tw[tridx].tolist()):
        u, v = int(nested[k][0]), int(nested[k][1])
        ru, rv = inst.rho(u, w), inst.rho(v, w)
        if ru is None or rv is None:
            unreached += 1
            continue
        d = int(inst.space_oracle(w).block(ru, rv).min())
        if d > kappa:
            kappa = d
            witness = {"kind": "rho-chain",
                       "triple": (inst.labels[u], inst.labels[v],
                                  inst.labels[w])}

    samples = {"transverse": tspec.to_dict(), "nested": nspec.to_dict(),
               "rho_chain": trspec.to_dict(), "points": len(xs)}
    return ConsistencyReport(kappa, witness, samples, unreached)


# ---------------------------------------------------------------------------
# large links

def check_large_links(inst, E_grid=DEFAULT_E_GRID, pair_budget=150, seed=0):
    """Fitted lambda per E: cover violators by their nest-maximal elements."""
    rng = rng_for(seed)
    n = inst.n_indices()
    parents = [w for w in range(n) if inst.children_exist(w)]
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
        children = inst.nested_below(w)
        ds = np.stack([_pi_rep_distance(inst, int(t), us, vs)
                       for t in children])           # (|children|, pairs)
        dw = _pi_rep_distance(inst, w, us, vs)
        rhos = [inst.rho(int(t), w) for t in children]
        rel_sub = inst.rel[np.ix_(children, children)]
        oracle_w = inst.space_oracle(w)
        for pi in range(len(us)):
            col = ds[:, pi]
            pi_set = inst.pi(w, int(us[pi]))
            for E in E_grid:
                viol = np.flatnonzero(col >= E)
                if len(viol) == 0:
                    continue
                sub = rel_sub[np.ix_(viol, viol)]
                maximal = viol[~(sub == NESTED).any(axis=1)]
                if any(rhos[ci] is None or len(rhos[ci]) == 0
                       for ci in maximal):
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


# ---------------------------------------------------------------------------
# bounded geodesic image

def check_bgi(inst, E_grid=DEFAULT_BGI_GRID, pair_budget=4000,
              geodesics_per_pair=12, seed=0):
    """Minimal grid E bounding projections of geodesics missing N_E(rho)."""
    rng = rng_for(seed)
    nested = np.argwhere(inst.rel == NESTED)
    idx, spec = sample_indices(len(nested), pair_budget, seed)
    observations = []   # (avoid_dist, image_diam)
    unreached = 0
    for k in idx:
        v, w = int(nested[int(k)][0]), int(nested[int(k)][1])
        rho = inst.rho(v, w)
        if rho is None or len(rho) == 0:
            unreached += 1
            continue
        cw = inst.spaces[w]
        oracle_w = inst.space_oracle(w)
        dist_rho = oracle_w.dist_to_set(rho)
        carrier = _carrier(inst, w)
        rep_v = inst.pi_rep(v)
        oracle_v = inst.space_oracle(v)
        for _ in range(geodesics_per_pair):
            a, b = int(rng.integers(0, cw.n)), int(rng.integers(0, cw.n))
            if a == b:
                continue
            path = np.asarray(oracle_w.geodesic(a, b), dtype=np.int64)
            avoid = int(dist_rho[path].min())
            image = np.unique(rep_v[carrier[path]])
            diam = oracle_v.diameter_of_set(image)
            observations.append((avoid, diam, inst.labels[v], inst.labels[w]))
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


# ---------------------------------------------------------------------------
# partial realization

def realization_gap(inst, assignments):
    """Per-x realization defect for (index, target-point) assignments.

    For each X-vertex the value is the largest of the three realization
    conditions over all assigned indices; a zero entry is an exact
    realizer.
    """
    n = inst.n_indices()
    all_x = np.arange(inst.X.n, dtype=np.int64)
    need = np.zeros(inst.X.n, dtype=np.int64)
    for v, p in assignments:
        np.maximum(need, _pi_min_to_target(inst, v, all_x, [int(p)]),
                   out=need)
        for w in range(n):
            r = inst.rel[v, w]
            if r == NESTED or r == TRANSVERSE:
                rw = inst.rho(v, w)
                if rw is None or len(rw) == 0:
                    continue
                np.maximum(need, _pi_min_to_target(inst, w, all_x, rw),
                           out=need)
    return need


def check_partial_realization(inst, family_budget=12, points_per_family=3,
                              alpha_cap=8, seed=0):
    """Smallest alpha realizing sampled orthogonal families of points."""
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
    alpha = 0
    witness = None
    failures = []
    for fam in families:
        for _ in range(points_per_family):
            targets = [int(inst.pi_rep(v)[int(rng.integers(0, inst.X.n))])
                       for v in fam]
            need = realization_gap(inst, list(zip(fam, targets)))
            i = int(np.argmin(need))
            if need[i] > alpha:
                alpha = int(need[i])
                witness = {"family": [inst.labels[v] for v in fam],
                           "realizer": i}
            if need[i] > alpha_cap:
                failures.append({"family": [inst.labels[v] for v in fam],
                                 "best": int(need[i])})
    return {"alpha": alpha, "witness": witness,
            "no_realizer": failures[:8],
            "families_scanned": len(families), "seed": seed}


# ---------------------------------------------------------------------------
# uniqueness

def check_uniqueness(inst, kappa_grid=DEFAULT_KAPPA_GRID, pair_budget=20_000,
                     seed=0):
    """Table kappa -> max d_X over pairs whose projections all stay < kappa."""
    n = inst.n_indices()
    us, vs, spec = sample_unordered_pairs(inst.X.n, pair_budget, seed)
    m = np.zeros(len(us), dtype=np.int64)
    for u in range(n):
        np.maximum(m, _pi_rep_distance(inst, u, us, vs), out=m)
    dx = inst.X.oracle().pairs(us, vs).astype(np.int64)
    table = {}
    witnesses = {}
    max_dx = int(dx.max()) if len(dx) else 0
    for kappa in kappa_grid:
        mask = m < kappa
        if mask.any():
            i = int(np.argmax(np.where(mask, dx, -1)))
            table[int(kappa)] = int(dx[i])
            witnesses[int(kappa)] = (int(us[i]), int(vs[i]))
        else:
            table[int(kappa)] = 0
            witnesses[int(kappa)] = None
    # collapsed projections: far-apart pairs that no index can tell apart
    kmin = int(min(kappa_grid))
    saturated = max_dx > kmin and table[kmin] >= max_dx
    return {"theta": table, "witnesses": witnesses,
            "saturated_at_grid_max": saturated,
            "max_dx_sampled": max_dx, "sample": spec.to_dict()}


# ---------------------------------------------------------------------------
# distance formula

def distance_formula_fit(inst, s=3, pair_budget=None, seed=0,
                         K_grid=DEFAULT_K_GRID):
    """Fit (K, C) for d_X against the thresholded projection sum."""
    n = inst.n_indices()
    exhaustive = (pair_budget is None
                  or inst.X.n * (inst.X.n - 1) // 2 <= pair_budget)
    us, vs, spec = sample_unordered_pairs(
        inst.X.n, None if exhaustive else pair_budget, seed)
    total = np.zeros(len(us), dtype=np.int64)
    for u in range(n):
        d = _pi_rep_distance(inst, u, us, vs).astype(np.int64)
        d[d < s] = 0
        total += d
    dx = inst.X.oracle().pairs(us, vs).astype(np.int64)
    for K, C in K_grid:
        upper_ok = (dx <= K * total + C).all()
        lower_ok = (total <= K * dx + C).all()
        if upper_ok and lower_ok:
            return {"K": K, "C": C, "violations": 0, "s": s,
                    "pairs": len(us), "sample": spec.to_dict()}
    K, C = K_grid[-1]
    bad = ~((dx <= K * total + C) & (total <= K * dx + C))
    idx = np.flatnonzero(bad)[:8]
    return {"K": None, "C": None, "violations": int(bad.sum()), "s": s,
            "witnesses": [(int(us[i]), int(vs[i])) for i in idx],
            "pairs": len(us), "sample": spec.to_dict()}


# ---------------------------------------------------------------------------
# hierarchy paths

@dataclass
class HierarchyPathResult:
    vertices: tuple
    D: float
    worst_indices: list
    success: bool

    def to_dict(self):
        return {"vertices": list(self.vertices), "D": self.D,
                "worst_indices": self.worst_indices, "success": self.success}


def _path_constant(inst, path):
    """Measured hierarchy constant: the path and all its projections."""
    verts = np.asarray(path, dtype=np.int64)
    ii, jj = np.triu_indices(len(verts), k=1)
    span = (jj - ii).astype(np.float64)
    dx = inst.X.oracle().pairs(verts[ii], verts[jj]).astype(np.float64)
    D = max(1.0, (span / (dx + 1.0)).max()) if len(ii) else 1.0
    worst = [("X", D)]
    for u in range(inst.n_indices()):
        d = _pi_rep_distance(inst, u, verts[ii], verts[jj]).astype(np.float64)
        # lower bound d >= |i-j|/D - D  =>  D >= (-d + sqrt(d^2+4|i-j|))/2
        lower = ((-d + np.sqrt(d * d + 4.0 * span)) / 2.0).max() if len(ii) else 1.0
        upper = (d / (span + 1.0)).max() if len(ii) else 1.0
        Du = max(1.0, lower, upper)
        if Du > D:
            D = Du
        worst.append((inst.labels[u], Du))
    worst.sort(key=lambda t: -t[1])
    return D, worst[:5]


def find_hierarchy_path(inst, x, y, D_budget=4.0):
    """Geodesic-first search with gate detours; returns the best path found."""
    oracle = inst.X.oracle()
    candidates = [oracle.geodesic(x, y)]
    base_D, base_worst = _path_constant(inst, candidates[0])
    if base_D > D_budget:
        # detour through the closest-point gates of the worst member index
        for label, _ in base_worst:
            if label == "X":
                continue
            u = inst.index_of_label(label)
            if inst.space_to_x[u] is None:
                continue
            member = np.asarray(inst.space_to_x[u], dtype=np.int64)
            drow_x = oracle.row(x)[member]
            drow_y = oracle.row(y)[member]
            gx = int(member[np.argmin(drow_x)])
            gy = int(member[np.argmin(drow_y)])
            path = oracle.geodesic(x, gx)[:-1] + oracle.geodesic(gx, gy)[:-1] \
                + oracle.geodesic(gy, y)
            candidates.append(path)
            break
    best = None
    for path in candidates:
        D, worst = _path_constant(inst, path)
        if best is None or D < best[0]:
            best = (D, worst, path)
    D, worst, path = best
    return HierarchyPathResult(tuple(int(v) for v in path), D,
                               [(l, float(d)) for l, d in worst],
                               D <= D_budget)


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


def check_hqc(inst, Y, r_grid=(0, 1, 2, 3), qc_pair_budget=20_000, seed=0):
    """Projection quasi-convexity (k(0)) and the realization table k(r)."""
    yverts = np.asarray(sorted(set(int(v) for v in
                               (Y.vertices if hasattr(Y, "vertices") else Y))),
                        dtype=np.int64)
    n = inst.n_indices()
    k0 = 0
    k0_witness = None
    all_x = np.arange(inst.X.n, dtype=np.int64)
    worst_gap = np.zeros(inst.X.n, dtype=np.int64)
    for u in range(n):
        table = inst.projections[u]
        proj = table.image(yverts)
        rep = quasiconvexity_constant(inst.spaces[u], proj,
                                      pair_budget=qc_pair_budget, seed=seed)
        if rep.q > k0:
            k0 = rep.q
            k0_witness = inst.labels[u]
        dist_proj = inst.space_oracle(u).dist_to_set(proj).astype(np.int64)
        np.maximum(worst_gap, table.min_over_sets(all_x, dist_proj),
                   out=worst_gap)
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


def hqc_qc_equivalence(inst, Y, r_grid=(0, 1, 2, 3), delta_threshold=1.0,
                       delta_budget=40_000, seed=0):
    """Compare plain quasi-convexity in X with the hierarchical constants."""
    yverts = (Y.vertices if hasattr(Y, "vertices") else sorted(Y))
    q = quasiconvexity_constant(inst.X, yverts, seed=seed)
    hqc = check_hqc(inst, yverts, r_grid=r_grid, seed=seed)
    hqc.q_comparison = q.q
    delta = four_point_delta(inst.X, budget=delta_budget, seed=seed)
    flags = []
    if delta.delta > delta_threshold:
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


def constants_bundle(battery, df_fit=None, hierarchy=None):
    """All measured constants of one instance in a single table.

    Combines the battery headline with the distance-formula fit and the
    hierarchy-path constant when those were run.
    """
    out = battery.headline()
    if df_fit is not None:
        out["s"] = df_fit["s"]
        out["K_df"] = df_fit["K"]
        out["C_df"] = df_fit["C"]
    if hierarchy is not None:
        out["D0"] = hierarchy.D
    return out


def run_axiom_battery(inst, seed=0, delta_budget=40_000,
                      consistency_budget=20_000, point_budget=60,
                      ll_pair_budget=150, bgi_pair_budget=4000,
                      uniqueness_budget=20_000, family_budget=12):
    """All nine checks with one seed; constants land in .headline()."""
    delta = 0.0
    for u in range(inst.n_indices()):
        space = inst.spaces[u]
        budget = None if space.n <= 40 else delta_budget
        delta = max(delta, four_point_delta(space, budget=budget,
                                            seed=seed).delta)
    return AxiomBatteryReport(
        structural=check_structural(inst, seed=seed),
        lipschitz=check_projection_lipschitz(inst, seed=seed),
        consistency=check_consistency(inst, pair_budget=consistency_budget,
                                      point_budget=point_budget, seed=seed),
        large_links=check_large_links(inst, pair_budget=ll_pair_budget,
                                      seed=seed),
        bgi=check_bgi(inst, pair_budget=bgi_pair_budget, seed=seed),
        partial_realization=check_partial_realization(
            inst, family_budget=family_budget, seed=seed),
        uniqueness=check_uniqueness(inst, pair_budget=uniqueness_budget,
                                    seed=seed),
        delta=delta,
        seed=seed)
