"""Cone-offs of graphs over families of connected subgraphs.

Coning a member adds an edge between each pair of its vertices (a clique),
which collapses the member to diameter 1 while leaving the rest of the
metric alone.  De-electrification replaces cone edges of a path by
geodesics inside the owning member.  The stability report measures the
hyperbolicity of the coned graph and how far base geodesics drift from
coned geodesics with the same endpoints, the two quantities that are
supposed to stay put as the ball radius grows.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import graph_core
from .errors import BudgetExceeded, Disconnected, TruncatedPiece
from .graph_core import (WORD, MetricGraph, PathRecord, _paths,
                         four_point_delta)
from .sampling import SampleSpec, rng_for, sample_unordered_pairs

DEFAULT_CONE_EDGE_CAP = 2_000_000
DEFAULT_CLIQUE_THRESHOLD = 600
DEFAULT_DELTA_BUDGET = 60_000


@dataclass
class ConedGraph:
    base: MetricGraph
    family: tuple
    coned: MetricGraph
    cone_edge_owner: dict          # (u,v) sorted -> family index
    dropped_parallel: int
    apex_members: tuple            # family indices realized as apex stars
    apex_of: dict                  # family index -> apex vertex id
    flags: tuple


def build_coneoff(base, family, clique_threshold=DEFAULT_CLIQUE_THRESHOLD):
    """Cone off the family; big members become apex stars and are flagged.

    Cone edges parallel to base edges are dropped and counted.  The owner
    map remembers which member a cone edge came from (first member wins
    when two members share a pair).
    """
    family = tuple(family)
    for member in family:
        if member.parent is not base:
            raise ValueError("family member not a subgraph of the base graph")
    base_edges = set(base.edges)
    cone_edges = {}
    apex_members = []
    apex_of = {}
    extra_vertices = 0
    dropped = 0
    flags = []
    budget = 0
    for mi, member in enumerate(family):
        verts = member.vertices
        if len(verts) > clique_threshold:
            apex_members.append(mi)
            apex_of[mi] = base.n + extra_vertices
            extra_vertices += 1
            continue
        budget += len(verts) * (len(verts) - 1) // 2
        if budget > DEFAULT_CONE_EDGE_CAP:
            raise BudgetExceeded(
                f"{budget} cone edges exceed DEFAULT_CONE_EDGE_CAP = "
                f"{DEFAULT_CONE_EDGE_CAP}")
        for u, v in itertools.combinations(verts, 2):
            e = (u, v)
            if e in base_edges:
                dropped += 1
            elif e not in cone_edges:
                cone_edges[e] = mi
    edges = list(base.edges) + sorted(cone_edges)
    for mi in apex_members:
        apex = apex_of[mi]
        for v in family[mi].vertices:
            edges.append((v, apex))
    if apex_members:
        flags.append("apex-approximation")
    labels = None
    if base.labels is not None:
        labels = list(base.labels) + [f"apex{m}" for m in apex_members]
    coned = MetricGraph(base.n + extra_vertices, edges, labels)
    return ConedGraph(base, family, coned, cone_edges, dropped,
                      tuple(apex_members), apex_of, tuple(flags))


@dataclass
class DeElectrificationRecord:
    input_path: tuple
    output_path: PathRecord
    pieces: tuple        # (family index, vertex tuple of the geodesic piece)


def _member_geodesic(cg, mi, u, v):
    """Shortlex-first geodesic inside a family member, in parent ids."""
    member = cg.family[mi]
    local = member.to_local()
    if u not in local or v not in local:
        raise TruncatedPiece(
            f"cone endpoints {u},{v} missing from member {mi}")
    ig = member.induced_graph()
    path = ig.oracle().geodesic(local[u], local[v])
    return [member.vertices[i] for i in path]


def de_electrify(cg, path):
    """Replace every cone edge of the path by a member geodesic."""
    verts = list(path)
    out = [verts[0]] if verts else []
    pieces = []
    base_edges = set(cg.base.edges)
    i = 0
    while i + 1 < len(verts):
        u, v = verts[i], verts[i + 1]
        if v >= cg.base.n:
            # apex detour u -- apex -- w collapses to one member piece
            if i + 2 >= len(verts):
                raise TruncatedPiece("path ends on an apex vertex")
            mi = next(m for m, a in cg.apex_of.items() if a == v)
            w = verts[i + 2]
            piece = _member_geodesic(cg, mi, u, w)
            pieces.append((mi, tuple(piece)))
            out.extend(piece[1:])
            i += 2
            continue
        e = (u, v) if u < v else (v, u)
        if e in base_edges:
            out.append(v)
        else:
            mi = cg.cone_edge_owner.get(e)
            if mi is None:
                raise ValueError(f"edge {e} is neither base nor cone edge")
            piece = _member_geodesic(cg, mi, u, v)
            pieces.append((mi, tuple(piece)))
            out.extend(piece[1:])
        i += 1
    record = DeElectrificationRecord(tuple(verts),
                                     PathRecord(tuple(out)), tuple(pieces))
    record.output_path.validate(cg.base)
    return record


def measure_quasigeodesic(path_vertices, oracle):
    """Smallest lambda with |i-j| <= lambda*d + lambda along the path.

    Paths always satisfy the other quasi-geodesic inequality with
    constant 1, so this single ratio is the measured constant.
    """
    verts = np.asarray(path_vertices, dtype=np.int64)
    if len(verts) < 2:
        return 1.0
    ii, jj = np.triu_indices(len(verts), k=1)
    d = oracle.pairs(verts[ii], verts[jj]).astype(np.float64)
    lam = ((jj - ii) / (d + 1.0)).max()
    return float(max(1.0, lam))


def _path_taus(cg, coned_path):
    """De-electrify a coned geodesic, measure both path constants."""
    record = de_electrify(cg, coned_path)
    tau1 = measure_quasigeodesic(coned_path, cg.coned.oracle())
    tau2 = measure_quasigeodesic(record.output_path.vertices,
                                 cg.base.oracle())
    return {"tau1": tau1, "tau2": tau2, "record": record}


def _drift(oracle, a, b):
    """Hausdorff distance between the vertex columns a[:, i] and b[:, i].

    The scan's source ends every column of both, so padding by it changes
    no minimum.  The distances are laid out (b row, a row, column), so each
    reduction runs over contiguous slabs; b, the shorter coned side, is
    the first side of each query."""
    h = np.empty(a.shape[1], dtype=np.int64)
    step = max(1, graph_core.RAGGED_CHUNK // (len(a) * len(b)))
    for lo in range(0, a.shape[1], step):
        x, y = np.broadcast_arrays(b[:, None, lo:lo + step],
                                   a[None, :, lo:lo + step])
        d = oracle.pairs(x.ravel(), y.ravel()).reshape(x.shape)
        h[lo:lo + step] = np.maximum(d.min(axis=0).max(axis=0),
                                     d.min(axis=1).max(axis=0))
    return h


def kapovich_rafi_report(cg, pair_budget=None, seed=0,
                         delta_budget=DEFAULT_DELTA_BUDGET):
    """Coned hyperbolicity plus the geodesic-drift constant.

    hausdorff_H is the max over vertex pairs (all of them unless a pair
    budget is given) of the coned-metric Hausdorff distance between the
    base geodesic and the coned geodesic with the same endpoints.  For one
    source u the geodesics to all its targets are the ancestor chains of
    the two parent arrays, read off distance rows fetched WORD sources at
    a time and never cached; the witness is the first maximum in (u, v)
    order.
    """
    base, coned = cg.base, cg.coned
    n = base.n
    if not base.is_connected:
        raise Disconnected("the drift scan needs a connected base graph")
    bo, co = base.oracle(), coned.oracle()

    population = n * (n - 1) // 2
    if pair_budget is None or population <= pair_budget:
        src = np.arange(n - 1)
        scan = (np.arange(u + 1, n) for u in range(n - 1))
        spec = SampleSpec("exhaustive", population, population, None)
    else:
        us, vs, spec = sample_unordered_pairs(n, pair_budget, seed)
        order = np.lexsort((vs, us))
        src, first = np.unique(us[order], return_index=True)
        scan = iter(np.split(vs[order], first[1:]))

    best, witness = 0, None
    for lo in range(0, len(src), WORD):
        batch = src[lo:lo + WORD]
        rows = zip(batch.tolist(), bo.block(batch, np.arange(n)),
                   co.block(batch, np.arange(coned.n)), scan)
        for u, base_row, coned_row, targets in rows:
            h = _drift(co, _paths(base, base_row, 0, targets),
                       _paths(coned, coned_row, 0, targets))
            i = int(np.argmax(h))
            if h[i] > best:
                best, witness = int(h[i]), (u, int(targets[i]))

    delta = four_point_delta(coned, budget=delta_budget, seed=seed)
    return {"delta_coned": delta.delta,
            "delta_coned_report": delta,
            "hausdorff_H": best,
            "witness": witness,
            "sample": spec,
            "flags": list(cg.flags)}


def coneoff_report(cg, radius=None, pair_budget=None, seed=0,
                   tau_pair_budget=120):
    """The full structured report for one coned fixture."""
    kr = kapovich_rafi_report(cg, pair_budget=pair_budget, seed=seed)
    delta_base = four_point_delta(cg.base, budget=DEFAULT_DELTA_BUDGET,
                                  seed=seed)
    rng = rng_for(seed)
    n = cg.base.n
    # scalar draws, x then y per pair; every coned geodesic in one query
    ends = np.array([(rng.integers(0, n), rng.integers(0, n))
                     for _ in range(tau_pair_budget)]).reshape(-1, 2)
    xs, ys = ends[ends[:, 0] != ends[:, 1]].T
    tau1 = tau2 = 1.0
    for path in cg.coned.oracle().geodesics(xs, ys):
        taus = _path_taus(cg, path)
        tau1 = max(tau1, taus["tau1"])
        tau2 = max(tau2, taus["tau2"])
    return {"radius": radius,
            "family_size": len(cg.family),
            "delta_base": delta_base.delta,
            "delta_coned": kr["delta_coned"],
            "hausdorff_H": kr["hausdorff_H"],
            "tau1": tau1,
            "tau2": tau2,
            "flags": list(cg.flags),
            "sample": kr["sample"].to_dict(),
            "seed": seed}
