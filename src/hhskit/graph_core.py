"""Finite metric graphs with unit-length edges.

Everything downstream (Cayley balls, cone-offs, coordinate spaces of
hierarchical structures) is one of these graphs, so the module carries the
shared machinery: BFS distances, deterministic geodesics, a distance oracle
with a fast path through the block-cut tree, blocks of graphs of one vertex
count whose distances are asked together (their stack fill is the one
all-pairs fill, the oracle's matrix a stack of one), hyperbolicity
estimation, the one quasi-convexity scan (``GraphBlock.quasiconvexity``,
of which ``quasiconvexity_constant`` is the one-set call), closest-point
projections, and ragged distance blocks that answer many small set-to-set
queries (Hausdorff distances among them) in one oracle call.

Distances are integers; hyperbolicity deltas are half-integers.  All "sup
over the infinite space" quantities are maxima over the built graph and the
reports say whether a scan was exhaustive or sampled.
"""

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, Disconnected
from .sampling import (DEFAULT_PAIR_BUDGET, SampleSpec, rng_for,
                       sample_unordered_pairs)

# Largest vertex count for which an all-pairs matrix is materialized.
MATRIX_CAP = 4096
# Largest quadruple count enumerated exhaustively by four_point_delta.
EXHAUSTIVE_QUADRUPLE_CAP = 2_000_000
# Quadruples per four_point_delta chunk (six pair lists of this length).
QUAD_CHUNK = 1 << 12


class MetricGraph:
    """Immutable simple graph on vertices 0..n-1 with unit edge lengths.

    ``labels``, when given, attaches an opaque string to each vertex
    (normal forms of group elements, usually).
    """

    def __init__(self, n, edges, labels=None):
        self.n = int(n)
        pairs = list(edges)
        ends = np.array(pairs, dtype=object).reshape(len(pairs), 2)
        u, v = ends.astype(np.int64).T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        order = np.lexsort((hi, lo))  # stable: a repeat sorts after its first
        again = np.zeros(len(pairs), dtype=bool)
        again[order[1:]] = (np.diff(lo[order]) == 0) & (np.diff(hi[order]) == 0)
        bad = np.flatnonzero((u == v) | (lo < 0) | (hi >= self.n) | again)
        if bad.size:
            # the first bad edge in input order, checked as given
            x, y = pairs[bad[0]]
            if x == y:
                raise ValueError(f"self-loop at vertex {x}")
            if not (0 <= x < self.n and 0 <= y < self.n):
                raise ValueError(f"edge ({x},{y}) out of range for n={n}")
            raise ValueError(f"duplicate edge {(x, y) if x < y else (y, x)}")
        # the edges hold the given end objects (no new int per end)
        swap = u > v
        self.edges = tuple(zip(np.where(swap, ends[:, 1], ends[:, 0])[order],
                               np.where(swap, ends[:, 0], ends[:, 1])[order]))
        lo, hi = lo[order], hi[order]
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != self.n:
                raise ValueError("label count does not match vertex count")
        self.labels = labels

        # CSR adjacency, neighbor lists sorted for deterministic traversal.
        src, dst = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        self.indices = dst[np.lexsort((dst, src))].astype(np.int32)
        self.degrees = np.bincount(src, minlength=self.n)
        self.indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=self.indptr[1:])
        # the CSR start of each vertex that has neighbours, for reduceat
        self.has_nbrs = self.degrees > 0
        self.nbr_starts = self.indptr[:-1][self.has_nbrs]
        self._oracle = None

    def __repr__(self):
        return f"MetricGraph(n={self.n}, edges={len(self.edges)})"

    @cached_property
    def is_connected(self):
        """One BFS, run on first use: many graphs are never asked."""
        return self.n == 0 or bool((bfs_distances(self, [0]) >= 0).all())

    def neighbors(self, v):
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def oracle(self):
        # held weakly by its oracle, a dropped graph frees its matrix at once
        if self._oracle is None:
            self._oracle = DistanceOracle(weakref.proxy(self))
        return self._oracle

    def label_of(self, v):
        return self.labels[v] if self.labels is not None else str(v)


def _starts(sizes):
    """Start offset of each segment of the given sizes."""
    return np.cumsum(sizes) - sizes


def segments(indptr, rows):
    """The CSR segments of ``rows``, concatenated in order.

    ``pos`` holds the flat positions ``indptr[r]`` .. ``indptr[r+1] - 1`` of
    each row r of ``rows`` in turn; ``owner[i]`` is the index into ``rows``
    of the row whose segment holds ``pos[i]``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(len(rows)), counts)
    pos = np.arange(len(owner)) + (starts - _starts(counts))[owner]
    return owner, pos


# Sources per bfs_many sweep: one bit each of a vertex's uint64 word.
WORD = 64


def _bit_levels(graph, sets):
    """The level sweep of ``bfs_many``: ``(planes, seen)``, one uint64 word
    per vertex in each; bit i of ``seen`` means "reached from set i", and
    plane p holds bit p of the level at which it was reached.

    A level either pulls, gathering every vertex's neighbour words over the
    whole CSR, or pushes the words of the frontier's vertices into their
    neighbours.  A push reads all n words to list the frontier and then at
    most ``count * max degree`` CSR entries, so it runs only when that is
    fewer than the CSR's.  The frontier's count doubles as the emptiness
    test, so a level that pulls does no work for the choice."""
    n = graph.n
    frontier = np.zeros(n, dtype=np.uint64)
    bit = np.left_shift(np.uint64(1), np.arange(len(sets), dtype=np.uint64))
    np.bitwise_or.at(frontier, sets.flat, np.repeat(bit, sets.sizes()))
    seen = frontier.copy()
    count = np.count_nonzero(frontier)
    top = graph.degrees.max(initial=0)
    planes = []
    level = 0
    while count and graph.nbr_starts.size:
        level += 1
        nxt = np.zeros(n, dtype=np.uint64)
        if n + count * top < len(graph.indices):
            active = np.flatnonzero(frontier)
            owner, pos = segments(graph.indptr, active)
            np.bitwise_or.at(nxt, graph.indices[pos], frontier[active][owner])
        else:
            # reduceat needs a nonempty segment at every offset, so
            # degree-0 vertices (which no level reaches) are left out
            nxt[graph.has_nbrs] = np.bitwise_or.reduceat(
                frontier[graph.indices], graph.nbr_starts)
        nxt &= ~seen
        count = np.count_nonzero(nxt)
        if not count:
            break
        seen |= nxt
        if level.bit_length() > len(planes):
            planes.append(np.zeros(n, dtype=np.uint64))
        for p, plane in enumerate(planes):
            if level >> p & 1:
                plane |= nxt
        frontier = nxt
    return planes, seen


def bfs_many(graph, sets, cols=None):
    """Distance rows to up to WORD vertex sets (``RaggedSets``) in one sweep.

    Row i equals ``bfs_distances(graph, sets[i])``: shape ``(len(sets), n)``,
    int32, -1 = unreached (every entry, for an empty set).  Every vertex
    carries a uint64 word whose bit i means "reached from set i", seeded at
    every vertex of set i; one level is a gather over the CSR neighbour
    array and an OR over each vertex's neighbours, so all rows advance
    together.  Levels are kept bit-sliced (plane p holds bit p of the level
    at which each bit was reached) and unpacked into rows once, at the end.
    With ``cols`` (vertex ids, repeats allowed) only those columns are
    unpacked: the result is ``bfs_many(graph, sets)[:, cols]``, and the
    sweep costs its levels plus ``len(cols)`` words of readout, not ``n``.
    """
    k = len(sets)
    if k > WORD:
        raise ValueError(f"bfs_many takes at most {WORD} sets, got {k}")
    at = slice(None) if cols is None else np.asarray(cols, dtype=np.intp)
    m = graph.n if cols is None else len(at)
    if k == 0:
        return np.full((0, m), -1, dtype=np.int32)
    planes, seen = _bit_levels(graph, sets)

    def bits(words):
        """(m, k) array of the low k bits of each word."""
        return np.unpackbits(words.astype("<u8").view(np.uint8),
                             bitorder="little").reshape(-1, WORD)[:, :k]

    # vertex-major: unpacking fills (m, k) without a transpose, in int16
    # while the levels fit, at about half the cost of int32
    out = np.zeros((m, k), dtype=np.int16 if len(planes) < 16 else np.int32)
    for p, plane in enumerate(planes):
        out |= np.left_shift(bits(plane[at]), p, dtype=out.dtype)
    out -= bits(~seen[at])
    # the rows, 4096 vertices at a time: one copy of the whole transpose
    # reads with a stride of 256 bytes at k = WORD, and runs 4x slower
    rows = np.empty((k, m), dtype=np.int32)
    for lo in range(0, m, 1 << 12):
        rows[:, lo:lo + (1 << 12)] = out[lo:lo + (1 << 12)].T
    return rows


def bfs_distances(graph, sources):
    """Distances from a set of sources (multi-source BFS); -1 = unreached.

    The one-set call of ``bfs_many``."""
    verts = np.asarray(list(sources), dtype=np.int64)
    return bfs_many(graph, RaggedSets(verts, [0, len(verts)]))[0]


def row_parents(graph, dist):
    """BFS parents of the source whose distance row is ``dist``.

    A vertex's parent is its smallest-id neighbour one level closer, which
    is the first such entry of its sorted neighbour list; -1 at the source
    and at unreached vertices.  Ties break toward the smallest id, so
    geodesics walked back through the parents are deterministic, and
    shortlex-first on Cayley balls, whose ids are assigned in shortlex
    order.
    """
    closer = dist[graph.indices] == np.repeat(dist - 1, graph.degrees)
    cand = np.where(closer, graph.indices, graph.n)
    parent = np.full(graph.n, graph.n, dtype=np.int64)
    parent[graph.has_nbrs] = np.minimum.reduceat(cand, graph.nbr_starts)
    parent[parent == graph.n] = -1
    return parent


def _paths(graph, rows, r, targets):
    """Column i: the path of smallest-id parents (``row_parents``) of row
    ``rows[r[i]]`` from ``targets[i]`` back to that row's source, padded
    by the source.  ``rows`` are distance rows from one source each, 1-D
    for one row; ``r`` may be one row for every target.  Each level of
    the chase is one gather over every target."""
    rows = np.atleast_2d(rows)
    parent = np.stack([row_parents(graph, row) for row in rows])
    parent[rows == 0] = np.nonzero(rows == 0)[1]
    base = np.asarray(r) * graph.n
    flat = (parent + np.arange(0, parent.size, graph.n)[:, None]).ravel()
    steps = [base + targets]
    for _ in range(int(rows.ravel()[steps[0]].max(initial=0))):
        steps.append(flat[steps[-1]])
    return np.stack(steps) - base


def block_cut_tree(graph):
    """The blocks of a connected graph: ``(blk, top)``, by Hopcroft–Tarjan.

    An iterative depth-first search from vertex 0 over the CSR arrays
    keeps each vertex's preorder number and low point (the least preorder
    number a back edge from its subtree reaches) and a stack of the
    vertices it has entered.  When it leaves a tree edge (p, v) with
    ``low[v] >= pre[p]``, the vertices on the stack down to v, with p,
    form one block (a biconnected component), and they are popped.  So
    every vertex v but the root is a non-top member of exactly one block,
    ``blk[v]``, the block of its tree edge, and block b hangs from its top
    vertex ``top[b]``, the p of that edge.  Blocks are numbered in the
    order they close, which puts a block before the block that holds its
    top.  Block ``nb = len(top) - 1`` is the root's own, with ``blk[0] ==
    top[nb] == 0``, so the block tree's parent map is ``blk[top]``.
    Raises Disconnected if the search does not reach every vertex.
    """
    # the working state lives in arrays, read and written through
    # memoryviews, so no Python int per entry outlives its use
    ptr, adj = memoryview(graph.indptr), memoryview(graph.indices)
    nxt = memoryview(graph.indptr[:-1].copy())
    state = np.full((3, graph.n), -1, dtype=np.int32)
    pre, low, blk = (memoryview(row) for row in state)
    tops = []
    pre[0] = 0
    count = 1
    path, stack = [0], []
    while path:
        v = path[-1]
        i = nxt[v]
        if i < ptr[v + 1]:
            nxt[v] = i + 1
            w = adj[i]
            if pre[w] < 0:
                pre[w] = low[w] = count
                count += 1
                path.append(w)
                stack.append(w)
            elif pre[w] < low[v]:
                # the tree edge back to the parent counts too: a child's
                # low then never exceeds its parent's preorder number, and
                # ``low[v] >= pre[p]`` still holds exactly at block ends
                low[v] = pre[w]
            continue
        path.pop()
        if not path:
            break
        p = path[-1]
        if low[v] >= pre[p]:
            b = len(tops)
            w = -1
            while w != v:
                w = stack.pop()
                blk[w] = b
            tops.append(p)
        elif low[v] < low[p]:
            low[p] = low[v]
    if count < graph.n:
        raise Disconnected("block_cut_tree requires a connected graph")
    blk[0] = len(tops)
    tops.append(0)
    return state[2].copy(), np.array(tops, dtype=np.int32)


# Most pairs one pass of a matrix gather or a block-tree lift reads at a
# time; its temporaries grow with it.
PAIRS_CHUNK = 1 << 14


class _BlockMetric:
    """Exact distances of a connected graph from its block-cut tree.

    Two facts make distances factor through the blocks (``block_cut_tree``):

    - a geodesic between two vertices of a block stays inside the block:
      a path that leaves a block through a cut vertex can only come back
      through the same cut vertex, so cutting out the loop shortens it;
    - every path from the root into a block's subtree (the non-top members
      of the block and of the blocks below it) passes through that block's
      top vertex, since removing the top separates the subtree from the
      root.

    Let ``D`` be the distance from the root and L the lowest common
    ancestor of ``blk[u]`` and ``blk[v]`` in the block tree.  The paths
    from u and v enter L at a and b: u itself when ``blk[u]`` is L, else
    the top of the child of L on u's side (likewise b).  By the second
    fact ``D(u) = D(a) + d(u, a)``, and every path from u to v passes
    through a and b; by the first, ``d(a, b) = d_L(a, b)``.  So

        d(u, v) = D(u) - D(a) + d_L(a, b) + D(v) - D(b).

    Both a and b are non-top members of L (or the root, when L is the
    root's block), so an edge block, with one non-top member, has
    ``a == b``.  Every block of more than two vertices holds its own
    all-pairs matrix, the top at local index 0; all of them are filled by
    one ``bfs_many`` sweep per WORD local indices over the disjoint union
    of those blocks, where set i is local vertex i of every block: the
    blocks are separate components, so one bit serves all of them.  L and
    the children on both sides come from one binary-lifting pass over the
    block tree.
    """

    def __init__(self, graph, blk, top):
        root = len(top) - 1  # the root's block
        self.dist = bfs_distances(graph, [0])
        self.blk, self.top = blk, top
        # lifting tables up[k] (2^k steps up) until every block reaches
        # the root's, with the depths doubled alongside
        self.depth = (np.arange(len(top)) != root).astype(np.int32)
        self.up = [blk[top]]
        while (self.up[-1] != root).any():
            self.depth += self.depth[self.up[-1]]
            self.up.append(self.up[-1][self.up[-1]])
        if len(self.up) > 1:
            self.up.pop()  # all root: lifts nothing
        # local indices: the top 0, non-top members 1.. in id order; blocks
        # of two vertices (and the root's) store nothing and read entry 0
        counts = np.bincount(blk, minlength=len(top))
        order = np.argsort(blk, kind="stable")
        rank = np.empty(graph.n, dtype=np.int64)
        rank[order] = np.arange(graph.n) - _starts(counts)[blk[order]]
        size = np.where(counts > 1, counts + 1, 0)
        self.loc = np.where(size[blk] > 0, rank + 1, 0).astype(np.int32)
        base = np.where(size > 0, 1 + _starts(size ** 2), 0)
        # entry (loc[a], loc[b]) of the matrix of a's block
        # is mat[cell[a] + loc[b]]
        self.cell = (base[blk] + self.loc * size[blk]).astype(np.int32)
        self.mat = np.zeros(1 + int((size ** 2).sum()), dtype=np.int32)
        if size.any():
            self._fill(graph, size, base)

    def _fill(self, graph, size, base):
        """Every block matrix, from sweeps over the disjoint union of the
        blocks, where local vertex j of block b is vertex ``vptr[b] + j``."""
        loc, blk, top = self.loc, self.blk, self.top
        vptr = _starts(size)
        src = np.repeat(np.arange(graph.n), graph.degrees)
        dst = graph.indices.astype(np.int64)
        keep = src < dst
        src, dst = src[keep], dst[keep]
        # an edge lies in its ends' common block, or in the block of the
        # end whose top the other end is
        b = np.where(top[blk[src]] == dst, blk[src], blk[dst])
        keep = size[b] > 0
        b, ends = b[keep], np.stack([src[keep], dst[keep]], axis=1)
        ends = vptr[b][:, None] + np.where(blk[ends] == b[:, None],
                                           loc[ends], 0)
        union = MetricGraph(int(size.sum()), ends.tolist())
        big = np.flatnonzero(size)
        local = np.arange(union.n) - np.repeat(vptr[big], size[big])
        byloc = np.argsort(local, kind="stable")
        lptr = np.searchsorted(local[byloc], np.arange(size.max() + 1))
        for lo in range(0, int(size.max()), WORD):
            hi = min(lo + WORD, int(size.max()))
            # set i: local vertex lo + i of every block that has one
            rows = bfs_many(union, RaggedSets(byloc[lptr[lo]:lptr[hi]],
                                              lptr[lo:hi + 1] - lptr[lo]))
            for s, at, v in zip(size[big].tolist(), base[big].tolist(),
                                vptr[big].tolist()):
                m = min(s, hi) - lo
                if m > 0:
                    self.mat[at + lo * s:at + (lo + m) * s] = \
                        rows[:m, v:v + s].ravel()

    def entries(self, uv):
        """Where the paths from ``uv[0][i]`` and ``uv[1][i]`` enter their
        lowest common block L, shape ``(2, m)`` like ``uv``.

        Each side lifts to one block below the shallower side's level and
        keeps that block, the child of L on its side if L is its parent;
        then it steps to the level, and where the two sides still differ
        both lift to the children of L."""
        z = self.blk[uv]
        depth = self.depth[z]
        level = depth.min(axis=0)
        deeper = depth > level
        steps = np.maximum(depth - level - 1, 0)
        for k, up in enumerate(self.up):
            z = np.where(steps >> k & 1, up[z], z)
        child = z
        z = np.where(deeper, self.up[0][z], z)
        same = z[0] == z[1]
        for up in reversed(self.up):
            lifted = up[z]
            z = np.where(lifted[0] != lifted[1], lifted, z)
        return np.where(same, np.where(deeper, self.top[child], uv),
                        self.top[z])

    def pairs(self, us, vs):
        out = np.empty(len(us), dtype=np.int32)
        for lo in range(0, len(us), PAIRS_CHUNK):
            uv = np.stack([us[lo:lo + PAIRS_CHUNK], vs[lo:lo + PAIRS_CHUNK]])
            a, b = ab = self.entries(uv)
            out[lo:lo + PAIRS_CHUNK] = (self.dist[uv] - self.dist[ab]).sum(
                axis=0) + self.mat[self.cell[a] + self.loc[b]]
        return out


class DistanceOracle:
    """Exact distance queries with a strategy chosen from the graph alone.

    Every graph with at most MATRIX_CAP vertices gets a cached all-pairs
    matrix, filled WORD rows per ``bfs_many`` sweep (``_fill``, a stack of
    one).  Above the cap, a
    connected graph answers ``pairs`` from its block-cut tree
    (``_BlockMetric``: distances from the root, binary lifting over the
    block tree and one small matrix per block) when its blocks' matrices
    hold no more entries than one matrix at the cap, sum |B|^2 <=
    MATRIX_CAP^2 over the blocks of more than two vertices.  Trees, whose
    blocks are all single edges, always qualify.  The decomposition is
    made on the first ``pairs`` call, and the choice is kept.  Every
    other query above the cap, and ``pairs`` where the blocks do not
    qualify, sweeps its distinct sources WORD at a time, unpacking each
    sweep only at the columns it asks for (a ``pairs`` batch's own
    targets, a ``block``'s columns).  ``row(u)`` is ``block([u], all)[0]``
    and ``geodesics`` chases parents over its sources' rows, so callers
    that ask many rows or paths should ask them in one call.  This class
    is the only code that knows which strategy answers; callers ask
    through ``pairs``, ``block``, ``row``, ``dist_to_sets``,
    ``dist_to_set``, ``geodesics`` and ``geodesic``.
    """

    def __init__(self, graph):
        self.graph = graph
        self.n = graph.n
        # the cap at construction decides, for the lazy block strategy too
        self._cap = MATRIX_CAP
        self._use_matrix = graph.n <= self._cap
        self._matrix = None

    @cached_property
    def _blocks(self):
        """The block-cut strategy, or None where it does not answer."""
        if self._use_matrix:
            return None
        try:
            blk, top = block_cut_tree(self.graph)
        except Disconnected:
            return None
        members = np.bincount(blk)
        if ((members[members > 1] + 1) ** 2).sum() > self._cap ** 2:
            return None
        return _BlockMetric(self.graph, blk, top)

    def matrix(self):
        """The cached all-pairs matrix; internal to the matrix strategy."""
        if self._matrix is None:
            if not self._use_matrix:
                raise BudgetExceeded(f"distance matrix for n={self.n} over "
                                     f"MATRIX_CAP = {self._cap}")
            self._matrix = _fill([self.graph], self.graph)[0]
        return self._matrix

    def _sweeps(self, us):
        """(sel, sources, r) per batch of WORD distinct sources in ``us``.

        ``us[sel[i]]`` is ``sources[r[i]]``; the caller sweeps each batch
        once, reading only the columns it needs, and drops its rows after.
        """
        src, inv = np.unique(us, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        cuts = np.append(np.searchsorted(inv[order],
                                         np.arange(0, len(src), WORD)),
                         len(us))
        for b, lo in enumerate(range(0, len(src), WORD)):
            sel = order[cuts[b]:cuts[b + 1]]
            yield sel, RaggedSets.singletons(src[lo:lo + WORD]), inv[sel] - lo

    def row(self, u):
        return self.block([u], np.arange(self.n))[0]

    def _ids(self, ids):
        """``ids`` as int64; IndexError for an id outside [0, n)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n):
            raise IndexError(f"vertex id out of range for n={self.n}")
        return ids

    def pairs(self, us, vs):
        us, vs = self._ids(us), self._ids(vs)
        if self._use_matrix:
            flat = self.matrix().ravel()
            out = np.empty(len(us), dtype=np.int32)
            for lo in range(0, len(us), PAIRS_CHUNK):
                at = slice(lo, lo + PAIRS_CHUNK)
                out[at] = flat[us[at] * self.n + vs[at]]
            return out
        if self._blocks is not None:
            return self._blocks.pairs(us, vs)
        out = np.empty(len(us), dtype=np.int32)
        for sel, sources, r in self._sweeps(us):
            rows = bfs_many(self.graph, sources, vs[sel])
            out[sel] = rows[r, np.arange(len(sel))]
        return out

    def block(self, a, b):
        """The distances d(a[i], b[j]) as an array of shape (len(a), len(b))."""
        a, b = self._ids(a), self._ids(b)
        if self._use_matrix:
            return self.matrix()[np.ix_(a, b)].astype(np.int32)
        if len(b) < len(a):
            return self.block(b, a).T
        # each distinct source swept once, WORD a sweep, read out by one
        # gather (and one sweep's rows not joined, which would copy them)
        src, inv = np.unique(a, return_inverse=True)
        rows = [bfs_many(self.graph, RaggedSets.singletons(src[lo:lo + WORD]),
                         b) for lo in range(0, max(len(src), 1), WORD)]
        return (rows[0] if len(rows) == 1 else np.concatenate(rows))[inv]

    def dist_to_sets(self, sets):
        """Distances from every vertex to the nearest vertex of each set.

        Shape ``(len(sets), n)``, int32, -1 = unreached (the whole row of an
        empty set).  The matrix answers with row minima when it is held or
        when the sets need at least as many sweeps as it does; otherwise
        the sets are swept WORD at a time.
        """
        self._ids(sets.flat)
        out = np.full((len(sets), self.n), -1, dtype=np.int32)
        if self._matrix is not None or (self._use_matrix
                                        and len(sets) >= self.n):
            full = np.flatnonzero(sets.sizes() > 0)
            if len(full):
                out[full] = _row_minima(self.matrix()[sets.flat],
                                        sets.offsets[full])
            return out
        for lo in range(0, len(sets), WORD):
            out[lo:lo + WORD] = bfs_many(
                self.graph, sets.take(np.arange(lo, min(lo + WORD, len(sets)))))
        return out

    def dist_to_set(self, verts):
        """Distances from every vertex to the nearest vertex of the set."""
        verts = np.asarray(list(verts), dtype=np.int64)
        return self.dist_to_sets(RaggedSets(verts, [0, len(verts)]))[0]

    def geodesics(self, us, vs):
        """A deterministic geodesic from us[i] to vs[i], per i, as vertex lists.

        Each distinct source's row is asked once, WORD sources per
        ``block``, and the paths of all the pairs of those sources are
        chased back from the vs[i] through the smallest-id parents of their
        rows at once (``_paths``).  Raises Disconnected on an unreached
        pair.
        """
        vs = self._ids(vs)
        paths = [None] * len(vs)
        for sel, sources, r in self._sweeps(self._ids(us)):
            rows = self.block(sources.flat, np.arange(self.n))
            d = rows[r, vs[sel]]
            if (d < 0).any():
                i = int(np.argmax(d < 0))
                raise Disconnected(f"no path from {sources.flat[r[i]]} to "
                                   f"{vs[sel[i]]}")
            steps = _paths(self.graph, rows, r, vs[sel])
            for i, k, col in zip(sel.tolist(), d.tolist(), steps.T.tolist()):
                paths[i] = col[k::-1]
        return paths

    def geodesic(self, u, v):
        """A deterministic geodesic from u to v as a vertex list."""
        return self.geodesics([u], [v])[0]


def _row_minima(rows, starts):
    """Per segment of int16 distance ``rows`` (-1 = unreached) starting at
    ``starts``: their elementwise least.  Read as uint16, -1 is the largest
    value, so a vertex that no row of a segment reaches stays -1."""
    return np.minimum.reduceat(rows.view(np.uint16), starts,
                               axis=0).view(np.int16)


class _Union:
    """The disjoint union of graphs of one vertex count n, vertex v of graph
    i at ``i * n + v``: the CSR arrays that ``bfs_many`` sweeps, joined
    without building an edge list."""

    def __init__(self, graphs):
        n = graphs[0].n
        self.n = n * len(graphs)
        self.degrees = np.concatenate([g.degrees for g in graphs])
        self.indices = np.concatenate([g.indices + i * n
                                       for i, g in enumerate(graphs)])
        self.indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=self.indptr[1:])
        self.has_nbrs = self.degrees > 0
        self.nbr_starts = self.indptr[:-1][self.has_nbrs]


def _fill(graphs, union):
    """The ``(k, n, n)`` int16 stack of the all-pairs matrices of graphs of
    one vertex count n, from ceil(n / WORD) ``bfs_many`` sweeps of their
    disjoint ``union`` (``_Union``, or the graph itself for one graph): set
    i is vertex i of every graph, and the graphs are separate components,
    so one bit serves them all.  Each graph's ``is_connected`` is recorded
    from its matrix on the way: connected means no -1 in its first row."""
    k, n = len(graphs), graphs[0].n
    stack = np.empty((k, n, n), dtype=np.int16)
    at = np.arange(k) * n
    for lo in range(0, n, WORD):
        hi = min(lo + WORD, n)
        rows = bfs_many(union, RaggedSets(
            (np.arange(lo, hi)[:, None] + at).ravel(),
            np.arange(0, (hi - lo) * k + 1, k)))
        stack[:, lo:hi] = rows.reshape(hi - lo, k, n).swapaxes(0, 1)
    connected = stack[:, :1].min(axis=(1, 2), initial=0) >= 0
    for graph, ok in zip(graphs, connected.tolist()):
        graph.is_connected = ok
    return stack


# Most entries one chunk of a GraphBlock query holds: its rows' distances,
# or the caller's columns per row where there are more of those.
BLOCK_CHUNK = 1 << 16


def _chunks(costs, cap):
    """(lo, hi) over consecutive items whose ``costs`` add up to at most
    ``cap``, or over one item."""
    total = np.append(0, np.cumsum(costs))
    lo = 0
    while lo < len(costs):
        hi = int(np.searchsorted(total, total[lo] + cap, "right")) - 1
        yield lo, max(hi, lo + 1)
        lo = max(hi, lo + 1)


class _StackPairs:
    """``pairs`` over a stack of distance matrices, vertex v of slot i named
    ``i * n + v``: the ragged set routines read a block through it."""

    def __init__(self, stack):
        self.n = stack.shape[1]
        self.flat = stack.ravel()

    def pairs(self, us, vs):
        return self.flat[us * self.n + vs % self.n].astype(np.int32)


class GraphBlock:
    """Graphs of one vertex count n, whose distances are asked together.

    Several graphs (at most MATRIX_CAP vertices each) are held as one
    ``(k, n, n)`` int16 stack of their all-pairs matrices (``_fill``), and
    each graph's oracle then reads its matrix as a view of the stack, so
    no matrix is held twice.  A block of one takes the matrix its graph's
    oracle holds or builds, and a graph over the cap is a block of one on
    its own oracle.  Every query names the graph of each of its rows by
    slot, and one call answers all of them; the queries that yield do so
    per chunk of rows, ``(lo, hi, values)``, each holding at most
    BLOCK_CHUNK entries.
    """

    def __init__(self, graphs):
        self.n, self.graphs = graphs[0].n, graphs
        if len(graphs) > 1:
            self.stack = _fill(graphs, self.union)
            for graph, matrix in zip(graphs, self.stack):
                graph.oracle()._matrix = matrix
        elif graphs[0].oracle()._use_matrix:
            self.stack = graphs[0].oracle().matrix()[None]
        else:
            self.stack, self.oracle = None, graphs[0].oracle()
            return
        self.oracle = _StackPairs(self.stack)

    @cached_property
    def union(self):
        """The stacked graphs' disjoint union, which ``walks`` steps in."""
        return _Union(self.graphs)

    def _named(self, slots, sets):
        """``sets`` in the names of ``self.oracle``: vertex v of set i as
        ``slots[i] * n + v``; a block of one names them as they are."""
        if len(self.graphs) == 1:
            return sets
        return RaggedSets(sets.flat + (slots * self.n)[sets.owners()],
                          sets.offsets)

    def table_pairs(self, slots, table, rows, xs, ys):
        """Yields ``(lo, hi, d)``: ``d[i, p]`` is the distance in graph
        ``slots[lo + i]`` between ``table[r, xs[p]]`` and ``table[r,
        ys[p]]``, r = ``rows[lo + i]``.  ``ys`` is 1-D or has a row per
        row."""
        # flat positions and one take each: several times faster than
        # indexing the 2-D table and the 3-D stack with index arrays
        flat, n = table.reshape(-1), self.n
        for lo, hi in _chunks(np.full(len(rows), len(xs)), BLOCK_CHUNK):
            r = rows[lo:hi, None] * table.shape[1]
            a = flat[r + xs]
            b = flat[r + (ys if ys.ndim == 1 else ys[lo:hi])]
            if self.stack is None:
                yield lo, hi, self.oracle.pairs(a.ravel(),
                                                b.ravel()).reshape(a.shape)
            else:
                yield lo, hi, self.stack.reshape(-1)[
                    (slots[lo:hi, None] * n + a) * n + b]

    def set_rows(self, slots, sets, idx, width):
        """Yields ``(lo, hi, rows)``: row i is the distance from every vertex
        of graph ``slots[lo + i]`` to the nonempty set ``sets[idx[lo +
        i]]``.  A chunk holds ``max(n, width)`` entries a row, ``width``
        being the columns the caller reads of each."""
        step = max(1, BLOCK_CHUNK // max(self.n, width))
        if self.stack is None:      # a sweep of the oracle holds WORD sets
            step = WORD * max(1, step // WORD)
        for lo in range(0, len(idx), step):
            hi = min(lo + step, len(idx))
            part = sets.take(idx[lo:hi])
            if self.stack is None:
                yield lo, hi, self.oracle.dist_to_sets(part)
            else:
                yield lo, hi, _row_minima(
                    self.stack[slots[lo:hi][part.owners()], part.flat],
                    part.offsets[:-1])

    def diameters(self, slots, sets):
        """The diameter of each set ``sets[i]`` in graph ``slots[i]``."""
        return ragged_diameters(self.oracle, self._named(slots, sets))

    def set_distances(self, slots, sets, a_idx, b_idx):
        """The distance between ``sets[a_idx[i]]`` and ``sets[b_idx[i]]``,
        both in graph ``slots[i]``, per i."""
        named = np.zeros(len(sets), dtype=np.int64)
        named[a_idx] = named[b_idx] = slots
        sets = self._named(named, sets)
        return ragged_set_distances(self.oracle, sets, a_idx, sets, b_idx)

    def spans(self):
        """The largest distance in each graph, inf for a graph on its own
        oracle (not scanned)."""
        if self.stack is None:
            return np.full(1, np.inf)
        return self.stack.max(axis=(1, 2), initial=0)

    def quasiconvexity(self, slots, sets, pair_budget, seed):
        """The ``QuasiconvexityReport`` of each set ``sets[i]`` in graph
        ``slots[i]``, over the pairs ``sample_unordered_pairs(len(sets[i]),
        pair_budget, seed)`` of its entries.

        A vertex z lies on some geodesic from a to b iff d(a, z) + d(z, b)
        = d(a, b), so the scan covers every geodesic between the pairs
        without enumerating them; q is the largest distance from such a z
        to the set, the witnesses the first pair in sample order that
        attains it and the smallest such z on its geodesics.  Each set's
        distance-to-set row is computed once (``set_rows``), and its pairs
        are scanned a chunk at a time: one gather from the stack, or over
        the cap one ``block`` of the WORD ends of WORD // 2 pairs, which
        is one sweep.  Raises Disconnected if a set's graph is."""
        if not all(self.graphs[s].is_connected for s in set(slots.tolist())):
            raise Disconnected("quasiconvexity scan requires a connected "
                               "graph")
        # a set's sample depends on its size alone
        sizes = sets.sizes().tolist()
        sample = {m: sample_unordered_pairs(m, pair_budget, seed)
                  for m in set(sizes)}
        counts = np.asarray([len(sample[m][0]) for m in sizes], dtype=np.int64)
        owner = np.repeat(np.arange(len(sizes)), counts)
        a, b = sets.flat[sets.offsets[owner] + np.concatenate(
            [np.zeros((2, 0), np.int64)] + [sample[m][:2] for m in sizes],
            axis=1)]
        cut = np.append(0, np.cumsum(counts))
        has = np.flatnonzero(counts)
        far, arg = np.empty((2, len(owner)), dtype=np.int64)  # max, first z
        step = WORD // 2 if self.stack is None else max(1, BLOCK_CHUNK
                                                         // self.n)
        for lo, hi, near in self.set_rows(slots[has], sets, has, 0):
            end = cut[has[hi - 1] + 1]
            for p in range(cut[has[lo]], end, step):
                at = slice(p, min(p + step, end))
                if self.stack is None:
                    da, db = np.split(self.oracle.block(
                        np.concatenate([a[at], b[at]]), np.arange(self.n)), 2)
                    dab = da[np.arange(len(da)), b[at]]
                else:
                    s = slots[owner[at]]
                    da, db = self.stack[s, a[at]], self.stack[s, b[at]]
                    dab = self.stack[s, a[at], b[at]]
                # the distance to the set of each z on a geodesic, else -1
                to_set = np.where(da + db == dab[:, None],
                                  near[np.searchsorted(has, owner[at]) - lo],
                                  -1)
                arg[at] = to_set.argmax(axis=1)
                far[at] = to_set[np.arange(len(to_set)), arg[at]]
        reports = [QuasiconvexityReport(0, None, None, sample[m][2])
                   for m in sizes]
        # a stable sort keeps sample order among each set's maxima
        for i, p in zip(has.tolist(),
                        np.lexsort((-far, owner))[cut[has]].tolist()):
            reports[i] = QuasiconvexityReport(
                int(far[p]), (int(a[p]), int(b[p])), int(arg[p]),
                reports[i].sample)
        return reports

    def walks(self, slots, src, dst):
        """The vertices of a geodesic from ``src[i]`` to ``dst[i]`` in graph
        ``slots[i]``, per i, as ``RaggedSets``.

        Each step goes to the smallest-id neighbour one level closer to
        the source, so a walk visits the vertices of ``geodesics``; raises
        Disconnected on an unreached pair."""
        if self.stack is None:
            return RaggedSets.from_arrays([np.asarray(p, dtype=np.int64) for p
                                           in self.oracle.geodesics(src, dst)])
        d = self.stack[slots, src, dst].astype(np.int64)
        if (d < 0).any():
            raise Disconnected("no path between a pair of a walk")
        at = np.full((int(d.max(initial=0)) + 1, len(d)), -1, dtype=np.int64)
        at[0] = dst
        base = slots * self.n
        for level in range(1, len(at)):
            go = np.flatnonzero(d >= level)
            owner, pos = segments(self.union.indptr, base[go] + at[level - 1,
                                                                   go])
            nbr = self.union.indices[pos] - base[go][owner]
            closer = (self.stack[slots[go][owner], src[go][owner], nbr]
                      == (d[go] - level)[owner])
            at[level, go] = np.minimum.reduceat(
                np.where(closer, nbr, self.n),
                np.searchsorted(owner, np.arange(len(go))))
        flat = at.T[at.T >= 0]
        return RaggedSets(flat, np.append(0, np.cumsum(d + 1)))


def _component(graph, root, vset):
    """The vertices of ``vset`` that root reaches inside it (root in vset)."""
    comp = {root}
    stack = [root]
    while stack:
        for nb in graph.neighbors(stack.pop()).tolist():
            if nb in vset and nb not in comp:
                comp.add(nb)
                stack.append(nb)
    return comp


class Subgraph:
    """A nonempty connected induced subgraph, referenced by vertex set."""

    def __init__(self, parent, vertices, label=None, flags=()):
        self.parent = parent
        self.vertices = tuple(sorted(set(int(v) for v in vertices)))
        if not self.vertices:
            raise ValueError("subgraph must be nonempty")
        for v in self.vertices:
            if not 0 <= v < parent.n:
                raise ValueError(f"vertex {v} not in parent graph")
        self.label = label
        self.flags = tuple(flags)
        self._induced = None
        if not self._connected_check():
            raise ValueError(f"induced subgraph {label or self.vertices[:4]} is not connected")

    def _connected_check(self):
        return len(_component(self.parent, self.vertices[0],
                              set(self.vertices))) == len(self.vertices)

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        name = self.label or "subgraph"
        return f"Subgraph({name}, {len(self.vertices)} vertices)"

    def vertex_array(self):
        return np.asarray(self.vertices, dtype=np.int64)

    def to_local(self):
        return {v: i for i, v in enumerate(self.vertices)}

    def induced_graph(self):
        """The induced graph on local ids 0..len-1 (vertices kept sorted)."""
        if self._induced is None:
            local = self.to_local()
            edges = []
            for i, v in enumerate(self.vertices):
                for nb in self.parent.neighbors(v):
                    nb = int(nb)
                    if nb in local and v < nb:
                        edges.append((i, local[nb]))
            labels = None
            if self.parent.labels is not None:
                labels = [self.parent.labels[v] for v in self.vertices]
            self._induced = MetricGraph(len(self.vertices), edges, labels)
        return self._induced


@dataclass
class PathRecord:
    """A vertex path."""

    vertices: tuple

    def validate(self, graph):
        for a, b in zip(self.vertices, self.vertices[1:]):
            if b not in graph.neighbors(a):
                raise ValueError(f"consecutive vertices {a},{b} not adjacent")
        return True


@dataclass
class HyperbolicityReport:
    """Four-point hyperbolicity constant of a graph.

    The four-point convention is used throughout: delta is the smallest
    value with d(x,y)+d(z,w) <= max of the two other pair sums plus
    2*delta over quadruples.  Exhaustive scans give the exact constant;
    sampled scans give a lower bound and say so.
    """

    delta: float
    witness: tuple | None
    exhaustive: bool
    sample: SampleSpec
    convention: str = "four-point"

    def to_dict(self):
        return {"delta": self.delta,
                "witness": list(self.witness) if self.witness else None,
                "exhaustive": self.exhaustive,
                "sample": self.sample.to_dict(),
                "convention": self.convention}


def _vertex_array(h):
    if isinstance(h, Subgraph):
        return h.vertex_array()
    return np.asarray(sorted(set(int(v) for v in h)), dtype=np.int64)


def connected_hull(graph, verts, label=None, flags=()):
    """A Subgraph on the vertex set, geodesic-completed if disconnected."""
    verts = sorted(set(int(v) for v in verts))
    try:
        return Subgraph(graph, verts, label=label, flags=flags)
    except ValueError:
        pass
    # each component's smallest vertex, bridged to the first one's
    vset, unseen, roots = set(verts), set(verts), []
    while unseen:
        roots.append(min(unseen))
        unseen -= _component(graph, roots[-1], vset)
    bridges = graph.oracle().geodesics(roots[:1] * (len(roots) - 1), roots[1:])
    filled = vset.union(*bridges)
    return Subgraph(graph, sorted(filled), label=label,
                    flags=tuple(flags) + ("hull-completed",))


def _quad_deltas(oracle, quads):
    """Half the gap between the largest and middle pair sums, per quadruple.

    The six pair lists go to the oracle as one query, so the sweep strategy
    visits each distinct source of the chunk once.
    """
    x, y, z, w = quads.T
    d = oracle.pairs(np.concatenate([x, z, x, y, x, y]),
                     np.concatenate([y, w, z, w, w, z])).reshape(6, -1)
    sums = np.sort(np.stack([d[0] + d[1], d[2] + d[3], d[4] + d[5]], axis=1),
                   axis=1)
    return (sums[:, 2] - sums[:, 1]) / 2.0


def four_point_delta(graph, budget=None, seed=0):
    """Four-point hyperbolicity constant of a connected graph.

    With no budget the scan is exhaustive over all vertex quadruples
    (at most EXHAUSTIVE_QUADRUPLE_CAP); with a budget it is a seeded sample
    and the report is flagged as a lower bound.  Either way the quadruples
    are scanned QUAD_CHUNK at a time, and the witness is the first maximum
    in scan order.
    """
    if not graph.is_connected:
        raise Disconnected("four_point_delta requires a connected graph")
    n = graph.n
    oracle = graph.oracle()
    if n < 4:
        spec = SampleSpec("exhaustive", 0, 0, None)
        return HyperbolicityReport(0.0, None, True, spec)

    population = n * (n - 1) * (n - 2) * (n - 3) // 24
    if budget is None:
        if population > EXHAUSTIVE_QUADRUPLE_CAP:
            raise BudgetExceeded(
                f"{population} quadruples exceed EXHAUSTIVE_QUADRUPLE_CAP = "
                f"{EXHAUSTIVE_QUADRUPLE_CAP}; pass a budget")
        it = itertools.combinations(range(n), 4)
        chunks = (np.fromiter(itertools.chain.from_iterable(
            itertools.islice(it, QUAD_CHUNK)), dtype=np.int64).reshape(-1, 4)
            for _ in range(0, population, QUAD_CHUNK))
        spec = SampleSpec("exhaustive", population, population, None)
    else:
        rng = rng_for(seed)
        quads = rng.integers(0, n, size=(int(budget * 1.2) + 8, 4))
        distinct = ((quads[:, 0] != quads[:, 1]) & (quads[:, 0] != quads[:, 2])
                    & (quads[:, 0] != quads[:, 3]) & (quads[:, 1] != quads[:, 2])
                    & (quads[:, 1] != quads[:, 3]) & (quads[:, 2] != quads[:, 3]))
        quads = quads[distinct][:budget]
        chunks = (quads[lo:lo + QUAD_CHUNK]
                  for lo in range(0, len(quads), QUAD_CHUNK))
        spec = SampleSpec("sampled", population, len(quads), seed)
    best = -1.0
    witness = None
    for chunk in chunks:
        deltas = _quad_deltas(oracle, chunk)
        i = int(np.argmax(deltas))
        if deltas[i] > best:
            best = float(deltas[i])
            witness = tuple(int(q) for q in chunk[i])
    return HyperbolicityReport(best, witness, budget is None, spec)


@dataclass
class QuasiconvexityReport:
    q: int
    witness_pair: tuple | None
    witness_vertex: int | None
    sample: SampleSpec

    def to_dict(self):
        return {"q": self.q, "witness_pair": self.witness_pair,
                "witness_vertex": self.witness_vertex,
                "sample": self.sample.to_dict()}


def quasiconvexity_constant(graph, h, pair_budget=DEFAULT_PAIR_BUDGET, seed=0):
    """Smallest q with every geodesic between vertices of h inside N_q(h):
    the one-set call of ``GraphBlock.quasiconvexity`` on a block of one
    graph, over the pairs of h's sorted distinct vertices."""
    verts = _vertex_array(h)
    return GraphBlock([graph]).quasiconvexity(
        np.zeros(1, dtype=np.int64), RaggedSets(verts, [0, len(verts)]),
        pair_budget, seed)[0]


# ---------------------------------------------------------------------------
# ragged distance blocks: many small set-to-set blocks per oracle call

# Most distances one ragged-block query asks the oracle for.  Larger chunks
# scan no faster and only raise peak memory.
RAGGED_CHUNK = 1 << 14
# Most vertex pairs a single set diameter may scan.
DIAMETER_PAIR_CAP = 250_000


class RaggedSets:
    """Vertex sets in CSR form: set s is ``flat[offsets[s]:offsets[s+1]]``."""

    def __init__(self, flat, offsets):
        self.flat = np.asarray(flat, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)

    @classmethod
    def from_arrays(cls, arrays):
        offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum([len(a) for a in arrays], out=offsets[1:])
        flat = np.concatenate(arrays) if arrays else np.empty(0)
        return cls(flat, offsets)

    @classmethod
    def singletons(cls, verts):
        return cls(verts, np.arange(len(verts) + 1))

    @classmethod
    def union(cls, owner, values, k):
        """Set i holds the distinct ``values[j]`` with ``owner[j] == i``, sorted.

        ``values`` are nonnegative; one stable sort of the ``owner * width +
        value`` keys (fast where owners ascend) sorts and deduplicates.
        """
        values = np.asarray(values, dtype=np.int64)
        width = int(values.max()) + 1 if len(values) else 1
        keys = np.sort(np.asarray(owner, dtype=np.int64) * width + values,
                       kind="stable")
        keys = keys[np.append(True, keys[1:] != keys[:-1])[:len(keys)]]
        return cls(keys % width, np.searchsorted(keys // width,
                                                 np.arange(k + 1)))

    @classmethod
    def from_mask(cls, verts, mask, starts):
        """``verts[mask]`` cut into one set per segment starting at ``starts``."""
        kept = np.zeros(len(mask) + 1, dtype=np.int64)
        np.cumsum(mask, out=kept[1:])
        offsets = np.append(kept[starts], kept[-1])
        return cls(verts[mask], offsets)

    def __len__(self):
        return len(self.offsets) - 1

    def __getitem__(self, s):
        return self.flat[self.offsets[s]:self.offsets[s + 1]]

    def sizes(self):
        return np.diff(self.offsets)

    def owners(self):
        """The set holding each entry of ``flat``."""
        return np.repeat(np.arange(len(self)), self.sizes())

    def take(self, idx):
        """The sets ``idx`` (repeats allowed), in that order."""
        owner, pos = segments(self.offsets, idx)
        return RaggedSets(self.flat[pos],
                          np.searchsorted(owner, np.arange(len(idx) + 1)))


class RaggedBlocks:
    """The blocks d(A[a_k], B[b_k]) for a chunk of set pairs, one oracle call.

    Block k is stored row-major in ``d``: a row is one vertex of A[a_k]
    against every vertex of B[b_k], a column one vertex of B[b_k].  Rows
    and columns are numbered across the chunk; ``pair_rows`` and
    ``pair_cols`` hold where each pair's rows and columns start.  All sets
    must be nonempty.
    """

    def __init__(self, oracle, A, a_idx, B, b_idx):
        a_len, b_len = A.sizes()[a_idx], B.sizes()[b_idx]
        self.pair_rows, self.pair_cols = _starts(a_len), _starts(b_len)
        row_pair, row_pos = segments(A.offsets, a_idx)
        _, col_pos = segments(B.offsets, b_idx)
        self.row_verts, self.col_verts = A.flat[row_pos], B.flat[col_pos]
        # row r spans the columns of its pair
        self.row_starts = _starts(b_len[row_pair])
        entry_row, self.entry_col = segments(
            np.append(self.pair_cols, len(col_pos)), row_pair)
        self.d = oracle.pairs(self.row_verts[entry_row],
                              self.col_verts[self.entry_col])
        self._col_min = None

    def __len__(self):
        return len(self.pair_rows)

    def col_min(self):
        """Distance from each column vertex to its pair's row set."""
        if self._col_min is None:
            out = np.full(len(self.col_verts), np.iinfo(self.d.dtype).max,
                          dtype=self.d.dtype)
            np.minimum.at(out, self.entry_col, self.d)
            self._col_min = out
        return self._col_min

    def max(self):
        """Largest entry of each block."""
        return np.maximum.reduceat(self.d, self.row_starts[self.pair_rows])

    def min(self):
        """Smallest entry of each block: the distance between its two sets."""
        return np.minimum.reduceat(self.d, self.row_starts[self.pair_rows])

    def hausdorff(self):
        """Hausdorff distance between the two sets of each pair."""
        row_min = np.minimum.reduceat(self.d, self.row_starts)
        return np.maximum(np.maximum.reduceat(row_min, self.pair_rows),
                          np.maximum.reduceat(self.col_min(), self.pair_cols))

    def projection(self):
        """Tie-complete closest-point projection of B[b_k] onto A[a_k].

        A row vertex belongs when it is nearest to some column vertex.
        """
        tie = self.d == self.col_min()[self.entry_col]
        hit = np.logical_or.reduceat(tie, self.row_starts)
        return RaggedSets.from_mask(self.row_verts, hit, self.pair_rows)


def iter_ragged_blocks(oracle, A, a_idx, B, b_idx):
    """(offset, RaggedBlocks) over consecutive chunks of the pairs.

    Each chunk holds at most RAGGED_CHUNK distances, or a single pair.
    """
    a_idx = np.asarray(a_idx, dtype=np.int64)
    b_idx = np.asarray(b_idx, dtype=np.int64)
    for lo, hi in _chunks(A.sizes()[a_idx] * B.sizes()[b_idx], RAGGED_CHUNK):
        yield lo, RaggedBlocks(oracle, A, a_idx[lo:hi], B, b_idx[lo:hi])


def _per_pair(reduce, oracle, A, a_idx, B, b_idx):
    parts = [reduce(blocks) for _, blocks
             in iter_ragged_blocks(oracle, A, a_idx, B, b_idx)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int32)


def ragged_hausdorff(oracle, A, a_idx, B, b_idx):
    """Hausdorff distance between A[a_k] and B[b_k] for every k."""
    return _per_pair(RaggedBlocks.hausdorff, oracle, A, a_idx, B, b_idx)


def ragged_set_distances(oracle, A, a_idx, B, b_idx):
    """Distance between A[a_k] and B[b_k] (closest vertices) for every k."""
    return _per_pair(RaggedBlocks.min, oracle, A, a_idx, B, b_idx)


def ragged_diameters(oracle, sets, idx=None):
    """Diameter of each set (of ``sets[idx]`` when given)."""
    idx = np.arange(len(sets)) if idx is None else np.asarray(idx)
    sizes = sets.sizes()[idx]
    if (sizes * (sizes - 1) // 2 > DIAMETER_PAIR_CAP).any():
        raise BudgetExceeded(f"diameter scan over DIAMETER_PAIR_CAP = "
                             f"{DIAMETER_PAIR_CAP} pairs")
    return _per_pair(RaggedBlocks.max, oracle, sets, idx, sets, idx)


# ---------------------------------------------------------------------------
# export

def write_edge_list(graph):
    lines = [f"# vertices {graph.n}"]
    for u, v in graph.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def to_dot(graph, styled_edges=None):
    """DOT text; edges in ``styled_edges`` are drawn dashed and red."""
    styled = set()
    if styled_edges:
        styled = {(u, v) if u < v else (v, u) for u, v in styled_edges}
    lines = ["graph G {"]
    for v in range(graph.n):
        if graph.labels is not None:
            lines.append(f'  {v} [label="{graph.labels[v]}"];')
        else:
            lines.append(f"  {v};")
    for u, v in graph.edges:
        if (u, v) in styled:
            lines.append(f'  {u} -- {v} [style="dashed", color="red"];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
