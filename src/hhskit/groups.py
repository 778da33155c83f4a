"""Finitely generated groups with normal-form oracles and Cayley balls.

Supported kinds are free groups, free-abelian groups, right-angled Artin
groups and free products of these.  Each is a graph product of infinite
cyclic groups, given by one commutation table, and has one normal form: the
lexicographically least word of a trace, grown one letter at a time.  Words
are tuples of signed 1-based generator indices; the text form is
whitespace-separated labels with a trailing apostrophe for inverses
("a b' a").
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import BudgetExceeded, Inconclusive, UnknownGenerator
from .graph_core import MetricGraph, connected_hull

DEFAULT_BALL_CAP = 300_000
POSTMERGE_CAP = 2000
# Largest element count of a breadth-first enumeration of a subgroup.
MEMBERSHIP_BUDGET = 200_000


# ---------------------------------------------------------------------------
# words

def inverse_word(word):
    return tuple(-x for x in reversed(word))


def parse_word(text, gens):
    """Parse "a b' a" into a letter tuple; raises UnknownGenerator."""
    lookup = {g: i + 1 for i, g in enumerate(gens)}
    letters = []
    for token in text.split():
        inv = token.endswith("'")
        label = token[:-1] if inv else token
        if label not in lookup:
            raise UnknownGenerator(f"unknown generator {label!r}")
        letters.append(-lookup[label] if inv else lookup[label])
    return tuple(letters)


def format_word(word, gens):
    if not word:
        return "e"
    return " ".join(gens[abs(x) - 1] + ("'" if x < 0 else "") for x in word)


def shortlex_key(word):
    # letter order: g1 < g1' < g2 < g2' < ...
    return (len(word), tuple(2 * (abs(x) - 1) + (x < 0) for x in word))


class GroupModel:
    """A group given by kind + data, with a normal_form oracle.

    kind is one of "free", "free_abelian", "raag", "free_product", and is a
    label only: every kind is the graph product of infinite cyclic groups on
    one commutation table.  No pair commutes in a free group and every
    distinct pair in a free-abelian one; for raag and free_product,
    ``commuting`` holds the unordered pairs of generator labels that commute
    (a free product's are its factors' pairs, side by side).
    """

    def __init__(self, kind, gens, commuting=()):
        self.kind = kind
        self.gens = tuple(gens)
        if len(set(self.gens)) != len(self.gens):
            raise ValueError("generator labels must be distinct")
        self.commuting = frozenset(frozenset(p) for p in commuting)
        if kind not in ("free", "free_abelian", "raag", "free_product"):
            raise ValueError(f"unknown kind {kind}")
        # no letter commutes with itself
        rank = len(self.gens)
        full = kind == "free_abelian"
        self._commutes = [[full and i != j for j in range(rank + 1)]
                          for i in range(rank + 1)]
        for pair in self.commuting:
            a, b = sorted(pair)
            ia, ib = self.gens.index(a) + 1, self.gens.index(b) + 1
            self._commutes[ia][ib] = self._commutes[ib][ia] = True

    def __repr__(self):
        return f"GroupModel({self.kind}, gens={','.join(self.gens)})"

    def rank(self):
        return len(self.gens)

    def commuting_pairs(self):
        """The 1-based ``(i, j)`` with ``i < j`` whose generators commute."""
        rank = len(self.gens)
        return [(i, j) for i in range(1, rank + 1)
                for j in range(i + 1, rank + 1) if self._commutes[i][j]]

    def parse(self, text):
        return parse_word(text, self.gens)

    def format(self, word):
        return format_word(word, self.gens)

    def check_letters(self, word):
        for x in word:
            if not 1 <= abs(x) <= len(self.gens):
                raise UnknownGenerator(f"letter {x} outside declared generators")

    def normal_form(self, word):
        self.check_letters(word)
        return self._steps((), word)

    def step(self, word, s):
        """The normal form of ``word + (s,)``, for ``word`` in normal form
        and a declared letter ``s`` (neither is checked): one letter of
        ``_steps``, on the tuple by slicing."""
        i = abs(s)
        commutes = self._commutes[i]
        j = len(word)
        while j and commutes[abs(word[j - 1])]:
            j -= 1
        if j and word[j - 1] == -s:
            return word[:j - 1] + word[j:]
        while j < len(word) and abs(word[j]) < i:
            j += 1
        return word[:j] + (s,) + word[j:]

    def _steps(self, word, letters):
        """``step`` by each of ``letters`` in turn, on one list.

        The normal form of a trace is its lexicographically least word by
        generator index (Anisimov-Knuth), so a letter cancels the last
        letter that does not commute with it if that is its inverse, and is
        otherwise inserted after it, before the first later letter of larger
        index; in a free group that is the last letter."""
        out = list(word)
        for s in letters:
            i = abs(s)
            commutes = self._commutes[i]
            j = len(out)
            while j and commutes[abs(out[j - 1])]:
                j -= 1
            if j and out[j - 1] == -s:
                del out[j - 1]
                continue
            while j < len(out) and abs(out[j]) < i:
                j += 1
            out.insert(j, s)
        return tuple(out)

    def multiply(self, w1, w2):
        return self.normal_form(w1 + w2)


def free_group(labels):
    return GroupModel("free", labels)


def free_abelian_group(labels):
    return GroupModel("free_abelian", labels)


def raag_group(labels, commuting):
    return GroupModel("raag", labels, commuting=commuting)


def free_product(*factors):
    """The graph product on the disjoint union of the factors' commutation
    tables; generator labels must be disjoint."""
    gens, commuting = [], []
    for f in factors:
        commuting.extend((f.gens[i - 1], f.gens[j - 1])
                         for i, j in f.commuting_pairs())
        gens.extend(f.gens)
    return GroupModel("free_product", gens, commuting=commuting)


# ---------------------------------------------------------------------------
# subgroups

class SubgroupSpec:
    """A finitely generated subgroup, given by generating words."""

    def __init__(self, ambient, generators, label=None):
        self.ambient = ambient
        gens = []
        for w in generators:
            if isinstance(w, str):
                w = ambient.parse(w)
            gens.append(ambient.normal_form(tuple(w)))
        self.generators = tuple(g for g in gens if g)
        self.label = label or "H"
        self._automaton = None
        self._abelian_basis = None

    def __repr__(self):
        words = ", ".join(self.ambient.format(g) for g in self.generators) or "1"
        return f"SubgroupSpec({self.label} = <{words}>)"

    def generator_words_with_inverses(self):
        out = []
        for g in self.generators:
            out.append(g)
            out.append(inverse_word(g))
        return out


def _fold_automaton(gen_words):
    """Stallings-folded subgroup graph of a free group.

    States are ints, transitions state x letter -> state; state 0 is the
    base point.  Folding merges states until transitions are deterministic.
    """
    parent = [0]

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    trans = [dict()]

    def new_state():
        parent.append(len(parent))
        trans.append(dict())
        return len(parent) - 1

    parent[0] = 0
    for w in gen_words:
        s = 0
        for i, x in enumerate(w):
            t = 0 if i == len(w) - 1 else new_state()
            trans[s].setdefault(x, set()).add(t)
            trans[t].setdefault(-x, set()).add(s)
            s = t

    changed = True
    while changed:
        changed = False
        for s in range(len(parent)):
            if find(s) != s:
                continue
            for letter, targets in list(trans[s].items()):
                roots = {find(t) for t in targets}
                if len(roots) > 1:
                    it = iter(sorted(roots))
                    keep = next(it)
                    for other in it:
                        # merge other into keep
                        parent[other] = keep
                        for l2, t2 in trans[other].items():
                            trans[keep].setdefault(l2, set()).update(t2)
                        trans[other] = dict()
                    changed = True
                trans[s][letter] = {find(t) for t in trans[s][letter]}

    # normalize to deterministic maps on root states
    det = {}
    for s in range(len(parent)):
        if find(s) != s:
            continue
        det[s] = {}
        for letter, targets in trans[s].items():
            roots = {find(t) for t in targets}
            assert len(roots) <= 1
            if roots:
                det[s][letter] = next(iter(roots))
    return det, find(0)


def _automaton_accepts(det, root, word):
    s = root
    for x in word:
        s = det[s].get(x)
        if s is None:
            return False
    return s == root


def _integer_basis(vectors):
    """Row-style echelon basis of the lattice spanned by integer vectors."""
    basis = [np.array(v, dtype=np.int64) for v in vectors if any(v)]
    changed = True
    while changed:
        changed = False
        basis = [b for b in basis if b.any()]
        basis.sort(key=lambda b: (np.flatnonzero(b)[0], abs(b[np.flatnonzero(b)[0]])))
        for i in range(len(basis) - 1):
            p_i = np.flatnonzero(basis[i])[0]
            for j in range(i + 1, len(basis)):
                if basis[j].any() and np.flatnonzero(basis[j])[0] == p_i:
                    q = basis[j][p_i] // basis[i][p_i]
                    basis[j] = basis[j] - q * basis[i]
                    changed = True
    return [b for b in basis if b.any()]


def _lattice_contains(basis, target):
    t = np.array(target, dtype=np.int64)
    for b in basis:
        p = np.flatnonzero(b)[0]
        if t[p] != 0:
            if t[p] % b[p] != 0:
                return False
            t = t - (t[p] // b[p]) * b
    return not t.any()


def _abelianize(word, rank):
    v = [0] * rank
    for x in word:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(v)


def subgroup_membership(model, sub, word):
    """Decide word in sub; exact for free and free-abelian ambients, and
    for special subgroups (generated by standard generators) of a RAAG or
    a free product.

    Other cases fall back to enumerating subgroup elements by word length
    and raise Inconclusive when the element is not found but the
    enumeration had to be cut off.
    """
    word = model.normal_form(tuple(word))
    if not word:
        return True
    if not sub.generators:
        return False
    if model.kind == "free":
        if sub._automaton is None:
            sub._automaton = _fold_automaton(sub.generators)
        det, root = sub._automaton
        return _automaton_accepts(det, root, word)
    if model.kind == "free_abelian":
        if sub._abelian_basis is None:
            sub._abelian_basis = _integer_basis(
                [_abelianize(g, model.rank()) for g in sub.generators])
        return _lattice_contains(sub._abelian_basis, _abelianize(word, model.rank()))
    if all(len(g) == 1 for g in sub.generators):
        # special subgroup: reduced words of one element share their
        # letters, so membership is support containment
        letters = {abs(g[0]) for g in sub.generators}
        return all(abs(x) in letters for x in word)

    # radius-limited fallback: breadth-first closure over subgroup generators
    truncated = False
    for prod, k in walk_subgroup(model, sub, len(word) + 4,
                                 "membership fallback"):
        if k is None:
            truncated = True
        elif prod == word:
            return True
    if truncated:
        raise Inconclusive("membership fallback truncated by length cap")
    return False


def walk_subgroup(model, sub, max_len, what):
    """Breadth-first walk over the elements of ``sub`` by generator words.

    Yields ``(word, k)`` per new element, k its length over the generators,
    layer by layer, and ``(word, None)`` per product longer than
    ``max_len``, which is not kept.  Raises Inconclusive, naming ``what``,
    past MEMBERSHIP_BUDGET kept elements (read when the walk runs).
    """
    seen = {(): 0}
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for g in sub.generator_words_with_inverses():
                prod = model.multiply(w, g)
                if prod in seen:
                    continue
                if len(prod) > max_len:
                    yield prod, None
                    continue
                seen[prod] = seen[w] + 1
                nxt.append(prod)
                # a caller that stops at this element never meets the budget
                yield prod, seen[prod]
                if len(seen) > MEMBERSHIP_BUDGET:
                    raise Inconclusive(f"{what} exceeds MEMBERSHIP_BUDGET = "
                                       f"{MEMBERSHIP_BUDGET}")
        frontier = nxt


# ---------------------------------------------------------------------------
# Cayley balls

class BallGraph:
    """The radius-r ball of a Cayley graph, with the word<->vertex bijection.

    Vertex ids are assigned in shortlex order (layer by layer), so numeric
    order on ids is shortlex order on normal forms.  ``index`` maps each
    normal form to its id; it is the dict the ball was grown with.
    """

    def __init__(self, graph, radius, gens, words, model, index):
        self.graph = graph
        self.radius = radius
        self.gens = tuple(gens)
        self.words = tuple(words)
        self.model = model
        self.index = index

    def __repr__(self):
        return (f"BallGraph({self.model.kind}, r={self.radius}, "
                f"{self.graph.n} vertices)")

    def id_of(self, word):
        return self.index[self.model.normal_form(tuple(word))]

    def id_of_text(self, text):
        return self.id_of(self.model.parse(text))


def cayley_ball(model, radius, gens=None):
    """Breadth-first Cayley ball over the given generator labels.

    Every supported kind has only even-length relators, so word length mod 2
    is a homomorphism to Z/2 and the Cayley graph is bipartite.  Each edge
    is then found once, as the step that grows its outer end from its inner
    end, and the last layer is never expanded: no edge joins two of its
    vertices.  A step that lands in its own layer would disprove this, and
    raises.

    A layer is grown from the parents in id order and the letters in
    shortlex letter order (g1 < g1' < g2 < ..., by model index).  Every
    supported normal form is the shortlex least word of its element, so a
    prefix of one is again a normal form, and the first step to reach a new
    word comes from its prefix by its last letter: the layer comes out in
    shortlex order, and a child's label is its parent's plus one letter.  A
    model whose new word is not the child of the parent that reached it
    gets that word's label by ``format_word`` and the layer sorted by
    ``shortlex_key``."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    labels = tuple(gens) if gens is not None else model.gens
    for lab in labels:
        if lab not in model.gens:
            raise UnknownGenerator(f"generator {lab!r} not declared by the model")
    letters = [x for idx in sorted({model.gens.index(lab) + 1 for lab in labels})
               for x in (idx, -idx)]
    letter_text = {s: format_word((s,), model.gens) for s in letters}

    words, texts, index, edges = [()], ["e"], {(): 0}, []
    start, end = 0, 1
    for k in range(radius):
        first, ordered = len(edges), True
        for i in range(start, end):
            w = words[i]
            head = texts[i] + " " if i else ""
            for s in letters:
                w2 = model.step(w, s)
                n = len(words)
                j = index.setdefault(w2, n)
                if j < end:
                    if j >= start:
                        raise ValueError(
                            f"{format_word(w + (s,), model.gens)} stays in "
                            f"layer {k}: the Cayley graph is not bipartite")
                    continue
                edges.append((i, j))
                if j == n:
                    words.append(w2)
                    if w2[-1] == s and w2[:-1] == w:
                        texts.append(head + letter_text[s])
                    else:
                        texts.append(format_word(w2, model.gens))
                        ordered = False
                    if n >= DEFAULT_BALL_CAP:
                        raise BudgetExceeded(f"ball exceeded DEFAULT_BALL_CAP"
                                             f" = {DEFAULT_BALL_CAP} vertices")
        if not ordered:
            perm = sorted(range(end, len(words)),
                          key=lambda v: shortlex_key(words[v]))
            words[end:] = [words[v] for v in perm]
            texts[end:] = [texts[v] for v in perm]
            moved = {v: new for new, v in enumerate(perm, end)}
            index.update((words[v], v) for v in range(end, len(words)))
            edges[first:] = [(i, moved[j]) for i, j in edges[first:]]
        start, end = end, len(words)

    graph = MetricGraph(len(words), edges, texts)
    return BallGraph(graph, radius, labels, words, model, index)


# ---------------------------------------------------------------------------
# cosets

@dataclass(frozen=True)
class CosetDescriptor:
    """A left coset of a subgroup, named by its minimal representative.

    ``vertices`` are the coset's ball vertices, sorted; ``truncated`` says
    that a generator step from one of them leaves the ball."""

    subgroup: SubgroupSpec
    representative: tuple
    vertices: tuple
    truncated: bool

    def label(self):
        return (f"{self.subgroup.label}-coset"
                f"[{self.subgroup.ambient.format(self.representative)}]")


def _walk_classes(ball, sub):
    """Union-find classes of ball vertices under right mult by sub generators.

    Also returns the set of vertices with a step that leaves the ball."""
    n = ball.graph.n
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    exits = set()
    gen_words = sub.generator_words_with_inverses()
    for v in range(n):
        w = ball.words[v]
        for g in gen_words:
            # ball words are normal forms: step by g's letters
            j = ball.index.get(reduce(ball.model.step, g, w))
            if j is None:
                exits.add(v)
                continue
            ri, rj = find(v), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    classes = {}
    for v in range(n):
        classes.setdefault(find(v), []).append(v)
    return classes, exits


def enumerate_cosets(ball, sub):
    """Coset descriptors partitioning the ball, minimal reps, shortlex order.

    Walk components are merged across ball-exit gaps by a membership check
    (bucketed by abelianization).  The walks of a single-generator subgroup
    are connected, and so are a special one's (every generator one letter:
    g = g'k with g' the minimal representative and |g| = |g'| + |k|), so
    the merge pass is skipped for both.  Each descriptor carries its merged
    class's vertices, truncated when any of them has a step that leaves the
    ball; the identity coset, the subgroup's ball elements, comes first.
    """
    classes, exits = _walk_classes(ball, sub)
    reps = sorted(classes)
    if (len(sub.generators) > 1 and len(reps) > 1
            and not all(len(g) == 1 for g in sub.generators)):
        if len(reps) > POSTMERGE_CAP:
            raise BudgetExceeded(f"{len(reps)} walk components exceed "
                                 f"POSTMERGE_CAP = {POSTMERGE_CAP}")
        rank = ball.model.rank()
        basis = _integer_basis([_abelianize(g, rank) for g in sub.generators])
        buckets = {}
        for r in reps:
            vec = np.array(_abelianize(ball.words[r], rank), dtype=np.int64)
            for b in basis:
                p = np.flatnonzero(b)[0]
                vec = vec - (vec[p] // b[p]) * b
            buckets.setdefault(tuple(int(x) for x in vec), []).append(r)
        merged = {r: r for r in reps}

        def mfind(r):
            while merged[r] != r:
                merged[r] = merged[merged[r]]
                r = merged[r]
            return r

        for bucket in buckets.values():
            for i in range(len(bucket)):
                for j in range(i + 1, len(bucket)):
                    ri, rj = mfind(bucket[i]), mfind(bucket[j])
                    if ri == rj:
                        continue
                    diff = ball.model.multiply(
                        inverse_word(ball.words[ri]), ball.words[rj])
                    if subgroup_membership(ball.model, sub, diff):
                        merged[max(ri, rj)] = min(ri, rj)
        final = {}
        for r in reps:
            final.setdefault(mfind(r), []).extend(classes[r])
        classes = {r: sorted(vs) for r, vs in final.items()}
    # the walk lists each class in id order
    return [CosetDescriptor(sub, ball.words[r], tuple(vs),
                            not exits.isdisjoint(vs))
            for r, vs in sorted(classes.items())]


def coset_subgraph(ball, descriptor):
    """The coset as a connected Subgraph of the ball.

    Cosets of generators that are not single letters (say <ab>) induce no
    edges; those are completed with geodesics between consecutive
    components and flagged 'hull-completed'.
    """
    return connected_hull(ball.graph, descriptor.vertices,
                          label=descriptor.label(),
                          flags=["truncated"] if descriptor.truncated else [])
