"""Group models, normal forms, balls, membership and cosets."""

import itertools
from collections import deque
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhskit.errors import UnknownGenerator
from hhskit.factor_system import family_from_cosets
from hhskit.groups import (SubgroupSpec, cayley_ball, coset_subgraph,
                           enumerate_cosets, format_word, free_abelian_group,
                           free_group, free_product, inverse_word, raag_group,
                           shortlex_key, subgroup_membership)

F2 = free_group(["a", "b"])
Z2 = free_abelian_group(["a", "b"])
R2 = raag_group(["a", "b"], [("a", "b")])


def words(model, max_len=8):
    letters = [i for i in range(1, model.rank() + 1)]
    alphabet = letters + [-i for i in letters]
    return st.lists(st.sampled_from(alphabet), max_size=max_len).map(tuple)


# ---------------------------------------------------------------------------
# normal forms

def test_free_reduction():
    assert F2.normal_form(F2.parse("a a' b")) == F2.parse("b")


def test_raag_edgeless_is_free():
    free_like = raag_group(["a", "b"], [])
    assert free_like.format(free_like.normal_form(free_like.parse("a b"))) == "a b"


def test_raag_one_edge_shortlex():
    assert R2.format(R2.normal_form(R2.parse("b a"))) == "a b"


def abelianized(word, rank):
    v = [0] * rank
    for x in word:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(v)


@given(words(R2))
@settings(max_examples=150, deadline=None)
def test_raag_nf_matches_abelianization_oracle(w):
    # on the one-edge raag (= Z^2) the normal form is determined by exponents
    nf = R2.normal_form(w)
    assert abelianized(nf, 2) == abelianized(w, 2)
    ea, eb = abelianized(w, 2)
    expect = tuple([1 if ea > 0 else -1] * abs(ea) + [2 if eb > 0 else -2] * abs(eb))
    assert nf == expect


@pytest.mark.parametrize("model", [F2, Z2, R2,
                                   free_product(free_group(["a"]), free_group(["b"]))])
def test_nf_idempotent_and_inverse_cancels(model):
    for w in itertools.product([1, -1, 2, -2], repeat=4):
        nf = model.normal_form(w)
        assert model.normal_form(nf) == nf
        assert model.multiply(w, inverse_word(w)) == ()


@given(words(F2))
@settings(max_examples=150, deadline=None)
def test_free_nf_properties(w):
    nf = F2.normal_form(w)
    assert F2.normal_form(nf) == nf
    assert F2.multiply(w, inverse_word(w)) == ()


def test_free_product_alternating_form():
    FP = free_product(free_group(["a"]), free_group(["b"]))
    w = FP.parse("a b b' a a'")
    assert FP.format(FP.normal_form(w)) == "a"
    assert FP.normal_form(FP.parse("a a' b")) == FP.parse("b")


def piling_normal_form(word, rank, commuting):
    """Reference RAAG normal form by piling (Cartier-Foata heaps).

    Each letter stacks +-1 on its own pile and 0 on the piles of the
    generators (1-based) it does not commute with; a letter cancels when it
    meets its inverse on top of its pile.  Depiling smallest-available-first
    gives the lexicographically least word."""
    commutes = [[False] * (rank + 1) for _ in range(rank + 1)]
    for i, j in commuting:
        commutes[i][j] = commutes[j][i] = True
    piles = [deque() for _ in range(rank + 1)]
    for x in word:
        i, eps = abs(x), (1 if x > 0 else -1)
        if piles[i] and piles[i][-1] == -eps:
            piles[i].pop()
            for j in range(1, rank + 1):
                if j != i and not commutes[i][j]:
                    piles[j].pop()
        else:
            piles[i].append(eps)
            for j in range(1, rank + 1):
                if j != i and not commutes[i][j]:
                    piles[j].append(0)
    out = []
    while True:
        for i in range(1, rank + 1):
            if piles[i] and piles[i][0] != 0:
                eps = piles[i].popleft()
                out.append(i * eps)
                for j in range(1, rank + 1):
                    if j != i and not commutes[i][j]:
                        piles[j].popleft()
                break
        else:
            return tuple(out)


@st.composite
def commutation_graphs(draw):
    """(rank, edges on 1..rank): random, edgeless (free) or complete
    (free-abelian)."""
    rank = draw(st.integers(1, 5))
    pairs = list(itertools.combinations(range(1, rank + 1), 2))
    edges = draw(st.one_of(st.just([]), st.just(pairs),
                           st.lists(st.sampled_from(pairs), unique=True)
                           if pairs else st.just([])))
    return rank, edges


@given(commutation_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_step_fold_equals_piling(graph, data):
    """normal_form, the fold of the one-letter step, equals the piling on
    every commutation graph; the edgeless one is the free group and the
    complete one the free-abelian group."""
    rank, edges = graph
    labels = "abcde"[:rank]
    model = raag_group(labels, [(labels[i - 1], labels[j - 1])
                                for i, j in edges])
    for _ in range(5):
        w = data.draw(words(model, max_len=12))
        expect = piling_normal_form(w, rank, edges)
        assert model.normal_form(w) == expect
        if not edges:
            assert free_group(labels).normal_form(w) == expect
        if len(edges) == rank * (rank - 1) // 2:
            assert free_abelian_group(labels).normal_form(w) == expect


@given(commutation_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_sliced_step_equals_the_list_step(graph, data):
    """``step`` slices its tuple; on normal forms of every commutation
    graph (edgeless: free, complete: free-abelian) it equals the list path
    ``_steps`` with one letter."""
    rank, edges = graph
    labels = "abcde"[:rank]
    model = raag_group(labels, [(labels[i - 1], labels[j - 1])
                                for i, j in edges])
    for _ in range(5):
        w = model.normal_form(data.draw(words(model, max_len=12)))
        s = data.draw(st.sampled_from([i * e for i in range(1, rank + 1)
                                       for e in (1, -1)]))
        assert model.step(w, s) == model._steps(w, (s,))


def product_normal_form(word, factors):
    """Reference normal form of the free product of ``factors`` by
    syllables: consecutive letters of one factor form a syllable, each
    syllable is reduced by its factor's normal form, and syllables that
    vanish or merge with a neighbour of the same factor are reduced again
    until nothing changes.  Letters index the factors' generators in
    turn."""
    factor_of, offset = {}, [0]
    for fi, f in enumerate(factors):
        for j in range(1, f.rank() + 1):
            factor_of[offset[-1] + j] = (fi, j)
        offset.append(offset[-1] + f.rank())
    syllables = []
    for x in word:
        fi, local = factor_of[abs(x)]
        letter = local if x > 0 else -local
        if syllables and syllables[-1][0] == fi:
            syllables[-1][1].append(letter)
        else:
            syllables.append([fi, [letter]])
    changed = True
    while changed:
        changed = False
        out = []
        for fi, letters in syllables:
            nf = factors[fi].normal_form(tuple(letters))
            if not nf:
                changed = True
                continue
            if out and out[-1][0] == fi:
                out[-1][1].extend(nf)
                changed = True
            else:
                out.append([fi, list(nf)])
        syllables = out
    return tuple((abs(x) + offset[fi]) * (1 if x > 0 else -1)
                 for fi, letters in syllables for x in letters)


@st.composite
def nested_products(draw):
    """(model, factors): a free product of 2-3 factors of total rank at
    most 5, each free, free-abelian, a RAAG or itself a free product of two
    such groups."""
    ranks = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)
                 .filter(lambda r: sum(r) <= 5))
    labels = iter("abcde")
    factors = []
    for rank in ranks:
        names = [next(labels) for _ in range(rank)]
        if rank >= 2 and draw(st.booleans()):
            split = draw(st.integers(1, rank - 1))
            factors.append(free_product(draw(factor_models(names[:split])),
                                        draw(factor_models(names[split:]))))
        else:
            factors.append(draw(factor_models(names)))
    return free_product(*factors), factors


@given(nested_products(), st.data())
@settings(max_examples=150, deadline=None)
def test_product_normal_form_is_the_graph_product_one(product, data):
    """A free product's normal form, on the block-diagonal commutation
    table of its factors, equals the syllable reference and the piling."""
    model, factors = product
    offset, edges = 0, []
    for f in factors:
        edges += [(i + offset, j + offset) for i, j in f.commuting_pairs()]
        offset += f.rank()
    assert model.commuting_pairs() == sorted(edges)
    for _ in range(5):
        w = data.draw(words(model, max_len=12))
        nf = model.normal_form(w)
        assert nf == product_normal_form(w, factors)
        assert nf == piling_normal_form(w, model.rank(), edges)


def test_commuting_pairs_of_each_kind():
    assert F2.commuting_pairs() == []
    assert free_abelian_group("abc").commuting_pairs() == [(1, 2), (1, 3),
                                                            (2, 3)]
    assert raag_group("abc", [("c", "b")]).commuting_pairs() == [(2, 3)]
    model = free_product(Z2, free_group("c"), free_abelian_group("de"))
    assert model.commuting_pairs() == [(1, 2), (4, 5)]


EACH_KIND = pytest.mark.parametrize("model,radius", [
    (F2, 4), (free_abelian_group(["a", "b", "c"]), 3),
    (raag_group(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]), 3),
    (raag_group(["a", "b", "c"], [("a", "b")]), 4),
    (free_product(free_group(["a"]), free_abelian_group(["b", "c"])), 3),
    (free_product(raag_group("abc", [("a", "b")]), free_abelian_group("de")),
     3)],
    ids=["free", "free_abelian", "raag_P4", "raag_Z2*Z", "free_product",
         "raag*Z2"])


@EACH_KIND
def test_step_is_the_normal_form_of_one_more_letter(model, radius):
    """For every ball word w and letter s, step(w, s) is the normal form
    of w s, of each kind."""
    letters = [x for i in range(1, model.rank() + 1) for x in (i, -i)]
    for w in cayley_ball(model, radius).words:
        for s in letters:
            assert model.step(w, s) == model.normal_form(w + (s,))


@EACH_KIND
def test_step_fold_is_right_multiplication(model, radius):
    """The coset walks multiply ball words by generator words one letter
    at a time; on every ball word and every generator word, one letter or
    several, and its inverse, that equals ``multiply``."""
    gens = [(i,) for i in range(1, model.rank() + 1)]
    gens += [(1, 2), (2, 1, -2), (1, 1), (-2, model.rank(), 1)]
    for w in cayley_ball(model, radius).words:
        for g in gens + [inverse_word(g) for g in gens]:
            assert reduce(model.step, g, w) == model.multiply(w, g)


def test_unknown_generator_raises():
    with pytest.raises(UnknownGenerator):
        F2.parse("a c")
    with pytest.raises(UnknownGenerator):
        F2.normal_form((5,))


# ---------------------------------------------------------------------------
# balls

def test_free_ball_counts():
    assert cayley_ball(F2, 0).graph.n == 1
    assert cayley_ball(F2, 2).graph.n == 17
    for r in range(5):
        assert cayley_ball(F2, r).graph.n == 2 * 3 ** r - 1


def test_z2_ball_is_l1_lattice_count():
    for r in range(4):
        # oracle: lattice points with |x|+|y| <= r
        count = sum(1 for x in range(-r, r + 1) for y in range(-r, r + 1)
                    if abs(x) + abs(y) <= r)
        assert cayley_ball(Z2, r).graph.n == count
    assert cayley_ball(Z2, 2).graph.n == 13


def test_ball_edges_exactly_generator_moves():
    ball = cayley_ball(F2, 3)
    for v in range(ball.graph.n):
        w = ball.words[v]
        for s in [1, -1, 2, -2]:
            w2 = ball.model.multiply(w, (s,))
            if w2 in ball.index:
                u = ball.index[w2]
                e = (min(u, v), max(u, v))
                assert e in set(ball.graph.edges)
    # and nothing else: every edge is a generator move
    for u, v in ball.graph.edges:
        diff = ball.model.multiply(inverse_word(ball.words[u]), ball.words[v])
        assert len(diff) == 1


def test_ball_ids_are_shortlex_sorted():
    ball = cayley_ball(F2, 3)
    keys = [(len(w), w) for w in ball.words]
    lengths = [len(w) for w in ball.words]
    assert lengths == sorted(lengths)
    assert ball.words[0] == ()


def test_ball_distance_equals_word_length():
    ball = cayley_ball(F2, 4)
    e = ball.id_of(())
    target = ball.id_of_text("a b a b")
    assert len(ball.graph.oracle().geodesic(e, target)) - 1 == 4


def test_raag_ball_is_tree_free_case_and_grid_z2_case():
    free = cayley_ball(raag_group(["a", "b"], []), 3).graph
    assert free.is_connected and len(free.edges) == free.n - 1
    ballz = cayley_ball(R2, 3)
    assert ballz.graph.n == cayley_ball(Z2, 3).graph.n


def two_pass_ball(model, radius, labels):
    """Reference: grow the layers, then take one normal form for every
    (vertex, letter) again, and keep each step that stays in the ball."""
    letters = [x for lab in labels
               for x in (model.gens.index(lab) + 1, -model.gens.index(lab) - 1)]
    words, seen, layer = [()], {(): 0}, [()]
    for _ in range(radius):
        nxt = []
        for w in layer:
            for s in letters:
                w2 = model.normal_form(w + (s,))
                if w2 not in seen:
                    seen[w2] = -1
                    nxt.append(w2)
        nxt.sort(key=shortlex_key)
        for w2 in nxt:
            seen[w2] = len(words)
            words.append(w2)
        layer = nxt
    edges = set()
    for w, i in seen.items():
        for s in letters:
            j = seen.get(model.normal_form(w + (s,)))
            if j is not None and j != i:
                edges.add((min(i, j), max(i, j)))
    return tuple(words), tuple(sorted(edges))


@st.composite
def factor_models(draw, labels):
    kind = draw(st.sampled_from(["free", "free_abelian", "raag"]))
    if kind == "free":
        return free_group(labels)
    if kind == "free_abelian":
        return free_abelian_group(labels)
    pairs = list(itertools.combinations(labels, 2))
    return raag_group(labels, draw(st.lists(st.sampled_from(pairs),
                                            unique=True))
                      if pairs else [])


@st.composite
def ball_models(draw):
    """Every kind, RAAGs on random commuting graphs, free products."""
    rank = draw(st.integers(1, 3))
    model = draw(factor_models(list("abc"[:rank])))
    if draw(st.booleans()):
        other = draw(factor_models(list("de"[:draw(st.integers(1, 2))])))
        model = free_product(model, other)
    return model


@given(ball_models(), st.integers(0, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_one_pass_ball_matches_two_pass(model, radius, data):
    """Same words, labels and edges as the two-pass construction, on all
    generators or a subset, with one step per (vertex, letter) of the
    (radius-1)-ball."""
    labels = data.draw(st.one_of(
        st.none(), st.lists(st.sampled_from(model.gens), min_size=1,
                            unique=True)))
    gens = model.gens if labels is None else tuple(labels)
    words, edges = two_pass_ball(model, radius, gens)
    calls = []
    step = model.step
    model.step = lambda w, s: calls.append(w) or step(w, s)
    try:
        ball = cayley_ball(model, radius, labels)
    finally:
        del model.step
    assert ball.words == words and ball.graph.edges == edges
    assert ball.graph.labels == tuple(model.format(w) for w in words)
    inner = sum(len(w) < radius for w in words)
    assert len(calls) == inner * 2 * len(gens)


class OddRelator:
    """Z/3 = <a | a a a>: an odd relator, so its Cayley graph has a triangle."""

    kind = "cyclic"
    gens = ("a",)

    def normal_form(self, word):
        return (1,) * (sum(1 if x > 0 else -1 for x in word) % 3)

    def step(self, word, s):
        return self.normal_form(word + (s,))


def test_ball_refuses_a_step_inside_its_layer():
    assert cayley_ball(OddRelator(), 1).graph.n == 3
    with pytest.raises(ValueError, match="not bipartite"):
        cayley_ball(OddRelator(), 2)


class ParityZ2:
    """Z^2 = <a, b | a b a' b'> with a normal form that is not prefix-closed:
    a^i b^j writes the a-letters first when i + j is even and the b-letters
    first when it is odd.  NF(a a b) = b a a, but its prefix b a is not
    NF(a b) = a b, so the ball's layer 3 comes out of order and is sorted."""

    kind = "parity"
    gens = ("a", "b")

    def normal_form(self, word):
        i = sum((x > 0) - (x < 0) for x in word if abs(x) == 1)
        j = sum((x > 0) - (x < 0) for x in word if abs(x) == 2)
        a = (1 if i > 0 else -1,) * abs(i)
        b = (2 if j > 0 else -2,) * abs(j)
        return a + b if (i + j) % 2 == 0 else b + a

    def step(self, word, s):
        return self.normal_form(word + (s,))


def test_ball_sorts_a_layer_that_is_not_prefix_closed():
    model = ParityZ2()
    assert model.normal_form((1, 1, 2)) == (2, 1, 1)
    assert model.normal_form((2, 1)) == (1, 2)
    for radius in range(6):
        words, edges = two_pass_ball(model, radius, model.gens)
        ball = cayley_ball(model, radius)
        assert ball.words == words and ball.graph.edges == edges
        assert ball.graph.labels == tuple(format_word(w, model.gens)
                                          for w in words)
        assert all(ball.index[w] == i for i, w in enumerate(ball.words))
        assert len(ball.index) == ball.graph.n


# ---------------------------------------------------------------------------
# membership

def naive_subgroup_elements(model, sub, max_len):
    """Oracle: BFS closure over subgroup generators, trimmed by length."""
    seen = {()}
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for g in sub.generator_words_with_inverses():
                p = model.multiply(w, g)
                if len(p) <= max_len and p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


def test_membership_free_axis():
    h = SubgroupSpec(F2, ["a"], label="A")
    assert subgroup_membership(F2, h, F2.parse("a a a a a"))
    assert not subgroup_membership(F2, h, F2.parse("b a b'"))


def test_membership_folding_vs_enumeration_oracle():
    h = SubgroupSpec(F2, ["a b", "a a"], label="H")
    elements = naive_subgroup_elements(F2, h, 6)
    for n in range(7):
        for w in itertools.product([1, -1, 2, -2], repeat=n):
            nf = F2.normal_form(w)
            if len(nf) <= 6:
                assert subgroup_membership(F2, h, nf) == (nf in elements)


def test_membership_bab_inverse_in_folded_subgroup():
    h = SubgroupSpec(F2, ["a b", "a a"], label="H")
    w = F2.parse("b a a b")
    expect = w in naive_subgroup_elements(F2, h, 6)
    assert subgroup_membership(F2, h, w) == expect


def test_membership_abelian_lattice():
    h = SubgroupSpec(Z2, ["a a", "b b"], label="even")
    assert subgroup_membership(Z2, h, Z2.parse("a a b b"))
    assert not subgroup_membership(Z2, h, Z2.parse("a b b"))
    assert subgroup_membership(Z2, h, Z2.parse("a a a a"))


def test_membership_raag_special_subgroup_matches_enumeration():
    R = raag_group(["a", "b", "c"], [("a", "b")])
    assert not subgroup_membership(R, SubgroupSpec(R, ["c"]), R.parse("a"))
    h = SubgroupSpec(R, ["a", "c'"], label="AC")
    elements = naive_subgroup_elements(R, h, 4)
    for n in range(5):
        for w in itertools.product([1, -1, 2, -2, 3, -3], repeat=n):
            nf = R.normal_form(w)
            if len(nf) <= 4:
                assert subgroup_membership(R, h, nf) == (nf in elements)


def test_membership_free_product_special_subgroups_match_enumeration():
    """Special subgroups of Z^2 * Z are decided exactly, as in the RAAG
    with the same commutation table: every word of the r=4 ball, members
    and non-members alike."""
    model = free_product(Z2, free_group(["c"]))
    ball = cayley_ball(model, 4)
    for gens in (["a"], ["a", "c"], ["b"]):
        h = SubgroupSpec(model, gens)
        elements = naive_subgroup_elements(model, h, 4)
        for w in ball.words:
            assert subgroup_membership(model, h, w) == (w in elements)


def test_raag_multi_generator_coset_family_builds():
    R = raag_group(["a", "b", "c"], [("a", "b")])
    ball = cayley_ball(R, 3)
    cand = family_from_cosets(ball, [SubgroupSpec(R, ["a", "c"], label="AC")])
    covered = sorted(v for m in cand.family for v in m.vertices)
    assert covered == list(range(ball.graph.n))


def test_membership_abelian_matches_enumeration():
    h = SubgroupSpec(Z2, ["a b", "a a"], label="L")
    for x in range(-3, 4):
        for y in range(-3, 4):
            w = Z2.normal_form(tuple([1] * max(x, 0) + [-1] * max(-x, 0)
                                     + [2] * max(y, 0) + [-2] * max(-y, 0)))
            # oracle: x = s + 2t, y = s solvable over Z  <=>  x - y even
            expect = (x - y) % 2 == 0
            assert subgroup_membership(Z2, h, w) == expect


# ---------------------------------------------------------------------------
# cosets

def test_whole_group_single_coset():
    ball = cayley_ball(F2, 2)
    h = SubgroupSpec(F2, ["a", "b"], label="G")
    cosets = enumerate_cosets(ball, h)
    assert len(cosets) == 1
    assert cosets[0].representative == ()


def test_trivial_subgroup_one_coset_per_vertex():
    ball = cayley_ball(F2, 2)
    h = SubgroupSpec(F2, [], label="1")
    cosets = enumerate_cosets(ball, h)
    assert len(cosets) == ball.graph.n


def test_axis_cosets_partition_ball():
    ball = cayley_ball(F2, 3)
    h = SubgroupSpec(F2, ["a"], label="A")
    cosets = enumerate_cosets(ball, h)
    seen = set()
    for c in cosets:
        assert not (seen & set(c.vertices))
        seen.update(c.vertices)
        # representative is shortlex-minimal in its class
        assert min(c.vertices) == ball.index[c.representative]
    assert seen == set(range(ball.graph.n))
    # oracle: reps of a-cosets are exactly the words with no trailing a-letter
    expect = sum(1 for w in ball.words if not w or abs(w[-1]) != 1)
    assert len(cosets) == expect


def test_coset_subgraph_axes():
    ball = cayley_ball(F2, 3)
    h = SubgroupSpec(F2, ["a"], label="A")
    cosets = {c.representative: c for c in enumerate_cosets(ball, h)}
    sub_e = coset_subgraph(ball, cosets[()])
    axis = sorted(ball.id_of(tuple([1] * k if k >= 0 else [-1] * -k))
                  for k in range(-3, 4))
    assert list(sub_e.vertices) == axis
    sub_b = coset_subgraph(ball, cosets[ball.model.parse("b")])
    expect = sorted(ball.id_of_text(" ".join(["b"] + ["a"] * k)) for k in range(3))
    expect_neg = [ball.id_of(ball.model.parse("b") + tuple([-1] * k)) for k in range(1, 3)]
    assert set(sub_b.vertices) == set(expect) | set(expect_neg)


def test_coset_subgraph_hull_completion_for_word_generators():
    ball = cayley_ball(F2, 4)
    h = SubgroupSpec(F2, ["a b"], label="AB")
    sub = coset_subgraph(ball, enumerate_cosets(ball, h)[0])
    # the walk leaves the ball at (ab)^3, so the coset is also truncated
    assert sub.flags == ("truncated", "hull-completed")
    # the walk points (ab)^k stay inside, joined by geodesics
    assert ball.id_of_text("a b") in sub.vertices
    assert ball.id_of_text("a") in sub.vertices  # geodesic interior


def test_coset_partition_multi_generator_subgroup():
    # (model, radius, generators, cosets); the last three have walk
    # classes that meet across ball exits and are merged: 28 classes into
    # one coset, 163 into 82, and 3 into one
    cases = [(F2, 3, ["a b", "a a"], 19), (F2, 4, ["b a", "b"], 1),
             (F2, 5, ["a b b", "a"], 82), (Z2, 4, ["b a b", "b"], 1)]
    for model, radius, gens, count in cases:
        ball = cayley_ball(model, radius)
        h = SubgroupSpec(model, gens, label="H")
        cosets = enumerate_cosets(ball, h)
        assert len(cosets) == count
        covered = sorted(v for c in cosets for v in c.vertices)
        assert covered == list(range(ball.graph.n))
        elements = naive_subgroup_elements(model, h, 2 * radius)
        for c in cosets:
            rep_inv = inverse_word(c.representative)
            for v in c.vertices:
                assert model.multiply(rep_inv, ball.words[v]) in elements
        # each family member holds its whole coset
        family = family_from_cosets(ball, [h]).family
        assert len(family) == count
        for c, member in zip(cosets, family):
            assert set(c.vertices) <= set(member.vertices)


F3 = free_group(["a", "b", "c"])
Z3 = free_abelian_group(["a", "b", "c"])
RAAG3 = raag_group(["a", "b", "c"], [("a", "b")])
Z2_Z = free_product(Z2, free_group(["c"]))


def cosets_by_membership(ball, sub):
    """(representative, vertices, truncated) of each coset in the ball: each
    vertex, in id order, joins the first coset whose representative it
    differs from by an element of ``sub``, or starts a coset of its own."""
    model = ball.model
    found = {}
    for v, w in enumerate(ball.words):
        rep = next((r for r in found if subgroup_membership(
            model, sub, model.multiply(inverse_word(r), w))), w)
        found.setdefault(rep, []).append(v)
    steps = sub.generator_words_with_inverses()
    return [(rep, tuple(vs), any(reduce(model.step, g, ball.words[v])
                                 not in ball.index for v in vs for g in steps))
            for rep, vs in found.items()]


@pytest.mark.parametrize("model, radius, gens", [
    (F3, 3, ["a", "b"]), (F3, 3, ["a'", "c"]), (Z3, 4, ["a", "b"]),
    (RAAG3, 4, ["a", "b"]), (RAAG3, 4, ["b", "c"]), (Z2_Z, 4, ["a", "c"]),
    (Z2_Z, 4, ["a", "b"])],
    ids=["F3-a+b", "F3-a'+c", "Z3-a+b", "RAAG-a+b", "RAAG-b+c", "Z2*Z-a+c",
         "Z2*Z-a+b"])
def test_special_subgroup_cosets_are_its_walk_classes(model, radius, gens):
    """A special subgroup (every generator a single letter) has each coset
    walk-connected inside the ball, so ``enumerate_cosets`` merges nothing
    and gives the membership partition."""
    ball = cayley_ball(model, radius)
    sub = SubgroupSpec(model, gens)
    got = [(c.representative, c.vertices, c.truncated)
           for c in enumerate_cosets(ball, sub)]
    assert got == cosets_by_membership(ball, sub)


def test_special_subgroup_cosets_are_not_capped():
    # 7813 walk classes, over POSTMERGE_CAP = 2000, which only a merge
    # pass reads
    ball = cayley_ball(F3, 6)
    assert len(enumerate_cosets(ball, SubgroupSpec(F3, ["a", "b"]))) == 7813
