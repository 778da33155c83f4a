"""Correctness checks on a report bundle, made apart from hhskit.

Nothing here imports hhskit.  Groups are rebuilt from their scenario specs
as free products of free-abelian blocks (free groups, Z^n, and RAAGs whose
commuting graph is a disjoint union of cliques, such as <a,b,c | [a,b]> =
Z^2 * Z), balls are rebuilt with vertex ids in shortlex order, ball sizes
are checked against the free-product growth series, four-point witnesses
are replayed with a plain BFS (or the l1 metric on Z^n), and counts are
compared with independent enumerations.

``check_bundle(cfg, bundle)`` returns ``(applied, failures)``: how many
times each named check ran, and ``(check, message)`` for each failure.
"""

from collections import deque

CHECKS = ("ball_size", "coset_count", "tree_delta_zero", "witness_replay",
          "indices", "separation_witness", "tree_xi_zero",
          "tree_df_violations", "expected_verdict", "export_edges",
          "tree_of_spaces")


class Unsupported(ValueError):
    """A group the independent models do not cover."""


# ---------------------------------------------------------------------------
# groups: free products of free-abelian blocks

class BlockGroup:
    """Elements are tuples of syllables (block, exponent vector)."""

    def __init__(self, gens, blocks):
        self.gens = tuple(gens)
        self.blocks = [tuple(b) for b in blocks]
        self.where = {}
        for bi, block in enumerate(self.blocks):
            for pos, g in enumerate(block):
                self.where[self.gens.index(g) + 1] = (bi, pos)

    def is_free(self):
        return all(len(b) == 1 for b in self.blocks)

    def is_abelian(self):
        return len(self.blocks) == 1

    def mul(self, key, letter):
        """key * generator^(+-1), letters being +-(1-based index)."""
        bi, pos = self.where[abs(letter)]
        step = 1 if letter > 0 else -1
        syl = list(key)
        if syl and syl[-1][0] == bi:
            vec = list(syl[-1][1])
            vec[pos] += step
            if any(vec):
                syl[-1] = (bi, tuple(vec))
            else:
                syl.pop()
        else:
            vec = [0] * len(self.blocks[bi])
            vec[pos] = step
            syl.append((bi, tuple(vec)))
        return tuple(syl)

    def length(self, key):
        return sum(abs(x) for _, vec in key for x in vec)

    def format(self, word):
        if not word:
            return "e"
        return " ".join(self.gens[abs(x) - 1] + ("'" if x < 0 else "")
                        for x in word)


def group_from_spec(spec):
    kind, gens = spec["kind"], list(spec.get("generators", []))
    if kind == "free":
        return BlockGroup(gens, [[g] for g in gens])
    if kind == "free_abelian":
        return BlockGroup(gens, [gens])
    if kind == "raag":
        nbrs = {g: {g} for g in gens}
        for a, b in spec.get("commuting", []):
            nbrs[a].add(b)
            nbrs[b].add(a)
        blocks = []
        for g in gens:
            if not any(g in b for b in blocks):
                block = sorted(nbrs[g], key=gens.index)
                if any(nbrs[h] != nbrs[g] for h in block):
                    raise Unsupported("commuting graph is not a union of cliques")
                blocks.append(block)
        return BlockGroup(gens, blocks)
    raise Unsupported(f"no independent model for group kind {kind!r}")


class Ball:
    """Radius-r ball with vertex ids in shortlex order of normal forms.

    Breadth-first over layers, each layer in id order and letters in the
    order g1 < g1' < g2 < ...: the first word that reaches an element is
    its shortlex-least word, so discovery order is shortlex order.
    """

    def __init__(self, group, radius):
        self.group = group
        letters = [x for i in range(len(group.gens)) for x in (i + 1, -i - 1)]
        self.keys, self.words = [()], [()]
        self.index = {(): 0}
        layer = [0]
        for _ in range(radius):
            nxt = []
            for v in layer:
                for s in letters:
                    k = group.mul(self.keys[v], s)
                    if k not in self.index:
                        self.index[k] = len(self.keys)
                        self.keys.append(k)
                        self.words.append(self.words[v] + (s,))
                        nxt.append(self.index[k])
            layer = nxt
        self.adj = [[self.index[k] for k in (group.mul(key, s) for s in letters)
                     if k in self.index] for key in self.keys]

    @property
    def n(self):
        return len(self.keys)

    def edges(self):
        return {(u, v) for u, nb in enumerate(self.adj) for v in nb if u < v}

    def dist_from(self, src):
        if self.group.is_abelian():
            a = self.keys[src]
            return lambda v: _l1(a, self.keys[v])
        dist = [-1] * self.n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist.__getitem__

    def min_coset_reps(self, letter):
        """Elements g with |g s| > |g| and |g s^-1| > |g|: minimal reps."""
        g = self.group
        return [v for v, k in enumerate(self.keys)
                if g.length(g.mul(k, letter)) > g.length(k)
                and g.length(g.mul(k, -letter)) > g.length(k)]


def _l1(a, b):
    va = a[0][1] if a else None
    vb = b[0][1] if b else None
    zero = (0,) * len(va or vb or ())
    return sum(abs(x - y) for x, y in zip(va or zero, vb or zero))


# ---------------------------------------------------------------------------
# growth series

def _series_inverse(a, r):
    b = [1] + [0] * r
    for n in range(1, r + 1):
        b[n] = -sum(a[k] * b[n - k] for k in range(1, n + 1) if k < len(a))
    return b


def _mul(a, b, r):
    out = [0] * (r + 1)
    for i, x in enumerate(a[:r + 1]):
        for j, y in enumerate(b[:r + 1 - i]):
            out[i + j] += x * y
    return out


def ball_size(group, radius):
    """Ball size from the growth series of a free product of Z^d blocks.

    The growth series of Z^d is ((1+z)/(1-z))^d, and that of a free
    product satisfies 1/f = sum 1/f_i - (number of factors - 1).
    """
    r = radius
    line = [1] + [2] * r                      # (1+z)/(1-z)
    inv_sum = [0] * (r + 1)
    for block in group.blocks:
        f = [1] + [0] * r
        for _ in block:
            f = _mul(f, line, r)
        inv_sum = [x + y for x, y in zip(inv_sum, _series_inverse(f, r))]
    inv_sum[0] -= len(group.blocks) - 1
    return sum(_series_inverse(inv_sum, r))


# ---------------------------------------------------------------------------
# per-operation checks

class _Checker:
    def __init__(self, cfg):
        self.cfg = cfg
        self.groups = {}
        self.balls = {}
        self.applied = {c: 0 for c in CHECKS}
        self.failures = []

    def group(self, name):
        if name not in self.groups:
            self.groups[name] = group_from_spec(self.cfg["groups"][name])
        return self.groups[name]

    def ball(self, name, radius):
        key = (name, radius)
        if key not in self.balls:
            self.balls[key] = Ball(self.group(name), radius)
        return self.balls[key]

    def expect(self, check, ok, message):
        self.applied[check] += 1
        if not ok:
            self.failures.append((check, message))

    def sub_letter(self, sub_name):
        spec = self.cfg["subgroups"][sub_name]
        gens = spec["generators"]
        if len(gens) != 1 or len(gens[0].split()) != 1:
            raise Unsupported("only single-letter subgroups are counted")
        ambient = self.group(spec["ambient"])
        label = gens[0].rstrip("'")
        return ambient.gens.index(label) + 1

    def coset_count(self, group_name, radius, sub_names):
        ball = self.ball(group_name, radius)
        return sum(len(ball.min_coset_reps(self.sub_letter(s)))
                   for s in sub_names)

    def sizes(self, where, group_name, radius, n):
        ball = self.ball(group_name, radius)
        closed = ball_size(self.group(group_name), radius)
        self.expect("ball_size", n == closed == ball.n,
                    f"{where}: {n} vertices, growth series {closed}, "
                    f"independent ball {ball.n}")

    def op_delta(self, where, p, rep):
        g, r = p["group"], p["radius"]
        self.sizes(where, g, r, rep["vertices"])
        delta = rep["delta"]["delta"]
        if self.group(g).is_free():
            self.expect("tree_delta_zero", delta == 0,
                        f"{where}: delta {delta} on a tree")
        self.replay(where, g, r, rep["delta"])

    def replay(self, where, group_name, radius, report):
        if report["witness"] is None:
            return
        ball = self.ball(group_name, radius)
        x, y, z, w = report["witness"]
        dx, dy, dz = (ball.dist_from(v) for v in (x, y, z))
        sums = sorted([dx(y) + dz(w), dx(z) + dy(w), dx(w) + dy(z)])
        gap = (sums[2] - sums[1]) / 2.0
        self.expect("witness_replay", gap == report["delta"],
                    f"{where}: witness {report['witness']} replays to "
                    f"{gap}, report says {report['delta']}")

    def op_coneoff(self, where, p, rep):
        g, r, subs = p["group"], p["radius"], p.get("subgroups", [])
        self.sizes(where, g, r, _pair_root(rep["sample"]["population"]))
        want = self.coset_count(g, r, subs)
        self.expect("coset_count", rep["family_size"] == want,
                    f"{where}: family {rep['family_size']}, counted {want}")
        if self.group(g).is_free():
            self.expect("tree_delta_zero", rep["delta_base"] == 0,
                        f"{where}: base delta {rep['delta_base']} on a tree")

    def op_factor_system(self, where, p, rep):
        g, r, subs = p["group"], p["radius"], p.get("subgroups", [])
        if p.get("closure"):
            return
        want = self.coset_count(g, r, subs)
        self.expect("coset_count", rep["family_size"] == want,
                    f"{where}: family {rep['family_size']}, counted {want}")
        if self.group(g).is_free():
            xi = rep["report"]["axioms"]["projections"]["constant"]
            self.expect("tree_xi_zero", xi == 0, f"{where}: xi {xi} on a tree")

    def op_hhs_check(self, where, p, rep):
        want = 1 + self.coset_count(p["group"], p["radius"],
                                    p.get("subgroups", []))
        self.expect("indices", rep["indices"] == want,
                    f"{where}: {rep['indices']} indices, want {want}")

    def op_distance_formula(self, where, p, rep):
        g, r = p["group"], p["radius"]
        self.sizes(where, g, r, _pair_root(rep["fit"]["sample"]["population"]))
        if self.group(g).is_free():
            v = rep["fit"]["violations"]
            self.expect("tree_df_violations", v == 0,
                        f"{where}: {v} distance-formula violations on a tree")

    def op_hqc(self, where, p, rep):
        if self.group(p["group"]).is_free():
            d = rep["equivalence"]["delta_X"]
            self.expect("tree_delta_zero", d == 0,
                        f"{where}: delta_X {d} on a tree")

    def op_embed(self, where, p, rep):
        parts = ("hyperbolicity", "properness", "qi_embedding", "separation")
        verdict = all(rep[k]["passed"] for k in parts)
        expected = bool(p.get("expect", True))
        ok = rep["passed"] == (verdict == expected)
        if "expect" in p:
            ok = ok and rep.get("expected_verdict") == expected
        self.expect("expected_verdict", ok,
                    f"{where}: parts give verdict {verdict}, expected "
                    f"{expected}, report passed={rep['passed']}")
        g, r, subs = p["group"], p["radius"], p.get("subgroups", [])
        if not expected and self.group(g).is_abelian() and len(subs) == 1:
            # the shortlex-first coset other than the subgroup itself is
            # parallel to it, so it is the first separation witness
            ball = self.ball(g, r)
            reps = ball.min_coset_reps(self.sub_letter(subs[0]))
            want = self.group(g).format(ball.words[reps[1]])
            got = (rep["separation"]["witness"] or {}).get("g")
            self.expect("separation_witness", got == want,
                        f"{where}: separation witness g={got!r}, want {want!r}")

    def op_construct(self, where, p, rep):
        cosets = self.coset_count(p["group"], p["radius"],
                                  p.get("subgroups", []))
        self.expect("coset_count", rep["cosets"] == cosets,
                    f"{where}: {rep['cosets']} cosets, counted {cosets}")
        self.expect("indices", rep["indices"] == 1 + cosets,
                    f"{where}: {rep['indices']} indices, want {1 + cosets}")

    def op_gog(self, where, p, rep):
        tree = rep.get("tree_of_spaces")
        if tree is not None:
            self.expect("tree_of_spaces",
                        tree["connected"] and tree["edges"] == tree["vertices"] - 1,
                        f"{where}: tree of spaces {tree}")

    def op_export(self, where, p, rep):
        if p.get("format", "edge-list") != "edge-list" or p.get("subgroups"):
            return
        g, r = p["group"], p["radius"]
        lines = rep["content"].splitlines()
        n = int(lines[0].split()[-1])
        edges = {tuple(sorted(map(int, ln.split()))) for ln in lines[1:]}
        self.sizes(where, g, r, n)
        self.expect("export_edges", edges == self.ball(g, r).edges(),
                    f"{where}: exported edges differ from the independent ball")


def _pair_root(population):
    """n with n*(n-1)/2 == population."""
    n = int((1 + (1 + 8 * population) ** 0.5) / 2)
    while n * (n - 1) // 2 < population:
        n += 1
    return n


def check_bundle(cfg, bundle):
    """Run every applicable check on one bundle of the scenario ``cfg``."""
    checker = _Checker(cfg)
    for i, entry in enumerate(bundle["results"]):
        handler = getattr(checker, "op_" + entry["op"].replace("-", "_"), None)
        if handler is not None:
            handler(f"operations[{i}] {entry['op']}", entry["params"],
                    entry["report"])
    return checker.applied, checker.failures
