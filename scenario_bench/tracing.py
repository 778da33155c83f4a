"""Spans and counters around hhskit's public functions, from outside it.

Nothing in the package changes.  ``install`` replaces each traced function
in every hhskit module namespace that holds it (the defining module and
every module that imported the name) with a wrapper that times or counts
it.  It is meant for a process of its own: nothing is restored.

Spans nest.  A span's self time is its duration minus the durations of the
spans it called, so the self times of all spans add up to the duration of
the outermost one, ``run_scenario``.  The layers are the modules; a
metric's name is ``<module>.<function>.<quantity>``.
"""

import sys
import time
from functools import wraps

_perf = time.perf_counter

ROOT_SPAN = "cli.run_scenario"

# Functions timed as spans, by module.
SPANS = {
    "groups": ("cayley_ball", "enumerate_cosets", "coset_subgraph"),
    "graph_core": ("bfs_distances", "four_point_delta",
                   "quasiconvexity_constant"),
    "coneoff": ("build_coneoff", "kapovich_rafi_report"),
    "factor_system": ("verify_factor_system", "simple_family_check",
                      "build_group_factor_closure"),
    "hhs_core": ("instance_from_factor_system", "instance_from_ball"),
    "hhs_checks": ("run_axiom_battery", "check_structural",
                   "check_projection_lipschitz", "check_consistency",
                   "check_large_links", "check_bgi",
                   "check_partial_realization", "check_uniqueness",
                   "distance_formula_fit", "hqc_qc_equivalence"),
    "embedding": ("check_hyperbolically_embedded", "check_hh_embedded",
                  "build_augmented_structure", "verify_augmented"),
    "gog": ("run_main_pipeline", "check_combination_hypotheses",
            "build_tree_of_spaces"),
}

# Functions only counted; their time stays with the span that called them.
COUNTED = {
    "groups": ("subgroup_membership",),
    "factor_system": ("family_from_cosets",),
}

OP_KINDS = ("delta", "coneoff", "factor-system", "hhs-check",
            "distance-formula", "hqc", "embed", "construct", "gog", "export")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"cli.op.{k}.s", "s", "lower") for k in OP_KINDS]
    + [("cli.overhead.s", "s", "lower"),
       ("groups.cayley_ball.s", "s", "lower"),
       ("groups.cayley_ball.vertices", "count", "lower"),
       ("groups.enumerate_cosets.s", "s", "lower"),
       ("groups.coset_subgraph.s", "s", "lower"),
       ("groups.subgroup_membership.calls", "count", "lower"),
       ("graph_core.bfs_distances.calls", "count", "lower"),
       ("graph_core.bfs_distances.s", "s", "lower"),
       ("graph_core.oracle.matrix.builds", "count", "lower"),
       ("graph_core.oracle.matrix.s", "s", "lower"),
       ("graph_core.oracle.matrix.bytes", "bytes", "lower"),
       ("graph_core.oracle.pairs.calls", "count", "lower"),
       ("graph_core.oracle.pairs.queries", "count", "lower"),
       ("graph_core.oracle.pairs.s", "s", "lower"),
       ("graph_core.oracle.row.calls", "count", "lower"),
       ("graph_core.four_point_delta.s", "s", "lower"),
       ("graph_core.four_point_delta.quads", "count", "lower"),
       ("graph_core.quasiconvexity_constant.s", "s", "lower"),
       ("coneoff.build_coneoff.s", "s", "lower"),
       ("coneoff.kapovich_rafi_report.s", "s", "lower"),
       ("factor_system.verify_factor_system.s", "s", "lower"),
       ("factor_system.verify_factor_system.calls", "count", "lower"),
       ("factor_system.pairs_scanned", "count", "lower"),
       ("factor_system.pairs_per_s", "1/s", "higher"),
       ("factor_system.simple_family_check.s", "s", "lower"),
       ("factor_system.build_group_factor_closure.s", "s", "lower"),
       ("factor_system.family_from_cosets.calls", "count", "lower"),
       ("hhs_core.instance_from_factor_system.s", "s", "lower"),
       ("hhs_core.instance_from_factor_system.calls", "count", "lower"),
       ("hhs_core.instance_from_ball.s", "s", "lower")]
    + [(f"hhs_checks.{f}.s", "s", "lower") for f in SPANS["hhs_checks"]]
    + [("hhs_checks.run_axiom_battery.calls", "count", "lower")]
    + [(f"embedding.{f}.s", "s", "lower") for f in SPANS["embedding"]]
    + [(f"gog.{f}.s", "s", "lower") for f in SPANS["gog"]]
    + [("trace.wall_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")])


class Tracer:
    """In-memory span table and counters of one process."""

    def __init__(self):
        self.spans = {}      # name -> [calls, total_s, self_s]
        self.counts = {}     # name -> count
        self._open = []      # child time accumulated by each open span

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def span(self, name, fn, before=None, after=None):
        """``fn`` timed as span ``name``.

        ``before(args)`` runs ahead of the call; its value and the result
        go to ``after(state, args, result)``, which records counts.
        """
        open_spans, spans = self._open, self.spans

        @wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            open_spans.append(0.0)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _perf() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dur
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
            if after:
                after(state, args, result)
            return result
        return traced

    def counter(self, name, fn):
        """``fn`` counted under ``name``."""
        @wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return counted

    def self_s(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def metrics(self):
        """Every per-layer metric except the two ``trace.*`` ones."""
        fs = ("factor_system.verify_factor_system",
              "factor_system.simple_family_check")
        scan_s = sum(self.spans.get(n, (0, 0.0))[1] for n in fs)
        pairs = self.counts.get("factor_system.pairs_scanned", 0)
        special = {"cli.overhead.s": self.self_s(ROOT_SPAN),
                   "factor_system.pairs_per_s":
                       pairs / scan_s if scan_s > 0 else 0.0}
        out = {}
        for name, _, _ in PER_LAYER:
            if name.startswith("trace."):
                continue
            if name in special:
                out[name] = special[name]
            elif name.endswith(".s"):
                out[name] = self.self_s(name[:-2])
            elif name.endswith(".calls") and name[:-6] in self.spans:
                out[name] = self.spans[name[:-6]][0]
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def table(self):
        """The full span table and counters, for the trace file."""
        return {"spans": {n: {"calls": c, "total_s": t, "self_s": s}
                          for n, (c, t, s) in sorted(self.spans.items())},
                "counts": dict(sorted(self.counts.items())),
                "self_sum_s": sum(s for _, _, s in self.spans.values())}


def _replace(original, wrapper):
    """Point every hhskit namespace that holds ``original`` at ``wrapper``."""
    for modname, mod in list(sys.modules.items()):
        if modname != "hhskit" and not modname.startswith("hhskit."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer):
    """Wrap hhskit's public functions; import ``hhskit.cli`` first."""
    from hhskit import cli, graph_core

    def vertices(_, args, ball):
        tracer.count("groups.cayley_ball.vertices", ball.graph.n)

    def quads(_, args, report):
        tracer.count("graph_core.four_point_delta.quads", report.sample.drawn)

    def fs_pairs(_, args, report):
        tracer.count("factor_system.pairs_scanned",
                     report.projections.sample.drawn)

    def sf_pairs(_, args, table):
        tracer.count("factor_system.pairs_scanned", table["sample"]["drawn"])

    after = {"cayley_ball": vertices, "four_point_delta": quads,
             "verify_factor_system": fs_pairs, "simple_family_check": sf_pairs}

    for modname, names in SPANS.items():
        mod = sys.modules[f"hhskit.{modname}"]
        for fname in names:
            original = getattr(mod, fname)
            _replace(original, tracer.span(f"{modname}.{fname}", original,
                                           after=after.get(fname)))
    for modname, names in COUNTED.items():
        mod = sys.modules[f"hhskit.{modname}"]
        for fname in names:
            original = getattr(mod, fname)
            _replace(original, tracer.counter(f"{modname}.{fname}.calls",
                                              original))

    oracle = graph_core.DistanceOracle

    def unbuilt(args):
        return args[0]._matrix is None

    def built(was_unbuilt, args, _):
        if was_unbuilt and args[0]._matrix is not None:
            tracer.count("graph_core.oracle.matrix.builds")
            # computed, not measured: n*n int16 entries
            tracer.count("graph_core.oracle.matrix.bytes", args[0].n ** 2 * 2)

    def queries(_, args, __):
        tracer.count("graph_core.oracle.pairs.queries", len(args[1]))

    oracle.matrix = tracer.span("graph_core.oracle.matrix", oracle.matrix,
                                before=unbuilt, after=built)
    oracle.pairs = tracer.span("graph_core.oracle.pairs", oracle.pairs,
                               after=queries)
    oracle.row = tracer.counter("graph_core.oracle.row.calls", oracle.row)

    for kind, handler in list(cli.OP_HANDLERS.items()):
        cli.OP_HANDLERS[kind] = tracer.span(f"cli.op.{kind}", handler)
    cli.run_scenario = tracer.span(ROOT_SPAN, cli.run_scenario)
