"""Batch driver: scenario configs in, report bundles out.

A scenario is a JSON file declaring group fixtures, subgroups, and a list
of operations; each subcommand runs the operations of its kind (the
``run`` subcommand runs them all).  Reports land in the output directory
as report.json, summary.csv and provenance.json, all byte-stable for a
fixed config and seed.  Exit codes: 0 all checks passed, 2 some check
failed, 1 error.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import asdict, is_dataclass

import numpy as np

from . import __version__
from . import groups as groups_mod
from .errors import ConfigError, HHSKitError
from .coneoff import build_coneoff, coneoff_report
from .embedding import (build_augmented_structure,
                        check_hyperbolically_embedded, verify_augmented)
from .factor_system import (build_group_factor_closure, family_from_cosets,
                            simple_family_check, verify_factor_system)
from .gog import (GraphOfGroups, MoveRecord, apply_star_move,
                  build_tree_of_spaces, run_main_pipeline)
from .graph_core import four_point_delta, to_dot, write_edge_list
from .groups import SubgroupSpec, cayley_ball, coset_subgraph, enumerate_cosets
from .hhs_core import (build_hhs_from_factor_system, distance_formula_fit,
                       hqc_qc_equivalence, instance_from_ball,
                       instance_to_bundle, run_axiom_battery)

SUBCOMMANDS = ("delta", "coneoff", "factor-system", "hhs-check",
               "distance-formula", "hqc", "embed", "construct", "gog",
               "export", "run")


# ---------------------------------------------------------------------------
# config

def _require(cfg, key, where):
    if key not in cfg:
        raise ConfigError(f"missing key {key!r}", field=f"{where}.{key}")
    return cfg[key]


def build_group(name, spec, catalog):
    kind = _require(spec, "kind", f"groups.{name}")
    if kind == "free":
        return groups_mod.free_group(_require(spec, "generators", name))
    if kind == "free_abelian":
        return groups_mod.free_abelian_group(_require(spec, "generators", name))
    if kind == "raag":
        return groups_mod.raag_group(_require(spec, "generators", name),
                                     [tuple(p) for p in spec.get("commuting", [])])
    if kind == "free_product":
        factors = [catalog[f] for f in _require(spec, "factors", name)]
        return groups_mod.free_product(*factors)
    raise ConfigError(f"unknown group kind {kind!r}", field=f"groups.{name}.kind")


class Scenario:
    """Parsed scenario config with fixture lookup."""

    def __init__(self, cfg, path="<config>"):
        self.path = path
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        self.name = cfg.get("name", "scenario")
        self.seed = int(cfg.get("seed", 0))
        self.out = cfg.get("out", "reports")
        self.raw = cfg
        self.groups = {}
        for gname, gspec in cfg.get("groups", {}).items():
            try:
                self.groups[gname] = build_group(gname, gspec, self.groups)
            except HHSKitError:
                raise
            except Exception as exc:
                raise ConfigError(str(exc), field=f"groups.{gname}")
        self.subgroups = {}
        for sname, sspec in cfg.get("subgroups", {}).items():
            ambient = _require(sspec, "ambient", f"subgroups.{sname}")
            if ambient not in self.groups:
                raise ConfigError(f"unknown ambient group {ambient!r}",
                                  field=f"subgroups.{sname}.ambient")
            try:
                self.subgroups[sname] = SubgroupSpec(
                    self.groups[ambient],
                    _require(sspec, "generators", sname), label=sname)
            except HHSKitError as exc:
                raise ConfigError(str(exc),
                                  field=f"subgroups.{sname}.generators")
        self.operations = cfg.get("operations", [])
        if not isinstance(self.operations, list):
            raise ConfigError("operations must be a list", field="operations")
        self._balls = {}
        self._factor_instances = {}

    def group(self, name, where):
        if name not in self.groups:
            raise ConfigError(f"unknown group {name!r}", field=where)
        return self.groups[name]

    def subs(self, names, where):
        out = []
        for n in names:
            if n not in self.subgroups:
                raise ConfigError(f"unknown subgroup {n!r}", field=where)
            out.append(self.subgroups[n])
        return out

    def ball(self, group_name, radius, where):
        """The Cayley ball of (group, radius), built on first use and
        cached until ``release`` drops it."""
        key = (group_name, radius)
        if key not in self._balls:
            self._balls[key] = cayley_ball(self.group(group_name, where),
                                           radius)
        return self._balls[key]

    def release(self, keep):
        """Drop every cached ball whose (group, radius) is not in
        ``keep``, with the factor instances built on it."""
        for key in [k for k in self._balls if k not in keep]:
            del self._balls[key]
        for key in [k for k in self._factor_instances if k[:2] not in keep]:
            del self._factor_instances[key]

    def factor_instance(self, op, seed, where):
        """(ball, candidate, report, instance) of an op's coset family.

        The candidate is verified and the instance built once per
        (group, radius, subgroups, seed); later ops reuse them.
        """
        key = (_require(op, "group", where), _require(op, "radius", where),
               tuple(op.get("subgroups", [])), seed)
        if key not in self._factor_instances:
            ball, cand, _ = _coset_family(self, op, where)
            report = verify_factor_system(cand, seed=seed)
            inst = build_hhs_from_factor_system(cand, report=report)
            self._factor_instances[key] = (ball, cand, report, inst)
        return self._factor_instances[key]


def load_scenario(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return Scenario(cfg, path)


# ---------------------------------------------------------------------------
# operations

def _coset_family(scn, op, where):
    ball = scn.ball(_require(op, "group", where),
                    _require(op, "radius", where), where)
    subs = scn.subs(op.get("subgroups", []), where)
    return ball, family_from_cosets(ball, subs), subs


def op_delta(scn, op, seed):
    where = "operations.delta"
    ball = scn.ball(_require(op, "group", where), _require(op, "radius", where),
                    where)
    rep = four_point_delta(ball.graph, budget=op.get("budget", 60_000),
                           seed=seed)
    return {"delta": rep.to_dict(), "vertices": ball.graph.n,
            "passed": True}


def op_coneoff(scn, op, seed):
    where = "operations.coneoff"
    ball, cand, subs = _coset_family(scn, op, where)
    cg = build_coneoff(ball.graph, cand.family)
    rep = coneoff_report(cg, radius=ball.radius,
                         pair_budget=op.get("pair_budget"), seed=seed,
                         tau_pair_budget=op.get("tau_pair_budget", 60))
    rep["passed"] = True
    return rep


def op_factor_system(scn, op, seed):
    where = "operations.factor-system"
    ball, cand, subs = _coset_family(scn, op, where)
    if op.get("closure"):
        cand, info = build_group_factor_closure(
            ball, subs, budget=op.get("closure_budget", 3), seed=seed)
    else:
        info = None
    report = verify_factor_system(cand, seed=seed,
                                  pair_budget=op.get("pair_budget", 200_000))
    sf = simple_family_check(cand, op.get("eps_grid", (0, 1, 2)),
                             pair_budget=op.get("pair_budget", 200_000),
                             seed=seed)
    return {"family_size": len(cand.family), "closure": info,
            "report": report.to_dict(), "simple_family": sf,
            "passed": report.passed}


def op_hhs_check(scn, op, seed):
    where = "operations.hhs-check"
    inst = scn.factor_instance(op, seed, where)[3]
    battery = run_axiom_battery(inst, seed=seed)
    return {"indices": inst.n_indices(),
            "battery": battery.to_dict(),
            "stable_constants": battery.stable_constants(),
            "passed": battery.passed}


def op_distance_formula(scn, op, seed):
    where = "operations.distance-formula"
    inst = scn.factor_instance(op, seed, where)[3]
    fit = distance_formula_fit(inst, s=op.get("s", 3),
                               pair_budget=op.get("pair_budget"), seed=seed)
    return {"fit": fit, "passed": fit["violations"] == 0}


def op_hqc(scn, op, seed):
    where = "operations.hqc"
    ball, _, _, inst = scn.factor_instance(op, seed, where)
    target = scn.subs([_require(op, "target_subgroup", where)], where)[0]
    member = coset_subgraph(ball, enumerate_cosets(ball, target)[0])
    eq = hqc_qc_equivalence(inst, member.vertices,
                            r_grid=tuple(op.get("r_grid", (0, 1, 2, 3))),
                            seed=seed)
    return {"equivalence": eq, "passed": "NotHyperbolicFlag" not in eq["flags"]}


def op_embed(scn, op, seed):
    where = "operations.embed"
    ball = scn.ball(_require(op, "group", where),
                    _require(op, "radius", where), where)
    subs = scn.subs(op.get("subgroups", []), where)
    witness = check_hyperbolically_embedded(ball, subs, seed=seed)
    out = witness.to_dict()
    out["passed"] = witness.passed
    if "expect" in op:
        out["passed"] = (witness.passed == bool(op["expect"]))
        out["expected_verdict"] = bool(op["expect"])
    return out


def op_construct(scn, op, seed):
    where = "operations.construct"
    ball = scn.ball(_require(op, "group", where),
                    _require(op, "radius", where), where)
    base = instance_from_ball(ball)
    pairs = []
    for sname in op.get("subgroups", []):
        sub = scn.subs([sname], where)[0]
        sub_ball = cayley_ball(_sub_model(sub), op["radius"])
        pairs.append((sub, instance_from_ball(sub_ball, label="line")))
    aug = build_augmented_structure(base, pairs, seed=seed)
    ver = verify_augmented(aug, seed=seed,
                           equivariance_samples=op.get("equivariance", 100))
    return {"indices": aug.result.n_indices(),
            "cosets": aug.result.meta["cosets"],
            "verification": {"passed": ver["passed"],
                             "morphisms": ver["morphisms"],
                             "battery": ver["battery"].to_dict()},
            "passed": ver["passed"]}


def _sub_model(sub):
    """A standalone model for the subgroup (single-generator free case)."""
    if len(sub.generators) == 1:
        return groups_mod.free_group(["a"])
    raise ConfigError("construct supports cyclic subgroups only",
                      field="operations.construct.subgroups")


def op_gog(scn, op, seed):
    where = "operations.gog"
    gcfg = _require(op, "graph", where)
    gog = GraphOfGroups()
    for vname, vspec in _require(gcfg, "vertices", where).items():
        gog.add_vertex(vname, scn.group(_require(vspec, "group", where), where))
    for mv in gcfg.get("moves", []):
        move = MoveRecord(
            kind=_require(mv, "kind", where),
            new_vertex=mv.get("new_vertex"),
            new_group=(scn.group(mv["group"], where) if "group" in mv else None),
            connections=[{**c, "group": scn.group(c["group"], where)}
                         for c in mv.get("connections", [])])
        gog = apply_star_move(gog, move, evidence_radius=op.get("radius", 4))
    result, report = run_main_pipeline(
        gog, base_vertices=_require(gcfg, "base_vertices", where),
        radius=_require(op, "radius", where), seed=seed)
    out = {"refused": report["refused"]}
    for key in ("edge_maps", "obtainable"):
        if key in report:
            out[key] = _jsonable(report[key])
    if report["refused"] is None:
        out.update({"step1": report["step1"], "step2": report["step2"],
                    "structural": report["structural"],
                    "combination": report["combination"].to_dict(),
                    "passed": (report["combination"].passed
                               and all(report["structural"].values()))})
    else:
        out["passed"] = bool(op.get("expect_refusal", False))
    if op.get("tree_depth") is not None and report["refused"] is None:
        tree = build_tree_of_spaces(result,
                                    _require(gcfg, "base_vertices", where)[0],
                                    op["tree_depth"],
                                    radius=min(3, op.get("radius", 3)))
        out["tree_of_spaces"] = {"vertices": tree.n,
                                 "edges": len(tree.edges),
                                 "connected": tree.is_connected}
    return out


def op_export(scn, op, seed):
    where = "operations.export"
    fmt = op.get("format", "edge-list")
    radius = _require(op, "radius", where)
    ball = scn.ball(_require(op, "group", where), radius, where)
    if op.get("subgroups"):
        cand = family_from_cosets(ball, scn.subs(op["subgroups"], where))
        cg = build_coneoff(ball.graph, cand.family)
        graph = cg.coned
        styled = list(cg.cone_edge_owner)
    else:
        graph, styled = ball.graph, None
    if fmt == "edge-list":
        text = write_edge_list(graph)
    elif fmt == "dot":
        text = to_dot(graph, styled_edges=styled)
    elif fmt == "instance-bundle":
        inst = scn.factor_instance(op, seed, where)[3]
        text = stable_json(instance_to_bundle(inst))
    else:
        raise ConfigError(f"unknown export format {fmt!r}",
                          field="operations.export.format")
    return {"format": fmt, "content": text, "vertices": graph.n,
            "edges": len(graph.edges), "passed": True}


OP_HANDLERS = {
    "delta": op_delta,
    "coneoff": op_coneoff,
    "factor-system": op_factor_system,
    "hhs-check": op_hhs_check,
    "distance-formula": op_distance_formula,
    "hqc": op_hqc,
    "embed": op_embed,
    "construct": op_construct,
    "gog": op_gog,
    "export": op_export,
}


# ---------------------------------------------------------------------------
# report plumbing

def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        if hasattr(obj, "to_dict"):
            return _jsonable(obj.to_dict())
        return _jsonable(asdict(obj))
    if hasattr(obj, "to_dict"):
        return _jsonable(obj.to_dict())
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def stable_json(tree):
    return json.dumps(_jsonable(tree), sort_keys=True, indent=1,
                      separators=(",", ": ")) + "\n"


def flatten_numeric(tree, prefix=""):
    rows = []
    if isinstance(tree, dict):
        for k in sorted(tree):
            rows.extend(flatten_numeric(tree[k], f"{prefix}{k}."))
    elif isinstance(tree, (list, tuple)):
        for i, v in enumerate(tree[:16]):
            rows.extend(flatten_numeric(v, f"{prefix}{i}."))
    elif isinstance(tree, (int, float, bool)):
        rows.append((prefix[:-1], tree))
    return rows


def _planned_ops(scn, only, overrides):
    """(kind, op) of every op that will run, in order, with the radius
    and budget overrides applied to a copy of the op."""
    plan = []
    for i, op in enumerate(scn.operations):
        kind = _require(op, "op", f"operations[{i}]")
        if kind not in OP_HANDLERS:
            raise ConfigError(f"unknown operation {kind!r}",
                              field=f"operations[{i}].op")
        if only and kind != only:
            continue
        op = dict(op)
        if "radius" in overrides and "radius" in op:
            op["radius"] = int(overrides["radius"])
        if "budget" in overrides:
            op["pair_budget"] = int(overrides["budget"])
        plan.append((kind, op))
    return plan


def run_scenario(path, only=None, overrides=None, stability=False):
    """Execute a scenario; returns (bundle dict, exit code)."""
    overrides = overrides or {}
    scn = load_scenario(path)
    seed = int(overrides.get("seed", scn.seed))
    out_dir = overrides.get("out", scn.out)

    plan = _planned_ops(scn, only, overrides)
    # the last planned op that may ask for each (group, radius) ball
    last_use = {}
    for i, (_, op) in enumerate(plan):
        if "radius" in op:
            last_use[op.get("group"), op["radius"]] = i
            if stability:
                last_use[op.get("group"), op["radius"] + 2] = i

    results = []
    for i, (kind, op) in enumerate(plan):
        entry = {"op": kind, "params": {k: v for k, v in op.items()
                                        if k != "op"}}
        entry["report"] = OP_HANDLERS[kind](scn, op, seed)
        if stability and "radius" in op:
            bumped = dict(op)
            bumped["radius"] = op["radius"] + 2
            second = OP_HANDLERS[kind](scn, bumped, seed)
            entry["stability"] = {
                "radius_pair": [op["radius"], bumped["radius"]],
                "second": second,
                "diff": _stability_diff(entry["report"], second)}
        results.append(entry)
        if i + 1 < len(plan):
            scn.release({key for key, j in last_use.items() if j > i})

    config_hash = hashlib.sha256(
        stable_json(scn.raw).encode()).hexdigest()
    bundle = {"name": scn.name, "results": results,
              "provenance": {"artifact_version": __version__,
                             "seed": seed, "config_sha256": config_hash}}
    all_passed = all(r["report"].get("passed", True) for r in results)
    exit_code = 0 if all_passed else 2

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(stable_json(bundle))
    with open(os.path.join(out_dir, "provenance.json"), "w") as fh:
        fh.write(stable_json(bundle["provenance"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["operation", "key", "value"])
    for r in results:
        for key, value in flatten_numeric(_jsonable(r["report"])):
            if not key.endswith("content"):
                writer.writerow([r["op"], key, value])
    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write(buf.getvalue())
    return bundle, exit_code


def _stability_diff(first, second):
    f = dict(flatten_numeric(_jsonable(first)))
    s = dict(flatten_numeric(_jsonable(second)))
    return {k: {"at_r": f[k], "at_r_plus_2": s[k]}
            for k in sorted(set(f) & set(s)) if f[k] != s[k]}


def load_bundle(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# entry point

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hhskit",
        description="coarse-geometry scenario runner")
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--radius", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--stability", action="store_true",
                        help="run each operation at r and r+2 and diff")
    args = parser.parse_args(argv)

    overrides = {}
    env_budget = os.environ.get("HHSKIT_BUDGET")
    if env_budget:
        overrides["budget"] = int(env_budget)
    for key in ("radius", "seed", "budget", "out"):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val
    only = None if args.command == "run" else args.command
    try:
        bundle, code = run_scenario(args.config, only=only,
                                    overrides=overrides,
                                    stability=args.stability)
    except ConfigError as exc:
        field = f" (at {exc.field})" if exc.field else ""
        print(f"config error: {exc}{field}", file=sys.stderr)
        return 1
    except HHSKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in bundle["results"]:
        status = "pass" if r["report"].get("passed", True) else "FAIL"
        print(f"{r['op']}: {status}")
    return code


if __name__ == "__main__":
    sys.exit(main())
