"""Program code uses every option and every public name of hhskit, and
the modules of hhskit import each other at the top, in a DAG.

Both guards parse ``src/hhskit`` and count only the code in ``src/``,
``bench/`` and ``scenario_bench/`` as users; what only tests reach stays
only in an allow-list, with its reason, and a stale entry fails.

An optional parameter of a public function passes when some call of that
name passes it, by keyword or position (``**mapping`` passes every
keyword, ``*args`` every position): a default that nothing overrides is a
constant, and belongs in the code.  A public function or class passes
when program code names it by a name, an attribute or a string (tracing
wraps functions named in strings), a public method by an attribute or a
string; a ``def`` or an import does not count.
"""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hhskit"
CALLER_DIRS = ("src", "bench", "scenario_bench")

LOOP = "a loop-reference test reaches a small sampled case with it"
ROUND_TRIP = "the serialization round trip: a bundle read back"

# options that only tests set: how a test reaches a small case, and argv
ALLOWED = {
    "cli.main(argv)": "the command line's arguments; tests pass their own",
    "coneoff.build_coneoff(clique_threshold)":
        "tests reach the apex cone on members of a few vertices",
    "factor_system.verify_factor_system(xi_candidate)":
        "hand-built cycle and segment families set the constants at "
        "which their axiom cases show",
    "factor_system.verify_factor_system(B)":
        "the 16-cycle arcs reach the nested-witness case at B = 3",
    "factor_system.verify_factor_system(axiom5_threshold)":
        "hand-built cycle families set the separation threshold 1",
    "factor_system.build_group_factor_closure(xi_candidate)":
        "xi = 0 makes the closure adjoin a member on a radius-3 ball",
    "hhs_checks.check_consistency(pair_budget)": LOOP,
    "hhs_checks.check_consistency(point_budget)": LOOP,
    "hhs_checks.check_consistency(triple_budget)": LOOP,
    "hhs_checks.check_large_links(E_grid)": LOOP,
    "hhs_checks.check_large_links(pair_budget)": LOOP,
    "hhs_checks.check_bgi(E_grid)": LOOP,
    "hhs_checks.check_bgi(pair_budget)": LOOP,
    "hhs_checks.check_partial_realization(family_budget)": LOOP,
}

# public names that only tests use
PUBLIC_ALLOWED = {
    "cli.load_bundle": ROUND_TRIP,
    "hhs_core.instance_from_bundle": ROUND_TRIP,
    "hhs_core.instances_structurally_equal": ROUND_TRIP,
    "groups.BallGraph.id_of_text": "how tests name ball vertices by word",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _program_trees():
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield _parse(path)


def _public(nodes):
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def optional_parameters():
    """(module, function, parameter, position or None) of every option."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public(_parse(path).body):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                out.append((path.stem, node.name, arg.arg, i))
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    out.append((path.stem, node.name, arg.arg, None))
    return out


def _callee(call):
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def passed_arguments():
    """callee name -> (largest positional count, keywords passed)."""
    seen = {}
    for tree in _program_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            if name is None:
                continue
            npos, kws = seen.setdefault(name, [0, set()])
            if any(isinstance(x, ast.Starred) for x in node.args):
                seen[name][0] = float("inf")
            else:
                seen[name][0] = max(npos, len(node.args))
            for kw in node.keywords:
                kws.add(kw.arg if kw.arg is not None else "**")
    return seen


def unset_options():
    seen = passed_arguments()
    unset = []
    for module, fn, param, pos in optional_parameters():
        npos, kws = seen.get(fn, (0, set()))
        if param in kws or "**" in kws:
            continue
        if pos is not None and npos > pos:
            continue
        unset.append(f"{module}.{fn}({param})")
    return unset


def public_names():
    """(qualified name, is a method) of every public function, class and
    method of a public class in ``src/hhskit``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public(_parse(path).body):
            out.append((f"{path.stem}.{node.name}", False))
            if isinstance(node, ast.ClassDef):
                out += [(f"{path.stem}.{node.name}.{m.name}", True)
                        for m in _public(node.body)
                        if isinstance(m, ast.FunctionDef)]
    return out


def program_references():
    """(names, attributes, strings) that program code mentions."""
    names, attrs, strings = set(), set(), set()
    for tree in _program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                strings.add(node.value)
    return names, attrs, strings


def unused_public_names():
    names, attrs, strings = program_references()
    return [qual for qual, method in public_names()
            if qual.rsplit(".", 1)[1] not in
            (attrs | strings if method else names | attrs | strings)]


def function_imports():
    """(module, line) of every relative import inside a function body."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update((path.stem, sub.lineno) for sub in ast.walk(node)
                             if isinstance(sub, ast.ImportFrom) and sub.level)
    return sorted(found)


def module_imports():
    """module -> the hhskit modules its code imports, wherever."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps = graph.setdefault(path.stem, set())
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = ([node.module] if node.module
                         else [a.name for a in node.names])
                deps.update(set(names) & modules)
    return graph


def _check(found, allowed, what):
    """Every found name is allowed, and every allowed one is found."""
    for names, say in ((set(found) - set(allowed), what),
                       (set(allowed) - set(found), "stale allow-list "
                        "entries (now used by program code, or gone)")):
        assert not names, say + ": " + ", ".join(sorted(names))


def test_every_option_is_set_by_some_call():
    _check(unset_options(), ALLOWED, "options that no program code sets")


def test_every_public_name_is_used_by_program_code():
    _check(unused_public_names(), PUBLIC_ALLOWED,
           "public names that only tests use")


def test_modules_import_at_the_top_in_a_dag():
    """No function imports a module of the package, and the module graph
    has no cycle: graph_core <- coneoff, groups <- factor_system <-
    hhs_checks <- hhs_core <- embedding <- gog <- cli."""
    assert function_imports() == []
    TopologicalSorter(module_imports()).prepare()    # CycleError on a cycle


def test_guard_sees_options_and_calls():
    opts = {(m, f, p) for m, f, p, _ in optional_parameters()}
    assert ("graph_core", "four_point_delta", "budget") in opts
    seen = passed_arguments()
    assert "budget" in seen["four_point_delta"][1]
    # a method, and the string that tracing.py wraps a function by
    assert ("graph_core.DistanceOracle.pairs", True) in public_names()
    assert "four_point_delta" in program_references()[2]
