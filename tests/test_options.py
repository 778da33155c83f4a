"""Every optional parameter of a public hhskit function is set somewhere.

The guard parses ``src/hhskit`` and every call in ``src/``, ``tests/``,
``bench/`` and ``scenario_bench/``.  An optional parameter of a
module-level public function passes when some call of that name passes
it, by keyword or by position.  A call with a ``**mapping`` argument
counts as passing every keyword, and one with ``*args`` every position.
A default that nothing overrides is a constant, and belongs in the code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hhskit"
CALLER_DIRS = ("src", "tests", "bench", "scenario_bench")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def optional_parameters():
    """(module, function, parameter, position or None) of every option."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if (not isinstance(node, ast.FunctionDef)
                    or node.name.startswith("_")):
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
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(_parse(path)):
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


def test_every_option_is_set_by_some_call():
    unset = unset_options()
    assert not unset, ("optional parameters that no call sets: "
                       + ", ".join(unset))


def test_guard_sees_options_and_calls():
    opts = {(m, f, p) for m, f, p, _ in optional_parameters()}
    assert ("graph_core", "four_point_delta", "budget") in opts
    seen = passed_arguments()
    assert "budget" in seen["four_point_delta"][1]
