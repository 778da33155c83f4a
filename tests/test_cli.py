"""Scenario driver: configs, bundles, determinism, exports."""

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import hhskit
from hhskit import cli
from hhskit import groups as G
from hhskit.cli import (load_bundle, load_scenario, main, run_scenario,
                        stable_json)
from hhskit.errors import ConfigError
from hhskit.factor_system import family_from_cosets
from hhskit.groups import SubgroupSpec
from hhskit.hhs_core import (build_hhs_from_factor_system, instance_from_bundle,
                             instance_to_bundle, instances_structurally_equal)

SCENARIOS = Path(hhskit.__file__).parent / "scenarios"


def small_config(tmp_path, **extra):
    cfg = {
        "name": "mini",
        "seed": 3,
        "out": str(tmp_path / "out"),
        "groups": {"F": {"kind": "free", "generators": ["a", "b"]}},
        "subgroups": {"A": {"ambient": "F", "generators": ["a"]},
                      "B": {"ambient": "F", "generators": ["b"]}},
        "operations": [
            {"op": "delta", "group": "F", "radius": 3, "budget": 2000},
            {"op": "export", "group": "F", "radius": 2, "format": "edge-list"},
        ],
    }
    cfg.update(extra)
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_scenario_writes_bundle(tmp_path):
    path = small_config(tmp_path)
    bundle, code = run_scenario(str(path))
    assert code == 0
    out = tmp_path / "out"
    assert (out / "report.json").exists()
    assert (out / "summary.csv").exists()
    assert (out / "provenance.json").exists()
    assert load_bundle(str(out)) == json.loads(stable_json(bundle))


def test_byte_identical_reruns(tmp_path):
    path = small_config(tmp_path)
    run_scenario(str(path), overrides={"out": str(tmp_path / "o1")})
    run_scenario(str(path), overrides={"out": str(tmp_path / "o2")})
    r1 = (tmp_path / "o1" / "report.json").read_bytes()
    r2 = (tmp_path / "o2" / "report.json").read_bytes()
    assert r1 == r2
    s1 = (tmp_path / "o1" / "summary.csv").read_bytes()
    s2 = (tmp_path / "o2" / "summary.csv").read_bytes()
    assert s1 == s2


def test_bundled_scenarios_run_clean(tmp_path):
    bundle, code = run_scenario(str(SCENARIOS / "tree-factor-system.json"),
                                only="factor-system",
                                overrides={"out": str(tmp_path / "x"),
                                           "radius": 4})
    assert code == 0
    assert bundle["results"][0]["report"]["passed"]


def test_bundled_scenarios_leave_numpy_ma_unimported(tmp_path):
    """Neither bundled scenario needs ``numpy.ma``, whose first import costs
    10-17 ms and 1.7 MB in a fresh process (a plain ``np.unique`` pulls it
    in), so a fresh process that runs both never imports it."""
    script = ("import sys\n"
              "from hhskit.cli import run_scenario\n"
              "for cfg, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
              "    run_scenario(cfg, overrides={'seed': 7, 'out': out})\n"
              "print('numpy.ma' in sys.modules)")
    args = [str(a) for name in ("tree-factor-system", "amalgam-pipeline")
            for a in (SCENARIOS / f"{name}.json", tmp_path / name)]
    src = str(Path(hhskit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False"


def test_unknown_generator_is_config_error(tmp_path):
    cfg = {"groups": {"F": {"kind": "free", "generators": ["a"]}},
           "subgroups": {"H": {"ambient": "F", "generators": ["q"]}},
           "operations": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError) as err:
        load_scenario(str(path))
    assert "subgroups.H" in err.value.field


def test_cli_main_exit_codes(tmp_path, capsys):
    path = small_config(tmp_path)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "m1")]) == 0
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize("op,field", [
    ({"op": "coneoff", "group": "F", "subgroups": ["A"]},
     "operations.coneoff.radius"),
    ({"op": "hhs-check", "radius": 3, "subgroups": ["A", "B"]},
     "operations.hhs-check.group")], ids=["coneoff-radius", "hhs-check-group"])
def test_missing_op_field_is_config_error(tmp_path, capsys, op, field):
    path = small_config(tmp_path, operations=[op])
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "m")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"(at {field})" in err


def test_construct_refuses_a_family_that_is_not_embedded(tmp_path, capsys):
    """The construct op judges the embedding before it builds: <a> in Z^2
    is refused, and the command exits 1 with the verdict's message."""
    path = small_config(
        tmp_path,
        groups={"Z2": {"kind": "free_abelian", "generators": ["a", "b"]}},
        subgroups={"A": {"ambient": "Z2", "generators": ["a"]}},
        operations=[{"op": "construct", "group": "Z2", "radius": 4,
                     "subgroups": ["A"]}])
    assert main(["construct", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: family is not hierarchically hyperbolically embedded\n")


def test_exit_code_two_on_failed_check(tmp_path):
    cfg = {
        "name": "failing",
        "seed": 1,
        "out": str(tmp_path / "out"),
        "groups": {"Z2": {"kind": "free_abelian", "generators": ["a", "b"]}},
        "subgroups": {"A": {"ambient": "Z2", "generators": ["a"]}},
        "operations": [
            {"op": "embed", "group": "Z2", "radius": 4, "subgroups": ["A"]}],
    }
    path = tmp_path / "fail.json"
    path.write_text(json.dumps(cfg))
    bundle, code = run_scenario(str(path))
    assert code == 2
    assert not bundle["results"][0]["report"]["passed"]


def test_expected_failure_flips_to_pass(tmp_path):
    cfg = {
        "name": "negative-fixture",
        "seed": 1,
        "out": str(tmp_path / "out"),
        "groups": {"Z2": {"kind": "free_abelian", "generators": ["a", "b"]}},
        "subgroups": {"A": {"ambient": "Z2", "generators": ["a"]}},
        "operations": [
            {"op": "embed", "group": "Z2", "radius": 4, "subgroups": ["A"],
             "expect": False}],
    }
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(cfg))
    bundle, code = run_scenario(str(path))
    assert code == 0


def test_pipeline_refuses_edge_maps_that_are_no_homomorphism(tmp_path):
    """amalgam-pipeline with the edge group Z^2 = <s, t> sent to free
    letters, s -> a, t -> b and s -> c, t -> d: the commutator of s and t
    goes to a word other than e at both ends, so the gog op refuses the
    graph of groups before anything else, says why, and fails."""
    cfg = json.loads((SCENARIOS / "amalgam-pipeline.json").read_text())
    cfg["out"] = str(tmp_path / "out")
    cfg["groups"]["Z2"] = {"kind": "free_abelian", "generators": ["s", "t"]}
    cfg["operations"] = [op for op in cfg["operations"] if op["op"] == "gog"]
    move, = cfg["operations"][0]["graph"]["moves"]
    move["connections"][0].update(
        group="Z2", maps={"W": {"s": "c", "t": "d"}, "Q": {"s": "a", "t": "b"}})
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(cfg))
    bundle, code = run_scenario(str(path))
    report = bundle["results"][0]["report"]
    assert code == 2 and not report["passed"]
    assert report["refused"] == "edge-map check failed"
    assert "obtainable" not in report
    assert report["edge_maps"]["e"] == {
        v: {"homomorphism": False, "injective_on_ball": True, "radius": 4}
        for v in ("W", "Q")}


def test_export_edge_list_counts(tmp_path):
    path = small_config(tmp_path)
    bundle, code = run_scenario(str(path), only="export")
    rep = bundle["results"][0]["report"]
    assert rep["vertices"] == 17 and rep["edges"] == 16
    assert rep["content"].count("\n") >= 16


def test_export_dot_styles_cone_edges(tmp_path):
    cfg_path = small_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["operations"] = [{"op": "export", "group": "F", "radius": 3,
                          "format": "dot", "subgroups": ["A", "B"]}]
    cfg_path.write_text(json.dumps(cfg))
    bundle, code = run_scenario(str(cfg_path))
    content = bundle["results"][0]["report"]["content"]
    assert "dashed" in content


def test_stability_flag_diffs(tmp_path):
    path = small_config(tmp_path)
    bundle, code = run_scenario(str(path), only="delta", stability=True)
    entry = bundle["results"][0]
    assert entry["stability"]["radius_pair"] == [3, 5]
    assert "diff" in entry["stability"]


BALL_OPS = [
    {"op": "delta", "group": "F", "radius": 3, "budget": 2000},
    {"op": "delta", "group": "F", "radius": 4, "budget": 2000},
    {"op": "coneoff", "group": "F", "radius": 3, "subgroups": ["A"],
     "pair_budget": 200},
]
# the factor instance cached by hhs-check holds its ball
INSTANCE_OPS = [
    {"op": "hhs-check", "group": "F", "radius": 2, "subgroups": ["A"]},
    {"op": "delta", "group": "F", "radius": 3, "budget": 2000},
]


@pytest.mark.parametrize("ops, only, stability, builds, alive", [
    # alive: the radii of the built balls still alive as each op starts
    (BALL_OPS, None, False, [3, 4], [[], [3], [3]]),
    (BALL_OPS, None, True, [3, 5, 4, 6],
     [[], [3], [3, 5], [3, 4, 5], [3, 5], [3, 5]]),
    (BALL_OPS, "delta", False, [3, 4], [[], []]),
    (BALL_OPS, "delta", True, [3, 5, 4, 6], [[], [3], [], [4]]),
    (INSTANCE_OPS, None, False, [2, 3], [[], []]),
])
def test_each_ball_built_once_and_dropped_after_its_last_use(
        tmp_path, monkeypatch, ops, only, stability, builds, alive):
    built, seen = [], []

    def counted(model, radius):
        ball = G.cayley_ball(model, radius)
        built.append((radius, weakref.ref(ball), weakref.ref(ball.graph)))
        return ball

    def watched(handler):
        def run(scn, op, seed):
            seen.append(sorted(r for r, ball, graph in built
                               if ball() is not None or graph() is not None))
            return handler(scn, op, seed)
        return run

    monkeypatch.setattr(cli, "cayley_ball", counted)
    for kind in {op["op"] for op in ops}:
        monkeypatch.setitem(cli.OP_HANDLERS, kind,
                            watched(cli.OP_HANDLERS[kind]))
    path = small_config(tmp_path, operations=ops)
    bundle, code = run_scenario(str(path), only=only, stability=stability,
                                overrides={"out": str(tmp_path / "all")})
    assert code == 0
    assert [r for r, _, _ in built] == builds
    assert seen == alive

    ran = [op for op in ops if only in (None, op["op"])]
    assert len(bundle["results"]) == len(ran)
    for k, op in enumerate(ran):
        alone = small_config(tmp_path, operations=[op])
        single, _ = run_scenario(str(alone), stability=stability,
                                 overrides={"out": str(tmp_path / f"{k}")})
        assert single["results"] == [bundle["results"][k]]


def test_env_budget_override(tmp_path, monkeypatch):
    path = small_config(tmp_path)
    monkeypatch.setenv("HHSKIT_BUDGET", "500")
    code = main(["delta", "--config", str(path),
                 "--out", str(tmp_path / "envout")])
    assert code == 0
    report = json.loads((tmp_path / "envout" / "report.json").read_text())
    assert report["results"][0]["params"]["pair_budget"] == 500

    # the override also replaces a pair budget the op sets itself
    path = small_config(tmp_path, operations=[
        {"op": "factor-system", "group": "F", "radius": 2,
         "subgroups": ["A"], "pair_budget": 10}])
    code = main(["factor-system", "--config", str(path),
                 "--out", str(tmp_path / "envout2")])
    assert code == 0
    report = json.loads((tmp_path / "envout2" / "report.json").read_text())
    result = report["results"][0]
    assert result["params"]["pair_budget"] == 500
    sample = result["report"]["report"]["axioms"]["projections"]["sample"]
    assert sample["mode"] == "exhaustive"


def test_instance_bundle_round_trip():
    F = G.free_group(["a", "b"])
    subs = [SubgroupSpec(F, ["a"], label="A")]
    inst = build_hhs_from_factor_system(
        family_from_cosets(G.cayley_ball(F, 3), subs))
    bundle = instance_to_bundle(inst)
    text = stable_json(bundle)
    again = instance_from_bundle(json.loads(text))
    assert instances_structurally_equal(inst, again)


def test_augmented_bundle_round_trip():
    from hhskit.embedding import build_augmented_structure
    from hhskit.hhs_core import instance_from_ball
    F = G.free_group(["a", "b"])
    base = instance_from_ball(G.cayley_ball(F, 3))
    line = instance_from_ball(G.cayley_ball(G.free_group(["a"]), 3))
    aug = build_augmented_structure(base,
                                    [(SubgroupSpec(F, ["a"], label="A"), line)])
    bundle = instance_to_bundle(aug.result)
    again = instance_from_bundle(json.loads(stable_json(bundle)))
    assert instances_structurally_equal(aug.result, again)
