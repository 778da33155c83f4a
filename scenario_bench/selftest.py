"""Self-test of the benchmark's checks and tracing.

    python3 scenario_bench/selftest.py

1. The growth series agrees with the closed forms (F2: 2*3^r - 1, Z^2:
   2r^2 + 2r + 1) and with the independently built balls.
2. Every workload runs once on each of seeds 1 and 2; its bundle passes every check, and
   each check fails on a copy of the bundle perturbed for it.
3. A traced round of ``amalgam-pipeline`` reports every per-layer metric,
   and its self times add up to its traced wall time.
4. BENCHMARK.json names the workloads and metrics the code produces.

Exits 1 on the first failed expectation.
"""

import copy
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, scenario_config  # noqa: E402

SEEDS = (1, 2)


def _set(path, value):
    """A perturbation setting report[path...] to value(old)."""
    def perturb(rep):
        node = rep
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]])
    return perturb


def _drop_last_edge(rep):
    rep["content"] = "\n".join(rep["content"].splitlines()[:-1]) + "\n"


def _free_group_op(cfg, entry):
    return cfg["groups"][entry["params"]["group"]]["kind"] == "free"


# check -> (op kinds it may perturb, extra entry filter, perturbation)
PERTURB = {
    "ball_size": (("delta", "export"), None,
                  _set(["vertices"], lambda n: n + 1)),
    "coset_count": (("factor-system", "coneoff"), None,
                    _set(["family_size"], lambda n: n + 1)),
    "tree_delta_zero": (("delta",), _free_group_op,
                        _set(["delta", "delta"], lambda d: d + 0.5)),
    "witness_replay": (("delta",), None,
                       _set(["delta", "delta"], lambda d: d + 1.0)),
    "indices": (("hhs-check", "construct"), None,
                _set(["indices"], lambda n: n + 1)),
    "separation_witness": (("embed",), None,
                           _set(["separation", "witness"],
                                lambda w: dict(w or {}, g="a"))),
    "tree_xi_zero": (("factor-system",), _free_group_op,
                     _set(["report", "axioms", "projections", "constant"],
                          lambda x: x + 1)),
    "tree_df_violations": (("distance-formula",), _free_group_op,
                           _set(["fit", "violations"], lambda v: v + 1)),
    "expected_verdict": (("embed",), None, _set(["passed"], lambda p: not p)),
    "export_edges": (("export",), None, _drop_last_edge),
    "tree_of_spaces": (("gog",), None,
                       _set(["tree_of_spaces", "edges"], lambda e: e + 1)),
}


def expect(ok, message):
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def check_series():
    free = checks.group_from_spec({"kind": "free", "generators": ["a", "b"]})
    z2 = checks.group_from_spec({"kind": "free_abelian",
                                 "generators": ["a", "b"]})
    raag = checks.group_from_spec({"kind": "raag",
                                   "generators": ["a", "b", "c"],
                                   "commuting": [["a", "b"]]})
    for r in range(9):
        expect(checks.ball_size(free, r) == 2 * 3 ** r - 1
               == checks.Ball(free, r).n, f"F2 ball size at r={r}")
        expect(checks.ball_size(z2, r) == 2 * r * r + 2 * r + 1
               == checks.Ball(z2, r).n, f"Z^2 ball size at r={r}")
    for r in range(7):
        expect(checks.ball_size(raag, r) == checks.Ball(raag, r).n,
               f"Z^2*Z ball size at r={r}")


def check_workload(workload, seed, tmp, covered):
    cfg = scenario_config(run.ROOT, workload)
    scenario = os.path.join(tmp, f"{workload}.json")
    with open(scenario, "w") as fh:
        json.dump(cfg, fh)
    tag = f"{workload}-{seed}"
    result = run._worker(tmp, scenario, seed, tag)
    expect("error" not in result, f"{tag} ran {result.get('error', '')}")
    with open(os.path.join(tmp, tag, "report.json")) as fh:
        bundle = json.load(fh)
    expect(all(r["report"].get("passed") is True for r in bundle["results"]),
           f"{tag}: every operation passed")
    applied, failures = checks.check_bundle(cfg, bundle)
    expect(not failures, f"{tag}: checks hold {failures}")
    for check, (kinds, keep, perturb) in PERTURB.items():
        hits = [i for i, e in enumerate(bundle["results"])
                if e["op"] in kinds and (keep is None or keep(cfg, e))]
        if not applied[check] or not hits:
            continue
        bad = copy.deepcopy(bundle)
        perturb(bad["results"][hits[0]]["report"])
        _, failures = checks.check_bundle(cfg, bad)
        expect(check in {c for c, _ in failures},
               f"{tag}: {check} fails on a perturbed "
               f"{bundle['results'][hits[0]]['op']} report")
        covered.add(check)


def check_trace(tmp):
    cfg = scenario_config(run.ROOT, "amalgam-pipeline")
    scenario = os.path.join(tmp, "traced.json")
    with open(scenario, "w") as fh:
        json.dump(cfg, fh)
    result = run._worker(tmp, scenario, 1, "traced", trace=True)
    trace = result["trace"]
    names = {n for n, _, _ in tracing.PER_LAYER if not n.startswith("trace.")}
    expect(names == set(trace["metrics"]), "traced run reports every metric")
    gap = result["wall_s"] - trace["self_sum_s"]
    expect(0 <= gap < 1e-3, f"self times sum to traced wall_s (gap {gap:.2e} s)")
    layer_s = sum(v for n, v in trace["metrics"].items() if n.endswith(".s"))
    expect(abs(layer_s - trace["self_sum_s"]) < 1e-9,
           "the per-layer .s metrics are all the self time there is")


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads")
    expect([(m["name"], m["unit"]) for m in bench["end_to_end"]]
           == list(run.END_TO_END), "BENCHMARK.json end_to_end metrics")
    expect([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
           == list(tracing.PER_LAYER), "BENCHMARK.json per_layer metrics")


def main():
    check_benchmark_json()
    check_series()
    os.makedirs(run.OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        covered = set()
        for seed in SEEDS:
            for workload in WORKLOADS:
                check_workload(workload, seed, tmp, covered)
        expect(covered == set(checks.CHECKS),
               f"every check was shown to fail (missing "
               f"{sorted(set(checks.CHECKS) - covered)})")
        check_trace(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
