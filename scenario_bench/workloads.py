"""The benchmark's workloads: which scenario each one runs.

Every workload is a scenario config run through ``hhskit.cli.run_scenario``.
``tree-factor-system`` and ``amalgam-pipeline`` are the scenarios bundled
with the package; ``flat-scale`` lives next to this file.  The bundled
tree scenario scans 200k member pairs at radius 6 (about 60 of its 70 s on
a 2-core machine); the benchmark caps that op's pair budget so that a run
of every workload fits the time the benchmark is given, and the scan still
dominates the workload.
"""

import json
import os

WORKLOADS = {
    "tree-factor-system": {
        "scenario": "src/hhskit/scenarios/tree-factor-system.json",
        "pair_budget": {"factor-system": 45_000},
    },
    "amalgam-pipeline": {
        "scenario": "src/hhskit/scenarios/amalgam-pipeline.json",
    },
    "flat-scale": {
        "scenario": "scenario_bench/scenarios/flat-scale.json",
    },
}


def scenario_config(root, name):
    """The scenario config a workload runs, as a dict."""
    spec = WORKLOADS[name]
    with open(os.path.join(root, spec["scenario"])) as fh:
        cfg = json.load(fh)
    for op in cfg["operations"]:
        if op["op"] in spec.get("pair_budget", {}):
            op["pair_budget"] = spec["pair_budget"][op["op"]]
    return cfg
