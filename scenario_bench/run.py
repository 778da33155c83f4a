"""Scenario benchmark for hhskit: one workload, one run.

    python3 scenario_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Each round runs the workload's scenario through ``hhskit.cli.run_scenario``
in a fresh process (one process, one thread of numerics) with ``seed``
passed as the override, writing the bundle to a temporary directory under
``scenario_bench/out``.  Rounds repeat while another one is expected to
end within S seconds; there is always at least one.  Every bundle goes
through the independent checks of ``checks.py``, outside the timed region.

With ``--trace 0`` the end-to-end metrics are medians over the rounds:
``wall_s``, ``cpu_s``, ``peak_rss_mb``, and ``setup_s`` (interpreter start
to ``load_scenario`` done) over the rounds and the two set-up-only
processes started before each round.
With ``--trace 1`` traced and untraced rounds alternate; the per-layer
metrics come from the traced round of median wall time, and
``trace.overhead_s`` is the median traced minus the median untraced wall.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the same object, with the full
span table of the traced run, goes to ``scenario_bench/out/results``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, scenario_config  # noqa: E402

OUT = os.path.join(HERE, "out")
SETUP_ONLY_PER_ROUND = 2
ROUND_TIMEOUT_S = 170

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(tmp, scenario, seed, tag, setup_only=False, trace=False):
    """Run one worker process; returns its result with ``setup_s`` added."""
    result_path = os.path.join(tmp, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--scenario", scenario, "--seed", str(seed),
           "--out", os.path.join(tmp, tag), "--result", result_path]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise RuntimeError(f"worker {tag} exited with {proc.returncode}")
    with open(result_path) as fh:
        result = json.load(fh)
    expected_src = os.path.join(ROOT, "src", "hhskit")
    if os.path.dirname(os.path.abspath(result["hhskit"])) != expected_src:
        raise RuntimeError(f"hhskit imported from {result['hhskit']}, "
                           f"not from {expected_src}")
    result["setup_s"] = result["setup_done"] - start
    return result


def _judge(cfg, tmp, tag, result):
    """(attempted, failed, check failures) of one round."""
    ops = len(cfg["operations"])
    report = os.path.join(tmp, tag, "report.json")
    if "error" in result or not os.path.exists(report):
        return ops, ops, []
    with open(report) as fh:
        bundle = json.load(fh)
    failed = sum(1 for r in bundle["results"]
                 if r["report"].get("passed") is not True)
    _, failures = checks.check_bundle(cfg, bundle)
    return ops, failed, failures


def run(workload, seed, seconds, trace):
    cfg = scenario_config(ROOT, workload)
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        scenario = os.path.join(tmp, "scenario.json")
        with open(scenario, "w") as fh:
            json.dump(cfg, fh)

        setups = []
        rounds = []
        attempted = failed = 0
        failures = []
        start = time.perf_counter()
        while True:
            traced = bool(trace) and len(rounds) % 2 == 1
            tag = f"round{len(rounds)}"
            setups.extend(
                _worker(tmp, scenario, seed, f"{tag}-setup{i}",
                        setup_only=True)["setup_s"]
                for i in range(SETUP_ONLY_PER_ROUND))
            result = _worker(tmp, scenario, seed, tag, trace=traced)
            result["traced"] = traced
            rounds.append(result)
            a, f, bad = _judge(cfg, tmp, tag, result)
            attempted, failed = attempted + a, failed + f
            failures.extend(f"{tag} {c}: {m}" for c, m in bad)
            shutil.rmtree(os.path.join(tmp, tag), ignore_errors=True)
            elapsed = time.perf_counter() - start
            if trace and len(rounds) < 2:
                continue
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    out = {"workload": workload, "seed": seed, "rounds": len(rounds),
           "check_failures": failures,
           "errors": [r["error"] for r in rounds if "error" in r]}
    if trace:
        traced = sorted((r for r in rounds if r["traced"]),
                        key=lambda r: r["wall_s"])
        pick = traced[(len(traced) - 1) // 2]
        values = dict(pick["trace"]["metrics"])
        values["trace.wall_s"] = pick["wall_s"]
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
        out["trace"] = {k: pick["trace"][k]
                        for k in ("spans", "counts", "self_sum_s")}
    else:
        values = {k: statistics.median(r[k] for r in plain)
                  for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(
            setups + [r["setup_s"] for r in rounds])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    summary = {"correct": not failures, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    out.update(summary)
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    kind = "trace" if trace else "e2e"
    with open(os.path.join(results, f"{workload}.{kind}.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return out, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hhskit", "cli.py")):
        print(f"no hhskit sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    out, summary = run(args.workload, args.seed, args.seconds, args.trace)
    for message in out["check_failures"] + out["errors"]:
        print(message, file=sys.stderr)
    print(f"{args.workload} seed={args.seed} rounds={out['rounds']} "
          f"attempted={summary['attempted']} failed={summary['failed']} "
          f"correct={summary['correct']}")
    for name, m in summary["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
