"""Run every workload, untraced and traced, and print one table.

    python3 scenario_bench/report.py [--seed N]

For each workload this runs ``run.py`` with ``--trace 0`` (end-to-end
metrics) and then ``--trace 1`` (per-layer metrics), prints every
end-to-end metric by name with its unit plus the attempted and failed
operation counts, and the largest per-layer self times.  The results of
each run are in ``scenario_bench/out/results/<workload>.{e2e,trace}.json``.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    for wl in (w["name"] for w in bench["workloads"]):
        res = _run(wl, args.seed, bench["run_seconds"], 0)
        print(f"{wl}: attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']}")
        for name, m in res["metrics"].items():
            print(f"  {name:<12} {m['value']:10.4f} {m['unit']}")
        traced = _run(wl, args.seed, bench["run_seconds"], 1)["metrics"]
        top = sorted((m["value"], name) for name, m in traced.items()
                     if m["unit"] == "s" and not name.startswith("trace."))
        print(f"  traced wall_s {traced['trace.wall_s']['value']:.4f} s, "
              f"overhead {traced['trace.overhead_s']['value']:.4f} s; "
              f"largest self times:")
        for value, name in top[::-1][:6]:
            print(f"    {name:<44} {value:10.4f} s")


if __name__ == "__main__":
    main()
