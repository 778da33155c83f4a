"""Run a layer bench at two commits and write one BENCH_*.json file.

    python bench/run_bench.py PARENT CHANGE bench/bench_hhs_core.py BENCH_6.json [KEYWORDS]

Run from the repository root.  KEYWORDS, if given, goes to pytest's
``-k`` and keeps only the cases it selects.  Each side runs its own
commit's copy of the bench file against its own commit's ``src``, both
exported with ``git archive`` into a temporary directory, on the same
machine, so a bench file that follows a changed signature is timed at
both commits.  Each side runs twice, in the order parent, change, change,
parent, so host drift during the session falls on both sides alike.  Every run records
its commit's full SHA, the pytest-benchmark statistics of every case
(seconds), and per case the peak RSS of fresh processes that each run the
case once (``--benchmark-disable``), read from ``os.wait4``: it covers the
interpreter, pytest, the case's set-up and the timed call.  A single
reading is bimodal on the larger cases (421 or 444 MB for the same r=7
case on the same tree), so each case runs in RSS_RUNS processes;
``peak_rss_mb`` is their median and ``peak_rss_mb_runs`` keeps every
reading.  Each side's entry in the output is the list of its two runs, in
the order they ran.
"""

import datetime
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile

STATS = ("min", "median", "mean", "max", "iqr", "stddev")
RSS_RUNS = 3
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
          "--rootdir", "."]


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "cores": os.cpu_count(),
            "python": platform.python_version(), "system": platform.system()}


def peak_rss_mb(nodeid, env, cwd):
    """Peak RSS of a fresh process that runs one case once."""
    proc = subprocess.Popen(PYTEST + [nodeid, "--benchmark-disable"], env=env,
                            cwd=cwd, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError(f"{nodeid} failed")
    return round(usage.ru_maxrss / 1024, 1)


def rss_readings(nodeid, env, cwd):
    """The median and every reading of RSS_RUNS ``peak_rss_mb`` processes,
    run one after another."""
    runs = [peak_rss_mb(nodeid, env, cwd) for _ in range(RSS_RUNS)]
    return {"peak_rss_mb": statistics.median(runs), "peak_rss_mb_runs": runs}


def run_side(rev, bench, select):
    sha = subprocess.check_output(["git", "rev-parse", rev], text=True).strip()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", sha, "src", bench],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
        out = os.path.join(tmp, "bench.json")
        subprocess.run(PYTEST + [bench, "--benchmark-json", out] + select,
                       env=env, cwd=tmp, check=True)
        with open(out) as f:
            data = json.load(f)
        cases = {}
        for case in data["benchmarks"]:
            stats = case["stats"]
            cases[case["name"]] = dict(
                rounds=stats["rounds"], **{k: stats[k] for k in STATS},
                **rss_readings(case["fullname"], env, tmp))
    return {"commit": sha, "machine": machine(),
            "datetime": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(), "benchmarks": cases}


def main():
    parent, change, bench, out = sys.argv[1:5]
    select = ["-k", sys.argv[5]] if len(sys.argv) > 5 else []
    runs = {"parent": [], "change": []}
    for side, rev in (("parent", parent), ("change", change),
                      ("change", change), ("parent", parent)):
        runs[side].append(run_side(rev, bench, select))
    result = {"command": "python bench/run_bench.py "
                         + shlex.join(sys.argv[1:6]),
              "unit": "s",
              "note": "each side runs its own commit's bench file, twice "
                      "each, in the order parent, change, change, parent; "
                      "each side lists its runs in that order; peak_rss_mb "
                      f"is the median of {RSS_RUNS} fresh processes per "
                      "case, peak_rss_mb_runs every reading",
              **runs}
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
