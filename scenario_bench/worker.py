"""One benchmark round in a process of its own.

    python3 worker.py --scenario CFG --seed N --out DIR --result FILE
                      [--setup-only] [--trace]

The hhskit sources must come first on PYTHONPATH (``run.py`` sets that).
Writes one JSON object to FILE:

- ``setup_done``: the monotonic clock (shared by all processes on Linux)
  once ``import hhskit.cli`` and ``load_scenario`` have finished; the
  parent subtracts the time it started this process;
- ``wall_s``: from calling ``run_scenario`` until the bundle is written;
- ``cpu_s``: user plus system CPU time of this process over that call;
- ``peak_rss_mb``: peak resident memory of this process;
- ``trace``: the span table and per-layer metrics, with ``--trace``;
- ``error``: the exception, if ``run_scenario`` raised.
"""

import argparse
import json
import resource
import time
import traceback


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import hhskit.cli as cli
    cli.load_scenario(args.scenario)
    result = {"setup_done": time.perf_counter(), "hhskit": cli.__file__}

    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        cpu0 = _cpu_s()
        start = time.perf_counter()
        try:
            _, result["exit_code"] = cli.run_scenario(
                args.scenario, overrides={"seed": args.seed, "out": args.out})
        except Exception:  # reported as failed operations
            result["error"] = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = _cpu_s() - cpu0
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["trace"] = {"metrics": tracer.metrics(), **tracer.table()}

    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
