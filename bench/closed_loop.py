"""One closed-loop pass of a workload: a single caller issues one CLI call
at a time, in process, through ``stringdet.cli.main``, and checks each
output before sending the next.

run.py starts this file in a fresh interpreter for every pass, so that the
pass's peak RSS and caches are its own:

    python3 bench/closed_loop.py --workload oracle-mid --seed 1 \\
        --seconds 50 --work DIR --out result.json [--calls K] [--spans FILE]

With ``--seconds`` the pass runs whole rounds over the workload's pool, at
least three, until at least that long has passed since timing started; with
``--calls`` it runs exactly K calls.  ``--spans`` turns on the
per-layer tracer and writes its spans there.  The result file holds every
call's latency and pool algebra, every failure, the peak RSS and, when
traced, the tracer's summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

#: Untimed calls on smaller inputs of the same kind before timing starts.
WARMUP_CALLS = 3
#: Fewest whole rounds over the pool in a timed pass.
MIN_ROUNDS = 3


def one_call(cli_main, case: workloads.Case, path: str) -> tuple[float, str | None]:
    """Write the input, time one CLI call, check its output.  Returns the
    latency in seconds and None, or a failure message."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(case.text)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main([case.command, path, "--format", "json"])
    except Exception as exc:  # a crash is a failed call, not a failed pass
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        workloads.check_output(case, code, out.getvalue())
    except workloads.OutputError as exc:
        detail = err.getvalue().strip().splitlines()[-1:] or [""]
        return elapsed, f"{exc} {detail[0]}".strip()
    return elapsed, None


def run_pass(cli_main, workload: workloads.Workload, seed: int, work_dir: str,
             seconds: float | None = None, calls: int | None = None,
             tracer=None) -> dict:
    """Warm up, then call until ``calls`` calls, or until ``seconds`` have
    passed since timing started and at least MIN_ROUNDS whole rounds over
    the workload's pool are complete, so that every pool algebra is timed
    equally often, and at least MIN_ROUNDS times.  The peak RSS is read
    when the first MIN_ROUNDS rounds are done, so that it covers the same
    work in every run however fast the calls are."""
    path = os.path.join(work_dir, "input.txt")
    warmup_failures = []
    for i in range(WARMUP_CALLS):
        _, failure = one_call(cli_main, workload.warmup(seed, i), path)
        if failure:
            warmup_failures.append([i, failure])
    if tracer is not None:
        tracer.reset()
    latencies: list[float] = []
    keys: list[int] = []
    failures = []
    pool_size = len(workload.pool)
    peak_rss_kib = None
    i = 0
    start = time.perf_counter()
    while (i < calls if calls is not None else
           time.perf_counter() - start < seconds or i % pool_size
           or i < MIN_ROUNDS * pool_size):
        case = workload.case(seed, i)
        if tracer is not None:
            tracer.begin_call()
        elapsed, failure = one_call(cli_main, case, path)
        latencies.append(elapsed)
        keys.append(case.key)
        if failure:
            failures.append([i, failure])
        i += 1
        if i == MIN_ROUNDS * pool_size:
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"latencies": latencies, "keys": keys, "failures": failures,
            "warmup_calls": WARMUP_CALLS, "warmup_failures": warmup_failures,
            "peak_rss_kib": peak_rss_kib}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--calls", type=int)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    if (args.seconds is None) == (args.calls is None):
        ap.error("give exactly one of --seconds and --calls")

    import stringdet.cli
    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    result = run_pass(stringdet.cli.main, workloads.make(args.workload), args.seed,
                      args.work, seconds=args.seconds, calls=args.calls, tracer=tracer)
    result["program"] = os.path.abspath(stringdet.cli.__file__)
    if tracer is not None:
        tracer.uninstall()
        self_ns, root_ns = tracer.self_times_ns()
        result["trace"] = {"counters": dict(tracer.counters), "self_ns": dict(self_ns),
                           "root_ns": root_ns, "max_system_cells": tracer.max_system_cells}
        tracer.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
