"""stringdet benchmark: end-to-end and per-layer metrics on two workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload oracle-mid --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a per-run summary
goes to standard error.  ``--trace 0`` prints the end-to-end metrics, timed
with tracing off; ``--trace 1`` prints the per-layer metrics of a traced
pass and the tracing overhead.  See bench/README.md for the workloads and
what each metric should move.
"""

from __future__ import annotations

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
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

#: Fresh interpreters timed for setup_s, half before and half after the
#: timed pass, after one untimed one that fills the bytecode cache.
SETUP_SAMPLES = 20
#: A run must end within this many seconds.
RUN_LIMIT_S = 170.0

_IMPORT_PROBE = ("import time, stringdet.cli; "
                 "print(time.monotonic_ns(), stringdet.cli.__file__)")


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, root: str, seed: int):
        self.root = root
        self.src = os.path.join(root, "src")
        self.started = time.monotonic()
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + (os.pathsep + env["PYTHONPATH"]
                                        if env.get("PYTHONPATH") else "")
        # string hashing is part of the seeded run, like its inputs
        env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
        self.env = env

    def _timeout(self) -> float:
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 1:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left

    def _check_program(self, path: str) -> None:
        if not os.path.abspath(path).startswith(self.src + os.sep):
            raise BenchError(f"stringdet was imported from {path}, not from {self.src}")

    def setup_s(self, count: int) -> list[float]:
        """Times from starting a fresh interpreter until ``import
        stringdet.cli`` returns."""
        samples = []
        for _ in range(count):
            t0 = time.monotonic_ns()
            proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=self.env,
                                  cwd=self.root, capture_output=True, text=True,
                                  timeout=self._timeout())
            if proc.returncode != 0:
                raise BenchError(f"import stringdet.cli failed: {proc.stderr.strip()}")
            done_ns, path = proc.stdout.split(maxsplit=1)
            self._check_program(path.strip())
            samples.append((int(done_ns) - t0) / 1e9)
        return samples

    def closed_loop(self, work: str, workload: str, seed: int, *, seconds=None,
                    calls=None, spans=None) -> dict:
        out = os.path.join(work, f"pass-{len(os.listdir(work))}.json")
        cmd = [sys.executable, os.path.join(HERE, "closed_loop.py"), "--workload", workload,
               "--seed", str(seed), "--work", work, "--out", out]
        cmd += ["--seconds", str(seconds)] if calls is None else ["--calls", str(calls)]
        if spans:
            cmd += ["--spans", spans]
        proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=self._timeout())
        if proc.returncode != 0:
            raise BenchError(f"closed loop exited {proc.returncode}: "
                             + proc.stderr.strip()[-2000:])
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        self._check_program(result["program"])
        return result


def _counts(result: dict) -> tuple[int, int]:
    attempted = len(result["latencies"]) + result["warmup_calls"]
    failed = len(result["failures"]) + len(result["warmup_failures"])
    return attempted, failed


def end_to_end(runner: Runner, work: str, workload: str, seed: int, seconds: float):
    runner.setup_s(1)
    setup = runner.setup_s(SETUP_SAMPLES // 2)
    result = runner.closed_loop(work, workload, seed, seconds=seconds)
    setup += runner.setup_s(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    latencies = result["latencies"]
    attempted, failed = _counts(result)
    metrics = {
        "calls_per_s": (len(latencies) / sum(latencies), "1/s"),
        "call_p50_s": (statistics.median(latencies), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024, "MiB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    summary = (f"{workload} seed {seed}: {len(latencies)} timed calls over "
               f"{len(set(result['keys']))} pool algebras "
               f"(+{result['warmup_calls']} warm-up), {failed} failed")
    return metrics, attempted, failed, result["failures"] + result["warmup_failures"], summary


def per_layer(runner: Runner, work: str, workload: str, seed: int, seconds: float,
              spans_path: str):
    """An untraced pass of half the run, then a traced pass over the same
    inputs in a fresh process; per-layer figures are per CLI call."""
    plain = runner.closed_loop(work, workload, seed, seconds=seconds / 2)
    calls = len(plain["latencies"])
    traced = runner.closed_loop(work, workload, seed, calls=calls, spans=spans_path)
    trace = traced["trace"]
    counters, self_ns = trace["counters"], trace["self_ns"]
    traced_wall = sum(traced["latencies"])
    overhead = traced_wall / sum(plain["latencies"])
    self_total = sum(self_ns.values())
    if self_total > traced_wall * 1e9:
        raise BenchError(f"self times add up to {self_total / 1e9:.3f} s, more than "
                         f"the traced wall time {traced_wall:.3f} s")

    def per_call(name):
        return counters.get(name, 0) / calls

    def self_s(name):
        return self_ns.get(name, 0) / calls / 1e9

    def layer_self_s(layer):
        return sum(v for k, v in self_ns.items() if k.startswith(layer + ".")) / calls / 1e9

    def ratio(num, den):
        den = counters.get(den, 0)
        return counters.get(num, 0) / den if den else 0.0

    metrics = {f"{layer}.self_s": (layer_self_s(layer), "s") for layer in LAYERS
               if layer != "cli"}
    metrics.update({
        "algebra.parse_algebra.self_s": (self_s("algebra.parse_algebra"), "s"),
        "algebra.validate.self_s": (self_s("algebra.validate"), "s"),
        "treewalk.walk_between.calls": (per_call("treewalk.walk_between"), "count"),
        "taxonomy.vertex_ideal.calls": (per_call("taxonomy.vertex_ideal"), "count"),
        "engine.determiner_report.calls": (per_call("engine.determiner_report"), "count"),
        "strings.enumerate_strings.self_s": (self_s("strings.enumerate_strings"), "s"),
        "strings.indecomposables": (per_call("strings.indecomposables"), "count"),
        "modules.string_module.calls": (per_call("modules.string_module"), "count"),
        "modules.hom_space.calls": (per_call("modules.hom_space"), "count"),
        "modules.hom_space.self_s": (self_s("modules.hom_space"), "s"),
        "linalg.nullspace.calls": (per_call("linalg.nullspace"), "count"),
        "linalg.nullspace.self_s": (self_s("linalg.nullspace"), "s"),
        "linalg.max_system_cells": (trace["max_system_cells"], "count"),
        "arquiver.ar_quiver.self_s": (self_s("arquiver.ar_quiver"), "s"),
        "arquiver.identify.calls": (per_call("arquiver.identify"), "count"),
        "arquiver.hom.hit_ratio": (ratio("arquiver.hom.hits", "arquiver.hom"), "ratio"),
        "oracle.minimal_right_determiner.calls":
            (per_call("oracle.minimal_right_determiner"), "count"),
        "oracle.almost_factors_through.calls":
            (per_call("oracle.almost_factors_through"), "count"),
        "oracle.almost_factors_through.self_s": (self_s("oracle.almost_factors_through"), "s"),
        "oracle.almost_factors_through.true_ratio":
            (ratio("oracle.almost_factors_through.true", "oracle.almost_factors_through"),
             "ratio"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.self_time_share": (self_total / 1e9 / traced_wall, "ratio"),
    })
    attempted, failed = (a + b for a, b in zip(_counts(plain), _counts(traced)))
    failures = (plain["failures"] + plain["warmup_failures"]
                + traced["failures"] + traced["warmup_failures"])
    summary = (f"{workload} seed {seed}: {calls} calls traced, spans in "
               f"{os.path.relpath(spans_path, runner.root)}, {failed} failed")
    return metrics, attempted, failed, failures, summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="stringdet benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stringdet", "cli.py")):
        print("error: src/stringdet/cli.py not found; run from the root of a "
              "stringdet checkout", file=sys.stderr)
        return 2
    runner = Runner(root, args.seed)
    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        if args.trace:
            spans = os.path.join(base, f"spans-{args.workload}.csv.gz")
            measured = per_layer(runner, work, args.workload, args.seed, args.seconds, spans)
        else:
            measured = end_to_end(runner, work, args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, attempted, failed, failures, summary = measured
    print(summary, file=sys.stderr)
    for i, message in failures[:10]:
        print(f"  call {i} failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
