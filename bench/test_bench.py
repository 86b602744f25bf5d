"""The benchmark's own tests.

    python3 -m pytest bench/test_bench.py -q      # or: python3 -m unittest bench.test_bench

They check that the output checks catch wrong answers, that the closed
forms the checks rely on agree with the oracle on relabeled inputs, that a
seed always regenerates the same inputs and never repeats one within a
run, and that the tracer wraps and unwraps the package cleanly.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import itertools
import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import closed_loop  # noqa: E402
import workloads as W  # noqa: E402
from stringdet import cli  # noqa: E402
from tracer import Tracer  # noqa: E402


class WorkDir(unittest.TestCase):
    def setUp(self):
        base = os.path.join(ROOT, ".bench_work")
        os.makedirs(base, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="test-", dir=base)
        self.path = os.path.join(self.work, "input.txt")

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def call(self, case: W.Case):
        return closed_loop.one_call(cli.main, case, self.path)


class SmallLine(W.ParseLine):
    def __init__(self):
        super().__init__(n=60)


def corrupting(field: str, delta: int):
    """A CLI entry point whose JSON output has one number changed."""
    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out = json.loads(buf.getvalue())
        out[field] += delta
        sys.stdout.write(json.dumps(out))
        return code
    return main


class FailureAccounting(WorkDir):
    def test_correct_program_has_no_failures(self):
        result = closed_loop.run_pass(cli.main, SmallLine(), 7, self.work, calls=3)
        self.assertEqual(result["failures"], [])
        self.assertEqual(result["warmup_failures"], [])
        self.assertEqual(len(result["latencies"]), 3)

    def test_wrong_total_is_caught_and_counted(self):
        result = closed_loop.run_pass(corrupting("formula_value", 1), SmallLine(), 7,
                                      self.work, calls=3)
        self.assertEqual(len(result["failures"]), 3)
        self.assertEqual(len(result["warmup_failures"]), closed_loop.WARMUP_CALLS)
        attempted = len(result["latencies"]) + result["warmup_calls"]
        failed = len(result["failures"]) + len(result["warmup_failures"])
        self.assertGreater(failed / attempted, 0)

    def test_total_matching_closed_form_but_not_projectives_is_caught(self):
        case = SmallLine().case(7, 0)
        with self.assertRaises(W.OutputError):
            W.check_output(case, 0, json.dumps(
                {"n": case.n, "formula_value": case.expected_total,
                 "projective_determiners": []}))

    def test_disagreement_exit_code_and_crash_are_failures(self):
        case = W.OracleMid().warmup(3, 0)
        _, failure = closed_loop.one_call(lambda argv: 3, case, self.path)
        self.assertIn("exit code 3", failure)

        def crash(argv):
            raise RecursionError("deep")
        _, failure = closed_loop.one_call(crash, case, self.path)
        self.assertIn("RecursionError", failure)

    def test_check_disagreement_is_caught(self):
        case = W.OracleMid().warmup(3, 0)
        with self.assertRaises(W.OutputError):
            W.check_output(case, 0, json.dumps(
                {"agree": False, "engine": {"total": 1, "projective": []},
                 "oracle": {"total": 1, "projective": []}}))


class ClosedFormsMatchOracle(WorkDir):
    def check(self, alg: W.Alg, expected_total: int | None):
        case = W.Case(W.document(alg), "check", len(alg.vertices), expected_total)
        _, failure = self.call(case)
        self.assertIsNone(failure, W.document(alg))

    def test_small_lines_match_oracle(self):
        for n in range(2, 7):
            for orientation in map("".join, itertools.product("<>", repeat=n - 1)):
                rng = W.rng_for("test", orientation)
                self.check(W.relabel(W.line(orientation), rng), W.line_total(orientation))

    def test_lines_match_engine(self):
        for n in range(7, 10):
            for orientation in map("".join, itertools.product("<>", repeat=n - 1)):
                alg = W.relabel(W.line(orientation), W.rng_for("test", orientation))
                case = W.Case(W.document(alg), "determiners", n, W.line_total(orientation))
                self.assertIsNone(self.call(case)[1], orientation)

    def test_each_workload_passes_its_own_check(self):
        for name in W.WORKLOADS:
            wl = W.make(name)
            for i in range(closed_loop.WARMUP_CALLS):
                self.assertIsNone(self.call(wl.warmup(11, i))[1], name)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in W.WORKLOADS:
            a, b = W.make(name), W.make(name)
            for i in range(3):
                self.assertEqual(a.case(5, i), b.case(5, i), name)
                self.assertEqual(a.warmup(5, i), b.warmup(5, i), name)
            self.assertNotEqual(a.case(5, 0).text, a.case(6, 0).text, name)

    def test_no_input_repeats_within_a_run(self):
        sizes = {"parse-line": 10, "oracle-mid": 24}
        for name, count in sizes.items():
            wl = W.make(name)
            texts = {wl.case(9, i).text for i in range(count)}
            self.assertEqual(len(texts), count, name)

    def test_string_count_matches_program(self):
        from stringdet import parse_algebra, validate
        from stringdet.strings import enumerate_strings
        wl = W.OracleMid()
        for i in range(2 * len(wl.pool)):
            case = wl.case(2, i)
            count = len(enumerate_strings(validate(parse_algebra(case.text))))
            self.assertEqual(count, W.string_count(wl.pool[case.key][0]))
            lo, hi = W.ORACLE_N_BINS[case.key // W.ORACLE_PER_BIN]
            self.assertTrue(lo <= count < hi)

    def test_relabel_preserves_structure(self):
        alg = W.random_tree_algebra(W.rng_for("test", "tree"), 9)
        copy = W.relabel(alg, W.rng_for("test"))
        self.assertEqual(len(copy.vertices), len(alg.vertices))
        self.assertEqual(len(set(a for a, _, _ in copy.arrows)), len(alg.arrows))
        self.assertEqual(W.string_count(copy), W.string_count(alg))
        self.assertTrue(W.is_valid_string_algebra(copy))


class TracerWrapsFromOutside(WorkDir):
    def test_install_trace_uninstall(self):
        from stringdet import taxonomy, treewalk
        original = treewalk.walk_between
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(taxonomy.walk_between, original)
            self.assertIs(taxonomy.walk_between, treewalk.walk_between)
            result = closed_loop.run_pass(cli.main, W.OracleMid(), 4, self.work, calls=2,
                                          tracer=tracer)
        finally:
            tracer.uninstall()
        self.assertIs(treewalk.walk_between, original)
        self.assertIs(taxonomy.walk_between, original)
        self.assertEqual(result["failures"], [])
        self.assertEqual(tracer.counters["cli.main"], 2)
        self.assertGreater(tracer.counters["treewalk.walk_between"], 0)
        self.assertGreater(tracer.counters["oracle.almost_factors_through"], 0)
        self.assertGreater(tracer.counters["arquiver.hom.hits"], 0)
        self.assertEqual(set(tracer.span_call), {0, 1})
        self_ns, root_ns = tracer.self_times_ns()
        self.assertEqual(sum(self_ns.values()), root_ns)
        self.assertLessEqual(root_ns / 1e9, sum(result["latencies"]))
        spans = os.path.join(self.work, "spans.csv.gz")
        tracer.write_spans(spans)
        with gzip.open(spans, "rt", encoding="utf-8") as fh:
            self.assertEqual(sum(1 for _ in fh), len(tracer.span_start) + 1)


if __name__ == "__main__":
    unittest.main()
