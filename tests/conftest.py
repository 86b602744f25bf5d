import random
from dataclasses import dataclass

import pytest

from stringdet import brute_force_det, determiner_report, validate, parse_algebra
from stringdet.engine import DeterminerReport
from stringdet.oracle import OracleResult

from tree_algebras import iter_tree_algebras, random_tree_algebra

SWEEP_SEED = 20260811
SAMPLE_SIZE = 200


def algebra_from(text: str):
    return validate(parse_algebra(text))


@dataclass
class SweepRecord:
    algebra: object
    report: DeterminerReport
    oracle: OracleResult


@pytest.fixture(scope="session")
def sweep_records() -> list[SweepRecord]:
    """Every validated tree algebra on 2..4 vertices plus a deterministic
    200-instance sample on 5 vertices, with engine report and full oracle run
    (cross-checks enabled) for each."""
    records = []
    for n in (2, 3, 4):
        for alg in iter_tree_algebras(n):
            records.append(SweepRecord(alg, determiner_report(alg), brute_force_det(alg)))
    rng = random.Random(SWEEP_SEED)
    for _ in range(SAMPLE_SIZE):
        alg = random_tree_algebra(rng, 5)
        records.append(SweepRecord(alg, determiner_report(alg), brute_force_det(alg)))
    return records
