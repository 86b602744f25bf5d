"""Seeded input generators and output checks for the benchmark workloads.

Stdlib only, and independent of the package under test: the inputs are
built, relabeled and serialized here, and every expected answer is computed
here from the generator's own description, never from stringdet code.

An algebra is a plain ``Alg`` tuple: vertex ids, arrows as (name, source,
target) and zero relations as arrow-name paths in traversal order.  Each
workload has a fixed pool of such algebras.  Every call of a run hands the
program a fresh relabeling of one of them, so no two calls of a run parse
the same text.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
from typing import NamedTuple


class Alg(NamedTuple):
    vertices: tuple[int, ...]
    arrows: tuple[tuple[str, int, int], ...]
    relations: tuple[tuple[str, ...], ...]


class Case(NamedTuple):
    """One CLI call: the document to parse, the command, and what the
    output must satisfy."""

    text: str
    command: str            # "determiners" or "check"
    n: int
    expected_total: int | None
    key: int = -1           # index of the algebra in the workload's pool


class OutputError(ValueError):
    """The program's output failed the benchmark's check."""


def rng_for(*key) -> random.Random:
    """Independent stream per key, so that input i of a run does not depend
    on how many random draws earlier inputs used."""
    return random.Random("/".join(str(k) for k in key))


# --------------------------------------------------------------------------
# document serialization with relabeling

def scramble(alg: Alg, rng: random.Random) -> Alg:
    """Isomorphic copy under a random vertex permutation, with arrows
    renamed a1..am in random order."""
    vmap = dict(zip(alg.vertices, rng.sample(alg.vertices, len(alg.vertices))))
    order = rng.sample(range(1, len(alg.arrows) + 1), len(alg.arrows))
    amap = {a[0]: f"a{k}" for a, k in zip(alg.arrows, order)}
    return Alg(tuple(sorted(vmap.values())),
               tuple((amap[a], vmap[s], vmap[t]) for a, s, t in alg.arrows),
               tuple(tuple(amap[a] for a in rel) for rel in alg.relations))


def _name_key(name: str) -> tuple[str, int]:
    return name.rstrip("0123456789"), int(name[len(name.rstrip("0123456789")):] or 0)


def relabel(alg: Alg, rng: random.Random) -> Alg:
    """Fresh text for the same algebra: new vertex ids (distinct, from
    1..4n+64), new arrow names and shuffled declaration order.  Both maps keep
    the order of ids and names (arrow names sort by prefix, then number), so
    a program that roots or scans by smallest id or name does the same work
    on every relabeling of one pool algebra."""
    n, m = len(alg.vertices), len(alg.arrows)
    vmap = dict(zip(sorted(alg.vertices), sorted(rng.sample(range(1, 4 * n + 65), n))))
    prefix = rng.choice("abcxyz")
    numbers = sorted(rng.sample(range(1, 10 * m + 65), m))
    amap = {a: f"{prefix}{k}" for a, k in
            zip(sorted((a for a, _, _ in alg.arrows), key=_name_key), numbers)}
    verts = list(vmap.values())
    arrows = [(amap[a], vmap[s], vmap[t]) for a, s, t in alg.arrows]
    relations = [tuple(amap[a] for a in rel) for rel in alg.relations]
    rng.shuffle(verts)
    rng.shuffle(arrows)
    rng.shuffle(relations)
    return Alg(tuple(verts), tuple(arrows), tuple(relations))


def document(alg: Alg) -> str:
    lines = ["vertices: " + ", ".join(map(str, alg.vertices))]
    lines += [f"arrow {a}: {s} -> {t}" for a, s, t in alg.arrows]
    lines += ["relation: " + " ".join(rel) for rel in alg.relations]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# families

def line(orientation: str) -> Alg:
    """Relation-free line 1 - 2 - ... - n, '>' pointing to the larger id."""
    arrows = tuple((f"a{i}", i, i + 1) if c == ">" else (f"a{i}", i + 1, i)
                   for i, c in enumerate(orientation, start=1))
    return Alg(tuple(range(1, len(orientation) + 2)), arrows, ())


def line_total(orientation: str) -> int:
    """2n - p - q - 1 for a relation-free line: p counts interior vertices
    with two outgoing arrows; q is 1 exactly when the line has one sink."""
    n = len(orientation) + 1
    p = sum(1 for left, right in zip(orientation, orientation[1:])
            if left == "<" and right == ">")
    sinks = (orientation[:1] == "<") + (orientation[-1:] == ">") + sum(
        1 for left, right in zip(orientation, orientation[1:])
        if left == ">" and right == "<")
    return 2 * n - p - (1 if sinks == 1 else 0) - 1


def flipped_line(n: int, flips: int, rng: random.Random) -> str:
    """All-forward orientation on n vertices with `flips` edges reversed."""
    edges = [">"] * (n - 1)
    for i in rng.sample(range(n - 1), flips):
        edges[i] = "<"
    return "".join(edges)


# --------------------------------------------------------------------------
# tree algebras: validity, string count, enumeration and sampling

def _prufer_tree(seq: list[int], n: int) -> list[tuple[int, int]]:
    if n == 2:
        return [(1, 2)]
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _directed_paths(arrows) -> list[tuple[str, ...]]:
    """All composable paths of length >= 2 (finite on a tree)."""
    by_source: dict[int, list[tuple[str, int]]] = {}
    for name, s, t in arrows:
        by_source.setdefault(s, []).append((name, t))
    out = []
    stack = [((name,), t) for name, _, t in arrows]
    while stack:
        path, end = stack.pop()
        if len(path) >= 2:
            out.append(path)
        stack.extend((path + (name,), t) for name, t in by_source.get(end, ()))
    return sorted(out, key=lambda p: (len(p), p))


def _contains(long: tuple[str, ...], short: tuple[str, ...]) -> bool:
    return any(long[i:i + len(short)] == short for i in range(len(long) - len(short) + 1))


def _is_antichain(paths) -> bool:
    return not any(len(a) > len(b) and _contains(a, b)
                   for a, b in itertools.permutations(paths, 2))


def is_valid_string_algebra(alg: Alg) -> bool:
    """Degrees at most 2 in and out, and at every vertex each pair of arrows
    on one side is cut by a zero relation against every arrow on the other
    side.  The underlying graph is a tree by construction."""
    rels = set(alg.relations)
    ins: dict[int, list[str]] = {v: [] for v in alg.vertices}
    outs: dict[int, list[str]] = {v: [] for v in alg.vertices}
    for name, s, t in alg.arrows:
        outs[s].append(name)
        ins[t].append(name)
    for v in alg.vertices:
        if len(ins[v]) > 2 or len(outs[v]) > 2:
            return False
        if len(ins[v]) == 2 and any((ins[v][0], g) not in rels and (ins[v][1], g) not in rels
                                    for g in outs[v]):
            return False
        if len(outs[v]) == 2 and any((g, outs[v][0]) not in rels and (g, outs[v][1]) not in rels
                                     for g in ins[v]):
            return False
    return True


def string_count(alg: Alg) -> int:
    """Number of indecomposables N: one per vertex plus one per pair of
    vertices whose tree path has no same-direction run containing a zero
    relation."""
    adj: dict[int, list[tuple[int, str, bool]]] = {v: [] for v in alg.vertices}
    for name, s, t in alg.arrows:
        adj[s].append((t, name, True))
        adj[t].append((s, name, False))
    count = 0
    for start in alg.vertices:
        # depth-first over simple paths from start; each state keeps the
        # current same-direction run as a path in traversal order
        stack = [(start, None, (), None)]
        while stack:
            v, prev, run, direct = stack.pop()
            count += 1
            for w, name, fwd in adj[v]:
                if w == prev:
                    continue
                if fwd == direct:
                    new_run = run + (name,) if fwd else (name,) + run
                else:
                    new_run = (name,)
                if any(_contains(new_run, rel) for rel in alg.relations):
                    continue
                stack.append((w, v, new_run, fwd))
    # every non-trivial path was reached from both ends
    n = len(alg.vertices)
    return n + (count - n) // 2


def random_tree_algebra(rng: random.Random, n: int) -> Alg:
    """Random labeled tree, random orientation, and a random reduced set of
    zero relations (each directed path offered once, in random order, with
    probability 1/2), resampled until valid."""
    while True:
        edges = _prufer_tree([rng.randint(1, n) for _ in range(n - 2)], n)
        arrows = tuple((f"a{k}", u, w) if rng.random() < 0.5 else (f"a{k}", w, u)
                       for k, (u, w) in enumerate(edges, start=1))
        paths = _directed_paths(arrows)
        rng.shuffle(paths)
        rels: list[tuple[str, ...]] = []
        for p in paths:
            if rng.random() < 0.5 and _is_antichain(rels + [p]):
                rels.append(p)
        alg = Alg(tuple(range(1, n + 1)), arrows, tuple(rels))
        if is_valid_string_algebra(alg):
            return alg


# --------------------------------------------------------------------------
# workloads

LINE_N = 5_000
LINE_POOL = 1
ORACLE_N = (8, 12)
#: Bins of N (indecomposables) for oracle-mid, ORACLE_PER_BIN algebras each.
#: All are below the CLI's default guard of 100 indecomposables.
ORACLE_N_BINS = ((25, 32), (32, 39), (39, 46), (46, 53))
ORACLE_PER_BIN = 1
#: Fixed seed for drawing and scrambling the pools.
POOL_SEED = 1703


class Workload:
    """A named input stream over a fixed pool of algebras.

    A run walks the pool in rounds.  The run's seed picks the order of each
    round and relabels every call afresh (``relabel``), so no two calls of a
    run parse the same text.  The pool itself is drawn once from POOL_SEED
    and scrambled, so every run times the same structures: the spread
    between seeds then measures the machine and the program, not the luck
    of a sample.  ``case(seed, i)`` is the i-th call of a run;
    ``warmup(seed, i)`` is a smaller call of the same kind, made before
    timing starts.
    """

    name = ""
    command = "determiners"

    def __init__(self):
        self._pool: list[tuple[Alg, int | None]] | None = None

    @property
    def pool(self) -> list[tuple[Alg, int | None]]:
        """(algebra, expected total or None) per pool member."""
        if self._pool is None:
            rng = rng_for(self.name, "pool", POOL_SEED)
            self._pool = [(scramble(alg, rng), total) for alg, total in self.make_pool(rng)]
        return self._pool

    def make_pool(self, rng: random.Random) -> list[tuple[Alg, int | None]]:
        raise NotImplementedError

    def case(self, seed: int, i: int) -> Case:
        rnd, pos = divmod(i, len(self.pool))
        order = list(range(len(self.pool)))
        rng_for(self.name, "order", seed, rnd).shuffle(order)
        alg, total = self.pool[order[pos]]
        alg = relabel(alg, rng_for(self.name, seed, i))
        return Case(document(alg), self.command, len(alg.vertices), total, order[pos])

    def warmup(self, seed: int, i: int) -> Case:
        raise NotImplementedError


class ParseLine(Workload):
    name = "parse-line"

    def __init__(self, n: int = LINE_N):
        super().__init__()
        self.n = n

    def make_pool(self, rng):
        flips = max(1, self.n // 1000)
        orientations = [flipped_line(self.n, flips, rng) for _ in range(LINE_POOL)]
        return [(line(o), line_total(o)) for o in orientations]

    def warmup(self, seed, i):
        rng = rng_for(self.name, "warmup", seed, i)
        orientation = flipped_line(1000, 2, rng)
        alg = relabel(scramble(line(orientation), rng), rng)
        return Case(document(alg), self.command, 1000, line_total(orientation))


class OracleMid(Workload):
    name = "oracle-mid"
    command = "check"

    def make_pool(self, rng):
        """ORACLE_PER_BIN algebras per N bin."""
        bins: list[list[Alg]] = [[] for _ in ORACLE_N_BINS]
        while any(len(b) < ORACLE_PER_BIN for b in bins):
            alg = random_tree_algebra(rng, rng.randint(*ORACLE_N))
            count = string_count(alg)
            for (lo, hi), members in zip(ORACLE_N_BINS, bins):
                if lo <= count < hi and len(members) < ORACLE_PER_BIN:
                    members.append(alg)
        return [(alg, None) for members in bins for alg in members]

    def warmup(self, seed, i):
        rng = rng_for(self.name, "warmup", seed, i)
        alg = relabel(random_tree_algebra(rng, 6), rng)
        return Case(document(alg), self.command, 6, None)


WORKLOADS = {w.name: w for w in (ParseLine, OracleMid)}


def make(name: str) -> Workload:
    return WORKLOADS[name]()


# --------------------------------------------------------------------------
# output checks

def check_output(case: Case, exit_code: int, stdout: str) -> None:
    """Raise OutputError unless the call succeeded and its output is right."""
    if exit_code != 0:
        raise OutputError(f"exit code {exit_code}")
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise OutputError(f"output is not JSON: {exc}") from None
    if case.command == "determiners":
        total, proj = out.get("formula_value"), out.get("projective_determiners")
        if out.get("n") != case.n:
            raise OutputError(f"n = {out.get('n')}, expected {case.n}")
        if not isinstance(proj, list) or total != len(proj) + case.n - 1:
            raise OutputError(f"formula_value {total} != |projective| + n - 1")
    else:
        if out.get("agree") is not True:
            raise OutputError("engine and oracle disagree")
        engine, oracle = out.get("engine", {}), out.get("oracle", {})
        total = engine.get("total")
        if total != oracle.get("total"):
            raise OutputError(f"engine total {total} != oracle total {oracle.get('total')}")
        if total != len(engine.get("projective", ())) + case.n - 1:
            raise OutputError(f"engine total {total} != |projective| + n - 1")
    if case.expected_total is not None and total != case.expected_total:
        raise OutputError(f"total {total}, expected {case.expected_total}")
