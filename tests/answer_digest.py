"""Print one SHA-256 per case over everything the oracle answers, so that two
source trees can be compared answer by answer.

Run it under each tree and diff the outputs:

    PYTHONPATH=src:tests python tests/answer_digest.py > after.txt
    PYTHONPATH=<other tree>/src:tests python tests/answer_digest.py > before.txt
    diff before.txt after.txt

Each oracle case digests the Auslander-Reiten quiver's nodes (walk, support,
projective and injective vertex), its arrows with every map block as exact
`Fraction` strings, its meshes, the translate, and every `DeterminerEntry`
field with the result's totals.  The cases are every labeled tree algebra on
five vertices, crossing-tree levels 1-5, lines n = 30, 60 and 100, and a
zigzag line n = 100.  Each CLI case digests the stdout, stderr and exit code
of `oracle` and `check`, in text and in JSON with `--max-nodes 5100`, on
the named generators.
`--only oracle` or `--only cli` runs one half.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from fractions import Fraction

from stringdet import brute_force_det, cli
from stringdet.families import crossing_tree_algebra, generate_example, linear_algebra

from tree_algebras import iter_tree_algebras

ZIGZAG = ("><" * 50)[:99]

CLI_CASES = [
    ("crossing6",), ("zigzag4",), ("fan5", "variant=both"), ("fan5", "variant=one"),
    ("fork", "n=5"), ("fork", "n=7", "orientation=><><>>"),
    ("line", "n=12", "orientation=>><<><>>><<"),
    *[("crossing-tree", f"levels={k}") for k in range(1, 6)],
    ("line", "n=30"), ("line", "n=60"), ("line", "n=30", f"orientation={ZIGZAG[:29]}"),
]


def _digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def oracle_answers(alg) -> tuple:
    """Every answer of the oracle on alg, with sets sorted."""
    res = brute_force_det(alg)
    ar = res.ar
    nodes = [(nd.walk.render_text(), sorted(nd.rep.support), nd.projective_vertex,
              nd.injective_vertex) for nd in ar.nodes]
    arrows = [(arr.source, arr.target,
               [(v, [[str(Fraction(x)) for x in row] for row in arr.map.blocks[v].rows])
                for v in sorted(arr.map.blocks)])
              for arr in ar.arrows]
    meshes = [(m.left, m.middles, m.right, m.arrow_indices) for m in ar.meshes]
    entries = [(e.arrow_index, e.kind.value, e.determiner_node, e.socle_vertex, e.kernel_node,
                e.almost_factoring) for e in res.entries]
    return (nodes, arrows, meshes, sorted(ar.tau.items()), sorted(ar.tau_inv.items()), entries,
            sorted(res.determiner_nodes), sorted(res.projective_vertices),
            res.nonprojective_count)


def oracle_cases():
    for i, alg in enumerate(iter_tree_algebras(5)):
        yield f"labeled5 #{i}", alg
    for k in range(1, 6):
        yield f"crossing-tree {k}", crossing_tree_algebra(k)
    for n in (30, 60, 100):
        yield f"line {n}", linear_algebra(n)
    yield "zigzag line 100", linear_algebra(100, ZIGZAG)


def cli_answers(argv: list[str], text: str) -> tuple:
    """stdout, stderr and exit code of the command line on argv, text on stdin."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return out.getvalue(), err.getvalue(), code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", choices=("oracle", "cli"))
    args = parser.parse_args()
    if args.only != "cli":
        for name, alg in oracle_cases():
            print(name, _digest(oracle_answers(alg)), flush=True)
    if args.only != "oracle":
        for case in CLI_CASES:
            text = generate_example(case[0], **dict(p.split("=", 1) for p in case[1:]))
            for command in ("oracle", "check"):
                for fmt in ("text", "json"):
                    argv = [command, "-", "--format", fmt, "--max-nodes", "5100"]
                    print(" ".join((command, fmt) + case), _digest(cli_answers(argv, text)),
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
