"""Command-line front end.

Exit codes: 0 success (or oracle/engine agreement), 1 usage or input problem,
2 validation failure, 3 oracle disagreement.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field

from .algebra import BoundQuiverAlgebra, ParseError, parse_algebra, validate
from .arquiver import GuardExceeded, OracleError, ar_quiver
from .dot import ar_quiver_dot, quiver_dot
from .engine import determiner_report, dynkin_type
from .families import GENERATORS, generate_example
from .oracle import brute_force_det
from .taxonomy import classify_vertex, vertex_ideals

DEFAULT_MAX_NODES = 100


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: str | None = None
    output_path: str | None = None
    fmt: str = "text"
    max_nodes: int = DEFAULT_MAX_NODES
    ar_output: str | None = None
    example: str | None = None
    example_params: dict = field(default_factory=dict)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="stringdet",
                description="Minimal right determiners over tree string algebras")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("input", help="quiver description file, or '-' for stdin")
        sp.add_argument("--format", choices=["text", "json"], default="text")
        sp.add_argument("-o", "--output", default=None, help="write to file instead of stdout")

    common(sub.add_parser("validate", help="print the validation certificate"))
    common(sub.add_parser("classify", help="vertex classification table"))
    common(sub.add_parser("ideals", help="vertex-ideal status table"))
    common(sub.add_parser("determiners", help="determiner counting report"))
    for name, help_ in (("oracle", "brute-force determiner enumeration"),
                        ("check", "engine vs oracle agreement")):
        sp = sub.add_parser(name, help=help_)
        common(sp)
        sp.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES,
                        help="refuse algebras with more indecomposables than this")
    sp = sub.add_parser("export-dot", help="write DOT files")
    common(sp)
    sp.add_argument("--ar-output", default=None,
                    help="also write the Auslander-Reiten quiver to this file")
    sp.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    sp = sub.add_parser("gen-example", help="emit an example input file")
    sp.add_argument("name", choices=sorted(GENERATORS))
    sp.add_argument("--levels", type=int, default=None, help="crossing-tree depth")
    sp.add_argument("--n", type=int, default=None, help="vertex count for line/fork")
    sp.add_argument("--orientation", default=None, help="'>'/'<' per edge for line/fork")
    sp.add_argument("--variant", default=None, help="fan5: 'both' or 'one'")
    sp.add_argument("-o", "--output", default=None)
    return p


def parse_config(argv: list[str]) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    params = {}
    for key in ("levels", "n", "orientation", "variant"):
        val = getattr(ns, key, None)
        if val is not None:
            params[key] = val
    return RunConfig(
        command=ns.command,
        input_path=getattr(ns, "input", None),
        output_path=getattr(ns, "output", None),
        fmt=getattr(ns, "format", "text"),
        max_nodes=getattr(ns, "max_nodes", DEFAULT_MAX_NODES),
        ar_output=getattr(ns, "ar_output", None),
        example=getattr(ns, "name", None),
        example_params=params,
    )


def _read_input(config: RunConfig) -> str:
    if config.input_path == "-":
        return sys.stdin.read()
    with open(config.input_path, encoding="utf-8") as fh:
        return fh.read()


def _write_output(config: RunConfig, text: str, path: str | None = None) -> None:
    path = path if path is not None else config.output_path
    if path is None:
        sys.stdout.write(text)
        return
    # write once, atomically
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".stringdet-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_valid(config: RunConfig) -> BoundQuiverAlgebra | None:
    """Parse and validate; on failure print the certificate and return None."""
    alg = validate(parse_algebra(_read_input(config)))
    if alg.is_valid:
        return alg
    cert = alg.certificate
    if config.fmt == "json":
        _write_output(config, json.dumps(
            {"valid": False, "violations": list(cert.violations)},
            sort_keys=True, indent=2) + "\n")
    else:
        lines = ["INVALID"] + [f"  - {v}" for v in cert.violations]
        _write_output(config, "\n".join(lines) + "\n")
    return None


def run(config: RunConfig) -> int:
    handler = {
        "validate": _cmd_validate,
        "classify": _cmd_classify,
        "ideals": _cmd_ideals,
        "determiners": _cmd_determiners,
        "oracle": _cmd_oracle,
        "check": _cmd_check,
        "export-dot": _cmd_export_dot,
        "gen-example": _cmd_gen_example,
    }[config.command]
    try:
        return handler(config)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GuardExceeded as exc:
        print(f"error: {exc}; raise --max-nodes to proceed", file=sys.stderr)
        return 1
    except OracleError as exc:
        print(f"oracle invariant breach: {exc}", file=sys.stderr)
        return 3


def _cmd_validate(config: RunConfig) -> int:
    if _load_valid(config) is None:
        return 2
    _write_output(config, json.dumps({"valid": True, "violations": []}, sort_keys=True,
                                     indent=2) + "\n" if config.fmt == "json" else "VALID\n")
    return 0


def _cmd_classify(config: RunConfig) -> int:
    alg = _load_valid(config)
    if alg is None:
        return 2
    rows = [(v, classify_vertex(alg, v)) for v in alg.quiver.vertices]
    if config.fmt == "json":
        _write_output(config, json.dumps(
            {"classes": {str(v): c.value for v, c in rows}}, sort_keys=True, indent=2) + "\n")
    else:
        lines = [f"  {v}: {c.value}" for v, c in rows]
        _write_output(config, "vertex classes:\n" + "\n".join(lines) + "\n")
    return 0


def _cmd_ideals(config: RunConfig) -> int:
    alg = _load_valid(config)
    if alg is None:
        return 2
    ideals = vertex_ideals(alg)
    rows = [(v, classify_vertex(alg, v), ideals.get(v)) for v in alg.quiver.vertices]
    if config.fmt == "json":
        payload = {str(v): (None if s is None else
                            {"kind": s.kind.value, "witness": s.witness})
                   for v, _, s in rows}
        _write_output(config, json.dumps({"vertex_ideals": payload},
                                         sort_keys=True, indent=2) + "\n")
    else:
        lines = []
        for v, cls, s in rows:
            if s is None:
                lines.append(f"  {v}: ({cls.value}; no vertex ideal)")
            else:
                wit = f", witness {s.witness}" if s.witness is not None else ""
                lines.append(f"  {v}: {s.kind.value}{wit} ({cls.value})")
        _write_output(config, "vertex ideals:\n" + "\n".join(lines) + "\n")
    return 0


def _cmd_determiners(config: RunConfig) -> int:
    alg = _load_valid(config)
    if alg is None:
        return 2
    report = determiner_report(alg)
    shape = dynkin_type(alg, report)
    if config.fmt == "json":
        payload = report.to_dict()
        payload["dynkin"] = shape.to_dict()
        _write_output(config, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        _write_output(config, report.to_text() + "\n" + shape.to_text())
    return 0


def _cmd_oracle(config: RunConfig) -> int:
    alg = _load_valid(config)
    if alg is None:
        return 2
    result = brute_force_det(alg, max_nodes=config.max_nodes)
    if config.fmt == "json":
        payload = {
            "total": result.total,
            "projective_vertices": sorted(result.projective_vertices),
            "nonprojective_count": result.nonprojective_count,
            "indecomposables": len(result.ar.nodes),
            "determiners": sorted(result.ar.nodes[i].label() for i in result.determiner_nodes),
        }
        _write_output(config, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        lines = [
            f"indecomposables:            {len(result.ar.nodes)}",
            f"determiners found:          {result.total}",
            f"projective determiners:     "
            + "{" + ", ".join(f"P({v})" for v in sorted(result.projective_vertices)) + "}",
            f"non-projective determiners: {result.nonprojective_count}",
            "members:",
        ]
        lines += [f"  {result.ar.nodes[i].label()}"
                  for i in sorted(result.determiner_nodes)]
        _write_output(config, "\n".join(lines) + "\n")
    return 0


def _cmd_check(config: RunConfig) -> int:
    alg = _load_valid(config)
    if alg is None:
        return 2
    report = determiner_report(alg)
    result = brute_force_det(alg, max_nodes=config.max_nodes)
    same_proj = set(report.projective_determiners) == set(result.projective_vertices)
    same_total = report.formula_value == result.total
    agree = same_proj and same_total
    if config.fmt == "json":
        _write_output(config, json.dumps({
            "agree": agree,
            "engine": {"total": report.formula_value,
                       "projective": list(report.projective_determiners)},
            "oracle": {"total": result.total,
                       "projective": sorted(result.projective_vertices)},
        }, sort_keys=True, indent=2) + "\n")
    else:
        lines = [
            f"engine: total {report.formula_value}, projective "
            + "{" + ", ".join(map(str, report.projective_determiners)) + "}",
            f"oracle: total {result.total}, projective "
            + "{" + ", ".join(map(str, sorted(result.projective_vertices))) + "}",
            "AGREE" if agree else "MISMATCH",
        ]
        _write_output(config, "\n".join(lines) + "\n")
    return 0 if agree else 3


def _cmd_export_dot(config: RunConfig) -> int:
    alg = _load_valid(config)
    if alg is None:
        return 2
    _write_output(config, quiver_dot(alg))
    if config.ar_output:
        ar = ar_quiver(alg, max_nodes=config.max_nodes)
        _write_output(config, ar_quiver_dot(ar), path=config.ar_output)
    return 0


def _cmd_gen_example(config: RunConfig) -> int:
    doc = generate_example(config.example, **config.example_params)
    _write_output(config, doc)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        config = parse_config(argv)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return run(config)


def console_main() -> None:
    sys.exit(main())
