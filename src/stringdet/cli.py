"""Command-line front end: each subcommand's parser carries its handler, which
`main` calls with argparse's namespace and the validated algebra.

Exit codes: 0 success (or oracle/engine agreement), 1 usage or input problem,
2 validation failure, 3 oracle disagreement.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import gc
import json
import os
import re
import stat
import sys
import tempfile
from json.encoder import encode_basestring_ascii

from .algebra import BoundQuiverAlgebra, ParseError, parse_algebra, validate
from .arquiver import GuardExceeded, OracleError, ar_quiver
from .dot import ar_quiver_dot, quiver_dot
from .engine import (VERTEX_KEY, WITNESS_KEY, DeterminerReport, determiner_report,
                     dynkin_type, rationale_row)
from .families import GENERATORS, generate_example
from .oracle import brute_force_det
from .taxonomy import _vertex_ideals, vertex_classes

DEFAULT_MAX_NODES = 100


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_SCALARS = frozenset({str, int, float, bool, type(None)})
# json's C encoder for a container of scalars whose members sit at pad: the
# indentation rides in the item separator
_flat_encode = functools.cache(
    lambda pad: json.JSONEncoder(sort_keys=True, separators=(",\n" + pad, ": ")).encode)


def _render(value, pad: str = "") -> str:
    """The text of json.dumps(value, sort_keys=True, indent=2), with pad the
    indentation of value's own line.  Python recurses only over containers
    that hold containers; each container of scalars is one call into json's
    C encoder."""
    kind = type(value)
    if kind in _SCALARS:
        return _flat_encode(pad)(value)
    if kind is dict:
        if set(map(type, value)) - {str}:
            raise TypeError("JSON object keys must be str")
        kinds = set(map(type, value.values()))
    elif kind is list or kind is tuple:
        kinds = set(map(type, value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    brackets = "{}" if kind is dict else "[]"
    if not value:
        return brackets
    inner = pad + "  "
    if kinds <= _SCALARS:
        body = _flat_encode(inner)(value)[1:-1]
    elif kind is dict:
        body = (",\n" + inner).join(encode_basestring_ascii(k) + ": " + _render(v, inner)
                                    for k, v in sorted(value.items()))
    else:
        body = (",\n" + inner).join(_render(v, inner) for v in value)
    return brackets[0] + "\n" + inner + body + "\n" + pad + brackets[1]


#: Cuts a rendered rationale row where its vertex and witness go: a quote
#: inside a JSON string is escaped, so only the row's own keys match.
_CUT_ROW = re.compile(f'(?:(?<="{VERTEX_KEY}": )|(?<="{WITNESS_KEY}": ))0').split


def _render_determiners(report: DeterminerReport, dynkin: dict) -> str:
    """_render of the determiners document, whose rationale rows are never
    built as dicts: each row shape gets one template, a row of that shape
    rendered by _render and cut where the vertex and witness go, and each
    row is its template with its own ints put in."""
    templates: dict[tuple, list[str]] = {}
    rows = []
    for d in report.decisions:
        v, cls, ideal, is_determiner, rule = d
        w = None if ideal is None else ideal.witness
        # enum members by their _value_ strings: an Enum hashes, and reads
        # .value, in Python
        shape = (cls._value_, None if ideal is None else ideal.kind._value_, w is None,
                 is_determiner, rule)
        cut = templates.get(shape)
        if cut is None:
            cut = templates[shape] = _CUT_ROW(_render(
                {**rationale_row(d), VERTEX_KEY: 0, WITNESS_KEY: None if w is None else 0}, "    "))
        rows.append(cut[0] + str(v) + cut[1] if w is None
                    else cut[0] + str(v) + cut[1] + str(w) + cut[2])
    head, _, tail = _render({**dataclasses.replace(report, decisions=()).to_dict(),
                             "dynkin": dynkin}).rpartition('"rationale": []')
    return head + '"rationale": [\n    ' + ",\n    ".join(rows) + "\n  ]" + tail


def _emit(ns: argparse.Namespace, doc: dict | list[str] | str,
          *more: tuple[str, dict | list[str] | str]) -> None:
    """Write doc, a dict as JSON, a list as text lines and a string as it is,
    to the -o file, else to stdout, and each (path, doc) of more to its path.
    The command is all or nothing: each file is written to a temporary file
    beside the file its path resolves to, symlinks followed, and replaces
    that file; any other existing target but a directory, such as a FIFO or
    a device, is written in place once the replacements are done; stdout is
    written last.  An empty path, a directory, or two paths that resolve to
    one file, are refused before anything is written."""
    if "" in (ns.output, *(path for path, _ in more)):
        raise ValueError("output path is empty")
    staged: list[tuple[str, str, str]] = []  # (temporary file, resolved target, path)
    in_place: list[tuple[str, str]] = []  # (path, text)
    resolved: dict[str, str] = {}  # resolved target -> path
    out = ""
    try:
        for path, doc in ((ns.output, doc), *more):
            if isinstance(doc, dict):
                doc = _render(doc) + "\n"
            elif isinstance(doc, list):
                doc = "\n".join(doc) + "\n"
            if path is None:
                out = doc
                continue
            target = os.path.realpath(path)
            if target in resolved:
                raise ValueError(f"{path!r} and {resolved[target]!r} name the same file")
            resolved[target] = path
            # the mode open(path, "w") would leave: the replaced file's, else
            # 0o666 less the umask (mkstemp's file is 0o600)
            try:
                mode = os.stat(path).st_mode
            except FileNotFoundError:
                umask = os.umask(0)
                os.umask(umask)
                mode = stat.S_IFREG | (0o666 & ~umask)
            if stat.S_ISDIR(mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if not stat.S_ISREG(mode):
                in_place.append((path, doc))
                continue
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".stringdet-")
            staged.append((tmp, target, path))
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(doc)
            os.chmod(tmp, stat.S_IMODE(mode))
        for tmp, target, path in staged:
            os.replace(tmp, target)
        for path, doc in in_place:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(doc)
    except OSError as exc:
        # name the path given, not the temporary or resolved file
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for tmp, _, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
    sys.stdout.write(out)


def _cmd_validate(ns, alg: BoundQuiverAlgebra) -> None:
    _emit(ns, {"valid": True, "violations": []} if ns.format == "json" else "VALID\n")


def _cmd_classify(ns, alg: BoundQuiverAlgebra) -> None:
    rows = vertex_classes(alg).items()
    if ns.format == "json":
        _emit(ns, {"classes": {str(v): c.value for v, c in rows}})
    else:
        _emit(ns, ["vertex classes:"] + [f"  {v}: {c.value}" for v, c in rows])


def _cmd_ideals(ns, alg: BoundQuiverAlgebra) -> None:
    classes = vertex_classes(alg)
    ideals = _vertex_ideals(alg, classes)
    rows = [(v, cls, ideals.get(v)) for v, cls in classes.items()]
    if ns.format == "json":
        _emit(ns, {"vertex_ideals": {
            str(v): None if s is None else {"kind": s.kind.value, "witness": s.witness}
            for v, _, s in rows}})
    else:
        lines = ["vertex ideals:"]
        for v, cls, s in rows:
            if s is None:
                lines.append(f"  {v}: ({cls.value}; no vertex ideal)")
            else:
                wit = f", witness {s.witness}" if s.witness is not None else ""
                lines.append(f"  {v}: {s.kind.value}{wit} ({cls.value})")
        _emit(ns, lines)


def _cmd_determiners(ns, alg: BoundQuiverAlgebra) -> None:
    report = determiner_report(alg)
    shape = dynkin_type(alg)
    if ns.format == "json":
        _emit(ns, _render_determiners(
            report, {**shape.to_dict(), "p": report.p, "q": report.q}) + "\n")
    else:
        _emit(ns, report.to_text() + "\n" + shape.to_text()
              + f"p (interior fork sources): {report.p}\n"
              f"q (non-zero vertex ideals): {report.q}\n")


def _cmd_oracle(ns, alg: BoundQuiverAlgebra) -> None:
    result = brute_force_det(alg, max_nodes=ns.max_nodes)
    nodes = result.ar.nodes
    if ns.format == "json":
        _emit(ns, {
            "total": result.total,
            "projective_vertices": sorted(result.projective_vertices),
            "nonprojective_count": result.nonprojective_count,
            "indecomposables": len(nodes),
            "determiners": sorted(nodes[i].label() for i in result.determiner_nodes),
        })
    else:
        _emit(ns, [
            f"indecomposables:            {len(nodes)}",
            f"determiners found:          {result.total}",
            "projective determiners:     {"
            + ", ".join(f"P({v})" for v in sorted(result.projective_vertices)) + "}",
            f"non-projective determiners: {result.nonprojective_count}",
            "members:",
        ] + [f"  {nodes[i].label()}" for i in sorted(result.determiner_nodes)])


def _cmd_check(ns, alg: BoundQuiverAlgebra) -> int:
    report = determiner_report(alg)
    result = brute_force_det(alg, max_nodes=ns.max_nodes)
    oracle_projective = sorted(result.projective_vertices)
    agree = (set(report.projective_determiners) == set(oracle_projective)
             and report.formula_value == result.total)
    if ns.format == "json":
        _emit(ns, {
            "agree": agree,
            "engine": {"total": report.formula_value,
                       "projective": list(report.projective_determiners)},
            "oracle": {"total": result.total, "projective": oracle_projective},
        })
    else:
        _emit(ns, [
            f"engine: total {report.formula_value}, projective {{"
            + ", ".join(map(str, report.projective_determiners)) + "}",
            f"oracle: total {result.total}, projective {{"
            + ", ".join(map(str, oracle_projective)) + "}",
            "AGREE" if agree else "MISMATCH",
        ])
    return 0 if agree else 3


def _cmd_export_dot(ns, alg: BoundQuiverAlgebra) -> None:
    more = ([(ns.ar_output, ar_quiver_dot(ar_quiver(alg, max_nodes=ns.max_nodes)))]
            if ns.ar_output is not None else [])
    _emit(ns, quiver_dot(alg), *more)


def _cmd_gen_example(ns, alg: None) -> None:
    params = {key: getattr(ns, key) for key in ("levels", "n", "orientation", "variant")
              if getattr(ns, key) is not None}
    _emit(ns, generate_example(ns.name, **params))


def _node_count(text: str) -> int:
    """--max-nodes: a count the guard can take, 0 <= K < sys.maxsize."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= value < sys.maxsize:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer below {sys.maxsize}, not {text}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on first use: parsing leaves no
    state on it, so every main call can share it."""
    p = _Parser(prog="stringdet",
                description="Minimal right determiners over tree string algebras")
    sub = p.add_subparsers(dest="command", required=True)

    def report(name, help_, handler):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("input", help="quiver description file, or '-' for stdin")
        sp.add_argument("--format", choices=["text", "json"], default="text",
                        help="format of the certificate printed for an invalid input; "
                             "the DOT output is always DOT" if name == "export-dot" else None)
        sp.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
        sp.set_defaults(handler=handler)
        return sp

    report("validate", "print the validation certificate", _cmd_validate)
    report("classify", "vertex classification table", _cmd_classify)
    report("ideals", "vertex-ideal status table", _cmd_ideals)
    report("determiners", "determiner counting report", _cmd_determiners)
    for name, help_, handler in (("oracle", "brute-force determiner enumeration", _cmd_oracle),
                                 ("check", "engine vs oracle agreement", _cmd_check)):
        report(name, help_, handler).add_argument(
            "--max-nodes", type=_node_count, default=DEFAULT_MAX_NODES,
            help="refuse algebras with more indecomposables than this")
    sp = report("export-dot", "write DOT files", _cmd_export_dot)
    sp.add_argument("--ar-output", default=None,
                    help="also write the Auslander-Reiten quiver to this file")
    sp.add_argument("--max-nodes", type=_node_count, default=DEFAULT_MAX_NODES)
    sp = sub.add_parser("gen-example", help="emit an example input file")
    sp.add_argument("name", choices=sorted(GENERATORS))
    sp.add_argument("--levels", type=int, default=None, help="crossing-tree depth")
    sp.add_argument("--n", type=int, default=None, help="vertex count for line/fork")
    sp.add_argument("--orientation", default=None, help="'>'/'<' per edge for line/fork")
    sp.add_argument("--variant", default=None, help="fan5: 'both' or 'one'")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(handler=_cmd_gen_example)
    return p


def _nogc(fn):
    """fn with the cyclic garbage collector off for the call, and on again
    afterwards only if it was on before.  The engine and the oracle build
    acyclic records (tuples, dicts, NamedTuples and dataclasses of ints,
    strings and enum members) that reference counting frees, so a collection
    during a report would scan a heap that grows with the input and find
    nothing to free."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return wrapper


def _run(ns: argparse.Namespace) -> int:
    """Load the input of a report command and call the handler; a handler
    returns its exit code, None meaning 0."""
    if "input" not in ns:
        return ns.handler(ns, None) or 0
    # no name holds the document text, so it is freed before the report is built
    if ns.input == "-":
        alg = validate(parse_algebra(sys.stdin.read()))
    else:
        with open(ns.input, encoding="utf-8") as fh:
            alg = validate(parse_algebra(fh.read()))
    if not alg.is_valid:
        violations = list(alg.certificate.violations)
        _emit(ns, {"valid": False, "violations": violations} if ns.format == "json"
              else ["INVALID"] + [f"  - {v}" for v in violations])
        return 2
    return ns.handler(ns, alg) or 0


@_nogc
def main(argv: list[str] | None = None) -> int:
    """Run one command; the cyclic collector is off for the call, from the
    argument parsing (the first call builds the parser) to the exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        ns = _build_parser().parse_args(argv)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _run(ns)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GuardExceeded as exc:
        print(f"error: {exc}; raise --max-nodes to proceed", file=sys.stderr)
        return 1
    except OracleError as exc:
        print(f"oracle invariant breach: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())
