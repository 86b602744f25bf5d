import contextlib
import dataclasses
import gc
import io
import json
import os
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import stringdet
from stringdet import cli
from stringdet.arquiver import OracleError
from stringdet.algebra import parse_algebra, serialize, validate
from stringdet.cli import main
from stringdet.engine import determiner_report, dynkin_type
from stringdet.families import (crossing6_algebra, crossing_tree_algebra, fan5_algebra,
                                fork_algebra, generate_example, linear_algebra,
                                zigzag4_algebra)
from stringdet.taxonomy import VertexClass

from tree_algebras import iter_tree_algebras

PINNED = Path(__file__).parent / "data" / "cli"
CYCLE3 = "vertices: 3\narrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_ok(tmp_path, capsys):
    doc = generate_example("zigzag4")
    path = write(tmp_path, "q.txt", doc)
    assert main(["validate", path]) == 0
    assert "VALID" in capsys.readouterr().out


def test_validate_cycle(tmp_path, capsys):
    path = write(tmp_path, "cycle.txt", CYCLE3)
    assert main(["validate", path]) == 2
    out = capsys.readouterr().out
    assert "INVALID" in out and "tree" in out


def test_validate_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "nonsense\n")
    assert main(["validate", path]) == 1


# a branching violation at vertex 2 and at vertex 8, an out-degree one at 5
# and an in-degree one at 10
MIXED_VIOLATIONS = ("vertices: 12\narrow a: 1 -> 2\narrow b: 3 -> 2\narrow c: 2 -> 4\n"
                    "arrow d: 4 -> 5\narrow e: 5 -> 6\narrow f: 5 -> 7\narrow g: 5 -> 8\n"
                    "arrow h: 9 -> 8\narrow i: 8 -> 10\narrow j: 11 -> 10\narrow k: 12 -> 10\n")


def test_validate_lists_degree_violations_before_branching_ones(tmp_path, capsys):
    """validate walks the vertices once, and still certifies every degree
    violation before any branching one, each group in vertex order."""
    violations = ["vertex 5: out-degree 3 exceeds 2",
                  "vertex 10: in-degree 3 exceeds 2",
                  "vertex 2: incoming pair (a, b) with outgoing c needs a zero relation",
                  "vertex 8: incoming pair (g, h) with outgoing i needs a zero relation"]
    path = write(tmp_path, "mixed.txt", MIXED_VIOLATIONS)
    assert main(["validate", path]) == 2
    assert capsys.readouterr().out == "INVALID\n" + "".join(f"  - {v}\n" for v in violations)
    assert main(["validate", path, "--format", "json"]) == 2
    assert capsys.readouterr().out == json.dumps(
        {"valid": False, "violations": violations}, indent=2) + "\n"


# --------------------------------------------------------------------------
# the cyclic garbage collector is off for a main call, and as it was after

def _gc_scope_cases(tmp_path, monkeypatch):
    """(argv, exit code) for each exit code of main; the mismatch drops one
    projective determiner from the engine's report."""
    engine_report = cli.determiner_report

    def flipped(alg):
        report = engine_report(alg)
        return dataclasses.replace(report,
                                   projective_determiners=report.projective_determiners[1:])

    monkeypatch.setattr(cli, "determiner_report", flipped)
    good = write(tmp_path, "zigzag4.txt", generate_example("zigzag4"))
    return [(["classify", good], 0), (["check", good], 3), (["frobnicate"], 1),
            (["validate", write(tmp_path, "bad.txt", "nonsense\n")], 1),
            (["validate", write(tmp_path, "cycle.txt", CYCLE3)], 2)]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, tmp_path, capsys, monkeypatch):
    """For every exit code, and for an exception main does not handle, the
    collector is off inside the handler and as the caller had it after."""
    cases = _gc_scope_cases(tmp_path, monkeypatch)
    seen = []
    real = cli.vertex_classes

    def classes(alg):
        seen.append(gc.isenabled())
        return real(alg)

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        monkeypatch.setattr(cli, "vertex_classes", classes)
        for argv, code in cases:
            assert main(argv) == code, argv
            assert gc.isenabled() is enabled, argv
        monkeypatch.setattr(cli, "vertex_classes", mock.Mock(side_effect=RuntimeError("planted")))
        with pytest.raises(RuntimeError, match="planted"):
            main(cases[0][0])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert seen == [False]


def test_commands_leave_no_reference_cycles(tmp_path, capsys):
    """Reference counting frees everything a command builds, which is what
    lets main keep the collector off: after the first call has built the
    parser, a collection after each call finds nothing to free."""
    good = write(tmp_path, "crossing6.txt", generate_example("crossing6"))
    cases = [[cmd, good, "--format", fmt] for fmt in ("text", "json")
             for cmd in ("validate", "classify", "ideals", "determiners", "oracle", "check",
                         "export-dot")]
    cases += [["validate", write(tmp_path, "cycle.txt", CYCLE3)],
              ["validate", write(tmp_path, "bad.txt", "nonsense\n")],
              ["gen-example", "crossing-tree", "--levels", "2"]]
    main(cases[0])
    gc.collect()
    for argv in cases:
        main(argv)
        assert gc.collect() == 0, argv
    capsys.readouterr()


def test_determiners_starts_no_collection(tmp_path, capsys):
    """No cyclic collection starts while main reports on a line of 20,000
    vertices: the collector is off, so the count is exact, not timed."""
    path = write(tmp_path, "line.txt", generate_example("line", n=20000))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        code = main(["determiners", path, "--format", "json"])
        inside = len(starts)  # before anything else allocates
    finally:
        gc.callbacks.remove(count)
    assert (code, inside) == (0, 0)
    assert json.loads(capsys.readouterr().out)["formula_value"] == 39998


def test_classify_and_ideals(tmp_path, capsys):
    path = write(tmp_path, "q.txt", generate_example("fan5", variant="both"))
    assert main(["classify", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classes"]["4"] == "fork source"
    assert main(["ideals", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertex_ideals"]["3"]["kind"] == "zero"
    assert payload["vertex_ideals"]["3"]["witness"] == 4
    assert payload["vertex_ideals"]["4"] is None


def test_determiners_fan5(tmp_path, capsys):
    path = write(tmp_path, "q.txt", generate_example("fan5", variant="both"))
    assert main(["determiners", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["projective_determiners"] == [1, 2, 3, 5]
    assert payload["formula_value"] == 8
    assert payload["dynkin"]["shape"] == "D"


def test_check_agreement(tmp_path, capsys):
    path = write(tmp_path, "q.txt", generate_example("crossing-tree", levels=1))
    assert main(["check", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["agree"] is True
    assert payload["engine"]["total"] == 8
    assert payload["oracle"]["total"] == 8


def test_check_text_output(tmp_path, capsys):
    path = write(tmp_path, "q.txt", generate_example("zigzag4"))
    assert main(["check", path]) == 0
    assert "AGREE" in capsys.readouterr().out


def test_oracle_guard(tmp_path, capsys):
    path = write(tmp_path, "q.txt", generate_example("crossing-tree", levels=1))
    assert main(["oracle", path, "--max-nodes", "5"]) == 1
    assert "max-nodes" in capsys.readouterr().err


def test_oracle_output(tmp_path, capsys):
    path = write(tmp_path, "q.txt", generate_example("line", n=3))
    assert main(["oracle", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 4  # 2n - 2 for the single-sink line
    assert payload["indecomposables"] == 6


def test_export_dot(tmp_path):
    src = write(tmp_path, "q.txt", generate_example("zigzag4"))
    quiver_out = tmp_path / "quiver.dot"
    ar_out = tmp_path / "ar.dot"
    assert main(["export-dot", src, "-o", str(quiver_out),
                 "--ar-output", str(ar_out)]) == 0
    assert "digraph quiver" in quiver_out.read_text()
    text = ar_out.read_text()
    assert "digraph ar_quiver" in text and "rank=same" in text


def test_export_dot_refused_ar_quiver_writes_no_file(tmp_path, capsys):
    """A --max-nodes refusal exits 1 before either DOT file is written."""
    src = write(tmp_path, "ct3.txt", generate_example("crossing-tree", levels=3))
    quiver_out, ar_out = tmp_path / "q.dot", tmp_path / "ar.dot"
    assert main(["export-dot", src, "-o", str(quiver_out), "--ar-output", str(ar_out)]) == 1
    assert "more than 100 indecomposables" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["ct3.txt"]
    assert main(["export-dot", src, "-o", str(quiver_out), "--ar-output", str(ar_out),
                 "--max-nodes", "171"]) == 0
    assert quiver_out.read_text().startswith("digraph quiver")
    assert ar_out.read_text().startswith("digraph ar_quiver")


def test_export_dot_failed_ar_write_changes_no_file(tmp_path, capsys, monkeypatch):
    """When the --ar-output write fails, the -o file is neither created nor
    changed, and no temporary file is left behind."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "z.txt", generate_example("zigzag4"))
    argv = ["export-dot", "z.txt", "-o", "q.dot", "--ar-output", "nodir/ar.dot"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'nodir/ar.dot'" in err, err
    assert sorted(os.listdir(tmp_path)) == ["z.txt"]
    (tmp_path / "q.dot").write_bytes(b"digraph old {}\n")
    assert main(argv) == 1
    assert (tmp_path / "q.dot").read_bytes() == b"digraph old {}\n"
    assert sorted(os.listdir(tmp_path)) == ["q.dot", "z.txt"]


def test_export_dot_refuses_a_directory_before_writing(tmp_path, capsys, monkeypatch):
    """A directory as --ar-output fails the command before the -o file is
    replaced."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "z.txt", generate_example("zigzag4"))
    (tmp_path / "d").mkdir()
    (tmp_path / "q.dot").write_bytes(b"digraph old {}\n")
    assert main(["export-dot", "z.txt", "-o", "q.dot", "--ar-output", "d"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Is a directory: 'd'" in err, err
    assert (tmp_path / "q.dot").read_bytes() == b"digraph old {}\n"
    assert sorted(os.listdir(tmp_path)) == ["d", "q.dot", "z.txt"]
    assert os.listdir(tmp_path / "d") == []


def test_export_dot_failed_ar_write_prints_nothing(tmp_path, capsys, monkeypatch):
    """Without -o the quiver's DOT goes to stdout, and only once the
    --ar-output file is in place: a failed write leaves stdout empty."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "z.txt", generate_example("zigzag4"))
    assert main(["export-dot", "z.txt", "--ar-output", "nodir/ar.dot"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "'nodir/ar.dot'" in err, (out, err)
    assert sorted(os.listdir(tmp_path)) == ["z.txt"]
    assert main(["export-dot", "z.txt", "--ar-output", "ar.dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph quiver")
    assert (tmp_path / "ar.dot").read_text().startswith("digraph ar_quiver")


def test_export_dot_format_applies_to_the_certificate(tmp_path, capsys):
    """--format json gives the JSON certificate for an invalid input, and DOT
    for a valid one."""
    bad = write(tmp_path, "cycle.txt", CYCLE3)
    assert main(["export-dot", bad, "--format", "json"]) == 2
    pinned = (PINNED / "cycle3.validate.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == pinned
    good = write(tmp_path, "q.txt", generate_example("zigzag4"))
    assert main(["export-dot", good, "--format", "json"]) == 0
    assert capsys.readouterr().out.startswith("digraph quiver")


def test_output_error_names_the_given_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "z.txt", generate_example("zigzag4"))
    (tmp_path / "d").mkdir()
    for target in ("nodir/x.txt", "d"):
        assert main(["validate", "z.txt", "-o", target]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{target}'" in err, err
        assert ".stringdet-" not in err and "Traceback" not in err
    # no temporary file is left behind
    assert sorted(os.listdir(tmp_path)) == ["d", "z.txt"]
    assert os.listdir(tmp_path / "d") == []


def test_output_writes_through_a_symlink(tmp_path, monkeypatch):
    """-o on a symlink replaces the file it points to and keeps the link."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "real").mkdir()
    (tmp_path / "real" / "out.txt").write_text("old\n")
    (tmp_path / "link.txt").symlink_to("real/out.txt")
    assert main(["gen-example", "zigzag4", "-o", "link.txt"]) == 0
    assert (tmp_path / "link.txt").is_symlink()
    assert (tmp_path / "real" / "out.txt").read_text() == generate_example("zigzag4")
    # the temporary file was staged beside the target, and is gone
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "real"]
    assert os.listdir(tmp_path / "real") == ["out.txt"]


def test_output_writes_into_a_fifo(tmp_path):
    """-o on a FIFO writes into it, as open(path, "w") would, and leaves it a
    FIFO."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    # a daemon, so that a write that misses the FIFO fails the test, not the run
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    try:
        assert main(["gen-example", "zigzag4", "-o", str(fifo)]) == 0
    finally:
        reader.join(timeout=30)
    assert got == [generate_example("zigzag4")]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_output_to_stdout_touches_no_file(tmp_path, capsys):
    """Without -o nothing is resolved, stat'ed or staged."""
    path = write(tmp_path, "q.txt", generate_example("zigzag4"))

    def refuse(*args, **kwargs):
        raise AssertionError("filesystem call without -o")

    with mock.patch.object(os.path, "realpath", refuse), \
            mock.patch.object(os.path, "exists", refuse), mock.patch.object(os, "stat", refuse), \
            mock.patch.object(cli.tempfile, "mkstemp", refuse):
        code = main(["determiners", path, "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["formula_value"] == 6


@pytest.mark.parametrize("ar_output", ["a.dot", "./a.dot", "sub/../a.dot", "link.dot"])
def test_export_dot_refuses_one_file_for_both_outputs(ar_output, tmp_path, capsys, monkeypatch):
    """-o and --ar-output naming one file, however spelled, is refused with
    exit code 1, naming the file, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "z.txt", generate_example("zigzag4"))
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.dot").symlink_to("a.dot")
    before = sorted(os.listdir(tmp_path))
    assert main(["export-dot", "z.txt", "-o", "a.dot", "--ar-output", ar_output]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and f"'{ar_output}'" in err, err
    assert "'a.dot'" in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == before
    (tmp_path / "a.dot").write_text("digraph old {}\n")
    assert main(["export-dot", "z.txt", "-o", "a.dot", "--ar-output", ar_output]) == 1
    assert (tmp_path / "a.dot").read_text() == "digraph old {}\n"
    assert sorted(os.listdir(tmp_path)) == sorted(before + ["a.dot"])


@pytest.mark.parametrize("argv", [["export-dot", "z.txt", "--ar-output", ""],
                                  ["export-dot", "z.txt", "-o", "q.dot", "--ar-output", ""],
                                  ["determiners", "z.txt", "-o", ""]],
                         ids=["ar-output", "both", "output"])
def test_empty_output_path_is_refused(argv, tmp_path, capsys, monkeypatch):
    """An empty path is not taken for an absent one, nor resolved to the
    working directory: the command exits 1 saying so, and writes nothing,
    here or in the parent directory."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    write(work, "z.txt", generate_example("zigzag4"))
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: output path is empty\n")
    assert os.listdir(work) == ["z.txt"]
    assert os.listdir(tmp_path) == ["work"]


@pytest.mark.parametrize("args,name", [(["zigzag4", "--n", "5"], "n"),
                                       (["line", "--levels", "3"], "levels"),
                                       (["crossing6", "--variant", "one"], "variant"),
                                       (["fan5", "--orientation", ">"], "orientation"),
                                       (["crossing-tree", "--n", "4"], "n"),
                                       (["fork", "--variant", "both"], "variant")])
def test_gen_example_refuses_a_parameter_its_generator_does_not_take(args, name, capsys):
    assert main(["gen-example", *args]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and f"parameter '{name}'" in err, err
    assert "Traceback" not in err and "TypeError" not in err


@pytest.mark.parametrize("args,expected", [
    (["crossing6"], lambda: crossing6_algebra()),
    (["zigzag4"], lambda: zigzag4_algebra()),
    (["fan5"], lambda: fan5_algebra("both")),
    (["fan5", "--variant", "one"], lambda: fan5_algebra("one")),
    (["crossing-tree"], lambda: crossing_tree_algebra(1)),
    (["crossing-tree", "--levels", "2"], lambda: crossing_tree_algebra(2)),
    (["line"], lambda: linear_algebra(4)),
    (["line", "--n", "5", "--orientation", "><><"], lambda: linear_algebra(5, "><><")),
    (["fork"], lambda: fork_algebra(5)),
    (["fork", "--n", "6", "--orientation", "<<>><"], lambda: fork_algebra(6, "<<>><")),
])
def test_gen_example_takes_each_generator_parameter(args, expected, capsys):
    assert main(["gen-example", *args]) == 0
    assert capsys.readouterr().out == serialize(expected())


def test_gen_example_to_file(tmp_path):
    out = tmp_path / "gen.txt"
    assert main(["gen-example", "crossing6", "-o", str(out)]) == 0
    body = out.read_text()
    assert body.startswith("vertices: 1, 2, 3, 4, 5, 6")
    assert main(["validate", str(out)]) == 0


@pytest.mark.parametrize("args", [["line", "--n", str(10**6 + 1)],
                                  ["line", "--n", str(10**30)],
                                  ["crossing-tree", "--levels", "12"],
                                  ["crossing-tree", "--levels", str(10**20)]],
                         ids=["line-1e6+1", "line-1e30", "crossing-tree-12", "crossing-tree-1e20"])
def test_gen_example_refuses_huge_examples(args, capsys):
    """An example of more than 10^6 vertices is refused before it is built."""
    start = time.perf_counter()
    assert main(["gen-example", *args]) == 1
    assert time.perf_counter() - start < 5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "1000000" in err, err
    assert "Traceback" not in err


def test_output_file_gets_the_mode_open_would_give(tmp_path):
    """-o leaves 0o666 less the umask on a new file, and keeps the mode of a
    file it replaces, as open(path, "w") would."""
    out = tmp_path / "gen.txt"
    old_umask = os.umask(0o022)
    try:
        assert main(["gen-example", "zigzag4", "-o", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        os.umask(0o077)
        out.chmod(0o640)
        assert main(["gen-example", "zigzag4", "-o", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        fresh = tmp_path / "fresh.txt"
        assert main(["gen-example", "zigzag4", "-o", str(fresh)]) == 0
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o600
    finally:
        os.umask(old_umask)
    assert out.read_text() == fresh.read_text() == generate_example("zigzag4")


def test_vertex_count_beyond_document_rejected(tmp_path, capsys):
    # rejected from the line count before any vertex list is built
    path = write(tmp_path, "huge.txt", "vertices: 100000000000\narrow a: 1 -> 2\n")
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line count 2" in err
    assert "Traceback" not in err


def test_usage_errors(capsys):
    assert main([]) == 1
    assert main(["gen-example", "nonesuch"]) == 1
    assert main(["validate", "/no/such/file"]) == 1


@pytest.mark.parametrize("command", ["oracle", "check", "export-dot"])
@pytest.mark.parametrize("value", ["-1", "-2", str(sys.maxsize)])
def test_max_nodes_out_of_range_is_a_usage_error(command, value, tmp_path, capsys):
    path = write(tmp_path, "q.txt", generate_example("zigzag4"))
    assert main([command, path, "--max-nodes", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --max-nodes:") and value in err, err
    assert "islice" not in err and "indecomposables" not in err


def test_single_vertex_unsupported_for_reports(tmp_path, capsys):
    path = write(tmp_path, "one.txt", "vertices: 1\n")
    assert main(["validate", path]) == 0
    capsys.readouterr()
    assert main(["oracle", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == 0
    # the counting formula needs at least two vertices
    assert main(["determiners", path]) == 1
    assert "two vertices" in capsys.readouterr().err


def test_stdin_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(generate_example("zigzag4")))
    assert main(["validate", "-"]) == 0


def test_check_refuses_long_line_under_default_guard(tmp_path, capsys):
    # 150 vertices give 11,325 indecomposables; the guard refuses after 101
    path = write(tmp_path, "line.txt", generate_example("line", n=150))
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert "max-nodes" in err and "more than 100 indecomposables" in err
    assert "Traceback" not in err


def _src_env():
    """The environment with this package's source directory on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(stringdet.__file__))
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def _fresh_process(argv):
    """(exit code, stdout, stderr) of main(argv) in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from stringdet.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env=_src_env(), capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_python_m_stringdet_runs_the_command_line(tmp_path):
    """`python -m stringdet` runs the CLI without installing: check on
    crossing6 prints AGREE and exits 0."""
    path = write(tmp_path, "crossing6.txt", generate_example("crossing6"))
    proc = subprocess.run([sys.executable, "-m", "stringdet", "check", path],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "AGREE"


def test_main_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    """The argparse parser is built once per process and reused, and the
    linear algebra memo is shared by every call: a check, a usage error and
    a determiners call, then oracle, check and export-dot with its AR quiver
    on four algebras, all in a row, each print (and write) what a fresh
    process prints."""
    path = write(tmp_path, "q.txt", generate_example("zigzag4"))
    calls = [["check", path], ["check", path, "--format", "yaml"],
             ["determiners", path, "--format", "json"]]
    for name, params in (("zigzag4", {}), ("crossing6", {}), ("fan5", {}),
                         ("crossing-tree", {"levels": 2})):
        doc = write(tmp_path, f"{name}.txt", generate_example(name, **params))
        ar_out = str(tmp_path / f"{name}.ar.dot")
        calls += [["oracle", doc, "--format", "json"], ["check", doc],
                  ["export-dot", doc, "--ar-output", ar_out]]

    def ar_text(argv):
        """The AR quiver file an export-dot call wrote, removed once read."""
        if "--ar-output" not in argv:
            return None
        out = Path(argv[argv.index("--ar-output") + 1])
        text = out.read_text(encoding="utf-8")
        out.unlink()
        return text

    results = []
    for argv in calls:
        code = main(argv)
        out, err = capsys.readouterr()
        results.append((code, out, err, ar_text(argv)))
    assert [code for code, _, _, _ in results] == [0, 1] + [0] * (len(calls) - 2)
    assert results[1][2].startswith("usage error: argument --format")
    assert all(text.startswith("digraph ar_quiver") for *_, text in results if text)
    assert results == [(*_fresh_process(argv), ar_text(argv)) for argv in calls]
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("example,command,fmt", [
    *(("zigzag4", command, fmt)
      for command in ("validate", "classify", "ideals", "determiners", "oracle", "check")
      for fmt in ("text", "json")),
    ("cycle3", "validate", "text"), ("cycle3", "validate", "json")])
def test_output_matches_pinned_file(example, command, fmt, tmp_path, capsys):
    """stdout is byte for byte the file under tests/data/cli, and the 3-cycle
    gets its invalid certificate with exit code 2."""
    doc = CYCLE3 if example == "cycle3" else generate_example(example)
    path = write(tmp_path, "q.txt", doc)
    assert main([command, path, "--format", fmt]) == (2 if example == "cycle3" else 0)
    pinned = (PINNED / f"{example}.{command}.{fmt}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == pinned


# --------------------------------------------------------------------------
# the JSON renderer: json.dumps(doc, sort_keys=True, indent=2), byte for byte

_ADVERSARIAL = st.sampled_from(["},\x00{", ",\x00", "\x00", "\n", '"', "\\", "}, {", "",
                                "déterminant", "\u20ac\U0001d11e", "\ud800", "a\udfffb"])
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
                          _ADVERSARIAL)
_JSON_KEYS = st.one_of(st.text(max_size=4), _ADVERSARIAL)
_FLAT_DICTS = st.dictionaries(_JSON_KEYS, _JSON_SCALARS, max_size=4)


def _json_containers(children):
    """Lists, tuples and dicts of children, and lists of flat dicts, some
    of them empty: the shape the renderer encodes in one C call."""
    return st.one_of(st.lists(children, max_size=4), st.lists(children, max_size=3).map(tuple),
                     st.dictionaries(_JSON_KEYS, children, max_size=4),
                     st.lists(_FLAT_DICTS, max_size=4))


@settings(max_examples=500, deadline=None)
@given(doc=st.recursive(_JSON_SCALARS, _json_containers, max_leaves=25))
def test_render_is_json_dumps_with_indent_2(doc):
    assert cli._render(doc) + "\n" == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    {1: "a"}, {"a": {2: None}}, [{"a": 1}, {3: 4}], [{"a": 1}, {"b": {1, 2}}],
    {"a": object()}, [b"bytes"], frozenset(), [[{"a": 1.5}], {"b": complex(1, 2)}]])
def test_render_refuses_what_a_report_never_holds(doc):
    """A non-str key or a value outside str, int, float, bool, None, dict,
    list and tuple raises TypeError, even where json.dumps would convert
    it."""
    with pytest.raises(TypeError):
        cli._render(doc)


_REPORTS = ("validate", "classify", "ideals", "determiners", "oracle", "check")
_LINE_5000 = generate_example(
    "line", n=5000, orientation="".join("<" if i % 97 == 3 else ">" for i in range(4999)))
_CROSSING_TREE_4 = generate_example("crossing-tree", levels=4)


_INVALID_AT_SCALE = (
    _LINE_5000 + "arrow z: 5000 -> 1\n",  # closes a cycle
    "".join(line + "\n" for line in _CROSSING_TREE_4.splitlines()  # no branching relation
            if not line.startswith("relation")))


@pytest.mark.parametrize("doc,command,code", [
    *((_LINE_5000, command, 0) for command in _REPORTS[:4]),
    *((_CROSSING_TREE_4, command, 0) for command in _REPORTS),
    *((doc, "validate", 2) for doc in _INVALID_AT_SCALE)],
    ids=[*(f"line5000-{c}" for c in _REPORTS[:4]), *(f"crossing-tree4-{c}" for c in _REPORTS),
         "line5000-cycle", "crossing-tree4-no-relations"])
def test_json_reports_at_scale_are_sorted_indented_json(doc, command, code, tmp_path, capsys):
    """Every JSON report on a 5000-vertex line and on crossing-tree level 4,
    and the certificates of two invalid documents, are the bytes of
    json.dumps(sort_keys=True, indent=2).  oracle and check run on the tree
    only: the line has 12.5 million indecomposables."""
    path = write(tmp_path, "q.txt", doc)
    guard = ["--max-nodes", "600"] if command in ("oracle", "check") else []
    assert main([command, path, "--format", "json", *guard]) == code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def _determiners_json(alg, report) -> str:
    return json.dumps({**report.to_dict(), "dynkin": {
        **dynkin_type(alg).to_dict(), "p": report.p, "q": report.q}},
        sort_keys=True, indent=2) + "\n"


def _witnesses(report) -> int:
    return sum(d.ideal is not None and d.ideal.witness is not None for d in report.decisions)


def test_determiners_json_says_what_the_report_says(tmp_path, capsys):
    """determiners --format json prints json.dumps of the report's dict: on
    every sweep algebra with n <= 4 (seven vertex classes, 198 witnesses),
    crossing-tree levels 1-5 (the crossing class, 2-269 witnesses a level),
    the 5000-vertex line and a two-vertex algebra (two rows, two shapes)."""
    groups = {
        "sweep": [alg for n in (2, 3, 4) for alg in iter_tree_algebras(n)],
        **{f"crossing-tree {k}": [crossing_tree_algebra(k)] for k in range(1, 6)},
        "line 5000": [validate(parse_algebra(_LINE_5000))],
        "two vertices": [validate(parse_algebra("vertices: 2\narrow a: 1 -> 2\n"))]}
    classes, witnesses = {}, {}
    for group, algebras in groups.items():
        classes[group], witnesses[group] = set(), 0
        for alg in algebras:
            report = determiner_report(alg)
            path = write(tmp_path, "q.txt", serialize(alg))
            assert main(["determiners", path, "--format", "json"]) == 0
            assert capsys.readouterr().out == _determiners_json(alg, report)
            classes[group].update(d.vertex_class for d in report.decisions)
            witnesses[group] += _witnesses(report)
    assert len(classes["sweep"]) == 7 and witnesses["sweep"] == 198
    assert VertexClass.CROSSING in classes["crossing-tree 1"]
    assert [witnesses[f"crossing-tree {k}"] for k in range(1, 6)] == [2, 9, 29, 89, 269]
    assert classes["two vertices"] == {VertexClass.SOURCE_LEAF, VertexClass.SINK_LEAF}


def test_determiners_json_rows_hold_any_rule_text(tmp_path, capsys, monkeypatch):
    """A rule with %, {}, quotes and the row's own key text in it is printed
    as json.dumps prints it: rows are filled by position, not by text."""
    engine_report = cli.determiner_report
    odd = ' 100% {} {0} %s "vertex": 0, \\"witness\\": 0 \u00e9\n'

    def odd_rules(alg):
        report = engine_report(alg)
        return dataclasses.replace(report, decisions=tuple(
            d._replace(rule=d.rule + odd) for d in report.decisions))

    monkeypatch.setattr(cli, "determiner_report", odd_rules)
    for alg in (crossing_tree_algebra(3), validate(parse_algebra(generate_example("zigzag4")))):
        path = write(tmp_path, "q.txt", serialize(alg))
        assert main(["determiners", path, "--format", "json"]) == 0
        assert capsys.readouterr().out == _determiners_json(alg, odd_rules(alg))


def test_check_mismatch_exits_3(tmp_path, capsys, monkeypatch):
    """An engine report with one projective determiner dropped disagrees with
    the oracle: MISMATCH in text, agree false in JSON, exit code 3."""
    engine_report = cli.determiner_report

    def flipped(alg):
        report = engine_report(alg)
        return dataclasses.replace(report,
                                   projective_determiners=report.projective_determiners[1:])

    monkeypatch.setattr(cli, "determiner_report", flipped)
    path = write(tmp_path, "q.txt", generate_example("zigzag4"))
    assert main(["check", path]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == "MISMATCH"
    assert main(["check", path, "--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out)["agree"] is False


@pytest.mark.parametrize("command", ["oracle", "check"])
def test_oracle_breach_exits_3(command, tmp_path, capsys, monkeypatch):
    def breach(alg, max_nodes=None):
        raise OracleError("planted breach")

    monkeypatch.setattr(cli, "brute_force_det", breach)
    path = write(tmp_path, "q.txt", generate_example("zigzag4"))
    assert main([command, path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("oracle invariant breach:") and "planted breach" in err
    assert "Traceback" not in err


# --------------------------------------------------------------------------
# fuzzing main on generated and mutated documents

_HUGE_IDS = ("9" * 40, "1" + "0" * 5000, "0" * 30 + "7")
_ids = st.one_of(st.integers(0, 7).map(str), st.sampled_from(_HUGE_IDS))
_names = st.sampled_from(["a", "b", "c", "a1", "b_2", "x"])


@st.composite
def _documents(draw):
    """A small quiver document, often invalid: vertex lists with repeats
    and huge ids, arrows with unknown ends, loops and cycles, duplicate
    names, relations over any names; then some lines truncated, dropped or
    repeated."""
    if draw(st.booleans()):
        lines = [f"vertices: {draw(st.sampled_from(['1', '3', '5', '6', _HUGE_IDS[0]]))}"]
    else:
        lines = ["vertices: " + ", ".join(draw(st.lists(_ids, min_size=1, max_size=6)))]
    for _ in range(draw(st.integers(0, 6))):
        lines.append(f"arrow {draw(_names)}: {draw(_ids)} -> {draw(_ids)}")
    for _ in range(draw(st.integers(0, 2))):
        lines.append("relation: " + " ".join(draw(st.lists(_names, min_size=1, max_size=3))))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["truncate", "drop", "repeat"]))
        if action == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        elif action == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
        if not lines:
            break
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@st.composite
def _trees(draw):
    """A labeled tree on up to six vertices with every length-two path
    killed, which is valid, or that tree with one more arrow: a loop, or an
    edge that closes a cycle."""
    n = draw(st.integers(2, 6))
    arrows = []
    for v in range(2, n + 1):
        u = draw(st.integers(1, v - 1))
        arrows.append((f"e{v}", *((u, v) if draw(st.booleans()) else (v, u))))
    extra = draw(st.sampled_from(["none", "loop", "cycle"]))
    if extra != "none":
        u = draw(st.integers(1, n))
        v = u if extra == "loop" else draw(st.integers(1, n).filter(lambda w: w != u))
        arrows.append(("z", u, v))
    lines = [f"vertices: {n}"]
    lines += [f"arrow {name}: {s} -> {t}" for name, s, t in arrows]
    lines += [f"relation: {a} {b}" for a, s, t in arrows for b, s2, _ in arrows if s2 == t]
    return "\n".join(lines) + "\n"


_REPORT_COMMANDS = ["validate", "classify", "ideals", "determiners", "oracle", "check",
                    "export-dot"]


@settings(max_examples=200, deadline=None)
@given(doc=st.one_of(_documents(), _trees()),
       command=st.sampled_from(_REPORT_COMMANDS), fmt=st.sampled_from(["text", "json"]))
def test_main_on_generated_and_mutated_documents(doc, command, fmt):
    """Whatever the document, main answers with exit code 0, 1 or 2 and a
    message, never a traceback.  A vertex id too long for int() is refused
    as a parse error that names its line, on every Python version."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(doc)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "-", "--format", fmt])
    assert code in (0, 1, 2), (doc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error:")
    assert "int_max_str_digits" not in err.getvalue()
    if "characters is longer than the limit" in err.getvalue():
        assert err.getvalue().endswith(")\n") and "(line " in err.getvalue()
