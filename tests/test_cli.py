"""Command line behaviour: exit codes, text, JSON, DOT, corpus batches."""

import json
import os
import subprocess
import sys

import pytest

import syllogist
from syllogist import (
    catalog,
    cli,
    decide,
    inference,
    normalize,
    parse_any,
    parse_corpus,
    premiss_chain,
    render_block,
    splice_existence,
)
from syllogist.cli import main, trace_dot

from test_chains import count_calls, count_value_equality


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- check ------------------------------------------------------------------

def test_check_valid(capsys):
    code, out, _ = run(capsys, "check", "AEE-2")
    assert code == 0
    assert out.strip() == "AEE-2: valid"


def test_check_invalid(capsys):
    code, out, _ = run(capsys, "check", "OEI-4")
    assert code == 1
    assert out.strip() == "OEI-4: invalid"


def test_check_conditional(capsys):
    code, out, _ = run(capsys, "check", "AAI-3 +M")
    assert code == 0
    assert out.strip() == "AAI-3 +M: valid under: there is some M"


def test_check_block_notation(capsys):
    code, out, _ = run(capsys, "check", "All M is P; All S is M; All S is P")
    assert code == 0
    assert out.endswith("valid\n")


def test_check_parse_error(capsys):
    code, _, err = run(capsys, "check", "AAB-1")
    assert code == 2
    assert "mood letters" in err
    assert "chars 2..3" in err


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--format", "json", "EAO-4 +M")
    assert code == 0
    data = json.loads(out)
    assert data["input"] == "EAO-4 +M"
    assert data["verdict"] == "valid-with-assumption"
    assert data["assumption"] == "M"
    assert data["trace"]["normal_form"] == "S <- * -> * <- P"


def test_check_json_invalid_has_no_trace(capsys):
    code, out, _ = run(capsys, "check", "--format", "json", "OEI-4")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "invalid"
    assert data["assumption"] is None
    assert data["trace"] is None


@pytest.mark.parametrize("command", ["check", "trace", "parse"])
def test_syllogism_and_corpus_together_is_a_usage_error(tmp_path, capsys, command):
    corpus = tmp_path / "one.syl"
    corpus.write_text("EAE-1\n")
    for argv in (["OEI-4", "--corpus", str(corpus)], ["--corpus", str(corpus), "OEI-4"]):
        with pytest.raises(SystemExit) as exc:
            main([command, *argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "not allowed with argument" in captured.err


def test_missing_input(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2
    assert "nothing to parse" in err


@pytest.mark.parametrize("argv, message", [
    (("check", "AAB-1"), "mood letters are A, E, I or O, got 'B' (chars 2..3)"),
    (("trace", "--format", "json", "All_M"),
     "a syllogism block holds exactly three propositions, found 1 (chars 0..5)"),
    (("check", "--corpus", "bad.syl"),
     "expected 'All X is Y', 'No X is Y', 'Some X is Y' or 'Some X is not Y' (chars 19..28)"),
    (("parse",), "nothing to parse: give a syllogism or --corpus FILE"),
    (("check", "--format", "dot"), "nothing to parse: give a syllogism or --corpus FILE"),
])
def test_every_notation_error_exits_2_with_its_span(tmp_path, monkeypatch, capsys, argv, message):
    # the report path catches the parser's error itself; main never imports it
    (tmp_path / "bad.syl").write_text("AAA-1\n\nAll M is P; Some S is; All S is P\n")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["check", "trace", "parse"])
def test_empty_corpus_name_is_a_missing_file(capsys, command):
    code, out, err = run(capsys, command, "--corpus", "")
    assert code == 2
    assert out == ""
    assert err == "error: [Errno 2] No such file or directory: ''\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# --- trace ------------------------------------------------------------------

def test_trace_single_step(capsys):
    code, out, _ = run(capsys, "trace", "AAA-1")
    assert code == 0
    lines = out.splitlines()
    assert "chain: S -> M -> P" in lines
    assert "step 1: delete M at 1: S -> M -> P => S -> P" in lines
    assert "normal form: S -> P" in lines
    assert "verdict: valid" in lines


def test_trace_universal_negative(capsys):
    code, out, _ = run(capsys, "trace", "EAE-1")
    assert code == 0
    assert sum(1 for line in out.splitlines() if line.startswith("step ")) == 1
    assert "normal form: S -> * <- P" in out


def test_trace_invalid_shows_the_stuck_chain(capsys):
    code, out, _ = run(capsys, "trace", "OEI-4")
    assert code == 1
    assert "chain: S -> * <- M -> * <- * -> P" in out
    assert "normal form: S -> * <- M -> * <- * -> P" in out
    assert "verdict: invalid" in out
    assert "step " not in out


def test_trace_json_invalid_shows_the_stuck_chain(capsys):
    # check --format json gives "trace": null here (test_check_json_invalid_has_no_trace)
    stuck = "S -> * <- M -> * <- * -> P"
    code, out, _ = run(capsys, "trace", "--format", "json", "OEI-4")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "invalid"
    assert data["trace"] == {"initial": stuck, "steps": [], "normal_form": stuck}


def test_trace_json(capsys):
    code, out, _ = run(capsys, "trace", "--format", "json", "AAA-1")
    assert code == 0
    data = json.loads(out)
    assert data["trace"]["initial"] == "S -> M -> P"
    assert len(data["trace"]["steps"]) == 1


def test_trace_dot(capsys):
    code, out, _ = run(capsys, "trace", "--format", "dot", "AEE-2")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("subgraph") == 2
    assert "shape=point" in out
    assert "i2 -> i1;" in out  # leftward arrow renders as a reversed edge


@pytest.mark.parametrize("notation", ["AEE-2", "OEI-4", "AAI-3 +M"])
def test_check_dot_matches_trace_dot(capsys, notation):
    assert run(capsys, "check", "--format", "dot", notation) == run(
        capsys, "trace", "--format", "dot", notation
    )


@pytest.mark.parametrize(
    "notation, label",
    [
        ('AAA-1 # say "hi"', 'AAA-1 # say \\"hi\\": valid'),
        ("OEI-4 # a\\l b\\", "OEI-4 # a\\\\l b\\\\: invalid"),
    ],
)
def test_dot_label_escapes_the_input(capsys, notation, label):
    _code, out, _ = run(capsys, "check", "--format", "dot", notation)
    assert out.splitlines()[2] == f'  label="{label}";'


# --- tables, laws, count ----------------------------------------------------

def test_tables_text(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert "AAA" in out
    assert "there is some M" in out
    assert "calculus/oracle agreement: 1024/1024 rows" in out


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1024
    assert all(row["agree"] for row in rows)
    valid = [r for r in rows if r["assumption"] is None and r["calculus"] == "valid"]
    assert len(valid) == 15


TABLES_TEXT = [
    "valid syllogisms",
    "fig. 1  fig. 2  fig. 3  fig. 4",
    "AAA     AEE     AII     AEE",
    "AII     AOO     EIO     EIO",
    "EAE     EAE     IAI     IAI",
    "EIO     EIO     OAO",
    "",
    "valid under an assumption of existence",
    "fig. 1  fig. 2  fig. 3  fig. 4  assumption",
    "AAI     AEO             AEO     there is some S",
    "EAO     EAO",
    "                AAI     EAO     there is some M",
    "                EAO",
    "                        AAI     there is some P",
    "",
    "calculus/oracle agreement: 1024/1024 rows",
]


def test_tables_text_layout(capsys):
    # byte for byte: column widths, headers and blank lines split the output into sections
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert out == "\n".join(TABLES_TEXT) + "\n"


def cli_env(unbuffered: bool | None = None) -> dict:
    """This environment, with PYTHONUNBUFFERED set to 1, unset, or (None) as it is."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(syllogist.__file__))}
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return env


def close_after_first_line(argv, env) -> tuple[bytes, int, bytes]:
    """Run the CLI, read one line of its output and close the pipe."""
    with subprocess.Popen(
        [sys.executable, "-m", "syllogist.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    return first, proc.returncode, err


def test_a_closed_output_pipe_ends_the_run_quietly():
    # the json table is about 141 KB, more than a 64 KiB pipe buffer holds, so
    # the writer is still writing when the reader closes its end
    assert close_after_first_line(["tables", "--format", "json"], cli_env()) == (b"[\n", 141, b"")


# The console script's entry, on the arguments after -c, in a process that
# has registered an atexit hook.  A hook runs on the interpreter's normal
# exit and not on the hard exit that ends run().
RUN_WITH_ATEXIT_HOOK = """\
import atexit, sys
atexit.register(sys.stderr.write, "atexit hook ran\\n")
from syllogist.cli import run
run()
"""


def run_in_child(argv, unbuffered: bool, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Call ``cli.run()`` in a child process: it ends the process that calls it."""
    return subprocess.run(
        [sys.executable, "-c", RUN_WITH_ATEXIT_HOOK, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=cli_env(unbuffered),
        timeout=60,
    )


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_run_flushes_its_output_then_skips_the_teardown(capsys, unbuffered):
    # the json table is about 141 KB, more than stdout's buffer holds
    _, out, _ = run(capsys, "tables", "--format", "json")
    done = run_in_child(["tables", "--format", "json"], unbuffered)
    assert (done.returncode, done.stdout, done.stderr) == (0, out.encode(), b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_run_exits_2_with_the_error_on_stderr(unbuffered):
    done = run_in_child(["check", "AXA-1"], unbuffered)
    err = b"error: mood letters are A, E, I or O, got 'X' (chars 1..2)\n"
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_run_leaves_a_failed_flush_to_the_interpreters_exit():
    # tables' text fits stdout's buffer, so main's flush is the first write to
    # meet the full device and what it could not write is still buffered when
    # run() flushes; the interpreter's exit flushes once more, reports that
    # and exits 120, as it does for any command that exits normally
    with open("/dev/full", "wb") as full:
        done = run_in_child(["tables"], False, stdout=full)
    assert done.returncode == 120
    assert done.stderr.startswith(b"error: [Errno 28] No space left on device\n")
    assert b"Traceback" not in done.stderr


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_tables_exit_1_on_a_disagreement(capsys, monkeypatch, fmt):
    oracle = catalog.semantic_verdict
    barbara = parse_any("AAA-1")

    def one_wrong(s):
        return syllogist.Verdict(syllogist.Validity.INVALID) if s == barbara else oracle(s)

    monkeypatch.setattr(catalog, "semantic_verdict", one_wrong)
    code, out, _ = run(capsys, "tables", "--format", fmt)
    assert code == 1
    if fmt == "json":
        disagree = [(r["mood"], r["figure"], r["assumption"]) for r in json.loads(out) if not r["agree"]]
        assert disagree == [("AAA", 1, None)]
    else:
        assert "calculus/oracle agreement: 1023/1024 rows" in out


def test_laws(capsys):
    code, out, _ = run(capsys, "laws")
    assert code == 0
    assert "derived 10/10; non-reducing 2/2" in out


def test_laws_json(capsys):
    code, out, _ = run(capsys, "laws", "--format", "json")
    assert code == 0
    results = json.loads(out)
    assert len(results) == 12
    assert all(r["ok"] for r in results)


def test_count_three(capsys):
    code, out, _ = run(capsys, "count", "3")
    assert code == 0
    assert "24" in out
    assert "match" in out


def test_count_mismatch_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(catalog, "count_valid_nterm", lambda n: 25)
    code, out, _ = run(capsys, "count", "3")
    assert code == 1
    assert "3n^2-n = 24 (MISMATCH)" in out


def test_count_json(monkeypatch, capsys):
    code, out, _ = run(capsys, "count", "3", "--format", "json")
    assert code == 0
    assert out == json.dumps({"n": 3, "count": 24, "formula": 24, "match": True}, indent=2) + "\n"
    monkeypatch.setattr(catalog, "count_valid_nterm", lambda n: 25)
    code, out, _ = run(capsys, "count", "3", "--format", "json")
    assert code == 1
    assert json.loads(out)["match"] is False


def test_count_unsupported(capsys):
    code, out, err = run(capsys, "count", "7")
    assert code == 2
    assert out == ""
    assert err == "error: n-term counting supports n from 3 to 6, got 7\n"
    code, out, err = run(capsys, "count", "2")
    assert code == 2
    assert out == ""
    assert err == "error: n-term counting supports n from 3 to 6, got 2\n"


# --- corpus batches ---------------------------------------------------------

def test_corpus_all_valid(tmp_path, capsys):
    corpus = tmp_path / "good.syl"
    corpus.write_text("AAA-1\n\nAll P is M; No S is M; No S is P\n\nEAO-3 +M\n")
    code, out, _ = run(capsys, "check", "--corpus", str(corpus))
    assert code == 0
    assert out.splitlines() == [
        "AAA-1: valid",
        "AEE-2: valid",
        "EAO-3 +M: valid under: there is some M",
    ]


def test_corpus_with_an_invalid_entry(tmp_path, capsys):
    corpus = tmp_path / "mixed.syl"
    corpus.write_text("AAA-1\n\nOEI-4\n")
    code, out, _ = run(capsys, "check", "--corpus", str(corpus))
    assert code == 1
    assert "OEI-4: invalid" in out


def test_corpus_with_a_parse_error(tmp_path, capsys):
    corpus = tmp_path / "broken.syl"
    corpus.write_text("AAA-1\n\nAAB-1\n")
    code, _, err = run(capsys, "check", "--corpus", str(corpus))
    assert code == 2
    assert "chars 9..10" in err


def test_corpus_spans_are_offsets_into_the_file_as_written(tmp_path, capsys):
    corpus = tmp_path / "crlf.syl"
    corpus.write_bytes(b"AAA-1\r\n\r\nAAB-1\r\n")
    code, _, err = run(capsys, "check", "--corpus", str(corpus))
    assert code == 2
    assert "chars 11..12" in err


def test_corpus_that_is_not_utf8(tmp_path, capsys):
    corpus = tmp_path / "latin1.syl"
    corpus.write_bytes(b"AAA-1\n\nAll caf\xe9 is P; All S is caf\xe9; All S is P\n")
    code, _, err = run(capsys, "check", "--corpus", str(corpus))
    assert code == 2
    assert "utf-8" in err


@pytest.mark.parametrize("text", ["AAA-1\n\nEAE-1\n", "AAA-1\n\nAAB-1\n"])
def test_corpus_with_a_byte_order_mark(tmp_path, capsys, text):
    # spans count characters after the mark, so both files report the same
    plain, marked = tmp_path / "plain.syl", tmp_path / "bom.syl"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert run(capsys, "check", "--corpus", str(marked)) == run(
        capsys, "check", "--corpus", str(plain)
    )


def test_corpus_missing_file(capsys):
    code, _, err = run(capsys, "check", "--corpus", "/no/such/file")
    assert code == 2
    assert "error" in err


def test_corpus_json_is_a_list(tmp_path, capsys):
    corpus = tmp_path / "two.syl"
    corpus.write_text("AAA-1\n\nEAE-1\n")
    code, out, _ = run(capsys, "check", "--corpus", str(corpus), "--format", "json")
    assert code == 0
    assert [d["verdict"] for d in json.loads(out)] == ["valid", "valid"]


# one syllogism (AAA-1) four times: compact, as a block, with renamed terms
# and behind a comment; OEI-4 twice; EAO-3 +M and EAE-1 once
REPEATS = (
    "AAA-1\n\n"
    "All M is P; All S is M; All S is P\n\n"
    "All dog is animal\nAll puppy is dog\nAll puppy is animal\n\n"
    "OEI-4\n\n"
    "# the first one again\nAAA-1\n\n"
    "EAO-3 +M\n\n"
    "Some tall is not fish; No fish is cat; Some cat is tall\n\n"
    "No M is P; All S is M; No S is P\n"
)
FORMATS = pytest.mark.parametrize("fmt", ["text", "json", "dot"])
COMMANDS = pytest.mark.parametrize("command", ["check", "trace"])


@COMMANDS
@FORMATS
def test_corpus_decides_each_distinct_syllogism_once(tmp_path, capsys, monkeypatch, command, fmt):
    corpus = tmp_path / "repeats.syl"
    corpus.write_text(REPEATS)
    calls = []

    def counting_decide(s):
        calls.append(s)
        return decide(s)

    monkeypatch.setattr(cli, "decide", counting_decide)
    assert run(capsys, command, "--format", fmt, "--corpus", str(corpus))[0] == 1
    assert sorted(map(str, calls)) == ["AAA-1", "EAE-1", "EAO-3 +M", "OEI-4"]


@COMMANDS
@FORMATS
def test_reports_reduce_each_table_key_at_most_once(tmp_path, capsys, monkeypatch, command, fmt):
    # decide and an invalid input's trace or dot output read one table of
    # reductions, keyed by premiss kinds, figure and assumed term
    corpus = tmp_path / "repeats.syl"
    corpus.write_text(REPEATS)
    inference._reductions.clear()
    calls = count_calls(monkeypatch, inference, "normalize")
    assert run(capsys, command, "--format", fmt, "--corpus", str(corpus))[0] == 1
    # AAA-1, EAE-1, OEI-4 and EAO-3 bare, and EAO-3 spliced at M: its bare chain fails
    eao3 = parse_any("EAO-3 +M")
    bare = [premiss_chain(parse_any(text)) for text in ("AAA-1", "EAE-1", "OEI-4", "EAO-3")]
    expected = bare + [splice_existence(premiss_chain(eao3), "M")]
    assert sorted(map(str, calls)) == sorted(map(str, expected))


@pytest.mark.parametrize(
    "fmt, command",
    [(fmt, command) for command in ("check", "trace") for fmt in ("text", "json", "dot")]
    + [("text", "parse"), ("json", "parse")],
)
def test_corpus_output_is_the_single_outputs_in_order(tmp_path, capsys, command, fmt):
    corpus = tmp_path / "repeats.syl"
    corpus.write_text(REPEATS)
    code, out, _ = run(capsys, command, "--format", fmt, "--corpus", str(corpus))
    singles = [run(capsys, command, "--format", fmt, str(s)) for s, _span in parse_corpus(REPEATS)]
    assert len(singles) == 8
    if fmt == "json":
        assert json.loads(out) == [json.loads(single_out) for _c, single_out, _e in singles]
    else:
        assert out == "".join(single_out for _c, single_out, _e in singles)
    # parse decides nothing, so it exits 0 on the invalid OEI-4
    assert code == max(single_code for single_code, _o, _e in singles) == (command != "parse")


class _Writes:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv, repeats", [(("check",), 1500), (("trace", "--format", "json"), 80)], ids=["check", "trace-json"]
)
def test_a_corpus_is_written_in_bounded_batches(tmp_path, capsys, monkeypatch, argv, repeats):
    corpus = tmp_path / "long.syl"
    corpus.write_text((REPEATS + "\n") * repeats)
    blocks = [s for s, _span in parse_corpus(REPEATS)] * repeats
    if argv == ("check",):
        singles = {label: run(capsys, "check", label)[1] for label in set(map(str, blocks))}
        outs = [singles[str(s)] for s in blocks]
        expected, sep = "".join(outs), ""
    else:
        entries = [json_entry("trace", s, str(s)) for s in blocks]
        outs = [json.dumps(e, indent=2).replace("\n", "\n  ") for e in entries]
        expected, sep = json.dumps(entries, indent=2) + "\n", ",\n  "
    assert len(expected) >= 3 * cli.BATCH
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([*argv, "--corpus", str(corpus)]) == 1
    assert "".join(stdout.writes) == expected
    # a write goes out once a batch is full, so it holds at most one entry more
    assert max(map(len, stdout.writes)) <= cli.BATCH + max(map(len, outs)) + len(sep)
    assert len(stdout.writes) <= len(expected) // cli.BATCH + 3


def test_a_closed_pipe_ends_an_unbuffered_corpus_run_quietly(tmp_path, capsys):
    # past two batches, so a write still finds the pipe closed; unbuffered,
    # each batch is one write to the pipe
    corpus = tmp_path / "long.syl"
    corpus.write_text((REPEATS + "\n") * 60)
    argv = ["trace", "--format", "json", "--corpus", str(corpus)]
    assert len(run(capsys, *argv)[1].encode()) > 128 * 1024
    assert close_after_first_line(argv, cli_env(unbuffered=True)) == (b"[\n", 141, b"")


@pytest.mark.parametrize(
    "argv",
    [("check",), ("trace", "--format", "json"), ("trace", "--format", "dot")],
    ids=["check", "trace-json", "trace-dot"],
)
def test_corpus_output_does_not_depend_on_stdout_buffering(tmp_path, argv):
    corpus = tmp_path / "long.syl"
    corpus.write_text((REPEATS + "\n") * 600)
    results = [
        subprocess.run(
            [sys.executable, "-m", "syllogist.cli", *argv, "--corpus", str(corpus)],
            capture_output=True,
            env=cli_env(unbuffered),
            timeout=60,
        )
        for unbuffered in (True, False)
    ]
    unbuffered, buffered = ((r.stdout, r.stderr, r.returncode) for r in results)
    assert unbuffered == buffered
    assert buffered[1:] == (b"", 1)
    assert len(buffered[0]) > cli.BATCH


def test_corpus_labels_each_distinct_syllogism_once(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "repeats.syl"
    corpus.write_text(REPEATS)
    calls = []
    to_text = syllogist.Syllogism.__str__

    def counting_str(s):
        calls.append(s)
        return to_text(s)

    monkeypatch.setattr(syllogist.Syllogism, "__str__", counting_str)
    assert run(capsys, "check", "--corpus", str(corpus))[0] == 1
    assert len(calls) == 4


def test_corpus_renders_each_distinct_syllogism_once(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "repeats.syl"
    corpus.write_text(REPEATS)
    calls = []

    def counting_trace_dot(trace, label):
        calls.append(label)
        return trace_dot(trace, label)

    monkeypatch.setattr(cli, "trace_dot", counting_trace_dot)
    code, out, _ = run(capsys, "check", "--format", "dot", "--corpus", str(corpus))
    assert code == 1
    assert out.count("digraph") == 8
    assert len(calls) == 4


@pytest.mark.parametrize("argv", [("check",), ("trace", "--format", "json"), ("parse",)])
def test_corpus_hashes_no_syllogism(tmp_path, capsys, monkeypatch, argv):
    # equal syllogisms are one object, and the report cache is keyed by identity;
    # match_conclusion compares tuples, so no value is compared or hashed at all
    corpus = tmp_path / "repeats.syl"
    corpus.write_text(REPEATS)
    calls = count_calls(monkeypatch, syllogist.Syllogism, "__hash__")
    value_calls = count_value_equality(monkeypatch)
    code, out, _ = run(capsys, *argv, "--corpus", str(corpus))
    assert code == (argv[0] != "parse")
    assert out.count("AAA-1") == 4
    assert calls == []
    assert value_calls == [[], []]


def json_entry(command, s, label):
    """The json object the CLI prints for one input, built from the library."""
    if command == "parse":
        return {
            "input": label,
            "mood": str(s.mood),
            "figure": s.figure.value,
            "assumption": s.assumption.term,
            "block": render_block(s),
        }
    verdict = decide(s)
    trace = verdict.trace
    if trace is None and command == "trace":
        trace = normalize(premiss_chain(s))
    return {
        "input": label,
        "verdict": verdict.validity.value,
        "assumption": verdict.assumption.term,
        "trace": trace.as_dict() if trace is not None else None,
    }


JSON_COMMANDS = pytest.mark.parametrize("command", ["check", "trace", "parse"])


@JSON_COMMANDS
@pytest.mark.parametrize("text", [REPEATS, "", "EAO-3 +M\n"], ids=["repeats", "empty", "one-block"])
def test_corpus_json_is_the_text_of_json_dumps(tmp_path, capsys, command, text):
    corpus = tmp_path / "corpus.syl"
    corpus.write_text(text)
    expected = [json_entry(command, s, str(s)) for s, _span in parse_corpus(text)]
    out = run(capsys, command, "--format", "json", "--corpus", str(corpus))[1]
    assert out == json.dumps(expected, indent=2) + "\n"
    if not text:
        assert out == "[]\n"


@JSON_COMMANDS
@pytest.mark.parametrize(
    "notation",
    [
        'AAA-1 # "x\\y"',
        "Some tall is not fish; No fish is cat; Some cat is tall",
        # labels that json.dumps escapes: non-ASCII text, a tab, DEL, and a
        # comment ended by a line separator inside a block
        "AAA-1 # café",
        "EAE-1\t# tab",
        "AII-1 # \x7f",
        "All M is P # é\u2028All S is M; All S is P",
        # each verdict shape: invalid, valid, and valid under +S, +M and +P
        "OEI-4",
        "AAI-1 +S",
        "AAI-3 +M",
        "AAI-4 +P",
    ],
)
def test_single_json_is_the_text_of_json_dumps(capsys, command, notation):
    out = run(capsys, command, "--format", "json", notation)[1]
    expected = json_entry(command, parse_any(notation), notation)
    assert out == json.dumps(expected, indent=2) + "\n"


def test_an_entry_is_the_text_of_json_dumps():
    # a str that json escapes, an int, and the three constants json spells its own way
    fields = {"input": "café\t\u2028", "figure": 2, "assumption": None, "yes": True, "no": False}
    assert cli._entry(**fields) == json.dumps(fields, indent=2)


def test_corpus_json_encodes_each_distinct_entry_once(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "repeats.syl"
    corpus.write_text(REPEATS)
    entries = []
    entry = cli._entry

    def counting_entry(**fields):
        entries.append(fields["input"])
        return entry(**fields)

    monkeypatch.setattr(cli, "_entry", counting_entry)
    calls = []
    dumps = json.dumps

    def counting_dumps(obj, **kwargs):
        calls.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    code, out, _ = run(capsys, "trace", "--format", "json", "--corpus", str(corpus))
    assert code == 1
    assert out.count('"input"') == 8
    # json's encoder lays out an entry with a null trace, once per distinct
    # input, and json.dumps encodes only each distinct trace, once on its own
    assert len(entries) == len(set(entries)) == 4
    assert len([obj for obj in calls if "initial" in obj]) == 4
    assert len(calls) == 4


def test_corpus_json_encodes_a_shared_trace_once(tmp_path, capsys, monkeypatch):
    # the four moods have one premiss chain, so one reduction; only AAA-1 is valid
    corpus = tmp_path / "shared.syl"
    corpus.write_text("AAA-1\n\nAAI-1\n\nAAO-1\n\nAAE-1\n\n" * 3)
    calls = count_calls(monkeypatch, inference.Trace, "as_dict")
    code, out, _ = run(capsys, "trace", "--format", "json", "--corpus", str(corpus))
    assert code == 1
    assert out.count('"initial"') == 12
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["check", "trace"])
def test_every_syllogism_json_is_the_text_of_json_dumps(tmp_path, capsys, command):
    # every reduction shape the table can hold, spliced into its entry or null
    syllogisms = catalog.all_syllogisms()
    assert len(syllogisms) == 1024
    # one parse of the arguments: 1024 runs of main would mostly build parsers
    args = cli.build_parser().parse_args([command, "--format", "json", "AAA-1"])
    for s in syllogisms:
        args.notation = str(s)
        args.func(args)
        assert capsys.readouterr().out == json.dumps(json_entry(command, s, str(s)), indent=2) + "\n"
    corpus = tmp_path / "all.syl"
    corpus.write_text("\n\n".join(map(str, syllogisms)))
    entries = [json_entry(command, s, str(s)) for s in syllogisms]
    out = run(capsys, command, "--format", "json", "--corpus", str(corpus))[1]
    assert out == json.dumps(entries, indent=2) + "\n"


# --- parse ------------------------------------------------------------------

def test_parse_round_trip(capsys):
    code, out, _ = run(capsys, "parse", "EIO-2")
    assert code == 0
    assert out.strip() == "EIO-2 = No P is M; Some S is M; Some S is not P"


def test_count_help_names_the_supported_range(capsys):
    # the parser is built without importing the catalog, so it cannot read the cap
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0
    assert f"number of terms (3 to {catalog.MAX_COUNT_TERMS})" in " ".join(capsys.readouterr().out.split())


def test_parse_json(capsys):
    code, out, _ = run(capsys, "parse", "--format", "json", "AAI-4 +P")
    assert code == 0
    data = json.loads(out)
    assert data["mood"] == "AAI"
    assert data["figure"] == 4
    assert data["assumption"] == "P"
    assert data["block"].endswith("assuming some P")


# --- start-up ---------------------------------------------------------------

def test_cli_import_stays_light():
    # every process pays its imports; numpy alone used to double start-up
    package_root = os.path.dirname(os.path.dirname(syllogist.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import sys, syllogist.cli; assert 'numpy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
        timeout=60,
    )


# runs one command in this process (none when no argv is given), then lists
# the modules it loaded on stderr
IMPORT_SET_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from syllogist.cli import main
if sys.argv[2:]:
    main(sys.argv[2:])
print(*sorted(sys.modules), file=sys.stderr)
"""
CHECK_PATH_NEVER_LOADS = {
    "dataclasses", "inspect", "json", "typing", "syllogist.regions", "syllogist.catalog",
}


def loaded_modules(*argv):
    """The modules a fresh ``python -S`` process holds after one command."""
    package_root = os.path.dirname(os.path.dirname(syllogist.__file__))
    done = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_SET_SCRIPT, package_root, *argv],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return set(done.stderr.split())


@pytest.mark.parametrize("argv", [
    ("check", "AEE-2"),
    ("trace", "--format", "dot", "AEE-2"),
    ("parse", "All M is P; All S is M; All S is P"),
])
def test_check_trace_and_parse_import_only_what_they_run(argv):
    loaded = loaded_modules(*argv)
    assert "syllogist.inference" in loaded
    assert loaded.isdisjoint(CHECK_PATH_NEVER_LOADS), loaded & CHECK_PATH_NEVER_LOADS


def test_json_output_loads_json_and_tables_load_the_catalog():
    loaded = loaded_modules("check", "--format", "json", "AEE-2")
    assert "json" in loaded
    assert loaded.isdisjoint({"syllogist.regions", "syllogist.catalog"})
    assert {"syllogist.regions", "syllogist.catalog"} <= loaded_modules("tables")


def test_importing_the_cli_loads_the_calculus_and_no_parser():
    loaded = loaded_modules()
    package = {name for name in loaded if name.split(".")[0] == "syllogist"}
    assert package == {"syllogist", "syllogist.chains", "syllogist.inference", "syllogist.cli"}


@pytest.mark.parametrize("argv", [("tables",), ("laws",), ("count", "4")])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_catalog_commands_load_no_parser(argv, fmt):
    loaded = loaded_modules(argv[0], "--format", fmt, *argv[1:])
    assert {"syllogist.regions", "syllogist.catalog"} <= loaded
    assert "syllogist.notation" not in loaded


# a name read after a bare ``import syllogist`` (None: none), and the submodules then loaded
@pytest.mark.parametrize("name, modules", [
    ("VennSpace", {"chains", "inference", "regions"}),
    ("parse_any", {"chains", "inference", "notation"}),
    (None, set()),
    ("Chain", {"chains"}),
    ("decide", {"chains", "inference"}),
])
def test_a_lazy_name_loads_only_its_own_module(name, modules):
    package_root = os.path.dirname(os.path.dirname(syllogist.__file__))
    read = f"syllogist.{name}; " if name else ""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import syllogist; "
        f"{read}print(*sorted(sys.modules), file=sys.stderr)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, package_root],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    package = {m for m in done.stderr.split() if m.startswith("syllogist.")}
    assert package == {f"syllogist.{module}" for module in modules}
