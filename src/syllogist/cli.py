"""Command line front end.

Subcommands: ``check``, ``trace``, ``tables``, ``laws``, ``count`` and
``parse``.  Output is plain text by default; ``--format json`` emits
machine-readable objects with stable keys, and ``--format dot`` renders a
reduction as a two-row directed graph.  Exit codes: 0 when everything
checked out valid, 1 when some syllogism is invalid, a ``tables`` row's
two verdicts disagree, a law fails or a count misses 3n^2-n (in either
format), 2 on input or usage errors, and 141, with nothing on stderr, when
the output pipe closes early (as for a writer ended by SIGPIPE).

``run``, the console script and ``python -m syllogist.cli``, calls
``main``, flushes stdout and stderr and ends the process with
``os._exit``, skipping the interpreter's teardown: ``atexit`` hooks do
not run.  Code that embeds the command line calls ``main``, which
returns the exit status.

Errors leave through ``main``, the one place that prints ``error:``.  In
this package a ``ValueError`` is an input error: a ``NotationError``,
which carries a span, a plain ``ValueError`` for a bad chain, term or
``count`` argument, or a corpus that is not UTF-8 (a
``UnicodeDecodeError``).  No command catches one; ``main`` prints it with
the error's span in characters when it has one, as it prints an
``OSError`` such as a missing corpus file, and exits 2.

``check``, ``trace`` and ``parse`` share one report path.  ``check``
prints a verdict line, ``trace`` the reduction and ``parse`` the canonical
forms, deciding nothing; with ``--format dot`` ``check`` and ``trace``
print the same graph.

All three take one syllogism or ``--corpus FILE``, never both.  The file
is read as UTF-8 with its line breaks as written, so error spans are
character offsets into the file, each CRLF counting as two characters;
a leading byte order mark is dropped, and offsets count from after it.
A run decides and renders each distinct syllogism once (there are 1024),
however often a corpus repeats it, and prints one result per block.  A
corpus parses each distinct block text and each distinct proposition text
once, and ``--format json`` encodes each distinct entry once and each
distinct trace once (there are at most 256), splicing a trace's cached
text into every entry that shows it.  json's encoder lays out an entry,
a flat object, with the separators of ``indent=2``; only a trace and the
output of ``tables``, ``laws`` and ``count`` go through ``json.dumps``.  Each
input's cached text joins the output as it is reached, a json list entry
by entry as the text of ``json.dumps(entries, indent=2)``, and the output
goes out in writes of at most ``BATCH`` characters plus one entry,
however stdout is buffered.
Equal syllogisms in a corpus are one object, so the run's cache of
reports is keyed by identity (``id``) and a repeated block costs one
lookup in C.

Deciding and rendering differ in what they depend on.  A reduction
depends only on the premiss kinds, the figure and the assumed term, so
``decide`` and an invalid input's ``trace`` or ``dot`` output read one
table of at most 256 immutable traces (64 bare, 192 spliced) through
``inference._reduction(s, term)``.  A report also depends on the
conclusion and the input's label, so it is built once per distinct syllogism.

A process imports what its command runs: the parser (``notation``) only
for ``check``, ``trace`` and ``parse``, the catalog and the oracle only
for ``tables``, ``laws`` and ``count``, ``json`` only for ``--format
json``.  So ``import syllogist.cli`` loads the calculus and no parser.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .chains import Arrow, is_bullet
from .inference import (
    Assumption,
    Figure,
    Syllogism,
    Trace,
    Validity,
    _reduction,
    decide,
)

# characters of output a report run gathers before one write to stdout
BATCH = 1 << 16


def _load_inputs(args) -> list[Syllogism]:
    from .notation import NotationError, _parse_corpus, parse_any

    if args.corpus is not None:
        # newline="" keeps '\r\n' as written, so spans are offsets into the file;
        # utf-8-sig drops a leading byte order mark, so they count from after it
        with open(args.corpus, encoding="utf-8-sig", newline="") as f:
            text = f.read()
        return [s for s, _start, _end in _parse_corpus(text)]
    if args.notation is None:
        raise NotationError("nothing to parse: give a syllogism or --corpus FILE")
    return [parse_any(args.notation)]


def _json(obj) -> str:
    import json

    return json.dumps(obj, indent=2)


@cache
def _encode():
    """json's encoder with the item separator of ``indent=2`` one level deep."""
    import json

    return json.JSONEncoder(separators=(",\n  ", ": ")).encode


def _entry(**fields) -> str:
    """``_json(fields)`` for a report entry.  An entry is a flat object, so
    json's encoder lays it out in C, each field after a line break and two
    spaces."""
    return "{\n  " + _encode()(fields)[1:-1] + "\n}"


def _dot_chain_lines(tag: str, title: str, chain) -> list[str]:
    lines = [f"  subgraph cluster_{tag} {{", f'    label="{title}";']
    for i, node in enumerate(chain.nodes):
        if is_bullet(node):
            lines.append(f"    {tag}{i} [shape=point];")
        else:
            lines.append(f'    {tag}{i} [label="{node}"];')
    for i, arrow in enumerate(chain.arrows):
        if arrow is Arrow.RIGHT:
            lines.append(f"    {tag}{i} -> {tag}{i + 1};")
        else:
            lines.append(f"    {tag}{i + 1} -> {tag}{i};")
    lines.append("  }")
    return lines


def trace_dot(trace: Trace, label: str) -> str:
    """The initial chain and its normal form as a two-row digraph."""
    # the label holds raw input: escape what ends or escapes a DOT string
    label = label.replace("\\", "\\\\").replace('"', '\\"')
    lines = ["digraph reduction {", "  rankdir=LR;", f'  label="{label}";']
    lines += _dot_chain_lines("i", "premisses", trace.initial)
    lines += _dot_chain_lines("n", "normal form", trace.normal_form)
    lines.append("}")
    return "\n".join(lines)


def _report(args, s: Syllogism, traces: dict[int, tuple[Trace, str]]) -> tuple[bool, str]:
    """Whether the input is valid, and its output as printed for a single input.

    ``parse`` only renders the canonical forms and decides nothing.  An
    invalid verdict carries no trace: ``trace`` and ``--format dot`` show
    its bare reduction instead, read from the table ``decide`` just filled.
    ``traces`` holds the run's json text of each trace it has shown.
    """
    label = str(s) if args.corpus is not None else args.notation
    if args.command == "parse":
        from .notation import render_block

        if args.format == "json":
            return True, _entry(
                input=label,
                mood=str(s.mood),
                figure=s.figure.value,
                assumption=s.assumption.term,
                block=render_block(s),
            )
        return True, f"{s} = {render_block(s)}"
    verdict = decide(s)
    trace = verdict.trace
    if trace is None and (args.command == "trace" or args.format == "dot"):
        trace = _reduction(s, None)
    phrase = verdict.validity.value
    if verdict.validity is Validity.VALID_WITH_ASSUMPTION:
        phrase = f"valid under: {verdict.assumption.phrase}"
    if args.format == "dot":
        out = trace_dot(trace, f"{label}: {phrase}")
    elif args.format == "json":
        out = _entry(
            input=label,
            verdict=verdict.validity.value,
            assumption=verdict.assumption.term,
            trace=None,
        )
        if trace is not None:
            # keyed by identity, and the trace is kept so that its id stays its own
            cached = traces.get(id(trace))
            if cached is None:
                # nested a level, as the entry's last value: see cmd_report on "\n"
                cached = traces[id(trace)] = trace, _json(trace.as_dict()).replace("\n", "\n  ")
            out = out[: -len("null\n}")] + cached[1] + "\n}"
    elif args.command == "check":
        out = f"{label}: {phrase}"
    else:
        lines = [label]
        if verdict.validity is Validity.VALID_WITH_ASSUMPTION:
            lines.append(f"assumption: {verdict.assumption.phrase}")
        lines.append(f"chain: {trace.initial}")
        lines += trace.step_lines()
        lines += [f"normal form: {trace.normal_form}", f"verdict: {phrase}"]
        out = "\n".join(lines)
    return verdict.is_valid, out


def cmd_report(args) -> int:
    """``check``, ``trace`` and ``parse``: one report per input, written in batches.

    A run builds each distinct input's report once, its line break
    included, and each distinct trace's json text once.  The cached text
    for every input joins the output as it is reached, and the output goes
    out whenever it reaches ``BATCH`` characters and once at the end, so
    no run holds more than one batch and one entry.  A corpus in json
    prints one list, each entry after its separator.  Every input parses
    before the first report is printed, so a parse error prints nothing
    else.
    """
    inputs = _load_inputs(args)
    status = 0
    json_list = args.format == "json" and args.corpus is not None
    # json.dumps(entries, indent=2), joined as each entry is reached
    sep, between = ("[\n  ", ",\n  ") if json_list else ("", "")
    # keyed by identity: the input list keeps every key alive for the run,
    # and a corpus gives equal syllogisms as one object
    reports: dict[int, tuple[bool, str]] = {}
    traces: dict[int, tuple[Trace, str]] = {}
    pending: list[str] = []
    size = 0
    for s in inputs:
        report = reports.get(id(s))
        if report is None:
            valid, out = _report(args, s, traces)
            if json_list:
                # json's quoting escapes every newline inside a string, so each raw
                # "\n" is structural: indenting after it nests the entry one level
                out = out.replace("\n", "\n  ")
            else:
                out += "\n"
            report = reports[id(s)] = valid, out
        valid, out = report
        if not valid:
            status = 1
        pending += sep, out
        size += len(sep) + len(out)
        if size >= BATCH:
            sys.stdout.write("".join(pending))
            pending.clear()
            size = 0
        sep = between
    if json_list:
        pending.append("\n]\n" if inputs else "[]\n")
    sys.stdout.write("".join(pending))
    return status


def cmd_tables(args) -> int:
    """Both verdicts of all 1024 syllogisms; exits 1 on any disagreement, in either format."""
    from itertools import zip_longest

    from .catalog import enumerate_all

    rows = enumerate_all()
    agreements = sum(1 for r in rows if r.agree)
    status = 0 if agreements == len(rows) else 1
    if args.format == "json":
        print(_json([
            {
                "mood": str(r.syllogism.mood),
                "figure": r.syllogism.figure.value,
                "assumption": r.syllogism.assumption.term,
                "calculus": r.calculus.summary(),
                "oracle": r.oracle.summary(),
                "agree": r.agree,
            }
            for r in rows
        ]))
        return status
    # per (assumption, figure), the moods whose calculus verdict is valid under
    # exactly the row's assumption: VALID when bare, else VALID_WITH_ASSUMPTION
    moods: dict[tuple[Assumption, Figure], list[str]] = {}
    for r in rows:
        s = r.syllogism
        if r.calculus.is_valid and r.calculus.assumption is s.assumption:
            moods.setdefault((s.assumption, s.figure), []).append(str(s.mood))
    header = "".join(f"fig. {f.value}".ljust(8) for f in Figure)
    lines = ["valid syllogisms", header.rstrip()]
    for assumption in Assumption:
        if assumption is Assumption.SOME_S:
            lines += ["", "valid under an assumption of existence", header + "assumption"]
        # a line per row of moods, the first ending in the phrase; an empty table has none
        table = zip_longest(*(moods.get((assumption, f), []) for f in Figure), fillvalue="")
        for i, cells in enumerate(table):
            end = assumption.phrase if i == 0 and assumption.phrase else ""
            lines.append(("".join(c.ljust(8) for c in cells) + end).rstrip())
    lines += ["", f"calculus/oracle agreement: {agreements}/{len(rows)} rows"]
    print("\n".join(lines))
    return status


def cmd_laws(args) -> int:
    from .catalog import opposition_laws

    results = opposition_laws()
    derivations = [r for r in results if r.expected is not None]
    stuck = [r for r in results if r.expected is None]
    if args.format == "json":
        print(_json([
            {
                "name": r.name,
                "chain": str(r.chain),
                "expected": str(r.expected) if r.expected is not None else None,
                "normal_form": str(r.trace.normal_form),
                "ok": r.ok,
            }
            for r in results
        ]))
    else:
        for r in results:
            mark = "ok  " if r.ok else "FAIL"
            goal = str(r.expected) if r.expected is not None else "does not reduce"
            print(f"{mark} {r.name}: {r.chain} |= {goal}")
        print(
            f"derived {sum(r.ok for r in derivations)}/{len(derivations)}; "
            f"non-reducing {sum(r.ok for r in stuck)}/{len(stuck)}"
        )
    return 0 if all(r.ok for r in results) else 1


def cmd_count(args) -> int:
    from .catalog import count_valid_nterm

    count = count_valid_nterm(args.n)
    formula = 3 * args.n * args.n - args.n
    verdict = "match" if count == formula else "MISMATCH"
    if args.format == "json":
        print(_json({"n": args.n, "count": count, "formula": formula, "match": count == formula}))
    else:
        print(f"n={args.n}: {count} valid syllogisms; 3n^2-n = {formula} ({verdict})")
    return 0 if count == formula else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syllogist",
        description="Decide categorical syllogisms by chain reduction, "
        "cross-checked against exhaustive region models.",
    )
    # the prog argparse would compute, given so that it builds no help
    # formatter (and imports no shutil) unless help or an error is printed
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)

    def add(name: str, func, help_text: str, notation: bool, formats: tuple[str, ...]):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=formats, default="text", help="output format")
        if notation:
            inputs = p.add_mutually_exclusive_group()
            inputs.add_argument(
                "notation",
                nargs="?",
                help="compact (EIO-2, AAI-3 +M) or block (All M is P; ...) notation",
            )
            inputs.add_argument("--corpus", metavar="FILE", help="check every block in FILE")
        return p

    add("check", cmd_report, "decide a syllogism", True, ("text", "json", "dot"))
    add("trace", cmd_report, "show the reduction trace", True, ("text", "json", "dot"))
    add("tables", cmd_tables, "enumerate all moods and figures", False, ("text", "json"))
    add("laws", cmd_laws, "run the square-of-opposition laws", False, ("text", "json"))
    count_p = add("count", cmd_count, "count valid n-term syllogisms", False, ("text", "json"))
    # 6 is catalog.MAX_COUNT_TERMS, which building the parser must not import
    count_p.add_argument("n", type=int, help="number of terms (3 to 6)")
    add("parse", cmd_report, "echo the canonical forms", True, ("text", "json"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at shutdown
        return status
    except BrokenPipeError:
        # the reader is gone: as the SIGPIPE note in Python's signal docs does,
        # send what is still buffered to devnull; exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as err:
        span = getattr(err, "span", None)
        where = f" (chars {span.start}..{span.end})" if span else ""
        print(f"error: {err}{where}", file=sys.stderr)
        return 2


def run() -> None:
    status = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        # leave what is still buffered to the interpreter's own shutdown,
        # which flushes it again and reports a failure as it always has
        sys.exit(status)
    # every byte is out: skip the teardown that frees each module and object
    # in turn, several milliseconds that no output depends on
    os._exit(status)


if __name__ == "__main__":
    run()
