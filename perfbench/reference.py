"""Hand-written reference verdicts and output checks.

Nothing here imports the package: the tables below are keyed in from the
classical syllogistic (Boolean reading, no existential import) so that a
wrong verdict from the engine cannot also change what it is checked
against.

A syllogism is a tuple ``(mood, figure, assumption)`` such as
``("AAI", 3, "M")``; the assumption is ``None``, ``"S"``, ``"M"`` or ``"P"``.
"""

from __future__ import annotations

import json
from itertools import product

LETTERS = "AEIO"
FIGURES = (1, 2, 3, 4)
ASSUMPTIONS = (None, "S", "M", "P")

# The 15 unconditionally valid moods, by figure.
VALID = {
    1: ("AAA", "EAE", "AII", "EIO"),  # Barbara Celarent Darii Ferio
    2: ("EAE", "AEE", "EIO", "AOO"),  # Cesare Camestres Festino Baroco
    3: ("IAI", "AII", "OAO", "EIO"),  # Disamis Datisi Bocardo Ferison
    4: ("AEE", "IAI", "EIO"),  # Calemes Dimatis Fresison
}

# The 9 moods valid only under one assumption of existence.
CONDITIONAL = {
    "S": (("AAI", 1), ("EAO", 1), ("AEO", 2), ("EAO", 2), ("AEO", 4)),
    "M": (("AAI", 3), ("EAO", 3), ("EAO", 4)),
    "P": (("AAI", 4),),
}

NTERM_COUNTS = {3: 24, 4: 44}
LAW_COUNT = 12  # 10 derivations and 2 chains that must not reduce
ROWS = 1024

# (subject, predicate) of the first and the second premiss, per figure.
LAYOUT = {
    1: (("M", "P"), ("S", "M")),
    2: (("P", "M"), ("S", "M")),
    3: (("M", "P"), ("M", "S")),
    4: (("P", "M"), ("M", "S")),
}

MOODS = {"".join(p) for p in product(LETTERS, repeat=3)}

TEMPLATES = {
    "A": "All {} is {}",
    "E": "No {} is {}",
    "I": "Some {} is {}",
    "O": "Some {} is not {}",
}


def all_syllogisms() -> list[tuple[str, int, str | None]]:
    return [
        ("".join(letters), figure, assumption)
        for assumption in ASSUMPTIONS
        for figure in FIGURES
        for letters in product(LETTERS, repeat=3)
    ]


def bare_valid(mood: str, figure: int) -> bool:
    return mood in VALID[figure]


def verdict(s: tuple[str, int, str | None]) -> tuple[str, str | None]:
    """``(validity, assumption)`` as the engine's JSON spells them."""
    mood, figure, assumption = s
    if bare_valid(mood, figure):
        return "valid", None
    if assumption is not None and (mood, figure) in CONDITIONAL[assumption]:
        return "valid-with-assumption", assumption
    return "invalid", None


def summary(s) -> str:
    validity, assumption = verdict(s)
    return f"valid +{assumption}" if assumption else validity


def phrase(s) -> str:
    validity, assumption = verdict(s)
    return f"valid under: there is some {assumption}" if assumption else validity


def is_valid(s) -> bool:
    return verdict(s)[0] != "invalid"


def reaches_splice(s) -> bool:
    """Whether deciding ``s`` goes past the bare chain to the splice step."""
    return s[2] is not None and not bare_valid(s[0], s[1])


def compact(s) -> str:
    mood, figure, assumption = s
    return f"{mood}-{figure}" + (f" +{assumption}" if assumption else "")


def block(s, names: dict[str, str] | None = None, sep: str = "; ") -> str:
    """Block notation, with the roles S, M, P renamed through ``names``."""
    names = names or {"S": "S", "M": "M", "P": "P"}
    mood, figure, assumption = s
    (s1, p1), (s2, p2) = LAYOUT[figure]
    pairs = ((s1, p1), (s2, p2), ("S", "P"))
    parts = [TEMPLATES[k].format(names[a], names[b]) for k, (a, b) in zip(mood, pairs)]
    if assumption:
        parts.append(f"assuming some {names[assumption]}")
    return sep.join(parts)


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _json(problems: list[str], text: str):
    try:
        return json.loads(text)
    except ValueError as err:
        problems.append(f"output is not JSON: {err}")
        return None


def _check_entry(problems, entry, label, s, need_trace: bool) -> None:
    if not isinstance(entry, dict):
        problems.append(f"{label!r}: entry is not an object")
        return
    validity, assumption = verdict(s)
    _expect(problems, entry.get("input") == label, f"{label!r}: input echoed as {entry.get('input')!r}")
    _expect(problems, entry.get("verdict") == validity, f"{label!r}: verdict {entry.get('verdict')!r}, want {validity!r}")
    _expect(problems, entry.get("assumption") == assumption, f"{label!r}: assumption {entry.get('assumption')!r}, want {assumption!r}")
    trace = entry.get("trace")
    if need_trace or validity != "invalid":
        ok = isinstance(trace, dict) and {"initial", "steps", "normal_form"} <= trace.keys()
        _expect(problems, ok, f"{label!r}: missing trace")
    else:
        _expect(problems, trace is None, f"{label!r}: invalid verdict carries a trace")


def check_single(command: str, fmt: str, label: str, s, code: int, out: str, err: str) -> list[str]:
    """One ``check``/``trace`` process on one syllogism."""
    problems: list[str] = []
    want_code = 0 if is_valid(s) else 1
    _expect(problems, code == want_code, f"{label!r}: exit {code}, want {want_code}; stderr {err.strip()!r}")
    _expect(problems, err == "", f"{label!r}: unexpected stderr {err.strip()!r}")
    if fmt == "json":
        data = _json(problems, out)
        if data is not None:
            _check_entry(problems, data, label, s, need_trace=command == "trace")
    elif fmt == "dot":
        _expect(problems, out.startswith("digraph reduction {"), f"{label!r}: not a digraph")
        _expect(problems, f'  label="{label}: {phrase(s)}";' in out, f"{label!r}: dot label wrong")
    elif command == "check":
        _expect(problems, out == f"{label}: {phrase(s)}\n", f"{label!r}: got {out!r}")
    else:
        lines = out.splitlines()
        _expect(problems, bool(lines) and lines[0] == label, f"{label!r}: trace does not start with the input")
        _expect(problems, bool(lines) and lines[-1] == f"verdict: {phrase(s)}", f"{label!r}: trace ends {lines[-1:]!r}")
    return problems


def check_corpus(command: str, syllogisms, code: int, out: str, err: str) -> list[str]:
    """``check --corpus`` (text) or ``trace --format json --corpus``."""
    problems: list[str] = []
    want_code = 0 if all(is_valid(s) for s in syllogisms) else 1
    _expect(problems, code == want_code, f"corpus {command}: exit {code}, want {want_code}; stderr {err.strip()[:200]!r}")
    _expect(problems, err == "", f"corpus {command}: unexpected stderr {err.strip()[:200]!r}")
    if command == "check":
        lines = out.splitlines()
        _expect(problems, len(lines) == len(syllogisms), f"corpus check: {len(lines)} lines for {len(syllogisms)} blocks")
        for line, s in zip(lines, syllogisms):
            if line != f"{compact(s)}: {phrase(s)}":
                problems.append(f"corpus check: got {line!r} for {compact(s)!r}")
    else:
        data = _json(problems, out)
        if data is not None:
            _expect(problems, isinstance(data, list) and len(data) == len(syllogisms), "corpus trace: entry count differs")
            if isinstance(data, list):
                for entry, s in zip(data, syllogisms):
                    _check_entry(problems, entry, compact(s), s, need_trace=True)
    return problems[:20]


def _table_cells(line: str) -> list[str]:
    return [line[8 * i : 8 * i + 8].strip() for i in range(4)]


def check_tables_text(code: int, out: str, err: str) -> list[str]:
    problems: list[str] = []
    _expect(problems, code == 0 and err == "", f"tables: exit {code}, stderr {err.strip()!r}")
    sections = out.split("\n\n")
    if len(sections) != 3:
        return problems + [f"tables: {len(sections)} sections, want 3"]
    valid = set()
    for line in sections[0].splitlines()[2:]:
        for figure, mood in zip(FIGURES, _table_cells(line)):
            if mood:
                valid.add((mood, figure))
    want_valid = {(m, f) for f, moods in VALID.items() for m in moods}
    _expect(problems, valid == want_valid, f"tables: valid moods {sorted(valid ^ want_valid)} differ")
    conditional = set()
    assumption = None
    for line in sections[1].splitlines()[2:]:
        tail = line[32:].strip()
        if tail:
            assumption = tail.rsplit(" ", 1)[-1]
        for figure, mood in zip(FIGURES, _table_cells(line)):
            if mood:
                conditional.add((mood, figure, assumption))
    want_cond = {(m, f, a) for a, pairs in CONDITIONAL.items() for m, f in pairs}
    _expect(problems, conditional == want_cond, f"tables: conditional moods {sorted(conditional ^ want_cond, key=str)} differ")
    want_line = f"calculus/oracle agreement: {ROWS}/{ROWS} rows"
    _expect(problems, sections[2].strip() == want_line, f"tables: got {sections[2].strip()!r}")
    return problems


def check_tables_json(code: int, out: str, err: str) -> list[str]:
    problems: list[str] = []
    _expect(problems, code == 0 and err == "", f"tables json: exit {code}, stderr {err.strip()!r}")
    data = _json(problems, out)
    if data is None:
        return problems
    seen = set()
    for row in data:
        s = (row.get("mood"), row.get("figure"), row.get("assumption"))
        seen.add(s)
        want = summary(s) if s[0] in MOODS and s[1] in FIGURES else None
        if not (row.get("calculus") == want and row.get("oracle") == want and row.get("agree") is True):
            problems.append(f"tables json: row {row!r}, want {want!r}")
    _expect(problems, len(data) == ROWS and seen == set(all_syllogisms()), "tables json: rows do not cover the 1024 syllogisms")
    return problems[:20]


def check_laws(code: int, out: str, err: str) -> list[str]:
    problems: list[str] = []
    _expect(problems, code == 0 and err == "", f"laws: exit {code}, stderr {err.strip()!r}")
    lines = out.splitlines()
    oks = sum(1 for line in lines if line.startswith("ok "))
    _expect(problems, oks == LAW_COUNT, f"laws: {oks} ok, want {LAW_COUNT}")
    _expect(problems, not any(line.startswith("FAIL") for line in lines), "laws: a law failed")
    _expect(problems, lines[-1:] == ["derived 10/10; non-reducing 2/2"], f"laws: summary {lines[-1:]!r}")
    return problems


def check_count(n: int, code: int, out: str, err: str) -> list[str]:
    problems: list[str] = []
    _expect(problems, code == 0 and err == "", f"count {n}: exit {code}, stderr {err.strip()!r}")
    want = f"n={n}: {NTERM_COUNTS[n]} valid syllogisms;"
    _expect(problems, out.startswith(want), f"count {n}: got {out.strip()!r}")
    return problems
