"""Parsing and rendering of syllogism notation.

Two surface forms are supported:

* compact: ``MOOD-FIGURE`` with an optional ``+S``/``+M``/``+P`` existence
  assumption, for example ``EIO-2`` or ``EAO-4 +M``;
* block: three English propositions separated by ``;`` or line breaks,
  with an optional trailing ``assuming some X`` clause, for example
  ``All M is P; All S is M; All S is P``.

Propositions use exactly the four templates ``All X is Y``, ``No X is Y``,
``Some X is Y`` and ``Some X is not Y``.  Keywords are case insensitive
in ASCII only; term tokens are identifiers (letter first, then letters,
digits or underscores) and keep their case.  Reserved words cannot be terms, which
keeps ``is not`` unambiguous.  Corpus files hold one syllogism per block,
blocks separated by blank lines.

Private parsers map text to a syllogism's fields and share nothing.
Public parsers build values from those fields.  Only the corpus parser
shares, one ``Syllogism`` object per distinct syllogism in a call.

A ``#`` comment runs to the end of its line, and the line ends where the
comment begins: each public parser blanks its text's comments into line
breaks once, so every parser ignores them, ``parse_proposition`` too.
A line ends at any break that ``str.splitlines`` recognises, so comments,
block segments and corpus blocks all end at the same places.

Every parse error carries a span into the input, in character offsets
(indices into the ``str``, not into its encoded bytes).  A private parser's
spans point into the text it was given; a corpus moves a block's span into
the file once, as a block moves a segment's span into the block.
"""

from __future__ import annotations

import re
from itertools import groupby

from .chains import PropKind, Proposition, _Value
from .inference import (
    MAJOR,
    MIDDLE,
    MINOR,
    Assumption,
    Figure,
    Mood,
    Syllogism,
    conclusion_of,
    figure_of,
    premisses_of,
)


class SourceSpan(_Value):
    """Character offsets of the offending slice of input."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        self._set(start, end)

    def __post_init__(self) -> None:
        start, end = self.start, self.end
        # ints proper: a bool or a float is no offset, and a str does not compare with 0
        if not (type(start) is int and type(end) is int and 0 <= start <= end):
            raise ValueError(f"bad span {start!r}..{end!r}")


class NotationError(ValueError):
    """Input does not parse; ``span`` locates the problem when known."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        super().__init__(message)
        self.span = span


class BadMoodLetter(NotationError):
    """A mood letter outside A, E, I, O."""


class NotASyllogism(NotationError):
    """Three propositions that do not form a syllogism."""


_KEYWORDS = frozenset({"all", "no", "some", "is", "not", "assuming"})
_TERM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")
_COMPACT_RE = re.compile(
    r"\s*([A-Za-z]{3})\s*-\s*([0-9]+)(?:\s*\+\s*([A-Za-z]+))?\s*$"
)
# four words, or five for 'Some X is not Y'; the templates are checked on the groups
_PROPOSITION_RE = re.compile(r"\s*(\S+)\s+(\S+)\s+(\S+)\s+(\S+)(?:\s+(\S+))?\s*\Z")
# keywords fold ASCII case only, as the propositions' do; \s and \S stay Unicode
_ASSUMING_RE = re.compile(r"\s*(?ai:assuming)\s+(?ai:some)\s+(\S+)\s*$")
# the line breaks of str.splitlines, so a comment ends where a corpus line does
_EOL = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_COMMENT_RE = re.compile(f"#[^{_EOL}]*")
# segments end at ';' or a line break, so at a comment's place once it is blanked
_SEGMENT_RE = re.compile(f"[^;{_EOL}]+")
# the compact notation's letters, in either case, and its figure digits
_KIND_OF_LETTER = {c: kind for kind in PropKind for c in (kind.value, kind.value.lower())}
_FIGURE_OF_DIGIT = {str(figure.value): figure for figure in Figure}
_ASSUMPTION_OF_NAME = {
    c: assumption
    for assumption in Assumption
    if assumption is not Assumption.NONE
    for c in (assumption.value, assumption.value.lower())
}


# a syllogism's fields, which hash in C: what the private parsers return
_Key = tuple[PropKind, PropKind, PropKind, Figure, Assumption]


def _syllogism(key: _Key) -> Syllogism:
    """The syllogism with these fields."""
    k1, k2, k3, figure, assumption = key
    return Syllogism(Mood(k1, k2, k3), figure, assumption)


def _blank_comments(text: str) -> str:
    """``text`` with each comment a line break padded to its length, so offsets stay valid."""
    return _COMMENT_RE.sub(lambda m: "\n".ljust(len(m[0])), text) if "#" in text else text


def parse_compact(text: str) -> Syllogism:
    """Parse ``MOOD-FIGURE`` notation, e.g. ``AAI-3 +M``; '#' comments are ignored."""
    m = _COMPACT_RE.match(_blank_comments(text))
    if m is None:
        raise NotationError(
            "expected MOOD-FIGURE notation such as 'EIO-2' or 'AAI-3 +M'",
            SourceSpan(0, len(text)),
        )
    return _syllogism(_compact(m))


def _compact(m: re.Match) -> _Key:
    """The fields of a ``_COMPACT_RE`` match, its letters and digits checked."""
    kinds = []
    for k, letter in enumerate(m[1]):
        kind = _KIND_OF_LETTER.get(letter)
        if kind is None:
            raise BadMoodLetter(
                f"mood letters are A, E, I or O, got {letter!r}",
                SourceSpan(m.start(1) + k, m.start(1) + k + 1),
            )
        kinds.append(kind)
    figure = _FIGURE_OF_DIGIT.get(m[2])
    if figure is None:
        raise NotationError(
            f"figures are 1 to 4, got {m[2]!r}",
            SourceSpan(*m.span(2)),
        )
    assumption = Assumption.NONE
    if m[3] is not None:
        assumption = _ASSUMPTION_OF_NAME.get(m[3])
        if assumption is None:
            raise NotationError(
                f"the assumption names one of the terms S, M or P, got {m[3]!r}",
                SourceSpan(*m.span(3)),
            )
    return (*kinds, figure, assumption)


def render_compact(s: Syllogism) -> str:
    return str(s)


def _term_token(m: re.Match, group: int) -> str:
    word = m[group]
    if not _TERM_RE.match(word):
        message = f"term tokens start with a letter and use letters, digits or '_', got {word!r}"
    elif word.lower() in _KEYWORDS:
        message = f"{word!r} is a reserved word, not a term"
    else:
        return word
    raise NotationError(message, SourceSpan(*m.span(group)))


def _proposition(text: str) -> tuple[PropKind, str, str]:
    """Kind, subject and predicate of one proposition template, terms checked."""
    m = _PROPOSITION_RE.match(text)
    kind = None
    if m is not None and m[3].lower() == "is":
        head = m[1].lower()
        if m[5] is None:
            kind = {"all": PropKind.A, "no": PropKind.E, "some": PropKind.I}.get(head)
        elif head == "some" and m[4].lower() == "not":
            kind = PropKind.O
    if kind is None:
        # from the first word to the end of the last, or all of a blank text
        span = SourceSpan(0, len(text))
        if text.strip():
            span = SourceSpan(len(text) - len(text.lstrip()), len(text.rstrip()))
        raise NotationError(
            "expected 'All X is Y', 'No X is Y', 'Some X is Y' or 'Some X is not Y'", span
        )
    return kind, _term_token(m, 2), _term_token(m, 4 if m[5] is None else 5)


def parse_proposition(text: str) -> Proposition:
    """Parse one of the four proposition templates; '#' comments are ignored."""
    return Proposition(*_proposition(_blank_comments(text)))


_TEMPLATES = {
    PropKind.A: "All {0} is {1}",
    PropKind.E: "No {0} is {1}",
    PropKind.I: "Some {0} is {1}",
    PropKind.O: "Some {0} is not {1}",
}


def render_proposition(p: Proposition) -> str:
    return _TEMPLATES[p.kind].format(p.subject, p.predicate)


def _in_segment(text: str, k: int, start: int, end: int) -> SourceSpan:
    """The span ``start..end`` inside the ``k``-th segment of the block
    ``text``, moved into the block.  Only an error needs a segment's offset,
    so ``_block`` splits with ``_SEGMENT_RE.findall`` and this finds the
    same segments again with ``finditer``."""
    at = [m.start() for m in _SEGMENT_RE.finditer(text) if m[0].strip()][k]
    return SourceSpan(at + start, at + end)


def parse_syllogism_block(text: str) -> Syllogism:
    """Parse three propositions (plus optional assumption) into a syllogism.

    The figure is inferred from term positions: the middle term is the one
    shared by the premisses, the conclusion fixes subject and predicate,
    and the first premiss must carry the conclusion's predicate, the
    second its subject.  '#' comments are ignored.
    """
    return _syllogism(_block(_blank_comments(text), {}))


def _block(text: str, propositions: dict[str, tuple[PropKind, str, str]]) -> _Key:
    """The fields of a block whose comments are blanked, each segment looked
    up in ``propositions`` before it is parsed, and kept there once it parses."""
    # split on ';' and line breaks, blank segments dropped.  A parse needs
    # no offsets, so only a path that raises finds them
    segments = [t for t in _SEGMENT_RE.findall(text) if t.strip()]

    assumed = None
    if segments:
        assumed = _ASSUMING_RE.match(segments[-1])
        if assumed is not None:
            segments.pop()

    if len(segments) != 3:
        raise NotASyllogism(
            f"a syllogism block holds exactly three propositions, found {len(segments)}",
            SourceSpan(0, len(text)),
        )
    # parsed in order, so the first bad proposition's error wins; a parse
    # that succeeds depends on the segment's text alone, so a repeated text
    # reuses it
    parsed = []
    for k, t in enumerate(segments):
        p = propositions.get(t)
        if p is None:
            try:
                p = propositions[t] = _proposition(t)
            except NotationError as err:
                err.span = _in_segment(text, k, err.span.start, err.span.end)
                raise
        parsed.append(p)
    (k1, s1, p1), (k2, s2, p2), (k3, subject, predicate) = parsed

    if subject == predicate:
        raise NotationError(
            "the conclusion's subject and predicate coincide, so the term roles collapse",
            _in_segment(text, 2, 0, len(segments[2])),
        )
    terms = {subject, predicate, s1, p1, s2, p2}
    if len(terms) != 3:
        raise NotASyllogism(
            f"a syllogism involves exactly three terms, found {len(terms)}",
            SourceSpan(0, len(text)),
        )
    (middle,) = terms - {subject, predicate}
    if {s1, p1} != {middle, predicate}:
        raise NotASyllogism(
            "the first premiss must relate the middle term and the conclusion's predicate",
            _in_segment(text, 0, 0, len(segments[0])),
        )
    if {s2, p2} != {middle, subject}:
        raise NotASyllogism(
            "the second premiss must relate the middle term and the conclusion's subject",
            _in_segment(text, 1, 0, len(segments[1])),
        )

    role = {subject: MINOR, middle: MIDDLE, predicate: MAJOR}
    figure = figure_of((role[s1], role[p1]), (role[s2], role[p2]))

    assumption = Assumption.NONE
    if assumed is not None:
        if assumed[1] not in role:
            # the assumption is the segment after the three propositions
            raise NotASyllogism(
                f"the assumption must name one of the three terms, got {assumed[1]!r}",
                _in_segment(text, 3, assumed.start(1), assumed.end(1)),
            )
        assumption = _ASSUMPTION_OF_NAME[role[assumed[1]]]

    return k1, k2, k3, figure, assumption


def render_block(s: Syllogism) -> str:
    """The canonical block form over the terms S, M and P."""
    first, second = premisses_of(s)
    parts = [render_proposition(q) for q in (first, second, conclusion_of(s))]
    text = "; ".join(parts)
    if s.assumption is not Assumption.NONE:
        text += f"; assuming some {s.assumption.term}"
    return text


def parse_any(text: str) -> Syllogism:
    """Parse either notation, routed on the input's shape; '#' comments are ignored."""
    return _syllogism(_any(_blank_comments(text), {}))


def _any(text: str, propositions: dict[str, tuple[PropKind, str, str]]) -> _Key:
    """The fields of either notation, from a text whose comments are
    blanked, a block's propositions looked up in ``propositions`` first."""
    m = _COMPACT_RE.match(text)
    return _block(text, propositions) if m is None else _compact(m)


def parse_corpus(text: str) -> list[tuple[Syllogism, SourceSpan]]:
    """Parse a corpus file: one syllogism per blank-line-separated block.

    Blocks that hold only comments are skipped; every other block is parsed
    as by ``parse_any``, once per distinct text, and each distinct proposition
    text in them once.  Equal syllogisms in one call are one object, shared
    through this call's dict from fields to ``Syllogism``; calls share none.
    """
    return [(s, SourceSpan(start, end)) for s, start, end in _parse_corpus(text)]


def _parse_corpus(text: str) -> list[tuple[Syllogism, int, int]]:
    """``parse_corpus``, each block's span given as its start and end offsets."""
    results = []
    # a parse depends on its text alone, and only blocks and propositions
    # that parse are kept, so a repeated text reuses its result
    parsed: dict[str, Syllogism | None] = {}
    propositions: dict[str, tuple[PropKind, str, str]] = {}
    syllogisms: dict[_Key, Syllogism] = {}
    start = 0
    for blank, group in groupby(text.splitlines(keepends=True), key=str.isspace):
        block = "".join(group)
        end = start + len(block)
        if not blank:
            s = parsed.get(block)
            if s is None and block not in parsed:
                # a block of comments alone blanks to whitespace: kept as None
                if not (bare := _blank_comments(block)).isspace():
                    try:
                        key = _any(bare, propositions)
                    except NotationError as err:
                        err.span = SourceSpan(start + err.span.start, start + err.span.end)
                        raise
                    s = syllogisms.get(key) or syllogisms.setdefault(key, _syllogism(key))
                parsed[block] = s
            if s is not None:
                results.append((s, start, end))
        start = end
    return results
