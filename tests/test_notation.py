"""Compact and block notation: parsing, rendering, round trips, spans."""

import inspect
import re
import sys
from itertools import groupby

import pytest
from hypothesis import given, strategies as st

from syllogist import (
    Assumption,
    BadMoodLetter,
    Figure,
    Mood,
    NotASyllogism,
    NotationError,
    PropKind,
    Proposition,
    SourceSpan,
    Syllogism,
    notation,
    parse_any,
    parse_compact,
    parse_corpus,
    parse_proposition,
    parse_syllogism_block,
    render_block,
    render_compact,
    render_proposition,
)

from test_chains import prop
from test_inference import syl


def every_syllogism():
    for assumption in Assumption:
        for figure in Figure:
            for a in PropKind:
                for b in PropKind:
                    for c in PropKind:
                        yield Syllogism(Mood(a, b, c), figure, assumption)


# --- compact ----------------------------------------------------------------

def test_parse_compact_basic():
    s = parse_compact("AAA-1")
    assert s.mood == Mood(PropKind.A, PropKind.A, PropKind.A)
    assert s.figure is Figure.ONE
    assert s.assumption is Assumption.NONE


def test_parse_compact_with_assumption():
    s = parse_compact("EAO-4 +M")
    assert str(s.mood) == "EAO"
    assert s.figure is Figure.FOUR
    assert s.assumption is Assumption.SOME_M


def test_parse_compact_is_lenient_about_case_and_spacing():
    assert parse_compact("eio-2") == syl("EIO-2")
    assert parse_compact("  AAI - 3 + M ") == syl("AAI-3 +M")


def test_bad_mood_letter_span():
    with pytest.raises(BadMoodLetter) as exc:
        parse_compact("AAB-1")
    assert (exc.value.span.start, exc.value.span.end) == (2, 3)


def test_bad_figure():
    with pytest.raises(NotationError, match=r"^figures are 1 to 4, got '5'$") as exc:
        parse_compact("AAA-5")
    assert type(exc.value) is NotationError
    assert exc.value.span.start == 4
    with pytest.raises(NotationError, match=r"^figures are 1 to 4, got '12'$") as exc:
        parse_compact("AAA-12")
    assert type(exc.value) is NotationError


def test_bad_assumption_letter():
    with pytest.raises(NotationError):
        parse_compact("AAA-1 +Q")


def test_compact_garbage():
    for bad in ("", "AAA", "AAA_1", "AA-1", "AAAA-1", "hello world"):
        with pytest.raises(NotationError):
            parse_compact(bad)


def test_compact_round_trip_all_1024():
    for s in every_syllogism():
        assert parse_compact(render_compact(s)) == s


# --- propositions -----------------------------------------------------------

@pytest.mark.parametrize(
    "text,expected",
    [
        ("All M is P", ("A", "M", "P")),
        ("No A is B", ("E", "A", "B")),
        ("Some S is P", ("I", "S", "P")),
        ("Some S is not P", ("O", "S", "P")),
        ("all dogs is black_things", ("A", "dogs", "black_things")),
        ("SOME x IS NOT y", ("O", "x", "y")),
        ("All M is P  # note", ("A", "M", "P")),
        ("Some S is not P # x; y", ("O", "S", "P")),
    ],
)
def test_parse_proposition(text, expected):
    assert parse_proposition(text) == prop(*expected)


def test_proposition_span_ends_at_a_comment():
    # the line ends where the comment begins, and so does the span
    with pytest.raises(NotationError, match="expected 'All X is Y'") as exc:
        parse_proposition("All M is # P")
    assert (exc.value.span.start, exc.value.span.end) == (0, 8)


def test_term_case_is_significant():
    p = parse_proposition("All Dogs is dogs")
    assert p.subject == "Dogs"
    assert p.predicate == "dogs"


def test_block_parsing_builds_no_proposition(monkeypatch):
    # the parser checks each term once; a Proposition would check it again
    calls = []
    check = Proposition.__post_init__

    def counting(p):
        calls.append(p)
        check(p)

    monkeypatch.setattr(Proposition, "__post_init__", counting)
    s = parse_syllogism_block("All dog is animal; All puppy is dog; All puppy is animal")
    assert s == syl("AAA-1")
    assert len(calls) == 0
    p = parse_proposition("All dog is animal")
    assert len(calls) == 1
    assert p == prop("A", "dog", "animal")


def test_proposition_outside_the_four_templates():
    with pytest.raises(NotationError) as exc:
        parse_proposition("Most S are P")
    assert exc.value.span.start == 0
    for bad in ("All S is", "No S is not P", "Some S P", "All 1S is P", "All is is P"):
        with pytest.raises(NotationError):
            parse_proposition(bad)


@pytest.mark.parametrize("lead,trail", [("", ""), ("  ", "\t "), ("\x85", "\x1c ")])
@pytest.mark.parametrize("n", range(8))
def test_proposition_template_error_spans(n, lead, trail):
    # from the first word to the end of the last; a blank text is spanned whole
    body = " ".join("Most S are P or not Q".split()[:n])
    text = lead + body + trail
    with pytest.raises(NotationError, match="expected 'All X is Y'") as exc:
        parse_proposition(text)
    start, end = (len(lead), len(lead) + len(body)) if body else (0, len(text))
    assert (exc.value.span.start, exc.value.span.end) == (start, end)


@pytest.mark.parametrize("lead,trail", [("", ""), ("  ", "\t "), ("\x85", "\x1c ")])
def test_proposition_words_split_at_any_whitespace(lead, trail):
    assert parse_proposition(lead + "All S is P" + trail) == prop("A", "S", "P")
    assert parse_proposition(lead + "Some S\x1cis not\x85P" + trail) == prop("O", "S", "P")


@pytest.mark.parametrize("space", ["\x1c", "\x85"])
def test_term_spans_end_at_the_whitespace_after_them(space):
    with pytest.raises(NotationError, match="got '1S'") as exc:
        parse_proposition(f"All 1S{space}is P{space}")
    assert (exc.value.span.start, exc.value.span.end) == (4, 6)
    with pytest.raises(NotationError, match="reserved word") as exc:
        parse_proposition(f"Some S is not not{space}")
    assert (exc.value.span.start, exc.value.span.end) == (14, 17)


def test_proposition_render_round_trip():
    for kind in PropKind:
        p = prop(kind.value, "alpha", "beta_2")
        assert parse_proposition(render_proposition(p)) == p


# --- blocks -----------------------------------------------------------------

def test_parse_block_first_figure():
    s = parse_syllogism_block("All M is P; All S is M; All S is P")
    assert s == syl("AAA-1")


def test_parse_block_second_figure():
    s = parse_syllogism_block("No P is M; Some S is M; Some S is not P")
    assert s == syl("EIO-2")


def test_parse_block_newline_separated_with_comment():
    text = """# a classic
All M is P
All S is M
All S is P"""
    assert parse_syllogism_block(text) == syl("AAA-1")


def test_parse_block_with_assumption():
    s = parse_syllogism_block("No P is M; All M is S; Some S is not P; assuming some M")
    assert s == syl("EAO-4 +M")


def test_block_without_shared_middle():
    with pytest.raises(NotASyllogism) as exc:
        parse_syllogism_block("All A is B; All C is D; All A is D")
    assert exc.value.span is not None


def test_block_with_misplaced_terms():
    # the conclusion's subject must come from the second premiss
    with pytest.raises(NotASyllogism):
        parse_syllogism_block("All S is M; All M is P; All S is P")
    with pytest.raises(NotASyllogism):
        parse_syllogism_block("All M is P; All S is M; All S is M")


def test_block_with_wrong_count():
    with pytest.raises(NotASyllogism):
        parse_syllogism_block("All M is P; All S is M")


_COINCIDE = r"^the conclusion's subject and predicate coincide, so the term roles collapse$"


def test_block_with_collapsed_conclusion():
    with pytest.raises(NotationError, match=_COINCIDE) as exc:
        parse_syllogism_block("All M is A; All A is M; All A is A")
    assert type(exc.value) is NotationError


def test_block_with_unknown_assumption_term():
    with pytest.raises(NotASyllogism):
        parse_syllogism_block("All M is P; All S is M; All S is P; assuming some Q")


@pytest.mark.parametrize("clause", ["aſſuming ſome S", "assumİng some S"])
def test_assumption_keywords_fold_ascii_case_only(clause):
    # as in the propositions: 'ſ' is not 's' and 'İ' is not 'i', so the
    # clause is a fourth proposition that does not parse as an assumption
    with pytest.raises(NotASyllogism, match="found 4"):
        parse_syllogism_block(f"All M is P; All S is M; All S is P; {clause}")
    with pytest.raises(NotASyllogism, match="found 4"):
        parse_any(f"All M is P; All S is M; All S is P; {clause}")


@pytest.mark.parametrize("clause, term", [("ASSUMING SOME S", "S"), ("assuming\xa0some M", "M")])
def test_assumption_keywords_fold_ascii_case_and_allow_unicode_spaces(clause, term):
    s = parse_syllogism_block(f"All M is P; All S is M; All S is P; {clause}")
    assert s == Syllogism(Mood(PropKind.A, PropKind.A, PropKind.A), Figure.ONE, Assumption(term))


def renamed(text):
    """Block text with the term names permuted S->P, M->S, P->M; roles stay put."""
    return re.sub(r"\b[SMP]\b", lambda m: {"S": "P", "M": "S", "P": "M"}[m[0]], text)


def test_block_round_trip_all_256_bare():
    for s in every_syllogism():
        if s.assumption is Assumption.NONE:
            assert parse_syllogism_block(render_block(s)) == s
            assert parse_syllogism_block(renamed(render_block(s))) == s


def test_block_round_trip_with_assumptions():
    for s in every_syllogism():
        if s.assumption is not Assumption.NONE:
            assert parse_syllogism_block(render_block(s)) == s
            assert parse_syllogism_block(renamed(render_block(s))) == s


def test_semicolon_inside_a_comment_does_not_split():
    assert parse_syllogism_block("All M is P # a; b\nAll S is M\nAll S is P") == syl("AAA-1")


def test_premiss_span_ends_at_its_comment():
    text = "All S is M  # note; x\nAll M is P\nAll S is P"
    with pytest.raises(NotASyllogism) as exc:
        parse_syllogism_block(text)
    assert (exc.value.span.start, exc.value.span.end) == (0, 12)
    assert text[exc.value.span.start : exc.value.span.end] == "All S is M  "


# the three errors that span a whole segment, that segment followed on its
# line by a comment: each span ends where the '#' begins, alone and as a
# corpus's second block (from offset 7)
@pytest.mark.parametrize(
    "body, error, match, span",
    [
        ("All M is P\nAll S is M\nAll S is S # why; x\n", NotationError, _COINCIDE, (22, 33)),
        ("No S is M # r\nAll P is M\nAll S is P\n", NotASyllogism, "first premiss", (0, 10)),
        ("All M is P\nAll P is M  #; r\nAll S is P\n", NotASyllogism, "second premiss", (11, 23)),
    ],
    ids=["coincide", "first", "second"],
)
def test_whole_segment_spans_end_at_a_comment(body, error, match, span):
    for parse in (parse_any, parse_syllogism_block):
        with pytest.raises(error, match=match) as exc:
            parse(body)
        assert _span_of(exc) == span
        assert body[span[1]] == "#"
    with pytest.raises(error, match=match) as exc:
        parse_corpus("AAA-1\n\n" + body)
    assert _span_of(exc) == (span[0] + 7, span[1] + 7)


def test_parse_any_routes_by_shape():
    assert parse_any("EIO-2") == syl("EIO-2")
    assert parse_any("All M is P; All S is M; All S is P") == syl("AAA-1")


def test_parse_any_splits_a_block_at_any_line_break():
    assert parse_any("All M is P\rAll S is M\rAll S is P") == syl("AAA-1")


def test_parse_any_ignores_comments():
    # parse_compact too, as the notation promises for every parser
    for parse in (parse_any, parse_compact):
        assert parse("AAA-1  # Barbara") == syl("AAA-1")
        with pytest.raises(BadMoodLetter) as exc:
            parse("AXA-1 # c")
        assert (exc.value.span.start, exc.value.span.end) == (1, 2)


# --- corpus -----------------------------------------------------------------

def test_parse_corpus_blocks_and_comments():
    text = """# a corpus of three entries

AAA-1

All P is M; No S is M; No S is P

# the conditional one
EAO-3 +M
"""
    parsed = parse_corpus(text)
    assert [str(s) for s, _span in parsed] == ["AAA-1", "AEE-2", "EAO-3 +M"]
    spans = [span for _s, span in parsed]
    assert text[spans[0].start : spans[0].end].strip() == "AAA-1"


def test_parse_corpus_reports_spans_of_bad_blocks():
    text = "AAA-1\n\nAAB-1\n"
    with pytest.raises(BadMoodLetter) as exc:
        parse_corpus(text)
    assert text[exc.value.span.start : exc.value.span.end] == "B"


def test_parse_corpus_span_after_a_leading_comment():
    text = "AAA-1\n\n# lead comment\nAXA-2\n"
    with pytest.raises(BadMoodLetter) as exc:
        parse_corpus(text)
    assert (exc.value.span.start, exc.value.span.end) == (text.index("X"), text.index("X") + 1)


def test_a_span_runs_forward_from_zero():
    # ints proper: a bool, a float or a str is no offset
    for start, end in ((3, 1), (-1, 2), (0.5, 1.5), (False, True), (0, True), ("a", "b")):
        with pytest.raises(ValueError, match=re.escape(f"bad span {start!r}..{end!r}")):
            SourceSpan(start, end)


def test_spans_are_character_offsets():
    text = "All M is P; All café is M; All S is P"
    with pytest.raises(NotationError) as exc:
        parse_syllogism_block(text)
    # in UTF-8 bytes the slice would end at 21
    assert (exc.value.span.start, exc.value.span.end) == (16, 20)
    assert text[exc.value.span.start : exc.value.span.end] == "café"


def test_parse_corpus_empty_and_comment_only():
    assert parse_corpus("") == []
    assert parse_corpus("# nothing here\n\n# still nothing\n") == []
    assert parse_corpus("# nothing here\n\n# still nothing") == []
    # a final comment with no line break after it is skipped, not parsed
    parsed = parse_corpus("AAA-1\n\n# end")
    assert [(str(s), span.start, span.end) for s, span in parsed] == [("AAA-1", 0, 6)]


@pytest.mark.parametrize("eol", ["\r", "\u2028"])
def test_parse_corpus_comment_ends_at_any_line_break(eol):
    parsed = parse_corpus(f"# note{eol}AAA-1\n\nEAE-1\n")
    assert [(str(s), span.start, span.end) for s, span in parsed] == [
        ("AAA-1", 0, 13),
        ("EAE-1", 14, 20),
    ]


def test_parse_corpus_keeps_the_line_after_a_comment():
    # the block holds two lines, so it is not a syllogism; EIO-1 must not vanish
    with pytest.raises(NotASyllogism):
        parse_corpus("AAA-1 # c\x0cEIO-1\n\nEAE-1\n")


def test_parse_corpus_parses_each_distinct_block_once(monkeypatch):
    text = "AAA-1\n\nEAE-1\n\nAAA-1\n\nAAA-1\n\nEAE-1\n"
    calls = []

    parse_block_or_compact = notation._any

    def counting_any(block, propositions):
        calls.append(block)
        return parse_block_or_compact(block, propositions)

    monkeypatch.setattr(notation, "_any", counting_any)
    parsed = parse_corpus(text)
    assert calls == ["AAA-1\n", "EAE-1\n"]
    assert [(str(s), span.start, span.end) for s, span in parsed] == [
        ("AAA-1", 0, 6),
        ("EAE-1", 7, 13),
        ("AAA-1", 14, 20),
        ("AAA-1", 21, 27),
        ("EAE-1", 28, 34),
    ]


# AAA-1 +M four ways: compact, as a block, with renamed terms over three
# lines, and in lower case behind a comment; EAO-3 +M twice; AAA-1 once
SHARED = (
    "AAA-1 +M\n\n"
    "All M is P; All S is M; All S is P; assuming some M\n\n"
    "All dog is animal\nAll puppy is dog\nAll puppy is animal\nassuming some dog\n\n"
    "# again\naaa-1+m\n\n"
    "EAO-3 +M\n\n"
    "No M is P; All M is S; Some S is not P  # c\nassuming some M\n\n"
    "AAA-1\n"
)


def test_parse_corpus_shares_one_object_per_distinct_syllogism():
    parsed = [s for s, _span in parse_corpus(SHARED)]
    assert [str(s) for s in parsed] == ["AAA-1 +M"] * 4 + ["EAO-3 +M"] * 2 + ["AAA-1"]
    assert all(s is parsed[0] for s in parsed[1:4])
    assert parsed[5] is parsed[4]
    again = [s for s, _span in parse_corpus(SHARED)]
    assert again == parsed
    # both lists are alive, so distinct objects have distinct ids
    assert not {id(s) for s in again} & {id(s) for s in parsed}
    for parse in (parse_any, parse_compact):
        assert parse("AAA-1 +M") == parsed[0] and parse("AAA-1 +M") is not parse("AAA-1 +M")
    block = "All M is P; All S is M; All S is P"
    assert parse_syllogism_block(block) is not parse_syllogism_block(block)


def test_parse_corpus_builds_each_distinct_syllogism_once(monkeypatch):
    calls = []
    build = Syllogism.__init__

    def counting_init(self, *args):
        calls.append(args)
        build(self, *args)

    monkeypatch.setattr(Syllogism, "__init__", counting_init)
    for _ in range(2):
        calls.clear()
        parse_corpus(SHARED)
        assert len(set(calls)) == len(calls) == 3


def test_a_compact_text_is_matched_once_and_fields_build_nothing(monkeypatch):
    pattern = notation._COMPACT_RE
    matches = []

    class CountingPattern:
        def match(self, text):
            matches.append(text)
            return pattern.match(text)

    monkeypatch.setattr(notation, "_COMPACT_RE", CountingPattern())
    parse_corpus("AAA-1\n\nEAE-1 # c\n\nAAA-1\n\nAll M is P; All S is M; All S is P\n")
    assert len(matches) == 3
    matches.clear()
    parse_any("AAA-1")
    assert len(matches) == 1
    monkeypatch.undo()

    everything = list(every_syllogism())
    builds = []
    build = Syllogism.__init__

    def counting_init(self, *args):
        builds.append(args)
        build(self, *args)

    monkeypatch.setattr(Syllogism, "__init__", counting_init)
    for s in everything:
        fields = (s.mood.first, s.mood.second, s.mood.conclusion, s.figure, s.assumption)
        for text in (render_compact(s), render_block(s)):
            assert notation._any(text, {}) == fields
    assert builds == []


def test_parse_corpus_reports_a_bad_block_after_repeats_at_its_own_span():
    text = "AAA-1\n\nAAA-1\n\nAAA-1\n\nAAB-1\n\nAAB-1\n"
    with pytest.raises(BadMoodLetter) as exc:
        parse_corpus(text)
    assert (exc.value.span.start, exc.value.span.end) == (text.index("B"), text.index("B") + 1)


def test_parse_corpus_parses_each_distinct_proposition_text_once(monkeypatch):
    text = (
        "All M is P; All S is M; All S is P\n\n"
        "All M is P\nAll S is M\nAll S is P\n\n"
        "# again\nAll M is P; All S is M  # note\nAll S is P\n\n"
        "No M is P; All S is M; No S is P; assuming some S\n\n"
        "All M is P; All S is M; All S is P\n"
    )
    calls = []
    parse_one = notation._proposition

    def counting_proposition(segment):
        calls.append(segment)
        return parse_one(segment)

    monkeypatch.setattr(notation, "_proposition", counting_proposition)
    parsed = parse_corpus(text)
    # a segment keeps the spaces around it, so each separator gives its own text
    assert calls == [
        "All M is P", " All S is M", " All S is P",
        "All S is M", "All S is P",
        " All S is M  ",
        "No M is P", " No S is P",
    ]
    barbara, celarent = syl("AAA-1"), syl("EAE-1 +S")
    assert [s for s, _span in parsed] == [barbara, barbara, barbara, celarent, barbara]


def _span_of(exc):
    return exc.value.span.start, exc.value.span.end


def test_parse_corpus_checks_a_block_of_known_propositions_at_its_own_span():
    good = "All M is P\nAll S is M\nAll S is P\n\nAll X is P\nAll S is X\nAll S is P\n\n"
    # every proposition below was parsed in a block before it
    four_terms = "All M is P\nAll S is X\nAll S is P\n"
    with pytest.raises(NotASyllogism, match="exactly three terms") as exc:
        parse_corpus(good + four_terms)
    assert _span_of(exc) == (len(good), len(good) + len(four_terms))
    swapped = "All S is M\nAll M is P\nAll S is P\n"
    with pytest.raises(NotASyllogism, match="first premiss") as exc:
        parse_corpus(good + swapped)
    assert _span_of(exc) == (len(good), len(good) + len("All S is M"))


def test_parse_corpus_reports_a_bad_proposition_after_known_ones_at_its_own_span():
    good = "All M is P; All S is M; All S is P\n\n"
    text = good + "All M is P; All S is M; All S is 9\n"
    with pytest.raises(NotationError, match="term tokens") as exc:
        parse_corpus(text)
    assert _span_of(exc) == (text.index("9"), text.index("9") + 1)


# every error a block raises, in a corpus's second block (from offset 7),
# after a comment line, a blank segment and a ';', so that its segments
# start at 14, 26 and 38
@pytest.mark.parametrize(
    "body, error, match, span",
    [
        ("All M is P; All S is M", NotASyllogism, "exactly three propositions, found 2", (7, 38)),
        ("All M is P; Every S is M; All S is P", NotationError, "expected 'All X is Y'", (27, 39)),
        ("All M is P; All not is M; All S is P", NotationError, "reserved word", (31, 34)),
        ("All M is P; All 9S is M; All S is P", NotationError, "term tokens", (31, 33)),
        ("All M is P; All S is M; All S is S", NotationError, _COINCIDE, (38, 49)),
        ("All M is P; All S is Q; All S is P", NotASyllogism, "three terms, found 4", (7, 50)),
        ("All M is S; All S is M; All S is P", NotASyllogism, "first premiss", (14, 25)),
        ("All M is P; All P is M; All S is P", NotASyllogism, "second premiss", (26, 37)),
        ("All M is P; All S is M; All S is P; assuming some X", NotASyllogism, "'X'", (65, 66)),
    ],
    ids=[
        "count", "template", "reserved", "token", "coincide", "terms", "first", "second",
        "assumption",
    ],
)
def test_parse_corpus_block_error_spans_after_a_comment_and_a_semicolon(body, error, match, span):
    text = f"AAA-1\n\n# c\n \t; {body}\n"
    with pytest.raises(error, match=match) as exc:
        parse_corpus(text)
    assert type(exc.value) is error
    assert _span_of(exc) == span


def _parse_every_block(text):
    """``parse_corpus`` with no memo: every block through ``parse_any``."""
    results = []
    start = 0
    for _blank, group in groupby(text.splitlines(keepends=True), key=str.isspace):
        block = "".join(group)
        end = start + len(block)
        if notation._COMMENT_RE.sub("", block).strip():
            try:
                s = parse_any(block)
            except NotationError as exc:
                # a block's spans count from its own start: shift them into the text
                exc.span = SourceSpan(start + exc.span.start, start + exc.span.end)
                raise
            results.append((s, SourceSpan(start, end)))
        start = end
    return results


def _outcome(parse, text):
    try:
        return parse(text)
    except NotationError as exc:
        return type(exc), exc.span


_MEMO_BLOCKS = [
    "AAA-1", "EAO-3 +M", "All M is P\nAll S is M\nAll S is P", "AAA-1 # note",
    "Some tall is not fish; No fish is cat; Some cat is tall", "# only a comment",
    "AAB-1", "AAA-9", "All M is P; All S is M", "No x is y; Some y is x; Some x is x",
]
_MEMO_GAPS = ["\n\n", "\r\n\r\n", "\n \t\n", "\u2028\u2028", "\n", ""]


@given(
    st.lists(st.tuples(st.sampled_from(_MEMO_BLOCKS), st.sampled_from(_MEMO_GAPS)), max_size=12)
)
def test_parse_corpus_equals_a_parse_of_every_block(blocks):
    text = "".join(block + gap for block, gap in blocks)
    assert _outcome(parse_corpus, text) == _outcome(_parse_every_block, text)


# every line break str.splitlines knows, found by asking it, not from the parser
_LINE_BREAKS = ["\r\n"] + [
    c for c in map(chr, range(sys.maxunicode + 1)) if len(f"a{c}b".splitlines()) == 2
]


@given(
    st.lists(
        st.tuples(st.sampled_from(list(every_syllogism())), st.booleans(), st.booleans()),
        max_size=6,
    ),
    st.data(),
)
def test_parse_corpus_loses_no_block(entries, data):
    def eol():
        return data.draw(st.sampled_from(_LINE_BREAKS))

    blocks = []
    for s, compact, commented in entries:
        lines = [render_compact(s)] if compact else render_block(s).split("; ")
        if commented:
            lines.insert(0, "# note")
        blocks.append(lines[0] + "".join(eol() + line for line in lines[1:]))
    text = (eol() * 2).join(blocks)
    assert [s for s, _span in parse_corpus(text)] == [s for s, _c, _m in entries]


# a comment's text: anything but a line break, ';' and '#' included
_COMMENT_TEXT = st.text(
    st.sampled_from(";#") | st.characters(exclude_characters="".join(_LINE_BREAKS))
)


@st.composite
def _accepted(draw):
    """A syllogism and a text that ``parse_any`` reads as it, compact or a
    block split at ';' and at line breaks, maybe after a comment line."""
    s = draw(st.sampled_from(list(every_syllogism())))
    if draw(st.booleans()):
        text = render_compact(s)
    else:
        first, *rest = render_block(s).split("; ")
        text = first + "".join(draw(st.sampled_from(["; ", *_LINE_BREAKS])) + p for p in rest)
    if draw(st.booleans()):
        text = "# note" + draw(st.sampled_from(_LINE_BREAKS)) + text
    return s, text


@given(_accepted(), _COMMENT_TEXT, st.data())
def test_a_comment_at_the_end_of_any_line_changes_nothing(accepted, comment, data):
    s, text = accepted
    assert parse_any(text) == s
    lines = text.splitlines(keepends=True)
    k = data.draw(st.integers(0, len(lines) - 1))
    content = lines[k].splitlines()[0]
    lines[k] = content + " #" + comment + lines[k][len(content) :]
    assert parse_any("".join(lines)) == s


@given(
    st.lists(
        st.tuples(st.sampled_from(list(every_syllogism())), st.booleans()), min_size=1, max_size=6
    ),
    _COMMENT_TEXT,
    st.data(),
)
def test_a_comment_line_in_any_block_changes_no_syllogism(entries, comment, data):
    def corpus():
        eol = data.draw(st.sampled_from(_LINE_BREAKS))
        return (eol * 2).join(eol.join(lines) for lines in blocks)

    blocks = [
        [render_compact(s)] if compact else render_block(s).split("; ") for s, compact in entries
    ]
    expected = [s for s, _compact in entries]
    assert [s for s, _span in parse_corpus(corpus())] == expected
    k = data.draw(st.integers(0, len(blocks) - 1))
    blocks[k].insert(data.draw(st.integers(0, len(blocks[k]))), "# " + comment)
    assert [s for s, _span in parse_corpus(corpus())] == expected


# --- fuzzing ----------------------------------------------------------------

_FUZZ_TOKENS = [
    "All", "No", "Some", "is", "not", "assuming some", "AAA-1", "EIO-2", "AXA-7",
    "+M", "+Q", "S", "M", "P", "X", ";", "#", "\n", "\r", "\x0c", " ", "-",
    "0", "3", "é",
]


def _corpus_outcome(text, moved_by=0):
    """Each block of ``parse_corpus(text)``, or its error, the spans moved."""
    try:
        return [(s, span.start + moved_by, span.end + moved_by) for s, span in parse_corpus(text)]
    except NotationError as exc:
        return type(exc), str(exc), exc.span.start + moved_by, exc.span.end + moved_by


@given(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=30).map("".join))
def test_parsers_raise_only_notation_errors_with_spans_inside_the_input(text):
    for parse in (parse_any, parse_corpus):
        try:
            parse(text)
        except NotationError as exc:
            assert exc.span is not None
            assert 0 <= exc.span.start <= exc.span.end <= len(text)
    # after a first block, the text parses as alone, every span moved by that block
    expected = _corpus_outcome(text, moved_by=7)
    if isinstance(expected, list):
        expected = [(syl("AAA-1"), 0, 6), *expected]
    assert _corpus_outcome("AAA-1\n\n" + text) == expected


@pytest.mark.parametrize("parse", [parse_any, parse_compact, parse_syllogism_block, parse_proposition])
def test_public_parsers_take_only_their_text(parse):
    # spans count from the start of the text, so no caller can shift one out of it
    assert list(inspect.signature(parse).parameters) == ["text"]
    # nor does any private parser take one: a span moves only where a text sits in another
    functions = [f for _, f in inspect.getmembers(notation, inspect.isfunction)]
    takes_offset = [f.__name__ for f in functions if "offset" in inspect.signature(f).parameters]
    assert takes_offset == []
