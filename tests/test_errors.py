"""The error model: the package's exception classes and what each input error raises."""

import pkgutil
from importlib import import_module

import pytest

import syllogist
from syllogist import (
    BadMoodLetter,
    Chain,
    ModelSpace,
    NotASyllogism,
    NotationError,
    PropKind,
    Proposition,
    RegionModel,
    chain_along,
    chain_from_text,
    concat,
    count_valid_nterm,
    eval_proposition,
    mutually_excluded,
    parse_compact,
    parse_syllogism_block,
    reduce_at,
    splice_existence,
)

ch = chain_from_text


def test_the_package_defines_three_exception_classes():
    # a parse error carries a span; every other input error is a plain ValueError
    found = set()
    for info in pkgutil.iter_modules(syllogist.__path__):
        module = import_module(f"syllogist.{info.name}")
        found |= {
            value
            for value in vars(module).values()
            if isinstance(value, type)
            and issubclass(value, BaseException)
            and value.__module__ == module.__name__
        }
    assert found == {NotationError, BadMoodLetter, NotASyllogism}


# one row for each raise site whose error had a class of its own: the call,
# the whole message, and the class it raises, with the span of a parse error
RAISE_SITES = {
    "term-empty": (
        (Proposition, PropKind.A, "", "B"),
        r"^term identifiers are non-empty strings, got ''$",
        ValueError, None,
    ),
    "term-clash": (
        (Chain, ("two words",), ()),
        r"^term identifier 'two words' clashes with chain notation$",
        ValueError, None,
    ),
    "proposition-kind": (
        (Proposition, "E", "S", "P"),
        r"^a proposition's kind is a PropKind, got 'E'$",
        ValueError, None,
    ),
    "chain-empty": ((Chain, (), ()), r"^a chain has at least one node$", ValueError, None),
    "chain-arrow-count": (
        (Chain, ("S", "P"), ()), r"^2 nodes need 1 arrows, got 0$", ValueError, None,
    ),
    "chain-not-an-arrow": (
        (Chain, ("A", "B"), ("->",)), r"^not an arrow: '->'$", ValueError, None,
    ),
    "rendering-length": (
        (chain_from_text, "S ->"), r"^not a chain rendering: 'S ->'$", ValueError, None,
    ),
    "rendering-token": (
        (chain_from_text, "S * P"),
        r"^expected an arrow at token 1, got '\*'$",
        ValueError, None,
    ),
    "concat-bullet": (
        (concat, ch("S -> *"), ch("* -> P")),
        r"^chains join on a shared term, not on a bullet$",
        ValueError, None,
    ),
    "concat-terms": (
        (concat, ch("S -> P"), ch("Q -> R")),
        r"^cannot join 'P' on the left to 'Q' on the right$",
        ValueError, None,
    ),
    "chain-along": (
        (
            chain_along,
            "S",
            (Proposition(PropKind.A, "S", "M"), Proposition(PropKind.A, "S", "P")),
        ),
        r"^A\(S,P\) does not continue a chain that ends at 'M'$",
        ValueError, None,
    ),
    "splice-occurrence": (
        (splice_existence, ch("S -> M -> P"), "Q"),
        r"^occurrence 0 of term 'Q' not found in S -> M -> P$",
        ValueError, None,
    ),
    "reduce-at": (
        (reduce_at, ch("S -> * <- P"), 1),
        r"^node 1 of S -> \* <- P is not reducible$",
        ValueError, None,
    ),
    "unknown-term": (
        (eval_proposition, Proposition(PropKind.A, "A", "Z"), RegionModel(("A", "B"), 0)),
        r"^term 'Z' is not among \('A', 'B'\)$",
        ValueError, None,
    ),
    "too-many-terms": (
        (ModelSpace, ("A", "B", "C", "D", "E")), r"^at most 4 terms, got 5$", ValueError, None,
    ),
    "exclusion-first-term": (
        (mutually_excluded, ch("A -> * <- B"), "Q", "A"),
        r"^term 'Q' does not occur in A -> \* <- B$",
        ValueError, None,
    ),
    "exclusion-second-term": (
        (mutually_excluded, ch("A -> * <- B"), "A", "Q"),
        r"^term 'Q' has no occurrence in A -> \* <- B apart from 'A'$",
        ValueError, None,
    ),
    "count-n": (
        (count_valid_nterm, 7),
        r"^n-term counting supports n from 3 to 6, got 7$",
        ValueError, None,
    ),
    "figure": (
        (parse_compact, "AAA-5"), r"^figures are 1 to 4, got '5'$", NotationError, (4, 5),
    ),
    "coinciding-terms": (
        (parse_syllogism_block, "All M is P; All S is M; All S is S"),
        r"^the conclusion's subject and predicate coincide, so the term roles collapse$",
        NotationError, (23, 34),
    ),
}


@pytest.mark.parametrize("site", list(RAISE_SITES))
def test_each_input_error_raises_its_message_as_a_value_error(site):
    (call, *args), message, error, span = RAISE_SITES[site]
    with pytest.raises(ValueError, match=message) as raised:
        call(*args)
    assert type(raised.value) is error
    if error is NotationError:
        assert (raised.value.span.start, raised.value.span.end) == span

