"""Chain construction, dualization, concatenation, splicing."""

import sys

import pytest
from hypothesis import given, strategies as st

from syllogist import (
    BULLET,
    Arrow,
    Assumption,
    Chain,
    PropKind,
    Proposition,
    chain_along,
    chain_from_text,
    concat,
    diagram,
    normalize,
    reduce_at,
    reducible_positions,
    splice_existence,
)
from syllogist.chains import _Value

L, R = Arrow.LEFT, Arrow.RIGHT


def prop(kind, subject, predicate):
    return Proposition(PropKind[kind], subject, predicate)


def ch(text):
    return chain_from_text(text)


def count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` so that each call appends its first argument."""
    calls = []
    original = getattr(owner, name)

    def counting(value, *args):
        calls.append(value)
        return original(value, *args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_value_equality(monkeypatch) -> list:
    """Record every call of the value classes' one ``__eq__`` and ``__hash__``."""
    return [count_calls(monkeypatch, _Value, name) for name in ("__eq__", "__hash__")]


# --- strategies -------------------------------------------------------------

terms = st.sampled_from(["A", "B", "C", "S", "M", "P"])
arrows = st.sampled_from([L, R])


@st.composite
def chains(draw, max_nodes=9):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = []
    for i in range(n):
        if i in (0, n - 1):
            nodes.append(draw(terms))
        else:
            nodes.append(draw(st.one_of(terms, st.just(BULLET))))
    return Chain(tuple(nodes), tuple(draw(arrows) for _ in range(n - 1)))


# --- diagrams ---------------------------------------------------------------

@pytest.mark.parametrize(
    "kind,expected",
    [
        ("A", "S -> P"),
        ("E", "S -> * <- P"),
        ("I", "S <- * -> P"),
        ("O", "S <- * -> * <- P"),
    ],
)
def test_diagram_shapes(kind, expected):
    assert str(diagram(prop(kind, "S", "P"))) == expected


def test_diagram_of_first_premiss_has_no_bullet():
    c = diagram(prop("A", "M", "P"))
    assert str(c) == "M -> P"
    assert c.bullet_count == 0


def test_diagram_handles_repeated_term():
    # the emptiness shape: No A is A
    assert str(diagram(prop("E", "A", "A"))) == "A -> * <- A"


def test_o_diagram_structure():
    c = diagram(prop("O", "A", "B"))
    assert len(c.nodes) == 4
    assert c.bullet_count == 2
    assert c.arrows == (L, R, L)


def test_bullet_counts_per_kind():
    for kind, count in (("A", 0), ("E", 1), ("I", 1), ("O", 2)):
        c = diagram(prop(kind, "S", "P"))
        assert c.bullet_count == count
        assert (c.left, c.right) == ("S", "P")


# --- dual -------------------------------------------------------------------

def test_dual_of_forward_a():
    assert str(diagram(prop("A", "P", "M")).dual()) == "M <- P"


def test_dual_symmetric_kinds():
    # E and I diagrams mirror into the same shape with swapped endpoints
    assert diagram(prop("E", "A", "B")).dual() == diagram(prop("E", "B", "A"))
    assert diagram(prop("I", "A", "B")).dual() == diagram(prop("I", "B", "A"))


def test_dual_asymmetric_kinds():
    assert diagram(prop("A", "A", "B")).dual() != diagram(prop("A", "B", "A"))
    assert diagram(prop("O", "A", "B")).dual() != diagram(prop("O", "B", "A"))


def test_dual_involution_on_o():
    c = diagram(prop("O", "A", "B"))
    assert c.dual().dual() == c


@given(chains())
def test_dual_is_an_involution(c):
    assert c.dual().dual() == c


@given(chains())
def test_dual_preserves_bullets(c):
    assert c.dual().bullet_count == c.bullet_count


# --- concat and join --------------------------------------------------------

def test_concat_shares_the_junction_term():
    joined = concat(ch("S -> M"), ch("M -> P"))
    assert str(joined) == "S -> M -> P"
    assert len(joined.nodes) == 3


def test_concat_mismatch():
    with pytest.raises(ValueError, match=r"^cannot join 'P' on the left to 'Q' on the right$"):
        concat(ch("S -> P"), ch("Q -> R"))


def test_concat_rejects_bullet_junction():
    with pytest.raises(ValueError, match=r"^chains join on a shared term, not on a bullet$"):
        concat(ch("S -> *"), ch("* -> P"))


def test_chain_along_joins_premisses_as_written():
    joined = chain_along("S", (prop("A", "S", "M"), prop("A", "M", "P")))
    assert str(joined) == "S -> M -> P"


def test_chain_along_dualizes_a_premiss_ending_at_the_junction():
    joined = chain_along("S", (prop("E", "S", "M"), prop("A", "P", "M")))
    assert str(joined) == "S -> * <- M <- P"


def test_chain_along_self_on_shared_endpoint():
    c = prop("A", "A", "A")
    assert str(chain_along("A", (c, c))) == "A -> A -> A"


def test_chain_along_rejects_a_premiss_off_the_right_end():
    with pytest.raises(
        ValueError, match=r"^A\(S,P\) does not continue a chain that ends at 'M'$"
    ):
        chain_along("S", (prop("A", "S", "M"), prop("A", "S", "P")))


def test_chain_along_rejects_a_bad_start():
    for bad, message in (
        ("", r"^term identifiers are non-empty strings, got ''$"),
        ("*", r"^term identifier '\*' clashes with chain notation$"),
        ("two words", r"^term identifier 'two words' clashes with chain notation$"),
        (None, r"^term identifiers are non-empty strings, got None$"),
    ):
        with pytest.raises(ValueError, match=message):
            chain_along(bad, ())


def test_concat_bullet_count_is_additive():
    left = diagram(prop("E", "S", "M"))
    right = diagram(prop("O", "M", "P"))
    assert concat(left, right).bullet_count == left.bullet_count + right.bullet_count


@given(chains(max_nodes=5), chains(max_nodes=5), chains(max_nodes=5))
def test_concat_is_associative_and_additive(a, b, c):
    # rename boundary terms so that both junctions exist
    b = Chain((a.right,) + b.nodes[1:], b.arrows)
    c = Chain((b.right,) + c.nodes[1:], c.arrows)
    assert concat(concat(a, b), c) == concat(a, concat(b, c))
    total = a.bullet_count + b.bullet_count + c.bullet_count
    assert concat(a, concat(b, c)).bullet_count == total


# --- splicing ---------------------------------------------------------------

def test_splice_at_left_end():
    spliced = splice_existence(ch("S -> M -> P"), "S")
    assert str(spliced) == "S <- * -> S -> M -> P"


def test_splice_at_shared_middle():
    spliced = splice_existence(ch("S <- M -> P"), "M")
    assert str(spliced) == "S <- M <- * -> M -> P"


def test_splice_at_right_end():
    spliced = splice_existence(ch("S <- M <- P"), "P")
    assert str(spliced) == "S <- M <- P <- * -> P"


def test_splice_adds_exactly_one_bullet():
    base = ch("S <- M -> * <- P")
    spliced = splice_existence(base, "M")
    assert spliced.bullet_count == base.bullet_count + 1
    assert len(spliced.nodes) == len(base.nodes) + 2


def test_splice_missing_occurrence():
    with pytest.raises(ValueError, match=r"^occurrence 0 of term 'Q' not found in S -> M -> P$"):
        splice_existence(ch("S -> M -> P"), "Q")
    with pytest.raises(ValueError, match=r"^occurrence 1 of term 'M' not found in S -> M -> P$"):
        splice_existence(ch("S -> M -> P"), "M", occurrence=1)
    # only an int indexes the occurrences: not a string, a float or a bool
    for occurrence, shown in (("0", "'0'"), (0.0, r"0\.0")):
        with pytest.raises(
            ValueError, match=rf"^occurrence {shown} of term 'A' not found in A -> B$"
        ):
            splice_existence(ch("A -> B"), "A", occurrence)
    with pytest.raises(
        ValueError, match=r"^occurrence True of term 'A' not found in A -> A -> B$"
    ):
        splice_existence(ch("A -> A -> B"), "A", True)


# each term splice_existence refuses, and the term-name message it gives
_NOT_TERMS = {
    BULLET: r"^term identifiers are non-empty strings, got \*$",
    "": r"^term identifiers are non-empty strings, got ''$",
    "->": r"^term identifier '->' clashes with chain notation$",
    "two words": r"^term identifier 'two words' clashes with chain notation$",
    5: r"^term identifiers are non-empty strings, got 5$",
}


@pytest.mark.parametrize("term", list(_NOT_TERMS))
def test_splice_checks_its_term(term):
    # a bullet is no term: splicing at one would read "there is some *"
    some_ab = diagram(prop("I", "A", "B"))
    assert BULLET in some_ab.nodes
    with pytest.raises(ValueError, match=_NOT_TERMS[term]) as caught:
        splice_existence(some_ab, term)
    # the term-name check, not the occurrence one
    assert "occurrence" not in str(caught.value)


def test_splice_second_occurrence():
    spliced = splice_existence(ch("A -> A -> B"), "A", occurrence=1)
    assert str(spliced) == "A -> A <- * -> A -> B"


# --- rendering and validation -----------------------------------------------

def test_render_round_trip_example():
    text = "S -> * <- M <- P"
    assert str(ch(text)) == text


@given(chains())
def test_render_round_trip(c):
    assert chain_from_text(str(c)) == c


def test_chain_from_text_rejects_junk():
    for bad, message in (
        ("", r"^not a chain rendering: ''$"),
        ("->", r"^expected a node at token 0, got '->'$"),
        ("S ->", r"^not a chain rendering: 'S ->'$"),
        ("S -> <- P", r"^not a chain rendering: 'S -> <- P'$"),
        ("S => P", r"^expected an arrow at token 1, got '=>'$"),
    ):
        with pytest.raises(ValueError, match=message):
            chain_from_text(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("S * P", "expected an arrow at token 1, got '*'"),
        ("-> S P", "expected a node at token 0, got '->'"),
        ("S -> <- -> P", "expected a node at token 2, got '<-'"),
    ],
)
def test_chain_from_text_names_the_misplaced_token(text, message):
    with pytest.raises(ValueError) as raised:
        chain_from_text(text)
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


def test_chain_validation():
    with pytest.raises(ValueError, match=r"^a chain has at least one node$"):
        Chain((), ())
    with pytest.raises(ValueError, match=r"^2 nodes need 1 arrows, got 0$"):
        Chain(("S", "P"), ())
    with pytest.raises(ValueError, match=r"^term identifiers are non-empty strings, got ''$"):
        Chain(("",), ())
    with pytest.raises(
        ValueError, match=r"^term identifier 'two words' clashes with chain notation$"
    ):
        Chain(("S", "two words"), (R,))
    with pytest.raises(ValueError, match=r"^not an arrow: '->'$"):
        Chain(("A", "B"), ("->",))


def test_bullet_is_never_a_term():
    assert BULLET != "S"
    assert BULLET != "*"
    assert ch("S -> *").occurrences("S") == [0]


def test_proposition_rejects_bad_terms():
    with pytest.raises(ValueError, match=r"^term identifiers are non-empty strings, got ''$"):
        Proposition(PropKind.A, "", "B")


def test_proposition_rejects_a_kind_that_is_not_a_prop_kind():
    # unchecked, "E" would draw O's diagram and str() would raise AttributeError
    for kind in ("E", None, Assumption.SOME_S):
        with pytest.raises(ValueError) as raised:
            Proposition(kind, "S", "P")
        assert str(raised.value) == f"a proposition's kind is a PropKind, got {kind!r}"


def test_whitespace_anywhere_in_a_term_is_rejected():
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    for c in spaces:
        for name in (f"a{c}b", f"{c}a", f"a{c}"):
            message = f"term identifier {name!r} clashes with chain notation"
            with pytest.raises(ValueError) as raised:
                Proposition(PropKind.A, name, "B")
            assert str(raised.value) == message
            with pytest.raises(ValueError) as raised:
                Chain((name,), ())
            assert str(raised.value) == message


# --- derived chains are checked as built ------------------------------------

def assert_as_if_validated(out):
    """A derived chain is exactly what the validating constructor builds."""
    assert type(out.nodes) is tuple and type(out.arrows) is tuple
    rebuilt = Chain(out.nodes, out.arrows)
    assert rebuilt == out
    assert hash(rebuilt) == hash(out)


@given(chains(), chains(max_nodes=5))
def test_derived_chains_pass_full_validation(c, other):
    assert_as_if_validated(c.dual())
    assert_as_if_validated(concat(c, Chain((c.right,) + other.nodes[1:], other.arrows)))
    for term in {node for node in c.nodes if node != BULLET}:
        for k in range(len(c.occurrences(term))):
            assert_as_if_validated(splice_existence(c, term, k))
    for i in reducible_positions(c):
        assert_as_if_validated(reduce_at(c, i))
    for step in normalize(c).steps:
        assert_as_if_validated(step.after)


@given(st.sampled_from(list(PropKind)), terms, terms)
def test_diagrams_pass_full_validation(kind, subject, predicate):
    p = Proposition(kind, subject, predicate)
    assert_as_if_validated(diagram(p))
    assert_as_if_validated(chain_along(subject, ()))
    assert_as_if_validated(chain_along(subject, (p,)))
    assert_as_if_validated(chain_along(predicate, (p,)))
