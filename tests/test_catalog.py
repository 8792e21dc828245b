"""Enumeration rows, classical rules, opposition laws, mutual exclusion,
n-term counts, and the soundness of a match."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from syllogist import (
    BULLET,
    Assumption,
    MAX_COUNT_TERMS,
    PropKind,
    Proposition,
    Validity,
    VennSpace,
    all_moods,
    chain_along,
    check_rules,
    count_valid_nterm,
    diagram,
    enumerate_all,
    match_conclusion,
    mutually_excluded,
    normalize,
    opposition_laws,
    space_for,
    splice_existence,
)

from test_chains import ch, prop
from test_inference import syl
from test_regions import count_queries, premisses_over


def test_all_moods_covers_the_cube():
    moods = all_moods()
    assert len(moods) == 64
    assert len(set(moods)) == 64


def test_enumeration_row_counts():
    bare = enumerate_all(assumptions=(Assumption.NONE,))
    assert len(bare) == 256
    assert sum(1 for r in bare if r.calculus.validity is Validity.VALID) == 15
    assert all(r.agree for r in bare)


def test_full_enumeration_has_1024_rows():
    rows = enumerate_all()
    assert len(rows) == 1024
    assert sum(1 for r in rows if r.calculus.validity is Validity.VALID_WITH_ASSUMPTION) == 9


# --- classical rules --------------------------------------------------------

def test_two_negative_premisses():
    assert 1 in check_rules(syl("EEE-1"))


def test_two_particular_premisses():
    assert check_rules(syl("III-1")) == [2]


def test_particular_first_negative_second():
    assert 3 in check_rules(syl("IEO-1"))


def test_particular_premiss_needs_particular_conclusion():
    assert 4 in check_rules(syl("IAA-1"))


def test_negative_conclusion_pairs_with_a_negative_premiss():
    assert 5 in check_rules(syl("AAE-1"))
    assert 5 in check_rules(syl("AEA-1"))
    assert check_rules(syl("AEE-2")) == []


def test_rules_hold_for_every_valid_syllogism():
    for row in enumerate_all():
        if row.calculus.is_valid:
            assert check_rules(row.syllogism) == []


def test_rules_are_not_sufficient():
    witnesses = [
        row.syllogism
        for row in enumerate_all(assumptions=(Assumption.NONE,))
        if not row.calculus.is_valid and not check_rules(row.syllogism)
    ]
    assert witnesses  # e.g. AAA outside the first figure
    assert any(str(s.mood) == "AAA" and s.figure.value != 1 for s in witnesses)


# --- opposition laws --------------------------------------------------------

def test_all_laws_hold():
    results = opposition_laws()
    assert len(results) == 12
    assert all(r.ok for r in results)


def test_law_counts_by_kind():
    results = opposition_laws()
    assert sum(1 for r in results if r.expected is not None) == 10
    assert sum(1 for r in results if r.expected is None) == 2


def test_law_chains():
    assert [(r.name, str(r.chain)) for r in opposition_laws()] == [
        ("emptiness (converse A first)", "A -> * <- B <- A"),
        ("emptiness (converse E first)", "A -> B -> * <- A"),
        ("subalternation: I from A", "A <- * -> A -> B"),
        ("subalternation: I from converse A", "A <- B <- * -> B"),
        ("subalternation: O from E", "A <- * -> A -> * <- B"),
        ("subalternation: O from converse E", "A <- * -> A -> * <- B"),
        ("contrariety", "A -> B -> * <- B"),
        ("subcontrariety", "A <- * -> B -> * <- B"),
        ("contradiction: A against O", "A <- * -> * <- B <- A"),
        ("contradiction: E against I", "A <- * -> B -> * <- A"),
        ("no I from A alone", "B <- A -> * <- B"),
        ("no O from E alone", "B -> * <- A -> B"),
    ]


def test_subalternation_law_shape():
    (law,) = [r for r in opposition_laws() if r.name == "subalternation: I from A"]
    assert str(law.chain) == "A <- * -> A -> B"
    assert str(law.trace.normal_form) == "A <- * -> B"


def test_contradiction_law_concludes_self_exclusion():
    (law,) = [r for r in opposition_laws() if r.name == "contradiction: E against I"]
    assert law.expected == Proposition(PropKind.O, "A", "A")
    assert str(law.trace.normal_form) == "A <- * -> * <- A"


def test_non_reducing_chains_are_stuck():
    stuck = [r for r in opposition_laws() if r.expected is None]
    for r in stuck:
        assert r.trace.steps == ()
        assert r.trace.normal_form == r.chain


# --- mutual exclusion -------------------------------------------------------

def _chained(start, *premisses):
    """The chain of the premisses along their path from start, and the premisses."""
    return chain_along(start, premisses), premisses


def test_mutual_exclusion_through_a_longer_chain():
    # All C is A, No A is B, All D is B: No C is D
    chain, premisses = _chained("C", prop("A", "C", "A"), prop("E", "A", "B"), prop("A", "D", "B"))
    assert chain == ch("C -> A -> * <- B <- D")
    assert mutually_excluded(chain, "C", "D")
    assert space_for(("A", "B", "C", "D")).entails(premisses, prop("E", "C", "D"))
    # All A is C, No A is B, All B is D: A = {1}, B = {2}, C = D = {1, 2}
    # satisfies the premisses, and C and D overlap
    chain, premisses = _chained("C", prop("A", "A", "C"), prop("E", "A", "B"), prop("A", "B", "D"))
    assert chain == ch("C <- A -> * <- B -> D")
    assert not mutually_excluded(chain, "C", "D")
    assert not space_for(("A", "B", "C", "D")).entails(premisses, prop("E", "C", "D"))


def test_e_diagram_is_the_minimal_exclusion():
    assert mutually_excluded(diagram(prop("E", "A", "B")), "A", "B")


def test_i_diagram_is_not_an_exclusion():
    assert not mutually_excluded(diagram(prop("I", "A", "B")), "A", "B")


def test_two_bullets_are_not_an_exclusion():
    assert not mutually_excluded(diagram(prop("O", "A", "B")), "A", "B")


def test_exclusion_reduces_interior_runs():
    terms = ("A", "B", "C", "D", "X", "Y")
    chain, premisses = _chained(
        "C",
        prop("A", "C", "X"), prop("A", "X", "A"), prop("E", "A", "B"),
        prop("A", "Y", "B"), prop("A", "D", "Y"),
    )
    assert chain == ch("C -> X -> A -> * <- B <- Y <- D")
    assert mutually_excluded(chain, "C", "D")
    assert VennSpace(terms).entails(premisses, prop("E", "C", "D"))
    # the arrows flow outward from A and B, so C and D may overlap
    chain, premisses = _chained(
        "C",
        prop("A", "X", "C"), prop("A", "A", "X"), prop("E", "A", "B"),
        prop("A", "B", "Y"), prop("A", "Y", "D"),
    )
    assert chain == ch("C <- X <- A -> * <- B -> Y -> D")
    assert not mutually_excluded(chain, "C", "D")
    assert not VennSpace(terms).entails(premisses, prop("E", "C", "D"))
    assert not mutually_excluded(ch("C <- X <- A -> * -> B -> Y -> D"), "C", "D")


def test_a_law_chain_does_not_exclude_a_term_from_itself():
    # the "no I from A alone" chain: All A is B, No A is B; A = {}, B = {1}
    # satisfies both, and B is inhabited
    chain, premisses = _chained("B", prop("A", "A", "B"), prop("E", "A", "B"))
    assert chain == ch("B <- A -> * <- B")
    assert not mutually_excluded(chain, "B", "B")
    assert not VennSpace(("A", "B")).entails(premisses, prop("E", "B", "B"))


def test_exclusion_in_a_stretch_after_a_repeated_term():
    # No A is A, No A is B: the tail A -> * <- B concludes No A is B, though
    # the stretch from the first A to B does not reduce to the E diagram
    chain, premisses = _chained("A", prop("E", "A", "A"), prop("E", "A", "B"))
    assert chain == ch("A -> * <- A -> * <- B")
    assert mutually_excluded(chain, "A", "B")
    assert mutually_excluded(chain, "B", "A")
    assert VennSpace(("A", "B")).entails(premisses, prop("E", "A", "B"))


def test_exclusion_of_a_term_from_itself():
    assert mutually_excluded(diagram(prop("E", "A", "A")), "A", "A")


def test_exclusion_requires_both_terms():
    with pytest.raises(
        ValueError, match=r"^term 'Q' has no occurrence in A -> \* <- B apart from 'A'$"
    ):
        mutually_excluded(ch("A -> * <- B"), "A", "Q")
    with pytest.raises(ValueError, match=r"^term 'Q' does not occur in A -> \* <- B$"):
        mutually_excluded(ch("A -> * <- B"), "Q", "A")
    with pytest.raises(ValueError, match=r"^term 'A' has no occurrence in A -> B apart from 'A'$"):
        mutually_excluded(ch("A -> B"), "A", "A")


def test_exclusion_between_interior_occurrences():
    # only the stretch between the chosen terms matters
    assert mutually_excluded(ch("Q -> A -> * <- B <- R"), "A", "B")


def test_exclusion_takes_terms_only():
    chain = ch("A -> * <- B")
    for bad, message in (
        (BULLET, r"^term identifiers are non-empty strings, got \*$"),
        ("", r"^term identifiers are non-empty strings, got ''$"),
        ("->", r"^term identifier '->' clashes with chain notation$"),
        ("two words", r"^term identifier 'two words' clashes with chain notation$"),
    ):
        with pytest.raises(ValueError, match=message):
            mutually_excluded(chain, bad, "B")
        with pytest.raises(ValueError, match=message):
            mutually_excluded(chain, "A", bad)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mutual_exclusion_agrees_with_the_venn_oracle(n):
    # every candidate of the n-term count with an E conclusion
    terms, _, candidates = count_queries(n)
    venn = VennSpace(terms)
    for premisses, conclusion in candidates:
        if conclusion.kind is not PropKind.E:
            continue
        chain = chain_along(terms[0], premisses)
        excluded = mutually_excluded(chain, terms[0], terms[-1])
        assert excluded == mutually_excluded(chain, terms[-1], terms[0]), premisses
        assert excluded == venn.entails(premisses, conclusion), premisses


# --- n-term counting --------------------------------------------------------

def test_three_term_count_matches_the_formula():
    assert count_valid_nterm(3) == 24


def test_three_term_bare_count():
    assert count_valid_nterm(3, with_assumptions=False) == 15


def test_four_term_counts():
    assert count_valid_nterm(4) == 44
    # 2n^2 - n unconditionally valid candidates
    assert count_valid_nterm(4, with_assumptions=False) == 28


def test_counts_match_the_formulas():
    for n in range(3, MAX_COUNT_TERMS + 1):
        assert count_valid_nterm(n) == 3 * n * n - n
    for n in range(3, 6):
        assert count_valid_nterm(n, with_assumptions=False) == 2 * n * n - n


@pytest.mark.parametrize("n", [3, 4])
def test_one_assumption_or_all_of_them(n):
    # valid bare or under one existence assumption exactly when valid
    # under all of them together: the lemma above count_valid_nterm
    terms, existence, candidates = count_queries(n)
    space = space_for(terms)
    singles = [(e,) for e in existence]
    for premisses, conclusion in candidates:
        alone = any(space.entails((*premisses, *extra), conclusion) for extra in [(), *singles])
        assert alone == space.entails((*premisses, *existence), conclusion), (premisses, conclusion)


def _calculates(chain, conclusion, term=None):
    """The bare match wins first; otherwise, given a term, splice its existence and match."""
    if match_conclusion(normalize(chain).normal_form, conclusion):
        return True
    if term is None:
        return False
    return match_conclusion(normalize(splice_existence(chain, term)).normal_form, conclusion)


@pytest.mark.parametrize("n", [3, 4])
def test_calculus_agrees_with_the_venn_oracle_beyond_three_terms(n):
    # every candidate of the n-term count, its premisses chained along T1..Tn
    terms, existence, candidates = count_queries(n)
    venn = VennSpace(terms)
    bare = assumed = 0
    for premisses, conclusion in candidates:
        chain = chain_along(terms[0], premisses)
        valid_bare = _calculates(chain, conclusion)
        assert valid_bare == venn.entails(premisses, conclusion), (premisses, conclusion)
        valid_under = [_calculates(chain, conclusion, t) for t in terms]
        for valid, e in zip(valid_under, existence):
            assert valid == venn.entails((*premisses, e), conclusion), (premisses, conclusion, e)
        bare += valid_bare
        assumed += any(valid_under)
    assert bare == count_valid_nterm(n, with_assumptions=False) == 2 * n * n - n
    assert assumed == count_valid_nterm(n) == 3 * n * n - n


# --- soundness of a match when terms repeat ------------------------------------

def _assert_matches_are_entailed(path, premisses):
    """Every conclusion over the path's ends that the chain reduces to, and
    every exclusion ``mutually_excluded`` finds between two of its terms, is
    entailed; returns the chain."""
    chain = chain_along(path[0], premisses)
    normal = normalize(chain).normal_form
    venn = VennSpace(tuple(dict.fromkeys(path)))
    for kind in PropKind:
        conclusion = Proposition(kind, path[0], path[-1])
        if match_conclusion(normal, conclusion):
            assert venn.entails(premisses, conclusion), (path, premisses, conclusion)
    for x, y in product(set(path), repeat=2):
        if (x != y or path.count(x) > 1) and mutually_excluded(chain, x, y):
            assert venn.entails(premisses, prop("E", x, y)), (path, premisses, x, y)
    return chain


def test_matches_are_sound_on_short_paths_with_repeated_terms():
    # every path of one or two premisses over A, B, C, terms repeating
    chains = set()
    for length in (2, 3):
        for path in product("ABC", repeat=length):
            for premisses in product(*(premisses_over(x, y) for x, y in zip(path, path[1:]))):
                chains.add(_assert_matches_are_entailed(path, premisses))
    # which covers every opposition law's chain
    assert all(law.chain in chains for law in opposition_laws())


@st.composite
def term_paths(draw):
    path = draw(st.lists(st.sampled_from("ABC"), min_size=4, max_size=5))
    premisses = [draw(st.sampled_from(premisses_over(x, y))) for x, y in zip(path, path[1:])]
    return path, premisses


@given(term_paths())
def test_matches_are_sound_on_longer_paths_with_repeated_terms(case):
    _assert_matches_are_entailed(*case)


def test_unsupported_n():
    assert MAX_COUNT_TERMS == 6
    for n in (1, 2, 0, -3, 7, 3.0, True):
        with pytest.raises(ValueError) as raised:
            count_valid_nterm(n)
        assert str(raised.value) == f"n-term counting supports n from 3 to 6, got {n!r}"
