"""Region models: single-model truth, exhaustive entailment, verdicts."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from syllogist import (
    Assumption,
    Figure,
    Mood,
    MAX_COUNT_TERMS,
    MAX_TERMS,
    MAX_VENN_TERMS,
    ModelSpace,
    PropKind,
    Proposition,
    RegionModel,
    Syllogism,
    Validity,
    VennSpace,
    count_valid_nterm,
    enumerate_all,
    eval_proposition,
    semantic_verdict,
    space_for,
)
from syllogist.regions import region_mask

from test_chains import count_calls, count_value_equality, prop
from test_inference import syl

AB = ("A", "B")
SMP = ("S", "M", "P")


def atom(model_terms, *inside):
    """Index of the atom lying inside exactly the given terms."""
    return sum(1 << model_terms.index(t) for t in inside)


def test_empty_universe_verifies_universals_only():
    empty = RegionModel(AB, 0)
    assert eval_proposition(prop("A", "A", "B"), empty)
    assert eval_proposition(prop("E", "A", "B"), empty)
    assert not eval_proposition(prop("I", "A", "B"), empty)
    assert not eval_proposition(prop("O", "A", "B"), empty)


def test_lone_a_element():
    m = RegionModel(AB, 1 << atom(AB, "A"))
    assert eval_proposition(prop("O", "A", "B"), m)
    assert not eval_proposition(prop("A", "A", "B"), m)


def test_existence_proposition_reads_inhabitation():
    for mask in range(16):
        m = RegionModel(AB, mask)
        some_a = any(
            m.is_inhabited(a) for a in range(4) if a & (1 << AB.index("A"))
        )
        assert eval_proposition(prop("I", "A", "A"), m) == some_a


def test_contradictory_pairs_in_every_model():
    for mask in range(1 << 8):
        m = RegionModel(SMP, mask)
        a, e = eval_proposition(prop("A", "S", "M"), m), eval_proposition(prop("E", "S", "M"), m)
        i, o = eval_proposition(prop("I", "S", "M"), m), eval_proposition(prop("O", "S", "M"), m)
        assert a != o
        assert e != i


def test_model_space_sizes():
    assert len(space_for(SMP)) == 256
    assert len(space_for(("T1", "T2", "T3", "T4"))) == 65536


def test_model_space_caps_terms():
    with pytest.raises(ValueError, match=f"^at most {MAX_TERMS} terms, got 5$"):
        ModelSpace(("A", "B", "C", "D", "E"))


def test_the_oracles_share_one_term_space_and_decide_apart():
    # ModelSpace checks its terms through VennSpace's constructor but answers
    # by its own procedure, so the agreement tests compare two procedures
    assert issubclass(ModelSpace, VennSpace)
    assert "entails" in vars(ModelSpace) and "truth" in vars(ModelSpace)


def test_a_model_space_keeps_one_cache_and_fills_it():
    # a space has one per-proposition dict; a ModelSpace fills it with truth vectors
    enumerate_all()
    space = space_for(SMP)
    assert [name for name, value in vars(space).items() if value == {}] == []


def test_venn_space_caps_terms():
    assert MAX_COUNT_TERMS <= MAX_VENN_TERMS
    terms = tuple(f"T{i}" for i in range(MAX_VENN_TERMS + 1))
    venn = VennSpace(terms[:-1])
    assert venn.entails([prop("A", "T0", "T1")], prop("A", "T0", "T1"))
    # a chain across the whole term list, at exactly the cap
    premisses = [prop("A", "T0", "T1"), prop("A", "T1", terms[-2])]
    assert venn.entails(premisses, prop("A", "T0", terms[-2]))
    assert not venn.entails(premisses, prop("I", "T0", terms[-2]))
    with pytest.raises(ValueError, match=f"^at most {MAX_VENN_TERMS} terms, got {len(terms)}$"):
        VennSpace(terms)


@pytest.mark.parametrize("k", range(1, 6))
def test_region_mask_is_the_atoms_of_the_region(k):
    # A and O: inside the subject, outside the predicate; E and I: inside both
    terms = tuple(f"T{i}" for i in range(k))
    for kind in PropKind:
        inside_y = kind in (PropKind.E, PropKind.I)
        for x, y in product(range(k), repeat=2):
            expected = sum(
                1 << a for a in range(1 << k) if a >> x & 1 and bool(a >> y & 1) == inside_y
            )
            assert region_mask(Proposition(kind, terms[x], terms[y]), terms) == expected


def test_unknown_term():
    with pytest.raises(ValueError, match=r"^term 'Z' is not among \('A', 'B'\)$"):
        eval_proposition(prop("A", "A", "Z"), RegionModel(AB, 0))
    with pytest.raises(ValueError, match=r"^term 'Q' is not among \('A', 'B'\)$"):
        space_for(AB).entails([prop("A", "Q", "B")], prop("A", "A", "B"))


def test_duplicate_terms_rejected():
    with pytest.raises(ValueError):
        ModelSpace(("A", "A"))


def test_region_model_checks_its_terms_and_mask():
    # the cap comes first: the range check builds a 2^k-bit bound
    terms = tuple(f"T{i}" for i in range(MAX_VENN_TERMS + 1))
    assert RegionModel(terms[:-1], 0).terms == terms[:-1]
    with pytest.raises(ValueError, match=f"^at most {MAX_VENN_TERMS} terms, got {len(terms)}$"):
        RegionModel(terms, 0)
    with pytest.raises(ValueError, match="duplicate"):
        RegionModel(("A", "B", "A"), 0)
    # the cap comes before each term, and each term before duplicates,
    # so an unhashable term is reported as a term, not hashed
    with pytest.raises(ValueError, match=f"^at most {MAX_VENN_TERMS} terms, got {len(terms)}$"):
        RegionModel(("",) + terms[:-1], 0)
    with pytest.raises(ValueError, match="^term identifiers are non-empty strings, got ''$"):
        RegionModel(("", ""), 0)
    with pytest.raises(ValueError, match="non-empty strings, got 3"):
        RegionModel(("A", 3), 1)
    with pytest.raises(ValueError, match=r"^term identifiers are non-empty strings, got \['a'\]$"):
        RegionModel((["a"],), 0)
    for mask in (1.5, "1", None, True):
        with pytest.raises(ValueError, match="an inhabitation mask is an int"):
            RegionModel(AB, mask)
    with pytest.raises(ValueError, match="out of range"):
        RegionModel(AB, 16)


def test_a_venn_space_checks_each_term():
    with pytest.raises(ValueError, match="non-empty strings, got ''"):
        VennSpace(("S", "", "*"))
    with pytest.raises(ValueError, match="'\\*' clashes with chain notation"):
        VennSpace(("S", "*"))
    with pytest.raises(ValueError, match=r"^term identifiers are non-empty strings, got \['a'\]$"):
        VennSpace((["a"],))


def test_a_model_space_checks_each_term():
    with pytest.raises(ValueError, match="non-empty strings, got ''"):
        space_for(("S", "", "*"))
    with pytest.raises(ValueError, match="'->' clashes with chain notation"):
        ModelSpace(("S", "->"))


# --- entailment -------------------------------------------------------------

def test_first_figure_entailment():
    assert space_for(SMP).entails(
        [prop("A", "M", "P"), prop("A", "S", "M")], prop("A", "S", "P")
    )


def test_two_particular_premisses_fail():
    assert not space_for(SMP).entails(
        [prop("O", "P", "M"), prop("E", "M", "S")], prop("I", "S", "P")
    )


def test_existence_assumption_rescues_the_import_case():
    premisses = [prop("E", "P", "M"), prop("A", "M", "S")]
    conclusion = prop("O", "S", "P")
    assert not space_for(SMP).entails(premisses, conclusion)
    assert space_for(SMP).entails([*premisses, prop("I", "M", "M")], conclusion)


def test_subalternation_needs_import():
    space = space_for(AB)
    assert not space.entails([prop("A", "A", "B")], prop("I", "A", "B"))
    assert space.entails([prop("A", "A", "B"), prop("I", "A", "A")], prop("I", "A", "B"))
    assert not space.entails([prop("E", "A", "B")], prop("O", "A", "B"))
    assert space.entails([prop("E", "A", "B"), prop("I", "A", "A")], prop("O", "A", "B"))


def test_assumptions_are_monotone():
    # an assumption can only shrink the set of countermodels
    from syllogist import conclusion_of, premisses_of

    existence = [prop("I", t, t) for t in SMP]
    for fig in Figure:
        for mood in (Mood(a, b, c) for a in PropKind for b in PropKind for c in PropKind):
            s = Syllogism(mood, fig)
            if semantic_verdict(s).is_valid:
                for some in existence:
                    assert space_for(SMP).entails((*premisses_of(s), some), conclusion_of(s))


def test_semantic_verdict_asks_the_bare_question_only_when_the_assumed_one_holds(monkeypatch):
    # entailment is monotone in the premisses, so a failed query with the existence
    # premiss settles INVALID; asking the bare query first took 1 747 and 5 964 calls
    entails = count_calls(monkeypatch, ModelSpace, "entails")
    truths = count_calls(monkeypatch, ModelSpace, "truth")
    enumerate_all()
    # 256 bare queries, 768 with an existence premiss, and 54 bare after one held
    assert len(entails) == 256 + 768 + 54 == 1078
    assert len(truths) == 256 * 3 + 768 * 4 + 54 * 3 == 4002


def test_bitset_truth_agrees_with_per_model_loop():
    # certify the bit-parallel evaluator against the one-model evaluator
    space = space_for(SMP)
    for kind in PropKind:
        for subject, predicate in product(SMP, repeat=2):
            p = prop(kind.value, subject, predicate)
            vector = space.truth(p)
            for mask in range(256):
                assert bool((vector >> mask) & 1) == eval_proposition(p, RegionModel(SMP, mask))

    space = space_for(AB)
    kinds = list(PropKind)
    for k1, k2 in product(kinds, repeat=2):
        for s1, p1 in (("A", "B"), ("B", "A"), ("A", "A")):
            premiss = prop(k1.value, s1, p1)
            conclusion = prop(k2.value, "A", "B")
            expected = all(
                eval_proposition(conclusion, RegionModel(AB, mask))
                for mask in range(16)
                if eval_proposition(premiss, RegionModel(AB, mask))
            )
            assert space.entails([premiss], conclusion) == expected


# --- the closed-form oracle against enumeration ------------------------------

def premisses_over(x, y):
    """The 8 premisses over a pair of terms: each kind, either way round."""
    return [Proposition(kind, *pair) for kind in PropKind for pair in ((x, y), (y, x))]


def count_queries(n):
    """Terms, existence assumptions and the (premisses, conclusion) pairs
    of the n-term count: one premiss over each adjacent pair of terms,
    either way round, and a conclusion over the first and last term."""
    terms = tuple(f"T{i}" for i in range(1, n + 1))
    slots = [premisses_over(x, y) for x, y in zip(terms, terms[1:])]
    conclusions = [Proposition(kind, terms[0], terms[-1]) for kind in PropKind]
    existence = [prop("I", t, t) for t in terms]
    return terms, existence, [(p, c) for p in product(*slots) for c in conclusions]


@pytest.mark.parametrize("n", [3, 4])
def test_venn_space_agrees_with_enumeration_on_the_count_queries(n):
    terms, existence, candidates = count_queries(n)
    venn, space = VennSpace(terms), space_for(terms)
    for extra in [(), *((e,) for e in existence), tuple(existence)]:
        for premisses, conclusion in candidates:
            expected = space.entails((*premisses, *extra), conclusion)
            assert venn.entails((*premisses, *extra), conclusion) == expected, (premisses, conclusion, extra)


@st.composite
def queries(draw):
    terms = ("A", "B", "C", "D")[: draw(st.integers(1, 4))]
    one_term = st.sampled_from(terms)
    props = st.builds(Proposition, st.sampled_from(PropKind), one_term, one_term)
    return terms, draw(st.lists(props, max_size=4)), draw(st.lists(props, max_size=3)), draw(props)


@given(queries())
def test_venn_space_agrees_with_enumeration(query):
    terms, premisses, assumptions, conclusion = query
    expected = space_for(terms).entails((*premisses, *assumptions), conclusion)
    assert VennSpace(terms).entails((*premisses, *assumptions), conclusion) == expected


def test_oracles_hash_no_proposition(monkeypatch):
    # both oracles key their caches by (kind, subject, predicate), hashed in C,
    # and neither they nor the calculus compare or hash any value
    calls = count_calls(monkeypatch, Proposition, "__hash__")
    value_calls = count_value_equality(monkeypatch)
    space_for.cache_clear()
    assert count_valid_nterm(4) == 44
    assert len(enumerate_all()) == 1024
    assert calls == []
    assert value_calls == [[], []]


def separately_built(p: Proposition) -> Proposition:
    """An equal proposition that shares no term string with ``p``."""
    return Proposition(p.kind, "".join(list(p.subject)), "".join(list(p.predicate)))


def test_equal_propositions_get_equal_answers():
    # each oracle answers an equal, separately built query as it answers the
    # original, and as an oracle with nothing cached yet does
    terms = ("dogs", "cats", "birds")
    props = [Proposition(kind, x, y) for kind in PropKind for x in terms for y in terms]
    oracles = ModelSpace(terms), VennSpace(terms)
    for p, q in product(props, repeat=2):
        p2, q2 = separately_built(p), separately_built(q)
        assert p2.subject is not p.subject
        expected = ModelSpace(terms).entails([p], q)
        for oracle in oracles:
            assert oracle.entails([p], q) == oracle.entails([p2], q2) == expected


def test_venn_space_checks_its_terms():
    with pytest.raises(ValueError, match="duplicate"):
        VennSpace(("A", "B", "A"))
    with pytest.raises(ValueError, match=r"^term 'Z' is not among \('A', 'B'\)$"):
        VennSpace(AB).entails([prop("A", "A", "B")], prop("A", "A", "Z"))
    with pytest.raises(ValueError, match=r"^term 'Q' is not among \('A', 'B'\)$"):
        VennSpace(AB).entails([prop("I", "Q", "Q")], prop("A", "A", "B"))


def test_venn_space_reaches_past_the_enumeration_cap():
    five = ("A", "B", "C", "D", "E")
    chain = [prop("A", x, y) for x, y in zip(five, five[1:])]
    venn = VennSpace(five)
    assert venn.entails(chain, prop("A", "A", "E"))
    assert not venn.entails(chain, prop("I", "A", "E"))
    assert venn.entails([*chain, prop("I", "A", "A")], prop("I", "A", "E"))


# --- verdict adapter --------------------------------------------------------

def test_semantic_verdicts():
    assert semantic_verdict(syl("AAA-1")).validity is Validity.VALID
    assert semantic_verdict(syl("AAI-4 +P")).validity is Validity.VALID_WITH_ASSUMPTION
    assert semantic_verdict(syl("AAI-4 +P")).assumption is Assumption.SOME_P
    assert semantic_verdict(syl("AAI-4")).validity is Validity.INVALID


def test_semantic_verdict_carries_no_trace():
    assert semantic_verdict(syl("AAA-1")).trace is None


def test_two_particular_premisses_are_invalid_in_every_figure():
    for fig in (1, 2, 3, 4):
        verdict = semantic_verdict(syl(f"IOA-{fig}"))
        assert verdict.validity is Validity.INVALID


def test_bare_validity_dominates_in_the_oracle_too():
    verdict = semantic_verdict(syl("AAA-1 +S"))
    assert verdict.validity is Validity.VALID
    assert verdict.assumption is Assumption.NONE
