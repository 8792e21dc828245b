"""Reduction, normal forms, premiss chains, and the decision procedure."""

import json
import sys
from collections import Counter

import pytest
from hypothesis import given

from syllogist import (
    Assumption,
    Chain,
    Figure,
    Mood,
    PropKind,
    Proposition,
    Syllogism,
    Validity,
    Verdict,
    all_syllogisms,
    chain_along,
    concat,
    conclusion_of,
    decide,
    diagram,
    enumerate_all,
    match_conclusion,
    mutually_excluded,
    normalize,
    premiss_chain,
    premisses_of,
    reduce_at,
    reducible_positions,
    splice_existence,
)
from syllogist import inference

from test_chains import chains, ch, count_calls, prop


def syl(text):
    mood, _, rest = text.partition("-")
    figure = Figure(int(rest[0]))
    assumption = Assumption(rest.split("+")[1]) if "+" in rest else Assumption.NONE
    return Syllogism(Mood.from_text(mood), figure, assumption)


def all_normal_forms(chain):
    """Every normal form reachable by any maximal reduction order."""
    seen = {}

    def explore(c):
        cached = seen.get(c)
        if cached is not None:
            return cached
        positions = reducible_positions(c)
        if not positions:
            result = {c}
        else:
            result = set()
            for i in positions:
                result |= explore(reduce_at(c, i))
        seen[c] = result
        return result

    return explore(chain)


# --- reducible positions ----------------------------------------------------

@pytest.mark.parametrize(
    "text,expected",
    [
        ("S -> M -> P", [1]),
        ("S -> * <- M <- P", [2]),
        ("S -> * <- M -> P", []),
        ("S -> * <- P", []),
        ("S <- * -> S -> M -> P", [2, 3]),
    ],
)
def test_reducible_positions(text, expected):
    assert reducible_positions(ch(text)) == expected


def test_bullets_and_endpoints_are_never_reducible():
    c = ch("S -> * -> * -> P")  # co-oriented arrows, but through bullets
    assert reducible_positions(c) == []


# --- single steps -----------------------------------------------------------

def test_reduce_first_figure_chain():
    assert str(reduce_at(ch("S -> M -> P"), 1)) == "S -> P"


def test_reduce_step_from_existence_chain():
    # one hand-step of the import chain ending in P <- * -> P
    after = reduce_at(ch("S <- M <- P <- * -> P"), 1)
    assert str(after) == "S <- P <- * -> P"
    # derived endpoint: every reduction order agrees on the final form
    assert {str(c) for c in all_normal_forms(ch("S <- M <- P <- * -> P"))} == {
        "S <- * -> P"
    }


def test_reduce_preserves_bullets():
    c = ch("S <- M <- * -> M -> * <- P")
    for i in reducible_positions(c):
        assert reduce_at(c, i).bullet_count == c.bullet_count


def test_reduce_rejects_bad_positions():
    # in "S -> A -> B -> P" every interior node is reducible, so a negative
    # index let through would delete a node counted from the far end
    for c, inside in ((ch("S -> * <- M -> P"), (1, 2)), (ch("S -> A -> B -> P"), ())):
        n = len(c)
        for i in (0, *inside, -1, -n, n - 1, n, n + 3, -2, -3):
            with pytest.raises(ValueError) as raised:
                reduce_at(c, i)
            assert type(raised.value) is ValueError
            assert str(raised.value) == f"node {i} of {c} is not reducible"


@pytest.mark.parametrize("position", [True, 1.0, "1", None])
def test_reduce_takes_an_int_proper(position):
    # True would index node 1 and reduce "S -> M -> P" to "S -> P"; the
    # others would raise TypeError from the comparison or the indexing
    c = ch("S -> M -> P")
    with pytest.raises(ValueError) as raised:
        reduce_at(c, position)
    assert type(raised.value) is ValueError
    assert str(raised.value) == f"node {position!r} of S -> M -> P is not reducible"


# --- normalization ----------------------------------------------------------

def test_normalize_two_steps():
    trace = normalize(ch("S <- * -> S -> M -> P"))
    assert str(trace.normal_form) == "S <- * -> P"
    assert [s.deleted_term for s in trace.steps] == ["S", "M"]
    assert [s.position for s in trace.steps] == [2, 2]


def test_normalize_already_normal():
    trace = normalize(ch("S -> * <- P"))
    assert trace.steps == ()
    assert trace.normal_form == trace.initial


def test_normalize_chain_with_leftward_run():
    # raw chain in which M sits on a leftward run and gets deleted
    trace = normalize(ch("S -> * <- M <- * -> * <- P"))
    assert [s.deleted_term for s in trace.steps] == ["M"]
    assert str(trace.normal_form) == "S -> * <- * -> * <- P"
    assert {str(c) for c in all_normal_forms(trace.initial)} == {
        "S -> * <- * -> * <- P"
    }


def test_normalize_records_consistent_steps():
    trace = normalize(ch("A <- * -> A -> B -> C <- * -> C"))
    previous = trace.initial
    for step in trace.steps:
        assert step.before == previous
        assert len(step.after.nodes) == len(step.before.nodes) - 1
        assert step.after.bullet_count == step.before.bullet_count
        previous = step.after
    assert previous == trace.normal_form
    assert reducible_positions(trace.normal_form) == []


@given(chains())
def test_normalize_invariants(c):
    trace = normalize(c)
    assert trace.normal_form.left == c.left
    assert trace.normal_form.right == c.right
    assert trace.normal_form.bullet_count == c.bullet_count
    assert len(trace.steps) <= max(len(c.nodes) - 2, 0)
    assert reducible_positions(trace.normal_form) == []
    # each step deletes the leftmost reducible node of its own chain
    for step in trace.steps:
        assert step.position == reducible_positions(step.before)[0]


@given(chains())
def test_reduction_is_confluent(c):
    assert all_normal_forms(c) == {normalize(c).normal_form}


# --- conclusion matching ----------------------------------------------------

def test_match_is_exact():
    assert match_conclusion(ch("S <- * -> * <- P"), prop("O", "S", "P"))
    assert match_conclusion(ch("S -> P"), prop("A", "S", "P"))
    assert not match_conclusion(ch("S -> P"), prop("A", "P", "S"))


def test_mirrored_shape_matches_no_conclusion():
    # the mirror of the O shape would swap the subject and predicate roles
    mirrored = ch("S -> * <- * -> P")
    for kind in PropKind:
        assert not match_conclusion(mirrored, Proposition(kind, "S", "P"))


# --- premiss chains ---------------------------------------------------------

@pytest.mark.parametrize(
    "notation,expected",
    [
        ("AAA-1", "S -> M -> P"),
        ("EAE-1", "S -> M -> * <- P"),
        ("AII-1", "S <- * -> M -> P"),
        ("EIO-1", "S <- * -> M -> * <- P"),
        ("EAE-2", "S -> M -> * <- P"),
        ("AEE-2", "S -> * <- M <- P"),
        ("AOO-2", "S <- * -> * <- M <- P"),
        ("IAI-3", "S <- M <- * -> P"),
        ("AII-3", "S <- * -> M -> P"),
        ("OAO-3", "S <- M <- * -> * <- P"),
        ("EIO-3", "S <- * -> M -> * <- P"),
        ("AEE-4", "S -> * <- M <- P"),
        ("IAI-4", "S <- M <- * -> P"),
        ("OEI-4", "S -> * <- M -> * <- * -> P"),
    ],
)
def test_premiss_chain_layouts(notation, expected):
    assert str(premiss_chain(syl(notation))) == expected


def test_premiss_chain_ignores_the_conclusion_kind():
    for k in PropKind:
        s = Syllogism(Mood(PropKind.A, PropKind.E, k), Figure.TWO)
        assert str(premiss_chain(s)) == "S -> * <- M <- P"


def test_all_256_premiss_chains_construct():
    # each term occurs once, so decide splices an assumption at its one occurrence
    for fig in Figure:
        for a in PropKind:
            for b in PropKind:
                for c in PropKind:
                    chain = premiss_chain(Syllogism(Mood(a, b, c), fig))
                    assert (chain.left, chain.right) == ("S", "P")
                    for term in "SMP":
                        assert len(chain.occurrences(term)) == 1


def test_normal_form_matches_at_most_one_conclusion():
    for fig in Figure:
        for a in PropKind:
            for b in PropKind:
                nf = normalize(premiss_chain(Syllogism(Mood(a, b, PropKind.A), fig))).normal_form
                matches = [k for k in PropKind if match_conclusion(nf, Proposition(k, "S", "P"))]
                assert len(matches) <= 1


def test_premisses_of_figures():
    assert premisses_of(syl("AAA-1")) == (prop("A", "M", "P"), prop("A", "S", "M"))
    assert premisses_of(syl("EIO-2")) == (prop("E", "P", "M"), prop("I", "S", "M"))
    assert premisses_of(syl("OAO-3")) == (prop("O", "M", "P"), prop("A", "M", "S"))
    assert premisses_of(syl("AEE-4")) == (prop("A", "P", "M"), prop("E", "M", "S"))
    assert conclusion_of(syl("EIO-2")) == prop("O", "S", "P")


def test_deciding_validates_no_proposition(monkeypatch):
    # the propositions over S, M and P are built and checked once, at import
    def refuse(p):
        raise AssertionError(f"validated {p} while deciding")

    monkeypatch.setattr(Proposition, "__post_init__", refuse)
    for s in all_syllogisms():
        decide(s)


# --- deciding ---------------------------------------------------------------

def test_decide_valid_bare():
    verdict = decide(syl("AEE-2"))
    assert verdict.validity is Validity.VALID
    assert str(verdict.trace.normal_form) == "S -> * <- P"


def test_decide_invalid():
    verdict = decide(syl("OEI-4"))
    assert verdict.validity is Validity.INVALID
    assert verdict.trace is None
    # the middle term survives: its arrows diverge, so nothing composes
    trace = normalize(premiss_chain(syl("OEI-4")))
    assert trace.steps == ()
    assert len(trace.normal_form.occurrences("M")) == 1


def test_decide_with_assumption():
    verdict = decide(syl("EAO-4 +M"))
    assert verdict.validity is Validity.VALID_WITH_ASSUMPTION
    assert verdict.assumption is Assumption.SOME_M
    assert str(verdict.trace.initial) == "S <- M <- * -> M -> * <- P"
    assert str(verdict.trace.normal_form) == "S <- * -> * <- P"


def test_assumption_only_helps_where_it_helps():
    assert decide(syl("AAI-1 +S")).validity is Validity.VALID_WITH_ASSUMPTION
    assert decide(syl("AAI-1")).validity is Validity.INVALID
    assert decide(syl("AAI-1 +M")).validity is Validity.INVALID
    assert decide(syl("AAI-1 +P")).validity is Validity.INVALID


def test_unconditional_validity_dominates():
    verdict = decide(syl("AAA-1 +S"))
    assert verdict.validity is Validity.VALID
    assert verdict.assumption is Assumption.NONE


def fresh_verdict(s):
    """The bare-first rule on reductions built afresh, with no table."""
    chain = premiss_chain(s)
    goal = conclusion_of(s)
    bare = normalize(chain)
    if match_conclusion(bare.normal_form, goal):
        return Verdict(Validity.VALID, trace=bare)
    term = s.assumption.term
    if term is not None:
        spliced = normalize(splice_existence(chain, term))
        if match_conclusion(spliced.normal_form, goal):
            return Verdict(Validity.VALID_WITH_ASSUMPTION, s.assumption, spliced)
    return Verdict(Validity.INVALID)


def test_decide_agrees_with_fresh_reductions():
    inference._reductions.clear()
    for s in all_syllogisms():
        assert decide(s) == fresh_verdict(s), s


def test_all_syllogisms_reduce_each_premiss_chain_once(monkeypatch):
    # a reduction depends on the premiss kinds, the figure and the assumed
    # term only: 64 bare and 192 spliced chains, where one reduction per
    # decide and another per failed bare match would make 1747; the public
    # premiss_chain builds each of the 64 bare chains once, and a spliced
    # entry splices the bare entry's chain
    inference._reductions.clear()
    calls = count_calls(monkeypatch, inference, "normalize")
    built = count_calls(monkeypatch, inference, "premiss_chain")
    syllogisms = all_syllogisms()
    assert len({id(s.mood) for s in syllogisms}) == 64
    enumerate_all()
    assert len(calls) == 256
    assert len(built) == 64
    # a spliced chain holds its assumed term twice, a bare one each term once
    spliced = [c for c in calls if any(len(c.occurrences(t)) == 2 for t in "SMP")]
    assert len(spliced) == 192
    calls.clear()
    built.clear()
    enumerate_all()
    assert calls == built == []


def test_mood_and_syllogism_check_their_fields():
    # unchecked, decide raised KeyError on the first and str() AttributeError on the second
    with pytest.raises(ValueError, match="a mood's first is of type PropKind, got 'A'"):
        Mood("A", "A", "A")
    for letters in ("AAAA", "AA"):
        with pytest.raises(ValueError, match="a mood has three letters"):
            Mood.from_text(letters)
    barbara = Mood.from_text("AAA")
    with pytest.raises(ValueError, match="a syllogism's figure is of type Figure, got 1"):
        Syllogism(barbara, 1)
    with pytest.raises(ValueError, match="assumption is of type Assumption, got 'S'"):
        Syllogism(barbara, Figure.ONE, "S")
    with pytest.raises(ValueError, match="a syllogism's mood is of type Mood"):
        Syllogism("AAA", Figure.ONE)


def test_verdict_names_an_assumption_exactly_when_conditional():
    for validity in (Validity.VALID, Validity.INVALID):
        assert Verdict(validity).summary() == validity.value
    for assumption in (Assumption.SOME_S, Assumption.SOME_M, Assumption.SOME_P):
        verdict = Verdict(Validity.VALID_WITH_ASSUMPTION, assumption)
        assert verdict.summary() == f"valid +{assumption.value}"
        for validity in (Validity.VALID, Validity.INVALID):
            with pytest.raises(ValueError):
                Verdict(validity, assumption)
    with pytest.raises(ValueError):
        Verdict(Validity.VALID_WITH_ASSUMPTION)


def test_verdict_checks_its_field_types():
    # unchecked, the first two were accepted and their summary() raised AttributeError
    with pytest.raises(ValueError, match="a verdict's validity is of type Validity, got 'valid'"):
        Verdict("valid")
    with pytest.raises(ValueError, match="assumption is of type Assumption, got 'S'"):
        Verdict(Validity.VALID_WITH_ASSUMPTION, "S")
    with pytest.raises(ValueError, match="trace is of type Trace or NoneType, got 'x'"):
        Verdict(Validity.VALID, trace="x")


def test_a_full_table_builds_only_the_verdicts_that_hold_a_trace(monkeypatch):
    # every trace-less verdict is one of the five shared ones, and a
    # conclusion is matched on tuples: with the table full, the parent
    # code built 2 048 verdicts and 1 747 chains here
    enumerate_all()
    built = []
    init = Verdict.__init__

    def counting_init(self, validity, *args, **kwargs):
        built.append((validity, sys._getframe(1).f_code.co_name))
        init(self, validity, *args, **kwargs)

    monkeypatch.setattr(Verdict, "__init__", counting_init)
    chains_built = count_calls(monkeypatch, Chain, "__init__")
    shared = (inference._INVALID, inference._VALID, *inference._VALID_ASSUMING.values())
    rows = enumerate_all()
    assert Counter(built) == {
        (Validity.VALID, "decide"): 60, (Validity.VALID_WITH_ASSUMPTION, "decide"): 9
    }
    assert chains_built == []
    for row in rows:
        for verdict in (row.calculus, row.oracle):
            if verdict.trace is None:
                assert any(verdict is v for v in shared), row
                assert verdict == Verdict(verdict.validity, verdict.assumption)


class Checked(Exception):
    """Raised by a patched ``Chain.__post_init__``: the chain went through its checks."""


def _refuse(chain):
    raise Checked(chain.nodes)


# each builder and its arguments, built before ``Chain.__post_init__`` is patched
_BUILDERS = {
    "diagram": (diagram, prop("E", "S", "P")),
    "dual": (Chain.dual, ch("S -> * <- P")),
    "concat": (concat, ch("S -> M"), ch("M -> P")),
    "chain_along-one-node": (chain_along, "S", ()),
    "chain_along": (chain_along, "P", (prop("A", "S", "P"),)),
    "splice_existence": (splice_existence, ch("S -> M -> P"), "M"),
    "reduce_at": (reduce_at, ch("S -> M -> P"), 1),
    "normalize": (normalize, ch("S -> M -> P")),
    "premiss_chain": (premiss_chain, syl("AAA-1")),
    "decide-cold": (decide, syl("EIO-2 +S")),
    "mutually_excluded": (mutually_excluded, ch("S -> * <- P"), "S", "P"),
}


@pytest.mark.parametrize("name", list(_BUILDERS))
def test_every_builder_builds_its_chains_through_the_checks(monkeypatch, name):
    # no builder has a way round ``Chain(...)``: with the check refusing, each raises
    build, *args = _BUILDERS[name]
    monkeypatch.setattr(inference, "_reductions", {})
    monkeypatch.setattr(Chain, "__post_init__", _refuse)
    with pytest.raises(Checked):
        build(*args)


@pytest.mark.parametrize("pair", [("S", "P"), ("P", "S"), ("A", "A")], ids="".join)
def test_a_diagram_matches_its_own_proposition_only(pair):
    for kind in PropKind:
        chain = diagram(Proposition(kind, *pair))
        for other in PropKind:
            assert match_conclusion(chain, Proposition(other, *pair)) == (other is kind)


def test_splice_at_the_junction_threads_the_import_through():
    # the fig-3 existence inference places the import across the shared M
    chain = premiss_chain(syl("AAI-3"))
    spliced = splice_existence(chain, "M")
    assert str(spliced) == "S <- M <- * -> M -> P"
    assert str(normalize(spliced).normal_form) == "S <- * -> P"


# --- trace serialization ----------------------------------------------------

def test_trace_text_lines():
    trace = normalize(ch("S -> M -> P"))
    assert trace.step_lines() == [
        "step 1: delete M at 1: S -> M -> P => S -> P"
    ]


def test_trace_dict_round_trips_through_json():
    trace = normalize(ch("S <- * -> S -> M -> P"))
    data = json.loads(json.dumps(trace.as_dict()))
    assert data["initial"] == "S <- * -> S -> M -> P"
    assert data["normal_form"] == "S <- * -> P"
    assert [s["deleted_term"] for s in data["steps"]] == ["S", "M"]
    assert set(data) == {"initial", "steps", "normal_form"}
    assert set(data["steps"][0]) == {"position", "deleted_term", "before", "after"}
