"""Exhaustive tables, classical rules, opposition laws, mutual exclusion
and n-term counts.

Everything here is derived by running the calculus and the region oracle
side by side: the mood/figure tables come out of enumeration rather than
being keyed in, the five classical rules of syllogism are checked as
necessary conditions on validity, and the square-of-opposition laws and
mutual exclusion are concluded by calculation, as ``decide`` concludes: a
premiss chain reduces to the conclusion's diagram (``match_conclusion``).
"""

from __future__ import annotations

from itertools import product

from .chains import (
    Chain,
    PropKind,
    Proposition,
    TermId,
    _Value,
    _check_term,
    chain_along,
)
from .inference import (
    Assumption,
    Figure,
    Mood,
    Syllogism,
    Trace,
    Verdict,
    decide,
    match_conclusion,
    normalize,
)
from .regions import VennSpace, semantic_verdict


# ---------------------------------------------------------------------------
# Full enumeration: calculus versus oracle


class TableRow(_Value):
    """One syllogism with both verdicts side by side."""

    __slots__ = ("syllogism", "calculus", "oracle")
    _types = (Syllogism, Verdict, Verdict)

    def __init__(self, syllogism: Syllogism, calculus: Verdict, oracle: Verdict) -> None:
        self._set(syllogism, calculus, oracle)

    @property
    def agree(self) -> bool:
        # the summaries' equality: a verdict names an assumption exactly when conditional
        calculus, oracle = self.calculus, self.oracle
        return calculus.validity is oracle.validity and calculus.assumption is oracle.assumption


def all_moods() -> list[Mood]:
    return [Mood(a, b, c) for a, b, c in product(PropKind, repeat=3)]


def all_syllogisms(assumptions: tuple[Assumption, ...] = tuple(Assumption)) -> list[Syllogism]:
    moods = all_moods()
    return [
        Syllogism(mood, figure, assumption)
        for assumption in assumptions
        for figure in Figure
        for mood in moods
    ]


def enumerate_all(assumptions: tuple[Assumption, ...] = tuple(Assumption)) -> list[TableRow]:
    """Decide every mood/figure pair under the given assumption settings.

    The default covers all four settings: 1024 rows, of which the first
    256 are the bare syllogisms.
    """
    return [
        TableRow(s, decide(s), semantic_verdict(s))
        for s in all_syllogisms(assumptions)
    ]


# ---------------------------------------------------------------------------
# The five classical rules of syllogism


def check_rules(s: Syllogism) -> list[int]:
    """Numbers of the rules the syllogism breaks.

    The rules are necessary conditions on validity, not sufficient ones:
    every valid syllogism passes all five, but so do some invalid ones.
    """
    first, second = s.mood.first, s.mood.second
    conclusion = s.mood.conclusion
    violations = []
    if first.negative and second.negative:
        violations.append(1)
    if first.particular and second.particular:
        violations.append(2)
    if first.particular and second.negative:
        violations.append(3)
    if (first.particular or second.particular) and not conclusion.particular:
        violations.append(4)
    if conclusion.negative != (first.negative or second.negative):
        violations.append(5)
    return violations


# ---------------------------------------------------------------------------
# Square-of-opposition laws


class LawResult(_Value):
    """One named inference: its premiss chain and whether it worked out.

    ``expected`` is the conclusion the chain must reduce to; ``None``
    marks the chains that must not reduce at all.
    """

    __slots__ = ("name", "chain", "expected", "trace", "ok")
    _types = (str, Chain, (Proposition, type(None)), Trace, bool)

    def __init__(
        self, name: str, chain: Chain, expected: Proposition | None, trace: Trace, ok: bool
    ) -> None:
        self._set(name, chain, expected, trace, ok)


def _law(
    name: str, start: TermId, first: Proposition, second: Proposition, expected: Proposition | None
) -> LawResult:
    chain = chain_along(start, (second, first))
    trace = normalize(chain)
    if expected is None:
        ok = not trace.steps
    else:
        ok = match_conclusion(trace.normal_form, expected)
    return LawResult(name, chain, expected, trace, ok)


def opposition_laws() -> list[LawResult]:
    """The named two-premiss inferences over a pair of terms.

    Ten derivations: the two emptiness inferences (a proposition against
    its converse universal concludes No A is A), the four laws of
    subalternation, the laws of contrariety and subcontrariety, and the
    two laws of contradiction (concluding Some A is not A).  Plus the two
    concatenations that must stay stuck, witnessing that I and O do not
    follow from A and E unaided.  Each law is given as the term its chain
    starts from, its first and second premiss, and its conclusion.
    """
    A, E, I, O = PropKind.A, PropKind.E, PropKind.I, PropKind.O
    a_ab, e_ab, i_ab, o_ab = (Proposition(kind, "A", "B") for kind in (A, E, I, O))
    a_ba, e_ba = (Proposition(kind, "B", "A") for kind in (A, E))
    e_aa, i_aa, o_aa = (Proposition(kind, "A", "A") for kind in (E, I, O))
    e_bb, i_bb = (Proposition(kind, "B", "B") for kind in (E, I))

    return [
        _law("emptiness (converse A first)", "A", a_ab, e_ab, e_aa),
        _law("emptiness (converse E first)", "A", e_ab, a_ab, e_aa),
        _law("subalternation: I from A", "A", a_ab, i_aa, i_ab),
        _law("subalternation: I from converse A", "A", i_bb, a_ba, i_ab),
        _law("subalternation: O from E", "A", e_ab, i_aa, o_ab),
        _law("subalternation: O from converse E", "A", e_ba, i_aa, o_ab),
        _law("contrariety", "A", e_bb, a_ab, e_ab),
        _law("subcontrariety", "A", e_bb, i_ab, o_ab),
        _law("contradiction: A against O", "A", a_ab, o_ab, o_aa),
        _law("contradiction: E against I", "A", e_ab, i_ab, o_aa),
        _law("no I from A alone", "B", e_ab, a_ab, None),
        _law("no O from E alone", "B", a_ab, e_ab, None),
    ]


# ---------------------------------------------------------------------------
# Mutual exclusion, concluded by calculation


def mutually_excluded(chain: Chain, x: TermId, y: TermId) -> bool:
    """Whether the chain shows that No x is y.

    No x is y follows from a stretch of chain between an occurrence of x
    and another occurrence of y by calculation: the stretch reduces to the
    diagram of No x is y, ``x -> * <- y``.  Every such stretch is tried, so
    a repeated term does not hide a shorter one.  E is symmetric, so the
    order of x and y does not matter.
    """
    _check_term(x)
    _check_term(y)
    xs = chain.occurrences(x)
    if not xs:
        raise ValueError(f"term {x!r} does not occur in {chain}")
    stretches = {(min(i, j), max(i, j)) for i in xs for j in chain.occurrences(y) if i != j}
    if not stretches:
        raise ValueError(f"term {y!r} has no occurrence in {chain} apart from {x!r}")
    return any(
        match_conclusion(
            normalize(Chain(chain.nodes[lo : hi + 1], chain.arrows[lo:hi])).normal_form,
            Proposition(PropKind.E, chain.nodes[lo], chain.nodes[hi]),
        )
        for lo, hi in stretches
    )


# ---------------------------------------------------------------------------
# Counting valid n-term syllogisms (asserted in the tests up to n = 6; CI
# also checks the lines of `syllogist count 4`, `count 5` and `count 6`)

# An n-term syllogism here is a linear arrangement: n - 1 premisses, the
# i-th relating T_i and T_(i+1) in either subject/predicate order, with
# the conclusion over (T_1, T_n).  Premiss sequences that differ only in
# the order they are written are the same syllogism, so candidates are
# counted as (premiss set, conclusion) pairs.  A candidate counts as
# valid when it holds bare or under one existence assumption Some T_i is
# T_i: the same as valid under all n at once, since if for each i a model
# satisfies the premisses, the negated conclusion and Some T_i is T_i, the
# union of those models satisfies them all (the models of a universal are
# closed under union; a particular true in a model stays true in a larger).

MAX_COUNT_TERMS = 6  # a count 6 process takes about 0.5 s, n = 7 about 4.6 s in process (2-vCPU x86-64, Python 3.11)


def count_valid_nterm(n: int, with_assumptions: bool = True) -> int:
    """Count semantically valid n-term syllogisms, n from 3 to 6.

    ``with_assumptions=False`` restricts the count to unconditionally
    valid candidates.
    """
    if not isinstance(n, int) or n not in range(3, MAX_COUNT_TERMS + 1):
        raise ValueError(f"n-term counting supports n from 3 to {MAX_COUNT_TERMS}, got {n!r}")
    terms = tuple(f"T{i}" for i in range(1, n + 1))
    space = VennSpace(terms)
    # slot i holds the 8 premisses over (T_i, T_(i+1)): each kind, either way round
    slots = [
        [Proposition(kind, *pair) for kind, pair in product(PropKind, (pair, pair[::-1]))]
        for pair in zip(terms, terms[1:])
    ]
    conclusions = [Proposition(kind, terms[0], terms[-1]) for kind in PropKind]
    existence = tuple(Proposition(PropKind.I, t, t) for t in terms) if with_assumptions else ()
    return sum(
        space.entails(premisses + existence, conclusion)
        for premisses in product(*slots)
        for conclusion in conclusions
    )
