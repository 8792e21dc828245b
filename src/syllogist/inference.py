"""Deciding syllogisms by chain reduction.

The single rewrite rule deletes an interior term node whose two incident
arrows point the same way, merging them into one arrow; bullets and the
two end nodes are never deleted, so every step preserves the bullet count
and the endpoints.  No deletion changes whether another node is deletable,
so every order reaches the same normal form (proof at ``normalize``); the
test suite still checks that order-independence exhaustively.

A syllogism is decided by building the premiss chain, running it to
normal form, and comparing the result with the conclusion's own diagram,
subject on the left and predicate on the right.  No mirroring or term
relabelling is applied when matching: a chain that is the mirror image of
the conclusion swaps the roles of subject and predicate and does not
count.  An existence assumption ("there is some X") is handled by
splicing ``X <- * -> X`` into the premiss chain at its occurrence of X
(each term occurs there once) and reducing again; an unconditional match
always wins over a conditional one.

A reduction never depends on the conclusion: the premiss chain is fixed
by the two premiss kinds and the figure, and the spliced chain also by
the assumed term.  So the 1024 syllogisms need only 64 bare reductions
and 192 spliced ones, read through ``_reduction(s, term)``: the one
accessor of a dict keyed by those fields.  A bare miss builds
``premiss_chain(s)``, and a spliced miss splices the bare entry's initial
chain, so each of the 64 premiss chains is built once.  A ``Trace`` is
immutable, so every verdict may share one.  A verdict is immutable too,
so the verdicts without a trace are five shared values, built and checked
once at import: invalid, valid, and valid under each of the three
assumptions.  ``decide`` returns the invalid one, and only a verdict that
holds a trace is built per call.
"""

from __future__ import annotations

from enum import Enum, IntEnum

from .chains import (
    Chain,
    PropKind,
    Proposition,
    TermId,
    _diagram,
    _Value,
    chain_along,
    is_term,
    splice_existence,
)

# Canonical term names of a three-term syllogism.
MINOR = "S"  # subject of the conclusion, occurs in the second premiss
MIDDLE = "M"  # occurs in both premisses, never in the conclusion
MAJOR = "P"  # predicate of the conclusion, occurs in the first premiss


class Figure(IntEnum):
    """Placement of the three terms across the premisses."""

    ONE = 1
    TWO = 2
    THREE = 3
    FOUR = 4


# figure -> ((subject, predicate) of first premiss, same for second).
_FIGURE_LAYOUT = {
    Figure.ONE: ((MIDDLE, MAJOR), (MINOR, MIDDLE)),
    Figure.TWO: ((MAJOR, MIDDLE), (MINOR, MIDDLE)),
    Figure.THREE: ((MIDDLE, MAJOR), (MIDDLE, MINOR)),
    Figure.FOUR: ((MAJOR, MIDDLE), (MIDDLE, MINOR)),
}
_FIGURE_OF_LAYOUT = {layout: figure for figure, layout in _FIGURE_LAYOUT.items()}
# every proposition over the role names, validated once here rather than per syllogism
_ROLE_PROPOSITIONS = {
    (kind, x, y): Proposition(kind, x, y)
    for kind in PropKind
    for x in (MINOR, MIDDLE, MAJOR)
    for y in (MINOR, MIDDLE, MAJOR)
}


class Mood(_Value):
    """Kinds of the two premisses and the conclusion, in that order."""

    __slots__ = ("first", "second", "conclusion")
    _types = (PropKind,) * 3

    def __init__(self, first: PropKind, second: PropKind, conclusion: PropKind) -> None:
        self._set(first, second, conclusion)

    @classmethod
    def from_text(cls, letters: str) -> "Mood":
        if len(letters) != 3:
            raise ValueError(f"a mood has three letters, got {letters!r}")
        return cls(*(PropKind(c) for c in letters))

    def __str__(self) -> str:
        return self.first.value + self.second.value + self.conclusion.value


class Assumption(Enum):
    """Optional existential import: one of the three terms is inhabited."""

    NONE = "none"
    SOME_S = "S"
    SOME_M = "M"
    SOME_P = "P"

    __hash__ = object.__hash__  # by identity, as ``chains.Arrow``'s

    @property
    def term(self) -> TermId | None:
        # ``_value_`` is the member's value without the ``value`` property's Python-level call
        return None if self is Assumption.NONE else self._value_

    @property
    def phrase(self) -> str | None:
        return None if self is Assumption.NONE else f"there is some {self.value}"


class Syllogism(_Value):
    """A mood and figure, optionally with an assumption of existence."""

    __slots__ = ("mood", "figure", "assumption")
    _types = (Mood, Figure, Assumption)

    def __init__(
        self, mood: Mood, figure: Figure, assumption: Assumption = Assumption.NONE
    ) -> None:
        self._set(mood, figure, assumption)

    def __str__(self) -> str:
        text = f"{self.mood}-{self.figure.value}"
        if self.assumption is not Assumption.NONE:
            text += f" +{self.assumption.value}"
        return text


class ReductionStep(_Value):
    """One deletion: the node index removed and the chains around it."""

    __slots__ = ("position", "deleted_term", "before", "after")
    _types = (int, str, Chain, Chain)

    def __init__(self, position: int, deleted_term: TermId, before: Chain, after: Chain) -> None:
        self._set(position, deleted_term, before, after)

    def __post_init__(self) -> None:
        # an int proper, as a SourceSpan's offsets: a bool is an int but no position
        if type(self.position) is not int:
            raise ValueError(f"a reductionstep's position is of type int, got {self.position!r}")


class Trace(_Value):
    """A full reduction run from an initial chain to its normal form."""

    __slots__ = ("initial", "steps", "normal_form")
    _types = (Chain, tuple, Chain)

    def __init__(
        self, initial: Chain, steps: tuple[ReductionStep, ...], normal_form: Chain
    ) -> None:
        self._set(initial, steps, normal_form)

    def __post_init__(self) -> None:
        for step in self.steps:
            if not isinstance(step, ReductionStep):
                raise ValueError(f"a trace's steps hold ReductionSteps only, got {step!r}")

    def step_lines(self) -> list[str]:
        return [
            f"step {k}: delete {s.deleted_term} at {s.position}: {s.before} => {s.after}"
            for k, s in enumerate(self.steps, start=1)
        ]

    def as_dict(self) -> dict:
        return {
            "initial": str(self.initial),
            "steps": [
                {
                    "position": s.position,
                    "deleted_term": s.deleted_term,
                    "before": str(s.before),
                    "after": str(s.after),
                }
                for s in self.steps
            ],
            "normal_form": str(self.normal_form),
        }


class Validity(Enum):
    INVALID = "invalid"
    VALID = "valid"
    VALID_WITH_ASSUMPTION = "valid-with-assumption"

    __hash__ = object.__hash__  # by identity, as ``chains.Arrow``'s


class Verdict(_Value):
    """Outcome of deciding a syllogism, with the witnessing trace if any.

    Its fields are a ``Validity``, an ``Assumption`` and a ``Trace`` or
    None, and it names an assumption exactly when its validity is
    ``VALID_WITH_ASSUMPTION``; anything else raises ``ValueError``.
    """

    __slots__ = ("validity", "assumption", "trace")
    _types = (Validity, Assumption, (Trace, type(None)))

    def __init__(
        self,
        validity: Validity,
        assumption: Assumption = Assumption.NONE,
        trace: Trace | None = None,
    ) -> None:
        self._set(validity, assumption, trace)

    def __post_init__(self) -> None:
        conditional = self.validity is Validity.VALID_WITH_ASSUMPTION
        if conditional == (self.assumption is Assumption.NONE):
            raise ValueError(
                "a verdict names an assumption exactly when it is valid-with-assumption,"
                f" got {self.validity.value} with assumption {self.assumption.value!r}"
            )

    @property
    def is_valid(self) -> bool:
        return self.validity is not Validity.INVALID

    def summary(self) -> str:
        if self.validity is Validity.VALID_WITH_ASSUMPTION:
            return f"valid +{self.assumption.value}"
        return self.validity.value


# The five verdicts without a trace, built once through ``Verdict`` so their
# checks run; every trace-less verdict of ``decide`` and ``semantic_verdict``
# is one of these.  They are fixed constants, not a cache: they never grow.
_INVALID = Verdict(Validity.INVALID)
_VALID = Verdict(Validity.VALID)
_VALID_ASSUMING = {
    a: Verdict(Validity.VALID_WITH_ASSUMPTION, a) for a in Assumption if a is not Assumption.NONE
}


def _reducible(chain: Chain, i: int) -> bool:
    """Whether node i is an interior term whose two arrows point the same way."""
    nodes, arrows = chain.nodes, chain.arrows
    return 0 < i < len(nodes) - 1 and is_term(nodes[i]) and arrows[i - 1] is arrows[i]


def reducible_positions(chain: Chain) -> list[int]:
    """Interior term nodes whose two incident arrows point the same way."""
    return [i for i in range(1, len(chain.nodes) - 1) if _reducible(chain, i)]


def reduce_at(chain: Chain, position: int) -> Chain:
    """Delete the term node at ``position``, merging its two arrows."""
    # an int proper: a bool would index the nodes, a float or a str break the comparison
    if type(position) is not int or not _reducible(chain, position):
        raise ValueError(f"node {position!r} of {chain} is not reducible")
    nodes = chain.nodes[:position] + chain.nodes[position + 1 :]
    arrows = chain.arrows[:position] + chain.arrows[position + 1 :]
    return Chain(nodes, arrows)


def normalize(chain: Chain) -> Trace:
    """Delete the initially reducible nodes, leftmost first, in one pass.

    Deleting a reducible node i merges arrows i-1 and i, which point the
    same way, into one arrow with that direction, so no other node changes
    reducibility.  Every order therefore deletes exactly the initially
    reducible nodes, and the normal form is the chain without them.  The
    k-th of them (k from 0, initially at p_k) has k deletions to its left,
    so leftmost first it sits at index p_k - k.
    """
    steps = []
    current = chain
    for k, p in enumerate(reducible_positions(chain)):
        after = reduce_at(current, p - k)
        steps.append(ReductionStep(p - k, chain.nodes[p], current, after))
        current = after
    return Trace(chain, tuple(steps), current)


def match_conclusion(chain: Chain, conclusion: Proposition) -> bool:
    """Exact match against the conclusion's diagram, node for node, as tuples.

    The diagram's tuples are compared as they come, with no ``Chain`` built.
    """
    nodes, arrows = _diagram(conclusion)
    return chain.nodes == nodes and chain.arrows == arrows


def figure_of(first: tuple[TermId, TermId], second: tuple[TermId, TermId]) -> Figure:
    """The figure of premisses with these (subject, predicate) roles.

    The inverse of ``premisses_of``; roles are ``MINOR``, ``MIDDLE`` and ``MAJOR``.
    """
    return _FIGURE_OF_LAYOUT[first, second]


def premisses_of(s: Syllogism) -> tuple[Proposition, Proposition]:
    """The two premiss propositions determined by mood and figure."""
    (s1, p1), (s2, p2) = _FIGURE_LAYOUT[s.figure]
    return _ROLE_PROPOSITIONS[s.mood.first, s1, p1], _ROLE_PROPOSITIONS[s.mood.second, s2, p2]


def conclusion_of(s: Syllogism) -> Proposition:
    return _ROLE_PROPOSITIONS[s.mood.conclusion, MINOR, MAJOR]


def assumption_proposition(s: Syllogism) -> Proposition | None:
    """The existential-import premiss ``Some X is X``, if any."""
    term = s.assumption.term
    if term is None:
        return None
    return _ROLE_PROPOSITIONS[PropKind.I, term, term]


def premiss_chain(s: Syllogism) -> Chain:
    """The premiss diagrams joined along S, M, P: the second premiss, then the first."""
    major_premiss, minor_premiss = premisses_of(s)
    return chain_along(MINOR, (minor_premiss, major_premiss))


# (first, second, figure, assumed term or None) -> trace: 4 * 4 * 4 * (1 + 3) = 256 keys at most
_reductions: dict[tuple[PropKind, PropKind, Figure, TermId | None], Trace] = {}


def _reduction(s: Syllogism, term: TermId | None) -> Trace:
    """``s``'s premiss chain, spliced at ``term`` unless it is None, run to normal form once."""
    key = s.mood.first, s.mood.second, s.figure, term
    trace = _reductions.get(key)
    if trace is None:
        if term is None:
            chain = premiss_chain(s)
        else:  # the bare entry's chain, so each premiss chain is built once
            chain = splice_existence(_reduction(s, None).initial, term)
        trace = _reductions[key] = normalize(chain)
    return trace


def decide(s: Syllogism) -> Verdict:
    """Decide a syllogism by reduction.

    The bare premiss chain is tried first; an exact match of its normal
    form against the conclusion diagram is an unconditional validity even
    when an assumption was supplied.  Otherwise, if the syllogism carries
    an assumption, the existence diagram is spliced at the assumed term,
    which occurs once in the premiss chain, and the result is reduced.

    Neither reduction depends on the conclusion, so both come from
    ``_reduction(s, term)``, the process-wide table keyed by the premiss
    kinds, the figure and the assumed term.  A verdict's trace is that
    table's immutable entry, shared by every syllogism with the same key,
    and an invalid verdict is the shared ``_INVALID``.
    """
    goal = conclusion_of(s)
    trace = _reduction(s, None)
    if match_conclusion(trace.normal_form, goal):
        return Verdict(Validity.VALID, trace=trace)
    assumption = s.assumption
    if assumption is not Assumption.NONE:
        candidate = _reduction(s, assumption._value_)
        if match_conclusion(candidate.normal_form, goal):
            return Verdict(Validity.VALID_WITH_ASSUMPTION, assumption, candidate)
    return _INVALID
