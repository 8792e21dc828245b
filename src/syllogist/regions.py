"""Region-model semantics: the independent ground truth.

A model over k terms assigns inhabited-or-empty to each of the 2^k atomic
Venn regions; a proposition's truth depends only on which atoms are
inhabited.  The empty universe is one of the models, so no existential
import is built in.  This module never looks at chains or reductions.

Two oracles answer one query, ``.entails(premisses, conclusion)``, over one
term space: ``VennSpace(terms)``, the checked term tuple and one
per-proposition cache.  An existence assumption is one more premiss, *Some
X is X*, as in the calculus it is one more diagram, ``X <- * -> X``.
``VennSpace`` decides in closed form, so the n-term counts go further.
``space_for(terms)``, a ``ModelSpace`` of ``MAX_TERMS`` at most, keeps its
own procedure for the tables and the check on ``VennSpace``: all 2^(2^k)
models at once, a truth vector being an ``int`` whose bit m is the truth in
model m (Knuth, TAOCP 4A 7.1).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

from .chains import PropKind, Proposition, TermId, _check_term, _Value
from .inference import (
    MAJOR,
    MIDDLE,
    MINOR,
    _INVALID,
    _VALID,
    _VALID_ASSUMING,
    Syllogism,
    Verdict,
    assumption_proposition,
    conclusion_of,
    premisses_of,
)

MAX_TERMS = 4  # 2^(2^4) = 65 536 models; beyond that enumeration stops being a tool
# a memory bound: each region mask holds 2^k bits, 8 KiB at 16 terms but
# 128 MiB at 30, while building one takes O(k) shifts and ors
MAX_VENN_TERMS = 16


def _check_terms(terms: tuple[TermId, ...], cap: int) -> None:
    """The one check of a term list: its length, then each name, then duplicates."""
    if len(terms) > cap:
        raise ValueError(f"at most {cap} terms, got {len(terms)}")
    for name in terms:
        _check_term(name)  # before the duplicate check hashes it
    if len(set(terms)) != len(terms):
        raise ValueError(f"duplicate terms in {terms!r}")


def _term_index(terms: tuple[TermId, ...], name: TermId) -> int:
    try:
        return terms.index(name)
    except ValueError:
        raise ValueError(f"term {name!r} is not among {terms!r}") from None


def region_mask(p: Proposition, terms: tuple[TermId, ...]) -> int:
    """The region a proposition talks about: bit a set for each atom a in it.

    A and O quantify over subject-minus-predicate, E and I over the
    intersection.  Atom ``a`` lies inside term ``j`` exactly when bit j of
    ``a`` is set, so term j's mask is ``_atom_vector(j, 2^k)``.
    """
    n_atoms = 1 << len(terms)
    x = _atom_vector(_term_index(terms, p.subject), n_atoms)
    y = _atom_vector(_term_index(terms, p.predicate), n_atoms)
    return x & y if p.kind in (PropKind.E, PropKind.I) else x & ~y


class RegionModel(_Value):
    """One inhabitation pattern: bit a of ``inhabited`` marks atom a."""

    __slots__ = ("terms", "inhabited")

    def __init__(self, terms: tuple[TermId, ...], inhabited: int) -> None:
        self._set(tuple(terms), inhabited)

    def __post_init__(self) -> None:
        _check_terms(self.terms, MAX_VENN_TERMS)  # before the range check builds a 2^k-bit bound
        # an int proper: a bool is no mask
        if type(self.inhabited) is not int:
            raise ValueError(f"an inhabitation mask is an int, got {self.inhabited!r}")
        n_atoms = 1 << len(self.terms)
        if not 0 <= self.inhabited < (1 << n_atoms):
            raise ValueError(f"inhabitation mask out of range for {n_atoms} atoms")

    def is_inhabited(self, atom: int) -> bool:
        return bool((self.inhabited >> atom) & 1)


def eval_proposition(p: Proposition, model: RegionModel) -> bool:
    """Truth of one proposition in one model."""
    hit = bool(model.inhabited & region_mask(p, model.terms))
    return hit if p.kind.particular else not hit


def _atom_vector(bit: int, size: int) -> int:
    """The ``size``-bit vector whose bit m is bit ``bit`` of m.

    Over models it marks the models inhabiting atom ``bit``; over atoms,
    the atoms inside term ``bit``.  Bit ``bit`` of m runs in blocks of
    2^bit zeros then 2^bit ones; the first period is built directly and
    then doubled up to ``size`` bits.
    """
    half = 1 << bit
    vector = ((1 << half) - 1) << half
    width = half << 1
    while width < size:
        vector |= vector << width
        width <<= 1
    return vector


class VennSpace:
    """A term space, and closed-form entailment over its 2^k atoms: the Venn method.

    The space holds the term tuple, within the class's cap, free of
    duplicates and each a valid term name, and one dict, ``_cache``, of
    what the space has worked out per proposition, keyed by ``(kind,
    subject, predicate)``, a tuple that hashes in C.  ``VennSpace`` stores
    each proposition's ``(particular?, region mask)`` there.  A region mask
    has 2^k bits, so k is capped at ``MAX_VENN_TERMS``.

    The premisses and the negated conclusion hold together exactly when
    each particular one's region keeps an atom that no universal one empties
    (the model inhabiting every such atom shows it), so the query is
    entailed exactly when some particular region lies inside that union.
    """

    _cap = MAX_VENN_TERMS

    def __init__(self, terms: Sequence[TermId]):
        self.terms = tuple(terms)
        _check_terms(self.terms, self._cap)
        self._cache: dict[tuple[PropKind, TermId, TermId], object] = {}

    def _region(self, p: Proposition) -> tuple[bool, int]:
        key = p.kind, p.subject, p.predicate
        known = self._cache.get(key)
        if known is None:
            known = self._cache[key] = (p.kind.particular, region_mask(p, self.terms))
        return known

    def entails(self, premisses: Iterable[Proposition], conclusion: Proposition) -> bool:
        """The query of ``ModelSpace.entails``, with no model enumerated."""
        emptied = 0
        inhabited = []
        for q in premisses:
            particular, mask = self._region(q)
            if particular:
                inhabited.append(mask)
            else:
                emptied |= mask
        particular, mask = self._region(conclusion)  # negated: same region, other quantity
        if particular:
            emptied |= mask
        else:
            inhabited.append(mask)
        return any(not r & ~emptied for r in inhabited)


class ModelSpace(VennSpace):
    """Every inhabitation pattern over the atoms of a term space (``MAX_TERMS`` at most).

    It shares the term space with ``VennSpace`` but decides by its own
    ``truth`` and ``entails``.  Model m is the pattern whose inhabitation
    mask is m.  The space's one dict, ``_cache``, holds truth vectors
    here, each built from a ``region_mask``; ``_region`` is never called.
    """

    _cap = MAX_TERMS

    def __init__(self, terms: Sequence[TermId]):
        super().__init__(terms)
        n_atoms = 1 << len(self.terms)
        self._size = 1 << n_atoms
        self._all = (1 << self._size) - 1
        self._atoms = [_atom_vector(a, self._size) for a in range(n_atoms)]

    def __len__(self) -> int:
        return self._size

    def truth(self, p: Proposition) -> int:
        """Truth vector of ``p``: bit m is its truth in model m."""
        key = p.kind, p.subject, p.predicate
        truth = self._cache.get(key)
        if truth is None:
            mask = region_mask(p, self.terms)
            hits = 0
            for atom, vector in enumerate(self._atoms):
                if mask >> atom & 1:
                    hits |= vector
            truth = self._cache[key] = hits if p.kind.particular else self._all ^ hits
        return truth

    def entails(self, premisses: Iterable[Proposition], conclusion: Proposition) -> bool:
        """True when every model of the premisses models the conclusion."""
        antecedent = self._all
        for q in premisses:
            antecedent &= self.truth(q)
        return not antecedent & ~self.truth(conclusion)


@lru_cache(maxsize=None)
def space_for(terms: tuple[TermId, ...]) -> ModelSpace:
    return ModelSpace(terms)


def semantic_verdict(s: Syllogism) -> Verdict:
    """Classify a syllogism semantically, mirroring the calculus verdicts.

    Valid means valid with no assumption at all; a conditional verdict is
    returned only when the bare syllogism fails but the stated assumption
    rescues it.  Every verdict it returns is one of the shared trace-less
    verdicts of ``inference``.

    Entailment is monotone in the premisses: what follows bare follows
    with the existence premiss too.  So the query with the assumption is
    asked first, and when it fails the verdict is invalid without the bare
    query; otherwise the bare query alone tells valid from conditional.
    """
    premisses = premisses_of(s)
    goal = conclusion_of(s)
    space = space_for((MINOR, MIDDLE, MAJOR))
    existence = assumption_proposition(s)
    if existence is not None and not space.entails((*premisses, existence), goal):
        return _INVALID
    if space.entails(premisses, goal):
        return _VALID
    return _INVALID if existence is None else _VALID_ASSUMING[s.assumption]
