"""Oriented chain diagrams for categorical propositions.

Each of the four categorical proposition kinds is encoded as a short chain
of nodes joined by left- or right-pointing arrows.  Nodes are either term
identifiers or anonymous bullet markers:

    A (All S is P)       S -> P
    E (No S is P)        S -> * <- P
    I (Some S is P)      S <- * -> P
    O (Some S is not P)  S <- * -> * <- P

Chains compose end to end at a shared boundary term, mirror into their
duals (reversed node order, every arrow flipped), and admit splicing of an
existence diagram ``t <- * -> t`` over any occurrence of the term ``t``.
Premisses join along a path of terms: ``chain_along`` orients each one to
continue from the chain's right end, so a syllogism of any number of terms
and an opposition law build their chains the same way.

All values are immutable; every operation returns a new chain, so values
can be shared freely across threads.  The package's value classes share
one small base, ``_Value``, rather than ``dataclasses``, so importing the
package stays cheap.

Every chain is checked by its constructor, ``Chain(nodes, arrows)``:
its term names, its bullets and arrows, and its arrow count.  Each
operation here and in the other modules builds its result through that
constructor, so a derived chain (a diagram, dual, concatenation, splice
or reduction step) is checked as a chain from input is.  ``Proposition``
checks its kind and term names, and ``chain_along`` its start term.  The
value classes of ``inference`` and ``catalog`` declare their field types
in ``_types``, and ``_Value._set`` checks them: one type rule, one place.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum

TermId = str


class _Value:
    """Base of the package's immutable value classes.

    A subclass lists its own fields in ``__slots__``, in order.  Its
    fields, ``_names``, are its base class's, then those slots, found once
    when the class is made, so a subclass that declares ``__slots__ = ()``
    keeps its base's fields.  Beside them, ``_setters`` holds each field's
    slot descriptor setter, found at the same time.  Its ``__init__``, whose
    parameters are those fields in that order, is one ``_set`` call.
    ``_set`` is the one store: no other code in the package sets a field.
    On every value built, derived values included, it stores the fields,
    then checks each against its entry in ``_types`` when the class
    declares them (a class or a tuple of classes per field, in ``_names``
    order), raising ``ValueError`` that names the first bad field.  Last
    it runs ``__post_init__``, the hook for rules beyond a field's type.
    Equality and hashing go by class and field values, ``repr`` reads
    ``Name(field=value, ...)``, and copying and pickling rebuild the value
    through its constructor, so its checks run again.  No subclass
    overrides equality or hashing: no command compares or hashes a value,
    since the caches key by field tuples or by identity and
    ``match_conclusion`` compares a chain's node and arrow tuples.
    """

    __slots__ = ()
    _names: tuple[str, ...] = ()
    _setters: tuple = ()
    _types: tuple = ()

    def __init_subclass__(cls) -> None:
        slots = tuple(cls.__dict__.get("__slots__", ()))
        cls._names += slots
        # a slot's descriptor stores without the name lookup of a generic setattr
        cls._setters += tuple(cls.__dict__[name].__set__ for name in slots)

    def _set(self, *values: object) -> None:
        for store, value in zip(self._setters, values):
            store(self, value)
        types = self._types
        if types and not all(map(isinstance, values, types)):
            self._type_error(values)
        self.__post_init__()

    def _type_error(self, values: tuple) -> None:
        """Raise ``ValueError`` naming the first field that is not of its declared type."""
        for name, value, types in zip(self._names, values, self._types):
            if not isinstance(value, types):
                types = types if isinstance(types, tuple) else (types,)
                expected = " or ".join(t.__name__ for t in types)
                what = type(self).__name__.lower()
                raise ValueError(f"a {what}'s {name} is of type {expected}, got {value!r}")

    def __post_init__(self) -> None:
        """Check rules beyond the fields' types; a subclass with such rules overrides this."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


class _Bullet:
    """The anonymous marker node.  ``BULLET`` is the one instance; copy and pickle return it."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "*"

    def __reduce__(self) -> str:
        return "BULLET"


BULLET = _Bullet()

Node = TermId | _Bullet


def is_bullet(node: object) -> bool:
    return node is BULLET


def is_term(node: object) -> bool:
    return isinstance(node, str)


def _check_term(name: object) -> None:
    if not isinstance(name, str) or not name:
        raise ValueError(f"term identifiers are non-empty strings, got {name!r}")
    if name.split() != [name] or name in _TOKENS:
        # must survive the whitespace-separated text rendering
        raise ValueError(f"term identifier {name!r} clashes with chain notation")


class Arrow(Enum):
    """Orientation of one chain edge; the value is its text rendering."""

    RIGHT = "->"
    LEFT = "<-"

    # members are singletons and equal only to themselves, so hashing by
    # identity keeps the hash/eq contract, in C; ``Enum.__hash__`` runs in Python
    __hash__ = object.__hash__

    @property
    def flipped(self) -> "Arrow":
        return Arrow.LEFT if self is Arrow.RIGHT else Arrow.RIGHT


# the chain notation's own tokens, each with the node or arrow it stands for
_TOKENS = {"*": BULLET, **{a.value: a for a in Arrow}}


class PropKind(Enum):
    """The four kinds of categorical proposition."""

    A = "A"  # universal affirmative: All X is Y
    E = "E"  # universal negative:    No X is Y
    I = "I"  # particular affirmative: Some X is Y
    O = "O"  # particular negative:   Some X is not Y

    __hash__ = object.__hash__  # by identity, as ``Arrow``'s

    @property
    def universal(self) -> bool:
        return self in (PropKind.A, PropKind.E)

    @property
    def particular(self) -> bool:
        return not self.universal

    @property
    def affirmative(self) -> bool:
        return self in (PropKind.A, PropKind.I)

    @property
    def negative(self) -> bool:
        return not self.affirmative


class Proposition(_Value):
    """A categorical proposition: kind plus subject and predicate terms.

    Subject and predicate may coincide; the degenerate forms over a single
    term (All A is A, Some A is A, ...) are first-class citizens of the
    calculus.
    """

    __slots__ = ("kind", "subject", "predicate")

    def __init__(self, kind: PropKind, subject: TermId, predicate: TermId) -> None:
        self._set(kind, subject, predicate)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, PropKind):
            raise ValueError(f"a proposition's kind is a PropKind, got {self.kind!r}")
        _check_term(self.subject)
        _check_term(self.predicate)

    def __str__(self) -> str:
        return f"{self.kind.value}({self.subject},{self.predicate})"


class Chain(_Value):
    """A sequence of nodes joined by oriented arrows.

    ``arrows[i]`` joins ``nodes[i]`` and ``nodes[i + 1]``; RIGHT points at
    the right neighbour, LEFT at the left one.
    """

    __slots__ = ("nodes", "arrows")

    def __init__(self, nodes: tuple[Node, ...], arrows: tuple[Arrow, ...]) -> None:
        self._set(tuple(nodes), tuple(arrows))

    def __post_init__(self) -> None:
        nodes, arrows = self.nodes, self.arrows
        if not nodes:
            raise ValueError("a chain has at least one node")
        if len(arrows) != len(nodes) - 1:
            raise ValueError(f"{len(nodes)} nodes need {len(nodes) - 1} arrows, got {len(arrows)}")
        for node in nodes:
            if node is not BULLET:
                _check_term(node)
        for arrow in arrows:
            # ``Arrow`` has members, so it has no subclasses
            if arrow.__class__ is not Arrow:
                raise ValueError(f"not an arrow: {arrow!r}")

    def __len__(self) -> int:
        return len(self.nodes)

    def __str__(self) -> str:
        parts = [str(self.nodes[0])]
        for arrow, node in zip(self.arrows, self.nodes[1:]):
            parts.append(arrow.value)
            parts.append(str(node))
        return " ".join(parts)

    @property
    def left(self) -> Node:
        return self.nodes[0]

    @property
    def right(self) -> Node:
        return self.nodes[-1]

    @property
    def bullet_count(self) -> int:
        return self.nodes.count(BULLET)

    def occurrences(self, term: TermId) -> list[int]:
        """Node indices at which ``term`` occurs, leftmost first."""
        return [i for i, node in enumerate(self.nodes) if node == term]

    def dual(self) -> "Chain":
        """The mirror image: reversed node order with every arrow flipped."""
        return Chain(self.nodes[::-1], tuple(a.flipped for a in reversed(self.arrows)))


def _diagram(p: Proposition) -> tuple[tuple[Node, ...], tuple[Arrow, ...]]:
    """The nodes and arrows of ``p``'s canonical chain, subject leftmost."""
    left, right = p.subject, p.predicate
    r, l = Arrow.RIGHT, Arrow.LEFT
    if p.kind is PropKind.A:
        return (left, right), (r,)
    if p.kind is PropKind.E:
        return (left, BULLET, right), (r, l)
    if p.kind is PropKind.I:
        return (left, BULLET, right), (l, r)
    return (left, BULLET, BULLET, right), (l, r, l)


def diagram(p: Proposition) -> Chain:
    """The canonical chain of a proposition, subject leftmost."""
    return Chain(*_diagram(p))


def concat(left: Chain, right: Chain) -> Chain:
    """Join two chains geometrically, left to right, at a shared term.

    The rightmost node of ``left`` and the leftmost node of ``right`` must
    be the same term; it appears once in the result.  Bullet counts add.
    """
    if is_bullet(left.right) or is_bullet(right.left):
        raise ValueError("chains join on a shared term, not on a bullet")
    if left.right != right.left:
        raise ValueError(
            f"cannot join {left.right!r} on the left to {right.left!r} on the right"
        )
    return Chain(left.nodes + right.nodes[1:], left.arrows + right.arrows)


def _oriented(p: Proposition, end: TermId) -> Chain:
    """The diagram of ``p`` read from ``end``: as written, or its dual."""
    d = diagram(p)
    if p.subject == end:
        return d
    if p.predicate == end:
        return d.dual()
    raise ValueError(f"{p} does not continue a chain that ends at {end!r}")


def chain_along(start: TermId, premisses: Iterable[Proposition]) -> Chain:
    """Join premiss diagrams end to end along a path of terms from ``start``.

    Each premiss continues the chain at its right end: it joins as written
    when its subject is that end and as its dual otherwise, so a premiss
    that does not touch the right end raises ``ValueError``.
    """
    _check_term(start)
    premisses = iter(premisses)
    first = next(premisses, None)
    if first is None:
        return Chain((start,), ())
    chain = _oriented(first, start)
    for p in premisses:
        chain = concat(chain, _oriented(p, chain.right))
    return chain


def splice_existence(chain: Chain, term: TermId, occurrence: int = 0) -> Chain:
    """Replace one occurrence of ``term`` by the segment ``term <- * -> term``.

    The arrows formerly incident to that node reattach to the outer copies;
    the bullet count grows by exactly one.
    """
    _check_term(term)
    spots = chain.occurrences(term)
    # an int proper: a bool or a float would index the list or break the comparison
    if type(occurrence) is not int or not 0 <= occurrence < len(spots):
        raise ValueError(f"occurrence {occurrence!r} of term {term!r} not found in {chain}")
    i = spots[occurrence]
    nodes = chain.nodes[:i] + (chain.nodes[i], BULLET) + chain.nodes[i:]
    arrows = chain.arrows[:i] + (Arrow.LEFT, Arrow.RIGHT) + chain.arrows[i:]
    return Chain(nodes, arrows)


def chain_from_text(text: str) -> Chain:
    """Parse the canonical rendering back into a chain.

    Tokens are whitespace separated: term identifiers, ``*`` for a bullet,
    ``->`` and ``<-`` for arrows, strictly alternating.
    """
    tokens = text.split()
    if not tokens or len(tokens) % 2 == 0:
        raise ValueError(f"not a chain rendering: {text!r}")
    items = [_TOKENS.get(token, token) for token in tokens]
    for k, item in enumerate(items):
        if isinstance(item, Arrow) is not bool(k % 2):  # arrows at odd tokens, nodes at even
            expected = "an arrow" if k % 2 else "a node"
            raise ValueError(f"expected {expected} at token {k}, got {tokens[k]!r}")
    return Chain(items[::2], items[1::2])
