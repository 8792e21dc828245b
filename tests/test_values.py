"""The value classes' contract, and the names the package exports."""

import copy
import inspect
import pickle
import re
from enum import Enum
from pathlib import Path
from types import ModuleType

import pytest

import syllogist
from syllogist import (
    BULLET,
    Arrow,
    Assumption,
    Chain,
    Figure,
    LawResult,
    Mood,
    PropKind,
    Proposition,
    ReductionStep,
    RegionModel,
    SourceSpan,
    Syllogism,
    TableRow,
    Trace,
    Validity,
    Verdict,
    decide,
    diagram,
    normalize,
    parse_any,
    parse_proposition,
    premiss_chain,
)
from syllogist import inference
from syllogist.chains import _Value

A, E = PropKind.A, PropKind.E
AB = Chain(("A", "B"), (Arrow.RIGHT,))
BA = Chain(("B", "A"), (Arrow.RIGHT,))
BARBARA = Syllogism(Mood(A, A, A), Figure.ONE)
TRACE = decide(BARBARA).trace
STEP = TRACE.steps[0]
VALID = Verdict(Validity.VALID, trace=TRACE)
INVALID = Verdict(Validity.INVALID)

# class: each field as (name, value, another value it may take on its own)
CASES = {
    Proposition: (("kind", A, E), ("subject", "S", "M"), ("predicate", "P", "M")),
    Chain: (("nodes", ("A", "B"), ("A", "C")), ("arrows", (Arrow.RIGHT,), (Arrow.LEFT,))),
    Mood: (("first", A, E), ("second", A, E), ("conclusion", A, E)),
    Syllogism: (
        ("mood", Mood(A, A, A), Mood(E, A, E)),
        ("figure", Figure.ONE, Figure.TWO),
        ("assumption", Assumption.NONE, Assumption.SOME_S),
    ),
    ReductionStep: (
        ("position", STEP.position, STEP.position + 1),
        ("deleted_term", STEP.deleted_term, "X"),
        ("before", STEP.before, AB),
        ("after", STEP.after, BA),
    ),
    Trace: (
        ("initial", TRACE.initial, AB),
        ("steps", TRACE.steps, ()),
        ("normal_form", TRACE.normal_form, BA),
    ),
    # the assumption is tied to the validity, so it never changes on its own
    Verdict: (
        ("validity", Validity.VALID, Validity.INVALID),
        ("assumption", Assumption.NONE, Assumption.NONE),
        ("trace", TRACE, normalize(premiss_chain(BARBARA))),
    ),
    SourceSpan: (("start", 0, 1), ("end", 3, 4)),
    RegionModel: (("terms", ("S", "P"), ("P", "S")), ("inhabited", 5, 6)),
    TableRow: (
        ("syllogism", BARBARA, Syllogism(Mood(E, A, E), Figure.ONE)),
        ("calculus", VALID, INVALID),
        ("oracle", VALID, INVALID),
    ),
    LawResult: (
        ("name", "law", "other law"),
        ("chain", AB, BA),
        ("expected", Proposition(A, "A", "B"), None),
        ("trace", normalize(AB), normalize(BA)),
        ("ok", True, False),
    ),
}


def values(cls):
    return [value for _name, value, _other in CASES[cls]]


@pytest.fixture(params=list(CASES), ids=lambda cls: cls.__name__)
def cls(request):
    return request.param


def test_equal_fields_give_equal_values_and_hashes(cls):
    a, b = cls(*values(cls)), cls(*values(cls))
    assert a is not b
    assert a == b
    assert not a != b
    assert hash(a) == hash(b)


def test_changing_one_field_gives_an_unequal_value(cls):
    base = cls(*values(cls))
    for k, (name, value, other) in enumerate(CASES[cls]):
        if other == value:
            continue
        changed = values(cls)
        changed[k] = other
        assert cls(*changed) != base, name


def test_another_class_with_the_same_fields_is_not_equal(cls):
    sub = type("Sub", (cls,), {})
    assert sub(*values(cls)) != cls(*values(cls))
    assert cls(*values(cls)) != tuple(values(cls))


def test_fields_cannot_be_assigned_or_deleted(cls):
    value = cls(*values(cls))
    for name, _value, other in CASES[cls]:
        with pytest.raises(AttributeError):
            setattr(value, name, other)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert list(values(cls)) == [getattr(value, name) for name, _v, _o in CASES[cls]]


def test_every_value_class_is_listed():
    assert set(_Value.__subclasses__()) == set(CASES)


# the classes whose fields ``_Value._set`` checks against declared types
TYPED = (Mood, Syllogism, ReductionStep, Trace, Verdict, TableRow, LawResult)


def test_typed_classes_declare_one_type_per_field():
    assert {c for c in CASES if "_types" in vars(c)} == set(TYPED)
    for typed in TYPED:
        assert len(typed._types) == len(typed._names), typed


@pytest.mark.parametrize("typed", TYPED, ids=lambda typed: typed.__name__)
def test_a_field_of_the_wrong_type_is_a_value_error_naming_it(typed):
    for k, (name, _value, _other) in enumerate(CASES[typed]):
        bad = values(typed)
        bad[k] = object()
        what = typed.__name__.lower()
        with pytest.raises(ValueError, match=f"^a {what}'s {name} is of type .*, got <object"):
            typed(*bad)


def test_a_step_position_is_an_int_proper_and_a_trace_holds_steps_only():
    with pytest.raises(ValueError, match="^a reductionstep's position is of type int, got True$"):
        ReductionStep(True, STEP.deleted_term, STEP.before, STEP.after)
    with pytest.raises(ValueError, match="^a trace's steps hold ReductionSteps only, got 'x'$"):
        Trace(AB, ("x",), AB)
    with pytest.raises(ValueError, match="^a trace's steps hold ReductionSteps only, got 'x'$"):
        Trace(AB, (STEP, "x"), AB)


def test_init_parameters_are_the_slots_in_order(cls):
    # _set stores the fields in this order, and _fields, __reduce__ and repr read them so
    assert tuple(inspect.signature(cls).parameters) == cls.__slots__


def test_repr_names_each_field_in_order(cls):
    fields = ", ".join(f"{name}={value!r}" for name, value, _other in CASES[cls])
    assert repr(cls(*values(cls))) == f"{cls.__name__}({fields})"


def test_copy_deepcopy_and_pickle_round_trip(cls):
    value = cls(*values(cls))
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls
        assert clone == value
        assert hash(clone) == hash(value)


ENUMS = (Arrow, Assumption, Figure, PropKind, Validity)


def test_every_package_enum_is_listed():
    exported = (getattr(syllogist, name) for name in EXPORTS)
    assert {v for v in exported if isinstance(v, type) and issubclass(v, Enum)} == set(ENUMS)


# the package's singletons, by name: every enum's members, and the bullet
SINGLETONS = {enum.__name__: tuple(enum) for enum in ENUMS} | {"BULLET": (BULLET,)}


def clones(value):
    """Copies of ``value`` by copy, deepcopy and pickle at every protocol."""
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


@pytest.mark.parametrize("name", SINGLETONS)
def test_enum_members_survive_copy_and_pickle_as_themselves(name):
    for member in SINGLETONS[name]:
        for clone in clones(member):
            assert clone is member


def test_cloned_chains_hold_the_bullet_itself():
    chain = diagram(Proposition(PropKind.O, "S", "P"))
    for clone in clones(chain):
        assert clone == chain
        assert [node is BULLET for node in clone.nodes] == [False, True, True, False]
        assert clone.bullet_count == 2


class NamedSyllogism(Syllogism):
    """A subclass that declares no field of its own: it keeps its base's."""

    __slots__ = ()


@pytest.mark.parametrize(
    "verdict",
    [inference._INVALID, inference._VALID, *inference._VALID_ASSUMING.values()],
    ids=Verdict.summary,
)
def test_the_shared_verdicts_round_trip(verdict):
    for clone in clones(verdict):
        assert type(clone) is Verdict
        assert clone == verdict
        assert hash(clone) == hash(verdict)


def test_a_subclass_with_empty_slots_keeps_and_checks_its_fields():
    value = NamedSyllogism(Mood(A, A, A), Figure.ONE)
    assert (value.mood, value.figure, value.assumption) == (
        BARBARA.mood, BARBARA.figure, BARBARA.assumption
    )
    assert decide(value).validity is Validity.VALID
    with pytest.raises(ValueError, match="mood"):
        NamedSyllogism("x", "y")
    assert value == NamedSyllogism(Mood(A, A, A), Figure.ONE) != BARBARA
    assert repr(value) == "Named" + repr(BARBARA)
    for clone in clones(value):
        assert type(clone) is NamedSyllogism
        assert clone == value
        assert hash(clone) == hash(value)


@pytest.mark.parametrize("enum", ENUMS, ids=lambda enum: enum.__name__)
def test_enum_members_hash_by_identity_or_as_ints(enum):
    # the plain enums hash by identity, in C; Figure is an IntEnum, hashed as its int
    expected = int.__hash__ if issubclass(enum, int) else object.__hash__
    assert enum.__hash__ is expected
    assert len({hash(member) for member in enum}) == len(enum)


def test_equal_values_built_apart_hash_equal_and_find_each_other():
    pairs = [
        (parse_any("EAO-3 +M"), Syllogism(Mood(E, A, PropKind.O), Figure.THREE, Assumption.SOME_M)),
        (parse_any("No M is P; All M is S; Some S is not P; assuming some M"),
         pickle.loads(pickle.dumps(parse_any("EAO-3 +M")))),
        (parse_proposition("Some S is not P"), Proposition(PropKind.O, "S", "P")),
        (copy.deepcopy(Proposition(A, "S", "P")), parse_proposition("All S is P")),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert {a: "found"}[b] == "found"
        assert {b: "found"}[a] == "found"


def test_keyword_arguments_and_defaults():
    assert Syllogism(mood=Mood(A, A, A), figure=Figure.ONE) == BARBARA
    assert BARBARA.assumption is Assumption.NONE
    assert Verdict(Validity.INVALID) == Verdict(
        validity=Validity.INVALID, assumption=Assumption.NONE, trace=None
    )
    assert diagram(Proposition(kind=A, subject="A", predicate="B")) == AB


# --- package surface --------------------------------------------------------

EXPORTS = """
Arrow Assumption BULLET BadMoodLetter Chain Figure LawResult MAJOR MAX_COUNT_TERMS
MAX_TERMS MAX_VENN_TERMS MIDDLE MINOR ModelSpace Mood NotASyllogism NotationError
PropKind Proposition ReductionStep RegionModel SourceSpan Syllogism TableRow
TermId Trace Validity VennSpace Verdict all_moods all_syllogisms assumption_proposition chain_along
chain_from_text check_rules concat conclusion_of count_valid_nterm decide
diagram enumerate_all eval_proposition is_bullet is_term match_conclusion
mutually_excluded normalize opposition_laws parse_any parse_compact
parse_corpus parse_proposition parse_syllogism_block premiss_chain
premisses_of reduce_at reducible_positions render_block render_compact
render_proposition semantic_verdict space_for splice_existence
""".split()


@pytest.mark.parametrize("name", EXPORTS)
def test_every_exported_name_imports_from_the_package(name):
    namespace = {}
    exec(f"from syllogist import {name}", namespace)
    assert namespace[name] is getattr(syllogist, name)
    assert name in dir(syllogist)


def test_star_import_holds_every_public_name():
    namespace = {}
    exec("from syllogist import *", namespace)
    public = {
        name for name in dir(syllogist)
        if not name.startswith("_") and not isinstance(getattr(syllogist, name), ModuleType)
    }
    assert public == set(EXPORTS)
    assert public <= namespace.keys()
    for name in public:
        assert namespace[name] is getattr(syllogist, name)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_library_example_prints_what_it_says(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S)[1]
    exec(example, {})
    assert capsys.readouterr().out.splitlines() == [
        "S <- M -> * <- P",
        "valid +M",
        "step 1: delete M at 1: S <- M <- * -> M -> * <- P => S <- * -> M -> * <- P",
        "step 2: delete M at 2: S <- * -> M -> * <- P => S <- * -> * <- P",
        "valid +M",
    ]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        syllogist.no_such_name
    with pytest.raises(ImportError):
        exec("from syllogist import no_such_name", {})
