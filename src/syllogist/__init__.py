"""Decision engine for categorical syllogisms.

Syllogisms are decided two independent ways: by reducing oriented chain
diagrams to a normal form and matching the conclusion's shape, and by
exhaustively enumerating region models as a semantic oracle.  The catalog
module runs both over every mood and figure and checks they agree.

The calculus and the notation load with the package.  The names of the
oracle (``regions``) and the catalog load on first use (PEP 562), so a
process that only decides or parses never imports them.
"""

from .chains import (
    BULLET,
    Arrow,
    Chain,
    ChainError,
    JunctionMismatch,
    NoSuchOccurrence,
    PropKind,
    Proposition,
    TermId,
    chain_along,
    chain_from_text,
    concat,
    diagram,
    is_bullet,
    is_term,
    splice_existence,
)
from .inference import (
    MAJOR,
    MIDDLE,
    MINOR,
    Assumption,
    Figure,
    Mood,
    NotReducible,
    ReductionStep,
    Syllogism,
    Trace,
    Validity,
    Verdict,
    assumption_proposition,
    conclusion_of,
    decide,
    match_conclusion,
    normalize,
    premiss_chain,
    premisses_of,
    reduce_at,
    reducible_positions,
)
from .notation import (
    AmbiguousTerms,
    BadFigure,
    BadMoodLetter,
    NotASyllogism,
    NotationError,
    SourceSpan,
    parse_any,
    parse_compact,
    parse_corpus,
    parse_proposition,
    parse_syllogism_block,
    render_block,
    render_compact,
    render_proposition,
)

__version__ = "0.1.0"

# the names that load on first use, by module
_REGIONS = frozenset({
    "MAX_TERMS",
    "ModelSpace",
    "RegionModel",
    "TooManyTerms",
    "UnknownTerm",
    "VennSpace",
    "eval_proposition",
    "semantic_verdict",
    "space_for",
})
_CATALOG = frozenset({
    "MAX_COUNT_TERMS",
    "LawResult",
    "TableRow",
    "TermNotInChain",
    "UnsupportedN",
    "all_moods",
    "all_syllogisms",
    "check_rules",
    "count_valid_nterm",
    "enumerate_all",
    "mutually_excluded",
    "opposition_laws",
})


def __getattr__(name: str):
    if name in _REGIONS:
        from . import regions as module
    elif name in _CATALOG:
        from . import catalog as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _REGIONS | _CATALOG)
