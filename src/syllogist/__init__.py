"""Decision engine for categorical syllogisms.

Syllogisms are decided two independent ways: by reducing oriented chain
diagrams to a normal form and matching the conclusion's shape, and by
exhaustively enumerating region models as a semantic oracle.  The catalog
module runs both over every mood and figure and checks they agree.

The calculus (``chains`` and ``inference``) loads with the package.  The
names of the notation, the oracle (``regions``) and the catalog load on
first use (PEP 562), so a process imports the parser only when it parses
and the oracle and the catalog only when it runs them.  ``__all__`` lists
every public name, so ``from syllogist import *`` loads all three.
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
__version__ = "0.1.0"

# each name that loads on first use, and the module it loads
_LAZY = {
    **dict.fromkeys((
        "AmbiguousTerms", "BadFigure", "BadMoodLetter", "NotASyllogism", "NotationError",
        "SourceSpan", "parse_any", "parse_compact", "parse_corpus", "parse_proposition",
        "parse_syllogism_block", "render_block", "render_compact", "render_proposition",
    ), "notation"),
    **dict.fromkeys((
        "MAX_TERMS", "MAX_VENN_TERMS", "ModelSpace", "RegionModel", "TooManyTerms",
        "UnknownTerm", "VennSpace", "eval_proposition", "semantic_verdict", "space_for",
    ), "regions"),
    **dict.fromkeys((
        "MAX_COUNT_TERMS", "LawResult", "TableRow", "TermNotInChain", "UnsupportedN",
        "all_moods", "all_syllogisms", "check_rules", "count_valid_nterm", "enumerate_all",
        "mutually_excluded", "opposition_laws",
    ), "catalog"),
}

# every public name, the submodules aside: a star-import resolves the
# lazy ones through __getattr__, loading their modules
__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} - {"chains", "inference"}
    | _LAZY.keys()
)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
