"""Decision engine for categorical syllogisms.

Syllogisms are decided two independent ways: by reducing oriented chain
diagrams to a normal form and matching the conclusion's shape, and by
exhaustively enumerating region models as a semantic oracle.  The catalog
module runs both over every mood and figure and checks they agree.

``import syllogist`` loads no submodule.  Every public name loads its
module on first use (PEP 562), so a process imports the parser only when
it parses and the oracle and the catalog only when it runs them.
``__all__`` lists every public name, so ``from syllogist import *`` loads
every module.
"""

__version__ = "0.1.0"

# each public name, and the module it loads on first use
_LAZY = {
    **dict.fromkeys((
        "BULLET", "Arrow", "Chain", "PropKind", "Proposition", "TermId", "chain_along",
        "chain_from_text", "concat", "diagram", "is_bullet", "is_term", "splice_existence",
    ), "chains"),
    **dict.fromkeys((
        "MAJOR", "MIDDLE", "MINOR", "Assumption", "Figure", "Mood", "ReductionStep",
        "Syllogism", "Trace", "Validity", "Verdict", "assumption_proposition", "conclusion_of",
        "decide", "match_conclusion", "normalize", "premiss_chain", "premisses_of", "reduce_at",
        "reducible_positions",
    ), "inference"),
    **dict.fromkeys((
        "BadMoodLetter", "NotASyllogism", "NotationError", "SourceSpan", "parse_any",
        "parse_compact", "parse_corpus", "parse_proposition", "parse_syllogism_block",
        "render_block", "render_compact", "render_proposition",
    ), "notation"),
    **dict.fromkeys((
        "MAX_TERMS", "MAX_VENN_TERMS", "ModelSpace", "RegionModel", "VennSpace",
        "eval_proposition", "semantic_verdict", "space_for",
    ), "regions"),
    **dict.fromkeys((
        "MAX_COUNT_TERMS", "LawResult", "TableRow", "all_moods", "all_syllogisms",
        "check_rules", "count_valid_nterm", "enumerate_all", "mutually_excluded",
        "opposition_laws",
    ), "catalog"),
}

# a star-import resolves each name through __getattr__, loading its module
__all__ = sorted(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
