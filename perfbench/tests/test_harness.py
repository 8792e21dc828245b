"""Self-check of the benchmark harness (not part of the main test suite).

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads as wl  # noqa: E402
from syllogist import catalog, cli, inference  # noqa: E402,F401
from syllogist.notation import parse_any, parse_corpus  # noqa: E402


def test_same_seed_gives_the_same_corpus_bytes():
    assert wl.corpus(7, 512)[0].encode() == wl.corpus(7, 512)[0].encode()


def test_another_seed_gives_another_corpus():
    assert wl.corpus(7, 512)[0] != wl.corpus(8, 512)[0]


def test_corpus_parses_back_to_the_drawn_syllogisms():
    text, drawn, in_blocks = wl.corpus(3, 2048)
    parsed = parse_corpus(text)
    assert [str(s) for s, _span in parsed] == [ref.compact(s) for s in drawn]
    assert 0 < in_blocks < len(drawn)
    assert "#" in text


def test_interactive_inputs_repeat_per_seed_and_parse_back():
    first = [op.argv for op in islice(wl.interactive_ops(5), 200)]
    assert first == [op.argv for op in islice(wl.interactive_ops(5), 200)]
    for op in islice(wl.interactive_ops(5), 200):
        assert str(parse_any(op.argv[-1])) == ref.compact(op.syllogisms[0])


def test_reference_table_counts():
    assert sum(len(moods) for moods in ref.VALID.values()) == 15
    assert {a: len(p) for a, p in ref.CONDITIONAL.items()} == {"S": 5, "M": 3, "P": 1}
    assert ref.NTERM_COUNTS == {3: 24, 4: 44}
    assert ref.LAW_COUNT == 12
    rows = ref.all_syllogisms()
    assert len(rows) == len(set(rows)) == ref.ROWS
    assert sum(ref.verdict(s)[0] == "valid-with-assumption" for s in rows) == 9


def test_checks_flag_a_wrong_verdict():
    s = ("AAA", 1, None)
    assert ref.check_single("check", "text", "AAA-1", s, 0, "AAA-1: valid\n", "") == []
    assert ref.check_single("check", "text", "AAA-1", s, 1, "AAA-1: invalid\n", "")


def test_tail_keeps_ten_samples_beyond_it():
    value, percentile = run.tail([float(v) for v in range(1, 101)])
    assert value == 90.0 and percentile == 90.0
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100.0)


def test_tracer_sees_calls_through_from_imports():
    modules = {
        name: sys.modules[f"syllogist.{name}"]
        for name in ("cli", "notation", "inference", "chains", "regions", "catalog")
    }
    original = catalog.decide
    tracer = traced.Tracer(modules)
    assert tracer.install() == []
    try:
        assert catalog.decide is not original and inference.decide is catalog.decide
        catalog.enumerate_all(tuple(inference.Assumption)[:1])
    finally:
        tracer.uninstall()
    assert catalog.decide is original
    spans = tracer.take()
    names = {span[0] for span in spans}
    assert {"catalog.enumerate_all", "inference.decide", "regions.semantic_verdict"} <= names
    metrics, splice = traced.layer_metrics(spans)
    assert metrics["inference.decide.us"] > 0
    assert splice == {"share": 0.0, "base": 256}
