"""Traced in-process replay: per-layer metrics for the six modules.

The workload's commands are replayed through ``syllogist.cli.main`` inside
this process, alternating untraced and traced iterations until the time is
up.  A traced iteration wraps the public functions of ``cli``,
``notation``, ``inference``, ``chains``, ``regions`` and ``catalog``; each
call records a span (name, parent, start, end and one attribute) in
memory.  Spans of the last traced iteration are written out at the end.
Import cost comes from ``python -X importtime``, not from spans.

The modules bind each other's names with ``from .x import y``, so a
wrapper is set on every ``syllogist`` module namespace that holds the
original function, not only on the module that defines it; otherwise
calls such as ``catalog.decide`` would bypass the span.

A layer the workload never reaches (the oracle on ``corpus``, parsing on
``catalog``) is measured on a short traced replay of the other workloads,
and the result records that source for every metric.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

import workloads as wl

SRC = Path(__file__).resolve().parent.parent / "src"
IMPORT_RUNS = 5
INTERACTIVE_REPLAY = 256  # commands per interactive iteration
FILL_INTERACTIVE = 64
FILL_CORPUS_BLOCKS = 1024

DECIDE = "inference.decide"

# name, unit, better: the per-layer metrics, in report order.
LAYER_METRICS = (
    ("import.syllogist_ms", "ms", "lower"),
    ("import.numpy_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("notation.parse_any.us", "us", "lower"),
    ("notation.parse_corpus.us_per_block", "us", "lower"),
    ("notation.parse_corpus.mb_per_s", "MB/s", "higher"),
    ("inference.decide.us", "us", "lower"),
    ("inference.premiss_chain.us", "us", "lower"),
    ("inference.normalize.us", "us", "lower"),
    ("inference.normalize.calls_per_decide", "count", "lower"),
    ("inference.reduce_at.calls", "count", "lower"),
    ("inference.match_conclusion.hit_ratio", "share", "higher"),
    ("inference.trace_as_dict.us", "us", "lower"),
    ("chains.chains_built_per_decide", "count", "lower"),
    ("chains.validate_share", "share", "lower"),
    ("regions.semantic_verdict.us", "us", "lower"),
    ("regions.entails.us", "us", "lower"),
    ("regions.entails.calls", "count", "lower"),
    ("regions.truth.calls", "count", "lower"),
    ("regions.truth.hit_ratio", "share", "higher"),
    ("regions.space_for.k3.ms", "ms", "lower"),
    ("regions.space_for.k4.ms", "ms", "lower"),
    ("regions.models_swept", "count", "lower"),
    ("catalog.enumerate_all.ms", "ms", "lower"),
    ("catalog.count_valid_nterm.n3.ms", "ms", "lower"),
    ("catalog.count_valid_nterm.n4.ms", "ms", "lower"),
    ("catalog.count_valid_nterm.candidates", "count", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
)


def _assumptions(args, kwargs) -> int:
    return len(args[3] if len(args) > 3 else kwargs.get("assumptions", ()))


class Tracer:
    """Spans in memory, and the wrappers that record them."""

    def __init__(self, modules: dict):
        self.modules = modules
        self._space_for = modules["regions"].space_for
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self._spaces_seen: set = set()
        self._truths_seen: set = set()

    def fresh_process(self) -> None:
        """Start a command as a new process would: no model space cached."""
        clear = getattr(self._space_for, "cache_clear", None)
        if clear is not None:
            clear()
        self._spaces_seen.clear()
        self._truths_seen.clear()

    def _wrap(self, fn, name: str, attr):
        clock = time.perf_counter_ns
        stack = self._stack

        def wrapper(*args, **kwargs):
            spans = self.spans
            record = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if attr is not None:
                record[4] = attr(args, kwargs, result)
            return result

        return wrapper

    def _targets(self):
        m = self.modules
        seen_space, seen_truth = self._spaces_seen, self._truths_seen

        def space_for(args, kwargs, result):
            key = args[0]
            miss = key not in seen_space
            seen_space.add(key)
            return len(key), miss

        def truth(args, kwargs, result):
            key = (args[0], args[1])
            hit = key in seen_truth
            seen_truth.add(key)
            return hit

        return (
            ("cli.main", m["cli"], "main", None),
            ("notation.parse_any", m["notation"], "parse_any", None),
            ("notation.parse_corpus", m["notation"], "parse_corpus",
             lambda a, k, r: (len(r), len((a[0] if a else k["text"]).encode()))),
            (DECIDE, m["inference"], "decide", None),
            ("inference.premiss_chain", m["inference"], "premiss_chain", None),
            ("inference.normalize", m["inference"], "normalize", None),
            ("inference.reduce_at", m["inference"], "reduce_at", None),
            ("inference.match_conclusion", m["inference"], "match_conclusion", lambda a, k, r: bool(r)),
            ("inference.Trace.as_dict", m["inference"].Trace, "as_dict", None),
            ("chains.splice_existence", m["chains"], "splice_existence", None),
            ("chains.Chain.__post_init__", m["chains"].Chain, "__post_init__", None),
            ("regions.semantic_verdict", m["regions"], "semantic_verdict", None),
            ("regions.space_for", m["regions"], "space_for", space_for),
            ("regions.ModelSpace.entails", m["regions"].ModelSpace, "entails",
             lambda a, k, r: (2 ** (2 ** len(a[0].terms)), _assumptions(a, k))),
            ("regions.ModelSpace.truth", m["regions"].ModelSpace, "truth", truth),
            ("catalog.enumerate_all", m["catalog"], "enumerate_all", None),
            ("catalog.count_valid_nterm", m["catalog"], "count_valid_nterm",
             lambda a, k, r: a[0] if a else k["n"]),
        )

    def install(self) -> list[str]:
        """Wrap every target; returns the names of targets that are missing."""
        namespaces = [
            mod for name, mod in sys.modules.items()
            if name == "syllogist" or name.startswith("syllogist.")
        ]
        missing = []
        for span, owner, attr_name, attr in self._targets():
            original = getattr(owner, attr_name, None)
            if original is None:
                missing.append(span)
                continue
            wrapper = self._wrap(original, span, attr)
            if isinstance(owner, type):
                setattr(owner, attr_name, wrapper)
                self._installed.append((span, owner, attr_name, original))
                continue
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._installed.append((span, mod, key, original))
        return missing

    def uninstall(self) -> None:
        for _span, owner, attr_name, original in reversed(self._installed):
            setattr(owner, attr_name, original)
        self._installed.clear()

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# Replays


def call_cli(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def replay(tracer: Tracer, ops) -> tuple[float, list[list[str]]]:
    """Run each command as a fresh process would; wall seconds and problems."""
    cli = tracer.modules["cli"]
    problems = []
    started = time.perf_counter()
    for op in ops:
        tracer.fresh_process()
        code, out, err = call_cli(cli, op.argv)
        problems.append(op.problems(code, out, err))
    return time.perf_counter() - started, problems


def build_ops(workload: str, seed: int, out_dir: Path, small: bool) -> list:
    if workload == "interactive":
        n = FILL_INTERACTIVE if small else INTERACTIVE_REPLAY
        return list(islice(wl.interactive_ops(seed), n))
    if workload == "corpus":
        text, drawn, in_blocks = wl.corpus(seed, FILL_CORPUS_BLOCKS if small else wl.CORPUS_BLOCKS)
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"corpus_seed{seed}_{'fill' if small else 'full'}.txt"
        path.write_text(text)
        return wl.corpus_ops(path, drawn, in_blocks)
    return wl.catalog_ops()


# ---------------------------------------------------------------------------
# Metrics from spans


def layer_metrics(spans: list[list]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced replay (``None`` where the replay
    never reached the layer), and the measured splice share with its base."""
    n = len(spans)
    child_ns = [0] * n
    in_decide = [False] * n
    by_name: dict[str, list[int]] = {}
    splices_under_decide = set()
    for i, (name, parent, start, end, _attr) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            child_ns[parent] += end - start
            in_decide[i] = in_decide[parent] or spans[parent][0] == DECIDE
            if name == "chains.splice_existence" and spans[parent][0] == DECIDE:
                splices_under_decide.add(parent)

    def dur(i):
        return spans[i][3] - spans[i][2]

    def idx(name):
        return by_name.get(name, [])

    def mean(name, scale):
        calls = idx(name)
        return sum(dur(i) for i in calls) / len(calls) / scale if calls else None

    def count(name):
        calls = idx(name)
        return len(calls) if calls else None

    def ratio(part, whole):
        return part / whole if whole else None

    decides = idx(DECIDE)
    decide_ns = sum(dur(i) for i in decides)
    chains_in_decide = [i for i in idx("chains.Chain.__post_init__") if in_decide[i]]
    parses = idx("notation.parse_corpus")
    parse_ns = sum(dur(i) for i in parses)
    parse_blocks = sum(spans[i][4][0] for i in parses)
    parse_bytes = sum(spans[i][4][1] for i in parses)
    mains = idx("cli.main")
    matches = idx("inference.match_conclusion")
    entails = idx("regions.ModelSpace.entails")
    truths = idx("regions.ModelSpace.truth")
    space_misses = {3: [], 4: []}
    for i in idx("regions.space_for"):
        k, miss = spans[i][4]
        if miss and k in space_misses:
            space_misses[k].append(dur(i) / 1e6)
    counts_by_n = {3: [], 4: []}
    for i in idx("catalog.count_valid_nterm"):
        if spans[i][4] in counts_by_n:
            counts_by_n[spans[i][4]].append(dur(i) / 1e6)
    candidates = sum(
        1 for i in entails
        if spans[i][4][1] == 0 and spans[spans[i][1]][0] == "catalog.count_valid_nterm"
    ) if idx("catalog.count_valid_nterm") else None
    normalize_in_decide = sum(
        1 for i in idx("inference.normalize") if spans[i][1] >= 0 and spans[spans[i][1]][0] == DECIDE
    )

    metrics = {
        "cli.main.self_ms": ratio(sum(dur(i) - child_ns[i] for i in mains) / 1e6, len(mains)),
        "notation.parse_any.us": mean("notation.parse_any", 1e3),
        "notation.parse_corpus.us_per_block": ratio(parse_ns / 1e3, parse_blocks),
        "notation.parse_corpus.mb_per_s": ratio(parse_bytes / 1e6, parse_ns / 1e9),
        "inference.decide.us": mean(DECIDE, 1e3),
        "inference.premiss_chain.us": mean("inference.premiss_chain", 1e3),
        "inference.normalize.us": mean("inference.normalize", 1e3),
        "inference.normalize.calls_per_decide": ratio(normalize_in_decide, len(decides)),
        "inference.reduce_at.calls": count("inference.reduce_at"),
        "inference.match_conclusion.hit_ratio": ratio(sum(spans[i][4] for i in matches), len(matches)),
        "inference.trace_as_dict.us": mean("inference.Trace.as_dict", 1e3),
        "chains.chains_built_per_decide": ratio(len(chains_in_decide), len(decides)),
        "chains.validate_share": ratio(sum(dur(i) for i in chains_in_decide), decide_ns),
        "regions.semantic_verdict.us": mean("regions.semantic_verdict", 1e3),
        "regions.entails.us": mean("regions.ModelSpace.entails", 1e3),
        "regions.entails.calls": count("regions.ModelSpace.entails"),
        "regions.truth.calls": count("regions.ModelSpace.truth"),
        "regions.truth.hit_ratio": ratio(sum(spans[i][4] for i in truths), len(truths)),
        "regions.space_for.k3.ms": statistics.median(space_misses[3]) if space_misses[3] else None,
        "regions.space_for.k4.ms": statistics.median(space_misses[4]) if space_misses[4] else None,
        "regions.models_swept": sum(spans[i][4][0] for i in entails) if entails else None,
        "catalog.enumerate_all.ms": mean("catalog.enumerate_all", 1e6),
        "catalog.count_valid_nterm.n3.ms": statistics.mean(counts_by_n[3]) if counts_by_n[3] else None,
        "catalog.count_valid_nterm.n4.ms": statistics.mean(counts_by_n[4]) if counts_by_n[4] else None,
        "catalog.count_valid_nterm.candidates": candidates,
    }
    splice = {"share": ratio(len(splices_under_decide), len(decides)), "base": len(decides)}
    return metrics, splice


def import_times(python: str) -> dict[str, float]:
    """Median ``-X importtime`` cumulative times of ``syllogist.cli`` and numpy."""
    runs = {"import.syllogist_ms": [], "import.numpy_ms": []}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(IMPORT_RUNS):
        done = subprocess.run(
            [python, "-X", "importtime", "-c", "import syllogist.cli"],
            capture_output=True, text=True, env=env, check=True,
        )
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        runs["import.syllogist_ms"].append(cumulative["syllogist.cli"] / 1e3)
        runs["import.numpy_ms"].append(cumulative.get("numpy", 0) / 1e3)
    return {name: statistics.median(values) for name, values in runs.items()}


def write_spans(path: Path, spans: list[list]) -> None:
    with gzip.open(path, "wt") as fh:
        for record in spans:
            fh.write(json.dumps(record) + "\n")


def traced_replay(tracer: Tracer, ops) -> tuple[float, list[list[str]], list[list], list[str]]:
    """One replay with every wrapper installed: wall seconds, problems,
    spans and the wrapper targets that were missing."""
    missing = tracer.install()
    try:
        wall, problems = replay(tracer, ops)
    finally:
        tracer.uninstall()
    return wall, problems, tracer.take(), missing


def run_traced(workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import syllogist.catalog
    import syllogist.chains
    import syllogist.cli
    import syllogist.inference
    import syllogist.notation
    import syllogist.regions

    modules = {
        "cli": syllogist.cli, "notation": syllogist.notation, "inference": syllogist.inference,
        "chains": syllogist.chains, "regions": syllogist.regions, "catalog": syllogist.catalog,
    }
    started = time.perf_counter()
    tracer = Tracer(modules)
    imports = import_times(sys.executable)
    ops = build_ops(workload, seed, out_dir, small=False)
    problems: list[list[str]] = []
    try:
        _, warm = replay(tracer, ops)  # first-call costs; checked but not timed
        problems += warm
        wall, found, spans, missing = traced_replay(tracer, ops)
        untraced, traced, per_iteration = [], [wall], [layer_metrics(spans)]
        problems += found

        # Layers this workload never reaches, from short replays of the others.
        fills: dict[str, float] = {}
        sources: dict[str, str] = {}
        fill_spans: list[list] = []
        for other in wl.WORKLOADS:
            unreached = [name for name, v in per_iteration[0][0].items() if v is None and name not in fills]
            if other == workload or not unreached:
                continue
            _, found, fill, _ = traced_replay(tracer, build_ops(other, seed, out_dir, small=True))
            problems += found
            fill_spans += fill
            for name, value in layer_metrics(fill)[0].items():
                if name in unreached and value is not None:
                    fills[name] = value
                    sources[name] = f"fill:{other}"

        while not untraced or time.perf_counter() - started < seconds:
            wall, found = replay(tracer, ops)
            untraced.append(wall)
            problems += found
            if time.perf_counter() - started >= seconds:
                break
            wall, found, spans, _ = traced_replay(tracer, ops)
            traced.append(wall)
            problems += found
            per_iteration.append(layer_metrics(spans))
    finally:
        for path in out_dir.glob(f"corpus_seed{seed}_*.txt"):
            path.unlink()

    layers: dict[str, float | None] = dict(fills)
    for name in per_iteration[0][0]:
        values = [m[name] for m, _ in per_iteration if m[name] is not None]
        if values:
            layers[name] = statistics.median(values)
            sources[name] = "workload"
        elif name not in layers:
            layers[name] = None

    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans_{workload}_seed{seed}.jsonl.gz"
    write_spans(spans_path, spans + fill_spans)

    overhead_ms = (statistics.median(traced) - statistics.median(untraced)) * 1e3
    layers.update(imports)
    sources.update({name: "importtime" for name in imports})
    layers["trace.overhead_ms"] = overhead_ms
    layers["trace.overhead_share"] = overhead_ms / 1e3 / statistics.median(untraced)
    sources["trace.overhead_ms"] = sources["trace.overhead_share"] = "workload"
    dropped = {
        name: f"not reached by any replay; missing wrapper targets: {missing or 'none'}"
        for name, value in layers.items() if value is None
    }
    metrics = {
        name: {"value": layers[name] if layers.get(name) is not None else 0, "unit": unit}
        for name, unit, _ in LAYER_METRICS
    }
    properties = wl.properties(ops)
    properties["decide_reaches_splice_measured"] = per_iteration[-1][1]
    failed = sum(1 for p in problems if p)
    return {
        "metrics": metrics,
        "named": metrics,
        "sources": sources,
        "dropped": dropped,
        "failed": failed,
        "attempted": len(problems),
        "problems": [p for ps in problems for p in ps][:50],
        "samples": {"untraced": len(untraced), "traced": len(traced)},
        "untraced_s": untraced,
        "traced_s": traced,
        "spans": str(spans_path.name),
        "properties": properties,
    }
