"""Benchmark of the ``syllogist`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 35 --trace 0

``--trace 0`` times real ``syllogist`` processes, one after another from
this one process (a closed loop with one client), and reports the
end-to-end metrics.  ``--trace 1`` replays the same workload inside this
process with spans around each module's public functions and reports the
per-layer metrics (see ``traced.py``).  Every output is checked against
the hand-written table in ``reference.py``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with provenance and input-shape shares, is
also written to ``bench_out/BENCH_<workload>_seed<seed>_trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from itertools import cycle
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"

# What the installed ``syllogist`` console script runs.
ENTRY = "from syllogist.cli import run; run()"
SETUP_CODE = "import syllogist.cli"
SETUP_RUNS = 10  # set-up samples per run, spread evenly over the run

# A fixed job that shares no code with the repository: interpreter start,
# the imports the command line pulls in, and a little pure-Python work.
# It runs REFERENCE_RUNS times spread evenly over each run, and every
# reported time is multiplied by REFERENCE_NOMINAL_S over the job's median
# in that run.  On a shared machine that runs slower or faster from one
# minute to the next, the reference and the workload move together and
# the factor cancels it.  REFERENCE_NOMINAL_S is about the job's median on
# the 2-vCPU x86-64 machine the benchmark was written on, so scaled times
# read close to raw ones there.
REFERENCE_JOB = """\
try:
    import numpy
except ImportError:
    pass
import argparse, dataclasses, enum, functools, itertools, json, re
x = 0
for i in range(200_000):
    x += i * i % 7
"""
REFERENCE_RUNS = 20
REFERENCE_NOMINAL_S = 0.2
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above it

# The command kinds behind ``primary_ms`` and ``secondary_ms``.  On
# ``interactive`` they are the median and the tail of every process; on
# ``corpus`` the medians of ``check --corpus`` and ``trace --format json
# --corpus``; on ``catalog`` the medians of ``tables`` and ``count 4``.
HEADLINE_KINDS = {
    "interactive": ("process", "process"),
    "corpus": ("check", "trace"),
    "catalog": ("tables", "count4"),
}


@dataclass
class Sample:
    kind: str
    at_s: float  # start, from the start of the run
    wall_s: float
    maxrss_kb: int
    problems: list[str]


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def launch(argv: list[str], env: dict[str, str]) -> tuple[int, str, str, float, int]:
    """Run one interpreter to completion: exit code, stdout, stderr, wall
    seconds and peak resident set size in KiB, from the child's own rusage."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT
    )
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out.decode(), err[0].decode(), wall, usage.ru_maxrss


def timed(code_text: str, env: dict[str, str]) -> float:
    """Wall seconds of a fresh interpreter running ``code_text``."""
    code, _, err, wall, _ = launch(["-c", code_text], env)
    if code != 0:
        raise RuntimeError(f"{code_text.splitlines()[0]!r} failed: {err.strip()}")
    return wall


def tail(values: list[float]) -> tuple[float, float]:
    """The highest-percentile sample with ``TAIL_BEYOND`` samples above it,
    and that percentile; the maximum (percentile 100) when there are too
    few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def workload_ops(workload: str, seed: int):
    """The commands of one run, in order, and the corpus file if any."""
    if workload == "interactive":
        return wl.interactive_ops(seed), None
    if workload == "corpus":
        text, drawn, in_blocks = wl.corpus(seed)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"corpus_seed{seed}.txt"
        path.write_text(text)
        return cycle(wl.corpus_ops(path, drawn, in_blocks)), path
    return cycle(wl.catalog_ops()), None


def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    env = child_env()
    timed(SETUP_CODE, env)  # writes bytecode and fills the file cache; not timed
    ops, corpus_path = workload_ops(workload, seed)
    samples: list[Sample] = []
    setup_runs: list[tuple[float, float]] = []
    reference_runs: list[tuple[float, float]] = []
    ran = []
    try:
        warm = next(ops)  # first run of the workload's code; checked but not timed
        code, out, err, _, _ = launch(["-c", ENTRY, *warm.argv], env)
        warm_problems = warm.problems(code, out, err)
        needed = set(HEADLINE_KINDS[workload])
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or not needed <= {s.kind for s in samples}:
            elapsed = time.perf_counter() - started
            if len(setup_runs) * seconds <= elapsed * SETUP_RUNS:
                setup_runs.append((elapsed, timed(SETUP_CODE, env)))
            if len(reference_runs) * seconds <= elapsed * REFERENCE_RUNS:
                reference_runs.append((elapsed, timed(REFERENCE_JOB, env)))
            op = next(ops)
            at = time.perf_counter() - started
            code, out, err, wall, rss = launch(["-c", ENTRY, *op.argv], env)
            samples.append(Sample(op.kind, at, wall, rss, op.problems(code, out, err)))
            ran.append(op)
    finally:
        if corpus_path is not None:
            corpus_path.unlink()

    scale = REFERENCE_NOMINAL_S / statistics.median(wall for _, wall in reference_runs)
    setup_s = statistics.median(wall for _, wall in setup_runs) * scale
    by_kind: dict[str, list[float]] = {}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(s.wall_s * 1000 * scale)
    first, second = HEADLINE_KINDS[workload]
    primary = statistics.median(by_kind[first])
    if workload == "interactive":
        secondary, tail_pct = tail(by_kind[first])
        tails = {"check_ms": {"percentile": tail_pct, "samples": len(by_kind[first])}}
    else:
        secondary = statistics.median(by_kind[second])
        tails = {}

    failures = [p for s in samples for p in s.problems]
    failed = sum(1 for s in samples if s.problems) + bool(warm_problems)
    attempted = len(samples) + 1
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "primary_ms": {"value": primary, "unit": "ms"},
        "secondary_ms": {"value": secondary, "unit": "ms"},
        "peak_rss_mb": {"value": max(s.maxrss_kb for s in samples) / 1024, "unit": "MB"},
    }
    named = {
        "failed_share": {"value": failed / attempted, "unit": "share"},
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
    }
    if workload == "interactive":
        named["check_ms.p50"] = metrics["primary_ms"]
        named["check_ms.tail"] = metrics["secondary_ms"]
    elif workload == "corpus":
        blocks = len(ran[0].syllogisms)
        named["check_syll_per_s"] = {"value": blocks / (primary / 1000), "unit": "1/s"}
        named["trace_syll_per_s"] = {"value": blocks / (secondary / 1000), "unit": "1/s"}
    else:
        for kind, walls in by_kind.items():
            named[f"{kind}_ms"] = {"value": statistics.median(walls), "unit": "ms"}
    return {
        "metrics": metrics,
        "named": named,
        "failed": failed,
        "attempted": attempted,
        "problems": (warm_problems + failures)[:50],
        "samples": {kind: len(v) for kind, v in by_kind.items()},
        "scale": scale,
        "reference_runs_s": reference_runs,
        "setup_runs_s": setup_runs,
        "raw_runs_s": [(s.kind, s.at_s, s.wall_s) for s in samples],
        "tails": tails,
        "properties": wl.properties(ran),
    }


def git_sha() -> str:
    """The commit of the checkout, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(seed: int, seconds: float, trace: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "syllogist" / "cli.py").is_file():
        print(f"error: no syllogist sources under {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        import traced

        result = traced.run_traced(args.workload, args.seed, args.seconds, OUT)
    else:
        result = run_end_to_end(args.workload, args.seed, args.seconds)
    result["workload"] = args.workload
    result["provenance"] = provenance(args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    report = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    report.write_text(json.dumps(result, indent=2) + "\n")

    for problem in result["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, samples {result['samples']}")
    for name, m in result["named"].items():
        print(f"  {name:<44} {m['value']:>14.4f} {m['unit']}")
    for name, t in result.get("tails", {}).items():
        print(f"  {name}.tail is percentile {t['percentile']:.1f} of {t['samples']} samples")
    for name, p in result["properties"].items():
        share = "n/a" if p["share"] is None else f"{p['share']:.4f}"
        print(f"  share {name:<38} {share:>14} of {p['base']}")
    print(f"  full result: {report.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
