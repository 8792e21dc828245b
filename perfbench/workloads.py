"""Seeded inputs for the three workloads.

Every input is drawn from ``random.Random(seed)``, so one seed always gives
the same commands and the same corpus bytes.  The program only ever sees
the generated argv and corpus file, never the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Callable, Iterator

import reference as ref

WORKLOADS = ("interactive", "corpus", "catalog")
CORPUS_BLOCKS = 10_240  # the scale of the roadmap's corpus benchmark

# Term names for block notation; none is a reserved word of the notation.
NAMES = (
    "dogs", "cats", "Mammals", "birds", "Greeks", "men", "mortals", "stones",
    "poets", "x1", "Y_2", "swans", "things", "Planets", "fish", "reptiles",
)


@dataclass(frozen=True)
class Op:
    """One command: its argv, what it decides, and the check of its output."""

    kind: str  # the metric group this command's time belongs to
    argv: tuple[str, ...]
    check: Callable[[int, str, str], list[str]]
    syllogisms: tuple = ()
    block_notation: int = 0  # how many of ``syllogisms`` are written as blocks

    def problems(self, code: int, out: str, err: str) -> list[str]:
        """What is wrong with one run of this command; empty when correct.

        Output malformed enough to break the check counts as wrong too.
        """
        try:
            return self.check(code, out, err)
        except Exception as exc:  # noqa: BLE001 - any crash of the check is a failed operation
            return [f"{' '.join(self.argv)[:80]}: output check raised {exc!r}"]


def _renaming(rng: random.Random) -> dict[str, str]:
    return dict(zip("SMP", rng.sample(NAMES, 3)))


def interactive_ops(seed: int) -> Iterator[Op]:
    """Endless single-syllogism ``check``/``trace`` commands.

    Uniform over the 1024 syllogisms, both commands, the three output
    formats and both notations; block inputs use renamed terms.
    """
    rng = random.Random(seed)
    syllogisms = ref.all_syllogisms()
    for _ in count():
        s = rng.choice(syllogisms)
        command = rng.choice(("check", "trace"))
        fmt = rng.choice(("text", "json", "dot"))
        as_block = rng.random() < 0.5
        label = ref.block(s, _renaming(rng)) if as_block else ref.compact(s)
        argv = (command,) + (("--format", fmt) if fmt != "text" else ()) + (label,)

        def check(code, out, err, command=command, fmt=fmt, label=label, s=s):
            return ref.check_single(command, fmt, label, s, code, out, err)

        yield Op("process", argv, check, (s,), int(as_block))


def corpus(seed: int, blocks: int = CORPUS_BLOCKS) -> tuple[str, list, int]:
    """Corpus text, the syllogisms drawn for it in file order, and how
    many of them are written in block notation.

    Half the blocks are compact, half block notation (half of those with
    renamed terms, some spread over three lines); ``#`` comments sit on
    their own lines, at line ends and in comment-only blocks.
    """
    rng = random.Random(seed)
    syllogisms = ref.all_syllogisms()
    drawn = []
    parts = []
    in_blocks = 0
    for k in range(blocks):
        s = rng.choice(syllogisms)
        drawn.append(s)
        if rng.random() < 0.5:
            text = ref.compact(s)
        else:
            in_blocks += 1
            names = _renaming(rng) if rng.random() < 0.5 else None
            text = ref.block(s, names, sep="\n" if rng.random() < 0.3 else "; ")
        roll = rng.random()
        if roll < 0.08:
            text = f"# entry {k}\n{text}"
        elif roll < 0.12:
            text = f"{text}  # {ref.compact(s)}"
        elif roll < 0.14:
            parts.append(f"# section {k}")
        parts.append(text)
    return "\n\n".join(parts) + "\n", drawn, in_blocks


def corpus_ops(path: Path, drawn: list, in_blocks: int) -> list[Op]:
    """``check --corpus`` and ``trace --format json --corpus`` on one file."""
    ops = []
    for kind, command, extra in (("check", "check", ()), ("trace", "trace", ("--format", "json"))):

        def check(code, out, err, command=command):
            return ref.check_corpus(command, drawn, code, out, err)

        ops.append(Op(kind, (command, *extra, "--corpus", str(path)), check, tuple(drawn), in_blocks))
    return ops


def catalog_ops() -> list[Op]:
    """The catalog commands, in the order one round runs them."""
    tables_rows = tuple(ref.all_syllogisms())
    return [
        Op("tables", ("tables",), ref.check_tables_text, tables_rows),
        Op("tables_json", ("tables", "--format", "json"), ref.check_tables_json, tables_rows),
        Op("laws", ("laws",), ref.check_laws),
        Op("count3", ("count", "3"), lambda c, o, e: ref.check_count(3, c, o, e)),
        Op("count4", ("count", "4"), lambda c, o, e: ref.check_count(4, c, o, e)),
    ]


def properties(ops: list[Op]) -> dict:
    """Input-shape shares of the commands run, each with its base."""
    syllogisms = [s for op in ops for s in op.syllogisms]
    inputs = sum(len(op.syllogisms) for op in ops if op.kind not in ("tables", "tables_json"))
    blocks = sum(op.block_notation for op in ops)

    def share(part: int, base: int) -> dict:
        return {"share": part / base if base else None, "base": base}

    return {
        "block_notation": share(blocks, inputs),
        "with_assumption": share(sum(s[2] is not None for s in syllogisms), len(syllogisms)),
        "decide_reaches_splice": share(sum(ref.reaches_splice(s) for s in syllogisms), len(syllogisms)),
        "valid_verdict": share(sum(ref.is_valid(s) for s in syllogisms), len(syllogisms)),
    }
