#!/usr/bin/env python3
"""Record the CLI transcript: what each of a fixed list of commands prints.

Each command runs in-process through `fanlab.cli.main`, from the repo root.
Its record holds the argv, FANLAB_SEED when the command sets it, the exit
code and the sha256 of stdout without its `# wall-time` line.  When fanlab
itself wrote to stderr (an `error: ...` line) the record holds that digest
too.  An argparse rejection records only its exit code, since argparse's
wording differs between Python versions.

tests/test_cli_transcript.py replays every record and needs the same bytes.
A change that moves CLI output on purpose rewrites the transcript:

    PYTHONPATH=src python3 scripts/cli_transcript.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from fanlab import cli

ROOT = Path(__file__).resolve().parents[1]
TRANSCRIPT = ROOT / "tests" / "cli_transcript.json"

ASM = [f"scripts/asm/{name}.asm"
       for name in ("first_bit", "first_zero", "pair", "parity", "slice_probe", "triple")]
MNEMONICS = "tests/data/all_mnemonics.asm"  # all five, labels, mixed case, comments
FAMILY = "tests/data/nine_slices.txt"
COMMENTED_FAMILY = "tests/data/family_commented.txt"
BAD_FAMILIES = [f"tests/data/family_{name}.txt"
                for name in ("duplicate_index", "bad_pattern", "comments_only", "index_gap")]
TABLE = "table tests/data/bar_commented.tbl"
BLOCKED = "22194448"  # INC r1 three times, QUERY r1 r0: asks query 3
CODE_10 = "4469776896592302713903616"  # INC r0 ten times, HALT: outputs 10, the code of 0000
CODE_26 = "351"  # INC r0 26 times: 26 = pair(1, 5) codes no sequence


def commands() -> list[tuple[list[str], str | None]]:
    """(argv, FANLAB_SEED or None) for every recorded command."""
    with _chdir(ROOT):
        codes = [str(cli._assemble(path)) for path in ASM]
        mnemonics_code = str(cli._assemble(MNEMONICS))
    argvs: list[list[str]] = []
    for path, code in zip(ASM, codes):
        argvs += [["asm", path], ["encode", path], ["decode", code]]
        for fuel in ("0", "1", "5", "100"):
            argvs += [["eval", path, "3", "--fuel", fuel],
                      ["eval", path, "3", "--fuel", fuel, "--node", "1,2"]]
    argvs += [
        ["asm", MNEMONICS],
        ["encode", MNEMONICS],
        ["decode", mnemonics_code],
        ["decode", CODE_10],
        ["eval", CODE_10, "0"],
        ["eval", "scripts/asm/slice_probe.asm", "0", "--family", FAMILY, "--node", "0,0,1"],
        ["census", "--tree", "full", "--depth", "5"],
        ["census", "--tree", "zeros", "--depth", "5"],
        ["census", "--tree", "at-most-k-ones 2", "--depth", "6"],
        ["census", "--tree", "kleene", "--depth", "14"],
        ["census", "--tree", "kleene 1,2", "--depth", "14"],
        ["census", "--tree", "decider scripts/asm/parity.asm", "--depth", "5"],
        ["census", "--tree", "decider scripts/asm/slice_probe.asm 0,0,1", "--depth", "5"],
        ["census", "--tree", "kleene", "--depth", "8", "--scan"],
        ["wwkl", "--tree", "at-most-k-ones 1"],
        ["wwkl", "--tree", "full", "--max", "4"],
        ["kleene", "--depth", "14"],
        ["kleene", "--depth", "14", "--node", "1,2"],
        ["kleene", "--depth", "10", "--family", COMMENTED_FAMILY, "--node", "0,1,3"],
        ["extract-bound", "--realizer", "scripts/asm/first_bit.asm"],
        ["extract-bound", "--realizer", "scripts/asm/first_zero.asm", "--max", "6"],
        ["extract-bound", "--realizer", "scripts/asm/first_zero.asm"],
        ["extract-bound", "--realizer", "scripts/asm/first_zero.asm", "--fuel", "2000"],
        ["extract-bound", "--realizer", BLOCKED],
        ["extract-bound", "--realizer", CODE_10],
        ["extract-bound", "--realizer", CODE_26],
        ["extract-bound", "--realizer", "scripts/asm/first_bit.asm",
         "--family", FAMILY, "--node", "0,0,0,0,0,0,0,1"],
        ["verify-bound", "--bar", "depth 3", "--depth", "3"],
        ["verify-bound", "--bar", "depth 3", "--depth", "2"],
        ["verify-bound", "--bar", "scripts/asm/parity.asm", "--depth", "2"],
        ["verify-bound", "--bar", TABLE, "--depth", "2"],
        ["verify-bound", "--bar", TABLE, "--depth", "1"],
        ["check", "persistence", "--trials", "20"],
        ["check", "lemma1"],
        ["check", "lemma1", "--fuel", "0"],
        ["check", "kleene", "--depth", "8"],
        ["check", "extraction", "--trials", "3"],
        ["check", "census", "--depth", "4"],
        # exit 2: bad input
        ["asm", "scripts/asm/missing.asm"],
        ["asm", "pyproject.toml"],
        ["eval", "scripts/asm/slice_probe.asm", "0", "--node", "0,0,-2"],
        ["kleene", "--node", "1,x"],
        ["census", "--tree", "bogus"],
        ["census", "--tree", "decider 'scripts"],
        ["verify-bound", "--bar", "depth", "--depth", "2"],
        ["verify-bound", "--bar", "table tests/data/bar_bad_line.tbl", "--depth", "2"],
        *(["kleene", "--depth", "2", "--family", path] for path in BAD_FAMILIES),
        ["census", "--tree", "decider scripts/asm/first_zero.asm", "--fuel", "5"],
        ["extract-bound", "--realizer", "scripts/asm/first_bit.asm",
         "--family", FAMILY, "--node", "0,0,0,0,0,0,0,0,1"],
        # exit 2: argparse
        ["kleene", "--depth", "x"],
        ["check", "nosuch"],
        ["census", "--tree", "zeros", "--node", "1"],
        ["wwkl", "--tree", "zeros", "--node", "1"],
        ["check", "kleene", "--trials", "3"],  # a suite takes only the options it reads
        ["check", "lemma1", "--depth", "5"],
    ]
    seeded = [(["check", "persistence", "--trials", "20"], "7"),
              (["check", "extraction", "--trials", "3"], "7"),
              (["check", "persistence", "--trials", "5"], "x")]
    return [(argv, None) for argv in argvs] + seeded


@contextlib.contextmanager
def _chdir(path: Path):
    """contextlib.chdir, which Python 3.10 lacks."""
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def capture(argv: list[str], seed: str | None) -> dict:
    """Run one command from the repo root and return its record."""
    record: dict = {"argv": argv}
    if seed is not None:
        record["seed"] = seed
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("FANLAB_SEED", None)
    if seed is not None:
        os.environ["FANLAB_SEED"] = seed
    try:
        with _chdir(ROOT), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                record["exit"] = cli.main(argv)
            except SystemExit as exc:  # argparse: record only the code
                record["exit"] = exc.code
                return record
    finally:
        os.environ.pop("FANLAB_SEED", None)
        if saved is not None:
            os.environ["FANLAB_SEED"] = saved
    kept = [line for line in out.getvalue().splitlines(keepends=True)
            if not line.startswith("# wall-time ")]
    record["stdout"] = _sha("".join(kept))
    if err.getvalue():
        record["stderr"] = _sha(err.getvalue())
    return record


def main() -> None:
    records = [capture(argv, seed) for argv, seed in commands()]
    TRANSCRIPT.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {TRANSCRIPT.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
