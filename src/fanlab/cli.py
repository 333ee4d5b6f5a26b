"""Batch command-line driver: assembler, evaluator, and experiment runner.

Output is line oriented and diffable: one record per line, fields separated
by single spaces, `#` starting comment lines.  Every run prints a header
comment naming the command and a digest of its inputs, then the payload
records, then a trailing `# wall-time` comment.  Identical inputs give
byte-identical output except for that last line.

Exit codes: 0 success, 1 a checked property failed, 2 bad input, including
a decider that does not settle within its fuel.  The environment variable
FANLAB_SEED (default 0) seeds every randomized suite, so runs repeat anywhere.
Every natural it reads, FANLAB_SEED included, is ASCII digits only.

Assembly grammar, one instruction per line::

    start:  INC r1          # labels end with ':', comments with '#'
            DECJZ r1 done   # jump targets: label or instruction index
            JMP start
    done:   QUERY r1 r2
            HALT

Registers are written `r<N>`.  A numeric jump target at or past the end of
the program simply halts.

File formats.  Ground-real family files hold lines `n: pattern <bits>`
(repeating 0/1 membership pattern) or `n: <assembly path>` (a no-oracle
decider program, nonzero output meaning member), indices contiguous from 0.
Bar table files hold one bit string per line (`-` for the empty sequence).
Tree specs: `kleene`, `full`, `zeros`, `at-most-k-ones <k>`, or
`decider <assembly path> [node]`.  Bar specs for verify-bound: `depth <k>`,
`table <file>`, or an assembly decider path.  Nodes are comma-separated
naturals, empty string for the root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import random
import re
import shlex
import sys
import time
from pathlib import Path

from . import fan, kripke, machine, trees
from .kripke import Family, GroundReal, Node, is_natural, node_oracle, parse_node
from .machine import (
    BLOCK_ALL,
    DEFAULT_FUEL,
    Blocked,
    Converged,
    Decjz,
    DeciderPartial,
    Halt,
    Inc,
    Instruction,
    Jmp,
    Oracle,
    OutOfFuel,
    Program,
    Query,
    decode_program,
    encode_program,
    run,
    unpair,
)
from .trees import Bits, DecidableTree, format_bits, parse_bits


class CliInputError(ValueError):
    """Anything wrong with arguments or input files (exit code 2)."""


class AsmError(CliInputError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Assembler

# Mnemonic: instruction type, operand kinds (`r` a register, `t` a jump target).
_SYNTAX = {"INC": (Inc, "r"), "DECJZ": (Decjz, "rt"), "JMP": (Jmp, "t"),
           "QUERY": (Query, "rr"), "HALT": (Halt, "")}
_MNEMONIC = {cls: mnemonic for mnemonic, (cls, _) in _SYNTAX.items()}
_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _tokenize(line: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs, comment stripped."""
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _parse_register(token: str, lineno: int, col: int) -> int:
    if token[:1] in ("r", "R") and is_natural(token[1:]):
        return int(token[1:])
    raise AsmError(f"expected a register like r0, got {token!r}", lineno, col)


def parse_assembly(text: str) -> Program:
    """Assemble text into a program, resolving labels to instruction indices."""
    labels: dict[str, int] = {}
    pending: list[tuple[type, str, list[tuple[str, int]], int]] = []  # type, kinds, args, line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw)
        while toks and toks[0][0].endswith(":"):
            name = toks[0][0][:-1]
            if not _LABEL_RE.match(name):
                raise AsmError(f"bad label {name!r}", lineno, toks[0][1])
            if name in labels:
                raise AsmError(f"duplicate label {name!r}", lineno, toks[0][1])
            labels[name] = len(pending)
            toks = toks[1:]
        if not toks:
            continue
        mnemonic = toks[0][0].upper()
        if mnemonic not in _SYNTAX:
            raise AsmError(f"unknown mnemonic {toks[0][0]!r}", lineno, toks[0][1])
        cls, kinds = _SYNTAX[mnemonic]
        if len(toks) - 1 != len(kinds):
            raise AsmError(f"{mnemonic} takes {len(kinds)} operand(s), got {len(toks) - 1}",
                           lineno, toks[0][1])
        pending.append((cls, kinds, toks[1:], lineno))

    def operand(kind: str, token: str, lineno: int, col: int) -> int:
        if kind == "r":
            return _parse_register(token, lineno, col)
        if is_natural(token):
            return int(token)
        if token in labels:
            return labels[token]
        raise AsmError(f"undefined label {token!r}", lineno, col)

    return tuple(
        cls(*[operand(kind, token, lineno, col) for kind, (token, col) in zip(kinds, args)])
        for cls, kinds, args, lineno in pending
    )


def format_instruction(ins: Instruction) -> str:
    mnemonic = _MNEMONIC.get(type(ins))
    if mnemonic is None:
        raise TypeError(f"not an instruction: {ins!r}")
    values = (getattr(ins, field) for field in ins.__match_args__)
    kinds = _SYNTAX[mnemonic][1]
    return " ".join([mnemonic, *(f"r{v}" if k == "r" else str(v) for k, v in zip(kinds, values))])


def format_program(program: Program) -> str:
    width = len(str(max(len(program) - 1, 0)))
    return "\n".join(
        f"{i:>{width}}: {format_instruction(ins)}" for i, ins in enumerate(program)
    )


# ---------------------------------------------------------------------------
# Input parsing helpers

def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise CliInputError(f"cannot read {path}: not UTF-8 text") from None


def _assemble(path: str) -> int:
    """The code of the assembly program in the file at `path`."""
    return encode_program(parse_assembly(_read_text(path)))


def _decider(path: str, sources: dict[int, str] | None, source: str | None = None) -> int:
    """The code of the decider in the file at `path`; `sources`, when given,
    notes where it came from (`source`, else the path) for its error line."""
    code = _assemble(path)
    if sources is not None:
        sources.setdefault(code, source or path)
    return code


def _program_arg(value: str) -> int:
    """A program given either as a bare code or as an assembly file path."""
    if is_natural(value):
        return int(value)
    return _assemble(value)


def default_family() -> Family:
    """Six fixed repeating-pattern ground reals, used when no file is given."""
    patterns = ("10", "01", "1", "0", "110", "10010")
    return tuple(
        GroundReal(pattern=tuple(int(c) for c in p)) for p in patterns
    )


def _records(path: str):
    """(line number, text) of each nonblank line of the file, `#` comment cut."""
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_family_file(path: str, sources: dict[int, str] | None = None) -> Family:
    entries: dict[int, GroundReal] = {}
    base = Path(path).parent
    for lineno, line in _records(path):
        head, sep, rest = line.partition(":")
        if not sep or not is_natural(head.strip()):
            raise CliInputError(f"{path}:{lineno}: expected 'n: pattern <bits>' or 'n: <asm path>'")
        n = int(head.strip())
        if n in entries:
            raise CliInputError(f"{path}:{lineno}: duplicate index {n}")
        rest = rest.strip()
        if rest.split(maxsplit=1)[:1] == ["pattern"]:
            bits = rest[len("pattern"):].strip()
            if not bits or set(bits) - {"0", "1"}:
                raise CliInputError(f"{path}:{lineno}: pattern must be nonempty 0/1 string")
            entries[n] = GroundReal(pattern=tuple(int(c) for c in bits))
        else:
            code = _decider(str(base / rest), sources, f"{path}:{lineno}")
            entries[n] = GroundReal(decider=code)
    if not entries:
        raise CliInputError(f"{path}: empty family file")
    if sorted(entries) != list(range(len(entries))):
        raise CliInputError(f"{path}: indices must be contiguous from 0")
    return tuple(entries[k] for k in range(len(entries)))


def _family(args) -> Family:
    return parse_family_file(args.family, args.sources) if args.family else default_family()


def _node_oracle(family: Family, text: str | None) -> Oracle:
    """The oracle at the node written in `text`; no node means no oracle."""
    if text is None:
        return BLOCK_ALL
    try:
        return node_oracle(family, parse_node(text))
    except ValueError as exc:
        raise CliInputError(f"bad node {text!r}: {exc}") from None


def _spec_tokens(spec: str) -> list[str]:
    try:
        return shlex.split(spec)
    except ValueError as exc:
        raise CliInputError(f"bad spec {spec!r}: {exc}") from None


def parse_tree_spec(spec: str, family: Family, fuel: int,
                    sources: dict[int, str] | None = None) -> DecidableTree:
    toks = _spec_tokens(spec)
    if not toks:
        raise CliInputError("empty tree spec")
    kind, rest = toks[0], toks[1:]
    if kind == "full" and not rest:
        return trees.full_tree()
    if kind == "zeros" and not rest:
        return trees.zeros_tree()
    if kind == "at-most-k-ones" and len(rest) == 1 and is_natural(rest[0]):
        return trees.at_most_ones_tree(int(rest[0]))
    if kind == "kleene" and len(rest) <= 1:
        return trees.kleene_tree(_node_oracle(family, rest[0] if rest else None))
    if kind == "decider" and 1 <= len(rest) <= 2:
        code = _decider(rest[0], sources)
        oracle = _node_oracle(family, rest[1] if len(rest) == 2 else None)
        return DecidableTree.from_program(code, oracle, fuel)
    raise CliInputError(f"bad tree spec: {spec!r}")


def parse_bar_table_file(path: str) -> frozenset[Bits]:
    out: set[Bits] = set()
    for lineno, line in _records(path):
        try:
            out.add(parse_bits(line))
        except ValueError as exc:
            raise CliInputError(f"{path}:{lineno}: {exc}") from None
    return frozenset(out)


def parse_bar_spec(spec: str, oracle, fuel: int, sources: dict[int, str] | None = None):
    """A bar membership test from `depth <k>`, `table <file>`, or an assembly path."""
    toks = _spec_tokens(spec)
    if len(toks) == 2 and toks[0] == "depth" and is_natural(toks[1]):
        return fan.depth_bar(int(toks[1]))
    if len(toks) == 2 and toks[0] == "table":
        return fan.table_bar(parse_bar_table_file(toks[1]))
    if len(toks) == 1:
        code = _decider(toks[0], sources)
        return DecidableTree.from_program(code, oracle, fuel).contains
    raise CliInputError(f"bad bar spec: {spec!r}")


# ---------------------------------------------------------------------------
# Commands

def _print_listing(code: int, program: Program) -> None:
    print(f"code {code}")
    if program:
        print(format_program(program))


def _cmd_asm(args) -> int:
    program = parse_assembly(_read_text(args.file))
    _print_listing(encode_program(program), program)
    return 0


def _cmd_encode(args) -> int:
    print(f"code {_assemble(args.file)}")
    return 0


def _cmd_decode(args) -> int:
    _print_listing(args.code, decode_program(args.code))
    return 0


def _cmd_eval(args) -> int:
    code = _program_arg(args.program)
    res = run(code, args.input, _node_oracle(_family(args), args.node), args.fuel)
    slices = {unpair(q)[0] for q in res.trace.queries}
    match res.outcome:
        case Converged(value):
            print(f"outcome Converged {value}")
        case Blocked(query):
            print(f"outcome Blocked {query}")
            slices.add(unpair(query)[0])
        case OutOfFuel():
            print("outcome OutOfFuel")
    print(f"steps {res.steps}")
    for q, ans in res.trace.entries:
        print(f"query {q} {ans.value}")
    mq = res.trace.max_query
    print(f"max-query {'none' if mq is None else mq}")
    print(f"max-slice {max(slices) if slices else 'none'}")
    return 0


def _cmd_kleene(args) -> int:
    table = trees.SettleTable(_node_oracle(_family(args), args.node))
    tree = table.tree()
    for n, count in enumerate(trees.level_census(tree, args.depth)):
        print(f"level {n} {count}")
    witness = table.witness(args.depth)
    print(f"witness {format_bits(witness)}")
    if not tree.contains(witness):
        print("witness-check fail")
        return 1
    return 0


def _cmd_census(args) -> int:
    tree = parse_tree_spec(args.tree, _family(args), args.fuel, args.sources)
    if args.scan:
        counts = [trees.full_scan_count(tree, n) for n in range(args.depth + 1)]
    else:
        counts = trees.level_census(tree, args.depth)
    for n, count in enumerate(counts):
        print(f"{n} {count} {1 << n}")
    return 0


def _cmd_wwkl(args) -> int:
    tree = parse_tree_spec(args.tree, _family(args), args.fuel, args.sources)
    witness = trees.wwkl_witness(tree, args.max)
    print(f"witness {'none' if witness is None else witness}")
    return 0


def _cmd_extract_bound(args) -> int:
    base = _node_oracle(_family(args), args.node)
    code = _program_arg(args.realizer)
    try:
        realizer = fan.BarRealizer(code, base, args.fuel)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    try:
        bound = fan.extract_bound(realizer, n_max=args.max)
    except fan.ExtractionExhausted as exc:
        line = f"no-bound stage {exc.stage} uncovered {len(exc.uncovered)} reason {exc.reason}"
        if exc.sequence is not None:
            line += f" sequence {format_bits(exc.sequence)} steps {exc.steps}"
        print(line)
        return 1
    print(f"bound {bound.n}")
    for bits in sorted(bound.certificate):
        print(f"{format_bits(bits)} {format_bits(bound.certificate[bits])}")
    return 0


def _cmd_verify_bound(args) -> int:
    oracle = _node_oracle(_family(args), args.node)
    bar = parse_bar_spec(args.bar, oracle, args.fuel, args.sources)
    ok = fan.verify_uniform_bound(bar, args.depth)
    print(f"verified {'true' if ok else 'false'}")
    return 0 if ok else 1


# --- check suites ----------------------------------------------------------

def _random_node(rng: random.Random, family: Family) -> Node:
    return tuple(rng.randrange(4) for _ in range(rng.randrange(len(family))))


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


# Each suite returns (ok, lines), its verdict and records; it reads its `_SUITES` options.

def _suite_persistence(args, rng: random.Random) -> tuple[bool, list[str]]:
    family = default_family()
    failures = 0
    for _ in range(args.trials):
        program = machine.random_program(rng)
        node = _random_node(rng, family)
        child = node + (rng.randrange(4),)
        x = rng.randrange(8)
        here = machine.evaluate(encode_program(program), x, node_oracle(family, node), args.fuel)
        if isinstance(here, Converged):
            there = machine.evaluate(encode_program(program), x, node_oracle(family, child), args.fuel)
            if there != here:
                failures += 1
    ok = failures == 0
    return ok, [f"persistence {_verdict(ok)} trials {args.trials} failures {failures}"]


def _suite_slice_gate(args, rng: random.Random) -> tuple[bool, list[str]]:
    family = default_family()
    nodes = kripke.all_nodes(4, 3)
    bad = 0  # a probe that runs out of fuel shows nothing, so it fails too
    for k in range(4):
        probe = encode_program(kripke.slice_probe_program(k))
        for node in nodes:
            report = kripke.check_slice_access(probe, [0], family, node, args.fuel)
            bad += (not report.lemma_holds) + report.out_of_fuel
    ok = bad == 0
    return ok, [f"slice-gate {_verdict(ok)} nodes {len(nodes)} k-max 3 failures {bad}"]


def _suite_kleene(args, rng: random.Random) -> tuple[bool, list[str]]:
    tree = trees.kleene_tree(BLOCK_ALL)
    lines = []
    ok = True
    for n, frontier in trees.levels(tree, args.depth):
        lines.append(f"level {n} {len(frontier)}")
        ok = ok and bool(frontier)
    violations = trees.check_prefix_closed(tree, min(args.depth, 10))
    ok = ok and not violations
    lines.append(f"kleene {_verdict(ok)} depth {args.depth} prefix-violations {len(violations)}")
    return ok, lines


def _suite_extraction(args, rng: random.Random) -> tuple[bool, list[str]]:
    lines = []
    ok = True
    cases = [
        ("empty", machine.encode_program(()), 0),
        ("take-3", encode_program(fan.take_prefix_program(3)), 3),
        ("first-split", encode_program(fan.first_bit_split_program()), 2),
    ]
    for name, code, expected in cases:
        bound = fan.extract_bound(fan.BarRealizer(code))
        sound = fan.verify_uniform_bound(fan.table_bar(bound.realizer_outputs), bound.n)
        good = bound.n == expected and sound
        ok = ok and good
        lines.append(f"extraction-case {name} {_verdict(good)} "
                     f"bound {bound.n} expected {expected} sound {str(sound).lower()}")
    random_ok = 0
    for _ in range(args.trials):
        table = fan.random_bar_table(rng, depth=4)
        code = encode_program(fan.compile_bar_table(table))
        bound = fan.extract_bound(fan.BarRealizer(code))
        if fan.verify_uniform_bound(fan.table_bar(table), bound.n):
            random_ok += 1
    all_sound = random_ok == args.trials
    lines.append(f"extraction-random {_verdict(all_sound)} trials {args.trials} sound {random_ok}")
    return ok and all_sound, lines


def _suite_census(args, rng: random.Random) -> tuple[bool, list[str]]:
    family = default_family()
    specs = ["full", "zeros", "at-most-k-ones 1", "kleene"]
    bad = 0
    for spec in specs:
        tree = parse_tree_spec(spec, family, args.fuel)
        frontier = trees.level_census(tree, args.depth)
        scan = tuple(trees.full_scan_count(tree, n) for n in range(args.depth + 1))
        if frontier != scan:
            bad += 1
    ok = bad == 0
    return ok, [f"census {_verdict(ok)} trees {len(specs)} depth {args.depth} failures {bad}"]


# Suite name: its function and its options, each a natural, with defaults.
_SUITES = {
    "persistence": (_suite_persistence, {"trials": 500, "fuel": 10_000}),
    "lemma1": (_suite_slice_gate, {"fuel": DEFAULT_FUEL}),
    "kleene": (_suite_kleene, {"depth": 12}),
    "extraction": (_suite_extraction, {"trials": 25}),
    "census": (_suite_census, {"depth": 8, "fuel": DEFAULT_FUEL}),
}


def _cmd_check(args) -> int:
    seed = os.environ.get("FANLAB_SEED", "0")
    if not is_natural(seed):
        raise CliInputError(f"FANLAB_SEED must be a natural number, got {seed!r}")
    rng = random.Random(int(seed))
    ok, lines = _SUITES[args.suite][0](args, rng)
    for line in lines:
        print(line)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Driver

def _natural(text: str) -> int:
    """argparse type for fuel, depths, limits and inputs: a natural number."""
    if is_natural(text):
        return int(text)
    raise argparse.ArgumentTypeError(f"expected a natural number, got {text!r}")


def _digest(argv: list[str]) -> str:
    return hashlib.sha256("\x00".join(argv).encode()).hexdigest()[:12]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanlab",
        description="oracle-machine workbench: assembler, trees, bound extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options that several commands take, each declared once as a parent parser.
    node, family, fuel = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    node.add_argument("--node", help="Kripke node, e.g. 2,0,1 (default: no oracle)")
    family.add_argument("--family", help="ground-real family file (default: six patterns)")
    fuel.add_argument("--fuel", type=_natural, default=DEFAULT_FUEL, help="default: %(default)s")

    def add(name, fn, *parents, **kwargs):
        p = sub.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(func=fn, parser=p)  # the parser that reports stray arguments
        return p

    p = add("asm", _cmd_asm, help="assemble a file; print its code and listing")
    p.add_argument("file")

    p = add("encode", _cmd_encode, help="assemble a file; print only its code")
    p.add_argument("file")

    p = add("decode", _cmd_decode, help="print the listing of a program code")
    p.add_argument("code", type=_natural)

    p = add("eval", _cmd_eval, node, family, fuel, help="run a program against a node oracle")
    p.add_argument("program", help="program code, or path to an assembly file")
    p.add_argument("input", type=_natural)

    p = add("kleene", _cmd_kleene, node, family,
            help="level counts and a witness path of the Kleene tree")
    p.add_argument("--depth", type=_natural, default=12)

    p = add("census", _cmd_census, family, fuel, help="level counts of a tree: lines 'n count 2^n'")
    p.add_argument("--tree", required=True)
    p.add_argument("--depth", type=_natural, default=8)
    p.add_argument("--scan", action="store_true", help="full 2^n scan instead of frontier expansion")

    p = add("wwkl", _cmd_wwkl, family, fuel,
            help="least level where at least half the sequences are outside the tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--max", type=_natural, default=10)

    p = add("extract-bound", _cmd_extract_bound, node, family,
            help="stage-wise uniform bound extraction from a realizer")
    p.add_argument("--realizer", required=True, help="assembly file or program code")
    p.add_argument("--fuel", type=_natural, default=fan.EXTRACTION_FUEL)
    p.add_argument("--max", type=_natural, default=16, help="stage limit")

    p = add("verify-bound", _cmd_verify_bound, node, family, fuel,
            help="exhaustively confirm a depth bound against a bar")
    p.add_argument("--bar", required=True)
    p.add_argument("--depth", type=_natural, required=True)

    p = add("check", _cmd_check, usage="%(prog)s SUITE [--OPTION N ...]",
            help="run a property suite; nonzero exit on failure")
    # prog given, or argparse would put the usage above into each suite's usage
    suites = p.add_subparsers(dest="suite", required=True, prog=p.prog)
    for name in sorted(_SUITES):  # the order argparse lists them in
        q = suites.add_parser(name)
        q.set_defaults(parser=q)
        for option, default in _SUITES[name][1].items():
            q.add_argument(f"--{option}", type=_natural, default=default,
                           help="default: %(default)s")

    return parser


@contextlib.contextmanager
def _any_digit_count():
    """Lift Python's int/str digit limit (4,300 by default) for the block, on
    the interpreters that have one, and put it back after: codes are
    naturals of any length."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    before = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def main(argv: list[str] | None = None) -> int:
    with _any_digit_count():
        return _main(list(sys.argv[1:]) if argv is None else list(argv))


_parser: argparse.ArgumentParser | None = None  # built on first use, then reused


def _main(argv: list[str]) -> int:
    # Parsing never changes the parser, and commands change only `args`.
    global _parser
    if _parser is None:
        _parser = build_parser()
    args, stray = _parser.parse_known_args(argv)
    if stray:
        args.parser.error(f"unrecognized arguments: {' '.join(stray)}")
    args.sources = {}  # decider code -> where this call assembled it
    started = time.perf_counter()
    print(f"# fanlab {args.command} inputs {_digest(argv)}")
    try:
        status = args.func(args)
    except DeciderPartial as exc:
        print(f"error: {args.sources[exc.code]}: {exc}", file=sys.stderr)
        return 2
    except (CliInputError, machine.ProgramTooLong) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"# wall-time {time.perf_counter() - started:.3f}s")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
