"""Uniform-bound extraction from bar realizers.

A bar realizer is a program that, run against an infinite 0/1 path, returns
the code of a prefix of that path lying in some bar B.  Paths are served on
one reserved query slice, PATH_SLICE = 8: a query pair(PATH_SLICE, j) reads
path bit j and is never blocked, while every other query is routed to the
surrounding node oracle, whose node must stop short of that slice.  The
least initial segment a run actually read (its `use`) is read off the run's
query trace; the extraction leans on the returned prefix, not on that modulus.

`extract_bound` reconstructs a uniform depth bound stage by stage.  At stage
n, each sequence of the uncovered frontier (length n, extending no committed
element) is turned into the test path "that sequence, then zeros" and the
realizer is run on it; a returned prefix commits its extensions to length
max(n, len(prefix)).  Commits are merged only after the whole stage, so
results do not depend on the order sequences are processed.  The first stage
whose sequences are all covered is the bound, and the certificate maps each
length-n sequence to the shortest committed element it extends.  Nothing here
claims the returned bound is least.

A realizer run that is blocked, runs out of fuel or returns no prefix of its
path raises RealizerFailed with a reason and the steps it ran.  Extraction
stops without a bound in one way only, ExtractionExhausted: at the stage
limit, or at the first failed run, whose reason, sequence and steps it keeps.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable

from .machine import (
    Answer,
    BLOCK_ALL,
    NO,
    YES,
    Blocked,
    Converged,
    Inc,
    Instruction,
    Jmp,
    Decjz,
    Oracle,
    Program,
    Query,
    pair,
    pairing_prelude,
    relocate,
    run,
    unpair,
)
from .machine import _set, _Value
from .trees import Bits, bits_to_code, code_to_bits, format_bits, is_canonical_bits_code

PATH_SLICE = 8  # reserved slice for path bits; BarRealizer rejects nodes that reach it
EXTRACTION_FUEL = 1_000_000  # default step budget of one realizer run


class RealizerFailed(Exception):
    """One realizer run gave no prefix of its path, for `reason`, after
    `steps` steps: `realizer fuel`, `realizer blocked query <q>`, or
    `invalid realizer output ...` naming what is wrong with the output."""

    def __init__(self, reason: str, steps: int):
        super().__init__(reason)
        self.reason = reason
        self.steps = steps


class ExtractionExhausted(Exception):
    """Bound search gave up at `stage` with `uncovered` left, for `reason`.
    Every way extraction stops without a bound arrives here: the stage limit
    (`sequence` and `steps` None), or a failed realizer run, whose reason,
    sequence and steps are given."""

    def __init__(self, stage: int, uncovered: tuple[Bits, ...], reason: str,
                 sequence: Bits | None = None, steps: int | None = None):
        spent = "" if sequence is None else f": sequence {format_bits(sequence)} used {steps} steps"
        super().__init__(
            f"no uniform bound by stage {stage} "
            f"({len(uncovered)} uncovered, {reason}{spent})"
        )
        self.stage = stage
        self.uncovered = uncovered
        self.reason = reason
        self.sequence = sequence
        self.steps = steps


# ---------------------------------------------------------------------------
# Paths and routing

class PathOracle:
    """A total 0/1 stream: its head, then zeros forever."""

    __slots__ = ("head",)

    def __init__(self, head: Bits):
        self.head = tuple(head)

    def read(self, j: int) -> int:
        head = self.head
        return head[j] if j < len(head) else 0

    @classmethod
    def zero_extended(cls, head: Bits) -> "PathOracle":
        """The canonical test path: the given head, then zeros forever."""
        return cls(head)


class RoutedOracle(_Value):
    """Splits queries: the reserved slice reads the path, the rest go through."""

    __slots__ = __match_args__ = ("base", "path")
    def __init__(self, base: Oracle, path: PathOracle):
        _set(self, "base", base)
        _set(self, "path", path)

    def answer(self, query: int) -> Answer:
        k, s = unpair(query)
        if k == PATH_SLICE:
            return YES if self.path.read(s) else NO
        return self.base.answer(query)


class BarRealizer(_Value):
    __slots__ = __match_args__ = ("code", "base_oracle", "fuel")
    def __init__(self, code: int, base_oracle: Oracle = BLOCK_ALL, fuel: int = EXTRACTION_FUEL):
        node = getattr(base_oracle, "node", ())  # set on node oracles
        if len(node) > PATH_SLICE:
            raise ValueError(f"a node of length {len(node)} reaches path slice {PATH_SLICE}")
        if fuel < 0:
            raise ValueError(f"fuel must be a natural number, not {fuel}")
        _set(self, "code", code)
        _set(self, "base_oracle", base_oracle)
        _set(self, "fuel", fuel)


def apply_realizer_to_path(realizer: BarRealizer, path: PathOracle) -> tuple[Bits, int]:
    """Run the realizer against a path; return (prefix, use).

    The realizer is applied to input 0; its output must be the canonical
    code of a prefix of the path it saw.  A run that is blocked, runs out of
    fuel or returns anything else raises RealizerFailed.  `use` is one
    past the largest position j of a path query pair(PATH_SLICE, j) in the
    run's trace, or 0 when it read no path bit.
    """
    res = run(realizer.code, 0, RoutedOracle(realizer.base_oracle, path), realizer.fuel)
    match res.outcome:
        case Converged(value):
            if not is_canonical_bits_code(value):
                raise RealizerFailed(f"invalid realizer output {value} is not a sequence code",
                                     res.steps)
            bits = code_to_bits(value)
            head = path.head
            shown = head[:len(bits)] + (0,) * (len(bits) - len(head))
            if bits != shown:
                j = next(j for j, b in enumerate(bits) if b != shown[j])
                raise RealizerFailed(
                    f"invalid realizer output {bits} differs from the path at position {j}",
                    res.steps)
            # pair(PATH_SLICE, j) grows with j: when the largest query reads
            # the path, it reads the largest position read.
            queries = res.trace.queries
            k, j = unpair(max(queries, default=0))
            if k != PATH_SLICE:
                j = max((j for k, j in map(unpair, queries) if k == PATH_SLICE), default=-1)
            return bits, j + 1
        case Blocked(query):
            raise RealizerFailed(f"realizer blocked query {query}", res.steps)
    raise RealizerFailed("realizer fuel", res.steps)  # OutOfFuel: steps == fuel


# ---------------------------------------------------------------------------
# Covering and extraction

class CoverSet:
    """Committed prefixes; covers everything that extends (or equals) one."""

    def __init__(self):
        self._members: dict[Bits, None] = {}  # insertion-ordered

    def commit(self, bits: Bits) -> None:
        self._members.setdefault(tuple(bits))

    def covers(self, bits: Bits) -> bool:
        return self.covering_prefix(bits) is not None

    def covering_prefix(self, bits: Bits) -> Bits | None:
        for k in range(len(bits) + 1):
            if bits[:k] in self._members:
                return bits[:k]
        return None

    def uncovered(self, n: int) -> tuple[Bits, ...]:
        """Length-n sequences extending no member, in lexicographic order."""
        level = [] if () in self._members else [()]
        for _ in range(n):
            level = [child for bits in level for child in (bits + (0,), bits + (1,))
                     if child not in self._members]
        return tuple(level)


class UniformBound(_Value):
    __slots__ = __match_args__ = ("n", "certificate", "realizer_outputs")
    def __init__(self, n: int, certificate: dict[Bits, Bits],
                 realizer_outputs: frozenset[Bits] = frozenset()):
        _set(self, "n", n)
        _set(self, "certificate", certificate)  # length-n sequence -> shortest committed prefix
        _set(self, "realizer_outputs", realizer_outputs)


def extract_bound(realizer: BarRealizer, *, n_max: int = 16) -> UniformBound:
    """Stage-by-stage search for a depth past which the bar covers everything.

    Every stop without a bound raises ExtractionExhausted with the stage
    reached and the sequences still uncovered there: at the stage limit, or
    when a realizer run fails (RealizerFailed), with that run's reason,
    sequence and steps.  A DeciderPartial from the base oracle propagates.
    """
    cover = CoverSet()
    outputs: set[Bits] = set()
    frontier: tuple[Bits, ...] = ()
    for n in range(n_max + 1):
        candidates = cover.uncovered(n)
        stage_commits: list[Bits] = []
        for bits in candidates:
            path = PathOracle.zero_extended(bits)
            try:
                prefix, _use = apply_realizer_to_path(realizer, path)
            except RealizerFailed as exc:
                raise ExtractionExhausted(n, candidates, exc.reason, bits, exc.steps) from None
            outputs.add(prefix)
            tails = product((0, 1), repeat=max(n - len(prefix), 0))
            stage_commits += [prefix + tail for tail in tails]
        for bits in stage_commits:  # merged only now: stage order cannot matter
            cover.commit(bits)
        frontier = cover.uncovered(n)
        if not frontier:
            certificate = {
                bits: cover.covering_prefix(bits)
                for bits in product((0, 1), repeat=n)
            }
            return UniformBound(n, certificate, frozenset(outputs))
    raise ExtractionExhausted(n_max, frontier, "stage limit")


def verify_uniform_bound(bar: Callable[[Bits], bool], n: int) -> bool:
    """Exhaustively: does every length-n sequence have a prefix in the bar?"""
    for bits in product((0, 1), repeat=n):
        if not any(bar(bits[:k]) for k in range(n + 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# Bar deciders

def depth_bar(k: int) -> Callable[[Bits], bool]:
    return lambda bits: len(bits) == k


def table_bar(seqs: Iterable[Bits]) -> Callable[[Bits], bool]:
    table = frozenset(tuple(b) for b in seqs)
    return lambda bits: tuple(bits) in table


def prefix_hit_bar(seqs: Iterable[Bits]) -> Callable[[Bits], bool]:
    """Upward closure of a set: true when some prefix lies in it."""
    table = frozenset(tuple(b) for b in seqs)
    return lambda bits: any(bits[:k] in table for k in range(len(bits) + 1))


def random_bar_table(rng, depth: int = 4, stop_prob: float = 0.4) -> frozenset[Bits]:
    """A random prefix-free table covering every path by the given depth."""
    out: set[Bits] = set()

    def walk(bits: Bits) -> None:
        if len(bits) == depth or rng.random() < stop_prob:
            out.add(bits)
            return
        walk(bits + (0,))
        walk(bits + (1,))

    walk(())
    return frozenset(out)


# ---------------------------------------------------------------------------
# Realizer program builders

def take_prefix_program(n: int) -> Program:
    """Program returning the code of the path's first n bits (use exactly n)."""
    prog: list[Instruction] = []
    prev = 0
    for j in range(n):
        q = pair(PATH_SLICE, j)
        prog.extend([Inc(5)] * (q - prev))
        prev = q
        prog.append(Query(5, 6))
        prog.append(Decjz(6, len(prog) + 1 + (1 << j)))
        prog.extend([Inc(0)] * (1 << j))
    prog.extend(relocate(pairing_prelude(n), len(prog)))
    return tuple(prog)


def first_bit_split_program() -> Program:
    """Returns the length-1 prefix when the path starts 0, length-2 when 1."""
    return compile_bar_table({(0,), (1, 0), (1, 1)})


LOAD_SCRATCH = 2  # load_constant_block's second register
LOAD_RADIX = 8  # load_constant_block multiplies by this once per digit


def load_constant_block(value: int, base: int) -> list[Instruction]:
    """Instructions at offset `base` that set r0 = value, given r0 = r2 = 0.

    Builds the value from its base-8 digits, most significant first: the
    running value c moves between r0 and the scratch register r2, each move
    a transfer loop that multiplies it by 8, followed by one INC per unit of
    the next digit.  The first digit goes into whichever register makes the
    last move land in r0, and each move drains its source, so r2 ends at 0.
    A move costs 10*c + 1 steps (c rounds of 10, one exiting DECJZ).  For a
    value of D octal digits with digit sum s, the block has 10*(D-1) + s
    instructions, where a run of INCs would have `value`, and runs in
    exactly 10*(value - s)/7 + s + (D-1) steps (none for 0), at most 10/7
    of the run's `value`.  Radix 8 keeps that factor low enough for every
    leaf of a depth-10 table realizer to load within BarRealizer's default
    fuel (radix 2 would cost up to 4*value steps).
    """
    digits: list[int] = []
    while value:
        value, digit = divmod(value, LOAD_RADIX)
        digits.append(digit)
    held = 0 if len(digits) % 2 else LOAD_SCRATCH
    block: list[Instruction] = []
    for i, digit in enumerate(reversed(digits)):
        if i:
            other = LOAD_SCRATCH if held == 0 else 0
            at = base + len(block)
            block.append(Decjz(held, at + LOAD_RADIX + 2))
            block.extend([Inc(other)] * LOAD_RADIX)
            block.append(Jmp(at))
            held = other
        block.extend([Inc(held)] * digit)
    return block


def compile_bar_table(table: Iterable[Bits]) -> Program:
    """Decision-tree program that walks the path to the first table element
    on it and returns that element's code."""
    table = frozenset(tuple(b) for b in table)
    if not table:
        raise ValueError("an empty table covers no paths")
    depth = max(len(b) for b in table)
    prog: list[Instruction] = []
    end_holes: list[int] = []

    def emit(prefix: Bits, r1_value: int) -> None:
        # r1 holds the previous query value; depth only grows along a path,
        # so topping it up by the delta reaches the next query value.
        if prefix in table:
            # Its scratch r2 is free: r1 still holds the last query value,
            # and r6 is back at 0.
            prog.extend(load_constant_block(bits_to_code(prefix), len(prog)))
            end_holes.append(len(prog))
            prog.append(Jmp(0))  # patched to the end
            return
        if len(prefix) >= depth:
            raise ValueError(f"table does not cover the path through {prefix}")
        q = pair(PATH_SLICE, len(prefix))
        prog.extend([Inc(1)] * (q - r1_value))
        prog.append(Query(1, 6))
        hole = len(prog)
        prog.append(Jmp(0))  # patched: zero branch
        emit(prefix + (1,), q)  # Yes decrements r6 back to 0 and falls through
        prog[hole] = Decjz(6, len(prog))
        emit(prefix + (0,), q)

    emit((), 0)
    end = len(prog)
    for i in end_holes:
        prog[i] = Jmp(end)
    return tuple(prog)
