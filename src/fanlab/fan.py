"""Uniform-bound extraction from bar realizers.

A bar realizer is a program that, run against an infinite 0/1 path, returns
the code of a prefix of that path lying in some bar B.  Paths are served on
one reserved query slice, PATH_SLICE = 8: a query pair(PATH_SLICE, j) reads
path bit j and is never blocked, while every other query is routed to the
surrounding node oracle, whose node must stop short of that slice.  The
path oracle records the least initial segment that was actually read,
which is the modulus the extraction leans on.

`extract_bound` reconstructs a uniform depth bound stage by stage.  At stage
n, each length-n sequence that does not yet extend a committed element is
turned into the test path "that sequence, then zeros" and the realizer is
run on it; a returned prefix of length <= n commits all its length-n
extensions, a longer one is committed as is.  Commits are merged only after
the whole stage, so results do not depend on the order sequences are
processed.  The first stage whose sequences are all covered is the bound,
and the certificate maps each length-n sequence to the committed element it
extends.  Nothing here claims the returned bound is least.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable

from .machine import (
    Answer,
    BLOCK_ALL,
    Blocked,
    Converged,
    Inc,
    Instruction,
    Jmp,
    Decjz,
    Oracle,
    OutOfFuel,
    Program,
    Query,
    QueryTrace,
    pair,
    pairing_prelude,
    relocate,
    run,
    unpair,
)
from .trees import Bits, bits_to_code, code_to_bits, format_bits, is_canonical_bits_code

PATH_SLICE = 8  # reserved slice for path bits; BarRealizer rejects nodes that reach it
EXTRACTION_FUEL = 1_000_000  # default step budget of one realizer run


class InvalidRealizer(Exception):
    """The realizer's output was not a prefix of the path it was shown."""


class RealizerBlocked(Exception):
    """The realizer asked the surrounding oracle something it cannot answer."""

    def __init__(self, query: int, trace: QueryTrace):
        super().__init__(f"blocked on query {query}")
        self.query = query
        self.trace = trace


class RealizerOutOfFuel(Exception):
    """The realizer did not settle within its step budget."""


class ExtractionExhausted(Exception):
    """Bound search gave up at `stage` with `uncovered` left; `sequence` and
    `steps` name the realizer run that used up its fuel (None at the stage limit)."""

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
    """A total 0/1 stream with exact use tracking.

    ``read`` answers a position and counts it toward ``use`` (one past the
    largest position read); ``peek`` answers without counting, for checks
    that must not disturb the measured modulus.
    """

    def __init__(self, bit_at: Callable[[int], int]):
        self._bit_at = bit_at
        self._max_read = -1

    def read(self, j: int) -> int:
        if j > self._max_read:
            self._max_read = j
        return 1 if self._bit_at(j) else 0

    def peek(self, j: int) -> int:
        return 1 if self._bit_at(j) else 0

    @property
    def use(self) -> int:
        return self._max_read + 1

    @classmethod
    def zero_extended(cls, head: Bits) -> "PathOracle":
        """The canonical test path: the given head, then zeros forever."""
        head = tuple(head)
        return cls(lambda j: head[j] if j < len(head) else 0)


@dataclass
class RoutedOracle:
    """Splits queries: the reserved slice reads the path, the rest go through."""

    base: Oracle
    path: PathOracle

    def answer(self, query: int) -> Answer:
        k, s = unpair(query)
        if k == PATH_SLICE:
            return Answer.YES if self.path.read(s) else Answer.NO
        return self.base.answer(query)


@dataclass(frozen=True)
class BarRealizer:
    code: int
    base_oracle: Oracle = BLOCK_ALL
    fuel: int = EXTRACTION_FUEL

    def __post_init__(self):
        node = getattr(self.base_oracle, "node", ())  # set on node oracles
        if len(node) > PATH_SLICE:
            raise ValueError(f"a node of length {len(node)} reaches path slice {PATH_SLICE}")


def apply_realizer_to_path(realizer: BarRealizer, path: PathOracle) -> tuple[Bits, int]:
    """Run the realizer against a path; return (prefix, use).

    The realizer is applied to input 0; its output must be the canonical
    code of a prefix of the path it saw, else InvalidRealizer.
    """
    res = run(realizer.code, 0, RoutedOracle(realizer.base_oracle, path), realizer.fuel)
    match res.outcome:
        case Converged(value):
            if not is_canonical_bits_code(value):
                raise InvalidRealizer(f"output {value} is not a sequence code")
            bits = code_to_bits(value)
            for j, b in enumerate(bits):
                if b != path.peek(j):
                    raise InvalidRealizer(
                        f"output {bits} differs from the path at position {j}"
                    )
            return bits, path.use
        case Blocked(query, trace):
            raise RealizerBlocked(query, trace)
        case OutOfFuel(_):
            raise RealizerOutOfFuel(f"no output within {realizer.fuel} steps")
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Covering and extraction

class CoverSet:
    """Committed prefixes; covers everything that extends (or equals) one."""

    def __init__(self):
        self._members: set[Bits] = set()
        self._order: list[Bits] = []

    def commit(self, bits: Bits) -> None:
        bits = tuple(bits)
        if bits not in self._members:
            self._members.add(bits)
            self._order.append(bits)

    def covers(self, bits: Bits) -> bool:
        return any(bits[:k] in self._members for k in range(len(bits) + 1))

    def covering_prefix(self, bits: Bits) -> Bits | None:
        for k in range(len(bits) + 1):
            if bits[:k] in self._members:
                return bits[:k]
        return None

    def uncovered(self, n: int) -> tuple[Bits, ...]:
        return tuple(
            bits for bits in product((0, 1), repeat=n) if not self.covers(bits)
        )

    @property
    def committed(self) -> tuple[Bits, ...]:
        return tuple(self._order)


@dataclass(frozen=True)
class UniformBound:
    n: int
    certificate: dict[Bits, Bits]  # length-n sequence -> committed element it extends
    realizer_outputs: frozenset[Bits] = field(default_factory=frozenset)


def extract_bound(realizer: BarRealizer, *, n_max: int = 16) -> UniformBound:
    """Stage-by-stage search for a depth past which the bar covers everything.

    Raises ExtractionExhausted when the stage limit or the realizer's fuel
    runs out, reporting the stage reached and the sequences still uncovered
    there.  InvalidRealizer and RealizerBlocked propagate.
    """
    cover = CoverSet()
    outputs: set[Bits] = set()
    for n in range(n_max + 1):
        stage_commits: list[Bits] = []
        for bits in product((0, 1), repeat=n):
            if cover.covers(bits):
                continue
            path = PathOracle.zero_extended(bits)
            try:
                prefix, _use = apply_realizer_to_path(realizer, path)
            except RealizerOutOfFuel:
                raise ExtractionExhausted(n, cover.uncovered(n), "realizer fuel",
                                          bits, realizer.fuel) from None
            outputs.add(prefix)
            if len(prefix) <= n:
                for tail in product((0, 1), repeat=n - len(prefix)):
                    stage_commits.append(prefix + tail)
            else:
                stage_commits.append(prefix)
        for bits in stage_commits:  # merged only now: stage order cannot matter
            cover.commit(bits)
        missing = cover.uncovered(n)
        if not missing:
            certificate = {
                bits: cover.covering_prefix(bits)
                for bits in product((0, 1), repeat=n)
            }
            return UniformBound(n, certificate, frozenset(outputs))
    raise ExtractionExhausted(n_max, cover.uncovered(n_max), "stage limit")


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
    q0 = pair(PATH_SLICE, 0)
    q1 = pair(PATH_SLICE, 1)
    prog: list[Instruction] = []
    prog.extend([Inc(5)] * q0)
    prog.append(Query(5, 6))
    first_zero_hole = len(prog)
    prog.append(Jmp(0))  # patched below
    prog.extend([Inc(5)] * (q1 - q0))
    prog.append(Query(5, 6))
    second_zero_hole = len(prog)
    prog.append(Jmp(0))  # patched below
    prog.extend([Inc(0)] * bits_to_code((1, 1)))
    end_hole_a = len(prog)
    prog.append(Jmp(0))  # patched below
    second_zero_at = len(prog)
    prog.extend([Inc(0)] * bits_to_code((1, 0)))
    end_hole_b = len(prog)
    prog.append(Jmp(0))  # patched below
    first_zero_at = len(prog)
    prog.extend([Inc(0)] * bits_to_code((0,)))
    end = len(prog)
    prog[first_zero_hole] = Decjz(6, first_zero_at)
    prog[second_zero_hole] = Decjz(6, second_zero_at)
    prog[end_hole_a] = Jmp(end)
    prog[end_hole_b] = Jmp(end)
    return tuple(prog)


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
