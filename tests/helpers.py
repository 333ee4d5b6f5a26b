"""Shared program builders for the test suite.

Everything here is host-side construction of Instruction tuples; the tests
then run the encoded programs through the machine proper.
"""

from __future__ import annotations

from typing import Sequence

from fanlab.fan import load_constant_block
from fanlab.machine import Answer, Decjz, FnOracle, Halt, Inc, Instruction, Jmp, Program, Query
from fanlab.trees import Bits, bits_to_code


def table_oracle(answers: dict[int, Answer], default: Answer = Answer.BLOCKED) -> FnOracle:
    """Answers from a finite table; every other query gets `default`."""
    return FnOracle(lambda q: answers.get(q, default))


def max_slice_probe_program() -> Program:
    """On input x, query pair(max(x, 1), 0) and return the answer bit.

    pair(k, 0) is the k-th triangle number, so the program first clamps r0
    to max(x, 1), then folds it into r1 = triangle(r0) with a copy loop.
    """
    return (
        Decjz(0, 3),   # x == 0 -> clamp to 1
        Inc(0),        # undo the decrement
        Jmp(4),
        Inc(0),
        # r1 += v for v = r0 down to 1 (copy r0 through r2 each round)
        Decjz(0, 14),
        Inc(1),
        Decjz(0, 10),
        Inc(1),
        Inc(2),
        Jmp(6),
        Decjz(2, 13),
        Inc(0),
        Jmp(10),
        Jmp(4),
        Query(1, 0),
        Halt(),
    )


def branch_program(prefix_codes: Sequence[int]) -> Program:
    """On input m < len(prefix_codes), return prefix_codes[m]; else 0.

    A DECJZ chain drains the input while dispatching to per-m constant
    blocks.  Used to realize branch programs from explicit per-length
    outputs, including deliberately broken ones.
    """
    chain_len = len(prefix_codes) + 1  # one DECJZ per m, then HALT
    blocks: list[list[Instruction]] = []
    offsets: list[int] = []
    at = chain_len
    for code in prefix_codes:
        offsets.append(at)
        block = load_constant_block(code, at) + [Halt()]
        blocks.append(block)
        at += len(block)
    prog: list[Instruction] = [Decjz(0, off) for off in offsets]
    prog.append(Halt())
    for block in blocks:
        prog.extend(block)
    return tuple(prog)


def pattern_prefix_codes(pattern: Sequence[int], depth: int) -> list[int]:
    """Codes of the pattern's prefixes, lengths 0 through depth."""
    bits = tuple(pattern[i % len(pattern)] for i in range(depth))
    return [bits_to_code(bits[:m]) for m in range(depth + 1)]


def pattern_bits(pattern: Sequence[int], length: int) -> Bits:
    return tuple(pattern[i % len(pattern)] for i in range(length))


def query_loop_program() -> Program:
    """On input x, ask codes 0, 1, ..., x - 1 in turn and return how many
    were answered Yes: a query every 4 to 6 steps."""
    return (
        Decjz(0, 6),   # 0: inputs used up -> copy the count out
        Query(1, 2),   # 1: ask the code in r1
        Inc(1),        # 2
        Decjz(2, 0),   # 3: No -> next code
        Inc(3),        # 4: Yes -> count it
        Jmp(0),        # 5
        Decjz(3, 9),   # 6: r0 = r3
        Inc(0),        # 7
        Jmp(6),        # 8
    )


def mod_decider_program(mod: int, residue: int) -> Program:
    """Decides s mod `mod` == `residue` without queries: DECJZ number i of
    the unrolled cycle finds r0 empty exactly when s mod `mod` == i."""
    yes, no = mod + 1, mod + 3
    prog: list[Instruction] = [Decjz(0, yes if i == residue else no) for i in range(mod)]
    prog += [Jmp(0), Inc(0), Halt()]
    return tuple(prog)
