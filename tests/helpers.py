"""Shared program builders for the test suite.

Everything here is host-side construction of Instruction tuples; the tests
then run the encoded programs through the machine proper.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterator, Sequence

from fanlab.fan import (
    PATH_SLICE,
    ExtractionExhausted,
    PathOracle,
    RealizerFailed,
    RoutedOracle,
    UniformBound,
    apply_realizer_to_path,
    load_constant_block,
)
from fanlab.machine import (
    Answer, Converged, Decjz, FnOracle, Halt, Inc, Instruction, Jmp, Program, Query, pair, run,
)
from fanlab.trees import Bits, bits_to_code, code_to_bits


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


# ---------------------------------------------------------------------------
# Plain extraction reference

def plain_uncovered(members, n: int) -> tuple[Bits, ...]:
    """Length-n sequences with no prefix in `members`: all 2^n of them
    scanned in lexicographic order, n + 1 prefixes tested each."""
    return tuple(bits for bits in product((0, 1), repeat=n)
                 if not any(bits[:k] in members for k in range(n + 1)))


def reference_extract_bound(realizer, *, n_max: int = 16) -> UniformBound:
    """A plain reference for `fan.extract_bound`: the commits live in a set,
    and every stage scans all 2^n sequences with a prefix test, before and
    after its commits."""
    members: set[Bits] = set()
    outputs: set[Bits] = set()
    for n in range(n_max + 1):
        candidates = plain_uncovered(members, n)
        stage_commits: list[Bits] = []
        for bits in candidates:
            path = PathOracle(bits)
            try:
                prefix, _use = apply_realizer_to_path(realizer, path)
            except RealizerFailed as exc:
                raise ExtractionExhausted(n, candidates, exc.reason, bits, exc.steps) from None
            outputs.add(prefix)
            if len(prefix) <= n:
                for tail in product((0, 1), repeat=n - len(prefix)):
                    stage_commits.append(prefix + tail)
            else:
                stage_commits.append(prefix)
        members.update(stage_commits)
        if not plain_uncovered(members, n):
            certificate = {
                bits: next(bits[:k] for k in range(n + 1) if bits[:k] in members)
                for bits in product((0, 1), repeat=n)
            }
            return UniformBound(n, certificate, frozenset(outputs))
    raise ExtractionExhausted(n_max, plain_uncovered(members, n_max), "stage limit")


class ReferencePathOracle:
    """The path "head, then zeros" with a high-water mark: `read` counts a
    position toward `use` (one past the largest position read), `peek`
    answers without counting."""

    def __init__(self, head: Bits):
        self.head = tuple(head)
        self.use = 0

    def peek(self, j: int) -> int:
        return self.head[j] if j < len(self.head) else 0

    def read(self, j: int) -> int:
        self.use = max(self.use, j + 1)
        return self.peek(j)


def reference_apply_realizer_to_path(realizer, head: Bits) -> tuple[Bits, int]:
    """A plain reference for `fan.apply_realizer_to_path` on a realizer that
    converges to a valid prefix: `use` is the path's own high-water mark, and
    the output is checked bit by bit with `peek`."""
    path = ReferencePathOracle(head)
    res = run(realizer.code, 0, RoutedOracle(realizer.base_oracle, path), realizer.fuel)
    assert isinstance(res.outcome, Converged), res.outcome
    bits = code_to_bits(res.outcome.value)
    assert all(b == path.peek(j) for j, b in enumerate(bits)), (bits, head)
    return bits, path.use


def extraction_result(extract, realizer, **kwargs) -> tuple:
    """A whole extraction result, comparable with ==: the bound, its
    certificate in order and the outputs, or every field of the exhaustion."""
    try:
        bound = extract(realizer, **kwargs)
    except ExtractionExhausted as exc:
        return ("exhausted", exc.stage, exc.uncovered, exc.reason, exc.sequence,
                exc.steps, str(exc))
    return ("bound", bound.n, list(bound.certificate.items()), bound.realizer_outputs)


def covering_tables(depth: int, prefix: Bits = ()) -> Iterator[tuple[Bits, ...]]:
    """Every prefix-free table below `prefix` that covers each path through
    it by length len(prefix) + depth: a(d) = a(d - 1)^2 + 1 of them."""
    yield (prefix,)
    if depth:
        for left in covering_tables(depth - 1, prefix + (0,)):
            for right in covering_tables(depth - 1, prefix + (1,)):
                yield left + right


def lookahead_realizer_program(answer: Callable[[Bits], Bits], depth: int) -> Program:
    """Reads path bits 0..depth-1 and returns the code of answer(those bits),
    a prefix of them that may be shorter than what was read: the decision
    tree of `fan.compile_bar_table`, with every leaf at depth `depth`."""
    prog: list[Instruction] = []
    end_holes: list[int] = []

    def emit(prefix: Bits, r1_value: int) -> None:
        if len(prefix) == depth:
            prog.extend(load_constant_block(bits_to_code(answer(prefix)), len(prog)))
            end_holes.append(len(prog))
            prog.append(Jmp(0))  # patched to the end
            return
        q = pair(PATH_SLICE, len(prefix))
        prog.extend([Inc(1)] * (q - r1_value))
        prog.append(Query(1, 6))
        hole = len(prog)
        prog.append(Jmp(0))  # patched: zero branch
        emit(prefix + (1,), q)
        prog[hole] = Decjz(6, len(prog))
        emit(prefix + (0,), q)

    emit((), 0)
    for i in end_holes:
        prog[i] = Jmp(len(prog))
    return tuple(prog)
