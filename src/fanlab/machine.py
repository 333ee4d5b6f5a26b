"""Fuel-bounded oracle register machines with a total program numbering.

The machine model
-----------------
A program is a finite sequence of instructions over unbounded natural-number
registers:

    INC r        increment register r
    DECJZ r t    if register r is zero jump to instruction t, else decrement
    JMP t        jump to instruction t
    QUERY s d    ask the oracle about the value in register s and write the
                 answer into register d (Yes -> 1, No -> 0)
    HALT         stop; the result is register 0

Control starts at instruction 0 with the input in register 0 and every other
register 0.  A jump target at or past the end of the program halts the
machine, so every natural number is a valid target.  Each executed instruction
costs one fuel unit (oracle queries included); a run that would need more
steps than its budget ends in ``OutOfFuel``.  If the oracle declines to answer
a query (``Answer.BLOCKED``) the run aborts with a ``Blocked`` outcome
carrying that query: there is no machine-visible way to continue past an
unanswered question.

The interpreter applies straight runs of ``INC`` and transfer loops
``h: DECJZ r x; INC a...; JMP h`` (with r not among the a's) in bulk, one
dispatch for all ``v = r`` rounds, but still charges every step they stand
for: ``v*(k+2)+1`` for a loop with k INCs.  Steps, outcomes and traces are
exactly those of executing one instruction at a time, at every fuel.

Numbering
---------
Everything is coded through the Cantor pair ``pair(a, b) = (a+b)(a+b+1)/2 + b``.

An instruction is ``pair(tag, payload)`` with tags 0 INC, 1 DECJZ, 2 JMP,
3 QUERY; any tag >= 4 decodes to HALT (canonically ``pair(4, 0)``).  Payloads
are the register, ``pair(reg, target)``, the target, and ``pair(src, dst)``
respectively.  A program is ``pair(n, body)`` where n is the instruction
count and body is a balanced tree of pairs over the instruction codes (the
left subtree holds the first n // 2 of them), which keeps codes linear in
program size.  Decoding is total on the naturals: 0 is the empty program
(which halts immediately with output equal to its input), decode-then-encode
is the identity on canonical codes, and encode-then-decode is the identity on
programs.

Assembly text format (parsed by the ``cli`` module): one instruction per
line, e.g. ``INC r3``, ``DECJZ r0 12``, ``JMP 4``, ``QUERY r1 r2``, ``HALT``;
``#`` starts a comment; a line may carry ``label:`` prefixes and jump targets
may name labels, which assemble to instruction indices.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import isqrt
from typing import Callable, Iterable, Protocol


# ---------------------------------------------------------------------------
# Oracles

class Answer(Enum):
    YES = "Yes"
    NO = "No"
    BLOCKED = "Blocked"


class Oracle(Protocol):
    def answer(self, query: int) -> Answer: ...


class _BlockAll:
    """The empty oracle: no query has an answer."""

    def answer(self, query: int) -> Answer:
        return Answer.BLOCKED

    def __repr__(self) -> str:
        return "BLOCK_ALL"


BLOCK_ALL = _BlockAll()


@dataclass(frozen=True)
class FnOracle:
    fn: Callable[[int], Answer]

    def answer(self, query: int) -> Answer:
        return self.fn(query)


# ---------------------------------------------------------------------------
# Instructions and pairing

@dataclass(frozen=True)
class Inc:
    reg: int


@dataclass(frozen=True)
class Decjz:
    reg: int
    target: int


@dataclass(frozen=True)
class Jmp:
    target: int


@dataclass(frozen=True)
class Query:
    src: int
    dst: int


@dataclass(frozen=True)
class Halt:
    pass


Instruction = Inc | Decjz | Jmp | Query | Halt
Program = tuple[Instruction, ...]
HALT = Halt()


def pair(a: int, b: int) -> int:
    """Cantor pairing: a bijection between pairs of naturals and naturals."""
    s = a + b
    return s * (s + 1) // 2 + b


def unpair(q: int) -> tuple[int, int]:
    w = (isqrt(8 * q + 1) - 1) // 2
    b = q - w * (w + 1) // 2
    return w - b, b


_TAG_INC, _TAG_DECJZ, _TAG_JMP, _TAG_QUERY, _TAG_HALT = range(5)


def encode_instruction(ins: Instruction) -> int:
    kind = type(ins)  # exact-type tests: a structural match costs about 4x more
    if kind is Inc:
        return pair(_TAG_INC, ins.reg)
    if kind is Decjz:
        return pair(_TAG_DECJZ, pair(ins.reg, ins.target))
    if kind is Jmp:
        return pair(_TAG_JMP, ins.target)
    if kind is Query:
        return pair(_TAG_QUERY, pair(ins.src, ins.dst))
    if kind is Halt:
        return pair(_TAG_HALT, 0)
    raise TypeError(f"not an instruction: {ins!r}")


def decode_instruction(code: int) -> Instruction:
    tag, payload = unpair(code)
    if tag == _TAG_INC:
        return Inc(payload)
    if tag == _TAG_DECJZ:
        reg, target = unpair(payload)
        return Decjz(reg, target)
    if tag == _TAG_JMP:
        return Jmp(payload)
    if tag == _TAG_QUERY:
        src, dst = unpair(payload)
        return Query(src, dst)
    return HALT  # any tag >= 4, payload ignored


def _encode_seq(codes: list[int]) -> int:
    """The balanced pair tree over codes; ranges of zeros are 0 = pair(0, 0)."""
    nonzero = [0]  # nonzero[i]: how many of codes[:i] are not 0
    for c in codes:
        nonzero.append(nonzero[-1] + (c != 0))

    def tree(lo: int, hi: int) -> int:
        if nonzero[hi] == nonzero[lo]:
            return 0
        if hi - lo == 1:
            return codes[lo]
        mid = lo + (hi - lo) // 2
        return pair(tree(lo, mid), tree(mid, hi))

    return tree(0, len(codes))


def _decode_seq(n: int, value: int) -> list[int]:
    """Inverse of _encode_seq for n >= 1 codes; a 0 subtree stays all zeros."""
    codes = [0] * n
    pending = [(0, n, value)]
    while pending:
        lo, size, value = pending.pop()
        if not value:
            continue
        if size == 1:
            codes[lo] = value
            continue
        h = size // 2
        left, right = unpair(value)
        pending.append((lo, h, left))
        pending.append((lo + h, size - h, right))
    return codes


_INC_R0 = Inc(0)  # instruction code 0


def encode_program(program: Iterable[Instruction]) -> int:
    codes = [encode_instruction(ins) for ins in program]
    if not codes:
        return pair(0, 0)
    return pair(len(codes), _encode_seq(codes))


@lru_cache(maxsize=16384)
def decode_program(code: int) -> Program:
    n, body = unpair(code)
    if n == 0:
        return ()
    return tuple(decode_instruction(c) if c else _INC_R0 for c in _decode_seq(n, body))


# ---------------------------------------------------------------------------
# Evaluation

DEFAULT_FUEL = 100_000  # step budget wherever a caller names none


@dataclass(frozen=True)
class QueryTrace:
    """Answered queries, in order.  A blocking query is not an entry."""

    entries: tuple[tuple[int, Answer], ...] = ()

    @property
    def max_query(self) -> int | None:
        return max((q for q, _ in self.entries), default=None)


@dataclass(frozen=True)
class Converged:
    value: int


@dataclass(frozen=True)
class Blocked:
    query: int
    trace: QueryTrace


@dataclass(frozen=True)
class OutOfFuel:
    trace: QueryTrace


EvalOutcome = Converged | Blocked | OutOfFuel


@dataclass(frozen=True)
class RunResult:
    """Outcome plus instrumentation: steps executed and the full trace."""

    outcome: EvalOutcome
    steps: int
    trace: QueryTrace


_OP_INC, _OP_DECJZ, _OP_JMP, _OP_QUERY, _OP_HALT = range(5)
# Macro-ops, attached only where control can enter from elsewhere (pc 0,
# jump targets, and the first INC after a non-INC).  Each one does the work
# of many instructions in one dispatch and charges exactly their steps.
_OP_RUN = 5    # a straight run of INCs: arg1 (reg, count) pairs, arg2 length
_OP_LOOP = 6   # h: DECJZ r x; INC a...; JMP h: arg1 r, arg2 (x, k + 2, pairs)
_OP_SPIN = 7   # JMP h at h: never leaves
_OP_WAIT = 8   # DECJZ r h at h: never leaves once r is zero


def _compile(program: Program) -> tuple[tuple[int, ...], tuple, tuple, int]:
    ops: list[int] = []
    arg1: list = []
    arg2: list = []
    maxreg = 0
    for ins in program:
        kind = type(ins)  # exact-type tests, as in encode_instruction
        if kind is Inc:
            ops.append(_OP_INC); arg1.append(ins.reg); arg2.append(0)
            if ins.reg > maxreg:
                maxreg = ins.reg
        elif kind is Decjz:
            ops.append(_OP_DECJZ); arg1.append(ins.reg); arg2.append(ins.target)
            if ins.reg > maxreg:
                maxreg = ins.reg
        elif kind is Jmp:
            ops.append(_OP_JMP); arg1.append(0); arg2.append(ins.target)
        elif kind is Query:
            ops.append(_OP_QUERY); arg1.append(ins.src); arg2.append(ins.dst)
            maxreg = max(maxreg, ins.src, ins.dst)
        elif kind is Halt:
            ops.append(_OP_HALT); arg1.append(0); arg2.append(0)
        else:
            raise TypeError(f"not an instruction: {ins!r}")
    _attach_macros(ops, arg1, arg2)
    return tuple(ops), tuple(arg1), tuple(arg2), maxreg


def _attach_macros(ops: list[int], arg1: list, arg2: list) -> None:
    """Rewrite entry points into macro-ops, in place.

    Control reaches an INC only at pc 0, at a jump target, or by falling
    through from the instruction before it.  A RUN at each such pc that
    starts a run or is entered from elsewhere covers every INC after it, so
    no table per pc is needed; loops and self-loops sit at jump targets.
    """
    n = len(ops)
    targets = {arg2[pc] for pc in range(n) if ops[pc] in (_OP_DECJZ, _OP_JMP)}
    for h in range(n):
        if ops[h] == _OP_JMP and arg2[h] == h:
            ops[h] = _OP_SPIN
        elif ops[h] == _OP_DECJZ and arg2[h] == h:
            ops[h] = _OP_WAIT
        elif ops[h] == _OP_DECJZ:
            j = h + 1
            while j < n and ops[j] == _OP_INC:
                j += 1
            body = arg1[h + 1:j]
            if j < n and ops[j] == _OP_JMP and arg2[j] == h and arg1[h] not in body:
                ops[h] = _OP_LOOP
                arg2[h] = (arg2[h], j - h + 1, tuple(Counter(body).items()))
    # Straight INC runs, from the back so each entry gets its run's suffix.
    counts: Counter[int] = Counter()
    length = 0
    for pc in range(n - 1, -1, -1):
        if ops[pc] != _OP_INC:
            if length:
                counts, length = Counter(), 0
            continue
        counts[arg1[pc]] += 1
        length += 1
        if length > 1 and (pc == 0 or ops[pc - 1] != _OP_INC or pc in targets):
            ops[pc], arg1[pc], arg2[pc] = _OP_RUN, tuple(counts.items()), length


@lru_cache(maxsize=4096)
def _compiled_from_code(code: int):
    return _compile(decode_program(code))


def _execute(compiled, x: int, oracle: Oracle, fuel: int) -> RunResult:
    if fuel < 0:
        raise ValueError("fuel must be a natural number")
    ops, arg1, arg2, maxreg = compiled
    n = len(ops)
    # A small dense register file is much faster; fall back to a sparse one
    # when decoding produced absurd register indices.
    regs = [0] * (maxreg + 1) if maxreg <= 4096 else defaultdict(int)
    regs[0] = x
    pc = 0
    steps = 0
    entries: list[tuple[int, Answer]] = []
    answer = oracle.answer
    yes, no = Answer.YES, Answer.NO
    while True:
        if pc >= n:
            trace = QueryTrace(tuple(entries))
            return RunResult(Converged(regs[0]), steps, trace)
        if steps == fuel:
            break
        op = ops[pc]
        steps += 1
        if op == _OP_INC:
            regs[arg1[pc]] += 1
            pc += 1
        elif op == _OP_DECJZ:
            r = arg1[pc]
            v = regs[r]
            if v:
                regs[r] = v - 1
                pc += 1
            else:
                pc = arg2[pc]
        elif op == _OP_JMP:
            pc = arg2[pc]
        elif op == _OP_QUERY:
            q = regs[arg1[pc]]
            ans = answer(q)
            if ans is yes:
                regs[arg2[pc]] = 1
            elif ans is no:
                regs[arg2[pc]] = 0
            else:
                trace = QueryTrace(tuple(entries))
                return RunResult(Blocked(q, trace), steps, trace)
            entries.append((q, ans))
            pc += 1
        # Macro-ops hold no query, so a budget that ends inside one ends the
        # run there: OutOfFuel after exactly `fuel` steps, trace unchanged.
        elif op == _OP_RUN:
            length = arg2[pc]
            steps += length - 1
            if steps > fuel:
                break
            for reg, count in arg1[pc]:
                regs[reg] += count
            pc += length
        elif op == _OP_LOOP:
            r = arg1[pc]
            exit_pc, per_round, counts = arg2[pc]
            v = regs[r]
            if v:
                steps += v * per_round  # v rounds, then the DECJZ that exits
                if steps > fuel:
                    break
                regs[r] = 0
                for reg, count in counts:
                    regs[reg] += v * count
            pc = exit_pc
        elif op == _OP_SPIN:
            break
        elif op == _OP_WAIT:
            r = arg1[pc]
            if not regs[r]:
                break
            regs[r] -= 1
            pc += 1
        else:
            trace = QueryTrace(tuple(entries))
            return RunResult(Converged(regs[0]), steps, trace)
    trace = QueryTrace(tuple(entries))
    return RunResult(OutOfFuel(trace), fuel, trace)


def run(code: int, x: int, oracle: Oracle = BLOCK_ALL, fuel: int = DEFAULT_FUEL) -> RunResult:
    """Run the program numbered `code` on input x with a step budget."""
    return _execute(_compiled_from_code(code), x, oracle, fuel)


def evaluate(code: int, x: int, oracle: Oracle = BLOCK_ALL,
             fuel: int = DEFAULT_FUEL) -> EvalOutcome:
    """The applicative-structure application: run code on one argument."""
    return run(code, x, oracle, fuel).outcome


# ---------------------------------------------------------------------------
# Currying (partial application by program transformation)

def pairing_prelude(a: int) -> list[Instruction]:
    """Instructions that rewrite r0 = b into r0 = pair(a, b).

    Scratch registers r1-r3 are used and left at zero, so code appended after
    the prelude starts from the canonical state (input in r0, rest zero).
    Falling past the end, target ``19 + a`` points at the first appended
    instruction, or halts if nothing follows.
    """
    p = 7 + a
    prelude: list[Instruction] = [
        # r0 (=b) drains into r1 and r2
        Decjz(0, 4), Inc(1), Inc(2), Jmp(0),
        # r2 moves back into r0; now r0 = r1 = b
        Decjz(2, 7), Inc(0), Jmp(4),
    ]
    prelude += [Inc(1)] * a  # r1 = a + b = m
    prelude += [
        # r2 accumulates the triangle number of m, draining r1
        Decjz(1, p + 9), Inc(2),
        Decjz(1, p + 6), Inc(3), Inc(2), Jmp(p + 2),
        Decjz(3, p + 0), Inc(1), Jmp(p + 6),
        # r0 += r2; r0 = triangle(m) + b = pair(a, b)
        Decjz(2, p + 12), Inc(0), Jmp(p + 9),
    ]
    return prelude


def curry_overhead(a: int, b: int) -> int:
    """Exact step count of the pairing prelude on argument b.

    A curried program mirrors the direct run instruction for instruction once
    the prelude finishes, so outcomes at direct fuel F correspond to curried
    fuel F + curry_overhead(a, b).
    """
    m = a + b
    return 7 * b + a + 2 * m + 5 * m * m + 4


def relocate(program: Iterable[Instruction], offset: int) -> tuple[Instruction, ...]:
    """Shift every jump target so the program can sit at the given offset."""
    out: list[Instruction] = []
    for ins in program:
        match ins:
            case Decjz(reg, target):
                out.append(Decjz(reg, target + offset))
            case Jmp(target):
                out.append(Jmp(target + offset))
            case _:
                out.append(ins)
    return tuple(out)


def curry(code: int, a: int) -> int:
    """Code of a program p with p(b) behaving like `code`(pair(a, b)).

    Works for every code (canonical or not) and every natural a.  Equality is
    extensional: same converged value, same blocking query, or both out of
    fuel, at any sufficiently large common budget.
    """
    prelude = pairing_prelude(a)
    body = relocate(decode_program(code), len(prelude))
    return encode_program(tuple(prelude) + body)


# ---------------------------------------------------------------------------
# Deciders and generators

class DeciderPartial(Exception):
    """A decider that must be total failed to settle within its fuel."""


def run_decider(code: int, x: int, oracle: Oracle = BLOCK_ALL,
                fuel: int = DEFAULT_FUEL) -> int:
    res = run(code, x, oracle, fuel)
    match res.outcome:
        case Converged(value):
            return value
        case Blocked(query, _):
            raise DeciderPartial(f"decider blocked on query {query} at input {x}")
        case OutOfFuel(_):
            raise DeciderPartial(f"decider exceeded fuel {fuel} at input {x}")
    raise AssertionError("unreachable")


def random_program(rng, max_len: int = 10, max_reg: int = 3) -> Program:
    """A random small program; jump targets may land anywhere, loops included."""
    n = rng.randint(0, max_len)
    out: list[Instruction] = []
    for _ in range(n):
        k = rng.randrange(8)
        if k < 3:
            out.append(Inc(rng.randrange(max_reg + 1)))
        elif k < 5:
            out.append(Decjz(rng.randrange(max_reg + 1), rng.randrange(max_len + 3)))
        elif k == 5:
            out.append(Jmp(rng.randrange(max_len + 3)))
        elif k == 6:
            out.append(Query(rng.randrange(max_reg + 1), rng.randrange(max_reg + 1)))
        else:
            out.append(HALT)
    return tuple(out)
