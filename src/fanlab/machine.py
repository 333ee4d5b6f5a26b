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

Control starts at instruction 0 with the input, a natural number, in register
0 and every other register 0.  A jump target at or past the end of the program
halts the machine, so every natural number is a valid target.  Each executed
instruction costs one fuel unit (oracle queries included); a run that would
need more steps than its budget ends in ``OutOfFuel()``.  If the oracle
declines to answer a query (``Answer.BLOCKED``) the run aborts with a
``Blocked(query)`` outcome: there is no machine-visible way to continue past
an unanswered question.  A run that halts ends in ``Converged(value)`` with
register 0 as the value.  ``run`` returns ``RunResult(outcome, steps,
trace)``, the trace being the answered queries in order and one answer bit
each; ``trace.entries`` views them as ``(query, answer)`` pairs.  These and
the instructions are immutable slotted values, compared and matched by field.

The interpreter adds a run of k consecutive INCs of one register in one
dispatch charged k steps; a budget that ends inside the run ends the run
there, and a jump into its middle steps the rest one INC at a time.  It
applies countdown cycles
``h: DECJZ r x0; ...; DECJZ r x(m-1); INC a...; JMP h`` (m >= 1 tests of the
same register r, r not among the a's, no test jumping to itself) in bulk, one
dispatch for all their rounds, but still charges every step they stand for.
With k INCs a round takes ``m + k + 1`` steps and m from r.  For
``rounds, j = divmod(v, m)`` on ``v = r`` the cycle runs ``rounds`` rounds,
then j tests that decrement and the one that finds r zero: it costs
``rounds*(m+k+1) + j + 1`` steps, adds ``rounds`` to each a per occurrence,
empties r and continues at ``xj``.  With m = 1 that is the transfer loop
``h: DECJZ r x; INC a...; JMP h`` and its ``v*(k+2)+1`` steps.

Series cycles, the unary Cantor pairing of ``pairing_prelude``, are one
dispatch too: ``h: DECJZ r x; INC a...`` (k INCs, none of r or u), then L1,
a transfer loop on t with u once and r never among its INCs, exiting to L2,
the transfer loop ``DECJZ u; INC t; JMP`` back to h, u neither r nor t.
Entered with ``r = v >= 1`` and ``u = 0``, its rounds move summands adding up
to ``S = v(v-1)/2`` when t is r, else ``S = v*w0 + d*v(v+1)/2`` (w0 is t on
entry, d its INCs in the head).  With L1 and L2 costing p1 and p2 steps a
round, the cycle costs ``v*(k+3) + S*(p1+p2) + 1`` steps, adds v per
occurrence to each head INC and S to each other INC of L1, empties r and u
and continues at x.  With u not 0 it takes just its DECJZ step.  Steps,
outcomes and traces are exactly those of executing one instruction at a
time, at every fuel.

Compiled forms
--------------
``run`` decodes a program once, into tables that the interpreter reads with
registers renumbered densely (register 0 stays 0), and keeps them in one
cache, ``_compiled_from_code``, keyed by code.  A program that has run hot is
compiled from those tables into one generated Python function, kept in the
same entry.  A program turns hot once its interpreted runs together have
taken ``3000 + 40 * n`` dispatches, n its instruction count, a plain step,
a run of INCs and a macro counting one each: by then the interpreter has
lost 1.1-1.7 times what generating the function costs (``run`` gives the
measurements).  Take-k and table realizers through a whole extraction and
the Kleene tree's programs through one census stay interpreted, and a
program whose first instruction heads a macro, an ``x mod m`` decider for
one, is never hot: its block code would hand every run over at pc 0.
Block code covers plain superblocks only: the function keeps registers in
locals and dispatches only at pc 0, jump targets and macros; from each it
runs straight through every fall-through, checking fuel once.
At a macro, or before a superblock that could pass the budget, it hands
its state to the interpreter for the rest of the run, so steps, outcomes
and traces stay exactly those above: ``OutOfFuel`` at ``steps == fuel``,
and a blocking query with the steps up to itself.

Numbering
---------
Everything is coded through the Cantor pair ``pair(a, b) = (a+b)(a+b+1)/2 + b``.

An instruction is ``pair(tag, payload)`` with tags 0 INC, 1 DECJZ, 2 JMP,
3 QUERY; any tag >= 4 decodes to HALT (canonically ``pair(4, 0)``).  Payloads
are the register, ``pair(reg, target)``, the target, and ``pair(src, dst)``
respectively.  A program is ``pair(n, body)`` where n is the instruction
count and body is a balanced tree of pairs over the instruction codes (the
left subtree holds the first n // 2 of them), which keeps codes linear in
program size.  Decoding is total on the naturals whose count n is at most
``sys.maxsize``, the most items a list can hold; a larger n is refused with
``ProgramTooLong``.  0 is the empty program (which halts immediately with
output equal to its input), decode-then-encode is the identity on canonical
codes, and encode-then-decode is the identity on programs.

Assembly text format (parsed by the ``cli`` module): one instruction per
line, e.g. ``INC r3``, ``DECJZ r0 12``, ``JMP 4``, ``QUERY r1 r2``, ``HALT``;
``#`` starts a comment; a line may carry ``label:`` prefixes and jump targets
may name labels, which assemble to instruction indices.
"""

from __future__ import annotations

import sys
from collections import Counter
from enum import Enum
from functools import lru_cache
from math import isqrt
from typing import Callable, Iterable, Protocol

_set = object.__setattr__  # how a value's __init__ sets its fields


class _Value:
    """An immutable record over the slots named in `__match_args__`: `==` (same
    type only), `hash`, `repr`, copies and pickles all go by those fields."""

    __slots__ = __match_args__ = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._fields() == other._fields() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


# ---------------------------------------------------------------------------
# Oracles

class Answer(Enum):
    YES = "Yes"
    NO = "No"
    BLOCKED = "Blocked"


# Plain names for the members: on Python 3.11 each `Answer.YES` goes through
# `EnumType.__getattr__` and costs several times a global lookup.
YES, NO, BLOCKED = Answer.YES, Answer.NO, Answer.BLOCKED


class Oracle(Protocol):
    def answer(self, query: int) -> Answer: ...


class _BlockAll:
    """The empty oracle: no query has an answer."""

    def answer(self, query: int) -> Answer:
        return BLOCKED

    def __repr__(self) -> str:
        return "BLOCK_ALL"

    __reduce__ = __repr__  # a name: copies and pickles are the one instance


BLOCK_ALL = _BlockAll()


class FnOracle(_Value):
    __slots__ = __match_args__ = ("fn",)
    def __init__(self, fn: Callable[[int], Answer]):
        _set(self, "fn", fn)

    def answer(self, query: int) -> Answer:
        return self.fn(query)


# ---------------------------------------------------------------------------
# Instructions and pairing

class Inc(_Value):
    __slots__ = __match_args__ = ("reg",)
    def __init__(self, reg: int):
        _set(self, "reg", reg)


class Decjz(_Value):
    __slots__ = __match_args__ = ("reg", "target")
    def __init__(self, reg: int, target: int):
        _set(self, "reg", reg)
        _set(self, "target", target)


class Jmp(_Value):
    __slots__ = __match_args__ = ("target",)
    def __init__(self, target: int):
        _set(self, "target", target)


class Query(_Value):
    __slots__ = __match_args__ = ("src", "dst")
    def __init__(self, src: int, dst: int):
        _set(self, "src", src)
        _set(self, "dst", dst)


class Halt(_Value):
    __slots__ = __match_args__ = ()


Instruction = Inc | Decjz | Jmp | Query | Halt
Program = tuple[Instruction, ...]
HALT = Halt()


def pair(a: int, b: int) -> int:
    """Cantor pairing: a bijection between pairs of naturals and naturals."""
    s = a + b
    return ((s * s + s) >> 1) + b


def unpair(q: int) -> tuple[int, int]:
    w = (isqrt(8 * q + 1) - 1) // 2
    b = q - w * (w + 1) // 2
    return w - b, b


_WIDE = 6000  # bits; a cut-off of 3k or 6k decodes 70k-150k-bit codes alike, 12k 1-2% slower


def _sqrtrem(n: int) -> tuple[int, int]:
    """(isqrt(n), n - isqrt(n)**2) by Zimmermann's recursive square root
    ("Karatsuba Square Root", INRIA RR-3805, 1999): per level one half-size
    root, one divmod and one quarter-size square, and no full-size square."""
    if n.bit_length() <= _WIDE:
        s = isqrt(n)
        return s, n - s * s
    k = (n.bit_length() + 3) >> 2  # limb width: four limbs, the top one >= 2^k / 4
    t = (4 * k - n.bit_length()) >> 1  # shift n left by 2t, t in {0, 1}
    n <<= 2 * t
    mask = (1 << k) - 1
    s, r = _sqrtrem(n >> 2 * k)
    q, u = divmod((r << k) | (n >> k & mask), s << 1)
    s = (s << k) + q
    r = ((u << k) | (n & mask)) - q * q
    if r < 0:
        r += 2 * s - 1
        s -= 1
    if t and s & 1:  # unshifted: root s >> 1, remainder (r + 2s - 1) >> 2
        r += 2 * s - 1
    return s >> t, r >> 2 * t


def _split(q: int) -> tuple[int, int]:
    """unpair(q), taking b from the remainder of 8q + 1, squaring nothing wide."""
    s, r = _sqrtrem(8 * q + 1)
    b = (r if s & 1 else r - 1 + 2 * s) >> 3
    return ((s - 1) >> 1) - b, b


_TAG_INC, _TAG_DECJZ, _TAG_JMP, _TAG_QUERY, _TAG_HALT = range(5)


def encode_instruction(ins: Instruction) -> int:
    kind = type(ins)  # exact-type tests: a structural match costs about 4x more
    if kind is Inc:
        if ins.reg >= 0:
            return pair(_TAG_INC, ins.reg)
    elif kind is Decjz:
        if ins.reg >= 0 and ins.target >= 0:
            return pair(_TAG_DECJZ, pair(ins.reg, ins.target))
    elif kind is Jmp:
        if ins.target >= 0:
            return pair(_TAG_JMP, ins.target)
    elif kind is Query:
        if ins.src >= 0 and ins.dst >= 0:
            return pair(_TAG_QUERY, pair(ins.src, ins.dst))
    elif kind is Halt:
        return pair(_TAG_HALT, 0)
    else:
        raise TypeError(f"not an instruction: {ins!r}")
    raise ValueError(f"registers and targets must be natural numbers: {ins!r}")


def decode_instruction(code: int) -> Instruction:
    if code < 0:
        raise ValueError(f"not an instruction code: {code}")
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
    return _encode_tree(codes, nonzero, 0, len(codes))


def _encode_tree(codes: list[int], nonzero: list[int], lo: int, hi: int) -> int:
    """The subtree over codes[lo:hi].  Module-level, so that recursing leaves
    no closure cycle holding the whole program's lists."""
    if nonzero[hi] == nonzero[lo]:
        return 0
    if hi - lo == 1:
        return codes[lo]
    mid = lo + (hi - lo) // 2
    return pair(_encode_tree(codes, nonzero, lo, mid), _encode_tree(codes, nonzero, mid, hi))


def _decode_seq(n: int, value: int, split: Callable[[int], tuple[int, int]]) -> list[int]:
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
        left, right = split(value)
        pending.append((lo, h, left))
        pending.append((lo + h, size - h, right))
    return codes


_INC_R0 = Inc(0)  # instruction code 0


def encode_program(program: Iterable[Instruction]) -> int:
    codes = [encode_instruction(ins) for ins in program]
    return pair(len(codes), _encode_seq(codes))


class ProgramTooLong(ValueError):
    """A program code whose instruction count no list can hold."""


def decode_program(code: int) -> Program:
    if code < 0:
        raise ValueError(f"not a program code: {code}")
    split = _split if code.bit_length() > _WIDE else unpair  # a narrow code has no wide part
    n, body = split(code)
    if n == 0:
        return ()
    if n > sys.maxsize:
        raise ProgramTooLong(f"a program of {n} instructions is longer than a list can hold")
    return tuple(decode_instruction(c) if c else _INC_R0 for c in _decode_seq(n, body, split))


# ---------------------------------------------------------------------------
# Evaluation

DEFAULT_FUEL = 100_000  # step budget wherever a caller names none


class QueryTrace(_Value):
    """Answered queries in order, one answer bit each (1 = Yes); `entries`
    views them as `(query, answer)` pairs.  A blocking query is not answered."""

    __slots__ = __match_args__ = ("queries", "answers")
    def __init__(self, queries: tuple[int, ...] = (), answers: bytes = b""):
        _set(self, "queries", queries)
        _set(self, "answers", answers)

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, Answer]]) -> QueryTrace:
        pairs = tuple(pairs)
        return cls(tuple(q for q, _ in pairs), bytes(a is YES for _, a in pairs))

    @property
    def entries(self) -> tuple[tuple[int, Answer], ...]:
        return tuple(zip(self.queries, map((NO, YES).__getitem__, self.answers)))

    @property
    def max_query(self) -> int | None:
        return max(self.queries, default=None)


class Converged(_Value):
    __slots__ = __match_args__ = ("value",)
    def __init__(self, value: int):
        _set(self, "value", value)


class Blocked(_Value):
    __slots__ = __match_args__ = ("query",)
    def __init__(self, query: int):
        _set(self, "query", query)


class OutOfFuel(_Value):
    __slots__ = __match_args__ = ()


EvalOutcome = Converged | Blocked | OutOfFuel


class RunResult(_Value):
    """Outcome plus instrumentation: steps executed and the full trace."""

    __slots__ = __match_args__ = ("outcome", "steps", "trace")
    def __init__(self, outcome: EvalOutcome, steps: int, trace: QueryTrace):
        _set(self, "outcome", outcome)
        _set(self, "steps", steps)
        _set(self, "trace", trace)


_OP_INC, _OP_DECJZ, _OP_JMP, _OP_QUERY = range(4)  # HALT compiles to a JMP past the end
# An INC's arg2 is how many INCs of its register run from it: k >= 2 at the
# first INC of a run of k, 1 at every other INC.
# Macro-ops, attached at loop heads.  Each one does the work of many
# instructions in one dispatch and charges exactly their steps.
# LOOP is a countdown cycle h: DECJZ r x0; ...; DECJZ r x(m-1); INC a...; JMP h.
# arg1 is r, arg2 is (exits, per_round, counts): exits (x0, ..., x(m-1)),
# per_round m + k + 1 for k INCs, counts (a, occurrences) pairs.
_OP_LOOP = 4
_OP_SPIN = 5   # JMP h at h: never leaves
_OP_WAIT = 6   # DECJZ r h at h: never leaves once r is zero
# SERIES is a series cycle h: DECJZ r x; INC a...; L1; L2 (module docstring).
# arg1 is r, arg2 is (x, t, u, d, k + 3, p1 + p2, head, moved): d is -1 when t
# is r, head and moved the (reg, count) pairs of the head INCs and of L1's
# INCs other than u.
_OP_SERIES = 7


def _compile(program: Program) -> tuple[tuple[int, ...], tuple, tuple, int]:
    """The tables both engines run: ops, first and second arguments, and the
    register count.  Registers are renumbered densely in order of first use,
    register 0 staying 0; a run touches only registers its program names, so
    no outcome, step or trace can tell."""
    ops: list[int] = []
    arg1: list = []
    arg2: list = []
    index = {0: 0}
    dense = index.setdefault
    start = 0  # where the latest run of INCs of one register starts
    for ins in program:
        kind = type(ins)  # exact-type tests, as in encode_instruction
        if kind is Inc:
            reg = dense(ins.reg, len(index))
            if ops and ops[-1] == _OP_INC and arg1[-1] == reg:
                arg2[start] += 1  # the run's first INC counts the run
            else:
                start = len(ops)
            ops.append(_OP_INC); arg1.append(reg); arg2.append(1)
        elif kind is Decjz:
            ops.append(_OP_DECJZ); arg1.append(dense(ins.reg, len(index)))
            arg2.append(ins.target)
        elif kind is Jmp:
            ops.append(_OP_JMP); arg1.append(0); arg2.append(ins.target)
        elif kind is Query:
            ops.append(_OP_QUERY); arg1.append(dense(ins.src, len(index)))
            arg2.append(dense(ins.dst, len(index)))
        elif kind is Halt:
            ops.append(_OP_JMP); arg1.append(0); arg2.append(len(program))
        else:
            raise TypeError(f"not an instruction: {ins!r}")
    _attach_macros(ops, arg1, arg2)
    return tuple(ops), tuple(arg1), tuple(arg2), len(index)


def _attach_macros(ops: list[int], arg1: list, arg2: list) -> None:
    """Rewrite loop heads into macro-ops, in place."""
    n = len(ops)
    loops = []
    for h in range(n):
        if ops[h] == _OP_JMP and arg2[h] == h:
            ops[h] = _OP_SPIN
        elif ops[h] == _OP_DECJZ and arg2[h] == h:
            ops[h] = _OP_WAIT
        elif ops[h] == _OP_DECJZ:
            r = arg1[h]
            i = h + 1  # past the tests of r; a test jumping to itself ends them
            while i < n and ops[i] == _OP_DECJZ and arg1[i] == r and arg2[i] != i:
                i += 1
            j = i
            while j < n and ops[j] == _OP_INC:
                j += 1
            body = arg1[i:j]
            if j < n and ops[j] == _OP_JMP and arg2[j] == h and r not in body:
                ops[h] = _OP_LOOP
                arg2[h] = (tuple(arg2[h:i]), j - h + 1, tuple(Counter(body).items()))
                loops.append(h)
    for l1 in loops if len(loops) > 1 else ():  # a series cycle holds two LOOPs
        (l2, *more), p1, moved = arg2[l1]
        if more or l2 >= n or ops[l2] != _OP_LOOP:
            continue
        (h, *more), p2, back = arg2[l2]
        t, u = arg1[l1], arg1[l2]
        if (more or h >= l1 or ops[h] != _OP_DECJZ
                or ops[h + 1:l1].count(_OP_INC) != l1 - h - 1):  # h, then INCs up to L1
            continue
        r, head, moved = arg1[h], arg1[h + 1:l1], dict(moved)
        if (back == ((t, 1),) and moved.pop(u, 0) == 1 and r not in moved and u != r
                and r not in head and u not in head):
            ops[h] = _OP_SERIES
            arg2[h] = (arg2[h], t, u, -1 if t == r else head.count(t), l1 - h + 2,
                       p1 + p2, tuple(Counter(head).items()), tuple(moved.items()))


_NO_QUERIES = QueryTrace()  # shared by every run that answered nothing
_OUT_OF_FUEL = OutOfFuel()  # shared by every run that ran out of fuel


def _result(outcome: EvalOutcome, steps: int, queries, answers) -> RunResult:
    """The one constructor of both engines' results."""
    trace = QueryTrace(tuple(queries), bytes(answers)) if queries else _NO_QUERIES
    return RunResult(outcome, steps, trace)


def _execute(compiled, x: int, oracle: Oracle, fuel: int, resume=None,
             entry: _Entry | None = None) -> RunResult:
    """The single-step interpreter.  `resume` is (pc, steps, registers,
    queries, answers): the state a block function hands over at a macro
    head, or before a superblock that could pass the budget.  `entry`, when
    given, gains the dispatches this run took: one per plain step, run of
    INCs or macro, whatever it charged."""
    ops, arg1, arg2, nregs = compiled
    n = len(ops)
    regs = [0] * nregs
    regs[0] = x
    pc, steps, regs, queries, answers = resume or (0, 0, regs, [], bytearray())
    answer = oracle.answer
    yes, no = YES, NO
    bulk = 0  # steps that macros charged beyond their one dispatch
    outcome = _OUT_OF_FUEL
    while True:
        if pc >= n:
            outcome = Converged(regs[0])
            break
        if steps == fuel:
            break
        op = ops[pc]
        steps += 1
        if op == _OP_INC:  # k INCs of one register, k steps in one dispatch
            k = arg2[pc]
            regs[arg1[pc]] += k
            pc += k
            if k != 1:
                k -= 1
                steps += k
                bulk += k
                if steps > fuel:  # the budget ends inside the run
                    break
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
                outcome = Blocked(q)
                break
            queries.append(q)
            answers.append(ans is yes)
            pc += 1
        # A macro holds no query, so a budget that ends inside one ends the
        # run there: OutOfFuel after exactly `fuel` steps, trace unchanged.
        elif op == _OP_LOOP:
            r = arg1[pc]
            exits, per_round, counts = arg2[pc]
            v = regs[r]
            pc = exits[0]
            if v:
                if len(exits) > 1:  # v = rounds * m + j: rounds, j tests, exit j
                    v, j = divmod(v, len(exits))
                    pc = exits[j]
                    charge = v * per_round + j
                else:
                    charge = v * per_round  # v rounds, then the DECJZ that exits
                if steps + charge > fuel:
                    break
                steps += charge
                bulk += charge
                regs[r] = 0
                for reg, count in counts:
                    regs[reg] += v * count
        elif op == _OP_SERIES:
            r = arg1[pc]
            v = regs[r]
            exit_, t, u, delta, per_round, per_unit, head, moved = arg2[pc]
            if v and regs[u]:  # not the state the rounds assume: one plain DECJZ
                regs[r] = v - 1
                pc += 1
            else:  # v rounds moving s units in all, then the DECJZ that exits
                s = v * regs[t] + delta * (v * (v + 1) // 2)
                charge = v * per_round + s * per_unit
                if steps + charge > fuel:
                    break
                steps += charge
                bulk += charge
                regs[r] = 0
                for reg, count in head:
                    regs[reg] += v * count
                for reg, count in moved:
                    regs[reg] += s * count
                pc = exit_
        elif op == _OP_SPIN:
            break
        elif op == _OP_WAIT:
            r = arg1[pc]
            if not regs[r]:
                break
            regs[r] -= 1
            pc += 1
    if entry is not None:
        entry.dispatches += steps - bulk
    return _result(outcome, fuel if outcome is _OUT_OF_FUEL else steps, queries, answers)


# ---------------------------------------------------------------------------
# Block compilation of hot programs

def _generate(tables) -> Callable[[int, Oracle, int], RunResult]:
    """One Python function that runs `tables` exactly as `_execute(tables, ...)`.

    Block code covers plain superblocks only.  Register i is the local
    `r{i}`.  Control dispatches, through a binary if-tree on pc, only to the
    heads: pc 0, every jump target inside the program and every macro.  From
    a plain head, code runs on through every fall-through (past a DECJZ that
    does not jump, a QUERY, a run of INCs) to the next jump (a HALT is one,
    past the end) or head.  A superblock checks fuel once, against its
    longest path, and charges its steps when it leaves; a QUERY that blocks
    charges the steps up to itself.  At a macro head, or when the longest
    path would pass the budget, it hands its state to `_execute` for the rest.
    """
    ops, arg1, arg2, nregs = tables
    n = len(ops)
    targets = {0}
    for pc, op in enumerate(ops):
        if op == _OP_DECJZ or op == _OP_JMP:
            targets.add(arg2[pc])
        elif op >= _OP_LOOP:  # a macro heads a superblock of its own
            targets.add(pc)
    heads = sorted(t for t in targets if t < n)
    head_set = set(heads)

    def goto(target: int, more, pad: str) -> list[str]:
        """Leave for `target` after charging `more` steps."""
        if target >= n:
            return [f"{pad}return _result(Converged(r0), steps + {more}, queries, answers)"]
        return [f"{pad}steps += {more}", f"{pad}pc = {target}", f"{pad}continue"]

    def superblock(h: int, pad: str) -> list[str]:
        if ops[h] >= _OP_LOOP:  # a macro: the interpreter runs it
            return [f"{pad}break"]
        out: list[str] = []
        pending: dict[int, int] = {}  # INCs not yet written out
        cost = 0  # steps from the head to here

        def flush() -> None:
            out.extend(f"{pad}r{reg} += {c}" for reg, c in pending.items())
            pending.clear()

        pc = h
        while True:
            if pc >= n or (pc != h and pc in head_set):
                flush()
                out += goto(pc, cost, pad)
                break
            op = ops[pc]
            cost += 1
            if op == _OP_INC:
                pending[arg1[pc]] = pending.get(arg1[pc], 0) + 1
                pc += 1
                continue
            flush()
            if op == _OP_QUERY:
                out += [f"{pad}q = r{arg1[pc]}",
                        f"{pad}a = answer(q)",
                        f"{pad}if a is yes:",
                        f"{pad}    r{arg2[pc]} = 1",
                        f"{pad}elif a is no:",
                        f"{pad}    r{arg2[pc]} = 0",
                        f"{pad}else:",
                        f"{pad}    return _result(Blocked(q), steps + {cost}, queries, answers)",
                        f"{pad}append(q)",
                        f"{pad}bit(r{arg2[pc]})"]
            elif op == _OP_DECJZ:
                out += [f"{pad}if not r{arg1[pc]}:", *goto(arg2[pc], cost, pad + "    "),
                        f"{pad}r{arg1[pc]} -= 1"]
            else:  # a JMP
                out += goto(arg2[pc], cost, pad)
                break
            pc += 1
        return [f"{pad}if steps + {cost} > fuel:", f"{pad}    break", *out]

    regs = [f"r{i}" for i in range(nregs)]
    lines = ["def block_run(x, oracle, fuel):", "    r0 = x"]
    if not heads:  # the empty program
        lines.append('    return _result(Converged(r0), 0, (), b"")')
    else:
        if nregs > 1:
            lines.append("    " + " = ".join(regs[1:]) + " = 0")
        lines += ["    steps = pc = 0",
                  "    queries, answers = [], bytearray()",
                  "    answer, append, bit = oracle.answer, queries.append, answers.append",
                  "    yes, no = YES, NO",
                  "    while True:",
                  *_dispatch(heads, superblock, 0, len(heads), " " * 8),
                  f"    return _execute(tables, r0, oracle, fuel, "
                  f"(pc, steps, [{', '.join(regs)}], queries, answers))"]
    namespace = {"_execute": _execute, "_result": _result, "Converged": Converged,
                 "Blocked": Blocked, "tables": tables, "YES": YES, "NO": NO}
    exec(compile("\n".join(lines), "<fanlab block code>", "exec"), namespace)
    return namespace.pop("block_run")  # no cycle through its own globals


def _dispatch(heads: list[int], superblock, lo: int, hi: int, pad: str) -> list[str]:
    """A binary if-tree on pc over heads[lo:hi], a superblock at each leaf.
    Module-level, so that recursing leaves no closure cycle."""
    if hi - lo == 1:
        return superblock(heads[lo], pad)
    mid = (lo + hi) // 2
    return [f"{pad}if pc < {heads[mid]}:", *_dispatch(heads, superblock, lo, mid, pad + "    "),
            f"{pad}else:", *_dispatch(heads, superblock, mid, hi, pad + "    ")]


class _Entry:
    """What `run` keeps per program code: the tables both engines read, the
    dispatches its interpreted runs took so far and, once the program is
    hot, its block function."""

    __slots__ = ("tables", "dispatches", "fn")

    def __init__(self, tables):
        self.tables = tables
        self.dispatches = 0
        self.fn = None


@lru_cache(maxsize=4096)
def _compiled_from_code(code: int) -> _Entry:
    return _Entry(_compile(decode_program(code)))


def run(code: int, x: int, oracle: Oracle = BLOCK_ALL, fuel: int = DEFAULT_FUEL) -> RunResult:
    """Run the program numbered `code` on input x with a step budget."""
    if x < 0 or fuel < 0:  # the one check, for both engines
        raise ValueError("the input and the fuel must be natural numbers")
    entry = _compiled_from_code(code)
    if entry.fn is not None:
        return entry.fn(x, oracle, fuel)
    res = _execute(entry.tables, x, oracle, fuel, None, entry)
    # Hotness counts dispatches: block code saves time per dispatch, not per
    # step.  Generating a block function costs G: 0.11 ms for the mod-3
    # decider, 0.19 ms for the 9-instruction query loop, 0.69-1.0 ms for
    # take-6..8 (196-425 instructions), 2.5 ms for a 943-instruction table
    # realizer, 85-91% of it in compile().  Block code saves 92-96 ns of the
    # query loop's 142-147 ns a dispatch and 64-74 ns of take-k's 308-346
    # (Python 3.11.7, 2-vCPU host), so it pays back after G / saving: about
    # 2,000 dispatches for the query loop, 10,000-13,000 for take-6..8.
    # Turning hot once the interpreter has lost c times G bounds a program's
    # cost at 1 + c times the best choice in hindsight; 3,000 + 40 * n waits
    # 1.7 G for the query loop, which turns hot in its first oracle-scan run
    # (about 4,700 dispatches), and 1.1-1.5 G for take-6..8, whose whole
    # extractions (2,400-12,500 dispatches) stay cold.  A macro at pc 0 would
    # make block code that hands every run to `_execute` there.
    ops = entry.tables[0]  # an empty program never dispatches, so ops[0] exists
    if entry.dispatches >= 3_000 + 40 * len(ops) and ops[0] < _OP_LOOP:
        entry.fn = _generate(entry.tables)
    return res


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
    if a < 0:
        raise ValueError(f"curry needs a natural number argument, not {a}")
    prelude = pairing_prelude(a)
    body = relocate(decode_program(code), len(prelude))
    return encode_program(tuple(prelude) + body)


# ---------------------------------------------------------------------------
# Deciders and generators

class DeciderPartial(Exception):
    """A decider that must be total failed to settle within its fuel: program
    `code` on `input`, after `steps` steps.  The message leaves the code out."""

    def __init__(self, message: str, code: int, x: int, steps: int):
        super().__init__(message)
        self.code, self.input, self.steps = code, x, steps

    def __reduce__(self):  # copies and pickles keep the fields
        return type(self), (*self.args, self.code, self.input, self.steps)


def run_decider(code: int, x: int, oracle: Oracle = BLOCK_ALL,
                fuel: int = DEFAULT_FUEL) -> int:
    res = run(code, x, oracle, fuel)
    kind = type(res.outcome)  # exact-type tests, as in encode_instruction
    if kind is Converged:
        return res.outcome.value
    why = f"blocked on query {res.outcome.query}" if kind is Blocked else f"exceeded fuel {fuel}"
    raise DeciderPartial(f"decider {why} at input {x}, steps {res.steps}", code, x, res.steps)


def random_program(rng, max_len: int = 10) -> Program:
    """A random small program over r0-r3; jumps may land anywhere, loops included."""
    n = rng.randint(0, max_len)
    out: list[Instruction] = []
    for _ in range(n):
        k = rng.randrange(8)
        if k < 3:
            out.append(Inc(rng.randrange(4)))
        elif k < 5:
            out.append(Decjz(rng.randrange(4), rng.randrange(max_len + 3)))
        elif k == 5:
            out.append(Jmp(rng.randrange(max_len + 3)))
        elif k == 6:
            out.append(Query(rng.randrange(4), rng.randrange(4)))
        else:
            out.append(HALT)
    return tuple(out)
