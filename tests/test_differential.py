"""Differential test: the machine against a plain reference interpreter.

`run` compiles loops and INC runs into macro-ops that charge many steps in
one dispatch.  Here the whole `RunResult` (outcome, steps, trace) must equal
that of a one-instruction-per-step interpreter over Instruction tuples, on
random programs, on loop-shaped ones and on the blocks that load constants
in table realizers, at every fuel from 0 to two past the settle point.
"""

from __future__ import annotations

import random
from collections import defaultdict

from fanlab import machine
from fanlab.fan import load_constant_block
from fanlab.machine import (
    Answer, Blocked, Converged, Decjz, FnOracle, Inc, Instruction, Jmp, Oracle,
    OutOfFuel, Program, Query, QueryTrace, RunResult, encode_program, random_program,
    run,
)


def reference_run(program: Program, x: int, oracle: Oracle, fuel: int) -> RunResult:
    regs: defaultdict[int, int] = defaultdict(int)
    regs[0] = x
    pc = steps = 0
    entries: list[tuple[int, Answer]] = []
    while pc < len(program):
        if steps == fuel:
            trace = QueryTrace(tuple(entries))
            return RunResult(OutOfFuel(trace), steps, trace)
        ins = program[pc]
        steps += 1
        pc += 1
        if isinstance(ins, Inc):
            regs[ins.reg] += 1
        elif isinstance(ins, Decjz):
            if regs[ins.reg]:
                regs[ins.reg] -= 1
            else:
                pc = ins.target
        elif isinstance(ins, Jmp):
            pc = ins.target
        elif isinstance(ins, Query):
            q = regs[ins.src]
            ans = oracle.answer(q)
            if ans is Answer.BLOCKED:
                trace = QueryTrace(tuple(entries))
                return RunResult(Blocked(q, trace), steps, trace)
            regs[ins.dst] = int(ans is Answer.YES)
            entries.append((q, ans))
        else:
            break  # HALT
    trace = QueryTrace(tuple(entries))
    return RunResult(Converged(regs[0]), steps, trace)


ORACLE = FnOracle(lambda q: Answer.BLOCKED if q % 5 == 4 else (Answer.YES if q % 2 else Answer.NO))
SETTLE_CAP = 400      # runs not settled by then are swept up to UNSETTLED_SWEEP
UNSETTLED_SWEEP = 60


def loop_program(rng: random.Random) -> Program:
    """Random code around `h: DECJZ r x; INC a...; JMP h` or a self-loop at h.

    The exit x lands before, inside or past the body; INC registers repeat;
    one loop in eight puts r in the body, a near miss that is no macro-op.
    """
    prefix = list(random_program(rng, max_len=4))
    h = len(prefix)
    r = rng.randrange(4)
    kind = rng.randrange(10)
    if kind == 0:
        core: list[Instruction] = [Jmp(h)]
    elif kind == 1:
        core = [Decjz(r, h)]
    else:
        others = [a for a in range(4) if a != r or rng.randrange(8) == 0]
        body = [Inc(rng.choice(others)) for _ in range(rng.randrange(4))]
        k = len(body)
        x = rng.choice([
            rng.randrange(h + 1) if h else h + k + 2,  # before (or at the head's neighbour)
            h + 1 + rng.randrange(k + 1),              # inside the body, or its JMP
            h + k + 2 + rng.randrange(4),              # past the loop
        ])
        if x == h:
            x = h + k + 2
        core = [Decjz(r, x), *body, Jmp(h)]
    suffix = list(random_program(rng, max_len=4))
    return tuple(prefix + core + suffix)


def constant_load_program(rng: random.Random) -> Program:
    """Random code around a constant-loading block of one to three octal
    digits, so up to two multiplying loops.

    Registers start as the random prefix leaves them, so the block's loops
    also run from states it does not assume (r0 or scratch nonzero).
    """
    prefix = list(random_program(rng, max_len=4))
    block = load_constant_block(rng.randrange(80), len(prefix))
    suffix = list(random_program(rng, max_len=4))
    return tuple(prefix + block + suffix)


def assert_same_at_every_fuel(program: Program, x: int) -> RunResult:
    """Compare at every fuel; return the reference run at SETTLE_CAP."""
    code = encode_program(program)
    settled = reference_run(program, x, ORACLE, SETTLE_CAP)
    top = (settled.steps + 2 if not isinstance(settled.outcome, OutOfFuel)
           else UNSETTLED_SWEEP)
    for fuel in range(top + 1):
        expected = reference_run(program, x, ORACLE, fuel)
        assert run(code, x, ORACLE, fuel) == expected, (program, x, fuel)
    assert run(code, x, ORACLE, SETTLE_CAP) == settled, (program, x, SETTLE_CAP)
    return settled


def macro_ops(program: Program) -> set[int]:
    ops = machine._compile(program)[0]
    return {op for op in ops if op > machine._OP_HALT}


def test_random_programs_match_reference():
    rng = random.Random(20261017)
    seen: set[int] = set()
    for _ in range(400):
        program = random_program(rng)
        seen |= macro_ops(program)
        assert_same_at_every_fuel(program, rng.randrange(6))
    assert seen == {machine._OP_RUN, machine._OP_LOOP, machine._OP_SPIN, machine._OP_WAIT}


def test_loop_shaped_programs_match_reference():
    rng = random.Random(17)
    loops = 0
    for _ in range(1000):
        program = loop_program(rng)
        loops += machine._OP_LOOP in macro_ops(program)
        assert_same_at_every_fuel(program, rng.randrange(8))
    assert loops > 500  # most draws must really be accelerated loops


def test_constant_load_blocks_match_reference():
    rng = random.Random(5)
    loops = long_settled = 0
    for _ in range(300):
        program = constant_load_program(rng)
        loops += machine._OP_LOOP in macro_ops(program)
        settled = assert_same_at_every_fuel(program, rng.randrange(4))
        long_settled += settled.steps >= 50 and not isinstance(settled.outcome, OutOfFuel)
    assert loops > 200  # every value >= 8 makes a multiplying loop
    assert long_settled > 40  # swept at every fuel through whole loops
