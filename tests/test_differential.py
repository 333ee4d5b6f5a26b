"""Differential test: the machine against a plain reference interpreter.

`run` compiles loops into macro-ops and runs of one register's INCs into
single dispatches, each charging many steps, and hot programs into generated
block functions.  Block code covers plain superblocks only and hands every
macro to the interpreter, so on programs with macros the sweeps check that
hand-over.  Here the whole `RunResult` (outcome, steps, trace) of both
paths must equal that of a one-instruction-per-step interpreter over
Instruction tuples, on random programs, on loop-shaped ones, on runs of INCs
entered at each position and on the blocks that load constants in table
realizers, at every fuel from 0 to two past the settle point.  The block
function is generated directly, whatever the program's hotness.
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import product
from pathlib import Path

from fanlab import machine
from fanlab.cli import parse_assembly
from fanlab.fan import (
    EXTRACTION_FUEL, PathOracle, RoutedOracle, load_constant_block, take_prefix_program,
)
from fanlab.machine import (
    BLOCK_ALL, HALT, Answer, Blocked, Converged, Decjz, FnOracle, Inc, Instruction, Jmp, Oracle,
    OutOfFuel, Program, Query, QueryTrace, RunResult, encode_program, random_program,
    run,
)
from fanlab.trees import bits_to_code

from helpers import mod_decider_program

ASM = Path(__file__).resolve().parents[1] / "scripts" / "asm"
PARITY_ASM = ASM / "parity.asm"
FIRST_ZERO_ASM = ASM / "first_zero.asm"


def reference_run(program: Program, x: int, oracle: Oracle, fuel: int) -> RunResult:
    regs: defaultdict[int, int] = defaultdict(int)
    regs[0] = x
    pc = steps = 0
    entries: list[tuple[int, Answer]] = []
    while pc < len(program):
        if steps == fuel:
            return RunResult(OutOfFuel(), steps, QueryTrace.of(entries))
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
                return RunResult(Blocked(q), steps, QueryTrace.of(entries))
            regs[ins.dst] = int(ans is Answer.YES)
            entries.append((q, ans))
        else:
            break  # HALT
    trace = QueryTrace.of(entries)
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


# Both engines run `_compile`'s tables, where registers are renumbered densely
# in order of first use.  The same program over huge, sparse register numbers
# must therefore give exactly the same results.

SPARSE = {0: 0, 1: 4097, 2: 10**40, 3: 5}


def relabel(program: Program, regs: dict[int, int]) -> Program:
    out: list[Instruction] = []
    for ins in program:
        match ins:
            case Inc(reg):
                out.append(Inc(regs[reg]))
            case Decjz(reg, target):
                out.append(Decjz(regs[reg], target))
            case Query(src, dst):
                out.append(Query(regs[src], regs[dst]))
            case _:
                out.append(ins)
    return tuple(out)


def assert_same_at_every_fuel(program: Program, x: int) -> RunResult:
    """Compare `run`, the interpreter and the block function at every fuel;
    return the reference run at SETTLE_CAP.  `run` may turn the program hot
    part-way through the sweep."""
    code = encode_program(program)
    tables = machine._compile(program)
    block_run = machine._generate(tables)
    settled = reference_run(program, x, ORACLE, SETTLE_CAP)
    top = (settled.steps + 2 if not isinstance(settled.outcome, OutOfFuel)
           else UNSETTLED_SWEEP)
    for fuel in [*range(top + 1), SETTLE_CAP]:
        expected = settled if fuel == SETTLE_CAP else reference_run(program, x, ORACLE, fuel)
        assert run(code, x, ORACLE, fuel) == expected, (program, x, fuel)
        assert machine._execute(tables, x, ORACLE, fuel) == expected, (program, x, fuel)
        assert block_run(x, ORACLE, fuel) == expected, (program, x, fuel, "block")
    return settled


def macro_ops(program: Program) -> set[int]:
    ops = machine._compile(program)[0]
    return {op for op in ops if op >= machine._OP_LOOP}


def test_random_programs_match_reference():
    rng = random.Random(20261017)
    seen: set[int] = set()
    for _ in range(400):
        program = random_program(rng)
        seen |= macro_ops(program)
        x = rng.randrange(6)
        settled = assert_same_at_every_fuel(program, x)
        assert assert_same_at_every_fuel(relabel(program, SPARSE), x) == settled
    assert seen == {machine._OP_LOOP, machine._OP_SPIN, machine._OP_WAIT}


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


# Named cases for the block function.  Each is swept at every fuel above and
# pins the one outcome that makes it interesting.

def block_result(program: Program, x: int, fuel: int) -> RunResult:
    return machine._generate(machine._compile(program))(x, ORACLE, fuel)


def test_empty_program_block_function():
    for x in range(3):
        assert_same_at_every_fuel((), x)
        assert block_result((), x, 0) == RunResult(Converged(x), 0, QueryTrace())


def test_self_waiting_decjz_reached_by_a_jump():
    """`DECJZ r1 3` at 3 is entered only by jumps, never by falling through,
    so 3 must be a dispatch head of its own.  In the first program the jumps
    are a JMP and a DECJZ; in the second, the exit of a LOOP macro."""
    program = (Inc(1), Jmp(3), Inc(2), Decjz(1, 3), Inc(0), Query(0, 2), Decjz(2, 3), HALT)
    behind_loop = (Decjz(0, 3), Inc(1), Jmp(0), Decjz(1, 3), Inc(0), Query(0, 2), HALT)
    for x in range(4):
        assert_same_at_every_fuel(program, x)
        assert_same_at_every_fuel(behind_loop, x)
    # x = 1 asks 2, is told No, jumps back to 3 with r1 empty and waits there.
    trace = QueryTrace.of(((2, Answer.NO),))
    assert block_result(program, 1, 50) == RunResult(OutOfFuel(), 50, trace)
    assert block_result(program, 0, 50) == RunResult(
        Converged(1), 7, QueryTrace.of(((1, Answer.YES),)))


def test_query_blocking_inside_a_superblock():
    """The second query blocks after 7 of the superblock's 9 steps."""
    program = (*[Inc(1)] * 4, Query(0, 2), Inc(3), Query(1, 2), Inc(0), HALT)
    assert_same_at_every_fuel(program, 1)
    trace = QueryTrace.of(((1, Answer.YES),))
    assert block_result(program, 1, 100) == RunResult(Blocked(4), 7, trace)


def test_superblock_crossing_the_budget():
    """A 10-step superblock started with 5 steps left hands over to the
    interpreter, which stops at exactly 5 with the trace so far."""
    program = (Query(0, 1), *[Inc(2)] * 8, HALT)
    assert_same_at_every_fuel(program, 2)
    trace = QueryTrace.of(((2, Answer.NO),))
    assert block_result(program, 2, 5) == RunResult(OutOfFuel(), 5, trace)
    assert block_result(program, 2, 10) == RunResult(Converged(2), 10, trace)


def test_loop_block_rounds_crossing_the_budget():
    """A LOOP of 10 rounds costs 31 steps; after one query, 20 steps end
    inside it."""
    program = (Query(0, 2), Decjz(0, 4), Inc(1), Jmp(1), HALT)
    assert machine._compile(program)[0][1] == machine._OP_LOOP
    assert_same_at_every_fuel(program, 10)
    trace = QueryTrace.of(((10, Answer.NO),))
    assert block_result(program, 10, 20) == RunResult(OutOfFuel(), 20, trace)
    assert block_result(program, 10, 33) == RunResult(Converged(0), 33, trace)


# Countdown cycles `h: DECJZ r x0; ...; DECJZ r x(m-1); INC a...; JMP h`, all of
# them at small scope: m <= 3 tests of r0, bodies of 0-2 INCs, and each exit
# before the head, inside the cycle, just after it or past the end.  After
# the cycle a transfer loop adds r1 to r0, so the output shows what the body
# counted, and the INC r1 before the head counts how often it was entered.

CYCLE_BODIES = ((), (1,), (1, 1))
CYCLE_SETTLE_CAP = 100  # the longest of these runs that settles takes 56 steps


def countdown_cycles():
    h = 1
    for m in (1, 2, 3):
        for body in CYCLE_BODIES:
            after = h + m + len(body) + 1
            n = after + 3
            for exits in product(range(4), repeat=m):
                targets = [(0, h + i + 1, after, n + 2)[e] for i, e in enumerate(exits)]
                yield m, (Inc(1), *(Decjz(0, x) for x in targets), *(Inc(a) for a in body),
                          Jmp(h), Decjz(1, n), Inc(0), Jmp(after))


def test_countdown_cycles_match_reference_at_every_fuel():
    """Both engines against the reference, on inputs 0..3m+2 and at every fuel
    up to two past the settle point.  A run that never settles is swept
    through its countdown and one more round; it then only repeats exits
    that r0 = 0 takes.  The programs ask nothing, so below the settle point
    the reference result is OutOfFuel at exactly that fuel."""
    programs = 0
    for m, program in countdown_cycles():
        tables = machine._compile(program)
        assert tables[0][1] == machine._OP_LOOP, program
        per_round = tables[2][1][1]
        block_run = machine._generate(tables)
        for x in range(3 * m + 3):
            settled = reference_run(program, x, ORACLE, CYCLE_SETTLE_CAP)
            top = (settled.steps + 2 if not isinstance(settled.outcome, OutOfFuel)
                   else (x // m + 2) * per_round + m + 1)
            for fuel in range(top + 1):
                expected = (settled if fuel >= settled.steps else
                            RunResult(OutOfFuel(), fuel, QueryTrace()))
                assert machine._execute(tables, x, ORACLE, fuel) == expected, (program, x, fuel)
                assert block_run(x, ORACLE, fuel) == expected, (program, x, fuel, "block")
        programs += 1
    assert programs == 3 * (4 + 16 + 64)


def test_near_miss_cycles_stay_single_steps():
    """A second test of another register, a test that jumps to itself or r0
    in the body: no LOOP at the head, and still the reference's results."""
    for second, body in ((Decjz(1, 6), (Inc(2),)), (Decjz(0, 2), (Inc(2),)),
                         (Decjz(0, 6), (Inc(0),))):
        program = (Inc(1), Decjz(0, 6), second, *body, Jmp(1), Inc(0))
        assert machine._compile(program)[0][1] != machine._OP_LOOP, program
        for x in range(6):
            assert_same_at_every_fuel(program, x)


def test_countdown_heads_compile_to_loop():
    parity = parse_assembly(PARITY_ASM.read_text())
    assert machine._compile(parity)[0][0] == machine._OP_LOOP
    for mod in range(1, 7):
        for residue in range(mod):
            ops, _, arg2, _ = machine._compile(mod_decider_program(mod, residue))
            assert ops[0] == machine._OP_LOOP
            assert len(arg2[0][0]) == mod  # one exit per test of the cycle


def test_parity_runs_ten_million_rounds_in_one_dispatch():
    code = encode_program(parse_assembly(PARITY_ASM.read_text()))
    res = run(code, 10**7 + 1, fuel=2 * 10**7)
    assert (res.outcome, res.steps) == (Converged(1), 15_000_003)


# Series cycles `h: DECJZ r0 x; INC a...; L1; L2` at small scope, in both
# forms: t = r0, where L1 moves the counter itself out through u = r2 and L2
# moves it back, and t = r1, which gains the head's INCs of r1 each round.
# Before the head, INCs preset t (the first summand) and u; a preset u is not
# the state the rounds assume, so the macro takes one plain step.  After the
# cycle, transfer loops add r1, r3 and r4 to r0, so the output shows what
# the rounds counted.

SERIES_HEADS = {0: ((), (1,), (3,), (1, 3)), 1: ((), (1,), (1, 1), (3,), (1, 3))}
SERIES_MOVED = ((), (3,), (3, 3), (3, 4, 4))  # L1's INCs besides u


def series_program(t: int, head, l1_body, l2_body, pre=(), to=None) -> tuple[int, Program]:
    """`pre` INCs, then h: DECJZ r0 x; INC head...; L1: DECJZ t L2; INC
    l1_body...; JMP L1; L2: DECJZ r2 to; INC l2_body...; JMP L2; and at x the
    transfer loops.  `to` defaults to h.  Returns h and the program."""
    h = len(pre)
    l1 = h + 1 + len(head)
    l2 = l1 + len(l1_body) + 2
    x = l2 + len(l2_body) + 2
    return h, (*(Inc(a) for a in pre),
               Decjz(0, x), *(Inc(a) for a in head),
               Decjz(t, l2), *(Inc(a) for a in l1_body), Jmp(l1),
               Decjz(2, h if to is None else to), *(Inc(a) for a in l2_body), Jmp(l2),
               Decjz(1, x + 3), Inc(0), Jmp(x),
               Decjz(3, x + 6), Inc(0), Jmp(x + 3),
               Decjz(4, x + 9), Inc(0), Jmp(x + 6))


def series_cycles():
    for t, heads in SERIES_HEADS.items():
        for head, moved in product(heads, SERIES_MOVED):
            for w0 in (range(4) if t else (0,)):
                for u0 in (0, 1):
                    yield series_program(t, head, (2, *moved), (t,), (t,) * w0 + (2,) * u0)


def test_series_cycles_match_reference_at_every_fuel():
    """Both engines against the reference, on inputs 0..5 and at every fuel
    up to one past the settle point.  Every run settles and asks nothing,
    so below the settle point the reference result is OutOfFuel at exactly
    that fuel."""
    programs = 0
    for h, program in series_cycles():
        tables = machine._compile(program)
        assert tables[0][h] == machine._OP_SERIES, program
        block_run = machine._generate(tables)
        for x in range(6):
            settled = reference_run(program, x, ORACLE, 10**4)
            assert isinstance(settled.outcome, Converged)
            for fuel in range(settled.steps + 2):
                expected = (settled if fuel >= settled.steps else
                            RunResult(OutOfFuel(), fuel, QueryTrace()))
                assert machine._execute(tables, x, ORACLE, fuel) == expected, (program, x, fuel)
                assert block_run(x, ORACLE, fuel) == expected, (program, x, fuel, "block")
        programs += 1
    assert programs == 2 * 4 * 4 + 4 * 5 * 4 * 2


def test_series_heads_compile_to_one_series():
    first_zero = parse_assembly(FIRST_ZERO_ASM.read_text())
    programs = [*(machine.pairing_prelude(a) for a in range(9)),
                *(take_prefix_program(k) for k in range(1, 9)), first_zero]
    for program in programs:
        assert machine._compile(program)[0].count(machine._OP_SERIES) == 1, program


def test_near_miss_series_stay_decjz_and_loops():
    """L2 adding to another register, u or r among the head INCs, L2 exiting
    elsewhere than h, or u counted twice in L1: no SERIES, the head stays a
    plain DECJZ, L1 and L2 stay LOOPs, and the results are the reference's."""
    h, program = series_program(1, (1,), (2, 3), (1,), (1,))
    assert machine._compile(program)[0][h] == machine._OP_SERIES  # each miss changes one thing
    near_misses = [
        series_program(1, (1,), (2, 3), (1, 3), (1,)),
        series_program(1, (2,), (2, 3), (1,), (1,)),
        series_program(1, (0,), (2, 3), (1,), (1,)),
        series_program(1, (1,), (2, 3), (1,), (1,), to=0),
        series_program(1, (1,), (2, 2, 3), (1,), (1,)),
    ]
    for h, program in near_misses:
        ops = machine._compile(program)[0]
        assert machine._OP_SERIES not in ops, program
        assert ops[h] == machine._OP_DECJZ and ops.count(machine._OP_LOOP) == 5, program
        for x in range(4):
            assert_same_at_every_fuel(program, x)


# Runs of INCs of one register.  `_compile` counts a run of k INCs in the
# table slot of its first INC, every other INC holding 1, and the interpreter
# adds the k in one dispatch that charges k steps.  Each run below is 1-6
# INCs of r0 and r1, of one register or alternating; a DECJZ or a JMP before
# it lands on each of its positions; and it ends the program, or a QUERY
# follows it, alone or before a test that jumps back to the start.

def inc_runs():
    for k in range(1, 7):
        same = {(a,) * k for a in (0, 1)}
        alternating = {tuple((a + i) % 2 for i in range(k)) for a in (0, 1)}
        yield from sorted(same | alternating)


def inc_run_programs():
    for regs in inc_runs():
        k = len(regs)
        for p in range(k):
            for jump in (Decjz(0, 1 + p), Jmp(1 + p)):
                for after in ((), (Query(0, 2),), (Query(0, 2), Decjz(2, k + 4), Jmp(0))):
                    yield (jump, *(Inc(a) for a in regs), *after)


def test_inc_runs_are_counted_at_their_first_inc():
    program = (Inc(0), Inc(0), Inc(1), Inc(1), Inc(1), Jmp(0), Inc(0), Inc(1), Inc(0), HALT)
    ops, _, arg2, _ = machine._compile(program)
    assert ops[:5] == (machine._OP_INC,) * 5 and ops[6:9] == (machine._OP_INC,) * 3
    assert arg2[:5] == (2, 1, 3, 1, 1) and arg2[6:9] == (1, 1, 1)


def test_inc_runs_match_reference_at_every_fuel():
    """`run`, the interpreter and the block function against the reference,
    on inputs 0-2 and at every fuel up to two past the settle point."""
    programs = 0
    for program in inc_run_programs():
        for x in range(3):
            assert_same_at_every_fuel(program, x)
        programs += 1
    assert programs == 2 * 3 * (2 * 1 + 4 * (2 + 3 + 4 + 5 + 6))  # jumps, ends, k per run


def test_take_8_climbs_the_path_in_a_few_dispatches():
    """take-8 reaches each path query through a run of INCs: on the path 1^8
    its 348,566 steps are 37 dispatches, on 0^8 its 491 steps 29."""
    program = take_prefix_program(8)
    tables = machine._compile(program)
    for head, steps, dispatches in (((1,) * 8, 348_566, 37), ((0,) * 8, 491, 29)):
        oracle = RoutedOracle(BLOCK_ALL, PathOracle(head))
        entry = machine._Entry(tables)
        res = machine._execute(tables, 0, oracle, EXTRACTION_FUEL, None, entry)
        assert res == reference_run(program, 0, oracle, EXTRACTION_FUEL)
        assert (res.steps, entry.dispatches) == (steps, dispatches)
        assert res.outcome == Converged(bits_to_code(head))
