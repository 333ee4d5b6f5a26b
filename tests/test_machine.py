"""Machine model: pairing, numbering, evaluation, currying, value types."""

import copy
import functools
import gc
import pickle
import random
import re

import pytest
from hypothesis import given, strategies as st

from fanlab import machine
from fanlab.fan import BarRealizer, PathOracle, RoutedOracle, UniformBound
from fanlab.kripke import GroundReal, SliceAccessReport, SliceAccessRow, node_oracle
from fanlab.machine import (
    BLOCK_ALL,
    DEFAULT_FUEL,
    Blocked,
    Converged,
    Decjz,
    DeciderPartial,
    FnOracle,
    HALT,
    Halt,
    Inc,
    Jmp,
    OutOfFuel,
    Answer,
    Query,
    QueryTrace,
    RunResult,
    curry,
    curry_overhead,
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
    evaluate,
    pair,
    random_program,
    run,
    run_decider,
    unpair,
)
from fanlab.trees import DecidableTree

from helpers import mod_decider_program, query_loop_program, table_oracle

naturals = st.integers(min_value=0)


# ---------------------------------------------------------------------------
# Pairing

def test_pair_base_cases():
    assert pair(0, 0) == 0
    assert unpair(0) == (0, 0)
    assert pair(1, 2) == 8


def test_pair_matches_diagonal_enumeration():
    # Cantor order: all (a, b) sorted by a+b, then by b.
    diagonal = sorted(
        ((a, b) for a in range(30) for b in range(30) if a + b < 30),
        key=lambda ab: (ab[0] + ab[1], ab[1]),
    )
    for index, (a, b) in enumerate(diagonal):
        assert pair(a, b) == index


@given(naturals, naturals)
def test_unpair_inverts_pair(a, b):
    assert unpair(pair(a, b)) == (a, b)


@given(naturals)
def test_pair_inverts_unpair(q):
    a, b = unpair(q)
    assert pair(a, b) == q


# ---------------------------------------------------------------------------
# Numbering

SAMPLE_PROGRAMS = [
    (),
    (Halt(),),
    (Inc(0), Halt()),
    (Decjz(0, 2), Jmp(0)),
    (Query(1, 0), Halt()),
    (Inc(3), Decjz(3, 0), Query(2, 2), Jmp(99), Halt()),
    tuple(Inc(i % 4) for i in range(50)) + (Halt(),),
]


@pytest.mark.parametrize("program", SAMPLE_PROGRAMS)
def test_decode_encode_roundtrip(program):
    assert decode_program(encode_program(program)) == program


def test_decode_zero_is_empty_program():
    assert decode_program(0) == ()


def test_known_codes_are_stable():
    # Regression freeze of the numbering itself.
    assert encode_program((Halt(),)) == 76
    assert encode_program((Decjz(0, 2), Jmp(0))) == 97458
    assert encode_program((Decjz(0, 2), Jmp(0), Inc(0))) == 144987


def test_out_of_range_instruction_tags_decode_to_halt():
    assert decode_instruction(pair(4, 0)) == Halt()
    assert decode_instruction(pair(7, 123)) == Halt()
    assert encode_instruction(Halt()) == pair(4, 0)


@pytest.mark.parametrize("junk", [None, 0, (0,), "INC r0", Halt])
def test_encode_instruction_rejects_non_instructions(junk):
    with pytest.raises(TypeError, match="not an instruction"):
        encode_instruction(junk)


@pytest.mark.parametrize("ins", [Decjz(-1, 0), Decjz(0, -1), Query(-1, 0), Query(0, -1),
                                 Inc(-1), Jmp(-2)])
def test_encode_instruction_rejects_negative_fields(ins):
    """Unrefused, Decjz(-1, 0) and Query(-1, 0) took the codes of their
    register-0 forms, and Inc(-1) and Jmp(-2) codes that nothing decodes."""
    with pytest.raises(ValueError, match=re.escape(repr(ins))):
        encode_instruction(ins)
    with pytest.raises(ValueError, match=re.escape(repr(ins))):
        encode_program((ins,))


@pytest.mark.parametrize("code", [-1, -3])
def test_decode_program_rejects_a_negative_code(code):
    with pytest.raises(ValueError, match=f"not a program code: {code}$"):
        decode_program(code)


@pytest.mark.parametrize("code", [-1, -3])
def test_decode_instruction_rejects_a_negative_code(code):
    """Unrefused, it failed inside `isqrt` with a message naming nothing."""
    with pytest.raises(ValueError, match=f"not an instruction code: {code}$"):
        decode_instruction(code)


def test_run_rejects_a_negative_code():
    with pytest.raises(ValueError, match="not a program code: -1$"):
        run(-1, 0)


def test_curry_rejects_a_negative_argument():
    with pytest.raises(ValueError, match="-1"):
        curry(76, -1)


def test_encode_after_decode_is_identity_on_canonical_codes():
    rng = random.Random(7)
    for _ in range(1000):
        canonical = encode_program(random_program(rng))
        assert encode_program(decode_program(canonical)) == canonical


@given(st.integers(min_value=0, max_value=10**12))
def test_decode_is_total_and_idempotent(code):
    program = decode_program(code)
    assert decode_program(encode_program(program)) == program


# ---------------------------------------------------------------------------
# Evaluation

def test_halt_is_identity():
    assert evaluate(encode_program((Halt(),)), 5, BLOCK_ALL, 10) == Converged(5)


def test_inc_then_halt():
    e = encode_program((Inc(0), Halt()))
    assert evaluate(e, 4, BLOCK_ALL, 10) == Converged(5)


def test_query_against_blocking_oracle():
    # r1 counts up to pair(0, 3) = 9, then queries it.
    e = encode_program(tuple(Inc(1) for _ in range(9)) + (Query(1, 0), Halt()))
    r = run(e, 0, BLOCK_ALL, 100)
    assert (r.outcome, r.trace) == (Blocked(9), QueryTrace())


def test_query_writes_answer_bit():
    yes = table_oracle({5: Answer.YES}, default=Answer.NO)
    e = encode_program(tuple(Inc(1) for _ in range(5)) + (Query(1, 0), Halt()))
    assert evaluate(e, 3, yes, 100) == Converged(1)
    e0 = encode_program(tuple(Inc(1) for _ in range(4)) + (Query(1, 0), Halt()))
    assert evaluate(e0, 3, yes, 100) == Converged(0)


def test_jump_past_end_halts():
    assert evaluate(encode_program((Jmp(99),)), 6, BLOCK_ALL, 10) == Converged(6)


def test_halt_compiles_to_a_jump_past_the_end():
    assert machine._compile((Inc(0), Halt())) == machine._compile((Inc(0), Jmp(2)))


def test_fuel_edges():
    e = encode_program((Halt(),))
    r = run(e, 5, BLOCK_ALL, 1)
    assert r.outcome == Converged(5) and r.steps == 1
    assert isinstance(evaluate(e, 5, BLOCK_ALL, 0), OutOfFuel)
    # The empty program needs no steps at all.
    assert evaluate(encode_program(()), 7, BLOCK_ALL, 0) == Converged(7)


def test_blocked_consumes_its_step():
    e = encode_program((Query(1, 0), Halt()))
    r = run(e, 0, BLOCK_ALL, 10)
    assert isinstance(r.outcome, Blocked) and r.steps == 1
    assert isinstance(evaluate(e, 0, BLOCK_ALL, 0), OutOfFuel)


def _parity_oracle() -> FnOracle:
    return FnOracle(lambda q: Answer.YES if q % 2 else Answer.NO)


def test_determinism_on_random_programs():
    rng = random.Random(123)
    oracle = _parity_oracle()
    for _ in range(300):
        e = encode_program(random_program(rng))
        x = rng.randrange(6)
        assert run(e, x, oracle, 3000) == run(e, x, oracle, 3000)


def test_fuel_monotonicity_and_exact_step_counts():
    rng = random.Random(456)
    oracle = _parity_oracle()
    settled = 0
    for _ in range(300):
        e = encode_program(random_program(rng))
        x = rng.randrange(6)
        r = run(e, x, oracle, 3000)
        if isinstance(r.outcome, OutOfFuel):
            continue
        settled += 1
        # Settled runs repeat identically, trace included, at any larger budget,
        for extra in (1, 17, 3000):
            again = run(e, x, oracle, 3000 + extra)
            assert (again.outcome, again.trace) == (r.outcome, r.trace)
        # reproduce at exactly their step count,
        exact = run(e, x, oracle, r.steps)
        assert (exact.outcome, exact.trace) == (r.outcome, r.trace)
        # and fall short one step earlier.
        if r.steps > 0:
            assert isinstance(evaluate(e, x, oracle, r.steps - 1), OutOfFuel)
    assert settled > 100  # the generator must exercise the settled path


def test_oracle_refinement_preserves_convergence():
    rng = random.Random(789)
    partial = table_oracle({q: Answer.YES for q in range(0, 40, 3)}, default=Answer.BLOCKED)
    refined = table_oracle({q: Answer.YES for q in range(0, 40, 3)}, default=Answer.NO)
    for _ in range(200):
        e = encode_program(random_program(rng))
        x = rng.randrange(6)
        r = evaluate(e, x, partial, 2000)
        if isinstance(r, Converged):
            assert evaluate(e, x, refined, 2000) == r


def test_trace_soundness():
    rng = random.Random(321)
    oracle = _parity_oracle()
    seen_traces = 0
    for _ in range(300):
        e = encode_program(random_program(rng))
        r = run(e, rng.randrange(6), oracle, 2000)
        for q, ans in r.trace.entries:
            assert oracle.answer(q) == ans
        if r.trace.entries:
            seen_traces += 1
            assert r.trace.max_query == max(q for q, _ in r.trace.entries)
        else:
            assert r.trace.max_query is None
    assert seen_traces > 20


def test_blocking_query_not_in_trace():
    # Answer q=0 and q=1, block q=2: trace holds the first two only.
    oracle = table_oracle({0: Answer.YES, 1: Answer.NO}, default=Answer.BLOCKED)
    e = encode_program((
        Query(1, 2), Inc(1), Query(1, 2), Inc(1), Query(1, 2), Halt(),
    ))
    r = run(e, 0, oracle, 100)
    assert r.outcome == Blocked(2)
    assert r.trace == QueryTrace.of(((0, Answer.YES), (1, Answer.NO)))
    assert r.trace.max_query == 1


# Short lists over small queries, so that equal traces occur as well as unequal ones.
answered = st.tuples(st.integers(0, 2) | naturals, st.sampled_from([Answer.YES, Answer.NO]))
pair_lists = st.lists(answered, max_size=4).map(tuple)


@given(pair_lists, pair_lists)
def test_query_trace_of_pairs_round_trips(pairs, other):
    trace = QueryTrace.of(pairs)
    assert trace.entries == pairs
    assert all(got is want for (_, got), (_, want) in zip(trace.entries, pairs))
    assert trace.max_query == max((q for q, _ in pairs), default=None)
    assert (trace == QueryTrace.of(other)) == (pairs == other)
    if pairs == other:
        assert hash(trace) == hash(QueryTrace.of(other))
    if not pairs:
        assert trace == machine._NO_QUERIES


def test_results_share_the_empty_trace_and_out_of_fuel():
    """A run that answered nothing gets the one empty trace, whatever its
    outcome, and every out-of-fuel run the one OutOfFuel(), in both engines."""
    results = []
    for program in ((Inc(0),), (Query(0, 1),), (Jmp(0),), (Jmp(1), Jmp(0))):
        tables = machine._compile(program)
        results += [machine._execute(tables, 3, BLOCK_ALL, 9),
                    machine._generate(tables)(3, BLOCK_ALL, 9)]
    assert all(r.trace is machine._NO_QUERIES for r in results)
    starved = [r.outcome for r in results if isinstance(r.outcome, OutOfFuel)]
    assert len(starved) == 4 and all(o is starved[0] for o in starved)


# ---------------------------------------------------------------------------
# application / curry

def test_apply_is_eval():
    assert evaluate(76, 7, BLOCK_ALL, 10) == Converged(7)


def test_apply_on_non_canonical_code():
    c = 10**9 + 7
    canon = encode_program(decode_program(c))
    assert evaluate(c, 3, BLOCK_ALL, 10**4) == evaluate(canon, 3, BLOCK_ALL, 10**4)


def test_curry_identity_example():
    assert evaluate(curry(76, 3), 4, BLOCK_ALL, 10**4) == Converged(pair(3, 4))
    assert pair(3, 4) == 32


def test_curry_total_on_small_codes():
    for e in range(0, 101, 10):
        for a in range(0, 101, 25):
            c = curry(e, a)
            assert encode_program(decode_program(c)) == c


def test_curry_overhead_formula_is_exact():
    # (8, 255) and (0, 1000) are take-8 sized: the prelude loops then run for
    # hundreds of thousands to millions of steps.  At b = 10**9 they run for
    # some 5 * 10**18, which only the series macro makes feasible: the prelude
    # runs it cold and as block code.
    cases = [(0, 0), (1, 0), (0, 1), (2, 3), (5, 2), (7, 7), (8, 255), (0, 1000),
             (0, 10**9), (3, 10**9), (8, 10**9)]
    for a, b in cases:
        fuel = curry_overhead(a, b) + 10
        direct = run(76, pair(a, b), BLOCK_ALL, fuel)
        code = curry(76, a)
        block_run = machine._generate(machine._compile(decode_program(code)))
        for engine in (functools.partial(run, code), block_run):
            curried = engine(b, BLOCK_ALL, fuel)
            assert (curried.outcome, curried.trace) == (direct.outcome, direct.trace)
            assert curried.steps - direct.steps == curry_overhead(a, b)
            short = engine(b, BLOCK_ALL, curried.steps - 1)
            assert isinstance(short.outcome, OutOfFuel)
            assert short.steps == curried.steps - 1


def test_curry_extensional_law_random():
    rng = random.Random(20260823)
    oracle = _parity_oracle()
    for _ in range(200):
        e = encode_program(random_program(rng))
        a, b = rng.randrange(20), rng.randrange(20)
        fuel = 10**4
        direct = run(e, pair(a, b), oracle, fuel)
        curried = run(curry(e, a), b, oracle, fuel + curry_overhead(a, b))
        assert type(curried.outcome) is type(direct.outcome)
        if not isinstance(direct.outcome, OutOfFuel):
            assert (curried.outcome, curried.trace) == (direct.outcome, direct.trace)


# ---------------------------------------------------------------------------
# Deciders

def test_run_decider_returns_value():
    assert run_decider(76, 9) == 9


def test_run_decider_raises_on_blocked():
    e = encode_program((Query(1, 0), Halt()))
    with pytest.raises(DeciderPartial):
        run_decider(e, 0)


def test_run_decider_raises_on_loop():
    e = encode_program((Jmp(0),))
    with pytest.raises(DeciderPartial):
        run_decider(e, 0, fuel=500)


def test_halt_constant_exported():
    assert HALT == Halt()


# ---------------------------------------------------------------------------
# Block compilation: hot programs run as generated code, cold ones do not

QUERY_LOOP = query_loop_program()
THIRDS = FnOracle(lambda q: Answer.NO if q % 3 == 0 else Answer.YES)


@pytest.fixture
def generated(monkeypatch) -> list:
    """Empties the run cache and records the tables of every block function
    generated."""
    made: list = []
    real = machine._generate

    def recording(tables):
        made.append(tables)
        return real(tables)

    monkeypatch.setattr(machine, "_generate", recording)
    machine._compiled_from_code.cache_clear()
    yield made
    machine._compiled_from_code.cache_clear()


def run_until_hot(code: int, x: int, oracle=THIRDS) -> None:
    entry = machine._compiled_from_code(code)
    while entry.fn is None:
        run(code, x, oracle)


def test_block_code_lives_in_the_run_cache_entry(generated):
    code = encode_program(QUERY_LOOP)
    run_until_hot(code, 100)
    tables = machine._compile(QUERY_LOOP)
    assert generated == [tables]
    machine._compiled_from_code.cache_clear()
    entry = machine._compiled_from_code(code)
    assert entry.fn is None and entry.dispatches == 0
    # Hotness counts dispatches: one per step, but one for the closing LOOP
    # that moves the 66 Yes answers into r0 in 66 * 3 + 1 steps.
    assert run(code, 100, THIRDS).steps == entry.dispatches + 66 * 3
    assert entry.fn is None  # interpreted again
    run_until_hot(code, 100)
    assert generated == [tables, tables]  # generated anew, not found in a cache
    caches = {name for name, value in vars(machine).items() if hasattr(value, "cache_clear")}
    assert caches == {"_compiled_from_code"}


def test_a_code_is_decoded_once_from_cold_to_hot(generated, monkeypatch):
    decoded: list[int] = []
    real = machine.decode_program

    def counting(code):
        decoded.append(code)
        return real(code)

    monkeypatch.setattr(machine, "decode_program", counting)
    code = encode_program(QUERY_LOOP)
    while not generated:
        run(code, 100, THIRDS)
    assert decoded == [code]  # block code is generated from the cached tables


def test_result_is_the_same_before_and_after_turning_hot(generated):
    code = encode_program(QUERY_LOOP)
    fuels = [0, 1, 5, 6, 7, 100, 304, 305, 419, 420, DEFAULT_FUEL]
    tables = machine._compile(QUERY_LOOP)
    before = [machine._execute(tables, 57, THIRDS, fuel) for fuel in fuels]
    assert [run(code, 57, THIRDS, fuel) for fuel in fuels[:6]] == before[:6]
    assert machine._compiled_from_code(code).fn is None
    run_until_hot(code, 57)
    assert [run(code, 57, THIRDS, fuel) for fuel in fuels] == before
    assert before[-1].outcome == Converged(38) and before[-1].steps == 420


def test_huge_register_numbers_in_block_code(generated):
    """Every integer is a register.  `_compile` numbers registers densely,
    so a register number with more digits than `int` will print still runs;
    the same result comes back when the program is cold and once it is hot."""
    big, bigger = 10**5000, 10**6000
    spin = (Inc(big), Jmp(0))
    code = encode_program(spin)
    tables = machine._compile(spin)
    assert tables[3] == 2
    expected = machine._execute(tables, 3, BLOCK_ALL, DEFAULT_FUEL)
    assert isinstance(expected.outcome, OutOfFuel)
    assert run(code, 3) == expected  # turns hot
    assert generated == [tables]
    assert run(code, 3) == expected
    assert run(code, 3, fuel=7) == machine._execute(tables, 3, BLOCK_ALL, 7)
    # Two LOOP macros around a query: r_big to r_bigger, then r_bigger to r0.
    moves = (Inc(big), Inc(big), Inc(big), Inc(0), Decjz(big, 7), Inc(bigger), Jmp(4),
             Query(0, 1), Decjz(bigger, 11), Inc(0), Jmp(8), HALT)
    tables = machine._compile(moves)
    assert tables[3] == 4  # r0, r1, r_big and r_bigger
    assert machine._OP_LOOP in tables[0]
    block_run = machine._generate(tables)
    for fuel in [*range(40), DEFAULT_FUEL]:
        assert block_run(5, THIRDS, fuel) == machine._execute(tables, 5, THIRDS, fuel)
    assert block_run(5, THIRDS, DEFAULT_FUEL).outcome == Converged(9)


def test_hot_program_rejects_negative_fuel(generated):
    code = encode_program(QUERY_LOOP)
    run_until_hot(code, 100)
    with pytest.raises(ValueError):
        run(code, 3, THIRDS, fuel=-1)


def test_run_rejects_a_negative_input(generated):
    """Inputs are naturals.  On -3 the transfer loop below would be charged
    -3 rounds, a negative step count, where stepping it one instruction at a
    time never ends; `run` refuses it, cold and hot."""
    code = encode_program((Decjz(0, 3), Inc(1), Jmp(0), HALT))
    with pytest.raises(ValueError):
        run(code, -3, fuel=50)
    run_until_hot(code, 100)
    assert generated
    with pytest.raises(ValueError):
        run(code, -3, fuel=50)


@pytest.mark.parametrize("hot", [False, True])
def test_answers_leave_nothing_for_the_collector(hot):
    """A trace is a list of queries and a bytearray of answer bits while it
    grows, so 5,000 answers add a handful of objects the cyclic collector
    tracks, not one per answer."""
    tables = machine._compile(QUERY_LOOP)
    engine = machine._generate(tables) if hot else functools.partial(machine._execute, tables)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects(0))
        res = engine(5_000, THIRDS, DEFAULT_FUEL)
        added = len(gc.get_objects(0)) - before
    finally:
        gc.enable()
    assert res.outcome == Converged(3_333) and len(res.trace.entries) == 5_000
    assert added < 100


def test_decider_partial_propagates_from_block_code(generated):
    from fanlab.kripke import GroundReal, node_oracle

    code = encode_program(QUERY_LOOP)
    run_until_hot(code, 100)
    spin = encode_program((Jmp(0),))
    family = (GroundReal(pattern=(1, 0)), GroundReal(decider=spin, fuel=50))
    oracle = node_oracle(family, (0, 0))
    with pytest.raises(DeciderPartial):
        run(code, 10, oracle)  # query 1 is pair(1, 0), in the decider's slice
    assert 1 not in oracle.answer.__self__  # the answer store behind the lookup


def test_encode_and_generate_leave_no_cycles():
    """Encoding and block generation free their scratch by reference
    counting alone: with the collector off, nothing is left for it."""
    prelude = machine.pairing_prelude(3)
    program = (*prelude, *machine.relocate(QUERY_LOOP, len(prelude)))
    tables = machine._compile(program)
    gc.collect()
    gc.disable()
    try:
        encode_program(program)
        machine._generate(tables)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cold_programs_stay_interpreted(generated, capsys):
    from fanlab import cli, fan

    rng = random.Random(1)
    program: tuple = ()
    while len(program) < 700:
        table = fan.random_bar_table(rng, depth=5, stop_prob=0.2)
        program = fan.compile_bar_table(table)
    bound = fan.extract_bound(fan.BarRealizer(encode_program(program)))
    assert fan.verify_uniform_bound(fan.table_bar(table), bound.n)
    assert cli.main(["kleene", "--depth", "105"]) == 0
    assert "level 105" in capsys.readouterr().out
    assert generated == []


def test_table_realizer_stays_cold_through_an_extraction(generated):
    """A depth-5 table realizer dispatches a few thousand times in a whole
    extraction, far below the 1,500 + 20 per instruction of turning hot."""
    from fanlab import fan

    rng = random.Random(2)
    program: tuple = ()
    while len(program) < 700:
        program = fan.compile_bar_table(fan.random_bar_table(rng, depth=5, stop_prob=0.2))
    code = encode_program(program)
    assert fan.extract_bound(fan.BarRealizer(code)).n == 5
    entry = machine._compiled_from_code(code)
    assert entry.fn is None and generated == []
    assert 2_000 < entry.dispatches < 4_000


def test_mod_decider_stays_cold_over_a_thousand_runs(generated):
    """Its countdown cycle is one LOOP dispatch, so a run takes 1-3
    dispatches however many steps it is charged."""
    code = encode_program(mod_decider_program(4, 1))
    for i in range(1_000):
        assert run(code, i % 101).outcome == Converged(int(i % 101 % 4 == 1))
    assert generated == []


def test_query_loop_turns_hot_in_its_first_long_run(generated):
    code = encode_program(QUERY_LOOP)
    res = run(code, 1_000, THIRDS)
    assert len(res.trace.queries) == 1_000
    assert machine._compiled_from_code(code).fn is not None
    assert generated == [machine._compile(QUERY_LOOP)]


# ---------------------------------------------------------------------------
# Value types: one instance of each, pinned to what the frozen dataclasses gave

ONES = GroundReal(pattern=(1,))
ROW = SliceAccessRow(0, Converged(1), frozenset({0}), QueryTrace((0,), b"\x01"))
PATH = PathOracle((1, 0))  # identity equality: routed copies compare by its head
VALUES = [
    (lambda: FnOracle(BLOCK_ALL.answer), ("fn",),
     "FnOracle(fn=<bound method _BlockAll.answer of BLOCK_ALL>)"),
    (lambda: Inc(3), ("reg",), "Inc(reg=3)"),
    (lambda: Decjz(1, 4), ("reg", "target"), "Decjz(reg=1, target=4)"),
    (lambda: Jmp(2), ("target",), "Jmp(target=2)"),
    (lambda: Query(0, 5), ("src", "dst"), "Query(src=0, dst=5)"),
    (lambda: Halt(), (), "Halt()"),
    (lambda: QueryTrace((4, 9), b"\x01\x00"), ("queries", "answers"),
     r"QueryTrace(queries=(4, 9), answers=b'\x01\x00')"),
    (lambda: Converged(3), ("value",), "Converged(value=3)"),
    (lambda: Blocked(3), ("query",), "Blocked(query=3)"),
    (lambda: OutOfFuel(), (), "OutOfFuel()"),
    (lambda: RunResult(Converged(3), 5, QueryTrace()), ("outcome", "steps", "trace"),
     "RunResult(outcome=Converged(value=3), steps=5, trace=QueryTrace(queries=(), answers=b''))"),
    (lambda: GroundReal(pattern=(1, 0)), ("pattern", "decider", "fuel"),
     "GroundReal(pattern=(1, 0), decider=None, fuel=100000)"),
    (lambda: node_oracle((ONES,), (2,)), ("family", "node"),
     "LayeredOracle(family=(GroundReal(pattern=(1,), decider=None, fuel=100000),), node=(2,))"),
    (lambda: ROW, ("input", "outcome", "slices", "trace"),
     r"SliceAccessRow(input=0, outcome=Converged(value=1), slices=frozenset({0}), "
     r"trace=QueryTrace(queries=(0,), answers=b'\x01'))"),
    (lambda: SliceAccessReport((1,), (ROW,)), ("node", "rows"),
     f"SliceAccessReport(node=(1,), rows=({ROW!r},))"),
    (lambda: RoutedOracle(BLOCK_ALL, PATH), ("base", "path"),
     f"RoutedOracle(base=BLOCK_ALL, path={PATH!r})"),
    (lambda: BarRealizer(7), ("code", "base_oracle", "fuel"),
     "BarRealizer(code=7, base_oracle=BLOCK_ALL, fuel=1000000)"),
    (lambda: UniformBound(0, {(): ()}, frozenset({()})),
     ("n", "certificate", "realizer_outputs"),
     "UniformBound(n=0, certificate={(): ()}, realizer_outputs=frozenset({()}))"),
    (lambda: DecidableTree(all), ("membership", "census"),
     "DecidableTree(membership=<built-in function all>, census=None)"),
]
UNHASHABLE = (UniformBound,)  # a dict among the fields


def _kept(value):
    """What a copy must keep: the value, or for a routed oracle its base and
    its path's head, since a copied PathOracle is a new object."""
    if type(value) is RoutedOracle:
        return value.base, value.path.head
    return value


@pytest.mark.parametrize("make, fields, text", VALUES,
                         ids=[text.partition("(")[0] for _, _, text in VALUES])
def test_value_semantics_are_pinned(make, fields, text):
    value, twin = make(), make()
    assert repr(value) == text
    assert type(value).__match_args__ == fields
    assert value == twin and not value != twin
    assert value != tuple(getattr(value, f) for f in fields)
    assert type(value)(**{f: getattr(value, f) for f in fields}) == value
    if type(value) in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(value) == hash(twin)
    for name in fields or ("x",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text
    for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(again) is type(value) and _kept(again) == _kept(value)


def test_equal_fields_of_different_types_are_unequal():
    assert Converged(3) != Blocked(3) and Blocked(3) != Converged(3)
    assert Inc(3) != Jmp(3) and Halt() != OutOfFuel()
    assert len({Converged(3), Blocked(3), Inc(3), Jmp(3), Halt(), OutOfFuel()}) == 6


@pytest.mark.parametrize("make", [make for make, _, _ in VALUES],
                         ids=[text.partition("(")[0] for _, _, text in VALUES])
def test_values_have_no_instance_dict(make):
    assert not hasattr(make(), "__dict__")


def test_block_all_copies_and_pickles_to_itself():
    assert copy.copy(BLOCK_ALL) is BLOCK_ALL and copy.deepcopy(BLOCK_ALL) is BLOCK_ALL
    assert pickle.loads(pickle.dumps(BLOCK_ALL)) is BLOCK_ALL


def test_a_copied_node_oracle_answers_from_its_own_store():
    oracle = node_oracle((ONES,), (2,))
    assert oracle.answer(pair(0, 1)) is Answer.NO  # entry 2 flips element 1
    for again in (copy.copy(oracle), copy.deepcopy(oracle), pickle.loads(pickle.dumps(oracle))):
        assert [again.answer(pair(0, s)) for s in range(3)] == [Answer.YES, Answer.NO, Answer.YES]
        assert again.answer(pair(1, 0)) is Answer.BLOCKED
