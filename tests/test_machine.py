"""Machine model: pairing, numbering, evaluation, currying."""

import random

import pytest
from hypothesis import given, strategies as st

from fanlab.machine import (
    BLOCK_ALL,
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

from helpers import table_oracle

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
    assert evaluate(e, 0, BLOCK_ALL, 100) == Blocked(9, QueryTrace())


def test_query_writes_answer_bit():
    yes = table_oracle({5: Answer.YES}, default=Answer.NO)
    e = encode_program(tuple(Inc(1) for _ in range(5)) + (Query(1, 0), Halt()))
    assert evaluate(e, 3, yes, 100) == Converged(1)
    e0 = encode_program(tuple(Inc(1) for _ in range(4)) + (Query(1, 0), Halt()))
    assert evaluate(e0, 3, yes, 100) == Converged(0)


def test_jump_past_end_halts():
    assert evaluate(encode_program((Jmp(99),)), 6, BLOCK_ALL, 10) == Converged(6)


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
        # Settled runs repeat identically at any larger budget,
        for extra in (1, 17, 3000):
            assert run(e, x, oracle, 3000 + extra).outcome == r.outcome
        # reproduce at exactly their step count,
        assert run(e, x, oracle, r.steps).outcome == r.outcome
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
    assert r.outcome == Blocked(2, QueryTrace(((0, Answer.YES), (1, Answer.NO))))
    assert r.trace.max_query == 1


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
    # The last two are take-8 sized: the prelude loops then run for hundreds
    # of thousands to millions of steps.
    for a, b in [(0, 0), (1, 0), (0, 1), (2, 3), (5, 2), (7, 7), (8, 255), (0, 1000)]:
        fuel = curry_overhead(a, b) + 10
        direct = run(76, pair(a, b), BLOCK_ALL, fuel)
        curried = run(curry(76, a), b, BLOCK_ALL, fuel)
        assert curried.outcome == direct.outcome
        assert curried.steps - direct.steps == curry_overhead(a, b)
        short = run(curry(76, a), b, BLOCK_ALL, curried.steps - 1)
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
            assert curried.outcome == direct.outcome


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
