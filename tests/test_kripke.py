"""Layered node oracles: slice freeze, blocking, persistence, slice access."""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from fanlab import kripke
from fanlab.kripke import (
    GroundReal,
    all_nodes,
    check_slice_access,
    layered_answer,
    node_oracle,
    parse_node,
    slice_probe_program,
)
from fanlab.machine import (
    BLOCK_ALL,
    Answer,
    Blocked,
    Converged,
    Decjz,
    DeciderPartial,
    FnOracle,
    Halt,
    Inc,
    Jmp,
    encode_program,
    evaluate,
    pair,
    random_program,
    run,
    unpair,
)

from helpers import max_slice_probe_program, mod_decider_program, query_loop_program

EVENS = GroundReal(pattern=(1, 0))
FAMILY = (
    EVENS,
    GroundReal(pattern=(0, 1)),
    GroundReal(pattern=(1,)),
    GroundReal(pattern=(0,)),
    GroundReal(pattern=(1, 1, 0)),
    GroundReal(pattern=(1, 0, 0, 1, 0)),
)


# ---------------------------------------------------------------------------
# Nodes and variations

def test_node_text_roundtrip():
    assert parse_node("") == ()
    assert parse_node("2,0,1") == (2, 0, 1)
    for node in all_nodes(3, 11):
        assert parse_node(",".join(map(str, node))) == node


def test_parse_node_rejects_junk():
    with pytest.raises(ValueError):
        parse_node("1,,2")
    with pytest.raises(ValueError):
        parse_node("a")
    with pytest.raises(ValueError):
        parse_node("0,0,-2")


def _flipped(entry: int, n: int = 6) -> frozenset[int]:
    """Elements s < n of slice 0 whose answer at node (entry,) differs from
    the ground real's: the flip set named by the entry."""
    return frozenset(
        s for s in range(n)
        if layered_answer(FAMILY, (entry,), pair(0, s)) != layered_answer(FAMILY, (0,), pair(0, s))
    )


def test_flip_set_examples():
    assert _flipped(0) == frozenset()
    assert _flipped(5) == frozenset({0, 2})
    assert _flipped(6) == frozenset({1, 2})


def test_flip_set_enumerates_finite_sets_bijectively():
    seen = {_flipped(i) for i in range(64)}
    assert len(seen) == 64
    # every subset of {0..5} appears
    assert frozenset({0, 1, 2, 3, 4, 5}) in seen


# ---------------------------------------------------------------------------
# layered_answer

def test_layered_answer_examples():
    assert layered_answer((EVENS,), (0,), pair(0, 4)) == Answer.YES
    assert layered_answer((EVENS,), (1,), pair(0, 0)) == Answer.NO


def test_root_blocks_everything():
    for q in range(200):
        assert layered_answer(FAMILY, (), q) == Answer.BLOCKED


def test_blocked_iff_slice_not_yet_fixed():
    for node in all_nodes(3, 2):
        for q in range(256):
            k, _ = unpair(q)
            ans = layered_answer(FAMILY, node, q)
            assert (ans == Answer.BLOCKED) == (k >= len(node))


def test_variation_flips_exactly_the_flip_set():
    for i in range(16):
        for s in range(12):
            base = layered_answer(FAMILY, (0,), pair(0, s))
            varied = layered_answer(FAMILY, (i,), pair(0, s))
            if (i >> s) & 1:  # the entry's binary digits name the flips
                assert varied != base
            else:
                assert varied == base


def test_variation_coverage():
    # For every slice and position, some variation contains it and some excludes it.
    for k in range(3):
        for s in range(10):
            answers = {
                layered_answer(FAMILY, tuple([0] * k) + (i,), pair(k, s))
                for i in (0, 1 << s)
            }
            assert answers == {Answer.YES, Answer.NO}


def test_slice_freeze_under_extension():
    for node in all_nodes(2, 2):
        for ext in all_nodes(2, 2):
            tau = node + ext
            for q in range(128):
                k, _ = unpair(q)
                if k < len(node):
                    assert layered_answer(FAMILY, node, q) == layered_answer(FAMILY, tau, q)


@given(st.integers(min_value=0, max_value=5000))
def test_layered_answer_is_total_three_valued(q):
    assert layered_answer(FAMILY, (1, 2, 0), q) in set(Answer)


# ---------------------------------------------------------------------------
# Ground reals

def test_pattern_real_repeats():
    real = GroundReal(pattern=(1, 1, 0))
    assert [real.contains(s) for s in range(6)] == [True, True, False, True, True, False]


def test_decider_real_matches_pattern_real():
    # parity decider: returns x mod 2, so "odd numbers" as a set
    parity = encode_program((Decjz(0, 4), Decjz(0, 3), Jmp(0), Inc(0)))
    odd = GroundReal(decider=parity)
    for s in range(20):
        assert odd.contains(s) == (s % 2 == 1)


def test_decider_real_surfaces_partiality():
    loop = GroundReal(decider=encode_program((Jmp(0),)), fuel=200)
    with pytest.raises(DeciderPartial):
        loop.contains(0)


def test_ground_real_requires_exactly_one_presentation():
    with pytest.raises(ValueError):
        GroundReal()
    with pytest.raises(ValueError):
        GroundReal(pattern=(1, 0), decider=76)
    with pytest.raises(ValueError):
        GroundReal(pattern=())
    with pytest.raises(ValueError):
        GroundReal(pattern=(2,))


# ---------------------------------------------------------------------------
# Oracles and persistence of computation

def test_no_query_program_ignores_node():
    e = encode_program((Inc(0), Halt()))
    for node in [(), (3,), (0, 1, 2)]:
        assert evaluate(e, 4, node_oracle(FAMILY, node), 100) == Converged(5)


def test_node_oracle_validates_depth():
    with pytest.raises(ValueError):
        node_oracle(FAMILY[:2], (0, 0, 0))


def test_slice_probe_blocked_below_depth():
    for k in range(3):
        probe = encode_program(slice_probe_program(k))
        for node in all_nodes(4, 3):
            out = evaluate(probe, 0, node_oracle(FAMILY, node), 10_000)
            if len(node) > k:
                assert isinstance(out, Converged)
            else:
                assert isinstance(out, Blocked)
                assert unpair(out.query)[0] == k


def test_persistence_of_computation_random():
    rand = random.Random(99)
    for _ in range(200):
        program = encode_program(random_program(rand))
        node = tuple(rand.randrange(4) for _ in range(rand.randrange(4)))
        child = node + (rand.randrange(4),)
        x = rand.randrange(8)
        here = evaluate(program, x, node_oracle(FAMILY, node), 2000)
        if isinstance(here, Converged):
            assert evaluate(program, x, node_oracle(FAMILY, child), 2000) == here


# ---------------------------------------------------------------------------
# check_slice_access

def test_slice_access_no_queries():
    e = encode_program((Inc(0), Halt()))
    report = check_slice_access(e, range(4), FAMILY, (1, 0))
    assert all(isinstance(row.outcome, Converged) for row in report.rows)
    assert all(row.slices == frozenset() for row in report.rows)
    assert report.lemma_holds


def test_slice_access_depth_gate_on_inputs():
    # Queries slice max(x, 1): at a length-2 node exactly x in {0, 1} settle.
    e = encode_program(max_slice_probe_program())
    report = check_slice_access(e, range(6), FAMILY, (0, 2))
    by_input = {row.input: row for row in report.rows}
    for x in range(6):
        row = by_input[x]
        expected_slice = max(x, 1)
        assert row.slices == frozenset({expected_slice})
        assert isinstance(row.outcome, Converged) == (expected_slice < 2)
    # Mixed convergence with out-of-depth slices on both sides of the biconditional.
    assert report.lemma_holds


def test_slice_access_all_within_depth():
    e = encode_program(max_slice_probe_program())
    report = check_slice_access(e, range(2), FAMILY, (0, 2))
    assert all(isinstance(r.outcome, Converged) for r in report.rows)
    assert report.lemma_holds


def test_slice_access_at_root():
    probe = encode_program(slice_probe_program(0))
    report = check_slice_access(probe, range(3), FAMILY, ())
    assert all(isinstance(r.outcome, Blocked) for r in report.rows)
    assert report.lemma_holds


# ---------------------------------------------------------------------------
# Memoised answers: a node oracle against plain layered_answer

QUERY_LOOP = encode_program(query_loop_program())


def _mixed_family(rng, size):
    """Pattern reals and mod-m decider reals; no two deciders share a code."""
    residues = [(mod, r) for mod in range(2, 6) for r in range(mod)]
    rng.shuffle(residues)
    family = []
    for _ in range(size):
        if rng.random() < 0.5:
            mod, r = residues.pop()
            family.append(GroundReal(decider=encode_program(mod_decider_program(mod, r))))
        else:
            pattern = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 6)))
            family.append(GroundReal(pattern=pattern))
    return tuple(family)


def _random_node(rng, family):
    return tuple(rng.getrandbits(8) for _ in range(rng.randrange(len(family) + 1)))


def _slices(res):
    slices = {unpair(q)[0] for q, _ in res.trace.entries}
    if isinstance(res.outcome, Blocked):
        slices.add(unpair(res.outcome.query)[0])
    return frozenset(slices)


@pytest.fixture
def decider_runs(monkeypatch):
    """(decider code, s) -> how many times kripke ran that decider on s."""
    calls = Counter()
    real = kripke.run_decider

    def counting(code, x, *args):
        calls[code, x] += 1
        return real(code, x, *args)

    monkeypatch.setattr(kripke, "run_decider", counting)
    return calls


def test_memoised_answers_match_layered_answer():
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(60):
        family = _mixed_family(rng, rng.randrange(1, 7))
        node = _random_node(rng, family)
        oracle = node_oracle(family, node)
        # Slices up to two past the node's length, so some asks are Blocked.
        pool = [pair(rng.randrange(len(node) + 3), rng.randrange(12)) for _ in range(20)]
        for q in (rng.choice(pool) for _ in range(80)):
            ans = oracle.answer(q)
            assert ans == layered_answer(family, node, q)
            seen[ans] += 1
    assert all(seen[a] > 100 for a in Answer)


def test_slice_access_matches_memo_free_oracle():
    rng = random.Random(7)
    for _ in range(25):
        family = _mixed_family(rng, rng.randrange(1, 7))
        node = _random_node(rng, family)
        plain = FnOracle(lambda q, family=family, node=node: layered_answer(family, node, q))
        warm = node_oracle(family, node)
        limit = pair(len(node), 0)  # the query loop's first Blocked code
        programs = [(QUERY_LOOP, [rng.randrange(limit + 4) for _ in range(8)])]
        programs += [(encode_program(random_program(rng)), [rng.randrange(6) for _ in range(8)])
                     for _ in range(6)]
        for code, inputs in programs:
            report = check_slice_access(code, inputs, family, node, fuel=2000)
            assert [r.input for r in report.rows] == inputs
            for x, row in zip(inputs, report.rows):
                ref = run(code, x, plain, 2000)
                assert (row.outcome, row.trace, row.slices) == (ref.outcome, ref.trace, _slices(ref))
                assert run(code, x, warm, 2000) == ref  # outcome, steps and trace


def test_slice_access_runs_each_decider_query_once(decider_runs):
    deciders = [GroundReal(decider=encode_program(mod_decider_program(mod, r)))
                for mod, r in ((2, 1), (3, 0), (4, 2), (5, 4))]
    family = (EVENS, deciders[0], GroundReal(pattern=(1, 1, 0)), *deciders[1:])
    node = (5, 0, 3, 9, 1, 2)
    limit = pair(len(node), 0)
    inputs = [limit // 2, limit, limit + 3, limit, 7, limit + 1]
    expected = Counter()
    for q in range(limit):
        k, s = unpair(q)
        if family[k].decider is not None:
            expected[family[k].decider, s] = 1
    report = check_slice_access(QUERY_LOOP, inputs, family, node)
    assert report.lemma_holds
    assert decider_runs == expected
    # Each report builds its own oracle, so a second one starts cold.
    check_slice_access(QUERY_LOOP, inputs, family, node)
    assert decider_runs == expected + expected


def test_decider_failures_are_not_memoised(decider_runs):
    loop = GroundReal(decider=encode_program((Jmp(0),)), fuel=200)
    oracle = node_oracle((loop,), (0,))
    for _ in range(3):
        with pytest.raises(DeciderPartial):
            oracle.answer(pair(0, 4))
    assert decider_runs == {(loop.decider, 4): 3}


def test_warm_oracle_keeps_equality_hash_and_repr():
    family = _mixed_family(random.Random(3), 6)
    node = (3, 1, 4, 1, 5, 9)
    cold, warm = node_oracle(family, node), node_oracle(family, node)
    for q in range(80):
        warm.answer(q)
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
