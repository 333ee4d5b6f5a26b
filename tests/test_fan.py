"""Path oracles, bar realizers, and uniform-bound extraction."""

import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fanlab.cli import parse_assembly
from fanlab.fan import (
    BarRealizer,
    CoverSet,
    ExtractionExhausted,
    LOAD_SCRATCH,
    PATH_SLICE,
    PathOracle,
    RealizerFailed,
    RoutedOracle,
    apply_realizer_to_path,
    compile_bar_table,
    depth_bar,
    extract_bound,
    first_bit_split_program,
    load_constant_block,
    random_bar_table,
    table_bar,
    take_prefix_program,
    verify_uniform_bound,
)
from fanlab.machine import (
    BLOCK_ALL,
    Answer,
    Converged,
    Decjz,
    Halt,
    Inc,
    Jmp,
    Query,
    encode_program,
    pair,
    relocate,
    run,
)
from fanlab.kripke import GroundReal, node_oracle
from fanlab.trees import bits_to_code, format_bits

from helpers import (
    covering_tables,
    extraction_result,
    lookahead_realizer_program,
    plain_uncovered,
    reference_apply_realizer_to_path,
    reference_extract_bound,
    table_oracle,
)

ASM_DIR = Path(__file__).resolve().parents[1] / "scripts" / "asm"
EMPTY_REALIZER = encode_program(())
TAKE3 = encode_program(take_prefix_program(3))
TAKE5 = encode_program(take_prefix_program(5))
SPLIT = encode_program(first_bit_split_program())


# ---------------------------------------------------------------------------
# Path oracle and routing

def test_path_oracle_reads_and_use():
    path = PathOracle((1, 0, 1))
    assert [path.read(j) for j in range(5)] == [1, 0, 1, 0, 0]
    assert path.head == (1, 0, 1)  # reading leaves the path as it was
    assert apply_realizer_to_path(BarRealizer(EMPTY_REALIZER), path) == ((), 0)
    assert apply_realizer_to_path(BarRealizer(TAKE5), path) == ((1, 0, 1, 0, 0), 5)


def test_output_check_reads_no_path_bit():
    """A realizer that reads nothing and answers 11: the output is checked
    against two positions of the path, and its use stays 0."""
    ones = encode_program(load_constant_block(bits_to_code((1, 1)), 0))
    path = PathOracle((1, 1))
    assert apply_realizer_to_path(BarRealizer(ones), path) == ((1, 1), 0)


def test_use_is_one_past_largest_position():
    """Position 3 read before position 0: use is 4."""
    q3, q0 = pair(PATH_SLICE, 3), pair(PATH_SLICE, 0)
    program = (*[Inc(1)] * q3, Query(1, 2), *[Inc(3)] * q0, Query(3, 2))
    bits, use = apply_realizer_to_path(BarRealizer(encode_program(program)),
                                       PathOracle((0, 1, 0, 1)))
    assert (bits, use) == ((), 4)


def test_routed_oracle_splits_channels():
    base = table_oracle({5: Answer.YES}, default=Answer.BLOCKED)
    path = PathOracle((1,))
    routed = RoutedOracle(base, path)
    assert routed.answer(pair(PATH_SLICE, 0)) == Answer.YES
    assert routed.answer(pair(PATH_SLICE, 1)) == Answer.NO
    assert routed.answer(5) == Answer.YES
    assert routed.answer(6) == Answer.BLOCKED


def test_bar_realizer_refuses_negative_fuel():
    """Unrefused, the first stage failed in `run` with a message naming
    neither the field nor its value."""
    with pytest.raises(ValueError, match="^fuel must be a natural number, not -2$"):
        BarRealizer(SPLIT, fuel=-2)
    assert BarRealizer(SPLIT, fuel=0).fuel == 0


def test_bar_realizer_rejects_a_node_that_reaches_the_path_slice():
    family = (GroundReal(pattern=(1, 0)),) * (PATH_SLICE + 2)
    with pytest.raises(ValueError, match="reaches path slice 8"):
        BarRealizer(SPLIT, node_oracle(family, (0,) * (PATH_SLICE + 1)))
    # One slice short of it, the node answers below the path and the path
    # still answers on its own slice.
    realizer = BarRealizer(SPLIT, node_oracle(family, (0,) * PATH_SLICE))
    assert extract_bound(realizer).n == 2
    routed = RoutedOracle(realizer.base_oracle, PathOracle((1,)))
    assert routed.answer(pair(PATH_SLICE - 1, 0)) == Answer.YES
    assert routed.answer(pair(PATH_SLICE, 0)) == Answer.YES
    assert routed.answer(pair(PATH_SLICE, 1)) == Answer.NO


# ---------------------------------------------------------------------------
# Applying realizers

def test_take_prefix_realizer():
    bits, use = apply_realizer_to_path(
        BarRealizer(TAKE3), PathOracle((1, 0, 1))
    )
    assert bits == (1, 0, 1)
    assert use == 3


def test_empty_realizer():
    bits, use = apply_realizer_to_path(
        BarRealizer(EMPTY_REALIZER), PathOracle(())
    )
    assert bits == () and use == 0


def test_non_prefix_output_is_invalid():
    # Always returns the code of 11, wrong on an all-zeros path.
    ones = encode_program(tuple(Inc(0) for _ in range(bits_to_code((1, 1)))))
    with pytest.raises(RealizerFailed) as info:
        apply_realizer_to_path(BarRealizer(ones), PathOracle(()))
    assert info.value.reason == "invalid realizer output (1, 1) differs from the path at position 0"
    assert info.value.steps == bits_to_code((1, 1))


@pytest.mark.parametrize("head, out, j", [((), (0, 0, 1), 2), ((1, 0), (1, 1), 1),
                                          ((0, 1, 1), (1,), 0), ((1,), (1, 0, 0, 1), 3)])
def test_invalid_output_names_the_first_differing_position(head, out, j):
    """The head, then zeros: positions past the head compare with 0."""
    code = encode_program(load_constant_block(bits_to_code(out), 0))
    with pytest.raises(RealizerFailed) as info:
        apply_realizer_to_path(BarRealizer(code), PathOracle(head))
    reason = f"invalid realizer output {out} differs from the path at position {j}"
    assert info.value.reason == str(info.value) == reason


def test_non_sequence_output_is_invalid():
    bad_code = pair(1, 5)  # length 1, value 5: not canonical
    bad = encode_program(tuple(Inc(0) for _ in range(bad_code)))
    with pytest.raises(RealizerFailed) as info:
        apply_realizer_to_path(BarRealizer(bad), PathOracle((1,)))
    assert info.value.reason == "invalid realizer output 26 is not a sequence code"
    assert info.value.steps == 26


def test_node_queries_propagate_blocked():
    asks_base = encode_program((Query(1, 0),))  # query 0 goes to the base oracle
    with pytest.raises(RealizerFailed) as info:
        apply_realizer_to_path(BarRealizer(asks_base), PathOracle(()))
    assert (info.value.reason, info.value.steps) == ("realizer blocked query 0", 1)


def test_realizer_fuel_exhaustion():
    loop = encode_program((Jmp(0),))
    with pytest.raises(RealizerFailed) as info:
        apply_realizer_to_path(BarRealizer(loop, fuel=100), PathOracle(()))
    assert (info.value.reason, info.value.steps) == ("realizer fuel", 100)


def test_split_realizer_on_both_heads():
    bits, use = apply_realizer_to_path(BarRealizer(SPLIT), PathOracle((0,)))
    assert bits == (0,) and use == 1
    bits, use = apply_realizer_to_path(BarRealizer(SPLIT), PathOracle((1,)))
    assert bits == (1, 0) and use == 2
    bits, _ = apply_realizer_to_path(BarRealizer(SPLIT), PathOracle((1, 1)))
    assert bits == (1, 1)


def assert_use_matches_reference(realizer, heads):
    for head in heads:
        got = apply_realizer_to_path(realizer, PathOracle(head))
        assert got == reference_apply_realizer_to_path(realizer, head), head


def heads_up_to(length: int):
    return (head for n in range(length + 1) for head in product((0, 1), repeat=n))


def test_use_matches_the_reference_on_take_prefix_realizers():
    """The largest query reads the path: use is its position + 1."""
    for k in range(1, 9):
        realizer = BarRealizer(encode_program(take_prefix_program(k)))
        assert_use_matches_reference(realizer, heads_up_to(9))
        assert apply_realizer_to_path(realizer, PathOracle((1,) * 9))[1] == k


def test_use_matches_the_reference_on_first_zero():
    assert_use_matches_reference(asm_realizer("first_zero.asm"), heads_up_to(9))


def test_use_matches_the_reference_on_every_small_table():
    for table in covering_tables(3):
        realizer = BarRealizer(encode_program(compile_bar_table(table)))
        assert_use_matches_reference(realizer, heads_up_to(4))


def test_use_matches_the_reference_without_queries():
    assert_use_matches_reference(BarRealizer(EMPTY_REALIZER), heads_up_to(3))


def test_use_counts_only_path_queries():
    """Path bit 0 is read (query pair(8, 0) = 36), then the base oracle is
    asked pair(0, 9) = 54: the largest query is not a path query, and use
    is 1."""
    assert (pair(PATH_SLICE, 0), pair(0, 9)) == (36, 54)
    program = (*[Inc(1)] * 36, Query(1, 2), *[Inc(1)] * 18, Query(1, 2))
    realizer = BarRealizer(encode_program(program), table_oracle({54: Answer.YES}))
    assert_use_matches_reference(realizer, [(0,), (1,)])
    assert apply_realizer_to_path(realizer, PathOracle((1,))) == ((), 1)


# ---------------------------------------------------------------------------
# Cover sets

def test_cover_set_prefix_semantics():
    cover = CoverSet()
    cover.commit((0, 1))
    assert cover.covers((0, 1)) and cover.covers((0, 1, 1, 0))
    assert not cover.covers((0,)) and not cover.covers((1, 1))
    assert cover.covering_prefix((0, 1, 0)) == (0, 1)
    assert cover.covering_prefix((1,)) is None


def test_cover_set_shortest_prefix_and_dedupe():
    cover = CoverSet()
    cover.commit((0, 1, 1))
    cover.commit((0,))
    cover.commit((0, 1, 1))
    assert cover.covering_prefix((0, 1, 1)) == (0,)
    assert cover.covering_prefix((1, 1, 1)) is None
    assert cover.uncovered(1) == ((1,),)
    assert cover.uncovered(3) == ((1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))


def test_cover_set_uncovered_census():
    cover = CoverSet()
    cover.commit((1,))
    assert cover.uncovered(2) == ((0, 0), (0, 1))


sequences = st.lists(st.integers(0, 1), max_size=5).map(tuple)


@given(st.lists(sequences, max_size=12))
def test_cover_set_frontier_walk_equals_the_plain_scan(commits):
    cover = CoverSet()
    for bits in commits:
        cover.commit(bits)
    for n in range(7):
        assert cover.uncovered(n) == plain_uncovered(set(commits), n), n


# ---------------------------------------------------------------------------
# Extraction

def test_bound_zero_for_empty_sequence_realizer():
    bound = extract_bound(BarRealizer(EMPTY_REALIZER))
    assert bound.n == 0
    assert bound.certificate == {(): ()}
    assert bound.realizer_outputs == frozenset({()})


def test_bound_three_for_take_prefix_realizer():
    bound = extract_bound(BarRealizer(TAKE3))
    assert bound.n == 3
    assert set(bound.certificate) == set(product((0, 1), repeat=3))
    # Every length-3 sequence is its own certificate here.
    assert all(cert == bits for bits, cert in bound.certificate.items())


def test_bound_two_for_split_realizer():
    bound = extract_bound(BarRealizer(SPLIT))
    assert bound.n == 2
    assert bound.certificate == {
        (0, 0): (0,), (0, 1): (0,), (1, 0): (1, 0), (1, 1): (1, 1),
    }


def test_certificates_are_prefixes():
    for code in (EMPTY_REALIZER, TAKE3, SPLIT):
        bound = extract_bound(BarRealizer(code))
        for bits, cert in bound.certificate.items():
            assert len(bits) == bound.n
            assert bits[: len(cert)] == cert


def test_extraction_stage_limit_reports_uncovered():
    take5 = encode_program(take_prefix_program(5))
    with pytest.raises(ExtractionExhausted) as info:
        extract_bound(BarRealizer(take5), n_max=3)
    exc = info.value
    assert exc.reason == "stage limit" and exc.stage == 3
    assert exc.sequence is None and exc.steps is None
    assert str(exc) == "no uniform bound by stage 3 (8 uncovered, stage limit)"
    # The diagnostic census must match a brute-force recount.
    assert exc.uncovered == tuple(product((0, 1), repeat=3))


def test_extraction_fuel_exhaustion_reports_stage():
    loop = encode_program((Jmp(0),))
    with pytest.raises(ExtractionExhausted) as info:
        extract_bound(BarRealizer(loop, fuel=300))
    assert info.value.reason == "realizer fuel"
    assert info.value.stage == 0
    assert info.value.uncovered == ((),)
    assert info.value.sequence == () and info.value.steps == 300
    assert str(info.value) == (
        "no uniform bound by stage 0 (1 uncovered, realizer fuel: sequence - used 300 steps)"
    )


def test_extraction_fuel_exhaustion_after_longer_commits():
    """A take-2 realizer that spins on paths starting 11.  Stage 0 commits
    (0, 0) and stage 1 commits (1, 0), both longer than their stage; stage 2
    runs out of fuel on (1, 1) and reports exactly that stage's uncovered
    sequences, in lexicographic order."""
    q0, q1 = pair(PATH_SLICE, 0), pair(PATH_SLICE, 1)
    spin = q1 + q0 + 4  # the JMP to itself
    program = (*[Inc(7)] * q1, Query(7, 8), Decjz(8, spin + 1),  # bit 1 is 0: take 2
               *[Inc(9)] * q0, Query(9, 8), Decjz(8, spin + 1),  # bit 0 is 0: take 2
               Jmp(spin),
               *relocate(take_prefix_program(2), spin + 1))
    with pytest.raises(ExtractionExhausted) as info:
        extract_bound(BarRealizer(encode_program(program), fuel=10_000))
    exc = info.value
    assert (exc.stage, exc.reason) == (2, "realizer fuel")
    assert exc.uncovered == ((0, 1), (1, 1))
    assert exc.sequence == (1, 1) and exc.steps == 10_000


@pytest.mark.parametrize("program, stage, uncovered, reason, sequence, steps", [
    # Query 3 = pair(2, 0) asks the base oracle, here the empty one.
    ((Inc(1), Inc(1), Inc(1), Query(1, 0)), 0, ((),), "realizer blocked query 3", (), 4),
    # Always 10, the code of 0000: right on the zero path, so stage 0
    # commits 0000; at stage 1 it is wrong on the path 1, then zeros.
    ((*[Inc(0)] * 10, Halt()), 1, ((0,), (1,)),
     "invalid realizer output (0, 0, 0, 0) differs from the path at position 0", (1,), 11),
])
def test_extraction_stops_on_a_failed_run(program, stage, uncovered, reason, sequence, steps):
    realizer = BarRealizer(encode_program(program))
    with pytest.raises(ExtractionExhausted) as info:
        extract_bound(realizer)
    exc = info.value
    assert (exc.stage, exc.uncovered, exc.reason) == (stage, uncovered, reason)
    assert (exc.sequence, exc.steps) == (sequence, steps)
    assert str(exc) == (f"no uniform bound by stage {stage} ({len(uncovered)} uncovered, "
                        f"{reason}: sequence {format_bits(sequence)} used {steps} steps)")
    assert assert_matches_reference(realizer)[:2] == ("exhausted", stage)


# ---------------------------------------------------------------------------
# Extraction against the plain reference loop

def assert_matches_reference(realizer, **kwargs):
    expected = extraction_result(reference_extract_bound, realizer, **kwargs)
    assert extraction_result(extract_bound, realizer, **kwargs) == expected
    return expected


def asm_realizer(name: str, **kwargs) -> BarRealizer:
    return BarRealizer(encode_program(parse_assembly((ASM_DIR / name).read_text())), **kwargs)


def test_extraction_matches_reference_on_every_small_table():
    tables = list(covering_tables(3))
    assert len(tables) == 26
    for table in tables:
        realizer = BarRealizer(encode_program(compile_bar_table(table)))
        depth = max(map(len, table))
        assert assert_matches_reference(realizer)[0] == "bound", table
        for n_max in range(depth):  # stops whose commits cover part of the stage
            assert_matches_reference(realizer, n_max=n_max)


def test_extraction_matches_reference_on_realizers_that_read_ahead(rng):
    """Answers shorter than the part of the path read: a stage-n candidate
    can get an answer shorter than n that no earlier stage committed."""
    for _ in range(40):
        cut = {bits: rng.randrange(4) for bits in product((0, 1), repeat=3)}
        program = lookahead_realizer_program(lambda bits: bits[:cut[bits]], 3)
        assert_matches_reference(BarRealizer(encode_program(program)))


def test_extraction_matches_reference_on_take_prefix_realizers():
    for k in range(1, 7):
        result = assert_matches_reference(BarRealizer(encode_program(take_prefix_program(k))))
        assert result[:2] == ("bound", k)


def test_extraction_matches_reference_on_the_asm_realizers():
    assert assert_matches_reference(asm_realizer("first_bit.asm"))[:2] == ("bound", 1)
    result = assert_matches_reference(asm_realizer("first_zero.asm"), n_max=6)
    assert result[:4] == ("exhausted", 6, ((1,) * 6,), "stage limit")


def test_extraction_matches_reference_on_realizer_fuel():
    # first_zero.asm spends more steps on longer answers, so a small budget
    # runs out past stage 0, on the all-ones sequence.
    result = assert_matches_reference(asm_realizer("first_zero.asm", fuel=2_000))
    assert result[:4] == ("exhausted", 5, ((1,) * 5,), "realizer fuel")


# ---------------------------------------------------------------------------
# Independent verification

def test_verify_depth_bar():
    assert verify_uniform_bound(depth_bar(3), 3)
    assert not verify_uniform_bound(depth_bar(3), 2)
    assert verify_uniform_bound(depth_bar(3), 4)


def test_verify_empty_sequence_bar():
    assert verify_uniform_bound(lambda bits: bits == (), 0)


def test_verify_empty_bar_fails_everywhere():
    for n in range(4):
        assert not verify_uniform_bound(lambda bits: False, n)


def test_extracted_bounds_verify_against_their_outputs():
    for code, expected in ((EMPTY_REALIZER, 0), (TAKE3, 3), (SPLIT, 2)):
        bound = extract_bound(BarRealizer(code))
        assert bound.n == expected
        assert verify_uniform_bound(table_bar(bound.realizer_outputs), bound.n)


def test_table_bar_verifies_as_its_upward_closure():
    """verify_uniform_bound tests every prefix of every sequence, so a table
    and its upward closure give the same verdict at every depth, whether or
    not the table covers every path."""
    tables = list(covering_tables(3))
    assert len(tables) == 26
    for table in tables + [table[1:] for table in tables]:
        members = frozenset(table)
        for n in range(5):
            closed = verify_uniform_bound(
                lambda bits: any(bits[:k] in members for k in range(len(bits) + 1)), n)
            assert verify_uniform_bound(table_bar(table), n) == closed, (table, n)


# ---------------------------------------------------------------------------
# Table-driven bars

def test_compiled_table_walks_to_its_element():
    table = frozenset({(0,), (1, 0), (1, 1)})
    code = encode_program(compile_bar_table(table))
    for head, want in (((0, 1), (0,)), ((1, 0), (1, 0)), ((1, 1), (1, 1))):
        bits, _ = apply_realizer_to_path(BarRealizer(code), PathOracle(head))
        assert bits == want


def test_compile_rejects_non_covering_table():
    with pytest.raises(ValueError):
        compile_bar_table({(1,)})
    with pytest.raises(ValueError):
        compile_bar_table(set())


def test_random_tables_cover_and_extract_soundly(rng):
    for _ in range(40):
        table = random_bar_table(rng, depth=4)
        assert all(len(b) <= 4 for b in table)
        code = encode_program(compile_bar_table(table))
        bound = extract_bound(BarRealizer(code))
        assert bound.realizer_outputs <= table
        assert verify_uniform_bound(table_bar(table), bound.n)


def test_random_table_is_prefix_free(rng):
    for _ in range(20):
        table = random_bar_table(rng, depth=4)
        for a in table:
            for b in table:
                if a != b:
                    assert a != b[: len(a)]


def test_random_tables_return_the_element_on_every_path(rng):
    for depth in range(1, 6):
        for _ in range(6):
            table = random_bar_table(rng, depth=depth)
            realizer = BarRealizer(encode_program(compile_bar_table(table)))
            for head in product((0, 1), repeat=depth):
                want = next(b for b in table if head[:len(b)] == b)
                got = apply_realizer_to_path(realizer, PathOracle(head))
                assert got == (want, len(want)), (table, head)


def test_depth5_table_codes_stay_small():
    """Leaf constants up to ~700 loaded digit by octal digit, not as runs
    of INC r0, keep these codes near 60k bits (a run of INCs made them
    ~780k)."""
    rng = random.Random(1)
    for _ in range(20):
        table = random_bar_table(rng, depth=5, stop_prob=0.2)
        assert encode_program(compile_bar_table(table)).bit_length() < 250_000, table


# ---------------------------------------------------------------------------
# Constant loading

def octal_digits(value: int) -> list[int]:
    return [int(d) for d in format(value, "o")] if value else []


def load_constant_steps(value: int) -> int:
    """One step per unit of a digit, and 10*c + 1 per move of a c by 8,
    for c = value // 8, value // 64, ... down to the leading digit."""
    steps = sum(octal_digits(value))
    while value >= 8:
        value //= 8
        steps += 10 * value + 1
    return steps


def test_load_constant_block_pinned_steps():
    values = (0, 1, 2, 3, 7, 8, 9, 63, 64, 255, 256, 300, 697, 135_971, 535_084)
    steps = [run(encode_program(load_constant_block(v, 0)), 0, fuel=10**7).steps
             for v in values]
    assert steps == [0, 1, 2, 3, 7, 12, 13, 85, 93, 359, 366, 425, 994, 194_242, 764_404]
    assert steps == [load_constant_steps(v) for v in values]
    # the docstring's closed form, with s the octal digit sum
    assert steps == [10 * (v - sum(octal_digits(v))) // 7 + sum(octal_digits(v))
                     + max(len(octal_digits(v)) - 1, 0) for v in values]


@pytest.mark.parametrize("base", [0, 5])
def test_load_constant_block_sets_r0_and_clears_scratch(base):
    for value in range(301):
        block = load_constant_block(value, base)
        digits = octal_digits(value)
        assert len(block) == 10 * max(len(digits) - 1, 0) + sum(digits)
        # base INCs of an unrelated register, the block, then a check that
        # the scratch register is back to 0: if not, r0 gains one.
        end = base + len(block) + 2
        program = [Inc(4)] * base + block + [Decjz(LOAD_SCRATCH, end), Inc(0)]
        res = run(encode_program(program), 0, BLOCK_ALL, fuel=10_000)
        assert res.outcome == Converged(value), (value, base)
        assert res.steps == base + load_constant_steps(value) + 1, (value, base)


@pytest.mark.parametrize("depth", [9, 10])
def test_deep_table_extracts_at_default_fuel(depth):
    """The comb table {0, 10, 110, ..., 1^depth} holds the depth's largest
    leaf code, pair(depth, 2**depth - 1); loading it stays within the
    default fuel (a depth-10 leaf costs up to 764,404 steps)."""
    comb = {(1,) * j + (0,) for j in range(depth)} | {(1,) * depth}
    realizer = BarRealizer(encode_program(compile_bar_table(comb)))
    bound = extract_bound(realizer)
    assert bound.n == depth
    assert verify_uniform_bound(table_bar(comb), bound.n)
    got = apply_realizer_to_path(realizer, PathOracle((1,) * depth))
    assert got == ((1,) * depth, depth)
