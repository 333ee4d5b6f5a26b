"""Path oracles, bar realizers, and uniform-bound extraction."""

import random
from itertools import product

import pytest

from fanlab.fan import (
    BarRealizer,
    CoverSet,
    ExtractionExhausted,
    InvalidRealizer,
    LOAD_SCRATCH,
    PATH_SLICE,
    PathOracle,
    RealizerBlocked,
    RealizerOutOfFuel,
    RoutedOracle,
    apply_realizer_to_path,
    compile_bar_table,
    depth_bar,
    extract_bound,
    first_bit_split_program,
    load_constant_block,
    prefix_hit_bar,
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
    Inc,
    Jmp,
    Query,
    encode_program,
    pair,
    run,
)
from fanlab.kripke import GroundReal, node_oracle
from fanlab.trees import bits_to_code

from helpers import table_oracle

EMPTY_REALIZER = encode_program(())
TAKE3 = encode_program(take_prefix_program(3))
SPLIT = encode_program(first_bit_split_program())


# ---------------------------------------------------------------------------
# Path oracle and routing

def test_path_oracle_reads_and_use():
    path = PathOracle.zero_extended((1, 0, 1))
    assert path.use == 0
    assert [path.read(j) for j in range(5)] == [1, 0, 1, 0, 0]
    assert path.use == 5


def test_path_peek_does_not_count():
    path = PathOracle.zero_extended((1, 1))
    assert path.peek(7) == 0 and path.peek(0) == 1
    assert path.use == 0
    path.read(1)
    assert path.use == 2


def test_use_is_one_past_largest_position():
    path = PathOracle.zero_extended((0, 1, 0, 1))
    path.read(3)
    path.read(0)
    assert path.use == 4


def test_routed_oracle_splits_channels():
    base = table_oracle({5: Answer.YES}, default=Answer.BLOCKED)
    path = PathOracle.zero_extended((1,))
    routed = RoutedOracle(base, path)
    assert routed.answer(pair(PATH_SLICE, 0)) == Answer.YES
    assert routed.answer(pair(PATH_SLICE, 1)) == Answer.NO
    assert routed.answer(5) == Answer.YES
    assert routed.answer(6) == Answer.BLOCKED
    assert path.use == 2  # only the path-slice queries touched the path


def test_bar_realizer_rejects_a_node_that_reaches_the_path_slice():
    family = (GroundReal(pattern=(1, 0)),) * (PATH_SLICE + 2)
    with pytest.raises(ValueError, match="reaches path slice 8"):
        BarRealizer(SPLIT, node_oracle(family, (0,) * (PATH_SLICE + 1)))
    # One slice short of it, the node answers below the path and the path
    # still answers on its own slice.
    realizer = BarRealizer(SPLIT, node_oracle(family, (0,) * PATH_SLICE))
    assert extract_bound(realizer).n == 2
    routed = RoutedOracle(realizer.base_oracle, PathOracle.zero_extended((1,)))
    assert routed.answer(pair(PATH_SLICE - 1, 0)) == Answer.YES
    assert routed.answer(pair(PATH_SLICE, 0)) == Answer.YES
    assert routed.answer(pair(PATH_SLICE, 1)) == Answer.NO


# ---------------------------------------------------------------------------
# Applying realizers

def test_take_prefix_realizer():
    bits, use = apply_realizer_to_path(
        BarRealizer(TAKE3), PathOracle.zero_extended((1, 0, 1))
    )
    assert bits == (1, 0, 1)
    assert use == 3


def test_empty_realizer():
    bits, use = apply_realizer_to_path(
        BarRealizer(EMPTY_REALIZER), PathOracle.zero_extended(())
    )
    assert bits == () and use == 0


def test_non_prefix_output_is_invalid():
    # Always returns the code of 11, wrong on an all-zeros path.
    ones = encode_program(tuple(Inc(0) for _ in range(bits_to_code((1, 1)))))
    with pytest.raises(InvalidRealizer):
        apply_realizer_to_path(BarRealizer(ones), PathOracle.zero_extended(()))


def test_non_sequence_output_is_invalid():
    bad_code = pair(1, 5)  # length 1, value 5: not canonical
    bad = encode_program(tuple(Inc(0) for _ in range(bad_code)))
    with pytest.raises(InvalidRealizer):
        apply_realizer_to_path(BarRealizer(bad), PathOracle.zero_extended((1,)))


def test_node_queries_propagate_blocked():
    asks_base = encode_program((Query(1, 0),))  # query 0 goes to the base oracle
    with pytest.raises(RealizerBlocked) as info:
        apply_realizer_to_path(BarRealizer(asks_base), PathOracle.zero_extended(()))
    assert info.value.query == 0


def test_realizer_fuel_exhaustion():
    loop = encode_program((Jmp(0),))
    with pytest.raises(RealizerOutOfFuel):
        apply_realizer_to_path(BarRealizer(loop, fuel=100), PathOracle.zero_extended(()))


def test_split_realizer_on_both_heads():
    bits, use = apply_realizer_to_path(BarRealizer(SPLIT), PathOracle.zero_extended((0,)))
    assert bits == (0,) and use == 1
    bits, use = apply_realizer_to_path(BarRealizer(SPLIT), PathOracle.zero_extended((1,)))
    assert bits == (1, 0) and use == 2
    bits, _ = apply_realizer_to_path(BarRealizer(SPLIT), PathOracle.zero_extended((1, 1)))
    assert bits == (1, 1)


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
    assert cover.committed == ((0, 1, 1), (0,))
    assert cover.covering_prefix((0, 1, 1)) == (0,)


def test_cover_set_uncovered_census():
    cover = CoverSet()
    cover.commit((1,))
    assert cover.uncovered(2) == ((0, 0), (0, 1))


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
        bar = prefix_hit_bar(bound.realizer_outputs)
        assert verify_uniform_bound(bar, bound.n)


# ---------------------------------------------------------------------------
# Table-driven bars

def test_compiled_table_walks_to_its_element():
    table = frozenset({(0,), (1, 0), (1, 1)})
    code = encode_program(compile_bar_table(table))
    for head, want in (((0, 1), (0,)), ((1, 0), (1, 0)), ((1, 1), (1, 1))):
        bits, _ = apply_realizer_to_path(BarRealizer(code), PathOracle.zero_extended(head))
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
                got = apply_realizer_to_path(realizer, PathOracle.zero_extended(head))
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
    got = apply_realizer_to_path(realizer, PathOracle.zero_extended((1,) * depth))
    assert got == ((1,) * depth, depth)
