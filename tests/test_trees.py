"""Decidable trees: codecs, the Kleene tree, censuses, branch deciders."""

import contextlib
import io
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import fanlab.trees
from fanlab.cli import default_family, main
from fanlab.kripke import node_oracle, parse_node
from fanlab.machine import (
    BLOCK_ALL,
    Converged,
    OutOfFuel,
    QueryTrace,
    RunResult,
    encode_program,
    pair,
    run,
)
from fanlab.trees import (
    BranchDecider,
    DecidableTree,
    IncoherentBranch,
    SettleTable,
    at_most_ones_tree,
    bits_to_code,
    check_prefix_closed,
    code_to_bits,
    format_bits,
    full_scan_count,
    full_tree,
    kleene_tree,
    level_census,
    levels,
    parse_bits,
    wwkl_witness,
    zeros_tree,
)

from helpers import branch_program, pattern_bits, pattern_prefix_codes

bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=24)


# ---------------------------------------------------------------------------
# Sequence codec

def test_bits_code_examples():
    assert bits_to_code(()) == 0
    assert bits_to_code((1, 0, 1)) == pair(3, 5)  # LSB-first value 5


@given(bit_lists)
def test_bits_roundtrip(bits):
    bits = tuple(bits)
    assert code_to_bits(bits_to_code(bits)) == bits


def test_code_to_bits_refuses_a_code_that_names_no_sequence():
    with pytest.raises(ValueError, match="^26 is not a sequence code$"):
        code_to_bits(pair(1, 5))  # value 5 needs 3 bits, length says 1


def test_bits_text_roundtrip():
    assert format_bits(()) == "-"
    assert parse_bits("-") == ()
    assert parse_bits("0110") == (0, 1, 1, 0)
    assert format_bits((0, 1, 1, 0)) == "0110"
    with pytest.raises(ValueError):
        parse_bits("012")


# ---------------------------------------------------------------------------
# Kleene tree

def test_kleene_contains_root():
    assert kleene_tree().contains(())


def test_kleene_levels_nonempty_to_12():
    widths = [len(frontier) for _, frontier in levels(kleene_tree(), 12)]
    assert all(widths)
    # Regression: the plain tree is a single path this deep.
    assert widths == [1] * 13


def test_kleene_witness_is_member_and_frozen():
    witness = SettleTable(BLOCK_ALL).witness(12)
    assert kleene_tree().contains(witness)
    assert format_bits(witness) == "111000001011"


def test_kleene_prefix_closed_to_depth_10():
    assert check_prefix_closed(kleene_tree(), 10) == []


def test_kleene_deep_pin_at_halt_index():
    # encode([HALT]) = 76 is an explicit total machine: {76}(76) = 76 in 1 step.
    res = run(76, 76, BLOCK_ALL, 10)
    assert res.outcome == Converged(76) and res.steps == 1
    # Past level max(76, 1), members must dodge its parity: bit 76 must be 1.
    frontier = None
    for _, frontier in levels(kleene_tree(), 77):
        pass
    assert frontier and all(b[76] == 1 for b in frontier)
    assert len(frontier) == 64  # regression value


def test_kleene_witness_prefixes_nest():
    longer = SettleTable(BLOCK_ALL).witness(10)
    shorter = SettleTable(BLOCK_ALL).witness(6)
    assert longer[:6] == shorter


# ---------------------------------------------------------------------------
# Closed-form Kleene counts against the frontier and full-scan references

REFERENCE_NODES = ["", "0", "1,2", "2,2", "3,0,1"]  # both count profiles to 80


def _kleene_at(node: str) -> DecidableTree:
    """A fresh Kleene tree (and settle table) at a default-family node."""
    return kleene_tree(node_oracle(default_family(), parse_node(node)))


def _plain_kleene_at(node: str) -> DecidableTree:
    """The definition read literally: run {e}(e) at budget len(b) itself,
    with no settle-step inference (memoised per budget, not across them)."""
    oracle = node_oracle(default_family(), parse_node(node))
    runs = {}

    def member(bits) -> bool:
        n = len(bits)
        for e in range(n):
            if (e, n) not in runs:
                runs[e, n] = run(e, e, oracle, n).outcome
            out = runs[e, n]
            if isinstance(out, Converged) and bits[e] == out.value % 2:
                return False
        return True

    return DecidableTree(member)


@pytest.mark.parametrize("node", REFERENCE_NODES)
def test_kleene_counts_match_levels_and_full_scan(node):
    counts = level_census(_kleene_at(node), 80)
    assert counts == tuple(len(frontier) for _, frontier in levels(_plain_kleene_at(node), 80))
    assert counts == tuple(len(frontier) for _, frontier in levels(_kleene_at(node), 80))
    scan_tree = _kleene_at(node)
    assert counts[:13] == tuple(full_scan_count(scan_tree, n) for n in range(13))
    tree = _kleene_at(node)
    assert [level_census(tree, n)[n] for n in (0, 12, 40, 80)] == [counts[n] for n in (0, 12, 40, 80)]


CENSUS_NODES = ["", "0", "1,2", "3,0,1"]


@pytest.mark.parametrize("node", CENSUS_NODES)
def test_census_matches_frontier_and_full_scan(node):
    """A fresh table's census to every n_max up to 40 against the frontier
    of a tree that knows only the membership test, and to 12 against a
    full scan of it."""
    oracle = node_oracle(default_family(), parse_node(node))
    reference = DecidableTree(SettleTable(oracle).contains)
    assert reference.census is None
    frontier = level_census(reference, 40)
    for n_max in range(41):
        assert SettleTable(oracle).census(n_max) == frontier[:n_max + 1]
    scan = tuple(full_scan_count(reference, n) for n in range(13))
    assert SettleTable(oracle).census(12) == scan


@pytest.mark.parametrize("node", ["", "1,2"])
@pytest.mark.parametrize("first", [3, 20, 60, 200])
def test_census_does_not_depend_on_probe_order(node, first):
    """A table probed first at a smaller or a larger budget counts every
    level as a fresh table does."""
    oracle = node_oracle(default_family(), parse_node(node))
    table = SettleTable(oracle)
    table.census(first)
    for n_max in (0, 7, 40, 105):
        assert table.census(n_max) == SettleTable(oracle).census(n_max)


# {e}(e) converges to value v in s steps; every other index never settles.
LATE_SETTLES = {0: (0, 0), 1: (1, 9), 2: (0, 3), 4: (1, 4), 5: (1, 14), 6: (0, 7),
                8: (1, 30), 9: (0, 10), 11: (1, 12)}


def _late_run(code, x, oracle, fuel):
    """A fuel-monotone stand-in for `run` whose self-runs settle late, past
    level e + 1, which no small program code does."""
    trace = QueryTrace()
    if code in LATE_SETTLES and LATE_SETTLES[code][1] <= fuel:
        value, steps = LATE_SETTLES[code]
        return RunResult(Converged(value), steps, trace)
    return RunResult(OutOfFuel(), fuel, trace)


def test_census_counts_late_settles_from_their_step(monkeypatch):
    """e fixes its bit from level max(e + 1, steps_e) on: against the literal
    count and the frontier, for fresh tables and after a deeper probe."""
    monkeypatch.setattr(fanlab.trees, "run", _late_run)
    deep = SettleTable(BLOCK_ALL)
    deep.census(40)
    frontier = level_census(DecidableTree(SettleTable(BLOCK_ALL).contains), 20)
    for n_max in range(40):
        literal = tuple(
            1 << (n - sum(1 for e, (_, s) in LATE_SETTLES.items() if e < n and s <= n))
            for n in range(n_max + 1))
        assert SettleTable(BLOCK_ALL).census(n_max) == literal
        assert deep.census(n_max) == literal
        if n_max <= 20:
            assert literal == frontier[:n_max + 1]


def test_census_runs_each_index_once(monkeypatch):
    real_run = fanlab.trees.run
    runs = Counter()

    def counting_run(code, x, oracle, fuel):
        runs[code] += 1
        return real_run(code, x, oracle, fuel)

    monkeypatch.setattr(fanlab.trees, "run", counting_run)
    counts = SettleTable(BLOCK_ALL).census(105)
    assert counts[105] == 1024
    assert runs == Counter(range(105))


def test_settle_table_doubles_the_budget(monkeypatch):
    """{13}(13) never converges; budgets asked one at a time rerun it only
    when they pass the probed one, and then at twice that."""
    budgets = []

    def recording_run(code, x, oracle, fuel):
        budgets.append(fuel)
        res = run(code, x, oracle, fuel)
        assert res.steps == fuel  # out of fuel exactly at the budget
        return res

    monkeypatch.setattr(fanlab.trees, "run", recording_run)
    table = SettleTable(BLOCK_ALL)
    assert all(table.value_within(13, n) is None for n in range(1, 101))
    assert budgets == [1, 2, 4, 8, 16, 32, 64, 128]


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_settle_table_converges_within_its_exact_step(order):
    """{76}(76) halts in exactly 1 step: converged within 1, not within 0,
    whichever budget the table is asked first."""
    table = SettleTable(BLOCK_ALL)
    answers = {n: table.value_within(76, n) for n in order}
    assert answers == {0: None, 1: 76}


def test_kleene_level_200_pin():
    """Level 200 of the plain tree, read from the settle table in well under
    a second.  A position is free to vary iff its self-run does not converge
    within 200 steps: the 16 free positions give the census's 2^16, and the
    first, 13, is why the width first doubles at level 14.  The deepest
    position, 199, is forced, and every member carries a 0 there."""
    started = time.perf_counter()
    table = SettleTable(BLOCK_ALL)
    assert level_census(table.tree(), 200)[200] == 65536
    assert table.tree().contains(table.witness(200))
    assert time.perf_counter() - started < 1.0
    free = [p for p in range(200) if table.value_within(p, 200) is None]
    assert free == [13, 19, 34, 42, 51, 75, 88, 89, 101, 102, 116, 118, 133, 150, 187, 188]
    assert 1 << len(free) == 65536
    assert table.census(14)[12:] == (1, 1, 2)
    assert table.value_within(199, 200) is not None
    assert table.witness(200)[199] == 0


def _payload(*argv: str) -> list[str]:
    """The CLI's record lines for a successful run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return [line for line in out.getvalue().splitlines() if not line.startswith("#")]


def test_kleene_command_runs_each_index_once(monkeypatch):
    real_run = fanlab.trees.run
    runs = Counter()

    def counting_run(code, x, oracle, fuel):
        runs[code] += 1
        return real_run(code, x, oracle, fuel)

    monkeypatch.setattr(fanlab.trees, "run", counting_run)
    assert "level 105 1024" in _payload("kleene", "--depth", "105")
    assert runs == Counter(range(105))


@pytest.mark.parametrize("spec", ["kleene", "kleene 1,2", "kleene 3,0,1"])
def test_kleene_census_and_wwkl_cli_match_scan(spec):
    census = _payload("census", "--tree", spec, "--depth", "12")
    scan = _payload("census", "--tree", spec, "--depth", "12", "--scan")
    assert census == scan == [f"{n} 1 {1 << n}" for n in range(13)]  # pinned literal output
    scan_counts = [int(line.split()[1]) for line in scan]
    first = next(n for n, count in enumerate(scan_counts) if 2 * count <= (1 << n))
    assert _payload("wwkl", "--tree", spec, "--max", "12") == [f"witness {first}"] == ["witness 1"]


# ---------------------------------------------------------------------------
# Censuses

def test_level_counts_for_reference_trees():
    assert level_census(full_tree(), 7) == tuple(1 << n for n in range(8))
    assert level_census(zeros_tree(), 7) == (1,) * 8
    assert level_census(kleene_tree(), 8)[8] == 1  # regression value
    assert level_census(at_most_ones_tree(1), 6) == (1, 2, 3, 4, 5, 6, 7)


def test_frontier_matches_full_scan():
    for tree in [full_tree(), zeros_tree(), at_most_ones_tree(1), kleene_tree()]:
        for n in range(9):
            assert level_census(tree, n)[n] == full_scan_count(tree, n)


def test_census_counts_shape():
    """The root is the one sequence of length 0, and a level holds at most
    twice the one above it: each member has two children at most."""
    for tree in [at_most_ones_tree(2), *map(_random_pruned_tree, range(10))]:
        census = level_census(tree, 7)
        assert census[0] == 1
        for n in range(7):
            assert census[n + 1] <= 2 * census[n]


def _random_pruned_tree(seed: int) -> DecidableTree:
    import hashlib

    def alive(bits) -> bool:
        digest = hashlib.sha256(f"{seed}:{bits}".encode()).digest()
        return digest[0] >= 24  # keep ~91% of children

    def member(bits) -> bool:
        return all(alive(bits[:k]) for k in range(1, len(bits) + 1))

    return DecidableTree(member)


def test_prefix_closure_checker_catches_violation():
    broken = DecidableTree(lambda b: b != (0,))
    bad = check_prefix_closed(broken, 3)
    assert (0, 0) in bad


# ---------------------------------------------------------------------------
# WWKL witness search

def _brute_force_witness(tree: DecidableTree, n_max: int) -> int | None:
    # Independent route: full scans only, no frontier reuse.
    for n in range(n_max + 1):
        if 2 * full_scan_count(tree, n) <= (1 << n):
            return n
    return None


def test_wwkl_full_tree_has_no_witness():
    assert wwkl_witness(full_tree(), 10) is None
    assert _brute_force_witness(full_tree(), 10) is None


def test_wwkl_zeros_tree():
    assert wwkl_witness(zeros_tree(), 10) == 1
    assert _brute_force_witness(zeros_tree(), 10) == 1


def test_wwkl_at_most_one_one():
    # Level counts are n+1; half of 2^n first catches up at n = 3 (4 <= 4).
    tree = at_most_ones_tree(1)
    assert wwkl_witness(tree, 10) == 3
    assert _brute_force_witness(tree, 10) == 3


def test_wwkl_minimality():
    for tree in [zeros_tree(), at_most_ones_tree(1), at_most_ones_tree(2)]:
        n = wwkl_witness(tree, 10)
        assert n is not None
        for m in range(n):
            assert 2 * level_census(tree, m)[m] > (1 << m)


def test_wwkl_respects_n_max():
    assert wwkl_witness(at_most_ones_tree(1), 2) is None


# ---------------------------------------------------------------------------
# Branch programs to deciders

def test_zeros_branch_accepts_exactly_zeros():
    rb = encode_program(branch_program(pattern_prefix_codes((0,), 10)))
    decider = BranchDecider(rb)
    assert decider.contains((0, 0, 0, 0))
    assert not decider.contains((0, 1, 0))
    assert not decider.contains((1,))


@pytest.mark.parametrize("pattern", [(1, 0), (1, 1, 0), (0, 1, 1, 0)])
def test_pattern_branch_matches_direct_lookup(pattern):
    rb = encode_program(branch_program(pattern_prefix_codes(pattern, 10)))
    decider = BranchDecider(rb, fuel=10**7)
    for m in range(11):
        expected = pattern_bits(pattern, m)
        assert decider.contains(expected)
        if m >= 1:
            flipped = expected[:-1] + (1 - expected[-1],)
            assert not decider.contains(flipped)


def test_branch_decider_one_call_per_fresh_length():
    rb = encode_program(branch_program(pattern_prefix_codes((1, 0), 10)))
    decider = BranchDecider(rb)
    decider.contains((1, 0, 1, 0, 1))
    assert decider.calls == 1
    decider.contains((0, 0, 0, 0, 0))  # same length: cached output, no new run
    assert decider.calls == 1
    decider.contains((1, 0))
    assert decider.calls == 2


def test_branch_wrong_length_raises():
    # Output at m has length m+1.
    codes = pattern_prefix_codes((1, 0), 11)[1:]
    rb = encode_program(branch_program(codes))
    with pytest.raises(IncoherentBranch):
        BranchDecider(rb, fuel=10**7).contains((1, 0, 1))


def test_branch_chain_break_raises():
    # Length-3 output contradicts the length-2 one.
    codes = pattern_prefix_codes((0,), 10)
    codes[3] = bits_to_code((0, 1, 0))
    rb = encode_program(branch_program(codes))
    decider = BranchDecider(rb)
    decider.contains((0, 0))
    with pytest.raises(IncoherentBranch):
        decider.contains((0, 1, 0))


def test_branch_non_canonical_output_raises():
    loop = encode_program(branch_program([pair(1, 5)]))  # not a sequence code
    with pytest.raises(IncoherentBranch, match="^output 26 at 0 is not a sequence code$"):
        BranchDecider(loop).contains(())
