"""Acceptance gate: the headline properties, one printed verdict per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they happen; without -s pytest shows them for failing tests only.

Criterion 7 pins the WWKL witness, the least level n with
2*count(n) <= 2^n: none for the full tree, 1 for the all-zeros tree and 3
for the at-most-one-1 tree, whose level n holds n+1 sequences (8 <= 8 at
n = 3).  The strict reading, 2*count(n) < 2^n, is rejected: it would move
the all-zeros tree's pinned witness from 1 to 2.
"""

import random
import time

from fanlab import fan, trees
from fanlab.fan import (
    BarRealizer,
    extract_bound,
    first_bit_split_program,
    random_bar_table,
    table_bar,
    take_prefix_program,
    verify_uniform_bound,
)
from fanlab.kripke import GroundReal, all_nodes, layered_answer, node_oracle, slice_probe_program
from fanlab.machine import (
    BLOCK_ALL,
    Answer,
    Converged,
    Decjz,
    FnOracle,
    Inc,
    Jmp,
    OutOfFuel,
    curry,
    curry_overhead,
    encode_program,
    evaluate,
    pair,
    random_program,
    run,
    unpair,
)
from fanlab.trees import (
    BranchDecider,
    IncoherentBranch,
    at_most_ones_tree,
    check_prefix_closed,
    full_scan_count,
    full_tree,
    kleene_tree,
    levels,
    wwkl_witness,
    zeros_tree,
)

from helpers import branch_program, pattern_bits, pattern_prefix_codes

FAMILY = tuple(
    GroundReal(pattern=p)
    for p in [(1, 0), (0, 1), (1,), (0,), (1, 1, 0), (1, 0, 0, 1, 0)]
)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[criterion {tag}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_determinism_and_fuel_monotonicity():
    rng = random.Random(11)
    parity = FnOracle(lambda q: Answer.YES if q % 2 else Answer.NO)
    started = time.perf_counter()
    violations = 0
    for i in range(1000):
        e = encode_program(random_program(rng))
        x = rng.randrange(8)
        oracle = parity if i % 2 else BLOCK_ALL
        first = run(e, x, oracle, 10_000)
        if run(e, x, oracle, 10_000) != first:
            violations += 1
        if not isinstance(first.outcome, OutOfFuel):
            for bigger in (10_001, 20_000):
                again = run(e, x, oracle, bigger)
                if (again.outcome, again.trace) != (first.outcome, first.trace):
                    violations += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 5.0
    report("1", ok, f"determinism+fuel-monotonicity: 1000 pairs, "
                    f"{violations} violations, {elapsed:.1f}s (budget 5s)")
    assert violations == 0
    assert elapsed < 5.0


def test_criterion_2_blocked_characterization():
    nodes = all_nodes(4, 3)
    exceptions = 0
    for node in nodes:
        for q in range(1 << 10):
            k, _ = unpair(q)
            blocked = layered_answer(FAMILY, node, q) == Answer.BLOCKED
            if blocked != (k >= len(node)):
                exceptions += 1
    ok = exceptions == 0
    report("2", ok, f"blocked-characterization: {len(nodes)} nodes x 1024 queries, "
                    f"{exceptions} exceptions")
    assert exceptions == 0


def test_criterion_3_persistence():
    rng = random.Random(33)
    violations = 0
    for _ in range(500):
        e = encode_program(random_program(rng))
        node = tuple(rng.randrange(4) for _ in range(rng.randrange(len(FAMILY))))
        child = node + (rng.randrange(4),)
        x = rng.randrange(8)
        here = evaluate(e, x, node_oracle(FAMILY, node), 5000)
        if isinstance(here, Converged):
            if evaluate(e, x, node_oracle(FAMILY, child), 5000) != here:
                violations += 1
    ok = violations == 0
    report("3", ok, f"persistence: 500 parent/child triples, {violations} violations")
    assert violations == 0


def test_criterion_4_slice_gate():
    nodes = all_nodes(4, 3)
    mismatches = 0
    for k in range(4):
        probe = encode_program(slice_probe_program(k))
        for node in nodes:
            out = evaluate(probe, 0, node_oracle(FAMILY, node), 10_000)
            if isinstance(out, Converged) != (len(node) > k):
                mismatches += 1
    ok = mismatches == 0
    report("4", ok, f"slice-gate: k<=3 over {len(nodes)} nodes, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_5_diagonal_tree_levels_and_closure():
    started = time.perf_counter()
    tree = kleene_tree()
    widths = [len(frontier) for _, frontier in levels(tree, 12)]
    closure_violations = check_prefix_closed(tree, 10)
    elapsed = time.perf_counter() - started
    ok = all(widths) and not closure_violations and elapsed < 10.0
    report("5", ok, f"diagonal-tree: widths {widths}, "
                    f"{len(closure_violations)} closure violations, "
                    f"{elapsed:.1f}s (budget 10s)")
    assert all(widths)
    assert closure_violations == []
    assert elapsed < 10.0


def test_criterion_6_diagonal_escape_measured():
    machines = {
        "const0": (Decjz(0, 2), Jmp(0)),
        "const1": (Decjz(0, 2), Jmp(0), Inc(0)),
        "parity": (Decjz(0, 4), Decjz(0, 3), Jmp(0), Inc(0)),
    }
    tree = kleene_tree()
    details = []
    ok = True
    for name, program in machines.items():
        e = encode_program(program)
        self_run = run(e, e, BLOCK_ALL, 2_000_000)
        if isinstance(self_run.outcome, Converged):
            steps = self_run.steps  # exact
            exact = True
        else:
            steps = self_run.steps  # a measured lower bound; e+1 dominates anyway
            exact = False
        bits = ()
        escape = None
        for x in range(30):
            out = evaluate(e, x, BLOCK_ALL, 1000)
            assert isinstance(out, Converged)
            bits = bits + (out.value % 2,)
            if not tree.contains(bits):
                escape = len(bits)
                break
        bound = max(e + 1, steps)
        good = escape is not None and escape <= bound
        ok = ok and good
        details.append(f"{name}: e={e} t{'=' if exact else '>'}{steps} escape={escape}")
    report("6", ok, "diagonal-escape: " + "; ".join(details))
    assert ok


def _least_half_level(tree, n_max):
    # Brute force, full scans only.
    for n in range(n_max + 1):
        if 2 * full_scan_count(tree, n) <= (1 << n):
            return n
    return None


def test_criterion_7a_wwkl_witness_rule():
    full_w = wwkl_witness(full_tree(), 10)
    zeros_w = wwkl_witness(zeros_tree(), 10)
    amo1_w = wwkl_witness(at_most_ones_tree(1), 10)
    brute = (
        _least_half_level(full_tree(), 10),
        _least_half_level(zeros_tree(), 10),
        _least_half_level(at_most_ones_tree(1), 10),
    )
    ok = (full_w, zeros_w, amo1_w) == brute == (None, 1, 3)
    report("7a", ok, f"wwkl-witness rule: full={full_w} zeros={zeros_w} "
                     f"at-most-one-1={amo1_w}, brute-force={brute}")
    assert (full_w, zeros_w, amo1_w) == brute
    assert (full_w, zeros_w, amo1_w) == (None, 1, 3)


def test_criterion_7b_wwkl_pinned_value():
    # Level n of the at-most-one-1 tree holds the zero sequence and the n
    # sequences with a single 1, so count(n) = n+1 without consulting the
    # tree; the pin is the least n <= 10 with 2(n+1) <= 2^n.
    pinned = next(n for n in range(11) if 2 * (n + 1) <= (1 << n))
    assert pinned == 3
    got = wwkl_witness(at_most_ones_tree(1), 10)
    arithmetic = "2*(2+1) = 6 > 2^2 = 4 at n = 2, 2*(3+1) = 8 <= 2^3 = 8 at n = 3"
    report("7b", got == pinned,
           f"wwkl pinned value: expected {pinned} ({arithmetic}), rule gives {got}")
    assert got == pinned, (
        f"The at-most-one-1 tree's level n holds n+1 sequences, so the witness "
        f"is the least n with 2*(n+1) <= 2^n ({arithmetic}), which is {pinned}; "
        f"wwkl_witness gave {got}."
    )


def test_criterion_8_extraction_soundness():
    started = time.perf_counter()
    empty = encode_program(())
    take3 = encode_program(take_prefix_program(3))
    split = encode_program(first_bit_split_program())
    checks = []
    for code, expected, bar in (
        (empty, 0, lambda bits: bits == ()),
        (take3, 3, lambda bits: len(bits) == 3),
        (split, 2, table_bar({(0,), (1, 0), (1, 1)})),
    ):
        bound = extract_bound(BarRealizer(code))
        checks.append(bound.n == expected and verify_uniform_bound(bar, bound.n))
    rng = random.Random(88)
    random_sound = 0
    for _ in range(100):
        table = random_bar_table(rng, depth=4)
        bound = extract_bound(BarRealizer(encode_program(fan.compile_bar_table(table))))
        if bound.realizer_outputs <= table and verify_uniform_bound(table_bar(table), bound.n):
            random_sound += 1
    elapsed = time.perf_counter() - started
    ok = all(checks) and random_sound == 100 and elapsed < 30.0
    report("8", ok, f"extraction: fixed bars {checks} (want bounds 0/3/2), "
                    f"random tables {random_sound}/100 sound, "
                    f"{elapsed:.1f}s (budget 30s)")
    assert checks == [True, True, True]
    assert random_sound == 100
    assert elapsed < 30.0


def test_criterion_9_curry_extensional_law():
    rng = random.Random(99)
    parity = FnOracle(lambda q: Answer.YES if q % 3 == 0 else Answer.NO)
    violations = 0
    for _ in range(200):
        e = encode_program(random_program(rng))
        a, b = rng.randrange(25), rng.randrange(25)
        direct = run(e, pair(a, b), parity, 10_000)
        curried = run(curry(e, a), b, parity, 10_000 + curry_overhead(a, b))
        if type(curried.outcome) is not type(direct.outcome):
            violations += 1
        elif (not isinstance(direct.outcome, OutOfFuel)
              and (curried.outcome, curried.trace) != (direct.outcome, direct.trace)):
            violations += 1
    ok = violations == 0
    report("9", ok, f"curry law: 200 random triples, {violations} violations")
    assert violations == 0


def test_criterion_10_branch_deciders():
    patterns = [(0,), (1, 0), (1, 1, 0)]
    agree = 0
    total = 0
    for pattern in patterns:
        rb = encode_program(branch_program(pattern_prefix_codes(pattern, 10)))
        decider = BranchDecider(rb, fuel=10**7)
        for m in range(11):
            expected = pattern_bits(pattern, m)
            total += 1
            if decider.contains(expected):
                agree += 1
            if m:
                total += 1
                if not decider.contains(expected[:-1] + (1 - expected[-1],)):
                    agree += 1
    violators_caught = 0
    wrong_length = encode_program(branch_program(pattern_prefix_codes((1, 0), 11)[1:]))
    try:
        BranchDecider(wrong_length, fuel=10**7).contains((1, 0, 1))
    except IncoherentBranch:
        violators_caught += 1
    broken_codes = pattern_prefix_codes((0,), 10)
    broken_codes[3] = trees.bits_to_code((0, 1, 0))
    chain_break = encode_program(branch_program(broken_codes))
    decider = BranchDecider(chain_break)
    decider.contains((0, 0))
    try:
        decider.contains((0, 1, 0))
    except IncoherentBranch:
        violators_caught += 1
    ok = agree == total and violators_caught == 2
    report("10", ok, f"branch-deciders: {agree}/{total} lookups agree, "
                     f"{violators_caught}/2 violators caught")
    assert agree == total
    assert violators_caught == 2
