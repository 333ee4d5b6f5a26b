"""Decidable binary trees, diagonal construction, censuses, and witnesses.

Finite 0/1 sequences are coded as pair(length, value) with bit j of value
holding position j.  A decidable tree is presented by a total membership
test; the workbench builds them from native predicates or from decider
programs run over an oracle.  The central construction is the diagonal
(Kleene-style) tree: a sequence b of length n survives iff no index e < n
has a self-application that settles within n steps to a value agreeing with
b at position e.  Survival only ever depends on runs that already settled,
so the tree is prefix-closed and every level is inhabited by the sequence
that dodges each settled run.  Level n therefore holds exactly
2^(n - k(n)) sequences, k(n) being the number of e < n whose self-run
converges within n steps; a `SettleTable` counts every level up to n_max
from one run per e < n_max and one counting pass.
"""

from __future__ import annotations

from itertools import accumulate, product
from typing import Callable, Iterable, Iterator

from .machine import (
    BLOCK_ALL,
    DEFAULT_FUEL,
    Converged,
    EvalOutcome,
    OutOfFuel,
    Oracle,
    pair,
    run,
    run_decider,
    unpair,
)
from .machine import _set, _Value

Bits = tuple[int, ...]


# ---------------------------------------------------------------------------
# Sequence coding

def bits_to_code(bits: Bits) -> int:
    value = 0
    for j, b in enumerate(bits):
        if b:
            value |= 1 << j
    return pair(len(bits), value)


def code_to_bits(code: int) -> Bits:
    """Inverse of bits_to_code; ValueError for a code that names no sequence."""
    n, value = unpair(code)
    if value >> n:
        raise ValueError(f"{code} is not a sequence code")
    return tuple((value >> j) & 1 for j in range(n))


def format_bits(bits: Bits) -> str:
    return "".join(str(b) for b in bits) if bits else "-"


def parse_bits(text: str) -> Bits:
    text = text.strip()
    if text == "-":
        return ()
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"not a 0/1 sequence: {text!r}")
    return tuple(int(c) for c in text)


# ---------------------------------------------------------------------------
# Trees

class DecidableTree(_Value):
    """A membership test, plus the exact member counts of levels 0..n_max
    when the tree knows them in closed form; censuses then use those, and
    `levels` and `full_scan_count` stay the references built on `contains`
    alone."""

    __slots__ = __match_args__ = ("membership", "census")
    def __init__(self, membership: Callable[[Bits], bool],
                 census: Callable[[int], tuple[int, ...]] | None = None):
        _set(self, "membership", membership)
        _set(self, "census", census)

    def contains(self, bits) -> bool:
        return bool(self.membership(tuple(bits)))

    @staticmethod
    def from_program(code: int, oracle: Oracle = BLOCK_ALL,
                     fuel: int = DEFAULT_FUEL) -> "DecidableTree":
        def member(bits: Bits) -> bool:
            return run_decider(code, bits_to_code(bits), oracle, fuel) != 0

        return DecidableTree(member)


def full_tree() -> DecidableTree:
    return DecidableTree(lambda bits: True)


def zeros_tree() -> DecidableTree:
    return DecidableTree(lambda bits: all(b == 0 for b in bits))


def at_most_ones_tree(k: int) -> DecidableTree:
    return DecidableTree(lambda bits: sum(bits) <= k)


# ---------------------------------------------------------------------------
# Diagonal tree

class SettleTable:
    """How each self-application {e}(e) over one oracle settles.

    One entry per index e: the outcome and steps of its largest run so far.
    Runs are deterministic and fuel-monotone, and a run out of fuel stops
    exactly at `steps == fuel`, so the run at the largest budget probed
    answers every smaller budget: e converges within n iff its entry
    converged with `steps <= n`.  A budget beyond the probed one reruns e at
    `max(n, 2 * probed)`, so budgets that creep up one at a time still cost
    only logarithmically many runs.
    """

    def __init__(self, oracle: Oracle):
        self._oracle = oracle
        self._entries: dict[int, tuple[EvalOutcome, int]] = {}  # e -> outcome, steps

    def _settle(self, e: int, n: int) -> tuple[EvalOutcome, int]:
        """The entry of e, rerun first if it cannot answer budget n."""
        entry = self._entries.get(e)
        if entry is None or (isinstance(entry[0], OutOfFuel) and entry[1] < n):
            res = run(e, e, self._oracle, n if entry is None else max(n, 2 * entry[1]))
            entry = self._entries[e] = (res.outcome, res.steps)
        return entry

    def value_within(self, e: int, n: int) -> int | None:
        """Converged value of {e}(e) within n steps, else None."""
        outcome, steps = self._settle(e, n)
        return outcome.value if isinstance(outcome, Converged) and steps <= n else None

    def contains(self, bits: Bits) -> bool:
        """b survives iff it dodges the parity of every run settled within len(b)."""
        n = len(bits)
        for e in range(n):
            v = self.value_within(e, n)
            if v is not None and bits[e] == v % 2:
                return False
        return True

    def census(self, n_max: int) -> tuple[int, ...]:
        """Members at each level 0..n_max, from one settle per e < n_max at
        budget n_max: e fixes one bit from level max(e + 1, steps_e) on if
        its run converged within n_max, the others are free, so level n
        holds 2^(n - k(n))."""
        starts = [0] * (n_max + 1)
        for e in range(n_max):
            outcome, steps = self._settle(e, n_max)
            if isinstance(outcome, Converged) and steps <= n_max:
                starts[max(e + 1, steps)] += 1
        return tuple(1 << (n - k) for n, k in enumerate(accumulate(starts)))

    def witness(self, n: int) -> Bits:
        """The canonical level-n member: flip every settled parity, 0 elsewhere."""
        out = []
        for e in range(n):
            v = self.value_within(e, n)
            out.append(0 if v is None else 1 - v % 2)
        return tuple(out)

    def tree(self) -> DecidableTree:
        return DecidableTree(self.contains, self.census)


def kleene_tree(oracle: Oracle = BLOCK_ALL) -> DecidableTree:
    """The diagonal tree over an oracle.

    b of length n is a member iff no e < n has eval(e, e) settling within n
    steps to a value whose parity matches b(e).
    """
    return SettleTable(oracle).tree()


# ---------------------------------------------------------------------------
# Level censuses

def levels(tree: DecidableTree, n_max: int) -> Iterator[tuple[int, list[Bits]]]:
    """Members level by level, expanding only children of survivors.

    Sound on prefix-closed trees (use `full_scan_count` to audit that).
    """
    frontier = [()] if tree.contains(()) else []
    yield 0, frontier
    for n in range(1, n_max + 1):
        frontier = [b + (i,) for b in frontier for i in (0, 1) if tree.contains(b + (i,))]
        yield n, frontier


def full_scan_count(tree: DecidableTree, n: int) -> int:
    """Independent census: test every length-n sequence."""
    return sum(1 for bits in product((0, 1), repeat=n) if tree.contains(bits))


def _level_counts(tree: DecidableTree, n_max: int) -> Iterable[int]:
    """Level counts 0..n_max: the closed form if any, else expanded as asked."""
    if tree.census is not None:
        return tree.census(n_max)
    return (len(front) for _, front in levels(tree, n_max))


def level_census(tree: DecidableTree, n_max: int) -> tuple[int, ...]:
    """Members at each level 0..n_max."""
    return tuple(_level_counts(tree, n_max))


def wwkl_witness(tree: DecidableTree, n_max: int) -> int | None:
    """Least level where at least half the sequences are outside the tree."""
    for n, count in enumerate(_level_counts(tree, n_max)):
        if 2 * count <= (1 << n):
            return n
    return None


def check_prefix_closed(tree: DecidableTree, depth: int) -> list[Bits]:
    """Members (full scan) whose parent is not a member; empty means closed."""
    bad = []
    for n in range(1, depth + 1):
        for bits in product((0, 1), repeat=n):
            if tree.contains(bits) and not tree.contains(bits[:-1]):
                bad.append(bits)
    return bad


# ---------------------------------------------------------------------------
# Branch realizers

class IncoherentBranch(Exception):
    """A branch program returned outputs that do not line up into one path."""


class BranchDecider:
    """Membership test induced by a program that maps m to a length-m prefix.

    Each test runs the branch program exactly once (on the tested length;
    repeats are served from cache) and checks the output against everything
    seen before, so a non-chain or a wrong length surfaces as
    IncoherentBranch as soon as it is observable.
    """

    def __init__(self, code: int, oracle: Oracle = BLOCK_ALL, fuel: int = DEFAULT_FUEL):
        self.code = code
        self.oracle = oracle
        self.fuel = fuel
        self.calls = 0
        self._outputs: dict[int, Bits] = {}

    def prefix_at(self, m: int) -> Bits:
        cached = self._outputs.get(m)
        if cached is not None:
            return cached
        value = run_decider(self.code, m, self.oracle, self.fuel)
        self.calls += 1
        try:
            bits = code_to_bits(value)
        except ValueError:
            raise IncoherentBranch(f"output {value} at {m} is not a sequence code") from None
        if len(bits) != m:
            raise IncoherentBranch(f"asked for length {m}, got length {len(bits)}")
        for m2, bits2 in self._outputs.items():
            k = min(m, m2)
            if bits[:k] != bits2[:k]:
                raise IncoherentBranch(
                    f"outputs at {m2} and {m} disagree within the first {k} bits"
                )
        self._outputs[m] = bits
        return bits

    def contains(self, bits) -> bool:
        bits = tuple(bits)
        return bits == self.prefix_at(len(bits))

