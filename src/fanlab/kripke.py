"""Layered oracles indexed by nodes of the finite-sequence tree.

A node is a finite sequence of naturals; extending a node by one entry
freezes one more slice of the oracle.  A family of ground reals fixes the
base content of each slice; the entry chosen at depth k selects a finite
variation of slice k (the entry's binary digits name which elements to
flip).  Queries are Cantor codes pair(k, s): at a node of length n, queries
into slices k < n are answered and all others are blocked, so the root
answers nothing and information only ever accumulates along a branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .machine import (
    Answer,
    BLOCK_ALL,
    DEFAULT_FUEL,
    Blocked,
    Converged,
    EvalOutcome,
    OutOfFuel,
    QueryTrace,
    run,
    run_decider,
    unpair,
)

Node = tuple[int, ...]


def parse_node(text: str) -> Node:
    """Comma-separated naturals; the empty string is the root."""
    text = text.strip()
    if not text:
        return ()
    node = tuple(int(part) for part in text.split(","))
    if any(i < 0 for i in node):
        raise ValueError(f"node entries must be naturals: {text!r}")
    return node


def all_nodes(max_len: int, max_entry: int) -> list[Node]:
    """Nodes of length <= max_len with entries <= max_entry, shortest first."""
    entries = range(max_entry + 1)
    return [node for n in range(max_len + 1) for node in product(entries, repeat=n)]


@dataclass(frozen=True)
class GroundReal:
    """A total 0/1 set of naturals backing one oracle slice.

    Presented either as a repeating bit pattern or as the code of a total
    no-oracle decider program (nonzero output means membership).
    """

    pattern: tuple[int, ...] | None = None
    decider: int | None = None
    fuel: int = DEFAULT_FUEL

    def __post_init__(self):
        if (self.pattern is None) == (self.decider is None):
            raise ValueError("give exactly one of pattern or decider")
        if self.pattern is not None:
            if not self.pattern or any(b not in (0, 1) for b in self.pattern):
                raise ValueError("pattern must be a nonempty 0/1 sequence")

    def contains(self, s: int) -> bool:
        if self.pattern is not None:
            return bool(self.pattern[s % len(self.pattern)])
        return run_decider(self.decider, s, BLOCK_ALL, self.fuel) != 0


Family = tuple[GroundReal, ...]


def layered_answer(family: Family, node: Node, query: int) -> Answer:
    """Membership answer for `query` at `node`; Blocked above the frozen slices."""
    k, s = unpair(query)
    if k >= len(node):
        return Answer.BLOCKED
    if k >= len(family):
        raise ValueError(f"family has no slice {k} but node {node} fixes it")
    member = family[k].contains(s) != bool((node[k] >> s) & 1)
    return Answer.YES if member else Answer.NO


@dataclass(frozen=True)
class LayeredOracle:
    """The oracle at one node.  Its family and node are fixed and deciders run
    against BLOCK_ALL, so each query has one answer: it is computed once per
    instance and stored.  A DeciderPartial propagates and is never stored."""

    family: Family
    node: Node
    _memo: dict[int, Answer] = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False)

    def answer(self, query: int) -> Answer:
        out = self._memo.get(query)
        if out is None:
            out = self._memo[query] = layered_answer(self.family, self.node, query)
        return out


def node_oracle(family, node) -> LayeredOracle:
    family = tuple(family)
    node = tuple(node)
    if len(node) > len(family):
        raise ValueError(
            f"node of length {len(node)} needs {len(node)} ground reals, "
            f"family has {len(family)}"
        )
    return LayeredOracle(family, node)


# ---------------------------------------------------------------------------
# Slice-access reporting

@dataclass(frozen=True)
class SliceAccessRow:
    input: int
    outcome: EvalOutcome
    slices: frozenset[int]  # slice index of every issued query, blocking one included
    trace: QueryTrace


@dataclass(frozen=True)
class SliceAccessReport:
    node: Node
    rows: tuple[SliceAccessRow, ...]

    @property
    def settled_rows(self) -> tuple[SliceAccessRow, ...]:
        return tuple(r for r in self.rows if not isinstance(r.outcome, OutOfFuel))

    @property
    def lemma_holds(self) -> bool:
        """Converged on all settled inputs iff every issued query stayed below
        the node's length.  Out-of-fuel rows are reported but not judged."""
        settled = self.settled_rows
        all_converged = all(isinstance(r.outcome, Converged) for r in settled)
        all_low = all(k < len(self.node) for r in settled for k in r.slices)
        return all_converged == all_low


def check_slice_access(code: int, inputs, family, node,
                       fuel: int = DEFAULT_FUEL) -> SliceAccessReport:
    """Run a program at a node over many inputs and report which slices it asked."""
    oracle = node_oracle(family, node)
    rows = []
    for x in inputs:
        res = run(code, x, oracle, fuel)
        slices = {unpair(q)[0] for q, _ in res.trace.entries}
        if isinstance(res.outcome, Blocked):
            slices.add(unpair(res.outcome.query)[0])
        rows.append(SliceAccessRow(x, res.outcome, frozenset(slices), res.trace))
    return SliceAccessReport(tuple(node), tuple(rows))


def slice_probe_program(k: int, s: int = 0):
    """Program that queries pair(k, s) and halts with the answer bit."""
    from .machine import HALT, Inc, Query, pair

    return tuple([Inc(1)] * pair(k, s) + [Query(1, 0), HALT])
