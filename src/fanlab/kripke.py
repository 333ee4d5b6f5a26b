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

from itertools import product

from .machine import (
    Answer,
    BLOCKED,
    DEFAULT_FUEL,
    HALT,
    NO,
    YES,
    Blocked,
    Converged,
    EvalOutcome,
    Inc,
    OutOfFuel,
    Query,
    QueryTrace,
    pair,
    run,
    run_decider,
    unpair,
)
from .machine import _set, _Value

Node = tuple[int, ...]


def is_natural(text: str) -> bool:
    """The one grammar of naturals: ASCII digits only.  `int` would also
    take '٣', '1_0', ' 5' and '+5', and `isdigit` alone takes '²'."""
    return text.isascii() and text.isdigit()


def parse_node(text: str) -> Node:
    """Comma-separated naturals; the empty string is the root."""
    text = text.strip()
    if not text:
        return ()
    parts = [part.strip() for part in text.split(",")]
    if not all(map(is_natural, parts)):
        raise ValueError(f"node entries must be naturals: {text!r}")
    return tuple(map(int, parts))


def all_nodes(max_len: int, max_entry: int) -> list[Node]:
    """Nodes of length <= max_len with entries <= max_entry, shortest first."""
    entries = range(max_entry + 1)
    return [node for n in range(max_len + 1) for node in product(entries, repeat=n)]


class GroundReal(_Value):
    """A total 0/1 set of naturals backing one oracle slice.

    Presented either as a repeating bit pattern or as the code of a total
    no-oracle decider program (nonzero output means membership), run at
    DEFAULT_FUEL.
    """

    __slots__ = __match_args__ = ("pattern", "decider")
    def __init__(self, pattern: tuple[int, ...] | None = None, decider: int | None = None):
        if (pattern is None) == (decider is None):
            raise ValueError("give exactly one of pattern or decider")
        if pattern is not None:
            if not pattern or any(b not in (0, 1) for b in pattern):
                raise ValueError("pattern must be a nonempty 0/1 sequence")
        elif decider < 0:
            raise ValueError(f"decider must be a natural number, not {decider}")
        _set(self, "pattern", pattern)
        _set(self, "decider", decider)

    def contains(self, s: int) -> bool:
        if self.pattern is not None:
            return bool(self.pattern[s % len(self.pattern)])
        return run_decider(self.decider, s) != 0


Family = tuple[GroundReal, ...]


def layered_answer(family: Family, node: Node, query: int) -> Answer:
    """Membership answer for `query` at `node`; Blocked above the frozen slices."""
    k, s = unpair(query)
    if k >= len(node):
        return BLOCKED
    if k >= len(family):
        raise ValueError(f"family has no slice {k} but node {node} fixes it")
    member = family[k].contains(s) != bool((node[k] >> s) & 1)
    return YES if member else NO


class _Answers(dict):
    """One oracle's answers so far, by query.  A missing query is computed by
    `layered_answer`, looked up by its module name on each miss, and stored;
    a DeciderPartial propagates and stores nothing."""

    __slots__ = ("family", "node")

    def __missing__(self, query: int) -> Answer:
        out = self[query] = layered_answer(self.family, self.node, query)
        return out


class LayeredOracle(_Value):
    """The oracle at one node.  Its family and node are fixed and deciders run
    against BLOCK_ALL, so each query has one answer: it is computed once per
    instance and stored.  `answer` is the store's own lookup, so an answer
    asked before costs one C-level call.  `==`, `hash` and `repr` see only
    the family and the node."""

    __slots__ = ("family", "node", "answer")
    __match_args__ = ("family", "node")
    def __init__(self, family: Family, node: Node):
        _set(self, "family", family)
        _set(self, "node", node)
        answers = _Answers()
        answers.family, answers.node = family, node
        _set(self, "answer", answers.__getitem__)


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

class SliceAccessRow(_Value):
    __slots__ = __match_args__ = ("input", "outcome", "slices", "trace")
    def __init__(self, input: int, outcome: EvalOutcome, slices: frozenset[int], trace: QueryTrace):
        _set(self, "input", input)
        _set(self, "outcome", outcome)
        _set(self, "slices", slices)  # slice index of every issued query, blocking one included
        _set(self, "trace", trace)


class SliceAccessReport(_Value):
    __slots__ = __match_args__ = ("node", "rows")
    def __init__(self, node: Node, rows: tuple[SliceAccessRow, ...]):
        _set(self, "node", node)
        _set(self, "rows", rows)

    @property
    def settled_rows(self) -> tuple[SliceAccessRow, ...]:
        return tuple(r for r in self.rows if not isinstance(r.outcome, OutOfFuel))

    @property
    def out_of_fuel(self) -> int:
        """How many rows ran out of fuel: reported, never judged."""
        return len(self.rows) - len(self.settled_rows)

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
    slice_of: dict[int, int] = {}  # query -> its slice; rows repeat most queries
    rows = []
    for x in inputs:
        res = run(code, x, oracle, fuel)
        asked = set(res.trace.queries)
        if isinstance(res.outcome, Blocked):
            asked.add(res.outcome.query)
        for q in asked.difference(slice_of):
            slice_of[q] = unpair(q)[0]
        slices = frozenset(map(slice_of.__getitem__, asked))
        rows.append(SliceAccessRow(x, res.outcome, slices, res.trace))
    return SliceAccessReport(tuple(node), tuple(rows))


def slice_probe_program(k: int):
    """Program that queries pair(k, 0) and halts with the answer bit."""
    return tuple([Inc(1)] * pair(k, 0) + [Query(1, 0), HALT])
