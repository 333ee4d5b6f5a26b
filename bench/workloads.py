"""The four workloads: seeded inputs, one timed op, and a reference check.

Each workload is built from the fanlab modules of the current import (`fl`)
and a seed, and hands out its ops in rounds: `round(i)` is a list of op
inputs drawn from the seed and the round index, so the same seed always gives
the same ops in the same order.  `op` is the only timed call.  `check`
compares its output with a reference that does not share the timed code path;
with `plant` set it uses a deliberately wrong reference, which must fail.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ASM = HERE.parent / "scripts" / "asm"
PINS = HERE / "pins.json"


def _pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b


def _bound_ok(fan, bound, bar, expected_n) -> bool:
    """A `UniformBound` whose depth is checked against the source bar by
    exhaustive search, with a certificate that maps every length-n sequence
    to a bar element it extends."""
    if not isinstance(bound, fan.UniformBound):
        return False
    n = bound.n
    if expected_n is not None and n != expected_n:
        return False
    if not fan.verify_uniform_bound(bar, n):
        return False
    cert = bound.certificate
    if set(cert) != set(product((0, 1), repeat=n)):
        return False
    return all(bar(p) and seq[:len(p)] == p for seq, p in cert.items())


class ExtractTake:
    """Hot dispatch: a handful of cached realizer codes, each run hundreds of
    times, with nearly every step in a DECJZ/INC/JMP transfer loop."""

    name = "extract-take"
    trace_rounds = 1
    # One round: take-1..take-6 and first_bit.asm once each, first_zero.asm
    # four times, take-7 six times and take-8 once; take-7 and take-8 hold
    # most of the round's time.  A run takes two or more rounds, so its
    # median op is always a first_zero.asm extraction (~0.2 s) and its tail
    # op a take-7 one (~1 s).  A millisecond-long median op would sample the
    # host's speed at one instant, which spread by 30% between runs.  The
    # realizers are fixed programs, so the seed only orders the round.
    MIX = [(f"take-{k}", 1) for k in range(1, 7)] + [("first_bit", 1)] + \
          [("first_zero", 4), ("take-7", 6), ("take-8", 1)]

    def __init__(self, fl, seed: int):
        self.fl = fl
        self.seed = seed
        fan, machine = fl.fan, fl.machine
        self.cases = {}
        for k in range(1, 9):
            code = machine.encode_program(fan.take_prefix_program(k))
            self.cases[f"take-{k}"] = (fan.BarRealizer(code), 16, k)
        for name, n_max, expected in (("first_bit", 16, 1), ("first_zero", 9, None)):
            program = fl.cli.parse_assembly((ASM / f"{name}.asm").read_text())
            self.cases[name] = (fan.BarRealizer(machine.encode_program(program)), n_max, expected)

    def round(self, i: int) -> list[str]:
        ops = [name for name, times in self.MIX for _ in range(times)]
        random.Random(f"{self.name}/{self.seed}/{i}").shuffle(ops)
        return ops

    def op(self, name: str):
        realizer, n_max, _ = self.cases[name]
        try:
            return self.fl.fan.extract_bound(realizer, n_max=n_max)
        except self.fl.fan.ExtractionExhausted as exc:
            return exc

    def check(self, name: str, out, plant: bool) -> bool:
        fan = self.fl.fan
        _, n_max, expected = self.cases[name]
        if name == "first_zero":
            # Answers grow with the path, so there is no bound: the search
            # stops at the stage limit with only the all-ones path uncovered.
            stage = n_max + plant
            return (isinstance(out, fan.ExtractionExhausted) and out.stage == stage
                    and out.uncovered == ((1,) * stage,) and out.reason == "stage limit")
        expected += plant
        return _bound_ok(fan, out, fan.depth_bar(expected), expected)


class ExtractTables:
    """Decode-bound: every op is a fresh realizer whose code is a ~750k-bit
    integer, decoded once and then run only a few hundred steps."""

    name = "extract-tables"
    trace_rounds = 4
    OPS_PER_ROUND = 4
    # Leaf codes summing to at least this make a realizer of more than 4096
    # instructions, so every op lands in the same code-size class; smaller
    # tables fall in classes up to 8x cheaper and would make the op mix, not
    # the program, set the run-to-run spread.
    MIN_WEIGHT = 4600

    def __init__(self, fl, seed: int):
        self.fl = fl
        self.seed = seed

    @staticmethod
    def weight(table) -> int:
        return sum(_pair(len(b), sum(bit << j for j, bit in enumerate(b))) for b in table)

    def round(self, i: int) -> list[frozenset]:
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        tables = []
        while len(tables) < self.OPS_PER_ROUND:
            table = self.fl.fan.random_bar_table(rng, depth=5, stop_prob=0.2)
            if self.weight(table) >= self.MIN_WEIGHT:
                tables.append(table)
        return tables

    def op(self, table):
        fan, machine = self.fl.fan, self.fl.machine
        code = machine.encode_program(fan.compile_bar_table(table))
        return fan.extract_bound(fan.BarRealizer(code))

    def check(self, table, out, plant: bool) -> bool:
        if plant:  # a table missing one leaf leaves some path unbarred
            table = table - {min(table)}
        return _bound_ok(self.fl.fan, out, self.fl.fan.table_bar(table), None)


class KleeneCensus:
    """Trees-bound: `fanlab kleene` in-process, where the frontier grows to
    hundreds of members and each membership test walks the whole prefix."""

    name = "kleene-census"
    trace_rounds = 8
    DEPTH = 105
    NODES_PER_ROUND = 3
    SCAN_DEPTH = 12  # levels up to here are recounted by full scan
    # Every node the seed can pick, so each payload has a pinned digest.
    NODE_POOL = [",".join(map(str, node)) for n in (1, 2, 3)
                 for node in product(range(4), repeat=n)]

    def __init__(self, fl, seed: int):
        self.fl = fl
        self.seed = seed
        self._pins: dict | None = None
        self._scan_counts: dict = {}

    @classmethod
    def argv(cls, node: str | None) -> list[str]:
        argv = ["kleene", "--depth", str(cls.DEPTH)]
        return argv if node is None else argv + ["--node", node]

    def round(self, i: int) -> list[str | None]:
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        nodes = [None] + rng.sample(self.NODE_POOL, self.NODES_PER_ROUND)
        rng.shuffle(nodes)
        return nodes

    def op(self, node):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = self.fl.cli.main(self.argv(node))
        return status, buf.getvalue()

    @staticmethod
    def payload_digest(stdout: str) -> str:
        """Digest of the records, without the `#` header and wall-time lines."""
        lines = [ln for ln in stdout.splitlines() if not ln.startswith("#")]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def scan_counts(self, node) -> list[int]:
        if node not in self._scan_counts:
            trees, kripke = self.fl.trees, self.fl.kripke
            oracle = (self.fl.machine.BLOCK_ALL if node is None else
                      kripke.node_oracle(self.fl.cli.default_family(), kripke.parse_node(node)))
            tree = trees.kleene_tree(oracle)
            self._scan_counts[node] = [trees.full_scan_count(tree, n)
                                       for n in range(self.SCAN_DEPTH + 1)]
        return self._scan_counts[node]

    def check(self, node, out, plant: bool) -> bool:
        status, stdout = out
        if self._pins is None:
            self._pins = json.loads(PINS.read_text())["kleene-census"]
        pin = self._pins[" ".join(self.argv(node))]
        if plant:
            pin = pin[::-1]
        counts = [int(ln.split()[2]) for ln in stdout.splitlines() if ln.startswith("level ")]
        return (status == 0 and self.payload_digest(stdout) == pin
                and counts[:self.SCAN_DEPTH + 1] == self.scan_counts(node))


def query_loop_program(fl):
    """Asks codes 0, 1, 2, ... in turn, as many as the input says, and
    returns how many were answered Yes: a query every 4 to 6 steps."""
    m = fl.machine
    return (
        m.Decjz(0, 6),   # 0: inputs used up -> copy the count out
        m.Query(1, 2),   # 1: ask the code in r1
        m.Inc(1),        # 2
        m.Decjz(2, 0),   # 3: No -> next code
        m.Inc(3),        # 4: Yes -> count it
        m.Jmp(0),        # 5
        m.Decjz(3, 9),   # 6: r0 = r3
        m.Inc(0),        # 7
        m.Jmp(6),        # 8
    )


def mod_decider_program(fl, mod: int, residue: int):
    """Decides s mod `mod` == `residue`: DECJZ number i of the unrolled cycle
    finds r0 empty exactly when s mod `mod` == i."""
    m = fl.machine
    yes, no = mod + 1, mod + 3
    prog = [m.Decjz(0, yes if i == residue else no) for i in range(mod)]
    prog += [m.Jmp(0), m.Inc(0), m.Halt()]
    return tuple(prog)


class OracleScan:
    """Kripke plus query-dense dispatch: a query loop over every code below
    the first blocked one, at a deep node of a seeded family."""

    name = "oracle-scan"
    trace_rounds = 8
    OPS_PER_ROUND = 4
    DEPTH = 90           # node length; codes below DEPTH*(DEPTH+1)/2 are answered
    DECIDER_EVERY = 6    # slices k with k % 6 == 5 are decider-backed
    INPUT_STEPS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)  # x as a share of the answered codes

    def __init__(self, fl, seed: int):
        self.fl = fl
        self.seed = seed
        m, kripke = fl.machine, fl.kripke
        rng = random.Random(f"{self.name}/{seed}")
        self.members = []  # per slice: s -> bool, the reference membership
        family = []
        for k in range(self.DEPTH):
            if k % self.DECIDER_EVERY == self.DECIDER_EVERY - 1:
                mod = rng.randrange(2, 6)
                residue = rng.randrange(mod)
                code = m.encode_program(mod_decider_program(fl, mod, residue))
                family.append(kripke.GroundReal(decider=code))
                self.members.append(lambda s, mod=mod, r=residue: s % mod == r)
            else:
                pattern = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 9)))
                family.append(kripke.GroundReal(pattern=pattern))
                self.members.append(lambda s, p=pattern: p[s % len(p)] == 1)
        self.family = tuple(family)
        self.node = tuple(rng.getrandbits(12) for _ in range(self.DEPTH))
        self.code = m.encode_program(query_loop_program(fl))
        self.limit = self.DEPTH * (self.DEPTH + 1) // 2  # pair(DEPTH, 0), the first blocked code
        self._reference = None

    def round(self, i: int) -> list[tuple[int, ...]]:
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        return [tuple(max(0, round(self.limit * f) + rng.randrange(-32, 33))
                      for f in self.INPUT_STEPS)
                for _ in range(self.OPS_PER_ROUND)]

    def op(self, inputs):
        return self.fl.kripke.check_slice_access(self.code, inputs, self.family, self.node)

    def reference(self) -> list[tuple[int, bool]]:
        """(slice, answer) for every code below the limit, walking the Cantor
        diagonals in order: code q on diagonal w is slice w - s, position s."""
        if self._reference is None:
            self._reference = [
                (w - s, self.members[w - s](s) != bool((self.node[w - s] >> s) & 1))
                for w in range(self.DEPTH) for s in range(w + 1)
            ]
        return self._reference

    def check(self, inputs, report, plant: bool) -> bool:
        m = self.fl.machine
        reference = self.reference()
        if len(report.rows) != len(inputs) or not report.lemma_holds:
            return False
        for x, row in zip(inputs, report.rows):
            asked = reference[:x]
            got = [(q, a is m.Answer.YES) for q, a in row.trace.entries]
            if row.input != x or got != [(q, a) for q, (_, a) in enumerate(asked)]:
                return False
            slices = {k for k, _ in asked}
            if x <= self.limit:
                value = sum(a for _, a in asked) + plant
                plant = False
                if not (isinstance(row.outcome, m.Converged) and row.outcome.value == value):
                    return False
            else:
                slices.add(self.DEPTH)
                if not (isinstance(row.outcome, m.Blocked) and row.outcome.query == self.limit):
                    return False
            if row.slices != slices:
                return False
        return True


WORKLOADS = {w.name: w for w in (ExtractTake, ExtractTables, KleeneCensus, OracleScan)}
