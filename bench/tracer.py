"""Spans and counters recorded from outside the fanlab package.

`Tracer.install` swaps public fanlab functions for wrappers at the place the
calling module looks them up (for example `fanlab.fan.run`, not only
`fanlab.machine.run`), so no file of the package changes; `uninstall` puts
the originals back.  The wrappers are installed around one op at a time.

A span has a name, start, end, parent span and op id; its self time is its
duration minus the time its child spans cover.  Every span feeds the
per-name totals, but only the names in RECORDED are kept as records: the hot
ones (one per oracle answer or cover check) would dwarf the rest.  Records
stay in memory and are written once, by `dump`, after the run.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

RECORDED = frozenset({
    "op", "cli.main", "fan.extract", "fan.realizer", "kripke.check",
    "machine.run", "machine.decode", "machine.encode", "trees.levels",
})
RECORD_LIMIT = 100_000


class Tracer:
    def __init__(self):
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.counts: Counter = Counter()
        self.records: list[tuple | None] = []  # (id, name, start, end, parent id, op id)
        self.dropped = 0
        self.op_id = -1
        self._stack: list[list] = []  # [name, start, child_s, record id, parent record id]
        self._saved: list[tuple] = []  # (owner, attribute, original) while installed

    def enter(self, name: str) -> None:
        parent_id = None
        if self._stack:
            parent = self._stack[-1]
            parent_id = parent[4] if parent[3] is None else parent[3]
        rid = None
        if name in RECORDED:
            if len(self.records) < RECORD_LIMIT:
                rid = len(self.records)
                self.records.append(None)  # filled in by exit
            else:
                self.dropped += 1
        self._stack.append([name, perf_counter(), 0.0, rid, parent_id])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child_s, rid, parent_id = self._stack.pop()
        duration = end - start
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if rid is not None:
            self.records[rid] = (rid, name, start, end, parent_id, self.op_id)

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def self_s(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def span(self, name: str, fn):
        """`fn` wrapped in a span named `name`."""
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return traced

    def counted(self, key: str, fn):
        """`fn` with a call counter and no span, for calls too hot to time."""
        counts = self.counts

        def traced(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return traced

    def install(self, fl) -> None:
        """Wrap fanlab's public functions in every module that calls them."""
        machine, kripke, trees, fan, cli = fl.machine, fl.kripke, fl.trees, fl.fan, fl.cli
        patches = [
            (machine, "run", self._traced_run(machine, "machine")),
            (fan, "run", self._traced_run(machine, "fan")),
            (trees, "run", self._traced_run(machine, "trees")),
            (kripke, "run", self._traced_run(machine, "kripke")),
            (cli, "run", self._traced_run(machine, "cli")),
            (machine, "decode_program", self._traced_decode(machine.decode_program)),
            (machine, "encode_program", self.span("machine.encode", machine.encode_program)),
            (cli, "encode_program", self.span("machine.encode", cli.encode_program)),
            (kripke, "layered_answer", self._traced_answer(kripke.layered_answer, machine)),
            (kripke, "run_decider", self.counted("kripke.ground.decider_runs", kripke.run_decider)),
            (kripke, "check_slice_access", self.span("kripke.check", kripke.check_slice_access)),
            (fan, "extract_bound", self._traced_extract(fan)),
            (fan, "apply_realizer_to_path", self.span("fan.realizer", fan.apply_realizer_to_path)),
            (fan.PathOracle, "read", self.counted("fan.path.reads", fan.PathOracle.read)),
            (trees, "levels", self._traced_levels(trees.levels)),
            (trees.DecidableTree, "contains",
             self.counted("trees.contains.calls", trees.DecidableTree.contains)),
            (cli, "main", self.span("cli.main", cli.main)),
        ]
        for method in ("commit", "covers", "covering_prefix", "uncovered"):
            fn = getattr(fan.CoverSet, method)
            if method in ("covers", "covering_prefix"):  # one sequence tested each
                fn = self.counted("fan.cover.checks", fn)
            patches.append((fan.CoverSet, method, self.span("fan.cover", fn)))
        for owner, attr, wrapper in patches:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _traced_run(self, machine, binding: str):
        span_run = self.span("machine.run", machine.run)
        counts = self.counts
        blocked, out_of_fuel = machine.Blocked, machine.OutOfFuel

        def traced(code, x, oracle=machine.BLOCK_ALL, fuel=100_000):
            res = span_run(code, x, oracle, fuel)
            counts["machine.steps"] += res.steps
            counts["machine.queries"] += len(res.trace.entries) + isinstance(res.outcome, blocked)
            if binding == "trees":
                counts["trees.selfrun.runs"] += 1
                counts["trees.selfrun.settled"] += not isinstance(res.outcome, out_of_fuel)
            return res
        return traced

    def _traced_decode(self, decode):
        info = getattr(decode, "cache_info", None)
        span_decode = self.span("machine.decode", decode)
        counts = self.counts

        def traced(code):
            misses = info().misses if info else None
            out = span_decode(code)
            if info is None or info().misses != misses:
                counts["machine.decode.bits"] += code.bit_length()
            return out
        return traced

    def _traced_answer(self, layered_answer, machine):
        span_answer = self.span("kripke.answer", layered_answer)
        blocked = machine.Answer.BLOCKED
        counts = self.counts

        def traced(family, node, query):
            out = span_answer(family, node, query)
            counts["kripke.answer.blocked"] += out is blocked
            return out
        return traced

    def _traced_extract(self, fan):
        extract = self.span("fan.extract", fan.extract_bound)
        counts = self.counts

        def traced(realizer, **kwargs):
            try:
                bound = extract(realizer, **kwargs)
            except fan.ExtractionExhausted as exc:
                counts["fan.stages"] += exc.stage + 1
                raise
            counts["fan.stages"] += bound.n + 1
            return bound
        return traced

    def _traced_levels(self, levels):
        counts = self.counts

        def traced(tree, n_max):
            it = levels(tree, n_max)
            while True:
                self.enter("trees.levels")  # one span per level produced
                try:
                    item = next(it, None)
                finally:
                    self.exit()
                if item is None:
                    return
                counts["trees.members"] += len(item[1])
                yield item
        return traced

    def dump(self, path, header: dict) -> None:
        doc = dict(header, dropped=self.dropped,
                   fields=["id", "name", "start", "end", "parent", "op"],
                   spans=self.records)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
